//! Slotted pages: the database's unit of storage and I/O.
//!
//! Layout (within a fixed [`PAGE_SIZE`] buffer):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header: page_lsn (8) | slot_count (2) | free_upper (2)       |
//! | slot directory: [offset u16, len u16] per slot, growing down |
//! |  ... free space ...                                          |
//! | record heap, growing up from the end                         |
//! +--------------------------------------------------------------+
//! ```
//!
//! Deleted slots keep their directory entry with `len = 0` (tombstone) so
//! `(page, slot)` addresses stay stable.
//!
//! A [`SlottedPage`] owns its 4 KiB: cloning one copies them, and no two
//! pages ever share a buffer. The engine keeps one image per page, the
//! durable one (`crate::images`); a write that has not reached it yet is a
//! [`Redo`] entry — in a dirty buffer frame or in a write in flight — that
//! names its after-image in its log record.

use std::ops::{Index, IndexMut};

use crate::wal::{ImageRef, Wal};

/// Fixed page size, matching the flash page size used by the devices.
pub const PAGE_SIZE: usize = 4096;

/// Record slots on every data page, all present from
/// [`Database::load`](crate::Database::load) on. The engine and the
/// executor fold a transaction's slot number into this range.
pub const SLOTS_PER_PAGE: u16 = 16;

/// Bytes in every record (a write logs an after-image of this size).
pub const RECORD_SIZE: usize = 100;

const HEADER_BYTES: usize = 12;
const SLOT_BYTES: usize = 4;

/// Identifier of a page within the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// One `T` per page of a database whose page ids are dense in
/// `[0, pages)`: the db layer's way from a page number to that page's
/// state. Indexing by a [`PageId`] beyond the table is an engine bug and
/// panics with a message (the panic policy, DESIGN §2.5) instead of
/// growing the table.
#[derive(Debug, Clone)]
pub(crate) struct PageVec<T>(Vec<T>);

impl<T: Clone> PageVec<T> {
    /// `fill` for every page of a `pages`-page database.
    pub(crate) fn new(pages: u64, fill: T) -> Self {
        PageVec(vec![fill; pages as usize])
    }

    /// Reset every page's entry to `value`.
    pub(crate) fn fill(&mut self, value: T) {
        self.0.fill(value);
    }
}

impl<T> PageVec<T> {
    fn slot(&self, page: PageId) -> usize {
        assert!(
            page.0 < self.0.len() as u64,
            "page {} beyond the {}-page table",
            page.0,
            self.0.len()
        );
        page.0 as usize
    }
}

impl<T> Index<PageId> for PageVec<T> {
    type Output = T;
    fn index(&self, page: PageId) -> &T {
        &self.0[self.slot(page)]
    }
}

impl<T> IndexMut<PageId> for PageVec<T> {
    fn index_mut(&mut self, page: PageId) -> &mut T {
        let i = self.slot(page);
        &mut self.0[i]
    }
}

/// An in-memory slotted page, sole owner of its buffer: `Clone` copies
/// the bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct SlottedPage {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// A fresh, empty page (LSN 0, no slots).
    pub fn new() -> Self {
        let mut p = SlottedPage {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_free_upper(PAGE_SIZE as u16);
        p
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u64(&self, at: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[at..at + 8]);
        u64::from_le_bytes(b)
    }

    fn write_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Page LSN: the LSN of the last log record that modified this page.
    pub fn lsn(&self) -> u64 {
        self.read_u64(0)
    }

    /// Set the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.write_u64(0, lsn);
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(8)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.write_u16(8, n);
    }

    fn free_upper(&self) -> u16 {
        self.read_u16(10)
    }

    fn set_free_upper(&mut self, v: u16) {
        self.write_u16(10, v);
    }

    fn slot_dir_at(&self, slot: u16) -> usize {
        HEADER_BYTES + slot as usize * SLOT_BYTES
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let at = self.slot_dir_at(slot);
        (self.read_u16(at), self.read_u16(at + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let at = self.slot_dir_at(slot);
        self.write_u16(at, offset);
        self.write_u16(at + 2, len);
    }

    /// Contiguous free bytes available for one new record (accounting for
    /// its slot-directory entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_BYTES + self.slot_count() as usize * SLOT_BYTES;
        (self.free_upper() as usize)
            .saturating_sub(dir_end)
            .saturating_sub(SLOT_BYTES)
    }

    /// Insert a record; returns its slot, or `None` if it does not fit.
    ///
    /// # Panics
    /// Panics on zero-length or oversized (> ~page) records.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        assert!(!record.is_empty(), "empty records are not storable");
        assert!(record.len() < PAGE_SIZE, "record larger than a page");
        if record.len() > self.free_space() {
            return None;
        }
        let slot = self.slot_count();
        let new_upper = self.free_upper() as usize - record.len();
        self.buf[new_upper..new_upper + record.len()].copy_from_slice(record);
        self.set_free_upper(new_upper as u16);
        self.set_slot_entry(slot, new_upper as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        Some(slot)
    }

    /// Read a record; `None` for out-of-range or deleted slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Delete a record (tombstone; space is not compacted).
    /// Returns whether a live record was deleted.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (_, len) = self.slot_entry(slot);
        if len == 0 {
            return false;
        }
        let (off, _) = self.slot_entry(slot);
        self.set_slot_entry(slot, off, 0);
        true
    }

    /// Update a record in place if the new value fits its old footprint,
    /// else delete + reinsert (slot changes). Returns the (possibly new)
    /// slot, or `None` if it no longer fits in the page.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Option<u16> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return None;
        }
        if record.len() <= len as usize {
            let off = off as usize;
            self.buf[off..off + record.len()].copy_from_slice(record);
            self.set_slot_entry(slot, off as u16, record.len() as u16);
            Some(slot)
        } else {
            self.delete(slot);
            self.insert(record)
        }
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Redo one logged write: `after` replaces the record in `slot`
    /// (`None` deletes it), then the page carries `lsn`. The one apply
    /// behind write-back, a landing checkpoint, recovery and media redo.
    pub(crate) fn redo(&mut self, slot: u16, after: Option<&[u8]>, lsn: u64) {
        if let Some(after) = after {
            let kept = self.update(slot, after);
            debug_assert!(kept.map_or(true, |s| s == slot), "a write moved its record");
        } else {
            self.delete(slot);
        }
        self.set_lsn(lsn);
    }
}

/// A page's writes since its durable image and the page LSN they leave:
/// what a dirty buffer frame holds instead of a copy of the page. Only a
/// slot's newest write is kept — exact, because every write the engine
/// makes overwrites a live record of its own size in place (DESIGN §2.7).
#[derive(Debug, Default)]
pub(crate) struct Redo {
    /// `(slot, after-image in its log record)`, `None` deleting the
    /// record, in the order the slots were first written.
    pub(crate) writes: Vec<(u16, Option<ImageRef>)>,
    /// The page LSN they leave: the newest logged write's; 0 when none
    /// was logged (a rollback alone leaves the page's own).
    pub(crate) lsn: u64,
}

impl Redo {
    /// Record a write of `slot`.
    pub(crate) fn push(&mut self, slot: u16, after: Option<ImageRef>) {
        match self.writes.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, newest @ Some(_))) => *newest = after,
            Some(_) => {} // a write over a deleted record changes nothing
            None => self.writes.push((slot, after)),
        }
    }

    /// The newest write of `slot` here; `None` when there is none.
    pub(crate) fn slot(&self, slot: u16) -> Option<Option<ImageRef>> {
        self.writes
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|&(_, after)| after)
    }

    /// Forget every write, keeping the list's capacity.
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
        self.lsn = 0;
    }

    /// Apply these writes onto `page`, leaving the newer of the two page
    /// LSNs.
    pub(crate) fn apply(&self, page: &mut SlottedPage, wal: &Wal) {
        let lsn = self.lsn.max(page.lsn());
        for &(slot, after) in &self.writes {
            page.redo(slot, after.map(|a| wal.after(a)), lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1), Some(&b"hello"[..]));
        assert_eq!(p.get(s2), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn delete_leaves_tombstone_with_stable_slots() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"aaa").unwrap();
        let s2 = p.insert(b"bbb").unwrap();
        assert!(p.delete(s1));
        assert_eq!(p.get(s1), None);
        assert_eq!(p.get(s2), Some(&b"bbb"[..]));
        assert!(!p.delete(s1), "double delete is a no-op");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"0123456789").unwrap();
        // shrink in place: same slot
        assert_eq!(p.update(s, b"abc"), Some(s));
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        // grow: moves to a new slot
        let s2 = p.update(s, b"a longer record than before").unwrap();
        assert_ne!(s2, s);
        assert_eq!(p.get(s2), Some(&b"a longer record than before"[..]));
        assert_eq!(p.get(s), None);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = SlottedPage::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // ~ (4096 - 12) / 104 ≈ 39 records
        assert!((35..=40).contains(&n), "inserted {n}");
        assert!(p.free_space() < rec.len());
    }

    #[test]
    fn lsn_roundtrip() {
        let mut p = SlottedPage::new();
        p.set_lsn(0xDEADBEEF);
        assert_eq!(p.lsn(), 0xDEADBEEF);
    }

    #[test]
    fn records_iterates_live_only() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let live: Vec<u16> = p.records().map(|(s, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }

    /// Every write path, applied to a page or to its clone, must leave the
    /// other's bytes alone — whichever side writes.
    #[test]
    fn a_write_through_a_clone_never_reaches_the_page_it_was_cloned_from() {
        let writes: [fn(&mut SlottedPage); 5] = [
            |p| {
                p.insert(b"new record").unwrap();
            },
            |p| {
                p.update(0, b"in place").unwrap();
            },
            |p| {
                p.update(0, b"grown past its old footprint").unwrap();
            },
            |p| {
                assert!(p.delete(0));
            },
            |p| p.set_lsn(99),
        ];
        let mut origin = SlottedPage::new();
        origin.insert(b"0123456789").unwrap();
        origin.set_lsn(7);
        let bytes = *origin.as_bytes();
        for write in writes {
            let mut clone = origin.clone();
            write(&mut clone);
            assert_ne!(clone.as_bytes(), &bytes, "the write must land somewhere");
            assert_eq!(
                origin.as_bytes(),
                &bytes,
                "clone's write reached the origin"
            );

            let mut written = origin.clone();
            let kept = written.clone();
            write(&mut written);
            assert_eq!(kept.as_bytes(), &bytes, "origin's write reached its clone");
            assert_eq!(written.as_bytes(), clone.as_bytes());
        }
    }

    #[test]
    fn page_vec_indexes_by_page_id() {
        let mut v = PageVec::new(4, 0u8);
        v[PageId(3)] = 9;
        assert_eq!((v[PageId(0)], v[PageId(3)]), (0, 9));
        v.fill(1);
        assert_eq!(v[PageId(3)], 1);
    }

    #[test]
    #[should_panic(expected = "page 4 beyond the 4-page table")]
    fn page_vec_rejects_an_id_beyond_the_table() {
        let _ = PageVec::new(4, 0u8)[PageId(4)];
    }

    #[test]
    #[should_panic(expected = "empty records")]
    fn empty_record_rejected() {
        SlottedPage::new().insert(b"");
    }
}
