//! Page images: the database's unit of storage and I/O.
//!
//! A page is [`SLOTS_PER_PAGE`] fixed records of [`RECORD_SIZE`] bytes,
//! addressed as `(page, slot)`, and a page LSN. Every slot is present
//! from [`Database::load`](crate::Database::load) on and every write
//! replaces a record of its own size in place (DESIGN §2.7), so a
//! [`PageImage`] is those records and nothing else — no header, no slot
//! directory, no free space. And it holds only the records written since
//! the page was formatted: a slot never written reads as the formatted
//! zero record, which no image stores.
//!
//! ```text
//! +-----------+--------------+--------------+---------------------------+
//! | lsn (u64) | present bits | written bits | one RECORD_SIZE record    |
//! |           | (u16)        | (u16)        | per written bit, in slot  |
//! |           |              |              | order (heap, exact fit)   |
//! +-----------+--------------+--------------+---------------------------+
//! ```
//!
//! A formatted image owns no heap bytes; one written in k slots owns k
//! records. A deleted slot clears its present bit, a tombstone: `get`
//! reads `None` and a later write of it changes nothing but the page LSN,
//! as [`LogRecord::Delete`](crate::wal::LogRecord::Delete) means. Two
//! images are equal when they read the same, slot by slot, at the same
//! LSN, however their records are stored.
//!
//! A [`PageImage`] owns its bytes: cloning one copies them, and no two
//! pages ever share them. The engine keeps one image per page, the
//! durable one (`crate::images`); a write that has not reached it yet is a
//! `Redo` entry — in a dirty buffer frame or in a write in flight — that
//! names its after-image in its log record.

use std::ops::{Index, IndexMut};

use crate::wal::{ImageRef, Wal};

/// Flash page size of the devices: the unit the log and the staging
/// areas are laid out in. A page image is smaller ([`PageImage`]).
pub const PAGE_SIZE: usize = 4096;

/// Record slots on every data page, all present from
/// [`Database::load`](crate::Database::load) on. The engine and the
/// executor fold a transaction's slot number into this range.
pub const SLOTS_PER_PAGE: u16 = 16;

/// Bytes in every record (a write logs an after-image of this size).
pub const RECORD_SIZE: usize = 100;

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

const _: () = assert!(
    SLOTS_PER_PAGE as u32 <= u16::BITS,
    "one present and one written bit per slot"
);

/// What a slot never written since format reads as.
static FORMATTED_RECORD: [u8; RECORD_SIZE] = [0; RECORD_SIZE];

/// An in-memory page image, sole owner of its bytes: `Clone` copies them.
#[derive(Clone)]
pub struct PageImage {
    /// LSN of the last log record that modified the page.
    lsn: u64,
    /// Bit `s` set = slot `s` holds a record; clear = deleted.
    present: u16,
    /// Bit `s` set = slot `s` was written since format, and its record is
    /// in `records`.
    written: u16,
    /// The written slots' records, in slot order, with no spare capacity.
    records: Vec<[u8; RECORD_SIZE]>,
}

impl std::fmt::Debug for PageImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageImage")
            .field("lsn", &self.lsn)
            .field("present", &format_args!("{:#06x}", self.present))
            .field("written", &format_args!("{:#06x}", self.written))
            .finish()
    }
}

/// Equal when both read the same record (or none) from every slot at the
/// same LSN: a slot written back to the formatted record equals one never
/// written.
impl PartialEq for PageImage {
    fn eq(&self, other: &Self) -> bool {
        self.lsn == other.lsn && (0..SLOTS_PER_PAGE).all(|s| self.get(s) == other.get(s))
    }
}

impl Eq for PageImage {}

impl PageImage {
    /// A page as [`Database::load`](crate::Database::load) formats it:
    /// every slot present and zeroed, LSN 0. Allocates nothing.
    pub(crate) fn formatted() -> Self {
        PageImage {
            lsn: 0,
            present: u16::MAX >> (u16::BITS - u32::from(SLOTS_PER_PAGE)),
            written: 0,
            records: Vec::new(),
        }
    }

    /// Page LSN: the LSN of the last log record that modified this page.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Where `slot`'s record is in `records`: the written slots below it.
    fn rank(&self, slot: u16) -> usize {
        (self.written & ((1 << slot) - 1)).count_ones() as usize
    }

    /// Read a record; `None` for out-of-range or deleted slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= SLOTS_PER_PAGE || (self.present >> slot) & 1 == 0 {
            return None;
        }
        Some(match (self.written >> slot) & 1 {
            1 => &self.records[self.rank(slot)],
            _ => &FORMATTED_RECORD,
        })
    }

    /// Records this image owns heap bytes for.
    #[cfg(test)]
    pub(crate) fn records_owned(&self) -> usize {
        self.records.capacity()
    }

    /// Redo one logged write: `after` replaces the record in `slot`
    /// (`None` deletes it), then the page carries `lsn`. A write over a
    /// deleted record changes nothing but the LSN. A slot's first write
    /// grows the records by exactly one. The one apply behind write-back,
    /// a landing checkpoint, recovery and media redo.
    ///
    /// # Panics
    /// Panics on a slot beyond [`SLOTS_PER_PAGE`], or on a write of a
    /// present slot whose after-image is not [`RECORD_SIZE`] bytes.
    pub(crate) fn redo(&mut self, slot: u16, after: Option<&[u8]>, lsn: u64) {
        assert!(
            slot < SLOTS_PER_PAGE,
            "slot index out of bounds: the page has {SLOTS_PER_PAGE} slots but the index is {slot}"
        );
        let bit = 1 << slot;
        match after {
            Some(_) if self.present & bit == 0 => {} // a deleted record
            Some(after) if self.written & bit != 0 => {
                let at = self.rank(slot);
                self.records[at].copy_from_slice(after);
            }
            Some(after) => {
                let mut record = [0; RECORD_SIZE];
                record.copy_from_slice(after);
                let at = self.rank(slot);
                self.records.reserve_exact(1);
                self.records.insert(at, record);
                self.written |= bit;
            }
            None => self.present &= !bit,
        }
        self.lsn = lsn;
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
    pub(crate) fn apply(&self, page: &mut PageImage, wal: &Wal) {
        let lsn = self.lsn.max(page.lsn());
        for &(slot, after) in &self.writes {
            page.redo(slot, after.map(|a| wal.after(a)), lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const HEADER_BYTES: usize = 12;
    const SLOT_BYTES: usize = 4;

    /// The general slotted page [`PageImage`] replaced, kept as the
    /// reference it is checked against. Layout (within a fixed 4 KiB
    /// buffer):
    ///
    /// ```text
    /// +--------------------------------------------------------------+
    /// | header: page_lsn (8) | slot_count (2) | free_upper (2)       |
    /// | slot directory: [offset u16, len u16] per slot, growing down |
    /// |  ... free space ...                                          |
    /// | record heap, growing up from the end                         |
    /// +--------------------------------------------------------------+
    /// ```
    ///
    /// Deleted slots keep their directory entry with `len = 0` (tombstone)
    /// so `(page, slot)` addresses stay stable.
    struct SlottedPage {
        buf: Box<[u8; PAGE_SIZE]>,
    }

    impl SlottedPage {
        fn new() -> Self {
            let mut p = SlottedPage {
                buf: Box::new([0u8; PAGE_SIZE]),
            };
            p.set_free_upper(PAGE_SIZE as u16);
            p
        }

        fn read_u16(&self, at: usize) -> u16 {
            u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
        }

        fn write_u16(&mut self, at: usize, v: u16) {
            self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
        }

        fn lsn(&self) -> u64 {
            u64::from_le_bytes(self.buf[..8].try_into().unwrap())
        }

        fn set_lsn(&mut self, lsn: u64) {
            self.buf[..8].copy_from_slice(&lsn.to_le_bytes());
        }

        fn slot_count(&self) -> u16 {
            self.read_u16(8)
        }

        fn free_upper(&self) -> u16 {
            self.read_u16(10)
        }

        fn set_free_upper(&mut self, v: u16) {
            self.write_u16(10, v);
        }

        fn slot_entry(&self, slot: u16) -> (u16, u16) {
            let at = HEADER_BYTES + slot as usize * SLOT_BYTES;
            (self.read_u16(at), self.read_u16(at + 2))
        }

        fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
            let at = HEADER_BYTES + slot as usize * SLOT_BYTES;
            self.write_u16(at, offset);
            self.write_u16(at + 2, len);
        }

        fn free_space(&self) -> usize {
            let dir_end = HEADER_BYTES + self.slot_count() as usize * SLOT_BYTES;
            (self.free_upper() as usize)
                .saturating_sub(dir_end)
                .saturating_sub(SLOT_BYTES)
        }

        fn insert(&mut self, record: &[u8]) -> Option<u16> {
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
            self.write_u16(8, slot + 1);
            Some(slot)
        }

        fn get(&self, slot: u16) -> Option<&[u8]> {
            if slot >= self.slot_count() {
                return None;
            }
            let (off, len) = self.slot_entry(slot);
            if len == 0 {
                return None;
            }
            Some(&self.buf[off as usize..off as usize + len as usize])
        }

        fn delete(&mut self, slot: u16) -> bool {
            if self.get(slot).is_none() {
                return false;
            }
            let (off, _) = self.slot_entry(slot);
            self.set_slot_entry(slot, off, 0);
            true
        }

        /// In place if the new value fits the old footprint, else delete +
        /// reinsert (the slot changes).
        fn update(&mut self, slot: u16, record: &[u8]) -> Option<u16> {
            let len = self.get(slot)?.len();
            if record.len() <= len {
                let (off, _) = self.slot_entry(slot);
                let off = off as usize;
                self.buf[off..off + record.len()].copy_from_slice(record);
                self.set_slot_entry(slot, off as u16, record.len() as u16);
                Some(slot)
            } else {
                self.delete(slot);
                self.insert(record)
            }
        }

        fn redo(&mut self, slot: u16, after: Option<&[u8]>, lsn: u64) {
            if let Some(after) = after {
                let kept = self.update(slot, after);
                assert!(kept.map_or(true, |s| s == slot), "a write moved its record");
            } else {
                self.delete(slot);
            }
            self.set_lsn(lsn);
        }

        /// As the engine formatted it: every slot present and zeroed.
        fn formatted() -> Self {
            let mut p = SlottedPage::new();
            for _ in 0..SLOTS_PER_PAGE {
                p.insert(&[0; RECORD_SIZE]).unwrap();
            }
            p
        }
    }

    fn record(tag: u8) -> [u8; RECORD_SIZE] {
        [tag; RECORD_SIZE]
    }

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
    #[should_panic(expected = "empty records")]
    fn empty_record_rejected() {
        SlottedPage::new().insert(b"");
    }

    #[test]
    fn delete_leaves_tombstone_with_stable_slots() {
        let mut p = PageImage::formatted();
        p.redo(1, Some(&record(2)), 1);
        p.redo(0, None, 2);
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(1), Some(&record(2)[..]));
        p.redo(0, Some(&record(3)), 3);
        assert_eq!(
            (p.get(0), p.lsn()),
            (None, 3),
            "a write over a deleted record changes nothing but the LSN"
        );
    }

    #[test]
    fn lsn_roundtrip() {
        let mut p = PageImage::formatted();
        p.redo(0, Some(&record(1)), 0xDEADBEEF);
        assert_eq!(p.lsn(), 0xDEADBEEF);
    }

    #[test]
    fn a_formatted_page_reads_every_slot_present_and_zeroed_at_lsn_0() {
        let p = PageImage::formatted();
        assert_eq!(p.lsn(), 0);
        for slot in 0..SLOTS_PER_PAGE {
            assert_eq!(p.get(slot), Some(&[0; RECORD_SIZE][..]), "slot {slot}");
        }
        assert_eq!(p.get(SLOTS_PER_PAGE), None);
    }

    /// A formatted image owns no record bytes; one written in k distinct
    /// slots owns exactly k records, however often each was rewritten —
    /// never a flash page, never the whole page's records.
    #[test]
    fn an_image_owns_one_record_per_slot_written_since_format() {
        let p = PageImage::formatted();
        assert_eq!((p.records.len(), p.records.capacity()), (0, 0));
        assert_eq!(p.clone().records.capacity(), 0, "a clone allocates nothing");
        let mut p = p;
        for (k, slot) in [9, 2, 15, 0, 7].into_iter().enumerate() {
            p.redo(slot, Some(&record(1)), 1);
            p.redo(slot, Some(&record(2)), 2);
            p.redo(9, Some(&record(3)), 3);
            assert_eq!(p.records.len(), k + 1, "after {} slots", k + 1);
            assert_eq!(p.records.capacity(), k + 1, "after {} slots", k + 1);
        }
        assert_eq!(p.clone().records.capacity(), 5);
        p.redo(4, None, 4);
        p.redo(4, Some(&record(5)), 5);
        assert_eq!(
            p.records.len(),
            5,
            "neither a delete nor a write of it adds one"
        );
        assert_eq!(
            std::mem::size_of::<PageImage>(),
            40,
            "LSN, two bit sets and a Vec header: no inline record"
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_write_beyond_the_last_slot_panics() {
        PageImage::formatted().redo(SLOTS_PER_PAGE, None, 1);
    }

    /// Every write path, applied to a page or to its clone, must leave the
    /// other's bytes alone — whichever side writes.
    #[test]
    fn a_write_through_a_clone_never_reaches_the_page_it_was_cloned_from() {
        let writes: [fn(&mut PageImage); 3] = [
            |p| p.redo(0, Some(&record(9)), 7),
            |p| p.redo(0, None, 7),
            |p| p.redo(0, Some(&record(1)), 99),
        ];
        let mut origin = PageImage::formatted();
        origin.redo(0, Some(&record(1)), 7);
        let before = origin.clone();
        for write in writes {
            let mut clone = origin.clone();
            write(&mut clone);
            assert_ne!(clone, before, "the write must land somewhere");
            assert_eq!(origin, before, "clone's write reached the origin");

            let mut written = origin.clone();
            let kept = written.clone();
            write(&mut written);
            assert_eq!(kept, before, "origin's write reached its clone");
            assert_eq!(written, clone);
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
    fn a_slot_written_back_to_the_formatted_record_equals_one_never_written() {
        let mut written = PageImage::formatted();
        written.redo(3, Some(&record(4)), 1);
        written.redo(3, Some(&[0; RECORD_SIZE]), 2);
        let mut untouched = PageImage::formatted();
        untouched.redo(5, None, 2);
        untouched.redo(5, Some(&record(6)), 2);
        assert_ne!(written, untouched, "slot 5 deleted in one only");
        written.redo(5, None, 2);
        assert_eq!(written, untouched);
        assert_ne!(written.written, untouched.written, "stored differently");
        written.redo(0, None, 3);
        assert_ne!(written, untouched, "the LSN differs");
    }

    proptest! {
        /// Random redo sequences over every slot: a write of a record (tag
        /// 1..8), a delete (tag 0), each at an arbitrary LSN. After every
        /// step both pages read the same record from every slot and carry
        /// the same LSN.
        #[test]
        fn the_image_reads_as_the_slotted_page_it_replaced(
            ops in proptest::collection::vec((0..SLOTS_PER_PAGE, 0..8u8, 0..u64::MAX), 1..200),
        ) {
            let (mut image, mut slotted) = (PageImage::formatted(), SlottedPage::formatted());
            for (step, (slot, tag, lsn)) in ops.into_iter().enumerate() {
                let after = (tag > 0).then(|| record(tag));
                image.redo(slot, after.as_ref().map(|r| &r[..]), lsn);
                slotted.redo(slot, after.as_ref().map(|r| &r[..]), lsn);
                prop_assert_eq!(image.lsn(), slotted.lsn(), "step {}", step);
                for s in 0..=SLOTS_PER_PAGE {
                    prop_assert_eq!(image.get(s), slotted.get(s), "step {} slot {}", step, s);
                }
            }
        }

        /// Two write histories over a few slots — records tagged 0..3, tag
        /// 0 being the formatted record, tag 3 a delete, two LSNs, so that
        /// they often meet — give equal images exactly when the slotted
        /// page replaying them reads the same in every slot at the same
        /// LSN, whichever slots each image stored a record for.
        #[test]
        fn images_are_equal_when_they_read_the_same(
            a in proptest::collection::vec((0..4u16, 0..4u8, 0..2u64), 0..8),
            b in proptest::collection::vec((0..4u16, 0..4u8, 0..2u64), 0..8),
        ) {
            let replay = |ops: &[(u16, u8, u64)]| {
                let (mut image, mut slotted) = (PageImage::formatted(), SlottedPage::formatted());
                for &(slot, tag, lsn) in ops {
                    // tag 3 deletes; the rest write a record of their tag
                    let after = (tag < 3).then(|| record(tag));
                    image.redo(slot, after.as_ref().map(|r| &r[..]), lsn);
                    slotted.redo(slot, after.as_ref().map(|r| &r[..]), lsn);
                }
                (image, slotted)
            };
            let ((x, xs), (y, ys)) = (replay(&a), replay(&b));
            let reads_same = xs.lsn() == ys.lsn() && (0..SLOTS_PER_PAGE).all(|s| xs.get(s) == ys.get(s));
            prop_assert_eq!(x == y, reads_same);
            // the same reads through a history that writes the formatted
            // record into every slot still present first
            let mut z = PageImage::formatted();
            for s in 0..SLOTS_PER_PAGE {
                z.redo(s, Some(&[0; RECORD_SIZE]), 0);
            }
            for &(slot, tag, lsn) in &a {
                let after = (tag < 3).then(|| record(tag));
                z.redo(slot, after.as_ref().map(|r| &r[..]), lsn);
            }
            prop_assert_eq!(z.lsn(), x.lsn());
            prop_assert_eq!(&z, &x);
        }
    }
}
