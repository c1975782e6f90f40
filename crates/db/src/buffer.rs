//! The buffer pool: clock eviction, pin counts, dirty tracking, steals.
//!
//! The paper's principle P1 singles out **buffer steals under memory
//! pressure** as one of the two synchronous persistence patterns: when the
//! pool must evict a dirty page to make room, someone waits for a write.
//! The pool reports steals to the caller, who routes them through the
//! persistence backend (legacy: a flash page write on the blocking path;
//! vision: a cheap PCM staging write).
//!
//! The pool is purely in-memory; all I/O decisions surface as
//! [`EvictOutcome`] values for the engine to act on.
//!
//! A frame owns bytes only while it is dirty. A clean frame is residency
//! and a reference bit: its page's bytes are the page's newest image,
//! which the engine keeps (`crate::images`) and hands in at the first
//! write.

use crate::page::{PageId, PageVec, SlottedPage};

/// Most page buffers the pool keeps on its spare list (256 KiB of them).
/// A checkpoint landing retires hundreds of images at once; the ones past
/// the bound go back to the allocator, and the first writes that would
/// have used them allocate as they did before there was a list.
const SPARE_PAGES: usize = 64;

/// One frame of the pool.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    /// The page's bytes, from its first write until a steal or a
    /// checkpoint takes them: `Some` is what "dirty" means.
    page: Option<SlottedPage>,
    pins: u32,
    referenced: bool,
}

/// Where the pool has a page: the one answer every lookup reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// Neither resident nor being fetched.
    Absent,
    /// A fetch has been submitted; the page occupies no frame yet.
    Fetching,
    /// Resident in `frames[_]`.
    Frame(usize),
}

/// What happened when a frame was needed.
#[derive(Debug, PartialEq, Eq)]
pub enum EvictOutcome {
    /// A free or clean frame was used; no I/O implied.
    Clean,
    /// A dirty page had to be stolen: the caller must write `page_id`
    /// (with the returned image) before reusing the frame.
    Steal {
        /// The evicted dirty page.
        page_id: PageId,
        /// Its image at eviction time (moved out of the frame, not copied).
        image: SlottedPage,
    },
}

/// Statistics of pool behaviour.
#[derive(Debug, Default, Clone)]
pub struct PoolStats {
    /// Requests satisfied without I/O.
    pub hits: u64,
    /// Requests that missed (caller had to fetch).
    pub misses: u64,
    /// Dirty evictions (synchronous writes on the legacy path).
    pub steals: u64,
    /// Clean evictions.
    pub clean_evictions: u64,
    /// Requests that found their page already being fetched and joined
    /// the in-flight fetch instead of issuing a second device command.
    pub coalesced: u64,
}

/// A clock-replacement buffer pool over a database of densely numbered
/// pages: one table indexed by page id says where each page is.
///
/// Besides resident frames, the pool tracks pages **in flight**: a fetch
/// has been submitted but its completion has not installed the page yet.
/// Concurrent requests for such a page coalesce — they join the one
/// outstanding device command instead of issuing their own
/// ([`BufferPool::begin_fetch`] / [`BufferPool::add_waiter`] /
/// [`BufferPool::complete_fetch`]). In-flight pages occupy no frame; the
/// frame is claimed at completion time. Who waits on a fetch is the
/// caller's knowledge (the executor's slots), not the pool's.
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    table: PageVec<Residency>,
    hand: usize,
    /// Pages whose table entry is [`Residency::Fetching`].
    fetching: usize,
    /// Page buffers nobody reads any more, at most [`SPARE_PAGES`] of
    /// them, handed in through [`BufferPool::recycle`]: the first write to
    /// a clean frame copies the page into one of these instead of into a
    /// fresh allocation. Their bytes are whatever the retired image held;
    /// they are overwritten whole before use.
    spares: Vec<SlottedPage>,
    stats: PoolStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BufferPool {
    /// Create a pool of `capacity` frames over a database of `pages`
    /// pages (ids `0..pages`).
    ///
    /// # Panics
    /// Panics if `capacity == 0`. Every method taking a [`PageId`]
    /// panics on an id `>= pages`.
    pub fn new(capacity: usize, pages: u64) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            table: PageVec::new(pages, Residency::Absent),
            hand: 0,
            fetching: 0,
            spares: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    fn frame_of(&self, page_id: PageId) -> Option<usize> {
        match self.table[page_id] {
            Residency::Frame(i) => Some(i),
            _ => None,
        }
    }

    /// True if `page_id` is resident.
    pub fn contains(&self, page_id: PageId) -> bool {
        self.frame_of(page_id).is_some()
    }

    /// Count an access to `page_id` and mark its frame referenced:
    /// the frame's index, `None` on a miss.
    fn access(&mut self, page_id: PageId) -> Option<usize> {
        let frame = self.frame_of(page_id);
        match frame {
            Some(i) => {
                self.stats.hits += 1;
                self.frames[i].referenced = true;
            }
            None => self.stats.misses += 1,
        }
        frame
    }

    /// A read access to `page_id`: `false` on a miss. What the reader
    /// sees is [`BufferPool::dirty_image`], else the page's newest image;
    /// the pool looks at neither.
    pub fn touch(&mut self, page_id: PageId) -> bool {
        self.access(page_id).is_some()
    }

    /// Get a resident page for writing, marking it referenced and dirty.
    /// Pins are the caller's responsibility via
    /// [`BufferPool::pin`]/[`BufferPool::unpin`]. Returns `None` on miss.
    ///
    /// The first write to a clean frame gives it bytes of its own: a copy
    /// of `newest`, the page's newest image outside the pool, in a spare
    /// buffer when the pool has one and a fresh allocation otherwise.
    pub fn get_mut(&mut self, page_id: PageId, newest: &SlottedPage) -> Option<&mut SlottedPage> {
        let i = self.access(page_id)?;
        let spares = &mut self.spares;
        Some(
            self.frames[i]
                .page
                .get_or_insert_with(|| match spares.pop() {
                    Some(mut own) => {
                        own.copy_from(newest);
                        own
                    }
                    None => newest.clone(),
                }),
        )
    }

    /// The bytes of a resident page that has been written since it was
    /// fetched or last checkpointed; `None` for a clean or absent page,
    /// whose bytes are its newest image outside the pool. Touches no
    /// statistics.
    pub fn dirty_image(&self, page_id: PageId) -> Option<&SlottedPage> {
        self.frame_of(page_id)
            .and_then(|i| self.frames[i].page.as_ref())
    }

    /// Pin a resident page (prevents eviction).
    ///
    /// # Panics
    /// Panics if the page is not resident.
    pub fn pin(&mut self, page_id: PageId) {
        let i = self.frame_of(page_id).expect("pin of non-resident page");
        self.frames[i].pins += 1;
    }

    /// Unpin a resident page.
    ///
    /// # Panics
    /// Panics if the page is not resident or not pinned.
    pub fn unpin(&mut self, page_id: PageId) {
        let i = self.frame_of(page_id).expect("unpin of non-resident page");
        let f = &mut self.frames[i];
        assert!(f.pins > 0, "unpin of unpinned page");
        f.pins -= 1;
    }

    /// Make `page_id` resident in a clean frame (after a fetch), evicting
    /// if the pool is full. Returns the eviction outcome so the caller can
    /// perform the steal write.
    ///
    /// # Panics
    /// Panics if the page is already resident or being fetched (finish a
    /// fetch with [`BufferPool::complete_fetch`]), or if every frame is
    /// pinned.
    pub fn install(&mut self, page_id: PageId) -> EvictOutcome {
        assert!(
            self.table[page_id] == Residency::Absent,
            "page {page_id:?} already resident or being fetched"
        );
        if self.frames.len() < self.capacity {
            self.table[page_id] = Residency::Frame(self.frames.len());
            self.frames.push(Frame {
                page_id,
                page: None,
                pins: 0,
                referenced: true,
            });
            return EvictOutcome::Clean;
        }
        // clock sweep: find an unpinned, unreferenced victim
        let n = self.frames.len();
        let mut spins = 0usize;
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let f = &mut self.frames[i];
            if f.pins > 0 {
                spins += 1;
                assert!(spins < 3 * n, "every frame is pinned");
                continue;
            }
            if f.referenced {
                f.referenced = false;
                spins += 1;
                assert!(spins < 3 * n, "clock cannot find a victim");
                continue;
            }
            // victim found
            let old_id = f.page_id;
            let stolen = f.page.take();
            f.page_id = page_id;
            f.referenced = true;
            self.table[old_id] = Residency::Absent;
            self.table[page_id] = Residency::Frame(i);
            if let Some(image) = stolen {
                self.stats.steals += 1;
                return EvictOutcome::Steal {
                    page_id: old_id,
                    image,
                };
            }
            self.stats.clean_evictions += 1;
            return EvictOutcome::Clean;
        }
    }

    /// Start a fetch for `page_id` if none is in flight. Returns `true`
    /// when this call started the fetch (the caller must submit the
    /// device read and later call [`BufferPool::complete_fetch`]);
    /// `false` when a fetch is already in flight (join it with
    /// [`BufferPool::add_waiter`]).
    ///
    /// # Panics
    /// Panics if the page is already resident — fetching a resident page
    /// is an engine bug.
    pub fn begin_fetch(&mut self, page_id: PageId) -> bool {
        assert!(
            !self.contains(page_id),
            "fetch of resident page {page_id:?}"
        );
        if self.fetch_in_flight(page_id) {
            return false;
        }
        self.table[page_id] = Residency::Fetching;
        self.fetching += 1;
        true
    }

    /// True when a fetch for `page_id` is in flight.
    pub fn fetch_in_flight(&self, page_id: PageId) -> bool {
        self.table[page_id] == Residency::Fetching
    }

    /// Number of fetches in flight.
    pub fn fetches_in_flight(&self) -> usize {
        self.fetching
    }

    /// Join the in-flight fetch of `page_id`: counts a coalesced request.
    /// No-op when no fetch is in flight (the caller should have checked
    /// [`BufferPool::fetch_in_flight`]).
    pub fn add_waiter(&mut self, page_id: PageId) {
        if self.fetch_in_flight(page_id) {
            self.stats.coalesced += 1;
        }
    }

    /// Complete the in-flight fetch of `page_id`: install the page
    /// (evicting if needed) and return the eviction outcome.
    ///
    /// # Panics
    /// Panics (inside [`BufferPool::install`]) if every frame is pinned.
    pub fn complete_fetch(&mut self, page_id: PageId) -> EvictOutcome {
        if self.fetch_in_flight(page_id) {
            self.table[page_id] = Residency::Absent;
            self.fetching -= 1;
        }
        self.install(page_id)
    }

    /// Hand the pool a page image its owner is done with. Kept as a spare
    /// while the list is below its bound; dropped like any other value
    /// otherwise.
    pub(crate) fn recycle(&mut self, page: SlottedPage) {
        if self.spares.len() < SPARE_PAGES {
            self.spares.push(page);
        }
    }

    /// Take the bytes of every dirty resident page (for checkpointing),
    /// in frame order. The frames stay resident and are clean: the caller
    /// owns the images now, and they are their pages' newest.
    pub fn take_dirty(&mut self) -> Vec<(PageId, SlottedPage)> {
        self.frames
            .iter_mut()
            .filter_map(|f| f.page.take().map(|image| (f.page_id, image)))
            .collect()
    }

    /// Drop every frame (simulated crash: volatile state vanishes,
    /// including fetches in flight — their completions are orphaned).
    pub fn crash(&mut self) {
        self.frames.clear();
        self.table.fill(Residency::Absent);
        self.fetching = 0;
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Table size of the unit tests' pools.
    const PAGES: u64 = 16;

    fn page_with(tag: &[u8]) -> SlottedPage {
        let mut p = SlottedPage::new();
        p.insert(tag).unwrap();
        p
    }

    #[test]
    fn install_and_hit() {
        let mut bp = BufferPool::new(2, PAGES);
        assert_eq!(bp.install(PageId(1)), EvictOutcome::Clean);
        assert!(bp.contains(PageId(1)));
        assert!(bp.touch(PageId(1)));
        assert_eq!(bp.stats().hits, 1);
        assert!(!bp.touch(PageId(9)));
        assert!(bp.get_mut(PageId(9), &page_with(b"nine")).is_none());
        assert_eq!(bp.stats().misses, 2);
    }

    #[test]
    fn clean_eviction_has_no_io() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.install(PageId(2));
        let out = bp.install(PageId(3));
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.stats().clean_evictions, 1);
        assert_eq!(bp.resident(), 2);
    }

    #[test]
    fn dirty_eviction_is_a_steal_with_image() {
        let mut bp = BufferPool::new(1, PAGES);
        bp.install(PageId(1));
        bp.get_mut(PageId(1), &page_with(b"newest"))
            .unwrap()
            .set_lsn(5);
        let out = bp.install(PageId(2));
        match out {
            EvictOutcome::Steal { page_id, image } => {
                assert_eq!(page_id, PageId(1));
                assert_eq!(image.get(0), Some(&b"newest"[..]));
                assert_eq!(image.lsn(), 5);
            }
            other => panic!("expected steal, got {other:?}"),
        }
        assert_eq!(bp.stats().steals, 1);
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.pin(PageId(1));
        bp.install(PageId(2));
        bp.install(PageId(3)); // must evict 2, not 1
        assert!(bp.contains(PageId(1)));
        assert!(!bp.contains(PageId(2)));
        bp.unpin(PageId(1));
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn all_pinned_panics() {
        let mut bp = BufferPool::new(1, PAGES);
        bp.install(PageId(1));
        bp.pin(PageId(1));
        bp.install(PageId(2));
    }

    #[test]
    fn a_frame_holds_bytes_from_its_first_write_until_a_checkpoint_takes_them() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        assert!(
            bp.dirty_image(PageId(1)).is_none(),
            "a clean frame is empty"
        );
        bp.touch(PageId(1));
        assert!(bp.dirty_image(PageId(1)).is_none(), "a read copies nothing");

        let newest = page_with(b"newest");
        bp.get_mut(PageId(1), &newest).unwrap().set_lsn(3);
        // a later write finds the frame's own bytes, whatever it is handed
        let frame = bp.get_mut(PageId(1), &page_with(b"ignored")).unwrap();
        assert_eq!((frame.lsn(), frame.get(0)), (3, Some(&b"newest"[..])));
        assert_eq!(newest.lsn(), 0, "the write went to the frame's copy");

        let taken = bp.take_dirty();
        assert_eq!(taken.len(), 1);
        assert_eq!((taken[0].0, taken[0].1.lsn()), (PageId(1), 3));
        assert!(bp.contains(PageId(1)), "a checkpoint evicts nothing");
        assert!(bp.dirty_image(PageId(1)).is_none());
        assert!(bp.take_dirty().is_empty());
    }

    #[test]
    fn the_first_write_overwrites_a_spare_buffer_whole() {
        let mut bp = BufferPool::new(2, PAGES);
        let mut retired = page_with(b"bytes of some other page, retired");
        retired.set_lsn(77);
        bp.recycle(retired);
        bp.install(PageId(1));
        let newest = page_with(b"newest");
        assert_eq!(bp.get_mut(PageId(1), &newest), Some(&mut newest.clone()));
        assert!(bp.spares.is_empty(), "the spare is the frame's buffer now");
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.install(PageId(2));
        // touch page 1 so it is referenced; eviction should take page 2
        bp.touch(PageId(1));
        // hand is at 0: frame0(p1, ref) gets second chance... both were
        // installed referenced; sweep clears both, then evicts frame0.
        // Touch order only matters after a full sweep — verify a victim
        // was found and pool size stays correct either way.
        bp.install(PageId(3));
        assert_eq!(bp.resident(), 2);
        assert!(bp.contains(PageId(3)));
    }

    #[test]
    fn crash_clears_everything() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.get_mut(PageId(1), &page_with(b"a"));
        bp.begin_fetch(PageId(7));
        bp.crash();
        assert_eq!(bp.resident(), 0);
        assert!(!bp.contains(PageId(1)));
        assert!(!bp.fetch_in_flight(PageId(7)));
    }

    #[test]
    fn concurrent_fetches_coalesce_onto_one_command() {
        let mut bp = BufferPool::new(4, PAGES);
        assert!(bp.begin_fetch(PageId(9)), "first fetch starts the command");
        assert!(!bp.begin_fetch(PageId(9)), "second request must coalesce");
        bp.add_waiter(PageId(9));
        bp.add_waiter(PageId(9));
        assert!(bp.fetch_in_flight(PageId(9)));
        assert_eq!(bp.stats().coalesced, 2);
        let out = bp.complete_fetch(PageId(9));
        assert_eq!(out, EvictOutcome::Clean);
        assert!(bp.contains(PageId(9)));
        assert!(!bp.fetch_in_flight(PageId(9)));
    }

    #[test]
    fn in_flight_pages_occupy_no_frame() {
        let mut bp = BufferPool::new(1, PAGES);
        bp.begin_fetch(PageId(1));
        bp.begin_fetch(PageId(2));
        assert_eq!(bp.resident(), 0);
        assert_eq!(bp.fetches_in_flight(), 2);
        bp.complete_fetch(PageId(1));
        // completing the second evicts the first (capacity 1)
        let out = bp.complete_fetch(PageId(2));
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.resident(), 1);
    }

    #[test]
    #[should_panic(expected = "fetch of resident page")]
    fn fetching_a_resident_page_panics() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.begin_fetch(PageId(1));
    }

    #[test]
    #[should_panic(expected = "page 16 beyond the 16-page table")]
    fn page_id_beyond_the_table_panics() {
        BufferPool::new(2, PAGES).contains(PageId(PAGES));
    }

    #[test]
    #[should_panic(expected = "already resident or being fetched")]
    fn installing_under_a_fetch_in_flight_panics() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.begin_fetch(PageId(1));
        bp.install(PageId(1));
    }

    /// A frame of the pool as it was: an image in every frame, clean or
    /// dirty, and a flag to tell which.
    struct TreeFrame {
        page_id: PageId,
        page: SlottedPage,
        dirty: bool,
        pins: u32,
        referenced: bool,
    }

    /// The pool this one replaced, twice over — a `BTreeMap` from page to
    /// frame and another from page to the waiters of its fetch instead of
    /// the page table, and the page's bytes installed into every frame —
    /// kept as the reference the table-backed, bytes-only-while-dirty pool
    /// is checked against.
    struct TreePool {
        capacity: usize,
        frames: Vec<TreeFrame>,
        map: BTreeMap<PageId, usize>,
        hand: usize,
        in_flight: BTreeMap<PageId, Vec<u64>>,
        stats: PoolStats,
    }

    impl TreePool {
        fn new(capacity: usize) -> Self {
            TreePool {
                capacity,
                frames: Vec::with_capacity(capacity),
                map: BTreeMap::new(),
                hand: 0,
                in_flight: BTreeMap::new(),
                stats: PoolStats::default(),
            }
        }

        fn contains(&self, page_id: PageId) -> bool {
            self.map.contains_key(&page_id)
        }

        fn pins(&self, page_id: PageId) -> u32 {
            self.map.get(&page_id).map_or(0, |&i| self.frames[i].pins)
        }

        /// `install` would find a frame (it panics otherwise).
        fn can_install(&self) -> bool {
            self.frames.len() < self.capacity || self.frames.iter().any(|f| f.pins == 0)
        }

        fn get_mut(&mut self, page_id: PageId, for_write: bool) -> Option<&mut SlottedPage> {
            match self.map.get(&page_id) {
                Some(&i) => {
                    self.stats.hits += 1;
                    let f = &mut self.frames[i];
                    f.referenced = true;
                    if for_write {
                        f.dirty = true;
                    }
                    Some(&mut f.page)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn peek(&self, page_id: PageId) -> Option<&SlottedPage> {
            self.map.get(&page_id).map(|&i| &self.frames[i].page)
        }

        fn pin(&mut self, page_id: PageId) {
            self.frames[self.map[&page_id]].pins += 1;
        }

        fn unpin(&mut self, page_id: PageId) {
            self.frames[self.map[&page_id]].pins -= 1;
        }

        fn install(&mut self, page_id: PageId, page: SlottedPage, dirty: bool) -> EvictOutcome {
            assert!(!self.map.contains_key(&page_id));
            if self.frames.len() < self.capacity {
                self.frames.push(TreeFrame {
                    page_id,
                    page,
                    dirty,
                    pins: 0,
                    referenced: true,
                });
                self.map.insert(page_id, self.frames.len() - 1);
                return EvictOutcome::Clean;
            }
            let n = self.frames.len();
            loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % n;
                let f = &mut self.frames[i];
                if f.pins > 0 {
                    continue;
                }
                if f.referenced {
                    f.referenced = false;
                    continue;
                }
                let old_id = f.page_id;
                let was_dirty = f.dirty;
                let image = std::mem::replace(&mut f.page, page);
                f.page_id = page_id;
                f.dirty = dirty;
                f.referenced = true;
                self.map.remove(&old_id);
                self.map.insert(page_id, i);
                if was_dirty {
                    self.stats.steals += 1;
                    return EvictOutcome::Steal {
                        page_id: old_id,
                        image,
                    };
                }
                self.stats.clean_evictions += 1;
                return EvictOutcome::Clean;
            }
        }

        fn begin_fetch(&mut self, page_id: PageId) -> bool {
            assert!(!self.map.contains_key(&page_id));
            if self.in_flight.contains_key(&page_id) {
                return false;
            }
            self.in_flight.insert(page_id, Vec::new());
            true
        }

        fn fetch_in_flight(&self, page_id: PageId) -> bool {
            self.in_flight.contains_key(&page_id)
        }

        fn add_waiter(&mut self, page_id: PageId, waiter: u64) {
            if let Some(ws) = self.in_flight.get_mut(&page_id) {
                ws.push(waiter);
                self.stats.coalesced += 1;
            }
        }

        fn complete_fetch(
            &mut self,
            page_id: PageId,
            page: SlottedPage,
            dirty: bool,
        ) -> (EvictOutcome, Vec<u64>) {
            let waiters = self.in_flight.remove(&page_id).unwrap_or_default();
            (self.install(page_id, page, dirty), waiters)
        }

        fn mark_clean(&mut self, page_id: PageId) {
            if let Some(&i) = self.map.get(&page_id) {
                self.frames[i].dirty = false;
            }
        }

        fn dirty_pages(&self) -> Vec<(PageId, SlottedPage)> {
            self.frames
                .iter()
                .filter(|f| f.dirty)
                .map(|f| (f.page_id, f.page.clone()))
                .collect()
        }

        fn crash(&mut self) {
            self.frames.clear();
            self.map.clear();
            self.in_flight.clear();
            self.hand = 0;
        }
    }

    /// Drive both pools through `ops` = `(op, page, flag != 0)` and compare
    /// everything observable after every step. Ops whose precondition
    /// fails (they would panic in both pools) are skipped.
    ///
    /// Beside the pools sits `base`, every page's newest image outside
    /// them, kept as the engine keeps it: a fetch installs it into the
    /// tree pool's frame and nothing into the pool's, a first write is
    /// handed it, a steal or a checkpoint replaces it with the bytes that
    /// left the pool and retires the old one into the spare list. What a
    /// reader sees of a resident page — the pool's dirty image, else
    /// `base` — must be the tree pool's frame, byte for byte. Retired
    /// images are also offered one at a time and by the dozen.
    fn assert_matches_tree_pool(capacity: usize, ops: &[(u8, u64, u8)]) {
        // few enough pages that a small pool churns, enough that a
        // 64-frame pool fills and evicts
        let span = if capacity < 64 { 6 } else { 96 };
        let mut pool = BufferPool::new(capacity, span);
        let mut tree = TreePool::new(capacity);
        let mut base: Vec<SlottedPage> = (0..span).map(|p| page_with(&p.to_le_bytes())).collect();
        // bytes left a pool for the device: they are the page's newest now
        let land = |pool: &mut BufferPool, base: &mut [SlottedPage], p: PageId, image| {
            pool.recycle(std::mem::replace(&mut base[p.0 as usize], image));
        };
        for (step, &(op, page, flag)) in ops.iter().enumerate() {
            let pid = PageId(page % span);
            let newest = &base[pid.0 as usize];
            let flag = flag != 0;
            let busy = tree.contains(pid) || tree.fetch_in_flight(pid);
            let evict = |pool: &mut BufferPool, base: &mut [SlottedPage], got, want| {
                assert_eq!(got, want, "step {step}: eviction, stolen bytes");
                if let EvictOutcome::Steal { page_id, image } = got {
                    land(pool, base, page_id, image);
                }
            };
            match op {
                0..=7 if !busy && tree.can_install() => {
                    let want = tree.install(pid, newest.clone(), false);
                    let got = pool.install(pid);
                    evict(&mut pool, &mut base, got, want);
                }
                8..=13 if !tree.contains(pid) && tree.can_install() => {
                    let (want, _) = tree.complete_fetch(pid, newest.clone(), false);
                    let got = pool.complete_fetch(pid);
                    evict(&mut pool, &mut base, got, want);
                }
                14..=19 if !tree.contains(pid) => {
                    assert_eq!(pool.begin_fetch(pid), tree.begin_fetch(pid), "step {step}");
                }
                20..=27 if flag => {
                    let clean = pool.contains(pid) && pool.dirty_image(pid).is_none();
                    let spares_before = pool.spares.len();
                    // write through the frame, so stolen and checkpointed
                    // images carry what was written, not what was fetched
                    let (a, b) = (pool.get_mut(pid, newest), tree.get_mut(pid, true));
                    assert_eq!(a, b, "step {step}: the page as the writer finds it");
                    if let (Some(a), Some(b)) = (a, b) {
                        a.set_lsn(step as u64);
                        b.set_lsn(step as u64);
                    }
                    let took = usize::from(clean && spares_before > 0);
                    assert_eq!(
                        pool.spares.len(),
                        spares_before - took,
                        "step {step}: a first write, and only that, takes a spare"
                    );
                }
                20..=27 => {
                    let hit = tree.get_mut(pid, false).is_some();
                    assert_eq!(pool.touch(pid), hit, "step {step}");
                }
                28..=30 if tree.contains(pid) => {
                    pool.pin(pid);
                    tree.pin(pid);
                }
                31..=33 if tree.pins(pid) > 0 => {
                    pool.unpin(pid);
                    tree.unpin(pid);
                }
                34..=35 => {
                    pool.add_waiter(pid);
                    tree.add_waiter(pid, step as u64);
                }
                36..=38 => {
                    // a checkpoint: every dirty image, in frame order
                    let want = tree.dirty_pages();
                    for (p, _) in &want {
                        tree.mark_clean(*p);
                    }
                    let got = pool.take_dirty();
                    assert_eq!(got, want, "step {step}");
                    for (p, image) in got {
                        land(&mut pool, &mut base, p, image);
                    }
                }
                39 => {
                    pool.crash();
                    tree.crash();
                }
                40..=42 => {
                    // one retired image: kept while there is room
                    let before = pool.spares.len();
                    pool.recycle(page_with(&(step as u64).to_le_bytes()));
                    assert_eq!(
                        pool.spares.len(),
                        (before + 1).min(SPARE_PAGES),
                        "step {step}"
                    );
                }
                43 => {
                    for i in 0..40u64 {
                        pool.recycle(page_with(&i.to_le_bytes()));
                    }
                }
                _ => {}
            }
            for p in (0..span).map(PageId) {
                assert_eq!(pool.contains(p), tree.contains(p), "step {step} {p:?}");
                assert_eq!(
                    pool.fetch_in_flight(p),
                    tree.fetch_in_flight(p),
                    "step {step} {p:?}"
                );
                let visible = tree
                    .peek(p)
                    .map(|_| pool.dirty_image(p).unwrap_or(&base[p.0 as usize]));
                assert_eq!(visible, tree.peek(p), "step {step} {p:?}");
            }
            assert!(
                pool.frames
                    .iter()
                    .map(|f| (f.page_id, f.page.is_some()))
                    .eq(tree.frames.iter().map(|f| (f.page_id, f.dirty))),
                "step {step}: frame order, dirty set"
            );
            assert_eq!(
                pool.fetches_in_flight(),
                tree.in_flight.len(),
                "step {step}"
            );
            assert_eq!(
                format!("{:?}", pool.stats()),
                format!("{:?}", tree.stats),
                "step {step}"
            );
            assert!(pool.spares.len() <= SPARE_PAGES, "step {step}");
        }
    }

    proptest! {
        #[test]
        fn bytes_only_while_dirty_pool_matches_the_tree_pool_it_replaced(
            capacity in 0..3usize,
            ops in proptest::collection::vec((0..44u8, 0..96u64, 0..2u8), 1..400),
        ) {
            assert_matches_tree_pool([1, 2, 64][capacity], &ops);
        }
    }
}
