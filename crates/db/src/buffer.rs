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
    page: SlottedPage,
    dirty: bool,
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
    /// Page buffers with no other handle, at most [`SPARE_PAGES`] of them,
    /// handed in through [`BufferPool::recycle`]: the first write to a
    /// frame that shares its buffer copies the page into one of these
    /// instead of into a fresh allocation. Their bytes are whatever the
    /// retired image held; they are overwritten whole before use.
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

    /// Get a resident page mutably, marking it referenced (and dirty if
    /// `for_write`). Pins are the caller's responsibility via
    /// [`BufferPool::pin`]/[`BufferPool::unpin`]. Returns `None` on miss.
    ///
    /// A frame handed out `for_write` while it shares its buffer (with the
    /// durable image it was read from, or a checkpoint image in flight) is
    /// given bytes of its own first, in a spare buffer when the pool has
    /// one; without a spare the page copies itself on the write, as any
    /// sharing [`SlottedPage`] does.
    pub fn get_mut(&mut self, page_id: PageId, for_write: bool) -> Option<&mut SlottedPage> {
        match self.frame_of(page_id) {
            Some(i) => {
                self.stats.hits += 1;
                let f = &mut self.frames[i];
                f.referenced = true;
                if for_write {
                    f.dirty = true;
                    if f.page.is_shared() {
                        if let Some(mut own) = self.spares.pop() {
                            own.copy_from(&f.page);
                            f.page = own;
                        }
                    }
                }
                Some(&mut f.page)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Read-only access without touching statistics (internal checks).
    pub fn peek(&self, page_id: PageId) -> Option<&SlottedPage> {
        self.frame_of(page_id).map(|i| &self.frames[i].page)
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

    /// Install a page image (after a fetch or fresh allocation), evicting
    /// if the pool is full. Returns the eviction outcome so the caller can
    /// perform the steal write.
    ///
    /// # Panics
    /// Panics if the page is already resident or being fetched (finish a
    /// fetch with [`BufferPool::complete_fetch`]), or if every frame is
    /// pinned.
    pub fn install(&mut self, page_id: PageId, page: SlottedPage, dirty: bool) -> EvictOutcome {
        assert!(
            self.table[page_id] == Residency::Absent,
            "page {page_id:?} already resident or being fetched"
        );
        if self.frames.len() < self.capacity {
            self.table[page_id] = Residency::Frame(self.frames.len());
            self.frames.push(Frame {
                page_id,
                page,
                dirty,
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
            let was_dirty = f.dirty;
            let image = std::mem::replace(&mut f.page, page);
            f.page_id = page_id;
            f.dirty = dirty;
            f.referenced = true;
            self.table[old_id] = Residency::Absent;
            self.table[page_id] = Residency::Frame(i);
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

    /// Complete the in-flight fetch of `page_id`: install the image
    /// (evicting if needed) and return the eviction outcome.
    ///
    /// # Panics
    /// Panics (inside [`BufferPool::install`]) if every frame is pinned.
    pub fn complete_fetch(
        &mut self,
        page_id: PageId,
        page: SlottedPage,
        dirty: bool,
    ) -> EvictOutcome {
        if self.fetch_in_flight(page_id) {
            self.table[page_id] = Residency::Absent;
            self.fetching -= 1;
        }
        self.install(page_id, page, dirty)
    }

    /// Offer the pool a page image its holder is done with. Kept as a
    /// spare when this was the last handle on its buffer and the list is
    /// below its bound; dropped like any other value otherwise.
    pub(crate) fn recycle(&mut self, page: SlottedPage) {
        if self.spares.len() < SPARE_PAGES && !page.is_shared() {
            self.spares.push(page);
        }
    }

    /// Mark a resident page clean (after its write-back completed).
    pub fn mark_clean(&mut self, page_id: PageId) {
        if let Some(i) = self.frame_of(page_id) {
            self.frames[i].dirty = false;
        }
    }

    /// All dirty resident pages (for checkpointing), in frame order. The
    /// images share their frames' buffers until one side is written.
    pub fn dirty_pages(&self) -> Vec<(PageId, SlottedPage)> {
        self.frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| (f.page_id, f.page.clone()))
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
        assert_eq!(
            bp.install(PageId(1), page_with(b"one"), false),
            EvictOutcome::Clean
        );
        assert!(bp.contains(PageId(1)));
        assert!(bp.get_mut(PageId(1), false).is_some());
        assert_eq!(bp.stats().hits, 1);
        assert!(bp.get_mut(PageId(9), false).is_none());
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn clean_eviction_has_no_io() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.install(PageId(2), page_with(b"b"), false);
        let out = bp.install(PageId(3), page_with(b"c"), false);
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.stats().clean_evictions, 1);
        assert_eq!(bp.resident(), 2);
    }

    #[test]
    fn dirty_eviction_is_a_steal_with_image() {
        let mut bp = BufferPool::new(1, PAGES);
        bp.install(PageId(1), page_with(b"dirty data"), true);
        let out = bp.install(PageId(2), page_with(b"newcomer"), false);
        match out {
            EvictOutcome::Steal { page_id, image } => {
                assert_eq!(page_id, PageId(1));
                assert_eq!(image.get(0), Some(&b"dirty data"[..]));
            }
            other => panic!("expected steal, got {other:?}"),
        }
        assert_eq!(bp.stats().steals, 1);
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"pinned"), false);
        bp.pin(PageId(1));
        bp.install(PageId(2), page_with(b"b"), false);
        bp.install(PageId(3), page_with(b"c"), false); // must evict 2, not 1
        assert!(bp.contains(PageId(1)));
        assert!(!bp.contains(PageId(2)));
        bp.unpin(PageId(1));
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn all_pinned_panics() {
        let mut bp = BufferPool::new(1, PAGES);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.pin(PageId(1));
        bp.install(PageId(2), page_with(b"b"), false);
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.get_mut(PageId(1), true).unwrap();
        assert_eq!(bp.dirty_pages().len(), 1);
        bp.mark_clean(PageId(1));
        assert!(bp.dirty_pages().is_empty());
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.install(PageId(2), page_with(b"b"), false);
        // touch page 1 so it is referenced; eviction should take page 2
        bp.get_mut(PageId(1), false);
        // hand is at 0: frame0(p1, ref) gets second chance... both were
        // installed referenced; sweep clears both, then evicts frame0.
        // Touch order only matters after a full sweep — verify a victim
        // was found and pool size stays correct either way.
        bp.install(PageId(3), page_with(b"c"), false);
        assert_eq!(bp.resident(), 2);
        assert!(bp.contains(PageId(3)));
    }

    #[test]
    fn crash_clears_everything() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"a"), true);
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
        let out = bp.complete_fetch(PageId(9), page_with(b"img"), false);
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
        bp.complete_fetch(PageId(1), page_with(b"a"), false);
        // completing the second evicts the first (capacity 1)
        let out = bp.complete_fetch(PageId(2), page_with(b"b"), false);
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.resident(), 1);
    }

    #[test]
    #[should_panic(expected = "fetch of resident page")]
    fn fetching_a_resident_page_panics() {
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1), page_with(b"a"), false);
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
        bp.install(PageId(1), page_with(b"a"), false);
    }

    /// The bookkeeping the page table replaced — a `BTreeMap` from page
    /// to frame and another from page to the waiters of its fetch — kept
    /// as the reference the table-backed pool is checked against.
    struct TreePool {
        capacity: usize,
        frames: Vec<Frame>,
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
                self.frames.push(Frame {
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
    /// Around that, the spare list: before every write access a handle is
    /// taken on the frame's buffer, as the durable set or a checkpoint
    /// batch would hold one, and kept with the bytes it must keep; images
    /// are offered back one at a time (a steal write-back) and by the
    /// dozen (a checkpoint landing), sole handles and shared ones.
    fn assert_matches_tree_pool(capacity: usize, ops: &[(u8, u64, u8)]) {
        // few enough pages that a small pool churns, enough that a
        // 64-frame pool fills and evicts
        let span = if capacity < 64 { 6 } else { 96 };
        let mut pool = BufferPool::new(capacity, span);
        let mut tree = TreePool::new(capacity);
        let mut outside: Vec<(SlottedPage, [u8; crate::page::PAGE_SIZE])> = Vec::new();
        for (step, &(op, page, flag)) in ops.iter().enumerate() {
            let pid = PageId(page % span);
            let flag = flag != 0;
            let image = page_with(&(step as u64 + 1).to_le_bytes());
            let busy = tree.contains(pid) || tree.fetch_in_flight(pid);
            let evict = |pool: &mut BufferPool, got: EvictOutcome, want: EvictOutcome| {
                assert_eq!(got, want, "step {step}");
                if let EvictOutcome::Steal { image, .. } = got {
                    pool.recycle(image);
                }
            };
            match op {
                0..=7 if !busy && tree.can_install() => {
                    let want = tree.install(pid, image.clone(), flag);
                    let got = pool.install(pid, image, flag);
                    evict(&mut pool, got, want);
                }
                8..=13 if !tree.contains(pid) && tree.can_install() => {
                    let (want, _) = tree.complete_fetch(pid, image.clone(), flag);
                    let got = pool.complete_fetch(pid, image, flag);
                    evict(&mut pool, got, want);
                }
                14..=19 if !tree.contains(pid) => {
                    assert_eq!(pool.begin_fetch(pid), tree.begin_fetch(pid), "step {step}");
                }
                20..=27 => {
                    let resident = pool
                        .peek(pid)
                        .map(|p| outside.push((p.clone(), *p.as_bytes())))
                        .is_some();
                    let spares_before = pool.spares.len();
                    // write through the frame, so stolen and checkpointed
                    // images carry what was written, not what was installed
                    let (a, b) = (pool.get_mut(pid, flag), tree.get_mut(pid, flag));
                    assert_eq!(a.is_some(), b.is_some(), "step {step}");
                    if let (Some(a), Some(b), true) = (a, b, flag) {
                        assert_eq!(
                            a.is_shared(),
                            spares_before == 0,
                            "step {step}: a spare, when there is one, unshares the frame"
                        );
                        a.set_lsn(step as u64);
                        b.set_lsn(step as u64);
                    }
                    let took = usize::from(flag && resident && spares_before > 0);
                    assert_eq!(pool.spares.len(), spares_before - took, "step {step}");
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
                    pool.mark_clean(pid);
                    tree.mark_clean(pid);
                }
                39 => {
                    pool.crash();
                    tree.crash();
                }
                40..=42 => {
                    // one retired image: a sole handle is kept while there
                    // is room, a shared one never
                    let before = pool.spares.len();
                    let (offer, keeps) = match outside.last() {
                        Some((held, _)) if !flag => (held.clone(), false),
                        _ => (image, before < SPARE_PAGES),
                    };
                    pool.recycle(offer);
                    assert_eq!(
                        pool.spares.len(),
                        before + usize::from(keeps),
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
                assert_eq!(pool.peek(p), tree.peek(p), "step {step} {p:?}");
            }
            assert_eq!(pool.dirty_pages(), tree.dirty_pages(), "step {step}");
            assert_eq!(pool.resident(), tree.frames.len(), "step {step}");
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
            for (held, bytes) in &outside {
                assert_eq!(
                    held.as_bytes(),
                    bytes,
                    "step {step}: a frame write reached a handle outside the pool"
                );
            }
            assert!(pool.spares.len() <= SPARE_PAGES, "step {step}");
            assert!(
                pool.spares.iter().all(|p| !p.is_shared()),
                "step {step}: a spare buffer has a second handle"
            );
        }
    }

    proptest! {
        #[test]
        fn table_pool_matches_the_tree_pool_it_replaced(
            capacity in 0..3usize,
            ops in proptest::collection::vec((0..44u8, 0..96u64, 0..2u8), 1..400),
        ) {
            assert_matches_tree_pool([1, 2, 64][capacity], &ops);
        }
    }
}
