//! The buffer pool: clock eviction, dirty tracking, steals.
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
//! A frame holds no page bytes, only its page's redo (`crate::page::Redo`):
//! the writes since the page was fetched or last written back, naming
//! after-images in their log records. A steal or a checkpoint hands it to
//! the engine, which applies it to the page's durable image.

use crate::page::{PageId, PageVec, Redo};

/// One frame of the pool.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    /// A steal must write it (a rollback may dirty it with no redo).
    dirty: bool,
    /// Empty while clean; keeps its capacity from one dirty spell on.
    redo: Redo,
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
    /// A dirty page had to be stolen: the caller must write `page_id`,
    /// applying the pool's `stolen` redo, before reusing the frame.
    Steal {
        /// The evicted dirty page.
        page_id: PageId,
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
    /// The redo of the latest steal. It trades places with the victim
    /// frame's, so a steal allocates nothing.
    stolen: Redo,
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
            stolen: Redo::default(),
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

    /// A read access to `page_id`: `false` on a miss. It reads nothing: a
    /// reader resolves its record through the frame's redo, then the
    /// page's newest records outside the pool.
    pub fn touch(&mut self, page_id: PageId) -> bool {
        self.access(page_id).is_some()
    }

    /// A resident page's redo, to record a write in, marking the frame
    /// referenced and dirty; `None` on a miss.
    pub(crate) fn get_mut(&mut self, page_id: PageId) -> Option<&mut Redo> {
        let i = self.access(page_id)?;
        let f = &mut self.frames[i];
        f.dirty = true;
        Some(&mut f.redo)
    }

    /// The redo of a resident page (empty while clean); `None` for an
    /// absent page. Touches no statistics.
    pub(crate) fn redo(&self, page_id: PageId) -> Option<&Redo> {
        self.frame_of(page_id).map(|i| &self.frames[i].redo)
    }

    /// The redo of the page the latest [`EvictOutcome::Steal`] named,
    /// until the next steal.
    pub(crate) fn stolen(&self) -> &Redo {
        &self.stolen
    }

    /// Make `page_id` resident in a clean frame (after a fetch), evicting
    /// if the pool is full. Returns the eviction outcome so the caller can
    /// perform the steal write.
    ///
    /// # Panics
    /// Panics if the page is already resident or being fetched (finish a
    /// fetch with [`BufferPool::complete_fetch`]).
    pub fn install(&mut self, page_id: PageId) -> EvictOutcome {
        assert!(
            self.table[page_id] == Residency::Absent,
            "page {page_id:?} already resident or being fetched"
        );
        if self.frames.len() < self.capacity {
            self.table[page_id] = Residency::Frame(self.frames.len());
            self.frames.push(Frame {
                page_id,
                dirty: false,
                redo: Redo::default(),
                referenced: true,
            });
            return EvictOutcome::Clean;
        }
        // clock sweep: find an unreferenced victim
        let n = self.frames.len();
        let mut spins = 0usize;
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let f = &mut self.frames[i];
            if f.referenced {
                f.referenced = false;
                spins += 1;
                assert!(spins < 3 * n, "clock cannot find a victim");
                continue;
            }
            // victim found
            let old_id = f.page_id;
            let stolen = std::mem::take(&mut f.dirty);
            f.page_id = page_id;
            f.referenced = true;
            self.table[old_id] = Residency::Absent;
            self.table[page_id] = Residency::Frame(i);
            if stolen {
                std::mem::swap(&mut f.redo, &mut self.stolen);
                f.redo.clear();
                self.stats.steals += 1;
                return EvictOutcome::Steal { page_id: old_id };
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
        true
    }

    /// True when a fetch for `page_id` is in flight.
    pub fn fetch_in_flight(&self, page_id: PageId) -> bool {
        self.table[page_id] == Residency::Fetching
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
    pub fn complete_fetch(&mut self, page_id: PageId) -> EvictOutcome {
        if self.fetch_in_flight(page_id) {
            self.table[page_id] = Residency::Absent;
        }
        self.install(page_id)
    }

    /// Every dirty resident page, in frame order: a checkpoint's batch.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page_id)
            .collect()
    }

    /// Hand every dirty frame's redo to `write`, in frame order, and leave
    /// the frames resident and clean (a checkpoint).
    pub(crate) fn take_dirty(&mut self, mut write: impl FnMut(PageId, &Redo)) {
        for f in self.frames.iter_mut().filter(|f| f.dirty) {
            write(f.page_id, &f.redo);
            f.redo.clear();
            f.dirty = false;
        }
    }

    /// Drop every frame (simulated crash: volatile state vanishes,
    /// including fetches in flight — their completions are orphaned).
    pub fn crash(&mut self) {
        self.frames.clear();
        self.table.fill(Residency::Absent);
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::images::{tests::newest, PageImages};
    use crate::page::SlottedPage;
    use crate::wal::{tests::logged, Wal};
    use proptest::prelude::*;
    use requiem_sim::time::{SimDuration, SimTime};
    use std::collections::BTreeMap;

    /// Table size of the unit tests' pools.
    const PAGES: u64 = 16;
    /// Slots of a formatted page, and the size of every record.
    const SLOTS: u16 = 4;
    const RECORD: usize = 16;

    /// A page as the engine formats it: every slot present and zeroed.
    fn formatted() -> SlottedPage {
        let mut p = SlottedPage::new();
        for _ in 0..SLOTS {
            p.insert(&[0; RECORD]).unwrap();
        }
        p
    }

    /// A record: its writer, then the step that wrote it.
    fn record(owner: u64, step: u64) -> [u8; RECORD] {
        let mut r = [0; RECORD];
        r[..8].copy_from_slice(&owner.to_le_bytes());
        r[8..].copy_from_slice(&step.to_le_bytes());
        r
    }

    /// The writer of a record.
    fn owner(record: Option<&[u8]>) -> Option<u64> {
        record.map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
    }

    /// Write `owner`'s record into `slot` of a resident `pid` at LSN `lsn`,
    /// as the engine does: `false` on a miss.
    fn write(
        bp: &mut BufferPool,
        wal: &mut Wal,
        pid: PageId,
        slot: u16,
        owner: u64,
        lsn: u64,
    ) -> bool {
        let Some(frame) = bp.get_mut(pid) else {
            return false;
        };
        frame.push(slot, Some(logged(wal, &record(owner, lsn))));
        frame.lsn = lsn;
        true
    }

    #[test]
    fn install_and_hit() {
        let mut bp = BufferPool::new(2, PAGES);
        assert_eq!(bp.install(PageId(1)), EvictOutcome::Clean);
        assert!(bp.contains(PageId(1)));
        assert!(bp.touch(PageId(1)));
        assert_eq!(bp.stats().hits, 1);
        assert!(!bp.touch(PageId(9)));
        assert!(bp.get_mut(PageId(9)).is_none());
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
        let mut wal = Wal::new();
        let mut bp = BufferPool::new(1, PAGES);
        bp.install(PageId(1));
        write(&mut bp, &mut wal, PageId(1), 2, 7, 5);
        let out = bp.install(PageId(2));
        assert_eq!(out, EvictOutcome::Steal { page_id: PageId(1) });
        assert_eq!(bp.stats().steals, 1);
        // the write-back's image: the stolen redo over the durable one
        let mut image = formatted();
        bp.stolen().apply(&mut image, &wal);
        assert_eq!((owner(image.get(2)), image.lsn()), (Some(7), 5));
        assert_eq!(owner(image.get(1)), Some(0));
        assert!(bp.dirty_pages().is_empty(), "the frame starts clean");
        assert!(bp.redo(PageId(2)).unwrap().writes.is_empty());
    }

    #[test]
    fn a_frame_holds_redo_from_its_first_write_until_a_checkpoint_takes_it() {
        let mut wal = Wal::new();
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        bp.touch(PageId(1));
        assert!(bp.dirty_pages().is_empty(), "a read dirties nothing");
        assert!(bp.redo(PageId(1)).unwrap().writes.is_empty());

        write(&mut bp, &mut wal, PageId(1), 0, 3, 3);
        write(&mut bp, &mut wal, PageId(1), 1, 4, 4);
        write(&mut bp, &mut wal, PageId(1), 0, 5, 5);
        let redo = bp.redo(PageId(1)).unwrap();
        assert_eq!((redo.writes.len(), redo.lsn), (2, 5), "one entry per slot");
        let newest = redo.slot(0).unwrap().map(|r| wal.after(r));
        assert_eq!(owner(newest), Some(5));
        assert_eq!(bp.dirty_pages(), [PageId(1)]);

        let mut taken = Vec::new();
        bp.take_dirty(|pid, redo| taken.push((pid, redo.writes.len(), redo.lsn)));
        assert_eq!(taken, [(PageId(1), 2, 5)]);
        assert!(bp.contains(PageId(1)), "a checkpoint evicts nothing");
        assert!(bp.dirty_pages().is_empty());
        assert!(bp.redo(PageId(1)).unwrap().writes.is_empty());
        assert!(bp.dirty_pages().is_empty());
    }

    /// The first write to a clean frame records where its after-image is
    /// in the log, and nothing else: the pool holds no page bytes.
    #[test]
    fn the_first_write_copies_nothing() {
        let mut wal = Wal::new();
        let mut bp = BufferPool::new(2, PAGES);
        bp.install(PageId(1));
        let after = logged(&mut wal, &record(9, 1));
        let frame = bp.get_mut(PageId(1)).unwrap();
        frame.push(0, Some(after));
        assert_eq!(frame.writes, [(0, Some(after))]);
        assert_eq!(bp.dirty_pages(), [PageId(1)]);
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
        bp.get_mut(PageId(1));
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
        assert!(bp.fetch_in_flight(PageId(1)) && bp.fetch_in_flight(PageId(2)));
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

    /// A frame as it was before frames held redo: the page's bytes, copied
    /// from its newest image at the first write, until a steal or a
    /// checkpoint takes them (`Some` is the dirty flag).
    struct CowFrame {
        page_id: PageId,
        page: Option<SlottedPage>,
        referenced: bool,
    }

    /// The pool this one replaced, twice over — a `BTreeMap` from page to
    /// frame and another from page to the waiters of its fetch instead of
    /// the page table, and copy-on-write frames instead of redo — kept as
    /// the reference the table-backed redo pool is checked against.
    struct TreePool {
        capacity: usize,
        frames: Vec<CowFrame>,
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

        fn access(&mut self, page_id: PageId) -> Option<usize> {
            match self.map.get(&page_id) {
                Some(&i) => {
                    self.stats.hits += 1;
                    self.frames[i].referenced = true;
                    Some(i)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        /// The first write to a clean frame copies `newest`.
        fn get_mut(&mut self, page_id: PageId, newest: &SlottedPage) -> Option<&mut SlottedPage> {
            let i = self.access(page_id)?;
            Some(self.frames[i].page.get_or_insert_with(|| newest.clone()))
        }

        fn dirty_image(&self, page_id: PageId) -> Option<&SlottedPage> {
            self.map
                .get(&page_id)
                .and_then(|&i| self.frames[i].page.as_ref())
        }

        /// The outcome, and a stolen page's bytes.
        fn install(&mut self, page_id: PageId) -> (EvictOutcome, Option<SlottedPage>) {
            assert!(!self.map.contains_key(&page_id));
            if self.frames.len() < self.capacity {
                self.frames.push(CowFrame {
                    page_id,
                    page: None,
                    referenced: true,
                });
                self.map.insert(page_id, self.frames.len() - 1);
                return (EvictOutcome::Clean, None);
            }
            let n = self.frames.len();
            loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % n;
                let f = &mut self.frames[i];
                if f.referenced {
                    f.referenced = false;
                    continue;
                }
                let old_id = f.page_id;
                let stolen = f.page.take();
                f.page_id = page_id;
                f.referenced = true;
                self.map.remove(&old_id);
                self.map.insert(page_id, i);
                if stolen.is_some() {
                    self.stats.steals += 1;
                    return (EvictOutcome::Steal { page_id: old_id }, stolen);
                }
                self.stats.clean_evictions += 1;
                return (EvictOutcome::Clean, None);
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

        fn complete_fetch(&mut self, page_id: PageId) -> (EvictOutcome, Option<SlottedPage>) {
            self.in_flight.remove(&page_id);
            self.install(page_id)
        }

        fn take_dirty(&mut self) -> Vec<(PageId, SlottedPage)> {
            self.frames
                .iter_mut()
                .filter_map(|f| f.page.take().map(|image| (f.page_id, image)))
                .collect()
        }

        fn crash(&mut self) {
            self.frames.clear();
            self.map.clear();
            self.in_flight.clear();
            self.hand = 0;
        }
    }

    /// The images outside the pool as they were beside copy-on-write
    /// frames: a whole image per write in flight, which replaces the
    /// durable one when it lands.
    struct CowImages {
        durable: Vec<SlottedPage>,
        in_flight: Vec<(SimTime, PageId, SlottedPage)>,
    }

    impl CowImages {
        fn newest(&self, pid: PageId) -> &SlottedPage {
            self.in_flight
                .iter()
                .rev()
                .find(|(_, p, _)| *p == pid)
                .map_or(&self.durable[pid.0 as usize], |(_, _, image)| image)
        }

        fn settle(&mut self, now: SimTime) {
            let writes = std::mem::take(&mut self.in_flight).into_iter();
            let (landed, pending): (Vec<_>, Vec<_>) = writes.partition(|w| w.0 <= now);
            for (_, pid, image) in landed {
                self.durable[pid.0 as usize] = image;
            }
            self.in_flight = pending;
        }

        /// Patch every image of `pid` whose `slot` is `owned`'s.
        fn roll_back(
            &mut self,
            pid: PageId,
            slot: u16,
            before: &[u8],
            owned: impl Fn(Option<&[u8]>) -> bool,
        ) {
            let durable = std::iter::once(&mut self.durable[pid.0 as usize]);
            let in_flight = self
                .in_flight
                .iter_mut()
                .filter(|(_, p, _)| *p == pid)
                .map(|(_, _, image)| image);
            for image in durable.chain(in_flight) {
                if owned(image.get(slot)) {
                    image.update(slot, before);
                }
            }
        }
    }

    /// Drive both pools, each beside its images outside the pool, through
    /// `ops` = `(op, page, arg)` and compare everything observable after
    /// every step. Ops whose precondition fails (they would panic in both
    /// pools) are skipped.
    ///
    /// The steps are the engine's: a read, a write (through the frame, so
    /// stolen and checkpointed bytes carry what was written), a fetch
    /// whose install may steal (the write-back lands at once), a
    /// checkpoint (every dirty frame becomes a write in flight), a landing
    /// (the clock passes some completions), a crash and a participant's
    /// rollback of whoever last wrote a slot. Writes of one page land in
    /// submission order and a steal never overlaps a write in flight, as
    /// in the engine (a checkpoint waits for its batch). What a reader
    /// sees of every resident page, slot by slot, and of the page the step
    /// named, byte for byte, must match; so must every write-back's and
    /// landing's durable bytes and page LSN.
    fn assert_matches_cow_pool(capacity: usize, ops: &[(u8, u64, u8)]) {
        // few enough pages that a small pool churns, enough that a
        // 64-frame pool fills and evicts
        let span = if capacity < 64 { 6 } else { 96 };
        let mut pool = BufferPool::new(capacity, span);
        let mut images = PageImages::new(span, formatted());
        let mut wal = Wal::new();
        let mut tree = TreePool::new(capacity);
        let mut cow = CowImages {
            durable: vec![formatted(); span as usize],
            in_flight: Vec::new(),
        };
        let mut now = SimTime::ZERO;
        let us = |arg: u8| SimDuration::from_micros(10 * u64::from(arg % 4));
        for (step, &(op, page, arg)) in ops.iter().enumerate() {
            let pid = PageId(page % span);
            let slot = u16::from(arg) % SLOTS;
            let lsn = step as u64 + 1;
            let busy = tree.contains(pid) || tree.fetch_in_flight(pid);
            let mut durable_checks = Vec::new();
            match op {
                0..=13 if !tree.contains(pid) && cow.in_flight.is_empty() => {
                    let ((want, stolen), got) = if op < 8 && !busy {
                        (tree.install(pid), pool.install(pid))
                    } else if op >= 8 {
                        (tree.complete_fetch(pid), pool.complete_fetch(pid))
                    } else {
                        continue;
                    };
                    assert_eq!(got, want, "step {step}: eviction");
                    if let EvictOutcome::Steal { page_id } = got {
                        pool.stolen().apply(images.durable_mut(page_id), &wal);
                        cow.durable[page_id.0 as usize] = stolen.unwrap();
                        durable_checks.push(page_id);
                    }
                }
                14..=19 if !tree.contains(pid) => {
                    assert_eq!(pool.begin_fetch(pid), tree.begin_fetch(pid), "step {step}");
                }
                20..=27 if arg >= 8 => {
                    // the step is the writer and the LSN
                    let want = tree.get_mut(pid, cow.newest(pid));
                    let hit = want.is_some();
                    if let Some(page) = want {
                        page.update(slot, &record(lsn, lsn));
                        page.set_lsn(lsn);
                    }
                    assert_eq!(
                        write(&mut pool, &mut wal, pid, slot, lsn, lsn),
                        hit,
                        "step {step}"
                    );
                }
                20..=27 => {
                    let hit = tree.access(pid).is_some();
                    assert_eq!(pool.touch(pid), hit, "step {step}");
                }
                34..=35 => {
                    pool.add_waiter(pid);
                    tree.add_waiter(pid, step as u64);
                }
                36..=38 => {
                    // a checkpoint: every dirty frame, in frame order
                    let done = cow.in_flight.last().map_or(now, |w| w.0).max(now) + us(arg);
                    let want = tree.take_dirty();
                    let ids: Vec<PageId> = want.iter().map(|(p, _)| *p).collect();
                    assert_eq!(pool.dirty_pages(), ids, "step {step}");
                    pool.take_dirty(|p, redo| images.write(done, p, redo));
                    cow.in_flight
                        .extend(want.into_iter().map(|(p, image)| (done, p, image)));
                }
                39 => {
                    pool.crash();
                    tree.crash();
                    images.crash(now, &wal);
                    cow.settle(now);
                    cow.in_flight.clear();
                    durable_checks.extend((0..span).map(PageId));
                }
                40..=42 => {
                    now += us(arg);
                    durable_checks.extend(cow.in_flight.iter().filter(|w| w.0 <= now).map(|w| w.1));
                    images.settle(now, &wal);
                    cow.settle(now);
                }
                43..=45 => {
                    // roll back whoever wrote the slot last, visiting the
                    // frame first, as `undo_participant` does; half the
                    // time on the page of the newest write in flight
                    let pid = match cow.in_flight.last() {
                        Some(&(_, p, _)) if arg >= 8 => p,
                        _ => pid,
                    };
                    let shown = tree.dirty_image(pid).unwrap_or(cow.newest(pid));
                    let global = owner(shown.get(slot)).unwrap();
                    let owned = |r: Option<&[u8]>| global != 0 && owner(r) == Some(global);
                    let before_bytes = record(0, lsn);
                    let before = Some(logged(&mut wal, &before_bytes));
                    let restored =
                        images.roll_back(pool.get_mut(pid), pid, slot, before, &wal, owned);
                    let want = match tree.get_mut(pid, cow.newest(pid)) {
                        Some(page) if owned(page.get(slot)) => {
                            page.update(slot, &before_bytes);
                            true
                        }
                        _ => false,
                    };
                    cow.roll_back(pid, slot, &before_bytes, owned);
                    assert_eq!(restored, want, "step {step}: restored in the frame");
                }
                _ => {}
            }
            for p in durable_checks {
                let (got, want) = (images.durable(p), &cow.durable[p.0 as usize]);
                assert_eq!(
                    (got.lsn(), got.as_bytes()),
                    (want.lsn(), want.as_bytes()),
                    "step {step} {p:?}: durable bytes"
                );
            }
            for p in (0..span).map(PageId) {
                assert_eq!(pool.contains(p), tree.contains(p), "step {step} {p:?}");
                assert_eq!(
                    pool.fetch_in_flight(p),
                    tree.fetch_in_flight(p),
                    "step {step} {p:?}"
                );
                if !tree.contains(p) {
                    continue;
                }
                let want = tree.dirty_image(p).unwrap_or(cow.newest(p));
                for s in 0..SLOTS {
                    assert_eq!(
                        images.record(pool.redo(p), p, s, &wal),
                        want.get(s),
                        "step {step} {p:?} slot {s}: what a reader sees"
                    );
                }
                if p == pid {
                    let got = newest(&images, pool.redo(p), p, &wal);
                    assert_eq!(
                        got.as_bytes(),
                        want.as_bytes(),
                        "step {step}: visible bytes"
                    );
                }
            }
            assert!(
                pool.frames
                    .iter()
                    .map(|f| (f.page_id, f.dirty))
                    .eq(tree.frames.iter().map(|f| (f.page_id, f.page.is_some()))),
                "step {step}: frame order, dirty set"
            );
            assert_eq!(
                format!("{:?}", pool.stats()),
                format!("{:?}", tree.stats),
                "step {step}"
            );
        }
    }

    proptest! {
        #[test]
        fn redo_frames_match_the_copy_on_write_pool_they_replaced(
            capacity in 0..3usize,
            ops in proptest::collection::vec((0..46u8, 0..96u64, 0..16u8), 1..400),
        ) {
            assert_matches_cow_pool([1, 2, 64][capacity], &ops);
        }
    }
}
