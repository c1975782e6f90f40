//! The battery-backed write-back buffer.
//!
//! §2.3.2: *"high-end SSDs now include safe RAM buffers (with batteries),
//! which are designed for buffering write operations. Such SSDs provide a
//! form of write-back mechanism where a write I/O request completes as
//! soon as it hits the cache."*
//!
//! The buffer has `capacity` page slots. A write acquires a slot (waiting
//! if all slots are mid-flush), completes immediately — the data is safe in
//! battery-backed RAM — and the flash program proceeds behind the
//! completion. Reads of still-buffered pages are served from RAM.
//!
//! The controller admits a write through `Ssd::admit`; what a page is
//! keyed by — an LPN, or a physical page number when the host holds the
//! map — is the controller's `resident_key`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use requiem_sim::time::SimTime;

/// Write-back buffer occupancy and residency tracking (timeline model:
/// a slot is "busy" until its page's flush finishes).
#[derive(Debug)]
pub(crate) struct WriteBuffer {
    capacity: usize,
    /// Flush-completion times of occupied slots.
    slots: BinaryHeap<Reverse<SimTime>>,
    /// Pages readable from RAM, packed in no particular order: `(lpn,
    /// flush completion time)` — readable until then.
    resident: Vec<(u64, SimTime)>,
    /// Where each resident page sits in `resident`: an open-addressing
    /// table of `position + 1` (0 = empty slot), probed linearly from a
    /// multiplicative hash of the page's key, emptied by backward shift
    /// (no tombstones). Sized once, to a power of two at least twice the
    /// most pages `commit`'s sweep lets stand, so it holds what the
    /// buffer holds however large the key space is; the hash is fixed, so
    /// nothing depends on more than the call sequence.
    index: Vec<u32>,
    /// `64 − log₂(index.len())`: how far a key's hash is shifted down.
    shift: u32,
    stalls: u64,
}

/// Fibonacci hashing's multiplier, 2⁶⁴ / φ.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

impl WriteBuffer {
    /// Create a buffer with `capacity` page slots (0 = disabled; callers
    /// should bypass a disabled buffer).
    pub fn new(capacity: usize) -> Self {
        let slots = (2 * (Self::bound(capacity) + 1)).next_power_of_two();
        WriteBuffer {
            capacity,
            slots: BinaryHeap::with_capacity(capacity + 1),
            resident: Vec::new(),
            index: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            stalls: 0,
        }
    }

    /// The most resident pages a commit leaves standing (DESIGN.md §5
    /// records what the sweep past it models).
    fn bound(capacity: usize) -> usize {
        capacity * 8 + 64
    }

    /// Whether the buffer exists at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Acquire a slot at or after `now`. Returns the time the slot is
    /// available — `now` if the buffer has room, otherwise the earliest
    /// flush completion (the write stalls until the flash drains a page:
    /// the regime where buffered writes degrade to flash speed).
    pub fn acquire(&mut self, now: SimTime) -> SimTime {
        debug_assert!(self.enabled());
        // release slots whose flush already finished
        while let Some(&Reverse(t)) = self.slots.peek() {
            if t <= now {
                self.slots.pop();
            } else {
                break;
            }
        }
        if self.slots.len() < self.capacity {
            now
        } else {
            self.stalls += 1;
            let Reverse(t) = self.slots.pop().expect("buffer non-empty when full");
            t
        }
    }

    /// The index slot `lpn`'s probe starts at.
    fn home(&self, lpn: u64) -> usize {
        (lpn.wrapping_mul(HASH) >> self.shift) as usize
    }

    /// The index slot holding `lpn`, or the empty slot where its probe
    /// ended.
    fn find(&self, lpn: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut i = self.home(lpn);
        loop {
            match self.index[i] {
                0 => return Err(i),
                s if self.resident[s as usize - 1].0 == lpn => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Position of `lpn` in `resident`, if it is there.
    fn position(&self, lpn: u64) -> Option<usize> {
        self.find(lpn).ok().map(|i| self.index[i] as usize - 1)
    }

    /// Empty index slot `hole`, shifting back each later entry of its
    /// probe run that may sit there, so no probe meets a gap it should
    /// have passed.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.index[i];
            if s == 0 {
                break;
            }
            // the entry may move to `hole` if `hole` lies on its probe
            // path: no further from its home than `i` is
            let home = self.home(self.resident[s as usize - 1].0);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = i;
            }
        }
        self.index[hole] = 0;
    }

    /// Drop the resident entry at `pos`; the last entry takes its place.
    fn evict(&mut self, pos: usize) {
        if let Ok(i) = self.find(self.resident[pos].0) {
            self.unindex(i);
        }
        let last = self.resident.len() - 1;
        if pos != last {
            if let Ok(i) = self.find(self.resident[last].0) {
                self.index[i] = pos as u32 + 1;
            }
        }
        self.resident.swap_remove(pos);
    }

    /// Commit a page into the acquired slot: its flush finishes at `done`.
    pub fn commit(&mut self, lpn: u64, done: SimTime) {
        self.slots.push(Reverse(done));
        match self.find(lpn) {
            Ok(i) => self.resident[self.index[i] as usize - 1].1 = done,
            Err(i) => {
                self.resident.push((lpn, done));
                self.index[i] = self.resident.len() as u32;
            }
        }
        // bound residency growth: keep only the pages whose flush ends
        // after this one's (DESIGN.md §5 records what that models)
        if self.resident.len() > Self::bound(self.capacity) {
            let horizon = done;
            self.resident.retain(|&(_, t)| t > horizon);
            self.index.fill(0);
            for pos in 0..self.resident.len() {
                if let Err(i) = self.find(self.resident[pos].0) {
                    self.index[i] = pos as u32 + 1;
                }
            }
        }
    }

    /// True if a read of `lpn` at `now` can be served from buffer RAM.
    pub fn read_hit(&mut self, lpn: u64, now: SimTime) -> bool {
        let Some(pos) = self.position(lpn) else {
            return false;
        };
        if self.resident[pos].1 > now {
            true
        } else {
            self.evict(pos);
            false
        }
    }

    /// Discard residency for `lpn` (trim).
    pub fn discard(&mut self, lpn: u64) {
        if let Some(pos) = self.position(lpn) {
            self.evict(pos);
        }
    }

    /// Number of writes that had to wait for a slot.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use requiem_sim::time::SimDuration;
    use std::collections::BTreeMap;

    #[test]
    fn acquire_is_immediate_with_room() {
        let mut b = WriteBuffer::new(2);
        assert_eq!(b.acquire(SimTime::from_micros(5)), SimTime::from_micros(5));
        assert_eq!(b.stalls(), 0);
    }

    #[test]
    fn full_buffer_stalls_until_earliest_flush() {
        let mut b = WriteBuffer::new(2);
        b.commit(1, SimTime::from_micros(100));
        b.commit(2, SimTime::from_micros(50));
        // both slots busy at t=0 → wait for the earliest (50µs)
        let t = b.acquire(SimTime::ZERO);
        assert_eq!(t, SimTime::from_micros(50));
        assert_eq!(b.stalls(), 1);
    }

    #[test]
    fn finished_flushes_free_slots() {
        let mut b = WriteBuffer::new(1);
        b.commit(1, SimTime::from_micros(10));
        // at t=20µs the slot has drained
        assert_eq!(
            b.acquire(SimTime::from_micros(20)),
            SimTime::from_micros(20)
        );
        assert_eq!(b.stalls(), 0);
    }

    #[test]
    fn read_hits_while_flushing_only() {
        let mut b = WriteBuffer::new(2);
        b.commit(7, SimTime::from_micros(100));
        assert!(b.read_hit(7, SimTime::from_micros(50)));
        assert!(!b.read_hit(7, SimTime::from_micros(150)));
        assert!(!b.read_hit(8, SimTime::ZERO));
    }

    #[test]
    fn discard_removes_residency() {
        let mut b = WriteBuffer::new(2);
        b.commit(7, SimTime::from_micros(100));
        b.discard(7);
        assert!(!b.read_hit(7, SimTime::ZERO));
    }

    /// What `commit`'s sweep models (DESIGN.md §5): once the set outgrows
    /// its bound, every page whose flush ends at or before the *new*
    /// page's flush end is dropped — pages still mid-flush, and so still
    /// in RAM, at that moment included. A read arriving before their
    /// flush ends then misses and goes to flash.
    #[test]
    fn sweep_drops_pages_still_in_ram() {
        let mut b = WriteBuffer::new(1);
        let us = SimTime::from_micros;
        // 72 pages whose flushes end at 100 µs .. 171 µs: the bound is
        // 1 * 8 + 64 = 72 entries, so nothing is swept yet
        for i in 0..72u64 {
            b.commit(i, us(100 + i));
        }
        assert_eq!(b.resident.len(), 72);
        assert!(b.read_hit(0, us(50)));
        // the 73rd page's flush ends at 150 µs: pages 0..=50 go, though
        // at 50 µs every one of them is still mid-flush
        b.commit(1000, us(150));
        assert_eq!(b.resident.len(), 21);
        assert!(!b.read_hit(0, us(50)), "swept while still in RAM");
        assert!(!b.read_hit(50, us(50)));
        assert!(
            !b.read_hit(1000, us(50)),
            "the new page itself: t > done fails"
        );
        assert!(b.read_hit(51, us(50)));
        assert!(b.read_hit(71, us(170)));
    }

    /// A read that misses on a page whose flush is over evicts it, and the
    /// eviction is state: the population it shrinks decides when the
    /// sweep runs, so a later read can hit or miss by it. A read cannot
    /// skip the lookup once every flush is over, although it must miss.
    #[test]
    fn a_stale_miss_evicts_and_so_moves_the_next_sweep() {
        let mut b = WriteBuffer::new(1);
        let us = SimTime::from_micros;
        for i in 0..72u64 {
            b.commit(i, us(100 + i));
        }
        // every flush is over at 200 µs: a miss, and page 0 leaves
        assert!(!b.read_hit(0, us(200)));
        assert_eq!(b.resident.len(), 71);
        // back at the bound: no sweep
        b.commit(1000, us(300));
        assert_eq!(b.resident.len(), 72);
        // past it: the sweep drops every flush ending by 400 µs
        b.commit(1001, us(400));
        assert!(b.resident.is_empty());
        assert!(
            !b.read_hit(1001, us(260)),
            "with page 0 left in place the sweep would have run one commit \
             earlier and kept page 1001"
        );
    }

    /// The residency map [`WriteBuffer`] used to keep, as the reference:
    /// a `BTreeMap` swept with `retain`.
    struct TreeBuffer {
        capacity: usize,
        slots: BinaryHeap<Reverse<SimTime>>,
        resident: BTreeMap<u64, SimTime>,
        stalls: u64,
    }

    impl TreeBuffer {
        fn new(capacity: usize) -> Self {
            TreeBuffer {
                capacity,
                slots: BinaryHeap::new(),
                resident: BTreeMap::new(),
                stalls: 0,
            }
        }

        fn acquire(&mut self, now: SimTime) -> SimTime {
            while let Some(&Reverse(t)) = self.slots.peek() {
                if t <= now {
                    self.slots.pop();
                } else {
                    break;
                }
            }
            if self.slots.len() < self.capacity {
                now
            } else {
                self.stalls += 1;
                let Reverse(t) = self.slots.pop().expect("buffer non-empty when full");
                t
            }
        }

        fn commit(&mut self, lpn: u64, done: SimTime) {
            self.slots.push(Reverse(done));
            self.resident.insert(lpn, done);
            if self.resident.len() > self.capacity * 8 + 64 {
                let horizon = done;
                self.resident.retain(|_, &mut t| t > horizon);
            }
        }

        fn read_hit(&mut self, lpn: u64, now: SimTime) -> bool {
            match self.resident.get(&lpn) {
                Some(&t) if t > now => true,
                Some(_) => {
                    self.resident.remove(&lpn);
                    false
                }
                None => false,
            }
        }

        fn discard(&mut self, lpn: u64) {
            self.resident.remove(&lpn);
        }
    }

    /// `((kind, lpn), (time step, flush length))`.
    type Op = ((u8, u64), (u64, u64));

    /// Run `ops` through both
    /// and compare every return value, both counters and the whole
    /// resident population after every step. `now` wanders both ways.
    fn assert_matches_tree(capacity: usize, ops: &[Op]) {
        let mut b = WriteBuffer::new(capacity);
        let mut tree = TreeBuffer::new(capacity);
        let mut now = SimTime::from_micros(500);
        for (step, &((kind, lpn), (dt, flush))) in ops.iter().enumerate() {
            now = if kind % 5 == 4 {
                SimTime::from_nanos(now.as_nanos().saturating_sub(dt))
            } else {
                now + SimDuration::from_nanos(dt)
            };
            match kind {
                // a write: acquire, then commit a flush of some length
                // (0 = already over, long = outlives many successors)
                0..=5 => {
                    let start = b.acquire(now);
                    assert_eq!(start, tree.acquire(now), "step {step} acquire");
                    let done = start + SimDuration::from_nanos(flush);
                    b.commit(lpn, done);
                    tree.commit(lpn, done);
                }
                6..=8 => assert_eq!(
                    b.read_hit(lpn, now),
                    tree.read_hit(lpn, now),
                    "step {step} read_hit({lpn})"
                ),
                _ => {
                    b.discard(lpn);
                    tree.discard(lpn);
                }
            }
            assert_eq!(b.stalls(), tree.stalls, "step {step}");
            let mut population = b.resident.clone();
            population.sort_unstable();
            assert_eq!(
                population,
                tree.resident
                    .iter()
                    .map(|(&l, &t)| (l, t))
                    .collect::<Vec<_>>(),
                "step {step} population"
            );
            for (pos, &(l, _)) in b.resident.iter().enumerate() {
                assert_eq!(b.position(l), Some(pos), "step {step} index of {l}");
            }
            assert_eq!(
                b.index.iter().filter(|&&s| s > 0).count(),
                b.resident.len(),
                "step {step} stale index entries"
            );
        }
    }

    const CAPACITIES: [usize; 3] = [1, 2, 256];

    /// `n` host tags (from 2⁴⁸ up) whose probes all start in the last
    /// three slots of the 256-slot index capacities 1 and 2 get, found by
    /// search: every insert collides, probe runs wrap past the table's
    /// end, and every eviction shifts entries back across it.
    fn colliding_keys(n: usize) -> Vec<u64> {
        let b = WriteBuffer::new(1);
        assert_eq!(b.index.len(), 256);
        (1u64 << 48..)
            .filter(|&k| b.home(k) >= 253)
            .take(n)
            .collect()
    }

    proptest! {
        /// Few pages, rewritten and re-read often, flushes from nothing
        /// to long: hits, expiries on read, discards, full buffers.
        #[test]
        fn sparse_set_matches_the_tree_it_replaced(
            capacity in 0..CAPACITIES.len(),
            ops in proptest::collection::vec(
                ((0..10u8, 0..24u64), (0..3_000u64, 0..40_000u64)),
                1..400,
            ),
        ) {
            assert_matches_tree(CAPACITIES[capacity], &ops);
        }

        /// Many distinct pages, mostly writes: the population crosses
        /// `capacity * 8 + 64` and the sweep runs (capacity 1 and 2;
        /// at 256 the bound is out of reach and nothing is swept).
        #[test]
        fn sweeping_set_matches_the_tree(
            capacity in 0..CAPACITIES.len(),
            ops in proptest::collection::vec(
                ((0..8u8, 0..2_000u64), (0..300u64, 0..200_000u64)),
                200..800,
            ),
        ) {
            assert_matches_tree(CAPACITIES[capacity], &ops);
        }

        /// Pages whose keys all hash to the index's last slots (capacity
        /// 1 and 2, whose bound the 24 keys stay under).
        #[test]
        fn colliding_keys_match_the_tree(
            capacity in 0..2usize,
            ops in proptest::collection::vec(
                ((0..10u8, 0..24usize), (0..3_000u64, 0..40_000u64)),
                1..400,
            ),
        ) {
            let keys = colliding_keys(24);
            let ops: Vec<Op> = ops
                .iter()
                .map(|&((kind, k), times)| ((kind, keys[k]), times))
                .collect();
            assert_matches_tree(CAPACITIES[capacity], &ops);
        }
    }

    #[test]
    fn residency_map_stays_bounded() {
        let mut b = WriteBuffer::new(2);
        for i in 0..10_000u64 {
            let t = b.acquire(SimTime::from_nanos(i));
            b.commit(i, t + requiem_sim::time::MICROSECOND);
        }
        assert!(b.resident.len() <= 2 * 8 + 64 + 1);
    }
}
