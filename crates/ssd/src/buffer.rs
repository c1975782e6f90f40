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
/// a slot is "busy" until its page's flash flush finishes).
#[derive(Debug)]
pub(crate) struct WriteBuffer {
    capacity: usize,
    /// Flush-completion times of occupied slots.
    slots: BinaryHeap<Reverse<SimTime>>,
    /// Pages readable from RAM, packed in no particular order: `(lpn,
    /// flush completion time)` — readable until then.
    resident: Vec<(u64, SimTime)>,
    /// `lpn → its position in `resident` + 1`, 0 for a page not resident.
    /// Dense (4 B per page up to the highest LPN committed, grown on
    /// demand), so a lookup is one indexed load and nothing here iterates
    /// in an order that depends on more than the call sequence.
    slot_of: Vec<u32>,
    stalls: u64,
}

impl WriteBuffer {
    /// Create a buffer with `capacity` page slots (0 = disabled; callers
    /// should bypass a disabled buffer).
    pub fn new(capacity: usize) -> Self {
        WriteBuffer {
            capacity,
            slots: BinaryHeap::with_capacity(capacity + 1),
            resident: Vec::new(),
            slot_of: Vec::new(),
            stalls: 0,
        }
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

    /// Position of `lpn` in `resident`, if it is there.
    fn position(&self, lpn: u64) -> Option<usize> {
        match self.slot_of.get(lpn as usize) {
            Some(&slot) if slot > 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// Drop the resident entry at `pos`; the last entry takes its place.
    fn evict(&mut self, pos: usize) {
        let (lpn, _) = self.resident.swap_remove(pos);
        self.slot_of[lpn as usize] = 0;
        if let Some(&(moved, _)) = self.resident.get(pos) {
            self.slot_of[moved as usize] = pos as u32 + 1;
        }
    }

    /// Commit a page into the acquired slot: its flush finishes at `done`.
    pub fn commit(&mut self, lpn: u64, done: SimTime) {
        self.slots.push(Reverse(done));
        match self.position(lpn) {
            Some(pos) => self.resident[pos].1 = done,
            None => {
                if self.slot_of.len() <= lpn as usize {
                    self.slot_of.resize(lpn as usize + 1, 0);
                }
                self.resident.push((lpn, done));
                self.slot_of[lpn as usize] = self.resident.len() as u32;
            }
        }
        // bound residency growth: keep only the pages whose flush ends
        // after this one's (DESIGN.md §5 records what that models)
        if self.resident.len() > self.capacity * 8 + 64 {
            let horizon = done;
            let slot_of = &mut self.slot_of;
            let mut kept = 0u32;
            self.resident.retain(|&(lpn, t)| {
                let keep = t > horizon;
                kept += u32::from(keep);
                slot_of[lpn as usize] = if keep { kept } else { 0 };
                keep
            });
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
                b.slot_of.iter().filter(|&&s| s > 0).count(),
                b.resident.len(),
                "step {step} stale index entries"
            );
        }
    }

    const CAPACITIES: [usize; 3] = [1, 2, 256];

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
