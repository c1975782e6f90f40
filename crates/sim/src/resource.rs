//! Serial resource timelines.
//!
//! A [`Resource`] models anything that executes one operation at a time: a
//! LUN (one chip operation in flight — the paper's unit of operation
//! interleaving), a CPU core, or a lock. Callers *reserve* an interval; the
//! resource grants the earliest start not before the requested time and
//! not before all earlier grants have finished (FIFO, non-preemptive).
//!
//! A [`TransferTimeline`] is the same serial resource for a shared bus (a
//! flash channel, a host link): a transfer takes the first idle gap it
//! fits, so one booked at a future instant does not hold the bus for
//! transfers that could have run before it.
//!
//! The timeline model makes the paper's Figure 1 notions precise:
//!
//! * a workload is **channel-bound** when the channel resource's busy time
//!   dominates the makespan, and
//! * **chip-bound** when LUN resources dominate.
//!
//! [`Resource::utilization`] reports exactly this.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Who a (tagged) grant on a resource belongs to. Used to *blame* queueing
/// delay: when a later reservation waits, the wait interval is decomposed
/// by the occupants that held the resource during it, which is how a host
/// read stalled behind a GC erase gets its latency attributed to a
/// GC-stall span on the observability bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Occupant {
    /// Host-issued traffic (also the default for untagged reservations).
    Host,
    /// Garbage collection.
    Gc,
    /// Wear leveling.
    Wear,
    /// FTL merge (hybrid log merge, replacement-block finalize).
    Merge,
    /// Mapping-translation traffic (e.g. DFTL page reads/writes).
    Translation,
    /// Error-recovery traffic (read-retry ladders, ECC escalation,
    /// parity-rebuild reads, salvage relocations).
    Recovery,
}

/// How many tagged grants a tracking resource retains for blame
/// decomposition, latest-starting first. Waits only ever overlap the
/// latest grants, so a small window is exact in practice; anything older
/// is attributed to generic queueing.
const OCCUPANT_WINDOW: usize = 128;

/// A serial (one-op-at-a-time), FIFO, non-preemptive resource timeline.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Human-readable name (the `resource` of its probe spans, and debug
    /// output).
    name: String,
    /// Earliest instant a new reservation may begin.
    next_free: SimTime,
    /// Total time the resource has been occupied by grants.
    busy: SimDuration,
    /// Number of grants made.
    grants: u64,
    /// Recent grants `(start, end, occupant)` for blame decomposition,
    /// sorted by start; empty unless [`Resource::track_occupants`]
    /// enabled tracking.
    recent: VecDeque<(SimTime, SimTime, Occupant)>,
    /// Whether reservations are recorded into `recent`.
    tracking: bool,
}

/// A granted reservation on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the operation starts on the resource.
    pub start: SimTime,
    /// When the operation finishes and the resource becomes free.
    pub end: SimTime,
}

impl Grant {
    /// Service duration of the grant itself.
    #[inline]
    pub fn service(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

impl Resource {
    /// Create an idle resource, free from `t = 0`.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            grants: 0,
            recent: VecDeque::new(),
            tracking: false,
        }
    }

    /// Enable (or disable) occupant tracking for blame decomposition.
    /// Off by default: the tracking ring buffer costs a push per grant,
    /// which untraced hot paths should not pay.
    pub fn track_occupants(&mut self, on: bool) {
        self.tracking = on;
        if !on {
            self.recent.clear();
        }
    }

    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Earliest instant at which a new reservation could start.
    #[inline]
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Reserve `duration` of exclusive time, starting no earlier than `not_before`.
    ///
    /// Returns the granted `[start, end)` interval. The start is
    /// `max(not_before, next_free)` — FIFO with respect to all previous
    /// reservations on this resource.
    pub fn reserve(&mut self, not_before: SimTime, duration: SimDuration) -> Grant {
        self.reserve_tagged(not_before, duration, Occupant::Host)
    }

    /// [`reserve`](Self::reserve), recording `occupant` as the owner of
    /// the granted interval (when tracking is enabled) so later waiters
    /// can attribute their queueing delay via
    /// [`blame_into`](Self::blame_into).
    pub fn reserve_tagged(
        &mut self,
        not_before: SimTime,
        duration: SimDuration,
        occupant: Occupant,
    ) -> Grant {
        let start = not_before.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy += duration;
        self.grants += 1;
        if self.tracking {
            if self.recent.len() == OCCUPANT_WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back((start, end, occupant));
        }
        Grant { start, end }
    }

    /// Book `[start, start + duration)` inside an idle gap before
    /// `next_free` (the caller found the gap): statistics as for any
    /// grant, and the occupant window kept sorted by start.
    fn book_in_gap(&mut self, start: SimTime, duration: SimDuration, occupant: Occupant) -> Grant {
        let end = start + duration;
        debug_assert!(
            end <= self.next_free,
            "a backfilled grant ends past next_free"
        );
        self.busy += duration;
        self.grants += 1;
        if self.tracking {
            let at = self.recent.partition_point(|&(s, _, _)| s < start);
            self.recent.insert(at, (start, end, occupant));
            if self.recent.len() > OCCUPANT_WINDOW {
                self.recent.pop_front();
            }
        }
        Grant { start, end }
    }

    /// Decompose the wait interval `[requested_at, granted_start)` by the
    /// occupants that held this resource during it, into a caller-owned
    /// scratch buffer (cleared first) so per-wait decomposition on the
    /// scheduler hot path reuses one allocation. `out` receives
    /// per-occupant durations summing exactly to the wait; time not
    /// covered by a tracked grant (tracking off, window overflow, idle
    /// gaps in a multi-resource wait) is attributed to
    /// [`Occupant::Host`] queueing.
    ///
    /// The waiter's own grant never perturbs the result, whether it is
    /// reserved before or after the call: it starts at `granted_start`,
    /// outside the decomposed interval.
    ///
    /// The grant window is sorted by start and its grants never overlap,
    /// so both starts and ends are nondecreasing (on a
    /// [`TransferTimeline`] too, whose backfilled grants are inserted in
    /// place): the scan binary-searches to the first grant ending
    /// inside the wait and stops at the first one starting past it,
    /// touching only the overlapping grants instead of the whole window.
    /// Occupants appear in order of their first overlapping grant —
    /// identical to the full linear scan.
    pub fn blame_into(
        &self,
        requested_at: SimTime,
        granted_start: SimTime,
        out: &mut Vec<(Occupant, SimDuration)>,
    ) {
        out.clear();
        if granted_start <= requested_at {
            return;
        }
        let mut covered = SimDuration::ZERO;
        // first grant with end > requested_at (ends are nondecreasing)
        let first = self.recent.partition_point(|&(_, e, _)| e <= requested_at);
        for &(s, e, occ) in self.recent.iter().skip(first) {
            if s >= granted_start {
                break; // starts are nondecreasing: nothing later overlaps
            }
            // overlap of [s, e) with [requested_at, granted_start)
            let lo = s.max(requested_at);
            let hi = e.min(granted_start);
            if hi > lo {
                let d = hi.since(lo);
                covered += d;
                match out.iter_mut().find(|(o, _)| *o == occ) {
                    Some((_, acc)) => *acc += d,
                    None => out.push((occ, d)),
                }
            }
        }
        let wait = granted_start.since(requested_at);
        if wait > covered {
            let rest = wait - covered;
            match out.iter_mut().find(|(o, _)| *o == Occupant::Host) {
                Some((_, acc)) => *acc += rest,
                None => out.push((Occupant::Host, rest)),
            }
        }
    }

    /// Would-be grant if we reserved now — without committing. Used by
    /// schedulers comparing candidate resources (e.g. least-loaded LUN).
    pub fn peek(&self, not_before: SimTime, duration: SimDuration) -> Grant {
        let start = not_before.max(self.next_free);
        Grant {
            start,
            end: start + duration,
        }
    }

    /// Total busy time granted so far.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of grants made so far.
    #[inline]
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Utilization over the window `[0, horizon]`: busy time / horizon.
    ///
    /// Returns 0.0 for a zero horizon. Values can exceed 1.0 only if the
    /// caller passes a horizon earlier than the last grant end — pass the
    /// makespan (or [`Resource::next_free`]) for a sound figure.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_nanos() == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

/// A serial timeline for transfers on a shared bus — a flash channel, the
/// host link — that **backfills**: a grant starts at the earliest instant
/// `>= not_before` where `[start, start + duration)` overlaps no earlier
/// grant. That is first fit over the idle gaps left before
/// [`next_free`](Self::next_free), else an append exactly as a FIFO
/// [`Resource`] would grant it: a caller whose requests never land before
/// `next_free` gets the FIFO grants bit for bit.
///
/// The gap list is what FIFO users are spared, which is why this is a
/// type of its own and not a mode of [`Resource`]. It stays short because
/// every reservation names a *floor*, the owner's promise that no later
/// request asks for a start before it (a device passes its latest host
/// submission instant), and the gaps that end by then are retired.
///
/// Statistics keep their [`Resource`] meaning: busy time is the sum of
/// granted durations, `grant_count` counts grants, `next_free` is the
/// latest grant end, and [`blame_into`](Self::blame_into) decomposes a
/// wait over the grants that held the bus during it.
#[derive(Debug, Clone)]
pub struct TransferTimeline {
    /// Counters, `next_free` and the occupant window.
    res: Resource,
    /// Idle intervals `[start, end)` before `next_free`, sorted and
    /// disjoint (so ends are sorted too), none of them empty. A handful
    /// at a time, so every search is a linear scan.
    gaps: Vec<(SimTime, SimTime)>,
}

impl TransferTimeline {
    /// Create an idle timeline, free from `t = 0`.
    pub fn new(name: impl Into<String>) -> Self {
        TransferTimeline {
            res: Resource::new(name),
            gaps: Vec::new(),
        }
    }

    /// Enable (or disable) occupant tracking for blame decomposition
    /// (see [`Resource::track_occupants`]).
    pub fn track_occupants(&mut self, on: bool) {
        self.res.track_occupants(on);
    }

    /// The timeline name.
    pub fn name(&self) -> &str {
        self.res.name()
    }

    /// The end of the latest grant: from here on the bus is idle.
    #[inline]
    pub fn next_free(&self) -> SimTime {
        self.res.next_free()
    }

    /// Total busy time granted so far.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.res.busy_time()
    }

    /// Number of grants made so far.
    #[inline]
    pub fn grant_count(&self) -> u64 {
        self.res.grant_count()
    }

    /// Utilization over `[0, horizon]` (see [`Resource::utilization`]).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.res.utilization(horizon)
    }

    /// Decompose the wait `[requested_at, granted_start)` by occupant
    /// (see [`Resource::blame_into`]); idle time too short for the
    /// waiter's transfer counts as [`Occupant::Host`] queueing.
    pub fn blame_into(
        &self,
        requested_at: SimTime,
        granted_start: SimTime,
        out: &mut Vec<(Occupant, SimDuration)>,
    ) {
        self.res.blame_into(requested_at, granted_start, out);
    }

    /// Reserve `duration` of the bus, starting no earlier than
    /// `not_before`, in the first idle gap it fits; every gap is kept.
    pub fn reserve(&mut self, not_before: SimTime, duration: SimDuration) -> Grant {
        self.reserve_tagged(SimTime::ZERO, not_before, duration, Occupant::Host)
    }

    /// [`reserve`](Self::reserve), recording `occupant` as the owner of
    /// the granted interval (when tracking is enabled), after retiring
    /// the gaps that end by `floor`. Exact while the owner keeps its
    /// promise that no request asks for a start before `floor`; a request
    /// that does anyway is placed in a later gap or appended, which is
    /// still deterministic.
    #[inline]
    pub fn reserve_tagged(
        &mut self,
        floor: SimTime,
        not_before: SimTime,
        duration: SimDuration,
        occupant: Occupant,
    ) -> Grant {
        let next_free = self.res.next_free;
        if not_before < next_free && !self.gaps.is_empty() {
            return self.backfill(floor, not_before, duration, occupant);
        }
        if not_before > next_free {
            // an append past an idle stretch: every gap so far ends by
            // `next_free`, and the new one is worth keeping only if it
            // outlives the floor
            if next_free <= floor {
                self.gaps.clear();
            } else {
                self.retire(floor);
            }
            if not_before > floor {
                self.gaps.push((next_free, not_before));
            }
        }
        self.res.reserve_tagged(not_before, duration, occupant)
    }

    /// Drop the gaps that end by `floor`.
    #[inline]
    fn retire(&mut self, floor: SimTime) {
        if self.gaps.first().is_some_and(|&(_, end)| end <= floor) {
            let dead = self
                .gaps
                .iter()
                .take_while(|&&(_, end)| end <= floor)
                .count();
            self.gaps.drain(..dead);
        }
    }

    /// The slow path of [`reserve_tagged`](Self::reserve_tagged): a
    /// request landing before `next_free` with gaps to look in.
    #[inline(never)]
    fn backfill(
        &mut self,
        floor: SimTime,
        not_before: SimTime,
        duration: SimDuration,
        occupant: Occupant,
    ) -> Grant {
        self.retire(floor);
        let Some((i, start)) = self.first_fit(not_before, duration) else {
            return self.res.reserve_tagged(not_before, duration, occupant);
        };
        let (lo, hi) = self.gaps[i];
        let end = start + duration;
        match (lo < start, end < hi) {
            (true, true) => {
                self.gaps[i].1 = start;
                self.gaps.insert(i + 1, (end, hi));
            }
            (true, false) => self.gaps[i].1 = start,
            (false, true) => self.gaps[i].0 = end,
            (false, false) => {
                self.gaps.remove(i);
            }
        }
        self.res.book_in_gap(start, duration, occupant)
    }

    /// The first gap `[lo, hi)` with `max(lo, not_before) + duration <=
    /// hi`, as its index and the start it gives.
    fn first_fit(&self, not_before: SimTime, duration: SimDuration) -> Option<(usize, SimTime)> {
        self.gaps.iter().enumerate().find_map(|(i, &(lo, hi))| {
            let start = lo.max(not_before);
            (start + duration <= hi).then_some((i, start))
        })
    }

    /// Would-be grant if we reserved now — without committing: the grant
    /// [`reserve`](Self::reserve) would make, and the one
    /// [`reserve_tagged`](Self::reserve_tagged) would make for any floor
    /// up to `not_before`.
    pub fn peek(&self, not_before: SimTime, duration: SimDuration) -> Grant {
        let start = match self.first_fit(not_before, duration) {
            Some((_, start)) if not_before < self.res.next_free => start,
            _ => not_before.max(self.res.next_free),
        };
        Grant {
            start,
            end: start + duration,
        }
    }
}

/// A bank of identical serial resources with helpers for least-loaded and
/// round-robin selection (e.g. "the 16 LUNs of a channel", "8 CPU cores").
#[derive(Debug, Clone)]
pub struct ResourceBank {
    members: Vec<Resource>,
    rr_next: usize,
}

impl ResourceBank {
    /// Create `n` resources named `{prefix}{index}`.
    pub fn new(prefix: &str, n: usize) -> Self {
        ResourceBank {
            members: (0..n)
                .map(|i| Resource::new(format!("{prefix}{i}")))
                .collect(),
            rr_next: 0,
        }
    }

    /// Number of member resources.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the bank has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Access a member by index.
    pub fn get(&self, idx: usize) -> &Resource {
        &self.members[idx]
    }

    /// Mutable access to a member by index.
    pub fn get_mut(&mut self, idx: usize) -> &mut Resource {
        &mut self.members[idx]
    }

    /// Iterate over members.
    pub fn iter(&self) -> impl Iterator<Item = &Resource> {
        self.members.iter()
    }

    /// Index of the member that could start a `duration` reservation soonest.
    /// Ties break toward the lowest index (determinism).
    pub fn least_loaded(&self, not_before: SimTime, duration: SimDuration) -> usize {
        let mut best = 0usize;
        let mut best_start = SimTime::MAX;
        for (i, r) in self.members.iter().enumerate() {
            let g = r.peek(not_before, duration);
            if g.start < best_start {
                best_start = g.start;
                best = i;
            }
        }
        best
    }

    /// Next index in round-robin order (advances internal cursor).
    pub fn round_robin(&mut self) -> usize {
        let i = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.members.len().max(1);
        i
    }

    /// The latest `next_free` across members — when the whole bank drains.
    pub fn drain_time(&self) -> SimTime {
        self.members
            .iter()
            .map(|r| r.next_free())
            .fold(SimTime::ZERO, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MICROSECOND;

    #[test]
    fn fifo_ordering() {
        let mut r = Resource::new("chan");
        let g1 = r.reserve(SimTime::ZERO, MICROSECOND * 10);
        let g2 = r.reserve(SimTime::ZERO, MICROSECOND * 5);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g1.end, SimTime::from_micros(10));
        // second op must wait for first even though requested at t=0
        assert_eq!(g2.start, SimTime::from_micros(10));
        assert_eq!(g2.end, SimTime::from_micros(15));
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut r = Resource::new("lun");
        r.reserve(SimTime::ZERO, MICROSECOND * 2);
        // arrives later, leaving a gap [2µs, 10µs)
        let g = r.reserve(SimTime::from_micros(10), MICROSECOND * 3);
        assert_eq!(g.start, SimTime::from_micros(10));
        assert_eq!(r.busy_time(), MICROSECOND * 5);
        let horizon = r.next_free();
        let util = r.utilization(horizon);
        assert!((util - 5.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_commit() {
        let mut r = Resource::new("x");
        let p = r.peek(SimTime::ZERO, MICROSECOND);
        assert_eq!(p.start, SimTime::ZERO);
        assert_eq!(r.grant_count(), 0);
        assert_eq!(r.next_free(), SimTime::ZERO);
        r.reserve(SimTime::ZERO, MICROSECOND);
        assert_eq!(r.grant_count(), 1);
    }

    #[test]
    fn grant_delay_and_service() {
        let mut r = Resource::new("x");
        r.reserve(SimTime::ZERO, MICROSECOND * 4);
        let g = r.reserve(SimTime::from_micros(1), MICROSECOND * 2);
        assert_eq!(g.start.since(SimTime::from_micros(1)), MICROSECOND * 3);
        assert_eq!(g.service(), MICROSECOND * 2);
    }

    #[test]
    fn bank_least_loaded_prefers_idle() {
        let mut b = ResourceBank::new("lun", 3);
        b.get_mut(0).reserve(SimTime::ZERO, MICROSECOND * 10);
        b.get_mut(1).reserve(SimTime::ZERO, MICROSECOND * 4);
        let pick = b.least_loaded(SimTime::ZERO, MICROSECOND);
        assert_eq!(pick, 2); // idle one wins
    }

    #[test]
    fn bank_least_loaded_tie_breaks_low_index() {
        let b = ResourceBank::new("lun", 4);
        assert_eq!(b.least_loaded(SimTime::ZERO, MICROSECOND), 0);
    }

    #[test]
    fn bank_round_robin_wraps() {
        let mut b = ResourceBank::new("c", 3);
        assert_eq!(
            (0..7).map(|_| b.round_robin()).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn drain_time_is_latest_free() {
        let mut b = ResourceBank::new("c", 2);
        b.get_mut(0).reserve(SimTime::ZERO, MICROSECOND * 7);
        b.get_mut(1).reserve(SimTime::ZERO, MICROSECOND * 3);
        assert_eq!(b.drain_time(), SimTime::from_micros(7));
    }

    /// `blame_into` a fresh buffer: the decomposition as a value.
    fn blame_of(
        r: &Resource,
        requested_at: SimTime,
        granted_start: SimTime,
    ) -> Vec<(Occupant, SimDuration)> {
        let mut out = Vec::new();
        r.blame_into(requested_at, granted_start, &mut out);
        out
    }

    #[test]
    fn blame_decomposes_wait_by_occupant() {
        let mut r = Resource::new("lun");
        r.track_occupants(true);
        // GC erase occupies [0, 2ms)
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 2000, Occupant::Gc);
        // host op arrives at 0.5ms, waits until 2ms
        let req = SimTime::from_micros(500);
        let g = r.peek(req, MICROSECOND * 50);
        let blame = blame_of(&r, req, g.start);
        assert_eq!(blame, vec![(Occupant::Gc, MICROSECOND * 1500)]);
        let total: SimDuration = blame
            .iter()
            .map(|&(_, d)| d)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, g.start.since(req));
    }

    #[test]
    fn blame_mixes_occupants_and_residual() {
        let mut r = Resource::new("lun");
        r.track_occupants(true);
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 10, Occupant::Host);
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 30, Occupant::Merge);
        // waiter arrives at 5µs; resource busy until 40µs
        let req = SimTime::from_micros(5);
        let blame = blame_of(&r, req, SimTime::from_micros(40));
        let host = blame
            .iter()
            .find(|(o, _)| *o == Occupant::Host)
            .map(|&(_, d)| d);
        let merge = blame
            .iter()
            .find(|(o, _)| *o == Occupant::Merge)
            .map(|&(_, d)| d);
        assert_eq!(host, Some(MICROSECOND * 5));
        assert_eq!(merge, Some(MICROSECOND * 30));
    }

    #[test]
    fn blame_without_tracking_is_generic_queueing() {
        let mut r = Resource::new("lun");
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 10, Occupant::Gc);
        let blame = blame_of(&r, SimTime::ZERO, SimTime::from_micros(10));
        assert_eq!(blame, vec![(Occupant::Host, MICROSECOND * 10)]);
    }

    #[test]
    fn blame_empty_for_no_wait() {
        let mut r = Resource::new("x");
        r.track_occupants(true);
        r.reserve(SimTime::ZERO, MICROSECOND);
        assert!(blame_of(&r, SimTime::from_micros(5), SimTime::from_micros(5)).is_empty());
    }

    #[test]
    fn blame_into_reuses_scratch_and_matches_blame() {
        let mut r = Resource::new("lun");
        r.track_occupants(true);
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 10, Occupant::Host);
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 30, Occupant::Merge);
        r.reserve_tagged(SimTime::ZERO, MICROSECOND * 5, Occupant::Gc);
        let mut scratch = vec![(Occupant::Wear, MICROSECOND)]; // stale content
        for (req, grant) in [(0u64, 45u64), (5, 40), (12, 45), (41, 45), (50, 50)] {
            let req = SimTime::from_micros(req);
            let grant = SimTime::from_micros(grant);
            r.blame_into(req, grant, &mut scratch);
            // whatever the last query left behind is gone
            assert_eq!(scratch, blame_of(&r, req, grant), "req={req} grant={grant}");
        }
    }

    #[test]
    fn transfer_takes_the_first_gap_it_fits() {
        let mut bus = TransferTimeline::new("chan");
        let us = SimTime::from_micros;
        // a read-out booked behind a program: [100, 110)
        assert_eq!(bus.reserve(us(100), MICROSECOND * 10).start, us(100));
        // a later request that could run now does not wait for it
        let g = bus.reserve(us(5), MICROSECOND * 10);
        assert_eq!((g.start, g.end), (us(5), us(15)));
        // one too long for what is left before 100 appends
        let g = bus.reserve(us(20), MICROSECOND * 90);
        assert_eq!(g.start, us(110));
        // the gaps [0, 5) and [15, 100) are still there
        assert_eq!(
            bus.peek(SimTime::ZERO, MICROSECOND * 5).start,
            SimTime::ZERO
        );
        assert_eq!(bus.reserve(SimTime::ZERO, MICROSECOND * 6).start, us(15));
        assert_eq!(bus.next_free(), us(200));
        assert_eq!(bus.busy_time(), MICROSECOND * 116);
        assert_eq!(bus.grant_count(), 4);
    }

    #[test]
    fn retired_gaps_are_not_backfilled() {
        let mut bus = TransferTimeline::new("link");
        let us = SimTime::from_micros;
        let host = Occupant::Host;
        // the gap [0, 100) ends by a floor at 100: it is never recorded
        bus.reserve_tagged(us(100), us(100), MICROSECOND * 10, host);
        assert_eq!(bus.reserve(us(5), MICROSECOND).start, us(110));
        // a gap straddling the floor stays whole
        let mut bus = TransferTimeline::new("link");
        bus.reserve_tagged(us(50), us(100), MICROSECOND * 10, host);
        assert_eq!(bus.reserve(us(5), MICROSECOND).start, us(5));
        // and goes once a later reservation names a floor past its end
        bus.reserve_tagged(us(100), us(100), MICROSECOND, host);
        assert_eq!(bus.reserve(us(6), MICROSECOND).start, us(111));
    }

    #[test]
    fn backfilled_grants_are_blamed_in_start_order() {
        let mut bus = TransferTimeline::new("chan");
        bus.track_occupants(true);
        let us = SimTime::from_micros;
        bus.reserve_tagged(SimTime::ZERO, us(20), MICROSECOND * 10, Occupant::Host);
        bus.reserve_tagged(SimTime::ZERO, us(0), MICROSECOND * 10, Occupant::Gc);
        // a 15 µs transfer asked for at 0 fits nowhere before 30
        let g = bus.reserve(us(0), MICROSECOND * 15);
        assert_eq!(g.start, us(30));
        let mut blame = Vec::new();
        bus.blame_into(us(0), g.start, &mut blame);
        assert_eq!(
            blame,
            vec![
                (Occupant::Gc, MICROSECOND * 10),
                (Occupant::Host, MICROSECOND * 20)
            ]
        );
    }
}
