//! Property tests of the simulation kernel's invariants — everything
//! above relies on these holding for arbitrary inputs.

use proptest::prelude::*;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, Occupant, Resource, TransferTimeline};

/// The earliest start `>= not_before` at which `[start, start + d)`
/// overlaps none of `grants`, by brute force: with `d > 0` it is
/// `not_before` or the end of some grant.
fn first_fit_by_search(grants: &[(u64, u64)], not_before: u64, d: u64) -> u64 {
    let mut candidates: Vec<u64> = grants
        .iter()
        .map(|&(_, e)| e)
        .filter(|&e| e > not_before)
        .collect();
    candidates.push(not_before);
    candidates.sort_unstable();
    candidates
        .into_iter()
        .find(|&c| grants.iter().all(|&(s, e)| c + d <= s || e <= c))
        .expect("past the last grant everything fits")
}

const OCCUPANTS: [Occupant; 3] = [Occupant::Host, Occupant::Gc, Occupant::Recovery];

proptest! {
    /// A serial resource never overlaps grants, never goes backwards, and
    /// its busy time equals the sum of granted durations.
    #[test]
    fn resource_grants_are_serial_and_monotonic(
        reqs in proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..200)
    ) {
        let mut r = Resource::new("x");
        let mut reqs = reqs;
        // requests must arrive in nondecreasing time order (the documented
        // contract); sort to satisfy it
        reqs.sort_by_key(|&(at, _)| at);
        let mut last_end = SimTime::ZERO;
        let mut total = 0u64;
        for (at, dur) in reqs {
            let g = r.reserve(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            prop_assert!(g.start >= SimTime::from_nanos(at), "grant before request");
            prop_assert!(g.start >= last_end, "grants overlap");
            prop_assert_eq!(g.end, g.start + SimDuration::from_nanos(dur));
            last_end = g.end;
            total += dur;
        }
        prop_assert_eq!(r.busy_time().as_nanos(), total);
        prop_assert_eq!(r.next_free(), last_end);
    }

    /// A transfer timeline grants the first gap a request fits, whatever
    /// order requests arrive in: never overlapping, never early, exactly
    /// where a search over every earlier grant puts it, and `peek` says
    /// so beforehand. Busy time and `next_free` keep their meaning.
    #[test]
    fn transfer_grants_are_first_fit(
        reqs in proptest::collection::vec((0u64..200_000, 1u64..20_000), 1..150)
    ) {
        let mut bus = TransferTimeline::new("bus");
        let mut granted: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for (at, dur) in reqs {
            let (nb, d) = (SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            let want = first_fit_by_search(&granted, at, dur);
            let peeked = bus.peek(nb, d);
            let g = bus.reserve(nb, d);
            prop_assert_eq!(g, peeked);
            prop_assert!(g.start >= nb, "grant before request");
            prop_assert_eq!(g.start.as_nanos(), want, "not the first fit");
            prop_assert_eq!(g.end, g.start + d);
            let (s, e) = (g.start.as_nanos(), g.end.as_nanos());
            prop_assert!(
                granted.iter().all(|&(gs, ge)| e <= gs || ge <= s),
                "[{}, {}) overlaps an earlier grant", s, e
            );
            granted.push((s, e));
            total += dur;
        }
        prop_assert_eq!(bus.busy_time().as_nanos(), total);
        prop_assert_eq!(bus.grant_count(), granted.len() as u64);
        let last = granted.iter().map(|&(_, e)| e).max().unwrap_or(0);
        prop_assert_eq!(bus.next_free().as_nanos(), last);
    }

    /// Requests that never land before `next_free` get the FIFO
    /// resource's grants bit for bit.
    #[test]
    fn transfer_grants_past_next_free_are_fifo(
        reqs in proptest::collection::vec((0u64..50_000, 1u64..20_000), 1..150)
    ) {
        let mut bus = TransferTimeline::new("bus");
        let mut fifo = Resource::new("fifo");
        for (idle, dur) in reqs {
            let nb = bus.next_free() + SimDuration::from_nanos(idle);
            let d = SimDuration::from_nanos(dur);
            prop_assert_eq!(bus.reserve(nb, d), fifo.reserve(nb, d));
        }
        prop_assert_eq!(bus.next_free(), fifo.next_free());
        prop_assert_eq!(bus.busy_time(), fifo.busy_time());
    }

    /// A floor that never passes a later request's `not_before` changes
    /// no grant: the gaps it retires are ones no such request could use.
    #[test]
    fn retiring_gaps_below_the_floor_is_exact(
        reqs in proptest::collection::vec((0u64..3_000, 0u64..6_000, 1u64..1_500), 1..150)
    ) {
        let mut kept = TransferTimeline::new("kept");
        let mut retired = TransferTimeline::new("retired");
        let mut floor = SimTime::ZERO;
        for (step, ahead, dur) in reqs {
            floor += SimDuration::from_nanos(step);
            let nb = floor + SimDuration::from_nanos(ahead);
            let d = SimDuration::from_nanos(dur);
            prop_assert_eq!(
                retired.reserve_tagged(floor, nb, d, Occupant::Host),
                kept.reserve(nb, d)
            );
        }
    }

    /// Blame over a transfer timeline whose grants arrive out of start
    /// order: each wait decomposes into parts that sum to it, and while
    /// the occupant window holds every grant the parts are exactly the
    /// overlaps with each occupant's grants (the rest is `Host`).
    #[test]
    fn transfer_blame_sums_to_the_wait(
        reqs in proptest::collection::vec((0u64..200_000, 1u64..20_000, 0usize..3), 1..100)
    ) {
        let mut bus = TransferTimeline::new("bus");
        bus.track_occupants(true);
        let mut granted: Vec<(u64, u64, Occupant)> = Vec::new();
        let mut blame = Vec::new();
        for (at, dur, who) in reqs {
            let nb = SimTime::from_nanos(at);
            let g = bus.reserve_tagged(SimTime::ZERO, nb, SimDuration::from_nanos(dur), OCCUPANTS[who]);
            bus.blame_into(nb, g.start, &mut blame);
            let sum = blame.iter().fold(SimDuration::ZERO, |a, &(_, d)| a + d);
            prop_assert_eq!(sum, g.start.since(nb));
            let mut want: Vec<(Occupant, u64)> = Vec::new();
            for &(s, e, occ) in &granted {
                let overlap = e.min(g.start.as_nanos()).saturating_sub(s.max(at));
                if overlap > 0 {
                    match want.iter_mut().find(|(o, _)| *o == occ) {
                        Some((_, acc)) => *acc += overlap,
                        None => want.push((occ, overlap)),
                    }
                }
            }
            for (occ, ns) in want {
                let got = blame.iter().find(|&&(o, _)| o == occ).map(|&(_, d)| d.as_nanos());
                if occ == Occupant::Host {
                    prop_assert!(got.unwrap_or(0) >= ns, "host blame short of host grants");
                } else {
                    prop_assert_eq!(got, Some(ns), "{:?}", occ);
                }
            }
            granted.push((g.start.as_nanos(), g.end.as_nanos(), OCCUPANTS[who]));
        }
    }

    /// An idle-arrival request is granted immediately.
    #[test]
    fn idle_resource_grants_immediately(at in 0u64..1_000_000, dur in 1u64..10_000) {
        let mut r = Resource::new("x");
        let g = r.reserve(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
        prop_assert_eq!(g.start, SimTime::from_nanos(at));
    }

    /// Histogram quantiles are monotone in q, bracketed by min/max, and
    /// within the bucketing error bound of an exact percentile.
    #[test]
    fn histogram_quantiles_sound(values in proptest::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let min = sorted[0];
        let max = *sorted.last().unwrap();
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        let mut last = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantiles must be monotone");
            prop_assert!(v >= min && v <= max);
            last = v;
        }
        // p50 within 6.25% (bucket width) of the true median, below it
        let true_median = sorted[(sorted.len() - 1) / 2];
        let p50 = h.p50();
        prop_assert!(
            p50 <= true_median + true_median / 8 && p50 + p50 / 7 + 1 >= true_median.min(p50 * 2),
            "p50 {p50} too far from median {true_median}"
        );
    }

    /// Merging histograms equals recording the union.
    #[test]
    fn histogram_merge_equals_union(
        a in proptest::collection::vec(1u64..1_000_000, 0..200),
        b in proptest::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut ha = Histogram::new();
        for &v in &a { ha.record(v); }
        let mut hb = Histogram::new();
        for &v in &b { hb.record(v); }
        ha.merge(&hb);
        let mut hu = Histogram::new();
        for &v in a.iter().chain(b.iter()) { hu.record(v); }
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }
}
