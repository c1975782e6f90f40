//! Property tests of the simulation kernel's invariants — everything
//! above relies on these holding for arbitrary inputs.

use proptest::prelude::*;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, Resource};

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
