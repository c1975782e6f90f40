//! Property tests for the generic queue pair, over a synthetic device
//! whose service times, refusals and hazard keys are drawn at random —
//! the skeleton every instantiation (the SSD, the nameless device, a core
//! of the block stack) inherits:
//!
//! 1. admissions are monotone, never before arrival, and never leave more
//!    than `depth` commands in flight;
//! 2. commands on the **same key** complete in submission order;
//! 3. reaps follow `(done, seq)`: device order, ties in submission order,
//!    and a reap at `now` takes exactly what is done by `now`;
//! 4. a refusal completes at its own instant: a device refusal at its
//!    admission, a host refusal when the host refused it — and the host
//!    refusal changes nothing else in the run.

use proptest::prelude::*;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{CommandId, Probe, QueuePair};

/// What the synthetic device hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cqe {
    tag: CommandId,
    key: u64,
    arrival: SimTime,
    admit: Option<SimTime>,
    done: SimTime,
}

/// `((arrival step, key), (service, kind))`; kind 0 is a device refusal,
/// kind 1 a host refusal, anything else a served command.
type Cmd = ((u64, u64), (u64, u8));

fn cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(((0..40u64, 0..6u64), (0..200u64, 0..12u8)), 1..200)
}

/// Drive `cmds` through a pair of depth `depth`, reaping at every
/// arrival and draining at the end; `skip_host_refusals` leaves the host
/// refusals out of the run. Returns the submitted entries, in submission
/// order, and the reaped ones, in reap order.
fn run(depth: usize, cmds: &[Cmd], skip_host_refusals: bool) -> (Vec<Cqe>, Vec<Cqe>) {
    let mut qp: QueuePair<Cqe> = QueuePair::new(depth);
    let probe = Probe::disabled();
    let (mut submitted, mut reaped) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    for &((step, key), (service, kind)) in cmds {
        now += SimDuration::from_micros(step);
        for c in qp.ready(now) {
            assert!(c.done <= now, "reaped {c:?} before it was done at {now}");
            reaped.push(c);
        }
        assert!(
            qp.next_done().map_or(true, |d| d > now),
            "a done entry was left"
        );
        let c = match kind {
            1 if skip_host_refusals => continue,
            1 => qp.refuse(now, CommandId::UNASSIGNED, |tag| Cqe {
                tag,
                key,
                arrival: now,
                admit: None,
                done: now,
            }),
            _ => qp.submit(&probe, now, CommandId::UNASSIGNED, key, |tag, admit| {
                let service = if kind == 0 { 0 } else { service };
                let done = admit + SimDuration::from_micros(service);
                let c = Cqe {
                    tag,
                    key,
                    arrival: now,
                    admit: Some(admit),
                    done,
                };
                (done, c)
            }),
        };
        submitted.push(c);
    }
    reaped.extend(std::iter::from_fn(|| qp.pop()));
    assert_eq!(qp.pending(), 0);
    (submitted, reaped)
}

const DEPTHS: [usize; 4] = [1, 2, 4, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn admissions_are_monotone_and_bounded_by_depth(depth in 0..DEPTHS.len(), cmds in cmds()) {
        let depth = DEPTHS[depth];
        let (submitted, _) = run(depth, &cmds, false);
        let admitted: Vec<&Cqe> = submitted.iter().filter(|c| c.admit.is_some()).collect();
        for (i, c) in admitted.iter().enumerate() {
            let admit = c.admit.unwrap();
            prop_assert!(admit >= c.arrival, "admitted before arrival: {:?}", c);
            if i > 0 {
                prop_assert!(admit >= admitted[i - 1].admit.unwrap(), "admission regressed: {:?}", c);
            }
            let busy = admitted[..i]
                .iter()
                .filter(|p| p.admit.unwrap() <= admit && admit < p.done)
                .count();
            prop_assert!(busy < depth, "{} in flight at depth {} when {:?} was admitted", busy, depth, c);
        }
    }

    #[test]
    fn same_key_completes_in_submission_order(depth in 0..DEPTHS.len(), cmds in cmds()) {
        let (_, reaped) = run(DEPTHS[depth], &cmds, false);
        // tags are assigned in submission order; host refusals never
        // reach the device, so they sit outside the hazard
        let mut last: std::collections::BTreeMap<u64, &Cqe> = Default::default();
        for c in reaped.iter().filter(|c| c.admit.is_some()) {
            if let Some(prev) = last.insert(c.key, c) {
                prop_assert!(prev.tag < c.tag, "key {} reaped {:?} after {:?}", c.key, c.tag, prev.tag);
                prop_assert!(prev.done <= c.admit.unwrap(), "key {} overlapped its predecessor", c.key);
            }
        }
    }

    #[test]
    fn reaps_follow_done_then_submission_order(depth in 0..DEPTHS.len(), cmds in cmds()) {
        let (submitted, reaped) = run(DEPTHS[depth], &cmds, false);
        prop_assert_eq!(reaped.len(), submitted.len(), "every entry is reaped once");
        // every entry is pushed at its submission, so submission order
        // is the heap's tie-break order
        let mut want = submitted.clone();
        want.sort_by_key(|c| c.done);
        prop_assert_eq!(reaped, want);
    }

    #[test]
    fn a_refusal_completes_at_its_own_instant(depth in 0..DEPTHS.len(), cmds in cmds()) {
        let depth = DEPTHS[depth];
        let (with, reaped) = run(depth, &cmds, false);
        for (c, &(_, (_, kind))) in with.iter().zip(&cmds) {
            match kind {
                0 => prop_assert_eq!(Some(c.done), c.admit, "a device refusal completes at admission"),
                1 => prop_assert_eq!(c.done, c.arrival, "a host refusal completes when refused"),
                _ => {}
            }
        }
        prop_assert_eq!(reaped.len(), with.len());
        // the host refusals consumed tags and nothing else: every other
        // command is admitted and completes exactly as without them
        let (without, _) = run(depth, &cmds, true);
        let served = |v: &[Cqe]| -> Vec<(u64, Option<SimTime>, SimTime)> {
            v.iter().filter(|c| c.admit.is_some()).map(|c| (c.key, c.admit, c.done)).collect()
        };
        prop_assert_eq!(served(&with), served(&without));
    }
}

/// The tag counter: a request's own tag is kept, an unassigned one takes
/// the next number, and a resize between runs keeps both the counter and
/// the completions still queued.
#[test]
fn tags_survive_a_resize() {
    let mut qp: QueuePair<CommandId> = QueuePair::new(1);
    let probe = Probe::disabled();
    let t = SimTime::from_micros(5);
    let a = qp.submit(&probe, t, CommandId::UNASSIGNED, 0, |tag, at| (at, tag));
    let b = qp.submit(&probe, t, CommandId(40), 1, |tag, at| (at, tag));
    assert_eq!((a, b), (CommandId(1), CommandId(40)));
    qp.resize(8);
    assert_eq!(qp.pending(), 2);
    let c = qp.refuse(t, CommandId::UNASSIGNED, |tag| tag);
    assert_eq!(c, CommandId(2));
    let reaped: Vec<CommandId> = qp.ready(t).collect();
    assert_eq!(reaped, [a, b, c]);
}
