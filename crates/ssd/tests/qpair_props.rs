//! Property tests for the SSD on a queue pair: random mixed workloads at
//! queue depths up to 16 must preserve, on the real device, the generic
//! pair's guarantees (`requiem-sim`'s `qpair_props` checks them on a
//! scripted device) plus what the device adds:
//!
//! 1. commands against the **same LBA** complete in submission order
//!    (the in-flight window's hazard guard, with the SSD as dispatch);
//! 2. every probe command's spans **tile** its `[submit, done)` exactly —
//!    out-of-order completion must not break the observability bus;
//! 3. the whole run is **deterministic**: same seed, same workload, same
//!    completions, byte for byte.

use proptest::prelude::*;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::Probe;
use requiem_ssd::{IoRequest, Lpn, QueuePair, Ssd, SsdConfig};

const SPACE: u64 = 32;

#[derive(Debug, Clone, Copy)]
enum HostOp {
    Read(u64),
    Write(u64),
}

impl HostOp {
    fn request(self) -> IoRequest {
        match self {
            HostOp::Read(l) => IoRequest::read(l % SPACE),
            HostOp::Write(l) => IoRequest::write(l % SPACE),
        }
    }
}

fn workload() -> impl Strategy<Value = Vec<HostOp>> {
    proptest::collection::vec(
        prop_oneof![
            1 => (0..SPACE).prop_map(HostOp::Read),
            1 => (0..SPACE).prop_map(HostOp::Write),
        ],
        1..120,
    )
}

fn device() -> Ssd {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 4;
    cfg.shape.luns_per_chip = 1;
    cfg.buffer.capacity_pages = 0;
    Ssd::new(cfg)
}

/// `(tag, lba, kind, submitted, done)` for every completion, in CQ pop
/// order — the run's observable behaviour, fingerprintable.
type Trace = Vec<(u64, u64, bool, u64, u64)>;

/// Drive `ops` through a queue pair at depth `qd` closed-loop; returns
/// the completion trace in pop order plus the recording probe.
fn run(qd: usize, ops: &[HostOp]) -> (Trace, Probe, SimTime) {
    let mut ssd = device();
    // precondition every LBA so reads always hit mapped pages
    let mut t = SimTime::ZERO;
    for lba in 0..SPACE {
        t = ssd.write(t, Lpn(lba)).expect("precondition").done;
    }
    let start = ssd.drain_time().max(t);
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());

    let mut qp = QueuePair::new(qd);
    let mut trace: Trace = Vec::new();
    let mut in_flight = 0usize;
    for op in ops {
        let now = if in_flight >= qd {
            let c = qp.pop().expect("at depth, completions pending");
            in_flight -= 1;
            trace.push((
                c.tag.0,
                c.lba,
                c.op == requiem_ssd::IoOp::Read,
                c.submitted.as_nanos(),
                c.done.as_nanos(),
            ));
            c.done
        } else {
            start
        };
        ssd.enqueue(&mut qp, now, op.request());
        in_flight += 1;
    }
    while let Some(c) = qp.pop() {
        trace.push((
            c.tag.0,
            c.lba,
            c.op == requiem_ssd::IoOp::Read,
            c.submitted.as_nanos(),
            c.done.as_nanos(),
        ));
    }
    let drain = ssd.drain_time();
    (trace, probe, drain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_lba_completes_in_submission_order(qd in 1usize..17, ops in workload()) {
        let (trace, _probe, _drain) = run(qd, &ops);
        prop_assert_eq!(trace.len(), ops.len());
        // tags are assigned in submission order; within one LBA the pop
        // order must preserve it
        let mut last_tag: std::collections::BTreeMap<u64, u64> = Default::default();
        for (tag, lba, _read, _sub, _done) in &trace {
            if let Some(prev) = last_tag.insert(*lba, *tag) {
                prop_assert!(
                    prev < *tag,
                    "lba {} completed tag {} after tag {}",
                    lba, tag, prev
                );
            }
        }
        // and dones must be non-decreasing per LBA in submission order
        let mut by_tag: Vec<&(u64, u64, bool, u64, u64)> = trace.iter().collect();
        by_tag.sort_by_key(|e| e.0);
        let mut last_done: std::collections::BTreeMap<u64, u64> = Default::default();
        for (_, lba, _, _, done) in by_tag {
            if let Some(prev) = last_done.insert(*lba, *done) {
                prop_assert!(prev <= *done, "lba {} done regressed", lba);
            }
        }
    }

    #[test]
    fn spans_tile_every_command(qd in 1usize..17, ops in workload()) {
        let (trace, probe, _drain) = run(qd, &ops);
        let cmds = probe.commands_ref();
        prop_assert_eq!(cmds.len(), trace.len(), "one probe command per request");
        for rec in cmds.iter() {
            let done = rec.done.expect("command closed");
            let spans = probe.command_spans(rec.id);
            let mut cursor = rec.submit;
            let mut total = SimDuration::ZERO;
            for s in &spans {
                prop_assert_eq!(
                    s.start, cursor,
                    "gap/overlap before {:?}/{:?} in probe cmd {}",
                    s.layer, s.cause, rec.id
                );
                cursor = s.end;
                total += s.duration();
            }
            prop_assert_eq!(cursor, done, "spans do not reach completion");
            prop_assert_eq!(
                total,
                done.since(rec.submit),
                "span sum != end-to-end latency"
            );
        }
    }

    #[test]
    fn same_seed_runs_are_byte_identical(qd in 1usize..17, ops in workload()) {
        let (a, _pa, da) = run(qd, &ops);
        let (b, _pb, db) = run(qd, &ops);
        prop_assert_eq!(a, b, "completion traces diverged");
        prop_assert_eq!(da, db, "drain times diverged");
    }
}
