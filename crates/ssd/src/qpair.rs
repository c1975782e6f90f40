//! The SSD on a queue pair: typed host commands in, completions out in
//! *device* order.
//!
//! The serialized host API (`read`/`write`/`trim` returning a single
//! [`Completion`]) forces the caller to chain on
//! each completion, so the device's internal parallelism — multiple
//! chips behind one channel — is only reachable from inside the
//! controller. [`Ssd::enqueue`] is the asynchronous front door: the host
//! submits typed [`IoRequest`]s on a [`QueuePair`] — the generic
//! [`requiem_sim::QueuePair`] over [`IoCompletion`]s — whose window
//! admits each command at the earliest instant the device has a free
//! slot (NVMe "fetch the SQ in order, complete whenever"); completions
//! surface through [`ready`](requiem_sim::QueuePair::ready) /
//! [`pop`](requiem_sim::QueuePair::pop) in device order.
//!
//! ## Timing model
//!
//! A command arriving at `now` is **admitted** at
//! `admit = max(now, previous admit, window-free instant, same-LBA
//! predecessor done)` and then dispatched through the synchronous
//! controller path at `admit`. The wait `[now, admit)` is the
//! submission-queue residency, a `Queue`-cause span on resource `"sq"`,
//! so the probe's span-tiling invariant (span sum == end-to-end latency)
//! keeps holding per command even when completions reorder. At queue
//! depth 1 a closed loop finds the window empty, `admit == now`, and
//! every instant — and every byte of probe output — is identical to the
//! serialized path, [`Ssd::io`].
//!
//! ## Ordering guarantees
//!
//! * Admissions are monotone (SQ fetched in order).
//! * Two commands to the **same LBA** complete in submission order: the
//!   second is not admitted until the first's completion instant, and
//!   the completion queue breaks `done` ties in submission order.
//! * Commands to different LBAs complete in whatever order the device
//!   finishes them — the whole point of queue depth.

// Panic policy (DESIGN §2.5): failures surface as typed statuses, never
// host aborts. Test code is exempt (`crates/clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use requiem_sim::cmd::{IoCompletion, IoOp, IoRequest};
use requiem_sim::probe::CommandScope;
use requiem_sim::time::SimTime;

use crate::addr::Lpn;
use crate::device::{Completion, Ssd, SsdError};

/// The SSD's queue pair: the generic pair over typed completions.
pub type QueuePair = requiem_sim::QueuePair<IoCompletion>;

impl Ssd {
    /// Serve one typed host command synchronously.
    ///
    /// This is the typed twin of `read`/`write`/`trim`: same timing,
    /// same metrics, same probe spans — it only swaps the positional
    /// arguments for an [`IoRequest`] and the bare
    /// [`Completion`] for an [`IoCompletion`] that
    /// echoes the request's tag. Serialized callers (the block-layer
    /// single-submit path, the DB backends) use this; queue-depth
    /// callers go through [`Ssd::enqueue`].
    pub fn io(&mut self, now: SimTime, req: IoRequest) -> Result<IoCompletion, SsdError> {
        let scope = self.probe().open_command(req.op.as_str(), now);
        self.serve(scope, now, now, req)
    }

    /// Submit one typed host command on `qp` at `now`: the window admits
    /// it and the controller serves it at the admit instant. A command
    /// the device refuses completes [`Rejected`](requiem_sim::IoStatus::Rejected)
    /// at the instant it was refused: when the controller gave up on a
    /// full device, at admission otherwise. Returns the queued
    /// completion, tagged with the request's own tag or the next one
    /// `qp` assigns.
    pub fn enqueue(&mut self, qp: &mut QueuePair, now: SimTime, req: IoRequest) -> IoCompletion {
        let probe = self.probe().clone();
        let scope = probe.open_command(req.op.as_str(), now);
        qp.submit(&probe, now, req.tag, req.lba, |tag, admit| {
            let req = req.tag(tag);
            let c = self.serve(scope, now, admit, req).unwrap_or_else(|e| {
                let at = match e {
                    SsdError::DeviceFull { at, .. } => at,
                    _ => admit,
                };
                IoCompletion::rejected(req, now, at)
            });
            (c.done, c)
        })
    }

    /// Dispatch `req` at `at` inside `scope`, the command submitted at
    /// `submitted`: the scope closes at the completion, or is aborted —
    /// its record discarded, the bus reopened — if the device refuses.
    fn serve(
        &mut self,
        scope: CommandScope,
        submitted: SimTime,
        at: SimTime,
        req: IoRequest,
    ) -> Result<IoCompletion, SsdError> {
        let id = scope.id();
        let c = match self.dispatch(at, req) {
            Ok(c) => c,
            Err(e) => {
                scope.abort();
                return Err(e);
            }
        };
        scope.close(c.done);
        Ok(IoCompletion {
            tag: req.tag,
            op: req.op,
            lba: req.lba,
            submitted,
            done: c.done,
            status: c.status,
            spans: self.probe().command_span_count(id),
        })
    }

    /// Dispatch a typed request through the synchronous controller path.
    fn dispatch(&mut self, at: SimTime, req: IoRequest) -> Result<Completion, SsdError> {
        match req.op {
            IoOp::Read => self.read(at, Lpn(req.lba)),
            IoOp::Write => self.write(at, Lpn(req.lba)),
            IoOp::Trim => self.trim(at, Lpn(req.lba)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use requiem_sim::probe::Probe;

    fn small_ssd() -> Ssd {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 4;
        cfg.shape.luns_per_chip = 1;
        Ssd::new(cfg)
    }

    #[test]
    fn typed_io_matches_positional_api() {
        let mut a = small_ssd();
        let mut b = small_ssd();
        let t = SimTime::ZERO;
        let ca = a.write(t, Lpn(3)).unwrap();
        let cb = b.io(t, IoRequest::write(3)).unwrap();
        assert_eq!(ca.done, cb.done);
        assert_eq!(ca.latency, cb.latency());
        let ra = a.read(ca.done, Lpn(3)).unwrap();
        let rb = b.io(cb.done, IoRequest::read(3)).unwrap();
        assert_eq!(ra.done, rb.done);
        let ta = a.trim(ra.done, Lpn(3)).unwrap();
        let tb = b.io(rb.done, IoRequest::trim(3)).unwrap();
        assert_eq!(ta.done, tb.done);
    }

    #[test]
    fn qd1_matches_serialized_path() {
        let mut a = small_ssd();
        let mut b = small_ssd();
        let mut qp = QueuePair::new(1);
        let mut t = SimTime::ZERO;
        for lba in [5u64, 9, 5, 13] {
            let ca = a.write(t, Lpn(lba)).unwrap();
            b.enqueue(&mut qp, t, IoRequest::write(lba));
            let cb = qp.pop().unwrap();
            assert_eq!(ca.done, cb.done);
            assert_eq!(cb.submitted, t);
            t = ca.done;
        }
    }

    /// Device with LBAs 0..4 preconditioned; returns (device, drain time).
    fn preconditioned() -> (Ssd, SimTime) {
        let mut d = small_ssd();
        let mut t = SimTime::ZERO;
        for lba in 0..4u64 {
            t = d.write(t, Lpn(lba)).unwrap().done;
        }
        let drained = t.max(d.drain_time());
        (d, drained)
    }

    #[test]
    fn queue_depth_overlaps_reads() {
        // 4 chips behind 1 channel: reads of different LBAs overlap
        // their cell reads, so QD4 finishes sooner than serialized.
        let (mut serial_dev, t) = preconditioned();
        let mut now = t;
        for lba in 0..4u64 {
            now = serial_dev.read(now, Lpn(lba)).unwrap().done;
        }
        let serial_done = now;

        let (mut dev, t) = preconditioned();
        let mut qp = QueuePair::new(4);
        for lba in 0..4u64 {
            dev.enqueue(&mut qp, t, IoRequest::read(lba));
        }
        let mut last = SimTime::ZERO;
        while let Some(c) = qp.pop() {
            last = last.max(c.done);
        }
        assert!(
            last < serial_done,
            "QD4 reads ({last}) should beat serialized ({serial_done})"
        );
    }

    #[test]
    fn same_lba_completes_in_submission_order() {
        let mut dev = small_ssd();
        let mut qp = QueuePair::new(8);
        let t = SimTime::ZERO;
        let a = dev.enqueue(&mut qp, t, IoRequest::write(7)).tag;
        let b = dev.enqueue(&mut qp, t, IoRequest::write(7)).tag;
        let c1 = qp.pop().unwrap();
        let c2 = qp.pop().unwrap();
        assert_eq!(c1.tag, a);
        assert_eq!(c2.tag, b);
        assert!(c1.done <= c2.done);
    }

    /// A host-map device (the nameless vocabulary): 2 channels × 2 chips,
    /// write-through.
    fn host_map_ssd() -> Ssd {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        Ssd::with_host_map(cfg)
    }

    /// Submit a named write of host tag `tag` on `qp` at `now`, keyed by
    /// the tag: the nameless vocabulary on the same generic pair.
    fn submit_named_write(
        dev: &mut Ssd,
        qp: &mut QueuePair,
        now: SimTime,
        tag: u64,
    ) -> IoCompletion {
        let probe = dev.probe().clone();
        let req = IoRequest::write(tag);
        qp.submit(&probe, now, req.tag, tag, |id, admit| {
            let (_, c) = dev.write_named(admit, Lpn(tag)).expect("named write");
            let cqe = IoCompletion {
                tag: id,
                op: req.op,
                lba: tag,
                submitted: now,
                done: c.done,
                spans: 0,
                status: c.status,
            };
            (c.done, cqe)
        })
    }

    #[test]
    fn same_tag_completes_in_submission_order() {
        let mut dev = host_map_ssd();
        let mut qp = QueuePair::new(8);
        let t = SimTime::ZERO;
        let a = submit_named_write(&mut dev, &mut qp, t, 7).tag;
        let b = submit_named_write(&mut dev, &mut qp, t, 7).tag;
        let c1 = qp.pop().unwrap();
        let c2 = qp.pop().unwrap();
        assert_eq!(c1.tag, a);
        assert_eq!(c2.tag, b);
        assert!(c1.done <= c2.done);
    }

    #[test]
    fn queue_depth_overlaps_distinct_tags() {
        // 4 LUNs: QD4 named writes of distinct tags beat the serialized
        // chain.
        let mut serial = host_map_ssd();
        let mut t = SimTime::ZERO;
        for tag in 0..4u64 {
            t = serial.write_named(t, Lpn(tag)).unwrap().1.done;
        }
        let serial_done = t;

        let mut dev = host_map_ssd();
        let mut qp = QueuePair::new(4);
        for tag in 0..4u64 {
            submit_named_write(&mut dev, &mut qp, SimTime::ZERO, tag);
        }
        let mut last = SimTime::ZERO;
        while let Some(c) = qp.pop() {
            assert!(c.status.is_success());
            last = last.max(c.done);
        }
        assert!(
            last < serial_done,
            "QD4 named writes ({last}) should beat serialized ({serial_done})"
        );
    }

    #[test]
    fn spans_tile_latency_under_queue_depth() {
        let probe = Probe::recording();
        let mut dev = small_ssd();
        dev.attach_probe(probe.clone());
        let mut qp = QueuePair::new(4);
        let t = SimTime::ZERO;
        let mut tags = Vec::new();
        for lba in 0..6u64 {
            tags.push(dev.enqueue(&mut qp, t, IoRequest::write(lba)).tag);
        }
        let comps: Vec<IoCompletion> = std::iter::from_fn(|| qp.pop()).collect();
        assert_eq!(comps.len(), tags.len());
        // Every command's retained spans tile [submitted, done) exactly.
        let records = probe.commands_ref();
        for rec in records.iter() {
            let done = rec.done.expect("command closed");
            let spans = probe.command_spans(rec.id);
            assert!(!spans.is_empty());
            let mut cursor = rec.submit;
            let mut sum = requiem_sim::time::SimDuration::ZERO;
            for s in &spans {
                assert!(s.start >= cursor, "span overlap in cmd {}", rec.id);
                cursor = s.end;
                sum += s.duration();
            }
            assert_eq!(
                sum,
                done.since(rec.submit),
                "span sum != latency for cmd {}",
                rec.id
            );
            assert_eq!(rec.spans as usize, spans.len());
        }
    }
}
