//! NVMe-style queue pair over the SSD: an in-flight window that admits
//! up to QD commands into the controller, and a completion queue drained
//! out of order.
//!
//! The serialized host API (`read`/`write`/`trim` returning a single
//! [`Completion`](crate::Completion)) forces the caller to chain on
//! each completion, so the device's internal parallelism — multiple
//! chips behind one channel — is only reachable from inside the
//! controller. [`QueuePair`] is the asynchronous front door: the host
//! [`submit`](QueuePair::submit)s typed [`IoRequest`]s tagged with a
//! [`CommandId`], the window admits each command at the earliest
//! instant the device has a free slot (NVMe "fetch the SQ in order,
//! complete whenever"), and completions surface through
//! [`ready`](QueuePair::ready) / [`pop`](QueuePair::pop) in *device*
//! order.
//!
//! ## Timing model
//!
//! A command arriving at `now` is **admitted** at
//! `admit = max(now, previous admit, window-free instant, same-LBA
//! predecessor done)` and then dispatched through the existing
//! synchronous controller path at `admit`. The wait `[now, admit)` is
//! the submission-queue residency and is attributed to the command as a
//! `Queue`-cause span on resource `"sq"`, so the probe's span-tiling
//! invariant (span sum == end-to-end latency) keeps holding per command
//! even when completions reorder. At queue depth 1 the window is always
//! empty, `admit == now`, and every instant — and therefore every byte
//! of probe output — is identical to the serialized path.
//!
//! ## Ordering guarantees
//!
//! * Admissions are monotone (SQ fetched in order).
//! * Two commands to the **same LBA** complete in submission order: the
//!   second is not admitted until the first's completion instant, and
//!   the completion heap breaks `done` ties in submission order.
//! * Commands to different LBAs complete in whatever order the device
//!   finishes them — the whole point of queue depth.

use requiem_sim::cmd::{CommandId, IoCompletion, IoOp, IoRequest};
use requiem_sim::completion::{CompletionHeap, InflightWindow};
use requiem_sim::probe::{Cause, Layer};
use requiem_sim::time::SimTime;

use crate::addr::Lpn;
use crate::device::{Completion, Ssd, SsdError};

impl Ssd {
    /// Serve one typed host command synchronously.
    ///
    /// This is the typed twin of `read`/`write`/`trim`: same timing,
    /// same metrics, same probe spans — it only swaps the positional
    /// arguments for an [`IoRequest`] and the bare
    /// [`Completion`](crate::Completion) for an [`IoCompletion`] that
    /// echoes the request's tag. Serialized callers (the block-layer
    /// single-submit path, the DB backends) use this; queue-depth
    /// callers go through [`QueuePair`].
    pub fn io(&mut self, now: SimTime, req: IoRequest) -> Result<IoCompletion, SsdError> {
        let scope = self.probe().open_command(req.op.as_str(), now);
        let id = scope.id();
        let c = match self.dispatch(now, req) {
            Ok(c) => c,
            Err(e) => {
                // the command never completed: drop its record and
                // reopen the bus before surfacing the error
                scope.abort();
                return Err(e);
            }
        };
        scope.close(c.done);
        Ok(IoCompletion {
            tag: req.tag,
            op: req.op,
            lba: req.lba,
            submitted: now,
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

/// An asynchronous submission/completion queue pair over an [`Ssd`].
///
/// The pair holds no reference to the device; each
/// [`submit`](QueuePair::submit) borrows it, so one device can sit
/// behind several pairs (per-core SQs) without aliasing trouble.
#[derive(Debug)]
pub struct QueuePair {
    window: InflightWindow,
    cq: CompletionHeap<IoCompletion>,
    next_tag: u64,
}

impl QueuePair {
    /// A queue pair whose in-flight window admits up to `depth`
    /// commands at once (min 1; 1 reproduces the serialized path
    /// bit-for-bit).
    pub fn new(depth: usize) -> Self {
        QueuePair {
            window: InflightWindow::new(depth),
            cq: CompletionHeap::new(),
            next_tag: 0,
        }
    }

    /// Configured window depth.
    pub fn depth(&self) -> usize {
        self.window.depth()
    }

    /// Completions waiting in the completion queue.
    pub fn pending(&self) -> usize {
        self.cq.len()
    }

    /// Submit one command at `now`; returns the host tag (the request's
    /// own tag, or the next auto-assigned tag when unassigned).
    ///
    /// Submission instants must be non-decreasing across calls — the SQ
    /// is a queue, not a time machine.
    pub fn submit(
        &mut self,
        ssd: &mut Ssd,
        now: SimTime,
        req: IoRequest,
    ) -> Result<CommandId, SsdError> {
        let tag = if req.tag.is_unassigned() {
            self.next_tag += 1;
            CommandId(self.next_tag)
        } else {
            req.tag
        };
        let admit = self.window.admit(now, req.lba);
        let probe = ssd.probe().clone();
        let scope = probe.open_command(req.op.as_str(), now);
        let id = scope.id();
        if admit > now {
            // SQ residency: waiting for a window slot (or a same-LBA
            // predecessor). Charged as host-visible queueing.
            probe.span(Layer::Block, Cause::Queue, "sq", now, admit);
        }
        let c = match ssd.dispatch(admit, req) {
            Ok(c) => c,
            Err(e) => {
                // abort the probe command explicitly: the record is
                // discarded and the bus reopens for the next submit
                scope.abort();
                return Err(e);
            }
        };
        self.window.commit(admit, req.lba, c.done);
        scope.close(c.done);
        self.cq.push(
            c.done,
            IoCompletion {
                tag,
                op: req.op,
                lba: req.lba,
                submitted: now,
                done: c.done,
                status: c.status,
                spans: probe.command_span_count(id),
            },
        );
        Ok(tag)
    }

    /// Drain every completion ready at `now`, earliest-done first: each
    /// is popped as the caller takes it, into no list.
    pub fn ready(&mut self, now: SimTime) -> impl Iterator<Item = IoCompletion> + '_ {
        std::iter::from_fn(move || self.cq.pop_ready(now)).map(|(_, c)| c)
    }

    /// Pop the earliest completion regardless of the clock (closed-loop
    /// drivers advance time *to* the completion they pop).
    pub fn pop(&mut self) -> Option<IoCompletion> {
        self.cq.pop().map(|(_, c)| c)
    }

    /// Completion instant of the earliest pending completion.
    pub fn next_done(&self) -> Option<SimTime> {
        self.cq.peek_done()
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
            qp.submit(&mut b, t, IoRequest::write(lba)).unwrap();
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
            qp.submit(&mut dev, t, IoRequest::read(lba)).unwrap();
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
        let a = qp.submit(&mut dev, t, IoRequest::write(7)).unwrap();
        let b = qp.submit(&mut dev, t, IoRequest::write(7)).unwrap();
        let c1 = qp.pop().unwrap();
        let c2 = qp.pop().unwrap();
        assert_eq!(c1.tag, a);
        assert_eq!(c2.tag, b);
        assert!(c1.done <= c2.done);
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
            tags.push(qp.submit(&mut dev, t, IoRequest::write(lba)).unwrap());
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
