//! Queue pair over the nameless device: nameless commands through the
//! same batched-doorbell discipline the block stack uses.
//!
//! PR 5's completion-driven database engine talks to block devices
//! through [`requiem_ssd::QueuePair`] — an in-flight window admitting up
//! to QD commands, a completion heap drained out of order. The nameless
//! interface had no such front door: every caller chained on synchronous
//! [`NamelessSsd::write`]/[`read`](NamelessSsd::read) completions.
//! [`NamelessQueuePair`] is the missing piece: typed [`NamelessCmd`]s go
//! in, [`NamelessCqe`]s come out in *device* order, each carrying the
//! device-chosen [`PhysName`] (for writes) and the typed [`IoStatus`] end
//! to end.
//!
//! What rides it in the cooperating-logs storage manager is the **read**
//! path: demand reads at the executor's concurrency keep several LUNs
//! sensing at once. Its writes do not — a steal or a checkpoint page is a
//! synchronous [`NamelessSsd::write`] — and their parallelism comes from
//! the device instead: with a battery-backed write buffer
//! (the hardware's `SsdConfig::buffer`) a write
//! is acknowledged from RAM and programmed behind the acknowledgement,
//! so back-to-back writes stripe over every LUN. A write's CQE `done` is
//! that acknowledgement (the end of the program on a write-through
//! device).
//!
//! ## Hazard key
//!
//! The block queue pair orders same-LBA commands by submission; the
//! nameless interface has no LBAs, so the hazard key is the **host
//! tag** (the database page id): two commands on the same tag complete
//! in submission order, commands on different tags complete in whatever
//! order the device finishes them. This is exactly the page-level
//! ordering a storage manager needs — a page's read never overtakes the
//! write that produced the version it wants.
//!
//! ## Errors are data
//!
//! A refused command does not panic and does not poison the queue: it
//! completes with [`IoStatus::Rejected`], mirroring how the block stack
//! reports refusals through the completion path, *at the instant the
//! device refused it*. A stale name is caught by the out-of-band tag
//! check before the device spends anything, so the read or free
//! completes at its admission instant with zero device occupancy. A
//! write the device has no room for is refused only once the page has
//! crossed the host link and the controller has looked for a place
//! ([`NamelessError::DeviceFull`]'s `at`): it completes then, and its
//! host-link and controller spans tile `[submit, done)` like any other
//! command's. The caller reacts per-completion — for a stale name, by
//! draining migration upcalls and resubmitting at the current name.

use requiem_sim::cmd::CommandId;
use requiem_sim::completion::{CompletionHeap, InflightWindow};
use requiem_sim::probe::{Cause, Layer};
use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;

use crate::nameless::{NamelessError, NamelessSsd, PhysName};

/// A typed command on the nameless interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamelessCmd {
    /// Write `tag`'s page; the device picks the location.
    Write {
        /// Opaque host identifier (database page id).
        tag: u64,
    },
    /// Read the page at `name`, verifying it still holds `tag`'s data.
    Read {
        /// The name to read.
        name: PhysName,
        /// The tag the page must carry (out-of-band staleness check).
        tag: u64,
    },
    /// Release the page at `name` (exact trim).
    Free {
        /// The name to release.
        name: PhysName,
        /// The tag the page must carry.
        tag: u64,
    },
}

impl NamelessCmd {
    /// The host tag — also the queue pair's hazard key.
    pub fn tag(&self) -> u64 {
        match *self {
            NamelessCmd::Write { tag }
            | NamelessCmd::Read { tag, .. }
            | NamelessCmd::Free { tag, .. } => tag,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            NamelessCmd::Write { .. } => "write",
            NamelessCmd::Read { .. } => "read",
            NamelessCmd::Free { .. } => "free",
        }
    }
}

/// Completion queue entry for one nameless command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NamelessCqe {
    /// Queue-assigned command id (submission order).
    pub id: CommandId,
    /// The host tag the command operated on.
    pub tag: u64,
    /// For a successful write: the device-chosen name the host must
    /// record. For reads/frees: the name operated on. `None` exactly
    /// when a write was rejected (nothing was placed).
    pub name: Option<PhysName>,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant. For a write, its acknowledgement: durable in
    /// the device's write buffer, or in flash on a write-through device.
    /// For a rejected command, the instant the device refused it
    /// (admission for a stale name, after the link transfer and command
    /// overhead for a full device).
    pub done: SimTime,
    /// Typed outcome, propagated instead of panicking.
    pub status: IoStatus,
}

/// An asynchronous submission/completion queue pair over a
/// [`NamelessSsd`], mirroring [`requiem_ssd::QueuePair`]'s timing
/// discipline (QD-1 reproduces the serialized path bit-for-bit).
#[derive(Debug)]
pub struct NamelessQueuePair {
    window: InflightWindow,
    cq: CompletionHeap<NamelessCqe>,
    next_id: u64,
}

impl NamelessQueuePair {
    /// A queue pair admitting up to `depth` commands at once (min 1).
    pub fn new(depth: usize) -> Self {
        NamelessQueuePair {
            window: InflightWindow::new(depth),
            cq: CompletionHeap::new(),
            next_id: 0,
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

    /// Submit one command at `now`; returns the queue-assigned id.
    /// Submission instants must be non-decreasing across calls.
    pub fn submit(&mut self, dev: &mut NamelessSsd, now: SimTime, cmd: NamelessCmd) -> CommandId {
        self.next_id += 1;
        let id = CommandId(self.next_id);
        let key = cmd.tag();
        let admit = self.window.admit(now, key);
        let probe = dev.probe().clone();
        // The device's own entry points join this scope, so SQ residency
        // and device spans land on one command record.
        let scope = probe.open_command(cmd.kind(), now);
        if admit > now {
            probe.span(Layer::Block, Cause::Queue, "sq", now, admit);
        }
        let (done, name, status) = match cmd {
            NamelessCmd::Write { tag } => match dev.write(admit, tag) {
                Ok(w) => (w.done, Some(w.name), w.status),
                Err(NamelessError::DeviceFull { at }) => (at, None, IoStatus::Rejected),
                Err(NamelessError::StaleName { .. }) => (admit, None, IoStatus::Rejected),
            },
            NamelessCmd::Read { name, tag } => match dev.read(admit, name, tag) {
                Ok((done, _lat, status)) => (done, Some(name), status),
                Err(_) => (admit, Some(name), IoStatus::Rejected),
            },
            NamelessCmd::Free { name, tag } => match dev.free(admit, name, tag) {
                Ok(done) => (done, Some(name), IoStatus::Ok),
                Err(_) => (admit, Some(name), IoStatus::Rejected),
            },
        };
        self.window.commit(admit, key, done);
        scope.close(done);
        self.cq.push(
            done,
            NamelessCqe {
                id,
                tag: key,
                name,
                submitted: now,
                done,
                status,
            },
        );
        id
    }

    /// Drain every completion ready at `now`, earliest-done first, onto
    /// the end of `out` — a buffer the caller keeps between polls.
    pub fn reap_into(&mut self, now: SimTime, out: &mut Vec<NamelessCqe>) {
        out.extend(std::iter::from_fn(|| self.cq.pop_ready(now)).map(|(_, c)| c));
    }

    /// Pop the earliest completion regardless of the clock.
    pub fn pop(&mut self) -> Option<NamelessCqe> {
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
    use crate::nameless::NamelessConfig;
    use requiem_ssd::SsdConfig;

    fn device() -> NamelessSsd {
        let mut base = SsdConfig::modern();
        base.buffer.capacity_pages = 0;
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        NamelessSsd::new(NamelessConfig::from(&base))
    }

    #[test]
    fn qd1_matches_serialized_path() {
        let mut a = device();
        let mut b = device();
        let mut qp = NamelessQueuePair::new(1);
        let mut t = SimTime::ZERO;
        let mut names = Vec::new();
        for tag in [5u64, 9, 5, 13] {
            let wa = a.write(t, tag).unwrap();
            qp.submit(&mut b, t, NamelessCmd::Write { tag });
            let wb = qp.pop().unwrap();
            assert_eq!(wa.done, wb.done);
            assert_eq!(Some(wa.name), wb.name);
            assert_eq!(wb.submitted, t);
            t = wa.done;
            names.push((tag, wa.name));
        }
        // reads too
        let (tag, name) = names[1];
        let (ra, _, _) = a.read(t, name, tag).unwrap();
        qp.submit(&mut b, t, NamelessCmd::Read { name, tag });
        let rb = qp.pop().unwrap();
        assert_eq!(ra, rb.done);
    }

    #[test]
    fn same_tag_completes_in_submission_order() {
        let mut dev = device();
        let mut qp = NamelessQueuePair::new(8);
        let t = SimTime::ZERO;
        let a = qp.submit(&mut dev, t, NamelessCmd::Write { tag: 7 });
        let b = qp.submit(&mut dev, t, NamelessCmd::Write { tag: 7 });
        let c1 = qp.pop().unwrap();
        let c2 = qp.pop().unwrap();
        assert_eq!(c1.id, a);
        assert_eq!(c2.id, b);
        assert!(c1.done <= c2.done);
    }

    #[test]
    fn queue_depth_overlaps_distinct_tags() {
        // 4 LUNs: QD4 writes of distinct tags beat the serialized chain.
        let mut serial = device();
        let mut t = SimTime::ZERO;
        for tag in 0..4u64 {
            t = serial.write(t, tag).unwrap().done;
        }
        let serial_done = t;

        let mut dev = device();
        let mut qp = NamelessQueuePair::new(4);
        for tag in 0..4u64 {
            qp.submit(&mut dev, SimTime::ZERO, NamelessCmd::Write { tag });
        }
        let mut last = SimTime::ZERO;
        while let Some(c) = qp.pop() {
            assert!(c.status.is_success());
            last = last.max(c.done);
        }
        assert!(
            last < serial_done,
            "QD4 nameless writes ({last}) should beat serialized ({serial_done})"
        );
    }

    #[test]
    fn stale_name_surfaces_as_rejected_completion() {
        let mut dev = device();
        let mut qp = NamelessQueuePair::new(4);
        let w = dev.write(SimTime::ZERO, 3).unwrap();
        let t = dev.free(w.done, w.name, 3).unwrap();
        // the name was freed: reading it must complete Rejected, not panic
        qp.submit(
            &mut dev,
            t,
            NamelessCmd::Read {
                name: w.name,
                tag: 3,
            },
        );
        let c = qp.pop().unwrap();
        assert_eq!(c.status, IoStatus::Rejected);
        assert_eq!(c.done, t, "a refusal charges no device time");
    }
}
