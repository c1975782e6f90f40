//! The typed host-command vocabulary shared by every layer of the stack.
//!
//! The seed repo drove devices through positional `submit(now, op, lba)`
//! calls that returned a bare completion instant — one command at a time,
//! caller chained on each completion. The queue-pair engine (blk-mq /
//! NVMe style: per-core submission queues, a device-side in-flight
//! window, out-of-order completion queues) needs commands that carry
//! their identity with them instead:
//!
//! * [`IoRequest`] — what the host asks for: an operation, an address, a
//!   traffic class, and a host-chosen [`CommandId`] tag;
//! * [`IoCompletion`] — what comes back, possibly out of submission
//!   order: the tag, the completion instant, and how many probe spans
//!   were attributed to the command on the observability bus.
//!
//! These types live in `requiem-sim` (not the block layer) because the
//! SSD crate tracks in-flight commands by tag while the block crate sits
//! *above* the SSD crate — the vocabulary must be below both.

use crate::fault::IoStatus;
use crate::time::{SimDuration, SimTime};

/// Host-assigned identity of one in-flight command. `CommandId(0)` means
/// "unassigned": a [`QueuePair`](crate::QueuePair) replaces it with the
/// next tag of its counter at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CommandId(pub u64);

impl CommandId {
    /// The "unassigned" tag.
    pub const UNASSIGNED: CommandId = CommandId(0);

    /// Whether this tag is still unassigned.
    pub fn is_unassigned(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for CommandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd{}", self.0)
    }
}

/// Operation kind of a host command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    /// Read one logical page/sector.
    Read,
    /// Write one logical page/sector.
    Write,
    /// Declare one logical page dead (the first beyond-block command).
    Trim,
}

impl IoOp {
    /// Stable lowercase name (probe command kinds, JSON keys).
    pub fn as_str(self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Trim => "trim",
        }
    }
}

/// Traffic class of a command — who is waiting on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoClass {
    /// Someone blocks on this completion (commit log force, demand read,
    /// steal write).
    Foreground,
    /// Nobody waits (write-back, checkpoint, prefetch); latency is
    /// irrelevant, throughput is not.
    Background,
}

impl IoClass {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            IoClass::Foreground => "foreground",
            IoClass::Background => "background",
        }
    }
}

/// One typed host command: the submission half of the queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Operation kind.
    pub op: IoOp,
    /// Logical address (page/sector).
    pub lba: u64,
    /// Traffic class.
    pub class: IoClass,
    /// Host tag echoed in the matching [`IoCompletion`].
    pub tag: CommandId,
}

impl IoRequest {
    /// A foreground command of kind `op` on `lba` (tag unassigned).
    pub fn new(op: IoOp, lba: u64) -> Self {
        IoRequest {
            op,
            lba,
            class: IoClass::Foreground,
            tag: CommandId::UNASSIGNED,
        }
    }

    /// A foreground read of `lba` (tag unassigned).
    pub fn read(lba: u64) -> Self {
        IoRequest {
            op: IoOp::Read,
            lba,
            class: IoClass::Foreground,
            tag: CommandId::UNASSIGNED,
        }
    }

    /// A foreground write of `lba` (tag unassigned).
    pub fn write(lba: u64) -> Self {
        IoRequest {
            op: IoOp::Write,
            lba,
            class: IoClass::Foreground,
            tag: CommandId::UNASSIGNED,
        }
    }

    /// A trim of `lba` (tag unassigned).
    pub fn trim(lba: u64) -> Self {
        IoRequest {
            op: IoOp::Trim,
            lba,
            class: IoClass::Foreground,
            tag: CommandId::UNASSIGNED,
        }
    }

    /// Set the traffic class.
    pub fn class(mut self, class: IoClass) -> Self {
        self.class = class;
        self
    }

    /// Set the host tag.
    pub fn tag(mut self, tag: CommandId) -> Self {
        self.tag = tag;
        self
    }
}

/// The completion half of the queue pair. Completions are delivered in
/// *device* order (earliest `done` first), which is generally not
/// submission order — the whole point of queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// The tag of the completed command.
    pub tag: CommandId,
    /// Operation kind (echoed).
    pub op: IoOp,
    /// Logical address (echoed).
    pub lba: u64,
    /// Instant the command entered the submission queue.
    pub submitted: SimTime,
    /// Instant the command completed.
    pub done: SimTime,
    /// Probe spans attributed to this command on the observability bus
    /// so far (0 when no probe is attached). Under the span-tiling
    /// invariant these spans cover `[submitted, done)` exactly.
    pub spans: u32,
    /// How the command fared: clean, recovered, unrecoverable, or
    /// rejected. Infallible paths report [`IoStatus::Ok`].
    pub status: IoStatus,
}

impl IoCompletion {
    /// `req`, submitted at `submitted`, refused by the device at `at`
    /// (address out of range, worn-out device, protocol violation): no
    /// probe span is attributed to it.
    pub fn rejected(req: IoRequest, submitted: SimTime, at: SimTime) -> Self {
        IoCompletion {
            tag: req.tag,
            op: req.op,
            lba: req.lba,
            submitted,
            done: at,
            spans: 0,
            status: IoStatus::Rejected,
        }
    }

    /// End-to-end latency, including submission-queue wait.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let r = IoRequest::read(7)
            .class(IoClass::Background)
            .tag(CommandId(3));
        assert_eq!(r.op, IoOp::Read);
        assert_eq!(r.lba, 7);
        assert_eq!(r.class, IoClass::Background);
        assert_eq!(r.tag, CommandId(3));
        assert!(IoRequest::write(0).tag.is_unassigned());
        assert_eq!(IoOp::Trim.as_str(), "trim");
        assert_eq!(IoClass::Foreground.as_str(), "foreground");
        assert_eq!(format!("{}", CommandId(9)), "cmd9");
    }

    #[test]
    fn completion_latency() {
        let c = IoCompletion {
            tag: CommandId(1),
            op: IoOp::Write,
            lba: 0,
            submitted: SimTime::from_micros(10),
            done: SimTime::from_micros(35),
            spans: 2,
            status: IoStatus::Ok,
        };
        assert_eq!(c.latency(), SimDuration::from_micros(25));
    }
}
