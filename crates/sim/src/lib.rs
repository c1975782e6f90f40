//! # requiem-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other `requiem` crate builds on. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock in integer nanoseconds.
//!   All timing in the simulated I/O stack is expressed in these units, so a
//!   whole experiment is reproducible to the nanosecond.
//! * [`Resource`] — a *serial* resource timeline (a LUN, a CPU core, a
//!   submission-queue lock). Operations reserve an interval on the
//!   timeline; the resource hands back the earliest feasible start in FIFO
//!   order and tracks utilization. [`TransferTimeline`] is the same for a
//!   shared bus (a flash channel, a host link), where a transfer takes the
//!   first idle gap it fits.
//! * [`QueuePair`] — the one submission/completion queue pair every
//!   device is driven through at depth: a bounded in-flight window, a
//!   completion queue reaped in device order, the tag counter, refusals
//!   as completions; [`cmd`] — the command, request and completion types
//!   it carries; [`CoreClock`] — the round-robin clock that interleaves
//!   executor shards.
//! * [`probe`] — the span bus: every layer reports where a command's time
//!   went as `(layer, cause)` spans that tile its latency.
//! * [`fault`] — seeded fault plans and the typed [`IoStatus`] they end as.
//! * [`stats`] — latency histograms with percentile extraction, counters,
//!   and time-weighted gauges.
//! * [`SimRng`] — a seedable, splittable random-number source so that every
//!   component can derive an independent stream from one experiment seed.
//! * [`table`] — GitHub-flavoured markdown table construction for experiment
//!   reports.
//!
//! ## Why a timeline model?
//!
//! The devices simulated in this workspace (flash chips, channels, PCM
//! lines, CPU cores) are all *serial* resources with deterministic service
//! times. For such systems, reserving intervals on per-resource timelines is
//! equivalent to a full event-driven simulation but is simpler, faster, and
//! allocation-free on the hot path. Reactive behaviour (threshold-triggered
//! garbage collection, checkpoints) is decided inline, at the operation
//! that crosses the threshold, and reserved on the same timelines; there is
//! no event queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmd;
pub mod completion;
pub mod coreclock;
pub mod fault;
pub mod probe;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use cmd::{CommandId, IoClass, IoCompletion, IoOp, IoRequest};
pub use completion::{InflightWindow, QueuePair};
pub use coreclock::CoreClock;
pub use fault::{FaultPlan, FaultView, IoStatus};
pub use probe::{
    BackgroundGuard, Cause, CommandScope, CommandsRef, EventsRef, Layer, Probe, ProbeSummary,
    ResourceStat, SpanBatch, SpanEvent,
};
pub use resource::{Occupant, Resource, ResourceBank, TransferTimeline};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, Summary};
pub use table::Table;
pub use time::{SimDuration, SimTime};
