//! # requiem-block — the OS block layer, modelled
//!
//! §2.2 of the paper describes the block layer as *"a simple memory
//! abstraction … a flat address space, quantized in logical blocks of
//! fixed size, on which I/O requests are submitted"*, and then lists the
//! work the Linux community had to do once SSDs arrived: *"CPU overhead
//! has been reduced — it was acceptable on disk to reduce seeks — lock
//! contention has been reduced, completions are dispatched on the core
//! that submitted the request, and currently the management of multiple IO
//! queues for each device is under implementation."*
//!
//! This crate models exactly those knobs so experiment E9 can measure
//! them:
//!
//! * [`cpu::CpuCosts`] — per-stage CPU costs of the submission and
//!   completion paths (syscall, queue handling, doorbell, IRQ, context
//!   switch), with disk-era and streamlined presets.
//! * [`stack::IoStack`] — cores × queues × completion-mode composition:
//!   single shared queue vs per-core queues (blk-mq), interrupt vs
//!   polling completions.
//! * [`disk.rs`](disk) — a magnetic disk backend (seek + rotation +
//!   transfer), the device whose 10 ms latencies made block-layer
//!   overhead invisible — and made seek-reducing schedulers worth their
//!   CPU cost.
//! * [`backend::StorageBackend`] — the abstraction that lets the same
//!   stack drive a disk, a flash SSD, or a PCM SSD.

#![warn(missing_docs)]

pub mod backend;
pub mod cpu;
pub mod disk;
pub mod stack;

pub use backend::{
    BackendOp, CommandId, IoClass, IoCompletion, IoRequest, NullDevice, StorageBackend,
};
pub use cpu::CpuCosts;
pub use disk::{Disk, DiskConfig};
pub use stack::{
    CompletionMode, IoStack, QueueMode, Reaped, StackCompletion, StackConfig, StackReport,
    DEFAULT_INFLIGHT_WINDOW,
};
