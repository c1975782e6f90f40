//! The controller policy architecture: the paper's Figure 2, one module
//! per box.
//!
//! The original `device.rs` monolith owned every controller decision
//! inline. This module tree splits *policy* (pure decision functions over
//! read-only views of the controller state) from *mechanism* (the
//! resource-timed flash operations, which stay with [`crate::Ssd`] but
//! live in the submodule matching their Figure-2 box):
//!
//! | Figure 2 box                    | Module                    | Policy trait / type |
//! |---------------------------------|---------------------------|---------------------|
//! | Scheduling (channels, chips)    | [`scheduler`]             | [`Scheduler`]       |
//! | Garbage collection              | [`gc`]                    | [`GcPolicy`]        |
//! | Wear leveling                   | [`wear`]                  | [`WearPolicy`]      |
//! | RAM buffer (battery-backed)     | [`write_buffer`]          | [`WriteBufferPolicy`] |
//! | Mapping (block-mapped FTL)      | [`block_ftl`]             | —                   |
//! | Mapping (hybrid log-block FTL)  | [`hybrid_ftl`]            | —                   |
//! | Boot / recovery                 | [`rebuild`]               | —                   |
//!
//! Policies are constructed from [`SsdConfig`](crate::SsdConfig) by the
//! factory functions below, so an experiment selects e.g. cost-benefit GC
//! by flipping [`GcPolicyKind`](crate::config::GcPolicyKind) — no code
//! change, and custom implementations of the traits can be dropped in by
//! code that builds a device manually.

pub mod block_ftl;
pub mod gc;
pub mod hybrid_ftl;
pub mod rebuild;
pub mod scheduler;
pub mod wear;
pub mod write_buffer;

pub use gc::{CostBenefitGc, GcGate, GcToken, GreedyGc};
pub use scheduler::{LunRotation, Scheduler};
pub use wear::ThresholdWear;
pub use write_buffer::WriteThrough;

use crate::addr::LunId;
use crate::block_dir::BlockDirectory;
use crate::config::{BufferConfig, GcConfig, GcPolicyKind, WlConfig};
use requiem_sim::time::SimTime;

/// Garbage-collection policy: *when* to collect a LUN and *which* block
/// to collect. Implementations are pure decision functions over the
/// [`BlockDirectory`]; the relocation/erase mechanism stays with the
/// device (see [`gc`]).
pub trait GcPolicy {
    /// Policy name (reports, debugging).
    fn name(&self) -> &'static str;
    /// Whether `lun` is low enough on free blocks to warrant collection.
    fn should_collect(&self, dir: &BlockDirectory, lun: LunId) -> bool;
    /// The victim block to collect on `lun`, if any is worth collecting.
    fn pick_victim(&self, dir: &BlockDirectory, lun: LunId) -> Option<u32>;
}

/// Wear-leveling policy: how allocation avoids worn blocks (dynamic) and
/// when/what to migrate to even out wear (static).
pub trait WearPolicy {
    /// Policy name (reports, debugging).
    fn name(&self) -> &'static str;
    /// Prefer the lowest-erase-count free block at allocation time.
    fn wear_aware_allocation(&self) -> bool;
    /// Whether the current erase-count spread warrants a static migration.
    fn should_migrate(&self, dir: &BlockDirectory) -> bool;
    /// Source block for a static migration on `lun`.
    fn pick_migration(&self, dir: &BlockDirectory, lun: LunId) -> Option<u32>;
}

/// Write-buffer policy: what happens between a host write's arrival at
/// the controller and its acknowledgement. The battery-backed buffer
/// (§2.3.2) acknowledges on buffer admission; [`WriteThrough`]
/// acknowledges only when the flash program finishes.
pub trait WriteBufferPolicy: std::fmt::Debug {
    /// Policy name (reports, debugging).
    fn name(&self) -> &'static str;
    /// Whether writes complete from buffer RAM (false = write-through).
    fn enabled(&self) -> bool;
    /// Admission instant for a write arriving at `now` (later than `now`
    /// when every slot is mid-flush).
    fn acquire(&mut self, now: SimTime) -> SimTime;
    /// Record that `lpn` occupies a slot until its flush finishes at `done`.
    fn commit(&mut self, lpn: u64, done: SimTime);
    /// Whether a read of `lpn` at `now` is served from buffer RAM.
    fn read_hit(&mut self, lpn: u64, now: SimTime) -> bool;
    /// Drop residency for `lpn` (trim).
    fn discard(&mut self, lpn: u64);
    /// Reads served from the buffer so far.
    fn read_hits(&self) -> u64;
    /// Writes that had to wait for a slot so far.
    fn stalls(&self) -> u64;
}

/// Instantiate the [`GcPolicy`] a configuration asks for.
pub fn gc_policy_from(cfg: &GcConfig) -> Box<dyn GcPolicy> {
    match cfg.policy {
        GcPolicyKind::Greedy => Box::new(GreedyGc::new(cfg.free_block_threshold)),
        GcPolicyKind::CostBenefit => Box::new(CostBenefitGc::new(cfg.free_block_threshold)),
    }
}

/// Instantiate the [`WearPolicy`] a configuration asks for.
pub fn wear_policy_from(cfg: &WlConfig) -> Box<dyn WearPolicy> {
    Box::new(ThresholdWear::new(cfg.dynamic, cfg.static_threshold))
}

/// Instantiate the [`WriteBufferPolicy`] a configuration asks for
/// (capacity 0 = write-through).
pub fn buffer_policy_from(cfg: &BufferConfig) -> Box<dyn WriteBufferPolicy> {
    if cfg.capacity_pages == 0 {
        Box::new(WriteThrough)
    } else {
        Box::new(crate::buffer::WriteBuffer::new(cfg.capacity_pages as usize))
    }
}
