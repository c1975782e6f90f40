//! Wear leveling: the Figure-2 "Wear-leveling" box.
//!
//! * **Policy** — [`ThresholdWear`]: dynamic wear leveling (prefer the
//!   lowest-erase-count free block at allocation time) plus static wear
//!   leveling triggered when the erase-count spread across all blocks
//!   exceeds a threshold. A pure function over the
//!   [`BlockDirectory`](crate::block_dir::BlockDirectory) view.
//! * **Mechanism** — the `impl Ssd` block: the static migration itself
//!   and the salvage-and-retire path taken when a program fails on a
//!   worn-out block. Both reserve channel/LUN time tagged with
//!   [`Occupant::Wear`](requiem_sim::Occupant), so their interference
//!   with host traffic is attributed on the probe bus.

use requiem_sim::time::SimTime;

use crate::addr::LunId;
use crate::block_dir::BlockDirectory;
use crate::device::Ssd;
use crate::metrics::OpCause;

use super::WearPolicy;

/// Threshold-based wear leveling: dynamic allocation bias plus static
/// migration when `max_erase - min_erase` exceeds `static_threshold`
/// (0 disables static wear leveling).
#[derive(Debug, Clone)]
pub struct ThresholdWear {
    dynamic: bool,
    static_threshold: u32,
}

impl ThresholdWear {
    /// Policy with the given dynamic flag and static spread threshold.
    pub fn new(dynamic: bool, static_threshold: u32) -> Self {
        Self {
            dynamic,
            static_threshold,
        }
    }
}

impl WearPolicy for ThresholdWear {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn wear_aware_allocation(&self) -> bool {
        self.dynamic
    }

    fn should_migrate(&self, dir: &BlockDirectory) -> bool {
        if self.static_threshold == 0 {
            return false;
        }
        let (min, max, _) = dir.erase_count_spread();
        max - min > self.static_threshold
    }

    fn pick_migration(&self, dir: &BlockDirectory, lun: LunId) -> Option<u32> {
        dir.coldest_full_block(lun)
    }
}

impl Ssd {
    /// Static wear leveling: migrate the coldest full block so its low-wear
    /// block re-enters circulation.
    pub(crate) fn static_wear_level(&mut self, lun: LunId, t: SimTime) {
        let Some(victim) = self.wear_policy.pick_migration(&self.dir, lun) else {
            return;
        };
        let _bg = self.sched.probe.background();
        if self
            .relocate_live_pages(lun, victim, t, OpCause::WearLevel, false)
            .is_err()
        {
            return; // out of space: leave the block as-is
        }
        // a refused erase (protocol violation) aborts the migration; the
        // block simply stays in place with its pages already relocated
        let _ = self.op_erase(t, lun, victim, OpCause::WearLevel);
    }

    /// A program failed on a worn-out block: retire the block and move its
    /// live pages somewhere safe.
    pub(crate) fn salvage_and_retire(
        &mut self,
        lun: LunId,
        addr: requiem_flash::PageAddr,
        t: SimTime,
    ) {
        let _bg = self.sched.probe.background();
        let geom = &self.cfg.flash.geometry;
        let block_idx = geom.block_index(geom.block_of(addr));
        // retire FIRST: the block leaves the free pool and loses any
        // frontier pointing at it, so the salvage relocations below (and
        // their own retries) can never target it again — a program
        // failure inside the salvage of the same block would otherwise
        // recurse with stale locations
        self.metrics.blocks_retired += 1;
        self.dir.retire(lun, block_idx);
        // on failure a page stays live on the retired block: still
        // readable through the mapping, never allocatable again
        let _ = self.relocate_live_pages(lun, block_idx, t, OpCause::WearLevel, true);
    }
}
