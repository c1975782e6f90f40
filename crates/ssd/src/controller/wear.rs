//! Wear leveling: the Figure-2 "Wear-leveling" box.
//!
//! Dynamic wear leveling is always on: the block directory allocates the
//! lowest-erase-count free block. Static wear leveling is
//! [`WlConfig`](crate::config::WlConfig)'s one setting: a non-zero
//! `static_threshold` migrates the coldest full block whenever the
//! erase-count spread across all blocks exceeds it. The `impl Ssd` block
//! is that trigger, the static migration itself, and the
//! salvage-and-retire path taken when a program fails on a worn-out
//! block. Both reserve channel/LUN time tagged with
//! [`Occupant::Wear`](requiem_sim::Occupant), so their interference with
//! host traffic is attributed on the probe bus.

use requiem_sim::time::SimTime;

use crate::addr::LunId;
use crate::device::{MapEvent, Ssd};
use crate::metrics::OpCause;

impl Ssd {
    /// Whether the erase-count spread warrants a static migration
    /// (threshold 0 disables static wear leveling).
    pub(crate) fn wear_spread_exceeds_threshold(&self) -> bool {
        let threshold = self.cfg.wl.static_threshold;
        if threshold == 0 {
            return false;
        }
        let (min, max, _) = self.wear_spread();
        max - min > threshold
    }

    /// Static wear leveling: migrate the coldest full block so its low-wear
    /// block re-enters circulation.
    pub(crate) fn static_wear_level(&mut self, lun: LunId, t: SimTime) {
        let Some(victim) = self.dir.coldest_full_block(lun) else {
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
        self.tell_host(MapEvent::Retired { at: t });
        // on failure a page stays live on the retired block: still
        // readable through the mapping, never allocatable again
        let _ = self.relocate_live_pages(lun, block_idx, t, OpCause::WearLevel, true);
    }
}
