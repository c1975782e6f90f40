//! Garbage collection: the Figure-2 "Garbage collection" box.
//!
//! *When* a LUN is collected and *which* block is the victim are
//! [`GcConfig`](crate::config::GcConfig)'s `free_block_threshold` and
//! `policy`, the latter carried out by
//! the block directory's `pick_victim`
//! (greedy: fewest valid pages; cost-benefit: the LFS cleaner's
//! `age * (1 - u) / 2u`). The `impl Ssd` block below is the mechanism:
//! the relocation loop (each live page moved by on-die copyback), the
//! DFTL translation write-back batching, the erase, and read-disturb
//! scrubbing. It reserves channel/LUN time tagged
//! with [`Occupant::Gc`](requiem_sim::Occupant), which is how GC
//! interference with host reads (myth 3) shows up in the probe bus
//! without being explicitly programmed in.
//!
//! Re-entrancy is guarded by the typed [`GcGate`]/[`GcToken`] pair: a
//! GC-internal allocation that runs dry spills to other LUNs instead of
//! recursing into a nested collection. The token's `Drop` releases the
//! gate, so no code path can forget to clear it.

use std::cell::Cell;
use std::rc::Rc;

use requiem_sim::time::SimTime;

use crate::addr::{Lpn, LunId, PhysPage};
use crate::block_dir::Stream;
use crate::device::{MappingState, Ssd, SsdError};
use crate::mapping::dftl::{TransIo, TransIoKind};
use crate::metrics::OpCause;

// ----------------------------------------------------------------------
// re-entrancy gate
// ----------------------------------------------------------------------

/// Shared flag guarding against nested garbage collection. Cloned into
/// every code path that may trigger GC; [`try_enter`](GcGate::try_enter)
/// hands out at most one live [`GcToken`] at a time.
#[derive(Debug, Clone, Default)]
pub struct GcGate {
    active: Rc<Cell<bool>>,
}

impl GcGate {
    /// A fresh, open gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire the gate. `None` when a collection is already running —
    /// the caller must spill (allocate elsewhere) rather than recurse.
    pub fn try_enter(&self) -> Option<GcToken> {
        if self.active.get() {
            None
        } else {
            self.active.set(true);
            Some(GcToken {
                gate: self.active.clone(),
            })
        }
    }

    /// Whether a collection is currently running.
    pub fn is_active(&self) -> bool {
        self.active.get()
    }
}

/// Proof of exclusive GC entry. Releases the [`GcGate`] on drop, so early
/// returns and error paths cannot leave the gate wedged shut.
#[derive(Debug)]
pub struct GcToken {
    gate: Rc<Cell<bool>>,
}

impl Drop for GcToken {
    fn drop(&mut self) {
        self.gate.set(false);
    }
}

// ----------------------------------------------------------------------
// mechanism
// ----------------------------------------------------------------------

impl Ssd {
    /// Run GC on `lun` until it has breathing room (page maps only — the
    /// device's or the host's).
    pub(crate) fn maybe_gc(&mut self, lun: LunId, t: SimTime) {
        if matches!(self.map, MappingState::Block(_) | MappingState::Hybrid(_)) {
            return;
        }
        let Some(token) = self.gc_gate.try_enter() else {
            // no recursive GC; inner allocations spill to other LUNs
            self.metrics.gc_reentries_blocked += 1;
            return;
        };
        {
            let _bg = self.sched.probe.background();
            let mut guard = self.cfg.flash.geometry.total_blocks();
            while self.dir.free_blocks(lun) <= self.cfg.gc.free_block_threshold && guard > 0 {
                guard -= 1;
                let Some(victim) = self.dir.pick_victim(lun, self.cfg.gc.policy) else {
                    break;
                };
                if self.gc_collect(lun, victim, t).is_err() {
                    // relocation space exhausted (worn-out device): stop —
                    // the caller's allocation will surface DeviceFull
                    break;
                }
            }
        }
        drop(token);
        if self.wear_spread_exceeds_threshold() {
            self.static_wear_level(lun, t);
        }
    }

    /// Relocate all live pages of `victim` and erase it. On relocation
    /// failure (worn-out device) the victim keeps its remaining live pages
    /// and is NOT erased — data stays readable, writes will report full.
    pub(crate) fn gc_collect(
        &mut self,
        lun: LunId,
        victim: u32,
        t: SimTime,
    ) -> Result<(), SsdError> {
        self.metrics.gc_runs += 1;
        self.relocate_live_pages(lun, victim, t, OpCause::Gc, false)?;
        // DFTL: one batched translation write-back per collected block
        if let MappingState::Dftl(_) = self.map {
            let ios = [TransIo {
                lun,
                kind: TransIoKind::Write,
            }];
            self.exec_trans(t, &ios);
        }
        self.op_erase(t, lun, victim, OpCause::Gc)?;
        Ok(())
    }

    /// Move every live page of `block` elsewhere, in page order. The
    /// first failure ends the walk and is returned, unless `keep_going`:
    /// then failures are skipped (the page stays where it is) and the
    /// walk always finishes.
    pub(crate) fn relocate_live_pages(
        &mut self,
        lun: LunId,
        block: u32,
        t: SimTime,
        cause: OpCause,
        keep_going: bool,
    ) -> Result<(), SsdError> {
        // the list is taken for the walk: a program failure inside it
        // salvages another block through this same function
        let mut live = std::mem::take(&mut self.live_scratch);
        self.dir.live_pages_into(&self.luns, lun, block, &mut live);
        let mut outcome = Ok(());
        for &(addr, lpn) in &live {
            let moved = self.relocate_page(PhysPage { lun, addr }, lpn, t, cause);
            if moved.is_err() && !keep_going {
                outcome = moved;
                break;
            }
        }
        self.live_scratch = live;
        outcome
    }

    /// Move one live page elsewhere (GC / wear leveling / salvage).
    /// Fails only when no LUN can host the page (worn-out device); the
    /// source page is left untouched in that case.
    pub(crate) fn relocate_page(
        &mut self,
        old: PhysPage,
        lpn: Lpn,
        t: SimTime,
        cause: OpCause,
    ) -> Result<(), SsdError> {
        // on-die copyback: the page is sensed and reprogrammed without
        // crossing the channel. `lpn` is what the page's out-of-band
        // record names (the live list reads it there); a read the whole
        // recovery pipeline failed to decode relocates from assumed
        // redundancy all the same
        let read = self.op_read(t, old, false, cause)?;
        let (new, _end) = self.append_page(read.end, old.lun, Stream::Gc, lpn, false, cause)?;
        let prev = self.remap(lpn, old, new, t);
        debug_assert_eq!(
            prev,
            Some(old),
            "relocated {lpn:?} off a page its map did not name"
        );
        self.metrics.gc_pages_moved += 1;
        Ok(())
    }

    /// Read-disturb scrubbing: if the block holding `phys` has absorbed
    /// more reads than the configured threshold since its last erase,
    /// relocate its live pages and erase it (page maps only).
    pub(crate) fn maybe_scrub(&mut self, phys: PhysPage, t: SimTime) {
        let threshold = self.cfg.scrub_after_reads;
        if threshold == 0 || matches!(self.map, MappingState::Block(_) | MappingState::Hybrid(_)) {
            return;
        }
        if self.gc_gate.is_active() {
            return;
        }
        let geom = &self.cfg.flash.geometry;
        let baddr = geom.block_of(phys.addr);
        let reads = self.luns[phys.lun.0 as usize]
            .block_state(baddr)
            .reads_since_erase;
        if reads < threshold {
            return;
        }
        let block_idx = geom.block_index(baddr);
        // never scrub an open frontier; it will be erased soon anyway
        if self.dir.block_info(phys.lun, block_idx).state != crate::block_dir::BlockUse::Full {
            return;
        }
        let Some(token) = self.gc_gate.try_enter() else {
            return;
        };
        self.metrics.scrubs += 1;
        {
            let _bg = self.sched.probe.background();
            let _ = self.gc_collect(phys.lun, block_idx, t);
        }
        drop(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_hands_out_one_token() {
        let gate = GcGate::new();
        assert!(!gate.is_active());
        let token = gate.try_enter().expect("gate open");
        assert!(gate.is_active());
        assert!(gate.try_enter().is_none(), "nested entry must be refused");
        drop(token);
        assert!(!gate.is_active());
        assert!(gate.try_enter().is_some(), "gate reusable after drop");
    }

    #[test]
    fn token_drop_releases_on_early_return() {
        let gate = GcGate::new();
        fn inner(gate: &GcGate) -> Option<()> {
            let _token = gate.try_enter()?;
            None // early bail; token must still release
        }
        assert!(inner(&gate).is_none());
        assert!(!gate.is_active());
    }
}
