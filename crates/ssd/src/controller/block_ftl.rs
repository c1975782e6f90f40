//! The block-mapped FTL: the classic pre-2009 "Mapping" box of Figure 2.
//!
//! One mapping entry per *logical block*; pages must land at their
//! in-block offset. Sequential overwrites stay cheap through a single
//! replacement-block context (`ReplCtx`); random rewrites degenerate
//! into merge storms — exactly the behaviour the paper's §2.3.1 myth
//! ("flash is slow at random writes") is built on. Merge traffic reserves
//! channel/LUN time tagged [`Occupant::Merge`](requiem_sim::Occupant),
//! so host commands queued behind a merge see `MergeStall` wait spans on
//! the probe bus.

use requiem_sim::time::SimTime;

use crate::addr::{Lpn, LunId, PhysPage};
use crate::config::Placement;
use crate::device::{MappingState, Ssd, SsdError};
use crate::mapping::block::PhysBlockRef;
use crate::metrics::OpCause;

/// Replacement-block context for the block-mapped FTL: the classic
/// pre-2009 scheme that keeps sequential overwrites cheap. A rewrite below
/// the data block's write point opens a replacement block; in-order
/// follow-up writes append into it; touching another logical block (or
/// going backwards) finalizes the replacement (copy the tail, erase the
/// old block, switch the mapping).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplCtx {
    pub(crate) lbn: u64,
    pub(crate) old: PhysBlockRef,
    pub(crate) new: PhysBlockRef,
    pub(crate) copies: u32,
}

impl Ssd {
    pub(crate) fn block_phys(&self, pb: PhysBlockRef, page: u32) -> PhysPage {
        let baddr = self.cfg.flash.geometry.block_from_index(pb.block);
        PhysPage {
            lun: pb.lun,
            addr: self
                .cfg
                .flash
                .geometry
                .page_addr(baddr.plane, baddr.block, page),
        }
    }

    pub(crate) fn place_lun_for_block(&mut self, lbn: u64, t: SimTime) -> LunId {
        match self.cfg.placement {
            Placement::StaticByLpn => LunId((lbn % self.total_luns() as u64) as u32),
            _ => self.place_lun(Lpn(lbn), t),
        }
    }

    pub(crate) fn alloc_block_on(&mut self, lun: LunId, t: SimTime) -> Result<u32, SsdError> {
        self.dir
            .alloc_block(lun)
            .ok_or(SsdError::DeviceFull { lun, at: t })
    }

    /// Copy live pages of `old` at offsets `[from, to)` into the same
    /// offsets of `new` (replacement catch-up), by on-die copyback.
    pub(crate) fn repl_copy_range(
        &mut self,
        t: SimTime,
        old: PhysBlockRef,
        new: PhysBlockRef,
        from: u32,
        to: u32,
    ) -> Result<u32, SsdError> {
        let _bg = self.sched.probe.background();
        let mut copied = 0u32;
        let mut cursor = t;
        for o in from..to {
            let src = self.block_phys(old, o);
            let Some(lpn_o) = self.dir.backptr(src) else {
                continue; // gap: C3 permits skipping ahead
            };
            let read = self.op_read(cursor, src, false, OpCause::Merge)?;
            let dst = self.block_phys(new, o);
            let end = self
                .op_program(read.end, dst, lpn_o, false, OpCause::Merge)
                .map_err(|e| e.full_on(new.lun))?;
            self.dir.invalidate(src);
            self.dir.mark_valid(dst, lpn_o);
            cursor = end;
            copied += 1;
        }
        Ok(copied)
    }

    /// Close the open replacement block: copy the remaining tail, erase
    /// the old block, switch the mapping.
    pub(crate) fn finalize_replacement(&mut self, t: SimTime) -> Result<(), SsdError> {
        let Some(ctx) = self.repl.take() else {
            return Ok(());
        };
        let _bg = self.sched.probe.background();
        let ppb = self.ppb();
        let baddr = self.cfg.flash.geometry.block_from_index(ctx.new.block);
        let wp_new = self.luns[ctx.new.lun.0 as usize]
            .block_state(baddr)
            .write_point;
        let tail = self.repl_copy_range(t, ctx.old, ctx.new, wp_new, ppb)?;
        // anything still marked live in the old block is stale now
        let stale = self.dir.live_pages(ctx.old.lun, ctx.old.block);
        for (a, _) in stale {
            self.dir.invalidate(PhysPage {
                lun: ctx.old.lun,
                addr: a,
            });
        }
        self.op_erase(t, ctx.old.lun, ctx.old.block, OpCause::Merge)?;
        match &mut self.map {
            MappingState::Block(m) => {
                m.update(ctx.lbn, ctx.new);
            }
            _ => unreachable!("replacement blocks exist only under block mapping"),
        }
        if ctx.copies + tail == 0 {
            self.metrics.merges_switch += 1;
        } else {
            self.metrics.merges_full += 1;
        }
        Ok(())
    }

    pub(crate) fn write_block_mapped(
        &mut self,
        t0: SimTime,
        lpn: Lpn,
    ) -> Result<SimTime, SsdError> {
        let ppb = self.ppb() as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        // an open replacement block for this logical block?
        if let Some(ctx) = self.repl {
            if ctx.lbn == lbn {
                let baddr = self.cfg.flash.geometry.block_from_index(ctx.new.block);
                let wp_new = self.luns[ctx.new.lun.0 as usize]
                    .block_state(baddr)
                    .write_point;
                if off >= wp_new {
                    // in-order continuation: catch up the gap, then append
                    let copied = self.repl_copy_range(t0, ctx.old, ctx.new, wp_new, off)?;
                    if let Some(c) = self.repl.as_mut() {
                        c.copies += copied;
                    }
                    self.dir
                        .invalidate_checked(self.block_phys(ctx.old, off), lpn);
                    let phys = self.block_phys(ctx.new, off);
                    let end = self
                        .op_program(t0, phys, lpn, true, OpCause::Host)
                        .map_err(|e| e.full_on(ctx.new.lun))?;
                    self.dir.mark_valid(phys, lpn);
                    return Ok(end);
                }
                // going backwards: close this replacement and start over
                self.finalize_replacement(t0)?;
            }
        }
        let cur = match &self.map {
            MappingState::Block(m) => m.lookup(lbn),
            _ => unreachable!(),
        };
        match cur {
            None => {
                let lun = self.place_lun_for_block(lbn, t0);
                let block = self.alloc_block_on(lun, t0)?;
                let pb = PhysBlockRef { lun, block };
                let phys = self.block_phys(pb, off);
                let end = self
                    .op_program(t0, phys, lpn, true, OpCause::Host)
                    .map_err(|e| e.full_on(lun))?;
                if let MappingState::Block(m) = &mut self.map {
                    m.update(lbn, pb);
                }
                self.dir.mark_valid(phys, lpn);
                Ok(end)
            }
            Some(pb) => {
                let baddr = self.cfg.flash.geometry.block_from_index(pb.block);
                let wp = self.luns[pb.lun.0 as usize].block_state(baddr).write_point;
                if off >= wp {
                    // in-order append (C3 allows gaps upward)
                    let phys = self.block_phys(pb, off);
                    let end = self
                        .op_program(t0, phys, lpn, true, OpCause::Host)
                        .map_err(|e| e.full_on(pb.lun))?;
                    self.dir.mark_valid(phys, lpn);
                    Ok(end)
                } else {
                    // rewrite below the write point: open a replacement
                    // block (finalizing any replacement held by another
                    // logical block first — the single-context limit that
                    // makes *random* rewrites a merge storm)
                    if self.repl.is_some() {
                        self.finalize_replacement(t0)?;
                    }
                    let lun = pb.lun;
                    let newb = self.alloc_block_on(lun, t0)?;
                    let newpb = PhysBlockRef { lun, block: newb };
                    let copied = self.repl_copy_range(t0, pb, newpb, 0, off)?;
                    self.repl = Some(ReplCtx {
                        lbn,
                        old: pb,
                        new: newpb,
                        copies: copied,
                    });
                    self.dir.invalidate_checked(self.block_phys(pb, off), lpn);
                    let phys = self.block_phys(newpb, off);
                    let end = self
                        .op_program(t0, phys, lpn, true, OpCause::Host)
                        .map_err(|e| e.full_on(lun))?;
                    self.dir.mark_valid(phys, lpn);
                    Ok(end)
                }
            }
        }
    }

    /// Resolve the physical location of `lpn` under block mapping: the
    /// open replacement block (if it belongs to this logical block) wins
    /// over the mapped data block; back-pointers arbitrate staleness.
    pub(crate) fn resolve_read_block(&self, lpn: Lpn) -> Option<PhysPage> {
        let MappingState::Block(m) = &self.map else {
            unreachable!()
        };
        let ppb = self.cfg.flash.geometry.pages_per_block as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        // candidate blocks: the open replacement (if it is this
        // logical block's), then the mapped data block
        let mut candidates: Vec<PhysBlockRef> = Vec::with_capacity(2);
        if let Some(ctx) = &self.repl {
            if ctx.lbn == lbn {
                candidates.push(ctx.new);
            }
        }
        if let Some(pb) = m.lookup(lbn) {
            candidates.push(pb);
        }
        candidates
            .into_iter()
            .map(|pb| self.block_phys(pb, off))
            .find(|&phys| self.dir.backptr(phys) == Some(lpn))
    }

    /// Trim under block mapping: kill whichever candidate holds `lpn`.
    pub(crate) fn trim_block(&mut self, lpn: Lpn) {
        let MappingState::Block(m) = &self.map else {
            unreachable!()
        };
        let ppb = self.cfg.flash.geometry.pages_per_block as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        let mut candidates: Vec<PhysBlockRef> = Vec::with_capacity(2);
        if let Some(ctx) = &self.repl {
            if ctx.lbn == lbn {
                candidates.push(ctx.new);
            }
        }
        if let Some(pb) = m.lookup(lbn) {
            candidates.push(pb);
        }
        for pb in candidates {
            let phys = self.block_phys(pb, off);
            if self.dir.invalidate_checked(phys, lpn) {
                break;
            }
        }
    }
}
