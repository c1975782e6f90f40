//! The hybrid log-block FTL (BAST-style): the circa-2009 "Mapping" box.
//!
//! Block-mapped data blocks plus a small pool of page-mapped *log
//! blocks* absorbing out-of-place rewrites. A rewrite burst fills a log
//! block; merging it back (switch merge when the log is a perfect
//! in-order replacement, full merge otherwise) is the dominant overhead
//! of this design — the paper's §2.3.1 merge-storm behaviour. Merges run
//! as background work tagged [`Occupant::Merge`](requiem_sim::Occupant);
//! when a host write must *wait* for its own merge to finish before it
//! can append, that wait is attributed to the command as a
//! `Controller/MergeStall` span on the probe bus.

use requiem_sim::time::SimTime;
use requiem_sim::{Cause, Layer};

use crate::addr::{Lpn, PhysPage};
use crate::device::{MappingState, Ssd, SsdError};
use crate::mapping::block::PhysBlockRef;
use crate::metrics::OpCause;

impl Ssd {
    pub(crate) fn write_hybrid(&mut self, t0: SimTime, lpn: Lpn) -> Result<SimTime, SsdError> {
        let ppb = self.ppb() as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        let data = match &self.map {
            MappingState::Hybrid(h) => h.data.lookup(lbn),
            _ => unreachable!(),
        };
        let Some(pb) = data else {
            // fresh logical block: behave like block mapping
            let lun = self.place_lun_for_block(lbn, t0);
            let block = self.alloc_block_on(lun, t0)?;
            let pbref = PhysBlockRef { lun, block };
            let phys = self.block_phys(pbref, off);
            let end = self
                .op_program(t0, phys, lpn, true, OpCause::Host)
                .map_err(|e| e.full_on(lun))?;
            if let MappingState::Hybrid(h) = &mut self.map {
                h.data.update(lbn, pbref);
            }
            self.dir.mark_valid(&self.luns, phys, lpn);
            return Ok(end);
        };
        let baddr = self.cfg.flash.geometry.block_from_index(pb.block);
        let wp = self.luns[pb.lun.0 as usize].block_state(baddr).write_point;
        let has_log = matches!(&self.map, MappingState::Hybrid(h) if h.log_of(lbn).is_some());
        if off >= wp && !has_log {
            // clean append into the data block
            let phys = self.block_phys(pb, off);
            let end = self
                .op_program(t0, phys, lpn, true, OpCause::Host)
                .map_err(|e| e.full_on(pb.lun))?;
            self.dir.mark_valid(&self.luns, phys, lpn);
            return Ok(end);
        }
        // need the log block path
        let mut t = t0;
        // full log for this lbn? merge first
        let log_full = matches!(
            &self.map,
            MappingState::Hybrid(h) if h.log_of(lbn).map(|l| l.full(self.ppb())).unwrap_or(false)
        );
        if log_full {
            t = self.merge_hybrid(t, lbn)?;
            self.note_merge_stall(t0, t);
            // after the merge the write may be an append; recurse once
            return self.write_hybrid_after_merge(t, lpn);
        }
        if !has_log {
            // need a free log slot
            let need_evict = matches!(
                &self.map,
                MappingState::Hybrid(h) if !h.has_free_log_slot()
            );
            if need_evict {
                let victim = match &self.map {
                    MappingState::Hybrid(h) => match h.lru_log() {
                        Some(v) => v,
                        None => unreachable!("pool full implies non-empty"),
                    },
                    _ => unreachable!(),
                };
                t = self.merge_hybrid(t, victim)?;
                self.note_merge_stall(t0, t);
            }
            let lun = pb.lun;
            let block = self.alloc_block_on(lun, t)?;
            if let MappingState::Hybrid(h) = &mut self.map {
                h.assign_log(lbn, PhysBlockRef { lun, block });
            }
        }
        // append into the log block
        let (log_pb, log_page, prev_version) = match &mut self.map {
            MappingState::Hybrid(h) => {
                let prev = h.log_of(lbn).and_then(|l| l.latest[off as usize]);
                let page = h.append_log(lbn, off);
                let phys = match h.log_of(lbn) {
                    Some(l) => l.phys,
                    None => unreachable!("log_of after append_log: just appended"),
                };
                (phys, page, prev)
            }
            _ => unreachable!(),
        };
        // invalidate the version this write supersedes (checked: a trim
        // may already have killed it while log.latest still points there)
        if let Some(prev_page) = prev_version {
            let prev = self.block_phys(log_pb, prev_page);
            self.dir.invalidate_checked(&self.luns, prev, lpn);
        } else {
            // previous version may live in the data block
            let prev = self.block_phys(pb, off);
            self.dir.invalidate_checked(&self.luns, prev, lpn);
        }
        let phys = self.block_phys(log_pb, log_page);
        let end = self
            .op_program(t, phys, lpn, true, OpCause::Host)
            .map_err(|e| e.full_on(log_pb.lun))?;
        self.dir.mark_valid(&self.luns, phys, lpn);
        Ok(end)
    }

    /// Attribute the interval a host write spent waiting for its own merge
    /// to the command as a `MergeStall` span.
    fn note_merge_stall(&self, before: SimTime, after: SimTime) {
        if self.sched.probe.is_enabled() && after > before {
            self.sched
                .probe
                .span(Layer::Controller, Cause::MergeStall, "merge", before, after);
        }
    }

    pub(crate) fn write_hybrid_after_merge(
        &mut self,
        t: SimTime,
        lpn: Lpn,
    ) -> Result<SimTime, SsdError> {
        // one level of recursion: after a merge the lbn has no log block
        // and the data block is freshly written, so this terminates
        self.write_hybrid(t, lpn)
    }

    /// Merge a hybrid log block with its data block.
    pub(crate) fn merge_hybrid(&mut self, t: SimTime, lbn: u64) -> Result<SimTime, SsdError> {
        let _bg = self.sched.probe.background();
        let (log, data) = match &mut self.map {
            MappingState::Hybrid(h) => {
                let Some(log) = h.take_log(lbn) else {
                    unreachable!("merge_hybrid without a log block for lbn")
                };
                (log, h.data.lookup(lbn))
            }
            _ => unreachable!(),
        };
        let ppb = self.ppb();
        if log.is_switchable(ppb) {
            // switch merge: the log block IS the new data block
            self.metrics.merges_switch += 1;
            let mut end = t;
            if let Some(old) = data {
                // old data block is entirely superseded
                let live = self.dir.live_pages(&self.luns, old.lun, old.block);
                for (a, _) in live {
                    self.dir.invalidate(PhysPage {
                        lun: old.lun,
                        addr: a,
                    });
                }
                end = self.op_erase(t, old.lun, old.block, OpCause::Merge)?;
            }
            if let MappingState::Hybrid(h) = &mut self.map {
                h.data.update(lbn, log.phys);
            }
            return Ok(end);
        }
        // full merge: newest version of each offset out of (log, data)
        self.metrics.merges_full += 1;
        let lun = log.phys.lun;
        let newb = self.alloc_block_on(lun, t)?;
        let newpb = PhysBlockRef { lun, block: newb };
        // BTreeMap for determinism discipline (only point lookups today,
        // but nothing then depends on hash order if iteration is added)
        let data_live: std::collections::BTreeMap<u32, Lpn> = match data {
            Some(pb) => self
                .dir
                .live_pages(&self.luns, pb.lun, pb.block)
                .into_iter()
                .map(|(a, l)| (a.page, l))
                .collect(),
            None => Default::default(),
        };
        let mut cursor = t;
        for o in 0..ppb {
            let (src, lpn_o) = if let Some(logpage) = log.latest[o as usize] {
                let src = self.block_phys(log.phys, logpage);
                let Some(l) = self.backptr(src) else {
                    continue;
                };
                (src, l)
            } else if let Some(pb) = data {
                match data_live.get(&o) {
                    Some(&l) => (self.block_phys(pb, o), l),
                    None => continue,
                }
            } else {
                continue;
            };
            // on-die copyback into the merged block
            let read = self.op_read(cursor, src, false, OpCause::Merge)?;
            let dst = self.block_phys(newpb, o);
            let end = self
                .op_program(read.end, dst, lpn_o, false, OpCause::Merge)
                .map_err(|e| e.full_on(lun))?;
            self.dir.invalidate(src);
            self.dir.mark_valid(&self.luns, dst, lpn_o);
            cursor = end;
        }
        // stale log pages (superseded versions) die with the log block
        let stale = self.dir.live_pages(&self.luns, lun, log.phys.block);
        for (a, _) in stale {
            self.dir.invalidate(PhysPage { lun, addr: a });
        }
        let mut end = self.op_erase(cursor, lun, log.phys.block, OpCause::Merge)?;
        if let Some(pb) = data {
            // anything left in the data block is stale now
            let stale = self.dir.live_pages(&self.luns, pb.lun, pb.block);
            for (a, _) in stale {
                self.dir.invalidate(PhysPage {
                    lun: pb.lun,
                    addr: a,
                });
            }
            end = self.op_erase(end, pb.lun, pb.block, OpCause::Merge)?;
        }
        if let MappingState::Hybrid(h) = &mut self.map {
            h.data.update(lbn, newpb);
        }
        Ok(end)
    }

    /// Resolve the physical location of `lpn` under the hybrid FTL: the
    /// newest version may be in the log block; back-pointers arbitrate
    /// staleness and trims.
    pub(crate) fn resolve_read_hybrid(&self, lpn: Lpn) -> Option<PhysPage> {
        let MappingState::Hybrid(h) = &self.map else {
            unreachable!()
        };
        let ppb = h.pages_per_block() as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        // newest version may be in the log block — but a trim can
        // have killed it while log.latest still points there, so
        // verify against the directory's back-pointer
        if let Some(log) = h.log_of(lbn) {
            if let Some(log_page) = log.latest[off as usize] {
                // if it is not there: trimmed in the log; the data-block
                // copy (if any) was also invalidated at append time
                let phys = self.block_phys(log.phys, log_page);
                return (self.backptr(phys) == Some(lpn)).then_some(phys);
            }
        }
        let phys = self.block_phys(h.data.lookup(lbn)?, off);
        (self.backptr(phys) == Some(lpn)).then_some(phys)
    }

    /// Trim under the hybrid FTL: kill the log-block version (if any) and
    /// the data-block version.
    pub(crate) fn trim_hybrid(&mut self, lpn: Lpn) {
        let MappingState::Hybrid(h) = &self.map else {
            unreachable!()
        };
        let ppb = h.pages_per_block() as u64;
        let lbn = lpn.0 / ppb;
        let off = (lpn.0 % ppb) as u32;
        let mut invalidations: Vec<PhysPage> = Vec::new();
        if let Some(log) = h.log_of(lbn) {
            if let Some(page) = log.latest[off as usize] {
                invalidations.push(self.block_phys(log.phys, page));
            }
        }
        if let Some(pb) = h.data.lookup(lbn) {
            let phys = self.block_phys(pb, off);
            if self.backptr(phys) == Some(lpn) {
                invalidations.push(phys);
            }
        }
        for p in invalidations {
            self.dir.invalidate_checked(&self.luns, p, lpn);
        }
    }
}
