//! Boot / power-loss recovery: rebuilding controller RAM from flash.
//!
//! The page-mapped FTL's boot sequence scans every page's out-of-band
//! metadata to reconstruct the logical→physical mapping and the block
//! directory, newest sequence number winning. This is the startup cost
//! that motivated DFTL: scan time grows linearly with raw capacity.

use requiem_flash::PagePayload;
use requiem_sim::time::SimTime;

use crate::addr::{Lpn, LunId, PhysPage};
use crate::block_dir::BlockDirectory;
use crate::buffer::WriteBuffer;
use crate::device::{MappingState, ReadRecovery, RebuildReport, Ssd, SsdError};
use crate::mapping::page::PageMap;
use crate::metrics::OpCause;

impl Ssd {
    /// Simulate a power loss followed by the page-mapped FTL's boot
    /// sequence: all controller RAM (mapping table, block directory) is
    /// lost and rebuilt by scanning every page's out-of-band metadata,
    /// newest sequence number winning. Returns when the device is ready.
    ///
    /// This is the page-FTL startup cost that motivated DFTL (the paper's
    /// ref \[10\]): scan time grows linearly with raw capacity. The write
    /// buffer is battery-backed, so the rebuild requires all in-flight
    /// flushes to have drained (`at >= drain_time()`).
    ///
    /// Only supported for [`FtlKind::PageMap`](crate::config::FtlKind);
    /// other FTLs return an error.
    ///
    /// # Panics
    /// Panics if `at` precedes the drain time (buffer contents would be
    /// ambiguous).
    pub fn power_loss_rebuild(&mut self, at: SimTime) -> Result<RebuildReport, SsdError> {
        if !matches!(self.map, MappingState::Page(_)) {
            return Err(SsdError::Unsupported {
                what: "power-loss rebuild",
            });
        }
        assert!(
            at >= self.drain_time(),
            "rebuild before the battery-backed buffer drained"
        );
        let _bg = self.sched.probe.background();
        let geom = self.cfg.flash.geometry.clone();
        let nluns = self.total_luns();
        // volatile state vanishes
        let mut fresh = BlockDirectory::new(nluns, geom.clone());
        let mut map = PageMap::new(self.capacity.exported_pages, &self.cfg.shape, &geom);
        self.buffer = WriteBuffer::new(self.cfg.buffer.capacity_pages as usize);
        self.repl = None;
        // scan every page of every block (OOB reads; charged as
        // translation traffic on each LUN — LUNs scan in parallel),
        // folding each decoded page straight into the map: a copy
        // replaces the one the map names when its sequence number is
        // newer, and sequence numbers are unique, so the newest copy of
        // every LPN wins whatever order the scan meets them in.
        let mut scanned = 0u64;
        for lun_i in 0..nluns {
            let lun = LunId(lun_i);
            for block in geom.blocks() {
                let bidx = geom.block_index(block);
                // mirror chip-held wear state back into the directory
                let chip_state = self.luns[lun_i as usize].block_state(block).clone();
                if chip_state.bad {
                    fresh.retire(lun, bidx);
                    continue;
                }
                fresh.set_erase_count(lun, bidx, chip_state.erase_count);
                if chip_state.write_point == 0 {
                    continue; // fully erased: stays on the free list
                }
                // programmed block: scan its pages, mark it occupied
                fresh.claim_full(lun, bidx);
                for addr in geom.pages_of(block) {
                    if addr.page >= chip_state.write_point {
                        break;
                    }
                    let phys = PhysPage { lun, addr };
                    let read = self.op_read(at, phys, false, OpCause::Translation)?;
                    scanned += 1;
                    if read.status == ReadRecovery::Lost {
                        continue; // nothing decoded: the page has no OOB to go by
                    }
                    let PagePayload::Oob { lpn, seq } = self.luns[lun_i as usize].payload(addr)
                    else {
                        continue;
                    };
                    if lpn >= self.capacity.exported_pages {
                        continue;
                    }
                    let held = map.lookup(Lpn(lpn));
                    let held = held.map(|p| self.luns[p.lun.0 as usize].payload(p.addr));
                    if !matches!(held, Some(PagePayload::Oob { seq: s, .. }) if s >= seq) {
                        map.update(Lpn(lpn), phys);
                    }
                }
            }
        }
        // the directory learns the winners in LPN order
        for lpn in (0..self.capacity.exported_pages).map(Lpn) {
            if let Some(phys) = map.lookup(lpn) {
                fresh.mark_valid(&self.luns, phys, lpn);
            }
        }
        self.dir = fresh;
        self.map = MappingState::Page(map);
        let ready = self.drain_time().max(at);
        Ok(RebuildReport {
            ready,
            duration: ready.since(at),
            pages_scanned: scanned,
        })
    }
}
