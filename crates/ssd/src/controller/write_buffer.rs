//! The battery-backed RAM write buffer: the Figure-2 "RAM" box (§2.3.2).
//!
//! [`BufferConfig::capacity_pages`](crate::config::BufferConfig) sizes
//! the buffer: with slots, a write is acknowledged on admission and
//! flushed to flash in the background; with none it is acknowledged only
//! when the flash program completes. The `impl Ssd` block is the
//! page-mapped write path that makes that choice — the device's page map
//! or the host's — and the flush that places + programs one page and
//! updates the map.

use requiem_sim::time::SimTime;
use requiem_sim::{Cause, Layer};

use crate::addr::{Lpn, PhysPage};
use crate::block_dir::Stream;
use crate::device::{MappingState, Served, Ssd, SsdError};
use crate::metrics::OpCause;

impl Ssd {
    /// Page-mapped write: admit to the buffer (acknowledge early, flush in
    /// the background) or write through to flash. Returns the
    /// acknowledgement, what served it, and where the page went.
    pub(crate) fn write_page_mapped(
        &mut self,
        t0: SimTime,
        lpn: Lpn,
    ) -> Result<(SimTime, Served, PhysPage), SsdError> {
        let served = if self.buffer.enabled() {
            Served::Buffer
        } else {
            Served::Flash
        };
        let (ack, phys) = self.admit(t0, lpn)?;
        Ok((ack, served, phys))
    }

    /// Admit one host write that reached the controller at `t0`; returns
    /// the instant it is acknowledged and where the page went.
    ///
    /// With slots: acquire one (a `BufferStall` span covers the wait when
    /// every slot is mid-flush), acknowledge there, flush from that
    /// instant under the probe's background scope, and hold the slot
    /// until the program ends — the page stays readable from RAM under
    /// its [`resident_key`](Ssd::resident_key) until then. With no slots
    /// the write goes through: the flush runs on the command's own record
    /// from `t0` and the acknowledgement is its end. A failed flush holds
    /// no slot and propagates.
    fn admit(&mut self, t0: SimTime, lpn: Lpn) -> Result<(SimTime, PhysPage), SsdError> {
        if !self.buffer.enabled() {
            return self.flush_page(t0, lpn).map(|(phys, end)| (end, phys));
        }
        let start = self.buffer.acquire(t0);
        if self.sched.probe.is_enabled() {
            if start > t0 {
                // every slot was mid-flush: the host write stalls
                self.sched
                    .probe
                    .span(Layer::Buffer, Cause::BufferStall, "wbuf", t0, start);
            }
            // zero-length marker: the command completed from RAM here
            self.sched
                .probe
                .span(Layer::Buffer, Cause::BufferHit, "wbuf", start, start);
        }
        let (phys, flush_end) = {
            let _bg = self.sched.probe.background();
            self.flush_page(start, lpn)?
        };
        self.buffer
            .commit(self.resident_key(lpn, Some(phys)), flush_end);
        Ok((start, phys))
    }

    /// Place + program one page and update the map.
    pub(crate) fn flush_page(
        &mut self,
        t: SimTime,
        lpn: Lpn,
    ) -> Result<(PhysPage, SimTime), SsdError> {
        let lun = self.place_lun(lpn, t);
        self.maybe_gc(lun, t);
        let (phys, end) = self.append_page(t, lun, Stream::Host, lpn, true, OpCause::Host)?;
        let old = match &mut self.map {
            MappingState::Page(m) => m.update(lpn, phys),
            MappingState::Dftl(m) => {
                let mut ios = std::mem::take(&mut self.trans_scratch);
                ios.clear();
                let old = m.update(lpn, phys, &mut ios);
                // write-back of the dirty translation entry does not gate
                // the host acknowledgement: charge it as background traffic
                let _bg = self.sched.probe.background();
                self.exec_trans(t, &ios);
                self.trans_scratch = ios;
                old
            }
            // the host holds the map: the location goes back to it (and
            // fixed-offset FTLs never flush through here)
            _ => None,
        };
        if let Some(o) = old {
            self.dir.invalidate(o);
        }
        self.dir.mark_valid(&self.luns, phys, lpn);
        Ok((phys, end))
    }
}
