//! The battery-backed RAM write buffer: the Figure-2 "RAM" box (§2.3.2).
//!
//! [`BufferConfig::capacity_pages`](crate::config::BufferConfig) sizes
//! the [`WriteBuffer`](crate::buffer::WriteBuffer): with slots, a write
//! is acknowledged on admission and flushed to flash in the background;
//! with none it is acknowledged only when the flash program completes.
//! The `impl Ssd` block is the page-mapped write path that makes that
//! choice, and the flush that places + programs one page and updates the
//! mapping.

use requiem_sim::time::SimTime;

use crate::addr::Lpn;
use crate::block_dir::Stream;
use crate::buffer;
use crate::device::{MappingState, Served, Ssd, SsdError};
use crate::metrics::OpCause;

impl Ssd {
    /// Page-mapped write: admit to the buffer (acknowledge early, flush in
    /// the background) or write through to flash.
    pub(crate) fn write_page_mapped(
        &mut self,
        t0: SimTime,
        lpn: Lpn,
    ) -> Result<(SimTime, Served), SsdError> {
        let served = if self.buffer.enabled() {
            Served::Buffer
        } else {
            Served::Flash
        };
        let probe = self.sched.probe.clone();
        let ack = buffer::admit(
            self,
            |ssd| &mut ssd.buffer,
            probe,
            t0,
            |ssd, start| ssd.flush_page(start, lpn).map(|end| (lpn.0, end)),
        )?;
        Ok((ack, served))
    }

    /// Place + program one page and update the mapping.
    pub(crate) fn flush_page(&mut self, t: SimTime, lpn: Lpn) -> Result<SimTime, SsdError> {
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
            _ => unreachable!(),
        };
        if let Some(o) = old {
            self.dir.invalidate(o);
        }
        self.dir.mark_valid(phys, lpn);
        Ok(end)
    }
}
