//! Scheduling: channel/LUN resource ownership, flash op primitives, and
//! write placement (the "Scheduling" box of Figure 2).
//!
//! The [`Scheduler`] owns every serial resource timeline the controller
//! arbitrates — one FIFO [`Resource`] per LUN, one backfilling
//! [`TransferTimeline`] per channel plus one for the host link — together
//! with the observability [`Probe`]. All flash operation mechanisms
//! (`op_read` / `op_program` / `op_erase` and DFTL translation traffic)
//! live here as `impl Ssd` blocks: they reserve intervals on the
//! scheduler's timelines, tagging each grant with its [`Occupant`] so
//! that later waiters can *blame* their queueing delay (GC stall vs.
//! merge stall vs. plain queueing) on the observability bus.

use requiem_flash::{FlashError, PagePayload};
use requiem_sim::resource::Grant;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, Layer, Occupant, Probe, Resource, TransferTimeline};
use std::cell::RefCell;

use crate::addr::{ArrayShape, Lpn, LunId, PhysPage};
use crate::block_dir::{BlockDirectory, Stream};
use crate::config::Placement;
use crate::device::{FlashReadDone, MapEvent, ReadRecovery, Ssd, SsdError};
use crate::mapping::dftl::{TransIo, TransIoKind};
use crate::metrics::OpCause;

/// Read-retry ladder: RBER derate per rung. Each rung re-senses the
/// page at a shifted read voltage; later rungs shift further and
/// recover more (lower effective RBER), at one tR + a command cycle
/// apiece.
const RETRY_DERATES: [f64; 3] = [0.6, 0.35, 0.2];

/// RBER derate of the soft-decision ECC escalation (multiple senses
/// feed a soft decoder).
const ECC_ESCALATION_DERATE: f64 = 0.5;

/// Correction-capability boost of the soft-decision decoder relative
/// to the hard decoder.
const ECC_ESCALATION_BOOST: f64 = 1.5;

/// LUN time charged by the ECC escalation, in units of tR (the soft
/// decode needs several senses of the same page).
const ECC_ESCALATION_SENSES: u32 = 4;

/// Write placement's rotation over the LUNs: the channel-interleaved
/// order ([`ArrayShape::interleaved_lun`]: consecutive picks land on
/// consecutive channels before they revisit a chip), tabulated once, and
/// the cursor that advances by one per placement.
#[derive(Debug, Clone)]
pub(crate) struct LunRotation {
    order: Vec<LunId>,
    rr: u32,
}

impl LunRotation {
    /// The rotation for `shape`, cursor at its first LUN.
    pub(crate) fn new(shape: &ArrayShape) -> Self {
        LunRotation {
            order: (0..shape.total_luns())
                .map(|i| shape.interleaved_lun(i))
                .collect(),
            rr: 0,
        }
    }

    /// The next LUN in rotation.
    pub(crate) fn round_robin(&mut self) -> LunId {
        let i = self.rr;
        self.rr = i.wrapping_add(1);
        self.order[(i % self.order.len() as u32) as usize]
    }

    /// The LUN with space left on which an operation issued at `t` could
    /// start soonest, looking from the cursor on. Earliest start wins
    /// and ties go to the first in rotation, so an idle device still
    /// stripes writes across every LUN (a lowest-index tie-break would
    /// degenerate to filling one LUN at a time under closed-loop
    /// workloads) — which also means the walk can stop at the first LUN
    /// that is free at `t`: nothing starts before `t`.
    pub(crate) fn least_loaded(
        &mut self,
        t: SimTime,
        lun_res: &[Resource],
        dir: &BlockDirectory,
    ) -> LunId {
        let n = self.order.len() as u32;
        let offset = self.rr;
        self.rr = offset.wrapping_add(1);
        // what is returned when every LUN is exhausted: the caller's
        // allocation then walks on from it and reports the device full
        let mut best = LunId(offset % n);
        let mut best_start = SimTime::MAX;
        let mut i = offset % n;
        for k in 1..=n {
            let l = self.order[i as usize];
            if !dir.exhausted(l) {
                let start = lun_res[l.0 as usize].next_free().max(t);
                if start == t {
                    return l;
                }
                if start < best_start {
                    best_start = start;
                    best = l;
                }
            }
            // step k looks at (offset + k) % n, in u32 arithmetic: the
            // index restarts where it reaches n and where the sum wraps
            i += 1;
            if i == n || offset.wrapping_add(k) == 0 {
                i = 0;
            }
        }
        best
    }
}

/// Owner of the controller's serial resource timelines (channels, LUNs,
/// host link) and the observability probe — one per [`Ssd`], whichever
/// address vocabulary it serves (Figure 2's scheduling box does not
/// change with the interface above it).
///
/// Which timelines backfill is decided here, by role. The buses —
/// channels and the host link — are [`TransferTimeline`]s: a transfer
/// takes the first idle gap it fits, so a read-out booked behind a busy
/// chip does not hold the bus for transfers that could run before it.
/// LUNs stay FIFO: flash cell state changes in call order, so a LUN op
/// placed ahead of one booked earlier could read a page whose program is
/// already booked but not yet done.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// One FIFO timeline per LUN (`chip{i}`).
    pub(crate) lun_res: Vec<Resource>,
    /// One transfer timeline per channel (`chan{i}`); reserve through
    /// [`Scheduler::reserve_chan`].
    pub(crate) chan_res: Vec<TransferTimeline>,
    /// The host interface link; reserve through
    /// [`Scheduler::reserve_link`].
    host_link: TransferTimeline,
    /// The latest host submission instant: no later reservation starts
    /// before it, so transfer gaps ending there are retired.
    floor: SimTime,
    /// Observability bus handle (disabled by default).
    pub(crate) probe: Probe,
    /// Reusable blame-decomposition buffer: every wait emission on the
    /// flash op hot path decomposes into it instead of allocating a
    /// fresh `Vec` per query (`RefCell` because emission happens behind
    /// `&self` while the device is mutably mid-operation).
    blame_scratch: RefCell<Vec<(Occupant, SimDuration)>>,
}

impl Scheduler {
    /// Create timelines for `nluns` LUNs and `channels` channels, all
    /// idle, with probing off.
    pub(crate) fn new(nluns: u32, channels: u32) -> Self {
        Scheduler {
            lun_res: (0..nluns)
                .map(|i| Resource::new(format!("chip{i}")))
                .collect(),
            chan_res: (0..channels)
                .map(|i| TransferTimeline::new(format!("chan{i}")))
                .collect(),
            host_link: TransferTimeline::new("host-link"),
            floor: SimTime::ZERO,
            probe: Probe::disabled(),
            blame_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Attach an observability probe. An enabled probe turns on occupant
    /// tracking for every resource so queueing delays can be blamed on
    /// their cause; a disabled probe turns tracking back off.
    pub(crate) fn attach_probe(&mut self, probe: Probe) {
        let on = probe.is_enabled();
        self.probe = probe;
        for r in &mut self.lun_res {
            r.track_occupants(on);
        }
        for r in &mut self.chan_res {
            r.track_occupants(on);
        }
        self.host_link.track_occupants(on);
    }

    /// A host command was submitted at `now`. Under time-ordered
    /// submission nothing is reserved before the latest such instant, so
    /// the bus gaps that end by then can never be used again; a device
    /// whose submitters interleave out of order gets a conservative (and
    /// still deterministic) floor.
    #[inline]
    pub(crate) fn note_submit(&mut self, now: SimTime) {
        self.floor = self.floor.max(now);
    }

    /// Reserve `duration` of channel `chan` from `not_before`, in the
    /// first idle gap it fits.
    #[inline]
    pub(crate) fn reserve_chan(
        &mut self,
        chan: usize,
        not_before: SimTime,
        duration: SimDuration,
        occupant: Occupant,
    ) -> Grant {
        self.chan_res[chan].reserve_tagged(self.floor, not_before, duration, occupant)
    }

    /// Reserve `duration` of the host link from `not_before`, in the
    /// first idle gap it fits.
    #[inline]
    pub(crate) fn reserve_link(&mut self, not_before: SimTime, duration: SimDuration) -> Grant {
        self.host_link
            .reserve_tagged(self.floor, not_before, duration, Occupant::Host)
    }

    /// The instant every queued operation has drained.
    pub(crate) fn drain_time(&self) -> SimTime {
        let luns = self.lun_res.iter().map(Resource::next_free);
        let buses = self.chan_res.iter().map(TransferTimeline::next_free);
        luns.chain(buses)
            .fold(self.host_link.next_free(), SimTime::max)
    }

    /// Emit wait-blame + transfer spans for a host-link grant requested
    /// at `requested`.
    pub(crate) fn emit_host_link_spans(&self, requested: SimTime, g: Grant) {
        let Some(mut batch) = self.probe.batch() else {
            return;
        };
        let mut blame = self.blame_scratch.borrow_mut();
        self.host_link.blame_into(requested, g.start, &mut blame);
        batch.wait_spans(
            Layer::HostLink,
            self.host_link.name(),
            requested,
            g.start,
            &blame,
        );
        batch.span(
            Layer::HostLink,
            Cause::Transfer,
            self.host_link.name(),
            g.start,
            g.end,
        );
    }

    /// Emit the span triplet of one command-cycled flash op — channel
    /// command cycles `[issue, cmd_done)`, LUN wait blame
    /// `[cmd_done, g.start)`, then the cell op `[g.start, g.end)` as
    /// `cell` — through a single probe borrow (the LUN-level record
    /// batch; three to five `RefCell` round-trips become one).
    pub(crate) fn emit_flash_op_spans(
        &self,
        chan: usize,
        lun: usize,
        issue: SimTime,
        cmd_done: SimTime,
        g: Grant,
        cell: Cause,
    ) {
        let Some(mut batch) = self.probe.batch() else {
            return;
        };
        let mut blame = self.blame_scratch.borrow_mut();
        self.lun_res[lun].blame_into(cmd_done, g.start, &mut blame);
        batch.span(
            Layer::Channel,
            Cause::Command,
            self.chan_res[chan].name(),
            issue,
            cmd_done,
        );
        batch.wait_spans(
            Layer::Flash,
            self.lun_res[lun].name(),
            cmd_done,
            g.start,
            &blame,
        );
        batch.span(Layer::Flash, cell, self.lun_res[lun].name(), g.start, g.end);
    }

    /// Emit LUN wait blame `[requested, g.start)` plus the cell op span
    /// `[g.start, g.end)` (no command cycles — programs pay theirs on
    /// the data bus) through a single probe borrow.
    pub(crate) fn emit_lun_op_spans(&self, lun: usize, requested: SimTime, g: Grant, cell: Cause) {
        let Some(mut batch) = self.probe.batch() else {
            return;
        };
        let mut blame = self.blame_scratch.borrow_mut();
        self.lun_res[lun].blame_into(requested, g.start, &mut blame);
        batch.wait_spans(
            Layer::Flash,
            self.lun_res[lun].name(),
            requested,
            g.start,
            &blame,
        );
        batch.span(Layer::Flash, cell, self.lun_res[lun].name(), g.start, g.end);
    }

    /// Emit channel wait blame `[requested, g.start)` plus the transfer
    /// span `[g.start, g.end)` through a single probe borrow.
    pub(crate) fn emit_chan_transfer_spans(&self, chan: usize, requested: SimTime, g: Grant) {
        let Some(mut batch) = self.probe.batch() else {
            return;
        };
        let mut blame = self.blame_scratch.borrow_mut();
        self.chan_res[chan].blame_into(requested, g.start, &mut blame);
        batch.wait_spans(
            Layer::Channel,
            self.chan_res[chan].name(),
            requested,
            g.start,
            &blame,
        );
        batch.span(
            Layer::Channel,
            Cause::Transfer,
            self.chan_res[chan].name(),
            g.start,
            g.end,
        );
    }
}

impl Ssd {
    // ------------------------------------------------------------------
    // flash op primitives (resource-timed)
    // ------------------------------------------------------------------

    /// Extra transfer time injected on `chan` for the grant about to be
    /// issued ([`FaultPlan`](requiem_sim::FaultPlan) channel hiccups).
    /// The empty-schedule fast path adds exactly zero, keeping
    /// zero-fault runs bit-identical.
    fn chan_hiccup_extra(&self, chan: usize) -> SimDuration {
        let sched = &self.chan_hiccups[chan];
        if sched.is_empty() {
            return SimDuration::ZERO;
        }
        let next = self.sched.chan_res[chan].grant_count();
        match sched.binary_search_by_key(&next, |&(i, _)| i) {
            Ok(k) => SimDuration::from_nanos(sched[k].1),
            Err(_) => SimDuration::ZERO,
        }
    }

    pub(crate) fn op_read(
        &mut self,
        not_before: SimTime,
        phys: PhysPage,
        with_transfer: bool,
        cause: OpCause,
    ) -> Result<FlashReadDone, SsdError> {
        let li = phys.lun.0 as usize;
        let chan = self.shape().channel_of(phys.lun) as usize;
        // command/address cycles (~0.2µs) are charged as latency but not
        // as bus occupancy: modelling them as channel reservations would
        // serialize later commands behind earlier 100µs data transfers,
        // which real command queueing does not do
        let cmd_done = not_before + self.cfg.channel.command;
        let dur = match self.luns[li].read(phys.addr) {
            Ok(o) => o.duration,
            Err(FlashError::UncorrectableRead { .. }) => {
                // the first sense failed ECC decode: enter the recovery
                // pipeline (it charges the failed sense itself)
                self.metrics.uncorrectable_reads += 1;
                return self.recover_read(not_before, phys, with_transfer, cause);
            }
            Err(e) => {
                return Err(SsdError::FlashProtocol {
                    op: "read",
                    lun: phys.lun,
                    detail: format!("at {:?}: {e}", phys.addr),
                })
            }
        };
        let occ = Occupant::from(cause);
        let lg = self.sched.lun_res[li].reserve_tagged(cmd_done, dur, occ);
        let lun_wait = lg.start.since(cmd_done);
        self.metrics.flash_reads.bump(cause);
        self.sched
            .emit_flash_op_spans(chan, li, not_before, cmd_done, lg, Cause::CellRead);
        Ok(FlashReadDone {
            end: self.read_out(chan, lg.end, occ, with_transfer),
            lun_wait,
            status: ReadRecovery::Clean,
        })
    }

    /// Move a sensed page out over channel `chan` from `from` when the
    /// read wants its data off the chip; returns the instant it is out.
    fn read_out(
        &mut self,
        chan: usize,
        from: SimTime,
        occ: Occupant,
        with_transfer: bool,
    ) -> SimTime {
        if !with_transfer {
            return from;
        }
        let xfer = self.cfg.channel.transfer(self.page_size()) + self.chan_hiccup_extra(chan);
        let xg = self.sched.reserve_chan(chan, from, xfer, occ);
        self.sched.emit_chan_transfer_spans(chan, from, xg);
        xg.end
    }

    /// The read-recovery pipeline (the paper's Myth-1 "error management
    /// belongs to the controller", made mechanical). Entered after the
    /// initial sense of `phys` failed the hard ECC decode. Charges the
    /// failed sense, then escalates until something yields data:
    ///
    /// 1. **Read-retry ladder** — up to [`RETRY_DERATES`] re-senses at
    ///    shifted read voltages, one tR plus a command cycle per rung;
    /// 2. **ECC escalation** — one soft-decision decode over
    ///    [`ECC_ESCALATION_SENSES`] senses with a boosted correction
    ///    capability;
    /// 3. **Parity rebuild** — XOR of the stripe: one tR on every
    ///    *other* LUN in parallel, data funneling over their channels,
    ///    reconstructing the page without ever decoding it.
    ///
    /// Recovery occupancy is tagged [`Occupant::Recovery`], so host
    /// commands queued behind it see `RecoveryStall` blame spans on the
    /// probe bus; the command that triggered recovery gets contiguous
    /// `Recovery`-cause spans, preserving the span-tiling invariant.
    /// If the whole pipeline fails, the read still completes — at full
    /// cost — with [`ReadRecovery::Lost`].
    fn recover_read(
        &mut self,
        not_before: SimTime,
        phys: PhysPage,
        with_transfer: bool,
        cause: OpCause,
    ) -> Result<FlashReadDone, SsdError> {
        let li = phys.lun.0 as usize;
        let chan = self.shape().channel_of(phys.lun) as usize;
        let occ = Occupant::from(cause);
        let t_read = self.cfg.flash.timing.read;
        let cmd = self.cfg.channel.command;
        let probe_on = self.sched.probe.is_enabled();

        // the failed initial sense still occupied the LUN for a full tR,
        // under the original occupant
        let cmd_done = not_before + cmd;
        let lg = self.sched.lun_res[li].reserve_tagged(cmd_done, t_read, occ);
        let lun_wait = lg.start.since(cmd_done);
        self.metrics.flash_reads.bump(cause);
        self.sched
            .emit_flash_op_spans(chan, li, not_before, cmd_done, lg, Cause::CellRead);

        let mut cursor = lg.end;
        let mut steps = 0u32;
        let mut rebuilt = false;
        let mut recovered = false;

        // stage 1: the read-retry ladder
        for derate in RETRY_DERATES {
            steps += 1;
            self.metrics.recovery.retry_attempts += 1;
            self.metrics.flash_reads.bump(OpCause::Recovery);
            let rung_cmd_done = cursor + cmd;
            let g =
                self.sched.lun_res[li].reserve_tagged(rung_cmd_done, t_read, Occupant::Recovery);
            self.sched
                .emit_flash_op_spans(chan, li, cursor, rung_cmd_done, g, Cause::Recovery);
            cursor = g.end;
            match self.luns[li].recovery_read(phys.addr, derate, 1.0) {
                Ok(_) => {
                    recovered = true;
                    self.metrics.recovery.retry_recovered += 1;
                    break;
                }
                Err(FlashError::UncorrectableRead { .. }) => continue,
                Err(e) => {
                    return Err(SsdError::FlashProtocol {
                        op: "read",
                        lun: phys.lun,
                        detail: format!("retry at {:?}: {e}", phys.addr),
                    })
                }
            }
        }

        // stage 2: soft-decision ECC escalation
        if !recovered {
            steps += 1;
            self.metrics.recovery.ecc_escalations += 1;
            self.metrics.flash_reads.bump(OpCause::Recovery);
            let esc_cmd_done = cursor + cmd;
            let g = self.sched.lun_res[li].reserve_tagged(
                esc_cmd_done,
                t_read * u64::from(ECC_ESCALATION_SENSES),
                Occupant::Recovery,
            );
            self.sched
                .emit_flash_op_spans(chan, li, cursor, esc_cmd_done, g, Cause::Recovery);
            cursor = g.end;
            match self.luns[li].recovery_read(
                phys.addr,
                ECC_ESCALATION_DERATE,
                ECC_ESCALATION_BOOST,
            ) {
                Ok(_) => recovered = true,
                Err(FlashError::UncorrectableRead { .. }) => {}
                Err(e) => {
                    return Err(SsdError::FlashProtocol {
                        op: "read",
                        lun: phys.lun,
                        detail: format!("escalation at {:?}: {e}", phys.addr),
                    })
                }
            }
        }

        // stage 3: stripe parity rebuild across every other LUN
        if !recovered {
            let nl = self.total_luns() as usize;
            if nl > 1 {
                self.metrics.recovery.parity_rebuilds += 1;
                let rb_start = cursor;
                let mut rb_end = rb_start;
                let xfer = self.cfg.channel.transfer(self.page_size());
                for peer in 0..nl {
                    if peer == li {
                        continue;
                    }
                    steps += 1;
                    self.metrics.flash_reads.bump(OpCause::Recovery);
                    let peer_chan = self.shape().channel_of(LunId(peer as u32)) as usize;
                    let pg = self.sched.lun_res[peer].reserve_tagged(
                        rb_start + cmd,
                        t_read,
                        Occupant::Recovery,
                    );
                    let xg = self
                        .sched
                        .reserve_chan(peer_chan, pg.end, xfer, Occupant::Recovery);
                    rb_end = rb_end.max(xg.end);
                }
                if probe_on && rb_end > rb_start {
                    // one aggregate span: the peer reads overlap each
                    // other, so per-peer spans would break span tiling
                    self.sched.probe.span(
                        Layer::Controller,
                        Cause::Recovery,
                        "stripe",
                        rb_start,
                        rb_end,
                    );
                }
                cursor = rb_end.max(cursor);
                // the XOR of the stripe is the page as stored
                recovered = true;
                rebuilt = true;
            }
        }

        self.metrics.recovery.recovery_time += cursor.since(lg.end);
        let status = if recovered {
            ReadRecovery::Recovered { steps, rebuilt }
        } else {
            self.metrics.recovery.unrecoverable += 1;
            ReadRecovery::Lost
        };

        // transfer whatever the controller ended up with
        Ok(FlashReadDone {
            end: self.read_out(chan, cursor, occ, with_transfer),
            lun_wait,
            status,
        })
    }

    /// Program `phys` with the tag for `lpn`.
    /// [`SsdError::ProgramFailed`] = wear-induced program failure
    /// (`append_page` salvages the block and retries elsewhere;
    /// fixed-offset FTLs collapse it via [`SsdError::full_on`]). A failed
    /// program still occupied the chip for its program time — the status
    /// is read at its end — and the error carries that instant.
    pub(crate) fn op_program(
        &mut self,
        not_before: SimTime,
        phys: PhysPage,
        lpn: Lpn,
        use_channel: bool,
        cause: OpCause,
    ) -> Result<SimTime, SsdError> {
        let li = phys.lun.0 as usize;
        let chan = self.shape().channel_of(phys.lun) as usize;
        let occ = Occupant::from(cause);
        let start = if use_channel {
            let bus_time =
                self.cfg.channel.write_bus_time(self.page_size()) + self.chan_hiccup_extra(chan);
            let bus = self.sched.reserve_chan(chan, not_before, bus_time, occ);
            self.sched.emit_chan_transfer_spans(chan, not_before, bus);
            bus.end
        } else {
            not_before
        };
        self.oob_seq += 1;
        let oob = PagePayload::Oob {
            lpn: lpn.0,
            seq: self.oob_seq,
        };
        let (dur, failed) = match self.luns[li].program(phys.addr, oob) {
            Ok(o) => (o.duration, false),
            Err(FlashError::ProgramFailed { .. }) => {
                (self.cfg.flash.timing.program(phys.addr.page), true)
            }
            Err(e) => {
                return Err(SsdError::FlashProtocol {
                    op: "program",
                    lun: phys.lun,
                    detail: format!("at {:?}: {e}", phys.addr),
                })
            }
        };
        let g = self.sched.lun_res[li].reserve_tagged(start, dur, occ);
        self.sched
            .emit_lun_op_spans(li, start, g, Cause::CellProgram);
        if failed {
            return Err(SsdError::ProgramFailed { phys, at: g.end });
        }
        self.metrics.flash_programs.bump(cause);
        Ok(g.end)
    }

    /// Erase a block; on wear-out failure the block is retired. Returns
    /// the erase completion either way (the time was spent); errs only
    /// on a protocol violation (erase of a retired block).
    pub(crate) fn op_erase(
        &mut self,
        not_before: SimTime,
        lun: LunId,
        block_idx: u32,
        cause: OpCause,
    ) -> Result<SimTime, SsdError> {
        let li = lun.0 as usize;
        let baddr = self.cfg.flash.geometry.block_from_index(block_idx);
        let cmd_done = not_before + self.cfg.channel.command;
        let occ = Occupant::from(cause);
        let (g, retired) = match self.luns[li].erase(baddr) {
            Ok(o) => (
                self.sched.lun_res[li].reserve_tagged(cmd_done, o.duration, occ),
                false,
            ),
            Err(FlashError::EraseFailed { .. }) => (
                self.sched.lun_res[li].reserve_tagged(cmd_done, self.cfg.flash.timing.erase, occ),
                true,
            ),
            Err(e) => {
                return Err(SsdError::FlashProtocol {
                    op: "erase",
                    lun,
                    detail: format!("of {baddr}: {e}"),
                })
            }
        };
        self.metrics.flash_erases.bump(cause);
        let chan = self.shape().channel_of(lun) as usize;
        self.sched
            .emit_flash_op_spans(chan, li, not_before, cmd_done, g, Cause::CellErase);
        if retired {
            self.metrics.blocks_retired += 1;
            self.metrics.recovery.erase_retirements += 1;
            self.dir.retire(lun, block_idx);
            self.tell_host(MapEvent::Retired { at: not_before });
        } else {
            self.dir.recycle(lun, block_idx);
        }
        Ok(g.end)
    }

    /// Charge DFTL translation traffic, serialized after `t`. Grants are
    /// tagged [`Occupant::Translation`]; span attribution is left to the
    /// caller (critical-path callers emit one aggregate mapping span).
    pub(crate) fn exec_trans(&mut self, mut t: SimTime, ios: &[TransIo]) -> SimTime {
        for io in ios {
            let li = io.lun.0 as usize;
            let chan = self.shape().channel_of(io.lun) as usize;
            let xfer = self.cfg.channel.transfer(self.page_size());
            match io.kind {
                TransIoKind::Read => {
                    let cmd_done = t + self.cfg.channel.command;
                    let lg = self.sched.lun_res[li].reserve_tagged(
                        cmd_done,
                        self.cfg.flash.timing.read,
                        Occupant::Translation,
                    );
                    let xg = self
                        .sched
                        .reserve_chan(chan, lg.end, xfer, Occupant::Translation);
                    self.metrics.flash_reads.bump(OpCause::Translation);
                    t = xg.end;
                }
                TransIoKind::Write => {
                    // read–modify–write of a translation page
                    let cmd_done = t + self.cfg.channel.command;
                    let rg = self.sched.lun_res[li].reserve_tagged(
                        cmd_done,
                        self.cfg.flash.timing.read,
                        Occupant::Translation,
                    );
                    let bus_time = self.cfg.channel.write_bus_time(self.page_size());
                    let bus =
                        self.sched
                            .reserve_chan(chan, rg.end, bus_time, Occupant::Translation);
                    let pg = self.sched.lun_res[li].reserve_tagged(
                        bus.end,
                        self.cfg.flash.timing.program_mean(),
                        Occupant::Translation,
                    );
                    self.metrics.flash_reads.bump(OpCause::Translation);
                    self.metrics.flash_programs.bump(OpCause::Translation);
                    t = pg.end;
                }
            }
        }
        t
    }

    // ------------------------------------------------------------------
    // write placement
    // ------------------------------------------------------------------

    pub(crate) fn place_lun(&mut self, lpn: Lpn, t: SimTime) -> LunId {
        match self.cfg.placement {
            Placement::StaticByLpn => LunId((lpn.0 % self.total_luns() as u64) as u32),
            Placement::RoundRobin => self.rotation.round_robin(),
            Placement::LeastLoaded => self
                .rotation
                .least_loaded(t, &self.sched.lun_res, &self.dir),
        }
    }

    /// Allocate the next page on `lun` for `stream` and program it.
    /// Falls back to other LUNs when this one is out of space; retires
    /// blocks whose programs fail. [`SsdError::DeviceFull`] carries the
    /// instant it gave up: `t`, or the end of the last failed program.
    pub(crate) fn append_page(
        &mut self,
        t: SimTime,
        lun: LunId,
        stream: Stream,
        lpn: Lpn,
        use_channel: bool,
        cause: OpCause,
    ) -> Result<(PhysPage, SimTime), SsdError> {
        let mut lun = lun;
        let mut tries = 0u32;
        let mut gave_up = t;
        loop {
            tries += 1;
            if tries > 4 * self.total_luns() {
                return Err(SsdError::DeviceFull { lun, at: gave_up });
            }
            let np = match self.dir.next_page(lun, stream) {
                Some(np) => np,
                None => {
                    // out of free blocks here: try GC, then other LUNs
                    self.maybe_gc(lun, t);
                    match self.dir.next_page(lun, stream) {
                        Some(np) => np,
                        None => {
                            let next = LunId((lun.0 + 1) % self.total_luns());
                            if next.0 == 0 && tries > self.total_luns() {
                                return Err(SsdError::DeviceFull { lun, at: gave_up });
                            }
                            lun = next;
                            continue;
                        }
                    }
                }
            };
            match self.op_program(t, np.phys, lpn, use_channel, cause) {
                Ok(end) => return Ok((np.phys, end)),
                Err(SsdError::ProgramFailed { at, .. }) => {
                    // wear-induced failure: salvage live pages, retire
                    // block, and retry the write in a fresh stripe
                    gave_up = gave_up.max(at);
                    self.metrics.recovery.program_salvages += 1;
                    self.salvage_and_retire(np.phys.lun, np.phys.addr, t);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use requiem_flash::Geometry;

    /// What [`LunRotation::least_loaded`] replaced, kept as the reference:
    /// every LUN of the rotation looked at, its place in the interleaved
    /// order recomputed per step.
    fn least_loaded_by_scan(
        shape: &ArrayShape,
        rr: &mut u32,
        t: SimTime,
        lun_res: &[Resource],
        dir: &BlockDirectory,
    ) -> LunId {
        let prog = SimDuration::from_micros(600);
        let n = shape.total_luns();
        let offset = *rr;
        *rr = rr.wrapping_add(1);
        let mut best = LunId(offset % n);
        let mut best_start = SimTime::MAX;
        for k in 0..n {
            let l = shape.interleaved_lun((offset.wrapping_add(k)) % n);
            if dir.exhausted(l) {
                continue;
            }
            let start = lun_res[l.0 as usize].peek(t, prog).start;
            if start < best_start {
                best_start = start;
                best = l;
            }
        }
        best
    }

    const SHAPES: [(u32, u32); 4] = [(1, 1), (2, 2), (8, 4), (3, 5)];

    proptest! {
        /// Shapes 1×1, 2×2, 8×4 and 3×5 (fifteen LUNs: not a power of
        /// two, so `rr % n` jumps where `rr` wraps), the cursor started
        /// a few placements short of `u32::MAX`. Steps place a write
        /// (and occupy the chosen LUN, as a flush does), pile extra work
        /// on one LUN, let time pass — from an idle device to one where
        /// every LUN is busy past `t` — or exhaust a LUN.
        #[test]
        fn table_walk_matches_the_interleaved_scan_it_replaced(
            shape in 0..SHAPES.len(),
            before_wrap in 0..40u32,
            steps in proptest::collection::vec((0..10u8, 0..15u32, 0..900u64), 1..200),
        ) {
            let (channels, chips_per_channel) = SHAPES[shape];
            let shape = ArrayShape { channels, chips_per_channel, luns_per_chip: 1 };
            let n = shape.total_luns();
            let mut lun_res: Vec<Resource> =
                (0..n).map(|i| Resource::new(format!("chip{i}"))).collect();
            let mut dir = BlockDirectory::new(n, Geometry::new(1, 2, 2, 4096));
            let mut rotation = LunRotation::new(&shape);
            rotation.rr = u32::MAX - before_wrap;
            let mut rr = rotation.rr;
            let mut t = SimTime::ZERO;
            for (step, &(kind, lun, us)) in steps.iter().enumerate() {
                let dur = SimDuration::from_micros(us);
                let lun = lun % n;
                match kind {
                    0..=5 => {
                        let want = least_loaded_by_scan(&shape, &mut rr, t, &lun_res, &dir);
                        let got = rotation.least_loaded(t, &lun_res, &dir);
                        prop_assert_eq!(got, want, "step {}", step);
                        prop_assert_eq!(rotation.rr, rr);
                        lun_res[got.0 as usize].reserve(t, dur);
                    }
                    6 => {
                        lun_res[lun as usize].reserve(t, dur * 8);
                    }
                    7 | 8 => t += dur,
                    _ => {
                        dir.retire(LunId(lun), 0);
                        dir.retire(LunId(lun), 1);
                        prop_assert!(dir.exhausted(LunId(lun)));
                    }
                }
            }
        }
    }

    /// Where `rr` wraps, `(rr + k) % 15` repeats one index and skips
    /// another (2³² is not a multiple of 15): with every LUN busy but
    /// one, walk and scan must agree on whether that one is ever seen.
    #[test]
    fn walk_sees_the_luns_the_scan_sees_across_the_wrap() {
        let shape = ArrayShape {
            channels: 3,
            chips_per_channel: 5,
            luns_per_chip: 1,
        };
        let dir = BlockDirectory::new(15, Geometry::new(1, 2, 2, 4096));
        for start in (u32::MAX - 16..=u32::MAX).chain(0..2) {
            for idle in 0..15usize {
                let lun_res: Vec<Resource> = (0..15)
                    .map(|i| {
                        let mut r = Resource::new(format!("chip{i}"));
                        if i != idle {
                            r.reserve(SimTime::ZERO, SimDuration::from_micros(100 + i as u64));
                        }
                        r
                    })
                    .collect();
                let mut rotation = LunRotation::new(&shape);
                rotation.rr = start;
                let mut rr = start;
                assert_eq!(
                    rotation.least_loaded(SimTime::ZERO, &lun_res, &dir),
                    least_loaded_by_scan(&shape, &mut rr, SimTime::ZERO, &lun_res, &dir),
                    "rr {start}, lun {idle} idle"
                );
            }
        }
    }

    #[test]
    fn round_robin_follows_the_interleaved_order_across_the_wrap() {
        let shape = ArrayShape {
            channels: 3,
            chips_per_channel: 5,
            luns_per_chip: 1,
        };
        let mut rotation = LunRotation::new(&shape);
        rotation.rr = u32::MAX - 20;
        for i in (u32::MAX - 20..=u32::MAX).chain(0..20) {
            assert_eq!(rotation.round_robin(), shape.interleaved_lun(i % 15));
        }
    }
}
