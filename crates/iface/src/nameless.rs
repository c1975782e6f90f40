//! Nameless writes: the device names the data, the host keeps the name.
//!
//! §3: with a communication abstraction, *"extent-based allocation is
//! irrelevant, nameless writes are interesting"*. In a nameless write the
//! host sends only data (plus an opaque `tag` such as its database page
//! id); the **device** picks the physical location — wherever its write
//! frontier and parallelism make cheapest — and returns the location's
//! *name*. The host stores names in the index it already maintains, so
//! the FTL's page-mapping table (8 bytes/page of controller RAM) simply
//! disappears, and the double indirection (host index → LBA → physical)
//! collapses to one hop.
//!
//! The cost is a protocol: when garbage collection relocates a live page,
//! the device must tell the host its new name — the
//! [`Upcall::Migrated`](crate::comm::Upcall) message. A host that reads a
//! stale name gets [`NamelessError::StaleName`] (detectable via the
//! out-of-band tag), so correctness is preserved even with a lazy host.
//!
//! [`NamelessSsd`] reuses the same flash, channel, directory, GC and
//! write-buffer machinery as `requiem-ssd` — only the mapping is gone.
//! In particular the hardware's battery-backed RAM (§2.3.2) stays: built
//! from a buffered [`SsdConfig`], a nameless write is named and
//! acknowledged once it is in RAM and programmed behind the
//! acknowledgement, a read of a name still in RAM is served from RAM,
//! and a free drops the RAM copy with the name. E14, E6 and the Figure-1
//! experiments run both devices **unbuffered on purpose** (they compare
//! what the flash does under each interface); `SsdConfig::modern()`, the
//! benchmark's device, is buffered under both.

use requiem_flash::{FlashError, FlashSpec, Lun, PageAddr, PagePayload};
use requiem_sim::probe::{Cause, Layer, Probe};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{FaultPlan, IoStatus, Occupant};
use requiem_ssd::addr::{ArrayShape, LunId, PhysPage};
use requiem_ssd::block_dir::{BlockDirectory, Stream};
use requiem_ssd::buffer::{self, WriteBuffer};
use requiem_ssd::channel::ChannelTiming;
use requiem_ssd::config::{BufferConfig, GcConfig, SsdConfig};
use requiem_ssd::controller::{LunRotation, Scheduler};
use requiem_ssd::metrics::{OpCause, SsdMetrics};
use requiem_ssd::Lpn;
use serde::{Deserialize, Serialize};

use crate::comm::{Upcall, UpcallQueue};

/// The physical name of a written page — the device-chosen location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhysName {
    /// The LUN holding the page.
    pub lun: LunId,
    /// The page within the LUN.
    pub addr: PageAddr,
}

/// Configuration of a nameless device, built from the [`SsdConfig`] of
/// the same hardware: the FTL-mapping knobs are meaningless here and
/// absent; the GC knobs are the one [`GcConfig`] both devices read, and
/// the battery-backed RAM in front of the flash is the one
/// [`BufferConfig`] — dropping the mapping table does not unsolder it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NamelessConfig {
    /// Array shape.
    pub shape: ArrayShape,
    /// Flash die specification.
    pub flash: FlashSpec,
    /// Channel timing.
    pub channel: ChannelTiming,
    /// Host link throughput, bytes/µs.
    pub host_link_bytes_per_us: u32,
    /// Controller overhead per command.
    pub controller_overhead: SimDuration,
    /// GC tuning, the [`SsdConfig`]'s own: trigger threshold, victim
    /// policy and copyback are read exactly as the block controller
    /// reads them.
    pub gc: GcConfig,
    /// The write buffer, the [`SsdConfig`]'s own: with slots a write is
    /// acknowledged (and named) once it is in RAM and programmed behind
    /// the acknowledgement; with `capacity_pages == 0` it is acknowledged
    /// when its program ends.
    pub buffer: BufferConfig,
    /// Wear-aware block allocation.
    pub wear_aware: bool,
    /// Over-provisioning ratio the host is expected to respect: the
    /// fraction of raw pages it must leave unnamed so GC has headroom.
    /// A block-device FTL enforces this by exporting fewer LBAs; a
    /// nameless device can only *tell* the host (another message the
    /// communication abstraction carries that the block interface hides).
    pub op_ratio: f64,
    /// RNG seed.
    pub seed: u64,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] injects
    /// nothing and is bit-exact with the pre-fault code).
    #[serde(default)]
    pub fault: FaultPlan,
}

impl From<&SsdConfig> for NamelessConfig {
    fn from(c: &SsdConfig) -> Self {
        NamelessConfig {
            shape: c.shape.clone(),
            flash: c.flash.clone(),
            channel: c.channel.clone(),
            host_link_bytes_per_us: c.host_link_bytes_per_us,
            controller_overhead: c.controller_overhead,
            gc: c.gc.clone(),
            buffer: c.buffer.clone(),
            wear_aware: c.wl.dynamic,
            op_ratio: c.op_ratio,
            seed: c.seed,
            fault: c.fault.clone(),
        }
    }
}

/// Errors from the nameless interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamelessError {
    /// The name no longer holds the tagged page (migrated or freed); the
    /// host must drain its upcalls.
    StaleName {
        /// The stale name presented.
        name: PhysName,
    },
    /// No usable space left. The device finds that out only once it has
    /// the page in hand: the host-link transfer and the controller's
    /// command overhead are spent by then — and, on worn-out media, so
    /// are the programs that failed and the salvages they set off.
    DeviceFull {
        /// The instant the controller gave up on the write.
        at: SimTime,
    },
}

impl std::fmt::Display for NamelessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamelessError::StaleName { name } => {
                write!(f, "stale name {:?}; drain migration upcalls", name)
            }
            NamelessError::DeviceFull { at } => write!(f, "device full at {at}"),
        }
    }
}

impl std::error::Error for NamelessError {}

/// Completion of a nameless write.
#[derive(Debug, Clone, Copy)]
pub struct NamelessCompletion {
    /// The device-chosen name.
    pub name: PhysName,
    /// Instant the write was durable: in the battery-backed buffer when
    /// the device has one, else the end of the flash program.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Clean, or recovered after program-fail salvage(s).
    pub status: IoStatus,
}

/// A flash device with no FTL mapping: nameless writes + migration upcalls.
pub struct NamelessSsd {
    cfg: NamelessConfig,
    luns: Vec<Lun>,
    /// The block controller's timelines, probe and span emitters: how a
    /// flash op is timed and attributed is decided in one place for both
    /// devices.
    sched: Scheduler,
    dir: BlockDirectory,
    /// Battery-backed RAM in front of the flash; residency is keyed by
    /// the flat physical page number (names are physical, and host tags
    /// are too sparse for the buffer's dense index).
    buffer: WriteBuffer,
    upcalls: UpcallQueue,
    metrics: SsdMetrics,
    /// Write placement's LUN order and cursor (the block controller's).
    rotation: LunRotation,
    gc_active: bool,
    /// The live-page list of the block being collected or salvaged
    /// (reused from block to block).
    live_scratch: Vec<(PageAddr, Lpn)>,
}

impl std::fmt::Debug for NamelessSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamelessSsd")
            .field("luns", &self.luns.len())
            .field("writes", &self.metrics.host_writes)
            .field("pending_upcalls", &self.upcalls.len())
            .finish()
    }
}

impl NamelessSsd {
    /// Build a nameless device.
    pub fn new(cfg: NamelessConfig) -> Self {
        let nluns = cfg.shape.total_luns();
        let geom = cfg.flash.geometry.clone();
        NamelessSsd {
            luns: (0..nluns)
                .map(|i| {
                    let mut lun = Lun::new(i, cfg.flash.clone(), cfg.seed);
                    lun.apply_faults(cfg.fault.unit_view(i));
                    lun
                })
                .collect(),
            sched: Scheduler::new(nluns, cfg.shape.channels),
            dir: BlockDirectory::new(nluns, geom),
            buffer: WriteBuffer::new(cfg.buffer.capacity_pages as usize),
            upcalls: UpcallQueue::new(),
            metrics: SsdMetrics::new(),
            rotation: LunRotation::new(&cfg.shape),
            gc_active: false,
            live_scratch: Vec::new(),
            cfg,
        }
    }

    /// Attach an observability probe. An enabled probe turns on occupant
    /// tracking for every resource, so a host command stalled behind GC
    /// relocations gets the wait blamed as `GcStall` spans — the same
    /// discipline the block controller follows, which is what lets E14
    /// compare stall blame across the two interfaces.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.sched.attach_probe(probe);
    }

    /// The attached probe (disabled handle when none was attached).
    pub fn probe(&self) -> &Probe {
        self.sched.probe()
    }

    /// The configuration.
    pub fn config(&self) -> &NamelessConfig {
        &self.cfg
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &SsdMetrics {
        &self.metrics
    }

    /// The device→host message queue.
    pub fn upcalls(&mut self) -> &mut UpcallQueue {
        &mut self.upcalls
    }

    /// Immutable view of the device→host message queue (for metrics).
    pub fn upcalls_pending(&self) -> &UpcallQueue {
        &self.upcalls
    }

    /// Distinct host tags the device can keep live while honouring its
    /// over-provisioning ratio (the analog of an FTL's exported LBA count).
    pub fn usable_tags(&self) -> u64 {
        let raw = self.cfg.shape.total_luns() as u64 * self.cfg.flash.geometry.total_pages();
        (raw as f64 * (1.0 - self.cfg.op_ratio)) as u64
    }

    /// Controller RAM spent on logical→physical mapping: **zero** — the
    /// point of the interface (contrast [`SsdConfig::mapping_table_bytes`]).
    pub fn mapping_table_bytes(&self) -> u64 {
        0
    }

    /// When all queued operations drain.
    pub fn drain_time(&self) -> SimTime {
        self.sched.drain_time()
    }

    /// Host writes that waited for a write-buffer slot (0 under
    /// write-through).
    pub fn buffer_stalls(&self) -> u64 {
        self.buffer.stalls()
    }

    /// `phys`'s key in the write buffer: its page number across the
    /// whole array.
    fn flat_page(&self, phys: PhysPage) -> u64 {
        let geom = &self.cfg.flash.geometry;
        phys.lun.0 as u64 * geom.total_pages() + geom.ppn(phys.addr).0
    }

    /// The controller's per-command overhead.
    fn span_overhead(&self, from: SimTime, to: SimTime) {
        self.sched
            .probe()
            .span(Layer::Controller, Cause::Overhead, "ctrl", from, to);
    }

    fn host_link_time(&self) -> SimDuration {
        let bytes = self.cfg.flash.geometry.page_size;
        SimDuration::from_nanos(
            (bytes as u64 * 1_000).div_ceil(self.cfg.host_link_bytes_per_us as u64),
        )
    }

    /// Program one page. A worn-out or fault-scheduled program surfaces
    /// as `Err`; the caller retires the block and relocates its live
    /// pages ([`NamelessSsd::salvage_and_retire`]). The failed attempt's
    /// program time is still charged — the chip spent it — and the `Err`
    /// carries the instant it ended.
    fn op_program(
        &mut self,
        not_before: SimTime,
        phys: PhysPage,
        tag: u64,
        use_channel: bool,
        cause: OpCause,
    ) -> Result<SimTime, SimTime> {
        let chan = self.cfg.shape.channel_of(phys.lun) as usize;
        let li = phys.lun.0 as usize;
        let occ = Occupant::from(cause);
        let start = if use_channel {
            let bus = self
                .cfg
                .channel
                .write_bus_time(self.cfg.flash.geometry.page_size);
            let cg = self.sched.reserve_chan(chan, not_before, bus, occ);
            self.sched.emit_chan_transfer_spans(chan, not_before, cg);
            cg.end
        } else {
            not_before
        };
        let dur = match self.luns[li].program(phys.addr, PagePayload::Tag(tag)) {
            Ok(o) => o.duration,
            Err(FlashError::ProgramFailed { .. }) => {
                let spent = self.cfg.flash.timing.program(phys.addr.page);
                return Err(self.sched.lun_res[li].reserve_tagged(start, spent, occ).end);
            }
            Err(e) => unreachable!("nameless controller bug: illegal program: {e}"),
        };
        let g = self.sched.lun_res[li].reserve_tagged(start, dur, occ);
        self.sched
            .emit_lun_op_spans(li, start, g, Cause::CellProgram);
        self.metrics.flash_programs.bump(cause);
        Ok(g.end)
    }

    /// A program failed on a worn-out block: retire it and move its live
    /// pages somewhere safe. Every relocation is announced to the host
    /// as [`Upcall::Migrated`] — the communication abstraction lets the
    /// device *say* what a block-device FTL would silently absorb.
    /// Returns the instant the last relocation attempt ended.
    fn salvage_and_retire(&mut self, lun: LunId, addr: PageAddr, t: SimTime) -> SimTime {
        self.metrics.recovery.program_salvages += 1;
        self.metrics.blocks_retired += 1;
        let geom = &self.cfg.flash.geometry;
        let block_idx = geom.block_index(geom.block_of(addr));
        // retire FIRST so relocations below can never target this block
        self.dir.retire(lun, block_idx);
        self.upcalls.push(Upcall::BlockRetired { at: t });
        // taken for the walk: GC reaches here mid-walk of its own list
        let mut live = std::mem::take(&mut self.live_scratch);
        self.dir.live_pages_into(lun, block_idx, &mut live);
        let mut end = t;
        for &(a, tag) in &live {
            let old = PhysPage { lun, addr: a };
            let (after_read, _st) = self.op_read(t, old, false, OpCause::WearLevel, None);
            end = end.max(after_read);
            let Some(np) = self.dir.next_page(lun, Stream::Gc, self.cfg.wear_aware) else {
                break; // out of space: page stays readable on the retired block
            };
            match self.op_program(after_read, np.phys, tag.0, false, OpCause::WearLevel) {
                Ok(done) => {
                    end = end.max(done);
                    self.rehome(tag, old, np.phys, t);
                }
                // nested failure: leave the page where it is
                Err(failed) => end = end.max(failed),
            }
        }
        self.live_scratch = live;
        end
    }

    /// `tag`'s page now lives at `new`: swap the directory entry and tell
    /// the host, always together — a page moved in silence is a page the
    /// host can no longer name.
    fn rehome(&mut self, tag: Lpn, old: PhysPage, new: PhysPage, at: SimTime) {
        self.dir.invalidate(old);
        // RAM residency is by physical page: it does not follow the move
        self.buffer.discard(self.flat_page(old));
        self.dir.mark_valid(new, tag);
        self.upcalls.push(Upcall::Migrated {
            tag: tag.0,
            old: PhysName {
                lun: old.lun,
                addr: old.addr,
            },
            new: PhysName {
                lun: new.lun,
                addr: new.addr,
            },
            at,
        });
    }

    /// Read one flash page, running the recovery pipeline when the ECC
    /// gives up: read-retry ladder → soft-decode escalation → XOR parity
    /// rebuild across the LUN stripe. `tag` enables the nameless
    /// device's signature move: a successful parity rebuild rewrites the
    /// page at a fresh location and *tells the host* via
    /// [`Upcall::Migrated`] (pass `None` on GC relocation reads, which
    /// re-home the page themselves). Returns the completion instant and
    /// how hard the device had to work for it.
    fn op_read(
        &mut self,
        not_before: SimTime,
        phys: PhysPage,
        with_transfer: bool,
        cause: OpCause,
        tag: Option<u64>,
    ) -> (SimTime, IoStatus) {
        let chan = self.cfg.shape.channel_of(phys.lun) as usize;
        let li = phys.lun.0 as usize;
        let occ = Occupant::from(cause);
        // command cycles are latency, not bus occupancy (see requiem-ssd)
        let cmd_done = not_before + self.cfg.channel.command;
        self.metrics.flash_reads.bump(cause);
        let finish = |slf: &mut Self, from: SimTime, status: IoStatus| {
            if with_transfer {
                let xfer = slf.cfg.flash.geometry.page_size;
                let xfer = slf.cfg.channel.transfer(xfer);
                let xg = slf.sched.reserve_chan(chan, from, xfer, occ);
                slf.sched.emit_chan_transfer_spans(chan, from, xg);
                (xg.end, status)
            } else {
                (from, status)
            }
        };
        match self.luns[li].read(phys.addr) {
            Ok(o) => {
                let lg = self.sched.lun_res[li].reserve_tagged(cmd_done, o.duration, occ);
                self.sched
                    .emit_flash_op_spans(chan, li, not_before, cmd_done, lg, Cause::CellRead);
                finish(self, lg.end, IoStatus::Ok)
            }
            Err(FlashError::UncorrectableRead { .. }) => {
                self.metrics.uncorrectable_reads += 1;
                // The ladder below reports itself as the command span and
                // one aggregate `Recovery` span, emitted directly: the
                // block controller's emitters put out a wait + cell span
                // per rung, a different stream for the same instants
                self.sched.probe().span(
                    Layer::Channel,
                    Cause::Command,
                    self.sched.chan_res[chan].name(),
                    not_before,
                    cmd_done,
                );
                // the failed sense still occupied the chip
                let lg = self.sched.lun_res[li].reserve_tagged(
                    cmd_done,
                    self.cfg.flash.timing.read,
                    occ,
                );
                let mut cursor = lg.end;
                let t_read = self.cfg.flash.timing.read;
                let mut steps = 0u32;
                let mut recovered = false;
                let mut rebuilt = false;
                // stage 1: read-retry ladder (shifted reference voltages)
                for derate in [0.6, 0.35, 0.2] {
                    steps += 1;
                    self.metrics.recovery.retry_attempts += 1;
                    self.metrics.flash_reads.bump(OpCause::Recovery);
                    let g =
                        self.sched.lun_res[li].reserve_tagged(cursor, t_read, Occupant::Recovery);
                    cursor = g.end;
                    if self.luns[li].recovery_read(phys.addr, derate, 1.0).is_ok() {
                        self.metrics.recovery.retry_recovered += 1;
                        recovered = true;
                        break;
                    }
                }
                // stage 2: soft-decode escalation (stronger ECC mode)
                if !recovered {
                    steps += 1;
                    self.metrics.recovery.ecc_escalations += 1;
                    self.metrics.flash_reads.bump(OpCause::Recovery);
                    let g = self.sched.lun_res[li].reserve_tagged(
                        cursor,
                        t_read * 4,
                        Occupant::Recovery,
                    );
                    cursor = g.end;
                    if self.luns[li].recovery_read(phys.addr, 0.5, 1.5).is_ok() {
                        self.metrics.recovery.ecc_recovered += 1;
                        recovered = true;
                    }
                }
                // stage 3: XOR parity rebuild across the LUN stripe
                let nluns = self.luns.len();
                if !recovered && nluns > 1 {
                    self.metrics.recovery.parity_rebuilds += 1;
                    let rb_start = cursor;
                    let mut rb_end = cursor;
                    for peer in 0..nluns {
                        if peer == li {
                            continue;
                        }
                        steps += 1;
                        self.metrics.recovery.rebuild_page_reads += 1;
                        self.metrics.flash_reads.bump(OpCause::Recovery);
                        let g = self.sched.lun_res[peer].reserve_tagged(
                            rb_start,
                            t_read,
                            Occupant::Recovery,
                        );
                        rb_end = rb_end.max(g.end);
                    }
                    cursor = rb_end;
                    // the XOR of the stripe is the page as stored
                    recovered = true;
                    rebuilt = true;
                }
                self.metrics.recovery.recovery_time += cursor.since(lg.end);
                self.sched.probe().span(
                    Layer::Flash,
                    Cause::Recovery,
                    self.sched.lun_res[li].name(),
                    lg.end,
                    cursor,
                );
                if !recovered {
                    self.metrics.recovery.unrecoverable += 1;
                    return finish(self, cursor, IoStatus::Unrecoverable);
                }
                // a rebuilt page sits on dying media: re-home it and tell
                // the host its new name (block FTLs do this silently —
                // the nameless interface has a channel to say so)
                if rebuilt {
                    if let Some(t) = tag {
                        if let Some(np) =
                            self.dir
                                .next_page(phys.lun, Stream::Gc, self.cfg.wear_aware)
                        {
                            if self
                                .op_program(cursor, np.phys, t, false, OpCause::Recovery)
                                .is_ok()
                            {
                                self.metrics.recovery.rebuild_relocations += 1;
                                self.rehome(Lpn(t), phys, np.phys, cursor);
                            }
                        }
                    }
                }
                finish(self, cursor, IoStatus::RecoveredAfterRetry { steps })
            }
            Err(e) => unreachable!("nameless controller bug: illegal read: {e}"),
        }
    }

    fn maybe_gc(&mut self, lun: LunId, t: SimTime) {
        if self.gc_active {
            return;
        }
        // GC runs on device time off the host command's critical path:
        // its spans are background (`cmd: None`); its cost reaches host
        // commands only as occupant-blamed queueing delay (`GcStall`).
        let _bg = self.sched.probe().background();
        self.gc_active = true;
        let mut guard = self.cfg.flash.geometry.total_blocks();
        while self.dir.free_blocks(lun) <= self.cfg.gc.free_block_threshold && guard > 0 {
            guard -= 1;
            let Some(victim) = self.dir.pick_victim(lun, self.cfg.gc.policy) else {
                break;
            };
            self.gc_collect(lun, victim, t);
        }
        self.gc_active = false;
    }

    /// Allocate a page on `lun` and program it, salvaging and retrying
    /// on a failed program. `Err` when the device is out of space, with
    /// the instant it gave up: `t` when the first allocation found
    /// nothing, else the end of the last failed program or salvage.
    fn program_retrying(
        &mut self,
        t: SimTime,
        lun: LunId,
        stream: Stream,
        tag: u64,
        use_channel: bool,
        cause: OpCause,
    ) -> Result<(PhysPage, SimTime), SimTime> {
        let mut gave_up = t;
        let tries = self.luns.len() * 4;
        for _ in 0..tries {
            let Some(np) = self.dir.next_page(lun, stream, self.cfg.wear_aware) else {
                break;
            };
            match self.op_program(t, np.phys, tag, use_channel, cause) {
                Ok(end) => return Ok((np.phys, end)),
                Err(failed) => {
                    let salvaged = self.salvage_and_retire(np.phys.lun, np.phys.addr, t);
                    gave_up = gave_up.max(failed).max(salvaged);
                }
            }
        }
        Err(gave_up)
    }

    fn gc_collect(&mut self, lun: LunId, victim: u32, t: SimTime) {
        self.metrics.gc_runs += 1;
        let mut live = std::mem::take(&mut self.live_scratch);
        self.dir.live_pages_into(lun, victim, &mut live);
        for &(addr, tag) in &live {
            let old = PhysPage { lun, addr };
            let copyback = self.cfg.gc.copyback;
            let (after_read, _st) = self.op_read(t, old, !copyback, OpCause::Gc, None);
            let Ok((newphys, _end)) =
                self.program_retrying(after_read, lun, Stream::Gc, tag.0, !copyback, OpCause::Gc)
            else {
                // worn-out device: leave the page where it is
                continue;
            };
            self.metrics.gc_pages_moved += 1;
            // the peer-to-peer message: tell the host where its page went
            self.rehome(tag, old, newphys, t);
        }
        self.live_scratch = live;
        // erase the victim
        let baddr = self.cfg.flash.geometry.block_from_index(victim);
        let cmd_done = t + self.cfg.channel.command;
        match self.luns[lun.0 as usize].erase(baddr) {
            Ok(o) => {
                self.sched.lun_res[lun.0 as usize].reserve_tagged(
                    cmd_done,
                    o.duration,
                    Occupant::Gc,
                );
                self.metrics.flash_erases.bump(OpCause::Gc);
                self.dir.recycle(lun, victim);
            }
            Err(FlashError::EraseFailed { .. }) => {
                self.sched.lun_res[lun.0 as usize].reserve_tagged(
                    cmd_done,
                    self.cfg.flash.timing.erase,
                    Occupant::Gc,
                );
                self.metrics.blocks_retired += 1;
                self.dir.retire(lun, victim);
                self.upcalls.push(Upcall::BlockRetired { at: t });
            }
            Err(e) => unreachable!("nameless controller bug: illegal erase: {e}"),
        }
    }

    /// Write a page; the device picks the location and returns its name.
    /// `tag` is an opaque host identifier stored out-of-band (and echoed
    /// in migration upcalls): any value but `u64::MAX`, which is what the
    /// directory keeps for a page that holds nothing.
    pub fn write(&mut self, now: SimTime, tag: u64) -> Result<NamelessCompletion, NamelessError> {
        self.metrics.host_writes += 1;
        self.sched.note_submit(now);
        let scope = self.sched.probe().open_command("write", now);
        let link = self.sched.reserve_link(now, self.host_link_time());
        let t = link.end + self.cfg.controller_overhead;
        self.sched.emit_host_link_spans(now, link);
        self.span_overhead(link.end, t);
        let salvages_before = self.metrics.recovery.program_salvages;
        let probe = self.sched.probe().clone();
        let mut placed = None;
        let admitted = buffer::admit(
            self,
            |dev| &mut dev.buffer,
            probe,
            t,
            |dev, start| {
                let lun = dev
                    .rotation
                    .least_loaded(start, &dev.sched.lun_res, &dev.dir);
                dev.maybe_gc(lun, start);
                dev.program_retrying(start, lun, Stream::Host, tag, true, OpCause::Host)
                    .map(|(phys, end)| {
                        dev.dir.mark_valid(phys, Lpn(tag));
                        placed = Some(phys);
                        (dev.flat_page(phys), end)
                    })
            },
        );
        let (phys, done) = match (admitted, placed) {
            (Ok(done), Some(phys)) => (phys, done),
            // refused with the page in hand and no place for it: the
            // link transfer and the command overhead are spent (on
            // healthy media `at` is the instant the controller looked for
            // a place and those are exactly the spans on the record), and
            // so are the failed programs and salvages, if any, that came
            // before giving up
            (Err(at), _) => {
                scope.close(at);
                return Err(NamelessError::DeviceFull { at });
            }
            (Ok(_), None) => unreachable!("nameless controller bug: acknowledged an unplaced page"),
        };
        let latency = done.since(now);
        self.metrics.write_latency.record_duration(latency);
        let salvages = (self.metrics.recovery.program_salvages - salvages_before) as u32;
        let status = if salvages > 0 {
            IoStatus::RecoveredAfterRetry { steps: salvages }
        } else {
            IoStatus::Ok
        };
        scope.close(done);
        self.sched.probe().note_status(status.as_str());
        Ok(NamelessCompletion {
            name: PhysName {
                lun: phys.lun,
                addr: phys.addr,
            },
            done,
            latency,
            status,
        })
    }

    /// Read the page at `name`, verifying it still holds `tag`'s data.
    /// The third element reports how the media fared: clean, recovered
    /// (a parity rebuild re-homes the page and queues a
    /// [`Upcall::Migrated`] naming the new location), or unrecoverable.
    pub fn read(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<(SimTime, SimDuration, IoStatus), NamelessError> {
        self.metrics.host_reads += 1;
        self.sched.note_submit(now);
        let phys = PhysPage {
            lun: name.lun,
            addr: name.addr,
        };
        if self.dir.backptr(phys) != Some(Lpn(tag)) {
            return Err(NamelessError::StaleName { name });
        }
        let scope = self.sched.probe().open_command("read", now);
        let t = now + self.cfg.controller_overhead;
        self.span_overhead(now, t);
        let (ready, status) = if self.buffer.read_hit(self.flat_page(phys), t) {
            // still mid-flush: the image is in RAM, no flash op
            self.metrics.buffer_read_hits += 1;
            self.sched
                .probe()
                .span(Layer::Buffer, Cause::BufferHit, "wbuf", t, t);
            (t, IoStatus::Ok)
        } else {
            self.op_read(t, phys, true, OpCause::Host, Some(tag))
        };
        let out = self.sched.reserve_link(ready, self.host_link_time());
        self.sched.emit_host_link_spans(ready, out);
        scope.close(out.end);
        self.sched.probe().note_status(status.as_str());
        let latency = out.end.since(now);
        self.metrics.read_latency.record_duration(latency);
        Ok((out.end, latency, status))
    }

    /// Free the page at `name` (the trim analog — but exact, since the
    /// host speaks in physical names).
    pub fn free(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<SimTime, NamelessError> {
        self.metrics.host_trims += 1;
        let phys = PhysPage {
            lun: name.lun,
            addr: name.addr,
        };
        if self.dir.backptr(phys) != Some(Lpn(tag)) {
            return Err(NamelessError::StaleName { name });
        }
        self.dir.invalidate(phys);
        self.buffer.discard(self.flat_page(phys));
        let done = now + self.cfg.controller_overhead;
        let scope = self.sched.probe().open_command("free", now);
        self.span_overhead(now, done);
        scope.close(done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_ssd::config::GcPolicyKind;
    use std::collections::HashMap;

    fn device() -> NamelessSsd {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        NamelessSsd::new(NamelessConfig::from(&base))
    }

    #[test]
    fn write_returns_name_and_read_round_trips() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let (done, lat, status) = d.read(w.done, w.name, 42).unwrap();
        assert!(done > w.done);
        assert!(lat > SimDuration::ZERO);
        assert_eq!(status, IoStatus::Ok);
    }

    #[test]
    fn wrong_tag_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let err = d.read(w.done, w.name, 43).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn free_then_read_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 7).unwrap();
        let t = d.free(w.done, w.name, 7).unwrap();
        let err = d.read(t, w.name, 7).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn no_mapping_table_ram() {
        let d = device();
        assert_eq!(d.mapping_table_bytes(), 0);
        // versus the page-mapped FTL on the same hardware:
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        assert!(base.mapping_table_bytes() > 50_000);
    }

    /// Fill 80 % of raw capacity, then rewrite scattered tags for twice
    /// that many writes — past raw capacity, at a utilization where GC
    /// victims cannot be fully dead — keeping the host-side index (tag →
    /// name, exactly what a DB's page table is) patched from upcalls.
    fn churn(d: &mut NamelessSsd) -> (HashMap<u64, PhysName>, SimTime) {
        fn patch(d: &mut NamelessSsd, index: &mut HashMap<u64, PhysName>) {
            for u in d.upcalls().drain() {
                if let Upcall::Migrated { tag, new, .. } = u {
                    index.insert(tag, new);
                }
            }
        }
        let mut index: HashMap<u64, PhysName> = HashMap::new();
        let raw_pages: u64 = 4 * d.config().flash.geometry.total_pages();
        let live_set = raw_pages * 8 / 10;
        let mut t = SimTime::ZERO;
        for tag in 0..live_set {
            let w = d.write(t, tag).unwrap();
            t = w.done;
            index.insert(tag, w.name);
        }
        // scattered rewrites spread invalid pages thinly over blocks,
        // forcing GC to relocate live neighbours
        let mut x = 12345u64;
        for step in 0..(live_set * 2) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tag = x % live_set;
            // old version may have migrated; drain upcalls first
            patch(d, &mut index);
            let cur = index[&tag];
            d.free(t, cur, tag).expect("free of current name");
            let w = d
                .write(t, tag)
                .unwrap_or_else(|e| panic!("step {step} tag {tag}: {e}"));
            t = w.done;
            index.insert(tag, w.name);
        }
        patch(d, &mut index);
        (index, t)
    }

    #[test]
    fn gc_migrations_emit_upcalls_and_host_stays_consistent() {
        let mut d = device();
        let (index, mut t) = churn(&mut d);
        assert!(d.metrics().gc_runs > 0, "churn must trigger GC");
        assert!(d.upcalls().delivered() > 0, "GC must have migrated pages");
        // every tag readable at its current name
        for (tag, name) in index {
            let r = d.read(t, name, tag);
            assert!(r.is_ok(), "tag {tag} unreadable at {name:?}");
            t = r.unwrap().0;
        }
    }

    #[test]
    fn nameless_collector_honours_the_configured_policy() {
        // same churn, different `gc.policy` ⇒ different GC traffic: the
        // collector reads the configuration it was built from
        let run = |policy| {
            let mut base = SsdConfig::modern();
            base.shape.channels = 2;
            base.shape.chips_per_channel = 2;
            base.gc.policy = policy;
            let mut d = NamelessSsd::new(NamelessConfig::from(&base));
            assert_eq!(d.config().gc.policy, policy);
            churn(&mut d);
            let m = d.metrics();
            assert!(m.gc_runs > 0, "churn must trigger GC");
            (m.gc_pages_moved, m.flash_erases.gc)
        };
        let (greedy, cb) = (run(GcPolicyKind::Greedy), run(GcPolicyKind::CostBenefit));
        assert_ne!(
            greedy, cb,
            "(pages moved, GC erases) identical under greedy and cost-benefit"
        );
    }

    /// From its 100th program on, every LUN fails every program: each
    /// write burns through blocks (failed program, salvage, retire) until
    /// the device has no block left and refuses. The refusal comes after
    /// that work, not at the instant the command reached the controller.
    #[test]
    fn a_write_refused_after_failed_programs_completes_after_them() {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        base.flash.geometry = requiem_flash::Geometry::new(1, 32, 8, 4096);
        for unit in 0..4 {
            base.fault = base.fault.with_program_fail(unit, (100..10_000).collect());
        }
        let mut d = NamelessSsd::new(NamelessConfig::from(&base));
        let probe = Probe::recording();
        d.attach_probe(probe.clone());
        let mut t = SimTime::ZERO;
        let refused_at = (0..1024u64)
            .find_map(|tag| match d.write(t, tag) {
                Ok(w) => {
                    t = w.done;
                    None
                }
                Err(NamelessError::DeviceFull { at }) => Some(at),
                Err(e) => panic!("tag {tag}: {e}"),
            })
            .expect("a device that cannot program must refuse");
        assert!(d.metrics().recovery.program_salvages > 0);
        let reached_controller = t + d.host_link_time() + d.cfg.controller_overhead;
        assert!(
            refused_at >= reached_controller + d.cfg.flash.timing.program(0),
            "refused at {refused_at}, before the failed program could have ended"
        );
        let rec = probe.commands().pop().expect("the refused write");
        assert_eq!((rec.submit, rec.done), (t, Some(refused_at)));
        for e in probe.command_spans(rec.id) {
            assert!(e.end <= refused_at, "span {e:?} outlives the command");
        }
    }

    /// On `SsdConfig::modern()` with 256 tags written and settled, at one
    /// instant: write a fresh tag (its flush programs a chip), read a tag
    /// of that chip (queued behind the program) unless `skip_queued`, then
    /// read a tag of another chip on the same channel. Returns the
    /// program's LUN, the queued read and the last read.
    fn program_then_two_reads(
        skip_queued: bool,
    ) -> (LunId, Option<(SimTime, SimDuration, IoStatus)>, SimTime) {
        const TAGS: u64 = 256;
        let mut d = NamelessSsd::new(NamelessConfig::from(&SsdConfig::modern()));
        let mut t = SimTime::ZERO;
        let names: Vec<PhysName> = (0..TAGS)
            .map(|tag| {
                let w = d.write(t, tag).unwrap();
                t = w.done;
                w.name
            })
            .collect();
        let t = d.drain_time();
        let busy = d.write(t, TAGS).unwrap().name.lun;
        let shape = d.config().shape.clone();
        let tag_on = |want: &dyn Fn(LunId) -> bool| {
            (0..TAGS)
                .find(|&tag| want(names[tag as usize].lun))
                .unwrap()
        };
        let behind = tag_on(&|l| l == busy);
        let beside = tag_on(&|l| l != busy && shape.channel_of(l) == shape.channel_of(busy));
        let queued = (!skip_queued).then(|| d.read(t, names[behind as usize], behind).unwrap());
        let (last, _, _) = d.read(t, names[beside as usize], beside).unwrap();
        (busy, queued, last)
    }

    #[test]
    fn a_read_behind_a_program_does_not_hold_the_channel_or_the_link() {
        let (busy, queued, last) = program_then_two_reads(false);
        let (queued_done, queued_latency, _) = queued.unwrap();
        assert_eq!(busy, LunId(0), "the fresh write's flush programs LUN 0");
        let tprog = SsdConfig::modern().flash.timing.program_mean();
        assert!(queued_latency > tprog / 2, "{queued_latency}");
        // timed exactly as if the queued read had never been issued
        let (_, _, alone) = program_then_two_reads(true);
        assert_eq!(last, alone);
        assert!(last < queued_done);
    }

    #[test]
    fn parallel_writes_stripe_like_an_ftl() {
        let mut d = device();
        let mut names = Vec::new();
        for tag in 0..8u64 {
            names.push(d.write(SimTime::ZERO, tag).unwrap().name);
        }
        let luns: std::collections::HashSet<u32> = names.iter().map(|n| n.lun.0).collect();
        assert!(luns.len() >= 3, "writes should spread over LUNs: {luns:?}");
    }
}
