//! The SSD device: the controller of the paper's Figure 2, in executable
//! form.
//!
//! [`Ssd`] is the *chassis*: it owns the flash LUNs, the scheduler's
//! resource timelines, the block directory, the mapping state, and the
//! write buffer — and exposes exactly the narrow waist the paper
//! critiques: `read(lpn)`, `write(lpn)`, `trim(lpn)` on a flat logical
//! address space. Every controller *decision* lives in the
//! [`crate::controller`] module tree, one module per Figure-2 box:
//!
//! | Figure 2 box                 | Module                                  |
//! |------------------------------|-----------------------------------------|
//! | Scheduling (channels, chips) | `crate::controller::scheduler`          |
//! | Garbage collection           | [`crate::controller::gc`]               |
//! | Wear leveling                | [`crate::controller::wear`]             |
//! | RAM buffer (battery-backed)  | [`crate::controller::write_buffer`]     |
//! | Mapping (block-mapped FTL)   | [`crate::controller::block_ftl`]        |
//! | Mapping (hybrid log-block)   | [`crate::controller::hybrid_ftl`]       |
//! | Boot / recovery              | [`crate::controller::rebuild`]          |
//!
//! Which GC victim policy, wear-leveling thresholds and write-buffer
//! size run is [`SsdConfig`]'s to say (`gc`, `wl`, `buffer`): the modules
//! read the configuration where they decide.
//!
//! The controller serves two address vocabularies. Under a device-held
//! map (the FTLs of [`FtlKind`]) the host names logical pages: `read`,
//! `write`, `trim`. Under a host-held map ([`Ssd::with_host_map`], the
//! nameless device of `requiem-iface`) the host keeps the map itself:
//! `write_named` returns where the page went, `read_named` / `free_named`
//! take that location back, and every move or block retirement the
//! controller makes is recorded as a [`MapEvent`] for the host to hear
//! of. Placement, collection, recovery and timing are the same code
//! under both.
//!
//! Every host command returns a [`Completion`] carrying the virtual-time
//! instant it finished, so experiments can measure the latency/bandwidth
//! behaviour that the block device interface hides. Attaching a
//! [`Probe`] ([`Ssd::attach_probe`]) additionally decomposes each
//! command into per-layer spans — queueing blamed on its cause (GC
//! stall, merge stall, translation traffic), cell time, bus transfers —
//! on the cross-layer observability bus.
//!
//! ## Timing model
//!
//! LUNs are serial FIFO resources ([`requiem_sim::Resource`]); channels and
//! the host link are serial buses whose transfers take the first idle gap
//! they fit ([`requiem_sim::TransferTimeline`]).
//! A page read occupies: channel (command) → LUN (tR) → channel (data out).
//! A page program occupies: channel (command + data in) → LUN (tPROG).
//! An erase occupies: channel (command) → LUN (tBERS). Garbage collection
//! and merges reserve the same resources, which is how GC interference with
//! host reads (myth 3) emerges without being explicitly programmed in.
//!
//! Host commands must be submitted in non-decreasing time order.

use requiem_flash::{Lun, PageAddr, PageState};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, IoStatus, Layer, Probe};

use crate::addr::{ArrayShape, Capacity, Lpn, LunId, PhysPage};
use crate::block_dir::BlockDirectory;
use crate::buffer::WriteBuffer;
use crate::config::{FtlKind, SsdConfig};
use crate::controller::block_ftl::ReplCtx;
use crate::controller::scheduler::{LunRotation, Scheduler};
use crate::controller::GcGate;
use crate::mapping::block::{BlockMap, HybridState};
use crate::mapping::dftl::{DftlMap, TransIo};
use crate::mapping::page::PageMap;
use crate::metrics::{OpCause, SsdMetrics};

/// Errors surfaced by the device API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// The LPN is outside the exported address space.
    LpnOutOfRange {
        /// Offending LPN.
        lpn: Lpn,
        /// Exported page count.
        exported: u64,
    },
    /// The device could not find space even after garbage collection
    /// (worn out or logically over-filled).
    DeviceFull {
        /// The LUN that ran out.
        lun: LunId,
        /// The instant the controller gave up: when it looked for a place,
        /// or when the last program it tried failed.
        at: SimTime,
    },
    /// A wear-induced program failure. Largely internal: `append_page`
    /// catches it, salvages the block, and retries elsewhere; fixed-
    /// offset FTLs collapse it into [`SsdError::DeviceFull`] via
    /// `SsdError::full_on`.
    ProgramFailed {
        /// The page whose program failed.
        phys: PhysPage,
        /// The instant the failed program ended (the chip spent its
        /// program time before reporting the failure).
        at: SimTime,
    },
    /// Under a host-held map: the named page no longer holds the tag the
    /// host presented (the page moved or was freed).
    StaleName {
        /// The page the host named.
        phys: PhysPage,
    },
    /// The controller issued a flash command the chip refused
    /// (out-of-range address, rewrite of a programmed page, erase of a
    /// retired block) — an FTL invariant violation, surfaced as a typed
    /// error instead of a controller panic.
    FlashProtocol {
        /// Which primitive was refused (`"read"`, `"program"`, `"erase"`).
        op: &'static str,
        /// The LUN addressed.
        lun: LunId,
        /// The chip's complaint.
        detail: String,
    },
    /// The request is not supported under the active mapping scheme.
    Unsupported {
        /// What was requested.
        what: &'static str,
    },
}

impl SsdError {
    /// Collapse a wear-induced program failure into `DeviceFull` on
    /// `lun`. Fixed-offset FTL paths (block / hybrid mapping) cannot
    /// retry a failed program at another location, so for them a
    /// program failure *is* exhaustion; every other error passes
    /// through unchanged.
    pub(crate) fn full_on(self, lun: LunId) -> SsdError {
        match self {
            SsdError::ProgramFailed { at, .. } => SsdError::DeviceFull { lun, at },
            e => e,
        }
    }
}

impl std::fmt::Display for SsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsdError::LpnOutOfRange { lpn, exported } => {
                write!(f, "lpn {} out of range (exported {})", lpn.0, exported)
            }
            SsdError::DeviceFull { lun, at } => {
                write!(f, "no usable space left on lun {} (at {at})", lun.0)
            }
            SsdError::ProgramFailed { phys, at } => {
                write!(
                    f,
                    "program failed at {:?} on lun {} ({at})",
                    phys.addr, phys.lun.0
                )
            }
            SsdError::StaleName { phys } => {
                write!(f, "stale name {:?} on lun {}", phys.addr, phys.lun.0)
            }
            SsdError::FlashProtocol { op, lun, detail } => {
                write!(f, "flash {op} refused on lun {} ({detail})", lun.0)
            }
            SsdError::Unsupported { what } => {
                write!(f, "{what} unsupported under the active mapping scheme")
            }
        }
    }
}

impl std::error::Error for SsdError {}

/// Where a host command was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Flash array.
    Flash,
    /// The battery-backed write buffer.
    Buffer,
    /// Nothing to read (never-written page) — controller answers directly.
    Unmapped,
    /// Metadata-only command (trim).
    Controller,
}

/// Completion record of one host command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Instant the command completed.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// What served it.
    pub served: Served,
    /// How the command fared: clean, recovered after the controller's
    /// recovery pipeline ran, or unrecoverable. Commands the device
    /// refuses outright surface as [`SsdError`] instead.
    pub status: IoStatus,
}

/// Result of [`Ssd::power_loss_rebuild`].
#[derive(Debug, Clone, Copy)]
pub struct RebuildReport {
    /// Instant the device is ready to serve I/O again.
    pub ready: SimTime,
    /// Boot-scan duration.
    pub duration: SimDuration,
    /// Pages whose OOB area was scanned.
    pub pages_scanned: u64,
}

pub(crate) enum MappingState {
    Page(PageMap),
    Dftl(DftlMap),
    Block(BlockMap),
    Hybrid(HybridState),
    /// The host holds the map: no table here. Where the page-mapped arms
    /// write a move into their map, this one records it — and every block
    /// retirement — for the host to be told.
    Host(Vec<MapEvent>),
}

/// What the controller did under a host-held map that the host must hear
/// of, in the order it happened ([`Ssd::drain_map_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapEvent {
    /// A live page moved (garbage collection, salvage of a failed block,
    /// re-homing after a parity rebuild): its old location is stale.
    Moved {
        /// The tag the page was written with.
        tag: Lpn,
        /// Where it was.
        old: PhysPage,
        /// Where it is now.
        new: PhysPage,
        /// When the move was issued.
        at: SimTime,
    },
    /// A block was retired (a program or an erase on it failed).
    Retired {
        /// When it happened.
        at: SimTime,
    },
}

/// How one flash read fared in the controller's recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadRecovery {
    /// The first sense decoded cleanly.
    Clean,
    /// Recovered after `steps` recovery actions (retry-ladder rungs,
    /// an ECC escalation, parity-rebuild stripe reads). `rebuilt` marks
    /// recoveries that went all the way to parity reconstruction — the
    /// source page is then suspect and gets relocated.
    Recovered {
        /// Recovery actions on the critical path.
        steps: u32,
        /// Whether the data came from the stripe parity, not the page.
        rebuilt: bool,
    },
    /// The full pipeline failed: the controller has no data to hand on.
    Lost,
}

impl ReadRecovery {
    /// The host-visible status classification.
    pub(crate) fn io_status(self) -> IoStatus {
        match self {
            ReadRecovery::Clean => IoStatus::Ok,
            ReadRecovery::Recovered { steps, .. } => IoStatus::RecoveredAfterRetry { steps },
            ReadRecovery::Lost => IoStatus::Unrecoverable,
        }
    }
}

pub(crate) struct FlashReadDone {
    pub(crate) end: SimTime,
    pub(crate) lun_wait: SimDuration,
    pub(crate) status: ReadRecovery,
}

/// The simulated SSD.
pub struct Ssd {
    pub(crate) cfg: SsdConfig,
    pub(crate) capacity: Capacity,
    pub(crate) luns: Vec<Lun>,
    /// Channel/LUN/host-link timelines and the probe (Figure 2 "Scheduling").
    pub(crate) sched: Scheduler,
    pub(crate) dir: BlockDirectory,
    pub(crate) map: MappingState,
    /// The battery-backed RAM (Figure 2 "RAM"); capacity 0 is
    /// write-through.
    pub(crate) buffer: WriteBuffer,
    pub(crate) metrics: SsdMetrics,
    /// Write placement's LUN order and cursor.
    pub(crate) rotation: LunRotation,
    pub(crate) last_submit: SimTime,
    /// True when several independently-clocked submission streams (per-
    /// core queue pairs) share this device: global submit order is then
    /// not a host invariant — NVMe only fetches *each* SQ in order.
    pub(crate) multi_queue: bool,
    /// Re-entrancy guard: GC triggered from inside GC relocation must not
    /// recurse (the inner allocation falls through to other LUNs instead).
    pub(crate) gc_gate: GcGate,
    /// Open replacement block (block-mapped FTL only).
    pub(crate) repl: Option<ReplCtx>,
    /// Monotonic out-of-band write sequence (power-loss rebuild ordering).
    pub(crate) oob_seq: u64,
    /// Per-channel transient-hiccup schedules from the fault plan:
    /// `(grant index, extra ns)` pairs, sorted. All empty when no plan
    /// is configured, in which case transfer times are untouched.
    pub(crate) chan_hiccups: Vec<Vec<(u64, u64)>>,
    /// The live-page list of the block being collected, migrated or
    /// salvaged (reused from block to block).
    pub(crate) live_scratch: Vec<(PageAddr, Lpn)>,
    /// DFTL translation traffic of the command in hand (likewise reused).
    pub(crate) trans_scratch: Vec<TransIo>,
}

impl std::fmt::Debug for Ssd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ssd")
            .field("luns", &self.luns.len())
            .field("exported_pages", &self.capacity.exported_pages)
            .field("host_reads", &self.metrics.host_reads)
            .field("host_writes", &self.metrics.host_writes)
            .finish()
    }
}

impl Ssd {
    /// Build a device from a configuration; `cfg.ftl` says which map it
    /// keeps.
    pub fn new(cfg: SsdConfig) -> Self {
        let geom = &cfg.flash.geometry;
        let exported = Capacity::derive(&cfg.shape, geom, cfg.op_ratio).exported_pages;
        let ppb = geom.pages_per_block as u64;
        let map = match &cfg.ftl {
            FtlKind::PageMap => MappingState::Page(PageMap::new(exported, &cfg.shape, geom)),
            FtlKind::Dftl { cached_entries } => {
                MappingState::Dftl(DftlMap::new(exported, *cached_entries, &cfg.shape, geom))
            }
            FtlKind::BlockMap => MappingState::Block(BlockMap::new(exported.div_ceil(ppb))),
            FtlKind::Hybrid { log_blocks } => MappingState::Hybrid(HybridState::new(
                exported.div_ceil(ppb),
                *log_blocks as usize,
                geom.pages_per_block,
            )),
        };
        Self::with_map(cfg, map)
    }

    /// Build a device whose map the host holds (nameless writes): no
    /// mapping table whatever `cfg.ftl` says. Address it with
    /// [`write_named`](Self::write_named), [`read_named`](Self::read_named)
    /// and [`free_named`](Self::free_named), and relay
    /// [`drain_map_events`](Self::drain_map_events) to the host.
    pub fn with_host_map(cfg: SsdConfig) -> Self {
        Self::with_map(cfg, MappingState::Host(Vec::new()))
    }

    fn with_map(cfg: SsdConfig, map: MappingState) -> Self {
        let nluns = cfg.total_luns();
        let geom = cfg.flash.geometry.clone();
        let capacity = Capacity::derive(&cfg.shape, &geom, cfg.op_ratio);
        let luns: Vec<Lun> = (0..nluns)
            .map(|i| {
                let mut lun = Lun::new(i, cfg.flash.clone(), cfg.seed);
                lun.apply_faults(cfg.fault.unit_view(i));
                lun
            })
            .collect();
        let chan_hiccups: Vec<Vec<(u64, u64)>> = (0..cfg.shape.channels)
            .map(|c| cfg.fault.channel_view(c))
            .collect();
        Ssd {
            dir: BlockDirectory::new(nluns, geom),
            luns,
            sched: Scheduler::new(nluns, cfg.shape.channels),
            map,
            buffer: WriteBuffer::new(cfg.buffer.capacity_pages as usize),
            metrics: SsdMetrics::new(),
            rotation: LunRotation::new(&cfg.shape),
            capacity,
            cfg,
            last_submit: SimTime::ZERO,
            multi_queue: false,
            gc_gate: GcGate::new(),
            repl: None,
            oob_seq: 0,
            chan_hiccups,
            live_scratch: Vec::new(),
            trans_scratch: Vec::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Capacity accounting.
    pub fn capacity(&self) -> &Capacity {
        &self.capacity
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &SsdMetrics {
        &self.metrics
    }

    /// Erase-count spread across all blocks `(min, max, mean)`.
    pub fn wear_spread(&self) -> (u32, u32, f64) {
        self.dir.erase_count_spread()
    }

    /// Host writes that waited for a write-buffer slot (0 under
    /// write-through).
    pub fn buffer_stalls(&self) -> u64 {
        self.buffer.stalls()
    }

    /// Attach a cross-layer observability probe: every subsequent host
    /// command is decomposed into per-layer spans, with queueing delays
    /// blamed on their cause (GC, wear leveling, merges, translation).
    pub fn attach_probe(&mut self, probe: Probe) {
        self.sched.attach_probe(probe);
    }

    /// The attached probe (a disabled handle when none was attached).
    pub fn probe(&self) -> &Probe {
        &self.sched.probe
    }

    /// The instant every queued operation has drained.
    pub fn drain_time(&self) -> SimTime {
        self.sched.drain_time()
    }

    /// Cumulative busy time of each channel.
    pub fn channel_busy_time(&self) -> Vec<SimDuration> {
        self.sched.chan_res.iter().map(|r| r.busy_time()).collect()
    }

    /// Cumulative busy time of each LUN.
    pub fn lun_busy_time(&self) -> Vec<SimDuration> {
        self.sched.lun_res.iter().map(|r| r.busy_time()).collect()
    }

    /// Utilization of each channel at `horizon`.
    pub fn channel_utilization(&self, horizon: SimTime) -> Vec<f64> {
        self.sched
            .chan_res
            .iter()
            .map(|r| r.utilization(horizon))
            .collect()
    }

    /// Utilization of each LUN at `horizon`.
    pub fn lun_utilization(&self, horizon: SimTime) -> Vec<f64> {
        self.sched
            .lun_res
            .iter()
            .map(|r| r.utilization(horizon))
            .collect()
    }

    /// Free blocks per LUN (diagnostics).
    pub fn free_blocks_per_lun(&self) -> Vec<u32> {
        (0..self.cfg.total_luns())
            .map(|i| self.dir.free_blocks(LunId(i)))
            .collect()
    }

    /// DFTL cache statistics `(hits, misses, dirty evictions)` if the
    /// device runs DFTL.
    pub fn dftl_stats(&self) -> Option<(u64, u64, u64)> {
        match &self.map {
            MappingState::Dftl(m) => Some(m.cache_stats()),
            _ => None,
        }
    }

    pub(crate) fn shape(&self) -> &ArrayShape {
        &self.cfg.shape
    }

    pub(crate) fn page_size(&self) -> u32 {
        self.cfg.flash.geometry.page_size
    }

    pub(crate) fn ppb(&self) -> u32 {
        self.cfg.flash.geometry.pages_per_block
    }

    pub(crate) fn total_luns(&self) -> u32 {
        self.cfg.total_luns()
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), SsdError> {
        if lpn.0 < self.capacity.exported_pages {
            Ok(())
        } else {
            Err(SsdError::LpnOutOfRange {
                lpn,
                exported: self.capacity.exported_pages,
            })
        }
    }

    /// Declare that several independently-clocked submitters (per-core
    /// queue pairs) share this device. Drops the global submit-order
    /// check: each stream must still be internally monotone, but across
    /// streams the controller serializes commands in *arrival* order —
    /// the standard multi-SQ approximation. The bus gaps a late command
    /// could have used are retired at the latest submission all the
    /// same, so replay is still deterministic.
    pub fn relax_submit_order(&mut self) {
        self.multi_queue = true;
    }

    fn note_submit(&mut self, now: SimTime) {
        debug_assert!(
            self.multi_queue || now >= self.last_submit,
            "host commands must be submitted in time order ({now} < {})",
            self.last_submit
        );
        self.last_submit = self.last_submit.max(now);
        self.sched.note_submit(self.last_submit);
    }

    /// Controller-overhead span helper for the host command paths.
    fn span_overhead(&self, from: SimTime, to: SimTime) {
        if self.sched.probe.is_enabled() && to > from {
            self.sched
                .probe
                .span(Layer::Controller, Cause::Overhead, "fw", from, to);
        }
    }

    /// `phys`'s page number across the whole array.
    fn flat_page(&self, phys: PhysPage) -> u64 {
        let geom = &self.cfg.flash.geometry;
        u64::from(phys.lun.0) * geom.total_pages() + geom.ppn(phys.addr).0
    }

    /// The write buffer's key for `lpn`'s page, which sits at `phys` when
    /// that is known. RAM residency is keyed by the handle the host reads
    /// with: the LPN under a device-held map (it keeps its residency
    /// across a move), the physical page under a host-held one (a move
    /// changes the name, and the old name's residency goes with it).
    pub(crate) fn resident_key(&self, lpn: Lpn, phys: Option<PhysPage>) -> u64 {
        match (&self.map, phys) {
            (MappingState::Host(_), Some(phys)) => self.flat_page(phys),
            _ => lpn.0,
        }
    }

    /// `lpn`'s live data moved from `old` to `new`: the directory follows,
    /// and the map learns so — or, when the host holds it, the move is
    /// recorded for the host. Returns where the map had `lpn` (`old`
    /// itself under a host-held map).
    pub(crate) fn remap(
        &mut self,
        lpn: Lpn,
        old: PhysPage,
        new: PhysPage,
        at: SimTime,
    ) -> Option<PhysPage> {
        self.dir.invalidate(old);
        self.dir.mark_valid(&self.luns, new, lpn);
        match &mut self.map {
            MappingState::Page(m) => m.update(lpn, new),
            MappingState::Dftl(m) => m.relocate(lpn, new),
            MappingState::Host(events) => {
                let tag = lpn;
                events.push(MapEvent::Moved { tag, old, new, at });
                // residency is by name: the old name's does not follow
                self.buffer.discard(self.flat_page(old));
                Some(old)
            }
            // fixed-offset FTLs never move a page through here
            MappingState::Block(_) | MappingState::Hybrid(_) => None,
        }
    }

    /// Record `event` for the host, when the host holds the map.
    pub(crate) fn tell_host(&mut self, event: MapEvent) {
        if let MappingState::Host(events) = &mut self.map {
            events.push(event);
        }
    }

    /// What the controller did under a host-held map since the last call,
    /// oldest first (nothing under a device-held map).
    pub fn drain_map_events(&mut self) -> impl Iterator<Item = MapEvent> + '_ {
        let events = match &mut self.map {
            MappingState::Host(events) => Some(events),
            _ => None,
        };
        events.into_iter().flat_map(|events| events.drain(..))
    }

    /// The named commands need the host to hold the map.
    fn host_held(&self) -> Result<(), SsdError> {
        match self.map {
            MappingState::Host(_) => Ok(()),
            _ => Err(SsdError::Unsupported {
                what: "a named command",
            }),
        }
    }

    /// A named command's page must still hold the tag it was written with.
    fn check_named(&self, lpn: Lpn, named: Option<PhysPage>) -> Result<(), SsdError> {
        match named {
            Some(phys) if self.backptr(phys) != Some(lpn) => Err(SsdError::StaleName { phys }),
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // host API
    // ------------------------------------------------------------------

    /// Read one logical page.
    pub fn read(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.check_lpn(lpn)?;
        self.read_at(now, lpn, None)
    }

    /// Under a host-held map: read the page at `phys`, which must still
    /// hold `tag`'s data ([`SsdError::StaleName`] otherwise, before the
    /// device spends anything on it).
    pub fn read_named(
        &mut self,
        now: SimTime,
        phys: PhysPage,
        tag: Lpn,
    ) -> Result<Completion, SsdError> {
        self.host_held()?;
        self.read_at(now, tag, Some(phys))
    }

    /// Read `lpn`'s page, at `named` when the host names it.
    fn read_at(
        &mut self,
        now: SimTime,
        lpn: Lpn,
        named: Option<PhysPage>,
    ) -> Result<Completion, SsdError> {
        self.note_submit(now);
        self.metrics.host_reads += 1;
        self.check_named(lpn, named)?;
        let scope = self.sched.probe.open_command("read", now);
        let t0 = now + self.cfg.controller_overhead;
        self.span_overhead(now, t0);
        // buffer hit?
        if self.buffer.enabled() && self.buffer.read_hit(self.resident_key(lpn, named), t0) {
            self.metrics.buffer_read_hits += 1;
            let out = self.sched.reserve_link(t0, self.cfg.host_link_time());
            if self.sched.probe.is_enabled() {
                self.sched
                    .probe
                    .span(Layer::Buffer, Cause::BufferHit, "wbuf", t0, t0);
            }
            self.sched.emit_host_link_spans(t0, out);
            let latency = out.end.since(now);
            self.metrics.read_latency.record_duration(latency);
            scope.close(out.end);
            return Ok(Completion {
                done: out.end,
                latency,
                served: Served::Buffer,
                status: IoStatus::Ok,
            });
        }
        // resolve mapping
        let (phys, t1) = match named {
            Some(phys) => (Some(phys), t0),
            None => self.resolve_read(lpn, t0),
        };
        if self.sched.probe.is_enabled() && t1 > t0 {
            self.sched
                .probe
                .span(Layer::Mapping, Cause::Translation, "dftl", t0, t1);
        }
        let Some(phys) = phys else {
            self.metrics.unmapped_reads += 1;
            let latency = t1.since(now);
            self.metrics.read_latency.record_duration(latency);
            scope.close(t1);
            return Ok(Completion {
                done: t1,
                latency,
                served: Served::Unmapped,
                status: IoStatus::Ok,
            });
        };
        let done = match self.op_read(t1, phys, true, OpCause::Host) {
            Ok(d) => d,
            Err(e) => {
                scope.abort();
                return Err(e);
            }
        };
        self.metrics.read_lun_wait.record_duration(done.lun_wait);
        let status = done.status.io_status();
        if let ReadRecovery::Recovered { rebuilt: true, .. } = done.status {
            // parity reconstruction read around the page; the page (and
            // its neighbourhood) is suspect — move the data somewhere
            // healthy in the background
            self.relocate_after_rebuild(lpn, phys, done.end);
        }
        self.maybe_scrub(phys, done.end);
        let out = self.sched.reserve_link(done.end, self.cfg.host_link_time());
        self.sched.emit_host_link_spans(done.end, out);
        let latency = out.end.since(now);
        self.metrics.read_latency.record_duration(latency);
        self.sched.probe.note_status(status.as_str());
        scope.close(out.end);
        Ok(Completion {
            done: out.end,
            latency,
            served: Served::Flash,
            status,
        })
    }

    /// Relocate `lpn` off `old` after its data had to be reconstructed
    /// from stripe parity: rewrite the rebuilt payload — from controller
    /// RAM, over the channel — to a fresh location and invalidate the
    /// suspect page. Background work — it does not gate the host
    /// completion. Fixed-offset FTLs (block / hybrid) keep data in place;
    /// their offsets are immovable.
    fn relocate_after_rebuild(&mut self, lpn: Lpn, old: PhysPage, t: SimTime) {
        if matches!(self.map, MappingState::Block(_) | MappingState::Hybrid(_)) {
            return;
        }
        let _bg = self.sched.probe.background();
        let Ok((new, _end)) = self.append_page(
            t,
            old.lun,
            crate::block_dir::Stream::Gc,
            lpn,
            true,
            OpCause::Recovery,
        ) else {
            // no space anywhere: leave the mapping pointing at the
            // suspect page; subsequent reads re-run the pipeline
            return;
        };
        self.remap(lpn, old, new, t);
        self.metrics.recovery.rebuild_relocations += 1;
    }

    /// Resolve the physical location for a read, charging mapping traffic.
    /// Total over every mapping state: no panic path exists.
    fn resolve_read(&mut self, lpn: Lpn, t0: SimTime) -> (Option<PhysPage>, SimTime) {
        if matches!(self.map, MappingState::Dftl(_)) {
            return self.resolve_read_dftl(lpn, t0);
        }
        let phys = match &self.map {
            MappingState::Page(m) => m.lookup(lpn),
            MappingState::Block(_) => self.resolve_read_block(lpn),
            MappingState::Hybrid(_) => self.resolve_read_hybrid(lpn),
            // DFTL is handled above; a host-held map names the page itself
            MappingState::Dftl(_) | MappingState::Host(_) => None,
        };
        (phys, t0)
    }

    /// DFTL lookup: translation-page traffic is on the read's critical
    /// path (the caller attributes `[t0, t1)` as one mapping span).
    fn resolve_read_dftl(&mut self, lpn: Lpn, t0: SimTime) -> (Option<PhysPage>, SimTime) {
        let mut ios = std::mem::take(&mut self.trans_scratch);
        ios.clear();
        let phys = match &mut self.map {
            MappingState::Dftl(m) => m.lookup(lpn, &mut ios),
            // only called under DFTL; any other state resolves to
            // "unmapped" rather than a controller panic
            _ => None,
        };
        let t1 = self.exec_trans(t0, &ios);
        self.trans_scratch = ios;
        (phys, t1)
    }

    /// Write one logical page.
    pub fn write(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.check_lpn(lpn)?;
        self.write_at(now, lpn).map(|(c, _)| c)
    }

    /// Under a host-held map: write one page of host tag `tag` wherever
    /// the controller places it, and return where that is — the name the
    /// host must keep.
    pub fn write_named(
        &mut self,
        now: SimTime,
        tag: Lpn,
    ) -> Result<(PhysPage, Completion), SsdError> {
        self.host_held()?;
        let (c, phys) = self.write_at(now, tag)?;
        // a page map — the host's included — places every page it writes
        phys.map(|phys| (phys, c)).ok_or(SsdError::Unsupported {
            what: "a named write",
        })
    }

    /// Write `lpn`'s page; returns where it went under a page map. A write
    /// the device has no room for completes — on its record — at the
    /// instant the controller gave up.
    fn write_at(
        &mut self,
        now: SimTime,
        lpn: Lpn,
    ) -> Result<(Completion, Option<PhysPage>), SsdError> {
        self.note_submit(now);
        self.metrics.host_writes += 1;
        let scope = self.sched.probe.open_command("write", now);
        let link = self.sched.reserve_link(now, self.cfg.host_link_time());
        self.sched.emit_host_link_spans(now, link);
        let t0 = link.end + self.cfg.controller_overhead;
        self.span_overhead(link.end, t0);
        let salvages_before = self.metrics.recovery.program_salvages;
        let written = match self.map {
            MappingState::Block(_) => self
                .write_block_mapped(t0, lpn)
                .map(|d| (d, Served::Flash, None)),
            MappingState::Hybrid(_) => self.write_hybrid(t0, lpn).map(|d| (d, Served::Flash, None)),
            _ => self
                .write_page_mapped(t0, lpn)
                .map(|(d, s, phys)| (d, s, Some(phys))),
        };
        let (done, served, phys) = match written {
            Ok(v) => v,
            Err(e) => {
                match e {
                    SsdError::DeviceFull { at, .. } => scope.close(at),
                    _ => scope.abort(),
                }
                return Err(e);
            }
        };
        // any program salvage on this command's critical path means the
        // write completed only through the recovery pipeline
        let salvages = (self.metrics.recovery.program_salvages - salvages_before) as u32;
        let status = if salvages > 0 {
            IoStatus::RecoveredAfterRetry { steps: salvages }
        } else {
            IoStatus::Ok
        };
        let latency = done.since(now);
        self.sched.probe.note_status(status.as_str());
        scope.close(done);
        let c = Completion {
            done,
            latency,
            served,
            status,
        };
        Ok((c, phys))
    }

    /// Snapshot of the logical→physical mapping (diagnostics; `None`
    /// under a host-held map, `None` entries for unmapped pages).
    pub fn debug_mapping(&self) -> Option<Vec<Option<PhysPage>>> {
        if matches!(self.map, MappingState::Host(_)) {
            return None;
        }
        Some(
            (0..self.capacity.exported_pages)
                .map(|l| self.mapped(Lpn(l)))
                .collect(),
        )
    }

    /// The LPN — under a host-held map, the host tag — whose live data
    /// `phys` holds, if any: the block directory's valid bit says whether,
    /// the page's out-of-band record on the die says which.
    pub fn backptr(&self, phys: PhysPage) -> Option<Lpn> {
        self.dir.backptr(&self.luns, phys)
    }

    /// Where the map has `lpn`, asking nothing of the flash: `None` under
    /// a host-held map. The one diagnostic lookup (`debug_mapping`,
    /// `audit_metadata`).
    fn mapped(&self, lpn: Lpn) -> Option<PhysPage> {
        match &self.map {
            MappingState::Page(m) => m.lookup(lpn),
            MappingState::Dftl(m) => m.peek(lpn),
            MappingState::Block(_) => self.resolve_read_block(lpn),
            MappingState::Hybrid(_) => self.resolve_read_hybrid(lpn),
            MappingState::Host(_) => None,
        }
    }

    /// Check that the controller's per-page metadata and the flash agree
    /// (diagnostics for tests): each block's live-page count equals its
    /// valid bits, no valid bit sits on an erased page, and under a
    /// device-held map every mapped LPN's page is valid with an
    /// out-of-band record naming that LPN, and no other page is valid.
    /// Returns the number of live pages, or the first disagreement.
    pub fn audit_metadata(&self) -> Result<u64, String> {
        let geom = &self.cfg.flash.geometry;
        let mut live = 0u64;
        for l in 0..self.total_luns() {
            let lun = LunId(l);
            for block in geom.blocks() {
                let mut bits = 0u32;
                for addr in geom.pages_of(block) {
                    let phys = PhysPage { lun, addr };
                    if !self.dir.is_valid(phys) {
                        continue;
                    }
                    bits += 1;
                    if self.luns[l as usize].page_state(addr) == PageState::Free {
                        return Err(format!("valid bit on erased page {phys:?}"));
                    }
                }
                let valid = self.dir.block_info(lun, geom.block_index(block)).valid;
                if valid != bits {
                    return Err(format!(
                        "lun {l} block {block}: {valid} live pages counted, {bits} valid bits"
                    ));
                }
                live += u64::from(bits);
            }
        }
        if matches!(self.map, MappingState::Host(_)) {
            return Ok(live);
        }
        let mut mapped = 0u64;
        for lpn in (0..self.capacity.exported_pages).map(Lpn) {
            let Some(phys) = self.mapped(lpn) else {
                continue;
            };
            mapped += 1;
            if self.backptr(phys) != Some(lpn) {
                return Err(format!(
                    "{lpn:?} mapped to {phys:?}, which holds {:?} (valid: {})",
                    self.luns[phys.lun.0 as usize].payload(phys.addr),
                    self.dir.is_valid(phys)
                ));
            }
        }
        if mapped != live {
            return Err(format!("{mapped} mapped LPNs, {live} valid pages"));
        }
        Ok(live)
    }

    /// Trim (unmap) one logical page — the command the paper highlights as
    /// the first crack in the block interface.
    pub fn trim(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.check_lpn(lpn)?;
        self.trim_at(now, lpn, None, "trim")
    }

    /// Under a host-held map: free the page at `phys`, which must still
    /// hold `tag`'s data — the trim analog, exact because the host speaks
    /// in physical names.
    pub fn free_named(
        &mut self,
        now: SimTime,
        phys: PhysPage,
        tag: Lpn,
    ) -> Result<Completion, SsdError> {
        self.host_held()?;
        self.trim_at(now, tag, Some(phys), "free")
    }

    /// Release `lpn`'s page, at `named` when the host names it; the
    /// command is recorded on the probe as `kind`.
    fn trim_at(
        &mut self,
        now: SimTime,
        lpn: Lpn,
        named: Option<PhysPage>,
        kind: &'static str,
    ) -> Result<Completion, SsdError> {
        self.note_submit(now);
        self.metrics.host_trims += 1;
        self.check_named(lpn, named)?;
        let scope = self.sched.probe.open_command(kind, now);
        let done = now + self.cfg.controller_overhead;
        self.span_overhead(now, done);
        if self.buffer.enabled() {
            self.buffer.discard(self.resident_key(lpn, named));
        }
        match self.map {
            MappingState::Block(_) => self.trim_block(lpn),
            MappingState::Hybrid(_) => self.trim_hybrid(lpn),
            _ => self.trim_page_mapped(done, lpn, named),
        }
        let latency = done.since(now);
        scope.close(done);
        Ok(Completion {
            done,
            latency,
            served: Served::Controller,
            status: IoStatus::Ok,
        })
    }

    /// Trim under a page map — the device's or the host's, whose `named`
    /// page it is; the DFTL translation write-back does not gate the
    /// completion, so it is charged as background.
    fn trim_page_mapped(&mut self, done: SimTime, lpn: Lpn, named: Option<PhysPage>) {
        let mut ios = std::mem::take(&mut self.trans_scratch);
        ios.clear();
        let old = match &mut self.map {
            MappingState::Page(m) => m.unmap(lpn),
            MappingState::Dftl(m) => m.unmap(lpn, &mut ios),
            MappingState::Host(_) => named,
            // only called for page maps; elsewhere a trim of an unknown
            // page is a no-op, not a controller panic
            _ => None,
        };
        if !ios.is_empty() {
            let _bg = self.sched.probe.background();
            self.exec_trans(done, &ios);
        }
        self.trans_scratch = ios;
        if let Some(old) = old {
            self.dir.invalidate(old);
        }
    }
}
