//! The synchronous-persistence boundary: `WalBackend`.
//!
//! The paper's principle P1 (§3) says the two persistence patterns
//! deserve two *paths*: synchronous persistence (log forces) belongs on
//! byte-addressable PCM on the memory bus, while page data streams
//! asynchronously to flash. Before this split, log durability was a side
//! effect of the page backend —
//! [`PersistenceBackend`](crate::backend::PersistenceBackend) carried
//! `log_force`, `truncate_log` and `log_read` next to the page I/O, and
//! every backend duplicated the circular-tail force loop.
//!
//! [`WalBackend`] extracts that path. The engine's group-commit ledger
//! talks exclusively to it; page backends do page I/O only. Two
//! implementations:
//!
//! * [`FlashWal`] — today's path. One generic force/truncate/scan engine
//!   over a [`LogDevice`] *port* onto the page backend's own device
//!   ([`StackLog`] — the block stack, bare or not — and the nameless
//!   port in [`coop`](crate::coop)). Sharing the device is load-bearing:
//!   the stacked-log pathology E13/E14 measure — the FTL dragging dead
//!   WAL segments through GC — only exists because log and data compete
//!   for the same flash.
//! * [`PcmWal`] — the vision path. Commit records persist byte-granular
//!   into a [`PcmDimm`] (line writes + persist barrier, Start-Gap wear
//!   accrual); no 4 KiB rounding, no flash program, no collector to
//!   inform at truncation.
//!
//! The force protocol is append/force-to-LSN: record byte costs are
//! enlisted with [`WalBackend::append`] as the engine's ledger admits
//! them, and [`WalBackend::force`] drains every enlisted record at or
//! below the horizon in one device interaction — exactly the byte stream
//! the old fused API produced, so the QD-1 identity anchor survives the
//! split.

use std::cell::RefCell;
use std::rc::Rc;

use requiem_block::IoStack;
use requiem_pcm::{PcmDimm, PcmTiming, WearSnapshot};
use requiem_sim::time::SimTime;
use requiem_sim::{Cause, IoClass, IoRequest, IoStatus};
use requiem_ssd::Ssd;

use crate::backend::worse_status;
use crate::page::PAGE_SIZE;
use crate::wal::Lsn;

/// I/O issued by a WAL backend, by class. These counters moved here from
/// `BackendStats` when the log path split off the page path.
#[derive(Debug, Default, Clone)]
pub struct WalStats {
    /// Forces that reached the device (an empty drain costs nothing and
    /// is not counted).
    pub log_forces: u64,
    /// Bytes of log forced durable (cumulative — the engine's truncation
    /// horizon is computed from this).
    pub log_bytes: u64,
    /// WAL segment images written to flash (0 for PCM: byte-granular
    /// persists write no page image). Counts toward the end-to-end
    /// write-amplification denominator.
    pub logical_writes: u64,
    /// Segments released by checkpoint truncation.
    pub log_trims: u64,
}

/// Completion of a [`WalBackend::force`]: when the log became durable and
/// the typed media status of the writes that made it so.
///
/// Its fields are private: [`WalForce::settle`] is the one way to the
/// instant, and it hands a failure to the caller as an `Err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a dropped force hides whether the log became durable"]
pub struct WalForce {
    done: SimTime,
    status: IoStatus,
}

impl WalForce {
    /// A force that ended at `done` with the combined `status` of its
    /// device writes: what a [`WalBackend`] implementation returns.
    pub fn new(done: SimTime, status: IoStatus) -> Self {
        WalForce { done, status }
    }

    /// The instant the log is durable up to the requested LSN (the
    /// committer waits until here), or the failure: a force whose device
    /// writes failed did *not* establish durability.
    pub fn settle(self) -> Result<SimTime, ForceFailed> {
        if self.status.is_success() {
            Ok(self.done)
        } else {
            Err(ForceFailed {
                done: self.done,
                status: self.status,
            })
        }
    }
}

/// A [`WalForce`] whose device writes failed: the time was spent, the
/// durability was not established. The engine counts it
/// ([`EngineStats::wal_force_failures`](crate::engine::EngineStats)) and still
/// moves its durable horizon past the records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForceFailed {
    /// When the failed force ended.
    pub done: SimTime,
    /// The failing combined status (rejected or unrecoverable).
    pub status: IoStatus,
}

/// The synchronous-persistence service: where log durability comes from.
///
/// Object-safe — the engine holds a `Box<dyn WalBackend>` so the page
/// backend type does not leak a second type parameter.
pub trait WalBackend {
    /// Enlist one record's force-accounting cost: `lsn` is its WAL
    /// position, `bytes` what a force must pay for it. RAM bookkeeping —
    /// free, no clock.
    fn append(&mut self, lsn: Lsn, bytes: u32);

    /// Make every enlisted record at or below `to` durable; returns the
    /// completion carrying the typed status. Synchronous — the committer
    /// waits until the instant [`WalForce::settle`] yields. Draining
    /// nothing is free.
    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce;

    /// Checkpoint truncation: every log byte below `up_to_byte` is
    /// outside the redo horizon and will never be read again — release
    /// the segments that carried them (TRIM on a block device, exact
    /// name frees on a nameless one, nothing on PCM: no collector to
    /// inform). Background work: the caller's clock does not advance.
    fn truncate(&mut self, now: SimTime, up_to_byte: u64);

    /// Synchronous read of `bytes` of durable log starting at byte
    /// `offset` (restart recovery and media-recovery rebuilds). Returns
    /// the completion instant and the combined media status.
    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus);

    /// Traffic statistics.
    fn stats(&self) -> &WalStats;

    /// Short label for reports.
    fn label(&self) -> &'static str;

    /// Probe cause the engine charges a commit's force span to:
    /// [`Cause::Transfer`] for a block-device log, [`Cause::PcmPersist`]
    /// for byte-granular memory-bus persistence.
    fn force_cause(&self) -> Cause {
        Cause::Transfer
    }

    /// Wear state of the log medium, for backends that track it (PCM).
    fn wear(&self) -> Option<WearSnapshot> {
        None
    }
}

// ---------------------------------------------------------------------
// FlashWal: the one force loop, generic over a log-device port
// ---------------------------------------------------------------------

/// A port giving [`FlashWal`] segment-granular access to the device the
/// page backend already owns. `seg` is the *absolute* segment index
/// (never wraps); block ports fold it onto the circular LBA range,
/// the nameless port uses it as the write tag.
pub trait LogDevice {
    /// Write one log segment image; returns the completion.
    fn write_seg(&mut self, now: SimTime, seg: u64) -> (SimTime, IoStatus);

    /// Read one log segment, or `None` when the segment no longer exists
    /// on the device (truncated/retired — a scan skips it for free).
    fn read_seg(&mut self, now: SimTime, seg: u64) -> Option<(SimTime, IoStatus)>;

    /// Release one dead segment (background); true when the device
    /// actually held it.
    fn trim_seg(&mut self, now: SimTime, seg: u64) -> bool;

    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// The flash WAL: today's path, extracted. The circular-tail force loop
/// (rewrite the tail segment on every force — the classic small-
/// synchronous-write problem — spill full segments) and the lap-aware
/// truncation exist exactly once, here; the [`LogDevice`] port decides
/// what a segment write costs.
pub struct FlashWal<D: LogDevice> {
    dev: D,
    /// Circular log capacity in segments.
    log_pages: u64,
    /// Absolute byte tail (never wraps).
    log_tail: u64,
    /// Absolute segment index below which truncation already released
    /// the log.
    log_trimmed: u64,
    /// Enlisted, not-yet-forced records: `(lsn, force_bytes)`, in append
    /// (= LSN) order.
    pending: Vec<(Lsn, u32)>,
    stats: WalStats,
}

impl<D: LogDevice> FlashWal<D> {
    /// A WAL over `log_pages` circular segments of `dev`.
    pub fn new(dev: D, log_pages: u64) -> Self {
        FlashWal {
            dev,
            log_pages: log_pages.max(1),
            log_tail: 0,
            log_trimmed: 0,
            pending: Vec::new(),
            stats: WalStats::default(),
        }
    }
}

impl<D: LogDevice> WalBackend for FlashWal<D> {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        // non-strict: a steal force enlists its cost at `next_lsn`, and
        // the next record appended lands at that same byte offset
        debug_assert!(
            self.pending.last().map(|&(l, _)| l <= lsn).unwrap_or(true),
            "WAL appends must arrive in LSN order"
        );
        self.pending.push((lsn, bytes));
    }

    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        let mut bytes: u64 = 0;
        self.pending.retain(|&(lsn, b)| {
            if lsn <= to {
                bytes += u64::from(b);
                false
            } else {
                true
            }
        });
        if bytes == 0 {
            // everything at the horizon is already durable
            return WalForce::new(now, IoStatus::Ok);
        }
        self.stats.log_forces += 1;
        self.stats.log_bytes += bytes;
        let mut remaining = bytes;
        let mut t = now;
        let mut status = IoStatus::Ok;
        loop {
            let seg = self.log_tail / PAGE_SIZE as u64;
            let room = PAGE_SIZE as u64 - (self.log_tail % PAGE_SIZE as u64);
            let taken = remaining.min(room);
            self.stats.logical_writes += 1;
            let (done, st) = self.dev.write_seg(t, seg);
            t = done;
            status = worse_status(status, st);
            self.log_tail += taken;
            remaining -= taken;
            if remaining == 0 {
                break;
            }
        }
        WalForce::new(t, status)
    }

    fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
        let dead_end = up_to_byte / PAGE_SIZE as u64;
        // one past the last segment any force has touched
        let written_end = self.log_tail.div_ceil(PAGE_SIZE as u64);
        while self.log_trimmed < dead_end {
            let abs = self.log_trimmed;
            self.log_trimmed += 1;
            // a lap of the circular log reuses the slot: only the newest
            // writer may release it, older occupants were already
            // superseded by the overwrite itself
            if abs + self.log_pages < written_end {
                continue;
            }
            if self.dev.trim_seg(now, abs) {
                self.stats.log_trims += 1;
            }
        }
    }

    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
        if bytes == 0 {
            return (now, IoStatus::Ok);
        }
        // recovery is offline: read every segment the byte range covers,
        // serialized
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + u64::from(bytes) - 1) / PAGE_SIZE as u64;
        let mut t = now;
        let mut status = IoStatus::Ok;
        for seg in first..=last {
            if let Some((done, st)) = self.dev.read_seg(t, seg) {
                t = done;
                status = worse_status(status, st);
            }
        }
        (t, status)
    }

    fn stats(&self) -> &WalStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        self.dev.label()
    }
}

/// [`LogDevice`] port through the composed block-layer stack the
/// [`BlockStackBackend`](crate::stack_backend::BlockStackBackend) owns:
/// every segment write pays the OS submission path like the data traffic
/// around it.
pub struct StackLog {
    stack: Rc<RefCell<IoStack<Ssd>>>,
    log_pages: u64,
    /// First LBA of the log region (a shard's stripe starts here).
    base: u64,
    /// Submission core: a shard's log forces ride its own queue pair.
    core: usize,
}

impl StackLog {
    /// Port onto `stack`, folding segments onto LBAs
    /// `base..base + log_pages` and submitting on `core` — one shard's
    /// slice of a multi-queue deployment.
    pub fn with_region(
        stack: Rc<RefCell<IoStack<Ssd>>>,
        log_pages: u64,
        base: u64,
        core: usize,
    ) -> Self {
        StackLog {
            stack,
            log_pages: log_pages.max(1),
            base,
            core,
        }
    }
}

impl LogDevice for StackLog {
    fn write_seg(&mut self, now: SimTime, seg: u64) -> (SimTime, IoStatus) {
        let lba = self.base + seg % self.log_pages;
        let c = self
            .stack
            .borrow_mut()
            .submit(now, self.core, IoRequest::write(lba));
        (c.done, c.status)
    }

    fn read_seg(&mut self, now: SimTime, seg: u64) -> Option<(SimTime, IoStatus)> {
        let lba = self.base + seg % self.log_pages;
        let c = self
            .stack
            .borrow_mut()
            .submit(now, self.core, IoRequest::read(lba));
        Some((c.done, c.status))
    }

    fn trim_seg(&mut self, now: SimTime, seg: u64) -> bool {
        let lba = self.base + seg % self.log_pages;
        self.stack.borrow_mut().submit(
            now,
            self.core,
            IoRequest::trim(lba).class(IoClass::Background),
        );
        true
    }

    fn label(&self) -> &'static str {
        "stack-wal"
    }
}

// ---------------------------------------------------------------------
// PcmWal: byte-granular commit records on the memory bus
// ---------------------------------------------------------------------

/// Configuration of a standalone PCM log device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcmWalConfig {
    /// DIMM capacity in bytes (the circular log region).
    pub bytes: u64,
    /// PCM latency/endurance model.
    pub timing: PcmTiming,
    /// Start-Gap rotation period (100 is standard).
    pub gap_interval: u64,
}

impl Default for PcmWalConfig {
    fn default() -> Self {
        PcmWalConfig {
            bytes: 1 << 20,
            timing: PcmTiming::gen1(),
            gap_interval: 100,
        }
    }
}

/// Which medium carries the WAL. Page data streams to flash either way —
/// this only routes the *synchronous* persistence path (P1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WalConfig {
    /// The page backend's own flash device (today's design): the backend
    /// builds a [`FlashWal`] port onto it.
    #[default]
    Flash,
    /// A PCM DIMM on the memory bus (the paper's design): byte-granular
    /// commit records, no flash program per force.
    Pcm(PcmWalConfig),
}

impl WalConfig {
    /// The PCM path with default gen-1 timing and a 1 MiB log region.
    pub fn pcm() -> Self {
        WalConfig::Pcm(PcmWalConfig::default())
    }
}

/// The vision WAL: commit records persist byte-granular into PCM — line
/// writes plus a persist barrier, Start-Gap accruing wear underneath. No
/// 4 KiB rounding, no flash program, and truncation is free (in-place
/// medium: no collector to inform).
pub struct PcmWal {
    pcm: Rc<RefCell<PcmDimm>>,
    /// First byte of the log region inside the DIMM.
    log_base: u64,
    /// Circular log capacity in bytes.
    log_capacity: u64,
    /// Absolute byte tail (never wraps).
    log_tail: u64,
    pending: Vec<(Lsn, u32)>,
    /// The filler bytes a force persists (this model logs sizes, not
    /// contents): as long as the largest force so far, reused.
    filler: Vec<u8>,
    stats: WalStats,
}

impl PcmWal {
    /// A WAL over its own DIMM per `cfg`.
    pub fn new(cfg: &PcmWalConfig) -> Self {
        let dimm = PcmDimm::new(cfg.bytes, cfg.timing.clone(), cfg.gap_interval);
        let capacity = dimm.capacity_bytes();
        PcmWal::with_dimm(Rc::new(RefCell::new(dimm)), 0, capacity)
    }

    /// A WAL over `log_capacity` bytes of a shared DIMM starting at
    /// `log_base` (the block stack's vision route shares one DIMM between
    /// its log region and its steal-staging region).
    pub fn with_dimm(pcm: Rc<RefCell<PcmDimm>>, log_base: u64, log_capacity: u64) -> Self {
        PcmWal {
            pcm,
            log_base,
            log_capacity: log_capacity.max(1),
            log_tail: 0,
            pending: Vec::new(),
            filler: Vec::new(),
            stats: WalStats::default(),
        }
    }

    /// The DIMM (for latency and wear reporting).
    pub fn dimm(&self) -> Rc<RefCell<PcmDimm>> {
        Rc::clone(&self.pcm)
    }
}

impl WalBackend for PcmWal {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        // non-strict: a steal force enlists its cost at `next_lsn`, and
        // the next record appended lands at that same byte offset
        debug_assert!(
            self.pending.last().map(|&(l, _)| l <= lsn).unwrap_or(true),
            "WAL appends must arrive in LSN order"
        );
        self.pending.push((lsn, bytes));
    }

    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        let mut bytes: u64 = 0;
        self.pending.retain(|&(lsn, b)| {
            if lsn <= to {
                bytes += u64::from(b);
                false
            } else {
                true
            }
        });
        if bytes == 0 {
            return WalForce::new(now, IoStatus::Ok);
        }
        self.stats.log_forces += 1;
        self.stats.log_bytes += bytes;
        // a byte-granular persist — no 4 KiB rounding, no flash program,
        // no segment image (logical_writes stays 0)
        let len = bytes.min(self.log_capacity);
        let offset = self.log_tail % self.log_capacity;
        let offset = offset.min(self.log_capacity - len);
        self.log_tail += bytes;
        let len = len as usize;
        if self.filler.len() < len {
            self.filler.resize(len, 0xA5);
        }
        let done = self
            .pcm
            .borrow_mut()
            .persist(now, self.log_base + offset, &self.filler[..len]);
        WalForce::new(done, IoStatus::Ok)
    }

    fn truncate(&mut self, _now: SimTime, _up_to_byte: u64) {
        // in-place byte-addressable medium: the horizon moves in RAM and
        // the dead bytes will simply be overwritten — there is no
        // collector to inform and nothing to release
    }

    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
        if bytes == 0 {
            return (now, IoStatus::Ok);
        }
        // the log lives in PCM: a byte-granular load, always clean (PCM
        // media faults are not modelled)
        let len = u64::from(bytes).min(self.log_capacity);
        let offset = offset % self.log_capacity;
        let offset = offset.min(self.log_capacity - len);
        let (done, _bytes) = self
            .pcm
            .borrow_mut()
            .load(now, self.log_base + offset, len as usize);
        (done, IoStatus::Ok)
    }

    fn stats(&self) -> &WalStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "pcm-wal"
    }

    fn force_cause(&self) -> Cause {
        Cause::PcmPersist
    }

    fn wear(&self) -> Option<WearSnapshot> {
        Some(self.pcm.borrow().wear_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_block::StackConfig;
    use requiem_sim::time::SimDuration;
    use requiem_ssd::SsdConfig;

    /// A flash WAL on a bare block device (the stack at zero CPU cost).
    fn bare_wal(log_pages: u64) -> FlashWal<StackLog> {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        let stack = IoStack::new(StackConfig::bare(1), Ssd::new(cfg));
        let log = StackLog::with_region(Rc::new(RefCell::new(stack)), log_pages, 0, 0);
        FlashWal::new(log, log_pages)
    }

    #[test]
    fn force_drains_only_records_at_or_below_horizon() {
        let mut w = bare_wal(64);
        w.append(Lsn(100), 32);
        w.append(Lsn(200), 32);
        w.append(Lsn(300), 32);
        let f = w.force(SimTime::ZERO, Lsn(200));
        assert!(f.done > SimTime::ZERO);
        assert_eq!(f.status, IoStatus::Ok);
        assert_eq!(w.stats().log_forces, 1);
        assert_eq!(w.stats().log_bytes, 64, "two records of 32 forced");
        // the third record is still pending
        let f2 = w.force(f.done, Lsn(300));
        assert_eq!(w.stats().log_bytes, 96);
        assert!(f2.done > f.done);
    }

    /// A log device whose every segment write and read fails.
    struct FailingLog;

    impl LogDevice for FailingLog {
        fn write_seg(&mut self, now: SimTime, _seg: u64) -> (SimTime, IoStatus) {
            (now + SimDuration::from_micros(100), IoStatus::Unrecoverable)
        }
        fn read_seg(&mut self, now: SimTime, _seg: u64) -> Option<(SimTime, IoStatus)> {
            Some((now + SimDuration::from_micros(50), IoStatus::Unrecoverable))
        }
        fn trim_seg(&mut self, _now: SimTime, _seg: u64) -> bool {
            true
        }
        fn label(&self) -> &'static str {
            "failing-log"
        }
    }

    #[test]
    fn a_failed_segment_write_fails_the_force() {
        let mut w = FlashWal::new(FailingLog, 8);
        w.append(Lsn(1), 256);
        let failed = w.force(SimTime::ZERO, Lsn(1)).settle();
        let failed = failed.expect_err("no segment reached the medium");
        assert_eq!(failed.status, IoStatus::Unrecoverable);
        assert_eq!(
            failed.done,
            SimTime::from_micros(100),
            "the time is still spent"
        );
    }

    #[test]
    fn a_failed_segment_read_fails_the_scan() {
        let mut w = FlashWal::new(FailingLog, 8);
        let (done, status) = w.recover_scan(SimTime::ZERO, 0, 2 * PAGE_SIZE as u32);
        assert_eq!(status, IoStatus::Unrecoverable);
        assert_eq!(done, SimTime::from_micros(100), "two segments, serialized");
    }

    #[test]
    fn empty_force_is_free() {
        let mut w = bare_wal(64);
        w.append(Lsn(100), 32);
        let f = w.force(SimTime::ZERO, Lsn(100));
        // forcing the same horizon again touches no device
        let f2 = w.force(f.done, Lsn(100));
        assert_eq!(f2.done, f.done);
        assert_eq!(w.stats().log_forces, 1);
    }

    #[test]
    fn flash_force_spills_across_segments() {
        // 10 KiB of log = 3 segment images (tail rewrite + spill)
        let mut w = bare_wal(64);
        w.append(Lsn(1), 10 * 1024);
        assert_eq!(w.force(SimTime::ZERO, Lsn(1)).status, IoStatus::Ok);
        assert_eq!(w.stats().logical_writes, 3);
    }

    #[test]
    fn pcm_force_is_byte_granular_and_sub_microsecond_scale() {
        let mut p = PcmWal::new(&PcmWalConfig::default());
        let mut f = bare_wal(64);
        p.append(Lsn(1), 256);
        f.append(Lsn(1), 256);
        let tp = p.force(SimTime::ZERO, Lsn(1)).done.since(SimTime::ZERO);
        let tf = f.force(SimTime::ZERO, Lsn(1)).done.since(SimTime::ZERO);
        assert!(tp < SimDuration::from_micros(5), "pcm force {tp}");
        assert!(
            tf.as_nanos() > 10 * tp.as_nanos(),
            "flash {tf} vs pcm {tp}: the P1 latency gap"
        );
        assert_eq!(p.stats().logical_writes, 0, "no segment images on PCM");
        assert_eq!(p.force_cause(), Cause::PcmPersist);
        assert_eq!(f.force_cause(), Cause::Transfer);
    }

    #[test]
    fn pcm_wear_accrues_and_is_surfaced() {
        let mut p = PcmWal::new(&PcmWalConfig {
            bytes: 4096,
            timing: PcmTiming::gen1(),
            gap_interval: 4,
        });
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            p.append(Lsn(i + 1), 64);
            t = p.force(t, Lsn(i + 1)).done;
        }
        let w = p.wear().expect("pcm tracks wear");
        assert!(w.total_line_writes > 0);
        assert!(w.gap_moves > 0, "start-gap rotated under the hot log head");
        assert!(w.per_line_writes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn pcm_recover_scan_reads_back_for_free_media() {
        let mut p = PcmWal::new(&PcmWalConfig::default());
        p.append(Lsn(1), 1024);
        let f = p.force(SimTime::ZERO, Lsn(1));
        let (done, st) = p.recover_scan(f.done, 0, 1024);
        assert!(done > f.done);
        assert_eq!(st, IoStatus::Ok);
        // the scan's time follows its bytes: an empty one is free, a
        // shorter one is quicker
        assert_eq!(p.recover_scan(done, 0, 0), (done, IoStatus::Ok));
        let (short, st) = p.recover_scan(done, 0, 64);
        assert_eq!(st, IoStatus::Ok);
        assert!(short.since(done) < done.since(f.done));
    }

    #[test]
    fn truncation_trims_dead_flash_segments_but_skips_lapped_slots() {
        let mut w = bare_wal(4);
        // write 8 full segments through a 4-segment circular log: the
        // first lap's slots were superseded by overwrite
        for i in 0..8u64 {
            w.append(Lsn((i + 1) * 10), PAGE_SIZE as u32);
            let f = w.force(SimTime::ZERO, Lsn((i + 1) * 10));
            assert_eq!(f.status, IoStatus::Ok);
        }
        w.truncate(SimTime::ZERO, 6 * PAGE_SIZE as u64);
        // segments 0..4 were lapped (tail at seg 8): only 4 and 5 trim
        assert_eq!(w.stats().log_trims, 2);
    }
}
