//! The database engine: transactions over the buffer pool, WAL, and a
//! persistence backend — plus crash/recovery.
//!
//! The engine is deliberately identical for both backends; every design
//! difference lives below [`PersistenceBackend`]. Virtual time advances
//! only on synchronous waits: page-read misses, buffer steals, and commit
//! log forces. Data write-backs and checkpoints are charged to the device
//! timeline but do not block the engine (they interfere with later reads
//! through device queueing — the paper's GC/IO interference made visible).
//!
//! There is one commit model: a commit is acknowledged once the force that
//! makes it durable completes. [`Database::execute`] is the serialized
//! QD-1 reference (a force per commit); group commit is the executor's
//! ([`crate::exec`]).
//!
//! Recovery is commit-consistent redo: on restart, replay the durable
//! log's updates of committed transactions onto the durable page images,
//! LSN-guarded for idempotence.

use std::collections::VecDeque;

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, IoStatus};

use crate::backend::PersistenceBackend;
use crate::buffer::{BufferPool, EvictOutcome, PoolStats};
use crate::images::PageImages;
use crate::page::{PageId, PageImage, RECORD_SIZE, SLOTS_PER_PAGE};
use crate::wal::{LogRecord, Lsn, Wal};
use crate::walbackend::{ForceFailed, PcmWal, WalBackend, WalConfig};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool frames.
    pub buffer_frames: usize,
    /// Data pages in the database.
    pub data_pages: u64,
    /// Checkpoint every N transactions (0 = never).
    pub checkpoint_every: u64,
    /// Which medium carries the WAL: [`WalConfig::Flash`] asks the page
    /// backend for a port onto its own device
    /// ([`PersistenceBackend::make_wal`] — flash for the block backends,
    /// the shared DIMM for the vision backend), [`WalConfig::Pcm`]
    /// routes the synchronous-persistence path to a standalone
    /// byte-addressable PCM DIMM (the paper's P1) while page data keeps
    /// streaming to flash.
    pub wal: WalConfig,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_frames: 128,
            data_pages: 1024,
            checkpoint_every: 0,
            wal: WalConfig::Flash,
        }
    }
}

/// Result of one executed transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxnOutcome {
    /// The transaction id.
    pub txn: u64,
    /// End-to-end latency (reads + steals + commit force).
    pub latency: SimDuration,
    /// The commit force's share.
    pub commit_force: SimDuration,
}

/// Aggregate engine statistics.
///
/// `PartialEq`/`Eq` so the QD-1 identity (experiments, proptests) can
/// assert the whole stall ledger matches at once.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions committed.
    pub commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Time stalled on page reads.
    pub read_stall: SimDuration,
    /// Time stalled on buffer steals.
    pub steal_stall: SimDuration,
    /// Time stalled on commit forces.
    pub commit_stall: SimDuration,
    /// Page reads the device served only after running its recovery
    /// pipeline (retry ladder / ECC escalation / parity rebuild): the
    /// bytes were good, but the read stall already includes the
    /// recovery latency.
    pub media_recoveries: u64,
    /// Page reads the device could NOT recover: the engine rebuilt the
    /// page image from the durable log (media-failure redo).
    pub media_failures: u64,
    /// Log forces that failed: the first one on the device, every later
    /// one at once ([`Database::log_failure`]).
    pub wal_force_failures: u64,
}

/// The storage engine over a persistence backend.
///
/// Fields are `pub(crate)` so the completion-driven executor
/// ([`crate::exec`]) can drive the same state machine without an
/// intermediate accessor layer — the two execution modes must share
/// every byte of engine state for the QD-1 identity to hold.
pub struct Database<B: PersistenceBackend> {
    pub(crate) cfg: DbConfig,
    pub(crate) backend: B,
    /// The synchronous-persistence path: log durability is a service of
    /// its own, no longer a side effect of the page backend. Built from
    /// [`DbConfig::wal`] at construction.
    pub(crate) wal_dev: Box<dyn WalBackend>,
    pub(crate) pool: BufferPool,
    pub(crate) wal: Wal,
    /// When each recent force made the log durable: what a steal waits
    /// for, and the WAL law's evidence.
    pub(crate) durability: Durability,
    /// See [`Database::log_failure`].
    pub(crate) log_failure: Option<ForceFailed>,
    pub(crate) now: SimTime,
    /// Host-side model of the page images that are durable on the device
    /// or on their way there (the devices themselves model timing and
    /// layout, the engine models the bytes).
    pub(crate) images: PageImages,
    pub(crate) txn_latency: Histogram,
    pub(crate) commit_latency: Histogram,
    pub(crate) stats: EngineStats,
    pub(crate) next_txn: u64,
    pub(crate) loaded: bool,
    /// Engine-level probe: commit spans (group wait vs shared force) are
    /// emitted here; a clone is forwarded to the backend's devices.
    pub(crate) probe: requiem_sim::Probe,
}

/// The recent forces that moved the durable horizon, `(horizon, end)`,
/// oldest first. A group force under the shard coordinator marks the log
/// flushed when it is issued and ends later ([`crate::exec`]), so a steal
/// finds here when its frame's records became durable. Debug builds also
/// hold every page write and commit acknowledgement to the WAL law, and
/// every build holds acknowledgements to the durable horizon and to log
/// order ([`Durability::acknowledge`]).
///
/// The law: a page write carries only records that are durable, and is
/// submitted no earlier than the end of the force that made its newest
/// record durable, nor than the end of a force issued for the write
/// itself; a commit is acknowledged no earlier than the end of the force
/// that made its record durable. With an asynchronous group force a newer
/// force may still be in flight — a record an older force covered
/// answers to the older one.
#[derive(Debug, Default)]
pub(crate) struct Durability {
    forces: VecDeque<(Lsn, SimTime)>,
    /// The horizon of the newest force that left the window: the force
    /// behind a record at or below it is no longer known.
    forgotten: Option<Lsn>,
    /// The record of the newest commit acknowledged.
    acked: Option<Lsn>,
}

impl Durability {
    /// Forces kept: far more than can be in flight at once.
    const WINDOW: usize = 64;

    /// A force that moved the durable horizon to `horizon` ended at `end`.
    fn note(&mut self, horizon: Lsn, end: SimTime) {
        if self.forces.len() == Self::WINDOW {
            if let Some((h, _)) = self.forces.pop_front() {
                self.forgotten = Some(h);
            }
        }
        self.forces.push_back((horizon, end));
    }

    /// When the force that made the record at `lsn` durable ended, while
    /// that force is among the recent ones. LSN 0 names no record (a page
    /// whose redo logged nothing).
    fn end_of(&self, lsn: u64) -> Option<SimTime> {
        let lsn = Lsn(lsn);
        if lsn == Lsn(0) || Some(lsn) <= self.forgotten {
            return None;
        }
        let covering = self.forces.partition_point(|&(h, _)| h < lsn);
        self.forces.get(covering).map(|&(_, end)| end)
    }

    /// The commit whose record is at `lsn` is acknowledged at `at`. It is
    /// held to the WAL law, and to log order: its record lies above every
    /// commit acknowledged before it, so the order in which commits are
    /// acknowledged is the order of their records in the log. A crash
    /// keeps every acknowledged record (the durable horizon covers it), so
    /// the order holds across recovery too.
    ///
    /// # Panics
    /// Panics when the record lies above the durable horizon, or when an
    /// earlier acknowledgement named a record at or above `lsn`.
    pub(crate) fn acknowledge(&mut self, wal: &Wal, lsn: Lsn, at: SimTime) {
        self.assert_durable(wal, lsn.0, at, "a commit's acknowledgement");
        assert!(
            Some(lsn) > self.acked,
            "commit order: the commit at {lsn:?} is acknowledged at {at:?} after the one at {:?}",
            self.acked
        );
        self.acked = Some(lsn);
    }

    /// Assert that the record at `lsn` is durable for what `what` does
    /// with it at `at`: at or below the durable horizon in every build (one
    /// comparison), and no earlier than its force's end in debug builds.
    pub(crate) fn assert_durable(&self, wal: &Wal, lsn: u64, at: SimTime, what: &str) {
        let lsn = Lsn(lsn);
        assert!(
            lsn == Lsn(0) || wal.flushed() >= Some(lsn),
            "WAL law: {what} at {at:?} carries record {lsn:?} above the durable horizon {:?}",
            wal.flushed()
        );
        if let Some(end) = cfg!(debug_assertions).then(|| self.end_of(lsn.0)).flatten() {
            debug_assert!(
                at >= end,
                "WAL law: {what} at {at:?} precedes the end {end:?} of the force that made \
                 record {lsn:?} durable"
            );
        }
    }
}

impl<B: PersistenceBackend> std::fmt::Debug for Database<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("backend", &self.backend.label())
            .field("now", &self.now)
            .field("commits", &self.stats.commits)
            .finish()
    }
}

impl<B: PersistenceBackend> Database<B> {
    /// Create an engine over `backend`. [`DbConfig::wal`] picks the
    /// synchronous-persistence path: `Flash` asks the backend for a port
    /// onto its own device, `Pcm` builds a standalone DIMM-backed WAL.
    pub fn new(cfg: DbConfig, mut backend: B) -> Self {
        let wal_dev: Box<dyn WalBackend> = match &cfg.wal {
            WalConfig::Flash => backend.make_wal(),
            WalConfig::Pcm(pcfg) => Box::new(PcmWal::new(pcfg)),
        };
        Database {
            pool: BufferPool::new(cfg.buffer_frames, cfg.data_pages),
            wal: Wal::new(),
            durability: Durability::default(),
            log_failure: None,
            now: SimTime::ZERO,
            images: PageImages::new(cfg.data_pages),
            txn_latency: Histogram::new(),
            commit_latency: Histogram::new(),
            stats: EngineStats::default(),
            next_txn: 1,
            cfg,
            backend,
            wal_dev,
            loaded: false,
            probe: requiem_sim::Probe::disabled(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The synchronous-persistence path (WAL traffic stats, wear).
    pub fn wal_backend(&self) -> &dyn WalBackend {
        &*self.wal_dev
    }

    /// The first log force that failed since the last [`Self::crash`], if
    /// any: from it on the log makes nothing durable and commits nothing.
    pub fn log_failure(&self) -> Option<ForceFailed> {
        self.log_failure
    }

    /// Force the log to `lsn`, starting at `at`: the one way records
    /// become durable, and the one place a failure is decided. A failed
    /// force makes nothing durable, and the log stays failed until
    /// [`Self::crash`]: every later force of a record not yet durable fails
    /// at once, with no device call (DESIGN §5). Returns when the force
    /// ended, or its failure.
    pub(crate) fn force_log(&mut self, at: SimTime, lsn: Lsn) -> Result<SimTime, ForceFailed> {
        let forced = match self.log_failure {
            // a record an earlier force made durable stays durable
            Some(_) if self.wal.flushed() >= Some(lsn) => Ok(at),
            Some(failed) => Err(ForceFailed {
                done: at.max(failed.done),
                ..failed
            }),
            None => self.wal_dev.force(at, lsn).settle(),
        };
        match forced {
            Ok(end) if self.wal.flushed() < Some(lsn) => {
                self.durability.note(lsn, end);
                self.wal.mark_flushed(lsn);
            }
            Ok(_) => {}
            Err(failed) => {
                self.stats.wal_force_failures += 1;
                self.log_failure.get_or_insert(failed);
            }
        }
        forced
    }

    /// [`Self::force_log`] from the engine's clock, which waits the force
    /// out, landed or not.
    fn force_now(&mut self, lsn: Lsn) -> Result<(), ForceFailed> {
        let forced = self.force_log(self.now, lsn);
        let (Ok(done) | Err(ForceFailed { done, .. })) = forced;
        self.now = self.now.max(done);
        forced.map(drop)
    }

    /// Enlist a record's force cost with the log device, unless the log
    /// has failed: then no force drains it.
    pub(crate) fn enlist(&mut self, lsn: Lsn, bytes: u32) {
        if self.log_failure.is_none() {
            self.wal_dev.append(lsn, bytes);
        }
    }

    /// The WAL rule before a page write at `at` whose newest log record
    /// is `newest`: unless that record is durable, force the whole log
    /// first. Returns the instant the write may be submitted and the
    /// horizon of the force it issued (0 when none), which the write
    /// waits for too — or that force's failure, and then no write.
    fn force_ahead(&mut self, at: SimTime, newest: Lsn) -> Result<(SimTime, u64), ForceFailed> {
        if self.wal.flushed() >= Some(newest) {
            return Ok((at, 0));
        }
        let unflushed = self.wal.next_lsn();
        self.enlist(unflushed, 512);
        let done = self.force_log(at, unflushed)?;
        Ok((at.max(done), unflushed.0))
    }

    /// Attach a cross-layer [`Probe`](requiem_sim::Probe) to the backend's
    /// devices so storage-manager I/O decomposes into per-layer spans.
    /// The engine keeps a clone for its own commit-path spans (group
    /// wait vs shared force, emitted by [`Self::run_concurrent`]).
    pub fn attach_probe(&mut self, probe: requiem_sim::Probe) {
        self.probe = probe.clone();
        self.backend.attach_probe(probe);
    }

    /// The write-ahead log (read-only: for recovery-order assertions).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Transaction latency distribution.
    pub fn txn_latency(&self) -> &Histogram {
        &self.txn_latency
    }

    /// Commit-force latency distribution.
    pub fn commit_latency(&self) -> &Histogram {
        &self.commit_latency
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Buffer-pool statistics (hits, misses, steals, coalesced fetches).
    pub fn pool_stats(&self) -> &PoolStats {
        self.pool.stats()
    }

    /// Count a device read's media status into the engine ledger (a
    /// recovery or a failure); true when the bytes were lost.
    fn note_media(&mut self, status: IoStatus) -> bool {
        match status {
            IoStatus::Ok => false,
            IoStatus::RecoveredAfterRetry { .. } => {
                self.stats.media_recoveries += 1;
                false
            }
            IoStatus::Unrecoverable | IoStatus::Rejected => {
                self.stats.media_failures += 1;
                true
            }
        }
    }

    /// Bulk-load: write every (pre-formatted) data page out, and
    /// checkpoint. Must be called once before transactions.
    pub fn load(&mut self) {
        assert!(!self.loaded, "load() must run exactly once");
        for pid in 0..self.cfg.data_pages {
            let done = self.backend.page_write(self.now, PageId(pid));
            // loading is offline: wait for each completion
            self.now = self.now.max(done);
        }
        let lsn = self.wal.append(LogRecord::Checkpoint);
        self.enlist(lsn, LogRecord::Checkpoint.encoded_len());
        // a failure is the log's from here on (`log_failure`)
        self.force_now(lsn).ok();
        self.loaded = true;
    }

    /// Fetch a page into the pool (if absent), charging read and steal
    /// stalls. Returns nothing; the page is then resident.
    fn fetch_page(&mut self, pid: PageId) {
        if self.pool.contains(pid) {
            return;
        }
        self.images.settle(self.now, &self.wal);
        let t0 = self.now;
        let (done, status) = self.backend.page_read(self.now, pid);
        self.now = self.now.max(done);
        self.stats.read_stall += self.now.since(t0);
        self.now = self.install_read(self.now, pid, status);
    }

    /// Install `pid`, read with `status`, from `at` on: count the status,
    /// redo a lost page from the durable log into its durable image (ARIES
    /// media recovery in miniature; a later crash cannot resurrect the
    /// lost bytes), write back the frame the install steals. Returns when
    /// that device work is done.
    pub(crate) fn install_read(&mut self, at: SimTime, pid: PageId, status: IoStatus) -> SimTime {
        let mut end = at;
        if self.note_media(status) {
            end = self.rebuild_page_from_log(at, pid);
        }
        if let EvictOutcome::Steal { page_id } = self.pool.complete_fetch(pid) {
            end = self.write_back_stolen(end, page_id);
        }
        end
    }

    /// Synchronous steal write of `page_id` starting at `at`: WAL rule
    /// first — the stolen page's updates must be durable in the log
    /// before its frame turns — then the page write, which applies the
    /// frame's redo to the durable image. Returns the instant the device
    /// is done. When the force fails, neither happens.
    pub(crate) fn write_back_stolen(&mut self, at: SimTime, page_id: PageId) -> SimTime {
        // a steal forces whatever the log holds past the horizon, not
        // only the stolen page's records
        let (mut end, forced) = match self.force_ahead(at, self.wal.next_lsn()) {
            Ok(ahead) => ahead,
            Err(failed) => return at.max(failed.done),
        };
        // the log may be flushed already by a group force still in flight
        // (sharded runs): the frame's records are durable at its end
        if let Some(covered) = self.durability.end_of(self.pool.stolen().lsn) {
            end = end.max(covered);
        }
        let what = "a stolen page's write";
        self.durability
            .assert_durable(&self.wal, self.pool.stolen().lsn, end, what);
        self.durability.assert_durable(&self.wal, forced, end, what);
        end = end.max(self.backend.steal_write(end, page_id));
        self.stats.steal_stall += end.since(at);
        let durable = self.images.durable_mut(page_id);
        self.pool.stolen().apply(durable, &self.wal);
        end
    }

    /// Execute one transaction: each access reads (and possibly dirties)
    /// one record; commit forces the log.
    ///
    /// This is the serialized QD-1 reference, and nothing else: one
    /// transaction at a time, every miss a blocking read, every commit a
    /// private force. [`Self::run_concurrent`] under
    /// [`ExecConfig::serialized`](crate::ExecConfig::serialized) must end
    /// exactly where a loop of these calls ends, on every backend — the
    /// identity `tests/qd1_law.rs` holds. Workloads run on the executor.
    ///
    /// `accesses` is a list of `(page, slot, dirty)`. A commit whose force
    /// failed is not acknowledged, counted or timed: `Err` is the failure.
    pub fn execute(
        &mut self,
        accesses: &[(u64, u16, bool)],
        log_bytes: u32,
    ) -> Result<TxnOutcome, ForceFailed> {
        assert!(self.loaded, "call load() before executing transactions");
        let txn = self.next_txn;
        self.next_txn += 1;
        let started = self.now;
        let mut wrote = false;
        for &(page, slot, dirty) in accesses {
            let pid = PageId(page % self.cfg.data_pages);
            let slot = slot % SLOTS_PER_PAGE;
            self.fetch_page(pid);
            if dirty {
                // pin the frame BEFORE logging: `fetch_page` made the page
                // resident, but if the pool ever evicted it in between, we
                // must not append an Update we cannot apply — WAL and page
                // would disagree about what happened
                wrote |= self.write_record(txn, pid, slot);
            } else {
                self.pool.touch(pid);
            }
        }
        // commit: append the record and force the log to it
        let commit_started = self.now;
        let commit_lsn = self.wal.append(LogRecord::Commit { txn });
        let force_bytes = if wrote { log_bytes.max(32) } else { 32 };
        self.enlist(commit_lsn, force_bytes);
        self.force_now(commit_lsn)?;
        self.durability.acknowledge(&self.wal, commit_lsn, self.now);
        let commit_force = self.now.since(commit_started);
        self.stats.commit_stall += commit_force;
        self.stats.commits += 1;
        let latency = self.now.since(started);
        self.txn_latency.record_duration(latency);
        self.commit_latency.record_duration(commit_force);
        if self.cfg.checkpoint_every > 0 && self.stats.commits % self.cfg.checkpoint_every == 0 {
            self.checkpoint();
        }
        Ok(TxnOutcome {
            txn,
            latency,
            commit_force,
        })
    }

    /// Log `txn`'s write of `(pid, slot)` and name it in the page's redo;
    /// `false`, and nothing logged, when the page is not resident.
    pub(crate) fn write_record(&mut self, txn: u64, pid: PageId, slot: u16) -> bool {
        let Some(frame) = self.pool.get_mut(pid) else {
            return false;
        };
        let (lsn, after) = self
            .wal
            .append_update(txn, pid, slot, RECORD_SIZE, |image| {
                image[..8].copy_from_slice(&txn.to_le_bytes());
            });
        frame.push(slot, Some(after));
        frame.lsn = lsn.0;
        true
    }

    /// Sharp checkpoint: flush all dirty pages as one torn-safe batch,
    /// wait for it, then log the checkpoint — so the checkpoint record is
    /// an honest redo lower bound — and, once it is durable, trim the log
    /// below it (DESIGN §2.7). No transaction may be open: between runs,
    /// or after a serialized commit. Past a failed force, none of it is
    /// done and the checkpoint is not counted.
    pub fn checkpoint(&mut self) {
        self.checkpoint_keeping(None);
    }

    /// [`Self::checkpoint`] with transactions still open whose first log
    /// record lies at or above `open`: the trim keeps the log from there.
    pub(crate) fn checkpoint_keeping(&mut self, open: Option<Lsn>) {
        let ids = self.pool.dirty_pages();
        let mut landed = self.now;
        if !ids.is_empty() {
            // no batch past a failed force (the record's force fails too)
            if let Ok((at, forced)) = self.force_ahead(self.now, Lsn(self.pool.dirty_lsn())) {
                let what = "a checkpoint batch's page";
                self.durability.assert_durable(&self.wal, forced, at, what);
                let done = self.backend.page_batch(at, &ids);
                landed = done;
                self.now = self.now.max(done);
                let (images, durability, wal) = (&mut self.images, &self.durability, &self.wal);
                self.pool.take_dirty(|pid, redo| {
                    durability.assert_durable(wal, redo.lsn, at, what);
                    images.write(done, pid, redo)
                });
            }
        }
        let lsn = self.wal.append(LogRecord::Checkpoint);
        self.enlist(lsn, LogRecord::Checkpoint.encoded_len());
        // the record is an honest redo lower bound only once the batch
        // has landed: its force starts no earlier
        debug_assert!(
            self.now >= landed,
            "WAL law: a checkpoint record's force at {:?} starts before its batch lands at \
             {landed:?}",
            self.now
        );
        if self.force_now(lsn).is_err() {
            return;
        }
        self.stats.checkpoints += 1;
        // every log byte before the checkpoint record is now outside the
        // redo horizon: release those segments eagerly so the device's
        // collector never copies dead WAL (background — the clock does
        // not advance, so QD-1 replays stay bit-identical)
        let ck_len = u64::from(LogRecord::Checkpoint.encoded_len());
        let horizon = self.wal_dev.stats().log_bytes.saturating_sub(ck_len);
        self.wal_dev.truncate(self.now, horizon);
        self.images.settle(self.now, &self.wal);
        // the batch has landed, so no frame and no write in flight names
        // a byte below the checkpoint: the host log keeps what the
        // medium keeps, and what the open transactions may still commit
        self.wal.trim(open.map_or(lsn, |o| o.min(lsn)));
    }

    /// Simulated crash: volatile state (buffer pool, in-flight promotions,
    /// the log past its durable prefix) vanishes; the durable log and page
    /// images survive. A failed log comes back as its durable prefix.
    pub fn crash(&mut self) {
        self.log_failure = None;
        self.pool.crash();
        self.images.crash(self.now, &self.wal);
        self.wal.crash();
    }

    /// Redo recovery: replay committed updates from the durable log onto
    /// the durable images, LSN-guarded. Returns the number of records
    /// replayed.
    ///
    /// The log scan is charged to the WAL backend through
    /// [`WalBackend::recover_scan`]: every durable byte from the last
    /// checkpoint onward is read from the log medium, the clock advances
    /// by the read, and the typed [`IoStatus`] of the scan is folded into
    /// the engine's media counters — a device that recovered the log
    /// bytes through its retry ladder counts a
    /// [`EngineStats::media_recoveries`], one that lost them counts a
    /// [`EngineStats::media_failures`]. An unrecoverable scan is counted
    /// and replay still proceeds over the durable prefix: the simulation
    /// models a failed log read's timing and status, not which bytes it
    /// lost.
    ///
    /// [`IoStatus`]: requiem_sim::IoStatus
    pub fn recover(&mut self) -> u64 {
        self.recover_with(None)
    }

    /// [`Self::recover`] with an externally supplied committed set.
    ///
    /// A standalone engine derives the committed set from its own
    /// durable log (`None`). A shard of a two-phase deployment must use
    /// the *union* of durable `Commit` records across every shard: a
    /// cross-shard transaction's commit record lives only on its home
    /// shard, while the participants hold `Prepare` records plus the
    /// updates — passing the global set makes those updates replayable
    /// here. Prepared-but-undecided transactions stay invisible either
    /// way. A supplied set is transaction ids in ascending order, as
    /// [`Wal::durable_commits`] lists them.
    pub fn recover_with(&mut self, committed: Option<&[u64]>) -> u64 {
        let own;
        let committed = match committed {
            Some(set) => set,
            None => {
                own = self.wal.durable_commits();
                &own[..]
            }
        };
        debug_assert!(
            committed.windows(2).all(|w| w[0] <= w[1]),
            "the committed set must be in ascending order"
        );
        // charge the physical log scan: bytes before the checkpoint are
        // skipped (their offset positions the read), bytes from the
        // checkpoint on are read
        let start = self.wal.last_durable_checkpoint().unwrap_or(Lsn(0));
        let scan = self.wal.durable_end() - start.0;
        let (end, status) =
            self.wal_dev
                .recover_scan(self.now, start.0, scan.min(u64::from(u32::MAX)) as u32);
        self.now = self.now.max(end);
        self.note_media(status);
        self.redo(start, committed)
    }

    /// Media-failure redo for one page: reconstruct its image from the
    /// durable log alone, starting from a freshly formatted base. Used
    /// when the device reports an unrecoverable read — the log, not the
    /// data page, holds the page's committed writes. Updates of uncommitted
    /// transactions are skipped, exactly as in [`Self::recover`].
    ///
    /// The full durable log is scanned from the medium (there is no
    /// per-page index into the log), charged via
    /// [`WalBackend::recover_scan`] starting at `at` — from LSN 0, though
    /// the host replays the trimmed prefix from its archive
    /// ([`Wal::trim`]); the scan's typed status folds into the media
    /// counters, and the rebuild proceeds, as in [`Self::recover`]. The
    /// rebuilt image is durable as of the scan's end instant, which is
    /// returned.
    pub(crate) fn rebuild_page_from_log(&mut self, at: SimTime, pid: PageId) -> SimTime {
        let bytes = self.wal.durable_end().min(u64::from(u32::MAX)) as u32;
        let (end, status) = self.wal_dev.recover_scan(at, 0, bytes);
        self.note_media(status);
        self.wal.rebuild_page(pid, self.images.reformat(pid));
        end.max(at)
    }

    /// The redo loop of recovery: replay every durable page write from
    /// `from` on by a `committed` transaction onto the durable image,
    /// wherever the image is older than the record. Returns the number
    /// replayed.
    fn redo(&mut self, from: Lsn, committed: &[u64]) -> u64 {
        let mut replayed = 0;
        for (lsn, page, slot, after) in self.wal.committed_writes(from, committed) {
            let img = self.images.durable_mut(page);
            if img.lsn() < lsn.0 {
                img.redo(slot, after, lsn.0);
                replayed += 1;
            }
        }
        replayed
    }

    /// The durable image of `page`: what survives a crash before
    /// recovery redoes the log into it.
    pub fn durable_page(&self, page: u64) -> &PageImage {
        self.images.durable(PageId(page % self.cfg.data_pages))
    }

    /// Inspect the *visible* value of `(page, slot)`: the newest write of
    /// it in the page's frame, else in a write in flight, else the durable
    /// image. Returns the owning txn id stamped in the record's first 8
    /// bytes (0 = never written).
    pub fn visible_owner(&mut self, page: u64, slot: u16) -> u64 {
        let pid = PageId(page % self.cfg.data_pages);
        let slot = slot % SLOTS_PER_PAGE;
        let record = self
            .images
            .record(self.pool.redo(pid), pid, slot, &self.wal);
        // short records (never produced by this engine, but the format
        // does not forbid them) read as zero-padded rather than panicking
        record
            .map(|r| {
                let mut b = [0u8; 8];
                let n = r.len().min(8);
                b[..n].copy_from_slice(&r[..n]);
                u64::from_le_bytes(b)
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_backend::BlockStackBackend;
    use requiem_block::StackConfig;
    use requiem_ssd::SsdConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    fn legacy_db() -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: 64,
            ..DbConfig::default()
        };
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0; // conservative: no write cache
        let be = BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, cfg.data_pages, 64);
        let mut db = Database::new(cfg, be);
        db.load();
        db
    }

    fn vision_db() -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: 64,
            ..DbConfig::default()
        };
        let be = BlockStackBackend::vision(SsdConfig::modern(), cfg.data_pages, 1 << 22);
        let mut db = Database::new(cfg, be);
        db.load();
        db
    }

    #[test]
    fn txn_executes_and_commits() {
        let mut db = legacy_db();
        let out = db
            .execute(&[(1, 0, true), (2, 1, false)], 256)
            .expect("committed");
        assert_eq!(out.txn, 1);
        assert!(out.latency >= out.commit_force);
        assert!(out.commit_force > SimDuration::ZERO);
        assert_eq!(db.stats().commits, 1);
        assert_eq!(db.visible_owner(1, 0), 1);
        assert_eq!(db.visible_owner(2, 1), 0, "read-only access left no mark");
    }

    #[test]
    fn vision_commit_force_is_much_cheaper() {
        let mut l = legacy_db();
        let mut v = vision_db();
        let lo = l.execute(&[(1, 0, true)], 256).expect("committed");
        let vo = v.execute(&[(1, 0, true)], 256).expect("committed");
        assert!(
            lo.commit_force.as_nanos() > 10 * vo.commit_force.as_nanos(),
            "legacy force {} vs vision {}",
            lo.commit_force,
            vo.commit_force
        );
    }

    #[test]
    fn buffer_pressure_causes_steals() {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: 8, // tiny pool
            ..DbConfig::default()
        };
        let be = BlockStackBackend::new(
            StackConfig::bare(1),
            SsdConfig::modern(),
            cfg.data_pages,
            64,
        );
        let mut db = Database::new(cfg, be);
        db.load();
        // touch many distinct pages with writes → dirty evictions
        for i in 0..64u64 {
            db.execute(&[(i, 0, true)], 128).expect("committed");
        }
        assert!(db.backend().stats().steal_writes > 0, "expected steals");
        assert!(db.stats().steal_stall > SimDuration::ZERO);
    }

    #[test]
    fn committed_work_survives_crash_and_recovery() {
        let mut db = legacy_db();
        db.execute(&[(10, 3, true)], 256).expect("committed"); // txn 1
        db.execute(&[(11, 4, true)], 256).expect("committed"); // txn 2
        db.crash();
        let replayed = db.recover();
        assert!(replayed >= 2, "replayed {replayed}");
        assert_eq!(db.visible_owner(10, 3), 1);
        assert_eq!(db.visible_owner(11, 4), 2);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut db = legacy_db();
        db.execute(&[(10, 3, true)], 256).expect("committed");
        db.crash();
        let first = db.recover();
        let second = db.recover();
        assert!(first >= 1);
        assert_eq!(second, 0, "LSN guard must stop double-apply");
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    #[test]
    fn checkpoint_flushes_dirty_pages() {
        let mut db = vision_db();
        db.execute(&[(5, 0, true)], 256).expect("committed");
        db.checkpoint();
        assert_eq!(db.stats().checkpoints, 1);
        // after checkpoint + crash, data is in the durable image even
        // without log replay
        db.crash();
        assert_eq!(db.visible_owner(5, 0), 1);
    }

    #[test]
    fn uncommitted_after_images_do_not_resurrect() {
        // write without committing is impossible through execute(); this
        // simulates it by crashing mid-transaction: append update, no
        // commit, no force
        let mut db = legacy_db();
        db.execute(&[(1, 0, true)], 256).expect("committed"); // txn 1 commits
                                                              // hand-craft an unflushed, uncommitted update for txn 99
        db.wal.append_update(99, PageId(2), 0, 100, |image| {
            image[..8].copy_from_slice(&99u64.to_le_bytes())
        });
        db.crash();
        db.recover();
        assert_eq!(db.visible_owner(1, 0), 1);
        assert_eq!(db.visible_owner(2, 0), 0, "uncommitted txn must not apply");
    }

    /// A backend that forges a media status on chosen page reads —
    /// exercises the engine's typed-status handling without needing a
    /// fault plan aggressive enough to defeat the whole device pipeline.
    struct FlakyBackend {
        inner: BlockStackBackend,
        fail_page: Option<PageId>,
        forge: requiem_sim::IoStatus,
        /// Parks the batched reads, each served by `page_read`.
        shim: crate::backend::ReadShim,
        /// Every write-back, in order: whether it was a checkpoint's
        /// batch, and its pages.
        writes: Vec<(bool, Vec<PageId>)>,
    }

    impl PersistenceBackend for FlakyBackend {
        fn read_shim(&mut self) -> Option<&mut crate::backend::ReadShim> {
            Some(&mut self.shim)
        }
        fn make_wal(&mut self) -> Box<dyn crate::walbackend::WalBackend> {
            self.inner.make_wal()
        }
        fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
            self.writes.push((false, vec![page]));
            self.inner.page_write(now, page)
        }
        fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
            self.writes.push((false, vec![page]));
            self.inner.steal_write(now, page)
        }
        fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, requiem_sim::IoStatus) {
            let (done, status) = self.inner.page_read(now, page);
            if self.fail_page == Some(page) {
                self.fail_page = None; // one-shot
                return (done, self.forge);
            }
            (done, status)
        }
        fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
            self.writes.push((true, pages.to_vec()));
            self.inner.page_batch(now, pages)
        }
        fn free_page(&mut self, now: SimTime, page: PageId) {
            self.inner.free_page(now, page)
        }
        fn stats(&self) -> &crate::backend::BackendStats {
            self.inner.stats()
        }
        fn label(&self) -> &'static str {
            "flaky-block"
        }
    }

    fn flaky_db(forge: requiem_sim::IoStatus) -> Database<FlakyBackend> {
        flaky_db_checkpointing(forge, 8, 0)
    }

    /// `flaky_db` with `frames` pool frames and a checkpoint every
    /// `checkpoint_every` commits.
    fn flaky_db_checkpointing(
        forge: requiem_sim::IoStatus,
        frames: usize,
        checkpoint_every: u64,
    ) -> Database<FlakyBackend> {
        let mut db = flaky_db_unloaded(forge, frames, checkpoint_every);
        db.load();
        db
    }

    /// `flaky_db_checkpointing` before its `load()`.
    fn flaky_db_unloaded(
        forge: requiem_sim::IoStatus,
        frames: usize,
        checkpoint_every: u64,
    ) -> Database<FlakyBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: frames, // tiny: pages get evicted and re-read
            checkpoint_every,
            ..DbConfig::default()
        };
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        let be = FlakyBackend {
            inner: BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, cfg.data_pages, 64),
            fail_page: None,
            forge,
            shim: crate::backend::ReadShim::default(),
            writes: Vec::new(),
        };
        Database::new(cfg, be)
    }

    #[test]
    #[should_panic(expected = "commit order")]
    fn an_acknowledgement_below_the_last_one_panics() {
        let mut wal = Wal::new();
        let first = wal.append(LogRecord::Commit { txn: 1 });
        let second = wal.append(LogRecord::Commit { txn: 2 });
        wal.mark_flushed(second);
        let mut durability = Durability::default();
        let at = SimTime::from_micros(10);
        durability.acknowledge(&wal, second, at);
        durability.acknowledge(&wal, first, at);
    }

    #[test]
    fn unrecoverable_read_rebuilds_page_from_durable_log() {
        let mut db = flaky_db(requiem_sim::IoStatus::Unrecoverable);
        db.execute(&[(10, 3, true)], 256).expect("committed"); // txn 1 commits, log is durable
                                                               // churn the tiny pool until page 10 is evicted
        for i in 100..140u64 {
            db.execute(&[(i, 0, false)], 32).expect("committed");
        }
        assert!(!db.pool.contains(PageId(10)), "page 10 should be evicted");
        // next fetch of page 10 hits forged unrecoverable media
        db.backend.fail_page = Some(PageId(10));
        db.execute(&[(10, 3, false)], 32).expect("committed");
        assert_eq!(db.stats().media_failures, 1);
        assert_eq!(
            db.visible_owner(10, 3),
            1,
            "page must be redone from the WAL after media loss"
        );
        // the rebuilt image is durable again: a crash must not resurrect
        // the lost bytes
        db.crash();
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    /// The same after checkpoints trimmed the log: txn 1's write is gone
    /// from the log's bytes, and the rebuild finds it in the archive.
    #[test]
    fn unrecoverable_read_rebuilds_page_from_a_trimmed_log() {
        let mut db = flaky_db_checkpointing(requiem_sim::IoStatus::Unrecoverable, 8, 2);
        db.execute(&[(10, 3, true)], 256).expect("committed"); // txn 1 commits
        for i in 100..140u64 {
            db.execute(&[(i, 0, false)], 32).expect("committed");
        }
        assert!(db.stats().checkpoints >= 20, "{:?}", db.stats());
        assert!(db.wal.archived() >= 1, "txn 1's write was archived");
        assert!(!db.pool.contains(PageId(10)), "page 10 should be evicted");
        db.backend.fail_page = Some(PageId(10));
        db.execute(&[(10, 3, false)], 32).expect("committed");
        assert_eq!(db.stats().media_failures, 1);
        assert_eq!(db.visible_owner(10, 3), 1, "redone from the archive");
        db.crash();
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    /// The same through the executor at concurrency 8, with a transaction
    /// open across a checkpoint: its first write lies below that
    /// checkpoint, its commit above it. The trim keeps the write for the
    /// commit to come; a later trim archives both.
    #[test]
    fn unrecoverable_read_rebuilds_a_write_that_straddled_a_checkpoint() {
        use crate::exec::{ExecConfig, TxnInput};
        let mut db = flaky_db_checkpointing(requiem_sim::IoStatus::Unrecoverable, 16, 4);
        let cfg = ExecConfig {
            concurrency: 8,
            ..ExecConfig::serialized()
        };
        let input = |accesses: Vec<(u64, u16, bool)>| TxnInput {
            accesses,
            log_bytes: 128,
        };
        // txn 1 writes page 10, reads four cold pages, then writes page
        // 11; each of the others writes one page and reads one
        let mut inputs = vec![input(vec![
            (10, 3, true),
            (40, 0, false),
            (41, 0, false),
            (42, 0, false),
            (43, 0, false),
            (11, 4, true),
        ])];
        inputs.extend((0..15).map(|i| input(vec![(100 + i, 0, true), (150 + i, 0, false)])));
        db.backend.writes.clear(); // the load's
        db.run_concurrent(&inputs, &cfg);
        // only txn 1 writes pages 10 and 11, each once: a checkpoint
        // batch between their first write-backs found page 10 written
        // and page 11 not yet (a dirty page 11 would have been in it)
        let writes = &db.backend.writes;
        let first = |page| {
            writes
                .iter()
                .position(|(_, pages)| pages.contains(&PageId(page)))
                .expect("written back")
        };
        assert!(
            writes[first(10)..first(11)].iter().any(|&(batch, _)| batch),
            "a checkpoint fired between txn 1's writes: {writes:?}"
        );
        assert_eq!(db.stats().commits, 16);
        assert!(
            !db.wal
                .records()
                .any(|(_, r)| r == LogRecord::Commit { txn: 1 }),
            "txn 1's records were trimmed"
        );

        // churn page 10 out of the pool, then lose it on the device
        let churn: Vec<TxnInput> = (60..100).map(|p| input(vec![(p, 0, false)])).collect();
        db.run_concurrent(&churn, &cfg);
        assert!(!db.pool.contains(PageId(10)), "page 10 should be evicted");
        db.backend.fail_page = Some(PageId(10));
        db.run_concurrent(&[input(vec![(10, 3, false)])], &cfg);
        assert_eq!(db.stats().media_failures, 1);
        assert_eq!(db.visible_owner(10, 3), 1, "redone from the archive");
        assert_eq!(db.visible_owner(11, 4), 1);
        db.crash();
        assert_eq!((db.visible_owner(10, 3), db.visible_owner(11, 4)), (1, 1));
    }

    /// A log whose recovery scans all read back unrecoverable.
    struct LostLog(Box<dyn WalBackend>);

    impl WalBackend for LostLog {
        fn append(&mut self, lsn: Lsn, bytes: u32) {
            self.0.append(lsn, bytes)
        }
        fn force(&mut self, now: SimTime, to: Lsn) -> crate::walbackend::WalForce {
            self.0.force(now, to)
        }
        fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
            self.0.truncate(now, up_to_byte)
        }
        fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
            let (done, _) = self.0.recover_scan(now, offset, bytes);
            (done, IoStatus::Unrecoverable)
        }
        fn stats(&self) -> &crate::walbackend::WalStats {
            self.0.stats()
        }
        fn label(&self) -> &'static str {
            "lost-log"
        }
    }

    /// `flaky_db` over a [`LostLog`].
    fn flaky_db_losing_log_scans() -> Database<FlakyBackend> {
        let mut db = flaky_db(IoStatus::Unrecoverable);
        let log = std::mem::replace(&mut db.wal_dev, db.backend.make_wal());
        db.wal_dev = Box::new(LostLog(log));
        db
    }

    #[test]
    fn a_lost_recovery_scan_is_counted_and_replay_proceeds() {
        let mut db = flaky_db_losing_log_scans();
        db.execute(&[(10, 3, true)], 256).expect("committed");
        db.crash();
        assert!(db.recover() >= 1, "replay proceeds over the durable prefix");
        assert_eq!(db.stats().media_failures, 1, "the scan's loss is counted");
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    #[test]
    fn a_lost_media_redo_scan_is_counted() {
        let mut db = flaky_db_losing_log_scans();
        db.execute(&[(10, 3, true)], 256).expect("committed");
        for i in 100..140u64 {
            db.execute(&[(i, 0, false)], 32).expect("committed");
        }
        db.backend.fail_page = Some(PageId(10));
        db.execute(&[(10, 3, false)], 32).expect("committed");
        assert_eq!(
            db.stats().media_failures,
            2,
            "the page read and the log scan behind its redo"
        );
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    /// A log device that fails one force and serves every other one: the
    /// force `n` from when `n` is set in the shared countdown (0: none)
    /// reads back unrecoverable.
    struct FailingForce(Box<dyn WalBackend>, Rc<Cell<u64>>);

    impl WalBackend for FailingForce {
        fn append(&mut self, lsn: Lsn, bytes: u32) {
            self.0.append(lsn, bytes)
        }
        fn force(&mut self, now: SimTime, to: Lsn) -> crate::walbackend::WalForce {
            let forced = self.0.force(now, to);
            let left = self.1.get();
            self.1.set(left.saturating_sub(1));
            if left != 1 {
                return forced;
            }
            let (Ok(done) | Err(ForceFailed { done, .. })) = forced.settle();
            crate::walbackend::WalForce::new(done, IoStatus::Unrecoverable)
        }
        fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
            self.0.truncate(now, up_to_byte)
        }
        fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
            self.0.recover_scan(now, offset, bytes)
        }
        fn stats(&self) -> &crate::walbackend::WalStats {
            self.0.stats()
        }
        fn label(&self) -> &'static str {
            "failing-force"
        }
    }

    /// Put a [`FailingForce`] under `db`'s log; the countdown it returns
    /// starts at 0.
    fn fail_a_force<B: PersistenceBackend>(db: &mut Database<B>) -> Rc<Cell<u64>> {
        let countdown = Rc::new(Cell::new(0));
        let log = std::mem::replace(&mut db.wal_dev, db.backend.make_wal());
        db.wal_dev = Box::new(FailingForce(log, countdown.clone()));
        countdown
    }

    /// The `Commit` records `db`'s log holds at or below its durable
    /// horizon, and above it.
    fn commits_around_the_horizon<B: PersistenceBackend>(db: &Database<B>) -> (Vec<u64>, Vec<u64>) {
        let horizon = db.wal.flushed();
        let commits = db.wal.records().filter_map(|(lsn, r)| match r {
            LogRecord::Commit { txn } => Some((Some(lsn) <= horizon, txn)),
            _ => None,
        });
        let (durable, lost): (Vec<_>, Vec<_>) = commits.partition(|&(durable, _)| durable);
        let txns = |v: Vec<(bool, u64)>| v.into_iter().map(|(_, txn)| txn).collect();
        (txns(durable), txns(lost))
    }

    /// The serialized reference over a log whose 5th commit force fails
    /// (the device would serve the 6th): transactions 5 to 9 are neither
    /// acknowledged nor counted, the horizon stays below transaction 5's
    /// commit, and a crash keeps exactly the four acknowledged commits.
    #[test]
    fn a_failed_commit_force_acknowledges_nothing_after_it() {
        let mut db = legacy_db();
        let countdown = fail_a_force(&mut db);
        countdown.set(5);
        let outcomes: Vec<_> = (1..10u64)
            .map(|txn| db.execute(&[(txn, 0, true)], 256).map(|o| o.txn))
            .collect();
        let acked: Vec<u64> = outcomes.iter().filter_map(|o| o.ok()).collect();
        assert_eq!(acked, [1, 2, 3, 4], "{outcomes:?}");
        assert_eq!(db.stats().commits, 4);
        assert_eq!(db.stats().wal_force_failures, 5, "each later force fails");
        assert_eq!(
            db.log_failure().map(|f| f.status),
            Some(IoStatus::Unrecoverable)
        );
        let (durable, lost) = commits_around_the_horizon(&db);
        assert_eq!((durable, lost), (acked.clone(), vec![5, 6, 7, 8, 9]));
        assert_eq!(
            db.txn_latency().count(),
            4,
            "only acknowledged commits are timed"
        );

        db.crash();
        assert_eq!(db.log_failure(), None, "a crash clears the failure");
        db.recover();
        assert_eq!(db.wal.durable_commits(), acked);
        for page in 1..10u64 {
            let owner = if page < 5 { page } else { 0 };
            assert_eq!(db.visible_owner(page, 0), owner, "page {page}");
        }
        let after = db
            .execute(&[(20, 0, true)], 256)
            .expect("the recovered log commits");
        assert_eq!(db.wal.durable_commits(), [1, 2, 3, 4, after.txn]);
    }

    /// The executor at concurrency 4 with batched group commit over a log
    /// whose 3rd group force fails: only the members of the first two
    /// groups are acknowledged, and nothing later becomes durable.
    #[test]
    fn a_failed_group_force_acknowledges_nothing_after_it() {
        use crate::exec::{ExecConfig, TxnInput};
        use crate::wal::GroupCommitPolicy;
        let mut db = legacy_db();
        let countdown = fail_a_force(&mut db);
        countdown.set(3);
        let inputs: Vec<TxnInput> = (0..24u64)
            .map(|i| TxnInput {
                accesses: vec![(i, 0, true)],
                log_bytes: 128,
            })
            .collect();
        let cfg = ExecConfig {
            concurrency: 4,
            group: GroupCommitPolicy::batched(4),
            ..ExecConfig::serialized()
        };
        let report = db.run_concurrent(&inputs, &cfg);
        assert_eq!(report.txns, 24, "the run drains");
        assert!(db.log_failure().is_some());
        let (durable, lost) = commits_around_the_horizon(&db);
        assert_eq!(db.stats().commits, durable.len() as u64, "{durable:?}");
        assert_eq!(durable, (1..=8).collect::<Vec<_>>(), "two groups of four");
        assert_eq!(lost.len(), 16, "{lost:?}");
        assert_eq!(db.txn_latency().count(), 8);

        db.crash();
        db.recover();
        assert_eq!(db.wal.durable_commits(), durable);
        for (i, txn) in (0..24u64).zip(1..) {
            let owner = if durable.contains(&txn) { txn } else { 0 };
            assert_eq!(db.visible_owner(i, 0), owner, "page {i}");
        }
    }

    /// A steal whose log force fails writes no page and leaves every
    /// durable image as it was: the frame's updates are the log's alone.
    #[test]
    fn a_failed_steal_force_writes_no_page() {
        let mut db = flaky_db(IoStatus::Ok);
        for page in 0..8 {
            db.execute(&[(page, 0, true)], 64).expect("committed");
        }
        assert!(db.write_record(99, PageId(0), 1), "an update left unforced");
        let countdown = fail_a_force(&mut db);
        countdown.set(1);
        let images: Vec<PageImage> = (0..256).map(|p| db.durable_page(p).clone()).collect();
        let (writes, steals) = (db.backend.writes.len(), db.backend.stats().steal_writes);
        db.fetch_page(PageId(200));
        assert!(db.log_failure().is_some(), "the steal's force failed");
        assert_eq!(
            db.backend.writes.len(),
            writes,
            "{:?}",
            &db.backend.writes[writes..]
        );
        assert_eq!(db.backend.stats().steal_writes, steals);
        for (p, image) in (0..256).zip(&images) {
            assert_eq!(db.durable_page(p), image, "page {p}");
        }
    }

    /// A checkpoint past a failed force is not taken: with an unforced
    /// update its batch is not written, and when its own record's force
    /// fails the log is neither trimmed nor truncated. The first case is
    /// the control: the same checkpoint, its force landing, trims both.
    #[test]
    fn a_failed_checkpoint_force_neither_trims_nor_truncates() {
        for (unforced, fails) in [(false, false), (false, true), (true, true)] {
            let mut db = flaky_db_checkpointing(IoStatus::Ok, 64, 0);
            for page in 0..40 {
                db.execute(&[(page, 0, true)], 512).expect("committed");
            }
            if unforced {
                assert!(db.write_record(99, PageId(0), 1), "an update left unforced");
            }
            fail_a_force(&mut db).set(u64::from(fails));
            let flushed = db.wal.flushed();
            let records = db.wal.records().count();
            let writes = db.backend.writes.len();
            db.checkpoint();
            let case = format!("unforced {unforced}, fails {fails}");
            assert_eq!(db.log_failure().is_some(), fails, "{case}");
            assert_eq!(db.stats().checkpoints, u64::from(!fails), "{case}");
            let trims = db.wal_backend().stats().log_trims;
            assert_eq!(trims > 0, !fails, "{case}: truncated");
            assert_eq!(db.wal.flushed() == flushed, fails, "{case}");
            let kept = db.wal.records().count();
            assert_eq!(kept == records + 1, fails, "{case}: trimmed");
            let batches = db.backend.writes[writes..].iter().filter(|w| w.0).count();
            assert_eq!(batches, usize::from(!unforced), "{case}");
        }
    }

    /// A failed force at `load()` fails the log for the whole run: every
    /// later commit fails at once, with no device force.
    #[test]
    fn a_failed_load_force_fails_every_later_commit() {
        let mut db = flaky_db_unloaded(IoStatus::Ok, 64, 0);
        fail_a_force(&mut db).set(1);
        db.load();
        let failed = db.log_failure().expect("the load's force failed");
        let log_forces = db.wal_backend().stats().log_forces;
        for page in 0..20u64 {
            let at = db.now();
            let err = db.execute(&[(page, 0, true)], 128).expect_err("no commit");
            assert_eq!(err.status, failed.status);
            assert!(err.done <= db.now() && err.done >= at);
        }
        assert_eq!(db.stats().commits, 0);
        assert_eq!(db.stats().wal_force_failures, 21);
        assert_eq!(
            db.wal_backend().stats().log_forces,
            log_forces,
            "no device force"
        );
        assert_eq!(db.wal.flushed(), None);
    }

    #[test]
    fn recovered_read_counts_but_keeps_the_image() {
        let mut db = flaky_db(requiem_sim::IoStatus::RecoveredAfterRetry { steps: 2 });
        db.execute(&[(10, 3, true)], 256).expect("committed");
        for i in 100..140u64 {
            db.execute(&[(i, 0, false)], 32).expect("committed");
        }
        db.backend.fail_page = Some(PageId(10));
        db.execute(&[(10, 3, false)], 32).expect("committed");
        assert_eq!(db.stats().media_recoveries, 1);
        assert_eq!(db.stats().media_failures, 0);
        assert_eq!(db.visible_owner(10, 3), 1);
    }

    #[test]
    fn throughput_vision_beats_legacy_on_commit_heavy_load() {
        let mut l = legacy_db();
        let mut v = vision_db();
        let n = 100u64;
        for i in 0..n {
            l.execute(&[(i % 50, 0, true)], 128).expect("committed");
            v.execute(&[(i % 50, 0, true)], 128).expect("committed");
        }
        let tl = l.now();
        let tv = v.now();
        assert!(
            tv < tl,
            "vision should finish sooner: vision {tv} legacy {tl}"
        );
    }
}

/// Commit durability against the page images a frame shares with the
/// durable set: a write to the frame must never reach a durable image
/// before the log carries it.
#[cfg(test)]
mod group_commit_tests {
    use super::*;
    use crate::stack_backend::BlockStackBackend;
    use requiem_block::StackConfig;
    use requiem_ssd::SsdConfig;

    /// A loaded database on the bare block device with a `frames`-frame
    /// pool.
    fn db(frames: usize) -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: frames,
            ..DbConfig::default()
        };
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        let be = BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, cfg.data_pages, 64);
        let mut db = Database::new(cfg, be);
        db.load();
        db
    }

    /// Owner stamped in `(page, slot)` of the durable image set.
    fn durable_owner(db: &Database<BlockStackBackend>, page: u64, slot: u16) -> u64 {
        let rec = db
            .images
            .durable(PageId(page))
            .get(slot)
            .expect("formatted slot");
        u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"))
    }

    /// A clean frame shows the durable image itself (after a checkpoint,
    /// after a steal + refetch): a write to the frame must stay in its
    /// redo, or the update would become durable before the page is
    /// written.
    #[test]
    fn frame_writes_never_leak_into_the_durable_images_they_share() {
        let mut db = db(8);
        db.execute(&[(5, 0, true)], 128).expect("committed"); // txn 1
        db.checkpoint(); // page 5's frame now reads the durable image
        db.execute(&[(5, 0, true)], 128).expect("committed"); // txn 2
        assert_eq!(db.visible_owner(5, 0), 2);
        assert_eq!(durable_owner(&db, 5, 0), 1, "write leaked past the log");

        // churn the tiny pool: page 5 is stolen, then read back showing
        // the stolen image
        for i in 100..140u64 {
            db.execute(&[(i, 0, false)], 32).expect("committed");
        }
        assert!(!db.pool.contains(PageId(5)), "page 5 should be evicted");
        assert_eq!(durable_owner(&db, 5, 0), 2);
        let last = db.execute(&[(5, 0, true)], 128).expect("committed").txn;
        assert_eq!(db.visible_owner(5, 0), last);
        assert_eq!(durable_owner(&db, 5, 0), 2, "write leaked past the log");

        db.crash();
        db.recover();
        assert_eq!(
            db.visible_owner(5, 0),
            last,
            "the last committed writer survives, by redo from the log"
        );
    }

    /// A steal forces the log to `next_lsn()`, the LSN the *next* record
    /// gets, and the horizon is inclusive (DESIGN §5): a commit appended
    /// there is durable unforced and survives a crash whole. The record
    /// after it, and everything after that, is cut off the log.
    #[test]
    fn a_crash_keeps_the_record_at_a_steal_horizon_and_cuts_the_rest() {
        let mut db = db(4);
        for page in 0..4 {
            db.execute(&[(page, 0, true)], 64).expect("committed");
        }
        assert!(db.write_record(99, PageId(0), 1), "an update left unforced");
        let steals = db.backend().stats().steal_writes;
        db.fetch_page(PageId(200));
        assert_eq!(db.backend().stats().steal_writes, steals + 1);
        let horizon = db.wal.next_lsn();
        assert_eq!(db.wal.flushed(), Some(horizon), "the steal forced the log");
        let commit = db.wal.append(LogRecord::Commit { txn: 99 });
        assert_eq!(commit, horizon);
        db.wal.append_update(100, PageId(1), 1, RECORD_SIZE, |_| {});
        db.wal.append(LogRecord::Commit { txn: 100 });

        db.crash();
        let end = commit.0 + u64::from(LogRecord::Commit { txn: 99 }.encoded_len());
        assert_eq!(
            db.wal.next_lsn(),
            Lsn(end),
            "the log is cut after the commit"
        );
        assert_eq!(db.wal.durable_bytes().len() as u64, end);
        let commits = db.wal.durable_commits();
        assert!(
            commits.contains(&99) && !commits.contains(&100),
            "{commits:?}"
        );
        db.recover();
        assert_eq!(
            db.visible_owner(0, 1),
            99,
            "the unforced commit's update replays"
        );
    }

    /// The same for a checkpoint write still in flight: it lands the page
    /// as of the checkpoint, whatever the frame does next.
    #[test]
    fn frame_writes_never_leak_into_an_in_flight_checkpoint_image() {
        let mut db = db(64);
        db.execute(&[(7, 0, true)], 128).expect("committed"); // txn 1
        let landed = db.now + SimDuration::from_micros(500);
        let images = &mut db.images;
        db.pool
            .take_dirty(|pid, redo| images.write(landed, pid, redo));
        db.execute(&[(7, 0, true)], 128).expect("committed"); // txn 2 writes the cleaned frame
        db.now = db.now.max(landed);
        db.crash(); // the write-back had landed: its image is durable
        assert_eq!(db.visible_owner(7, 0), 1);
    }
}
