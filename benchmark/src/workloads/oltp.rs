//! `oltp_qd16`, `oltp_shard4` and `oltp_coop_pcm`: the OLTP mix through the
//! storage manager, over three different lower halves.
//!
//! * `oltp_qd16` — one executor at concurrency 16 over the blk-mq stack,
//!   pool an eighth of the data: executor, buffer pool, steal writes and
//!   group commit dominate while the device idles compared with `ssd_*`.
//! * `oltp_shard4` — four executor shards over the same device: the
//!   `CoreClock` interleaving, two-phase ledger forces and per-shard pools.
//! * `oltp_coop_pcm` — `oltp_qd16`'s inputs over the paper's vision path
//!   (PCM WAL, nameless writes): `iface` + `pcm`, no `block` at all.

use std::time::Instant;

use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, CoopLogBackend, Database, DbBuilder, DbConfig, ExecConfig,
    GroupCommitPolicy, PersistenceBackend, PrefetchConfig, ShardedDb, TxnInput, WalConfig,
};
use requiem_iface::nameless::NamelessConfig;
use requiem_sim::{Histogram, Probe, SimDuration, SimRng};
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::{oltp_inputs, txn_to_input, ShardedOltpConfig, ShardedOltpGen};

use super::{
    device, ratio, write_amplification, Check, DeviceCounts, Measured, Mode, Rep, Sim, Workload,
    CHECK_SAMPLES,
};
use crate::measure::{quantile_interp, Fingerprint};
use crate::trace::{cut, Peel, Seam, Timed};

const DATA_PAGES: u64 = 4096;
const LOG_PAGES: u64 = 512;
const SHARDS: usize = 4;
/// Zipfian skew of the page (`OltpGen`) / client (`ShardedOltpGen`) choice.
const THETA: f64 = 0.8;
/// Client population of `oltp_shard4`. E17 uses 2^20; generation is
/// O(population) per sample today, so that shape lives in `gen_zipf`.
const CLIENTS: u64 = 4096;
const CROSS_SHARD_RATIO: f64 = 0.10;
/// Commits between sharp checkpoints (per executor), so the timed region
/// sees several cycles of the checkpoint batch, the double-write journal
/// and WAL truncation, and recovery replays a bounded log tail.
const CHECKPOINT_EVERY: u64 = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Qd16,
    Shard4,
    CoopPcm,
}

pub struct OltpWorkload {
    kind: Kind,
    seed: u64,
    inputs: Vec<TxnInput>,
}

impl OltpWorkload {
    pub fn new(kind: Kind) -> Self {
        OltpWorkload {
            kind,
            seed: 0,
            inputs: Vec::new(),
        }
    }

    fn builder(&self) -> DbBuilder {
        let b = DbConfig::builder()
            .data_pages(DATA_PAGES)
            .log_pages(LOG_PAGES)
            .checkpoint_every(CHECKPOINT_EVERY);
        match self.kind {
            Kind::Qd16 => b
                .buffer_frames(512)
                .concurrency(16)
                .group(GroupCommitPolicy::batched(16)),
            Kind::Shard4 => b
                .buffer_frames(1024)
                .shards(SHARDS)
                .cross_shard_ratio(CROSS_SHARD_RATIO)
                .concurrency(4)
                .group(GroupCommitPolicy::batched(4)),
            Kind::CoopPcm => b
                .buffer_frames(512)
                .concurrency(16)
                .group(GroupCommitPolicy::immediate())
                .wal(WalConfig::pcm()),
        }
        .prefetch(PrefetchConfig::off())
    }
}

impl Workload for OltpWorkload {
    fn op_unit(&self) -> &'static str {
        "txn"
    }

    fn full_ops(&self) -> usize {
        match self.kind {
            Kind::Qd16 | Kind::CoopPcm => 50_000,
            Kind::Shard4 => 40_000,
        }
    }

    fn generate(&mut self, seed: u64, ops: usize) {
        self.seed = seed;
        self.inputs = match self.kind {
            Kind::Qd16 | Kind::CoopPcm => {
                let cfg = OltpConfig {
                    data_pages: DATA_PAGES,
                    theta: THETA,
                    ..OltpConfig::default()
                };
                oltp_inputs(&mut OltpGen::new(cfg, seed), ops as u64)
            }
            Kind::Shard4 => {
                let cfg = ShardedOltpConfig {
                    clients: CLIENTS,
                    theta: THETA,
                    shards: SHARDS,
                    cross_shard_ratio: CROSS_SHARD_RATIO,
                    data_pages: DATA_PAGES,
                    ..ShardedOltpConfig::default()
                };
                let mut gen = ShardedOltpGen::new(cfg, seed);
                (0..ops).map(|_| txn_to_input(&gen.next_txn())).collect()
            }
        };
    }

    fn uncut_seam(&self) -> Option<&'static str> {
        (self.kind == Kind::CoopPcm).then_some(
            "PcmWal is built inside Database::new, not through make_wal: its host time \
             cannot be cut from outside and stays in db.exec_self_s (db.wal_s reads 0)",
        )
    }

    fn rep(&self, ops: usize, mode: &Mode) -> Rep<'_> {
        let b = self.builder();
        let t_setup = Instant::now();
        // Plain and probed reps build through the program's own front
        // door. Traced reps rebuild by hand what that front door does,
        // with a `Timed` wrapper slipped under `Database::new`.
        match (self.kind, mode.tracer()) {
            (Kind::Qd16, None) => {
                let db = b.build_stack(StackConfig::blk_mq(1), device());
                self.finish(db, t_setup, ops, mode)
            }
            (Kind::Qd16, Some(tr)) => {
                let be =
                    BlockStackBackend::new(StackConfig::blk_mq(1), device(), DATA_PAGES, LOG_PAGES);
                let mut db = Database::new(b.db_config(), Timed::new(be, tr));
                db.load();
                self.finish(db, t_setup, ops, mode)
            }
            (Kind::Shard4, None) => {
                let db = b.build_sharded_stack(StackConfig::blk_mq(SHARDS as u32), device());
                self.finish(db, t_setup, ops, mode)
            }
            (Kind::Shard4, Some(tr)) => {
                let per_shard = DATA_PAGES / SHARDS as u64;
                let cfg = DbConfig {
                    data_pages: per_shard,
                    buffer_frames: 1024 / SHARDS,
                    ..b.db_config()
                };
                let dbs = BlockStackBackend::shards(
                    StackConfig::blk_mq(SHARDS as u32),
                    device(),
                    SHARDS,
                    per_shard,
                    LOG_PAGES,
                )
                .into_iter()
                .map(|be| Database::new(cfg.clone(), Timed::new(be, tr)))
                .collect();
                let mut db = ShardedDb::new(dbs, DATA_PAGES);
                db.load();
                self.finish(db, t_setup, ops, mode)
            }
            (Kind::CoopPcm, None) => {
                let db = b.build_coop(NamelessConfig::from(&device()));
                self.finish(db, t_setup, ops, mode)
            }
            (Kind::CoopPcm, Some(tr)) => {
                let be =
                    CoopLogBackend::new(NamelessConfig::from(&device()), DATA_PAGES, LOG_PAGES);
                let mut db = Database::new(b.db_config(), Timed::new(be, tr));
                db.load();
                self.finish(db, t_setup, ops, mode)
            }
        }
    }
}

impl OltpWorkload {
    /// The timed region and everything read off the engine after it.
    fn finish<'a, E: Engine + 'a>(
        &'a self,
        mut db: E,
        t_setup: Instant,
        ops: usize,
        mode: &Mode,
    ) -> Rep<'a> {
        let setup_s = t_setup.elapsed().as_secs_f64();
        let inputs = &self.inputs[..ops];
        let cfg = self.builder().exec_config();
        if let Some(probe) = mode.probe() {
            db.attach(probe);
        }
        let before = db.counts();
        let tr = mode.tracer().map(|t| &**t);
        let (out, run_s) = mode.stopwatch(|| cut(tr, Seam::DbRun, 0, || db.execute(inputs, &cfg)));

        let c = db.counts().since(&before);
        let mut latency = out.read_only_latency.clone();
        latency.merge(&out.update_latency);
        let logical_writes = c.db[LOGICAL_WRITES] + c.db[WAL_LOGICAL_WRITES];
        let sim = Sim {
            ops_per_s: out.committed as f64 / out.makespan.as_secs_f64(),
            lat_p50_us: quantile_interp(&latency, 0.5) / 1e3,
            lat_p999_us: quantile_interp(&latency, 0.999) / 1e3,
            wa: write_amplification(c.device.flash_programs, logical_writes),
        };
        let failed = (ops as u64 - out.committed)
            + c.db[WAL_FORCE_FAILURES]
            + c.db[MEDIA_FAILURES]
            + c.rejected_writes;

        let mut fp = Fingerprint::default();
        for t in db.clocks() {
            fp.u64(t);
        }
        fp.u64(out.makespan.as_nanos());
        for x in [
            out.committed,
            out.forces,
            out.grouped,
            out.coalesced,
            out.cross_txns,
            out.prepares,
            out.aborted,
            c.relocations,
            c.rejected_writes,
        ] {
            fp.u64(x);
        }
        for x in c.db {
            fp.u64(x);
        }
        c.device.fold(&mut fp);
        fp.hist(&out.read_only_latency);
        fp.hist(&out.update_latency);

        let accesses: usize = inputs.iter().map(|t| t.accesses.len()).sum();
        let slot_time = out.makespan.as_nanos() * (cfg.concurrency * db.executors()) as u64;
        let mut layer = c.device.layer_metrics(&device(), out.makespan.as_nanos());
        layer.extend([
            (
                "db.pool_miss_ratio",
                ratio(c.db[PAGE_READS], accesses as u64),
            ),
            ("db.coalesced_reads", out.coalesced as f64),
            ("db.steal_writes", c.db[STEAL_WRITES] as f64),
            ("db.page_writes", c.db[PAGE_WRITES] as f64),
            ("db.checkpoints", c.db[CHECKPOINTS] as f64),
            ("db.wal_forces", c.db[WAL_FORCES] as f64),
            ("db.mean_group", ratio(out.grouped, out.forces)),
            ("db.read_stall_share", ratio(c.db[READ_STALL_NS], slot_time)),
            (
                "db.commit_stall_share",
                ratio(c.db[COMMIT_STALL_NS], slot_time),
            ),
            ("db.cross_txns", out.cross_txns as f64),
            ("db.ledger_prepares", out.prepares as f64),
            ("db.ledger_aborted", out.aborted as f64),
            ("iface.relocations_patched", c.relocations as f64),
        ]);
        if self.kind == Kind::CoopPcm {
            layer.extend([
                (
                    "iface.device_wa",
                    ratio(c.device.flash_programs, c.device.host_writes),
                ),
                ("pcm.persists", c.db[WAL_FORCES] as f64),
                ("pcm.wear_skew", db.wal_wear_skew()),
            ]);
        }

        let seed = self.seed;
        let m = Measured {
            setup_s,
            run_s,
            ops: ops as u64,
            failed,
            sim,
            fingerprint: fp.finish(),
            layer,
        };
        Rep {
            m,
            check: Box::new(move || durability_check(db, inputs, seed)),
        }
    }
}

/// Read the visible owner of [`CHECK_SAMPLES`] records that committed
/// transactions wrote, crash, recover, read them again. A record nobody
/// owns, or one whose owner changed across the crash, is a failure.
fn durability_check<E: Engine>(mut db: E, inputs: &[TxnInput], seed: u64) -> Check {
    let mut rng = SimRng::from_seed(seed).derive("durability-check");
    let mut samples: Vec<(u64, u16)> = Vec::with_capacity(CHECK_SAMPLES);
    // at most a few draws per sample: half of all accesses are writes
    for _ in 0..CHECK_SAMPLES * 64 {
        if samples.len() == CHECK_SAMPLES {
            break;
        }
        let txn = &inputs[rng.index(inputs.len())];
        if let Some(&(page, slot, _)) = txn.accesses.iter().find(|a| a.2) {
            samples.push((page, slot));
        }
    }
    let t = Instant::now();
    let before: Vec<u64> = samples.iter().map(|&(p, s)| db.owner(p, s)).collect();
    db.crash_and_recover();
    let failed = samples
        .iter()
        .zip(&before)
        .filter(|(&(p, s), &owner)| owner == 0 || db.owner(p, s) != owner)
        .count();
    Check {
        attempted: samples.len() as u64,
        failed: failed as u64,
        host_s: t.elapsed().as_secs_f64(),
    }
}

// Indices into `Counts::db`: every cumulative engine / backend / WAL
// counter the workloads difference over the timed region.
const COMMITS: usize = 0;
const CHECKPOINTS: usize = 1;
const READ_STALL_NS: usize = 2;
const STEAL_STALL_NS: usize = 3;
const COMMIT_STALL_NS: usize = 4;
const MEDIA_FAILURES: usize = 5;
const WAL_FORCE_FAILURES: usize = 6;
const PAGE_READS: usize = 7;
const PAGE_WRITES: usize = 8;
const STEAL_WRITES: usize = 9;
const BATCHES: usize = 10;
const LOGICAL_WRITES: usize = 11;
const WAL_FORCES: usize = 12;
const WAL_BYTES: usize = 13;
const WAL_LOGICAL_WRITES: usize = 14;
const WAL_TRIMS: usize = 15;

/// Cumulative counters of one engine (summed over shards) and its device.
#[derive(Debug, Clone, Default)]
struct Counts {
    db: [u64; 16],
    device: DeviceCounts,
    relocations: u64,
    rejected_writes: u64,
}

impl Counts {
    fn add_shard<B: PersistenceBackend>(&mut self, db: &Database<B>) {
        let (e, b, w) = (db.stats(), db.backend().stats(), db.wal_backend().stats());
        let shard = [
            (COMMITS, e.commits),
            (CHECKPOINTS, e.checkpoints),
            (READ_STALL_NS, e.read_stall.as_nanos()),
            (STEAL_STALL_NS, e.steal_stall.as_nanos()),
            (COMMIT_STALL_NS, e.commit_stall.as_nanos()),
            (MEDIA_FAILURES, e.media_failures),
            (WAL_FORCE_FAILURES, e.wal_force_failures),
            (PAGE_READS, b.page_reads),
            (PAGE_WRITES, b.page_writes),
            (STEAL_WRITES, b.steal_writes),
            (BATCHES, b.batches),
            (LOGICAL_WRITES, b.logical_writes),
            (WAL_FORCES, w.log_forces),
            (WAL_BYTES, w.log_bytes),
            (WAL_LOGICAL_WRITES, w.logical_writes),
            (WAL_TRIMS, w.log_trims),
        ];
        for (i, x) in shard {
            self.db[i] += x;
        }
    }

    fn since(&self, before: &Counts) -> Counts {
        let mut db = self.db;
        for (x, b) in db.iter_mut().zip(before.db) {
            *x -= b;
        }
        Counts {
            db,
            device: self.device.since(before.device),
            relocations: self.relocations - before.relocations,
            rejected_writes: self.rejected_writes - before.rejected_writes,
        }
    }
}

/// The device under a persistence backend, as far as its public
/// accessors show it.
pub trait DeviceView {
    fn device_counts(&self) -> DeviceCounts;
    /// Migration upcalls patched into the host's tables (the block
    /// interface cannot express one).
    fn relocations_patched(&self) -> u64 {
        0
    }
    /// Writes the device refused.
    fn rejected_writes(&self) -> u64 {
        0
    }
}

impl DeviceView for BlockStackBackend {
    fn device_counts(&self) -> DeviceCounts {
        DeviceCounts::of(&self.ssd())
    }
}

impl DeviceView for CoopLogBackend {
    fn device_counts(&self) -> DeviceCounts {
        // the nameless device exposes its metrics but not its resource
        // timelines: channel / LUN utilisation read 0 on this workload
        DeviceCounts::of_metrics(self.dev().metrics())
    }

    fn relocations_patched(&self) -> u64 {
        CoopLogBackend::relocations_patched(self)
    }

    fn rejected_writes(&self) -> u64 {
        CoopLogBackend::rejected_writes(self)
    }
}

/// What one closed-loop run reported, in one shape for both drivers.
struct Outcome {
    committed: u64,
    makespan: SimDuration,
    forces: u64,
    /// Commits made durable by those forces (`mean_group * forces`).
    grouped: u64,
    coalesced: u64,
    cross_txns: u64,
    prepares: u64,
    aborted: u64,
    read_only_latency: Histogram,
    update_latency: Histogram,
}

/// The single executor and the shard coordinator behind one face, so the
/// timed region, the counters and the durability check are written once.
trait Engine {
    /// Executors stepping the closed loop (shards).
    fn executors(&self) -> usize;
    /// Attach the probe on every executor.
    fn attach(&mut self, probe: &Probe);
    fn execute(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> Outcome;
    fn counts(&self) -> Counts;
    /// Each executor's virtual clock, in nanoseconds.
    fn clocks(&self) -> Vec<u64>;
    fn wal_wear_skew(&self) -> f64;
    fn owner(&mut self, page: u64, slot: u16) -> u64;
    fn crash_and_recover(&mut self);
}

impl<B> Engine for Database<B>
where
    B: PersistenceBackend + Peel,
    B::Inner: DeviceView,
{
    fn executors(&self) -> usize {
        1
    }

    fn attach(&mut self, probe: &Probe) {
        self.attach_probe(probe.clone());
    }

    fn execute(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> Outcome {
        let r = self.run_concurrent(inputs, cfg);
        Outcome {
            committed: r.txns,
            makespan: r.makespan,
            forces: r.forces,
            grouped: (r.mean_group * r.forces as f64).round() as u64,
            coalesced: r.coalesced,
            cross_txns: 0,
            prepares: 0,
            aborted: 0,
            read_only_latency: r.read_only_latency,
            update_latency: r.update_latency,
        }
    }

    fn counts(&self) -> Counts {
        let dev = self.backend().peel();
        let mut c = Counts {
            device: dev.device_counts(),
            relocations: dev.relocations_patched(),
            rejected_writes: dev.rejected_writes(),
            ..Counts::default()
        };
        c.add_shard(self);
        c
    }

    fn clocks(&self) -> Vec<u64> {
        vec![self.now().as_nanos()]
    }

    fn wal_wear_skew(&self) -> f64 {
        self.wal_backend().wear().map_or(0.0, |w| w.skew())
    }

    fn owner(&mut self, page: u64, slot: u16) -> u64 {
        self.visible_owner(page, slot)
    }

    fn crash_and_recover(&mut self) {
        self.crash();
        self.recover();
    }
}

impl<B> Engine for ShardedDb<B>
where
    B: PersistenceBackend + Peel,
    B::Inner: DeviceView,
{
    fn executors(&self) -> usize {
        self.num_shards()
    }

    fn attach(&mut self, probe: &Probe) {
        for s in 0..self.num_shards() {
            self.shard_mut(s).attach_probe(probe.clone());
        }
    }

    fn execute(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> Outcome {
        let prepares_before = self.ledger().stats().prepares;
        let r = self.run(inputs, cfg);
        Outcome {
            committed: r.committed,
            makespan: r.makespan,
            forces: r.forces,
            grouped: r
                .per_shard
                .iter()
                .map(|s| (s.mean_group * s.forces as f64).round() as u64)
                .sum(),
            coalesced: r.per_shard.iter().map(|s| s.coalesced).sum(),
            cross_txns: r.cross_txns,
            prepares: self.ledger().stats().prepares - prepares_before,
            aborted: r.aborted,
            read_only_latency: r.read_only_latency,
            update_latency: r.update_latency,
        }
    }

    fn counts(&self) -> Counts {
        // every shard's backend sits on the one shared device
        let dev = self.shard(0).backend().peel();
        let mut c = Counts {
            device: dev.device_counts(),
            relocations: dev.relocations_patched(),
            rejected_writes: dev.rejected_writes(),
            ..Counts::default()
        };
        for s in 0..self.num_shards() {
            c.add_shard(self.shard(s));
        }
        c
    }

    fn clocks(&self) -> Vec<u64> {
        (0..self.num_shards())
            .map(|s| self.shard(s).now().as_nanos())
            .collect()
    }

    fn wal_wear_skew(&self) -> f64 {
        0.0
    }

    fn owner(&mut self, page: u64, slot: u16) -> u64 {
        let local = (page % self.data_pages()) / self.num_shards() as u64;
        let s = self.shard_of(page);
        self.shard_mut(s).visible_owner(local, slot)
    }

    fn crash_and_recover(&mut self) {
        self.crash();
        self.recover();
    }
}
