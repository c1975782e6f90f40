//! One run protocol for every DB experiment.
//!
//! A [`RunSpec`] holds only what varies among the DB experiments: the
//! [`DbBuilder`] (sizes, checkpoints, WAL medium, shards, and the
//! closed loop's [`ExecConfig`]), the storage manager, the
//! [`Workload`], the transaction count, the seed, and probe on or off.
//! [`run`] builds and loads the engine, attaches an aggregated probe
//! *after* the load, snapshots the device, manager and engine
//! [`Counters`], runs the closed loop, and returns the report, the probe
//! summary, the counter deltas over that measured window, and the engine
//! itself for absolute reads.

use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, CoopLogBackend, Database, DbBuilder, ExecConfig, ExecReport,
    PersistenceBackend, ShardedDb, ShardedReport, TxnInput,
};
use requiem_iface::nameless::NamelessConfig;
use requiem_iface::{DeviceInterface, DeviceMetrics};
use requiem_sim::time::SimDuration;
use requiem_sim::{Probe, ProbeSummary};
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::{oltp_inputs, txn_to_input, ShardedOltpConfig, ShardedOltpGen};

/// One DB experiment run.
#[derive(Clone)]
pub struct RunSpec<M> {
    /// The engine and the closed loop ([`DbBuilder::exec_config`]).
    pub db: DbBuilder,
    /// The storage manager the engine runs on.
    pub manager: M,
    /// Where the transactions come from.
    pub workload: Workload,
    /// Transactions in the measured window.
    pub txns: u64,
    /// The workload generator's seed.
    pub seed: u64,
    /// Attach an aggregated probe after load.
    pub probe: bool,
}

/// Where a run's transactions come from.
#[derive(Clone)]
pub enum Workload {
    /// The OLTP mix; its `data_pages` is the builder's.
    Oltp(OltpConfig),
    /// The million-client sharded mix; its `data_pages`, `shards` and
    /// `cross_shard_ratio` are the builder's.
    Sharded(ShardedOltpConfig),
    /// Inputs no generator draws; the run takes the first `txns`.
    Inputs(Vec<TxnInput>),
}

/// One executor over the block stack ([`StackConfig::bare`] is the bare
/// device).
#[derive(Clone)]
pub struct Stack(pub StackConfig, pub SsdConfig);

/// The builder's executor shards over one block stack.
#[derive(Clone)]
pub struct ShardedStack(pub StackConfig, pub SsdConfig);

/// The cooperating-logs manager over a nameless device.
#[derive(Clone)]
pub struct Coop(pub NamelessConfig);

/// The paper's vision: the block stack's vision route, log and steals
/// on PCM, pages on flash.
#[derive(Clone)]
pub struct Vision(pub SsdConfig);

/// A storage manager a spec builds its engine over.
pub trait Manager {
    /// The loaded engine.
    type Engine: Engine;
    /// Build and load the engine `db` describes over this manager.
    fn build(&self, db: &DbBuilder) -> Self::Engine;
    /// The device's, the manager's and the engine's counters now.
    fn counters(engine: &Self::Engine) -> Counters;
}

impl Manager for Stack {
    type Engine = Database<BlockStackBackend>;
    fn build(&self, db: &DbBuilder) -> Self::Engine {
        db.build_stack(self.0.clone(), self.1.clone())
    }
    fn counters(e: &Self::Engine) -> Counters {
        Counters::read([e], e.backend().ssd().device_metrics(), 0)
    }
}

impl Manager for ShardedStack {
    type Engine = ShardedDb<BlockStackBackend>;
    fn build(&self, db: &DbBuilder) -> Self::Engine {
        db.build_sharded_stack(self.0.clone(), self.1.clone())
    }
    /// Summed over the shards, over the one device they share.
    fn counters(e: &Self::Engine) -> Counters {
        let shards = (0..e.num_shards()).map(|s| e.shard(s));
        Counters::read(shards, e.shard(0).backend().ssd().device_metrics(), 0)
    }
}

impl Manager for Coop {
    type Engine = Database<CoopLogBackend>;
    fn build(&self, db: &DbBuilder) -> Self::Engine {
        db.build_coop(self.0.clone())
    }
    fn counters(e: &Self::Engine) -> Counters {
        let b = e.backend();
        Counters::read([e], b.dev().device_metrics(), b.relocations_patched())
    }
}

impl Manager for Vision {
    type Engine = Database<BlockStackBackend>;
    fn build(&self, db: &DbBuilder) -> Self::Engine {
        let cfg = db.db_config();
        // one 4 MiB DIMM holds the log and the staged steals
        let be = BlockStackBackend::vision(self.0.clone(), cfg.data_pages, 1 << 22);
        let mut engine = Database::new(cfg, be);
        engine.load();
        engine
    }
    fn counters(e: &Self::Engine) -> Counters {
        Stack::counters(e)
    }
}

/// Device, manager and engine counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// The device's.
    pub device: DeviceMetrics,
    /// Manager: data page reads.
    pub page_reads: u64,
    /// Manager: synchronous steal writes.
    pub steal_writes: u64,
    /// Manager: page and log images meant to persist (end-to-end WA's
    /// denominator).
    pub logical_writes: u64,
    /// Manager: WAL segments trimmed.
    pub log_trims: u64,
    /// Manager: GC migrations patched into its page table.
    pub relocations: u64,
    /// Engine: time stalled on demand page reads.
    pub read_stall: SimDuration,
    /// Engine: time stalled on buffer steals.
    pub steal_stall: SimDuration,
    /// Engine: time stalled on commit forces.
    pub commit_stall: SimDuration,
}

impl Counters {
    /// The engine and manager counters of `dbs`, summed, over `device`
    /// and the manager's patched migrations.
    fn read<'a, B: PersistenceBackend + 'a>(
        dbs: impl IntoIterator<Item = &'a Database<B>>,
        device: DeviceMetrics,
        relocations: u64,
    ) -> Counters {
        let mut c = Counters {
            device,
            relocations,
            ..Counters::default()
        };
        for db in dbs {
            let (e, b, w) = (db.stats(), db.backend().stats(), db.wal_backend().stats());
            c.page_reads += b.page_reads;
            c.steal_writes += b.steal_writes;
            c.logical_writes += b.logical_writes + w.logical_writes;
            c.log_trims += w.log_trims;
            c.read_stall += e.read_stall;
            c.steal_stall += e.steal_stall;
            c.commit_stall += e.commit_stall;
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            device: self.device.since(&before.device),
            page_reads: self.page_reads - before.page_reads,
            steal_writes: self.steal_writes - before.steal_writes,
            logical_writes: self.logical_writes - before.logical_writes,
            log_trims: self.log_trims - before.log_trims,
            relocations: self.relocations - before.relocations,
            read_stall: self.read_stall - before.read_stall,
            steal_stall: self.steal_stall - before.steal_stall,
            commit_stall: self.commit_stall - before.commit_stall,
        }
    }
}

/// One executor's [`Database`] or the sharded coordinator.
pub trait Engine {
    /// What one closed-loop run reports.
    type Report;
    /// Attach `probe` to the engine and every device under it.
    fn attach(&mut self, probe: &Probe);
    /// Run `inputs` as a closed loop under `exec`.
    fn closed_loop(&mut self, inputs: &[TxnInput], exec: &ExecConfig) -> Self::Report;
}

impl<B: PersistenceBackend> Engine for Database<B> {
    type Report = ExecReport;
    fn attach(&mut self, probe: &Probe) {
        self.attach_probe(probe.clone());
    }
    fn closed_loop(&mut self, inputs: &[TxnInput], exec: &ExecConfig) -> ExecReport {
        self.run_concurrent(inputs, exec)
    }
}

impl Engine for ShardedDb<BlockStackBackend> {
    type Report = ShardedReport;
    fn attach(&mut self, probe: &Probe) {
        self.attach_probe(probe);
    }
    fn closed_loop(&mut self, inputs: &[TxnInput], exec: &ExecConfig) -> ShardedReport {
        self.run(inputs, exec)
    }
}

impl<M: Manager> RunSpec<M> {
    /// The same spec over another manager.
    pub fn over<N>(self, manager: N) -> RunSpec<N> {
        RunSpec {
            db: self.db,
            manager,
            workload: self.workload,
            txns: self.txns,
            seed: self.seed,
            probe: self.probe,
        }
    }

    /// The loaded engine, before any transaction.
    pub(crate) fn build(&self) -> M::Engine {
        self.manager.build(&self.db)
    }

    /// The run's `txns` inputs, a pure function of the spec.
    pub(crate) fn inputs(&self) -> Vec<TxnInput> {
        let data_pages = self.db.db_config().data_pages;
        match &self.workload {
            Workload::Oltp(cfg) => {
                let cfg = OltpConfig {
                    data_pages,
                    ..cfg.clone()
                };
                oltp_inputs(&mut OltpGen::new(cfg, self.seed), self.txns)
            }
            Workload::Sharded(cfg) => {
                let cfg = ShardedOltpConfig {
                    data_pages,
                    shards: self.db.num_shards(),
                    cross_shard_ratio: self.db.cross_ratio(),
                    ..cfg.clone()
                };
                let mut gen = ShardedOltpGen::new(cfg, self.seed);
                (0..self.txns)
                    .map(|_| txn_to_input(&gen.next_txn()))
                    .collect()
            }
            Workload::Inputs(inputs) => inputs[..self.txns as usize].to_vec(),
        }
    }
}

/// What [`run`] measured.
pub struct RunResult<E: Engine> {
    /// The closed loop's report.
    pub report: E::Report,
    /// The probe's summary of the measured window, if it was on.
    pub probe: Option<ProbeSummary>,
    /// Counter deltas over the measured window: the load drops out.
    pub delta: Counters,
    /// The engine after the run, for absolute reads.
    pub engine: E,
}

/// Run `spec` by the module docs' protocol.
pub fn run<M: Manager>(spec: &RunSpec<M>) -> RunResult<M::Engine> {
    let inputs = spec.inputs();
    let mut engine = spec.build();
    let probe = spec.probe.then(Probe::aggregated);
    if let Some(p) = &probe {
        engine.attach(p);
    }
    let before = M::counters(&engine);
    let report = engine.closed_loop(&inputs, &spec.db.exec_config());
    RunResult {
        report,
        probe: probe.map(|p| p.summary()),
        delta: M::counters(&engine).since(before),
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_db::{DbConfig, GroupCommitPolicy};

    fn spec(txns: u64, probe: bool) -> RunSpec<Stack> {
        RunSpec {
            db: DbConfig::builder()
                .data_pages(256)
                .log_pages(64)
                .buffer_frames(32)
                .checkpoint_every(40)
                .concurrency(4)
                .group(GroupCommitPolicy::batched(4)),
            manager: Stack(StackConfig::blk_mq(1), SsdConfig::figure1()),
            workload: Workload::Oltp(OltpConfig::default()),
            txns,
            seed: 5,
            probe,
        }
    }

    #[test]
    fn a_spec_run_twice_gives_identical_results() {
        let (a, b) = (run(&spec(120, true)), run(&spec(120, true)));
        assert_eq!(a.report.txns, 120);
        assert_eq!(a.report.tps.to_bits(), b.report.tps.to_bits());
        assert_eq!(a.report.forces, b.report.forces);
        assert_eq!(a.report.read_only_latency, b.report.read_only_latency);
        assert_eq!(a.report.update_latency, b.report.update_latency);
        assert!(a.engine.wal().records().eq(b.engine.wal().records()));
        assert_eq!(a.engine.stats(), b.engine.stats());
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.probe, b.probe);
        assert_eq!(a.engine.now(), b.engine.now());
        assert!(a.delta.device.flash_programs > 0 && a.delta.page_reads > 0);
    }

    #[test]
    fn zero_transactions_report_zero_deltas_over_the_load() {
        let r = run(&spec(0, false));
        assert_eq!(r.report.txns, 0);
        // mapping RAM is a level, not a counter: the delta carries it
        let ram = r.delta.device.mapping_ram_bytes;
        let device = DeviceMetrics {
            mapping_ram_bytes: ram,
            ..DeviceMetrics::default()
        };
        assert_eq!(
            r.delta,
            Counters {
                device,
                ..Counters::default()
            }
        );
        let loaded = Stack::counters(&r.engine);
        assert!(
            loaded.device.host_writes >= 256,
            "the load wrote every page"
        );
        assert!(loaded.device.flash_programs >= loaded.device.host_writes);
    }

    #[test]
    fn the_probe_is_summarized_only_when_on() {
        assert!(run(&spec(20, false)).probe.is_none());
        let summary = run(&spec(20, true)).probe.expect("probe on");
        assert!(!summary.by_layer_cause.is_empty());
    }

    #[test]
    fn a_sharded_run_sums_its_shards_over_one_device() {
        let s = RunSpec {
            db: spec(0, false).db.shards(2).cross_shard_ratio(0.2),
            workload: Workload::Sharded(ShardedOltpConfig {
                clients: 64,
                ..ShardedOltpConfig::default()
            }),
            txns: 60,
            ..spec(0, false)
        }
        .over(ShardedStack(StackConfig::blk_mq(2), SsdConfig::figure1()));
        let r = run(&s);
        assert_eq!(r.report.txns, 60);
        assert!(r.report.cross_txns > 0);
        let shard_reads: u64 = (0..2)
            .map(|i| r.engine.shard(i).backend().stats().page_reads)
            .sum();
        let c = ShardedStack::counters(&r.engine);
        assert_eq!(c.page_reads, shard_reads);
        let device = r.engine.shard(1).backend().ssd().device_metrics();
        assert_eq!(
            c.device, device,
            "the shards share one device, counted once"
        );
    }
}
