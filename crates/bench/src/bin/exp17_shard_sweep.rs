//! **E17 — Executor shard sweep**: horizontal scaling over one device,
//! up to the channel-bound knee.
//!
//! E13 scaled one completion-driven executor by deepening its queue.
//! This experiment scales *out* instead: N executor shards, each with
//! its own submission core, keyspace residue class (`page % N`), and
//! buffer-pool partition, all over one shared Figure-1 device. A
//! million-client zipfian mix drives the shards; a knob forces a
//! fraction of transactions to span shards, which routes them through
//! the two-phase ledger on the shared-per-shard group-commit WAL.
//! Four sections:
//!
//! * **17a** — TPS vs shard count at fixed per-shard depth: adding
//!   shards multiplies in-flight work until the single ONFI-2 channel
//!   saturates. At the knee the probe bus — on every shard — shows
//!   channel/queue spans dominating the decomposition outside the log's
//!   own forces: the device, not the executors, is the wall. Asserted
//!   from the probe summary, not eyeballed.
//! * **17b** — per-shard queue depth at a fixed shard count: the two
//!   axes (scale out, scale deep) buy the same parallelism until they
//!   collide on the same channel.
//! * **17c** — the cross-shard knob: raising the two-phase fraction
//!   adds prepare forces and a second synchronous wait to every
//!   distributed commit; throughput pays for coordination.
//! * **17d** — the identity anchor: QD 1 × 1 shard replays the
//!   serialized engine bit-for-bit, so every delta the sweep measures
//!   is caused by sharding, not by a different engine.
//!
//! Every run is a [`requiem_bench::campaign`] spec. `--short` selects
//! the CI preset (same phases, fewer transactions).
//! The trailing JSON is pinned in `golden/exp17_shard_sweep.txt`.

use requiem_bench::campaign::{self, RunSpec, ShardedStack, Stack, Workload};
use requiem_bench::{all_txns, note, section, serialized_identity, Series, V};
use requiem_block::StackConfig;
use requiem_db::{DbConfig, GroupCommitPolicy, ShardedReport};
use requiem_sim::probe::{Cause, Layer};
use requiem_sim::table::Align;
use requiem_ssd::SsdConfig;
use requiem_workload::sharded::ShardedOltpConfig;

const SEED: u64 = 17;
const DATA_PAGES: u64 = 1024;
const LOG_PAGES: u64 = 512;
/// Pool sized to the whole keyspace: E17 studies *submission* scaling,
/// so the working set stays resident and no steal traffic muddies the
/// channel attribution (E13b already covers memory pressure).
const BUFFER_FRAMES: usize = 1024;
const SHARDS: [usize; 4] = [1, 2, 4, 8];
const QDS: [usize; 4] = [1, 2, 4, 8];
const CROSS: f64 = 0.10;

/// One traced closed-loop run: `shards` executors at per-shard depth
/// `qd` on a fresh device, cross-shard fraction `cross`, the
/// million-client mix. At QD 1 this is
/// [`requiem_db::ExecConfig::serialized`].
fn spec(shards: usize, qd: usize, cross: f64, txns: u64) -> RunSpec<ShardedStack> {
    RunSpec {
        db: DbConfig::builder()
            .data_pages(DATA_PAGES)
            .log_pages(LOG_PAGES)
            .buffer_frames(BUFFER_FRAMES)
            .shards(shards)
            .cross_shard_ratio(cross)
            .concurrency(qd)
            .group(GroupCommitPolicy::batched(qd as u32)),
        // every shard submits into the one ONFI-2 channel: the knee this
        // sweep hunts for is that channel running out of idle cycles
        manager: ShardedStack(StackConfig::blk_mq(shards as u32), SsdConfig::figure1()),
        workload: Workload::Sharded(ShardedOltpConfig::default()),
        txns,
        seed: SEED,
        probe: true,
    }
}

struct SweepPoint {
    shards: usize,
    qd: usize,
    report: ShardedReport,
    /// Fraction of all probe-attributed time spent queueing for the
    /// flash channel — the channel-bound signature.
    channel_queue_share: f64,
    /// Whether channel/queue is the single largest `(layer, cause)`
    /// bucket in the probe decomposition outside the WAL layer (whose
    /// forces every shard waits on by design).
    channel_queue_dominates: bool,
}

impl SweepPoint {
    fn new(shards: usize, qd: usize, cross: f64, txns: u64) -> Self {
        let r = campaign::run(&spec(shards, qd, cross, txns));
        let summary = r.probe.expect("every sweep point is traced");
        let spans = || summary.by_layer_cause.values().map(|s| s.total.as_nanos());
        let outside_wal = summary
            .by_layer_cause
            .iter()
            .filter(|((layer, _), _)| *layer != Layer::Wal)
            .map(|(_, s)| s.total.as_nanos());
        let chan_queue = summary
            .by_layer_cause
            .get(&(Layer::Channel, Cause::Queue))
            .map_or(0, |s| s.total.as_nanos());
        SweepPoint {
            shards,
            qd,
            report: r.report,
            channel_queue_share: chan_queue as f64 / spans().sum::<u64>().max(1) as f64,
            channel_queue_dominates: chan_queue > 0 && Some(chan_queue) == outside_wal.max(),
        }
    }
}

fn p999(report: &ShardedReport) -> u64 {
    all_txns(&report.read_only_latency, &report.update_latency).quantile(0.999)
}

/// The JSON rows of 17a and 17b; each section appends its table's
/// columns, which order the fields differently.
fn sweep_series<'a>() -> Series<'a, SweepPoint> {
    Series::new()
        .json_only("shards", |p: &SweepPoint| V::Count(p.shards as u64))
        .json_only("qd", |p| V::Count(p.qd as u64))
        .json_only("tps", |p| V::Float(p.report.tps, 0, 1))
        .json_only("p999_ns", |p| V::Ns(p999(&p.report)))
        .json_only("channel_stall_share", |p| {
            V::Share(p.channel_queue_share, 1, 3)
        })
        .json_only("committed", |p| V::Count(p.report.committed))
        .json_only("cross", |p| V::Count(p.report.cross_txns))
        .json_only("aborted", |p| V::Count(p.report.aborted))
        .json_only("forces", |p| V::Count(p.report.forces))
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    let txns: u64 = if short { 240 } else { 600 };

    println!("# E17 — executor shard sweep over one Figure-1 device");
    note("N executor shards (own core, own keyspace residue, own pool partition) submit into one shared ONFI-2 channel; cross-shard transactions run two-phase over the per-shard WALs.");
    let preset = if short { "short" } else { "full" };
    println!("preset: {preset} ({txns} txns per point)\n");

    // ------------------------------------------------------------------
    section("17a. TPS vs shard count (per-shard QD 4, 10% cross-shard)");
    let points: Vec<SweepPoint> = SHARDS
        .iter()
        .map(|&s| SweepPoint::new(s, 4, CROSS, txns))
        .collect();
    let base_tps = points[0].report.tps;
    let shard_series = sweep_series()
        .table_only("shards", |p| V::Count(p.shards as u64))
        .table_only("TPS", |p| V::Float(p.report.tps, 0, 1))
        .table_only("speedup", |p| V::Speedup(p.report.tps / base_tps))
        .table_only("committed", |p| V::Count(p.report.committed))
        .table_only("cross", |p| V::Count(p.report.cross_txns))
        .table_only("aborted", |p| V::Count(p.report.aborted))
        .table_only("forces", |p| V::Count(p.report.forces))
        .table_only("p99.9", |p| V::Ns(p999(&p.report)))
        .table_only("chan-queue share", |p| {
            V::Share(p.channel_queue_share, 1, 3)
        });
    println!("{}", shard_series.table(&points));
    assert!(
        points[1].report.tps > points[0].report.tps * 1.1,
        "two shards must out-run one by a clear margin ({:.0} vs {:.0})",
        points[1].report.tps,
        points[0].report.tps
    );
    let knee = points.last().unwrap();
    assert!(
        knee.report.tps > points[0].report.tps,
        "the full fleet must still beat one shard ({:.0} vs {:.0})",
        knee.report.tps,
        points[0].report.tps
    );
    assert!(
        knee.channel_queue_share > points[0].channel_queue_share,
        "the channel-queue share must grow toward the knee ({:.3} vs {:.3})",
        knee.channel_queue_share,
        points[0].channel_queue_share
    );
    assert!(
        knee.channel_queue_dominates,
        "at the knee, channel/queue must be the largest span bucket outside the wal layer"
    );
    note("Each added shard multiplies the commands in flight; the chips absorb them until the shared channel's command/data cycles become the scarce resource. Outside the log's own forces, the probe decomposition at the knee is dominated by channel/queue waits — the block interface would report only 'latency went up'.");

    // ------------------------------------------------------------------
    section("17b. Per-shard queue depth at 4 shards (10% cross-shard)");
    let qd_points: Vec<SweepPoint> = QDS
        .iter()
        .map(|&qd| SweepPoint::new(4, qd, CROSS, txns))
        .collect();
    let qd_base = qd_points[0].report.tps;
    let qd_series = sweep_series()
        .table_only("QD/shard", |p| V::Count(p.qd as u64))
        .table_only("TPS", |p| V::Float(p.report.tps, 0, 1))
        .table_only("speedup", |p| V::Speedup(p.report.tps / qd_base))
        .table_only("p99.9", |p| V::Ns(p999(&p.report)))
        .table_only("chan-queue share", |p| {
            V::Share(p.channel_queue_share, 1, 3)
        });
    println!("{}", qd_series.table(&qd_points));
    assert!(
        qd_points[1].report.tps > qd_points[0].report.tps,
        "deepening the per-shard queue must help at first ({:.0} vs {:.0})",
        qd_points[1].report.tps,
        qd_points[0].report.tps
    );
    note("Scale-out (17a) and scale-deep (17b) are the same lever — more independent commands for the array — and they hit the same channel wall.");

    // ------------------------------------------------------------------
    section("17c. The cross-shard knob: paying for two-phase commit");
    let cross_points: Vec<(f64, SweepPoint)> = [0.0, 0.1, 0.3]
        .iter()
        .map(|&c| (c, SweepPoint::new(4, 4, c, txns)))
        .collect();
    let cross_series = Series::new()
        .col(
            "cross ratio",
            "cross_ratio",
            |(c, _): &(f64, SweepPoint)| V::Share(*c, 0, 1),
        )
        .col("TPS", "tps", |(_, p)| V::Float(p.report.tps, 0, 1))
        .col("cross txns", "cross", |(_, p)| {
            V::Count(p.report.cross_txns)
        })
        .json_only("aborted", |(_, p)| V::Count(p.report.aborted))
        .col("forces", "forces", |(_, p)| V::Count(p.report.forces))
        .table_only("p99.9", |(_, p)| V::Ns(p999(&p.report)));
    println!(
        "{}",
        cross_series.table(&cross_points).align(0, Align::Left)
    );
    let (_, none) = &cross_points[0];
    let (_, heavy) = &cross_points[2];
    assert_eq!(none.report.cross_txns, 0, "ratio 0 must stay local");
    assert!(heavy.report.cross_txns > 0, "ratio 0.3 must cross shards");
    assert!(
        heavy.report.forces > none.report.forces,
        "two-phase commit must add prepare forces ({} vs {})",
        heavy.report.forces,
        none.report.forces
    );
    note("A distributed commit forces every participant's prepare record before the home shard's decide force — more synchronous log writes per transaction, and a wait on the slowest participant.");

    // ------------------------------------------------------------------
    section("17d. QD 1 x 1 shard vs the serialized engine");
    let ident = RunSpec {
        probe: false,
        ..spec(1, 1, 0.0, 200.min(txns))
    };
    let sharded = campaign::run(&ident).engine;
    serialized_identity(
        &ident.over(Stack(StackConfig::blk_mq(1), SsdConfig::figure1())),
        "1-shard coordinator QD 1",
        sharded.shard(0),
        &[],
        "one shard at QD 1 must replay the serialized engine bit-for-bit",
    );
    note("The coordinator degenerates to the single executor's loop: same WAL bytes, same device commands, same clock. Sharding is an overlay, not a different engine.");

    // ------------------------------------------------------------------
    section("Sweep summary (JSON)");
    note("Per-shard-count and per-depth rows (TPS, merged p99.9, the channel/queue share of all probe-attributed time), the cross-shard cost rows, and the identity verdict.");
    println!("```json");
    println!(
        "{{\"device\":\"figure1 1ch x 4chip onfi2 via blk-mq stack\",\"preset\":\"{preset}\",\"txns\":{txns},\"qd1_one_shard_matches_serialized\":true,"
    );
    println!("\"shard_sweep\":{},", shard_series.json(&points));
    println!("\"qd_sweep\":{},", qd_series.json(&qd_points));
    println!("\"cross_sweep\":{}}}", cross_series.json(&cross_points));
    println!("```");
}
