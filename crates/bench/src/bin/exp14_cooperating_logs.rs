//! **E14 — Cooperating logs vs stacked logs**: the §2 pathology and the
//! §3 cure, measured end to end at the transaction interface.
//!
//! §2 of the paper names the stacked-log pathology: a log-structured
//! storage manager (WAL + page heap) running on a log-structured FTL
//! means **two garbage collectors that cannot see each other**. The FTL
//! copies WAL segments the manager already truncated, journal pages the
//! manager already replayed, and heap versions the manager already
//! superseded — because the block interface gives it no way to know.
//! §3's nameless interface dissolves the stack: the device chooses
//! placement, the manager holds [`PhysName`](requiem_iface::PhysName)
//! handles, GC migrations surface as `Migrated` upcalls that patch the
//! page table in RAM, checkpoints go down as native atomic batches
//! (no double-write journal), and every dead page or truncated WAL
//! segment is freed by exact name the moment it dies.
//!
//! The same seeded OLTP trace runs through both storage managers on the
//! same flash geometry:
//!
//! * **14a** — end-to-end write amplification (flash programs per
//!   *logical* page image) and the collector's copy traffic. Asserted:
//!   the cooperating-logs manager beats the stacked block manager.
//! * **14b** — where the time went: the probe bus decomposes both runs
//!   and blames every span a command spent stalled behind GC.
//! * **14c** — throughput across DB concurrency: the same sweep as E13,
//!   once per manager.
//! * **14d** — the identity anchor: QD-1 on the block manager replays
//!   today's serialized `execute()` bit-for-bit, so every difference in
//!   14a–c is *caused* by the interface, not by an engine fork.
//!
//! Every run is a [`requiem_bench::campaign`] spec. The JSON at the end
//! feeds the determinism CI job.

use requiem_bench::campaign::{self, Coop, Counters, Engine, RunResult, RunSpec, Stack, Workload};
use requiem_bench::{all_txns, note, section, serialized_identity, Series, V};
use requiem_block::StackConfig;
use requiem_db::{DbConfig, ExecReport, GroupCommitPolicy};
use requiem_iface::nameless::NamelessConfig;
use requiem_sim::table::Align;
use requiem_sim::time::SimDuration;
use requiem_sim::{Cause, Histogram, ProbeSummary};
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::OltpConfig;

const SEED: u64 = 14;
const TXNS: u64 = 2400;
const DATA_PAGES: u64 = 1200;
const LOG_PAGES: u64 = 600;
const BUFFER_FRAMES: usize = 384;
const CHECKPOINT_EVERY: u64 = 300;
const QDS: [usize; 4] = [1, 2, 4, 8];

/// Two chips behind one ONFI-2 channel, no device buffer, and a data +
/// WAL footprint sized so the live set presses on the over-provisioning:
/// the regime where the FTL's collector actually has to copy, i.e. where
/// the stacked-log tax is paid.
fn pressured_device() -> SsdConfig {
    let mut cfg = SsdConfig::figure1();
    cfg.shape.chips_per_channel = 2;
    cfg
}

/// One traced OLTP run at DB concurrency `qd` over the block manager;
/// [`cooperating`] moves the same spec to the cooperating manager, so 14a–c
/// compare interfaces, not configurations. At QD 1 this is
/// [`requiem_db::ExecConfig::serialized`].
fn block(qd: usize, read_only_fraction: f64) -> RunSpec<Stack> {
    RunSpec {
        db: DbConfig::builder()
            .data_pages(DATA_PAGES)
            .log_pages(LOG_PAGES)
            .buffer_frames(BUFFER_FRAMES)
            .checkpoint_every(CHECKPOINT_EVERY)
            .concurrency(qd)
            .group(GroupCommitPolicy::batched(qd as u32)),
        manager: Stack(StackConfig::bare(1), pressured_device()),
        workload: Workload::Oltp(OltpConfig {
            read_only_fraction,
            // near-uniform churn: hot-skewed updates die in the block
            // they were written to (free victims for any collector);
            // uniform updates age blocks into the live/dead mix that
            // makes a collector actually copy
            theta: 0.1,
            ..OltpConfig::default()
        }),
        txns: TXNS,
        seed: SEED,
        probe: true,
    }
}

fn cooperating(spec: RunSpec<Stack>) -> RunSpec<Coop> {
    spec.over(Coop(NamelessConfig::from(&pressured_device())))
}

struct ManagerRun {
    label: &'static str,
    report: ExecReport,
    /// Counter deltas over the traced window: the identical initial
    /// load drops out of both sides.
    delta: Counters,
    probe: ProbeSummary,
}

impl ManagerRun {
    fn new<E: Engine<Report = ExecReport>>(label: &'static str, r: RunResult<E>) -> Self {
        ManagerRun {
            label,
            report: r.report,
            delta: r.delta,
            probe: r.probe.expect("every E14 run is traced"),
        }
    }

    /// Spans a command spent waiting behind garbage collection.
    fn gc_stall_spans(&self) -> u64 {
        let spans = self.probe.by_layer_cause.iter();
        let gc = spans.filter(|((_, cause), _)| *cause == Cause::GcStall);
        gc.map(|(_, stat)| stat.count).sum()
    }

    fn gc_stall(&self) -> SimDuration {
        self.probe.cause_total(Cause::GcStall)
    }

    /// Flash programs per logical page image: the paper's end-to-end
    /// write amplification, with the journal's extra copies and both
    /// collectors' traffic in the numerator.
    fn e2e_wa(&self) -> f64 {
        self.delta.device.flash_programs as f64 / self.delta.logical_writes.max(1) as f64
    }

    /// Programs per accepted host write: the device's own view, blind to
    /// interface-imposed copies above it.
    fn device_wa(&self) -> f64 {
        self.delta.device.flash_programs as f64 / self.delta.device.host_writes.max(1) as f64
    }

    fn all_txns(&self) -> Histogram {
        all_txns(&self.report.read_only_latency, &self.report.update_latency)
    }
}

fn main() {
    println!("# E14 — Cooperating logs: one collector instead of two");
    note("Same seeded OLTP trace, same flash geometry (1ch x 2chip onfi2, no buffer), two storage managers: the block-backed heap (WAL + journal + in-place pages over LBAs) and the cooperating-logs manager (nameless writes, Migrated upcalls patching PhysName handles, native atomic checkpoints, exact-name frees).");

    // ------------------------------------------------------------------
    section("14a. End-to-end write amplification (QD 8, 80% update mix)");
    let legacy = ManagerRun::new("block heap+WAL", campaign::run(&block(8, 0.2)));
    let coop = ManagerRun::new(
        "cooperating logs",
        campaign::run(&cooperating(block(8, 0.2))),
    );
    let wa_series = Series::new()
        .table_only("manager", |r: &ManagerRun| V::Label(r.label.into()))
        .table_only("TPS", |r| V::Float(r.report.tps, 0, 1))
        .table_only("logical", |r| V::Count(r.delta.logical_writes))
        .table_only("host writes", |r| V::Count(r.delta.device.host_writes))
        .table_only("programs", |r| V::Count(r.delta.device.flash_programs))
        .table_only("e2e WA", |r| V::Float(r.e2e_wa(), 2, 4))
        .table_only("dev WA", |r| V::Float(r.device_wa(), 2, 4))
        .table_only("GC runs", |r| V::Count(r.delta.device.gc_runs))
        .table_only("GC moved", |r| V::Count(r.delta.device.gc_pages_moved))
        .table_only("upcalls patched", |r| V::Count(r.delta.relocations))
        .table_only("WAL trims", |r| V::Count(r.delta.log_trims));
    let table = wa_series.table([&legacy, &coop]);
    println!("{}", table.align(0, Align::Left));
    let (block_logical, coop_logical) = (legacy.delta.logical_writes, coop.delta.logical_writes);
    assert!(
        block_logical.abs_diff(coop_logical) * 20 < block_logical,
        "the logical workload must be trace-determined and (near-)identical \
         across managers: {block_logical} vs {coop_logical}"
    );
    assert!(
        coop.e2e_wa() < legacy.e2e_wa(),
        "cooperating logs must beat the stacked block manager on end-to-end \
         write amplification ({:.2} vs {:.2})",
        coop.e2e_wa(),
        legacy.e2e_wa()
    );
    assert!(
        legacy.delta.device.gc_pages_moved > 0,
        "the pressured device must make the block manager's FTL copy \
         (gc_moved = 0 means the experiment is not exercising the pathology)"
    );
    assert_eq!(
        legacy.delta.relocations, 0,
        "the block interface cannot report a relocation"
    );
    assert!(
        coop.delta.log_trims > 0,
        "checkpoint truncation must free WAL segments by exact name"
    );
    note("Same trace, same geometry. The block manager pays three times: the journal doubles every checkpoint page, the FTL's collector copies dead WAL and journal pages it cannot know are dead, and every copy is itself a program. The cooperating manager's numerator is just host writes plus the one collector's residual moves — and each of those moves is an upcall patch, not a host copy.");

    // ------------------------------------------------------------------
    section("14b. GC stall blame (probe bus, same runs)");
    let stall_series = Series::new()
        .table_only("manager", |r: &ManagerRun| V::Label(r.label.into()))
        .table_only("GC stall spans", |r| V::Count(r.gc_stall_spans()))
        .table_only("GC stall total", |r| V::Ns(r.gc_stall().as_nanos()))
        .table_only("stall/txn", |r| V::Ns(r.gc_stall().as_nanos() / TXNS))
        .table_only("txn p99", |r| V::Ns(r.all_txns().p99()))
        .table_only("txn p99.9", |r| V::Ns(r.all_txns().quantile(0.999)));
    let table = stall_series.table([&legacy, &coop]);
    println!("{}", table.align(0, Align::Left));
    assert!(
        coop.gc_stall() < legacy.gc_stall(),
        "one cooperating collector must stall foreground commands less than \
         two blind ones ({} vs {})",
        coop.gc_stall(),
        legacy.gc_stall()
    );
    assert!(
        coop.delta.relocations > 0,
        "the traced run must exercise the upcall path end-to-end: device GC \
         moved pages and the page table was patched"
    );
    note("Every span a command spent waiting on a resource held by garbage collection, attributed on the probe bus. The block manager's collector works through dead-but-unTRIMmable WAL and journal pages, so foreground commands stall behind copies that exist only because the interface hid the liveness information.");

    // ------------------------------------------------------------------
    section("14c. Throughput vs DB concurrency (50/50 mix), both managers");
    let sweep: Vec<(usize, f64, f64)> = QDS
        .iter()
        .map(|&qd| {
            let b = campaign::run(&block(qd, 0.5)).report;
            let c = campaign::run(&cooperating(block(qd, 0.5))).report;
            (qd, b.tps, c.tps)
        })
        .collect();
    let sweep_series = Series::new()
        .col("QD", "qd", |r: &(usize, f64, f64)| V::Count(r.0 as u64))
        .col("block TPS", "block_tps", |r| V::Float(r.1, 0, 1))
        .col("coop TPS", "coop_tps", |r| V::Float(r.2, 0, 1))
        .table_only("coop/block", |r| V::Speedup(r.2 / r.1));
    println!("{}", sweep_series.table(&sweep));
    note("Same executor, same trace, same geometry — the managers differ only in what crosses the interface. At this mix the foreground curves track each other: the journal's 2x checkpoint copies and the second collector's work ride the background class, so the stacked-log tax is paid in wear (14a: 1.36x the programs for the same trace) and in tail stalls (14b), not in this mix's throughput. The block interface hides the tax from the benchmark that only watches TPS.");

    // ------------------------------------------------------------------
    section("14d. Identity anchor: block manager at QD 1 == serialized execute()");
    let ident = RunSpec {
        txns: 200,
        ..block(1, 0.5)
    };
    serialized_identity(
        &ident,
        "run_concurrent QD 1",
        &campaign::run(&ident).engine,
        &[("WAL trims", |db| db.wal_backend().stats().log_trims)],
        "QD-1 on the block manager must replay the serialized engine bit-for-bit \
         (including the new checkpoint truncation path)",
    );
    note("The refactor's anchor: the block manager under the concurrent executor at QD 1 — checkpoint truncation included — is indistinguishable from the pre-refactor serialized engine. Everything 14a–c measured is caused by the interface, not by an engine fork.");

    // ------------------------------------------------------------------
    section("Summary (JSON)");
    note("Headline numbers plus both probes' per-(layer, cause) decomposition — the GC share lives under the GcStall cause.");
    println!("```json");
    println!(
        "{{\"device\":\"1ch x 2chip onfi2, data {DATA_PAGES} + wal {LOG_PAGES}\",\"txns\":{TXNS},"
    );
    println!(
        "\"e2e_wa\":{{\"block\":{:.4},\"coop\":{:.4}}},\"device_wa\":{{\"block\":{:.4},\"coop\":{:.4}}},",
        legacy.e2e_wa(),
        coop.e2e_wa(),
        legacy.device_wa(),
        coop.device_wa()
    );
    println!(
        "\"qd8_heavy\":{{\"block_tps\":{:.1},\"coop_tps\":{:.1},\"block_p999_ns\":{},\"coop_p999_ns\":{}}},",
        legacy.report.tps,
        coop.report.tps,
        legacy.all_txns().quantile(0.999),
        coop.all_txns().quantile(0.999)
    );
    println!(
        "\"gc\":{{\"block_moved\":{},\"coop_moved\":{},\"block_stall_ns\":{},\"coop_stall_ns\":{},\"coop_upcalls_patched\":{}}},",
        legacy.delta.device.gc_pages_moved,
        coop.delta.device.gc_pages_moved,
        legacy.gc_stall().as_nanos(),
        coop.gc_stall().as_nanos(),
        coop.delta.relocations
    );
    println!("\"sweep\":{},", sweep_series.json(&sweep));
    println!("\"qd1_matches_serialized\":true,");
    println!("\"probe_block\":{},", legacy.probe.to_json());
    println!("\"probe_coop\":{}}}", coop.probe.to_json());
    println!("```");
}
