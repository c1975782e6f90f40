//! **E13 — Database queue-depth sweep**: the paper's Figure-1
//! parallelism, measured at the *transaction* interface.
//!
//! E11 showed the queue-pair engine extracting device parallelism from
//! raw page commands. This experiment asks whether that parallelism
//! survives the trip up the host stack: an OLTP mix runs through the
//! completion-driven executor ([`requiem_db::Database::run_concurrent`])
//! over the full block stack (`BlockStackBackend` → `IoStack` →
//! queue pair → Figure-1 device), sweeping the number of in-flight
//! transactions. Four sections:
//!
//! * **13a** — txn throughput vs DB concurrency: monotone scaling 1 → 8
//!   (≥ 2× at the knee) as demand reads from independent transactions
//!   overlap on the four chips, with the shared group-commit force
//!   amortizing log writes. Asserted, not just claimed.
//! * **13b** — Myth 3 at the storage-manager interface: raising the
//!   write fraction drags the *read* tail up as demand reads queue
//!   behind steal writes and the GC the write stream provokes.
//! * **13c** — sequential-scan readahead: the prefetcher turns a page
//!   miss into a batch of successor reads; wins/losses are attributed
//!   on the probe bus, and per-class histograms combine via
//!   [`Histogram::merge`] without re-recording a single sample.
//! * **13d** — the QD-1 identity: concurrency 1 + prefetch off +
//!   immediate forces replays the serialized engine bit-for-bit.
//!
//! The probe JSON at the end feeds the determinism CI job.

use requiem_bench::{note, section, serialized_identity, Series, V};
use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, Database, DbBuilder, DbConfig, ExecConfig, ExecReport, GroupCommitPolicy,
    PersistenceBackend, PrefetchConfig,
};
use requiem_sim::table::Align;
use requiem_sim::time::SimDuration;
use requiem_sim::{Histogram, Probe};
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::{oltp_inputs, run_oltp_closed_loop};

const SEED: u64 = 13;
const TXNS: u64 = 600;
const DATA_PAGES: u64 = 1024;
const LOG_PAGES: u64 = 512;
const BUFFER_FRAMES: usize = 512;
const QDS: [usize; 5] = [1, 2, 4, 8, 16];

/// Every section shares this builder: the knobs that must agree (pages,
/// frames, WAL medium) are stated once.
fn builder() -> DbBuilder {
    DbConfig::builder()
        .data_pages(DATA_PAGES)
        .log_pages(LOG_PAGES)
        .buffer_frames(BUFFER_FRAMES)
}

fn stack_db() -> Database<BlockStackBackend> {
    builder().build_stack(StackConfig::blk_mq(1), SsdConfig::figure1())
}

fn oltp(read_only_fraction: f64) -> OltpGen {
    OltpGen::new(
        OltpConfig {
            data_pages: DATA_PAGES,
            read_only_fraction,
            ..OltpConfig::default()
        },
        SEED,
    )
}

struct SweepPoint {
    qd: usize,
    report: ExecReport,
    read_stall: SimDuration,
    commit_stall: SimDuration,
    page_reads: u64,
}

impl SweepPoint {
    /// Mean stall per demand page read — the Myth-3 interference metric:
    /// the probes are identical across write mixes, only the stall grows.
    fn mean_stall_per_read(&self) -> SimDuration {
        let reads = self.page_reads.max(1);
        SimDuration::from_nanos(self.read_stall.as_nanos() / reads)
    }
}

/// One closed-loop OLTP run at DB concurrency `qd` on a fresh device.
fn run_point(qd: usize, read_only_fraction: f64, probe: Option<&Probe>) -> SweepPoint {
    let mut db = stack_db();
    if let Some(p) = probe {
        db.attach_probe(p.clone());
    }
    let cfg = ExecConfig {
        concurrency: qd,
        prefetch: PrefetchConfig::off(),
        group: GroupCommitPolicy::batched(qd as u32),
    };
    let loaded_reads = db.backend().stats().page_reads;
    let report = run_oltp_closed_loop(&mut db, &mut oltp(read_only_fraction), TXNS, &cfg);
    SweepPoint {
        qd,
        report,
        read_stall: db.stats().read_stall,
        commit_stall: db.stats().commit_stall,
        page_reads: db.backend().stats().page_reads - loaded_reads,
    }
}

/// Sequential full-scan transactions: each reads `pages_per_txn`
/// consecutive pages, wrapping over the data region — the shape
/// readahead exists for.
fn scan_inputs(count: u64, pages_per_txn: u64) -> Vec<requiem_db::TxnInput> {
    (0..count)
        .map(|i| requiem_db::TxnInput {
            accesses: (0..pages_per_txn)
                .map(|j| {
                    let page = (i * pages_per_txn + j) % DATA_PAGES;
                    (page, (page % 16) as u16, false)
                })
                .collect(),
            log_bytes: 0,
        })
        .collect()
}

fn main() {
    println!("# E13 — DB queue-depth sweep over the completion-driven executor");
    note("Figure-1 device (4 chips, 1 shared ONFI-2 channel) behind the full block stack. DB concurrency = transactions kept in flight at the storage-manager interface.");

    // ------------------------------------------------------------------
    section("13a. OLTP throughput vs DB concurrency (50/50 mix, zipf 0.8)");
    let probe = Probe::aggregated();
    let points: Vec<SweepPoint> = QDS
        .iter()
        .map(|&qd| {
            // probe the deepest point: the saturated regime's span mix
            let p = if qd == 16 { Some(&probe) } else { None };
            run_point(qd, 0.5, p)
        })
        .collect();
    let base_tps = points[0].report.tps;
    let sweep = Series::new()
        .col("QD", "qd", |p: &SweepPoint| V::Count(p.qd as u64))
        .col("TPS", "tps", |p| V::Float(p.report.tps, 0, 1))
        .table_only("speedup", |p| V::Speedup(p.report.tps / base_tps))
        .col("forces", "forces", |p| V::Count(p.report.forces))
        .col("txns/force", "mean_group", |p| {
            V::Float(p.report.mean_group, 1, 2)
        })
        .col("coalesced", "coalesced", |p| V::Count(p.report.coalesced))
        .json_only("ro_p50_ns", |p| V::Ns(p.report.read_only_latency.p50()))
        .col("ro p99", "ro_p99_ns", |p| {
            V::Ns(p.report.read_only_latency.p99())
        })
        .json_only("ro_p999_ns", |p| {
            V::Ns(p.report.read_only_latency.quantile(0.999))
        })
        .json_only("upd_p50_ns", |p| V::Ns(p.report.update_latency.p50()))
        .col("upd p99", "upd_p99_ns", |p| {
            V::Ns(p.report.update_latency.p99())
        })
        .json_only("upd_p999_ns", |p| {
            V::Ns(p.report.update_latency.quantile(0.999))
        });
    println!("{}", sweep.table(&points));
    for w in points.windows(2) {
        if w[1].qd <= 8 {
            assert!(
                w[1].report.tps > w[0].report.tps,
                "throughput must improve monotonically up to QD 8 (QD {} {:.0} vs QD {} {:.0})",
                w[0].qd,
                w[0].report.tps,
                w[1].qd,
                w[1].report.tps
            );
        }
    }
    let knee = points
        .iter()
        .find(|p| p.qd == 8)
        .map(|p| p.report.tps / base_tps)
        .unwrap_or(0.0);
    assert!(
        knee >= 2.0,
        "QD 8 must be at least 2x QD 1 (got {knee:.2}x)"
    );
    note("Independent transactions' demand reads overlap on the four chips while the shared force amortizes log writes — the same curve as E11's device-level sweep, measured in transactions.");

    // ------------------------------------------------------------------
    section("13b. Myth 3 at the storage-manager interface: write mix vs read stalls");
    let mix_points: Vec<(&str, SweepPoint)> = [
        ("10% writes", 0.9),
        ("50% writes", 0.5),
        ("90% writes", 0.1),
    ]
    .into_iter()
    .map(|(label, ro_fraction)| (label, run_point(8, ro_fraction, None)))
    .collect();
    let mix_series = Series::new()
        .table_only("write mix", |(label, _): &(&str, SweepPoint)| {
            V::Label((*label).into())
        })
        .table_only("TPS", |(_, p)| V::Float(p.report.tps, 0, 1))
        .table_only("page reads", |(_, p)| V::Count(p.page_reads))
        .table_only("mean stall/read", |(_, p)| {
            V::Ns(p.mean_stall_per_read().as_nanos())
        })
        // all txns, both classes, without re-recording a sample
        .table_only("txn p99", |(_, p)| {
            let mut all = p.report.read_only_latency.clone();
            all.merge(&p.report.update_latency);
            V::Ns(all.p99())
        })
        .table_only("commit stall", |(_, p)| V::Ns(p.commit_stall.as_nanos()));
    println!("{}", mix_series.table(&mix_points).align(0, Align::Left));
    let light = &mix_points[0].1;
    let heavy = &mix_points[2].1;
    assert!(
        heavy.mean_stall_per_read() > light.mean_stall_per_read(),
        "demand reads must stall longer per read as the write mix grows \
         (reads queue behind steals, programs, and the GC the writes provoke): \
         {} vs {}",
        heavy.mean_stall_per_read(),
        light.mean_stall_per_read()
    );
    note("The demand reads are the same zipfian probes in every row — only the surrounding write traffic changes. Their per-read stall inflates anyway: reads queue behind programs, steals, and multi-ms GC erases. That interference crosses the block interface silently; only the device knows why.");

    // ------------------------------------------------------------------
    section("13c. Sequential scan: readahead wins, merged histograms");
    let inputs = scan_inputs(200, 8);
    let rows: Vec<(&str, ExecReport, Histogram)> = [
        ("prefetch off", PrefetchConfig::off()),
        ("sequential K=4", PrefetchConfig::sequential(4)),
    ]
    .into_iter()
    .map(|(label, prefetch)| {
        let mut db = stack_db();
        // one scanning transaction stream: without readahead every miss
        // is a full blocking read — the shape prefetching exists for
        let cfg = ExecConfig {
            concurrency: 1,
            prefetch,
            group: GroupCommitPolicy::immediate(),
        };
        let report = db.run_concurrent(&inputs, &cfg);
        // per-class histograms combine without re-recording samples
        let mut merged = report.read_only_latency.clone();
        merged.merge(&report.update_latency);
        assert_eq!(
            merged.count(),
            report.read_only_latency.count() + report.update_latency.count(),
            "merge must preserve every sample"
        );
        (label, report, merged)
    })
    .collect();
    // the readahead outcome is also the JSON's `prefetch_seq_k4` object
    let scan_series = Series::new()
        .table_only("readahead", |r: &(&str, ExecReport, Histogram)| {
            V::Label(r.0.into())
        })
        .table_only("TPS", |r| V::Float(r.1.tps, 0, 1))
        .col("issued", "issued", |r| V::Count(r.1.prefetch.issued))
        .col("wins", "wins", |r| V::Count(r.1.prefetch.wins))
        .col("losses", "losses", |r| V::Count(r.1.prefetch.losses))
        .table_only("all-txn p50", |r| V::Ns(r.2.p50()))
        .table_only("all-txn p99", |r| V::Ns(r.2.p99()));
    println!("{}", scan_series.table(&rows).align(0, Align::Left));
    let (_, off_report, _) = &rows[0];
    let (_, ra_report, _) = &rows[1];
    assert!(
        ra_report.prefetch.wins > 0,
        "sequential scan must produce readahead wins"
    );
    assert!(
        ra_report.tps > off_report.tps,
        "readahead must improve scan throughput ({:.0} vs {:.0})",
        ra_report.tps,
        off_report.tps
    );
    note("A miss submits the demand page and its successors as one batch; by the time the scan reaches page k+1 its read is already in flight (a *win*, attributed on the probe bus as prefetch-win/-loss statuses).");

    // ------------------------------------------------------------------
    section("13d. QD 1: completion-driven executor vs serialized engine");
    let inputs = oltp_inputs(&mut oltp(0.5), 200);
    let mut conc = builder().build_stack(StackConfig::bare(1), SsdConfig::figure1());
    conc.run_concurrent(&inputs, &ExecConfig::serialized());
    serialized_identity(
        builder().build_stack(StackConfig::bare(1), SsdConfig::figure1()),
        &inputs,
        "run_concurrent QD 1",
        &conc,
        "concurrency 1 + prefetch off + immediate forces must replay the serialized engine bit-for-bit",
    );
    note("Every difference the sweep measured is therefore *caused* by overlap: same engine state, same device commands, different submission discipline.");

    // ------------------------------------------------------------------
    section("Sweep + probe summary (JSON)");
    note("Per-QD throughput/latency, the readahead outcome, and the probe bus's per-(layer, cause) decomposition of the QD-16 run — the group-wait vs shared-force split lives under wal/queue and wal/transfer.");
    println!("```json");
    println!(
        "{{\"device\":\"figure1 1ch x 4chip onfi2 via blk-mq stack\",\"txns\":{TXNS},\"knee_speedup_qd8\":{knee:.2},\"qd1_matches_serialized\":true,"
    );
    println!("\"sweep\":{},", sweep.json(&points));
    println!("\"prefetch_seq_k4\":{},", scan_series.json_row(&rows[1]));
    println!("\"merged_scan_p99_ns\":{},", rows[1].2.p99());
    println!("\"probe_qd16\":{}}}", probe.summary().to_json());
    println!("```");
}
