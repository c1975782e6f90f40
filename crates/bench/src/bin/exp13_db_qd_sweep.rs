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
//!   behind the flash programs of steal writes and log forces. No run
//!   erases a block or runs GC, and 13b asserts it.
//! * **13c** — sequential-scan readahead: the prefetcher turns a page
//!   miss into a batch of successor reads; wins/losses are attributed
//!   on the probe bus, and per-class histograms combine via
//!   [`Histogram::merge`] without re-recording a single sample.
//! * **13d** — the QD-1 identity: concurrency 1 + prefetch off +
//!   immediate forces replays the serialized engine bit-for-bit.
//!
//! Every run is a [`requiem_bench::campaign`] spec. The probe JSON at
//! the end feeds the determinism CI job.

use requiem_bench::campaign::{self, RunResult, RunSpec, Stack, Workload};
use requiem_bench::{all_txns, note, section, serialized_identity, Series, V};
use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, Database, DbConfig, ExecReport, GroupCommitPolicy, PrefetchConfig, TxnInput,
};
use requiem_sim::table::Align;
use requiem_sim::time::SimDuration;
use requiem_sim::Histogram;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::OltpConfig;

const SEED: u64 = 13;
const TXNS: u64 = 600;
const DATA_PAGES: u64 = 1024;
const LOG_PAGES: u64 = 512;
const BUFFER_FRAMES: usize = 512;
const QDS: [usize; 5] = [1, 2, 4, 8, 16];

/// One closed-loop OLTP run at DB concurrency `qd` on a fresh device:
/// the Figure-1 device behind the one-core blk-mq stack, a batched
/// force. The probe watches the deepest point, the saturated regime's
/// span mix. At QD 1 this is [`requiem_db::ExecConfig::serialized`].
fn spec(qd: usize, read_only_fraction: f64) -> RunSpec<Stack> {
    RunSpec {
        db: DbConfig::builder()
            .data_pages(DATA_PAGES)
            .log_pages(LOG_PAGES)
            .buffer_frames(BUFFER_FRAMES)
            .concurrency(qd)
            .group(GroupCommitPolicy::batched(qd as u32)),
        manager: Stack(StackConfig::blk_mq(1), SsdConfig::figure1()),
        workload: Workload::Oltp(OltpConfig {
            read_only_fraction,
            ..OltpConfig::default()
        }),
        txns: TXNS,
        seed: SEED,
        probe: qd == 16,
    }
}

type Run = RunResult<Database<BlockStackBackend>>;

/// Mean stall per demand page read — the Myth-3 interference metric:
/// the probes are identical across write mixes, only the stall grows.
fn mean_stall_per_read(r: &Run) -> SimDuration {
    SimDuration::from_nanos(r.delta.read_stall.as_nanos() / r.delta.page_reads.max(1))
}

/// Every transaction's latency, both classes.
fn latency(report: &ExecReport) -> Histogram {
    all_txns(&report.read_only_latency, &report.update_latency)
}

/// Sequential full-scan transactions: each reads `pages_per_txn`
/// consecutive pages, wrapping over the data region — the shape
/// readahead exists for.
fn scan_inputs(count: u64, pages_per_txn: u64) -> Vec<TxnInput> {
    (0..count)
        .map(|i| TxnInput {
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
    let points: Vec<(usize, Run)> = QDS
        .iter()
        .map(|&qd| (qd, campaign::run(&spec(qd, 0.5))))
        .collect();
    let base_tps = points[0].1.report.tps;
    let sweep = Series::new()
        .col("QD", "qd", |p: &(usize, Run)| V::Count(p.0 as u64))
        .col("TPS", "tps", |p| V::Float(p.1.report.tps, 0, 1))
        .table_only("speedup", |p| V::Speedup(p.1.report.tps / base_tps))
        .col("forces", "forces", |p| V::Count(p.1.report.forces))
        .col("txns/force", "mean_group", |p| {
            V::Float(p.1.report.mean_group, 1, 2)
        })
        .col("coalesced", "coalesced", |p| V::Count(p.1.report.coalesced))
        .json_only("ro_p50_ns", |p| V::Ns(p.1.report.read_only_latency.p50()))
        .col("ro p99", "ro_p99_ns", |p| {
            V::Ns(p.1.report.read_only_latency.p99())
        })
        .json_only("ro_p999_ns", |p| {
            V::Ns(p.1.report.read_only_latency.quantile(0.999))
        })
        .json_only("upd_p50_ns", |p| V::Ns(p.1.report.update_latency.p50()))
        .col("upd p99", "upd_p99_ns", |p| {
            V::Ns(p.1.report.update_latency.p99())
        })
        .json_only("upd_p999_ns", |p| {
            V::Ns(p.1.report.update_latency.quantile(0.999))
        });
    println!("{}", sweep.table(&points));
    for w in points.windows(2) {
        let ((qd0, r0), (qd1, r1)) = (&w[0], &w[1]);
        if *qd1 <= 8 {
            assert!(
                r1.report.tps > r0.report.tps,
                "throughput must improve monotonically up to QD 8 (QD {qd0} {:.0} vs QD {qd1} {:.0})",
                r0.report.tps,
                r1.report.tps
            );
        }
    }
    let knee = points
        .iter()
        .find(|(qd, _)| *qd == 8)
        .map(|(_, r)| r.report.tps / base_tps)
        .unwrap_or(0.0);
    assert!(
        knee >= 2.0,
        "QD 8 must be at least 2x QD 1 (got {knee:.2}x)"
    );
    note("Independent transactions' demand reads overlap on the four chips while the shared force amortizes log writes — the same curve as E11's device-level sweep, measured in transactions.");

    // ------------------------------------------------------------------
    section("13b. Myth 3 at the storage-manager interface: write mix vs read stalls");
    let mix_points: Vec<(&str, Run)> = [
        ("10% writes", 0.9),
        ("50% writes", 0.5),
        ("90% writes", 0.1),
    ]
    .into_iter()
    .map(|(label, ro_fraction)| (label, campaign::run(&spec(8, ro_fraction))))
    .collect();
    let mix_series = Series::new()
        .table_only("write mix", |p: &(&str, Run)| V::Label(p.0.into()))
        .table_only("TPS", |p| V::Float(p.1.report.tps, 0, 1))
        .table_only("page reads", |p| V::Count(p.1.delta.page_reads))
        .table_only("mean stall/read", |p| {
            V::Ns(mean_stall_per_read(&p.1).as_nanos())
        })
        // all txns, both classes, without re-recording a sample
        .table_only("txn p99", |p| V::Ns(latency(&p.1.report).p99()))
        .table_only("commit stall", |p| V::Ns(p.1.delta.commit_stall.as_nanos()));
    println!("{}", mix_series.table(&mix_points).align(0, Align::Left));
    let (light, heavy) = (&mix_points[0].1, &mix_points[2].1);
    assert!(
        mean_stall_per_read(heavy) > mean_stall_per_read(light),
        "demand reads must stall longer per read as the write mix grows \
         (reads queue behind the flash programs of steals and log forces): \
         {} vs {}",
        mean_stall_per_read(heavy),
        mean_stall_per_read(light)
    );
    for (label, r) in &mix_points {
        assert!(
            r.delta.device.flash_erases == 0 && r.delta.device.gc_runs == 0,
            "13b's note says no run erases a block or runs GC ({label}: {:?})",
            r.delta.device
        );
    }
    note("The demand reads are the same zipfian probes in every row — only the surrounding write traffic changes. Their per-read stall inflates anyway: reads queue behind the flash programs of steal writes and log forces. No run here erases a block or runs GC (asserted). That interference crosses the block interface silently; only the device knows why.");

    // ------------------------------------------------------------------
    section("13c. Sequential scan: readahead wins, merged histograms");
    let rows: Vec<(&str, ExecReport)> = [
        ("prefetch off", PrefetchConfig::off()),
        ("sequential K=4", PrefetchConfig::sequential(4)),
    ]
    .into_iter()
    .map(|(label, prefetch)| {
        // one scanning transaction stream: without readahead every miss
        // is a full blocking read — the shape prefetching exists for
        let scan = spec(1, 0.5);
        let scan = RunSpec {
            db: scan.db.prefetch(prefetch),
            workload: Workload::Inputs(scan_inputs(200, 8)),
            txns: 200,
            ..scan
        };
        (label, campaign::run(&scan).report)
    })
    .collect();
    for (_, r) in &rows {
        let (ro, upd) = (r.read_only_latency.count(), r.update_latency.count());
        assert_eq!(
            latency(r).count(),
            ro + upd,
            "merge must preserve every sample"
        );
    }
    // the readahead outcome is also the JSON's `prefetch_seq_k4` object
    let scan_series = Series::new()
        .table_only("readahead", |r: &(&str, ExecReport)| V::Label(r.0.into()))
        .table_only("TPS", |r| V::Float(r.1.tps, 0, 1))
        .col("issued", "issued", |r| V::Count(r.1.prefetch.issued))
        .col("wins", "wins", |r| V::Count(r.1.prefetch.wins))
        .col("losses", "losses", |r| V::Count(r.1.prefetch.losses))
        .table_only("all-txn p50", |r| V::Ns(latency(&r.1).p50()))
        .table_only("all-txn p99", |r| V::Ns(latency(&r.1).p99()));
    println!("{}", scan_series.table(&rows).align(0, Align::Left));
    let (off_report, ra_report) = (&rows[0].1, &rows[1].1);
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
    let ident = RunSpec {
        manager: Stack(StackConfig::bare(1), SsdConfig::figure1()),
        txns: 200,
        ..spec(1, 0.5)
    };
    serialized_identity(
        &ident,
        "run_concurrent QD 1",
        &campaign::run(&ident).engine,
        &[],
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
    println!("\"merged_scan_p99_ns\":{},", latency(&rows[1].1).p99());
    let probe = points[4]
        .1
        .probe
        .as_ref()
        .expect("the QD-16 point is probed");
    println!("\"probe_qd16\":{}}}", probe.to_json());
    println!("```");
}
