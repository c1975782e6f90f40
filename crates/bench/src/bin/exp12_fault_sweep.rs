//! **E12 — Fault sweep**: what the typed status channel shows that the
//! block interface hides.
//!
//! The block interface reports failure as, at best, a sense code after
//! the fact; everything the device did to *avoid* failing — read-retry
//! rungs, soft-decision ECC senses, stripe parity rebuilds — is silently
//! folded into latency. This experiment injects a deterministic,
//! seed-replayable raw-bit-error-rate (RBER) elevation and sweeps it
//! across the recovery ladder's engagement thresholds:
//!
//! * tail latency (p99/p999) climbs **before** throughput moves — the
//!   recovery pipeline runs on the critical path of the unlucky read
//!   while the average hides it;
//! * the probe bus attributes the added time to `Cause::Recovery` spans
//!   and counts non-`Ok` completions by status — the cross-layer view
//!   the paper's §3 interfaces make possible;
//! * on a device with no stripe peers the ladder exhausts and reads
//!   complete `unrecoverable` — a *typed* outcome the stack above can
//!   handle (requiem-db rebuilds the page from its WAL), not a panic.
//!
//! Every fault schedule is expanded from a seed at construction, so the
//! whole experiment is bit-replayable: `crates/bench/tests/golden.rs`
//! holds its stdout to `golden/exp12_fault_sweep.txt`.

use requiem_bench::{modern_unbuffered, note, section, Series, V};
use requiem_sim::table::Align;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{FaultPlan, Probe, Table};
use requiem_ssd::metrics::RecoveryMetrics;
use requiem_ssd::{ArrayShape, Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, run_closed_loop, DriverReport, IoMix};
use requiem_workload::pattern::{AddressPattern, Pattern};

const OPS: u64 = 1024;
const SPAN: u64 = 512;
const SEED: u64 = 12;

/// RBER multipliers swept across the ladder's engagement range. The
/// modern device's fresh-cell RBER is ~1e-7 and its BCH budget tops out
/// near 2.9e-3, so the ladder starts engaging around 1e4× and is fully
/// saturated past 1e5×.
const MULTS: [(&str, f64); 5] = [
    ("1x", 1.0),
    ("1e4x", 1.0e4),
    ("3e4x", 3.0e4),
    ("1e5x", 1.0e5),
    ("3e5x", 3.0e5),
];

fn faulty_device(mult: f64) -> SsdConfig {
    SsdConfig {
        fault: FaultPlan::uniform_rber(mult),
        ..modern_unbuffered()
    }
}

/// One LUN, one channel: no stripe peers, so stage 3 (parity rebuild)
/// has nothing to read and the ladder can exhaust.
fn peerless_device(mult: f64) -> SsdConfig {
    SsdConfig {
        shape: ArrayShape {
            channels: 1,
            chips_per_channel: 1,
            luns_per_chip: 1,
        },
        ..faulty_device(mult)
    }
}

struct FaultPoint {
    label: &'static str,
    qd: usize,
    report: DriverReport,
    p999: u64,
    recovery: RecoveryMetrics,
    statuses: String,
}

fn run_point(label: &'static str, cfg: SsdConfig, qd: usize) -> FaultPoint {
    let mut ssd = Ssd::new(cfg);
    let t0 = precondition_sequential(&mut ssd, SPAN, SimTime::ZERO);
    let probe = Probe::aggregated();
    ssd.attach_probe(probe.clone());
    let mut pat = AddressPattern::new(Pattern::UniformRandom, SPAN, SEED);
    let report = run_closed_loop(&mut ssd, &mut pat, IoMix::read_only(), qd, OPS, SEED, t0);
    let p999 = report.latency.quantile(0.999);
    FaultPoint {
        label,
        qd,
        p999,
        recovery: ssd.metrics().recovery.clone(),
        statuses: statuses_json(&probe),
        report,
    }
}

/// The probe bus's non-`Ok` status counts as a JSON object.
fn statuses_json(probe: &Probe) -> String {
    let s = probe.summary();
    let mut parts: Vec<String> = s
        .statuses
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    parts.sort();
    format!("{{{}}}", parts.join(","))
}

/// What is reported per point, once: the RBER sweep's table and every
/// JSON row.
fn point_series<'a>() -> Series<'a, FaultPoint> {
    Series::new()
        .col("RBER", "rber_mult", |p: &FaultPoint| {
            V::Label(p.label.into())
        })
        .json_only("qd", |p| V::Count(p.qd as u64))
        .col("IOPS", "iops", |p| V::Float(p.report.iops, 0, 1))
        .col("p50", "p50_ns", |p| V::Ns(p.report.latency.summary().p50))
        .col("p99", "p99_ns", |p| V::Ns(p.report.latency.summary().p99))
        .col("p99.9", "p999_ns", |p| V::Ns(p.p999))
        .col("retries", "retry_attempts", |p| {
            V::Count(p.recovery.retry_attempts)
        })
        .col("recovered", "retry_recovered", |p| {
            V::Count(p.recovery.retry_recovered)
        })
        .col("escalations", "ecc_escalations", |p| {
            V::Count(p.recovery.ecc_escalations)
        })
        .col("rebuilds", "parity_rebuilds", |p| {
            V::Count(p.recovery.parity_rebuilds)
        })
        .json_only("unrecoverable", |p| V::Count(p.recovery.unrecoverable))
        .col("recovery time", "recovery_time_ns", |p| {
            V::Ns(p.recovery.recovery_time.as_nanos())
        })
        .json_only("statuses", |p| V::Raw(p.statuses.clone()))
}

fn main() {
    println!("# E12 — deterministic fault injection across the recovery ladder");
    note("Seeded RBER elevation on the modern device; random reads at fixed queue depth. Every schedule expands from the seed at construction — two runs are bit-identical.");

    // ---- RBER sweep at QD 1: the ladder engages stage by stage ----
    section("RBER sweep, QD 1 (8-LUN device, stripe parity available)");
    let sweep: Vec<FaultPoint> = MULTS
        .iter()
        .map(|&(label, mult)| run_point(label, faulty_device(mult), 1))
        .collect();
    let series = point_series();
    println!("{}", series.table(&sweep).align(0, Align::Left));

    let base = &sweep[0];
    assert_eq!(
        base.recovery.retry_attempts, 0,
        "multiplier 1.0 must not engage the ladder (zero-fault identity)"
    );
    assert_eq!(base.statuses, "{}", "baseline statuses must be empty");
    assert!(
        sweep.iter().skip(1).any(|p| p.recovery.retry_recovered > 0),
        "sweep must recover reads through the retry ladder"
    );
    assert!(
        sweep.last().expect("sweep").recovery.ecc_escalations > 0,
        "top of the sweep must escalate past the retry ladder"
    );
    for w in sweep.windows(2) {
        assert!(
            w[1].report.latency.summary().p99 >= w[0].report.latency.summary().p99,
            "p99 must be monotone in RBER ({} vs {})",
            w[0].label,
            w[1].label
        );
    }
    assert!(
        sweep.last().expect("sweep").report.latency.summary().p99
            > base.report.latency.summary().p99,
        "p99 must rise across the sweep"
    );
    let mean_base = base.report.latency.summary().mean;
    let p999_base = base.p999.max(1);
    let last = sweep.last().expect("sweep");
    note(&format!(
        "The tail moves first: p99.9 grows {:.1}x across the sweep while the mean grows {:.1}x — recovery rungs serialize on the unlucky read's LUN, invisible to averages.",
        last.p999 as f64 / p999_base as f64,
        last.report.latency.summary().mean / mean_base.max(1.0),
    ));

    // ---- queue-depth interaction at a fixed mid-sweep fault level ----
    section("Queue-depth interaction (RBER 1e5x vs clean)");
    note("Recovery rungs occupy the LUN for milliseconds; at depth, innocent commands queue behind them — GC-style interference, but from error handling.");
    let mut tbl = Table::new(["QD", "clean p99", "faulty p99", "faulty p99.9", "blowup"]);
    let mut qd_points = Vec::new();
    for qd in [1usize, 2, 4, 8] {
        let clean = run_point("clean", faulty_device(1.0), qd);
        let faulty = run_point("1e5x", faulty_device(1.0e5), qd);
        let c99 = clean.report.latency.summary().p99;
        let f99 = faulty.report.latency.summary().p99;
        tbl.row([
            format!("{qd}"),
            format!("{}", SimDuration::from_nanos(c99)),
            format!("{}", SimDuration::from_nanos(f99)),
            format!("{}", SimDuration::from_nanos(faulty.p999)),
            format!("{:.1}x", f99 as f64 / c99.max(1) as f64),
        ]);
        qd_points.push((qd, clean, faulty));
    }
    println!("{tbl}");
    for (qd, clean, faulty) in &qd_points {
        assert!(
            faulty.report.latency.summary().p99 > clean.report.latency.summary().p99,
            "fault injection must raise p99 at QD {qd}"
        );
        assert_eq!(clean.statuses, "{}", "clean run at QD {qd} saw recoveries");
    }

    // ---- ladder exhaustion: no stripe peers, nothing left to try ----
    section("Ladder exhaustion (1-LUN device: no stripe parity)");
    note("With no peers to rebuild from, stage 3 has nothing to read; the read completes with a typed `unrecoverable` status instead of a panic — requiem-db's engine answers it by redoing the page from its WAL.");
    let mut tbl = Table::new([
        "RBER",
        "escalations",
        "unrecoverable",
        "statuses (probe bus)",
    ])
    .align(0, Align::Left)
    .align(3, Align::Left);
    let mut exhausted = Vec::new();
    for (label, mult) in [("1e5x", 1.0e5), ("1e7x", 1.0e7)] {
        let p = run_point(label, peerless_device(mult), 1);
        tbl.row([
            label.to_string(),
            format!("{}", p.recovery.ecc_escalations),
            format!("{}", p.recovery.unrecoverable),
            p.statuses.clone(),
        ]);
        exhausted.push(p);
    }
    println!("{tbl}");
    assert!(
        exhausted.last().expect("exhaustion").recovery.unrecoverable > 0,
        "peerless device at extreme RBER must exhaust the ladder"
    );
    assert!(
        exhausted
            .last()
            .expect("exhaustion")
            .statuses
            .contains("unrecoverable"),
        "probe bus must count unrecoverable completions"
    );

    // ---- machine-readable output for the determinism CI job ----
    section("Fault sweep (JSON)");
    note("Per-point latency quantiles, recovery-pipeline counters, and the probe bus's non-Ok status counts.");
    println!("```json");
    println!("{{\"device\":\"modern unbuffered\",\"ops\":{OPS},\"span\":{SPAN},\"seed\":{SEED},");
    println!("\"rber_sweep_qd1\":{},", series.json(&sweep));
    let faulty = qd_points.iter().map(|(_, _, faulty)| faulty);
    println!("\"qd_sweep_1e5x\":{},", series.json(faulty));
    println!("\"peerless_exhaustion\":{}}}", series.json(&exhausted));
    println!("```");
}
