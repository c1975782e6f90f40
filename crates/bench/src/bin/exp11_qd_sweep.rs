//! **E11 — Queue-depth sweep**: what batched submission and out-of-order
//! completion buy, and where they stop buying.
//!
//! The queue-pair engine keeps QD commands in flight against the
//! Figure-1 device (four chips, one shared channel). Sweeping QD for
//! pure reads and pure writes reproduces the paper's asymmetry as a
//! *throughput ceiling*: reads saturate as soon as the shared channel is
//! full (low QD — each read occupies the channel for a whole page
//! transfer), while writes keep scaling until all four chips' program
//! latencies are covered (higher QD — the channel is released after a
//! short data-in burst). The probe bus decomposes where the time went;
//! its JSON is emitted for the determinism CI job to diff.
//!
//! At QD 1 the queue pair degenerates to the serialized path and must
//! reproduce it bit-for-bit — asserted here, not just claimed.

use requiem_bench::{bound_by, note, section, BusyWindow, Series, V};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::{Probe, Table};
use requiem_ssd::{Ssd, SsdConfig};
use requiem_workload::driver::{
    precondition_sequential, run_closed_loop, run_closed_loop_serialized, DriverReport, IoMix,
};
use requiem_workload::pattern::{AddressPattern, Pattern};

const OPS: u64 = 512;
const SPAN: u64 = 512;
const SEED: u64 = 11;
const QDS: [usize; 5] = [1, 2, 4, 8, 16];

struct SweepPoint {
    qd: usize,
    report: DriverReport,
    chan_util: f64,
    chip_util: f64,
}

/// One closed-loop run at `qd`, with busy-time deltas over the measured
/// window so utilization excludes the preconditioning phase.
fn run_point(mix: IoMix, qd: usize, probe: Option<&Probe>) -> SweepPoint {
    let mut ssd = Ssd::new(SsdConfig::figure1());
    let t0 = if mix.read_fraction > 0.5 {
        precondition_sequential(&mut ssd, SPAN, SimTime::ZERO)
    } else {
        SimTime::ZERO
    };
    if let Some(p) = probe {
        ssd.attach_probe(p.clone());
    }
    let busy = BusyWindow::open(&ssd, t0);
    let mut pat = AddressPattern::new(Pattern::Sequential, SPAN, SEED);
    let report = run_closed_loop(&mut ssd, &mut pat, mix, qd, OPS, SEED, t0);
    let (chan_util, chip_util) = busy.close(&ssd);
    SweepPoint {
        qd,
        report,
        chan_util,
        chip_util,
    }
}

/// Smallest QD reaching ≥95 % of the sweep's best IOPS.
fn saturation_qd(points: &[SweepPoint]) -> usize {
    let best = points.iter().map(|p| p.report.iops).fold(0.0, f64::max);
    points
        .iter()
        .find(|p| p.report.iops >= 0.95 * best)
        .map(|p| p.qd)
        .expect("non-empty sweep")
}

/// What is reported per point, once: the table's columns and the JSON
/// rows' fields.
fn sweep_series<'a>() -> Series<'a, SweepPoint> {
    Series::new()
        .col("QD", "qd", |p: &SweepPoint| V::Count(p.qd as u64))
        .col("IOPS", "iops", |p| V::Float(p.report.iops, 0, 1))
        .col("MB/s", "mb_per_s", |p| V::Float(p.report.mb_per_s, 1, 2))
        .col("p50", "p50_ns", |p| V::Ns(p.report.latency.summary().p50))
        .col("p99", "p99_ns", |p| V::Ns(p.report.latency.summary().p99))
        .col("channel util", "channel_util", |p| {
            V::Share(p.chan_util, 0, 3)
        })
        .col("chip util", "chip_util", |p| V::Share(p.chip_util, 0, 3))
}

/// Histogram fingerprint for the QD-1 bit-identity check.
fn fingerprint(r: &DriverReport) -> (u64, u64, u64, u64, u64) {
    let s = r.latency.summary();
    (
        r.latency.count(),
        s.p50,
        s.p99,
        s.max,
        r.makespan.as_nanos(),
    )
}

fn main() {
    println!("# E11 — queue-depth sweep on the queue-pair engine");
    note("Figure-1 device: 4 chips, 1 shared ONFI-2 channel. Closed loop keeps QD tagged commands in flight; completions reap out of submission order.");

    let series = sweep_series();
    let mut tables = Vec::new();
    let mut probes = Vec::new();
    let mut sweeps: Vec<(&str, Vec<SweepPoint>)> = Vec::new();
    for (name, mix) in [
        ("reads", IoMix::read_only()),
        ("writes", IoMix::write_only()),
    ] {
        let probe = Probe::aggregated();
        let points: Vec<SweepPoint> = QDS
            .iter()
            .map(|&qd| {
                // attach the probe bus only at the deepest point — the
                // span decomposition of the saturated regime
                let p = if qd == 16 { Some(&probe) } else { None };
                run_point(mix, qd, p)
            })
            .collect();
        tables.push((name, series.table(&points)));
        probes.push((name, probe));
        sweeps.push((name, points));
    }
    for (name, tbl) in &tables {
        section(&format!("Sequential {name}, QD sweep"));
        println!("{tbl}");
    }

    let read_sat = saturation_qd(&sweeps[0].1);
    let write_sat = saturation_qd(&sweeps[1].1);
    section("Saturation");
    let mut tbl = Table::new(["workload", "saturation QD", "bound resource"]).align(0, Align::Left);
    let rd16 = sweeps[0].1.last().expect("read sweep");
    let wr16 = sweeps[1].1.last().expect("write sweep");
    tbl.row([
        "reads".to_string(),
        format!("{read_sat}"),
        bound_by(rd16.chan_util, rd16.chip_util).to_string(),
    ]);
    tbl.row([
        "writes".to_string(),
        format!("{write_sat}"),
        bound_by(wr16.chan_util, wr16.chip_util).to_string(),
    ]);
    println!("{tbl}");
    assert!(
        read_sat < write_sat,
        "reads must saturate at lower QD than writes (read sat {read_sat}, write sat {write_sat})"
    );
    assert!(
        rd16.chan_util > rd16.chip_util && wr16.chip_util > wr16.chan_util,
        "saturated reads must be channel-bound and writes chip-bound"
    );
    note("Reads fill the one shared channel after a couple of outstanding transfers; writes keep scaling until every chip's program latency is covered — Figure 1 as a throughput ceiling.");

    // ---- QD=1 must reproduce the serialized path bit-for-bit ----
    section("QD 1: queue pair vs serialized reference");
    let mut identical = true;
    let mut tbl =
        Table::new(["mix", "serialized", "queue pair", "bit-identical"]).align(0, Align::Left);
    for (label, mix) in [
        ("reads", IoMix::read_only()),
        ("writes", IoMix::write_only()),
    ] {
        let mut a = Ssd::new(SsdConfig::figure1());
        let ta = precondition_sequential(&mut a, SPAN, SimTime::ZERO);
        let mut pa = AddressPattern::new(Pattern::Sequential, SPAN, SEED);
        let ra = run_closed_loop_serialized(&mut a, &mut pa, mix, 1, OPS, SEED, ta);
        let mut b = Ssd::new(SsdConfig::figure1());
        let tb = precondition_sequential(&mut b, SPAN, SimTime::ZERO);
        let mut pb = AddressPattern::new(Pattern::Sequential, SPAN, SEED);
        let rb = run_closed_loop(&mut b, &mut pb, mix, 1, OPS, SEED, tb);
        let same = fingerprint(&ra) == fingerprint(&rb) && a.drain_time() == b.drain_time();
        identical &= same;
        tbl.row([
            label.to_string(),
            format!("{:.0} IOPS", ra.iops),
            format!("{:.0} IOPS", rb.iops),
            format!("{same}"),
        ]);
    }
    println!("{tbl}");
    assert!(identical, "QD=1 queue pair must match the serialized path");

    // ---- machine-readable output for the determinism CI job ----
    section("Sweep + probe summary (JSON)");
    note("Per-QD throughput/latency/utilization, plus the probe bus's per-(layer, cause) decomposition of the QD-16 runs.");
    println!("```json");
    println!(
        "{{\"device\":\"figure1 1ch x 4chip onfi2\",\"ops\":{OPS},\"read_saturation_qd\":{read_sat},\"write_saturation_qd\":{write_sat},\"qd1_matches_serialized\":{identical},"
    );
    println!("\"reads\":{},", series.json(&sweeps[0].1));
    println!("\"writes\":{},", series.json(&sweeps[1].1));
    println!("\"probe_reads_qd16\":{},", probes[0].1.summary().to_json());
    println!(
        "\"probe_writes_qd16\":{}}}",
        probes[1].1.summary().to_json()
    );
    println!("```");
}
