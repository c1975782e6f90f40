//! Shared helpers for the experiment binaries.
//!
//! Each `expN_*` binary regenerates one figure or quantitative claim of
//! the paper (see `DESIGN.md` §3 for the index) and prints GitHub-
//! flavoured markdown plus a trailing JSON block. Its stdout is pinned
//! byte for byte under `golden/` (`scripts/golden.sh`), which is what
//! `EXPERIMENTS.md` tables and `BENCH_exp*.json` blocks are copied from.
//!
//! The DB experiments (E7, E13–E15, E17) and `bench_stack`'s `db_*` rows
//! are specs over [`campaign`]: one protocol builds and loads the
//! engine, attaches the probe after the load, and reports counter deltas
//! over the measured window.

#![warn(missing_docs)]

pub mod aging;
pub mod campaign;
pub mod gantt;
pub mod series;

pub use series::{Series, V};

use campaign::{Manager, RunSpec};
use requiem_db::{Database, PersistenceBackend};
use requiem_sim::table::Align;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, Table};
use requiem_ssd::{BufferConfig, Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, run_closed_loop, DriverReport, IoMix};
use requiem_workload::pattern::{AddressPattern, Pattern};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Print a section header.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Print a sub-note line.
pub fn note(text: &str) {
    println!("_{text}_\n");
}

/// The modern device without its write buffer (for experiments isolating
/// the flash path).
pub fn modern_unbuffered() -> SsdConfig {
    SsdConfig {
        buffer: BufferConfig { capacity_pages: 0 },
        ..SsdConfig::modern()
    }
}

/// Channel and chip utilization over a measured window, from busy-time
/// deltas, so whatever preconditioned the device is excluded.
pub struct BusyWindow {
    start: SimTime,
    channels: Vec<SimDuration>,
    luns: Vec<SimDuration>,
}

impl BusyWindow {
    /// Open the window at `start`, snapshotting every busy counter.
    pub fn open(ssd: &Ssd, start: SimTime) -> Self {
        BusyWindow {
            start,
            channels: ssd.channel_busy_time(),
            luns: ssd.lun_busy_time(),
        }
    }

    /// Close the window at the device's drain time: `(channel_util,
    /// chip_util)`, each the mean over its resources.
    pub fn close(self, ssd: &Ssd) -> (f64, f64) {
        let window = ssd.drain_time().since(self.start).as_nanos().max(1) as f64;
        let mean_util = |after: Vec<SimDuration>, before: &[SimDuration]| {
            let busy: f64 = after
                .iter()
                .zip(before)
                .map(|(a, b)| a.saturating_sub(*b).as_nanos() as f64)
                .sum();
            busy / after.len() as f64 / window
        };
        (
            mean_util(ssd.channel_busy_time(), &self.channels),
            mean_util(ssd.lun_busy_time(), &self.luns),
        )
    }
}

/// Which resource a pair of [`BusyWindow`] utilizations says bounds the
/// run: the busier one.
pub fn bound_by(channel_util: f64, chip_util: f64) -> &'static str {
    if channel_util > chip_util {
        "channel"
    } else {
        "chips"
    }
}

/// A counter [`serialized_identity`] also compares: its column header and
/// how to read it.
pub type IdentityColumn<B> = (&'static str, fn(&Database<B>) -> u64);

/// The QD-1 identity anchor, printed and asserted: a fresh engine of
/// `spec` executes its inputs one `execute()` at a time and must end
/// bit-for-bit where `candidate` ended after running them under
/// [`requiem_db::ExecConfig::serialized`] (depth 1, prefetch off,
/// immediate forces) — clock, latency histograms, stall ledger, WAL and
/// page-read counters, and each `extra` counter, which also gets a
/// column. `claim` is the assertion's message.
pub fn serialized_identity<B: PersistenceBackend, M: Manager<Engine = Database<B>>>(
    spec: &RunSpec<M>,
    label: &str,
    candidate: &Database<B>,
    extra: &[IdentityColumn<B>],
    claim: &str,
) {
    let mut serial = spec.build();
    for t in &spec.inputs() {
        // a commit whose force failed fails in the candidate too: the
        // stats compared below count neither
        serial.execute(&t.accesses, t.log_bytes).ok();
    }
    let identical = candidate.now() == serial.now()
        && candidate.txn_latency() == serial.txn_latency()
        && candidate.commit_latency() == serial.commit_latency()
        && candidate.stats() == serial.stats()
        && candidate.wal_backend().stats().log_forces == serial.wal_backend().stats().log_forces
        && candidate.wal_backend().stats().log_bytes == serial.wal_backend().stats().log_bytes
        && candidate.backend().stats().page_reads == serial.backend().stats().page_reads
        && extra.iter().all(|(_, f)| f(candidate) == f(&serial));
    let mut header = vec!["engine", "final clock", "commits"];
    header.extend(extra.iter().map(|(h, _)| *h));
    header.push("bit-identical");
    let mut tbl = Table::new(header).align(0, Align::Left);
    for (engine, db, verdict) in [
        ("serialized execute()", &serial, String::new()),
        (label, candidate, identical.to_string()),
    ] {
        let mut row = vec![engine.to_string(), db.now().to_string()];
        row.push(db.stats().commits.to_string());
        row.extend(extra.iter().map(|(_, f)| f(db).to_string()));
        row.push(verdict);
        tbl.row(row);
    }
    println!("{tbl}");
    assert!(identical, "{claim}");
}

/// Every transaction's latency: the read-only and update classes merged
/// without re-recording a sample.
pub fn all_txns(read_only: &Histogram, update: &Histogram) -> Histogram {
    let mut all = read_only.clone();
    all.merge(update);
    all
}

/// Run a simple measurement: `ops` operations of `mix` with `pattern`
/// over `span` pages at queue depth `qd`, starting at `start`.
#[allow(clippy::too_many_arguments)] // experiment helper mirrors the driver signature
pub fn measure(
    ssd: &mut Ssd,
    pattern: Pattern,
    span: u64,
    mix: IoMix,
    qd: usize,
    ops: u64,
    seed: u64,
    start: SimTime,
) -> DriverReport {
    let mut pat = AddressPattern::new(pattern, span, seed);
    run_closed_loop(ssd, &mut pat, mix, qd, ops, seed, start)
}

/// A device in its GC-active steady state: `cfg` filled sequentially,
/// then randomly overwritten three more times its capacity at queue
/// depth 4. Returns the device and the overwrite phase's report.
pub fn churned(cfg: SsdConfig, seed: u64) -> (Ssd, DriverReport) {
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
    let report = measure(
        &mut ssd,
        Pattern::UniformRandom,
        pages,
        IoMix::write_only(),
        4,
        3 * pages,
        seed,
        t,
    );
    (ssd, report)
}

/// IOPS of a closed loop over an address sequence no [`Pattern`] draws:
/// `total` operations kept `qd` deep from `start`, where `issue(now, i)`
/// submits the `i`-th at `now` and returns the instant it is done.
pub fn closed_loop_iops(
    qd: usize,
    total: u64,
    start: SimTime,
    mut issue: impl FnMut(SimTime, u64) -> SimTime,
) -> f64 {
    let mut outstanding = BinaryHeap::new();
    let mut last = start;
    for i in 0..total {
        let now = if outstanding.len() >= qd {
            let Reverse(done) = outstanding.pop().expect("qd > 0");
            done
        } else {
            start
        };
        let done = issue(now, i);
        outstanding.push(Reverse(done));
        last = last.max(done);
    }
    total as f64 / last.since(start).as_secs_f64().max(1e-12)
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    SimDuration::from_nanos(ns).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precondition_and_measure_smoke() {
        let mut ssd = Ssd::new(modern_unbuffered());
        let t = precondition_sequential(&mut ssd, 64, SimTime::ZERO);
        let busy = BusyWindow::open(&ssd, t);
        let r = measure(
            &mut ssd,
            Pattern::Sequential,
            64,
            IoMix::read_only(),
            2,
            64,
            1,
            t,
        );
        assert_eq!(r.ops, 64);
        assert!(r.iops > 0.0);
        let (channel_util, chip_util) = busy.close(&ssd);
        assert!(channel_util > 0.0 && channel_util <= 1.0, "{channel_util}");
        assert!(chip_util > 0.0 && chip_util <= 1.0, "{chip_util}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(1_500), "1.50µs");
    }
}
