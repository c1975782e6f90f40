//! The six workloads and the vocabulary they share.
//!
//! Every workload generates its inputs once from the seed, then runs
//! *reps*: each rep builds a fresh stack, loads and preconditions it
//! (set-up, timed separately), and drives the same inputs through the top
//! layer inside one host stopwatch. A rep is a pure function of the inputs,
//! so every rep of a run must produce the same [`Measured::fingerprint`].

pub mod gen;
pub mod oltp;
pub mod ssd;

use std::rc::Rc;
use std::time::Instant;

use requiem_sim::probe::{Cause, Layer};
use requiem_sim::{Probe, ProbeSummary};
use requiem_ssd::{Ssd, SsdConfig, SsdMetrics};

use crate::trace::Tracer;

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Flash programs per logical write; 1.0 when the run writes nothing.
pub fn write_amplification(programs: u64, logical_writes: u64) -> f64 {
    if logical_writes == 0 {
        1.0
    } else {
        programs as f64 / logical_writes as f64
    }
}

/// Device-side queue depth of the `ssd_*` closed loops.
pub const SSD_QD: usize = 8;

/// Seeded `(page, slot)` / LBA samples re-read by the post-run check.
pub const CHECK_SAMPLES: usize = 256;

/// Every device is the repo's own preset, so nobody tunes a config.
pub fn device() -> SsdConfig {
    SsdConfig::modern()
}

/// How one rep is observed.
pub enum Mode {
    /// Bare program types, probe off: the end-to-end numbers.
    Plain,
    /// [`Timed`](crate::trace::Timed) wrappers at the public seams.
    Traced(Rc<Tracer>),
    /// The program's own probe bus attached after set-up.
    Probed(Probe),
}

impl Mode {
    pub fn tracer(&self) -> Option<&Rc<Tracer>> {
        match self {
            Mode::Traced(t) => Some(t),
            _ => None,
        }
    }

    pub fn probe(&self) -> Option<&Probe> {
        match self {
            Mode::Probed(p) => Some(p),
            _ => None,
        }
    }

    /// Run the timed region: host seconds around `f`, with the tracer (if
    /// any) recording for exactly that long.
    pub fn stopwatch<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        if let Some(t) = self.tracer() {
            t.set_enabled(true);
        }
        let start = Instant::now();
        let r = f();
        let run_s = start.elapsed().as_secs_f64();
        if let Some(t) = self.tracer() {
            t.set_enabled(false);
        }
        (r, run_s)
    }
}

/// What the modelled hardware did during the timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p999_us: f64,
    /// Flash programs per logical write; 1.0 when the run writes nothing.
    pub wa: f64,
}

/// Result of the untimed post-run check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds the check took (`db.recover_s` on `oltp_*`).
    pub host_s: f64,
}

/// One rep's measurements.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Host seconds to build, load and precondition the fresh stack.
    pub setup_s: f64,
    /// Host seconds inside the stopwatch.
    pub run_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub sim: Sim,
    pub fingerprint: u64,
    /// Per-layer metrics read from public stats after the timed region
    /// (source C in the README's table).
    pub layer: Vec<(&'static str, f64)>,
}

/// One rep: what it measured, and the stack it left behind.
pub struct Rep<'a> {
    pub m: Measured,
    /// The post-run check on this rep's final state: durability samples
    /// across crash + recover on `oltp_*`, sampled re-reads on `ssd_*`.
    /// Holds the whole stack; drop it before the next rep.
    pub check: Box<dyn FnOnce() -> Check + 'a>,
}

/// A workload: inputs from a seed, reps on fresh state.
pub trait Workload {
    /// What one operation is, for the `host_ops_per_s` unit.
    fn op_unit(&self) -> &'static str;
    /// Operations per timed rep at full size.
    fn full_ops(&self) -> usize;
    /// Generate inputs for reps of up to `ops` operations.
    fn generate(&mut self, seed: u64, ops: usize);
    /// One rep of the first `ops` inputs on fresh state.
    fn rep(&self, ops: usize, mode: &Mode) -> Rep<'_>;
    /// Host-time calibrations of layers under this workload that have no
    /// seam to cut at (run once per traced run).
    fn calibration(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// A seam of this workload the traced run cannot cut, for its notes.
    fn uncut_seam(&self) -> Option<&'static str> {
        None
    }
}

/// Workload names in the order the suite runs them.
pub const NAMES: [&str; 6] = [
    "ssd_randread",
    "ssd_overwrite",
    "oltp_qd16",
    "oltp_shard4",
    "oltp_coop_pcm",
    "gen_zipf",
];

/// The five simulating workloads by name (`gen_zipf` is driven separately:
/// it is time-boxed and has no simulated clock).
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ssd_randread" => Box::new(ssd::SsdWorkload::new(ssd::Kind::RandRead)),
        "ssd_overwrite" => Box::new(ssd::SsdWorkload::new(ssd::Kind::Overwrite)),
        "oltp_qd16" => Box::new(oltp::OltpWorkload::new(oltp::Kind::Qd16)),
        "oltp_shard4" => Box::new(oltp::OltpWorkload::new(oltp::Kind::Shard4)),
        "oltp_coop_pcm" => Box::new(oltp::OltpWorkload::new(oltp::Kind::CoopPcm)),
        _ => return None,
    })
}

/// Device counters the workloads difference over the timed region
/// ([`requiem_ssd::SsdMetrics`] is cumulative since construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounts {
    pub host_reads: u64,
    pub host_writes: u64,
    pub buffer_read_hits: u64,
    pub flash_reads: u64,
    pub flash_programs: u64,
    pub flash_erases: u64,
    pub gc_runs: u64,
    pub gc_pages_moved: u64,
    /// Summed busy nanoseconds over all channels / all LUNs.
    pub channel_busy_ns: u64,
    pub lun_busy_ns: u64,
}

impl DeviceCounts {
    pub fn of(ssd: &Ssd) -> Self {
        let sum = |v: Vec<requiem_sim::SimDuration>| v.iter().map(|d| d.as_nanos()).sum();
        DeviceCounts {
            channel_busy_ns: sum(ssd.channel_busy_time()),
            lun_busy_ns: sum(ssd.lun_busy_time()),
            ..Self::of_metrics(ssd.metrics())
        }
    }

    /// The counters alone, for devices that do not expose their resource
    /// timelines (busy times stay 0).
    pub fn of_metrics(m: &SsdMetrics) -> Self {
        DeviceCounts {
            host_reads: m.host_reads,
            host_writes: m.host_writes,
            buffer_read_hits: m.buffer_read_hits,
            flash_reads: m.flash_reads.total(),
            flash_programs: m.flash_programs.total(),
            flash_erases: m.flash_erases.total(),
            gc_runs: m.gc_runs,
            gc_pages_moved: m.gc_pages_moved,
            channel_busy_ns: 0,
            lun_busy_ns: 0,
        }
    }

    pub fn since(self, before: DeviceCounts) -> Self {
        DeviceCounts {
            host_reads: self.host_reads - before.host_reads,
            host_writes: self.host_writes - before.host_writes,
            buffer_read_hits: self.buffer_read_hits - before.buffer_read_hits,
            flash_reads: self.flash_reads - before.flash_reads,
            flash_programs: self.flash_programs - before.flash_programs,
            flash_erases: self.flash_erases - before.flash_erases,
            gc_runs: self.gc_runs - before.gc_runs,
            gc_pages_moved: self.gc_pages_moved - before.gc_pages_moved,
            channel_busy_ns: self.channel_busy_ns - before.channel_busy_ns,
            lun_busy_ns: self.lun_busy_ns - before.lun_busy_ns,
        }
    }

    pub fn fold(&self, fp: &mut crate::measure::Fingerprint) {
        for x in [
            self.host_reads,
            self.host_writes,
            self.buffer_read_hits,
            self.flash_reads,
            self.flash_programs,
            self.flash_erases,
            self.gc_runs,
            self.gc_pages_moved,
            self.channel_busy_ns,
            self.lun_busy_ns,
        ] {
            fp.u64(x);
        }
    }

    /// The `ssd.*` count metrics every simulating workload reports, given
    /// the device shape and the simulated makespan of the timed region.
    pub fn layer_metrics(&self, cfg: &SsdConfig, makespan_ns: u64) -> Vec<(&'static str, f64)> {
        let span = makespan_ns.max(1) as f64;
        vec![
            ("ssd.gc_runs", self.gc_runs as f64),
            ("ssd.gc_pages_moved", self.gc_pages_moved as f64),
            ("ssd.flash_reads", self.flash_reads as f64),
            ("ssd.flash_programs", self.flash_programs as f64),
            ("ssd.flash_erases", self.flash_erases as f64),
            (
                "ssd.buffer_hit_ratio",
                ratio(self.buffer_read_hits, self.host_reads),
            ),
            (
                "ssd.channel_util",
                self.channel_busy_ns as f64 / (span * f64::from(cfg.shape.channels)),
            ),
            (
                "ssd.lun_util",
                self.lun_busy_ns as f64 / (span * f64::from(cfg.total_luns())),
            ),
        ]
    }
}

/// Simulated-time shares per `(layer, cause)` from a probed rep (source P
/// in the README's table): each bucket over the total attributed span time.
pub fn probe_metrics(summary: &ProbeSummary, ops: u64) -> Vec<(&'static str, f64)> {
    let total: u64 = summary
        .by_layer_cause
        .values()
        .map(|s| s.total.as_nanos())
        .sum();
    let spans: u64 = summary.by_layer_cause.values().map(|s| s.count).sum();
    let share = |ns: u64| ns as f64 / total.max(1) as f64;
    let bucket = |l: Layer, c: Cause| {
        summary
            .by_layer_cause
            .get(&(l, c))
            .map_or(0, |s| s.total.as_nanos())
    };
    let cause = |c: Cause| summary.cause_total(c).as_nanos();
    vec![
        (
            "block.queue_share",
            share(bucket(Layer::Block, Cause::Queue)),
        ),
        ("ssd.gc_stall_share", share(cause(Cause::GcStall))),
        (
            "ssd.channel_queue_share",
            share(bucket(Layer::Channel, Cause::Queue)),
        ),
        (
            "ssd.channel_transfer_share",
            share(bucket(Layer::Channel, Cause::Transfer)),
        ),
        (
            "flash.cell_share",
            share(cause(Cause::CellRead) + cause(Cause::CellProgram) + cause(Cause::CellErase)),
        ),
        (
            "pcm.persist_share",
            share(bucket(Layer::Wal, Cause::PcmPersist)),
        ),
        ("sim.probe_spans_per_op", spans as f64 / ops.max(1) as f64),
    ]
}
