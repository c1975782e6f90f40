//! The repo benchmark: two clocks, six workloads, an outside-in traced run.
//!
//! Host metrics (`host_*`, `setup_s`, everything in seconds or ns of host
//! time) say what the simulator costs to run. Simulated metrics (`sim_*`,
//! shares, counts) say what the modelled hardware did; they are a pure
//! function of the seed and repeat exactly. The two are never mixed.
//!
//! A run is one workload in one of two modes, one process each so peak RSS
//! is per workload: [`run_plain`] gives the end-to-end metrics with nothing
//! attached, [`run_traced`] the per-layer ones. See `README.md`.

pub mod measure;
pub mod trace;
pub mod workloads;

use std::rc::Rc;
use std::time::Instant;

use requiem_sim::Probe;

use measure::{peak_rss_mib, quiet, RefClock};
use trace::{Seam, Tracer};
use workloads::{by_name, gen, probe_metrics, Check, Measured, Mode, Sim, Workload};

/// Name and unit of a reported metric.
pub type Def = (&'static str, &'static str);

/// What a user of the simulator sees. `BENCHMARK.json` gives each a bound.
pub const END_TO_END: [Def; 6] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "op/s"),
    ("host_peak_rss_mb", "MiB"),
    ("sim_ops_per_s", "op/s"),
    ("sim_lat_p50_us", "us"),
    ("sim_wa", "ratio"),
];

/// Single-layer metrics. A metric that does not apply to a workload
/// (`block.*` on `oltp_coop_pcm`, `pcm.*` anywhere else) reads 0 there.
pub const PER_LAYER: [Def; 50] = [
    ("workload.gen_s", "s"),
    ("workload.gen_ns_per_op", "ns"),
    ("db.exec_self_s", "s"),
    ("db.backend_s", "s"),
    ("db.backend_calls", "count"),
    ("db.wal_s", "s"),
    ("db.wal_calls", "count"),
    ("db.pool_miss_ratio", "ratio"),
    ("db.coalesced_reads", "count"),
    ("db.steal_writes", "count"),
    ("db.page_writes", "count"),
    ("db.checkpoints", "count"),
    ("db.wal_forces", "count"),
    ("db.mean_group", "ratio"),
    ("db.read_stall_share", "ratio"),
    ("db.commit_stall_share", "ratio"),
    ("db.cross_txns", "count"),
    ("db.ledger_prepares", "count"),
    ("db.ledger_aborted", "count"),
    ("db.recover_s", "s"),
    ("block.self_s", "s"),
    ("block.self_ns_per_cmd", "ns"),
    ("block.software_share", "ratio"),
    ("block.queue_share", "ratio"),
    ("ssd.busy_s", "s"),
    ("ssd.ns_per_cmd", "ns"),
    ("ssd.gc_runs", "count"),
    ("ssd.gc_pages_moved", "count"),
    ("ssd.flash_reads", "count"),
    ("ssd.flash_programs", "count"),
    ("ssd.flash_erases", "count"),
    ("ssd.buffer_hit_ratio", "ratio"),
    ("ssd.channel_util", "ratio"),
    ("ssd.lun_util", "ratio"),
    ("ssd.gc_stall_share", "ratio"),
    ("ssd.channel_queue_share", "ratio"),
    ("ssd.channel_transfer_share", "ratio"),
    ("flash.read_ns", "ns"),
    ("flash.program_ns", "ns"),
    ("flash.erase_ns", "ns"),
    ("flash.cell_share", "ratio"),
    ("iface.relocations_patched", "count"),
    ("iface.device_wa", "ratio"),
    ("pcm.persists", "count"),
    ("pcm.persist_share", "ratio"),
    ("pcm.wear_skew", "ratio"),
    ("sim.lat_p999_us", "us"),
    ("sim.probe_overhead_x", "x"),
    ("sim.probe_spans_per_op", "count"),
    ("trace.overhead_x", "x"),
];

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Feeds the generators only; the program sees generated inputs.
    pub seed: u64,
    /// Host seconds of timed reps to accumulate before stopping.
    pub seconds: f64,
    /// A twentieth of the operations, one rep, no warm-up.
    pub quick: bool,
}

/// The outcome of one run.
pub struct Report {
    /// Every metric of the mode's list, in list order.
    pub metrics: Vec<(Def, f64)>,
    /// Hash of everything the run simulated (see `measure::Fingerprint`).
    pub sim_fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// Operations per rep, timed reps, and other context for the reader.
    pub notes: Vec<String>,
    /// The quiet traced rep's collector (spans for the Chrome trace).
    pub tracer: Option<Rc<Tracer>>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Fill a metric list from the values a run collected; the rest read 0.
/// Host times — every metric in `s` or `ns`, and the host throughput — are
/// scaled to the reference clock (see [`RefClock`]). Simulated times are in
/// `us` and stay as they are.
fn fill(defs: &[Def], values: &[(&'static str, f64)], clock: &RefClock) -> Vec<(Def, f64)> {
    defs.iter()
        .map(|&def| {
            let v = values.iter().rev().find(|(n, _)| *n == def.0);
            let v = v.map_or(0.0, |&(_, v)| v);
            let v = match def {
                ("host_ops_per_s", _) => v / clock.scale(),
                (_, "s" | "ns") => v * clock.scale(),
                _ => v,
            };
            (def, v)
        })
        .collect()
}

fn sim_metrics(sim: &Sim) -> [(&'static str, f64); 4] {
    [
        ("sim_ops_per_s", sim.ops_per_s),
        ("sim_lat_p50_us", sim.lat_p50_us),
        ("sim_wa", sim.wa),
        ("sim.lat_p999_us", sim.lat_p999_us),
    ]
}

/// Reps and checks accumulated over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    fingerprint: Option<u64>,
}

impl Tally {
    fn rep(&mut self, what: &str, m: &Measured) {
        self.attempted += m.ops;
        self.failed += m.failed;
        if m.failed > 0 {
            self.errors.push(format!(
                "{what}: {} of {} operations failed",
                m.failed, m.ops
            ));
        }
        match self.fingerprint {
            None => self.fingerprint = Some(m.fingerprint),
            Some(first) if first != m.fingerprint => self.errors.push(format!(
                "{what}: sim_fingerprint {:016x} differs from the first rep's {first:016x}",
                m.fingerprint
            )),
            Some(_) => {}
        }
    }

    fn check(&mut self, c: &Check) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        if c.failed > 0 {
            self.errors.push(format!(
                "post-run check: {} of {} samples failed",
                c.failed, c.attempted
            ));
        }
    }
}

/// The generator's part of set-up, measured so that a noisy neighbour
/// cannot inflate it: the one-off generation of all inputs happens once, at
/// whatever speed the machine has at that moment, so instead the first
/// `1 / PREFIX` of the inputs is regenerated before every rep — identical
/// work each time — and the quiet one of those times is scaled back up.
struct GenClock<'a> {
    workload: &'a str,
    seed: u64,
    ops: usize,
    prefix_s: Vec<f64>,
}

impl<'a> GenClock<'a> {
    const PREFIX: usize = 32;

    /// The workload with its inputs generated, the operations per rep, and
    /// the clock that will time the generator between reps.
    fn start(workload: &'a str, opt: Options) -> Option<(Box<dyn Workload>, usize, Self)> {
        let mut w = by_name(workload)?;
        let ops = if opt.quick {
            w.full_ops() / 20
        } else {
            w.full_ops()
        };
        w.generate(opt.seed, ops);
        let clock = GenClock {
            workload,
            seed: opt.seed,
            ops,
            prefix_s: Vec::new(),
        };
        Some((w, ops, clock))
    }

    fn sample(&mut self) {
        let mut w = by_name(self.workload).expect("workload exists");
        let t = Instant::now();
        w.generate(self.seed, self.ops / Self::PREFIX);
        self.prefix_s.push(t.elapsed().as_secs_f64());
    }

    /// Estimated undisturbed host seconds to generate all `ops` inputs.
    fn gen_s(&self) -> f64 {
        quiet(&self.prefix_s).1 * Self::PREFIX as f64
    }
}

/// The plain run: a discarded warm-up rep at an eighth of the size, then
/// timed reps on fresh state with the same inputs until `opt.seconds` of
/// stopwatch time have accumulated (three reps at least), then the untimed
/// post-run check on the last rep's state. Reports [`END_TO_END`]; host
/// times are the quiet rep's (see [`measure::quiet`]).
pub fn run_plain(workload: &str, opt: Options) -> Option<Report> {
    if workload == "gen_zipf" {
        return Some(run_gen(opt, &END_TO_END));
    }
    let (w, ops, mut gen) = GenClock::start(workload, opt)?;

    if !opt.quick {
        w.rep(ops / 8, &Mode::Plain);
    }
    let (min_reps, budget_s) = if opt.quick {
        (1, 0.0)
    } else {
        (3, opt.seconds)
    };
    let mut tally = Tally::default();
    let mut reps: Vec<Measured> = Vec::new();
    let mut spent = 0.0;
    let mut peak_rss = 0.0;
    let mut clock = RefClock::default();
    loop {
        clock.sample();
        gen.sample();
        let rep = w.rep(ops, &Mode::Plain);
        if reps.is_empty() {
            // the inputs and one full stack are resident: later reps only
            // add what the allocator fails to reuse
            peak_rss = peak_rss_mib();
        }
        tally.rep(&format!("rep {}", reps.len() + 1), &rep.m);
        spent += rep.m.run_s;
        reps.push(rep.m);
        if reps.len() >= min_reps && spent >= budget_s {
            tally.check(&(rep.check)());
            break;
        }
    }

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut values = vec![
        ("setup_s", gen.gen_s() + quiet(&setup_s).1),
        ("host_ops_per_s", ops as f64 / quiet(&run_s).1),
        ("host_peak_rss_mb", peak_rss),
    ];
    values.extend(sim_metrics(&reps[0].sim));
    Some(Report {
        metrics: fill(&END_TO_END, &values, &clock),
        sim_fingerprint: reps[0].fingerprint,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        notes: vec![format!(
            "{ops} {}s per rep, {} timed reps, sim.lat_p999_us {} us over {ops} samples, \
             host times x {:.3} to the reference clock",
            w.op_unit(),
            reps.len(),
            reps[0].sim.lat_p999_us,
            clock.scale()
        )],
        tracer: None,
    })
}

/// The traced run: rounds of a plain, a traced and a probed rep until
/// `opt.seconds` of stopwatch time have accumulated (two rounds at least).
/// Traced and probed reps must reproduce the plain fingerprint. Reports
/// [`PER_LAYER`]: host time per layer from the [`trace::Timed`] wrappers of
/// the quiet traced rep, simulated-time shares from the program's own
/// probe, exact counts from public stats.
pub fn run_traced(workload: &str, opt: Options) -> Option<Report> {
    if workload == "gen_zipf" {
        return Some(run_gen(opt, &PER_LAYER));
    }
    let (w, ops, mut gen) = GenClock::start(workload, opt)?;

    let (min_rounds, budget_s) = if opt.quick {
        (1, 0.0)
    } else {
        (2, opt.seconds)
    };
    let mut tally = Tally::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let (mut plain_s, mut traced_s, mut probed_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracers: Vec<Rc<Tracer>> = Vec::new();
    let mut spent = 0.0;
    let mut clock = RefClock::default();
    while plain_s.len() < min_rounds || spent < budget_s {
        clock.sample();
        gen.sample();
        let plain = w.rep(ops, &Mode::Plain);
        tally.rep("plain rep", &plain.m);
        if plain_s.is_empty() {
            let check = (plain.check)();
            tally.check(&check);
            values.extend(plain.m.layer.iter().copied());
            values.extend(sim_metrics(&plain.m.sim));
            values.push(("db.recover_s", check.host_s));
        } else {
            drop(plain.check);
        }

        let tracer = Tracer::new();
        let traced = w.rep(ops, &Mode::Traced(Rc::clone(&tracer))).m;
        tally.rep("traced rep", &traced);
        tracers.push(tracer);

        let probe = Probe::aggregated();
        let probed = w.rep(ops, &Mode::Probed(probe.clone())).m;
        tally.rep("probed rep", &probed);
        if probed_s.is_empty() {
            values.extend(probe_metrics(&probe.summary(), probed.ops));
        }

        spent += plain.m.run_s + traced.run_s + probed.run_s;
        plain_s.push(plain.m.run_s);
        traced_s.push(traced.run_s);
        probed_s.push(probed.run_s);
    }

    let (quiet_round, quiet_traced_s) = quiet(&traced_s);
    let tracer = tracers.swap_remove(quiet_round);
    values.extend(layer_times(&tracer, ops, &mut tally.errors));
    values.extend([
        ("workload.gen_s", gen.gen_s()),
        ("workload.gen_ns_per_op", gen.gen_s() * 1e9 / ops as f64),
        (
            "sim.probe_overhead_x",
            quiet(&probed_s).1 / quiet(&plain_s).1,
        ),
        ("trace.overhead_x", quiet_traced_s / quiet(&plain_s).1),
    ]);
    values.extend(w.calibration());

    let mut notes = vec![format!(
        "{ops} {}s per rep, {} rounds of a plain, a traced and a probed rep, \
         host times x {:.3} to the reference clock",
        w.op_unit(),
        plain_s.len(),
        clock.scale()
    )];
    notes.extend(w.uncut_seam().map(str::to_string));
    Some(Report {
        metrics: fill(&PER_LAYER, &values, &clock),
        sim_fingerprint: tally.fingerprint.unwrap_or(0),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        notes,
        tracer: Some(tracer),
    })
}

/// Host time per layer from one traced rep. The root spans' self time plus
/// their children must tile the root total; a wrapper nested inside another
/// would count an interval twice and break that.
fn layer_times(tr: &Tracer, ops: usize, errors: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let s = |ns: u64| ns as f64 / 1e9;
    let (run, backend, wal) = (tr.stat(Seam::DbRun), tr.layer("backend"), tr.layer("wal"));
    let (block, device) = (tr.layer("block"), tr.layer("ssd"));
    for (what, root, parts) in [
        (
            "db",
            run.total_ns,
            run.self_ns + backend.total_ns + wal.total_ns,
        ),
        ("block", block.total_ns, block.self_ns + device.total_ns),
    ] {
        if (root as f64 - parts as f64).abs() > 0.02 * root as f64 {
            errors.push(format!(
                "traced rep: {what} spans tile {parts} ns of a {root} ns root"
            ));
        }
    }
    vec![
        ("db.exec_self_s", s(run.self_ns)),
        ("db.backend_s", s(backend.total_ns)),
        ("db.backend_calls", backend.count as f64),
        ("db.wal_s", s(wal.total_ns)),
        ("db.wal_calls", wal.count as f64),
        ("block.self_s", s(block.self_ns)),
        ("block.self_ns_per_cmd", block.self_ns as f64 / ops as f64),
        ("ssd.busy_s", s(device.total_ns)),
        ("ssd.ns_per_cmd", device.total_ns as f64 / ops as f64),
    ]
}

/// `gen_zipf` in either mode: the generator has one layer and no simulated
/// clock, so both metric lists are filled from the same time-boxed loop and
/// every `sim_*` / lower-layer metric reads 0.
fn run_gen(opt: Options, defs: &[Def]) -> Report {
    let (seconds, lap_ops) = if opt.quick {
        (0.0, 16)
    } else {
        (opt.seconds, gen::LAP_OPS)
    };
    let mut clock = RefClock::default();
    let g = gen::run(opt.seed, seconds, lap_ops, &mut clock);
    let values = [
        ("setup_s", g.setup_s),
        ("host_ops_per_s", lap_ops as f64 / g.lap_s),
        ("host_peak_rss_mb", peak_rss_mib()),
        ("workload.gen_s", g.lap_s),
        ("workload.gen_ns_per_op", g.lap_s * 1e9 / lap_ops as f64),
        ("trace.overhead_x", 1.0),
    ];
    Report {
        metrics: fill(defs, &values, &clock),
        sim_fingerprint: g.fingerprint,
        attempted: g.ops,
        failed: g.failed,
        errors: g.errors,
        notes: vec![format!(
            "{} laps of the same {lap_ops} generated txn inputs in a {seconds} s box",
            g.laps
        )],
        tracer: None,
    }
}
