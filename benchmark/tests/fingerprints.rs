//! The three ways of observing a rep must not change what it simulates.
//!
//! A `Timed<_>` wrapper that misses one overridden default method of
//! `PersistenceBackend` silently falls back to the trait's serialized read
//! shim; a probe attached at the wrong moment folds set-up into the run; a
//! traced stack rebuilt by hand can drift from the program's own builder.
//! Each shows up as a different `sim_fingerprint`, so every workload runs
//! here at `--quick` size plain, traced and probed, on two seeds.

use requiem_benchmark::trace::Tracer;
use requiem_benchmark::workloads::{by_name, Mode, NAMES};
use requiem_benchmark::{run_plain, run_traced, Options};
use requiem_sim::Probe;

#[test]
fn plain_traced_and_probed_reps_share_one_fingerprint() {
    let mut seen = Vec::new();
    for name in NAMES.iter().filter(|n| **n != "gen_zipf") {
        for seed in [11, 12] {
            let mut w = by_name(name).expect("listed workload");
            let ops = w.full_ops() / 20;
            w.generate(seed, ops);
            let plain = w.rep(ops, &Mode::Plain).m;
            let traced = w.rep(ops, &Mode::Traced(Tracer::new())).m;
            let probed = w.rep(ops, &Mode::Probed(Probe::aggregated())).m;
            assert_eq!(plain.failed, 0, "{name} seed {seed}");
            assert_eq!(
                plain.fingerprint, traced.fingerprint,
                "{name} seed {seed}: the Timed wrappers changed the simulation"
            );
            assert_eq!(
                plain.fingerprint, probed.fingerprint,
                "{name} seed {seed}: the probe changed the simulation"
            );
            seen.push(plain.fingerprint);
        }
    }
    // the fingerprint is not a constant: every workload x seed differs
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 2 * (NAMES.len() - 1));
}

#[test]
fn quick_runs_of_every_workload_are_correct_in_both_modes() {
    let opt = Options {
        seed: 11,
        seconds: 1.0,
        quick: true,
    };
    for name in NAMES {
        let plain = run_plain(name, opt).expect("listed workload");
        assert!(plain.correct(), "{name} plain: {:?}", plain.errors);
        assert!(plain.attempted > 0);
        let traced = run_traced(name, opt).expect("listed workload");
        assert!(traced.correct(), "{name} traced: {:?}", traced.errors);
        assert_eq!(
            plain.sim_fingerprint, traced.sim_fingerprint,
            "{name}: the two modes ran different simulations"
        );
    }
    assert!(run_plain("no_such_workload", opt).is_none());
}
