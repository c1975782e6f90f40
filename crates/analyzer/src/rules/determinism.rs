//! DET02 — determinism: no ambient authority on the sim path.
//!
//! The paper's myths are falsifiable only because experiments are
//! bit-reproducible: CI diffs double runs of exp1/exp4/exp11.
//! `Instant::now`, `SystemTime`, `thread_rng` and `RandomState` pull
//! wall-clock time or OS entropy into the simulation and silently break
//! that guarantee. All time must come from `SimTime` and all randomness
//! from the seeded, splittable `SimRng`. DET02 applies everywhere, tests
//! included — a flaky test is still a broken promise.
//!
//! ```text
//! bad: let t0 = std::time::Instant::now();
//! ok:  let t0 = self.now; // SimTime from the event clock
//! ```
//!
//! The other determinism hazard, iterating a `HashMap`/`HashSet` (whose
//! order `RandomState` seeds per process), is clippy's: `crates/clippy.toml`
//! lists both types under `disallowed-types`.

use super::FileCtx;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;

/// Crates on the simulated I/O path (everything that feeds experiment
/// output). The analyzer itself is host tooling and exempt.
const SIM_PATH: &[&str] = &[
    "sim", "flash", "pcm", "ssd", "block", "iface", "db", "workload", "bench", "requiem",
];

/// Ambient-authority identifiers banned on the sim path.
const AMBIENT: &[&str] = &["Instant", "SystemTime", "thread_rng", "RandomState"];

/// Run DET02 on one file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !SIM_PATH.contains(&ctx.short()) {
        return Vec::new();
    }
    ctx.toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && AMBIENT.contains(&t.text.as_str()))
        .map(|t| Diagnostic {
            rule: "DET02",
            path: ctx.rel.to_string(),
            line: t.line,
            message: format!("ambient authority `{}` on the sim path", t.text),
            suggestion: "derive all time from SimTime and all randomness from SimRng".to_string(),
        })
        .collect()
}
