//! The rule families.
//!
//! | id    | family        | invariant |
//! |-------|---------------|-----------|
//! | DET02 | determinism   | no ambient authority: `Instant`, `SystemTime`, `thread_rng`, `RandomState` |
//! | LAY01 | layering      | every `Cargo.toml` dependency edge respects the Figure-2 DAG |
//! | TIM01 | time hygiene  | no arithmetic on raw `as_nanos()` values outside `sim` |
//! | TIM02 | time hygiene  | no `*_ns`-suffixed raw integer/float declarations outside `sim` |
//! | UNS02 | unsafe policy | every member inherits the workspace lints (`unsafe_code = "forbid"`) |
//! | DEAD01 | dead code    | no `pub` fn/const/static named only by its own file's tests |
//!
//! The toolchain and the tests enforce the rest (DESIGN §2.5): rustc
//! keeps code from naming a crate its manifest does not list (the old
//! LAY02/LAY03), forbids `unsafe` (UNS01) and denies a dropped
//! `#[must_use]` `IoStatus` or `WalForce` (IOS01); clippy holds the panic
//! policy's modules to no `unwrap`/`expect`/`panic!` (PAN01), bans
//! `HashMap`/`HashSet` under `crates/` with `disallowed-types` (DET01) and
//! denies a status bound to `_` in `requiem-db` (IOS02, with
//! `WalForce::settle` the only way to a force's instant);
//! `Probe::enter_background` is private to `sim` (PRB01); a
//! `CommandScope` dropped without `close`, `detach` or `abort` panics in
//! debug builds (PRB02/PRB03); and the engine's WAL law asserts, in debug
//! builds, that no page write or commit acknowledgement runs ahead of the
//! force that made its log record durable (CLK01).
//!
//! The [`RULES`] table below is the single registry: it drives the
//! per-file pass ([`run_file`]) *and* the CLI's `--explain <RULE>` output
//! — rationale and the bad/ok examples live next to the check that
//! enforces them.

pub mod dead;
pub mod determinism;
pub mod manifest;
pub mod timing;

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::workspace::{CrateInfo, FileCat};

/// Everything a file-scoped rule needs.
pub struct FileCtx<'a> {
    /// Package name of the owning crate (e.g. `requiem-ssd`).
    pub crate_name: &'a str,
    /// Workspace-relative path.
    pub rel: &'a str,
    /// File category.
    pub cat: FileCat,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Parallel mask: true where the token is inside `#[cfg(test)]`.
    pub test_mask: &'a [bool],
}

impl FileCtx<'_> {
    /// True when the token at `i` is test-only code (either the whole
    /// file is a test/bench/example, or the token sits in `#[cfg(test)]`).
    pub fn in_test(&self, i: usize) -> bool {
        self.cat.is_testish() || self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Short crate name: `requiem-ssd` → `ssd`, `requiem` → `requiem`.
    pub fn short(&self) -> &str {
        short_name(self.crate_name)
    }
}

/// Short crate name: strip the `requiem-` prefix.
pub fn short_name(pkg: &str) -> &str {
    pkg.strip_prefix("requiem-").unwrap_or(pkg)
}

/// How a registry entry's check runs.
pub enum Check {
    /// Token-level pass over one file.
    File(fn(&FileCtx<'_>) -> Vec<Diagnostic>),
    /// Emitted by the pass registered under another rule id (one module
    /// pass reports several ids).
    WithPass(&'static str),
    /// Crate-scoped; dispatched from [`run_crate`], not per file.
    CrateScoped,
    /// Workspace-scoped; dispatched once from [`crate::lint_files`] over
    /// every file together.
    WorkspaceScoped,
}

/// One registry entry: the check plus everything `--explain` prints.
pub struct Rule {
    /// Stable id (`LAY01`).
    pub id: &'static str,
    /// Family name (`layering`).
    pub family: &'static str,
    /// One-line invariant.
    pub summary: &'static str,
    /// Why the invariant exists in *this* codebase.
    pub rationale: &'static str,
    /// Minimal code that fires the rule.
    pub bad: &'static str,
    /// The corrected twin.
    pub ok: &'static str,
    /// How the check runs.
    pub check: Check,
}

/// The rule registry — checks and `--explain` source of truth.
pub const RULES: &[Rule] = &[
    Rule {
        id: "DET02",
        family: "determinism",
        summary: "no ambient authority: Instant, SystemTime, thread_rng, RandomState",
        rationale: "Wall-clock reads and OS-seeded RNGs smuggle nondeterminism past the \
                    simulated clock; all time comes from SimTime, all randomness from the \
                    seeded SimRng.",
        bad: "let t0 = std::time::Instant::now();",
        ok: "let t0 = self.now; // SimTime from the event clock",
        check: Check::File(determinism::check),
    },
    Rule {
        id: "LAY01",
        family: "layering",
        summary: "every Cargo.toml dependency edge respects the Figure-2 DAG",
        rationale: "The workspace mirrors the paper's Figure 2 (db→block→iface/ssd→flash/pcm→sim); \
                    an upward manifest edge collapses the layering argument the reproduction \
                    makes. Source can name only the crates its manifest lists, so checking \
                    every edge (build and target tables, the bare `requiem` crate, no \
                    `package = \"…\"` renames) is checking the code.",
        bad: "# crates/flash/Cargo.toml\n[dependencies]\nrequiem-ssd = { path = \"../ssd\" }",
        ok: "# crates/flash/Cargo.toml\n[dependencies]\nrequiem-sim = { path = \"../sim\" }",
        check: Check::CrateScoped,
    },
    Rule {
        id: "TIM01",
        family: "time hygiene",
        summary: "no arithmetic on raw as_nanos() values outside sim",
        rationale: "Raw nanosecond arithmetic bypasses SimTime/SimDuration's overflow and \
                    unit discipline; only the sim kernel may unpack time.",
        bad: "let gap = done.as_nanos() - start.as_nanos();",
        ok: "let gap = done.since(start);",
        check: Check::File(timing::check),
    },
    Rule {
        id: "TIM02",
        family: "time hygiene",
        summary: "no *_ns-suffixed raw integer/float declarations outside sim",
        rationale: "A `foo_ns: u64` field is raw-nanosecond arithmetic waiting to happen; \
                    carry SimDuration instead and convert at the sim boundary.",
        bad: "let mean_gap_ns = 1e9 / iops;",
        ok: "let gap = sim_rng_interarrival.sample(&mut rng); // SimDuration",
        check: Check::WithPass("TIM01"),
    },
    Rule {
        id: "UNS02",
        family: "unsafe policy",
        summary: "every member inherits the workspace lints (unsafe_code = \"forbid\")",
        rationale: "The simulator needs no unsafe. The root's [workspace.lints.rust] forbids \
                    it for every target (bins, tests and examples too) and denies \
                    unused_must_use, but binds a member only when its manifest opts in.",
        bad: "# crates/x/Cargo.toml\n[dependencies]\nrequiem-sim = { workspace = true }",
        ok: "# crates/x/Cargo.toml\n[dependencies]\nrequiem-sim = { workspace = true }\n\n[lints]\nworkspace = true",
        check: Check::CrateScoped,
    },
    Rule {
        id: "DEAD01",
        family: "dead code",
        summary: "no pub fn/const/static named only by its own declaration and its file's tests",
        rationale: "rustc's dead_code lint trusts `pub`, so exported API outlives its last \
                    caller: the paper's point about interfaces, applied to our own. An item \
                    is dead when its name occurs as an identifier nowhere but its declaration \
                    and its own file's #[cfg(test)] code. Every member's src/, tests/, \
                    benches/ and examples/, plus benchmark/src and benchmark/tests, count as \
                    callers, so test-support API used from another file's tests stays. Names \
                    are compared as plain text: an item whose name any other token shares \
                    (another item, a local) is never reported, so the rule can miss dead \
                    code but never flags live code. Only a field access `.name` with no `(` \
                    or `::` after it and a `name` with one `:` after it do not count, as \
                    neither can name a fn: an accessor named like its field is seen.",
        bad: "pub fn mean_erase_count(&self) -> f64 { … }\n#[cfg(test)]\nmod tests {\n    \
              #[test]\n    fn mean() { assert_eq!(lun().mean_erase_count(), 0.0); }\n}",
        ok: "pub fn max_erase_count(&self) -> u32 { … }\n// crates/ssd/src/wear.rs\nlet worst = \
             lun.max_erase_count();",
        check: Check::WorkspaceScoped,
    },
];

/// Look up a rule by id (case-insensitive).
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// Run every token-level file rule on one file.
pub fn run_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in RULES {
        if let Check::File(f) = r.check {
            out.extend(f(ctx));
        }
    }
    out
}

/// Run every crate-scoped rule on one crate.
pub fn run_crate(info: &CrateInfo) -> Vec<Diagnostic> {
    let mut out = manifest::check_manifest(info);
    out.extend(manifest::check_lints(info));
    out
}
