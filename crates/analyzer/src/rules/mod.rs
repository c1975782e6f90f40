//! The rule families.
//!
//! | id    | family        | invariant |
//! |-------|---------------|-----------|
//! | DET02 | determinism   | no ambient authority: `Instant`, `SystemTime`, `thread_rng`, `RandomState` |
//! | LAY01 | layering      | every `Cargo.toml` dependency edge respects the Figure-2 DAG |
//! | PRB02 | probe         | a file opening probe spans must also close or detach them |
//! | PRB03 | probe         | spans must be closed/detached/aborted on *every* exit path |
//! | IOS02 | fallibility   | a fallible result must be consumed once bound — no `_`, unused names, or `.done`-only projections |
//! | CLK01 | clock         | a time binding is stale after a device-driving call until folded forward |
//! | TIM01 | time hygiene  | no arithmetic on raw `as_nanos()` values outside `sim` |
//! | TIM02 | time hygiene  | no `*_ns`-suffixed raw integer/float declarations outside `sim` |
//! | UNS02 | unsafe policy | every member inherits the workspace lints (`unsafe_code = "forbid"`) |
//! | DEAD01 | dead code    | no `pub` fn/const/static named only by its own file's tests |
//!
//! The toolchain enforces the rest (DESIGN §2.5): rustc keeps code from
//! naming a crate its manifest does not list (the old LAY02/LAY03),
//! forbids `unsafe` (UNS01) and denies a dropped `#[must_use]` `IoStatus`
//! or `WalForce` (IOS01); clippy holds the panic policy's modules to no
//! `unwrap`/`expect`/`panic!` (PAN01) and bans `HashMap`/`HashSet`
//! under `crates/` with `disallowed-types` (DET01); and
//! `Probe::enter_background` is private to `sim` (PRB01).
//!
//! The [`RULES`] table below is the single registry: it drives the
//! per-file and semantic passes ([`run_file`], [`run_sem`]) *and* the
//! CLI's `--explain <RULE>` output — rationale and the bad/ok examples
//! live next to the check that enforces them.

pub mod clock;
pub mod dead;
pub mod determinism;
pub mod fallibility;
pub mod manifest;
pub mod probe;
pub mod timing;

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::parser::{FnDef, ParsedFile};
use crate::symbols::SymbolTable;
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

/// Everything a semantic (parser-backed) rule needs: the file context
/// plus its parsed item tree and the workspace symbol table.
pub struct SemCtx<'a> {
    /// Token-level file context.
    pub file: &'a FileCtx<'a>,
    /// Parsed item tree of this file.
    pub parsed: &'a ParsedFile,
    /// Workspace-wide symbol table (pass 1).
    pub symbols: &'a SymbolTable,
}

impl SemCtx<'_> {
    /// True when the fn is test-only code.
    pub fn fn_in_test(&self, f: &FnDef) -> bool {
        self.file.in_test(f.fn_tok)
    }

    /// Source line of token `i` (0 when out of range).
    pub fn line_of(&self, i: usize) -> u32 {
        self.file.toks.get(i).map(|t| t.line).unwrap_or(0)
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
    /// Parser-backed pass over one file.
    Sem(fn(&SemCtx<'_>) -> Vec<Diagnostic>),
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
        id: "PRB02",
        family: "probe",
        summary: "a file opening probe spans must also close or detach them",
        rationale: "The span-tiling invariant (spans tile [submit, done)) only holds when \
                    every opened command is eventually closed or detached; a file that only \
                    opens is leaking records.",
        bad: "let scope = probe.open_command(\"read\", now);\n// no close/detach anywhere in the file",
        ok: "let scope = probe.open_command(\"read\", now);\nscope.close(done);",
        check: Check::File(probe::check),
    },
    Rule {
        id: "PRB03",
        family: "probe",
        summary: "spans must be closed, detached, or aborted on every exit path",
        rationale: "PRB02 checks files; PRB03 checks paths. A `?` or `return` while a scope \
                    is live silently drop-aborts the command record — error paths must say \
                    `scope.abort()` out loud so the discard is a decision, not an accident.",
        bad: "let scope = probe.open_command(\"io\", now);\nlet c = self.dispatch(now, req)?; // ? drops scope\nscope.close(c.done);",
        ok: "let scope = probe.open_command(\"io\", now);\nlet c = match self.dispatch(now, req) {\n    Ok(c) => c,\n    Err(e) => { scope.abort(); return Err(e); }\n};\nscope.close(c.done);",
        check: Check::Sem(probe::check_paths),
    },
    Rule {
        id: "IOS02",
        family: "fallibility",
        summary: "a bound fallible result must actually be consumed",
        rationale: "`#[must_use]` on IoStatus and WalForce stops a status dropped in statement \
                    position, but `let _ = force(…)`, a never-read binding, or a `.done`-only \
                    projection passes rustc — and the status still dies unobserved.",
        bad: "let t = self.wal_dev.force(now, to).done; // status projected away",
        ok: "let f = self.wal_dev.force(now, to);\nself.note_force(f.status);\nlet t = f.done;",
        check: Check::Sem(fallibility::check),
    },
    Rule {
        id: "CLK01",
        family: "clock",
        summary: "a time binding goes stale after a device-driving call until folded forward",
        rationale: "exec.rs's event clock must stay globally monotone: each device interaction \
                    returns the device's new time head, and submitting the next command with \
                    the old binding schedules it in the device's past — breaking deterministic \
                    replay.",
        bad: "let f = self.wal_dev.force(end, to);\nself.note_force(f.status);\nlet done = self.backend.steal_write(end, page); // stale `end`",
        ok: "let f = self.wal_dev.force(end, to);\nself.note_force(f.status);\nend = end.max(f.done);\nlet done = self.backend.steal_write(end, page);",
        check: Check::Sem(clock::check),
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
                    (another item, a field, a local) is never reported, so the rule can miss \
                    dead code but never flags live code.",
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

/// Run every parser-backed semantic rule on one file.
pub fn run_sem(sem: &SemCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in RULES {
        if let Check::Sem(f) = r.check {
            out.extend(f(sem));
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
