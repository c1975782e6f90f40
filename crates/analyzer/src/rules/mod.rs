//! The rule families.
//!
//! | id    | family        | invariant |
//! |-------|---------------|-----------|
//! | DET01 | determinism   | no iteration over `HashMap`/`HashSet` in sim-path code |
//! | DET02 | determinism   | no ambient authority: `Instant`, `SystemTime`, `thread_rng`, `RandomState` |
//! | LAY01 | layering      | `Cargo.toml` deps respect the Figure-2 DAG |
//! | LAY02 | layering      | `use requiem_*` paths respect the Figure-2 DAG |
//! | LAY03 | layering      | the resolved *call graph* respects the Figure-2 DAG |
//! | PRB01 | probe         | no raw `enter_background`/`exit_background` outside `sim` (RAII guard only) |
//! | PRB02 | probe         | a file opening probe spans must also close or detach them |
//! | PRB03 | probe         | spans must be closed/detached/aborted on *every* exit path |
//! | IOS01 | fallibility   | a fallible result (`IoStatus`/`WalForce`/`Vec<IoCompletion>`) must not be dropped in statement position |
//! | IOS02 | fallibility   | a fallible result must be consumed once bound — no `_`, unused names, or `.done`-only projections |
//! | CLK01 | clock         | a time binding is stale after a device-driving call until folded forward |
//! | TIM01 | time hygiene  | no arithmetic on raw `as_nanos()` values outside `sim` |
//! | TIM02 | time hygiene  | no `*_ns`-suffixed raw integer/float declarations outside `sim` |
//! | PAN01 | panic policy  | no `unwrap`/`expect`/`panic!` in controller/qpair/mapping code |
//! | UNS01 | unsafe policy | no `unsafe` anywhere in the workspace |
//! | UNS02 | unsafe policy | every crate root carries `#![forbid(unsafe_code)]` |
//!
//! The [`RULES`] table below is the single registry: it drives the
//! per-file and semantic passes ([`run_file`], [`run_sem`]) *and* the
//! CLI's `--explain <RULE>` output — rationale and the bad/ok examples
//! live next to the check that enforces them.

pub mod callgraph;
pub mod clock;
pub mod determinism;
pub mod fallibility;
pub mod layering;
pub mod panic_policy;
pub mod probe;
pub mod timing;
pub mod unsafety;

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
}

/// One registry entry: the check plus everything `--explain` prints.
pub struct Rule {
    /// Stable id (`LAY03`).
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
        id: "DET01",
        family: "determinism",
        summary: "no iteration over HashMap/HashSet in sim-path code",
        rationale: "Hash iteration order is randomized per process; any ordering leak into \
                    event times or output breaks bit-identical replay, the property every \
                    myth-busting experiment rests on.",
        bad: "for (lbn, page) in self.resident.iter() { self.evict(lbn, page); } // HashMap",
        ok: "for (lbn, page) in self.resident.iter() { self.evict(lbn, page); } // BTreeMap",
        check: Check::File(determinism::check),
    },
    Rule {
        id: "DET02",
        family: "determinism",
        summary: "no ambient authority: Instant, SystemTime, thread_rng, RandomState",
        rationale: "Wall-clock reads and OS-seeded RNGs smuggle nondeterminism past the \
                    simulated clock; all time comes from SimTime, all randomness from the \
                    seeded SimRng.",
        bad: "let t0 = std::time::Instant::now();",
        ok: "let t0 = self.now; // SimTime from the event clock",
        check: Check::WithPass("DET01"),
    },
    Rule {
        id: "LAY01",
        family: "layering",
        summary: "Cargo.toml deps respect the Figure-2 DAG",
        rationale: "The workspace mirrors the paper's Figure 2 (db→block→iface/ssd→flash/pcm→sim); \
                    an upward manifest edge collapses the layering argument the reproduction \
                    makes.",
        bad: "# crates/flash/Cargo.toml\n[dependencies]\nrequiem-ssd = { path = \"../ssd\" }",
        ok: "# crates/flash/Cargo.toml\n[dependencies]\nrequiem-sim = { path = \"../sim\" }",
        check: Check::CrateScoped,
    },
    Rule {
        id: "LAY02",
        family: "layering",
        summary: "use requiem_* paths respect the Figure-2 DAG",
        rationale: "A fully-qualified path can smuggle in an edge the manifest hides (e.g. \
                    through a transitive dep); the same DAG is therefore enforced on source \
                    tokens.",
        bad: "// in crates/flash\nuse requiem_ssd::qpair::QueuePair;",
        ok: "// in crates/flash\nuse requiem_sim::time::SimTime;",
        check: Check::File(layering::check_uses),
    },
    Rule {
        id: "LAY03",
        family: "layering",
        summary: "the resolved call graph respects the Figure-2 DAG",
        rationale: "Re-exports (the root crate `requiem` has no requiem_ prefix) and method \
                    calls on values handed down from above create edges neither LAY01 nor \
                    LAY02 can see; the symbol-table-resolved call graph closes the hole.",
        bad: "// in crates/flash\nfn drain(s: &mut Ssd) { s.enqueue(&mut qp, now, req); } // resolves to ssd",
        ok: "// in crates/ssd\nfn drain(s: &mut Ssd) { s.enqueue(&mut qp, now, req); }",
        check: Check::Sem(callgraph::check),
    },
    Rule {
        id: "PRB01",
        family: "probe",
        summary: "no raw enter_background/exit_background outside sim (RAII guard only)",
        rationale: "An early return between the raw pair wedges the probe bus in background \
                    mode and silently un-attributes every later span.",
        bad: "probe.enter_background();\ndo_gc();\nprobe.exit_background();",
        ok: "let _bg = probe.background();\ndo_gc();",
        check: Check::File(probe::check),
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
        check: Check::WithPass("PRB01"),
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
        id: "IOS01",
        family: "fallibility",
        summary: "a fallible result must not be dropped in statement position",
        rationale: "Every completion carries a typed IoStatus precisely so an Unrecoverable \
                    can never vanish; a bare `dev.force(now, to);` throws the status away \
                    unseen.",
        bad: "self.wal_dev.force(now, to);",
        ok: "let f = self.wal_dev.force(now, to);\nself.note_force(f.status);",
        check: Check::Sem(fallibility::check),
    },
    Rule {
        id: "IOS02",
        family: "fallibility",
        summary: "a bound fallible result must actually be consumed",
        rationale: "`let _ = force(…)`, a never-read binding, or a `.done`-only projection is \
                    IOS01 with extra steps — the status still dies unobserved.",
        bad: "let t = self.wal_dev.force(now, to).done; // status projected away",
        ok: "let f = self.wal_dev.force(now, to);\nself.note_force(f.status);\nlet t = f.done;",
        check: Check::WithPass("IOS01"),
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
        id: "PAN01",
        family: "panic policy",
        summary: "no unwrap/expect/panic! in controller/qpair/mapping/exec code",
        rationale: "The protected modules sit under the fallible-I/O contract (PR 4): media \
                    errors must surface as typed IoStatus, never as a host-process abort. \
                    `unreachable!` remains legal for provable invariants (let-else guarded).",
        bad: "let log = h.log_of(lbn).expect(\"just appended\");",
        ok: "let Some(log) = h.log_of(lbn) else {\n    unreachable!(\"append_log bound this lbn\")\n};",
        check: Check::File(panic_policy::check),
    },
    Rule {
        id: "UNS01",
        family: "unsafe policy",
        summary: "no unsafe anywhere in the workspace",
        rationale: "The simulator needs no unsafe; any appearance is either a mistake or a \
                    perf experiment that belongs behind a reviewed feature gate.",
        bad: "let p = unsafe { ptr.read() };",
        ok: "let p = slice[i];",
        check: Check::File(unsafety::check_tokens),
    },
    Rule {
        id: "UNS02",
        family: "unsafe policy",
        summary: "every crate root carries #![forbid(unsafe_code)]",
        rationale: "UNS01 is a lint; the compiler attribute makes it load-bearing even for \
                    code paths the analyzer cannot see.",
        bad: "// src/lib.rs\n//! my crate",
        ok: "// src/lib.rs\n//! my crate\n#![forbid(unsafe_code)]",
        check: Check::CrateScoped,
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
pub fn run_crate(info: &CrateInfo, root_toks: Option<&[Tok]>, root_rel: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(layering::check_manifest(info));
    out.extend(unsafety::check_crate_root(info, root_toks, root_rel));
    out
}
