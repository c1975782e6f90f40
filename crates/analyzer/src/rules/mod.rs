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
//! Each rule's module doc gives its rationale and a bad/ok example;
//! [`run_file`] runs the token rules on one file, [`run_crate`] the
//! manifest rules on one crate, and [`crate::lint_files`] runs DEAD01
//! over every file at once.

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

/// Run every token-level file rule on one file.
pub fn run_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = determinism::check(ctx);
    out.extend(timing::check(ctx));
    out
}

/// Run every crate-scoped rule on one crate.
pub fn run_crate(info: &CrateInfo) -> Vec<Diagnostic> {
    let mut out = manifest::check_manifest(info);
    out.extend(manifest::check_lints(info));
    out
}
