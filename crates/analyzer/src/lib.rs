//! # analyzer — domain-aware static analysis for the requiem workspace
//!
//! The paper's myth-busting experiments are only falsifiable because they
//! are bit-reproducible; the workspace's architecture only mirrors
//! Figure 2 while nothing inverts a layer. Both were conventions. This
//! crate turns them into machine-checked rules (see [`rules`] for the
//! full table): determinism (DET), layering (LAY), time hygiene (TIM),
//! unsafe policy (UNS), and dead public API (DEAD). It keeps only what no
//! type or runtime law can hold: what rustc and clippy check is left to
//! them, and so are the contracts a type or a debug-build assert states —
//! a probe scope's end, a log force's status, the WAL rule's clock.
//!
//! Design constraints:
//!
//! * **Offline, zero dependencies.** The build environment vendors no
//!   `syn`, so the analyzer lexes Rust itself ([`lexer`]) and pattern-
//!   matches token streams. That is less precise than type-resolved
//!   analysis and deliberately biased toward *no false negatives on the
//!   patterns that have bitten this codebase* (wall-clock reads, raw
//!   nanosecond arithmetic, layer inversions). There are no exceptions:
//!   a finding is fixed, not allowlisted.
//! * **One way to run it: `cargo test`.** `tests/rules.rs`'s
//!   `workspace_self_check_is_clean` lints the whole workspace with
//!   [`run`] and fails on any [`Diagnostic`], printed as
//!   `rule id, file:line, message, suggestion` ([`diag`]). The root
//!   manifest's `default-members` covers `crates/*`, so the root's
//!   `cargo test -q` runs it.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::fs;
use std::path::Path;

use diag::Diagnostic;
use rules::FileCtx;
use workspace::{FileCat, Workspace};

/// Lint the workspace rooted at `root`: every diagnostic, sorted by
/// path, line and rule.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = workspace::discover(root)?;
    let mut diags = collect_diagnostics(&ws)?;
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(diags)
}

/// One in-memory source file for [`lint_files`]: the multi-file entry
/// point fixtures and the workspace run share.
pub struct FileInput {
    /// Package name of the owning crate (e.g. `requiem-ssd`).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel: String,
    /// File category.
    pub cat: FileCat,
    /// Source text.
    pub text: String,
}

fn collect_diagnostics(ws: &Workspace) -> Result<Vec<Diagnostic>, String> {
    // pass 0: read every file once
    let members = ws
        .crates
        .iter()
        .flat_map(|k| k.files.iter().map(move |f| (k.manifest.name.as_str(), f)));
    let references = ws.references.iter().map(|f| ("requiem-benchmark", f));
    let mut inputs = Vec::new();
    for (crate_name, f) in members.chain(references) {
        let text =
            fs::read_to_string(&f.abs).map_err(|e| format!("read {}: {e}", f.abs.display()))?;
        inputs.push(FileInput {
            crate_name: crate_name.to_string(),
            rel: f.rel.clone(),
            cat: f.cat,
            text,
        });
    }
    let mut out = lint_files(&inputs);
    for krate in &ws.crates {
        out.extend(rules::run_crate(krate));
    }
    Ok(out)
}

/// Lint a set of in-memory files as one workspace: pass 1 lexes
/// everything; pass 2 runs the token rules on each file except
/// [`FileCat::Reference`] ones; pass 3 runs DEAD01 over all of them at
/// once.
pub fn lint_files(inputs: &[FileInput]) -> Vec<Diagnostic> {
    let lexed: Vec<(Vec<lexer::Tok>, Vec<bool>)> = inputs
        .iter()
        .map(|input| {
            let toks = lexer::lex(&input.text);
            let test_mask = lexer::test_mask(&toks);
            (toks, test_mask)
        })
        .collect();
    let ctxs: Vec<FileCtx<'_>> = inputs
        .iter()
        .zip(&lexed)
        .map(|(input, (toks, test_mask))| FileCtx {
            crate_name: &input.crate_name,
            rel: &input.rel,
            cat: input.cat,
            toks,
            test_mask,
        })
        .collect();
    let mut out = Vec::new();
    for ctx in ctxs.iter().filter(|c| c.cat != FileCat::Reference) {
        out.extend(rules::run_file(ctx));
    }
    out.extend(rules::dead::check(&ctxs));
    out
}

/// Lint a single file's source text — the unit the token-rule fixture
/// tests drive; multi-file fixtures use [`lint_files`].
pub fn lint_source(crate_name: &str, rel: &str, cat: FileCat, text: &str) -> Vec<Diagnostic> {
    lint_files(&[FileInput {
        crate_name: crate_name.to_string(),
        rel: rel.to_string(),
        cat,
        text: text.to_string(),
    }])
}
