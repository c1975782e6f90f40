//! # requiem-lint — domain-aware static analysis for the requiem workspace
//!
//! The paper's myth-busting experiments are only falsifiable because they
//! are bit-reproducible; the workspace's architecture only mirrors
//! Figure 2 while nothing inverts a layer. Both were conventions. This
//! crate turns them into machine-checked rules (see [`rules`] for the
//! full table): determinism (DET), layering (LAY), probe discipline
//! (PRB), fallibility (IOS), clock discipline (CLK), time hygiene (TIM),
//! unsafe policy (UNS), and dead public API (DEAD). What rustc and
//! clippy already check is left to them.
//!
//! Design constraints:
//!
//! * **Offline, zero dependencies.** The build environment vendors no
//!   `syn`, so the analyzer lexes Rust itself ([`lexer`]) and pattern-
//!   matches token streams. That is less precise than type-resolved
//!   analysis and deliberately biased toward *no false negatives on the
//!   patterns that have bitten this codebase* (hash-order iteration, raw
//!   wall-clock reads, layer inversions); the checked-in allowlist
//!   ([`allow`], `lint.allow.toml`) absorbs the rare justified exception.
//! * **Machine-readable diagnostics.** Every finding is
//!   `rule id, file:line, message, suggestion` ([`diag`]), with `--json`
//!   for tooling.
//! * **Deny by default.** Any non-allowlisted diagnostic fails the run;
//!   CI gates on it.
//!
//! Run it as `cargo run -p analyzer -- --workspace`.

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

use std::fs;
use std::path::Path;

use allow::AllowList;
use diag::Diagnostic;
use parser::ParsedFile;
use rules::{FileCtx, SemCtx};
use symbols::SymbolTable;
use workspace::{FileCat, Workspace};

/// Outcome of a whole-workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every diagnostic, paired with whether the allowlist covers it.
    pub diagnostics: Vec<(Diagnostic, bool)>,
    /// Allowlist entries that matched nothing (stale).
    pub unused_allows: Vec<allow::AllowEntry>,
}

/// Lint the workspace rooted at `root` against `allowlist`.
pub fn run(root: &Path, mut allowlist: AllowList) -> Result<Report, String> {
    let ws = workspace::discover(root)?;
    let mut diags = collect_diagnostics(&ws)?;
    // Stable output: sort by path, line, rule.
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    let diagnostics = diags
        .into_iter()
        .map(|d| {
            let allowed = allowlist.check(&d);
            (d, allowed)
        })
        .collect();
    Ok(Report {
        diagnostics,
        unused_allows: allowlist.unused().into_iter().cloned().collect(),
    })
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

/// A lexed + parsed file, ready for both rule passes.
struct PreparedFile<'a> {
    input: &'a FileInput,
    toks: Vec<lexer::Tok>,
    test_mask: Vec<bool>,
    parsed: ParsedFile,
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

/// Lint a set of in-memory files as one workspace: pass 1 parses
/// everything and builds the symbol table from `Main` files; pass 2 runs
/// the token rules and the parser-backed semantic rules on each file
/// except [`FileCat::Reference`] ones; pass 3 runs DEAD01 over all of
/// them at once.
pub fn lint_files(inputs: &[FileInput]) -> Vec<Diagnostic> {
    let prepared: Vec<PreparedFile<'_>> = inputs
        .iter()
        .map(|input| {
            let toks = lexer::lex(&input.text);
            let test_mask = lexer::test_mask(&toks);
            let parsed = parser::parse(&toks);
            PreparedFile {
                input,
                toks,
                test_mask,
                parsed,
            }
        })
        .collect();
    let table = SymbolTable::build(
        prepared
            .iter()
            .filter(|p| p.input.cat == FileCat::Main)
            .map(|p| &p.parsed),
    );
    let ctxs: Vec<FileCtx<'_>> = prepared
        .iter()
        .map(|p| FileCtx {
            crate_name: &p.input.crate_name,
            rel: &p.input.rel,
            cat: p.input.cat,
            toks: &p.toks,
            test_mask: &p.test_mask,
        })
        .collect();
    let mut out = Vec::new();
    for (p, ctx) in prepared.iter().zip(&ctxs) {
        if ctx.cat == FileCat::Reference {
            continue;
        }
        out.extend(rules::run_file(ctx));
        let sem = SemCtx {
            file: ctx,
            parsed: &p.parsed,
            symbols: &table,
        };
        out.extend(rules::run_sem(&sem));
    }
    out.extend(rules::dead::check(&ctxs));
    out
}

/// Lint a single file's source text — the unit the token-rule fixture
/// tests drive. Symbol resolution sees only this file; multi-crate
/// fixtures use [`lint_files`].
pub fn lint_source(crate_name: &str, rel: &str, cat: FileCat, text: &str) -> Vec<Diagnostic> {
    lint_files(&[FileInput {
        crate_name: crate_name.to_string(),
        rel: rel.to_string(),
        cat,
        text: text.to_string(),
    }])
}

/// Load the allowlist at `path`; a missing file yields an empty list.
pub fn load_allowlist(path: &Path) -> Result<AllowList, String> {
    match fs::read_to_string(path) {
        Ok(text) => AllowList::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(AllowList::empty()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}
