//! DEAD01 — public API whose only caller is its own file's tests.
//!
//! rustc's `dead_code` lint stops at `pub`: an item the crate exports is
//! assumed to have callers elsewhere. This pass checks that assumption
//! over the whole workspace at once. A `pub fn`, `pub const fn`,
//! `pub const` or `pub static` in shipped `src/` code is dead when its
//! name occurs as an identifier token nowhere but at its own declaration
//! and inside the `#[cfg(test)]` code of the file that declares it.
//!
//! References are every identifier token of every file the analyzer
//! reads — `src/`, `tests/`, `benches/` and `examples/` of each member,
//! plus the reference-only roots ([`FileCat::Reference`]). Names are
//! compared as plain text, with no resolution: any other occurrence of
//! the name, by any item, keeps the declaration alive. The pass can
//! therefore miss dead items but never reports a live one.

use std::collections::{BTreeMap, BTreeSet};

use super::FileCtx;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::workspace::FileCat;

/// DEAD01 over every file of the workspace at once.
pub fn check(files: &[FileCtx<'_>]) -> Vec<Diagnostic> {
    // name → (file index, token index of the name) of each declaration
    let mut decls: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if f.cat != FileCat::Main {
            continue;
        }
        for ti in pub_decls(f.toks) {
            if !f.test_mask[ti] {
                decls
                    .entry(f.toks[ti].text.as_str())
                    .or_default()
                    .push((fi, ti));
            }
        }
    }
    let mut live = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        for (ti, t) in f.toks.iter().enumerate() {
            let Some(sites) = decls.get(t.text.as_str()) else {
                continue;
            };
            if t.kind != TokKind::Ident {
                continue; // a lifetime `'x` lexes to the text `x`
            }
            for &(dfi, dti) in sites {
                if dfi != fi || (dti != ti && !f.test_mask[ti]) {
                    live.insert((dfi, dti));
                }
            }
        }
    }
    let mut out = Vec::new();
    for sites in decls.values() {
        for &(fi, ti) in sites {
            if live.contains(&(fi, ti)) {
                continue;
            }
            let f = &files[fi];
            let name = &f.toks[ti];
            out.push(Diagnostic {
                rule: "DEAD01",
                path: f.rel.to_string(),
                line: name.line,
                message: format!(
                    "`pub` item `{}` is named only by its declaration and this file's \
                     #[cfg(test)] code",
                    name.text
                ),
                suggestion: "delete it together with the tests that only exercise it".to_string(),
            });
        }
    }
    out
}

/// Token index of the name in every `pub fn`, `pub const fn`,
/// `pub const` and `pub static [mut]` declaration. Restricted
/// visibilities (`pub(crate)`) are rustc's to check.
fn pub_decls(toks: &[Tok]) -> Vec<usize> {
    let word = |k: usize| match toks.get(k) {
        Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
        _ => "",
    };
    (0..toks.len())
        .filter(|&i| word(i) == "pub")
        .filter_map(|i| match (word(i + 1), word(i + 2)) {
            ("fn", _) => Some(i + 2),
            ("const" | "static", "fn" | "mut") => Some(i + 3),
            ("const" | "static", _) => Some(i + 2),
            _ => None,
        })
        .filter(|&name| !matches!(word(name), "" | "_"))
        .collect()
}
