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
//! the name, by any item, keeps the declaration alive — except where the
//! name cannot be a fn, const or static: a field access `.name` that no
//! `(` or `::` follows, and a `name` that one `:` follows (a field, a
//! binding or a struct-literal key). So an accessor named like the field
//! it returns is not kept alive by that field. The pass can miss dead
//! items but never reports a live one.
//!
//! ```text
//! bad: pub fn mean_erase_count(&self) -> f64 { … }
//!      #[cfg(test)]
//!      mod tests {
//!          #[test]
//!          fn mean() { assert_eq!(lun().mean_erase_count(), 0.0); }
//!      }
//! ok:  pub fn max_erase_count(&self) -> u32 { … }
//!      // crates/ssd/src/wear.rs
//!      let worst = lun.max_erase_count();
//! ```
//!
//! Why it matters here: rustc's `dead_code` lint trusts `pub`, so
//! exported API outlives its last caller — the paper's point about
//! interfaces, applied to our own.
//!
//! The blind spot is a shared name. `PcmSsd::read_latency`, an accessor
//! only its own unit test called (over a histogram that recorded every
//! PCM read for nothing), went unreported because a local closure in
//! `crates/iface/tests/nameless_faults.rs` is also named `read_latency`;
//! it was found by grep and deleted by hand. Telling the two apart needs
//! name resolution, which a token pass does not have. A name shared by
//! two dead items hides both: nothing called `ResourceBank::reset`, and
//! it was the only caller of `Resource::reset`, yet each `reset` kept
//! the other alive until both were deleted by hand.
//!
//! Fields are out of reach altogether. A `pub` field that the program
//! writes and nothing reads — a histogram recorded on every host write,
//! a counter of an event another struct already counts — is named at
//! each write, and a write is an occurrence like any other. Such
//! write-only stats were swept by hand too: grep each field for a read
//! outside its own file's tests.

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
            // a lifetime `'x` lexes to the text `x`
            if t.kind != TokKind::Ident || names_a_field(f.toks, ti) {
                continue;
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

/// True when the identifier at `ti` names a field or a binding and so no
/// item: `.name` not followed by `(` or `::` (a range `..name` is not a
/// field access), or `name` followed by a single `:`.
fn names_a_field(toks: &[Tok], ti: usize) -> bool {
    let punct = |k: usize, c: &str| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
    };
    let dot = |k: Option<usize>| k.is_some_and(|k| punct(k, "."));
    let colon = punct(ti + 1, ":");
    let path = colon && punct(ti + 2, ":");
    let field_access = dot(ti.checked_sub(1)) && !dot(ti.checked_sub(2)) && !punct(ti + 1, "(");
    !path && (field_access || colon)
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
