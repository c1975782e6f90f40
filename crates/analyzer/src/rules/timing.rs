//! TIM01/TIM02 — time hygiene.
//!
//! All latencies in the stack are integer nanoseconds behind the
//! newtypes `SimTime`/`SimDuration` (crate `sim`); that is what makes
//! experiments reproducible to the nanosecond across platforms. Raw
//! nanosecond arithmetic outside `sim` reintroduces two failure modes:
//! unit confusion (adding a count to a duration) and ad-hoc float
//! rounding that differs between call sites.
//!
//! * TIM01 flags arithmetic applied directly to an `.as_nanos()` result
//!   (`a.as_nanos() + b.as_nanos()`, `.as_nanos() * n`). The typed
//!   operators (`+`, `-`, `* u64`, `/ u64`, `SimDuration / SimDuration
//!   → f64`, `mul_f64`) cover these cases without leaving the newtype.
//! * TIM02 flags declarations of `*_ns`/`*_nanos`-suffixed bindings —
//!   raw integer/float nanosecond carriers. Accumulate `SimDuration`s
//!   instead.
//!
//! ```text
//! TIM01 bad: let gap = done.as_nanos() - start.as_nanos();
//! TIM01 ok:  let gap = done.since(start);
//! TIM02 bad: let mean_gap_ns = 1e9 / iops;
//! TIM02 ok:  let mean_gap = SimDuration::from_nanos(1_000_000_000 / iops);
//! ```
//!
//! Scope: sim-path crates except `sim` itself (which implements the
//! types) and `bench` (report formatting legitimately unpacks counts at
//! the JSON/table boundary). Test regions are exempt (asserts compare
//! magnitudes).

use super::FileCtx;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;

const SCOPE: &[&str] = &["flash", "pcm", "ssd", "block", "iface", "db", "workload"];

const ARITH: &[char] = &['+', '-', '*', '/', '%'];

/// Run TIM01/TIM02 on one file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !SCOPE.contains(&ctx.short()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // TIM01: `as_nanos ( )` [as ident] followed by an arithmetic op
        if t.text == "as_nanos"
            && toks.get(i + 1).map(|x| x.is_punct('(')).unwrap_or(false)
            && toks.get(i + 2).map(|x| x.is_punct(')')).unwrap_or(false)
        {
            let mut j = i + 3;
            // optional `as u128` / `as f64` cast
            if toks.get(j).map(|x| x.is_ident("as")).unwrap_or(false) {
                j += 2;
            }
            if let Some(op) = toks.get(j) {
                if op.kind == TokKind::Punct
                    && op.text.len() == 1
                    && ARITH.contains(&op.text.chars().next().unwrap())
                    // `/` could begin `//`? comments are already stripped;
                    // but `*` deref and `-` unary cannot follow `)` — safe.
                    && !(op.is_punct('-')
                        && toks.get(j + 1).map(|x| x.is_punct('>')).unwrap_or(false))
                {
                    out.push(Diagnostic {
                        rule: "TIM01",
                        path: ctx.rel.to_string(),
                        line: t.line,
                        message: "arithmetic on a raw `.as_nanos()` value outside `sim`"
                            .to_string(),
                        suggestion: "use SimDuration/SimTime operators (+, -, *u64, /u64, \
                                     mul_f64, duration/duration) and convert at the edges only"
                            .to_string(),
                    });
                }
            }
        }
        // TIM02: declaration of a raw `_ns`/`_nanos` binding
        if (t.text.ends_with("_ns") || t.text.ends_with("_nanos"))
            && t.text != "as_nanos"
            && t.text != "from_nanos"
        {
            let decl_field = toks.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
                && !toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
                && !(i > 0 && toks[i - 1].is_punct(':'));
            let decl_let = i > 0
                && (toks[i - 1].is_ident("let") || toks[i - 1].is_ident("mut"))
                && toks
                    .get(i + 1)
                    .map(|n| n.is_punct('=') || n.is_punct(':'))
                    .unwrap_or(false);
            if decl_field || decl_let {
                out.push(Diagnostic {
                    rule: "TIM02",
                    path: ctx.rel.to_string(),
                    line: t.line,
                    message: format!("raw nanosecond binding `{}` declared outside `sim`", t.text),
                    suggestion: "carry a SimDuration/SimTime instead of a raw ns count".to_string(),
                });
            }
        }
    }
    out
}
