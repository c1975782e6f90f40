//! PRB02/PRB03 — probe-span discipline.
//!
//! The observability bus has a hard invariant: spans attributed to a
//! command must tile its `[submit, done)` interval, and a command opened
//! on the bus must eventually be closed (or detached for out-of-order
//! completion and resumed later). Opening command scopes in a file that
//! never closes/detaches any (PRB02) defeats the RAII protection: the
//! drop-abort turns those commands into discarded records, which is a
//! bug, not a feature. Pairing is checked at file granularity: a file
//! with `open_command`/`resume` calls must also contain `close` or
//! `detach` calls. (The raw background toggles that once had a rule of
//! their own are private to `sim`: `Probe::background()`'s guard is the
//! only way in.)
//!
//! PRB03 is the control-flow-aware deepening of PRB02: a
//! `CommandScope` binding opened on a path must be closed, detached, or
//! explicitly aborted on *every* exit of that path — each `return`,
//! each `?`, and the fall-through end of the fn. The drop-abort in
//! `CommandScope` exists as a backstop, but relying on it turns a
//! command into a silently discarded record; error paths must say
//! `scope.abort()` out loud. A span escaping by value (moved into a
//! call, a struct, or the return value) transfers the obligation and
//! resolves the binding.

use super::{FileCtx, SemCtx};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::{ArmBody, Block, Call, ExprInfo, Stmt};

/// Run PRB02 on one file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    // The bus itself (crates/sim) defines the scope API it would check.
    if ctx.rel.starts_with("crates/sim/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = ctx.toks;

    let mut opens: Vec<(u32, &str)> = Vec::new();
    let mut closes = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        let method = i > 0 && toks[i - 1].is_punct('.');
        if !called {
            continue;
        }
        match t.text.as_str() {
            "open_command" | "resume" if method => opens.push((t.line, "open")),
            "close" | "detach" if method => closes += 1,
            _ => {}
        }
    }
    if let Some((line, _)) = opens.first() {
        if closes == 0 {
            out.push(Diagnostic {
                rule: "PRB02",
                path: ctx.rel.to_string(),
                line: *line,
                message: format!(
                    "{} probe command scope(s) opened but this file never calls `close` or `detach`",
                    opens.len()
                ),
                suggestion:
                    "close the scope with its completion time, or detach it for later resume"
                        .to_string(),
            });
        }
    }
    out
}

/// A live span binding.
#[derive(Clone, Debug)]
struct LiveSpan {
    name: String,
    opened_line: u32,
}

/// Run PRB03 on one file's parsed tree.
pub fn check_paths(sem: &SemCtx<'_>) -> Vec<Diagnostic> {
    let ctx = sem.file;
    if !ctx.cat.is_main() || ctx.rel.starts_with("crates/sim/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &sem.parsed.fns {
        if sem.fn_in_test(f) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut live: Vec<LiveSpan> = Vec::new();
        walk(sem, body, &mut live, &mut out);
        for s in &live {
            out.push(span_diag(
                sem,
                sem.line_of(body.close),
                &s.name,
                s.opened_line,
                "the end of the fn",
            ));
        }
    }
    out
}

fn span_diag(sem: &SemCtx<'_>, line: u32, name: &str, opened_line: u32, at: &str) -> Diagnostic {
    Diagnostic {
        rule: "PRB03",
        path: sem.file.rel.to_string(),
        line,
        message: format!(
            "span `{name}` (opened line {opened_line}) is still live at {at}; the drop-abort discards its command record"
        ),
        suggestion: format!("close, detach, or `{name}.abort()` on this path before exiting"),
    }
}

/// True when the call opens a command scope.
fn is_open(c: &Call) -> bool {
    matches!(c.name(), "open_command" | "resume")
}

/// True when the call resolves a scope (consumes it).
fn is_resolve(c: &Call) -> bool {
    matches!(c.name(), "close" | "detach" | "abort")
}

/// Scan one expression:
/// 1. resolve/escape live spans mentioned in it,
/// 2. flag `?` exits while spans are live,
/// 3. flag anonymous opens that are dropped on the spot.
///
/// Returns the open call whose scope the *whole expression* evaluates to
/// (for `let` bindings), if any.
fn scan_expr<'a>(
    sem: &SemCtx<'_>,
    e: &'a ExprInfo,
    live: &mut Vec<LiveSpan>,
    out: &mut Vec<Diagnostic>,
) -> Option<&'a Call> {
    let toks = sem.file.toks;
    // 1. resolutions and escapes
    let mut i = e.lo;
    while i < e.hi.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            if let Some(pos) = live.iter().position(|s| s.name == t.text) {
                let preceded_by_dot = i > e.lo && toks[i - 1].is_punct('.');
                if !preceded_by_dot {
                    match toks.get(i + 1) {
                        Some(n) if n.is_punct('.') => {
                            // `scope.close(…)` / `scope.abort()` resolve;
                            // `scope.id()` and field reads do not
                            if toks
                                .get(i + 2)
                                .map(|m| {
                                    m.kind == TokKind::Ident
                                        && matches!(m.text.as_str(), "close" | "detach" | "abort")
                                })
                                .unwrap_or(false)
                            {
                                live.remove(pos);
                            }
                        }
                        _ => {
                            // used whole: moved into a call/struct/return
                            live.remove(pos);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    // 2. `?` exits (skip `?Sized` bounds — they never appear in bodies,
    // but be safe)
    if !live.is_empty() {
        let mut j = e.lo;
        while j < e.hi.min(toks.len()) {
            if toks[j].is_punct('?')
                && !toks
                    .get(j + 1)
                    .map(|n| n.is_ident("Sized"))
                    .unwrap_or(false)
            {
                for s in live.iter() {
                    out.push(span_diag(
                        sem,
                        toks[j].line,
                        &s.name,
                        s.opened_line,
                        "this `?` early exit",
                    ));
                }
                live.clear(); // one report per span per expr
                break;
            }
            j += 1;
        }
    }
    // 3. opens: the one the expression *ends on* may be bound by a let;
    // any other open must be resolved inline (`….open_command(…).detach()`)
    let mut result_open = None;
    for c in &e.calls {
        if !is_open(c) {
            continue;
        }
        // inline resolution: a resolve call later in this expr chained
        // directly onto the open's `)`
        let chained = e.calls.iter().any(|r| {
            is_resolve(r) && r.tok > c.rparen && r.tok <= c.rparen + 2 // `) . close`
        });
        if chained {
            continue;
        }
        // escape: the open is an argument of another call — the callee
        // takes ownership of the scope
        let escapes = e
            .calls
            .iter()
            .any(|o| o.args.iter().any(|(lo, hi)| (*lo..*hi).contains(&c.tok)));
        if escapes {
            continue;
        }
        let is_trailing = e.hi > 0 && c.rparen == e.hi - 1;
        if is_trailing {
            result_open = Some(c);
        } else {
            out.push(Diagnostic {
                rule: "PRB03",
                path: sem.file.rel.to_string(),
                line: c.line,
                message: format!(
                    "`{}` opens a span whose scope is dropped inside this expression",
                    c.path_str()
                ),
                suggestion: "bind the scope, or chain `.close(…)`/`.detach()` directly".to_string(),
            });
        }
    }
    result_open
}

fn exits_with_live(
    sem: &SemCtx<'_>,
    line: u32,
    live: &[LiveSpan],
    at: &str,
    out: &mut Vec<Diagnostic>,
) {
    for s in live {
        out.push(span_diag(sem, line, &s.name, s.opened_line, at));
    }
}

/// Optimistic merge of branch live-sets: a span survives only if it is
/// live in *every* branch (resolved-anywhere counts as resolved).
/// Diverging branches (ending in `return`) never reach the merge point
/// and must not be passed here — a branch that closes the span and
/// returns says nothing about the fall-through path.
fn merge_live(into: &mut Vec<LiveSpan>, branches: Vec<Vec<LiveSpan>>) {
    into.retain(|s| branches.iter().all(|b| b.iter().any(|x| x.name == s.name)));
}

/// Walk a block, tracking live spans. Returns `true` when the block
/// *diverges* — every path through it exits the fn before reaching its
/// end — so callers can exclude it from branch merges.
fn walk(
    sem: &SemCtx<'_>,
    block: &Block,
    live: &mut Vec<LiveSpan>,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut diverged = false;
    for s in &block.stmts {
        match s {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    let open = scan_expr(sem, init, live, out);
                    if let Some(c) = open {
                        if l.wild || l.names.len() != 1 {
                            out.push(Diagnostic {
                                rule: "PRB03",
                                path: sem.file.rel.to_string(),
                                line: c.line,
                                message: format!(
                                    "`{}` opens a span bound to a discard pattern; it aborts immediately",
                                    c.path_str()
                                ),
                                suggestion: "bind the scope to a name and close/detach/abort it"
                                    .to_string(),
                            });
                        } else {
                            live.push(LiveSpan {
                                name: l.names[0].clone(),
                                opened_line: c.line,
                            });
                        }
                    }
                }
                if let Some(els) = &l.els {
                    let mut b = live.clone();
                    walk(sem, els, &mut b, out); // diverging block
                }
            }
            Stmt::Expr(e) => {
                let open = scan_expr(sem, &e.expr, live, out);
                // a tail expression's scope escapes as the block value;
                // a `…;` statement's scope is aborted on the spot
                if let (Some(c), true) = (open, e.semi) {
                    out.push(Diagnostic {
                        rule: "PRB03",
                        path: sem.file.rel.to_string(),
                        line: c.line,
                        message: format!(
                            "`{}` opens a span that is dropped at the end of the statement",
                            c.path_str()
                        ),
                        suggestion: "bind the scope, or chain `.close(…)`/`.detach()` directly"
                            .to_string(),
                    });
                }
            }
            Stmt::Return(r) => {
                if let Some(e) = &r.expr {
                    scan_expr(sem, e, live, out);
                }
                exits_with_live(sem, r.line, live, "this `return`", out);
                live.clear(); // reported once; the path ends here
                diverged = true;
            }
            Stmt::If(i) => {
                scan_expr(sem, &i.cond, live, out);
                let mut then_live = live.clone();
                let then_div = walk(sem, &i.then, &mut then_live, out);
                let mut branches = Vec::new();
                if !then_div {
                    branches.push(then_live);
                }
                let mut else_div = false;
                if let Some(e) = &i.els {
                    let mut else_live = live.clone();
                    else_div = walk_stmt(sem, e, &mut else_live, out);
                    if !else_div {
                        branches.push(else_live);
                    }
                } else {
                    branches.push(live.clone()); // fall-through arm
                }
                if then_div && else_div {
                    diverged = true; // both arms exit the fn
                }
                if !branches.is_empty() {
                    merge_live(live, branches);
                }
            }
            Stmt::Match(m) => {
                scan_expr(sem, &m.scrutinee, live, out);
                let mut branches = Vec::new();
                for arm in &m.arms {
                    let mut alive = live.clone();
                    let div = match &arm.body {
                        ArmBody::Block(b) => walk(sem, b, &mut alive, out),
                        ArmBody::Expr(e) => {
                            scan_expr(sem, e, &mut alive, out);
                            false
                        }
                    };
                    if !div {
                        branches.push(alive);
                    }
                }
                if !m.arms.is_empty() && branches.is_empty() {
                    diverged = true; // every arm exits the fn
                }
                if !branches.is_empty() {
                    merge_live(live, branches);
                }
            }
            Stmt::Loop(l) => {
                if let Some(h) = &l.header {
                    scan_expr(sem, h, live, out);
                }
                let mut b = live.clone();
                walk(sem, &l.body, &mut b, out);
                merge_live(live, vec![b]);
            }
            Stmt::Block(b) => {
                if walk(sem, b, live, out) {
                    diverged = true;
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Item => {}
        }
    }
    diverged
}

/// `else`-position statement: a block or a chained `else if`. Returns
/// `true` when it diverges, like [`walk`].
fn walk_stmt(
    sem: &SemCtx<'_>,
    s: &Stmt,
    live: &mut Vec<LiveSpan>,
    out: &mut Vec<Diagnostic>,
) -> bool {
    match s {
        Stmt::Block(b) => walk(sem, b, live, out),
        Stmt::If(i) => {
            scan_expr(sem, &i.cond, live, out);
            let mut then_live = live.clone();
            let then_div = walk(sem, &i.then, &mut then_live, out);
            let mut branches = Vec::new();
            if !then_div {
                branches.push(then_live);
            }
            let mut else_div = false;
            if let Some(e) = &i.els {
                let mut else_live = live.clone();
                else_div = walk_stmt(sem, e, &mut else_live, out);
                if !else_div {
                    branches.push(else_live);
                }
            } else {
                branches.push(live.clone());
            }
            if !branches.is_empty() {
                merge_live(live, branches);
            }
            then_div && else_div
        }
        _ => false,
    }
}
