//! IOS02 — fallibility discipline.
//!
//! Every completion carries a typed [`IoStatus`], and
//! `WalBackend::force` returns a `WalForce { done, status }`. The whole
//! point of that plumbing is that an `Unrecoverable` can never vanish
//! silently — so an expression producing one of the status-carrying
//! types must be *matched or explicitly consumed*. Both types are
//! `#[must_use]` and the workspace denies `unused_must_use`, so rustc
//! refuses a result dropped in statement position
//! (`self.wal_dev.force(now, to);`). What passes rustc is IOS02's: a
//! fallible result bound but never consumed — `let _ =`, a
//! `_`-prefixed binding, a never-mentioned-again name, a pattern that
//! discards components (`let (done, _) = …`), or a `.done` projection
//! that throws the status away (`let t = dev.force(now, to).done;`).
//!
//! Fallible means the return type carries `IoStatus` or `WalForce` —
//! decided by the all-definitions rule over the workspace symbol table,
//! so a name is only treated as fallible when *every* fn of that name
//! is.

use super::SemCtx;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::parser::{Block, Call, ExprInfo, Stmt};
use crate::symbols::fallible_ret;

/// Run IOS02 on one file's parsed tree.
pub fn check(sem: &SemCtx<'_>) -> Vec<Diagnostic> {
    let ctx = sem.file;
    if !ctx.cat.is_main() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &sem.parsed.fns {
        if sem.fn_in_test(f) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        walk(sem, body, body, &mut out);
    }
    out
}

/// The fallible return idents of `call`, by the all-definitions rule,
/// or `None` when the call is not (provably) fallible. When the call is
/// `Type::name(…)`-qualified, definitions on that type take precedence.
fn fallible_call(sem: &SemCtx<'_>, call: &Call) -> Option<Vec<String>> {
    let defs = sem.symbols.defs(call.name());
    if defs.is_empty() {
        return None;
    }
    // prefer exact-type matches for qualified calls
    if call.path.len() >= 2 {
        let qual = &call.path[call.path.len() - 2];
        let typed: Vec<_> = defs
            .iter()
            .filter(|d| d.self_ty.as_deref() == Some(qual.as_str()))
            .collect();
        if !typed.is_empty() {
            return if typed.iter().all(|d| fallible_ret(&d.ret)) {
                Some(typed[0].ret.clone())
            } else {
                None
            };
        }
    }
    if defs.iter().all(|d| fallible_ret(&d.ret)) {
        Some(defs[0].ret.clone())
    } else {
        None
    }
}

/// Human-readable return type for messages: `WalForce` or `IoStatus`.
fn ret_desc(ret: &[String]) -> &'static str {
    if ret.iter().any(|r| r == "WalForce") {
        "WalForce"
    } else {
        "IoStatus"
    }
}

/// The call the whole expression evaluates to, if the expression *ends*
/// with that call's `)` — i.e. the call's result is the statement's
/// value.
fn trailing_call<'a>(toks: &[Tok], e: &'a ExprInfo) -> Option<&'a Call> {
    if e.hi == 0 {
        return None;
    }
    let last = e.hi - 1;
    if !toks.get(last).map(|t| t.is_punct(')')).unwrap_or(false) {
        return None;
    }
    e.calls.iter().find(|c| c.rparen == last)
}

/// Trailing `call(…).done` projection: returns the call when the
/// expression ends with a `.done` field read off it.
fn trailing_done_projection<'a>(toks: &[Tok], e: &'a ExprInfo) -> Option<&'a Call> {
    if e.hi < 3 {
        return None;
    }
    let last = e.hi - 1;
    if !toks.get(last).map(|t| t.is_ident("done")).unwrap_or(false)
        || !toks.get(last - 1).map(|t| t.is_punct('.')).unwrap_or(false)
        || !toks.get(last - 2).map(|t| t.is_punct(')')).unwrap_or(false)
    {
        return None;
    }
    e.calls.iter().find(|c| c.rparen == last - 2)
}

/// True when ident `name` occurs in `toks[lo..hi]`.
fn mentions(toks: &[Tok], lo: usize, hi: usize, name: &str) -> bool {
    toks[lo..hi.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == name)
}

/// True when `name.status` occurs in `toks[lo..hi]`, or `name` is used
/// *whole* (not as a `name.field` projection) — either way the status
/// component reaches the consumer.
fn status_reaches_consumer(toks: &[Tok], lo: usize, hi: usize, name: &str) -> bool {
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text == name {
            match toks.get(i + 1) {
                Some(n) if n.is_punct('.') => {
                    if toks
                        .get(i + 2)
                        .map(|x| x.is_ident("status"))
                        .unwrap_or(false)
                    {
                        return true; // name.status
                    }
                }
                _ => return true, // used whole: moved, matched, returned
            }
        }
        i += 1;
    }
    false
}

fn walk(sem: &SemCtx<'_>, body: &Block, block: &Block, out: &mut Vec<Diagnostic>) {
    let toks = sem.file.toks;
    for s in &block.stmts {
        match s {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    // `….force(now, to).done` — status projected away
                    if let Some(call) = trailing_done_projection(toks, init) {
                        if let Some(ret) = fallible_call(sem, call) {
                            out.push(diag(
                                "IOS02",
                                sem,
                                call.line,
                                format!(
                                    "`.done` projection on fallible call `{}` discards its {} status",
                                    call.path_str(),
                                    ret_desc(&ret)
                                ),
                                "bind the whole value and consume `.status` too",
                            ));
                        }
                    } else if let Some(call) = trailing_call(toks, init) {
                        if let Some(ret) = fallible_call(sem, call) {
                            let desc = ret_desc(&ret);
                            if l.wild || l.discards || l.names.iter().any(|n| n.starts_with('_')) {
                                out.push(diag(
                                    "IOS02",
                                    sem,
                                    l.line,
                                    format!(
                                        "fallible result of `{}` ({desc}) is bound to a discard pattern",
                                        call.path_str()
                                    ),
                                    "bind every component and consume the status",
                                ));
                            } else if desc == "WalForce" && l.names.len() == 1 {
                                // field-precise: WalForce is {done, status};
                                // require the status side to reach a consumer
                                if !status_reaches_consumer(toks, init.hi, body.close, &l.names[0])
                                {
                                    out.push(diag(
                                        "IOS02",
                                        sem,
                                        l.line,
                                        format!(
                                            "`{}` binds a WalForce but its `.status` is never consumed",
                                            l.names[0]
                                        ),
                                        "consume `.status` (match it, count it, or route it to note_status) before using `.done`",
                                    ));
                                }
                            } else if !l
                                .names
                                .iter()
                                .any(|n| mentions(toks, init.hi, body.close, n))
                            {
                                out.push(diag(
                                    "IOS02",
                                    sem,
                                    l.line,
                                    format!(
                                        "fallible result of `{}` ({desc}) is bound but never consumed",
                                        call.path_str()
                                    ),
                                    "match the status or route it to a consumer",
                                ));
                            }
                        }
                    }
                    if let Some(els) = &l.els {
                        walk(sem, body, els, out);
                    }
                }
            }
            Stmt::If(i) => {
                walk(sem, body, &i.then, out);
                if let Some(e) = &i.els {
                    walk_stmt(sem, body, e, out);
                }
            }
            Stmt::Match(m) => {
                for arm in &m.arms {
                    if let crate::parser::ArmBody::Block(b) = &arm.body {
                        walk(sem, body, b, out);
                    }
                }
            }
            Stmt::Loop(l) => walk(sem, body, &l.body, out),
            Stmt::Block(b) => walk(sem, body, b, out),
            _ => {}
        }
    }
}

fn walk_stmt(sem: &SemCtx<'_>, body: &Block, s: &Stmt, out: &mut Vec<Diagnostic>) {
    match s {
        Stmt::Block(b) => walk(sem, body, b, out),
        Stmt::If(i) => {
            walk(sem, body, &i.then, out);
            if let Some(e) = &i.els {
                walk_stmt(sem, body, e, out);
            }
        }
        _ => {}
    }
}

fn diag(
    rule: &'static str,
    sem: &SemCtx<'_>,
    line: u32,
    message: String,
    help: &str,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: sem.file.rel.to_string(),
        line,
        message,
        suggestion: help.to_string(),
    }
}
