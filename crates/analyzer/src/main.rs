//! `requiem-lint` — CLI driver for the [`analyzer`] crate.
//!
//! ```text
//! requiem-lint [--workspace] [--root PATH] [--allow PATH] [--json] [-D] [--deny-stale]
//! requiem-lint --explain RULE
//! ```
//!
//! * `--workspace` — lint every member crate (the default and only mode;
//!   the flag is accepted for symmetry with cargo's own subcommands).
//! * `--explain RULE` — print one rule's full entry (summary, rationale,
//!   bad/ok examples) from the same table that drives the checks, then
//!   exit. `--explain all` lists every rule.
//! * `--root PATH` — workspace root; default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`.
//! * `--allow PATH` — allowlist file; default `<root>/lint.allow.toml`.
//! * `--json` — one JSON object per diagnostic on stdout.
//! * `-D` — deny allowlisted diagnostics too (audit mode).
//! * `--deny-stale` — treat stale (unused) allowlist entries as errors
//!   instead of warnings, so a fixed exception cannot linger. CI runs
//!   with this flag.
//!
//! Exit status: 0 when no denied diagnostics, 1 when any diagnostic is
//! denied, 2 on usage or I/O error. Deny-by-default: every diagnostic
//! not covered by the allowlist fails the run.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::rules;
use analyzer::workspace;

struct Args {
    root: Option<PathBuf>,
    allow: Option<PathBuf>,
    json: bool,
    deny_allowed: bool,
    deny_stale: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        allow: None,
        json: false,
        deny_allowed: false,
        deny_stale: false,
        explain: None,
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {} // the only mode; accepted for symmetry
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--allow" => {
                let v = it.next().ok_or("--allow requires a path")?;
                args.allow = Some(PathBuf::from(v));
            }
            "--json" => args.json = true,
            "--explain" => {
                let v = it.next().ok_or("--explain requires a rule id (or `all`)")?;
                args.explain = Some(v);
            }
            "-D" => args.deny_allowed = true,
            "--deny-stale" => args.deny_stale = true,
            "--help" | "-h" => {
                return Err("usage: requiem-lint [--workspace] [--root PATH] \
                            [--allow PATH] [--json] [-D] [--deny-stale] \
                            | --explain RULE"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Print one rule's table entry (or all of them).
fn explain(id: &str) -> ExitCode {
    if id.eq_ignore_ascii_case("all") {
        for r in rules::RULES {
            println!("{:6} [{}] {}", r.id, r.family, r.summary);
        }
        println!("\nrun `requiem-lint --explain RULE` for one rule's rationale and examples");
        return ExitCode::SUCCESS;
    }
    let Some(r) = rules::rule(id) else {
        eprintln!(
            "requiem-lint: unknown rule `{id}` — known: {}",
            rules::RULES
                .iter()
                .map(|r| r.id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{} — {}", r.id, r.summary);
    println!("family: {}\n", r.family);
    println!("{}\n", r.rationale);
    println!("bad:\n{}\n", r.bad);
    println!("ok:\n{}", r.ok);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("requiem-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &args.explain {
        return explain(id);
    }
    let root = match args.root.or_else(|| {
        env::current_dir()
            .ok()
            .and_then(|d| workspace::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("requiem-lint: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };
    let allow_path = args.allow.unwrap_or_else(|| root.join("lint.allow.toml"));
    let allowlist = match analyzer::load_allowlist(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("requiem-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match analyzer::run(&root, allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("requiem-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut denied = 0usize;
    let mut allowed = 0usize;
    for (d, was_allowed) in &report.diagnostics {
        let deny = !*was_allowed || args.deny_allowed;
        if *was_allowed {
            allowed += 1;
        }
        if deny {
            denied += 1;
        }
        if args.json {
            println!("{}", d.to_json(*was_allowed));
        } else if deny {
            println!("{d}");
        }
    }
    let mut stale_denied = 0usize;
    for entry in &report.unused_allows {
        let severity = if args.deny_stale {
            stale_denied += 1;
            "error"
        } else {
            "warning"
        };
        eprintln!(
            "{severity}: unused allowlist entry {} {} (lint.allow.toml:{})",
            entry.rule, entry.path, entry.line
        );
    }
    if stale_denied > 0 {
        eprintln!(
            "requiem-lint: {stale_denied} stale allowlist entr{} denied by --deny-stale \
             — remove {} from lint.allow.toml",
            if stale_denied == 1 { "y" } else { "ies" },
            if stale_denied == 1 { "it" } else { "them" },
        );
        denied += stale_denied;
    }
    if !args.json {
        println!(
            "requiem-lint: {} diagnostics ({} allowlisted{})",
            report.diagnostics.len(),
            allowed,
            if args.deny_allowed && allowed > 0 {
                ", denied by -D"
            } else {
                ""
            }
        );
    }
    if denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
