//! Workspace-wide symbol table.
//!
//! Pass 1 of the semantic analysis parses every `Main` file in the
//! workspace ([`crate::parser`]) and registers each function signature
//! and type definition here, keyed by name. Pass 2 rules (LAY03 call
//! graph, IOS fallibility, CLK01 clock discipline) resolve call sites
//! against the table.
//!
//! Resolution is *name-based* — the analyzer has no type inference — so
//! every consumer applies the **all-definitions rule**: a call site is
//! attributed a property (fallible, time-returning, owned by crate X)
//! only when every workspace function of that name agrees on it. Names
//! that collide with common std methods are additionally stoplisted for
//! call-graph edges. This trades false negatives for near-zero false
//! positives, which a deny-by-default linter needs.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::ParsedFile;

/// One function signature, as registered from a `Main` file.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Short crate name (`ssd`, `db`, …).
    pub krate: String,
    /// Enclosing impl/trait type, if any.
    pub self_ty: Option<String>,
    /// True when declared with a `self` receiver.
    pub has_self: bool,
    /// Identifiers in the return type (empty = unit).
    pub ret: Vec<String>,
    /// Workspace-relative defining file.
    pub rel: String,
    /// Source line of the `fn`.
    pub line: u32,
}

/// Fn-name and type-name index over the whole workspace.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Function name → every definition site.
    pub fns: BTreeMap<String, Vec<FnSig>>,
    /// Type name → crates that define it.
    pub types: BTreeMap<String, BTreeSet<String>>,
}

impl SymbolTable {
    /// Build the table from parsed `Main` files: `(short crate name,
    /// rel path, parsed)` triples. Test-only fns are included — rules
    /// filter call *sites* by test context, and a test helper's
    /// signature is still a valid resolution target.
    pub fn build<'a, I>(files: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str, &'a ParsedFile)>,
    {
        let mut t = SymbolTable::default();
        for (krate, rel, parsed) in files {
            for ty in &parsed.types {
                t.types
                    .entry(ty.name.clone())
                    .or_default()
                    .insert(krate.to_string());
            }
            for f in &parsed.fns {
                t.fns.entry(f.name.clone()).or_default().push(FnSig {
                    krate: krate.to_string(),
                    self_ty: f.self_ty.clone(),
                    has_self: f.has_self,
                    ret: f.ret.clone(),
                    rel: rel.to_string(),
                    line: f.line,
                });
            }
        }
        t
    }

    /// All definitions of `name`.
    pub fn defs(&self, name: &str) -> &[FnSig] {
        self.fns.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The single crate defining every fn named `name`, if the
    /// definitions are unanimous (the all-definitions rule).
    pub fn sole_crate(&self, name: &str) -> Option<&str> {
        let defs = self.defs(name);
        let first = defs.first()?;
        if defs.iter().all(|d| d.krate == first.krate) {
            Some(&first.krate)
        } else {
            None
        }
    }

    /// True when *every* definition of `name` returns a new time head
    /// (see [`time_returning_ret`]). Unknown names are not
    /// time-returning.
    pub fn all_defs_time_returning(&self, name: &str) -> bool {
        let defs = self.defs(name);
        !defs.is_empty() && defs.iter().all(|d| time_returning_ret(&d.ret))
    }
}

/// A return type whose value carries an [`IoStatus`]-class outcome the
/// caller must consume: `IoStatus` itself, `WalForce` (status + done),
/// or `Vec<IoCompletion>` (each completion carries a status). Tuples
/// count through their components (`(SimTime, IoStatus)`).
pub fn fallible_ret(ret: &[String]) -> bool {
    let has = |n: &str| ret.iter().any(|r| r == n);
    has("IoStatus") || has("WalForce") || (has("Vec") && has("IoCompletion"))
}

/// A return type that establishes a *new time head* the caller is
/// expected to fold into its clock (`exec.rs`'s "pull now forward"
/// convention): a bare `SimTime`, a `WalForce` (`.done`), or
/// completion records (`IoCompletion`, `ReadDone` — each carries
/// `done: SimTime`). `Option<SimTime>` etc. count; types that merely
/// *contain* times under other names do not.
pub fn time_returning_ret(ret: &[String]) -> bool {
    let has = |n: &str| ret.iter().any(|r| r == n);
    has("SimTime") || has("WalForce") || has("IoCompletion") || has("ReadDone")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    #[test]
    fn all_defs_rules_require_unanimity() {
        let a = parse(&lex(
            "impl A { pub fn force(&mut self, now: SimTime, to: Lsn) -> WalForce { w } }",
        ));
        let b = parse(&lex("impl B { pub fn force(&self) -> u32 { 1 } }"));
        let both = SymbolTable::build(vec![
            ("db", "crates/db/src/a.rs", &a),
            ("db", "crates/db/src/b.rs", &b),
        ]);
        assert!(!both.all_defs_time_returning("force"));
        let one = SymbolTable::build(vec![("db", "crates/db/src/a.rs", &a)]);
        assert!(one.all_defs_time_returning("force"));
    }

    #[test]
    fn sole_crate_needs_a_single_owner() {
        let a = parse(&lex("pub fn tick(now: SimTime) -> SimTime { now }"));
        let b = parse(&lex("pub fn tick(now: SimTime) -> SimTime { now }"));
        let t = SymbolTable::build(vec![
            ("flash", "crates/flash/src/lib.rs", &a),
            ("pcm", "crates/pcm/src/lib.rs", &b),
        ]);
        assert_eq!(t.sole_crate("tick"), None);
        let t = SymbolTable::build(vec![("flash", "crates/flash/src/lib.rs", &a)]);
        assert_eq!(t.sole_crate("tick"), Some("flash"));
    }

    #[test]
    fn fallible_and_time_classifiers() {
        assert!(fallible_ret(&["IoStatus".into()]));
        assert!(fallible_ret(&["Vec".into(), "IoCompletion".into()]));
        assert!(fallible_ret(&["SimTime".into(), "IoStatus".into()]));
        assert!(!fallible_ret(&["Vec".into(), "CommandTag".into()]));
        assert!(time_returning_ret(&["Option".into(), "SimTime".into()]));
        assert!(!time_returning_ret(&["WalStats".into()]));
    }
}
