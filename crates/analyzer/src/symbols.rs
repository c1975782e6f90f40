//! Workspace-wide symbol table.
//!
//! Pass 1 of the semantic analysis parses every `Main` file in the
//! workspace ([`crate::parser`]) and registers each function signature
//! here, keyed by name. Pass 2 rules (IOS02 fallibility, CLK01 clock
//! discipline) resolve call sites against the table.
//!
//! Resolution is *name-based* — the analyzer has no type inference — so
//! every consumer applies the **all-definitions rule**: a call site is
//! attributed a property (fallible, time-returning) only when every
//! workspace function of that name agrees on it. This trades false
//! negatives for near-zero false positives, which a deny-by-default
//! linter needs.

use std::collections::BTreeMap;

use crate::parser::ParsedFile;

/// One function signature, as registered from a `Main` file.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Enclosing impl/trait type, if any.
    pub self_ty: Option<String>,
    /// Identifiers in the return type (empty = unit).
    pub ret: Vec<String>,
}

/// Fn-name index over the whole workspace.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Function name → every definition site.
    pub fns: BTreeMap<String, Vec<FnSig>>,
}

impl SymbolTable {
    /// Build the table from parsed `Main` files. Test-only fns are
    /// included — rules filter call *sites* by test context, and a test
    /// helper's signature is still a valid resolution target.
    pub fn build<'a, I>(files: I) -> Self
    where
        I: IntoIterator<Item = &'a ParsedFile>,
    {
        let mut t = SymbolTable::default();
        for parsed in files {
            for f in &parsed.fns {
                t.fns.entry(f.name.clone()).or_default().push(FnSig {
                    self_ty: f.self_ty.clone(),
                    ret: f.ret.clone(),
                });
            }
        }
        t
    }

    /// All definitions of `name`.
    pub fn defs(&self, name: &str) -> &[FnSig] {
        self.fns.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// True when *every* definition of `name` returns a new time head
    /// (see [`time_returning_ret`]). Unknown names are not
    /// time-returning.
    pub fn all_defs_time_returning(&self, name: &str) -> bool {
        let defs = self.defs(name);
        !defs.is_empty() && defs.iter().all(|d| time_returning_ret(&d.ret))
    }
}

/// A return type whose value carries an `IoStatus`-class outcome the
/// caller must consume: `IoStatus` itself or `WalForce` (status +
/// done). Tuples count through their components (`(SimTime,
/// IoStatus)`).
pub fn fallible_ret(ret: &[String]) -> bool {
    ret.iter().any(|r| r == "IoStatus" || r == "WalForce")
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
        let both = SymbolTable::build([&a, &b]);
        assert!(!both.all_defs_time_returning("force"));
        let one = SymbolTable::build([&a]);
        assert!(one.all_defs_time_returning("force"));
    }

    #[test]
    fn fallible_and_time_classifiers() {
        assert!(fallible_ret(&["IoStatus".into()]));
        assert!(fallible_ret(&["SimTime".into(), "IoStatus".into()]));
        assert!(!fallible_ret(&["Vec".into(), "IoCompletion".into()]));
        assert!(time_returning_ret(&["Option".into(), "SimTime".into()]));
        assert!(!time_returning_ret(&["WalStats".into()]));
    }
}
