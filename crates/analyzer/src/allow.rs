//! The checked-in allowlist (`lint.allow.toml`).
//!
//! Adoption is incremental: a diagnostic matched by an allowlist entry is
//! reported as *allowed* and does not fail the run. Every entry must carry
//! a `reason` — an allowlist line without a justification is itself an
//! error. Entries match on `(rule, path)`; a path ending in `/` allows a
//! whole directory.
//!
//! The format is a deliberately tiny TOML subset (array-of-tables with
//! string values) because the workspace vendors no TOML parser:
//!
//! ```toml
//! [[allow]]
//! rule = "TIM01"
//! path = "crates/ssd/src/buffer.rs"
//! reason = "the nanosecond sum is a reported statistic, not a sim time"
//! ```

use crate::diag::Diagnostic;

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id this entry silences (e.g. `DET02`).
    pub rule: String,
    /// Exact file path, or directory prefix when ending in `/`.
    pub path: String,
    /// Mandatory human justification.
    pub reason: String,
    /// Line in `lint.allow.toml` (for unused-entry reporting).
    pub line: u32,
}

impl AllowEntry {
    /// Does this entry cover `d`?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule
            && (self.path == d.path || (self.path.ends_with('/') && d.path.starts_with(&self.path)))
    }
}

/// Parsed allowlist plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct AllowList {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl AllowList {
    /// An empty allowlist (used when the file does not exist).
    pub fn empty() -> Self {
        AllowList::default()
    }

    /// Parse the allowlist text. Returns `Err` with a message naming the
    /// offending line on malformed input or entries missing a reason.
    pub fn parse(text: &str) -> Result<AllowList, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut cur: Option<AllowEntry> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = cur.take() {
                    finish(e, &mut entries)?;
                }
                cur = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint.allow.toml:{lineno}: expected `key = \"value\"`"
                ));
            };
            let key = key.trim();
            let value = value.trim();
            if !(value.starts_with('"') && value.ends_with('"') && value.len() >= 2) {
                return Err(format!(
                    "lint.allow.toml:{lineno}: value for `{key}` must be a double-quoted string"
                ));
            }
            let value = value[1..value.len() - 1].to_string();
            let Some(e) = cur.as_mut() else {
                return Err(format!(
                    "lint.allow.toml:{lineno}: `{key}` outside an [[allow]] table"
                ));
            };
            match key {
                "rule" => e.rule = value,
                "path" => e.path = value,
                "reason" => e.reason = value,
                other => {
                    return Err(format!(
                    "lint.allow.toml:{lineno}: unknown key `{other}` (expected rule/path/reason)"
                ))
                }
            }
        }
        if let Some(e) = cur.take() {
            finish(e, &mut entries)?;
        }
        let used = vec![false; entries.len()];
        Ok(AllowList { entries, used })
    }

    /// Check a diagnostic against the allowlist, marking any matching
    /// entry as used. Returns true if the diagnostic is allowed.
    pub fn check(&mut self, d: &Diagnostic) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.matches(d) {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched a diagnostic (stale allowlist lines).
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e)
            .collect()
    }
}

fn finish(e: AllowEntry, entries: &mut Vec<AllowEntry>) -> Result<(), String> {
    if e.rule.is_empty() || e.path.is_empty() {
        return Err(format!(
            "lint.allow.toml:{}: [[allow]] entry needs both `rule` and `path`",
            e.line
        ));
    }
    if e.reason.is_empty() {
        return Err(format!(
            "lint.allow.toml:{}: [[allow]] entry for {} at {} has no `reason` — justify it",
            e.line, e.rule, e.path
        ));
    }
    entries.push(e);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.into(),
            line: 1,
            message: String::new(),
            suggestion: String::new(),
        }
    }

    #[test]
    fn parses_and_matches_exact_path() {
        let mut a = AllowList::parse(
            "# comment\n[[allow]]\nrule = \"TIM01\"\npath = \"crates/x/src/a.rs\"\nreason = \"documented invariant\"\n",
        )
        .unwrap();
        assert!(a.check(&diag("TIM01", "crates/x/src/a.rs")));
        assert!(!a.check(&diag("TIM01", "crates/x/src/b.rs")));
        assert!(!a.check(&diag("DET02", "crates/x/src/a.rs")));
        assert!(a.unused().is_empty());
    }

    #[test]
    fn directory_prefix_matches() {
        let mut a = AllowList::parse(
            "[[allow]]\nrule = \"DET02\"\npath = \"crates/x/src/\"\nreason = \"r\"\n",
        )
        .unwrap();
        assert!(a.check(&diag("DET02", "crates/x/src/deep/file.rs")));
        assert!(!a.check(&diag("DET02", "crates/y/src/file.rs")));
    }

    #[test]
    fn reason_is_mandatory() {
        let err = AllowList::parse("[[allow]]\nrule = \"DET02\"\npath = \"a.rs\"\n").unwrap_err();
        assert!(err.contains("no `reason`"), "{err}");
    }

    #[test]
    fn unused_entries_are_reported() {
        let a = AllowList::parse(
            "[[allow]]\nrule = \"TIM02\"\npath = \"gone.rs\"\nreason = \"stale\"\n",
        )
        .unwrap();
        assert_eq!(a.unused().len(), 1);
    }
}
