//! The one finding type every rule reports.

use std::fmt;

/// One lint finding: `rule id, file:line, message, suggestion`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (e.g. `DET02`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line (0 = whole file / manifest-level).
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {} (help: {})",
            self.rule, self.path, self.line, self.message, self.suggestion
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_grep_friendly() {
        let d = Diagnostic {
            rule: "DET02",
            path: "crates/ssd/src/buffer.rs".into(),
            line: 79,
            message: "ambient authority `Instant` on the sim path".into(),
            suggestion: "derive all time from SimTime".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("DET02 crates/ssd/src/buffer.rs:79 "));
        assert!(s.contains("help: derive all time from SimTime"));
    }
}
