//! Machine-readable diagnostics.

use std::fmt;

/// One lint finding: `rule id, file:line, message, suggestion`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (e.g. `DET01`).
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

impl Diagnostic {
    /// Render as a JSON object (hand-rolled; the analyzer has no deps).
    pub fn to_json(&self, allowed: bool) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"suggestion\":\"{}\",\"allowed\":{}}}",
            self.rule,
            json_escape(&self.path),
            self.line,
            json_escape(&self.message),
            json_escape(&self.suggestion),
            allowed
        )
    }
}

/// Escape a string for inclusion in a JSON value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_grep_friendly() {
        let d = Diagnostic {
            rule: "DET01",
            path: "crates/ssd/src/buffer.rs".into(),
            line: 79,
            message: "iteration over HashMap `resident`".into(),
            suggestion: "use BTreeMap".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("DET01 crates/ssd/src/buffer.rs:79 "));
        assert!(s.contains("help: use BTreeMap"));
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            rule: "TIM01",
            path: "a.rs".into(),
            line: 1,
            message: "call to `expect(\"x\")`".into(),
            suggestion: "return an error".into(),
        };
        let j = d.to_json(true);
        assert!(j.contains("\\\"x\\\""));
        assert!(j.ends_with("\"allowed\":true}"));
    }
}
