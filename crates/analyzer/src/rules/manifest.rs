//! LAY01/UNS02 — the rules read from each member's `Cargo.toml`.
//!
//! **LAY01, the Figure-2 layering DAG.** The workspace mirrors the
//! paper's Figure 2: applications talk to a storage manager, which talks
//! to the OS block layer, which talks to a device interface, which is
//! implemented by a device model over a raw medium, all on one
//! simulation kernel:
//!
//! ```text
//!   db → block → iface → ssd → {flash, pcm} → sim
//! ```
//!
//! A crate may depend only on layers *below* it (transitively). `bench`
//! and `workload` are harnesses and may see everything; the root crate
//! `requiem` re-exports the stack; `analyzer` (this crate) sees nothing.
//! The manifest is the one place to check: a crate can name only the
//! crates it depends on, so source that reaches above or beside its
//! layer does not compile once every manifest edge is legal. That holds
//! for every edge the manifest reader sees (normal, build and
//! target-specific tables, `[dependencies.<name>]` headers, the bare
//! `requiem` root crate), and a `package = "…"` rename of a `requiem`
//! package is refused outright, so no edge hides behind another key.
//! `[dev-dependencies]` are exempt: integration tests may drive a crate
//! from above.
//!
//! ```text
//! bad: # crates/flash/Cargo.toml
//!      [dependencies]
//!      requiem-ssd = { workspace = true }
//! ok:  # crates/flash/Cargo.toml
//!      [dependencies]
//!      requiem-sim = { workspace = true }
//! ```
//!
//! **UNS02, the lint inheritance.** The simulator needs no `unsafe`.
//! `unsafe_code = "forbid"` (and the `unused_must_use = "deny"` that
//! keeps a dropped `IoStatus` or `WalForce` from compiling) live in the
//! root's `[workspace.lints]` and hold for every target, bins, tests and
//! examples included; but they bind a member only when its manifest
//! says `[lints] workspace = true`.
//!
//! ```text
//! bad: # crates/x/Cargo.toml
//!      [dependencies]
//!      requiem-sim = { workspace = true }
//! ok:  # crates/x/Cargo.toml
//!      [dependencies]
//!      requiem-sim = { workspace = true }
//!
//!      [lints]
//!      workspace = true
//! ```

use super::short_name;
use crate::diag::Diagnostic;
use crate::workspace::{CrateInfo, DepTable};

/// Allowed `requiem-*` dependencies (short names) per crate (short name).
/// Transitively closed: listing `ssd` implies nothing extra — every edge
/// a crate uses must appear explicitly.
const ALLOWED: &[(&str, &[&str])] = &[
    ("sim", &[]),
    ("flash", &["sim"]),
    ("pcm", &["sim"]),
    ("ssd", &["sim", "flash"]),
    ("iface", &["sim", "flash", "ssd"]),
    ("block", &["sim", "flash", "pcm", "ssd", "iface"]),
    ("db", &["sim", "flash", "pcm", "ssd", "iface", "block"]),
    (
        "workload",
        &["sim", "flash", "pcm", "ssd", "iface", "block", "db"],
    ),
    (
        "bench",
        &[
            "sim", "flash", "pcm", "ssd", "iface", "block", "db", "workload",
        ],
    ),
    (
        "requiem",
        &[
            "sim", "flash", "pcm", "ssd", "iface", "block", "db", "workload",
        ],
    ),
    ("analyzer", &[]),
];

/// LAY01: manifest dependencies respect the DAG.
pub fn check_manifest(info: &CrateInfo) -> Vec<Diagnostic> {
    let name = &info.manifest.name;
    let me = short_name(name);
    let Some(allowed) = ALLOWED
        .iter()
        .find(|(krate, _)| *krate == me)
        .map(|(_, deps)| *deps)
    else {
        return vec![Diagnostic {
            rule: "LAY01",
            path: info.manifest_rel.clone(),
            line: 0,
            message: format!("crate `{name}` is not in the Figure-2 layering table"),
            suggestion: "add it to ALLOWED in crates/analyzer/src/rules/manifest.rs with its layer"
                .to_string(),
        }];
    };
    let mut out = Vec::new();
    for dep in &info.manifest.deps {
        if dep.name != "requiem" && !dep.name.starts_with("requiem-") {
            continue;
        }
        if dep.renamed {
            out.push(Diagnostic {
                rule: "LAY01",
                path: info.manifest_rel.clone(),
                line: dep.line,
                message: format!(
                    "`{name}` renames `{}`: a layer edge must carry its package name",
                    dep.name
                ),
                suggestion: "drop the `package = \"…\"` key and use the package's own name"
                    .to_string(),
            });
            continue;
        }
        // dev: tests may drive the crate from above; workspace: an entry
        // there is an edge only once a member names it
        if dep.table != DepTable::Normal {
            continue;
        }
        if !allowed.contains(&short_name(&dep.name)) {
            out.push(Diagnostic {
                rule: "LAY01",
                path: info.manifest_rel.clone(),
                line: dep.line,
                message: format!(
                    "`{name}` depends on `{}`, which is not below it in the Figure-2 DAG",
                    dep.name
                ),
                suggestion: format!(
                    "route through a lower layer or move the shared type down (allowed for {me}: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                ),
            });
        }
    }
    out
}

/// UNS02: the member inherits the workspace lints.
pub fn check_lints(info: &CrateInfo) -> Vec<Diagnostic> {
    if info.manifest.inherits_lints {
        return Vec::new();
    }
    vec![Diagnostic {
        rule: "UNS02",
        path: info.manifest_rel.clone(),
        line: 0,
        message: format!(
            "`{}` does not inherit the workspace lints (`unsafe_code = \"forbid\"`)",
            info.manifest.name
        ),
        suggestion: "add `[lints]` with `workspace = true` to the manifest".to_string(),
    }]
}
