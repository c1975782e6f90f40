//! Workspace discovery and a minimal `Cargo.toml` reader.
//!
//! The analyzer walks the workspace the same way `cargo` would resolve
//! `members = ["crates/*"]` plus the root package: every directory under
//! `crates/` with a `Cargo.toml`, and the root `src/`/`tests/`/
//! `examples/`. `vendor/` and `target/` are never entered — vendored shims
//! are third-party stand-ins, not subject to our invariants.
//! `benchmark/src/` and `benchmark/tests/` are read as reference-only
//! roots: their tokens count as callers for DEAD01, and no rule lints
//! them (the harness times the host with `Instant` on purpose).

use std::fs;
use std::path::{Path, PathBuf};

/// Where a file sits in its crate — several rules exempt test-only code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileCat {
    /// `src/**` (including `src/bin/*`).
    Main,
    /// `tests/**` integration tests.
    TestDir,
    /// `benches/**`.
    BenchDir,
    /// `examples/**`.
    ExampleDir,
    /// A reference-only root outside the workspace (`benchmark/src/**`,
    /// `benchmark/tests/**`): read for DEAD01's callers, never linted.
    Reference,
}

impl FileCat {
    /// True for categories that are wholly test/demo code.
    pub fn is_testish(self) -> bool {
        !matches!(self, FileCat::Main)
    }

    /// True for shipped `src/**` code — the scope of the semantic rules.
    pub fn is_main(self) -> bool {
        matches!(self, FileCat::Main)
    }
}

/// One `.rs` file of a crate.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path with forward slashes (diagnostic key).
    pub rel: String,
    /// Location category.
    pub cat: FileCat,
}

/// One dependency edge from a crate manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependency package name (e.g. `requiem-sim`).
    pub name: String,
    /// Line in the manifest.
    pub line: u32,
    /// True when declared under `[dev-dependencies]`.
    pub dev: bool,
}

/// One workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package]`.
    pub name: String,
    /// Workspace-relative manifest path.
    pub manifest_rel: String,
    /// Declared dependencies (normal + dev).
    pub deps: Vec<Dep>,
    /// All `.rs` files.
    pub files: Vec<SourceFile>,
}

/// The discovered workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Member crates (root package included, name `requiem`).
    pub crates: Vec<CrateInfo>,
    /// Files of the reference-only roots ([`FileCat::Reference`]).
    pub references: Vec<SourceFile>,
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Discover every member crate under `root`.
pub fn discover(root: &Path) -> Result<Workspace, String> {
    let mut crates = Vec::new();
    // root package
    if root.join("src").is_dir() {
        crates.push(load_crate(root, root, "Cargo.toml")?);
    }
    // crates/*
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let rel = rel_path(root, &dir.join("Cargo.toml"));
            crates.push(load_crate(root, &dir, &rel)?);
        }
    }
    if crates.is_empty() {
        return Err(format!("no crates found under {}", root.display()));
    }
    let mut references = Vec::new();
    for sub in ["benchmark/src", "benchmark/tests"] {
        let d = root.join(sub);
        if d.is_dir() {
            collect_rs(root, &d, FileCat::Reference, &mut references)?;
        }
    }
    references.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace {
        root: root.to_path_buf(),
        crates,
        references,
    })
}

fn load_crate(root: &Path, dir: &Path, manifest_rel: &str) -> Result<CrateInfo, String> {
    let manifest = dir.join("Cargo.toml");
    let text =
        fs::read_to_string(&manifest).map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let (name, deps) = parse_manifest(&text);
    let mut files = Vec::new();
    for (sub, cat) in [
        ("src", FileCat::Main),
        ("tests", FileCat::TestDir),
        ("benches", FileCat::BenchDir),
        ("examples", FileCat::ExampleDir),
    ] {
        let d = dir.join(sub);
        if d.is_dir() {
            collect_rs(root, &d, cat, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(CrateInfo {
        name: if name.is_empty() {
            dir.file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        } else {
            name
        },
        manifest_rel: manifest_rel.to_string(),
        deps,
        files,
    })
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    cat: FileCat,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for e in entries.filter_map(|e| e.ok()) {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            // `fixtures/` holds lint-rule test *data* — files that
            // deliberately violate rules and are never compiled.
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &p, cat, out)?;
        } else if name.ends_with(".rs") {
            out.push(SourceFile {
                rel: rel_path(root, &p),
                abs: p,
                cat,
            });
        }
    }
    Ok(())
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Extract the package name and dependency names (with manifest lines)
/// from `Cargo.toml` text. Line-based: exactly the subset our manifests
/// use.
pub fn parse_manifest(text: &str) -> (String, Vec<Dep>) {
    #[derive(PartialEq)]
    enum Sect {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut sect = Sect::Other;
    let mut name = String::new();
    let mut deps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            sect = match line {
                "[package]" => Sect::Package,
                "[dependencies]" => Sect::Deps,
                "[dev-dependencies]" => Sect::DevDeps,
                _ => Sect::Other,
            };
            continue;
        }
        match sect {
            Sect::Package => {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start();
                    if let Some(v) = v.strip_prefix('=') {
                        name = v.trim().trim_matches('"').to_string();
                    }
                }
            }
            Sect::Deps | Sect::DevDeps => {
                // `foo = { ... }` or `foo = "1.0"` or `foo.workspace = true`
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !key.is_empty() {
                    deps.push(Dep {
                        name: key,
                        line: idx as u32 + 1,
                        dev: sect == Sect::DevDeps,
                    });
                }
            }
            Sect::Other => {}
        }
    }
    (name, deps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parse_extracts_name_and_deps() {
        let toml = r#"
[package]
name = "requiem-block"

[dependencies]
requiem-sim = { workspace = true }
serde = { workspace = true }

[dev-dependencies]
proptest = { workspace = true }
"#;
        let (name, deps) = parse_manifest(toml);
        assert_eq!(name, "requiem-block");
        let names: Vec<_> = deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("requiem-sim", false), ("serde", false), ("proptest", true)]
        );
    }

    #[test]
    fn file_categories_testish() {
        assert!(!FileCat::Main.is_testish());
        assert!(FileCat::TestDir.is_testish());
        assert!(FileCat::BenchDir.is_testish());
        assert!(FileCat::ExampleDir.is_testish());
    }
}
