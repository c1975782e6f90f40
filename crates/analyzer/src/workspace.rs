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

/// The manifest table a dependency is declared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepTable {
    /// `[dependencies]` or `[build-dependencies]`, plain or under
    /// `[target.…]`: an edge of the shipped crate graph.
    Normal,
    /// `[dev-dependencies]`, plain or under `[target.…]`.
    Dev,
    /// The root manifest's `[workspace.dependencies]`.
    Workspace,
}

/// One dependency edge from a crate manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Package name (e.g. `requiem-sim`): the `package = "…"` value when
    /// the dependency is renamed, else its key.
    pub name: String,
    /// Line in the manifest.
    pub line: u32,
    /// Where it is declared.
    pub table: DepTable,
    /// True when declared under another key with `package = "…"`.
    pub renamed: bool,
}

/// What the analyzer reads from one `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Package name from `[package]`.
    pub name: String,
    /// Declared dependencies, every table.
    pub deps: Vec<Dep>,
    /// True when `[lints]` says `workspace = true`.
    pub inherits_lints: bool,
}

/// One workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Workspace-relative manifest path.
    pub manifest_rel: String,
    /// The parsed manifest (`name` falls back to the directory name).
    pub manifest: Manifest,
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
    let path = dir.join("Cargo.toml");
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut manifest = parse_manifest(&text);
    if manifest.name.is_empty() {
        manifest.name = dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
    }
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
        manifest_rel: manifest_rel.to_string(),
        manifest,
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

/// Read the package name, every dependency edge and the `[lints]`
/// inheritance from `Cargo.toml` text. Line-based, but it sees every
/// form a dependency edge can take: `[dependencies]`,
/// `[build-dependencies]` and `[dev-dependencies]`, plain or under
/// `[target.…]`; `[workspace.dependencies]`; a `[dependencies.<name>]`
/// table; and a `package = "…"` rename, inline or dotted.
pub fn parse_manifest(text: &str) -> Manifest {
    enum Sect {
        Package,
        Lints,
        /// A table of dependencies, one per key.
        Deps(DepTable),
        /// A `[dependencies.<name>]` table: its keys describe one dep.
        OneDep,
        Other,
    }
    let mut sect = Sect::Other;
    let mut m = Manifest::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let keys = dotted_keys(header.rfind(']').map_or("", |end| &header[..end]));
            sect = match keys.as_slice() {
                [k] if k == "package" => Sect::Package,
                [k] if k == "lints" => Sect::Lints,
                _ => match dep_table(&keys) {
                    Some((table, None)) => Sect::Deps(table),
                    Some((table, Some(dep))) => {
                        m.deps.push(Dep {
                            name: dep.to_string(),
                            line: lineno,
                            table,
                            renamed: false,
                        });
                        Sect::OneDep
                    }
                    None => Sect::Other,
                },
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = dotted_keys(key);
        let value = value.trim();
        match (&sect, key.as_slice()) {
            (Sect::Package, [k]) if k == "name" => m.name = unquote(value).to_string(),
            (Sect::Lints, [k]) if k == "workspace" => m.inherits_lints = value == "true",
            (Sect::OneDep, [k]) if k == "package" => {
                if let Some(dep) = m.deps.last_mut() {
                    dep.name = unquote(value).to_string();
                    dep.renamed = true;
                }
            }
            (Sect::Deps(table), [dep, rest @ ..]) => {
                // `foo = { package = "…" }` or `foo.package = "…"`
                let package = match rest {
                    [k] if k == "package" => Some(unquote(value)),
                    [] => inline_package(value),
                    _ => None,
                };
                m.deps.push(Dep {
                    name: package.unwrap_or(dep).to_string(),
                    line: lineno,
                    table: *table,
                    renamed: package.is_some(),
                });
            }
            _ => {}
        }
    }
    m
}

/// Classify a table header's keys as a dependency table, with the one
/// dependency it describes when it is a `[….dependencies.<name>]`
/// table.
fn dep_table(keys: &[String]) -> Option<(DepTable, Option<&str>)> {
    let (workspace, rest) = match keys {
        [w, rest @ ..] if w == "workspace" => (true, rest),
        [t, _cfg, rest @ ..] if t == "target" => (false, rest),
        _ => (false, keys),
    };
    let (kind, dep) = match rest {
        [kind] => (kind, None),
        [kind, dep] => (kind, Some(dep.as_str())),
        _ => return None,
    };
    let table = match (workspace, kind.replace('_', "-").as_str()) {
        (true, "dependencies") => DepTable::Workspace,
        (false, "dependencies" | "build-dependencies") => DepTable::Normal,
        (false, "dev-dependencies") => DepTable::Dev,
        _ => return None,
    };
    Some((table, dep))
}

/// Split a TOML dotted key (`target.'cfg(unix)'.dependencies`) into its
/// unquoted parts; a dot inside quotes does not split.
fn dotted_keys(s: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut cur = String::new();
    let mut quote = None;
    for c in s.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => cur.push(c),
            (None, '"' | '\'') => quote = Some(c),
            (None, '.') => keys.push(std::mem::take(&mut cur).trim().to_string()),
            (None, c) => cur.push(c),
        }
    }
    keys.push(cur.trim().to_string());
    keys
}

/// The `package = "…"` entry of an inline table value, if any.
fn inline_package(value: &str) -> Option<&str> {
    let inner = value.strip_prefix('{')?.rsplit_once('}')?.0;
    inner.split(',').find_map(|entry| {
        let (k, v) = entry.split_once('=')?;
        (k.trim() == "package").then(|| unquote(v.trim()))
    })
}

/// A TOML string value without its quotes (and any trailing comment).
fn unquote(value: &str) -> &str {
    let mut chars = value.chars();
    match chars.next() {
        Some(q @ ('"' | '\'')) => chars.as_str().split(q).next().unwrap_or(""),
        _ => value,
    }
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

[lints]
workspace = true
"#;
        let m = parse_manifest(toml);
        assert_eq!(m.name, "requiem-block");
        let names: Vec<_> = m.deps.iter().map(|d| (d.name.as_str(), d.table)).collect();
        assert_eq!(
            names,
            vec![
                ("requiem-sim", DepTable::Normal),
                ("serde", DepTable::Normal),
                ("proptest", DepTable::Dev)
            ]
        );
        assert!(m.inherits_lints);
    }

    #[test]
    fn file_categories_testish() {
        assert!(!FileCat::Main.is_testish());
        assert!(FileCat::TestDir.is_testish());
        assert!(FileCat::BenchDir.is_testish());
        assert!(FileCat::ExampleDir.is_testish());
    }
}
