//! Fixture-driven rule tests plus the workspace self-check.
//!
//! Each rule family gets a violating fixture and a clean twin under
//! `tests/fixtures/` (the workspace walker skips that directory — the
//! fixtures *deliberately* break the rules and are never compiled). The
//! final test lints the real workspace against the checked-in
//! `lint.allow.toml` and requires zero denied diagnostics: the linter
//! gates CI, so the tree must always be self-clean.

use std::path::Path;

use analyzer::workspace::{parse_manifest, CrateInfo, FileCat};
use analyzer::{lint_source, rules, FileInput};

/// Lint fixture `text` as main-crate code of `crate_name` at `rel`,
/// returning the fired rule ids. DEAD01 is left out: a fixture linted
/// alone has no callers for its `pub` items, so DEAD01 has twins of its
/// own ([`dead_in`]).
fn fired(crate_name: &str, rel: &str, text: &str) -> Vec<&'static str> {
    lint_source(crate_name, rel, FileCat::Main, text)
        .into_iter()
        .map(|d| d.rule)
        .filter(|r| *r != "DEAD01")
        .collect()
}

/// Lint `(rel, category, text)` files as one workspace and return the
/// names DEAD01 reports, as `rel:name`.
fn dead_in(files: &[(&str, FileCat, &str)]) -> Vec<String> {
    let inputs: Vec<FileInput> = files
        .iter()
        .map(|(rel, cat, text)| FileInput {
            crate_name: "requiem-flash".to_string(),
            rel: rel.to_string(),
            cat: *cat,
            text: text.to_string(),
        })
        .collect();
    analyzer::lint_files(&inputs)
        .into_iter()
        .filter(|d| d.rule == "DEAD01")
        .map(|d| format!("{}:{}", d.path, d.message.split('`').nth(3).unwrap_or("")))
        .collect()
}

#[test]
fn det_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/det_bad.rs"),
    );
    assert!(bad.contains(&"DET01"), "fired: {bad:?}");
    assert!(bad.contains(&"DET02"), "fired: {bad:?}");
    let ok = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/det_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn det_rules_exempt_test_regions_and_test_files() {
    let text = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() {\n        let mut m: HashMap<u64, u64> = HashMap::new();\n        for (k, v) in m.iter() { let _ = (k, v); }\n    }\n}\n";
    let in_test_mod = fired("requiem-ssd", "crates/ssd/src/fixture.rs", text);
    assert!(
        in_test_mod.is_empty(),
        "fired in #[cfg(test)]: {in_test_mod:?}"
    );
    let in_test_dir = lint_source(
        "requiem-ssd",
        "crates/ssd/tests/fixture.rs",
        FileCat::TestDir,
        include_str!("fixtures/det_bad.rs"),
    );
    // DET01 is order-hygiene (exempt in tests); DET02 ambient authority
    // (Instant) stays flagged even in tests — wall-clock reads make
    // test timing assertions flaky.
    assert!(
        in_test_dir.iter().all(|d| d.rule != "DET01"),
        "DET01 fired in tests/: {in_test_dir:?}"
    );
    assert!(
        in_test_dir.iter().any(|d| d.rule == "DET02"),
        "DET02 should apply everywhere: {in_test_dir:?}"
    );
}

/// The crate-scoped rules' findings on one manifest, as `(rule, line)`.
fn manifest_findings(rel: &str, toml: &str) -> Vec<(&'static str, u32)> {
    let info = CrateInfo {
        manifest_rel: rel.to_string(),
        manifest: parse_manifest(toml),
        files: Vec::new(),
    };
    rules::run_crate(&info)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn lay_manifest_inversion_fires_and_legal_dep_is_clean() {
    const LINTS: &str = "\n[lints]\nworkspace = true\n";
    let flash = |deps: &str| {
        let toml = format!("[package]\nname = \"requiem-flash\"\n\n{deps}{LINTS}");
        manifest_findings("crates/flash/Cargo.toml", &toml)
    };
    // every form a manifest edge can take, each an upward or sideways
    // edge (or a rename), reported at its key or its table header
    for (deps, line) in [
        ("[dependencies]\nrequiem-ssd = { workspace = true }\n", 5),
        ("[dependencies.requiem-pcm]\nworkspace = true\n", 4),
        (
            "[target.'cfg(unix)'.dependencies]\nrequiem-pcm = { workspace = true }\n",
            5,
        ),
        (
            "[build-dependencies]\nrequiem-pcm = { workspace = true }\n",
            5,
        ),
        // a rename hides the package from the layering table, so even
        // one of an allowed layer is refused
        (
            "[dependencies]\nclock = { package = \"requiem-sim\", workspace = true }\n",
            5,
        ),
        ("[dependencies]\nclock.package = \"requiem-sim\"\n", 5),
        (
            "[dependencies.clock]\nworkspace = true\npackage = \"requiem-sim\"\n",
            4,
        ),
    ] {
        assert_eq!(flash(deps), [("LAY01", line)], "{deps}");
    }
    // the bare root crate re-exports the whole stack
    let analyzer = manifest_findings(
        "crates/analyzer/Cargo.toml",
        &format!("[package]\nname = \"analyzer\"\n\n[dependencies]\nrequiem = {{ path = \"../..\" }}\n{LINTS}"),
    );
    assert_eq!(analyzer, [("LAY01", 5)]);
    // a rename in the root's [workspace.dependencies] reaches every
    // member that names the key
    let root = manifest_findings(
        "Cargo.toml",
        &format!("[package]\nname = \"requiem\"\n\n[workspace.dependencies]\nrequiem-sim = {{ path = \"crates/sim\" }}\npcm = {{ package = \"requiem-pcm\", path = \"crates/pcm\" }}\n{LINTS}"),
    );
    assert_eq!(root, [("LAY01", 6)]);

    let legal = flash(
        "[dependencies]\nrequiem-sim = { workspace = true }\n\n[dev-dependencies]\nproptest = { workspace = true }\nrequiem-ssd = { workspace = true }\n",
    );
    assert!(legal.is_empty(), "legal deps flagged: {legal:?}");
}

#[test]
fn prb_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-block",
        "crates/block/src/fixture.rs",
        include_str!("fixtures/prb_bad.rs"),
    );
    assert!(bad.contains(&"PRB02"), "fired: {bad:?}");
    let ok = fired(
        "requiem-block",
        "crates/block/src/fixture.rs",
        include_str!("fixtures/prb_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn tim_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/tim_bad.rs"),
    );
    assert!(bad.contains(&"TIM01"), "fired: {bad:?}");
    assert!(bad.contains(&"TIM02"), "fired: {bad:?}");
    let ok = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/tim_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn tim_rules_scope_excludes_sim_and_bench() {
    for (pkg, rel) in [
        ("requiem-sim", "crates/sim/src/fixture.rs"),
        ("requiem-bench", "crates/bench/src/fixture.rs"),
    ] {
        let diags = fired(pkg, rel, include_str!("fixtures/tim_bad.rs"));
        assert!(
            diags.iter().all(|r| !r.starts_with("TIM")),
            "{pkg} should be outside TIM scope: {diags:?}"
        );
    }
}

#[test]
fn uns_manifest_must_inherit_workspace_lints() {
    let toml =
        "[package]\nname = \"requiem-ssd\"\n\n[dependencies]\nrequiem-sim = { workspace = true }\n";
    let naked = manifest_findings("crates/ssd/Cargo.toml", toml);
    assert_eq!(naked, [("UNS02", 0)]);
    let inherits = manifest_findings(
        "crates/ssd/Cargo.toml",
        &format!("{toml}\n[lints]\nworkspace = true\n"),
    );
    assert!(inherits.is_empty(), "{inherits:?}");
}

#[test]
fn ios_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-db",
        "crates/db/src/fixture.rs",
        include_str!("fixtures/ios_bad.rs"),
    );
    assert_eq!(
        bad.iter().filter(|r| **r == "IOS02").count(),
        3,
        "discard + unconsumed + projection expected: {bad:?}"
    );
    let ok = fired(
        "requiem-db",
        "crates/db/src/fixture.rs",
        include_str!("fixtures/ios_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn clk_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-db",
        "crates/db/src/fixture.rs",
        include_str!("fixtures/clk_bad.rs"),
    );
    assert_eq!(
        bad.iter().filter(|r| **r == "CLK01").count(),
        1,
        "one stale reuse expected: {bad:?}"
    );
    let ok = fired(
        "requiem-db",
        "crates/db/src/fixture.rs",
        include_str!("fixtures/clk_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn prb3_path_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/prb3_bad.rs"),
    );
    assert_eq!(
        bad.iter().filter(|r| **r == "PRB03").count(),
        3,
        "`?` leak + fall-through leak + dropped statement expected: {bad:?}"
    );
    let ok = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/prb3_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn dead_fixture_fires_and_twin_is_clean() {
    const LUN: &str = "crates/flash/src/lun.rs";
    let bad = include_str!("fixtures/dead_bad.rs");
    let dead = dead_in(&[(LUN, FileCat::Main, bad)]);
    assert_eq!(
        dead,
        [
            "crates/flash/src/lun.rs:SPARE_BLOCKS",
            "crates/flash/src/lun.rs:WEAR_LIMIT",
            "crates/flash/src/lun.rs:lines_per_block",
            "crates/flash/src/lun.rs:mean_erase_count",
        ],
        "only the pub items named by nothing but this file's tests"
    );
    // the same items, also named by another file's integration tests
    let ok = include_str!("fixtures/dead_ok.rs");
    let called = dead_in(&[
        (LUN, FileCat::Main, bad),
        ("crates/flash/tests/wear.rs", FileCat::TestDir, ok),
    ]);
    assert!(called.is_empty(), "clean twin fired: {called:?}");
    // ... or only by a reference-only root, which is itself never linted
    let referenced = dead_in(&[
        (LUN, FileCat::Main, bad),
        ("benchmark/src/wear.rs", FileCat::Reference, ok),
    ]);
    assert!(
        referenced.is_empty(),
        "reference root ignored: {referenced:?}"
    );
    let unlinted = analyzer::lint_files(&[FileInput {
        crate_name: "requiem-benchmark".to_string(),
        rel: "benchmark/src/main.rs".to_string(),
        cat: FileCat::Reference,
        text: "pub fn t0() -> std::time::Instant { std::time::Instant::now() }".to_string(),
    }]);
    assert!(
        unlinted.is_empty(),
        "a reference root was linted: {unlinted:?}"
    );
}

#[test]
fn dead_rule_stays_silent_on_a_name_any_other_token_shares() {
    // a field of another type happens to be called `mean_erase_count`:
    // names are plain text, so that item is spared and the rest are not
    let dead = dead_in(&[
        (
            "crates/flash/src/lun.rs",
            FileCat::Main,
            include_str!("fixtures/dead_bad.rs"),
        ),
        (
            "crates/flash/src/report.rs",
            FileCat::Main,
            "pub(crate) struct Wear { mean_erase_count: f64 }\n",
        ),
    ]);
    assert!(
        !dead.iter().any(|d| d.ends_with(":mean_erase_count")),
        "a shared name must keep the item: {dead:?}"
    );
    assert_eq!(dead.len(), 3, "the other items stay dead: {dead:?}");
}

/// The real workspace must lint *completely* clean: zero diagnostics —
/// not merely zero denied — and zero stale allowlist entries. This is
/// the `-D --deny-stale` contract CI enforces.
#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow = analyzer::load_allowlist(&root.join("lint.allow.toml")).expect("allowlist parses");
    let report = analyzer::run(&root, allow).expect("lint runs");
    let all: Vec<String> = report
        .diagnostics
        .iter()
        .map(|(d, _)| d.to_string())
        .collect();
    assert!(
        all.is_empty(),
        "workspace has diagnostics (the tree must be clean under -D):\n{}",
        all.join("\n")
    );
    let stale: Vec<String> = report
        .unused_allows
        .iter()
        .map(|e| format!("{} {} ({})", e.rule, e.path, e.reason))
        .collect();
    assert!(
        stale.is_empty(),
        "stale allowlist entries:\n{}",
        stale.join("\n")
    );
}
