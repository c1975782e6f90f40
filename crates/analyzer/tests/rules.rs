//! Fixture-driven rule tests plus the workspace self-check.
//!
//! Each rule family gets a violating fixture and a clean twin under
//! `tests/fixtures/` (the workspace walker skips that directory — the
//! fixtures *deliberately* break the rules and are never compiled). The
//! final test lints the real workspace against the checked-in
//! `lint.allow.toml` and requires zero denied diagnostics: the linter
//! gates CI, so the tree must always be self-clean.

use std::path::Path;

use analyzer::workspace::{CrateInfo, FileCat};
use analyzer::{lexer, lint_source, rules, FileInput};

/// Lint fixture `text` as main-crate code of `crate_name` at `rel`,
/// returning the fired rule ids. DEAD01 is left out here and in
/// [`fired_files`]: a fixture linted alone has no callers for its `pub`
/// items, so DEAD01 has twins of its own ([`dead_in`]).
fn fired(crate_name: &str, rel: &str, text: &str) -> Vec<&'static str> {
    lint_source(crate_name, rel, FileCat::Main, text)
        .into_iter()
        .map(|d| d.rule)
        .filter(|r| *r != "DEAD01")
        .collect()
}

/// Lint several in-memory files as one workspace (cross-crate symbol
/// resolution), returning the fired rule ids.
fn fired_files(files: &[(&str, &str, &str)]) -> Vec<&'static str> {
    let inputs: Vec<FileInput> = files
        .iter()
        .map(|(krate, rel, text)| FileInput {
            crate_name: krate.to_string(),
            rel: rel.to_string(),
            cat: FileCat::Main,
            text: text.to_string(),
        })
        .collect();
    analyzer::lint_files(&inputs)
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

#[test]
fn lay_use_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-flash",
        "crates/flash/src/fixture.rs",
        include_str!("fixtures/lay_bad.rs"),
    );
    assert!(bad.contains(&"LAY02"), "fired: {bad:?}");
    let ok = fired(
        "requiem-flash",
        "crates/flash/src/fixture.rs",
        include_str!("fixtures/lay_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn lay_manifest_inversion_fires_and_legal_dep_is_clean() {
    let toml = "[package]\nname = \"requiem-flash\"\n\n[dependencies]\nrequiem-ssd = { workspace = true }\n";
    let (name, deps) = analyzer::workspace::parse_manifest(toml);
    let info = CrateInfo {
        name,
        manifest_rel: "crates/flash/Cargo.toml".to_string(),
        deps,
        files: Vec::new(),
    };
    let diags = rules::layering::check_manifest(&info);
    assert!(
        diags.iter().any(|d| d.rule == "LAY01"),
        "flash → ssd should invert the DAG: {diags:?}"
    );

    let toml = "[package]\nname = \"requiem-flash\"\n\n[dependencies]\nrequiem-sim = { workspace = true }\n\n[dev-dependencies]\nproptest = { workspace = true }\n";
    let (name, deps) = analyzer::workspace::parse_manifest(toml);
    let info = CrateInfo {
        name,
        manifest_rel: "crates/flash/Cargo.toml".to_string(),
        deps,
        files: Vec::new(),
    };
    let diags = rules::layering::check_manifest(&info);
    assert!(diags.is_empty(), "legal dep flagged: {diags:?}");
}

#[test]
fn prb_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-block",
        "crates/block/src/fixture.rs",
        include_str!("fixtures/prb_bad.rs"),
    );
    assert!(bad.contains(&"PRB01"), "fired: {bad:?}");
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
fn pan_fixture_fires_in_protected_paths_only() {
    let text = include_str!("fixtures/pan_bad.rs");
    let bad = fired("requiem-ssd", "crates/ssd/src/controller/fixture.rs", text);
    assert_eq!(
        bad.iter().filter(|r| **r == "PAN01").count(),
        2,
        "unwrap + panic! expected: {bad:?}"
    );
    // same text outside the protected paths: policy does not apply
    let elsewhere = fired("requiem-ssd", "crates/ssd/src/metrics.rs", text);
    assert!(
        elsewhere.iter().all(|r| *r != "PAN01"),
        "PAN01 outside protected paths: {elsewhere:?}"
    );
    let ok = fired(
        "requiem-ssd",
        "crates/ssd/src/controller/fixture.rs",
        include_str!("fixtures/pan_ok.rs"),
    );
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn uns_fixture_fires_and_crate_root_check_wants_forbid() {
    let bad = fired(
        "requiem-ssd",
        "crates/ssd/src/fixture.rs",
        include_str!("fixtures/uns_bad.rs"),
    );
    assert!(bad.contains(&"UNS01"), "fired: {bad:?}");

    let info = CrateInfo {
        name: "requiem-ssd".to_string(),
        manifest_rel: "crates/ssd/Cargo.toml".to_string(),
        deps: Vec::new(),
        files: Vec::new(),
    };
    let naked = lexer::lex("pub fn f() {}\n");
    let diags = rules::unsafety::check_crate_root(&info, Some(&naked), "crates/ssd/src/lib.rs");
    assert!(diags.iter().any(|d| d.rule == "UNS02"), "{diags:?}");
    let fortified = lexer::lex("#![forbid(unsafe_code)]\npub fn f() {}\n");
    let diags = rules::unsafety::check_crate_root(&info, Some(&fortified), "crates/ssd/src/lib.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lay3_callgraph_fixture_fires_and_twin_is_clean() {
    let api = include_str!("fixtures/lay3_api.rs");
    // the same call edges, linted once from below (flash → ssd inverts
    // the DAG) and once from above (db → ssd is the architecture)
    let bad = fired_files(&[
        ("requiem-ssd", "crates/ssd/src/fixture_api.rs", api),
        (
            "requiem-flash",
            "crates/flash/src/fixture.rs",
            include_str!("fixtures/lay3_bad.rs"),
        ),
    ]);
    assert_eq!(
        bad.iter().filter(|r| **r == "LAY03").count(),
        3,
        "method + type-owner edges expected: {bad:?}"
    );
    let ok = fired_files(&[
        ("requiem-ssd", "crates/ssd/src/fixture_api.rs", api),
        (
            "requiem-db",
            "crates/db/src/fixture.rs",
            include_str!("fixtures/lay3_ok.rs"),
        ),
    ]);
    assert!(ok.is_empty(), "clean twin fired: {ok:?}");
}

#[test]
fn ios_fixture_fires_and_twin_is_clean() {
    let bad = fired(
        "requiem-db",
        "crates/db/src/fixture.rs",
        include_str!("fixtures/ios_bad.rs"),
    );
    assert!(bad.contains(&"IOS01"), "fired: {bad:?}");
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
