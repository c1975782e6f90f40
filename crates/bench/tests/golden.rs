//! Every experiment binary's stdout against `golden/<stem>.txt`, in the
//! test profile.
//!
//! `scripts/golden.sh check` asks the same question of the release
//! binaries; this asks it with debug assertions and overflow checks
//! **on**, so a moved simulated byte or a tripped `debug_assert!` on any
//! experiment's path fails `cargo test`. A number that is meant to move
//! is re-recorded with `scripts/golden.sh write`.

use std::path::Path;
use std::process::Command;

/// Run `exe args` and compare its stdout with `golden/<stem>.txt`.
fn check(stem: &str, exe: &str, args: &[&str]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../golden")
        .join(format!("{stem}.txt"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
    let tail = tail.into_iter().rev().collect::<Vec<_>>().join("\n");
    // the binaries assert their own claims: a panic is a verdict too
    assert!(
        out.status.success(),
        "{stem}: exited with {}; stderr tail:\n{tail}",
        out.status
    );
    let got = String::from_utf8(out.stdout).expect("experiment stdout is UTF-8");
    if got == want {
        return;
    }
    // the first line that differs, or where the shorter side ends
    let at = got
        .lines()
        .zip(want.lines())
        .take_while(|(g, w)| g == w)
        .count();
    panic!(
        "{stem}: stdout differs from {} at line {}\n  golden: {}\n  got:    {}\nstderr tail:\n{tail}",
        path.display(),
        at + 1,
        want.lines().nth(at).unwrap_or("<end of file>"),
        got.lines().nth(at).unwrap_or("<end of output>"),
    );
}

/// One `#[test]` per golden entry — `env!("CARGO_BIN_EXE_…")` needs the
/// binary's name as a literal — plus the list of stems they cover.
macro_rules! golden {
    ($($test:ident: $stem:literal = $bin:literal $($arg:literal)*;)*) => {
        $(
            #[test]
            fn $test() {
                check($stem, env!(concat!("CARGO_BIN_EXE_", $bin)), &[$($arg),*]);
            }
        )*
        const STEMS: &[&str] = &[$($stem),*];
    };
}

golden! {
    exp1: "exp1_figure1" = "exp1_figure1";
    exp2: "exp2_myth1" = "exp2_myth1";
    exp3: "exp3_myth2" = "exp3_myth2";
    exp4: "exp4_myth3" = "exp4_myth3";
    exp5: "exp5_trim" = "exp5_trim";
    exp6: "exp6_atomic" = "exp6_atomic";
    exp7: "exp7_synergy" = "exp7_synergy";
    exp8: "exp8_nameless" = "exp8_nameless";
    exp9: "exp9_overhead" = "exp9_overhead";
    exp10: "exp10_pcm" = "exp10_pcm";
    exp11: "exp11_qd_sweep" = "exp11_qd_sweep";
    exp12: "exp12_fault_sweep" = "exp12_fault_sweep";
    exp13: "exp13_db_qd_sweep" = "exp13_db_qd_sweep";
    exp14: "exp14_cooperating_logs" = "exp14_cooperating_logs";
    exp15: "exp15_pcm_wal" = "exp15_pcm_wal";
    exp16: "exp16_aging" = "exp16_aging";
    exp16_short: "exp16_aging.short" = "exp16_aging" "--short";
    exp17: "exp17_shard_sweep" = "exp17_shard_sweep";
    exp17_short: "exp17_shard_sweep.short" = "exp17_shard_sweep" "--short";
}

/// The stems of the files in `dir` whose names end in `ext`, sorted.
fn stems(dir: &Path, ext: &str) -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.is_file())
        .filter_map(|path| {
            let name = path.file_name()?.to_string_lossy().into_owned();
            name.strip_suffix(ext).map(str::to_string)
        })
        .collect();
    stems.sort();
    stems
}

/// A golden file nothing runs pins nothing: `golden.sh` derives its list
/// from `src/bin/exp*.rs`, so a new binary must be added above too. The
/// examples' goldens sit in `golden/examples/`, one per `examples/*.rs`.
#[test]
fn every_golden_file_has_a_test() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut covered: Vec<String> = STEMS.iter().map(|s| s.to_string()).collect();
    covered.sort();
    assert_eq!(stems(&root.join("golden"), ".txt"), covered);
    assert_eq!(
        stems(&root.join("golden/examples"), ".txt"),
        stems(&root.join("examples"), ".rs"),
        "every example has a golden stdout and every golden stdout an example"
    );
}
