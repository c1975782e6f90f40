//! Every example's stdout against `golden/examples/<name>.txt`, in the
//! profile the tests run in, so the examples stay checked documentation.
//!
//! `cargo test` builds the examples next to this test's own binary
//! (`target/<profile>/examples/`) before it runs any test; a filtered run
//! such as `cargo test --test examples` does not, so build them first
//! there (`cargo build --examples`). `crates/bench/tests/golden.rs`
//! holds the experiments' stdout to `golden/` the same way. A number that
//! is meant to move is re-recorded with `scripts/golden.sh write`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where `cargo test` put the examples of this profile.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary's path");
    // target/<profile>/deps/<this test> → target/<profile>/examples
    let profile = exe
        .parent()
        .and_then(Path::parent)
        .expect("target/<profile>");
    profile.join("examples")
}

#[test]
fn every_example_prints_its_golden_stdout() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ lists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter_map(|path| Some(path.file_name()?.to_str()?.strip_suffix(".rs")?.to_string()))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no examples found");
    let dir = examples_dir();
    // start them all, then compare each: they run side by side
    let children: Vec<_> = names
        .iter()
        .map(|name| {
            let exe = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
            let child = Command::new(&exe)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| {
                    panic!(
                        "cannot run {} ({e}): build the examples first (`cargo build --examples`)",
                        exe.display()
                    )
                });
            (name, child)
        })
        .collect();
    for (name, child) in children {
        let out = child.wait_with_output().expect("the example ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{name}: exited with {}; stderr:\n{stderr}",
            out.status
        );
        let path = root.join("golden/examples").join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let got = String::from_utf8(out.stdout).expect("example stdout is UTF-8");
        if got == want {
            continue;
        }
        // the first line that differs, or where the shorter side ends
        let at = got
            .lines()
            .zip(want.lines())
            .take_while(|(g, w)| g == w)
            .count();
        panic!(
            "{name}: stdout differs from {} at line {}\n  golden: {}\n  got:    {}",
            path.display(),
            at + 1,
            want.lines().nth(at).unwrap_or("<end of file>"),
            got.lines().nth(at).unwrap_or("<end of output>"),
        );
    }
}
