//! Seeded double-run determinism of the E16 aging harness: the same
//! preset must produce identical trajectories — point-for-point and
//! byte-for-byte in the JSON — on a fresh device each time. CI
//! additionally double-run-diffs the full binary (`--short` preset);
//! this test pins the core harness at unit-test speed.

use requiem_bench::aging::{matrix, run_corner, run_series, AgingPreset};

/// Tiny preset: full pipeline (fill → overwrite → mixed, windowed
/// sampling), test-sized.
fn tiny() -> AgingPreset {
    AgingPreset {
        window: 128,
        overwrite_windows: 3,
        mixed_windows: 2,
        queue_depth: 2,
    }
}

#[test]
fn aging_trajectories_are_deterministic() {
    // one page-mapped and one hybrid corner: the two reclaim mechanisms
    let m = matrix();
    for c in [&m[0], &m[5]] {
        let a = run_corner(c, &tiny());
        let b = run_corner(c, &tiny());
        assert_eq!(a.points, b.points, "trajectory diverged for {:?}", c);
        assert_eq!(
            run_series().json_row(&a),
            run_series().json_row(&b),
            "JSON encoding diverged for {:?}",
            c
        );
        assert!(
            !a.points.is_empty(),
            "campaign must sample at least one window"
        );
    }
}

#[test]
fn aging_fill_reaches_full_mapping_before_sampling() {
    // the first sampled window must already see an aged device: WA > 1
    // under zipfian overwrite on a 100 % mapped page-mapped device
    let m = matrix();
    let run = run_corner(&m[0], &tiny());
    let first = &run.points[0];
    assert_eq!(first.phase, "overwrite");
    assert!(
        first.wa_window >= 1.0,
        "overwrite on a full device must relocate ({} < 1)",
        first.wa_window
    );
}
