//! **E16 — steady-state aging & GC-debt campaign.**
//!
//! The paper's Myth 2 ("random writes are fine now") is usually tested
//! on a young device — but the FTL tax of random writes arrives *later*,
//! once the device is full and every new write forces the collector to
//! make room. This experiment preconditions the device to 100 % mapped,
//! destroys locality with zipfian overwrites until write amplification
//! plateaus, then runs mixed traffic on the aged device, across
//! {page-mapped, hybrid} FTL × {greedy, cost-benefit} GC × {7 %, 28 %}
//! over-provisioning (see [`requiem_bench::aging`] for the harness).
//!
//! Sections:
//!
//! * **16a** — steady-state WA per corner: the plateau each corner
//!   converges to, and how over-provisioning buys it down.
//! * **16b** — GC debt: how much of the post-fill OP cushion sustained
//!   overwrite burns (the free-block deficit the collector owes back),
//!   peak and end-of-run.
//! * **16c** — the aged tail: p99/p99.9 of the mixed phase, where
//!   demand reads queue behind steady-state collection.
//! * Trailing JSON (the full trajectories) feeds `BENCH_exp16.json`
//!   and the determinism CI diff (short preset).
//!
//! `--short` selects the CI preset (same phases, ~1/8 the ops).

use requiem_bench::aging::{run_campaign, run_series, AgingPreset, AgingRun};
use requiem_bench::{fmt_ns, note, section};
use requiem_sim::table::Align;
use requiem_sim::Table;

fn debt_table(runs: &[AgingRun]) -> Table {
    let mut t = Table::new(["config", "peak debt", "end debt", "end free", "min free"])
        .align(0, Align::Left);
    for r in runs {
        let end = r.points.last().expect("trajectory non-empty");
        let min_free = r.points.iter().map(|p| p.free_blocks).min().unwrap_or(0);
        t.row([
            r.config.label(),
            r.peak_gc_debt.to_string(),
            end.gc_debt.to_string(),
            end.free_blocks.to_string(),
            min_free.to_string(),
        ]);
    }
    t
}

fn tail_table(runs: &[AgingRun]) -> Table {
    let mut t = Table::new(["config", "aged p99", "aged p99.9", "aged IOPS"]).align(0, Align::Left);
    for r in runs {
        // worst window of the mixed phase: the aged-device tail
        let mixed: Vec<_> = r.points.iter().filter(|p| p.phase == "mixed").collect();
        if mixed.is_empty() {
            let why = "insolvent before mixed phase".to_string();
            t.row([r.config.label(), "—".to_string(), "—".to_string(), why]);
            continue;
        }
        let p99 = mixed.iter().map(|p| p.p99_ns).max().unwrap_or(0);
        let p999 = mixed.iter().map(|p| p.p999_ns).max().unwrap_or(0);
        let iops = mixed.iter().map(|p| p.iops).fold(f64::INFINITY, f64::min);
        t.row([
            r.config.label(),
            fmt_ns(p99),
            fmt_ns(p999),
            format!("{iops:.0}"),
        ]);
    }
    t
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    let preset = if short {
        AgingPreset::short()
    } else {
        AgingPreset::full()
    };
    let preset_name = if short { "short" } else { "full" };
    println!("# E16 — steady-state aging & GC debt ({preset_name} preset)");
    note("fill → zipfian overwrite (θ=0.9) → mixed 50/50; windowed WA, free-block debt, tail latency");

    let runs = run_campaign(&preset);

    section("16a — steady-state write amplification");
    note("WA measured after the fill; plateau = mean of the last 4 overwrite windows when flat within ±25%");
    let series = run_series();
    print!("{}", series.table(&runs).align(0, Align::Left));

    // over-provisioning buys the page map's WA down; the hybrid map's
    // log blocks outrun a 7 % spare share and the device goes insolvent
    let corner = |label: String| runs.iter().find(|r| r.config.label() == label);
    for gc in ["greedy", "costben"] {
        let wa = |op| corner(format!("page/{gc}/op{op}%")).map_or(f64::NAN, |r| r.final_wa);
        assert!(wa(28) < wa(7), "page/{gc}: WA {:.2} → {:.2}", wa(7), wa(28));
        let hybrid = corner(format!("hybrid/{gc}/op7%")).map(|r| r.insolvent_at);
        assert!(matches!(hybrid, Some(Some(_))), "hybrid/{gc}/op7%");
    }

    section("16b — GC debt (free-block deficit vs the post-fill pool)");
    print!("{}", debt_table(&runs));

    section("16c — the aged tail (mixed phase)");
    print!("{}", tail_table(&runs));

    section("Trajectories (JSON)");
    println!("```json");
    println!(
        "{{\"_regenerate\":\"cargo run --release -p requiem-bench --bin exp16_aging (deterministic; paste the trailing JSON block)\","
    );
    println!("\"preset\":\"{preset_name}\",\"window\":{},", preset.window);
    // one run per line
    let rows: Vec<String> = runs.iter().map(|r| series.json_row(r)).collect();
    println!("\"runs\":[\n{}]}}", rows.join(",\n"));
    println!("```");
}
