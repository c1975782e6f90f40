//! **E16 core** — steady-state aging & GC-debt campaign.
//!
//! Every other experiment in this workspace runs on a *young* device, so
//! the garbage-collection tax it measures is a lower bound (the paper's
//! Myth 2 is about what happens *later*). This module preconditions a
//! device to full and then drives it through a seeded multi-phase
//! workload long enough for write amplification to plateau:
//!
//! 1. **fill** — sequential write of every exported page (device maps
//!    100 % of its LBA space; free blocks sink to the GC threshold),
//! 2. **overwrite** — zipfian random overwrites (θ = 0.9), the
//!    locality-destroying phase that provokes steady-state GC,
//! 3. **mixed** — a 50/50 read/write OLTP-ish phase on the aged device,
//!    where reads queue behind the GC the write stream provokes.
//!
//! The campaign sweeps {page-mapped, hybrid} FTL × {greedy,
//! cost-benefit} GC × {7 %, 28 %} over-provisioning and samples, every
//! window of operations: windowed and cumulative write amplification,
//! the free-block pool, **GC debt** (the per-LUN free-block deficit
//! relative to the freshly-preconditioned pool, summed — the share of
//! the OP cushion the collector has burned and not won back), and the
//! window's p99/p99.9 latency.
//!
//! Everything is virtual-time deterministic: the binary's stdout is
//! double-run diffed in CI (short preset) and the full trajectory is
//! pinned in `golden/exp16_aging.txt`.

use crate::series::{Series, V};
use requiem_sim::time::SimTime;
use requiem_ssd::{ArrayShape, FtlKind, GcPolicyKind, Ssd, SsdConfig};
use requiem_workload::driver::{run_closed_loop, IoMix};
use requiem_workload::pattern::{AddressPattern, Pattern};

/// Base seed: every per-chunk RNG derives from this plus the chunk index.
pub const SEED: u64 = 16;

/// Campaign scale: the short preset exists so CI can double-run the
/// binary in seconds; the full preset is what `golden/exp16_aging.txt` pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgingPreset {
    /// Operations per sampling window.
    pub window: u64,
    /// Windows of zipfian overwrite after the fill.
    pub overwrite_windows: u64,
    /// Windows of mixed read/write traffic after the overwrites.
    pub mixed_windows: u64,
    /// Closed-loop queue depth.
    pub queue_depth: usize,
}

impl AgingPreset {
    /// Full campaign (the checked-in trajectory).
    pub fn full() -> Self {
        AgingPreset {
            window: 4096,
            overwrite_windows: 24,
            mixed_windows: 12,
            queue_depth: 8,
        }
    }

    /// CI preset: same shape, small enough to double-run in seconds.
    pub fn short() -> Self {
        AgingPreset {
            window: 512,
            overwrite_windows: 6,
            mixed_windows: 4,
            queue_depth: 4,
        }
    }
}

/// One corner of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingConfig {
    /// FTL mapping scheme.
    pub ftl: FtlKind,
    /// GC victim-selection policy.
    pub gc: GcPolicyKind,
    /// Over-provisioning ratio.
    pub op_ratio: f64,
}

impl AgingConfig {
    /// Stable label, used in tables and JSON.
    pub fn label(&self) -> String {
        let ftl = match self.ftl {
            FtlKind::PageMap => "page",
            FtlKind::Hybrid { .. } => "hybrid",
            _ => "other",
        };
        let gc = match self.gc {
            GcPolicyKind::Greedy => "greedy",
            GcPolicyKind::CostBenefit => "costben",
        };
        format!("{ftl}/{gc}/op{:.0}%", self.op_ratio * 100.0)
    }
}

/// The eight-corner sweep matrix, in deterministic order.
pub fn matrix() -> Vec<AgingConfig> {
    let mut out = Vec::new();
    for ftl in [FtlKind::PageMap, FtlKind::Hybrid { log_blocks: 8 }] {
        for gc in [GcPolicyKind::Greedy, GcPolicyKind::CostBenefit] {
            for op_ratio in [0.07, 0.28] {
                out.push(AgingConfig {
                    ftl: ftl.clone(),
                    gc,
                    op_ratio,
                });
            }
        }
    }
    out
}

/// The aging device: 2 channels × 2 chips of small-block flash so the
/// fill phase is cheap and GC pressure arrives within the run. No write
/// buffer — every host write reaches flash and is counted.
pub fn device(c: &AgingConfig) -> SsdConfig {
    let mut cfg = SsdConfig {
        shape: ArrayShape {
            channels: 2,
            chips_per_channel: 2,
            luns_per_chip: 1,
        },
        ftl: c.ftl.clone(),
        op_ratio: c.op_ratio,
        // the ONFI-2 bus, round-robin placement and no write buffer
        ..SsdConfig::figure1()
    };
    // 128 small blocks per LUN (2 planes × 64): the same ratio that lets
    // the BAST hybrid's 8 log blocks fit inside a 7 % OP share, while
    // keeping the fill phase cheap.
    cfg.flash.geometry = requiem_flash::Geometry::new(2, 64, 16, 4096);
    cfg.gc.policy = c.gc;
    cfg
}

/// One sampled point of an aging trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingPoint {
    /// Phase name ("overwrite" or "mixed"); the fill is not sampled.
    pub phase: &'static str,
    /// Host operations completed since the fill ended.
    pub ops: u64,
    /// Write amplification over this window alone.
    pub wa_window: f64,
    /// Cumulative write amplification since the fill ended.
    pub wa_cum: f64,
    /// Free blocks across all LUNs at the window edge.
    pub free_blocks: u32,
    /// GC debt: Σ per LUN of max(0, post-fill free − free now) — the
    /// consumed share of the OP cushion the collector owes back.
    pub gc_debt: u32,
    /// GC invocations during this window.
    pub gc_runs: u64,
    /// Full + switch merges during this window (hybrid's reclaim path).
    pub merges: u64,
    /// Window p99 latency (ns).
    pub p99_ns: u64,
    /// Window p99.9 latency (ns).
    pub p999_ns: u64,
    /// Window throughput (virtual-time IOPS).
    pub iops: f64,
}

/// A full trajectory for one matrix corner.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingRun {
    /// The corner.
    pub config: AgingConfig,
    /// Exported pages (the working-set span).
    pub exported_pages: u64,
    /// Sampled trajectory, fill excluded.
    pub points: Vec<AgingPoint>,
    /// Cumulative WA at the end of the run (fill excluded).
    pub final_wa: f64,
    /// If the device went insolvent (a write found no usable space —
    /// the hybrid merge-storm failure mode on thin OP), the aged-phase
    /// operation count at which it happened.
    pub insolvent_at: Option<u64>,
    /// Steady-state plateau WA (mean over the plateau tail), if reached.
    pub plateau_wa: Option<f64>,
    /// Peak GC debt observed at any window edge.
    pub peak_gc_debt: u32,
    /// Total GC runs over the aged phases.
    pub gc_runs: u64,
    /// Total merges over the aged phases.
    pub merges: u64,
}

/// Counters snapshotted at window edges to form deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    host_writes: u64,
    programs: u64,
    gc_runs: u64,
    merges: u64,
}

fn snap(ssd: &Ssd) -> Snap {
    let m = ssd.metrics();
    Snap {
        host_writes: m.host_writes,
        programs: m.flash_programs.total(),
        gc_runs: m.gc_runs,
        merges: m.merges_full + m.merges_switch,
    }
}

/// Free-block total and GC debt. Debt is the per-LUN free-block deficit
/// relative to the freshly-preconditioned pool (`baseline`), summed: how
/// much of its OP cushion the device has burned and the collector has
/// not yet won back. A steady-state collector holds debt flat; a losing
/// one (the hybrid merge storm) rides it to insolvency.
fn debt(ssd: &Ssd, baseline: &[u32]) -> (u32, u32) {
    let per_lun = ssd.free_blocks_per_lun();
    let free: u32 = per_lun.iter().sum();
    let debt = per_lun
        .iter()
        .zip(baseline)
        .map(|(&f, &b)| b.saturating_sub(f))
        .sum::<u32>();
    (free, debt)
}

/// Detect a WA plateau: the run reached steady state when the last
/// `tail` overwrite-phase windows all sit within ±`band` (relative) of
/// their mean. Returns that mean.
pub fn plateau(points: &[AgingPoint], tail: usize, band: f64) -> Option<f64> {
    let over: Vec<&AgingPoint> = points.iter().filter(|p| p.phase == "overwrite").collect();
    if over.len() < tail || tail == 0 {
        return None;
    }
    let last = &over[over.len() - tail..];
    let mean = last.iter().map(|p| p.wa_window).sum::<f64>() / tail as f64;
    if mean <= 0.0 {
        return None;
    }
    let ok = last
        .iter()
        .all(|p| ((p.wa_window - mean) / mean).abs() <= band);
    ok.then_some(mean)
}

/// Run one matrix corner to completion.
pub fn run_corner(c: &AgingConfig, preset: &AgingPreset) -> AgingRun {
    let mut ssd = Ssd::new(device(c));
    let pages = ssd.capacity().exported_pages;

    // Phase 1: sequential fill — precondition the device to 100 % mapped.
    // Not sampled: WA during the fill is 1.0 by construction.
    let fill = run_closed_loop(
        &mut ssd,
        &mut AddressPattern::new(Pattern::Sequential, pages, SEED),
        IoMix::write_only(),
        preset.queue_depth,
        pages,
        SEED,
        SimTime::ZERO,
    );
    assert!(
        fill.refused_at.is_none(),
        "sequential fill must fit the LBA space"
    );
    let mut t = SimTime::ZERO + fill.makespan;
    // debt reference: the free pool of the freshly-preconditioned device
    let baseline_free = ssd.free_blocks_per_lun();

    // Aged phases share one zipfian overwrite stream and one mixed
    // stream; each window is a closed loop continuing the clock. A hybrid
    // FTL on thin over-provisioning can run a LUN out of usable space
    // under sustained random overwrite (the merge-storm insolvency this
    // experiment exists to measure): the window's loop stops at the
    // refused write, and the campaign ends there.
    let mut over_pat = AddressPattern::new(Pattern::Zipfian { theta: 0.9 }, pages, SEED ^ 0xA5);
    let mut mixed_pat = AddressPattern::new(Pattern::Zipfian { theta: 0.99 }, pages, SEED ^ 0x5A);

    let base = snap(&ssd);
    let mut prev = base;
    let mut points = Vec::new();
    let mut ops_done = 0u64;
    let mut peak_debt = 0u32;

    let mut insolvent_at = None;
    let phases: [(&'static str, u64); 2] = [
        ("overwrite", preset.overwrite_windows),
        ("mixed", preset.mixed_windows),
    ];
    'campaign: for (phase, windows) in phases {
        for w in 0..windows {
            let (pattern, mix) = match phase {
                "overwrite" => (&mut over_pat, IoMix::write_only()),
                _ => (&mut mixed_pat, IoMix::mixed(0.5)),
            };
            let chunk = run_closed_loop(
                &mut ssd,
                pattern,
                mix,
                preset.queue_depth,
                preset.window,
                SEED.wrapping_add(w * 31).wrapping_add(ops_done),
                t,
            );
            t += chunk.makespan;
            ops_done += chunk.ops;

            let cur = snap(&ssd);
            let dw = cur.host_writes - prev.host_writes;
            let dp = cur.programs - prev.programs;
            let cw = cur.host_writes - base.host_writes;
            let cp = cur.programs - base.programs;
            let (free, gc_debt) = debt(&ssd, &baseline_free);
            peak_debt = peak_debt.max(gc_debt);
            points.push(AgingPoint {
                phase,
                ops: ops_done,
                wa_window: if dw == 0 { 0.0 } else { dp as f64 / dw as f64 },
                wa_cum: if cw == 0 { 0.0 } else { cp as f64 / cw as f64 },
                free_blocks: free,
                gc_debt,
                gc_runs: cur.gc_runs - prev.gc_runs,
                merges: cur.merges - prev.merges,
                p99_ns: chunk.latency.p99(),
                p999_ns: chunk.latency.quantile(0.999),
                iops: chunk.iops,
            });
            prev = cur;
            if chunk.refused_at.is_some() {
                insolvent_at = Some(ops_done);
                break 'campaign;
            }
        }
    }

    let end = snap(&ssd);
    let cw = end.host_writes - base.host_writes;
    let cp = end.programs - base.programs;
    AgingRun {
        config: c.clone(),
        exported_pages: pages,
        final_wa: if cw == 0 { 0.0 } else { cp as f64 / cw as f64 },
        insolvent_at,
        plateau_wa: plateau(&points, 4, 0.25),
        peak_gc_debt: peak_debt,
        gc_runs: end.gc_runs - base.gc_runs,
        merges: end.merges - base.merges,
        points,
    }
}

/// Run the whole campaign in matrix order.
pub fn run_campaign(preset: &AgingPreset) -> Vec<AgingRun> {
    matrix().iter().map(|c| run_corner(c, preset)).collect()
}

/// What is reported per sampled window: the fields of a run's
/// `trajectory` (floats at fixed precision, so byte-stable).
fn point_series<'a>() -> Series<'a, AgingPoint> {
    Series::new()
        .json_only("phase", |p: &AgingPoint| V::Label(p.phase.into()))
        .json_only("ops", |p| V::Count(p.ops))
        .json_only("wa_window", |p| V::Float(p.wa_window, 2, 3))
        .json_only("wa_cum", |p| V::Float(p.wa_cum, 2, 3))
        .json_only("free_blocks", |p| V::Count(p.free_blocks.into()))
        .json_only("gc_debt", |p| V::Count(p.gc_debt.into()))
        .json_only("gc_runs", |p| V::Count(p.gc_runs))
        .json_only("merges", |p| V::Count(p.merges))
        .json_only("p99_ns", |p| V::Ns(p.p99_ns))
        .json_only("p999_ns", |p| V::Ns(p.p999_ns))
        .json_only("iops", |p| V::Float(p.iops, 0, 0))
}

/// What is reported per run: E16a's steady-state table and the JSON
/// object `golden/exp16_aging.txt` pins.
pub fn run_series<'a>() -> Series<'a, AgingRun> {
    Series::new()
        .col("config", "config", |r: &AgingRun| {
            V::Label(r.config.label())
        })
        .col("exported", "exported_pages", |r| V::Count(r.exported_pages))
        .col("final WA", "final_wa", |r| V::Float(r.final_wa, 2, 3))
        .col("plateau WA", "plateau_wa", |r| {
            r.plateau_wa.map_or(V::Missing, |v| V::Float(v, 2, 3))
        })
        .table_only("outcome", |r| {
            V::Label(match (r.insolvent_at, r.plateau_wa) {
                (Some(at), _) => format!("insolvent@{at}"),
                (None, Some(_)) => "steady".to_string(),
                (None, None) => "no plateau".to_string(),
            })
        })
        .json_only("insolvent_at", |r| {
            r.insolvent_at.map_or(V::Missing, V::Count)
        })
        .json_only("peak_gc_debt", |r| V::Count(r.peak_gc_debt.into()))
        .col("GC runs", "gc_runs", |r| V::Count(r.gc_runs))
        .col("merges", "merges", |r| V::Count(r.merges))
        .json_only("trajectory", |r| V::Raw(point_series().json(&r.points)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_the_eight_corner_sweep() {
        let m = matrix();
        assert_eq!(m.len(), 8);
        let labels: Vec<String> = m.iter().map(AgingConfig::label).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup, "matrix labels must be unique");
        assert_eq!(labels[0], "page/greedy/op7%");
        assert_eq!(labels[7], "hybrid/costben/op28%");
    }

    #[test]
    fn plateau_accepts_flat_tails_and_rejects_ramps() {
        let mk = |wa: &[f64]| -> Vec<AgingPoint> {
            wa.iter()
                .map(|&w| AgingPoint {
                    phase: "overwrite",
                    ops: 0,
                    wa_window: w,
                    wa_cum: w,
                    free_blocks: 0,
                    gc_debt: 0,
                    gc_runs: 0,
                    merges: 0,
                    p99_ns: 0,
                    p999_ns: 0,
                    iops: 0.0,
                })
                .collect()
        };
        let flat = mk(&[1.0, 2.0, 3.0, 3.1, 2.9, 3.0]);
        assert!(plateau(&flat, 4, 0.25).is_some());
        let ramp = mk(&[1.0, 1.5, 2.0, 3.0, 4.5, 7.0]);
        assert!(plateau(&ramp, 4, 0.25).is_none());
    }
}
