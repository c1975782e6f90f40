//! **E2 — Myth 1**: "SSDs behave as the non-volatile memory they contain."
//!
//! False: the device interposes a write buffer, an FTL, parallelism, and
//! background work between the host and the chips. This experiment puts
//! chip-datasheet numbers next to measured device-level behaviour, then
//! decomposes the device's internal traffic — the components of the
//! paper's Figure 2 at work.

use requiem_bench::{churned, fmt_ns, measure, modern_unbuffered, note, section};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::Table;
use requiem_ssd::{Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, IoMix};
use requiem_workload::pattern::Pattern;

fn main() {
    println!("# E2 — Myth 1: a device is not a chip");

    // ---- chip-level numbers (the datasheet) ----
    let flash = SsdConfig::modern().flash;
    section("Chip level (MLC datasheet values used by the model)");
    let mut tbl = Table::new(["operation", "latency"]).align(0, Align::Left);
    tbl.row([
        "page read (tR)".to_string(),
        format!("{}", flash.timing.read),
    ]);
    tbl.row([
        "page program fast/slow".to_string(),
        format!(
            "{} / {}",
            flash.timing.program_fast, flash.timing.program_slow
        ),
    ]);
    tbl.row([
        "block erase (tBERS)".to_string(),
        format!("{}", flash.timing.erase),
    ]);
    println!("{tbl}");

    // ---- device-level measured ----
    section("Device level (measured end-to-end, queue depth 1)");
    let mut tbl = Table::new(["operation", "device", "latency p50", "vs chip op"])
        .align(0, Align::Left)
        .align(1, Align::Left);

    // read on quiet device
    let mut ssd = Ssd::new(modern_unbuffered());
    let t = precondition_sequential(&mut ssd, 256, SimTime::ZERO);
    let r = measure(
        &mut ssd,
        Pattern::UniformRandom,
        256,
        IoMix::read_only(),
        1,
        128,
        1,
        t,
    );
    tbl.row([
        "read".to_string(),
        "modern (unbuffered)".to_string(),
        fmt_ns(r.latency.p50()),
        format!(
            "{:.2}x tR",
            r.latency.p50() as f64 / flash.timing.read.as_nanos() as f64
        ),
    ]);

    // write: unbuffered pays the program; buffered completes far below
    // any chip op
    for (device, cfg, seed) in [
        ("modern (unbuffered)", modern_unbuffered(), 2),
        ("modern (write-back buffer)", SsdConfig::modern(), 3),
    ] {
        let mut ssd = Ssd::new(cfg);
        let r = measure(
            &mut ssd,
            Pattern::Sequential,
            4096,
            IoMix::write_only(),
            1,
            128,
            seed,
            SimTime::ZERO,
        );
        let vs_prog = r.latency.p50() as f64 / flash.timing.program_mean().as_nanos() as f64;
        // a buffered write completes an order of magnitude below tPROG
        let buffered = ssd.config().buffer.capacity_pages > 0;
        assert!(!buffered || vs_prog < 0.1, "{vs_prog:.2}x tPROG");
        tbl.row([
            "write".to_string(),
            device.to_string(),
            fmt_ns(r.latency.p50()),
            format!("{vs_prog:.2}x tPROG"),
        ]);
    }
    println!("{tbl}");
    note("A buffered device write completes in a fraction of a chip program; an unbuffered one pays the program plus stack overheads. Neither equals the chip.");

    // ---- parallelism: bandwidth is an array property ----
    section("Bandwidth: one chip vs the array (sequential writes, QD 32)");
    let mut tbl = Table::new(["configuration", "MB/s", "speedup"]).align(0, Align::Left);
    let mut base_mbs = 0.0;
    for (label, channels, chips) in [("1 chip", 1u32, 1u32), ("8 channels x 4 chips", 8, 4)] {
        let mut cfg = modern_unbuffered();
        cfg.shape.channels = channels;
        cfg.shape.chips_per_channel = chips;
        let mut ssd = Ssd::new(cfg);
        let span = ssd.capacity().exported_pages;
        let r = measure(
            &mut ssd,
            Pattern::Sequential,
            span,
            IoMix::write_only(),
            32,
            2048,
            4,
            SimTime::ZERO,
        );
        if base_mbs == 0.0 {
            base_mbs = r.mb_per_s;
        }
        let speedup = r.mb_per_s / base_mbs;
        // the array outruns one chip by an order of magnitude
        assert!(channels == 1 || speedup > 10.0, "{label}: {speedup:.1}x");
        tbl.row([
            label.to_string(),
            format!("{:.1}", r.mb_per_s),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{tbl}");
    note("Nominal bandwidth needs the paper's 'tens of flash chips wired in parallel' — no single chip delivers it.");

    // ---- Figure 2 at work: who writes to flash? ----
    section("Breakdown: device-internal traffic under random churn");
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let (ssd, _) = churned(cfg, 5);
    let m = ssd.metrics();
    let mut tbl =
        Table::new(["flash traffic", "programs", "reads", "erases"]).align(0, Align::Left);
    tbl.row([
        "host (Scheduling & Mapping)".to_string(),
        format!("{}", m.flash_programs.host),
        format!("{}", m.flash_reads.host),
        format!("{}", m.flash_erases.host),
    ]);
    tbl.row([
        "garbage collection".to_string(),
        format!("{}", m.flash_programs.gc),
        format!("{}", m.flash_reads.gc),
        format!("{}", m.flash_erases.gc),
    ]);
    tbl.row([
        "wear leveling".to_string(),
        format!("{}", m.flash_programs.wear_level),
        format!("{}", m.flash_reads.wear_level),
        format!("{}", m.flash_erases.wear_level),
    ]);
    println!("{tbl}");
    println!(
        "write amplification: **{:.2}** (GC moved {} pages across {} runs)\n",
        m.write_amplification(),
        m.gc_pages_moved,
        m.gc_runs
    );
    note("The host issued writes only; the controller's GC and wear leveling generated the rest — traffic no chip datasheet predicts.");
}
