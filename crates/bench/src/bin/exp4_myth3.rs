//! **E4 — Myth 3**: "reads are cheaper than writes."
//!
//! True at the chip, not at the device. Three mechanisms, each measured:
//!
//! 1. reads cannot hide behind a cache and stall behind garbage-collection
//!    erases on their LUN (*"wait 3 ms for the completion of an erase"*);
//! 2. read parallelism exists only if earlier writes spread the data
//!    across LUNs — the reader has no control over this;
//! 3. reads are channel-bound, writes are chip-bound, and channel
//!    parallelism is the scarcer resource.

use requiem_bench::{closed_loop_iops, fmt_ns, measure, modern_unbuffered, note, section};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::{Probe, Table};
use requiem_ssd::{Lpn, Placement, Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, run_closed_loop, IoMix};
use requiem_workload::pattern::{AddressPattern, Pattern};

fn main() {
    println!("# E4 — Myth 3: reads are not cheaper than writes at the device level");

    // ------------------------------------------------------------------
    section("4a. Read latency under concurrent write/GC traffic");
    // small device so churn triggers GC quickly
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let mut tbl =
        Table::new(["workload", "read p50", "read p99", "read max"]).align(0, Align::Left);

    // baseline: pure reads
    let mut ssd = Ssd::new(cfg.clone());
    let pages = ssd.capacity().exported_pages;
    let t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
    let r = measure(
        &mut ssd,
        Pattern::UniformRandom,
        pages,
        IoMix::read_only(),
        4,
        2048,
        1,
        t,
    );
    tbl.row([
        "pure random reads".to_string(),
        fmt_ns(r.latency.p50()),
        fmt_ns(r.latency.p99()),
        fmt_ns(r.latency.max()),
    ]);

    // mixed: reads share LUNs with a write stream that triggers GC
    let mut ssd = Ssd::new(cfg.clone());
    let probe = Probe::new();
    ssd.attach_probe(probe.clone());
    let t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
    // churn first so the device is GC-active, then measure a 50/50 mix
    let _ = measure(
        &mut ssd,
        Pattern::UniformRandom,
        pages,
        IoMix::write_only(),
        4,
        pages,
        2,
        t,
    );
    let t = ssd.drain_time();
    let _ = measure(
        &mut ssd,
        Pattern::UniformRandom,
        pages,
        IoMix::mixed(0.5),
        8,
        4096,
        3,
        t,
    );
    // extract read-side tail from device metrics (reads recorded separately)
    let m = ssd.metrics();
    tbl.row([
        "reads amid writes + GC".to_string(),
        fmt_ns(m.read_latency.p50()),
        fmt_ns(m.read_latency.p99()),
        fmt_ns(m.read_latency.max()),
    ]);
    println!("{tbl}");
    println!(
        "time reads spent waiting for a busy LUN: p99 = {}, max = {} (erase tBERS = 3ms)\n",
        fmt_ns(m.read_lun_wait.p99()),
        fmt_ns(m.read_lun_wait.max()),
    );
    note("Expected shape: p50 barely moves; the tail inflates by an order of magnitude as reads queue behind programs and multi-ms erases.");

    section("4a'. Probe summary (JSON) — where the mixed workload's time went");
    note("gc_stall / merge_stall buckets are exactly the interference the block interface cannot report; cell_erase time is background (never on a command's critical path) yet shows up as the stalls above.");
    println!("```json\n{}\n```", probe.summary().to_json());

    // ------------------------------------------------------------------
    section("4b. Read parallelism depends on where earlier writes landed");
    let mut tbl = Table::new(["data placement", "read IOPS", "speedup"]).align(0, Align::Left);
    let mut base = 0.0;
    for (label, placement, span_mult) in [
        (
            "all data on one LUN (static, congruent LBAs)",
            Placement::StaticByLpn,
            true,
        ),
        (
            "data striped across LUNs (dynamic)",
            Placement::LeastLoaded,
            false,
        ),
    ] {
        let mut cfg = modern_unbuffered();
        cfg.placement = placement;
        let nluns = cfg.total_luns() as u64;
        let mut ssd = Ssd::new(cfg);
        // write 256 pages; under StaticByLpn use congruent addresses so
        // they all land on LUN 0
        let addrs: Vec<u64> = if span_mult {
            (0..256u64).map(|i| i * nluns).collect()
        } else {
            (0..256u64).collect()
        };
        let mut t = SimTime::ZERO;
        for &a in &addrs {
            t = ssd.write(t, Lpn(a)).expect("write").done;
        }
        let t = ssd.drain_time();
        // read them back at queue depth 16, cycling over the list
        let iops = closed_loop_iops(16, 1024, t, |now, i| {
            let lpn = Lpn(addrs[i as usize % addrs.len()]);
            ssd.read(now, lpn).expect("read").done
        });
        if base == 0.0 {
            base = iops;
        }
        tbl.row([
            label.to_string(),
            format!("{iops:.0}"),
            format!("{:.1}x", iops / base),
        ]);
    }
    println!("{tbl}");
    note("Same read workload, same device — only the *write-time* placement differs. 'Reads will benefit from parallelism only if the corresponding writes have been directed to different LUNs.'");

    // ------------------------------------------------------------------
    section(
        "4c. Reads are channel-bound, writes are chip-bound (chips-per-channel sweep, 1 channel)",
    );
    let mut tbl = Table::new(["chips on the channel", "read IOPS", "write IOPS"]);
    for chips in [1u32, 2, 4, 8] {
        // Figure 1's slow shared bus, where the bound bites
        let mut cfg = SsdConfig::figure1();
        cfg.shape.chips_per_channel = chips;
        // reads
        let mut ssd = Ssd::new(cfg.clone());
        let t = precondition_sequential(&mut ssd, 512, SimTime::ZERO);
        let mut pat = AddressPattern::new(Pattern::Sequential, 512, 1);
        let rr = run_closed_loop(&mut ssd, &mut pat, IoMix::read_only(), 16, 512, 1, t);
        // writes
        let mut ssd = Ssd::new(cfg);
        let span = ssd.capacity().exported_pages;
        let mut pat = AddressPattern::new(Pattern::Sequential, span, 2);
        let rw = run_closed_loop(
            &mut ssd,
            &mut pat,
            IoMix::write_only(),
            16,
            512,
            2,
            SimTime::ZERO,
        );
        tbl.row([
            format!("{chips}"),
            format!("{:.0}", rr.iops),
            format!("{:.0}", rw.iops),
        ]);
    }
    println!("{tbl}");
    note("Expected shape: read IOPS flatlines once the shared channel saturates (~1 chip's worth of transfers); write IOPS keeps scaling with chips because programs dominate and overlap.");
}
