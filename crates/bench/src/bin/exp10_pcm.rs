//! **E10 — §2.4**: PCM does not make the problems disappear.
//!
//! A PCM-based SSD (Onyx-style) removes the FTL mapping, garbage
//! collection and erases — and still has channels, banks, queueing, wear
//! leveling, and a latency/parallelism profile that rewards exactly the
//! same cross-layer thinking. And PCM on the memory bus changes the
//! persistence game entirely — for the synchronous traffic that fits it.

use requiem_bench::{closed_loop_iops, fmt_ns, measure, modern_unbuffered, note, section};
use requiem_pcm::ssd::PcmSsdConfig;
use requiem_pcm::{PcmDimm, PcmSsd, PcmTiming};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::{Histogram, Table};
use requiem_ssd::Ssd;
use requiem_workload::driver::{precondition_sequential, IoMix};
use requiem_workload::pattern::Pattern;

fn main() {
    println!("# E10 — PCM: better, not simple");

    // ------------------------------------------------------------------
    section("Latency ladder (4 KiB transfers, quiet devices)");
    let mut tbl = Table::new(["device / path", "read", "write"]).align(0, Align::Left);

    // flash ssd
    let mut ssd = Ssd::new(modern_unbuffered());
    let t = precondition_sequential(&mut ssd, 64, SimTime::ZERO);
    let r = measure(
        &mut ssd,
        Pattern::Sequential,
        64,
        IoMix::read_only(),
        1,
        32,
        1,
        t,
    );
    let mut ssd2 = Ssd::new(modern_unbuffered());
    let w = measure(
        &mut ssd2,
        Pattern::Sequential,
        4096,
        IoMix::write_only(),
        1,
        32,
        2,
        SimTime::ZERO,
    );
    tbl.row([
        "flash SSD (block interface)".to_string(),
        fmt_ns(r.latency.p50()),
        fmt_ns(w.latency.p50()),
    ]);

    // pcm ssd
    let mut pssd = PcmSsd::new(PcmSsdConfig::small());
    let mut rh = Histogram::new();
    let mut wh = Histogram::new();
    let mut t = SimTime::ZERO;
    for p in 0..32u64 {
        let d = pssd.write_page(t, p);
        wh.record_duration(d.latency);
        t = d.done;
    }
    for p in 0..32u64 {
        let d = pssd.read_page(t, p);
        rh.record_duration(d.latency);
        t = d.done;
    }
    tbl.row([
        "PCM SSD (block interface)".to_string(),
        fmt_ns(rh.p50()),
        fmt_ns(wh.p50()),
    ]);

    // pcm dimm
    let mut dimm = PcmDimm::new(1 << 20, PcmTiming::gen1(), 100);
    let t1 = dimm.persist(SimTime::ZERO, 0, &[0u8; 4096]);
    let (t2, _) = dimm.load(t1, 0, 4096);
    tbl.row([
        "PCM DIMM (memory bus, 4 KiB)".to_string(),
        format!("{}", t2.since(t1)),
        format!("{}", t1.since(SimTime::ZERO)),
    ]);
    let t3 = dimm.persist(t2, 8192, &[0u8; 128]);
    tbl.row([
        "PCM DIMM (memory bus, 128 B log record)".to_string(),
        "-".to_string(),
        format!("{}", t3.since(t2)),
    ]);
    println!("{tbl}");
    note("The ladder spans 3 orders of magnitude. Where data lands — and through which interface — matters more than what the cells are made of.");

    // ------------------------------------------------------------------
    section("Parallelism still required: PCM SSD IOPS vs queue depth");
    let mut tbl = Table::new(["queue depth", "read IOPS", "write IOPS"]);
    for qd in [1usize, 4, 16] {
        // closed loop over striped pages, a fresh device per direction
        let mut dev = PcmSsd::new(PcmSsdConfig::small());
        let w = closed_loop_iops(qd, 2048, SimTime::ZERO, |now, i| {
            dev.write_page(now, i % dev.total_pages()).done
        });
        let mut dev = PcmSsd::new(PcmSsdConfig::small());
        let r = closed_loop_iops(qd, 2048, SimTime::ZERO, |now, i| {
            dev.read_page(now, i % dev.total_pages()).done
        });
        tbl.row([format!("{qd}"), format!("{r:.0}"), format!("{w:.0}")]);
    }
    println!("{tbl}");
    note("No erases, no GC — and the device still needs queue depth to reach nominal bandwidth: banks and channels queue exactly like flash's LUNs and channels.");

    // ------------------------------------------------------------------
    section("Wear leveling still required: Start-Gap under a hot page");
    let mut tbl = Table::new(["configuration", "hot-slot writes", "total writes", "skew"])
        .align(0, Align::Left);
    for (label, gap_interval) in [
        // an interval no run reaches: effectively never rotates
        ("no wear leveling (gap frozen)", u64::MAX / 2),
        ("start-gap (rotate / 100 writes)", 100u64),
    ] {
        let mut cfg = PcmSsdConfig::small();
        cfg.pages_per_bank = 256;
        cfg.gap_interval = gap_interval;
        let mut dev = PcmSsd::new(cfg);
        let mut t = SimTime::ZERO;
        let n = 50_000u64;
        for _ in 0..n {
            let d = dev.write_page(t, 0);
            t = d.done;
        }
        let hot = dev.max_slot_writes();
        tbl.row([
            label.to_string(),
            format!("{hot}"),
            format!("{n}"),
            format!("{:.2}", hot as f64 / n as f64),
        ]);
    }
    println!("{tbl}");
    note("With 10^8-cycle endurance a frozen hot line dies in hours; Start-Gap spreads the damage for ~1% write overhead — management logic lives on inside the 'simple' device.");
}
