//! **E1 — Figure 1**: four parallel reads are channel-bound; four parallel
//! writes are chip-bound.
//!
//! Reconstructs the paper's Figure 1: four chips (1 LUN each) on one
//! shared channel. Four reads issued together serialize on the channel's
//! data-out transfers; four writes overlap their (long) programs after
//! short data-in transfers. The ASCII timing charts below are the figure,
//! drawn from each burst's recording probe (`requiem_bench::gantt`); the
//! utilization table quantifies "channel-bound" vs "chip-bound", and a
//! sustained run shows the resulting bandwidth ceilings.

use requiem_bench::{bound_by, gantt, note, section, BusyWindow};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::{Probe, Table};
use requiem_ssd::{Lpn, Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, run_closed_loop, IoMix};
use requiem_workload::pattern::{AddressPattern, Pattern};

fn main() {
    println!("# E1 — Figure 1: channel-bound reads vs chip-bound writes");
    note("4 chips (1 LUN each) share one channel. Glyphs: R=page read, P=page program, E=erase (chip lanes); t=data transfer (channel lane).");

    // ---- four parallel writes (chip-bound) ----
    section("Four parallel writes");
    let mut ssd = Ssd::new(SsdConfig::figure1());
    let wr_probe = Probe::recording();
    ssd.attach_probe(wr_probe.clone());
    for lpn in 0..4u64 {
        ssd.write(SimTime::ZERO, Lpn(lpn)).expect("write");
    }
    let wr_makespan = ssd.drain_time();
    let chart = gantt::render(&wr_probe.events_ref(), SimTime::ZERO, 100);
    println!("```text\n{chart}```");
    let wr_chan = ssd.channel_utilization(wr_makespan)[0];
    let wr_chips = ssd.lun_utilization(wr_makespan);
    let wr_chip_mean = wr_chips.iter().sum::<f64>() / wr_chips.len() as f64;

    // ---- four parallel reads (channel-bound) ----
    section("Four parallel reads");
    let mut ssd = Ssd::new(SsdConfig::figure1());
    // place one page on each chip, quiesce, then read them back together
    let t0 = precondition_sequential(&mut ssd, 4, SimTime::ZERO);
    let busy = BusyWindow::open(&ssd, t0);
    let rd_probe = Probe::recording();
    ssd.attach_probe(rd_probe.clone());
    for lpn in 0..4u64 {
        ssd.read(t0, Lpn(lpn)).expect("read");
    }
    let rd_makespan = ssd.drain_time();
    let chart = gantt::render(&rd_probe.events_ref(), t0, 100);
    println!("```text\n{chart}```");
    let window = rd_makespan.since(t0);
    let (rd_chan, rd_chip_mean) = busy.close(&ssd);

    section("Utilization (burst of four)");
    let mut tbl = Table::new([
        "pattern",
        "makespan",
        "channel util",
        "mean chip util",
        "bound by",
    ])
    .align(0, Align::Left)
    .align(4, Align::Left);
    tbl.row([
        "4 parallel reads".to_string(),
        format!("{window}"),
        format!("{:.0}%", rd_chan * 100.0),
        format!("{:.0}%", rd_chip_mean * 100.0),
        bound_by(rd_chan, rd_chip_mean).to_string(),
    ]);
    tbl.row([
        "4 parallel writes".to_string(),
        format!("{wr_makespan}"),
        format!("{:.0}%", wr_chan * 100.0),
        format!("{:.0}%", wr_chip_mean * 100.0),
        bound_by(wr_chan, wr_chip_mean).to_string(),
    ]);
    println!("{tbl}");

    // ---- sustained: the bandwidth ceilings the bounds imply ----
    section("Sustained throughput (queue depth 16, 512 ops)");
    let mut tbl = Table::new(["workload", "IOPS", "MB/s", "channel util", "mean chip util"])
        .align(0, Align::Left);
    // reads over a preconditioned span; writes onto the fresh device
    for (label, mix, filled, span, seed) in [
        ("reads", IoMix::read_only(), 512, 512, 1),
        ("writes", IoMix::write_only(), 0, 2048, 2),
    ] {
        let mut ssd = Ssd::new(SsdConfig::figure1());
        let t0 = precondition_sequential(&mut ssd, filled, SimTime::ZERO);
        let busy = BusyWindow::open(&ssd, t0);
        let mut pat = AddressPattern::new(Pattern::Sequential, span, seed);
        let r = run_closed_loop(&mut ssd, &mut pat, mix, 16, 512, seed, t0);
        let (cu, lu) = busy.close(&ssd);
        // reads saturate the channel while chips idle; writes the reverse
        let holds = match label {
            "reads" => cu > 0.9 && lu < 0.3,
            _ => lu > 0.9 && cu < 0.6,
        };
        assert!(holds, "{label}: channel {cu:.2}, chips {lu:.2}");
        tbl.row([
            label.to_string(),
            format!("{:.0}", r.iops),
            format!("{:.1}", r.mb_per_s),
            format!("{:.0}%", cu * 100.0),
            format!("{:.0}%", lu * 100.0),
        ]);
    }
    println!("{tbl}");
    note("Expected shape (paper, Figure 1): reads saturate the shared channel while chips idle; writes saturate the chips while the channel idles.");

    // ---- machine-readable span decomposition of the two bursts ----
    section("Probe summary (JSON)");
    note("Per-(layer, cause) attributed time for each burst of four — the same channel-vs-chip asymmetry, as data instead of a picture.");
    println!("```json");
    println!(
        "{{\"four_parallel_writes\":{},",
        wr_probe.summary().to_json()
    );
    println!("\"four_parallel_reads\":{}}}", rd_probe.summary().to_json());
    println!("```");
}
