//! **E9 — §2.2 + Principle P3**: the block layer's CPU overhead was
//! invisible on disks and is structural on SSDs.
//!
//! Three measurements:
//! 1. software share of end-to-end latency, per device generation;
//! 2. interrupt vs polling completions (the low-latency-networking
//!    technique P3 imports);
//! 3. single-queue lock contention vs per-core queues (blk-mq), scaling
//!    over cores — the change the paper notes was "under implementation".

use requiem_bench::{note, section};
use requiem_block::{
    BackendOp, CompletionMode, CpuCosts, Disk, DiskConfig, IoRequest, IoStack, NullDevice,
    QueueMode, StackConfig,
};
use requiem_sim::table::Align;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::Table;
use requiem_ssd::{BufferConfig, Ssd, SsdConfig};
use requiem_workload::driver::precondition_sequential;

fn main() {
    println!("# E9 — block-layer overhead: disk-era invisibility, SSD-era tax");

    // ------------------------------------------------------------------
    section("Software share of end-to-end latency (single core, legacy single-queue path)");
    let mut tbl = Table::new([
        "device",
        "op",
        "device time p50",
        "end-to-end p50",
        "software share",
    ])
    .align(0, Align::Left)
    .align(1, Align::Left);

    // disk, random reads
    let mut stack = IoStack::new(StackConfig::legacy(1), Disk::new(DiskConfig::hdd_7200()));
    let mut t = SimTime::ZERO;
    let mut s = 99u64;
    for _ in 0..64 {
        s = (s.wrapping_mul(999983)) % (1 << 20);
        t = stack.submit(t, 0, IoRequest::read(s)).done;
    }
    let share = stack.software_share();
    assert!(share < 0.01, "the disk's software share is {share:.4}");
    tbl.row([
        "hdd-7200".to_string(),
        "random read".to_string(),
        format!(
            "{}",
            SimDuration::from_nanos(stack.latency().p50()) - stack.config().cpu.per_io_interrupt()
        ),
        format!("{}", SimDuration::from_nanos(stack.latency().p50())),
        format!("{:.2}%", share * 100.0),
    ]);

    // ssd, reads (unbuffered) and buffered writes
    for (label, op, buffered) in [
        ("flash-ssd", BackendOp::Read, false),
        ("flash-ssd (buffered)", BackendOp::Write, true),
    ] {
        let mut cfg = SsdConfig::modern();
        if !buffered {
            cfg.buffer = BufferConfig { capacity_pages: 0 };
        }
        let mut stack = IoStack::new(StackConfig::legacy(1), Ssd::new(cfg));
        // precondition some pages for reads
        let mut last = precondition_sequential(stack.backend_mut(), 64, SimTime::ZERO);
        for lpn in 0..64u64 {
            last = stack.submit(last, 0, IoRequest::new(op, lpn)).done;
        }
        let share = stack.software_share();
        // on a buffered SSD write the software path is a large share
        assert!(!buffered || share > 0.25, "{label}: {share:.3}");
        tbl.row([
            label.to_string(),
            format!("{op:?}").to_lowercase(),
            "-".to_string(),
            format!("{}", SimDuration::from_nanos(stack.latency().p50())),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    println!("{tbl}");
    note("Expected shape: on a 10ms disk the multi-µs software path is noise (<0.1%); on a 10µs buffered SSD write it is most of the latency — 'SSDs are no longer the bottleneck in terms of latency'.");

    // ------------------------------------------------------------------
    section("Disk-era vs streamlined path costs (per-I/O CPU time)");
    let mut tbl =
        Table::new(["path", "interrupt completions", "polling completions"]).align(0, Align::Left);
    for (name, c) in [
        ("disk-era (2.6-like)", CpuCosts::disk_era()),
        ("streamlined (blk-mq-like)", CpuCosts::streamlined()),
    ] {
        tbl.row([
            name.to_string(),
            format!("{}", c.per_io_interrupt()),
            format!("{}", c.per_io_polling()),
        ]);
    }
    println!("{tbl}");

    // ------------------------------------------------------------------
    section("Interrupt vs polling on a fast device (buffered writes, streamlined path)");
    let mut tbl = Table::new([
        "completion mode",
        "p50 latency",
        "IOPS (1 core)",
        "CPU per IO",
    ])
    .align(0, Align::Left);
    for mode in [CompletionMode::Interrupt, CompletionMode::Polling] {
        let cfg = StackConfig {
            completion: mode,
            ..StackConfig::blk_mq(1)
        };
        let mut stack = IoStack::new(cfg, Ssd::new(SsdConfig::modern()));
        let r = stack.run_per_core_loop(256, BackendOp::Write, |_, i| i % 2048, SimTime::ZERO);
        let cpu = match mode {
            CompletionMode::Interrupt => stack.config().cpu.per_io_interrupt(),
            CompletionMode::Polling => {
                stack.config().cpu.per_io_polling() + SimDuration::from_nanos(stack.latency().p50())
            }
        };
        tbl.row([
            format!("{mode:?}"),
            format!("{}", SimDuration::from_nanos(r.latency.p50())),
            format!("{:.0}", r.iops),
            format!("{cpu}"),
        ]);
    }
    println!("{tbl}");
    note("Polling removes the IRQ + context switch from the latency path and burns a core instead — the trade the networking community made first.");

    // ------------------------------------------------------------------
    section("Single queue vs per-core queues over cores (5µs null device, disk-era lock costs)");
    let mut tbl = Table::new(["cores", "single-queue IOPS", "multi-queue IOPS", "MQ/SQ"]);
    for cores in [1u32, 2, 4, 8, 16] {
        let dev = || NullDevice {
            latency: SimDuration::from_micros(5),
            pages: 1 << 20,
        };
        let mk = |mode| StackConfig {
            queue_mode: mode,
            completion: CompletionMode::Interrupt,
            cores,
            cpu: CpuCosts::disk_era(),
        };
        let iops = |mode| {
            let lba = |c: usize, i: u64| (c as u64) * 4096 + i;
            IoStack::new(mk(mode), dev())
                .run_per_core_loop(256, BackendOp::Write, lba, SimTime::ZERO)
                .iops
        };
        let (sq, mq) = (iops(QueueMode::Single), iops(QueueMode::PerCore));
        tbl.row([
            format!("{cores}"),
            format!("{sq:.0}"),
            format!("{mq:.0}"),
            format!("{:.2}x", mq / sq),
        ]);
    }
    println!("{tbl}");
    note("Expected shape: identical at 1 core; the shared queue's lock saturates around 1/lock-hold-time IOPS while per-core queues keep scaling — the blk-mq result.");
}
