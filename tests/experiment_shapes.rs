//! Regression harness for the paper's claims: every headline experiment
//! *shape* in EXPERIMENTS.md is asserted here, so a refactor that silently
//! breaks the reproduction fails CI.

use requiem::iface::atomic::{double_write_journal, ExtendedSsd};
use requiem::pcm::{PcmDimm, PcmTiming};
use requiem::sim::time::SimTime;
use requiem::ssd::{BufferConfig, Lpn, Placement, Ssd, SsdConfig};
use requiem::workload::driver::{precondition_sequential, run_closed_loop, IoMix};
use requiem::workload::pattern::{AddressPattern, Pattern};

fn unbuffered() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg
}

/// E1 / Figure 1: sustained reads are channel-bound, writes chip-bound.
#[test]
fn e1_reads_channel_bound_writes_chip_bound() {
    let cfg = SsdConfig::figure1();
    // reads
    let mut ssd = Ssd::new(cfg.clone());
    let t = precondition_sequential(&mut ssd, 512, SimTime::ZERO);
    let cb = ssd.channel_busy_time()[0];
    let lb: u64 = ssd.lun_busy_time().iter().map(|d| d.as_nanos()).sum();
    let mut pat = AddressPattern::new(Pattern::Sequential, 512, 1);
    run_closed_loop(&mut ssd, &mut pat, IoMix::read_only(), 16, 512, 1, t);
    let window = ssd.drain_time().since(t).as_nanos() as f64;
    let chan_util = (ssd.channel_busy_time()[0].as_nanos() - cb.as_nanos()) as f64 / window;
    let chips_util = (ssd
        .lun_busy_time()
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>()
        - lb) as f64
        / 4.0
        / window;
    assert!(chan_util > 0.9, "reads: channel util {chan_util}");
    assert!(chips_util < 0.3, "reads: chip util {chips_util}");

    // writes
    let mut ssd = Ssd::new(cfg);
    let mut pat = AddressPattern::new(Pattern::Sequential, 2048, 2);
    run_closed_loop(
        &mut ssd,
        &mut pat,
        IoMix::write_only(),
        16,
        512,
        2,
        SimTime::ZERO,
    );
    let window = ssd.drain_time().since(SimTime::ZERO).as_nanos() as f64;
    let chan_util = ssd.channel_busy_time()[0].as_nanos() as f64 / window;
    let chips_util = ssd
        .lun_busy_time()
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>() as f64
        / 4.0
        / window;
    assert!(chips_util > 0.9, "writes: chip util {chips_util}");
    assert!(chan_util < 0.6, "writes: channel util {chan_util}");
}

/// E2 / myth 1: a buffered device write completes far below tPROG; the
/// array outperforms a single chip by an order of magnitude.
#[test]
fn e2_device_is_not_a_chip() {
    let mut ssd = Ssd::new(SsdConfig::modern());
    let w = ssd.write(SimTime::ZERO, Lpn(0)).unwrap();
    let tprog = SsdConfig::modern().flash.timing.program_mean();
    assert!(w.latency.as_nanos() * 10 < tprog.as_nanos());

    let run_bw = |channels: u32, chips: u32| -> f64 {
        let mut cfg = unbuffered();
        cfg.shape.channels = channels;
        cfg.shape.chips_per_channel = chips;
        let mut ssd = Ssd::new(cfg);
        let span = ssd.capacity().exported_pages;
        let mut pat = AddressPattern::new(Pattern::Sequential, span, 1);
        run_closed_loop(
            &mut ssd,
            &mut pat,
            IoMix::write_only(),
            32,
            1024,
            1,
            SimTime::ZERO,
        )
        .mb_per_s
    };
    assert!(run_bw(8, 4) > 10.0 * run_bw(1, 1));
}

/// E3 / myth 2: random/sequential write ratio per device generation.
#[test]
fn e3_random_write_parity_is_generational() {
    let ratio = |cfg: SsdConfig| -> f64 {
        let mut rates = Vec::new();
        for pattern in [Pattern::Sequential, Pattern::UniformRandom] {
            let mut ssd = Ssd::new(cfg.clone());
            let span = ssd.capacity().exported_pages / 4;
            let t = precondition_sequential(&mut ssd, span, SimTime::ZERO);
            let mut pat = AddressPattern::new(pattern, span, 1);
            let r = run_closed_loop(&mut ssd, &mut pat, IoMix::write_only(), 4, 1024, 1, t);
            rates.push(r.mb_per_s);
        }
        rates[1] / rates[0]
    };
    assert!(
        ratio(SsdConfig::circa_2009_hybrid()) < 0.25,
        "2009 hybrid must collapse under random writes"
    );
    assert!(
        ratio(SsdConfig::circa_2009_block()) < 0.5,
        "2009 block map must degrade under random writes"
    );
    let modern = ratio(SsdConfig::modern());
    assert!(
        modern > 0.8,
        "modern page-mapped device must reach parity, got {modern}"
    );
}

/// E3c: sustained random churn amplifies writes; sequential does not.
#[test]
fn e3c_random_churn_raises_write_amplification() {
    let wa = |pattern: Pattern| -> f64 {
        let mut cfg = unbuffered();
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
        let mut pat = AddressPattern::new(pattern, pages, 3);
        run_closed_loop(&mut ssd, &mut pat, IoMix::write_only(), 4, 3 * pages, 3, t);
        ssd.metrics().write_amplification()
    };
    let seq = wa(Pattern::Sequential);
    let rnd = wa(Pattern::UniformRandom);
    assert!(seq < 1.1, "sequential churn WA {seq}");
    assert!(rnd > 1.5, "random churn WA {rnd}");
}

/// E4 / myth 3: read tail inflates amid writes; placement gates
/// read parallelism.
#[test]
fn e4_reads_suffer_at_the_device_level() {
    // (a) tail inflation
    let mut cfg = unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let mut quiet = Ssd::new(cfg.clone());
    let pages = quiet.capacity().exported_pages;
    let t = precondition_sequential(&mut quiet, pages, SimTime::ZERO);
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 1);
    let base = run_closed_loop(&mut quiet, &mut pat, IoMix::read_only(), 4, 1024, 1, t);

    let mut noisy = Ssd::new(cfg);
    let t = precondition_sequential(&mut noisy, pages, SimTime::ZERO);
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 2);
    run_closed_loop(&mut noisy, &mut pat, IoMix::write_only(), 4, pages, 2, t);
    let t = noisy.drain_time();
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 3);
    run_closed_loop(&mut noisy, &mut pat, IoMix::mixed(0.5), 8, 2048, 3, t);
    let noisy_p99 = noisy.metrics().read_latency.p99();
    assert!(
        noisy_p99 > 5 * base.latency.p99(),
        "read p99 should inflate: quiet {} noisy {}",
        base.latency.p99(),
        noisy_p99
    );

    // (b) placement gates parallelism
    let mut striped = Ssd::new(unbuffered());
    let nluns = striped.config().total_luns() as u64;
    let mut one_lun = Ssd::new(SsdConfig {
        placement: Placement::StaticByLpn,
        ..unbuffered()
    });
    let mut t1 = SimTime::ZERO;
    let mut t2 = SimTime::ZERO;
    for i in 0..128u64 {
        t1 = striped.write(t1, Lpn(i)).unwrap().done;
        t2 = one_lun.write(t2, Lpn(i * nluns)).unwrap().done;
    }
    let (mut d1, mut d2) = (striped.drain_time(), one_lun.drain_time());
    let start1 = d1;
    let start2 = d2;
    for i in 0..256u64 {
        d1 = d1.max(striped.read(start1, Lpn(i % 128)).unwrap().done);
        d2 = d2.max(one_lun.read(start2, Lpn((i % 128) * nluns)).unwrap().done);
    }
    let striped_span = d1.since(start1);
    let one_lun_span = d2.since(start2);
    assert!(
        striped_span.as_nanos() * 3 < one_lun_span.as_nanos(),
        "striped {striped_span} vs one-lun {one_lun_span}"
    );
}

/// E4a / myth 3 without the bus artifact: E4's scenario (pure random
/// reads against reads amid writes and GC on a small unbuffered device)
/// with the probe on. The read tail inflates by an order of magnitude —
/// the paper's claim — and it is the chips that inflate it: a read-out
/// booked behind a busy chip no longer holds the host link, so the link's
/// queueing stays below its transfer time.
#[test]
fn e4_read_tail_is_the_chips_not_the_link() {
    use requiem::sim::{Cause, Layer, Probe};
    let mut cfg = unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let mut quiet = Ssd::new(cfg.clone());
    let pages = quiet.capacity().exported_pages;
    let t = precondition_sequential(&mut quiet, pages, SimTime::ZERO);
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 1);
    let base = run_closed_loop(&mut quiet, &mut pat, IoMix::read_only(), 4, 1024, 1, t);

    let mut noisy = Ssd::new(cfg);
    let probe = Probe::aggregated();
    noisy.attach_probe(probe.clone());
    let t = precondition_sequential(&mut noisy, pages, SimTime::ZERO);
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 2);
    run_closed_loop(&mut noisy, &mut pat, IoMix::write_only(), 4, pages, 2, t);
    let t = noisy.drain_time();
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 3);
    run_closed_loop(&mut noisy, &mut pat, IoMix::mixed(0.5), 8, 2048, 3, t);
    let (quiet_p99, noisy_p99) = (base.latency.p99(), noisy.metrics().read_latency.p99());
    assert!(
        noisy_p99 >= 10 * quiet_p99,
        "read p99 amid writes + GC {noisy_p99} ns, pure reads {quiet_p99} ns"
    );
    let summary = probe.summary();
    let link = |cause| {
        summary
            .by_layer_cause
            .get(&(Layer::HostLink, cause))
            .map_or(0, |s| s.total.as_nanos())
    };
    let (queue, transfer) = (link(Cause::Queue), link(Cause::Transfer));
    assert!(transfer > 0);
    assert!(
        queue < transfer,
        "host-link queueing {queue} ns against {transfer} ns of transfer"
    );
}

/// E5: TRIM cuts GC work when dead data stays dead.
#[test]
fn e5_trim_reduces_write_amplification() {
    let churn = |use_trim: bool| -> f64 {
        let mut cfg = unbuffered();
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 1;
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
        if use_trim {
            for lpn in 0..pages / 3 {
                t = ssd.trim(t, Lpn(lpn)).unwrap().done;
            }
        }
        let survivors = pages - pages / 3;
        let before = ssd.metrics().flash_programs.total();
        let before_host = ssd.metrics().host_writes;
        let mut x = 17u64;
        for _ in 0..2 * pages {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lpn = pages / 3 + x % survivors;
            t = ssd.write(t, Lpn(lpn)).unwrap().done;
        }
        let m = ssd.metrics();
        (m.flash_programs.total() - before) as f64 / (m.host_writes - before_host) as f64
    };
    let without = churn(false);
    let with = churn(true);
    assert!(
        with * 1.3 < without,
        "TRIM should clearly cut WA: without {without:.2} with {with:.2}"
    );
}

/// E6: atomic batch = 1× programs; journal = 2×.
#[test]
fn e6_atomic_write_halves_journal_traffic() {
    let lpns: Vec<Lpn> = (0..16).map(Lpn).collect();
    let mut dev = ExtendedSsd::new(Ssd::new(unbuffered()));
    let a = dev.write_atomic(SimTime::ZERO, &lpns).unwrap();
    assert_eq!(dev.inner().metrics().flash_programs.total(), 16);

    let mut ssd = Ssd::new(unbuffered());
    let j = double_write_journal(&mut ssd, SimTime::ZERO, &lpns, Lpn(1024)).unwrap();
    assert_eq!(ssd.metrics().flash_programs.total(), 32);
    assert!(j.latency.as_nanos() > 3 * a.latency.as_nanos() / 2);
}

/// E7 / P1: the PCM log force is orders of magnitude below a flash one.
#[test]
fn e7_pcm_log_force_is_orders_faster() {
    let mut dimm = PcmDimm::new(1 << 20, PcmTiming::gen1(), 100);
    let pcm_force = dimm
        .persist(SimTime::ZERO, 0, &[0u8; 256])
        .since(SimTime::ZERO);
    let mut ssd = Ssd::new(unbuffered());
    let flash_force = ssd.write(SimTime::ZERO, Lpn(0)).unwrap().latency;
    assert!(
        flash_force.as_nanos() > 100 * pcm_force.as_nanos(),
        "flash {flash_force} vs pcm {pcm_force}"
    );
}

/// E9: software share negligible on a disk, dominant on a buffered write.
#[test]
fn e9_software_share_flips_with_the_device() {
    use requiem::block::{Disk, DiskConfig, IoRequest, IoStack, StackConfig};
    let mut disk_stack = IoStack::new(StackConfig::legacy(1), Disk::new(DiskConfig::hdd_7200()));
    let mut t = SimTime::ZERO;
    let mut s = 99u64;
    for _ in 0..32 {
        s = (s.wrapping_mul(999983)) % (1 << 20);
        t = disk_stack.submit(t, 0, IoRequest::read(s)).done;
    }
    assert!(disk_stack.software_share() < 0.01);

    let mut ssd_stack = IoStack::new(StackConfig::legacy(1), Ssd::new(SsdConfig::modern()));
    let mut t = SimTime::ZERO;
    for lba in 0..32u64 {
        t = ssd_stack.submit(t, 0, IoRequest::write(lba)).done;
    }
    assert!(ssd_stack.software_share() > 0.25);
}

/// E10: the PCM SSD still queues on banks; the DIMM path crushes both.
#[test]
fn e10_pcm_complexity_persists() {
    use requiem::pcm::ssd::PcmSsdConfig;
    use requiem::pcm::PcmSsd;
    let mut dev = PcmSsd::new(PcmSsdConfig::small());
    let a = dev.read_page(SimTime::ZERO, 0);
    let b = dev.read_page(SimTime::ZERO, 16); // same bank
    assert!(b.latency > a.latency, "same-bank requests must queue");
    // memory-bus path is far below even the PCM SSD's block path
    let mut dimm = PcmDimm::new(1 << 20, PcmTiming::gen1(), 100);
    let line = dimm
        .persist(SimTime::ZERO, 0, &[0u8; 64])
        .since(SimTime::ZERO);
    assert!(a.latency.as_nanos() > 5 * line.as_nanos());
}

/// §3's ordering, on the benchmark's device (`SsdConfig::modern()` as it
/// is, write buffer included) and the benchmark's `oltp_qd16` /
/// `oltp_coop_pcm` pair at test size: the same seeded OLTP inputs at
/// concurrency 16 through the block stack with a flash WAL and group
/// commit, and through cooperating logs on a nameless device with the
/// WAL on PCM and a force per commit. P1 + P2 must *beat* the block
/// stack: more transactions per second, less time stalled on commit.
#[test]
fn vision_path_beats_the_block_stack_on_the_same_hardware() {
    use requiem::block::StackConfig;
    use requiem::db::{DbConfig, GroupCommitPolicy, WalConfig};
    use requiem::iface::nameless::NamelessConfig;
    use requiem::workload::oltp::{OltpConfig, OltpGen};
    use requiem::workload::oltp_inputs;

    const PAGES: u64 = 1024;
    let b = DbConfig::builder()
        .data_pages(PAGES)
        .log_pages(128)
        .buffer_frames(128)
        .checkpoint_every(500)
        .concurrency(16);
    let gen_cfg = OltpConfig {
        data_pages: PAGES,
        theta: 0.8,
        ..OltpConfig::default()
    };
    let inputs = oltp_inputs(&mut OltpGen::new(gen_cfg, 11), 3_000);

    let stack_b = b.clone().group(GroupCommitPolicy::batched(16));
    let mut stack = stack_b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
    let stack_run = stack.run_concurrent(&inputs, &stack_b.exec_config());

    let coop_b = b
        .group(GroupCommitPolicy::immediate())
        .wal(WalConfig::pcm());
    let mut coop = coop_b.build_coop(NamelessConfig::from(&SsdConfig::modern()));
    let coop_run = coop.run_concurrent(&inputs, &coop_b.exec_config());

    assert_eq!((stack_run.txns, coop_run.txns), (3_000, 3_000));
    assert!(
        coop_run.tps > stack_run.tps,
        "coop {} TPS vs stack {} TPS",
        coop_run.tps,
        stack_run.tps
    );
    assert!(
        coop.stats().commit_stall < stack.stats().commit_stall,
        "coop commit stall {} vs stack {}",
        coop.stats().commit_stall,
        stack.stats().commit_stall
    );
}
