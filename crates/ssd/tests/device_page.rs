//! Behavioural tests of the page-mapped device — the "modern SSD" whose
//! behaviour debunks the paper's myths.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, Layer, Probe, SpanEvent};
use requiem_ssd::{BufferConfig, Lpn, Placement, Served, Ssd, SsdConfig, SsdError};

fn modern_unbuffered() -> SsdConfig {
    SsdConfig {
        buffer: BufferConfig { capacity_pages: 0 },
        ..SsdConfig::modern()
    }
}

/// Write everything once, sequentially, in closed loop; returns last done.
fn fill(ssd: &mut Ssd, pages: u64) -> SimTime {
    let mut t = SimTime::ZERO;
    for lpn in 0..pages {
        let c = ssd.write(t, Lpn(lpn)).unwrap();
        t = c.done;
    }
    t
}

#[test]
fn write_then_read_round_trip() {
    let mut ssd = Ssd::new(modern_unbuffered());
    let w = ssd.write(SimTime::ZERO, Lpn(42)).unwrap();
    assert_eq!(w.served, Served::Flash);
    let r = ssd.read(w.done, Lpn(42)).unwrap();
    assert_eq!(r.served, Served::Flash);
    assert!(r.latency > SimDuration::ZERO);
    let m = ssd.metrics();
    assert_eq!(m.host_writes, 1);
    assert_eq!(m.host_reads, 1);
    assert_eq!(m.flash_programs.host, 1);
    assert_eq!(m.flash_reads.host, 1);
}

#[test]
fn unwritten_page_reads_unmapped() {
    let mut ssd = Ssd::new(modern_unbuffered());
    let r = ssd.read(SimTime::ZERO, Lpn(7)).unwrap();
    assert_eq!(r.served, Served::Unmapped);
    assert_eq!(ssd.metrics().unmapped_reads, 1);
}

#[test]
fn out_of_range_lpn_rejected() {
    let mut ssd = Ssd::new(modern_unbuffered());
    let exported = ssd.capacity().exported_pages;
    let err = ssd.write(SimTime::ZERO, Lpn(exported)).unwrap_err();
    assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
    let err = ssd.read(SimTime::ZERO, Lpn(exported + 5)).unwrap_err();
    assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
}

#[test]
fn buffered_write_completes_before_flash_program() {
    let mut buffered = Ssd::new(SsdConfig::modern());
    let mut unbuffered = Ssd::new(modern_unbuffered());
    let wb = buffered.write(SimTime::ZERO, Lpn(0)).unwrap();
    let wu = unbuffered.write(SimTime::ZERO, Lpn(0)).unwrap();
    assert_eq!(wb.served, Served::Buffer);
    // §2.3.2: the write completes as soon as it hits the cache — far below
    // the flash program latency the unbuffered device pays
    assert!(
        wb.latency.as_nanos() * 10 < wu.latency.as_nanos(),
        "buffered {} vs unbuffered {}",
        wb.latency,
        wu.latency
    );
}

#[test]
fn read_of_in_flight_buffered_write_hits_buffer() {
    let mut ssd = Ssd::new(SsdConfig::modern());
    let w = ssd.write(SimTime::ZERO, Lpn(3)).unwrap();
    // immediately after the (buffered) completion, the flash program is
    // still in flight — the read must be served from RAM
    let r = ssd.read(w.done, Lpn(3)).unwrap();
    assert_eq!(r.served, Served::Buffer);
    assert_eq!(ssd.metrics().buffer_read_hits, 1);
}

#[test]
fn overwrites_trigger_gc_and_bounded_write_amplification() {
    // small device, fill it several times over; GC must keep it alive and
    // WA must stay sane for a sequential pattern
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    for round in 0..4 {
        for lpn in 0..pages {
            let c = ssd
                .write(t, Lpn(lpn))
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            t = c.done;
        }
    }
    let m = ssd.metrics();
    assert_eq!(m.host_writes, 4 * pages);
    assert!(m.gc_runs > 0, "GC must have run on an over-filled device");
    let wa = m.write_amplification();
    assert!(wa >= 1.0, "WA below 1 is impossible: {wa}");
    assert!(wa < 3.0, "sequential overwrite WA should be modest: {wa}");
}

#[test]
fn trim_invalidates_and_makes_gc_cheaper() {
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = fill(&mut ssd, pages);
    // trim everything: subsequent reads are unmapped
    for lpn in 0..pages {
        let c = ssd.trim(t, Lpn(lpn)).unwrap();
        t = c.done;
    }
    let r = ssd.read(t, Lpn(0)).unwrap();
    assert_eq!(r.served, Served::Unmapped);
    assert_eq!(ssd.metrics().host_trims, pages);
}

#[test]
fn wear_spreads_across_blocks_with_dynamic_wl() {
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 1;
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    // hammer a small working set — without WL only a few blocks would wear
    for round in 0..20 {
        for lpn in 0..pages / 4 {
            let c = ssd.write(t, Lpn(lpn)).unwrap();
            t = c.done;
            let _ = round;
        }
    }
    let (_min, max, mean) = ssd.wear_spread();
    assert!(max > 0);
    // dynamic wear leveling keeps the hottest block within a small factor
    // of the mean wear
    assert!(
        (max as f64) < mean * 6.0 + 8.0,
        "wear skew too high: max={max} mean={mean:.2}"
    );
}

#[test]
fn static_by_lpn_placement_concentrates_on_one_lun() {
    let mut cfg = modern_unbuffered();
    cfg.placement = Placement::StaticByLpn;
    let nluns = cfg.total_luns() as u64;
    let mut ssd = Ssd::new(cfg);
    let mut t = SimTime::ZERO;
    // every write to lpn ≡ 0 (mod nluns) lands on LUN 0
    for i in 0..32 {
        let c = ssd.write(t, Lpn(i * nluns)).unwrap();
        t = c.done;
    }
    let horizon = ssd.drain_time();
    let utils = ssd.lun_utilization(horizon);
    let busy: Vec<usize> = utils
        .iter()
        .enumerate()
        .filter(|(_, &u)| u > 0.0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(busy, vec![0], "only LUN 0 should have been used: {utils:?}");
}

#[test]
fn least_loaded_placement_stripes_across_luns() {
    let mut ssd = Ssd::new(modern_unbuffered());
    let nluns = ssd.config().total_luns() as usize;
    // issue a burst of concurrent writes at t=0 (open loop)
    for i in 0..nluns as u64 {
        ssd.write(SimTime::ZERO, Lpn(i)).unwrap();
    }
    let horizon = ssd.drain_time();
    let utils = ssd.lun_utilization(horizon);
    let busy = utils.iter().filter(|&&u| u > 0.0).count();
    assert!(
        busy >= nluns / 2,
        "expected striping across most LUNs, got {busy}/{nluns}"
    );
}

#[test]
fn dftl_costs_translation_traffic_on_random_io() {
    // tiny CMT + random lookups over a space far larger than the cache
    let mut cfg = SsdConfig::modern_dftl(64);
    cfg.buffer.capacity_pages = 0;
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    // scatter writes
    let mut lpn = 1u64;
    for _ in 0..512 {
        lpn = lpn
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            % pages;
        let c = ssd.write(t, Lpn(lpn)).unwrap();
        t = c.done;
    }
    let (hits, misses, _) = ssd.dftl_stats().unwrap();
    assert!(misses > 0, "random IO must miss a 64-entry CMT");
    assert!(hits + misses >= 512);
    let m = ssd.metrics();
    assert!(
        m.flash_reads.translation > 0,
        "CMT misses must cost translation reads"
    );
}

#[test]
fn dftl_sequential_io_mostly_hits_cache() {
    let mut cfg = SsdConfig::modern_dftl(1024);
    cfg.buffer.capacity_pages = 0;
    let mut ssd = Ssd::new(cfg);
    let mut t = SimTime::ZERO;
    for lpn in 0..512u64 {
        let c = ssd.write(t, Lpn(lpn)).unwrap();
        t = c.done;
    }
    // second pass re-reads the same range: all hits
    let before = ssd.dftl_stats().unwrap();
    for lpn in 0..512u64 {
        let c = ssd.read(t, Lpn(lpn)).unwrap();
        t = c.done;
    }
    let after = ssd.dftl_stats().unwrap();
    assert_eq!(after.1, before.1, "re-reads should not add CMT misses");
}

#[test]
fn completion_times_are_causally_ordered() {
    let mut ssd = Ssd::new(SsdConfig::modern());
    let mut t = SimTime::ZERO;
    let mut last_done = SimTime::ZERO;
    for lpn in 0..64u64 {
        let c = ssd.write(t, Lpn(lpn % 8)).unwrap();
        assert!(c.done >= t, "completion before submission");
        last_done = last_done.max(c.done);
        t += SimDuration::from_micros(1);
    }
    assert!(ssd.drain_time() >= last_done);
}

/// The chip operations (cell ops and recovery senses on the flash layer)
/// and channel data transfers `probe` recorded, in record order.
fn chip_and_channel_ops(probe: &Probe) -> Vec<SpanEvent> {
    probe
        .events()
        .into_iter()
        .filter(|e| match e.layer {
            Layer::Flash => matches!(
                e.cause,
                Cause::CellRead | Cause::CellProgram | Cause::CellErase | Cause::Recovery
            ),
            Layer::Channel => e.cause == Cause::Transfer,
            _ => false,
        })
        .collect()
}

/// `(resource, cause)` of each of `ops`.
fn lanes_and_causes(ops: &[SpanEvent]) -> Vec<(&str, Cause)> {
    ops.iter()
        .map(|e| (e.resource.as_deref().unwrap_or(""), e.cause))
        .collect()
}

#[test]
fn trace_records_chip_and_channel_spans() {
    // resources are the scheduler's timeline names, in record order:
    // four writes stripe over channels 0..4, the read revisits the last
    let mut ssd = Ssd::new(modern_unbuffered());
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    let mut t = SimTime::ZERO;
    for lpn in 0..4 {
        t = ssd.write(t, Lpn(lpn)).unwrap().done;
    }
    ssd.read(t, Lpn(3)).unwrap();
    use Cause::{CellProgram, CellRead, Recovery, Transfer};
    assert_eq!(
        lanes_and_causes(&chip_and_channel_ops(&probe)),
        [
            ("chan0", Transfer),
            ("chip0", CellProgram),
            ("chan1", Transfer),
            ("chip4", CellProgram),
            ("chan2", Transfer),
            ("chip8", CellProgram),
            ("chan3", Transfer),
            ("chip12", CellProgram),
            ("chip12", CellRead),
            ("chan3", Transfer),
        ]
    );

    // a read that climbs the whole recovery ladder: the failed sense,
    // three retry rungs and the ECC escalation land on the page's own
    // chip (the stripe rebuild is one controller span, on no chip), then
    // the data moves over the chip's channel and the rebuilt page is
    // programmed afresh
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.fault = requiem_sim::FaultPlan::uniform_rber(1.0e7);
    let t_read = cfg.flash.timing.read;
    let mut ssd = Ssd::new(cfg);
    let mut t = SimTime::ZERO;
    for lpn in 0..2 {
        t = ssd.write(t, Lpn(lpn)).unwrap().done;
    }
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    ssd.read(t, Lpn(1)).unwrap();
    let ops = chip_and_channel_ops(&probe);
    assert_eq!(
        lanes_and_causes(&ops),
        [
            ("chip1", CellRead),
            ("chip1", Recovery),
            ("chip1", Recovery),
            ("chip1", Recovery),
            ("chip1", Recovery),
            ("chan1", Transfer),
            ("chan1", Transfer),
            ("chip1", CellProgram),
        ]
    );
    // a retry rung re-senses once; the soft-decision escalation senses
    // the page four times (the scheduler's `ECC_ESCALATION_SENSES`)
    let senses: Vec<SimDuration> = ops[1..5].iter().map(SpanEvent::duration).collect();
    assert_eq!(senses, [t_read, t_read, t_read, t_read * 4]);
    let stripe: Vec<_> = probe
        .events()
        .into_iter()
        .filter(|e| e.layer == Layer::Controller && e.cause == Recovery)
        .collect();
    assert_eq!(stripe.len(), 1, "one span for the whole stripe rebuild");
    assert_eq!(stripe[0].resource.as_deref(), Some("stripe"));
}
