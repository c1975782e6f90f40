//! Workload drivers: push patterns into a device and measure.
//!
//! The closed-loop driver maintains a fixed number of outstanding requests
//! (queue depth) — the way uFLIP and real storage benchmarks (fio) exercise
//! devices. It runs on the SSD's [`QueuePair`] through [`Ssd::enqueue`]:
//! requests are submitted tagged, admitted by the device-side in-flight
//! window, and reaped from the completion queue out of submission order;
//! each reaped completion frees a slot and the next request is submitted
//! at the reap instant.
//! Queue depth is how hosts *expose* device parallelism; §2.1's point
//! that *"SSDs require a high level of parallelism"* shows up as IOPS
//! scaling with queue depth. At queue depth 1 the loop is bit-identical
//! to the serialized driver ([`run_closed_loop_serialized`]), which is
//! kept as the pre-queue-pair reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, IoStatus, SimRng};
use requiem_ssd::{IoRequest, Lpn, QueuePair, Ssd};

use crate::pattern::AddressPattern;

/// Read/write mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoMix {
    /// Fraction of operations that are reads (0.0 = pure write, 1.0 = pure
    /// read).
    pub read_fraction: f64,
}

impl IoMix {
    /// 100 % writes.
    pub fn write_only() -> Self {
        IoMix { read_fraction: 0.0 }
    }

    /// 100 % reads.
    pub fn read_only() -> Self {
        IoMix { read_fraction: 1.0 }
    }

    /// A mixed workload.
    pub fn mixed(read_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        IoMix { read_fraction }
    }
}

/// Result of one driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Operations served: all that were asked for, or those submitted
    /// before the device refused one.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// When the device refused a command (it completed
    /// [`IoStatus::Rejected`], e.g. a hybrid FTL on thin
    /// over-provisioning that ran a LUN out of usable space), the
    /// instant it did. The run stopped there.
    pub refused_at: Option<SimTime>,
    /// Virtual time from first submission to last completion.
    pub makespan: SimDuration,
    /// Operations per second of virtual time.
    pub iops: f64,
    /// Payload megabytes per second (page-size × ops / makespan).
    pub mb_per_s: f64,
    /// Per-op end-to-end latency.
    pub latency: Histogram,
}

impl DriverReport {
    /// The report of `ops` page-sized operations that took `makespan`
    /// on `ssd`.
    fn new(ssd: &Ssd, ops: u64, reads: u64, makespan: SimDuration, latency: Histogram) -> Self {
        let secs = makespan.as_secs_f64().max(1e-12);
        let page = ssd.config().flash.geometry.page_size as f64;
        DriverReport {
            ops,
            reads,
            refused_at: None,
            makespan,
            iops: ops as f64 / secs,
            mb_per_s: ops as f64 * page / (1024.0 * 1024.0) / secs,
            latency,
        }
    }
}

/// Run `ops` operations against `ssd` with `queue_depth` outstanding on
/// a [`QueuePair`], drawing addresses from `pattern` and read/write
/// decisions from `mix`.
///
/// The loop keeps exactly `queue_depth` commands in flight: while below
/// depth it submits immediately (all ramp-up commands fire at
/// `start_at`); at full depth it reaps the earliest completion from the
/// CQ — which is generally **not** the oldest submission — and submits
/// the next command at the reap instant. Same-LBA hazards and the
/// device-side window are enforced by the queue pair.
///
/// Returns throughput/latency measured over the run (from `start_at` to the
/// last completion). A command the device refuses ends the run: it is
/// not counted, the commands before it drain, and the report carries the
/// refusal in [`DriverReport::refused_at`].
///
/// # Panics
/// Panics if `queue_depth == 0`.
pub fn run_closed_loop(
    ssd: &mut Ssd,
    pattern: &mut AddressPattern,
    mix: IoMix,
    queue_depth: usize,
    ops: u64,
    seed: u64,
    start_at: SimTime,
) -> DriverReport {
    assert!(queue_depth > 0, "queue depth must be at least 1");
    let mut rng = SimRng::from_seed(seed).derive("driver-mix");
    let mut latency = Histogram::new();
    let mut qp = QueuePair::new(queue_depth);
    let mut in_flight = 0usize;
    let mut issued = 0u64;
    let mut reads = 0u64;
    let mut last_done = start_at;
    let mut refused_at = None;

    while issued < ops {
        // when at full depth, reap the earliest completion
        let now = if in_flight >= queue_depth {
            let c = qp.pop().expect("completions outstanding");
            latency.record_duration(c.latency());
            last_done = last_done.max(c.done);
            in_flight -= 1;
            c.done
        } else {
            // ramp-up: the first `queue_depth` requests all fire at start
            start_at
        };
        let lba = pattern.next_addr();
        let is_read = rng.chance(mix.read_fraction);
        let req = if is_read {
            IoRequest::read(lba)
        } else {
            IoRequest::write(lba)
        };
        let c = ssd.enqueue(&mut qp, now, req);
        if c.status == IoStatus::Rejected {
            refused_at = Some(c.done);
            break;
        }
        reads += u64::from(is_read);
        in_flight += 1;
        issued += 1;
    }
    // drain the tail; the refused command is not one of the run's
    while let Some(c) = qp.pop() {
        if c.status != IoStatus::Rejected {
            latency.record_duration(c.latency());
            last_done = last_done.max(c.done);
        }
    }
    DriverReport {
        refused_at,
        ..DriverReport::new(ssd, issued, reads, last_done.since(start_at), latency)
    }
}

/// The pre-queue-pair closed loop: drives the device through the
/// serialized `read`/`write` API, tracking outstanding completions in a
/// host-side heap. Kept as the reference implementation — at any queue
/// depth 1 run, [`run_closed_loop`] must reproduce it bit-for-bit
/// (asserted by `exp11_qd_sweep` and the driver tests).
pub fn run_closed_loop_serialized(
    ssd: &mut Ssd,
    pattern: &mut AddressPattern,
    mix: IoMix,
    queue_depth: usize,
    ops: u64,
    seed: u64,
    start_at: SimTime,
) -> DriverReport {
    assert!(queue_depth > 0, "queue depth must be at least 1");
    let mut rng = SimRng::from_seed(seed).derive("driver-mix");
    let mut latency = Histogram::new();
    let mut outstanding: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut issued = 0u64;
    let mut reads = 0u64;
    let mut last_done = start_at;

    while issued < ops {
        // when at full depth, wait for the earliest completion
        let now = if outstanding.len() >= queue_depth {
            let Reverse(t) = outstanding.pop().expect("outstanding non-empty");
            t
        } else {
            // ramp-up: the first `queue_depth` requests all fire at start
            start_at
        };
        let lpn = Lpn(pattern.next_addr());
        let is_read = rng.chance(mix.read_fraction);
        let completion = if is_read {
            reads += 1;
            ssd.read(now, lpn).expect("driver read failed")
        } else {
            ssd.write(now, lpn).expect("driver write failed")
        };
        latency.record_duration(completion.latency);
        outstanding.push(Reverse(completion.done));
        last_done = last_done.max(completion.done);
        issued += 1;
    }
    DriverReport::new(ssd, ops, reads, last_done.since(start_at), latency)
}

/// Precondition helper: fill the first `pages` LPNs sequentially so reads
/// and overwrites have data to hit. Returns the drain time.
pub fn precondition_sequential(ssd: &mut Ssd, pages: u64, start_at: SimTime) -> SimTime {
    let mut t = start_at;
    for lpn in 0..pages {
        let c = ssd.write(t, Lpn(lpn)).expect("precondition write failed");
        t = c.done;
    }
    ssd.drain_time().max(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use requiem_ssd::SsdConfig;

    fn device() -> Ssd {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        Ssd::new(cfg)
    }

    #[test]
    fn a_refused_command_ends_the_run_and_is_reported() {
        // a hybrid FTL on 7 % over-provisioning runs a LUN out of usable
        // space under sustained random overwrite
        let mut cfg = SsdConfig {
            ftl: requiem_ssd::FtlKind::Hybrid { log_blocks: 8 },
            op_ratio: 0.07,
            ..SsdConfig::figure1()
        };
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        cfg.shape.luns_per_chip = 1;
        cfg.flash.geometry.planes = 2;
        cfg.flash.geometry.blocks_per_plane = 64;
        cfg.flash.geometry.pages_per_block = 16;
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut fill = AddressPattern::new(Pattern::Sequential, pages, 1);
        let f = run_closed_loop(
            &mut ssd,
            &mut fill,
            IoMix::write_only(),
            4,
            pages,
            1,
            SimTime::ZERO,
        );
        assert_eq!((f.ops, f.refused_at), (pages, None));
        let t = SimTime::ZERO + f.makespan;
        let mut pat = AddressPattern::new(Pattern::Zipfian { theta: 0.9 }, pages, 2);
        let asked = 20 * pages;
        let r = run_closed_loop(&mut ssd, &mut pat, IoMix::write_only(), 4, asked, 2, t);
        let refused = r.refused_at.expect("the device refuses a write");
        assert!(r.ops < asked, "the run stopped at the refusal");
        assert_eq!(r.latency.count(), r.ops, "only served commands count");
        assert!(refused >= t);
    }

    #[test]
    fn report_counts_match() {
        let mut ssd = device();
        let mut pat = AddressPattern::new(Pattern::Sequential, 512, 1);
        let r = run_closed_loop(
            &mut ssd,
            &mut pat,
            IoMix::write_only(),
            4,
            256,
            1,
            SimTime::ZERO,
        );
        assert_eq!(r.ops, 256);
        assert_eq!(r.reads, 0);
        assert_eq!(r.latency.count(), 256);
        assert!(r.iops > 0.0);
        assert!(r.makespan > SimDuration::ZERO);
    }

    #[test]
    fn higher_queue_depth_increases_write_throughput() {
        // §2.1: parallelism is required to reach nominal bandwidth
        let mut iops = Vec::new();
        for qd in [1usize, 8, 32] {
            let mut ssd = device();
            let mut pat = AddressPattern::new(Pattern::Sequential, 2048, 1);
            let r = run_closed_loop(
                &mut ssd,
                &mut pat,
                IoMix::write_only(),
                qd,
                1024,
                1,
                SimTime::ZERO,
            );
            iops.push(r.iops);
        }
        assert!(
            iops[1] > iops[0] * 2.0,
            "QD8 should far exceed QD1: {iops:?}"
        );
        assert!(iops[2] > iops[1], "QD32 >= QD8: {iops:?}");
    }

    #[test]
    fn mixed_workload_respects_fraction() {
        let mut ssd = device();
        let t = precondition_sequential(&mut ssd, 512, SimTime::ZERO);
        let mut pat = AddressPattern::new(Pattern::UniformRandom, 512, 2);
        let r = run_closed_loop(&mut ssd, &mut pat, IoMix::mixed(0.7), 4, 1000, 2, t);
        let frac = r.reads as f64 / r.ops as f64;
        assert!((0.63..=0.77).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn precondition_then_read_hits_flash() {
        let mut ssd = device();
        let t = precondition_sequential(&mut ssd, 128, SimTime::ZERO);
        let mut pat = AddressPattern::new(Pattern::Sequential, 128, 3);
        let r = run_closed_loop(&mut ssd, &mut pat, IoMix::read_only(), 2, 128, 3, t);
        assert_eq!(ssd.metrics().unmapped_reads, 0);
        assert_eq!(r.reads, 128);
    }

    /// Histogram fingerprint for bit-identity comparisons.
    fn fingerprint(r: &DriverReport) -> (u64, u64, u64, u64, u64) {
        let s = r.latency.summary();
        (
            r.latency.count(),
            s.p50,
            s.p99,
            s.max,
            r.makespan.as_nanos(),
        )
    }

    #[test]
    fn qd1_queue_pair_matches_serialized_driver() {
        // The queue-pair loop at depth 1 must reproduce the serialized
        // reference bit-for-bit: same completions, same histogram, same
        // makespan, same device metrics.
        for mix in [IoMix::write_only(), IoMix::mixed(0.5)] {
            let mut a = device();
            let ta = precondition_sequential(&mut a, 256, SimTime::ZERO);
            let mut pa = AddressPattern::new(Pattern::UniformRandom, 256, 7);
            let ra = run_closed_loop_serialized(&mut a, &mut pa, mix, 1, 300, 7, ta);

            let mut b = device();
            let tb = precondition_sequential(&mut b, 256, SimTime::ZERO);
            let mut pb = AddressPattern::new(Pattern::UniformRandom, 256, 7);
            let rb = run_closed_loop(&mut b, &mut pb, mix, 1, 300, 7, tb);

            assert_eq!(fingerprint(&ra), fingerprint(&rb));
            assert_eq!(ra.reads, rb.reads);
            assert_eq!(a.metrics().host_reads, b.metrics().host_reads);
            assert_eq!(a.metrics().host_writes, b.metrics().host_writes);
            assert_eq!(a.drain_time(), b.drain_time());
        }
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let run = || {
            let mut ssd = device();
            let t = precondition_sequential(&mut ssd, 512, SimTime::ZERO);
            let mut pat = AddressPattern::new(Pattern::UniformRandom, 512, 11);
            let r = run_closed_loop(&mut ssd, &mut pat, IoMix::mixed(0.6), 8, 500, 11, t);
            (fingerprint(&r), r.reads, ssd.drain_time())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_rejected() {
        let mut ssd = device();
        let mut pat = AddressPattern::new(Pattern::Sequential, 16, 1);
        run_closed_loop(
            &mut ssd,
            &mut pat,
            IoMix::write_only(),
            0,
            1,
            1,
            SimTime::ZERO,
        );
    }
}
