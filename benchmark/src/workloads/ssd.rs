//! `ssd_randread` and `ssd_overwrite`: the block stack over the flash SSD,
//! driven by the harness's own closed loop at queue depth [`SSD_QD`].
//!
//! No db, a trivial generator: block bookkeeping, the ssd controller and
//! `sim::Resource` do the work. The two differ in which half of the device
//! they use — reads after a sequential fill never collect garbage; random
//! overwrites on a device already at its write-amplification plateau
//! collect all the time.

use std::time::Instant;

use requiem_block::{IoStack, StackConfig, StorageBackend};
use requiem_flash::{Lun, PagePayload};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{CommandId, Histogram, IoOp, IoRequest, IoStatus};
use requiem_ssd::{Capacity, Ssd};
use requiem_workload::{AddressPattern, Pattern};

use super::{
    device, write_amplification, Check, DeviceCounts, Measured, Mode, Rep, Sim, Workload,
    CHECK_SAMPLES, SSD_QD,
};
use crate::measure::{quantile_interp, Fingerprint};
use crate::trace::{cut, Peel, Seam, Timed};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RandRead,
    Overwrite,
}

pub struct SsdWorkload {
    kind: Kind,
    /// Exported pages of the device.
    capacity: u64,
    seed: u64,
    /// The timed operations' addresses.
    lbas: Vec<u64>,
    /// Addresses re-read by the check.
    samples: Vec<u64>,
}

impl SsdWorkload {
    pub fn new(kind: Kind) -> Self {
        let cfg = device();
        SsdWorkload {
            kind,
            capacity: Capacity::derive(&cfg.shape, &cfg.flash.geometry, cfg.op_ratio)
                .exported_pages,
            seed: 0,
            lbas: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl Workload for SsdWorkload {
    fn op_unit(&self) -> &'static str {
        "I/O command"
    }

    fn full_ops(&self) -> usize {
        match self.kind {
            Kind::RandRead => 500_000,
            Kind::Overwrite => 300_000,
        }
    }

    fn generate(&mut self, seed: u64, ops: usize) {
        self.seed = seed;
        self.lbas = self.uniform(0, ops);
        self.samples = self.uniform(0x5a5a, CHECK_SAMPLES);
    }

    fn calibration(&self) -> Vec<(&'static str, f64)> {
        flash_calibration()
    }

    fn rep(&self, ops: usize, mode: &Mode) -> Rep<'_> {
        let t_setup = Instant::now();
        let (cfg, ssd) = (StackConfig::blk_mq(1), Ssd::new(device()));
        match mode.tracer() {
            Some(tr) => self.rep_on(IoStack::new(cfg, Timed::new(ssd, tr)), t_setup, ops, mode),
            None => self.rep_on(IoStack::new(cfg, ssd), t_setup, ops, mode),
        }
    }
}

impl SsdWorkload {
    /// `n` seeded uniform-random page addresses; `salt` separates streams.
    fn uniform(&self, salt: u64, n: usize) -> Vec<u64> {
        AddressPattern::new(Pattern::UniformRandom, self.capacity, self.seed ^ salt).take_vec(n)
    }

    fn rep_on<'a, D>(
        &'a self,
        mut stack: IoStack<D>,
        t_setup: Instant,
        ops: usize,
        mode: &Mode,
    ) -> Rep<'a>
    where
        D: StorageBackend + Peel<Inner = Ssd> + 'a,
    {
        stack.set_inflight_window(SSD_QD);
        let fill: Vec<u64> = (0..self.capacity).collect();
        let mut now = closed_loop(&mut stack, SimTime::ZERO, IoOp::Write, &fill, None);
        if self.kind == Kind::Overwrite {
            // twice the capacity of random overwrites: the WA plateau
            let pre = self.uniform(0xa5a5, 2 * self.capacity as usize);
            now = closed_loop(&mut stack, now, IoOp::Write, &pre, None);
        }
        let setup_s = t_setup.elapsed().as_secs_f64();

        if let Some(probe) = mode.probe() {
            stack.attach_probe(probe.clone());
        }
        let before = DeviceCounts::of(stack.backend().peel());
        let op = match self.kind {
            Kind::RandRead => IoOp::Read,
            Kind::Overwrite => IoOp::Write,
        };
        let lbas = &self.lbas[..ops];
        let mut seen = Completions::default();
        let tr = mode.tracer().map(|t| &**t);
        let start = now;
        let (end, run_s) = mode.stopwatch(|| {
            cut(tr, Seam::BlockLoop, 0, || {
                closed_loop(&mut stack, start, op, lbas, Some(&mut seen))
            })
        });

        let makespan = end.since(start);
        let counts = DeviceCounts::of(stack.backend().peel()).since(before);
        let sim = Sim {
            ops_per_s: ops as f64 / makespan.as_secs_f64(),
            lat_p50_us: quantile_interp(&seen.latency, 0.5) / 1e3,
            lat_p999_us: quantile_interp(&seen.latency, 0.999) / 1e3,
            wa: write_amplification(counts.flash_programs, counts.host_writes),
        };
        let mut fp = Fingerprint::default();
        fp.u64(end.as_nanos());
        fp.u64(makespan.as_nanos());
        fp.u64(seen.failed);
        fp.u64(seen.device.as_nanos());
        fp.u64(seen.total.as_nanos());
        fp.hist(&seen.latency);
        counts.fold(&mut fp);

        let mut layer = counts.layer_metrics(&device(), makespan.as_nanos());
        layer.push((
            "block.software_share",
            1.0 - seen.device.as_nanos() as f64 / seen.total.as_nanos().max(1) as f64,
        ));

        let samples = &self.samples;
        let m = Measured {
            setup_s,
            run_s,
            ops: ops as u64,
            failed: seen.failed,
            sim,
            fingerprint: fp.finish(),
            layer,
        };
        Rep {
            m,
            check: Box::new(move || {
                let t = Instant::now();
                let mut at = end;
                let mut failed = 0;
                for &lba in samples {
                    let c = stack.submit(at, 0, IoRequest::read(lba));
                    at = c.done;
                    failed += u64::from(c.status != IoStatus::Ok);
                }
                Check {
                    attempted: samples.len() as u64,
                    failed,
                    host_s: t.elapsed().as_secs_f64(),
                }
            }),
        }
    }
}

/// What the closed loop saw complete.
#[derive(Default)]
struct Completions {
    latency: Histogram,
    /// Summed device-resident time and summed end-to-end latency: their
    /// ratio is [`IoStack::software_share`] restricted to the timed region.
    device: SimDuration,
    total: SimDuration,
    /// Completions whose status is not `Ok`.
    failed: u64,
}

/// Keep [`SSD_QD`] commands of `op` outstanding on core 0 until `lbas` is
/// exhausted: submit, jump to the next completion instant, reap, refill
/// with as many commands as were reaped. Command `i` carries tag `i + 1`.
/// Returns the instant the last completion was observed.
fn closed_loop<D: StorageBackend>(
    stack: &mut IoStack<D>,
    start: SimTime,
    op: IoOp,
    lbas: &[u64],
    mut seen: Option<&mut Completions>,
) -> SimTime {
    let mut now = start;
    let mut next = 0usize;
    let mut refill = SSD_QD.min(lbas.len());
    let mut reqs: Vec<IoRequest> = Vec::with_capacity(SSD_QD);
    loop {
        if refill > 0 {
            reqs.clear();
            for &lba in &lbas[next..next + refill] {
                next += 1;
                reqs.push(IoRequest::new(op, lba).tag(CommandId(next as u64)));
            }
            stack.submit_batch(now, 0, &reqs);
        }
        let Some(ready) = stack.next_completion_time(0) else {
            return now;
        };
        now = now.max(ready);
        let done = stack.poll_completions(now, 0);
        for c in &done {
            now = now.max(c.done);
            if let Some(s) = seen.as_deref_mut() {
                s.latency.record_duration(c.latency);
                s.device += c.device_time;
                s.total += c.latency;
                s.failed += u64::from(c.status != IoStatus::Ok);
            }
        }
        refill = done.len().min(lbas.len() - next);
    }
}

/// Direct LUN operations, timed: host nanoseconds per `Lun::read`,
/// `Lun::program` and `Lun::erase`. `Ssd` owns its LUNs concretely, so the
/// harness cannot cut between ssd and flash; multiplying these by the
/// `ssd.flash_*` counts bounds flash's part of `ssd.busy_s` instead.
fn flash_calibration() -> Vec<(&'static str, f64)> {
    const CYCLES: u32 = 200;
    let spec = device().flash;
    let geometry = spec.geometry.clone();
    let mut lun = Lun::new(0, spec, 0);
    let blocks: Vec<_> = geometry.blocks().collect();
    let (mut program_ns, mut erase_ns, mut programs, mut erases) = (0u128, 0u128, 0u64, 0u64);
    for cycle in 0..CYCLES {
        let t = Instant::now();
        for &b in &blocks {
            for a in geometry.pages_of(b) {
                let lpn = geometry.ppn(a).0;
                let r = lun.program(
                    a,
                    PagePayload::Oob {
                        lpn,
                        seq: u64::from(cycle),
                    },
                );
                programs += u64::from(std::hint::black_box(r).is_ok());
            }
        }
        program_ns += t.elapsed().as_nanos();
        if cycle + 1 == CYCLES {
            break; // leave the LUN programmed for the reads
        }
        let t = Instant::now();
        for &b in &blocks {
            erases += u64::from(std::hint::black_box(lun.erase(b)).is_ok());
        }
        erase_ns += t.elapsed().as_nanos();
    }
    let pages: Vec<_> = blocks.iter().flat_map(|&b| geometry.pages_of(b)).collect();
    let t = Instant::now();
    let mut reads = 0u64;
    for _ in 0..CYCLES {
        for &a in &pages {
            reads += u64::from(std::hint::black_box(lun.read(a)).is_ok());
        }
    }
    let read_ns = t.elapsed().as_nanos();
    vec![
        ("flash.read_ns", read_ns as f64 / reads.max(1) as f64),
        (
            "flash.program_ns",
            program_ns as f64 / programs.max(1) as f64,
        ),
        ("flash.erase_ns", erase_ns as f64 / erases.max(1) as f64),
    ]
}
