//! `gen_zipf`: the workload generator alone, at E17's shape.
//!
//! `ShardedOltpGen` over 2^20 zipfian clients is what ROADMAP item 1 traced
//! `exp17 --short`'s wall time to, and no other workload has it inside its
//! stopwatch. The loop is boxed by host time, not by a count: a count sized
//! for today's ~100 inputs per second would be unmeasurably short once the
//! sampler is fixed. There is no simulated clock here.

use std::time::Instant;

use requiem_db::TxnInput;
use requiem_workload::{txn_to_input, ShardedOltpConfig, ShardedOltpGen};

use crate::measure::{quiet, Fingerprint, RefClock};

const CLIENTS: u64 = 1 << 20;
const DATA_PAGES: u64 = 4096;
const SHARDS: usize = 4;
/// Inputs per lap at full size (0.6 s of host time today).
pub const LAP_OPS: usize = 64;

pub struct GenRun {
    /// Host seconds to construct the generator.
    pub setup_s: f64,
    /// Host seconds for one lap.
    pub lap_s: f64,
    pub laps: usize,
    /// Inputs generated over all laps.
    pub ops: u64,
    /// Inputs with a page or slot outside the database.
    pub failed: u64,
    /// Checksum of one lap's inputs.
    pub fingerprint: u64,
    pub errors: Vec<String>,
}

fn generator(seed: u64) -> ShardedOltpGen {
    ShardedOltpGen::new(
        ShardedOltpConfig {
            clients: CLIENTS,
            theta: 0.8,
            shards: SHARDS,
            cross_shard_ratio: 0.10,
            data_pages: DATA_PAGES,
            ..ShardedOltpConfig::default()
        },
        seed,
    )
}

fn fold(fp: &mut Fingerprint, input: &TxnInput) -> bool {
    let mut valid = true;
    for &(page, slot, dirty) in &input.accesses {
        fp.u64(page);
        fp.u64(u64::from(slot) << 1 | u64::from(dirty));
        valid &= page < DATA_PAGES && slot < 16;
    }
    fp.u64(u64::from(input.log_bytes));
    valid
}

/// Laps of the same work — construct the generator from the seed, draw
/// `lap_ops` inputs, fold each into a checksum and drop it — until
/// `seconds` of host time have passed (two laps at least unless
/// `seconds` is 0). Every lap must produce the same checksum. `clock` is
/// sampled once per lap.
pub fn run(seed: u64, seconds: f64, lap_ops: usize, clock: &mut RefClock) -> GenRun {
    let (mut setup_s, mut lap_s) = (Vec::new(), Vec::new());
    let (mut failed, mut errors, mut fingerprint) = (0, Vec::new(), None);
    let start = Instant::now();
    loop {
        clock.sample();
        let t = Instant::now();
        let mut gen = generator(seed);
        setup_s.push(t.elapsed().as_secs_f64());

        let mut fp = Fingerprint::default();
        let t = Instant::now();
        for _ in 0..lap_ops {
            let input = txn_to_input(&gen.next_txn());
            failed += u64::from(!fold(&mut fp, std::hint::black_box(&input)));
        }
        lap_s.push(t.elapsed().as_secs_f64());

        let first = *fingerprint.get_or_insert(fp.finish());
        if first != fp.finish() {
            errors.push(format!(
                "lap {}: the same seed gave other inputs",
                lap_s.len()
            ));
        }
        let enough = seconds == 0.0 || lap_s.len() >= 2;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    GenRun {
        setup_s: quiet(&setup_s).1,
        lap_s: quiet(&lap_s).1,
        laps: lap_s.len(),
        ops: (lap_s.len() * lap_ops) as u64,
        failed,
        fingerprint: fingerprint.unwrap_or(0),
        errors,
    }
}
