//! The memory-bus persistence path.
//!
//! *"There is a large consensus that PCM chips should be directly plugged
//! onto the memory bus (because PCM is byte addressable and exhibits low
//! latency)."* (§2.4)
//!
//! [`PcmDimm`] models that path: CPU stores land in a (volatile) write
//! queue for free; **persistence** requires an explicit `persist` — flush
//! the touched lines and fence — whose cost is `lines × write_line +
//! barrier`. This is the synchronous-persistence primitive the vision's
//! principle P1 routes log writes and buffer steals to, and the substrate
//! `requiem-db`'s `VisionBackend` logs into.
//!
//! Start-Gap wear leveling runs underneath, so the DIMM survives hot spots
//! (a WAL head is the textbook hot spot).

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Histogram, Resource};
use serde::{Deserialize, Serialize};

use crate::chip::PcmChip;
use crate::timing::PcmTiming;
use crate::wear::StartGap;
use crate::LINE_BYTES;

/// A typed snapshot of the DIMM's wear state: per-line write counts plus
/// the Start-Gap rotation bookkeeping. This is the public face of wear for
/// experiments (E15's wear table) and future endurance studies — callers
/// never reach into [`PcmChip`] or [`StartGap`] internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WearSnapshot {
    /// Logical lines in the DIMM (physical slots = `lines + 1` for the gap).
    pub lines: u64,
    /// Total line writes the chip absorbed (user writes + gap-move copies).
    pub total_line_writes: u64,
    /// Hottest physical slot's write count.
    pub max_line_writes: u64,
    /// Mean write count across physical slots.
    pub mean_line_writes: f64,
    /// Start-Gap rotations performed (each is one extra line copy).
    pub gap_moves: u64,
    /// Asymptotic extra-writes-per-user-write of the leveling scheme.
    pub gap_overhead_ratio: f64,
    /// Write count per *physical* slot, including the gap spare.
    pub per_line_writes: Vec<u64>,
}

impl WearSnapshot {
    /// Max/mean wear skew; 1.0 would be perfectly level. 0 when unwritten.
    pub fn skew(&self) -> f64 {
        if self.mean_line_writes == 0.0 {
            0.0
        } else {
            self.max_line_writes as f64 / self.mean_line_writes
        }
    }
}

/// A byte-addressable persistent memory module on the memory bus.
pub struct PcmDimm {
    chip: PcmChip,
    remap: StartGap,
    /// The DIMM's array is serial per rank; one rank modelled.
    rank: Resource,
    persist_lat: Histogram,
    persisted_bytes: u64,
}

impl std::fmt::Debug for PcmDimm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmDimm")
            .field("lines", &self.remap.len())
            .field("persisted_bytes", &self.persisted_bytes)
            .finish()
    }
}

impl PcmDimm {
    /// Create a DIMM with `capacity_bytes` of PCM (rounded up to lines).
    /// `gap_interval` is the Start-Gap rotation period (100 is standard).
    pub fn new(capacity_bytes: u64, timing: PcmTiming, gap_interval: u64) -> Self {
        let lines = capacity_bytes.div_ceil(LINE_BYTES as u64).max(1);
        PcmDimm {
            // +1 spare slot for the start-gap gap
            chip: PcmChip::new(lines + 1, timing),
            remap: StartGap::new(lines, gap_interval),
            rank: Resource::new("pcm-rank"),
            persist_lat: Histogram::new(),
            persisted_bytes: 0,
        }
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.remap.len() * LINE_BYTES as u64
    }

    /// Load `len` bytes at `offset`. Returns `(completion_time, data)`.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn load(&mut self, now: SimTime, offset: u64, len: usize) -> (SimTime, Vec<u8>) {
        assert!(
            offset + len as u64 <= self.capacity_bytes(),
            "load beyond capacity"
        );
        let mut out = Vec::with_capacity(len);
        let mut t = now;
        let first = offset / LINE_BYTES as u64;
        let last = (offset + len as u64 - 1) / LINE_BYTES as u64;
        for line in first..=last {
            let slot = self.remap.map(line);
            let (acc, bytes) = self.chip.read_line(slot);
            let g = self.rank.reserve(t, acc.duration);
            t = g.end;
            let line_start = line * LINE_BYTES as u64;
            let from = offset.max(line_start) - line_start;
            let to = ((offset + len as u64).min(line_start + LINE_BYTES as u64)) - line_start;
            out.extend_from_slice(&bytes[from as usize..to as usize]);
        }
        (t, out)
    }

    /// Store + persist `data` at `offset`: write the touched lines through
    /// to the array and fence. Returns the instant at which the data is
    /// durable. This is the synchronous path — the caller (e.g. a commit)
    /// blocks until the returned time.
    ///
    /// # Panics
    /// Panics if the range exceeds capacity.
    pub fn persist(&mut self, now: SimTime, offset: u64, data: &[u8]) -> SimTime {
        assert!(
            offset + data.len() as u64 <= self.capacity_bytes(),
            "persist beyond capacity"
        );
        if data.is_empty() {
            return now;
        }
        let mut t = now;
        let first = offset / LINE_BYTES as u64;
        let last = (offset + data.len() as u64 - 1) / LINE_BYTES as u64;
        for line in first..=last {
            let slot = self.remap.map(line);
            // read-modify-write for partial lines
            let (_, mut bytes) = self.chip.read_line(slot);
            let line_start = line * LINE_BYTES as u64;
            let from = offset.max(line_start);
            let to = (offset + data.len() as u64).min(line_start + LINE_BYTES as u64);
            bytes[(from - line_start) as usize..(to - line_start) as usize]
                .copy_from_slice(&data[(from - offset) as usize..(to - offset) as usize]);
            let acc = self.chip.write_line(slot, &bytes);
            let g = self.rank.reserve(t, acc.duration);
            t = g.end;
            // wear leveling bookkeeping
            if let Some((from_slot, to_slot)) = self.remap.on_write() {
                let d = self.chip.copy_line(from_slot, to_slot);
                let g = self.rank.reserve(t, d);
                t = g.end;
            }
        }
        let barrier = self.chip.timing().persist_barrier;
        let g = self.rank.reserve(t, barrier);
        t = g.end;
        self.persist_lat.record_duration(t.since(now));
        self.persisted_bytes += data.len() as u64;
        t
    }

    /// Latency distribution of `persist` calls.
    pub fn persist_latency(&self) -> &Histogram {
        &self.persist_lat
    }

    /// Total bytes persisted.
    pub fn persisted_bytes(&self) -> u64 {
        self.persisted_bytes
    }

    /// Maximum per-line write count (wear-leveling effectiveness metric).
    pub fn max_line_writes(&self) -> u64 {
        self.chip.max_line_writes()
    }

    /// Mean per-line write count.
    pub fn mean_line_writes(&self) -> f64 {
        self.chip.mean_line_writes()
    }

    /// Typed wear snapshot: per-line writes + Start-Gap rotation state.
    pub fn wear_snapshot(&self) -> WearSnapshot {
        let per_line = self.chip.line_write_counts().to_vec();
        WearSnapshot {
            lines: self.remap.len(),
            total_line_writes: self.chip.op_counts().1,
            max_line_writes: self.chip.max_line_writes(),
            mean_line_writes: self.chip.mean_line_writes(),
            gap_moves: self.remap.moves(),
            gap_overhead_ratio: self.remap.overhead_ratio(),
            per_line_writes: per_line,
        }
    }

    /// Typical cost of persisting `bytes` (no queueing): lines × write + barrier.
    pub fn persist_cost(&self, bytes: u64) -> SimDuration {
        let lines = bytes.div_ceil(LINE_BYTES as u64);
        self.chip.timing().write_lines(lines) + self.chip.timing().persist_barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dimm() -> PcmDimm {
        PcmDimm::new(64 * 1024, PcmTiming::gen1(), 100)
    }

    #[test]
    fn persist_then_load_roundtrips() {
        let mut d = dimm();
        let data = b"commit record 00042".to_vec();
        let t1 = d.persist(SimTime::ZERO, 100, &data);
        assert!(t1 > SimTime::ZERO);
        let (_, got) = d.load(t1, 100, data.len());
        assert_eq!(got, data);
    }

    #[test]
    fn unaligned_writes_preserve_neighbours() {
        let mut d = dimm();
        d.persist(SimTime::ZERO, 0, &[0xAA; 128]);
        // overwrite bytes 60..70 (straddles a line boundary)
        d.persist(SimTime::ZERO, 60, &[0xBB; 10]);
        let (_, got) = d.load(SimTime::ZERO, 0, 128);
        assert_eq!(&got[..60], &[0xAA; 60][..]);
        assert_eq!(&got[60..70], &[0xBB; 10][..]);
        assert_eq!(&got[70..], &[0xAA; 58][..]);
    }

    #[test]
    fn persist_latency_is_sub_microsecond_for_log_records() {
        // P1's premise: a 128-byte log record persists in ~1µs, vs
        // hundreds of µs for a flash program
        let mut d = dimm();
        let t = d.persist(SimTime::ZERO, 0, &[1u8; 128]);
        let lat = t.since(SimTime::ZERO);
        assert!(lat < SimDuration::from_micros(3), "persist took {lat}");
        assert!(lat >= SimDuration::from_nanos(700)); // 2 writes + barrier
    }

    #[test]
    fn persist_cost_formula() {
        let d = dimm();
        let c = d.persist_cost(128);
        let t = PcmTiming::gen1();
        assert_eq!(c, t.write_lines(2) + t.persist_barrier);
    }

    #[test]
    fn wear_leveling_spreads_hot_offset() {
        // hammer one offset (a WAL head); with start-gap the max line wear
        // must stay well below the total write count
        let mut d = PcmDimm::new(4096, PcmTiming::gen1(), 4);
        let writes = 4_000u64;
        let mut t = SimTime::ZERO;
        for _ in 0..writes {
            t = d.persist(t, 0, &[7u8; 64]);
        }
        let max = d.max_line_writes();
        assert!(
            max < writes / 2,
            "wear not levelled: max {max} of {writes} writes"
        );
    }

    #[test]
    fn serial_rank_queues_concurrent_persists() {
        let mut d = dimm();
        // two "threads" persist at the same instant; second must queue
        let t1 = d.persist(SimTime::ZERO, 0, &[1u8; 64]);
        let t2 = d.persist(SimTime::ZERO, 4096, &[2u8; 64]);
        assert!(t2 > t1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dimm();
        d.persist(SimTime::ZERO, 0, &[0u8; 64]);
        d.persist(SimTime::ZERO, 64, &[0u8; 64]);
        assert_eq!(d.persisted_bytes(), 128);
        assert_eq!(d.persist_latency().count(), 2);
    }

    #[test]
    fn wear_snapshot_is_consistent_with_chip_state() {
        let mut d = PcmDimm::new(4096, PcmTiming::gen1(), 4);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t = d.persist(t, 0, &[7u8; 64]);
        }
        let snap = d.wear_snapshot();
        assert_eq!(snap.lines, 64);
        assert_eq!(snap.per_line_writes.len(), 65); // + gap spare
        assert_eq!(snap.max_line_writes, d.max_line_writes());
        assert_eq!(
            snap.per_line_writes.iter().sum::<u64>(),
            snap.total_line_writes
        );
        // 100 user writes at interval 4 → 25 gap moves, each one copy write
        assert_eq!(snap.gap_moves, 25);
        assert_eq!(snap.total_line_writes, 125);
        assert!(snap.skew() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "persist beyond capacity")]
    fn persist_out_of_range_panics() {
        let mut d = PcmDimm::new(128, PcmTiming::gen1(), 100);
        d.persist(SimTime::ZERO, 100, &[0u8; 64]);
    }
}
