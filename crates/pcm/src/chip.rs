//! The PCM chip: cache-line-granular storage with per-line wear.
//!
//! Contrast with flash (`requiem_flash::Lun`): **in-place updates, no
//! erase, byte addressability** — the properties the paper lists as
//! removing the need for copy-on-write and garbage collection. What
//! remains is write endurance, handled by [`crate::StartGap`] inside
//! higher-level devices.

use requiem_sim::time::SimDuration;

use crate::timing::PcmTiming;
use crate::LINE_BYTES;

/// Result of a PCM line access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcmAccess {
    /// Time the array is busy.
    pub duration: SimDuration,
    /// True if the accessed line has exceeded rated endurance (data is
    /// still returned — PCM fails progressively via stuck cells, which the
    /// on-chip error correction the paper mentions would mask until it
    /// can't; callers use this to retire regions).
    pub worn: bool,
}

/// A PCM array of `lines` 64-byte lines with data + wear tracking.
pub struct PcmChip {
    timing: PcmTiming,
    data: Vec<[u8; LINE_BYTES as usize]>,
    writes: Vec<u64>,
    total_reads: u64,
    total_writes: u64,
}

impl std::fmt::Debug for PcmChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmChip")
            .field("lines", &self.data.len())
            .field("reads", &self.total_reads)
            .field("writes", &self.total_writes)
            .finish()
    }
}

impl PcmChip {
    /// Create a zero-filled array of `lines` cache lines.
    pub fn new(lines: u64, timing: PcmTiming) -> Self {
        PcmChip {
            timing,
            data: vec![[0u8; LINE_BYTES as usize]; lines as usize],
            writes: vec![0; lines as usize],
            total_reads: 0,
            total_writes: 0,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.data.len() as u64
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.lines() * LINE_BYTES as u64
    }

    /// The timing model.
    pub fn timing(&self) -> &PcmTiming {
        &self.timing
    }

    /// Read one line.
    ///
    /// # Panics
    /// Panics if `line` is out of range.
    pub fn read_line(&mut self, line: u64) -> (PcmAccess, [u8; LINE_BYTES as usize]) {
        let idx = line as usize;
        self.total_reads += 1;
        (
            PcmAccess {
                duration: self.timing.read_line,
                worn: self.writes[idx] > self.timing.endurance_writes,
            },
            self.data[idx],
        )
    }

    /// Write one line **in place** (no erase needed — the PCM property the
    /// paper contrasts against flash C2/C3).
    ///
    /// # Panics
    /// Panics if `line` is out of range.
    pub fn write_line(&mut self, line: u64, bytes: &[u8; LINE_BYTES as usize]) -> PcmAccess {
        let idx = line as usize;
        self.data[idx] = *bytes;
        self.writes[idx] += 1;
        self.total_writes += 1;
        PcmAccess {
            duration: self.timing.write_line,
            worn: self.writes[idx] > self.timing.endurance_writes,
        }
    }

    /// Copy a line (used by Start-Gap gap moves).
    pub fn copy_line(&mut self, from: u64, to: u64) -> SimDuration {
        let bytes = self.data[from as usize];
        let r = self.timing.read_line;
        let w = self.write_line(to, &bytes).duration;
        r + w
    }

    /// Per-line write counts for every physical line (index = physical
    /// line number, including any spare the caller reserved).
    pub fn line_write_counts(&self) -> &[u64] {
        &self.writes
    }

    /// Maximum per-line write count.
    pub fn max_line_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-line write count.
    pub fn mean_line_writes(&self) -> f64 {
        if self.writes.is_empty() {
            return 0.0;
        }
        self.writes.iter().map(|&w| w as f64).sum::<f64>() / self.writes.len() as f64
    }

    /// `(reads, writes)` performed.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.total_reads, self.total_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> PcmChip {
        PcmChip::new(64, PcmTiming::gen1())
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut c = chip();
        let mut line = [0u8; 64];
        line[0] = 0xDE;
        line[63] = 0xAD;
        c.write_line(7, &line);
        let (_, got) = c.read_line(7);
        assert_eq!(got, line);
    }

    #[test]
    fn in_place_update_no_erase_needed() {
        // the key contrast with flash C2: overwriting works directly
        let mut c = chip();
        c.write_line(3, &[1u8; 64]);
        c.write_line(3, &[2u8; 64]);
        let (_, got) = c.read_line(3);
        assert_eq!(got, [2u8; 64]);
        assert_eq!(c.line_write_counts()[3], 2);
    }

    #[test]
    fn latencies_match_timing() {
        let mut c = chip();
        let w = c.write_line(0, &[0u8; 64]);
        assert_eq!(w.duration, PcmTiming::gen1().write_line);
        let (r, _) = c.read_line(0);
        assert_eq!(r.duration, PcmTiming::gen1().read_line);
    }

    #[test]
    fn wear_flag_raises_past_endurance() {
        let mut t = PcmTiming::gen1();
        t.endurance_writes = 5;
        let mut c = PcmChip::new(4, t);
        for _ in 0..5 {
            assert!(!c.write_line(0, &[0u8; 64]).worn);
        }
        assert!(c.write_line(0, &[0u8; 64]).worn);
        let (r, _) = c.read_line(0);
        assert!(r.worn);
    }

    #[test]
    fn copy_line_moves_data_and_costs_read_plus_write() {
        let mut c = chip();
        c.write_line(1, &[9u8; 64]);
        let d = c.copy_line(1, 2);
        assert_eq!(
            d,
            PcmTiming::gen1().read_line + PcmTiming::gen1().write_line
        );
        assert_eq!(c.read_line(2).1, [9u8; 64]);
    }

    #[test]
    fn wear_metrics() {
        let mut c = chip();
        c.write_line(0, &[0u8; 64]);
        c.write_line(0, &[0u8; 64]);
        c.write_line(1, &[0u8; 64]);
        assert_eq!(c.max_line_writes(), 2);
        assert!((c.mean_line_writes() - 3.0 / 64.0).abs() < 1e-12);
        assert_eq!(c.op_counts(), (0, 3));
    }
}
