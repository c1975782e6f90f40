//! PCM latency parameters.
//!
//! Figures follow the characterization literature the paper cites (Condit
//! et al. SOSP'09; Chen/Gibbons/Nath CIDR'11): array reads near DRAM speed,
//! writes several times slower due to the thermal SET/RESET process, and a
//! large read/write asymmetry. All values are per 64-byte line.

use requiem_sim::time::SimDuration;

/// Latency/endurance model for a PCM array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcmTiming {
    /// Read one 64 B line.
    pub read_line: SimDuration,
    /// Write (SET/RESET) one 64 B line.
    pub write_line: SimDuration,
    /// Cost of a persist barrier (flush + fence) beyond the line writes.
    pub persist_barrier: SimDuration,
    /// Rated writes per line before wear-out.
    pub endurance_writes: u64,
}

impl PcmTiming {
    /// Baseline first-generation PCM (c. 2012): 85 ns read, 350 ns write,
    /// 10⁸ write endurance.
    pub fn gen1() -> Self {
        PcmTiming {
            read_line: SimDuration::from_nanos(85),
            write_line: SimDuration::from_nanos(350),
            persist_barrier: SimDuration::from_nanos(100),
            endurance_writes: 100_000_000,
        }
    }

    /// Zero-latency model: every access is free and endurance is
    /// unbounded. Used by tests that want PCM as a pure *ordering* device
    /// (e.g. proving a zero-cost `PcmWal` is an ordering identity for the
    /// immediate-commit flash path).
    pub fn zero() -> Self {
        PcmTiming {
            read_line: SimDuration::ZERO,
            write_line: SimDuration::ZERO,
            persist_barrier: SimDuration::ZERO,
            endurance_writes: u64::MAX,
        }
    }

    /// Time to read `n` lines back-to-back.
    pub fn read_lines(&self, n: u64) -> SimDuration {
        self.read_line * n
    }

    /// Time to write `n` lines back-to-back.
    pub fn write_lines(&self, n: u64) -> SimDuration {
        self.write_line * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetry_write_slower_than_read() {
        let t = PcmTiming::gen1();
        assert!(t.write_line > t.read_line);
    }

    #[test]
    fn pcm_much_faster_than_flash_page_ops() {
        // the premise of P1: a sync log write to PCM beats a flash program
        // by orders of magnitude
        let t = PcmTiming::gen1();
        let log_record = t.write_lines(2) + t.persist_barrier; // 128 B record
        assert!(log_record < SimDuration::from_micros(2));
    }

    #[test]
    fn bulk_scaling_linear() {
        let t = PcmTiming::gen1();
        assert_eq!(t.read_lines(10), SimDuration::from_nanos(850));
        assert_eq!(t.write_lines(4), SimDuration::from_nanos(1_400));
    }
}
