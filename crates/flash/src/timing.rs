//! Flash operation latencies.
//!
//! Latency constants reflect c. 2012 datasheets (ONFI-class dies), the
//! hardware generation the paper discusses:
//!
//! | cell | read (tR) | program (tPROG) | erase (tBERS) |
//! |------|-----------|-----------------|---------------|
//! | SLC  | 25 µs     | 200 µs          | 1.5 ms        |
//! | MLC  | 50 µs     | 600 µs / 1.2 ms | 3 ms          |
//! | TLC  | 75 µs     | 900 µs / 2.1 ms | 4 ms          |
//!
//! MLC/TLC program times are *paired-page* asymmetric: the cells of a
//! word-line hold multiple bits, and the "fast" (LSB) pages program much
//! faster than the "slow" (MSB) pages. The 3 ms erase is the paper's own
//! number for a read stalling behind an erase (myth 3).

use requiem_sim::time::SimDuration;

/// Latency model of one flash die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashTiming {
    /// Page read (array-to-register), tR.
    pub read: SimDuration,
    /// Fast-page program (LSB pages), tPROG fast.
    pub program_fast: SimDuration,
    /// Slow-page program (MSB pages), tPROG slow. Equal to
    /// `program_fast` for SLC.
    pub program_slow: SimDuration,
    /// Block erase, tBERS.
    pub erase: SimDuration,
    /// How many consecutive pages share a speed class (pairing stride).
    /// With stride 2: pages 0,1 fast; 2,3 slow; 4,5 fast; …
    /// Stride 0 disables pairing (all pages fast).
    pub pairing_stride: u32,
}

impl FlashTiming {
    /// MLC timings with fast/slow paired pages.
    pub fn mlc() -> Self {
        FlashTiming {
            read: SimDuration::from_micros(50),
            program_fast: SimDuration::from_micros(600),
            program_slow: SimDuration::from_micros(1_200),
            erase: SimDuration::from_micros(3_000),
            pairing_stride: 2,
        }
    }

    /// TLC timings: slowest, largest fast/slow asymmetry.
    pub fn tlc() -> Self {
        FlashTiming {
            read: SimDuration::from_micros(75),
            program_fast: SimDuration::from_micros(900),
            program_slow: SimDuration::from_micros(2_100),
            erase: SimDuration::from_micros(4_000),
            pairing_stride: 2,
        }
    }

    /// Program latency for a page index within its block, applying paired-
    /// page asymmetry.
    pub fn program(&self, page_in_block: u32) -> SimDuration {
        if self.pairing_stride == 0 {
            return self.program_fast;
        }
        // groups of `stride` pages alternate fast/slow
        let group = page_in_block / self.pairing_stride;
        if group % 2 == 0 {
            self.program_fast
        } else {
            self.program_slow
        }
    }

    /// Mean program latency across a block (used for capacity planning).
    pub fn program_mean(&self) -> SimDuration {
        if self.pairing_stride == 0 {
            self.program_fast
        } else {
            (self.program_fast + self.program_slow) / 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_density() {
        let mlc = FlashTiming::mlc();
        let tlc = FlashTiming::tlc();
        assert!(mlc.read < tlc.read);
        assert!(mlc.program_mean() < tlc.program_mean());
        assert!(mlc.erase < tlc.erase);
    }

    #[test]
    fn paper_numbers_hold() {
        // myth 3's "wait 3ms for the completion of an erase" is MLC tBERS
        assert_eq!(FlashTiming::mlc().erase, SimDuration::from_millis(3));
        // chip-level reads are much cheaper than programs (myth 3 premise)
        let mlc = FlashTiming::mlc();
        assert!(mlc.program_mean().as_nanos() >= 10 * mlc.read.as_nanos());
    }

    #[test]
    fn paired_pages_alternate() {
        let t = FlashTiming::mlc(); // stride 2
        assert_eq!(t.program(0), t.program_fast);
        assert_eq!(t.program(1), t.program_fast);
        assert_eq!(t.program(2), t.program_slow);
        assert_eq!(t.program(3), t.program_slow);
        assert_eq!(t.program(4), t.program_fast);
    }

    #[test]
    fn slc_has_uniform_programs() {
        let t = FlashTiming {
            pairing_stride: 0,
            ..FlashTiming::mlc()
        };
        for p in 0..8 {
            assert_eq!(t.program(p), t.program_fast);
        }
        assert_eq!(t.program_mean(), t.program_fast);
    }

    #[test]
    fn mean_is_midpoint_for_paired() {
        let t = FlashTiming::mlc();
        assert_eq!(t.program_mean(), SimDuration::from_micros(900));
    }
}
