//! Device metrics: the observable truth behind the myths.
//!
//! Every flash operation is attributed to a *cause* (host, garbage
//! collection, wear leveling, FTL merge, translation traffic) so
//! experiments can decompose write amplification and latency the way the
//! paper's §2.3 argument requires.

use requiem_sim::time::SimDuration;
use requiem_sim::{Histogram, Occupant};

/// Why a flash operation happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpCause {
    /// Directly serving a host command.
    Host,
    /// Garbage-collection relocation.
    Gc,
    /// Wear-leveling migration.
    WearLevel,
    /// Block/hybrid-FTL merge traffic.
    Merge,
    /// DFTL translation-page traffic.
    Translation,
    /// Error-recovery traffic (read-retry rungs, ECC escalation senses,
    /// parity-rebuild stripe reads, post-rebuild relocations).
    Recovery,
}

/// The tag a flash operation's grants carry on the resource timelines,
/// so later waiters can blame their queueing delay on its cause.
impl From<OpCause> for Occupant {
    #[inline]
    fn from(cause: OpCause) -> Self {
        match cause {
            OpCause::Host => Occupant::Host,
            OpCause::Gc => Occupant::Gc,
            OpCause::WearLevel => Occupant::Wear,
            OpCause::Merge => Occupant::Merge,
            OpCause::Translation => Occupant::Translation,
            OpCause::Recovery => Occupant::Recovery,
        }
    }
}

/// Counters for one operation type, split by cause.
#[derive(Debug, Clone, Default)]
pub struct CauseCounts {
    /// Host-caused.
    pub host: u64,
    /// GC-caused.
    pub gc: u64,
    /// Wear-leveling-caused.
    pub wear_level: u64,
    /// Merge-caused.
    pub merge: u64,
    /// Translation-caused.
    pub translation: u64,
    /// Recovery-caused.
    pub recovery: u64,
}

impl CauseCounts {
    /// Add one for `cause`.
    pub(crate) fn bump(&mut self, cause: OpCause) {
        match cause {
            OpCause::Host => self.host += 1,
            OpCause::Gc => self.gc += 1,
            OpCause::WearLevel => self.wear_level += 1,
            OpCause::Merge => self.merge += 1,
            OpCause::Translation => self.translation += 1,
            OpCause::Recovery => self.recovery += 1,
        }
    }

    /// Sum over all causes.
    pub fn total(&self) -> u64 {
        self.host + self.gc + self.wear_level + self.merge + self.translation + self.recovery
    }
}

/// Error-recovery pipeline accounting: how often each escalation stage
/// ran and what it salvaged. Zero-fault runs leave every field at zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Read-retry rungs issued (re-senses at shifted read voltages).
    pub retry_attempts: u64,
    /// Reads recovered by the retry ladder alone.
    pub retry_recovered: u64,
    /// Soft-decision ECC escalations attempted after the ladder ran dry.
    pub ecc_escalations: u64,
    /// Stripe parity rebuilds attempted (the last resort).
    pub parity_rebuilds: u64,
    /// Pages relocated off a suspect block after a parity rebuild.
    pub rebuild_relocations: u64,
    /// Program failures salvaged into a fresh block by `append_page`.
    pub program_salvages: u64,
    /// Blocks retired because an erase failed.
    pub erase_retirements: u64,
    /// Reads that exhausted the whole pipeline (data lost).
    pub unrecoverable: u64,
    /// Total device time spent inside the recovery pipeline (beyond the
    /// initial failed sense).
    pub recovery_time: SimDuration,
}

/// Full device metrics.
#[derive(Debug, Default)]
pub struct SsdMetrics {
    /// Host read commands served.
    pub host_reads: u64,
    /// Host write commands served.
    pub host_writes: u64,
    /// Host trim commands served.
    pub host_trims: u64,
    /// Host reads of never-written pages.
    pub unmapped_reads: u64,
    /// Host reads served from the write buffer.
    pub buffer_read_hits: u64,

    /// Flash page reads by cause.
    pub flash_reads: CauseCounts,
    /// Flash page programs by cause.
    pub flash_programs: CauseCounts,
    /// Flash block erases by cause.
    pub flash_erases: CauseCounts,

    /// GC invocations.
    pub gc_runs: u64,
    /// GC triggers suppressed by the re-entrancy gate (a GC-internal
    /// allocation tried to start a nested collection).
    pub gc_reentries_blocked: u64,
    /// Pages relocated by GC.
    pub gc_pages_moved: u64,
    /// Full merges (block/hybrid FTL).
    pub merges_full: u64,
    /// Switch merges (hybrid FTL, sequential case).
    pub merges_switch: u64,
    /// Blocks retired for wear.
    pub blocks_retired: u64,
    /// Read-disturb scrubs performed (block relocations).
    pub scrubs: u64,
    /// Reads whose first sense failed ECC decode (each one entered the
    /// recovery pipeline; see [`RecoveryMetrics`] for how it fared).
    pub uncorrectable_reads: u64,
    /// Error-recovery pipeline accounting.
    pub recovery: RecoveryMetrics,

    /// End-to-end host read latency.
    pub read_latency: Histogram,
    /// Time host reads spent waiting for a busy LUN (myth 3's stalls).
    pub read_lun_wait: Histogram,
}

impl SsdMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write amplification: flash programs per host page write.
    /// Returns 0 when nothing was written.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 0.0;
        }
        self.flash_programs.total() as f64 / self.host_writes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_counts_bump_and_total() {
        let mut c = CauseCounts::default();
        c.bump(OpCause::Host);
        c.bump(OpCause::Host);
        c.bump(OpCause::Gc);
        c.bump(OpCause::Merge);
        c.bump(OpCause::Translation);
        c.bump(OpCause::WearLevel);
        assert_eq!(c.total(), 6);
        assert_eq!(c.host, 2);
    }

    #[test]
    fn amplification_ratios() {
        let mut m = SsdMetrics::new();
        assert_eq!(m.write_amplification(), 0.0);
        m.host_writes = 10;
        m.flash_programs.host = 10;
        m.flash_programs.gc = 5;
        assert!((m.write_amplification() - 1.5).abs() < 1e-12);
    }
}
