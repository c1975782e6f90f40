//! CPU cost model for the I/O submission and completion paths.
//!
//! Numbers follow published measurements of the Linux I/O path (Caulfield
//! et al. ASPLOS'12 — the paper's ref \[7\] — and the blk-mq work): a
//! legacy 2.6-era path spends several microseconds per I/O; the
//! streamlined path cuts that down to about a microsecond.

use requiem_sim::time::SimDuration;

/// Per-stage CPU costs of one I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuCosts {
    /// Syscall entry + buffer pinning + bio setup.
    pub submit: SimDuration,
    /// Work done while holding the request-queue lock (insert, merge
    /// check, dispatch). This is the contention window in single-queue
    /// mode.
    pub queue_lock: SimDuration,
    /// Driver doorbell / command ring write.
    pub doorbell: SimDuration,
    /// Hard interrupt entry/exit.
    pub interrupt: SimDuration,
    /// Context switch to resume the blocked issuer.
    pub context_switch: SimDuration,
    /// Completion-path bookkeeping (bio end, page unpin, wakeup).
    pub complete: SimDuration,
}

impl CpuCosts {
    /// The disk-era (pre-SSD) path: heavyweight, nobody cared — the
    /// device took 10 ms anyway.
    pub fn disk_era() -> Self {
        CpuCosts {
            submit: SimDuration::from_nanos(2_500),
            queue_lock: SimDuration::from_nanos(1_200),
            doorbell: SimDuration::from_nanos(400),
            interrupt: SimDuration::from_nanos(1_500),
            context_switch: SimDuration::from_nanos(2_000),
            complete: SimDuration::from_nanos(1_500),
        }
    }

    /// The streamlined SSD-era path (blk-mq-like).
    pub fn streamlined() -> Self {
        CpuCosts {
            submit: SimDuration::from_nanos(700),
            queue_lock: SimDuration::from_nanos(250),
            doorbell: SimDuration::from_nanos(150),
            interrupt: SimDuration::from_nanos(1_000),
            context_switch: SimDuration::from_nanos(1_300),
            complete: SimDuration::from_nanos(400),
        }
    }

    /// Total CPU time per I/O with interrupt completions.
    pub fn per_io_interrupt(&self) -> SimDuration {
        self.submit
            + self.queue_lock
            + self.doorbell
            + self.interrupt
            + self.context_switch
            + self.complete
    }

    /// CPU time per I/O on the submission side only (polling keeps the
    /// core busy for the device time as well, so "overhead" is submission
    /// + completion without interrupt/context switch).
    pub fn per_io_polling(&self) -> SimDuration {
        self.submit + self.queue_lock + self.doorbell + self.complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamlined_is_cheaper_everywhere() {
        let old = CpuCosts::disk_era();
        let new = CpuCosts::streamlined();
        assert!(new.submit < old.submit);
        assert!(new.queue_lock < old.queue_lock);
        assert!(new.per_io_interrupt() < old.per_io_interrupt());
    }

    #[test]
    fn polling_path_avoids_irq_and_switch() {
        let c = CpuCosts::streamlined();
        assert_eq!(
            c.per_io_interrupt() - c.per_io_polling(),
            c.interrupt + c.context_switch
        );
    }

    #[test]
    fn disk_era_is_several_microseconds() {
        let d = CpuCosts::disk_era().per_io_interrupt();
        assert!(d > SimDuration::from_micros(5) && d < SimDuration::from_micros(15));
    }
}
