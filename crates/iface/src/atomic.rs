//! Extended block commands: atomic multi-page writes and barriers.
//!
//! The paper (§3): *"SSD constructors are now proposing to expose new
//! commands, e.g., atomic writes, at the driver's interface."* The cited
//! work (Ouyang et al., HPCA 2011 — "Beyond block I/O: Rethinking
//! traditional storage primitives") showed that because an FTL already
//! writes out of place, a multi-page atomic write costs essentially the
//! same as ordinary writes — the FTL just defers the mapping switch until
//! every page of the batch is durable, then commits it with one metadata
//! record. The host-side alternative (a double-write journal) pays 2× the
//! data I/O. Experiment E6 measures exactly that gap.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::IoStatus;
use requiem_ssd::{Completion, Lpn, Ssd, SsdError};

/// An SSD exposing the extended command set on top of [`Ssd`].
///
/// Dereference-style accessors expose the wrapped device; the extension
/// commands live here.
pub struct ExtendedSsd {
    inner: Ssd,
    atomic_batches: u64,
    barriers: u64,
}

impl std::fmt::Debug for ExtendedSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtendedSsd")
            .field("atomic_batches", &self.atomic_batches)
            .field("barriers", &self.barriers)
            .finish()
    }
}

/// Result of an atomic batch write.
#[derive(Debug, Clone, Copy)]
pub struct AtomicCompletion {
    /// Instant the whole batch became durable and visible.
    pub done: SimTime,
    /// End-to-end latency of the batch.
    pub latency: SimDuration,
    /// Pages written.
    pub pages: u32,
    /// Worst media status across the batch's writes (a batch is as
    /// healthy as its sickest page).
    pub status: IoStatus,
}

impl ExtendedSsd {
    /// Wrap a device.
    pub fn new(inner: Ssd) -> Self {
        ExtendedSsd {
            inner,
            atomic_batches: 0,
            barriers: 0,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &Ssd {
        &self.inner
    }

    /// Mutable access to the wrapped device (plain reads/writes/trim).
    pub fn inner_mut(&mut self) -> &mut Ssd {
        &mut self.inner
    }

    /// Ordinary single-page write (pass-through).
    pub fn write(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.inner.write(now, lpn)
    }

    /// Ordinary single-page read (pass-through).
    pub fn read(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.inner.read(now, lpn)
    }

    /// Trim (pass-through).
    pub fn trim(&mut self, now: SimTime, lpn: Lpn) -> Result<Completion, SsdError> {
        self.inner.trim(now, lpn)
    }

    /// Atomically write a batch of pages: either all become visible or
    /// none. Because the FTL writes out of place anyway, the cost is the
    /// ordinary writes plus one commit-record program's worth of metadata,
    /// folded into the final page's out-of-band area — i.e. **no extra
    /// data I/O** (Ouyang et al.).
    ///
    /// The batch completes when its last page is durable.
    pub fn write_atomic(
        &mut self,
        now: SimTime,
        lpns: &[Lpn],
    ) -> Result<AtomicCompletion, SsdError> {
        assert!(!lpns.is_empty(), "atomic batch must be non-empty");
        // pages of one batch are submitted back-to-back at the same
        // instant; the device's channels and LUNs spread them in parallel
        let mut last_done = now;
        let mut status = IoStatus::Ok;
        for &lpn in lpns {
            let c = self.inner.write(now, lpn)?;
            last_done = last_done.max(c.done);
            status = status.combine(c.status);
        }
        self.atomic_batches += 1;
        Ok(AtomicCompletion {
            done: last_done,
            latency: last_done.since(now),
            pages: lpns.len() as u32,
            status,
        })
    }

    /// Write barrier: completes when every previously submitted operation
    /// has drained to the device.
    pub fn barrier(&mut self, now: SimTime) -> SimTime {
        self.barriers += 1;
        self.inner.drain_time().max(now)
    }

    /// Barriers issued.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }
}

/// The host-side emulation an application must do **without** atomic
/// writes: a double-write journal. Every page is written twice — once to
/// a journal area, barrier, then once in place. Returns the completion of
/// the in-place writes. Used by E6 as the baseline.
pub fn double_write_journal(
    ssd: &mut Ssd,
    now: SimTime,
    lpns: &[Lpn],
    journal_base: Lpn,
) -> Result<AtomicCompletion, SsdError> {
    assert!(!lpns.is_empty(), "batch must be non-empty");
    let mut status = IoStatus::Ok;
    // phase 1: journal copies, submitted together
    let mut phase1_done = now;
    for (i, _) in lpns.iter().enumerate() {
        let c = ssd.write(now, Lpn(journal_base.0 + i as u64))?;
        phase1_done = phase1_done.max(c.done);
        status = status.combine(c.status);
    }
    // barrier: journal must be durable before in-place writes begin
    let t = phase1_done.max(ssd.drain_time());
    // phase 2: in-place writes, submitted together
    let mut done = t;
    for &lpn in lpns {
        let c = ssd.write(t, lpn)?;
        done = done.max(c.done);
        status = status.combine(c.status);
    }
    Ok(AtomicCompletion {
        done,
        latency: done.since(now),
        pages: lpns.len() as u32,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_ssd::{Served, SsdConfig};

    fn device() -> ExtendedSsd {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        ExtendedSsd::new(Ssd::new(cfg))
    }

    #[test]
    fn atomic_batch_writes_all_pages() {
        let mut d = device();
        let lpns: Vec<Lpn> = (0..8).map(Lpn).collect();
        let c = d.write_atomic(SimTime::ZERO, &lpns).unwrap();
        assert_eq!(c.pages, 8);
        assert!(c.done > SimTime::ZERO);
        // all pages readable afterwards
        let mut t = c.done;
        for lpn in lpns {
            let r = d.read(t, lpn).unwrap();
            assert_eq!(r.served, Served::Flash);
            t = r.done;
        }
    }

    #[test]
    fn atomic_write_costs_no_extra_data_io() {
        let mut d = device();
        let lpns: Vec<Lpn> = (0..8).map(Lpn).collect();
        d.write_atomic(SimTime::ZERO, &lpns).unwrap();
        // exactly one program per page — the ref [17] result
        assert_eq!(d.inner().metrics().flash_programs.host, 8);
    }

    #[test]
    fn double_write_journal_pays_twice() {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        let mut ssd = Ssd::new(cfg);
        let lpns: Vec<Lpn> = (0..8).map(Lpn).collect();
        double_write_journal(&mut ssd, SimTime::ZERO, &lpns, Lpn(1000)).unwrap();
        assert_eq!(ssd.metrics().flash_programs.host, 16);
    }

    #[test]
    fn atomic_latency_beats_double_write() {
        let mut atomic_dev = device();
        let lpns: Vec<Lpn> = (0..8).map(Lpn).collect();
        let a = atomic_dev.write_atomic(SimTime::ZERO, &lpns).unwrap();

        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        let mut journal_dev = Ssd::new(cfg);
        let j = double_write_journal(&mut journal_dev, SimTime::ZERO, &lpns, Lpn(1000)).unwrap();
        assert!(
            a.latency.as_nanos() * 3 < j.latency.as_nanos() * 2,
            "atomic {} vs journal {}",
            a.latency,
            j.latency
        );
    }

    #[test]
    fn barrier_returns_drain_time() {
        let mut d = device();
        d.write(SimTime::ZERO, Lpn(0)).unwrap();
        let b = d.barrier(SimTime::ZERO);
        assert_eq!(b, d.inner().drain_time());
        assert_eq!(d.barriers(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_atomic_batch_rejected() {
        let mut d = device();
        let _ = d.write_atomic(SimTime::ZERO, &[]);
    }
}
