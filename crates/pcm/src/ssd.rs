//! A PCM-based SSD (the paper's ref \[1\], Onyx-style).
//!
//! §2.4: *"even if we contemplate pure PCM-based SSDs, the issues of
//! parallelism, wear leveling and error management will likely introduce
//! significant complexity. Also, PCM-based SSDs will not make the issues of
//! low latency and high-parallelism disappear."*
//!
//! [`PcmSsd`] makes that concrete: PCM banks behind shared channels, pages
//! striped across banks, Start-Gap wear leveling per bank. There is no FTL
//! mapping (in-place updates), no garbage collection, no erase — yet the
//! device still has queueing at channels and banks, still needs scheduling
//! to reach nominal bandwidth, and still wears. Experiment E10 compares
//! this against a flash SSD.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Resource, ResourceBank};

use crate::timing::PcmTiming;
use crate::wear::StartGap;
use crate::LINE_BYTES;

/// Configuration of a PCM SSD.
#[derive(Debug, Clone)]
pub struct PcmSsdConfig {
    /// Independent channels to the banks.
    pub channels: u32,
    /// PCM banks per channel.
    pub banks_per_channel: u32,
    /// Page (request) size in bytes.
    pub page_size: u32,
    /// Pages per bank.
    pub pages_per_bank: u64,
    /// Channel transfer time per page (PCIe-class link per lane).
    pub transfer_per_page: SimDuration,
    /// Array timing.
    pub timing: PcmTiming,
    /// Start-Gap rotation interval (writes per gap move).
    pub gap_interval: u64,
}

impl PcmSsdConfig {
    /// A small Onyx-like device: 4 channels × 4 banks, 4 KiB pages.
    pub fn small() -> Self {
        PcmSsdConfig {
            channels: 4,
            banks_per_channel: 4,
            page_size: 4096,
            pages_per_bank: 4096,
            transfer_per_page: SimDuration::from_micros(2),
            timing: PcmTiming::gen1(),
            gap_interval: 100,
        }
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_bank * self.channels as u64 * self.banks_per_channel as u64
    }

    /// Lines per page.
    pub fn lines_per_page(&self) -> u64 {
        (self.page_size as u64).div_ceil(LINE_BYTES as u64)
    }
}

/// Completion information for one I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcmIoDone {
    /// When the I/O completed.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
}

struct Bank {
    remap: StartGap,
    writes: Vec<u64>,
}

/// A PCM storage array behind a block-style page interface.
pub struct PcmSsd {
    cfg: PcmSsdConfig,
    channels: ResourceBank,
    banks: Vec<Resource>, // serial array access per bank
    bank_state: Vec<Bank>,
    reads: u64,
    writes: u64,
}

impl std::fmt::Debug for PcmSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmSsd")
            .field("channels", &self.cfg.channels)
            .field("banks", &self.banks.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl PcmSsd {
    /// Build a device from a config.
    pub fn new(cfg: PcmSsdConfig) -> Self {
        let nbanks = (cfg.channels * cfg.banks_per_channel) as usize;
        let bank_state = (0..nbanks)
            .map(|_| Bank {
                remap: StartGap::new(cfg.pages_per_bank, cfg.gap_interval),
                writes: vec![0; cfg.pages_per_bank as usize + 1],
            })
            .collect();
        PcmSsd {
            channels: ResourceBank::new("pcm-chan", cfg.channels as usize),
            banks: (0..nbanks)
                .map(|i| Resource::new(format!("pcm-bank{i}")))
                .collect(),
            bank_state,
            cfg,
            reads: 0,
            writes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PcmSsdConfig {
        &self.cfg
    }

    /// Pages addressable.
    pub fn total_pages(&self) -> u64 {
        self.cfg.total_pages()
    }

    /// Static striping: page → (bank, page-in-bank). Stripes across
    /// channels first so consecutive pages use different channels.
    fn locate(&self, page: u64) -> (usize, u64) {
        let nbanks = self.banks.len() as u64;
        let bank = (page % nbanks) as usize;
        let within = page / nbanks;
        (bank, within)
    }

    /// Array time for one page worth of lines.
    fn array_time(&self, write: bool) -> SimDuration {
        let lines = self.cfg.lines_per_page();
        if write {
            self.cfg.timing.write_lines(lines)
        } else {
            self.cfg.timing.read_lines(lines)
        }
    }

    /// Read one page.
    ///
    /// # Panics
    /// Panics if `page` is out of range.
    pub fn read_page(&mut self, now: SimTime, page: u64) -> PcmIoDone {
        assert!(page < self.total_pages(), "page out of range");
        let (bank, _within) = self.locate(page);
        let chan = bank % self.channels.len();
        // command + array read, then transfer out on the channel
        let at = self.array_time(false);
        let array = self.banks[bank].reserve(now, at);
        let xfer = self
            .channels
            .get_mut(chan)
            .reserve(array.end, self.cfg.transfer_per_page);
        self.reads += 1;
        PcmIoDone {
            done: xfer.end,
            latency: xfer.end.since(now),
        }
    }

    /// Write one page (in place; wear levelled by Start-Gap).
    ///
    /// # Panics
    /// Panics if `page` is out of range.
    pub fn write_page(&mut self, now: SimTime, page: u64) -> PcmIoDone {
        assert!(page < self.total_pages(), "page out of range");
        let (bank, within) = self.locate(page);
        let chan = bank % self.channels.len();
        // transfer in on the channel, then array write
        let xfer = self
            .channels
            .get_mut(chan)
            .reserve(now, self.cfg.transfer_per_page);
        let mut array_t = self.array_time(true);
        let state = &mut self.bank_state[bank];
        let slot = state.remap.map(within);
        state.writes[slot as usize] += 1;
        if state.remap.on_write().is_some() {
            // gap move: one page copy (read + write) of overhead
            array_t += self.cfg.timing.read_lines(self.cfg.lines_per_page())
                + self.cfg.timing.write_lines(self.cfg.lines_per_page());
        }
        let array = self.banks[bank].reserve(xfer.end, array_t);
        self.writes += 1;
        PcmIoDone {
            done: array.end,
            latency: array.end.since(now),
        }
    }

    /// Max page-slot write count across banks (wear metric).
    pub fn max_slot_writes(&self) -> u64 {
        self.bank_state
            .iter()
            .flat_map(|b| b.writes.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// When every queued operation has drained.
    pub fn drain_time(&self) -> SimTime {
        let banks = self
            .banks
            .iter()
            .map(|b| b.next_free())
            .fold(SimTime::ZERO, SimTime::max);
        banks.max(self.channels.drain_time())
    }

    /// `(reads, writes)` served.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> PcmSsd {
        PcmSsd::new(PcmSsdConfig::small())
    }

    #[test]
    fn single_read_latency_is_array_plus_transfer() {
        let mut s = ssd();
        let done = s.read_page(SimTime::ZERO, 0);
        let expect = s.array_time(false) + s.cfg.transfer_per_page;
        assert_eq!(done.latency, expect);
    }

    #[test]
    fn consecutive_pages_hit_different_banks() {
        let s = ssd();
        let (b0, _) = s.locate(0);
        let (b1, _) = s.locate(1);
        assert_ne!(b0, b1);
    }

    #[test]
    fn parallel_reads_across_banks_overlap() {
        let mut s = ssd();
        // 16 banks: 16 reads to distinct banks at t=0 mostly overlap
        let mut last = SimTime::ZERO;
        for p in 0..16 {
            let d = s.read_page(SimTime::ZERO, p);
            last = last.max(d.done);
        }
        let serial = (s.array_time(false) + s.cfg.transfer_per_page) * 16;
        assert!(
            last.since(SimTime::ZERO).as_nanos() < serial.as_nanos() / 2,
            "no parallelism: makespan {last}"
        );
    }

    #[test]
    fn same_bank_requests_serialize() {
        // pages p and p+16 share a bank (16 banks) — the paper's point
        // that PCM SSDs still queue
        let mut s = ssd();
        let a = s.read_page(SimTime::ZERO, 0);
        let b = s.read_page(SimTime::ZERO, 16);
        assert!(b.done > a.done);
        assert!(b.latency > a.latency);
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut s = ssd();
        let r = s.read_page(SimTime::ZERO, 0);
        let w = s.write_page(SimTime::ZERO, 1);
        assert!(w.latency > r.latency);
    }

    #[test]
    fn wear_leveling_bounds_hot_page() {
        // small bank + aggressive gap interval so rotation sweeps the hot
        // slot many times within the test
        let mut cfg = PcmSsdConfig::small();
        cfg.pages_per_bank = 16;
        cfg.gap_interval = 4;
        let mut s = PcmSsd::new(cfg);
        let mut t = SimTime::ZERO;
        let n = 2_000u64;
        for _ in 0..n {
            let d = s.write_page(t, 0);
            t = d.done;
        }
        let max = s.max_slot_writes();
        assert!(
            max < n / 2,
            "start-gap should move the hot page: max={max} of {n}"
        );
    }

    #[test]
    fn op_counts_count_reads_and_writes() {
        let mut s = ssd();
        s.read_page(SimTime::ZERO, 0);
        s.write_page(SimTime::ZERO, 1);
        assert_eq!(s.op_counts(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "page out of range")]
    fn out_of_range_read_panics() {
        let mut s = ssd();
        let total = s.total_pages();
        s.read_page(SimTime::ZERO, total);
    }
}
