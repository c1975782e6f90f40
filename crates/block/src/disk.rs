//! A magnetic disk model — the device the block interface was built for.
//!
//! *"For the last thirty years, database systems have relied on magnetic
//! disks as secondary storage."* The disk's performance contract (huge
//! seek/rotation penalty, cheap sequential transfer) is what made the
//! block layer's design rational: spending CPU to sort requests
//! (elevator scheduling) pays for itself a thousandfold in saved seeks.
//! E9 contrasts this with SSDs, where the same machinery is overhead.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::Resource;

/// Disk parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskConfig {
    /// Addressable sectors (we use page-sized "sectors" of 4 KiB for
    /// comparability with the SSD experiments).
    pub sectors: u64,
    /// Minimum (track-to-track) seek.
    pub seek_min: SimDuration,
    /// Full-stroke seek.
    pub seek_full: SimDuration,
    /// Rotation period (7200 rpm → 8.33 ms).
    pub rotation: SimDuration,
    /// Sequential transfer rate, bytes per microsecond.
    pub transfer_bytes_per_us: u32,
    /// Sector (page) size in bytes.
    pub sector_bytes: u32,
}

impl DiskConfig {
    /// A 7200 rpm SATA disk of the paper's era.
    pub fn hdd_7200() -> Self {
        DiskConfig {
            sectors: 1 << 20, // 4 GiB at 4 KiB sectors
            seek_min: SimDuration::from_micros(500),
            seek_full: SimDuration::from_millis(16),
            rotation: SimDuration::from_micros(8_333),
            transfer_bytes_per_us: 150,
            sector_bytes: 4096,
        }
    }
}

/// One spindle + head assembly with a deterministic mechanical model.
///
/// Rotation is modelled as half a revolution per random access (the
/// expectation) plus a deterministic sector-phase term, keeping runs
/// reproducible without an RNG.
pub struct Disk {
    cfg: DiskConfig,
    head: u64,
    arm: Resource,
    served: u64,
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("sectors", &self.cfg.sectors)
            .field("served", &self.served)
            .finish()
    }
}

impl Disk {
    /// New disk with the head parked at sector 0.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            head: 0,
            arm: Resource::new("disk-arm"),
            served: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Mechanical service time to reach and transfer `sector` from the
    /// current head position.
    fn service_time(&self, sector: u64) -> SimDuration {
        let dist = self.head.abs_diff(sector);
        let seek = if dist <= 1 {
            // same or next sector: streaming, no head movement to pay
            SimDuration::ZERO
        } else {
            // seek ≈ min + (full − min) · sqrt(d / span): the classic
            // acceleration-limited seek curve
            let frac = (dist as f64 / self.cfg.sectors as f64).sqrt();
            self.cfg.seek_min + (self.cfg.seek_full - self.cfg.seek_min).mul_f64(frac)
        };
        // deterministic rotational delay: half a revolution on any seek,
        // zero when continuing sequentially
        let rot = if dist == 1 || dist == 0 {
            SimDuration::ZERO
        } else {
            self.cfg.rotation / 2
        };
        let transfer = SimDuration::from_nanos(
            (self.cfg.sector_bytes as u64 * 1_000).div_ceil(self.cfg.transfer_bytes_per_us as u64),
        );
        seek + rot + transfer
    }

    /// Serve one request FIFO; returns the completion instant.
    ///
    /// # Panics
    /// Panics if `sector` is out of range.
    pub fn serve(&mut self, now: SimTime, sector: u64) -> SimTime {
        assert!(sector < self.cfg.sectors, "sector out of range");
        let st = self.service_time(sector);
        let g = self.arm.reserve(now, st);
        self.head = sector;
        self.served += 1;
        g.end
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// When the arm is next free.
    pub fn drain_time(&self) -> SimTime {
        self.arm.next_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskConfig::hdd_7200())
    }

    #[test]
    fn sequential_access_is_transfer_bound() {
        let mut d = disk();
        let t0 = d.serve(SimTime::ZERO, 0);
        let t1 = d.serve(t0, 1);
        // next sequential sector: no seek, no rotation — ~27µs transfer
        let dt = t1.since(t0);
        assert!(dt < SimDuration::from_micros(50), "sequential {dt}");
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = disk();
        let t0 = d.serve(SimTime::ZERO, 0);
        let t1 = d.serve(t0, 500_000);
        let dt = t1.since(t0);
        // half-stroke seek + half rotation ≈ 10+ ms
        assert!(dt > SimDuration::from_millis(5), "random {dt}");
    }

    #[test]
    fn random_vs_sequential_gap_is_orders_of_magnitude() {
        // the disk-era performance contract the paper says no longer holds
        let mut d = disk();
        let mut t = SimTime::ZERO;
        for s in 0..64 {
            t = d.serve(t, s);
        }
        let seq = t.since(SimTime::ZERO);
        let mut d = disk();
        let mut t = SimTime::ZERO;
        let mut s = 7u64;
        for _ in 0..64 {
            s = (s.wrapping_mul(999983)) % d.config().sectors;
            t = d.serve(t, s);
        }
        let rnd = t.since(SimTime::ZERO);
        assert!(rnd.as_nanos() > 100 * seq.as_nanos(), "seq {seq} rnd {rnd}");
    }

    #[test]
    #[should_panic(expected = "sector out of range")]
    fn out_of_range_panics() {
        disk().serve(SimTime::ZERO, u64::MAX);
    }
}
