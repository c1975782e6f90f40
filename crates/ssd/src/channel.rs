//! Channel (bus) timing.
//!
//! A channel carries commands and page data between the controller and the
//! chips wired to it. §2.2: operations on distinct LUNs proceed in
//! parallel, **but their transfers contend for the shared channel** — the
//! effect Figure 1 visualizes and myth 3 leans on (*"reads tend to be
//! channel-bound while writes tend to be chip-bound, and channel
//! parallelism is much more limited than chip parallelism"*).

use requiem_sim::time::SimDuration;

/// Timing model of one flash channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelTiming {
    /// Command/address cycle overhead per operation.
    pub command: SimDuration,
    /// Bus throughput in bytes per microsecond (MB/s numerically).
    pub bytes_per_us: u32,
}

impl ChannelTiming {
    /// ONFI-2-class bus (c. 2009): 40 MB/s. A 4 KiB page takes ~100 µs —
    /// comparable to tR, which is what makes Figure 1's read case so
    /// visibly channel-bound.
    pub fn onfi2() -> Self {
        ChannelTiming {
            command: SimDuration::from_nanos(200),
            bytes_per_us: 40,
        }
    }

    /// ONFI-3-class bus (c. 2012): 400 MB/s. A 4 KiB page takes ~10 µs.
    pub fn onfi3() -> Self {
        ChannelTiming {
            command: SimDuration::from_nanos(200),
            bytes_per_us: 400,
        }
    }

    /// Transfer time for `bytes` of page data (excluding command overhead).
    pub fn transfer(&self, bytes: u32) -> SimDuration {
        // ns = bytes * 1000 / bytes_per_us
        SimDuration::from_nanos((bytes as u64 * 1_000).div_ceil(self.bytes_per_us as u64))
    }

    /// Command + data-in time for a write of `bytes`.
    pub fn write_bus_time(&self, bytes: u32) -> SimDuration {
        self.command + self.transfer(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onfi2_page_transfer_is_about_100us() {
        let t = ChannelTiming::onfi2().transfer(4096);
        assert_eq!(t, SimDuration::from_nanos(102_400));
    }

    #[test]
    fn onfi3_is_10x_faster() {
        let slow = ChannelTiming::onfi2().transfer(4096);
        let fast = ChannelTiming::onfi3().transfer(4096);
        assert_eq!(slow.as_nanos(), fast.as_nanos() * 10);
    }

    #[test]
    fn write_bus_time_includes_command() {
        let ct = ChannelTiming::onfi3();
        assert_eq!(ct.write_bus_time(4096), ct.command + ct.transfer(4096));
    }

    #[test]
    fn transfer_rounds_up() {
        let ct = ChannelTiming {
            command: SimDuration::ZERO,
            bytes_per_us: 3,
        };
        // 4 bytes at 3 B/µs = 1333.33..ns → 1334
        assert_eq!(ct.transfer(4), SimDuration::from_nanos(1334));
    }
}
