//! Device-level addressing: logical pages, global LUN ids, physical pages.
//!
//! The SSD exposes a flat logical-page-number space ([`Lpn`]) and maps it
//! onto physical pages ([`PhysPage`]) spread over a
//! `channels × chips-per-channel × luns-per-chip` array — the structure of
//! the paper's Figure 2 ("flash memory array").

use requiem_flash::{Geometry, PageAddr};

/// A logical page number in the device's exported address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lpn(pub u64);

/// A global LUN index across the whole device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LunId(pub u32);

/// A physical page: which LUN, and where inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysPage {
    /// Global LUN.
    pub lun: LunId,
    /// Page within the LUN.
    pub addr: PageAddr,
}

/// The device-level array shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayShape {
    /// Independent channels.
    pub channels: u32,
    /// Chips per channel.
    pub chips_per_channel: u32,
    /// LUNs (dies) per chip.
    pub luns_per_chip: u32,
}

impl ArrayShape {
    /// Total LUNs in the device.
    pub fn total_luns(&self) -> u32 {
        self.channels * self.chips_per_channel * self.luns_per_chip
    }

    /// The channel a LUN is wired to.
    pub fn channel_of(&self, lun: LunId) -> u32 {
        lun.0 / (self.chips_per_channel * self.luns_per_chip)
    }

    /// LUNs in channel-interleaved order: lun 0 → chan 0, lun 1 → chan 1, …
    /// Useful for striping writes across channels before chips.
    pub fn interleaved_lun(&self, i: u32) -> LunId {
        let per_chan = self.chips_per_channel * self.luns_per_chip;
        let chan = i % self.channels;
        let within = (i / self.channels) % per_chan;
        LunId(chan * per_chan + within)
    }
}

/// Capacity accounting for a device: raw vs exported (over-provisioned).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// Raw physical pages across all LUNs.
    pub raw_pages: u64,
    /// Exported logical pages (LBA space).
    pub exported_pages: u64,
    /// Over-provisioning ratio actually applied.
    pub op_ratio: f64,
}

impl Capacity {
    /// Derive capacity from shape, per-LUN geometry and requested OP ratio.
    pub fn derive(shape: &ArrayShape, geom: &Geometry, op_ratio: f64) -> Self {
        assert!(
            (0.0..0.9).contains(&op_ratio),
            "over-provisioning ratio must be in [0, 0.9)"
        );
        let raw = shape.total_luns() as u64 * geom.total_pages();
        let exported = ((raw as f64) * (1.0 - op_ratio)).floor() as u64;
        Capacity {
            raw_pages: raw,
            exported_pages: exported,
            op_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ArrayShape {
        ArrayShape {
            channels: 4,
            chips_per_channel: 2,
            luns_per_chip: 2,
        }
    }

    #[test]
    fn totals_and_channel_mapping() {
        let s = shape();
        assert_eq!(s.total_luns(), 16);
        // luns 0..3 on channel 0, 4..7 on channel 1, ...
        assert_eq!(s.channel_of(LunId(0)), 0);
        assert_eq!(s.channel_of(LunId(3)), 0);
        assert_eq!(s.channel_of(LunId(4)), 1);
        assert_eq!(s.channel_of(LunId(15)), 3);
    }

    #[test]
    fn interleaved_luns_rotate_channels() {
        let s = shape();
        let chans: Vec<u32> = (0..8).map(|i| s.channel_of(s.interleaved_lun(i))).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // and successive rounds hit different luns within a channel
        assert_ne!(s.interleaved_lun(0), s.interleaved_lun(4));
    }

    #[test]
    fn interleaved_lun_covers_all() {
        let s = shape();
        let mut seen: Vec<u32> = (0..s.total_luns())
            .map(|i| s.interleaved_lun(i).0)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_applies_over_provisioning() {
        let g = Geometry::new(1, 10, 10, 4096); // 100 pages per lun
        let c = Capacity::derive(&shape(), &g, 0.25);
        assert_eq!(c.raw_pages, 1600);
        assert_eq!(c.exported_pages, 1200);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn silly_op_ratio_rejected() {
        let g = Geometry::new(1, 10, 10, 4096);
        Capacity::derive(&shape(), &g, 0.95);
    }
}
