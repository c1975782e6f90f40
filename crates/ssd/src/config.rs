//! SSD configuration: array shape, FTL scheme, buffer, GC, placement.
//!
//! Presets reconstruct the device generations the paper contrasts:
//!
//! * [`SsdConfig::circa_2009_block`] — the pre-2009 device for which
//!   *"random writes are extremely costly"* was actually true: block-mapped
//!   FTL, slow bus, no write buffer.
//! * [`SsdConfig::circa_2009_hybrid`] — the same hardware with a BAST-style
//!   hybrid log-block FTL (slightly better, still collapses under random
//!   writes).
//! * [`SsdConfig::modern`] — the c. 2012 high-end device of §2.3: page
//!   mapping, battery-backed write-back buffer, many channels, dynamic
//!   striping. The device for which the myths are *false*.
//! * [`SsdConfig::modern_dftl`] — page mapping through a limited mapping
//!   cache (DFTL, the paper's ref [10]).

use requiem_flash::FlashSpec;
use requiem_sim::time::SimDuration;
use requiem_sim::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::addr::ArrayShape;
use crate::channel::ChannelTiming;

/// Which flash translation layer the controller runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtlKind {
    /// Full page-level mapping (mapping RAM ∝ pages).
    PageMap,
    /// Block-level mapping: page offset fixed within the mapped block;
    /// non-append writes force a full block merge.
    BlockMap,
    /// BAST-style hybrid: block mapping plus `log_blocks` per-logical-block
    /// log blocks; log exhaustion forces merges.
    Hybrid {
        /// Number of log blocks the controller can dedicate.
        log_blocks: u32,
    },
    /// DFTL (Gupta et al., ASPLOS'09 — the paper's ref [10]): page mapping
    /// with a cached mapping table of `cached_entries` entries; misses and
    /// dirty evictions cost flash operations on translation pages.
    Dftl {
        /// Entries held in the cached mapping table.
        cached_entries: usize,
    },
}

/// How the controller places incoming writes across LUNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Pick the LUN that can start soonest (dynamic, channel-aware).
    /// This is what lets *"a controller fully benefit from SSD parallelism
    /// when flushing the buffer regardless of the write pattern"* (§2.3.2).
    LeastLoaded,
    /// Rotate LUNs in channel-interleaved order.
    RoundRobin,
    /// Static: LUN determined by `lpn mod total_luns`. Concentrated
    /// address patterns then concentrate on one LUN (myth 3's read-
    /// parallelism hazard).
    StaticByLpn,
}

/// Garbage-collection victim selection policy, carried out by the block
/// directory's `pick_victim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcPolicyKind {
    /// Fewest valid pages first.
    Greedy,
    /// Cost-benefit (age × (1−u) / 2u) — favours old, cold blocks.
    CostBenefit,
}

/// GC tuning. A relocated page moves by on-die copyback: it is sensed
/// and reprogrammed without crossing the channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcConfig {
    /// Run GC on a LUN when its free-block count sinks to this threshold.
    pub free_block_threshold: u32,
    /// Victim selection policy.
    pub policy: GcPolicyKind,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            free_block_threshold: 3,
            policy: GcPolicyKind::Greedy,
        }
    }
}

/// Wear-leveling tuning. Dynamic WL is always on: allocation takes the
/// free block with the lowest erase count.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WlConfig {
    /// Static WL: when (max − min) erase count exceeds this, migrate the
    /// coldest block into the most-worn free block. `0` disables.
    pub static_threshold: u32,
}

/// Write-back buffer (the "safe RAM buffer with batteries" of §2.3.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Capacity in pages. `0` disables the buffer (writes complete only
    /// when the flash program finishes).
    pub capacity_pages: u32,
}

/// Full device configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Array shape.
    pub shape: ArrayShape,
    /// Per-LUN flash specification.
    pub flash: FlashSpec,
    /// Channel bus timing.
    pub channel: ChannelTiming,
    /// Host interface throughput, bytes per microsecond (e.g. SATA-3 ≈ 550).
    pub host_link_bytes_per_us: u32,
    /// Fixed controller processing overhead per host command.
    pub controller_overhead: SimDuration,
    /// FTL scheme.
    pub ftl: FtlKind,
    /// Write placement policy.
    pub placement: Placement,
    /// Over-provisioning ratio (raw capacity held back from the LBA space).
    pub op_ratio: f64,
    /// Write buffer.
    pub buffer: BufferConfig,
    /// Garbage collection.
    pub gc: GcConfig,
    /// Wear leveling.
    pub wl: WlConfig,
    /// RNG seed for device-internal randomness (error injection).
    pub seed: u64,
    /// Read-disturb scrub threshold: relocate a block once it has absorbed
    /// this many reads since its last erase (`0` disables). Real
    /// controllers scrub around a fraction of the cell technology's
    /// disturb budget.
    pub scrub_after_reads: u64,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] (the
    /// default) injects nothing and is bit-exact: simulation output is
    /// byte-identical to a fault-oblivious build.
    #[serde(default)]
    pub fault: FaultPlan,
}

impl SsdConfig {
    /// The modern (c. 2012) page-mapped device with a write-back buffer:
    /// 8 channels × 4 chips × 1 LUN, ONFI-3 bus, dynamic placement.
    pub fn modern() -> Self {
        SsdConfig {
            shape: ArrayShape {
                channels: 8,
                chips_per_channel: 4,
                luns_per_chip: 1,
            },
            flash: FlashSpec::mlc_small(),
            channel: ChannelTiming::onfi3(),
            host_link_bytes_per_us: 550, // SATA-3
            controller_overhead: SimDuration::from_micros(3),
            ftl: FtlKind::PageMap,
            placement: Placement::LeastLoaded,
            op_ratio: 0.125,
            buffer: BufferConfig {
                capacity_pages: 256,
            },
            gc: GcConfig::default(),
            wl: WlConfig::default(),
            seed: 0xD15C,
            scrub_after_reads: 0,
            fault: FaultPlan::none(),
        }
    }

    /// The paper's Figure-1 array: four chips (1 LUN each) behind one
    /// shared ONFI-2 channel — a page transfer (~100 µs) is comparable to
    /// a page read (50 µs), the regime the figure depicts — round-robin
    /// placement, and no device buffer, so every unit of parallelism must
    /// come from keeping independent commands in flight.
    pub fn figure1() -> Self {
        SsdConfig {
            shape: ArrayShape {
                channels: 1,
                chips_per_channel: 4,
                luns_per_chip: 1,
            },
            channel: ChannelTiming::onfi2(),
            placement: Placement::RoundRobin,
            buffer: BufferConfig { capacity_pages: 0 },
            ..Self::modern()
        }
    }

    /// The pre-2009 block-mapped device: 2 channels × 2 chips, ONFI-2 bus,
    /// no buffer, static placement.
    pub fn circa_2009_block() -> Self {
        SsdConfig {
            shape: ArrayShape {
                channels: 2,
                chips_per_channel: 2,
                luns_per_chip: 1,
            },
            flash: FlashSpec::mlc_small(),
            channel: ChannelTiming::onfi2(),
            host_link_bytes_per_us: 250, // SATA-2
            controller_overhead: SimDuration::from_micros(20),
            ftl: FtlKind::BlockMap,
            placement: Placement::StaticByLpn,
            op_ratio: 0.07,
            buffer: BufferConfig { capacity_pages: 0 },
            gc: GcConfig::default(),
            wl: WlConfig::default(),
            seed: 0x2009,
            scrub_after_reads: 0,
            fault: FaultPlan::none(),
        }
    }

    /// The pre-2009 hardware with a BAST-style hybrid FTL.
    pub fn circa_2009_hybrid() -> Self {
        SsdConfig {
            ftl: FtlKind::Hybrid { log_blocks: 8 },
            ..Self::circa_2009_block()
        }
    }

    /// The modern device with DFTL instead of a full in-RAM page map.
    pub fn modern_dftl(cached_entries: usize) -> Self {
        SsdConfig {
            ftl: FtlKind::Dftl { cached_entries },
            ..Self::modern()
        }
    }

    /// Total LUNs.
    pub fn total_luns(&self) -> u32 {
        self.shape.total_luns()
    }

    /// Host-link transfer time for one page.
    pub fn host_link_time(&self) -> SimDuration {
        let bytes = self.flash.geometry.page_size;
        SimDuration::from_nanos((bytes as u64 * 1_000).div_ceil(self.host_link_bytes_per_us as u64))
    }

    /// Mapping-table RAM the FTL needs, in bytes (8 B per entry), the
    /// resource DFTL exists to economize (experiment E8).
    pub fn mapping_table_bytes(&self) -> u64 {
        let total_pages = self.total_luns() as u64 * self.flash.geometry.total_pages();
        match &self.ftl {
            FtlKind::PageMap => total_pages * 8,
            FtlKind::BlockMap => (total_pages / self.flash.geometry.pages_per_block as u64) * 8,
            FtlKind::Hybrid { log_blocks } => {
                (total_pages / self.flash.geometry.pages_per_block as u64) * 8
                    + *log_blocks as u64 * self.flash.geometry.pages_per_block as u64 * 8
            }
            FtlKind::Dftl { cached_entries } => *cached_entries as u64 * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let old = SsdConfig::circa_2009_block();
        let new = SsdConfig::modern();
        assert_eq!(old.ftl, FtlKind::BlockMap);
        assert_eq!(new.ftl, FtlKind::PageMap);
        assert_eq!(old.buffer.capacity_pages, 0);
        assert!(new.buffer.capacity_pages > 0);
        assert!(new.total_luns() > old.total_luns());
        let fig1 = SsdConfig::figure1();
        assert_eq!(
            (
                fig1.shape.channels,
                fig1.total_luns(),
                fig1.buffer.capacity_pages
            ),
            (1, 4, 0)
        );
    }

    #[test]
    fn host_link_time_scales_with_page() {
        let cfg = SsdConfig::modern();
        // 4096 B at 550 B/µs ≈ 7.45 µs
        let t = cfg.host_link_time();
        assert!(t > SimDuration::from_micros(7) && t < SimDuration::from_micros(8));
    }

    #[test]
    fn mapping_ram_ordering() {
        // page map needs the most RAM, block map ~128x less (pages/block),
        // dftl bounded by its cache size
        let page = SsdConfig::modern().mapping_table_bytes();
        let block = SsdConfig::circa_2009_block();
        // compare at equal shape: rebuild block-map config on modern shape
        let block = SsdConfig {
            ftl: block.ftl,
            ..SsdConfig::modern()
        }
        .mapping_table_bytes();
        let dftl = SsdConfig::modern_dftl(1024).mapping_table_bytes();
        assert!(block < page);
        assert_eq!(dftl, 8 * 1024);
    }

    #[test]
    fn hybrid_preset_keeps_2009_hardware() {
        let h = SsdConfig::circa_2009_hybrid();
        assert_eq!(h.shape, SsdConfig::circa_2009_block().shape);
        assert!(matches!(h.ftl, FtlKind::Hybrid { log_blocks: 8 }));
    }
}
