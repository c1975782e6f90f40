//! # requiem-pcm — a phase-change memory model
//!
//! The paper (§2.4, §3) positions PCM as the technology that *changes the
//! nature of persistence*: byte-addressable, in-place updates, no erase, no
//! garbage collection — plugged **on the memory bus** and reached by CPU
//! loads/stores rather than I/O requests. Principle P1 of the paper's
//! vision routes *synchronous* persistence (log writes, buffer steals under
//! memory pressure) to exactly such a device.
//!
//! The paper is equally clear that PCM is not magic:
//!
//! * PCM writes are slower than reads and wear cells out (~10⁸ writes), so
//!   wear leveling is still needed — we implement **Start-Gap** wear
//!   leveling (Qureshi et al., MICRO 2009), the canonical low-overhead
//!   scheme.
//! * A PCM-based *SSD* (like Onyx, the paper's ref \[1\]) still faces
//!   parallelism, scheduling and error management: [`PcmSsd`] models that,
//!   and experiment E10 shows the complexity does not disappear.
//!
//! ## Components
//!
//! * [`PcmChip`] — cache-line-granular storage with per-line wear counts.
//! * [`StartGap`] — algebraic wear-leveling remapper (gap rotation).
//! * [`PcmDimm`] — the memory-bus path: load / store / persist-barrier
//!   timing, the substrate for the vision's synchronous persistence path.
//! * [`PcmSsd`] — a PCM storage array behind a PCIe-like interface with
//!   banks and channels (for the §2.4 "PCM SSDs stay complex" discussion).

#![warn(missing_docs)]

pub mod chip;
pub mod dimm;
pub mod ssd;
pub mod timing;
pub mod wear;

pub use chip::PcmChip;
pub use dimm::{PcmDimm, WearSnapshot};
pub use ssd::PcmSsd;
pub use timing::PcmTiming;
pub use wear::StartGap;

/// Cache-line size in bytes — the PCM access granularity on the memory bus.
pub const LINE_BYTES: u32 = 64;
