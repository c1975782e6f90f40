//! # requiem-ssd — a flash SSD simulator
//!
//! The executable form of the paper's §2.2 ("I/O stack internals") and
//! Figure 2 ("internal architecture of a SSD controller"):
//!
//! * tens of flash LUNs (from `requiem-flash`) wired to shared
//!   **channels** with realistic bus timing ([`channel::ChannelTiming`]);
//! * a controller with a choice of **FTLs** — full page mapping, pre-2009
//!   block mapping, BAST-style hybrid log blocks, and DFTL (the paper's
//!   ref [10]) — see [`config::FtlKind`];
//! * **garbage collection** (greedy / cost-benefit) and **wear leveling**
//!   (dynamic + optional static), whose traffic contends with host I/O on
//!   the same channel/LUN resources — selected by [`SsdConfig`]'s `gc`
//!   and `wl`;
//! * a battery-backed **write-back buffer** (§2.3.2's "safe RAM buffer");
//! * **TRIM** support.
//!
//! The device exposes the narrow block-style interface the paper
//! critiques — `read(lpn)` / `write(lpn)` / `trim(lpn)` — and rich
//! [`metrics::SsdMetrics`] that reveal everything that interface hides:
//! write amplification by cause, GC interference, channel-vs-chip
//! utilization, latency distributions.
//!
//! ```
//! use requiem_sim::time::SimTime;
//! use requiem_ssd::{Lpn, Ssd, SsdConfig};
//!
//! let mut ssd = Ssd::new(SsdConfig::modern());
//! let w = ssd.write(SimTime::ZERO, Lpn(0)).unwrap();
//! let r = ssd.read(w.done, Lpn(0)).unwrap();
//! assert!(r.done > w.done);
//! println!("write {} read {}", w.latency, r.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub(crate) mod block_dir;
pub(crate) mod buffer;
pub mod channel;
pub mod config;
pub mod controller;
pub mod device;
pub mod mapping;
pub mod metrics;
pub mod qpair;

pub use addr::{ArrayShape, Capacity, Lpn, LunId, PhysPage};
pub use channel::ChannelTiming;
pub use config::{BufferConfig, FtlKind, GcConfig, GcPolicyKind, Placement, SsdConfig, WlConfig};
pub use controller::{GcGate, GcToken};
pub use device::{Completion, MapEvent, RebuildReport, Served, Ssd, SsdError};
pub use metrics::SsdMetrics;
pub use qpair::QueuePair;
pub use requiem_sim::cmd::{CommandId, IoClass, IoCompletion, IoOp, IoRequest};
