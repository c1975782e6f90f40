//! # requiem — the necessary death of the block device interface, in Rust
//!
//! A full reproduction of Bjørling, Bonnet, Bouganim & Dayan,
//! *The Necessary Death of the Block Device Interface* (CIDR 2013): the
//! simulated I/O stack the paper dissects, the beyond-block interfaces it
//! envisions, and a database storage manager exercising both sides.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`sim`] — deterministic discrete-event kernel (virtual time, serial
//!   resources, histograms, seeded RNG, the probe bus).
//! * [`flash`] — NAND model: geometry, SLC/MLC/TLC timing, constraints
//!   C1–C4, wear, bit errors, ECC.
//! * [`pcm`] — phase-change memory: byte-addressable chips, Start-Gap
//!   wear leveling, memory-bus DIMM, PCM-based SSD.
//! * [`ssd`] — the flash SSD: channels, LUN interleaving, page / block /
//!   hybrid / DFTL FTLs, garbage collection, wear leveling, write-back
//!   buffer, TRIM.
//! * [`block`] — the OS block layer: CPU path costs, single vs multi
//!   queue, interrupt vs polling, a disk model.
//! * [`iface`] — beyond the block device: atomic writes, nameless writes
//!   with migration upcalls, the communication abstraction.
//! * [`db`] — a miniature storage manager (fixed-slot pages, buffer pool,
//!   WAL, recovery) with legacy and vision persistence backends.
//! * [`workload`] — uFLIP-style patterns, zipfian skew, OLTP mixes,
//!   closed-loop drivers.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-claim-by-claim reproduction results.
//!
//! ## Quickstart
//!
//! ```
//! use requiem::ssd::{Lpn, Ssd, SsdConfig};
//! use requiem::sim::time::SimTime;
//!
//! let mut ssd = Ssd::new(SsdConfig::modern());
//! let w = ssd.write(SimTime::ZERO, Lpn(0)).unwrap();
//! println!("a buffered write completes in {}", w.latency);
//! ```

#![warn(missing_docs)]

pub use requiem_block as block;
pub use requiem_db as db;
pub use requiem_flash as flash;
pub use requiem_iface as iface;
pub use requiem_pcm as pcm;
pub use requiem_sim as sim;
pub use requiem_ssd as ssd;
pub use requiem_workload as workload;
