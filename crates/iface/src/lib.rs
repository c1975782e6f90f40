//! # requiem-iface — life beyond the block device interface
//!
//! §3 of the paper proposes abandoning the memory abstraction for a
//! *communication abstraction*: the database system and the storage device
//! become **communicating peers** rather than master and slave, and the
//! granularity of interaction stops being fixed-size blocks. This crate
//! implements the concrete mechanisms the paper names:
//!
//! * [`atomic::ExtendedSsd`] — the incremental path: keep the block
//!   interface but add the commands vendors were already proposing —
//!   **TRIM** (already in `requiem-ssd`), **atomic multi-page writes**
//!   (the paper's ref \[17\], Ouyang et al. "Beyond block I/O"), and write
//!   barriers. Atomic writes exploit the FTL's copy-on-write nature: the
//!   batch costs no extra data I/O, only a commit record.
//! * [`nameless::NamelessSsd`] — the radical path: **nameless writes**.
//!   The device chooses the physical location and returns its *name*; the
//!   host stores names instead of maintaining a redundant logical map.
//!   When garbage collection migrates a page, the device sends the host an
//!   *upcall* — the peer-to-peer message flow of the communication
//!   abstraction. The FTL's RAM-hungry mapping table disappears.
//! * [`comm::Upcall`] — the device→host message vocabulary.
//! * [`device::DeviceInterface`] — one trait over all three interfaces
//!   (block, extended block, nameless), in host vocabulary (tags and
//!   handles), so experiments E5/E6/E8 can drive the *identical*
//!   workload through each and vary nothing but the interface. Upcall
//!   delivery is a trait method — empty for block devices, which is the
//!   paper's complaint rendered as a type signature.
//!
//! At queue depth the nameless device rides the one generic
//! [`requiem_sim::QueuePair`], with [`NamelessSsd::read`] as the dispatch:
//! the cooperating-logs storage manager (E14) keeps its demand reads in
//! flight there, a stale name completing as a typed
//! [`requiem_sim::IoStatus::Rejected`].
//!
//! Experiments E5, E6, E8 and E14 quantify what each mechanism buys.

#![warn(missing_docs)]
// Panic policy (DESIGN §2.5): failures surface as typed statuses, never
// host aborts. Test code is exempt (`crates/clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod atomic;
pub mod comm;
pub mod device;
pub mod nameless;

pub use atomic::ExtendedSsd;
pub use comm::{Upcall, UpcallQueue};
pub use device::{
    tag_churn, ChurnReport, CommitOutcome, DeviceInterface, DeviceMetrics, Relocation,
    UpdateOutcome,
};
pub use nameless::{NamelessCompletion, NamelessConfig, NamelessError, NamelessSsd, PhysName};
