//! # requiem-workload — I/O pattern generation and workload drivers
//!
//! The paper's myth-busting methodology comes from uFLIP (refs [2, 3, 6]):
//! submit carefully-constructed *I/O patterns* — sequential, random,
//! strided, mixed — and observe how the device responds. This crate
//! regenerates those patterns and adds the access-skew and transaction
//! mixes the database-side experiments need:
//!
//! * [`pattern`] — address-pattern generators (sequential, uniform random,
//!   zipfian, strided, hot/cold) over a page space.
//! * [`driver`] — closed-loop (queue-depth) drivers that push patterns
//!   into a [`requiem_ssd::Ssd`] and collect throughput/latency.
//! * [`oltp`] — a TPC-B-flavoured transaction mix used by the §3
//!   experiments (log writes + data page reads/writes per transaction).
//! * [`dbdriver`] — the OLTP mix as inputs for `requiem-db`'s
//!   completion-driven executor (N transactions in flight — queue depth
//!   at the storage-manager interface).
//! * [`sharded`] — a million-client zipfian mix partitioned over N
//!   executor shards, with a knob for the fraction of transactions
//!   forced to span shards (the two-phase-ledger path in E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbdriver;
pub mod driver;
pub mod oltp;
pub mod pattern;
pub mod sharded;

pub use dbdriver::{oltp_inputs, txn_to_input};
pub use driver::{
    precondition_sequential, run_closed_loop, run_closed_loop_serialized, DriverReport, IoMix,
};
pub use pattern::{AddressPattern, Pattern};
pub use sharded::{ShardedOltpConfig, ShardedOltpGen};
