//! Logical-to-physical mapping structures ("Scheduling & Mapping" in the
//! paper's Figure 2).
//!
//! Four schemes, matching [`crate::config::FtlKind`]:
//!
//! * [`page::PageMap`] — one entry per logical page. Full placement
//!   freedom (any write can go anywhere), the property §2.3.2 credits for
//!   making random writes as fast as sequential ones. Costs RAM ∝ pages.
//! * [`block::BlockMap`] — one entry per logical *block*; a page's offset
//!   inside the physical block is fixed. Non-append writes force full
//!   block merges — the pre-2009 behaviour that made myth 2 true.
//! * [`block::HybridState`] — BAST-style log blocks on top of a block map.
//! * [`dftl::DftlMap`] — a page map whose entries live on flash
//!   (translation pages) with a bounded in-RAM cache (the paper's ref
//!   \[10\]); misses and dirty evictions cost flash operations.

// Panic policy (DESIGN §2.5): failures surface as typed statuses, never
// host aborts. Test code is exempt (`crates/clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod block;
pub mod dftl;
pub mod page;
