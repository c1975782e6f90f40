//! The controller: the paper's Figure 2, one module per box.
//!
//! [`crate::Ssd`] is the chassis; each decision and the resource-timed
//! flash operations that carry it out live in the submodule matching
//! their Figure-2 box, and [`SsdConfig`](crate::SsdConfig) alone says
//! which variant runs:
//!
//! | Figure 2 box                    | Module           | Selected by                        |
//! |---------------------------------|------------------|------------------------------------|
//! | Scheduling (channels, chips)    | `scheduler`      | `shape`, `placement`               |
//! | Garbage collection              | [`gc`]           | `gc.{policy, free_block_threshold}`|
//! | Wear leveling                   | [`wear`]         | `wl.static_threshold`              |
//! | RAM buffer (battery-backed)     | [`write_buffer`] | `buffer.capacity_pages`            |
//! | Mapping (block-mapped FTL)      | [`block_ftl`]    | `ftl`                              |
//! | Mapping (hybrid log-block FTL)  | [`hybrid_ftl`]   | `ftl`                              |
//! | Boot / recovery                 | [`rebuild`]      | —                                  |

// Panic policy (DESIGN §2.5): failures surface as typed statuses, never
// host aborts. Test code is exempt (`crates/clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod block_ftl;
pub mod gc;
pub mod hybrid_ftl;
pub mod rebuild;
pub(crate) mod scheduler;
pub mod wear;
pub mod write_buffer;

pub use gc::{GcGate, GcToken};
