//! # requiem-db — a miniature database storage manager
//!
//! The paper's audience is database systems researchers; its §3 vision is
//! ultimately about how a **database storage manager** should talk to
//! storage. This crate is a compact but complete storage manager built to
//! test that vision:
//!
//! * [`page`] — page images of fixed `(page, slot)` records and an LSN
//!   (the unit of buffering and I/O); the engine addresses the records
//!   directly — there is no heap file and no index above the pages;
//! * [`buffer`] — a clock buffer pool with a steal policy (dirty eviction
//!   forces a synchronous write — one of the paper's two synchronous
//!   patterns);
//! * [`wal`] — a redo write-ahead log with group commit (the other
//!   synchronous pattern);
//! * [`backend`] — the persistence boundary; [`stack_backend`] is the
//!   block-addressed backend, with two routes of the same traffic:
//!   - **Block**: everything (log and data, double-write journal) goes
//!     through the block interface of one flash SSD, behind an OS I/O
//!     stack whose CPU costs may be zero (the bare device);
//!   - **Vision** ([`BlockStackBackend::vision`]): the paper's principle
//!     P1 — synchronous log forces and buffer steals go to a PCM DIMM on
//!     the memory bus, asynchronous data traffic goes to the flash SSD
//!     using atomic writes (no double-write journal) and trim on free.
//! * [`engine`] — the engine state and its serialized QD-1 reference
//!   ([`Database::execute`]: one transaction at a time, a force per
//!   commit), with crash/recovery (redo replay) support;
//! * [`exec`] — the completion-driven executor every workload runs on:
//!   N transactions in flight over batched reads ([`stack_backend`]
//!   drives them through the full block stack), coalesced fetches,
//!   sequential readahead ([`prefetch`]) and WAL group commit on flash or
//!   PCM ([`walbackend`]); at QD 1 it replays the reference bit for bit;
//! * [`coop`] — the cooperating-logs manager itself: nameless writes,
//!   eager frees, upcall-patched [`pagetable`], checkpoints as native
//!   atomic batches, WAL truncation as exact name frees — one garbage
//!   collector in the whole stack (E14 measures what the second one
//!   cost);
//! * [`kvstore`] — a SILT-flavoured key-value store over nameless writes
//!   (the paper's ref \[14\] rebuilt on the §3 interface);
//! * [`shard`] — the sharded execution path: N executor shards, each
//!   with its own submission context, keyspace partition, and
//!   buffer-pool slice, stepped by a deterministic core clock;
//! * [`ledger`] — two-phase atomic commit for cross-shard transactions,
//!   riding on the group-commit WAL (prepare votes, one decision
//!   force, typed aborts).
//!
//! Virtual time discipline: RAM operations are free; every device
//! interaction advances the clock through the backend.
//!
//! Status policy: rustc denies a `#[must_use]` `IoStatus` or `WalForce`
//! dropped in statement position (the workspace's `unused_must_use`);
//! clippy denies one bound to `_` in this crate and its unit tests. A `WalForce`
//! yields its instant only through [`WalForce::settle`], which hands a
//! failed force to the caller; [`Database`]'s one force path decides what
//! the failure means: nothing it carried is durable, and the log stays
//! failed until a crash ([`Database::log_failure`]).

#![warn(missing_docs)]
#![deny(clippy::let_underscore_must_use)]

pub mod backend;
pub mod buffer;
pub mod config;
pub mod coop;
pub mod engine;
pub mod exec;
mod images;
pub mod kvstore;
pub mod ledger;
pub mod page;
pub mod pagetable;
pub mod prefetch;
pub mod shard;
pub mod stack_backend;
pub mod wal;
pub mod walbackend;

pub use backend::{CommandTag, PageRead, PersistenceBackend, ReadShim};
pub use config::DbBuilder;
pub use coop::CoopLogBackend;
pub use engine::{Database, DbConfig, TxnOutcome};
pub use exec::{ExecConfig, ExecReport, TxnInput};
pub use kvstore::NamelessKv;
pub use ledger::{LedgerStats, TwoPhaseLedger, TxnDecision};
pub use page::{PageId, PageImage, PAGE_SIZE, RECORD_SIZE, SLOTS_PER_PAGE};
pub use pagetable::PageTable;
pub use prefetch::{PrefetchConfig, PrefetchStats};
pub use shard::{ShardedDb, ShardedReport};
pub use stack_backend::BlockStackBackend;
pub use wal::GroupCommitPolicy;
pub use walbackend::{
    FlashWal, ForceFailed, PcmWal, PcmWalConfig, WalBackend, WalConfig, WalForce, WalStats,
};
