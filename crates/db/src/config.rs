//! One front door for database construction: [`DbBuilder`].
//!
//! Experiment binaries used to assemble a database from four loose
//! pieces — a [`DbConfig`], a backend constructor, an [`ExecConfig`],
//! and (since the WAL split) a [`WalConfig`] — and every binary
//! duplicated the same glue. The builder holds the engine's knobs (pool,
//! checkpoints, WAL medium) beside the closed loop's (group-commit
//! policy, prefetch, concurrency) and hands back a loaded [`Database`]
//! over the block stack (the bare device is its
//! [`StackConfig::bare`] preset), a sharded block stack, or the
//! cooperating-logs manager, plus the matching [`ExecConfig`] for the
//! closed loop.

use requiem_block::StackConfig;
use requiem_iface::nameless::NamelessConfig;
use requiem_ssd::SsdConfig;

use crate::coop::CoopLogBackend;
use crate::engine::{Database, DbConfig};
use crate::exec::ExecConfig;
use crate::prefetch::PrefetchConfig;
use crate::shard::ShardedDb;
use crate::stack_backend::BlockStackBackend;
use crate::wal::GroupCommitPolicy;
use crate::walbackend::WalConfig;

/// Builder bundling every engine-level knob; see the module docs.
/// Construct via [`DbConfig::builder`].
#[derive(Debug, Clone)]
pub struct DbBuilder {
    data_pages: u64,
    log_pages: u64,
    buffer_frames: usize,
    checkpoint_every: u64,
    group: GroupCommitPolicy,
    prefetch: PrefetchConfig,
    concurrency: usize,
    wal: WalConfig,
    shards: usize,
    cross_shard_ratio: f64,
}

impl DbConfig {
    /// Start a [`DbBuilder`] with this crate's defaults (1024 data
    /// pages, 512-segment log, 128 frames, immediate commit, prefetch
    /// off, flash WAL).
    pub fn builder() -> DbBuilder {
        DbBuilder {
            data_pages: 1024,
            log_pages: 512,
            buffer_frames: 128,
            checkpoint_every: 0,
            group: GroupCommitPolicy::immediate(),
            prefetch: PrefetchConfig::off(),
            concurrency: 1,
            wal: WalConfig::Flash,
            shards: 1,
            cross_shard_ratio: 0.0,
        }
    }
}

impl DbBuilder {
    /// Data pages in the database.
    pub fn data_pages(mut self, pages: u64) -> Self {
        self.data_pages = pages;
        self
    }

    /// Redo-log capacity in segments (block/nameless backends).
    pub fn log_pages(mut self, pages: u64) -> Self {
        self.log_pages = pages;
        self
    }

    /// Buffer pool frames.
    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.buffer_frames = frames;
        self
    }

    /// Checkpoint every N commits (0 = never).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Group-commit policy for the closed loop ([`ExecConfig::group`]).
    pub fn group(mut self, group: GroupCommitPolicy) -> Self {
        self.group = group;
        self
    }

    /// Readahead policy for the closed loop.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Transactions kept in flight by the closed loop.
    pub fn concurrency(mut self, depth: usize) -> Self {
        self.concurrency = depth;
        self
    }

    /// Which medium carries the WAL (see [`WalConfig`]).
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Executor shards for [`Self::build_sharded_stack`] (default 1:
    /// the single executor, which is the driver's one-shard case). Must
    /// divide `data_pages` evenly.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = n;
        self
    }

    /// Fraction of workload transactions that should span shards
    /// (recorded for workload generators to consume; the builder itself
    /// partitions only the keyspace). Default 0.0.
    pub fn cross_shard_ratio(mut self, ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "cross_shard_ratio must be in [0, 1]"
        );
        self.cross_shard_ratio = ratio;
        self
    }

    /// The configured shard count.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// The configured cross-shard transaction fraction.
    pub fn cross_ratio(&self) -> f64 {
        self.cross_shard_ratio
    }

    /// The [`ExecConfig`] matching this builder's loop knobs.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            concurrency: self.concurrency,
            prefetch: self.prefetch,
            group: self.group.clone(),
        }
    }

    /// The engine config this builder describes.
    pub fn db_config(&self) -> DbConfig {
        DbConfig {
            data_pages: self.data_pages,
            buffer_frames: self.buffer_frames,
            checkpoint_every: self.checkpoint_every,
            wal: self.wal.clone(),
        }
    }

    /// A loaded database over the composed block-layer stack.
    pub fn build_stack(&self, stack: StackConfig, ssd: SsdConfig) -> Database<BlockStackBackend> {
        let be = BlockStackBackend::new(stack, ssd, self.data_pages, self.log_pages);
        let mut db = Database::new(self.db_config(), be);
        db.load();
        db
    }

    /// A loaded [`ShardedDb`] over the composed block-layer stack: one
    /// SSD, one I/O stack, `shards()` engines — each bound to its own
    /// submission core, LBA stripe, and `data_pages / N` keyspace
    /// partition, with `buffer_frames / N` pool frames. At the default
    /// single shard this is `build_stack` wrapped in a one-element
    /// coordinator, whose runs are `run_concurrent`'s.
    pub fn build_sharded_stack(
        &self,
        mut stack: StackConfig,
        ssd: SsdConfig,
    ) -> ShardedDb<BlockStackBackend> {
        // every shard needs its own submission core
        stack.cores = stack.cores.max(self.shards as u32);
        let n = self.shards as u64;
        assert!(
            self.data_pages % n == 0,
            "data_pages {} must divide evenly over {} shards",
            self.data_pages,
            self.shards
        );
        let per_shard_pages = self.data_pages / n;
        let backends =
            BlockStackBackend::shards(stack, ssd, self.shards, per_shard_pages, self.log_pages);
        let cfg = DbConfig {
            data_pages: per_shard_pages,
            buffer_frames: (self.buffer_frames / self.shards).max(1),
            ..self.db_config()
        };
        let dbs = backends
            .into_iter()
            .map(|be| Database::new(cfg.clone(), be))
            .collect();
        let mut sharded = ShardedDb::new(dbs, self.data_pages);
        sharded.load();
        sharded
    }

    /// A loaded database over the cooperating-logs manager (nameless
    /// device, one collector in the stack).
    pub fn build_coop(&self, cfg: NamelessConfig) -> Database<CoopLogBackend> {
        let be = CoopLogBackend::new(cfg, self.data_pages, self.log_pages);
        let mut db = Database::new(self.db_config(), be);
        db.load();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_bundles_the_knobs_that_must_agree() {
        let b = DbConfig::builder()
            .data_pages(256)
            .log_pages(64)
            .buffer_frames(32)
            .group(GroupCommitPolicy::batched(8))
            .concurrency(8)
            .wal(WalConfig::pcm());
        let exec = b.exec_config();
        assert_eq!(exec.concurrency, 8);
        assert_eq!(exec.group.max_txns, 8);
        assert!(matches!(b.db_config().wal, WalConfig::Pcm(_)));
    }

    #[test]
    fn shard_knobs_default_to_the_single_executor_path() {
        let b = DbConfig::builder();
        assert_eq!(b.num_shards(), 1);
        assert_eq!(b.cross_ratio(), 0.0);
        let b = b.shards(4).cross_shard_ratio(0.25);
        assert_eq!(b.num_shards(), 4);
        assert_eq!(b.cross_ratio(), 0.25);
    }

    #[test]
    fn sharded_stack_partitions_keyspace_and_pool() {
        let b = DbConfig::builder()
            .data_pages(64)
            .log_pages(16)
            .buffer_frames(32)
            .shards(4);
        let sharded = b.build_sharded_stack(StackConfig::blk_mq(4), SsdConfig::modern());
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.data_pages(), 64);
        for s in 0..4 {
            assert_eq!(sharded.shard(s).stats().commits, 0);
        }
        // page → shard is the hash partition key % N
        assert_eq!(sharded.shard_of(5), 1);
        assert_eq!(sharded.shard_of(64 + 2), 2, "keyspace folds before hashing");
    }

    #[test]
    fn built_databases_are_loaded_and_route_the_wal() {
        let mut ssd = SsdConfig::modern();
        ssd.buffer.capacity_pages = 0;
        let b = DbConfig::builder()
            .data_pages(64)
            .log_pages(16)
            .buffer_frames(16);
        let bare = StackConfig::bare(1);
        let mut flash = b.build_stack(bare.clone(), ssd.clone());
        assert_eq!(flash.wal_backend().label(), "stack-wal");
        let mut pcm = b.clone().wal(WalConfig::pcm()).build_stack(bare, ssd);
        assert_eq!(pcm.wal_backend().label(), "pcm-wal");
        // both are loaded and immediately executable
        flash.execute(&[(1, 0, true)], 128).expect("committed");
        pcm.execute(&[(1, 0, true)], 128).expect("committed");
        assert_eq!(flash.stats().commits, 1);
        assert_eq!(pcm.stats().commits, 1);
    }
}
