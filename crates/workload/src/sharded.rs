//! A sharded, million-client OLTP mix with a cross-shard knob.
//!
//! The shard sweep (E17) partitions the keyspace over N executor shards
//! by page residue (`page % N`). To exercise that topology the workload
//! needs two things [`crate::oltp`] does not model:
//!
//! * **clients** — transactions come from a large population (default one
//!   million) selected with zipfian skew; each client hashes to a home
//!   page, so access skew follows client popularity rather than raw page
//!   addresses. This is the "millions of application-level clients" shape
//!   the paper's §3 OLTP argument assumes.
//! * **a cross-shard mix knob** — with probability `cross_shard_ratio` a
//!   transaction is *guaranteed* to span at least two residue classes
//!   (it runs through the two-phase ledger); otherwise every access is
//!   clamped to the home client's residue class (it commits locally).
//!
//! Output is the same [`Txn`] shape the single-executor driver consumes,
//! so [`crate::dbdriver::txn_to_input`] works unchanged and the QD-1 ×
//! 1-shard identity experiment can replay an identical stream through
//! the serialized path.

use requiem_sim::SimRng;

use crate::oltp::{PageAccess, Txn};
use crate::pattern::{AddressPattern, Pattern};

/// Parameters of the sharded client mix.
#[derive(Debug, Clone)]
pub struct ShardedOltpConfig {
    /// Client population size (zipfian-selected).
    pub clients: u64,
    /// Zipfian skew of client popularity.
    pub theta: f64,
    /// Number of executor shards (`page % shards` partition).
    pub shards: usize,
    /// Fraction of transactions forced to span >= 2 shards.
    pub cross_shard_ratio: f64,
    /// Data pages touched per transaction.
    pub pages_per_txn: u32,
    /// Fraction of touched pages that are only read (not dirtied).
    pub read_only_fraction: f64,
    /// Log bytes appended per transaction.
    pub log_bytes_per_txn: u32,
    /// Number of data pages in the database (must divide by `shards`).
    pub data_pages: u64,
}

impl Default for ShardedOltpConfig {
    fn default() -> Self {
        ShardedOltpConfig {
            clients: 1 << 20,
            theta: 0.8,
            shards: 1,
            cross_shard_ratio: 0.0,
            pages_per_txn: 4,
            read_only_fraction: 0.5,
            log_bytes_per_txn: 256,
            data_pages: 4096,
        }
    }
}

/// SplitMix64 finalizer — a fixed, stateless client-to-page hash, so a
/// client's accesses cluster on the same pages across transactions.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generator of sharded client transactions.
pub struct ShardedOltpGen {
    cfg: ShardedOltpConfig,
    clients: AddressPattern,
    rng: SimRng,
    next_id: u64,
}

impl std::fmt::Debug for ShardedOltpGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedOltpGen(next_id={}, shards={})",
            self.next_id, self.cfg.shards
        )
    }
}

impl ShardedOltpGen {
    /// Create a generator.
    ///
    /// # Panics
    /// If `shards` is zero, `data_pages` does not divide evenly into
    /// `shards` residue classes, or a nonzero `cross_shard_ratio` is
    /// combined with multiple shards but single-access transactions.
    /// (With one shard the ratio is inert: every transaction is local.)
    pub fn new(cfg: ShardedOltpConfig, seed: u64) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(
            cfg.data_pages % cfg.shards as u64 == 0,
            "data_pages must split evenly over shards"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.cross_shard_ratio),
            "cross_shard_ratio must be a probability"
        );
        if cfg.cross_shard_ratio > 0.0 && cfg.shards >= 2 {
            // with one shard the knob is inert — every txn is local
            assert!(
                cfg.pages_per_txn >= 2,
                "cross-shard txns need >= 2 accesses"
            );
        }
        let clients = AddressPattern::new(Pattern::Zipfian { theta: cfg.theta }, cfg.clients, seed);
        ShardedOltpGen {
            cfg,
            clients,
            rng: SimRng::from_seed(seed).derive("sharded-oltp"),
            next_id: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedOltpConfig {
        &self.cfg
    }

    /// Which shard a page belongs to (`page % shards`).
    pub fn shard_of(&self, page: u64) -> usize {
        (page % self.cfg.shards as u64) as usize
    }

    /// Clamp a page into shard `s`'s residue class, preserving its
    /// position within the class.
    fn clamp(&self, page: u64, s: usize) -> u64 {
        let n = self.cfg.shards as u64;
        page - (page % n) + s as u64
    }

    /// Generate the next transaction.
    ///
    /// A zipfian-selected client hashes to the transaction's first page;
    /// follow-on accesses are fresh client hashes. Single-shard
    /// transactions clamp every access into the home page's residue
    /// class; cross-shard transactions clamp the second access into the
    /// *next* residue class, guaranteeing at least two participants.
    pub fn next_txn(&mut self) -> Txn {
        let id = self.next_id;
        self.next_id += 1;
        let n = self.cfg.shards;
        let cross = n >= 2 && self.rng.chance(self.cfg.cross_shard_ratio);
        let mut accesses = Vec::with_capacity(self.cfg.pages_per_txn as usize);
        let mut home = 0usize;
        for i in 0..self.cfg.pages_per_txn {
            let client = self.clients.next_addr();
            let raw = mix64(client) % self.cfg.data_pages;
            let page = if i == 0 {
                home = self.shard_of(raw);
                raw
            } else if cross && i == 1 {
                self.clamp(raw, (home + 1) % n)
            } else if cross {
                raw
            } else {
                self.clamp(raw, home)
            };
            accesses.push(PageAccess {
                page,
                dirty: !self.rng.chance(self.cfg.read_only_fraction),
            });
        }
        Txn {
            id,
            accesses,
            log_bytes: self.cfg.log_bytes_per_txn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn shards_touched(t: &Txn, n: usize) -> BTreeSet<usize> {
        t.accesses
            .iter()
            .map(|a| (a.page % n as u64) as usize)
            .collect()
    }

    #[test]
    fn single_shard_default_never_crosses() {
        let mut g = ShardedOltpGen::new(
            ShardedOltpConfig {
                shards: 4,
                cross_shard_ratio: 0.0,
                ..ShardedOltpConfig::default()
            },
            7,
        );
        for _ in 0..500 {
            let t = g.next_txn();
            assert_eq!(shards_touched(&t, 4).len(), 1, "txn must stay home");
            assert!(t.accesses.iter().all(|a| a.page < 4096));
        }
    }

    #[test]
    fn cross_ratio_one_always_spans_two_shards() {
        let mut g = ShardedOltpGen::new(
            ShardedOltpConfig {
                shards: 4,
                cross_shard_ratio: 1.0,
                ..ShardedOltpConfig::default()
            },
            8,
        );
        for _ in 0..500 {
            let t = g.next_txn();
            assert!(
                shards_touched(&t, 4).len() >= 2,
                "cross txn must span >= 2 shards"
            );
        }
    }

    #[test]
    fn cross_ratio_tracks_the_knob() {
        let mut g = ShardedOltpGen::new(
            ShardedOltpConfig {
                shards: 4,
                cross_shard_ratio: 0.2,
                ..ShardedOltpConfig::default()
            },
            9,
        );
        let crossed = (0..4000)
            .filter(|_| shards_touched(&g.next_txn(), 4).len() >= 2)
            .count();
        let frac = crossed as f64 / 4000.0;
        // Clamping cannot *remove* accidental same-residue collisions on
        // the cross path, so the measured rate sits at the knob plus a
        // small collision-free margin.
        assert!((0.15..=0.35).contains(&frac), "cross fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ShardedOltpConfig {
            shards: 8,
            cross_shard_ratio: 0.3,
            ..ShardedOltpConfig::default()
        };
        let mut a = ShardedOltpGen::new(cfg.clone(), 3);
        let mut b = ShardedOltpGen::new(cfg, 3);
        for _ in 0..200 {
            let (x, y) = (a.next_txn(), b.next_txn());
            assert_eq!(x.accesses, y.accesses);
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn client_skew_concentrates_pages() {
        let mut g = ShardedOltpGen::new(
            ShardedOltpConfig {
                theta: 0.99,
                clients: 1 << 20,
                ..ShardedOltpConfig::default()
            },
            11,
        );
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..2500 {
            for a in g.next_txn().accesses {
                *counts.entry(a.page).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 50, "popular clients should make hot pages, max {max}");
    }
}
