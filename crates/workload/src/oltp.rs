//! A TPC-B-flavoured OLTP transaction mix.
//!
//! The §3 experiments need a workload with the two access classes the
//! paper's principle P1 separates:
//!
//! * **synchronous** — the commit-time log force (and buffer steals under
//!   memory pressure);
//! * **asynchronous** — data page reads and lazy data page write-back.
//!
//! Each generated transaction touches a configurable number of data pages
//! (read-modify-write on zipfian-skewed accounts) and appends one log
//! record. How those translate into device operations is up to the
//! consumer (`requiem-db`'s backends differ exactly there).

use requiem_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::pattern::{AddressPattern, Pattern};

/// Parameters of the OLTP mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OltpConfig {
    /// Data pages touched (read + dirtied) per transaction.
    pub pages_per_txn: u32,
    /// Fraction of touched pages that are only read (not dirtied).
    pub read_only_fraction: f64,
    /// Log bytes appended per transaction.
    pub log_bytes_per_txn: u32,
    /// Number of data pages in the database.
    pub data_pages: u64,
    /// Zipfian skew of data accesses.
    pub theta: f64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            pages_per_txn: 4,
            read_only_fraction: 0.5,
            log_bytes_per_txn: 256,
            data_pages: 4096,
            theta: 0.8,
        }
    }
}

/// One page access within a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// Which data page.
    pub page: u64,
    /// Whether the transaction dirties it.
    pub dirty: bool,
}

/// One generated transaction.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Transaction id (monotonic).
    pub id: u64,
    /// Data page accesses, in order.
    pub accesses: Vec<PageAccess>,
    /// Log record size for the commit.
    pub log_bytes: u32,
}

/// Generator of transactions.
pub struct OltpGen {
    cfg: OltpConfig,
    pattern: AddressPattern,
    rng: SimRng,
    next_id: u64,
}

impl std::fmt::Debug for OltpGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OltpGen(next_id={})", self.next_id)
    }
}

impl OltpGen {
    /// Create a generator.
    pub fn new(cfg: OltpConfig, seed: u64) -> Self {
        let pattern =
            AddressPattern::new(Pattern::Zipfian { theta: cfg.theta }, cfg.data_pages, seed);
        OltpGen {
            cfg,
            pattern,
            rng: SimRng::from_seed(seed).derive("oltp"),
            next_id: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OltpConfig {
        &self.cfg
    }

    /// Generate the next transaction.
    pub fn next_txn(&mut self) -> Txn {
        let id = self.next_id;
        self.next_id += 1;
        let accesses = (0..self.cfg.pages_per_txn)
            .map(|_| PageAccess {
                page: self.pattern.next_addr(),
                dirty: !self.rng.chance(self.cfg.read_only_fraction),
            })
            .collect();
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

    #[test]
    fn txns_have_monotonic_ids_and_right_shape() {
        let mut g = OltpGen::new(OltpConfig::default(), 1);
        let a = g.next_txn();
        let b = g.next_txn();
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
        assert_eq!(a.accesses.len(), 4);
        assert_eq!(a.log_bytes, 256);
        assert!(a.accesses.iter().all(|p| p.page < 4096));
    }

    #[test]
    fn dirty_fraction_tracks_config() {
        let cfg = OltpConfig {
            read_only_fraction: 0.25,
            ..OltpConfig::default()
        };
        let mut g = OltpGen::new(cfg, 2);
        let mut dirty = 0u32;
        let mut total = 0u32;
        for _ in 0..1000 {
            for a in g.next_txn().accesses {
                total += 1;
                if a.dirty {
                    dirty += 1;
                }
            }
        }
        let frac = dirty as f64 / total as f64;
        assert!((0.70..=0.80).contains(&frac), "dirty fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = OltpGen::new(OltpConfig::default(), 3);
        let mut b = OltpGen::new(OltpConfig::default(), 3);
        for _ in 0..100 {
            let (x, y) = (a.next_txn(), b.next_txn());
            assert_eq!(x.accesses, y.accesses);
        }
    }

    #[test]
    fn default_mix_is_pinned() {
        let mut g = OltpGen::new(OltpConfig::default(), 11);
        let got: Vec<Vec<(u64, bool)>> = (0..4)
            .map(|_| {
                let t = g.next_txn();
                t.accesses.iter().map(|a| (a.page, a.dirty)).collect()
            })
            .collect();
        assert_eq!(
            got,
            [
                [(1997, false), (1921, false), (3902, false), (1039, true)],
                [(2706, true), (189, false), (1233, false), (2489, true)],
                [(2803, true), (2738, true), (3971, true), (926, true)],
                [(2595, false), (3167, true), (3754, true), (558, true)],
            ]
        );
    }

    #[test]
    fn skew_makes_some_pages_hot() {
        let mut g = OltpGen::new(
            OltpConfig {
                theta: 0.99,
                data_pages: 1000,
                ..OltpConfig::default()
            },
            4,
        );
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..2500 {
            for a in g.next_txn().accesses {
                *counts.entry(a.page).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 200, "hottest page only {max}/10000 accesses");
    }
}
