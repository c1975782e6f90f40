//! Readahead prefetching for the completion-driven engine.
//!
//! When a transaction misses on page *p*, the executor speculatively
//! submits the next `depth` pages in page-id order (wrapping at the
//! data-page count) alongside the demand read — one batch, one doorbell.
//!
//! Every speculative submission is attributed: a **win** is a demand
//! request that found its page already in flight or already installed by
//! a speculative read; everything else a speculative read bought is a
//! **loss** (wasted device work, possible pollution). Wins and losses
//! are counted in [`PrefetchStats`] and noted on the probe bus
//! (`prefetch-win` / `prefetch-loss` status counters in the probe JSON),
//! so an experiment can show not just that readahead helps but *when*.

use std::collections::BTreeSet;

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Speculative pages submitted per demand miss (0 = off); the
    /// successor of page `p` is `p + 1` (mod the data-page count).
    pub depth: u32,
}

impl PrefetchConfig {
    /// Prefetching disabled — required for the QD-1 identity.
    pub fn off() -> Self {
        PrefetchConfig { depth: 0 }
    }

    /// Sequential readahead of `depth` pages.
    pub fn sequential(depth: u32) -> Self {
        PrefetchConfig { depth }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Speculation outcome counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Speculative reads submitted.
    pub issued: u64,
    /// Demand requests served by a speculative read (page found in
    /// flight, or installed-but-untouched).
    pub wins: u64,
    /// Speculative reads that never served a demand request (finalized
    /// at end of run: `issued - wins`).
    pub losses: u64,
}

/// The readahead engine: picks targets and attributes outcomes.
#[derive(Debug)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    /// Pages installed by a speculative read and not yet demanded.
    speculative_resident: BTreeSet<u64>,
    stats: PrefetchStats,
}

impl Prefetcher {
    /// New prefetcher under `cfg`.
    pub fn new(cfg: PrefetchConfig) -> Self {
        Prefetcher {
            cfg,
            speculative_resident: BTreeSet::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// True when prefetching is off.
    pub fn is_off(&self) -> bool {
        self.cfg.depth == 0
    }

    /// The `depth` successors of `page` in page-id order (fewer when
    /// the address space is smaller). `data_pages` bounds the wrap-around.
    pub fn targets(&self, page: u64, data_pages: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.cfg.depth as usize);
        let mut cur = page;
        for _ in 0..self.cfg.depth {
            let next = (cur + 1) % data_pages.max(1);
            if next == page || out.contains(&next) {
                break; // wrapped around
            }
            out.push(next);
            cur = next;
        }
        out
    }

    /// A speculative read for `page` was submitted.
    pub fn note_issued(&mut self, page: u64) {
        self.stats.issued += 1;
        // a fresh fetch supersedes any stale installed-speculative record
        self.speculative_resident.remove(&page);
    }

    /// A speculative read completed with no demand waiter: the page is
    /// resident on speculation alone.
    pub fn note_installed(&mut self, page: u64) {
        self.speculative_resident.insert(page);
    }

    /// A demand request found `page` already in flight from a
    /// speculative read — a win.
    pub fn note_hit_in_flight(&mut self) {
        self.stats.wins += 1;
    }

    /// A demand request found `page` resident. Returns `true` (and
    /// counts a win) when the residency was bought by an untouched
    /// speculative read.
    pub fn note_demand_resident(&mut self, page: u64) -> bool {
        if self.speculative_resident.remove(&page) {
            self.stats.wins += 1;
            true
        } else {
            false
        }
    }

    /// A demand fetch is being issued for `page`: any stale speculative
    /// residency record is dropped (the page was evicted before use).
    pub fn note_demand_fetch(&mut self, page: u64) {
        self.speculative_resident.remove(&page);
    }

    /// Finalize at end of run: everything issued that never won is a
    /// loss. Returns the final stats.
    pub fn finalize(&mut self) -> PrefetchStats {
        self.stats.losses = self.stats.issued.saturating_sub(self.stats.wins);
        self.stats
    }

    /// Current (possibly pre-finalize) stats.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_targets_wrap_but_never_self() {
        let p = Prefetcher::new(PrefetchConfig::sequential(3));
        assert_eq!(p.targets(5, 100), vec![6, 7, 8]);
        assert_eq!(p.targets(98, 100), vec![99, 0, 1]);
        // tiny address space: stop instead of cycling back to the seed
        assert_eq!(p.targets(0, 2), vec![1]);
        assert_eq!(p.targets(0, 1), Vec::<u64>::new());
    }

    #[test]
    fn off_config_yields_no_targets() {
        let p = Prefetcher::new(PrefetchConfig::off());
        assert!(p.is_off());
        assert!(p.targets(5, 100).is_empty());
    }

    #[test]
    fn win_loss_attribution() {
        let mut p = Prefetcher::new(PrefetchConfig::sequential(2));
        p.note_issued(6);
        p.note_issued(7);
        p.note_issued(8);
        // 6: demand arrives while in flight
        p.note_hit_in_flight();
        // 7: installs quietly, demanded later
        p.note_installed(7);
        assert!(p.note_demand_resident(7));
        // a plain (demand-fetched) resident page is not a win
        assert!(!p.note_demand_resident(42));
        // 8: never demanded
        let s = p.finalize();
        assert_eq!(s.issued, 3);
        assert_eq!(s.wins, 2);
        assert_eq!(s.losses, 1);
    }
}
