//! Block-level mapping and the BAST-style hybrid log scheme.
//!
//! These are the FTLs of the devices *"on the market before 2009"* for
//! which myth 2 — random writes are catastrophic — was genuinely true:
//!
//! * **Block mapping** ([`BlockMap`]): one mapping entry per logical
//!   block; a logical page's offset inside the physical block is fixed.
//!   Appending in offset order is cheap, but any out-of-order write forces
//!   a *full merge*: copy every live page into a fresh block. A random
//!   write therefore costs ~`pages_per_block` programs + reads + an erase.
//! * **Hybrid / BAST** ([`HybridState`]): block mapping plus a small pool
//!   of per-logical-block *log blocks* absorbing out-of-order writes.
//!   Sequential streams get cheap *switch merges*; random writes across
//!   many logical blocks thrash the log pool and degenerate to full
//!   merges.
//!
//! State only — the device executes the flash operations these schemes
//! imply and charges their time.

use std::collections::BTreeMap;

use crate::addr::LunId;

/// A physical block reference at device scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysBlockRef {
    /// The LUN holding the block.
    pub lun: LunId,
    /// Dense block index within the LUN.
    pub block: u32,
}

/// Logical-block → physical-block table.
#[derive(Debug, Clone)]
pub struct BlockMap {
    table: Vec<Option<PhysBlockRef>>,
}

impl BlockMap {
    /// Create an empty map over `logical_blocks` entries.
    pub fn new(logical_blocks: u64) -> Self {
        BlockMap {
            table: vec![None; logical_blocks as usize],
        }
    }

    /// Number of logical blocks.
    pub fn len(&self) -> u64 {
        self.table.len() as u64
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.table.iter().all(|e| e.is_none())
    }

    /// Physical block for a logical block, if any.
    #[inline]
    pub fn lookup(&self, lbn: u64) -> Option<PhysBlockRef> {
        self.table[lbn as usize]
    }

    /// Map `lbn` to `phys`, returning the displaced block (caller erases).
    #[inline]
    pub fn update(&mut self, lbn: u64, phys: PhysBlockRef) -> Option<PhysBlockRef> {
        self.table[lbn as usize].replace(phys)
    }

    /// Unmap a logical block.
    #[inline]
    pub fn unmap(&mut self, lbn: u64) -> Option<PhysBlockRef> {
        self.table[lbn as usize].take()
    }
}

/// One log block absorbing out-of-order writes for a single logical block.
#[derive(Debug, Clone)]
pub struct LogBlock {
    /// Physical location of the log block.
    pub phys: PhysBlockRef,
    /// Next free page (C3 write point) in the log block.
    pub next_page: u32,
    /// For each logical offset, the log-block page holding its latest
    /// version (None = latest version is in the data block / unwritten).
    pub latest: Vec<Option<u32>>,
    /// LRU stamp.
    stamp: u64,
}

impl LogBlock {
    /// True when every offset was written exactly in order — the log block
    /// is a perfect replacement for the data block (switch merge).
    pub fn is_switchable(&self, pages_per_block: u32) -> bool {
        self.next_page == pages_per_block
            && self
                .latest
                .iter()
                .enumerate()
                .all(|(off, v)| *v == Some(off as u32))
    }

    /// True when the log block has no free page left.
    pub fn full(&self, pages_per_block: u32) -> bool {
        self.next_page >= pages_per_block
    }
}

/// BAST hybrid-FTL state: block map + bounded per-LBN log blocks.
#[derive(Debug)]
pub struct HybridState {
    /// The underlying block map.
    pub data: BlockMap,
    /// BTreeMap: [`lru_log`](Self::lru_log) scans it for the min-stamp
    /// victim, so iteration order must be deterministic.
    logs: BTreeMap<u64, LogBlock>,
    max_logs: usize,
    next_stamp: u64,
    pages_per_block: u32,
}

impl HybridState {
    /// Create hybrid state with at most `max_logs` concurrent log blocks.
    pub fn new(logical_blocks: u64, max_logs: usize, pages_per_block: u32) -> Self {
        assert!(max_logs > 0, "hybrid FTL needs at least one log block");
        HybridState {
            data: BlockMap::new(logical_blocks),
            logs: BTreeMap::new(),
            max_logs,
            next_stamp: 0,
            pages_per_block,
        }
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// The log block currently assigned to `lbn`, if any.
    pub fn log_of(&self, lbn: u64) -> Option<&LogBlock> {
        self.logs.get(&lbn)
    }

    /// True if a new log block can be assigned without eviction.
    pub fn has_free_log_slot(&self) -> bool {
        self.logs.len() < self.max_logs
    }

    /// The least-recently-used log block's LBN (the merge victim).
    pub fn lru_log(&self) -> Option<u64> {
        self.logs
            .iter()
            .min_by_key(|(_, l)| l.stamp)
            .map(|(&lbn, _)| lbn)
    }

    /// Assign a fresh physical block as `lbn`'s log block.
    ///
    /// # Panics
    /// Panics if `lbn` already has a log block or the pool is full.
    pub fn assign_log(&mut self, lbn: u64, phys: PhysBlockRef) {
        assert!(self.has_free_log_slot(), "log pool full; merge first");
        self.next_stamp += 1;
        let prev = self.logs.insert(
            lbn,
            LogBlock {
                phys,
                next_page: 0,
                latest: vec![None; self.pages_per_block as usize],
                stamp: self.next_stamp,
            },
        );
        assert!(prev.is_none(), "lbn {lbn} already had a log block");
    }

    /// Append one write for `offset` of `lbn` into its log block; returns
    /// the log page index used.
    ///
    /// # Panics
    /// Panics if `lbn` has no log block or it is full.
    pub fn append_log(&mut self, lbn: u64, offset: u32) -> u32 {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let Some(log) = self.logs.get_mut(&lbn) else {
            unreachable!("append_log contract: no log block for lbn")
        };
        assert!(log.next_page < self.pages_per_block, "log block full");
        let page = log.next_page;
        log.next_page += 1;
        log.latest[offset as usize] = Some(page);
        log.stamp = stamp;
        page
    }

    /// Remove and return `lbn`'s log block (merge completion).
    pub fn take_log(&mut self, lbn: u64) -> Option<LogBlock> {
        self.logs.remove(&lbn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pbr(lun: u32, block: u32) -> PhysBlockRef {
        PhysBlockRef {
            lun: LunId(lun),
            block,
        }
    }

    #[test]
    fn block_map_roundtrip() {
        let mut m = BlockMap::new(8);
        assert!(m.is_empty());
        assert_eq!(m.update(3, pbr(0, 5)), None);
        assert_eq!(m.lookup(3), Some(pbr(0, 5)));
        assert_eq!(m.update(3, pbr(1, 2)), Some(pbr(0, 5)));
        assert_eq!(m.unmap(3), Some(pbr(1, 2)));
        assert!(m.is_empty());
    }

    #[test]
    fn hybrid_log_assignment_and_append() {
        let mut h = HybridState::new(8, 2, 4);
        h.assign_log(1, pbr(0, 9));
        assert_eq!(h.append_log(1, 2), 0); // offset 2 lands on log page 0
        assert_eq!(h.append_log(1, 2), 1); // rewrite: log page 1
        let log = h.log_of(1).unwrap();
        assert_eq!(log.latest[2], Some(1));
        assert_eq!(log.next_page, 2);
    }

    #[test]
    fn switch_merge_detected_only_for_perfect_order() {
        let mut h = HybridState::new(8, 2, 4);
        h.assign_log(1, pbr(0, 9));
        for off in 0..4 {
            h.append_log(1, off);
        }
        assert!(h.log_of(1).unwrap().is_switchable(4));

        h.assign_log(2, pbr(0, 10));
        h.append_log(2, 1);
        h.append_log(2, 0);
        h.append_log(2, 2);
        h.append_log(2, 3);
        assert!(!h.log_of(2).unwrap().is_switchable(4));
        assert!(h.log_of(2).unwrap().full(4));
    }

    #[test]
    fn lru_log_is_coldest() {
        let mut h = HybridState::new(8, 3, 4);
        h.assign_log(1, pbr(0, 9));
        h.assign_log(2, pbr(0, 10));
        h.append_log(1, 0); // refresh lbn 1
        assert_eq!(h.lru_log(), Some(2));
    }

    #[test]
    fn pool_capacity_enforced() {
        let mut h = HybridState::new(8, 1, 4);
        h.assign_log(1, pbr(0, 9));
        assert!(!h.has_free_log_slot());
        let lbn = h.lru_log().unwrap();
        let log = h.take_log(lbn).unwrap();
        assert_eq!(log.phys, pbr(0, 9));
        assert!(h.has_free_log_slot());
    }

    #[test]
    #[should_panic(expected = "log pool full")]
    fn assigning_over_capacity_panics() {
        let mut h = HybridState::new(8, 1, 4);
        h.assign_log(1, pbr(0, 9));
        h.assign_log(2, pbr(0, 10));
    }
}
