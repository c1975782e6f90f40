//! The block directory: free lists, valid-page accounting, write frontiers.
//!
//! This is the controller-side bookkeeping behind the paper's Figure 2
//! "shared internal data structures": which blocks are free, which pages
//! are live (and for which LPN — mirroring the out-of-band metadata real
//! FTLs store), where each LUN's current write frontier is, and per-block
//! erase counts for wear-aware allocation.
//!
//! Host and GC writes use **separate active blocks** per LUN so garbage
//! collection always has a landing block even when the host stream is
//! starved for space.

use requiem_flash::{Geometry, PageAddr};

use crate::addr::{Lpn, LunId, PhysPage};
use crate::config::GcPolicyKind;

/// Lifecycle state of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockUse {
    /// Erased and on the free list.
    Free,
    /// Currently an active write frontier.
    Open,
    /// Fully programmed.
    Full,
    /// Retired (wear-out or factory bad).
    Bad,
}

/// Which write stream is asking for space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Host writes (buffer flushes).
    Host,
    /// Garbage-collection relocations.
    Gc,
}

/// Controller-side bookkeeping for one physical block.
#[derive(Debug, Clone)]
pub struct BlockInfo {
    /// Lifecycle state.
    pub state: BlockUse,
    /// Number of live pages.
    pub valid: u32,
    /// Erase count (C4 wear, mirrored from the chip).
    pub erase_count: u32,
    /// Monotonic stamp of when the block was last opened (cost-benefit age).
    pub opened_seq: u64,
}

/// The back-pointer word of a page holding no live data. Not an LPN:
/// [`BlockDirectory::mark_valid`] refuses it, and whoever reads a word
/// asks [`held`] what it names before comparing it with anything.
const NO_LPN: u64 = u64::MAX;

/// The LPN a back-pointer word names, if it names one.
fn held(word: u64) -> Option<Lpn> {
    (word != NO_LPN).then_some(Lpn(word))
}

/// Set bit `b`; whether it was clear before.
fn set_bit(words: &mut [u64], b: u32) -> bool {
    let (w, mask) = (b as usize / 64, 1u64 << (b % 64));
    let was_clear = words[w] & mask == 0;
    words[w] |= mask;
    was_clear
}

/// Clear bit `b`; whether it was set before.
fn clear_bit(words: &mut [u64], b: u32) -> bool {
    let (w, mask) = (b as usize / 64, 1u64 << (b % 64));
    let was_set = words[w] & mask != 0;
    words[w] &= !mask;
    was_set
}

/// The set bits, lowest first.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                i as u32 * 64 + bit
            })
        })
    })
}

/// The Full blocks of one LUN — the GC candidate set — kept in lockstep
/// with the `state` transitions. One bit per block, read back in
/// ascending block order (the whole-LUN scan's tie-breaks), and the same
/// blocks again bucketed by live-page count, so the greedy victim is the
/// lowest block of the first occupied bucket instead of a scored walk.
struct FullBlocks {
    /// `u64`s per bit set.
    words: usize,
    all: Vec<u64>,
    /// `pages_per_block + 1` bit sets back to back: set `v` holds the
    /// Full blocks with `v` live pages.
    by_valid: Vec<u64>,
    /// Members of each `by_valid` set.
    occupancy: Vec<u32>,
}

impl FullBlocks {
    fn new(blocks: u32, pages_per_block: u32) -> Self {
        let words = (blocks as usize).div_ceil(64);
        let buckets = pages_per_block as usize + 1;
        FullBlocks {
            words,
            all: vec![0; words],
            by_valid: vec![0; words * buckets],
            occupancy: vec![0; buckets],
        }
    }

    /// The bucket of a block with `valid` live pages. A count above
    /// `pages_per_block` (a double `mark_valid`, debug-asserted against)
    /// shares the last bucket: never a victim either way.
    fn bucket(&self, valid: u32) -> usize {
        (valid as usize).min(self.occupancy.len() - 1)
    }

    /// Where bucket `bucket`'s bit set lies in `by_valid`.
    fn bits_of(&self, bucket: usize) -> std::ops::Range<usize> {
        bucket * self.words..(bucket + 1) * self.words
    }

    fn put(&mut self, bucket: usize, block: u32) {
        let bits = self.bits_of(bucket);
        set_bit(&mut self.by_valid[bits], block);
        self.occupancy[bucket] += 1;
    }

    fn take(&mut self, bucket: usize, block: u32) {
        let bits = self.bits_of(bucket);
        clear_bit(&mut self.by_valid[bits], block);
        self.occupancy[bucket] -= 1;
    }

    /// `block`, holding `valid` live pages, became Full (no-op if it
    /// already was).
    fn insert(&mut self, block: u32, valid: u32) {
        if set_bit(&mut self.all, block) {
            self.put(self.bucket(valid), block);
        }
    }

    /// `block`, holding `valid` live pages, stopped being Full (no-op if
    /// it was not).
    fn remove(&mut self, block: u32, valid: u32) {
        if clear_bit(&mut self.all, block) {
            self.take(self.bucket(valid), block);
        }
    }

    /// The live-page count of Full `block` went from `was` to `now`.
    fn revalue(&mut self, block: u32, was: u32, now: u32) {
        let (from, to) = (self.bucket(was), self.bucket(now));
        if from != to {
            self.take(from, block);
            self.put(to, block);
        }
    }

    /// Full blocks in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.all)
    }

    /// The lowest-indexed block among those with the fewest live pages,
    /// unless every Full block is fully valid.
    fn fewest_valid(&self) -> Option<u32> {
        let candidates = &self.occupancy[..self.occupancy.len() - 1];
        let bucket = candidates.iter().position(|&n| n > 0)?;
        set_bits(&self.by_valid[self.bits_of(bucket)]).next()
    }
}

struct LunDir {
    blocks: Vec<BlockInfo>,
    /// Per-page back-pointer words, `block × pages_per_block + page`:
    /// which LPN's data lives there ([`NO_LPN`] = invalid or unwritten).
    /// Mirrors OOB metadata. Eight bytes each, not four: the nameless
    /// device stores host tags here, and those run past 2³².
    backptrs: Vec<u64>,
    free: Vec<u32>,
    full: FullBlocks,
    active_host: Option<(u32, u32)>, // (block index, next page)
    active_gc: Option<(u32, u32)>,
}

impl LunDir {
    /// Mark `block` Full and enter it into the candidate set.
    fn close(&mut self, block: u32) {
        let info = &mut self.blocks[block as usize];
        info.state = BlockUse::Full;
        self.full.insert(block, info.valid);
    }

    /// Set `block`'s live-page count, moving it between candidate
    /// buckets if it is Full.
    fn set_valid(&mut self, block: usize, now: u32) {
        let info = &mut self.blocks[block];
        let was = std::mem::replace(&mut info.valid, now);
        if info.state == BlockUse::Full {
            self.full.revalue(block as u32, was, now);
        }
    }
}

/// Directory over all LUNs of the device.
pub struct BlockDirectory {
    geom: Geometry,
    luns: Vec<LunDir>,
    seq: u64,
}

impl BlockDirectory {
    /// Create a directory for `luns` LUNs of identical geometry; every
    /// block starts free.
    pub fn new(luns: u32, geom: Geometry) -> Self {
        let per_lun = (0..luns)
            .map(|_| LunDir {
                blocks: (0..geom.total_blocks())
                    .map(|_| BlockInfo {
                        state: BlockUse::Free,
                        valid: 0,
                        erase_count: 0,
                        opened_seq: 0,
                    })
                    .collect(),
                backptrs: vec![NO_LPN; geom.total_pages() as usize],
                free: (0..geom.total_blocks()).collect(),
                full: FullBlocks::new(geom.total_blocks(), geom.pages_per_block),
                active_host: None,
                active_gc: None,
            })
            .collect();
        BlockDirectory {
            geom,
            luns: per_lun,
            seq: 0,
        }
    }

    /// Index within its LUN of the block holding `phys`.
    fn block_index_of(&self, phys: PhysPage) -> usize {
        self.geom.block_index(self.geom.block_of(phys.addr)) as usize
    }

    /// Where `phys`'s back-pointer sits in its LUN's array.
    fn slot_of(&self, phys: PhysPage) -> usize {
        self.geom.ppn(phys.addr).0 as usize
    }

    /// The back-pointer slots of block `block_idx`'s pages.
    fn slots_of(&self, block_idx: u32) -> std::ops::Range<usize> {
        let ppb = self.geom.pages_per_block as usize;
        let first = block_idx as usize * ppb;
        first..first + ppb
    }

    fn lun(&self, l: LunId) -> &LunDir {
        &self.luns[l.0 as usize]
    }

    fn lun_mut(&mut self, l: LunId) -> &mut LunDir {
        &mut self.luns[l.0 as usize]
    }

    /// Number of free blocks in a LUN (active blocks not counted).
    pub fn free_blocks(&self, l: LunId) -> u32 {
        self.lun(l).free.len() as u32
    }

    /// Info for a block.
    pub fn block_info(&self, l: LunId, block_idx: u32) -> &BlockInfo {
        &self.lun(l).blocks[block_idx as usize]
    }

    /// The LPN whose live data `phys` holds, if any.
    pub fn backptr(&self, phys: PhysPage) -> Option<Lpn> {
        held(self.lun(phys.lun).backptrs[self.slot_of(phys)])
    }

    /// Whether a LUN still has any usable space at all.
    pub fn exhausted(&self, l: LunId) -> bool {
        let d = self.lun(l);
        d.free.is_empty() && d.active_host.is_none() && d.active_gc.is_none()
    }

    /// Pop the free block with the lowest erase count, the first in the
    /// free list on a tie (dynamic wear leveling).
    fn pop_free(&mut self, l: LunId) -> Option<u32> {
        let d = self.lun_mut(l);
        if d.free.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_ec = u32::MAX;
        for (i, &b) in d.free.iter().enumerate() {
            let ec = d.blocks[b as usize].erase_count;
            if ec < best_ec {
                best_ec = ec;
                best = i;
            }
        }
        Some(d.free.swap_remove(best))
    }

    /// Allocate the next physical page on a LUN for the given stream,
    /// opening a fresh block from the free list when the frontier is full.
    ///
    /// Returns `None` when the LUN has no free block to open (caller must
    /// garbage-collect first). `newly_opened` reports whether a new block
    /// was opened (the device may want to log it).
    pub fn next_page(&mut self, l: LunId, stream: Stream) -> Option<NextPage> {
        let ppb = self.geom.pages_per_block;
        // take current frontier
        let frontier = {
            let d = self.lun_mut(l);
            match stream {
                Stream::Host => d.active_host,
                Stream::Gc => d.active_gc,
            }
        };
        let (block_idx, page, opened) = match frontier {
            Some((b, p)) if p < ppb => (b, p, false),
            other => {
                // frontier missing or full: close it and open a new block
                if let Some((b, _)) = other {
                    self.lun_mut(l).close(b);
                }
                let nb = self.pop_free(l)?;
                self.seq += 1;
                let seq = self.seq;
                let d = self.lun_mut(l);
                d.blocks[nb as usize].state = BlockUse::Open;
                d.blocks[nb as usize].opened_seq = seq;
                (nb, 0, true)
            }
        };
        // advance frontier
        {
            let d = self.lun_mut(l);
            let slot = match stream {
                Stream::Host => &mut d.active_host,
                Stream::Gc => &mut d.active_gc,
            };
            *slot = Some((block_idx, page + 1));
            if page + 1 >= ppb {
                d.close(block_idx);
            }
        }
        let addr = self.geom.addr(requiem_flash::Ppn(
            block_idx as u64 * ppb as u64 + page as u64,
        ));
        Some(NextPage {
            phys: PhysPage { lun: l, addr },
            newly_opened: opened,
        })
    }

    /// Record that `phys` now holds live data for `lpn`.
    pub fn mark_valid(&mut self, phys: PhysPage, lpn: Lpn) {
        debug_assert!(
            lpn.0 != NO_LPN,
            "mark_valid on {:?} with the word that means no LPN",
            phys
        );
        let (bidx, slot) = (self.block_index_of(phys), self.slot_of(phys));
        let d = self.lun_mut(phys.lun);
        debug_assert!(
            held(d.backptrs[slot]).is_none(),
            "double mark_valid on {:?}",
            phys
        );
        d.backptrs[slot] = lpn.0;
        let valid = d.blocks[bidx].valid + 1;
        d.set_valid(bidx, valid);
    }

    /// Record that `phys` no longer holds live data (overwrite or trim).
    pub fn invalidate(&mut self, phys: PhysPage) {
        let (bidx, slot) = (self.block_index_of(phys), self.slot_of(phys));
        let d = self.lun_mut(phys.lun);
        debug_assert!(
            held(d.backptrs[slot]).is_some(),
            "invalidate of already-invalid page {:?}",
            phys
        );
        d.backptrs[slot] = NO_LPN;
        let valid = d.blocks[bidx].valid.saturating_sub(1);
        d.set_valid(bidx, valid);
    }

    /// Invalidate `phys` only if it currently holds live data for `lpn`.
    /// Returns whether an invalidation happened. Used by the hybrid FTL,
    /// whose log-block `latest[]` pointers can outlive a trim.
    pub fn invalidate_checked(&mut self, phys: PhysPage, lpn: Lpn) -> bool {
        if self.backptr(phys) != Some(lpn) {
            return false;
        }
        self.invalidate(phys);
        true
    }

    /// Live pages of a block, in page order, with the LPN each holds.
    pub fn live_pages(&self, l: LunId, block_idx: u32) -> Vec<(PageAddr, Lpn)> {
        let mut live = Vec::new();
        self.live_pages_into(l, block_idx, &mut live);
        live
    }

    /// [`live_pages`](Self::live_pages) into a caller-owned buffer
    /// (cleared first) — the relocation loops run once per collected
    /// block and reuse one.
    pub fn live_pages_into(&self, l: LunId, block_idx: u32, live: &mut Vec<(PageAddr, Lpn)>) {
        let words = &self.lun(l).backptrs[self.slots_of(block_idx)];
        let baddr = self.geom.block_from_index(block_idx);
        live.clear();
        live.extend(words.iter().enumerate().filter_map(|(p, &word)| {
            held(word).map(|lpn| {
                (
                    PageAddr {
                        plane: baddr.plane,
                        block: baddr.block,
                        page: p as u32,
                    },
                    lpn,
                )
            })
        }));
    }

    /// Return an erased block to the free pool, bumping its erase count.
    pub fn recycle(&mut self, l: LunId, block_idx: u32) {
        let slots = self.slots_of(block_idx);
        let d = self.lun_mut(l);
        let info = &mut d.blocks[block_idx as usize];
        debug_assert!(info.valid == 0, "recycling block with live pages");
        debug_assert!(info.state != BlockUse::Bad);
        info.state = BlockUse::Free;
        info.erase_count += 1;
        d.backptrs[slots].fill(NO_LPN);
        d.full.remove(block_idx, info.valid);
        d.free.push(block_idx);
        // clear a frontier that pointed at this block (possible for merges)
        if let Some((b, _)) = d.active_host {
            if b == block_idx {
                d.active_host = None;
            }
        }
        if let Some((b, _)) = d.active_gc {
            if b == block_idx {
                d.active_gc = None;
            }
        }
    }

    /// Retire a block (wear-out). Any frontier pointing at it is cleared.
    pub fn retire(&mut self, l: LunId, block_idx: u32) {
        let d = self.lun_mut(l);
        let info = &mut d.blocks[block_idx as usize];
        info.state = BlockUse::Bad;
        d.full.remove(block_idx, info.valid);
        d.free.retain(|&b| b != block_idx);
        if let Some((b, _)) = d.active_host {
            if b == block_idx {
                d.active_host = None;
            }
        }
        if let Some((b, _)) = d.active_gc {
            if b == block_idx {
                d.active_gc = None;
            }
        }
    }

    /// Rebuild support: set a block's erase count from chip-held state.
    pub fn set_erase_count(&mut self, l: LunId, block_idx: u32, count: u32) {
        self.lun_mut(l).blocks[block_idx as usize].erase_count = count;
    }

    /// Rebuild support: mark a block as occupied (Full) and remove it from
    /// the free list — used when a boot scan finds programmed pages in it.
    pub fn claim_full(&mut self, l: LunId, block_idx: u32) {
        let d = self.lun_mut(l);
        d.close(block_idx);
        d.free.retain(|&b| b != block_idx);
    }

    /// Allocate a whole free block (block-mapped and hybrid FTLs manage
    /// their own write points). The block is marked [`BlockUse::Open`].
    pub fn alloc_block(&mut self, l: LunId) -> Option<u32> {
        let b = self.pop_free(l)?;
        self.seq += 1;
        let seq = self.seq;
        let d = self.lun_mut(l);
        d.blocks[b as usize].state = BlockUse::Open;
        d.blocks[b as usize].opened_seq = seq;
        Some(b)
    }

    /// Pick a GC victim among Full blocks of a LUN. Active frontiers are
    /// never victims. Returns the block index.
    pub fn pick_victim(&self, l: LunId, policy: GcPolicyKind) -> Option<u32> {
        let d = self.lun(l);
        match policy {
            // fewest live pages, lowest index among equals; never a
            // fully-valid block: it frees no space and erases forever
            GcPolicyKind::Greedy => d.full.fewest_valid(),
            GcPolicyKind::CostBenefit => {
                let ppb = self.geom.pages_per_block as f64;
                let mut best: Option<(u32, f64)> = None;
                // ascending block order, so ties keep the lowest index
                // exactly as the whole-LUN scan did
                for i in d.full.iter() {
                    let info = &d.blocks[i as usize];
                    debug_assert_eq!(info.state, BlockUse::Full, "stale full-set entry");
                    let u = info.valid as f64 / ppb;
                    let score = if u >= 1.0 {
                        f64::NEG_INFINITY
                    } else {
                        let age = (self.seq - info.opened_seq) as f64 + 1.0;
                        age * (1.0 - u) / (2.0 * u.max(1.0 / (2.0 * ppb)))
                    };
                    match best {
                        Some((_, s)) if s >= score => {}
                        _ => best = Some((i, score)),
                    }
                }
                // a fully-valid block leads only when every Full block is one
                best.map(|(i, _)| i)
                    .filter(|&i| d.blocks[i as usize].valid < self.geom.pages_per_block)
            }
        }
    }

    /// `(min, max, mean)` erase counts across all blocks of all LUNs.
    pub fn erase_count_spread(&self) -> (u32, u32, f64) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut n = 0u64;
        for d in &self.luns {
            for b in &d.blocks {
                if b.state == BlockUse::Bad {
                    continue;
                }
                min = min.min(b.erase_count);
                max = max.max(b.erase_count);
                sum += b.erase_count as u64;
                n += 1;
            }
        }
        if n == 0 {
            (0, 0, 0.0)
        } else {
            (min, max, sum as f64 / n as f64)
        }
    }

    /// The coldest Full block of a LUN (lowest erase count) — static wear
    /// leveling migration source.
    pub fn coldest_full_block(&self, l: LunId) -> Option<u32> {
        let d = self.lun(l);
        // ascending full-set order keeps the lowest-index tie-break of
        // the whole-LUN scan this replaced
        d.full
            .iter()
            .min_by_key(|&i| d.blocks[i as usize].erase_count)
    }
}

/// Result of [`BlockDirectory::next_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextPage {
    /// The allocated physical page.
    pub phys: PhysPage,
    /// Whether a fresh block was opened for it.
    pub newly_opened: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What [`FullBlocks`] replaced, kept as the reference: victim and
    /// migration-source choice by a scored walk over every block of the
    /// LUN, looking only at `state` and `valid`.
    impl BlockDirectory {
        fn full_by_scan(&self, l: LunId) -> impl Iterator<Item = u32> + '_ {
            let blocks = &self.lun(l).blocks;
            (0..blocks.len() as u32).filter(|&i| blocks[i as usize].state == BlockUse::Full)
        }

        fn pick_victim_by_scan(&self, l: LunId, policy: GcPolicyKind) -> Option<u32> {
            let d = self.lun(l);
            let ppb = self.geom.pages_per_block as f64;
            let mut best: Option<(u32, f64)> = None;
            for i in self.full_by_scan(l) {
                let info = &d.blocks[i as usize];
                let score = match policy {
                    GcPolicyKind::Greedy => -(info.valid as f64),
                    GcPolicyKind::CostBenefit => {
                        let u = info.valid as f64 / ppb;
                        if u >= 1.0 {
                            f64::NEG_INFINITY
                        } else {
                            let age = (self.seq - info.opened_seq) as f64 + 1.0;
                            age * (1.0 - u) / (2.0 * u.max(1.0 / (2.0 * ppb)))
                        }
                    }
                };
                match best {
                    Some((_, s)) if s >= score => {}
                    _ => best = Some((i, score)),
                }
            }
            best.and_then(|(i, _)| {
                if d.blocks[i as usize].valid >= self.geom.pages_per_block {
                    None
                } else {
                    Some(i)
                }
            })
        }

        fn coldest_full_by_scan(&self, l: LunId) -> Option<u32> {
            let d = self.lun(l);
            self.full_by_scan(l)
                .min_by_key(|&i| d.blocks[i as usize].erase_count)
        }

        /// Every Full block sits in the candidate set and in exactly the
        /// bucket of its `valid`; nothing else sits anywhere.
        fn assert_full_index_consistent(&self, l: LunId) {
            let d = self.lun(l);
            let full: Vec<u32> = self.full_by_scan(l).collect();
            assert_eq!(d.full.iter().collect::<Vec<_>>(), full, "candidate set");
            let ppb = self.geom.pages_per_block;
            for bucket in 0..=ppb {
                let bits = &d.full.by_valid[d.full.bits_of(bucket as usize)];
                let want: Vec<u32> = full
                    .iter()
                    .copied()
                    .filter(|&i| d.blocks[i as usize].valid.min(ppb) == bucket)
                    .collect();
                assert_eq!(set_bits(bits).collect::<Vec<_>>(), want, "bucket {bucket}");
                assert_eq!(d.full.occupancy[bucket as usize] as usize, want.len());
            }
        }
    }

    /// What the flat back-pointer array replaced, kept as the reference:
    /// every block owning a `Vec<Option<Lpn>>` beside its `state` and
    /// `valid`, told of each op by what the directory answered.
    #[derive(Clone)]
    struct VecBlock {
        state: BlockUse,
        valid: u32,
        backptrs: Vec<Option<Lpn>>,
    }

    struct VecBlocks {
        geom: Geometry,
        blocks: Vec<VecBlock>,
    }

    impl VecBlocks {
        fn new(geom: Geometry) -> Self {
            let fresh = VecBlock {
                state: BlockUse::Free,
                valid: 0,
                backptrs: vec![None; geom.pages_per_block as usize],
            };
            VecBlocks {
                blocks: vec![fresh; geom.total_blocks() as usize],
                geom,
            }
        }

        fn block_mut(&mut self, phys: PhysPage) -> &mut VecBlock {
            let b = self.geom.block_index(self.geom.block_of(phys.addr));
            &mut self.blocks[b as usize]
        }

        /// `next_page` handed out `np`: a block it opened is Open, the
        /// block whose last page it took is Full.
        fn took_page(&mut self, np: NextPage) {
            let last = np.phys.addr.page + 1 == self.geom.pages_per_block;
            let block = self.block_mut(np.phys);
            if np.newly_opened {
                block.state = BlockUse::Open;
            }
            if last {
                block.state = BlockUse::Full;
            }
        }

        fn mark_valid(&mut self, phys: PhysPage, lpn: Lpn) {
            let block = self.block_mut(phys);
            block.backptrs[phys.addr.page as usize] = Some(lpn);
            block.valid += 1;
        }

        fn invalidate(&mut self, phys: PhysPage) {
            let block = self.block_mut(phys);
            block.backptrs[phys.addr.page as usize] = None;
            block.valid = block.valid.saturating_sub(1);
        }

        fn invalidate_checked(&mut self, phys: PhysPage, lpn: Lpn) -> bool {
            let held = self.block_mut(phys).backptrs[phys.addr.page as usize] == Some(lpn);
            if held {
                self.invalidate(phys);
            }
            held
        }

        fn live_pages(&self, block_idx: u32) -> Vec<(PageAddr, Lpn)> {
            let baddr = self.geom.block_from_index(block_idx);
            self.blocks[block_idx as usize]
                .backptrs
                .iter()
                .enumerate()
                .filter_map(|(p, lpn)| {
                    lpn.map(|lpn| (self.geom.page_addr(baddr.plane, baddr.block, p as u32), lpn))
                })
                .collect()
        }

        fn recycle(&mut self, block_idx: u32) {
            let block = &mut self.blocks[block_idx as usize];
            block.state = BlockUse::Free;
            block.backptrs.iter_mut().for_each(|b| *b = None);
        }

        /// The directory answers as this model does, for every block and
        /// every page of the LUN.
        fn assert_matches(&self, d: &BlockDirectory, l: LunId, step: usize) {
            for (i, want) in self.blocks.iter().enumerate() {
                let info = d.block_info(l, i as u32);
                assert_eq!(info.state, want.state, "step {step} block {i}");
                assert_eq!(info.valid, want.valid, "step {step} block {i}");
                assert_eq!(
                    d.live_pages(l, i as u32),
                    self.live_pages(i as u32),
                    "step {step} block {i}"
                );
                let baddr = self.geom.block_from_index(i as u32);
                for (addr, &lpn) in self.geom.pages_of(baddr).zip(&want.backptrs) {
                    assert_eq!(
                        d.backptr(PhysPage { lun: l, addr }),
                        lpn,
                        "step {step} {addr}"
                    );
                }
            }
        }
    }

    /// Drive one LUN of `geom` through `ops` — `(kind, x, y)` triples read
    /// against the directory's own state, so every op is legal — and hold
    /// the bucketed index to the scan, and the flat back-pointers to the
    /// per-block `Vec`s, after each.
    fn assert_matches_scan(geom: Geometry, ops: &[(u8, u32, u32)]) {
        let l = LunId(0);
        let (blocks, ppb) = (geom.total_blocks(), geom.pages_per_block);
        let mut d = BlockDirectory::new(1, geom.clone());
        let mut want = VecBlocks::new(geom.clone());
        let page_of = |b: u32, p: u32| {
            let baddr = geom.block_from_index(b);
            PhysPage {
                lun: l,
                addr: geom.page_addr(baddr.plane, baddr.block, p),
            }
        };
        for (step, &(kind, x, y)) in ops.iter().enumerate() {
            let (b, p) = (x % blocks, y % ppb);
            let (state, valid, held) = {
                let info = d.block_info(l, b);
                (info.state, info.valid, d.backptr(page_of(b, p)))
            };
            match kind {
                // host / GC appends, most of them recorded as live
                0..=8 => {
                    let stream = if kind < 6 { Stream::Host } else { Stream::Gc };
                    if let Some(np) = d.next_page(l, stream) {
                        want.took_page(np);
                        if kind != 8 {
                            d.mark_valid(np.phys, Lpn(step as u64));
                            want.mark_valid(np.phys, Lpn(step as u64));
                        }
                    }
                }
                // overwrite / trim of whatever page (b, p) holds, on a
                // block in any state (a retired block keeps live pages)
                9 | 10 => {
                    if held.is_some() {
                        d.invalidate(page_of(b, p));
                        want.invalidate(page_of(b, p));
                    }
                }
                // an LPN nothing holds is the word an empty page holds
                11 => {
                    let lpn = match held {
                        Some(lpn) if y % 3 != 0 => lpn,
                        _ => Lpn(u64::MAX),
                    };
                    assert_eq!(d.invalidate_checked(page_of(b, p), lpn), held == Some(lpn));
                    assert_eq!(
                        want.invalidate_checked(page_of(b, p), lpn),
                        held == Some(lpn)
                    );
                }
                // a GC run: victim, relocate (= invalidate) its live
                // pages, erase
                12 => {
                    let policy = if y % 2 == 0 {
                        GcPolicyKind::Greedy
                    } else {
                        GcPolicyKind::CostBenefit
                    };
                    if let Some(victim) = d.pick_victim(l, policy) {
                        for (addr, _) in d.live_pages(l, victim) {
                            d.invalidate(PhysPage { lun: l, addr });
                            want.invalidate(PhysPage { lun: l, addr });
                        }
                        d.recycle(l, victim);
                        want.recycle(victim);
                    }
                }
                // a merge erasing an emptied block, frontier or not
                13 => {
                    if valid == 0 && matches!(state, BlockUse::Full | BlockUse::Open) {
                        d.recycle(l, b);
                        want.recycle(b);
                    }
                }
                14 => {
                    if y % 4 == 0 && state != BlockUse::Bad {
                        d.retire(l, b);
                        want.blocks[b as usize].state = BlockUse::Bad;
                    }
                }
                // boot scan: claim a block, then mark pages found in it;
                // or a whole-block allocation (block / hybrid FTLs)
                _ => match state {
                    BlockUse::Free if y % 2 == 0 => {
                        d.claim_full(l, b);
                        want.blocks[b as usize].state = BlockUse::Full;
                    }
                    BlockUse::Free => {
                        if let Some(opened) = d.alloc_block(l) {
                            want.blocks[opened as usize].state = BlockUse::Open;
                        }
                    }
                    BlockUse::Full if held.is_none() => {
                        d.mark_valid(page_of(b, p), Lpn(step as u64));
                        want.mark_valid(page_of(b, p), Lpn(step as u64));
                    }
                    _ => {}
                },
            }
            want.assert_matches(&d, l, step);
            d.assert_full_index_consistent(l);
            for policy in [GcPolicyKind::Greedy, GcPolicyKind::CostBenefit] {
                assert_eq!(
                    d.pick_victim(l, policy),
                    d.pick_victim_by_scan(l, policy),
                    "step {step} {policy:?}"
                );
            }
            assert_eq!(
                d.coldest_full_block(l),
                d.coldest_full_by_scan(l),
                "step {step}"
            );
        }
    }

    proptest! {
        /// 1, 64 and 130 blocks per LUN (the last crosses a word
        /// boundary), four pages each so blocks fill and empty quickly.
        #[test]
        fn bucketed_victims_match_the_scored_scan_they_replaced(
            shape in 0..3usize,
            ops in proptest::collection::vec((0..16u8, 0..1_000_000u32, 0..1_000_000u32), 1..700),
        ) {
            let geom = [
                Geometry::new(1, 1, 4, 4096),
                Geometry::new(1, 64, 4, 4096),
                Geometry::new(2, 65, 4, 4096),
            ][shape]
                .clone();
            assert_matches_scan(geom, &ops);
        }
    }

    /// The word an empty page holds is not an LPN: no page holds it.
    #[test]
    fn the_no_lpn_word_is_never_held() {
        let mut d = dir();
        let n = d.next_page(LunId(0), Stream::Host).unwrap();
        assert_eq!(d.backptr(n.phys), None);
        assert!(!d.invalidate_checked(n.phys, Lpn(u64::MAX)));
        assert_eq!(d.block_info(LunId(0), 0).valid, 0);
        d.mark_valid(n.phys, Lpn(1 << 48));
        assert_eq!(d.backptr(n.phys), Some(Lpn(1 << 48)));
        assert!(!d.invalidate_checked(n.phys, Lpn(u64::MAX)));
        assert!(d.invalidate_checked(n.phys, Lpn(1 << 48)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the word that means no LPN")]
    fn mark_valid_refuses_the_no_lpn_word() {
        let mut d = dir();
        let n = d.next_page(LunId(0), Stream::Host).unwrap();
        d.mark_valid(n.phys, Lpn(u64::MAX));
    }

    #[test]
    fn live_pages_into_reuses_the_buffer() {
        let mut d = dir();
        let l = LunId(0);
        let mut live = vec![(d.geom.page_addr(0, 7, 3), Lpn(99))];
        for i in 0..3 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
        }
        d.live_pages_into(l, 0, &mut live);
        assert_eq!(live, d.live_pages(l, 0));
        assert_eq!(live.len(), 3);
    }

    fn dir() -> BlockDirectory {
        BlockDirectory::new(2, Geometry::new(1, 8, 4, 4096))
    }

    #[test]
    fn allocation_is_sequential_within_block() {
        let mut d = dir();
        let l = LunId(0);
        let a = d.next_page(l, Stream::Host).unwrap();
        let b = d.next_page(l, Stream::Host).unwrap();
        assert_eq!(a.phys.addr.block, b.phys.addr.block);
        assert_eq!(a.phys.addr.page, 0);
        assert_eq!(b.phys.addr.page, 1);
        assert!(a.newly_opened);
        assert!(!b.newly_opened);
    }

    #[test]
    fn full_frontier_opens_new_block() {
        let mut d = dir();
        let l = LunId(0);
        let mut blocks_seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            // 2 blocks worth (4 pages per block)
            let n = d.next_page(l, Stream::Host).unwrap();
            blocks_seen.insert(n.phys.addr.block);
        }
        assert_eq!(blocks_seen.len(), 2);
        assert_eq!(d.free_blocks(l), 6);
    }

    #[test]
    fn host_and_gc_streams_use_distinct_blocks() {
        let mut d = dir();
        let l = LunId(0);
        let h = d.next_page(l, Stream::Host).unwrap();
        let g = d.next_page(l, Stream::Gc).unwrap();
        assert_ne!(h.phys.addr.block, g.phys.addr.block);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut d = dir();
        let l = LunId(0);
        for _ in 0..32 {
            d.next_page(l, Stream::Host).unwrap();
        }
        assert!(d.next_page(l, Stream::Host).is_none());
    }

    #[test]
    fn valid_accounting_roundtrip() {
        let mut d = dir();
        let l = LunId(0);
        let n = d.next_page(l, Stream::Host).unwrap();
        d.mark_valid(n.phys, Lpn(7));
        let bidx = 0u32;
        assert_eq!(d.block_info(l, bidx).valid, 1);
        let live = d.live_pages(l, bidx);
        assert_eq!(live, vec![(n.phys.addr, Lpn(7))]);
        d.invalidate(n.phys);
        assert_eq!(d.block_info(l, bidx).valid, 0);
        assert!(d.live_pages(l, bidx).is_empty());
    }

    #[test]
    fn greedy_victim_prefers_fewest_valid() {
        let mut d = dir();
        let l = LunId(0);
        // fill two blocks: block A with 4 valid, block B with 1 valid
        let mut pages = Vec::new();
        for i in 0..8 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
            pages.push(n.phys);
        }
        // invalidate 3 pages of the second block
        for p in &pages[4..7] {
            d.invalidate(*p);
        }
        let victim = d.pick_victim(l, GcPolicyKind::Greedy).unwrap();
        // geometry has 1 plane, so block index == block coordinate
        assert_eq!(victim, pages[4].addr.block);
    }

    #[test]
    fn fully_valid_only_means_no_victim() {
        let mut d = dir();
        let l = LunId(0);
        for i in 0..4 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
        }
        // one full block, all valid → nothing worth collecting
        assert_eq!(d.pick_victim(l, GcPolicyKind::Greedy), None);
    }

    #[test]
    fn cost_benefit_prefers_older_when_equally_empty() {
        let mut d = dir();
        let l = LunId(0);
        let mut pages = Vec::new();
        for i in 0..8 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
            pages.push(n.phys);
        }
        // both blocks now Full; invalidate 2 pages in each (same utilization)
        d.invalidate(pages[0]);
        d.invalidate(pages[1]);
        d.invalidate(pages[4]);
        d.invalidate(pages[5]);
        // block 0 was opened earlier (older) → cost-benefit picks it
        assert_eq!(d.pick_victim(l, GcPolicyKind::CostBenefit), Some(0));
    }

    #[test]
    fn recycle_returns_block_to_free_pool_and_counts_wear() {
        let mut d = dir();
        let l = LunId(0);
        for i in 0..4 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
        }
        for i in 0..4 {
            d.invalidate(PhysPage {
                lun: l,
                addr: d.geom.page_addr(0, 0, i),
            });
        }
        assert_eq!(d.free_blocks(l), 7);
        d.recycle(l, 0);
        assert_eq!(d.free_blocks(l), 8);
        assert_eq!(d.block_info(l, 0).erase_count, 1);
        assert_eq!(d.block_info(l, 0).state, BlockUse::Free);
    }

    #[test]
    fn allocation_prefers_low_erase_count() {
        let mut d = dir();
        let l = LunId(0);
        // cycle block through the free list with extra wear
        for i in 0..4 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
        }
        for i in 0..4 {
            d.invalidate(PhysPage {
                lun: l,
                addr: d.geom.page_addr(0, 0, i),
            });
        }
        d.recycle(l, 0); // block 0 now has erase_count 1
        let n = d.next_page(l, Stream::Gc).unwrap();
        // must pick one of the fresh blocks, not block 0
        assert_ne!(n.phys.addr.block, 0);
    }

    #[test]
    fn retire_removes_from_free_pool() {
        let mut d = dir();
        let l = LunId(1);
        d.retire(l, 3);
        assert_eq!(d.free_blocks(l), 7);
        assert_eq!(d.block_info(l, 3).state, BlockUse::Bad);
        let (_, _, _) = d.erase_count_spread(); // bad blocks excluded
    }

    #[test]
    fn erase_spread_tracks_min_max() {
        let mut d = dir();
        let l = LunId(0);
        for i in 0..4 {
            let n = d.next_page(l, Stream::Host).unwrap();
            d.mark_valid(n.phys, Lpn(i));
        }
        for i in 0..4 {
            d.invalidate(PhysPage {
                lun: l,
                addr: d.geom.page_addr(0, 0, i),
            });
        }
        d.recycle(l, 0);
        let (min, max, mean) = d.erase_count_spread();
        assert_eq!(min, 0);
        assert_eq!(max, 1);
        assert!(mean > 0.0 && mean < 1.0);
    }
}
