//! DFTL: demand-paged page mapping (the paper's reference \[10\]).
//!
//! Gupta, Kim & Urgaonkar (ASPLOS 2009): keep the full page map on flash
//! in *translation pages*, and cache only hot entries in controller RAM
//! (the Cached Mapping Table, CMT). A mapping lookup that misses the CMT
//! must read a translation page from flash; evicting a *dirty* CMT entry
//! must write its translation page back (read–modify–write).
//!
//! The paper's §2.3.2 cites DFTL as one of the two reasons modern devices
//! can afford page mapping ("the controller supports some form of
//! efficient page mapping cache, e.g. DFTL").
//!
//! This implementation keeps the ground-truth map in RAM (it *is* the
//! content of the translation pages) and charges the flash traffic the
//! cache behaviour implies via [`TransIo`] records the device executes.

use std::collections::BTreeMap;

use requiem_flash::Geometry;

use crate::addr::{ArrayShape, Lpn, LunId, PhysPage};

use super::page::PageMap;

/// One flash operation the mapping layer requires (translation traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransIo {
    /// The LUN holding the translation page.
    pub lun: LunId,
    /// Operation kind.
    pub kind: TransIoKind,
}

/// Translation traffic kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransIoKind {
    /// Read a translation page (CMT miss).
    Read,
    /// Write a translation page back (dirty CMT eviction; charged as a
    /// read–modify–write by the device).
    Write,
}

#[derive(Debug, Clone, Copy)]
struct CmtEntry {
    dirty: bool,
    stamp: u64,
}

/// The demand-paged mapping table.
pub struct DftlMap {
    truth: PageMap,
    /// Cached entries: lpn → (dirty, LRU stamp). BTreeMap keeps any
    /// future iteration deterministic; lookups stay O(log n).
    cmt: BTreeMap<u64, CmtEntry>,
    /// LRU order: stamp → lpn.
    lru: BTreeMap<u64, u64>,
    capacity: usize,
    next_stamp: u64,
    /// Mapping entries per translation page (page_size / 8).
    entries_per_tpage: u64,
    /// LUN count for placing translation pages.
    total_luns: u32,
    hits: u64,
    misses: u64,
    evictions_dirty: u64,
}

impl std::fmt::Debug for DftlMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DftlMap")
            .field("capacity", &self.capacity)
            .field("cached", &self.cmt.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl DftlMap {
    /// Create a DFTL map over `exported_pages` with a CMT of
    /// `cached_entries` entries, on a device of `shape` LUNs of `geom`:
    /// the page size sets translation-page fanout, and translation pages
    /// spread across all the LUNs.
    pub fn new(
        exported_pages: u64,
        cached_entries: usize,
        shape: &ArrayShape,
        geom: &Geometry,
    ) -> Self {
        assert!(cached_entries > 0, "CMT needs at least one entry");
        DftlMap {
            truth: PageMap::new(exported_pages, shape, geom),
            cmt: BTreeMap::new(),
            lru: BTreeMap::new(),
            capacity: cached_entries,
            next_stamp: 0,
            entries_per_tpage: (geom.page_size / 8).max(1) as u64,
            total_luns: shape.total_luns(),
            hits: 0,
            misses: 0,
            evictions_dirty: 0,
        }
    }

    /// The LUN where `lpn`'s translation page lives (deterministic spread).
    fn tpage_lun(&self, lpn: Lpn) -> LunId {
        let tpn = lpn.0 / self.entries_per_tpage;
        LunId((tpn % self.total_luns as u64) as u32)
    }

    fn touch(&mut self, lpn: u64) {
        if let Some(e) = self.cmt.get_mut(&lpn) {
            self.lru.remove(&e.stamp);
            self.next_stamp += 1;
            e.stamp = self.next_stamp;
            self.lru.insert(e.stamp, lpn);
        }
    }

    /// Make room and insert a CMT entry; returns translation write traffic
    /// if a dirty entry had to be evicted.
    fn insert(&mut self, lpn: u64, dirty: bool, ios: &mut Vec<TransIo>) {
        self.next_stamp += 1;
        let s = self.next_stamp;
        if let Some(e) = self.cmt.get_mut(&lpn) {
            // already resident: refresh recency in place (cmt and lru are
            // disjoint fields, so no second lookup is needed)
            e.dirty |= dirty;
            self.lru.remove(&e.stamp);
            e.stamp = s;
            self.lru.insert(s, lpn);
            return;
        }
        if self.cmt.len() >= self.capacity {
            // evict LRU; the stamp index mirrors the CMT 1:1
            let lru_head = self.lru.iter().next().map(|(&st, &lp)| (st, lp));
            assert!(
                lru_head.is_some(),
                "LRU index empty while CMT holds {} entries (stamp/CMT desync)",
                self.cmt.len()
            );
            if let Some((stamp, victim)) = lru_head {
                self.lru.remove(&stamp);
                let entry = self.cmt.remove(&victim);
                assert!(
                    entry.is_some(),
                    "LRU victim lpn {victim} missing from CMT (stamp/CMT desync)"
                );
                if let Some(entry) = entry {
                    if entry.dirty {
                        self.evictions_dirty += 1;
                        ios.push(TransIo {
                            lun: self.tpage_lun(Lpn(victim)),
                            kind: TransIoKind::Write,
                        });
                    }
                }
            }
        }
        self.cmt.insert(lpn, CmtEntry { dirty, stamp: s });
        self.lru.insert(s, lpn);
    }

    /// Look up `lpn`, recording any translation flash traffic in `ios`.
    pub fn lookup(&mut self, lpn: Lpn, ios: &mut Vec<TransIo>) -> Option<PhysPage> {
        if self.cmt.contains_key(&lpn.0) {
            self.hits += 1;
            self.touch(lpn.0);
        } else {
            self.misses += 1;
            ios.push(TransIo {
                lun: self.tpage_lun(lpn),
                kind: TransIoKind::Read,
            });
            self.insert(lpn.0, false, ios);
        }
        self.truth.lookup(lpn)
    }

    /// Update `lpn → phys`, recording translation traffic; returns the old
    /// physical page for invalidation.
    pub fn update(&mut self, lpn: Lpn, phys: PhysPage, ios: &mut Vec<TransIo>) -> Option<PhysPage> {
        if self.cmt.contains_key(&lpn.0) {
            self.hits += 1;
            self.touch(lpn.0);
            if let Some(e) = self.cmt.get_mut(&lpn.0) {
                e.dirty = true;
            }
        } else {
            // DFTL updates also need the entry resident (read–modify)
            self.misses += 1;
            ios.push(TransIo {
                lun: self.tpage_lun(lpn),
                kind: TransIoKind::Read,
            });
            self.insert(lpn.0, true, ios);
        }
        self.truth.update(lpn, phys)
    }

    /// Unmap `lpn` (trim) — also needs the entry resident.
    pub fn unmap(&mut self, lpn: Lpn, ios: &mut Vec<TransIo>) -> Option<PhysPage> {
        if self.cmt.contains_key(&lpn.0) {
            self.hits += 1;
            self.touch(lpn.0);
            if let Some(e) = self.cmt.get_mut(&lpn.0) {
                e.dirty = true;
            }
        } else {
            self.misses += 1;
            ios.push(TransIo {
                lun: self.tpage_lun(lpn),
                kind: TransIoKind::Read,
            });
            self.insert(lpn.0, true, ios);
        }
        self.truth.unmap(lpn)
    }

    /// GC-internal relocation: update the truth without touching the CMT
    /// (real DFTL updates translation pages in batch during GC; we charge
    /// one translation write per relocated page at the device layer).
    pub fn relocate(&mut self, lpn: Lpn, phys: PhysPage) -> Option<PhysPage> {
        // keep a cached entry coherent if present
        if let Some(e) = self.cmt.get_mut(&lpn.0) {
            e.dirty = true;
        }
        self.truth.update(lpn, phys)
    }

    /// `(hits, misses, dirty evictions)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions_dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_flash::PageAddr;

    fn pp(block: u32, page: u32) -> PhysPage {
        PhysPage {
            lun: LunId(0),
            addr: PageAddr {
                plane: 0,
                block,
                page,
            },
        }
    }

    fn map(cap: usize) -> DftlMap {
        let shape = ArrayShape {
            channels: 4,
            chips_per_channel: 1,
            luns_per_chip: 1,
        };
        DftlMap::new(1024, cap, &shape, &Geometry::new(1, 8, 4, 4096))
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut m = map(8);
        let mut ios = Vec::new();
        assert_eq!(m.lookup(Lpn(5), &mut ios), None);
        assert_eq!(ios.len(), 1);
        assert_eq!(ios[0].kind, TransIoKind::Read);
        ios.clear();
        m.lookup(Lpn(5), &mut ios);
        assert!(ios.is_empty(), "second lookup should hit the CMT");
        assert_eq!(m.cache_stats().0, 1);
    }

    #[test]
    fn update_marks_dirty_and_eviction_writes_back() {
        let mut m = map(2);
        let mut ios = Vec::new();
        m.update(Lpn(1), pp(0, 0), &mut ios); // miss (read) + dirty
        m.update(Lpn(2), pp(0, 1), &mut ios); // miss (read) + dirty
        ios.clear();
        // third entry evicts LRU (lpn 1, dirty) → translation write
        m.update(Lpn(3), pp(0, 2), &mut ios);
        let writes: Vec<_> = ios
            .iter()
            .filter(|io| io.kind == TransIoKind::Write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(m.cache_stats().2, 1);
    }

    #[test]
    fn clean_eviction_costs_no_write() {
        let mut m = map(2);
        let mut ios = Vec::new();
        m.lookup(Lpn(1), &mut ios); // clean
        m.lookup(Lpn(2), &mut ios); // clean
        ios.clear();
        m.lookup(Lpn(3), &mut ios); // evicts clean lpn1 → read only
        assert!(ios.iter().all(|io| io.kind == TransIoKind::Read));
    }

    #[test]
    fn truth_survives_evictions() {
        let mut m = map(1);
        let mut ios = Vec::new();
        m.update(Lpn(1), pp(0, 0), &mut ios);
        m.update(Lpn(2), pp(0, 1), &mut ios); // evicts lpn1
        assert_eq!(m.lookup(Lpn(1), &mut ios), Some(pp(0, 0)));
    }

    #[test]
    fn lru_order_respects_recency() {
        let mut m = map(2);
        let mut ios = Vec::new();
        m.lookup(Lpn(1), &mut ios);
        m.lookup(Lpn(2), &mut ios);
        m.lookup(Lpn(1), &mut ios); // refresh lpn1
        ios.clear();
        m.lookup(Lpn(3), &mut ios); // should evict lpn2, keeping lpn1
        ios.clear();
        m.lookup(Lpn(1), &mut ios);
        assert!(ios.is_empty(), "lpn1 should still be cached");
    }

    #[test]
    fn hit_ratio_improves_with_locality() {
        let mut m = map(64);
        let mut ios = Vec::new();
        for _ in 0..10 {
            for lpn in 0..32 {
                m.lookup(Lpn(lpn), &mut ios);
            }
        }
        let (hits, misses, _) = m.cache_stats();
        let ratio = hits as f64 / (hits + misses) as f64;
        assert!(ratio > 0.85, "ratio={ratio}");
    }

    #[test]
    fn translation_pages_spread_across_luns() {
        let m = map(4);
        // entries_per_tpage = 512 → lpns 0 and 512 on different luns
        assert_ne!(m.tpage_lun(Lpn(0)), m.tpage_lun(Lpn(512)));
    }

    #[test]
    fn relocate_updates_truth_silently() {
        let mut m = map(2);
        let mut ios = Vec::new();
        m.update(Lpn(1), pp(0, 0), &mut ios);
        ios.clear();
        let old = m.relocate(Lpn(1), pp(1, 0));
        assert_eq!(old, Some(pp(0, 0)));
        assert!(ios.is_empty());
        assert_eq!(m.lookup(Lpn(1), &mut ios), Some(pp(1, 0)));
    }
}
