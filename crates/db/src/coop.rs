//! The cooperating-logs storage manager: the database's log-structured
//! layout running directly on a [`NamelessSsd`] — no FTL log underneath,
//! so there is exactly **one** garbage collector in the stack.
//!
//! The stacked-log pathology (§2 of the paper, measured by E13's legacy
//! rows): the database writes its WAL and page images log-structured for
//! crash safety, and the FTL underneath writes *everything* log-
//! structured again for flash physics. Two logs, two collectors, each
//! blind to the other — the FTL copies pages the database already
//! superseded, and the database cannot tell it otherwise beyond coarse
//! TRIM. This manager removes the lower log instead of hinting at it:
//!
//! * **Placement is the device's.** Every page image and WAL segment
//!   goes down as a nameless write; the device returns a [`PhysName`]
//!   and the host stores it in a [`PageTable`] — the paper's "host
//!   stores names instead of maintaining a redundant logical map".
//! * **Death is declared eagerly.** The moment a write supersedes a
//!   version, the old name is freed; checkpoint truncation frees every
//!   WAL segment below the redo horizon (the [`WalBackend`] built by
//!   [`make_wal`](PersistenceBackend::make_wal) trims exact names). The
//!   device's collector therefore relocates almost nothing: victims are
//!   already dead.
//! * **Migrations patch, not copy.** When device GC does move a live
//!   page, the [`Migrated`](Upcall::Migrated) upcall — drained at every
//!   operation and every poll — patches the page table in RAM. No host
//!   I/O, no second copy.
//! * **Checkpoints are native atomic writes.** New versions are written
//!   out of place while every old name stays valid; the index swap in
//!   RAM is the commit point, then the old names are freed. 1× the I/O
//!   of the double-write journal's 2×.
//!
//! Reads at queue depth ride a [`QueuePair`] with [`NamelessSsd::read`]
//! as the dispatch, the page id as the hazard key; a read that loses the
//! race with a migration comes back [`IoStatus::Rejected`], is patched
//! from the upcall stream, and is resubmitted under its own tag at its
//! completion instant — a retry, never a panic. A page with no name
//! at all is refused by the host: it completes `Rejected` at once.
//!
//! Writes are synchronous nameless writes, one at a time: a steal returns
//! the instant the image is durable *and* the evictor may proceed. What
//! that costs is the device's: on hardware with a battery-backed write
//! buffer (`SsdConfig::buffer`) it is the link transfer plus the
//! controller overhead, and the programs stripe over the LUNs behind the
//! acknowledgements; write-through it is a whole tPROG on one LUN with
//! every executor slot waiting. E14 runs this manager and the block
//! stack it is compared with unbuffered on purpose (device work under
//! each interface, not RAM); the benchmark's `oltp_coop_pcm` runs it on
//! `SsdConfig::modern()` as it is, buffer included.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use requiem_iface::nameless::{NamelessConfig, NamelessError, NamelessSsd, PhysName};
use requiem_iface::Upcall;
use requiem_sim::time::SimTime;
use requiem_sim::{IoStatus, QueuePair};

use crate::backend::{BackendStats, CommandTag, PageRead, PersistenceBackend};
use crate::page::PageId;
use crate::pagetable::PageTable;
use crate::walbackend::{FlashWal, LogDevice, WalBackend};

/// Tag namespace split: data pages carry their page id, WAL segments
/// carry `LOG_TAG_BASE + absolute segment index`. The device echoes the
/// tag in migration upcalls, so the split routes each patch to the right
/// table.
pub const LOG_TAG_BASE: u64 = 1 << 48;

/// Drain pending migration upcalls into the tables. `staging` holds
/// versions written but not yet bound (mid-batch): the device may
/// migrate one of those before the index swap, and the patch must land
/// on the staged name, not the table's superseded one. Shared by the
/// backend and the WAL port — migrations must patch whichever path sees
/// them first.
fn apply_upcalls_on(
    dev: &mut NamelessSsd,
    table: &mut PageTable<PhysName>,
    segs: &mut PageTable<PhysName>,
    staging: &mut [(PageId, Option<PhysName>)],
) {
    if dev.upcalls_pending().is_empty() {
        return;
    }
    for u in dev.upcalls().drain() {
        let Upcall::Migrated { tag, old, new, .. } = u else {
            continue;
        };
        if tag >= LOG_TAG_BASE {
            segs.patch(tag - LOG_TAG_BASE, old, new);
            continue;
        }
        if let Some(slot) = staging
            .iter_mut()
            .find(|(p, n)| p.0 == tag && *n == Some(old))
        {
            slot.1 = Some(new);
            continue;
        }
        table.patch(tag, old, new);
    }
}

/// Free the superseded version of `tag` at `handle`, riding out one
/// migration race: if the name went stale, drain the upcalls that
/// explain it and free wherever the routing table now points. Returns
/// the free's completion (controller overhead only).
fn free_version_on(
    dev: &mut NamelessSsd,
    table: &mut PageTable<PhysName>,
    segs: &mut PageTable<PhysName>,
    now: SimTime,
    tag: u64,
    handle: PhysName,
) -> SimTime {
    match dev.free(now, handle, tag) {
        Ok(done) => done,
        Err(NamelessError::StaleName { .. }) => {
            apply_upcalls_on(dev, table, segs, &mut []);
            let current = if tag >= LOG_TAG_BASE {
                segs.lookup(tag - LOG_TAG_BASE)
            } else {
                table.lookup(tag)
            };
            match current {
                Some(h) if h != handle => dev.free(now, h, tag).unwrap_or(now),
                // the version is simply gone (freed concurrently by
                // an earlier truncation pass): nothing to release
                _ => now,
            }
        }
        Err(NamelessError::DeviceFull { .. }) => now,
    }
}

/// When a refused write completes: the instant the device gave up on it
/// (the page had crossed the host link by then), never before.
fn refused_at(e: NamelessError, now: SimTime) -> SimTime {
    match e {
        NamelessError::DeviceFull { at } => at,
        // a write presents no name; kept total
        NamelessError::StaleName { .. } => now,
    }
}

/// The cooperating-logs storage manager over one nameless flash device.
pub struct CoopLogBackend {
    /// Shared with the WAL port ([`make_wal`](PersistenceBackend::make_wal)):
    /// log segments are nameless writes on the same device as the pages.
    dev: Rc<RefCell<NamelessSsd>>,
    data_pages: u64,
    /// Redo-log capacity in segments (pages); the circular-capacity
    /// contract matches the block backends even though placement is the
    /// device's.
    log_pages: u64,
    /// Data page id → current name. Shared with the WAL port: an upcall
    /// drained on either path must be able to patch both tables.
    table: Rc<RefCell<PageTable<PhysName>>>,
    /// Absolute WAL segment index → current name (shared likewise).
    segs: Rc<RefCell<PageTable<PhysName>>>,
    stats: BackendStats,
    /// The batched read path; depth set by
    /// [`PersistenceBackend::set_read_window`].
    qp: QueuePair<PageRead>,
    /// Writes the device refused (full); the superseded version is kept.
    /// Shared with the WAL port so the count covers both paths.
    rejected: Rc<Cell<u64>>,
}

impl std::fmt::Debug for CoopLogBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoopLogBackend")
            .field("stats", &self.stats)
            .field("live_pages", &self.table.borrow().len())
            .field("live_segs", &self.segs.borrow().len())
            .finish()
    }
}

impl CoopLogBackend {
    /// A manager for `data_pages` of data and a `log_pages`-segment redo
    /// log on one nameless device. No journal region: atomicity is free
    /// out of place.
    ///
    /// # Panics
    /// Panics if the device cannot hold `data_pages + log_pages` live
    /// pages.
    pub fn new(cfg: NamelessConfig, data_pages: u64, log_pages: u64) -> Self {
        let dev = NamelessSsd::new(cfg);
        let usable = dev.usable_tags();
        let needed = data_pages + log_pages;
        assert!(
            needed <= usable,
            "device too small: need {needed} live pages, usable {usable}"
        );
        CoopLogBackend {
            dev: Rc::new(RefCell::new(dev)),
            data_pages,
            log_pages,
            table: Rc::new(RefCell::new(PageTable::new())),
            segs: Rc::new(RefCell::new(PageTable::new())),
            stats: BackendStats::default(),
            qp: QueuePair::new(1),
            rejected: Rc::new(Cell::new(0)),
        }
    }

    /// The underlying device (for write-amplification reporting).
    pub fn dev(&self) -> Ref<'_, NamelessSsd> {
        self.dev.borrow()
    }

    /// The data page table (for invariant checks in tests).
    pub fn table(&self) -> Ref<'_, PageTable<PhysName>> {
        self.table.borrow()
    }

    /// Live WAL segment names (for invariant checks in tests).
    pub fn segs(&self) -> Ref<'_, PageTable<PhysName>> {
        self.segs.borrow()
    }

    /// Migration upcalls applied to either table.
    pub fn relocations_patched(&self) -> u64 {
        self.table.borrow().patched() + self.segs.borrow().patched()
    }

    /// Writes refused by a full device (old version kept, never lost).
    /// Covers both the page path and the WAL port.
    pub fn rejected_writes(&self) -> u64 {
        self.rejected.get()
    }

    fn check_page(&self, page: PageId) {
        assert!(page.0 < self.data_pages, "page id beyond data region");
    }

    /// Drain pending migration upcalls into the tables. `staging` holds
    /// versions written but not yet bound (mid-batch): the device may
    /// migrate one of those before the index swap, and the patch must
    /// land on the staged name, not the table's superseded one.
    fn apply_upcalls(&mut self, staging: &mut [(PageId, Option<PhysName>)]) {
        apply_upcalls_on(
            &mut self.dev.borrow_mut(),
            &mut self.table.borrow_mut(),
            &mut self.segs.borrow_mut(),
            staging,
        );
    }

    /// Drain migration upcalls with no staged versions outstanding.
    fn drain_upcalls(&mut self) {
        self.apply_upcalls(&mut []);
    }

    /// Free the superseded version of `tag` at `handle`, riding out one
    /// migration race. Returns the free's completion (controller
    /// overhead only).
    fn free_version(&mut self, now: SimTime, tag: u64, handle: PhysName) -> SimTime {
        free_version_on(
            &mut self.dev.borrow_mut(),
            &mut self.table.borrow_mut(),
            &mut self.segs.borrow_mut(),
            now,
            tag,
            handle,
        )
    }

    /// Submit a batched read of `page` at `now` under `tag` (unassigned
    /// for a new read, the engine's for a retry) at its current name; a
    /// page with no name is refused at once.
    fn submit_read(&mut self, now: SimTime, tag: CommandTag, page: PageId) -> CommandTag {
        let read = |tag, done, status| PageRead {
            tag,
            page,
            done,
            status,
        };
        let Some(name) = self.table.borrow().lookup(page.0) else {
            return self
                .qp
                .refuse(now, tag, |tag| read(tag, now, IoStatus::Rejected))
                .tag;
        };
        let mut dev = self.dev.borrow_mut();
        let probe = dev.probe().clone();
        // the device's own entry point joins this scope, so SQ residency
        // and device spans land on one command record
        let scope = probe.open_command("read", now);
        let r = self.qp.submit(&probe, now, tag, page.0, |tag, admit| {
            // a stale name is refused before the device spends anything
            let (done, status) = match dev.read(admit, name, page.0) {
                Ok((done, _lat, status)) => (done, status),
                Err(_) => (admit, IoStatus::Rejected),
            };
            scope.close(done);
            (done, read(tag, done, status))
        });
        r.tag
    }

    /// Write one data page out of place and swap the index: write the
    /// new version (old name stays valid — crash safe), bind it, free
    /// the superseded version eagerly. A refused write keeps the old
    /// binding: the page is stale in RAM terms but never lost.
    fn data_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.check_page(page);
        self.drain_upcalls();
        let res = self.dev.borrow_mut().write(now, page.0);
        match res {
            Ok(c) => {
                // the write may have run GC, migrating the *old* version;
                // patch before reading the superseded name out
                self.drain_upcalls();
                let old = self.table.borrow_mut().bind(page.0, c.name);
                if let Some(old) = old {
                    self.free_version(c.done, page.0, old);
                }
                c.done
            }
            Err(e) => {
                self.rejected.set(self.rejected.get() + 1);
                refused_at(e, now)
            }
        }
    }
}

/// [`LogDevice`] port exposing the nameless device's WAL namespace to a
/// [`FlashWal`]: each segment image is a nameless write tagged
/// `LOG_TAG_BASE + seg`, the superseded version is freed the moment the
/// new one is durable, and reusing a slot retires the segment one lap
/// behind (the circular-capacity contract a block log gets by
/// overwriting in place). Truncation frees exact names — the device's
/// collector never copies dead WAL bytes.
pub struct NamelessLog {
    dev: Rc<RefCell<NamelessSsd>>,
    table: Rc<RefCell<PageTable<PhysName>>>,
    segs: Rc<RefCell<PageTable<PhysName>>>,
    log_pages: u64,
    rejected: Rc<Cell<u64>>,
}

impl LogDevice for NamelessLog {
    fn write_seg(&mut self, now: SimTime, seg: u64) -> (SimTime, IoStatus) {
        let mut dev = self.dev.borrow_mut();
        let mut table = self.table.borrow_mut();
        let mut segs = self.segs.borrow_mut();
        apply_upcalls_on(&mut dev, &mut table, &mut segs, &mut []);
        match dev.write(now, LOG_TAG_BASE + seg) {
            Ok(c) => {
                let t = c.done;
                apply_upcalls_on(&mut dev, &mut table, &mut segs, &mut []);
                if let Some(old) = segs.bind(seg, c.name) {
                    free_version_on(&mut dev, &mut table, &mut segs, t, LOG_TAG_BASE + seg, old);
                }
                // circular-capacity contract: reusing the slot retires
                // the segment one lap behind, as a block log's
                // overwrite would
                if seg >= self.log_pages {
                    if let Some(lapped) = segs.unbind(seg - self.log_pages) {
                        free_version_on(
                            &mut dev,
                            &mut table,
                            &mut segs,
                            t,
                            LOG_TAG_BASE + (seg - self.log_pages),
                            lapped,
                        );
                    }
                }
                (t, IoStatus::Ok)
            }
            Err(e) => {
                self.rejected.set(self.rejected.get() + 1);
                (refused_at(e, now), IoStatus::Rejected)
            }
        }
    }

    fn read_seg(&mut self, now: SimTime, seg: u64) -> Option<(SimTime, IoStatus)> {
        let mut dev = self.dev.borrow_mut();
        let mut table = self.table.borrow_mut();
        let mut segs = self.segs.borrow_mut();
        apply_upcalls_on(&mut dev, &mut table, &mut segs, &mut []);
        // segments below the truncation horizon were freed — they are
        // never needed for redo, so they cost nothing
        let name = segs.lookup(seg)?;
        match dev.read(now, name, LOG_TAG_BASE + seg) {
            Ok((done, _lat, s)) => Some((done, s)),
            Err(NamelessError::StaleName { .. }) => {
                apply_upcalls_on(&mut dev, &mut table, &mut segs, &mut []);
                if let Some(cur) = segs.lookup(seg) {
                    if let Ok((done, _lat, s)) = dev.read(now, cur, LOG_TAG_BASE + seg) {
                        return Some((done, s));
                    }
                }
                Some((now, IoStatus::Rejected))
            }
            Err(NamelessError::DeviceFull { .. }) => Some((now, IoStatus::Rejected)),
        }
    }

    fn trim_seg(&mut self, now: SimTime, seg: u64) -> bool {
        let mut dev = self.dev.borrow_mut();
        let mut table = self.table.borrow_mut();
        let mut segs = self.segs.borrow_mut();
        apply_upcalls_on(&mut dev, &mut table, &mut segs, &mut []);
        // free before unbinding (same stale-race discipline as
        // free_page): a mid-drain patch must find the binding
        if let Some(name) = segs.lookup(seg) {
            free_version_on(
                &mut dev,
                &mut table,
                &mut segs,
                now,
                LOG_TAG_BASE + seg,
                name,
            );
            segs.unbind(seg);
            true
        } else {
            false
        }
    }

    fn label(&self) -> &'static str {
        "nameless-wal"
    }
}

impl PersistenceBackend for CoopLogBackend {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        // same append discipline as the block backends — the tail
        // segment is rewritten on every force, full segments spill —
        // but each rewrite is a nameless write and the superseded
        // version is freed the moment the new one is durable, so the
        // device's collector never copies dead WAL bytes.
        Box::new(FlashWal::new(
            NamelessLog {
                dev: Rc::clone(&self.dev),
                table: Rc::clone(&self.table),
                segs: Rc::clone(&self.segs),
                log_pages: self.log_pages,
                rejected: Rc::clone(&self.rejected),
            },
            self.log_pages,
        ))
    }

    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.page_writes += 1;
        self.stats.logical_writes += 1;
        self.data_write(now, page)
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.steal_writes += 1;
        self.stats.logical_writes += 1;
        self.data_write(now, page)
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.check_page(page);
        self.stats.page_reads += 1;
        self.drain_upcalls();
        let Some(name) = self.table.borrow().lookup(page.0) else {
            return (now, IoStatus::Rejected);
        };
        let res = self.dev.borrow_mut().read(now, name, page.0);
        match res {
            Ok((done, _lat, status)) => (done, status),
            Err(NamelessError::StaleName { .. }) => {
                // migration raced the lookup; the upcall explains it
                self.drain_upcalls();
                match self.table.borrow().lookup(page.0) {
                    Some(cur) if cur != name => {
                        match self.dev.borrow_mut().read(now, cur, page.0) {
                            Ok((done, _lat, status)) => (done, status),
                            Err(_) => (now, IoStatus::Rejected),
                        }
                    }
                    _ => (now, IoStatus::Rejected),
                }
            }
            Err(NamelessError::DeviceFull { .. }) => (now, IoStatus::Rejected),
        }
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        if pages.is_empty() {
            return now;
        }
        self.stats.batches += 1;
        self.stats.page_writes += pages.len() as u64;
        self.stats.logical_writes += pages.len() as u64;
        // native atomic batch: write every new version out of place
        // while all old names stay valid, swap the index in RAM (the
        // commit point), then free the superseded versions. 1x the I/O;
        // a crash mid-batch leaves the old versions untouched.
        let mut staging: Vec<(PageId, Option<PhysName>)> = Vec::with_capacity(pages.len());
        let mut t = now;
        for &p in pages {
            self.check_page(p);
            let res = self.dev.borrow_mut().write(t, p.0);
            match res {
                Ok(c) => {
                    t = c.done;
                    staging.push((p, Some(c.name)));
                }
                Err(e) => {
                    self.rejected.set(self.rejected.get() + 1);
                    t = refused_at(e, t);
                    staging.push((p, None));
                }
            }
            // a later write's GC may migrate an earlier *staged* (still
            // unbound) version — patch the staging slots, not the table
            let mut stage = std::mem::take(&mut staging);
            self.apply_upcalls(&mut stage);
            staging = stage;
        }
        for (p, name) in staging {
            let Some(name) = name else { continue };
            let old = self.table.borrow_mut().bind(p.0, name);
            if let Some(old) = old {
                t = t.max(self.free_version(t, p.0, old));
            }
        }
        t
    }

    fn free_page(&mut self, now: SimTime, page: PageId) {
        self.check_page(page);
        self.stats.frees += 1;
        self.drain_upcalls();
        // eager by construction: a dropped page's name goes back to the
        // device immediately — there is no "optional TRIM" tier here.
        // Free before unbinding: if the version migrated under us, the
        // stale-name drain patches the still-present binding and the
        // free lands on the moved copy instead of leaking it.
        let name = self.table.borrow().lookup(page.0);
        if let Some(name) = name {
            self.free_version(now, page.0, name);
            self.table.borrow_mut().unbind(page.0);
        }
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "coop-logs"
    }

    fn attach_probe(&mut self, probe: requiem_sim::Probe) {
        self.dev.borrow_mut().attach_probe(probe);
    }

    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        self.drain_upcalls();
        pages
            .iter()
            .map(|&p| {
                self.check_page(p);
                self.stats.page_reads += 1;
                self.submit_read(now, CommandTag::UNASSIGNED, p)
            })
            .collect()
    }

    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<PageRead>) {
        // the upcall drain on every poll is the cooperating-logs
        // contract: migrations patch the page table before any completion
        // is interpreted, so a Rejected read can be retried at the
        // page's *current* name
        self.drain_upcalls();
        out.clear();
        out.extend(self.qp.ready(now));
        // a read that lost the race with a migration is resubmitted at
        // the patched name, completing later — never silently dropping
        // the engine's tag
        out.retain(|r| {
            let retry =
                r.status == IoStatus::Rejected && self.table.borrow().lookup(r.page.0).is_some();
            if retry {
                self.submit_read(r.done, r.tag, r.page);
            }
            !retry
        });
    }

    fn next_read_done(&mut self) -> Option<SimTime> {
        self.qp.next_done()
    }

    fn reads_in_flight(&mut self) -> usize {
        self.qp.pending()
    }

    fn set_read_window(&mut self, depth: usize) {
        debug_assert_eq!(self.qp.pending(), 0, "window change with reads in flight");
        self.qp.resize(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::wal::Lsn;
    use requiem_ssd::SsdConfig;

    fn small_cfg() -> NamelessConfig {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 2;
        NamelessConfig::from(&cfg)
    }

    fn backend(data_pages: u64, log_pages: u64) -> CoopLogBackend {
        CoopLogBackend::new(small_cfg(), data_pages, log_pages)
    }

    #[test]
    fn write_read_roundtrip_binds_names() {
        let mut b = backend(64, 16);
        let t1 = b.page_write(SimTime::ZERO, PageId(3));
        assert!(t1 > SimTime::ZERO);
        assert!(b.table().lookup(3).is_some(), "write bound a name");
        let (t2, status) = b.page_read(t1, PageId(3));
        assert!(t2 > t1);
        assert!(status.is_success());
        assert_eq!(b.stats().page_writes, 1);
        assert_eq!(b.stats().page_reads, 1);
    }

    #[test]
    fn rewrite_frees_superseded_version_eagerly() {
        let mut b = backend(64, 16);
        let t1 = b.page_write(SimTime::ZERO, PageId(5));
        let first = b.table().lookup(5).expect("bound");
        let t2 = b.page_write(t1, PageId(5));
        let second = b.table().lookup(5).expect("rebound");
        assert_ne!(first, second, "out-of-place: new version, new name");
        assert!(t2 > t1);
        assert_eq!(
            b.dev().metrics().host_trims,
            1,
            "the superseded version was freed at rebind, not left to GC"
        );
    }

    #[test]
    fn wal_force_retires_superseded_tail_segment() {
        let mut b = backend(16, 8);
        let mut w = b.make_wal();
        let mut t = SimTime::ZERO;
        // two sub-page forces rewrite the same tail segment: the first
        // version must be freed when the second lands
        w.append(Lsn(512), 512);
        t = w.force(t, Lsn(512)).settle().expect("a clean force");
        assert_eq!(b.dev().metrics().host_trims, 0, "first version is live");
        w.append(Lsn(1024), 512);
        assert!(
            w.force(t, Lsn(1024)).settle().is_ok(),
            "the tail rewrite lands"
        );
        assert_eq!(
            b.dev().metrics().host_trims,
            1,
            "tail rewrite freed the superseded segment"
        );
        assert_eq!(b.segs().len(), 1, "one live segment");
    }

    #[test]
    fn wal_truncation_frees_dead_segments_without_host_copy() {
        let mut b = backend(16, 64);
        let mut w = b.make_wal();
        let mut t = SimTime::ZERO;
        // fill 8 full segments
        for i in 0..8u64 {
            let lsn = Lsn((i + 1) * PAGE_SIZE as u64);
            w.append(lsn, PAGE_SIZE as u32);
            t = w.force(t, lsn).settle().expect("a clean force");
        }
        assert_eq!(b.segs().len(), 8);
        let writes_before = b.dev().metrics().host_writes;
        let trims_before = b.dev().metrics().host_trims;
        // redo horizon at byte 6 pages: segments 0..6 are dead
        w.truncate(t, 6 * PAGE_SIZE as u64);
        assert_eq!(b.segs().len(), 2, "segments below the horizon released");
        assert_eq!(w.stats().log_trims, 6);
        assert_eq!(
            b.dev().metrics().host_trims - trims_before,
            6,
            "each dead segment freed on the device"
        );
        assert_eq!(
            b.dev().metrics().host_writes,
            writes_before,
            "truncation reclaims without a single host copy"
        );
        // idempotent: a second truncation at the same horizon is free
        w.truncate(t, 6 * PAGE_SIZE as u64);
        assert_eq!(w.stats().log_trims, 6);
    }

    #[test]
    fn batch_is_atomic_and_single_cost() {
        let mut b = backend(64, 16);
        let mut t = SimTime::ZERO;
        for p in 0..8u64 {
            t = b.page_write(t, PageId(p));
        }
        let programs_before = b.dev().metrics().flash_programs.total();
        let pages: Vec<PageId> = (0..8).map(PageId).collect();
        let t2 = b.page_batch(t, &pages);
        assert!(t2 > t);
        let paid = b.dev().metrics().flash_programs.total() - programs_before;
        assert_eq!(paid, 8, "native atomic batch pays 1x, not the journal's 2x");
        assert_eq!(
            b.dev().metrics().host_trims,
            8,
            "all superseded versions freed after the index swap"
        );
    }

    #[test]
    fn batched_reads_complete_out_of_order_and_tagged() {
        let written = || {
            let mut b = backend(64, 16);
            let mut t = SimTime::ZERO;
            for p in 0..8u64 {
                t = b.page_write(t, PageId(p));
            }
            let t = t.max(b.dev().drain_time());
            (b, t)
        };
        // the same eight reads one at a time, on an identical device
        let (mut serial, mut serial_done) = written();
        for p in 0..8u64 {
            serial_done = serial.page_read(serial_done, PageId(p)).0;
        }
        let (mut b, t) = written();
        b.set_read_window(4);
        let pages: Vec<PageId> = (0..8).map(PageId).collect();
        let tags = b.submit_reads(t, &pages);
        assert_eq!(tags.len(), 8);
        let mut got = Vec::new();
        let mut guard = 0;
        while b.reads_in_flight() > 0 {
            let next = b.next_read_done().expect("reads in flight have a finish");
            got.extend(b.poll(next));
            guard += 1;
            assert!(guard < 64, "poll loop must terminate");
        }
        assert_eq!(got.len(), 8, "every tag came back exactly once");
        for r in &got {
            assert!(r.status.is_success());
        }
        let last = got.iter().map(|r| r.done).max().unwrap();
        assert!(
            last < serial_done,
            "QD4 reads over two LUNs ({last}) should beat serialized ({serial_done})"
        );
        let mut seen: Vec<u64> = got.iter().map(|r| r.page.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_stale_read_is_retried_at_the_patched_name() {
        let mut b = backend(64, 16);
        let t = b.page_write(SimTime::ZERO, PageId(3));
        let stale = b.table().lookup(3).expect("bound");
        // the page moves under the host: a new version lands elsewhere
        // and the old name is freed, while the table still holds it
        let (moved, t) = {
            let mut dev = b.dev.borrow_mut();
            let w = dev.write(t, 3).expect("room");
            (
                w.name,
                dev.free(w.done, stale, 3).expect("the old name is live"),
            )
        };
        let tags = b.submit_reads(t, &[PageId(3)]);
        assert_eq!(
            b.next_read_done(),
            Some(t),
            "a stale name is refused at admission, costing the device nothing"
        );
        // the upcall that explains the move, applied by hand
        assert!(b.table.borrow_mut().patch(3, stale, moved));
        assert!(b.poll(t).is_empty(), "the refusal is retried, not surfaced");
        let next = b.next_read_done().expect("the retry is in flight");
        let [r] = b.poll(next)[..] else {
            panic!("the retry completes")
        };
        assert_eq!(r.tag, tags[0], "the retry keeps the engine's tag");
        assert!(r.status.is_success() && r.done > t);
    }

    #[test]
    fn recover_scan_skips_truncated_segments() {
        let mut b = backend(16, 64);
        let mut w = b.make_wal();
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            let lsn = Lsn((i + 1) * PAGE_SIZE as u64);
            w.append(lsn, PAGE_SIZE as u32);
            t = w.force(t, lsn).settle().expect("a clean force");
        }
        w.truncate(t, 2 * PAGE_SIZE as u64);
        // a scan over the whole range only pays for the two live segments
        let reads_before = b.dev().metrics().host_reads;
        let (done, status) = w.recover_scan(t, 0, 4 * PAGE_SIZE as u32);
        assert!(status.is_success());
        assert!(done > t);
        assert_eq!(b.dev().metrics().host_reads - reads_before, 2);
    }
}
