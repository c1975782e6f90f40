//! The block-addressed persistence backend: one flash SSD behind the
//! composed block-layer [`IoStack`], whose commands pay the OS
//! submission path, queue locks, doorbells and IRQ completion at the
//! costs its [`StackConfig`] names ([`StackConfig::bare`]: all zero, the
//! bare block device). Two routes share it: the block design's
//! ([`BlockStackBackend::new`], [`BlockStackBackend::shards`]) puts a
//! circular log, the data and a double-write journal on the flash; the
//! paper's vision ([`BlockStackBackend::vision`]) keeps only the data
//! there and sends the synchronous traffic to a PCM DIMM.
//!
//! The batched read path is implemented directly over
//! [`IoStack::submit_batch`] / [`IoStack::reap_into`], so a DB
//! queue depth of N turns into N commands resident in the device-side
//! in-flight window — the paper's Figure-1 parallelism finally reaching
//! transaction throughput.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use requiem_block::{IoStack, StackCompletion, StackConfig};
use requiem_iface::atomic::atomic_write;
use requiem_pcm::{PcmDimm, PcmTiming};
use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;
use requiem_ssd::{IoClass, IoRequest, Lpn, Ssd, SsdConfig};

use crate::backend::{BackendStats, CommandTag, PageRead, PersistenceBackend};
use crate::page::{PageId, PAGE_SIZE};
use crate::walbackend::{FlashWal, PcmWal, StackLog, WalBackend};

/// The block-stack backend: one flash SSD behind the full OS I/O stack.
pub struct BlockStackBackend {
    /// Shared with the WAL port ([`make_wal`](PersistenceBackend::make_wal)):
    /// log forces pay the same block-layer path as the page traffic.
    stack: Rc<RefCell<IoStack<Ssd>>>,
    /// LBA layout (log, data, journal).
    log_pages: u64,
    data_base: u64,
    journal_base: u64,
    data_pages: u64,
    /// First LBA of this backend's region. A standalone backend owns
    /// the whole device (base 0); a shard of a multi-queue deployment
    /// owns a disjoint `[log | data | journal]` stripe.
    lba_base: u64,
    /// Submission/completion core this backend drives. Each shard's
    /// traffic rides its own queue pair; contention happens below, on
    /// the shared channels.
    core: usize,
    /// The vision route's PCM; `None` on the block route.
    pcm: Option<PcmRoute>,
    /// Batched reads in flight as `(host tag, page)`, unordered: never
    /// more than the executor keeps outstanding, so a scan finds a tag.
    pending: Vec<(CommandTag, PageId)>,
    /// Scratch for the requests of one `submit_reads` batch (reused).
    reqs: Vec<IoRequest>,
    /// Read completions reaped early (while draining a synchronous
    /// journal batch), waiting for the next poll.
    ready: Vec<PageRead>,
    /// Scratch for one reap off the stack's completion queue (reused).
    reaped: Vec<StackCompletion>,
    /// Scratch for the tags of a synchronous batch still in flight
    /// (reused, unordered).
    outstanding: Vec<CommandTag>,
    /// Tag namespace for everything that goes through `submit_batch`.
    next_tag: u64,
    stats: BackendStats,
}

/// The vision route's synchronous medium: one PCM DIMM carries the WAL's
/// log region and, above it, a ring of steal-staging slots.
struct PcmRoute {
    /// Shared with the PCM WAL.
    dimm: Rc<RefCell<PcmDimm>>,
    /// The log region is `[0, log_capacity)`; staging starts above it.
    log_capacity: u64,
    staging_slots: u64,
    staging_next: u64,
}

impl PcmRoute {
    /// Persist one dirty page into the next staging slot, header line
    /// first; returns the instant it is durable (~20 µs for 4 KiB).
    fn stage(&mut self, now: SimTime) -> SimTime {
        let slot = self.staging_next % self.staging_slots.max(1);
        self.staging_next += 1;
        let offset = self.log_capacity + slot * PAGE_SIZE as u64;
        let mut dimm = self.dimm.borrow_mut();
        let durable = dimm.persist(now, offset, &[0u8; 64]);
        dimm.persist(durable, offset, &[0xEEu8; PAGE_SIZE - 64])
    }
}

impl std::fmt::Debug for BlockStackBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStackBackend")
            .field("stats", &self.stats)
            .finish()
    }
}

impl BlockStackBackend {
    /// Lay out `data_pages` of data, `log_pages` of circular log, and an
    /// equal-size journal area on one device behind `stack_cfg`.
    ///
    /// # Panics
    /// Panics if the device is too small for the layout.
    pub fn new(
        stack_cfg: StackConfig,
        ssd_cfg: SsdConfig,
        data_pages: u64,
        log_pages: u64,
    ) -> Self {
        let ssd = Ssd::new(ssd_cfg);
        let exported = ssd.capacity().exported_pages;
        let needed = log_pages + 2 * data_pages;
        assert!(
            needed <= exported,
            "device too small: need {needed} pages, exported {exported}"
        );
        let stack = Rc::new(RefCell::new(IoStack::new(stack_cfg, ssd)));
        Self::on(stack, 0, 0, data_pages, log_pages)
    }

    /// The paper's vision (§3 P1/P2) as a route of this backend:
    /// `pcm_bytes` of PCM split into a log region (¾) and a steal-staging
    /// region (¼), and only the `data_pages` of data on the flash, at
    /// LBA 0 behind a [`StackConfig::bare`] stack. The route of each
    /// traffic class:
    ///
    /// | traffic               | class        | block route                | vision route                 |
    /// |-----------------------|--------------|----------------------------|------------------------------|
    /// | log force             | synchronous  | flash log region           | PCM log region               |
    /// | buffer steal          | synchronous  | flash SSD page write       | PCM staging persist          |
    /// | data write-back       | asynchronous | flash SSD page write       | flash SSD page write         |
    /// | checkpoint batch      | asynchronous | double-write journal (2×)  | device atomic write (1×)     |
    /// | page free             | —            | nothing (device unaware)   | TRIM                         |
    ///
    /// The last row carries no traffic: the engine never frees a page, so
    /// [`PersistenceBackend::free_page`] has no caller outside unit tests
    /// and [`BackendStats::frees`] is 0 in every run.
    ///
    /// Three commands bypass the stack and go to the device itself. A
    /// staged steal's flash write-back and a trim: nobody waits for them,
    /// and through the stack a completion holds its core until the
    /// device is done. The atomic batch: its pages reach the device
    /// together, as the FTL commits them, not through the stack's
    /// in-flight window.
    ///
    /// # Panics
    /// Panics if the flash device cannot hold `data_pages`.
    pub fn vision(ssd_cfg: SsdConfig, data_pages: u64, pcm_bytes: u64) -> Self {
        let ssd = Ssd::new(ssd_cfg);
        assert!(
            data_pages <= ssd.capacity().exported_pages,
            "flash device too small"
        );
        let dimm = PcmDimm::new(pcm_bytes, PcmTiming::gen1(), 100);
        let log_capacity = pcm_bytes * 3 / 4;
        let pcm = PcmRoute {
            dimm: Rc::new(RefCell::new(dimm)),
            log_capacity,
            staging_slots: (pcm_bytes - log_capacity) / PAGE_SIZE as u64,
            staging_next: 0,
        };
        let stack = Rc::new(RefCell::new(IoStack::new(StackConfig::bare(1), ssd)));
        BlockStackBackend {
            pcm: Some(pcm),
            ..Self::on(stack, 0, 0, data_pages, 0)
        }
    }

    /// Build `shards` backends over ONE device and ONE block stack:
    /// shard `i` submits on core `i` (its own queue pair and in-flight
    /// window) and owns the LBA stripe
    /// `[i * stripe, (i+1) * stripe)` with the usual
    /// `[log | data | journal]` layout inside, where
    /// `stripe = log_pages + 2 * data_pages`. `data_pages` here is the
    /// *per-shard* data-region size. Host tags are namespaced per core
    /// so traces stay unambiguous.
    ///
    /// # Panics
    /// Panics if `stack_cfg` has fewer cores than `shards`, or the
    /// device is too small for `shards` stripes.
    pub fn shards(
        stack_cfg: StackConfig,
        ssd_cfg: SsdConfig,
        shards: usize,
        data_pages: u64,
        log_pages: u64,
    ) -> Vec<Self> {
        let shards = shards.max(1);
        assert!(
            stack_cfg.cores as usize >= shards,
            "stack must expose one core per shard ({} < {shards})",
            stack_cfg.cores
        );
        let ssd = Ssd::new(ssd_cfg);
        let exported = ssd.capacity().exported_pages;
        let stripe = log_pages + 2 * data_pages;
        let needed = stripe * shards as u64;
        assert!(
            needed <= exported,
            "device too small: need {needed} pages ({shards} shards x {stripe}), exported {exported}"
        );
        let stack = Rc::new(RefCell::new(IoStack::new(stack_cfg, ssd)));
        (0..shards)
            .map(|i| {
                Self::on(
                    Rc::clone(&stack),
                    i,
                    i as u64 * stripe,
                    data_pages,
                    log_pages,
                )
            })
            .collect()
    }

    /// A backend on `core` of `stack`, its `[log | data | journal]`
    /// layout starting at `lba_base`: the block route, unless the caller
    /// sets `pcm`.
    fn on(
        stack: Rc<RefCell<IoStack<Ssd>>>,
        core: usize,
        lba_base: u64,
        data_pages: u64,
        log_pages: u64,
    ) -> Self {
        BlockStackBackend {
            stack,
            log_pages,
            data_base: log_pages,
            journal_base: log_pages + data_pages,
            data_pages,
            lba_base,
            core,
            pcm: None,
            pending: Vec::new(),
            reqs: Vec::new(),
            ready: Vec::new(),
            reaped: Vec::new(),
            outstanding: Vec::new(),
            next_tag: (core as u64) << 48,
            stats: BackendStats::default(),
        }
    }

    /// The underlying device (for write-amplification reporting).
    pub fn ssd(&self) -> Ref<'_, Ssd> {
        Ref::map(self.stack.borrow(), |s| s.backend())
    }

    fn data_lpn(&self, page: PageId) -> Lpn {
        assert!(page.0 < self.data_pages, "page id beyond data region");
        Lpn(self.lba_base + self.data_base + page.0)
    }

    /// One command through the stack on this backend's core, serialized.
    fn submit(&self, now: SimTime, req: IoRequest) -> StackCompletion {
        self.stack.borrow_mut().submit(now, self.core, req)
    }

    fn fresh_tag(&mut self) -> CommandTag {
        self.next_tag += 1;
        CommandTag(self.next_tag)
    }

    /// Retire the batched read carrying `tag`, if it is one of ours.
    fn take_pending(&mut self, tag: CommandTag) -> Option<PageId> {
        let at = self.pending.iter().position(|&(t, _)| t == tag)?;
        Some(self.pending.swap_remove(at).1)
    }

    /// Submit `reqs`, each carrying its tag, as one batch and drain the
    /// completion queue until every one of them has been reaped; returns
    /// the latest completion instant. Read completions that happen to
    /// become ready while we drain are buffered into `self.ready` for the
    /// next poll — the batch must not swallow them.
    fn run_batch_to_completion(&mut self, now: SimTime, reqs: &[IoRequest]) -> SimTime {
        if reqs.is_empty() {
            return now;
        }
        debug_assert!(reqs.iter().all(|r| !r.tag.is_unassigned()));
        self.outstanding.clear();
        self.outstanding.extend(reqs.iter().map(|r| r.tag));
        self.stack.borrow_mut().submit_batch(now, self.core, reqs);
        let mut reaped = std::mem::take(&mut self.reaped);
        let mut t = now;
        while !self.outstanding.is_empty() {
            let Some(next) = self.stack.borrow().next_completion_time(self.core) else {
                // nothing left in flight but tags unaccounted — a batch
                // member was dropped by the stack; stop honestly rather
                // than spin (cannot happen with the current stack)
                break;
            };
            reaped.clear();
            self.stack
                .borrow_mut()
                .reap_into(next, self.core, &mut reaped);
            for c in &reaped {
                if let Some(at) = self.outstanding.iter().position(|&tag| tag == c.tag) {
                    self.outstanding.swap_remove(at);
                    t = t.max(c.done);
                } else if let Some(page) = self.take_pending(c.tag) {
                    self.ready.push(PageRead {
                        tag: c.tag,
                        page,
                        done: c.done,
                        status: c.status,
                    });
                }
            }
        }
        self.reaped = reaped;
        t
    }
}

impl PersistenceBackend for BlockStackBackend {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        if let Some(pcm) = &self.pcm {
            // P1: synchronous log persistence goes to the memory bus. The
            // WAL owns the DIMM's log region; steals stage above it.
            return Box::new(PcmWal::with_dimm(Rc::clone(&pcm.dimm), 0, pcm.log_capacity));
        }
        // the log shares the device with the page traffic (the FTL drags
        // dead WAL through GC until truncation trims it), and every log
        // write pays the block-layer path like the page traffic around
        // it — in this backend's own stripe, on its own core
        Box::new(FlashWal::new(
            StackLog::with_region(
                Rc::clone(&self.stack),
                self.log_pages,
                self.lba_base,
                self.core,
            ),
            self.log_pages,
        ))
    }

    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.page_writes += 1;
        self.stats.logical_writes += 1;
        let lpn = self.data_lpn(page);
        let write = IoRequest::write(lpn.0).class(IoClass::Background);
        self.submit(now, write).done
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.steal_writes += 1;
        self.stats.logical_writes += 1;
        let lpn = self.data_lpn(page);
        let Some(pcm) = self.pcm.as_mut() else {
            return self.submit(now, IoRequest::write(lpn.0)).done;
        };
        // stage the dirty page in PCM, then write it back to flash lazily
        // (the caller does not wait for the write-back)
        let durable = pcm.stage(now);
        let mut stack = self.stack.borrow_mut();
        let _bg = stack
            .backend_mut()
            .write(durable, lpn)
            .expect("write-back failed");
        durable
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.stats.page_reads += 1;
        let c = self.submit(now, IoRequest::read(self.data_lpn(page).0));
        (c.done, c.status)
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        if pages.is_empty() {
            return now;
        }
        self.stats.batches += 1;
        self.stats.page_writes += pages.len() as u64;
        self.stats.logical_writes += pages.len() as u64;
        if self.pcm.is_some() {
            // torn-write safety is a device guarantee: atomic batch, 1× I/O
            let lpns: Vec<Lpn> = pages.iter().map(|&p| self.data_lpn(p)).collect();
            let mut stack = self.stack.borrow_mut();
            return atomic_write(stack.backend_mut(), now, &lpns)
                .expect("atomic batch failed")
                .done;
        }
        // torn-write safety through the block interface = double-write
        // journal, but both phases ride the queue-pair path: journal
        // copies as one batch, barrier (drain), then in-place writes as a
        // second batch
        let journal: Vec<IoRequest> = pages
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let tag = self.fresh_tag();
                IoRequest::write(self.lba_base + self.journal_base + i as u64).tag(tag)
            })
            .collect();
        let t1 = self.run_batch_to_completion(now, &journal);
        let in_place: Vec<IoRequest> = pages
            .iter()
            .map(|&p| {
                let tag = self.fresh_tag();
                IoRequest::write(self.data_lpn(p).0).tag(tag)
            })
            .collect();
        self.run_batch_to_completion(t1, &in_place)
    }

    fn free_page(&mut self, now: SimTime, page: PageId) {
        self.stats.frees += 1;
        // legacy stacks rarely trimmed: on the block route the device
        // never hears of a free
        if self.pcm.is_some() {
            let lpn = self.data_lpn(page);
            let mut stack = self.stack.borrow_mut();
            let _trim = stack.backend_mut().trim(now, lpn).expect("trim failed");
        }
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        if self.pcm.is_some() {
            "vision-split"
        } else {
            "stack-block"
        }
    }

    fn attach_probe(&mut self, probe: requiem_sim::Probe) {
        self.stack.borrow_mut().attach_probe(probe);
    }

    fn relax_submit_order(&mut self) {
        self.stack.borrow_mut().backend_mut().relax_submit_order();
    }

    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        self.reqs.clear();
        for &p in pages {
            self.stats.page_reads += 1;
            let tag = self.fresh_tag();
            self.pending.push((tag, p));
            let lpn = self.data_lpn(p);
            self.reqs.push(IoRequest::read(lpn.0).tag(tag));
        }
        self.stack
            .borrow_mut()
            .submit_batch(now, self.core, &self.reqs);
        self.reqs.iter().map(|r| r.tag).collect()
    }

    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<PageRead>) {
        out.clear();
        let due = |t: SimTime| t <= now;
        if self.ready.is_empty()
            && !self
                .stack
                .borrow()
                .next_completion_time(self.core)
                .is_some_and(due)
        {
            // nothing is due: most wakes of a deep executor end here
            return;
        }
        let mut reaped = std::mem::take(&mut self.reaped);
        reaped.clear();
        self.stack
            .borrow_mut()
            .reap_into(now, self.core, &mut reaped);
        // early-reaped completions first (they finished before `now`)
        self.ready.retain(|r| {
            if r.done <= now {
                out.push(*r);
                false
            } else {
                true
            }
        });
        out.sort_by_key(|r| (r.done, r.tag.0));
        for c in &reaped {
            if let Some(page) = self.take_pending(c.tag) {
                out.push(PageRead {
                    tag: c.tag,
                    page,
                    done: c.done,
                    status: c.status,
                });
            }
        }
        self.reaped = reaped;
    }

    fn next_read_done(&mut self) -> Option<SimTime> {
        let r = self.ready.iter().map(|r| r.done).min();
        match (r, self.stack.borrow().next_completion_time(self.core)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn reads_in_flight(&mut self) -> usize {
        self.pending.len() + self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Lsn;
    use proptest::prelude::*;
    use requiem_iface::atomic::ExtendedSsd;
    use requiem_iface::DeviceInterface;
    use requiem_ssd::QueuePair;

    /// The separate vision backend the vision route replaced, kept as
    /// the reference the route is checked against: the same PCM staging
    /// and WAL, but every flash command on a bare [`ExtendedSsd`] and the
    /// batched reads on a private queue pair.
    struct VisionBackend {
        pcm: Rc<RefCell<PcmDimm>>,
        flash: ExtendedSsd,
        data_pages: u64,
        log_capacity: u64,
        staging_base: u64,
        staging_slots: u64,
        staging_next: u64,
        stats: BackendStats,
        reads: QueuePair,
    }

    impl VisionBackend {
        fn new(cfg: SsdConfig, data_pages: u64, pcm_bytes: u64) -> Self {
            let flash = ExtendedSsd::new(Ssd::new(cfg));
            assert!(
                data_pages <= flash.inner().capacity().exported_pages,
                "flash device too small"
            );
            let log_capacity = pcm_bytes * 3 / 4;
            let staging_bytes = pcm_bytes - log_capacity;
            VisionBackend {
                pcm: Rc::new(RefCell::new(PcmDimm::new(
                    pcm_bytes,
                    PcmTiming::gen1(),
                    100,
                ))),
                flash,
                data_pages,
                log_capacity,
                staging_base: log_capacity,
                staging_slots: staging_bytes / PAGE_SIZE as u64,
                staging_next: 0,
                stats: BackendStats::default(),
                reads: QueuePair::new(1),
            }
        }

        fn data_lpn(&self, page: PageId) -> Lpn {
            assert!(page.0 < self.data_pages, "page id beyond data region");
            Lpn(page.0)
        }
    }

    impl PersistenceBackend for VisionBackend {
        fn make_wal(&mut self) -> Box<dyn WalBackend> {
            Box::new(PcmWal::with_dimm(
                Rc::clone(&self.pcm),
                0,
                self.log_capacity,
            ))
        }

        fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
            self.stats.page_writes += 1;
            self.stats.logical_writes += 1;
            let lpn = self.data_lpn(page);
            self.flash.write(now, lpn).expect("data write failed").done
        }

        fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
            self.stats.steal_writes += 1;
            self.stats.logical_writes += 1;
            let slot = self.staging_next % self.staging_slots.max(1);
            self.staging_next += 1;
            let offset = self.staging_base + slot * PAGE_SIZE as u64;
            let mut pcm = self.pcm.borrow_mut();
            let durable = pcm.persist(now, offset, &[0u8; 64]);
            let durable = pcm.persist(durable, offset, &vec![0xEEu8; PAGE_SIZE - 64]);
            drop(pcm);
            let lpn = self.data_lpn(page);
            let _bg = self.flash.write(durable, lpn).expect("write-back failed");
            durable
        }

        fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
            self.stats.page_reads += 1;
            let lpn = self.data_lpn(page);
            match self.flash.read(now, lpn) {
                Ok(c) => (c.done, c.status),
                Err(_) => (now, IoStatus::Rejected),
            }
        }

        fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
            if pages.is_empty() {
                return now;
            }
            self.stats.batches += 1;
            self.stats.page_writes += pages.len() as u64;
            self.stats.logical_writes += pages.len() as u64;
            let lpns: Vec<Lpn> = pages.iter().map(|&p| self.data_lpn(p)).collect();
            self.flash
                .write_atomic(now, &lpns)
                .expect("atomic batch failed")
                .done
        }

        fn free_page(&mut self, now: SimTime, page: PageId) {
            self.stats.frees += 1;
            let lpn = self.data_lpn(page);
            self.flash.trim(now, lpn).expect("trim failed");
        }

        fn stats(&self) -> &BackendStats {
            &self.stats
        }

        fn label(&self) -> &'static str {
            "vision-split"
        }

        fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
            self.stats.page_reads += pages.len() as u64;
            let mut tags = Vec::with_capacity(pages.len());
            for &p in pages {
                let read = IoRequest::read(self.data_lpn(p).0);
                tags.push(
                    self.flash
                        .inner_mut()
                        .enqueue(&mut self.reads, now, read)
                        .tag,
                );
            }
            tags
        }

        fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
            let mut out = Vec::new();
            self.poll_into(now, &mut out);
            out
        }

        fn poll_into(&mut self, now: SimTime, out: &mut Vec<PageRead>) {
            out.clear();
            out.extend(self.reads.ready(now).map(|c| PageRead {
                tag: c.tag,
                page: PageId(c.lba),
                done: c.done,
                status: c.status,
            }));
        }

        fn next_read_done(&mut self) -> Option<SimTime> {
            self.reads.next_done()
        }

        fn reads_in_flight(&mut self) -> usize {
            self.reads.pending()
        }

        fn set_read_window(&mut self, depth: usize) {
            self.reads.resize(depth);
        }
    }

    /// Data pages of the differential test's devices.
    const DIFF_PAGES: u64 = 256;

    /// One step of the differential test: a kind, a first page, and a
    /// count for the kinds that take several consecutive pages.
    fn diff_op() -> impl Strategy<Value = (u8, u64, u64)> {
        (0..7u8, 0..DIFF_PAGES, 1..12u64)
    }

    /// Pages `first, first + 1, …` (`n` of them, wrapping).
    fn run_of(first: u64, n: u64) -> Vec<PageId> {
        (0..n).map(|i| PageId((first + i) % DIFF_PAGES)).collect()
    }

    proptest! {
        /// Random sequences of every page command, each issued when the
        /// one before it is done (reads: when the last batched read is
        /// reaped), on the vision route and on the backend it replaced:
        /// every instant, status and batched completion, the backend
        /// counters, the PCM bytes and the device counters agree.
        #[test]
        fn the_vision_route_is_the_backend_it_replaced(
            buffered in 0..2u8,
            ops in proptest::collection::vec(diff_op(), 1..60),
        ) {
            let mut cfg = SsdConfig::modern();
            if buffered == 0 {
                cfg.buffer.capacity_pages = 0;
            }
            let mut route = BlockStackBackend::vision(cfg.clone(), DIFF_PAGES, 1 << 20);
            let mut reference = VisionBackend::new(cfg, DIFF_PAGES, 1 << 20);
            // the route's batched reads ride the stack's default window
            reference.set_read_window(requiem_block::DEFAULT_INFLIGHT_WINDOW);
            let (mut wal, mut ref_wal) = (route.make_wal(), reference.make_wal());
            let (mut out, mut ref_out) = (Vec::new(), Vec::new());
            let mut t = SimTime::ZERO;
            for (step, &(kind, first, n)) in ops.iter().enumerate() {
                let page = PageId(first);
                match kind {
                    0 => {
                        let got = route.page_read(t, page);
                        prop_assert_eq!(got, reference.page_read(t, page), "step {}", step);
                        t = got.0;
                    }
                    1 => {
                        let pages = run_of(first, n);
                        let tags = route.submit_reads(t, &pages);
                        prop_assert_eq!(tags.len(), reference.submit_reads(t, &pages).len());
                        while route.reads_in_flight() > 0 {
                            let next = route.next_read_done();
                            prop_assert_eq!(next, reference.next_read_done(), "step {}", step);
                            let at = next.unwrap_or(t);
                            route.poll_into(at, &mut out);
                            reference.poll_into(at, &mut ref_out);
                            let strip = |r: &Vec<PageRead>| {
                                r.iter().map(|r| (r.page, r.done, r.status)).collect::<Vec<_>>()
                            };
                            prop_assert_eq!(strip(&out), strip(&ref_out), "step {}", step);
                            t = t.max(at);
                        }
                        prop_assert_eq!(reference.reads_in_flight(), 0, "step {}", step);
                    }
                    2 => {
                        let got = route.steal_write(t, page);
                        prop_assert_eq!(got, reference.steal_write(t, page), "step {}", step);
                        t = got;
                    }
                    3 => {
                        let pages = run_of(first, n);
                        let got = route.page_batch(t, &pages);
                        prop_assert_eq!(got, reference.page_batch(t, &pages), "step {}", step);
                        t = got;
                    }
                    4 => {
                        let got = route.page_write(t, page);
                        prop_assert_eq!(got, reference.page_write(t, page), "step {}", step);
                        t = got;
                    }
                    5 => {
                        route.free_page(t, page);
                        reference.free_page(t, page);
                    }
                    _ => {
                        let lsn = Lsn(step as u64 + 1);
                        wal.append(lsn, 64 * n as u32);
                        ref_wal.append(lsn, 64 * n as u32);
                        let got = wal.force(t, lsn);
                        let want = ref_wal.force(t, lsn);
                        prop_assert_eq!(got, want);
                        t = got.settle().unwrap_or_else(|failed| failed.done);
                    }
                }
                prop_assert_eq!(
                    format!("{:?}", route.stats()),
                    format!("{:?}", reference.stats()),
                    "step {}",
                    step
                );
                prop_assert_eq!(
                    route.pcm.as_ref().map(|p| p.dimm.borrow().persisted_bytes()),
                    Some(reference.pcm.borrow().persisted_bytes()),
                    "step {}",
                    step
                );
                prop_assert_eq!(
                    route.ssd().device_metrics(),
                    reference.flash.device_metrics(),
                    "step {}",
                    step
                );
            }
        }
    }

    fn backend() -> BlockStackBackend {
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        BlockStackBackend::new(StackConfig::blk_mq(1), ssd_cfg, 1024, 64)
    }

    #[test]
    fn sync_ops_advance_time_and_count() {
        let mut b = backend();
        let mut w = b.make_wal();
        let t1 = b.page_write(SimTime::ZERO, PageId(0));
        let (t2, st) = b.page_read(t1, PageId(0));
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        w.append(Lsn(1), 256);
        let t3 = w.force(t2, Lsn(1)).settle().expect("a clean force");
        assert!(t3 > t2);
        assert_eq!(b.stats().page_writes, 1);
        assert_eq!(b.stats().page_reads, 1);
        assert_eq!(w.stats().log_forces, 1);
        assert_eq!(w.label(), "stack-wal");
    }

    #[test]
    fn page_batch_journals_then_writes_in_place() {
        let mut b = backend();
        let pages: Vec<PageId> = (0..8).map(PageId).collect();
        let done = b.page_batch(SimTime::ZERO, &pages);
        assert!(done > SimTime::ZERO);
        assert_eq!(
            b.ssd().metrics().host_writes,
            16,
            "double-write journal writes twice"
        );
        assert_eq!(b.reads_in_flight(), 0);
    }

    #[test]
    fn batched_reads_overlap_on_the_device() {
        let mut b = backend();
        // precondition: write the pages so reads hit mapped LPNs
        let mut t = SimTime::ZERO;
        for p in 0..16u64 {
            t = b.page_write(t, PageId(p));
        }
        // serialized reference
        let mut serial = t;
        for p in 0..16u64 {
            let (done, _) = b.page_read(serial, PageId(p));
            serial = done;
        }
        // batched in the stack's default window over the same (now
        // warmer) device state
        let pages: Vec<PageId> = (0..16).map(PageId).collect();
        let tags = b.submit_reads(serial, &pages);
        assert_eq!(tags.len(), 16);
        assert_eq!(b.reads_in_flight(), 16);
        let mut last = serial;
        let mut got = 0;
        while b.reads_in_flight() > 0 {
            let next = b.next_read_done().expect("reads in flight");
            for r in PersistenceBackend::poll(&mut b, next) {
                last = last.max(r.done);
                got += 1;
            }
        }
        assert_eq!(got, 16);
        let batched_span = last.since(serial);
        let serial_span = serial.since(t);
        assert!(
            batched_span < serial_span,
            "batched {batched_span} should beat serialized {serial_span}"
        );
    }

    #[test]
    fn recover_scan_covers_the_byte_range() {
        let mut b = backend();
        let mut w = b.make_wal();
        w.append(Lsn(1), 10 * 1024);
        let t1 = w
            .force(SimTime::ZERO, Lsn(1))
            .settle()
            .expect("a clean force");
        let reads_before = b.ssd().metrics().host_reads;
        let (t2, st) = w.recover_scan(t1, 0, 10 * 1024);
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        assert_eq!(b.ssd().metrics().host_reads - reads_before, 3);
    }
}
