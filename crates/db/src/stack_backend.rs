//! The block design's persistence backend: one flash SSD behind the
//! composed block-layer [`IoStack`], carrying a circular log, the data
//! and a double-write journal. Every command pays the OS submission path,
//! queue locks, doorbells and IRQ completion at the costs its
//! [`StackConfig`] names; [`StackConfig::bare`] names them all zero, and
//! the backend is then the bare block device.
//!
//! This is the backend the completion-driven engine showcases: its
//! batched read path is implemented directly over
//! [`IoStack::submit_batch`] / [`IoStack::reap_into`], so a DB
//! queue depth of N turns into N commands resident in the device-side
//! in-flight window — the paper's Figure-1 parallelism finally reaching
//! transaction throughput.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use requiem_block::{IoStack, StackCompletion, StackConfig};
use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;
use requiem_ssd::{IoClass, IoRequest, Lpn, Ssd, SsdConfig};

use crate::backend::{BackendStats, CommandTag, PageRead, PersistenceBackend};
use crate::page::PageId;
use crate::walbackend::{FlashWal, StackLog, WalBackend};

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
        BlockStackBackend {
            stack: Rc::new(RefCell::new(IoStack::new(stack_cfg, ssd))),
            log_pages,
            data_base: log_pages,
            journal_base: log_pages + data_pages,
            data_pages,
            lba_base: 0,
            core: 0,
            pending: Vec::new(),
            reqs: Vec::new(),
            ready: Vec::new(),
            reaped: Vec::new(),
            outstanding: Vec::new(),
            next_tag: 0,
            stats: BackendStats::default(),
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
        let mut ssd = Ssd::new(ssd_cfg);
        // sharded clocks are loosely coupled: commands from different
        // queue pairs (and a shard's own submissions during a parked
        // force window) interleave out of global time order, exactly as
        // NVMe multi-SQ — each stream stays monotone
        ssd.relax_submit_order();
        let exported = ssd.capacity().exported_pages;
        let stripe = log_pages + 2 * data_pages;
        let needed = stripe * shards as u64;
        assert!(
            needed <= exported,
            "device too small: need {needed} pages ({shards} shards x {stripe}), exported {exported}"
        );
        let stack = Rc::new(RefCell::new(IoStack::new(stack_cfg, ssd)));
        (0..shards)
            .map(|i| BlockStackBackend {
                stack: Rc::clone(&stack),
                log_pages,
                data_base: log_pages,
                journal_base: log_pages + data_pages,
                data_pages,
                lba_base: i as u64 * stripe,
                core: i,
                pending: Vec::new(),
                reqs: Vec::new(),
                ready: Vec::new(),
                reaped: Vec::new(),
                outstanding: Vec::new(),
                next_tag: (i as u64) << 48,
                stats: BackendStats::default(),
            })
            .collect()
    }

    /// The block stack (for software-share reporting).
    pub fn stack(&self) -> Ref<'_, IoStack<Ssd>> {
        self.stack.borrow()
    }

    /// The underlying device (for write-amplification reporting).
    pub fn ssd(&self) -> Ref<'_, Ssd> {
        Ref::map(self.stack.borrow(), |s| s.backend())
    }

    fn data_lpn(&self, page: PageId) -> Lpn {
        assert!(page.0 < self.data_pages, "page id beyond data region");
        Lpn(self.lba_base + self.data_base + page.0)
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
        self.stack
            .borrow_mut()
            .submit(
                now,
                self.core,
                IoRequest::write(lpn.0).class(IoClass::Background),
            )
            .done
    }

    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.stats.steal_writes += 1;
        self.stats.logical_writes += 1;
        let lpn = self.data_lpn(page);
        self.stack
            .borrow_mut()
            .submit(now, self.core, IoRequest::write(lpn.0))
            .done
    }

    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.stats.page_reads += 1;
        let lpn = self.data_lpn(page);
        let c = self
            .stack
            .borrow_mut()
            .submit(now, self.core, IoRequest::read(lpn.0));
        (c.done, c.status)
    }

    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        if pages.is_empty() {
            return now;
        }
        self.stats.batches += 1;
        self.stats.page_writes += pages.len() as u64;
        self.stats.logical_writes += pages.len() as u64;
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

    fn free_page(&mut self, _now: SimTime, _page: PageId) {
        // legacy stacks rarely trimmed: the device never hears of a free
        self.stats.frees += 1;
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "stack-block"
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
        let t3 = w.force(t2, Lsn(1)).done;
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
        let t1 = w.force(SimTime::ZERO, Lsn(1)).done;
        let reads_before = b.ssd().metrics().host_reads;
        let (t2, st) = w.recover_scan(t1, 0, 10 * 1024);
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        assert_eq!(b.ssd().metrics().host_reads - reads_before, 3);
    }
}
