//! The persistence boundary: the page I/O a storage manager needs, and
//! nothing about where it goes.
//!
//! The storage manager above this trait is **identical** in every design;
//! only the routing of its traffic classes changes. The block-addressed
//! designs are routes of one backend,
//! [`BlockStackBackend`](crate::stack_backend::BlockStackBackend): the
//! block design (one flash SSD behind the OS I/O stack, whose CPU costs
//! are parameters — [`StackConfig::bare`](requiem_block::StackConfig::bare)
//! sets them all to zero and is the bare block device) and the paper's
//! vision ([`BlockStackBackend::vision`](crate::stack_backend::BlockStackBackend::vision),
//! whose doc holds the routing table). The cooperating-logs manager,
//! [`CoopLogBackend`](crate::coop::CoopLogBackend), drives a nameless
//! device.
//!
//! The *synchronous log path* (force / truncate / recovery scan) is not
//! here: it lives behind [`WalBackend`](crate::walbackend) — page
//! backends do page I/O only, and [`PersistenceBackend::make_wal`] hands
//! the engine a WAL port onto whatever medium the design routes log
//! durability to (the same flash device for the block design, a PCM DIMM
//! for the vision).

use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;

use crate::page::PageId;
use crate::walbackend::WalBackend;

/// Host tag identifying one batched read between
/// [`PersistenceBackend::submit_reads`] and [`PersistenceBackend::poll`].
pub use requiem_sim::cmd::CommandId as CommandTag;

/// One batched-read completion surfaced by [`PersistenceBackend::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRead {
    /// The tag [`PersistenceBackend::submit_reads`] returned for it.
    pub tag: CommandTag,
    /// The page that was read.
    pub page: PageId,
    /// Device completion instant (may exceed the poll instant when the
    /// host-side completion path extends past it).
    pub done: SimTime,
    /// Typed media status, exactly as for
    /// [`PersistenceBackend::page_read`].
    pub status: IoStatus,
}

/// Combine two statuses into the one the caller must act on: data loss
/// dominates a refusal, a refusal dominates a recovered read, and
/// recovered reads accumulate their step counts. Thin name for
/// [`IoStatus::combine`], kept because every backend folds statuses.
pub fn worse_status(a: IoStatus, b: IoStatus) -> IoStatus {
    a.combine(b)
}

/// Parking space backing the trait's **default** (serialized) batched-read
/// shim: completions produced synchronously by `page_read` wait here until
/// the next [`PersistenceBackend::poll`]. Backends that override the
/// batched API never need one; backends that rely on the defaults must
/// store a `ReadShim` and return it from
/// [`PersistenceBackend::read_shim`].
#[derive(Debug, Default)]
pub struct ReadShim {
    next_tag: u64,
    pending: Vec<PageRead>,
}

impl ReadShim {
    /// Park one completed read; returns its tag.
    pub fn park(&mut self, page: PageId, done: SimTime, status: IoStatus) -> CommandTag {
        self.next_tag += 1;
        let tag = CommandTag(self.next_tag);
        self.pending.push(PageRead {
            tag,
            page,
            done,
            status,
        });
        tag
    }

    /// Drain completions with `done <= now`, earliest first (ties in
    /// park order — deterministic).
    pub fn drain_ready(&mut self, now: SimTime) -> Vec<PageRead> {
        let mut ready: Vec<PageRead> = Vec::new();
        self.pending.retain(|r| {
            if r.done <= now {
                ready.push(*r);
                false
            } else {
                true
            }
        });
        ready.sort_by_key(|r| (r.done, r.tag.0));
        ready
    }

    /// Earliest parked completion instant.
    pub fn next_done(&self) -> Option<SimTime> {
        self.pending.iter().map(|r| r.done).min()
    }

    /// Parked completions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Page I/O issued by a backend, by class. Log-path counters live in
/// [`WalStats`](crate::walbackend::WalStats) since the API split.
#[derive(Debug, Default, Clone)]
pub struct BackendStats {
    /// Data page writes (async write-back).
    pub page_writes: u64,
    /// Synchronous steal writes.
    pub steal_writes: u64,
    /// Data page reads.
    pub page_reads: u64,
    /// Pages freed (trimmed where supported); 0 in every run, since the
    /// engine never frees a page.
    pub frees: u64,
    /// Checkpoint batches.
    pub batches: u64,
    /// Page images the manager *meant* to persist: data page writes,
    /// including batch members. Excludes interface-imposed copies — the
    /// double-write journal's first phase is not a logical write, it is
    /// the block interface's tax. Together with the WAL's
    /// `logical_writes` this is the denominator of end-to-end write
    /// amplification (`flash programs / logical_writes`).
    pub logical_writes: u64,
}

/// The *page* persistence service a storage manager runs on. Log
/// durability is not a side effect of this trait: the engine obtains a
/// [`WalBackend`] from [`PersistenceBackend::make_wal`] and talks to it
/// directly.
pub trait PersistenceBackend {
    /// Build the WAL backend this design routes synchronous log
    /// persistence to, sharing the backend's device where the design
    /// calls for it (the stacked-log pathology only exists when log and
    /// data compete for the same flash). Called once by the engine at
    /// construction.
    fn make_wal(&mut self) -> Box<dyn WalBackend>;

    /// Asynchronous write-back of one data page; returns its completion
    /// (the caller does not have to wait).
    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime;

    /// Synchronous steal write of a dirty page under memory pressure;
    /// returns the instant the evicting request may proceed.
    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime;

    /// Synchronous read of one data page. Returns the completion instant
    /// and the typed media status: [`IoStatus::Unrecoverable`] means the
    /// device exhausted its whole recovery pipeline (retry ladder, ECC
    /// escalation, parity rebuild) and the page image is LOST — the
    /// engine above must reconstruct it from the durable log or surface
    /// the error. [`IoStatus::RecoveredAfterRetry`] means the bytes are
    /// good but the latency already includes the device's recovery work.
    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus);

    /// Write a batch of pages that must be torn-write safe (checkpoint
    /// flush). Returns the batch completion.
    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime;

    /// Tell the device a page's contents are dead. The engine never
    /// frees a page, so nothing outside unit tests calls this.
    fn free_page(&mut self, now: SimTime, page: PageId);

    /// Traffic statistics.
    fn stats(&self) -> &BackendStats;

    /// Short label for reports.
    fn label(&self) -> &'static str;

    /// Attach a cross-layer [`Probe`](requiem_sim::Probe) so the devices
    /// underneath decompose the storage manager's I/O into spans.
    /// Backends without an instrumented device ignore it.
    fn attach_probe(&mut self, probe: requiem_sim::Probe) {
        let _ = probe;
    }

    /// Switch the underlying device to multi-queue submission semantics:
    /// commands from different submitters may arrive out of global time
    /// order (NVMe only orders within one submission queue). Called by
    /// [`ShardedDb::new`](crate::ShardedDb::new) on every shard backend
    /// when there is more than one shard; a lone shard submits in time
    /// order. Backends without a device-level submit-order check ignore
    /// it.
    fn relax_submit_order(&mut self) {}

    // -- batched asynchronous read path (completion-driven engine) ------
    //
    // The methods below are the queue-pair form of `page_read`: submit a
    // batch without waiting, reap completions out of submission order.
    // Every backend in this crate overrides them with a genuinely
    // overlapped implementation on a `requiem_sim::QueuePair` (the coop
    // manager's own, or a core's of the block stack); the provided
    // defaults are a *serialized* shim over `page_read` so existing synchronous backends
    // keep working unchanged — each read runs to completion at submit
    // time and its completion is parked in the backend's [`ReadShim`]
    // until the next poll.

    /// Scratch state backing the default serialized shim. Backends that
    /// override the batched API leave this at `None`; backends that rely
    /// on the default `submit_reads`/`poll` must store a [`ReadShim`]
    /// and return it here.
    fn read_shim(&mut self) -> Option<&mut ReadShim> {
        None
    }

    /// Submit a batch of data-page reads without waiting for any of
    /// them; returns one tag per page, in order. Completions surface
    /// through [`PersistenceBackend::poll`].
    ///
    /// # Panics
    /// The default shim panics if the backend provides no [`ReadShim`]
    /// (completions would be silently lost otherwise).
    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        // default shim: serialized — each read completes before the next
        // is issued, so there is no overlap, but the completion-driven
        // engine above still works correctly.
        let reads: Vec<(PageId, SimTime, IoStatus)> = pages
            .iter()
            .map(|&p| {
                let (done, status) = self.page_read(now, p);
                (p, done, status)
            })
            .collect();
        let shim = self.read_shim().expect(
            "default batched-read shim needs a ReadShim (override read_shim or the batched API)",
        );
        reads
            .into_iter()
            .map(|(p, done, status)| shim.park(p, done, status))
            .collect()
    }

    /// Reap batched-read completions whose device finish is `<= now`,
    /// earliest finish first. A returned [`PageRead::done`] may exceed
    /// `now` when the backend charges host-side completion work past the
    /// poll instant — the caller processes each read at its own `done`.
    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        match self.read_shim() {
            Some(shim) => shim.drain_ready(now),
            None => Vec::new(),
        }
    }

    /// [`poll`](Self::poll) into a caller-owned buffer, cleared first, so
    /// a reaper that polls once per wake reuses one allocation however
    /// the completions are spread over wakes. The default forwards to
    /// `poll` (a wrapper that overrides only `poll` keeps its behaviour);
    /// the backends in this crate override it, and their `poll` is the
    /// forwarding one.
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<PageRead>) {
        out.clear();
        out.append(&mut self.poll(now));
    }

    /// Finish instant of the earliest batched read still in flight
    /// (`None` when nothing is outstanding) — the completion-driven
    /// engine's next wake-up time.
    fn next_read_done(&mut self) -> Option<SimTime> {
        self.read_shim().and_then(|s| s.next_done())
    }

    /// Batched reads submitted but not yet reaped.
    fn reads_in_flight(&mut self) -> usize {
        self.read_shim().map(|s| s.len()).unwrap_or(0)
    }

    /// Configure the device-side in-flight window (queue depth) used by
    /// the batched read path. Call only while no batched reads are in
    /// flight. The serialized default shim ignores it (its depth is
    /// effectively 1), and so does the block stack: its checkpoint
    /// batches ride the same queue pair as its reads, so resizing the
    /// window would change what a checkpoint costs — and break the QD-1
    /// identity with [`Database::execute`](crate::Database::execute),
    /// which never sets it.
    fn set_read_window(&mut self, depth: usize) {
        let _ = depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::stack_backend::BlockStackBackend;
    use crate::wal::Lsn;
    use requiem_block::StackConfig;
    use requiem_sim::time::SimDuration;
    use requiem_ssd::SsdConfig;

    fn small_cfg() -> SsdConfig {
        // conservative legacy device: write cache disabled (a common DBA
        // setting when cache durability is not trusted); the buffered
        // variant is explored as an ablation in experiment E7
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        cfg
    }

    /// The bare block device: the block stack at zero CPU cost.
    fn legacy() -> BlockStackBackend {
        BlockStackBackend::new(StackConfig::bare(1), small_cfg(), 1024, 64)
    }

    fn vision() -> BlockStackBackend {
        BlockStackBackend::vision(small_cfg(), 1024, 1 << 20)
    }

    /// Fill data and WAL to ~56% of one LUN's physical capacity,
    /// checkpoint (optionally truncating), then churn the data pages
    /// with uniform random overwrites. Without truncation the
    /// dead-in-WAL segments stay FTL-valid — they shrink the effective
    /// spare area and the collector drags them along on every pass;
    /// with truncation they are reclaimed for free. Returns
    /// `(gc_pages_moved, host_writes, log_trims)`.
    fn log_churn(truncate: bool) -> (u64, u64, u64) {
        let mut cfg = small_cfg();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        let mut b = BlockStackBackend::new(StackConfig::bare(1), cfg, 600, 550);
        let mut w = b.make_wal();
        let mut t = SimTime::ZERO;
        for p in 0..600u64 {
            t = b.page_write(t, PageId(p));
        }
        for i in 0..700u64 {
            w.append(Lsn(i + 1), PAGE_SIZE as u32);
            t = w.force(t, Lsn(i + 1)).settle().expect("a clean force");
        }
        if truncate {
            // the checkpoint horizon sits just below the tail: all but
            // the newest segments are outside redo and die in bulk
            let horizon = w.stats().log_bytes.saturating_sub(2 * PAGE_SIZE as u64);
            w.truncate(t, horizon);
        }
        let mut x = 42u64;
        for _ in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = b.page_write(t, PageId(x % 600));
        }
        let ssd = b.ssd();
        let m = ssd.metrics();
        (m.gc_pages_moved, m.host_writes, w.stats().log_trims)
    }

    #[test]
    fn checkpoint_truncation_reclaims_log_without_host_copy() {
        // satellite contract: the block-backed path honors the trim
        // contract too — truncated WAL segments are reclaimed by the
        // device's collector for free, not carried as live data, and the
        // host never writes a byte to make that happen
        let (moved_plain, writes_plain, trims_plain) = log_churn(false);
        let (moved_trim, writes_trim, trims) = log_churn(true);
        assert_eq!(trims_plain, 0);
        assert!(trims > 0, "truncation sent trims");
        assert_eq!(
            writes_plain, writes_trim,
            "reclaim costs zero host copies — the command stream is unchanged"
        );
        assert!(
            moved_trim < moved_plain,
            "collector stops copying dead WAL: moved {moved_trim} vs {moved_plain}"
        );
    }

    #[test]
    fn log_force_latency_gap() {
        // the P1 headline: a 256-byte commit force is ~3 orders of
        // magnitude faster on the PCM path
        let mut l = legacy();
        let mut v = vision();
        let mut wl = l.make_wal();
        let mut wv = v.make_wal();
        wl.append(Lsn(1), 256);
        wv.append(Lsn(1), 256);
        let tl = wl
            .force(SimTime::ZERO, Lsn(1))
            .settle()
            .expect("a clean force");
        let tv = wv
            .force(SimTime::ZERO, Lsn(1))
            .settle()
            .expect("a clean force");
        let (tl, tv) = (tl.since(SimTime::ZERO), tv.since(SimTime::ZERO));
        assert!(
            tl.as_nanos() > 10 * tv.as_nanos(),
            "legacy {tl} vs vision {tv}"
        );
        assert!(tv < SimDuration::from_micros(5), "vision force {tv}");
    }

    #[test]
    fn legacy_wal_spills_onto_the_shared_device() {
        let mut l = legacy();
        let mut w = l.make_wal();
        let before = l.ssd().metrics().host_writes;
        // 10 KiB of log = 3 page writes, visible on the *backend's* SSD:
        // the WAL port shares the device with the page traffic
        w.append(Lsn(1), 10 * 1024);
        assert!(w.force(SimTime::ZERO, Lsn(1)).settle().is_ok());
        let after = l.ssd().metrics().host_writes;
        assert_eq!(after - before, 3);
    }

    #[test]
    fn batch_io_volume_2x_vs_1x() {
        let mut l = legacy();
        let mut v = vision();
        let pages: Vec<PageId> = (0..8).map(PageId).collect();
        l.page_batch(SimTime::ZERO, &pages);
        v.page_batch(SimTime::ZERO, &pages);
        assert_eq!(l.ssd().metrics().host_writes, 16, "double-write journal");
        assert_eq!(v.ssd().metrics().host_writes, 8, "atomic batch writes once");
    }

    #[test]
    fn steal_blocks_only_for_pcm_time_on_vision() {
        let mut l = legacy();
        let mut v = vision();
        let tl = l.steal_write(SimTime::ZERO, PageId(1)).since(SimTime::ZERO);
        let tv = v.steal_write(SimTime::ZERO, PageId(1)).since(SimTime::ZERO);
        assert!(
            tv.as_nanos() * 2 < tl.as_nanos(),
            "vision steal {tv} should be well under legacy {tl}"
        );
        // and the flash write-back still happened in the background
        assert_eq!(v.ssd().metrics().host_writes, 1);
    }

    #[test]
    fn frees_trim_on_vision_only() {
        let mut l = legacy();
        let mut v = vision();
        l.free_page(SimTime::ZERO, PageId(3));
        v.free_page(SimTime::ZERO, PageId(3));
        assert_eq!(l.ssd().metrics().host_trims, 0);
        assert_eq!(v.ssd().metrics().host_trims, 1);
        assert_eq!(l.stats().frees, 1);
        assert_eq!(v.stats().frees, 1);
    }

    #[test]
    fn reads_work_on_both() {
        let mut l = legacy();
        let mut v = vision();
        let t1 = l.page_write(SimTime::ZERO, PageId(0));
        let (t2, st) = l.page_read(t1, PageId(0));
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        let t1 = v.page_write(SimTime::ZERO, PageId(0));
        let (t2, st) = v.page_read(t1, PageId(0));
        assert!(t2 > t1);
        assert_eq!(st, IoStatus::Ok);
        assert_eq!(l.stats().page_reads, 1);
        assert_eq!(v.stats().page_reads, 1);
    }

    #[test]
    fn wal_stats_accumulate_on_the_vision_path() {
        let mut v = vision();
        let mut w = v.make_wal();
        w.append(Lsn(1), 100);
        let t = w
            .force(SimTime::ZERO, Lsn(1))
            .settle()
            .expect("a clean force");
        w.append(Lsn(2), 100);
        assert!(w.force(t, Lsn(2)).settle().is_ok());
        assert_eq!(w.stats().log_forces, 2);
        assert_eq!(w.stats().log_bytes, 200);
        assert_eq!(w.label(), "pcm-wal");
    }
}
