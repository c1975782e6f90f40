//! One trait over every storage interface the repo implements.
//!
//! The paper's §3 argument is comparative: the *same* flash hardware can
//! be driven through the legacy block interface ([`Ssd`]), the extended
//! block interface ([`ExtendedSsd`] — TRIM + atomic writes + barriers),
//! or the communication abstraction ([`NamelessSsd`]). Experiments E5,
//! E6 and E8 each used to hand-roll a per-device loop; this trait lets
//! one generic harness drive all three, so the comparison is the
//! interface and nothing else.
//!
//! The vocabulary is the host's, not the device's: a host stores pages
//! under *tags* (its own identifiers — database page ids), and each
//! interface hands back a [`DeviceInterface::Handle`] naming where the
//! page lives *from the host's point of view*:
//!
//! * block interfaces: the handle is the [`Lpn`] — stable forever,
//!   because the FTL's mapping table absorbs every relocation;
//! * nameless: the handle is the [`PhysName`] — the device may move the
//!   page, and then it must *say so*, which is exactly what
//!   [`DeviceInterface::drain_relocations`] delivers. Upcall delivery is
//!   a trait method: for block devices it is empty by definition (the
//!   interface has no channel to express it), which is the paper's
//!   complaint rendered as a type signature.

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::IoStatus;
use requiem_ssd::{Lpn, Ssd};

use crate::atomic::{double_write_journal, ExtendedSsd};
use crate::comm::Upcall;
use crate::nameless::{NamelessSsd, PhysName};

/// A page-relocation notice translated into the host's handle type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation<H> {
    /// The host tag supplied at write time.
    pub tag: u64,
    /// The page's new handle; the host must replace its stored one.
    pub new: H,
    /// When the device moved the page.
    pub at: SimTime,
}

/// Outcome of an [`update`](DeviceInterface::update): the new handle
/// (absent exactly when the command never reached the media), the
/// durable instant, and the typed media status. This used to be an
/// `expect()` — a rejected or failed write now surfaces as data the
/// storage manager can act on instead of a host panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome<H> {
    /// The page's new handle; `None` iff `status == Rejected` (device
    /// full / illegal address — nothing was written, keep the old one).
    pub handle: Option<H>,
    /// Instant the write was durable (== `now` on rejection: no media
    /// time was charged).
    pub done: SimTime,
    /// Clean, recovered after salvage, or rejected.
    pub status: IoStatus,
}

/// Outcome of a [`commit_batch`](DeviceInterface::commit_batch).
/// All-or-nothing: on success `handles[i]` is `tags[i]`'s new handle;
/// on rejection `handles` is empty and every old handle is still valid
/// (the whole point of an atomic commit — a refused batch must leave
/// the previous versions intact).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitOutcome<H> {
    /// New handles, parallel to the submitted tags; empty on rejection.
    pub handles: Vec<H>,
    /// Instant the batch was durable and visible.
    pub done: SimTime,
    /// Worst status across the batch's operations.
    pub status: IoStatus,
}

/// Interface-agnostic device counters, diffable across a measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceMetrics {
    /// Host-visible writes accepted.
    pub host_writes: u64,
    /// Host-visible reads served.
    pub host_reads: u64,
    /// Flash pages programmed (host + GC + housekeeping).
    pub flash_programs: u64,
    /// Flash pages read.
    pub flash_reads: u64,
    /// Flash blocks erased (GC + housekeeping).
    pub flash_erases: u64,
    /// Live pages relocated by garbage collection.
    pub gc_pages_moved: u64,
    /// Garbage-collection passes run.
    pub gc_runs: u64,
    /// Controller RAM the interface spends on logical→physical mapping.
    pub mapping_ram_bytes: u64,
    /// Device→host messages delivered so far.
    pub upcalls_delivered: u64,
}

impl DeviceMetrics {
    /// Flash programs per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 0.0;
        }
        self.flash_programs as f64 / self.host_writes as f64
    }

    /// Counter-wise difference `self - earlier` (mapping RAM carried over).
    pub fn since(&self, earlier: &DeviceMetrics) -> DeviceMetrics {
        DeviceMetrics {
            host_writes: self.host_writes - earlier.host_writes,
            host_reads: self.host_reads - earlier.host_reads,
            flash_programs: self.flash_programs - earlier.flash_programs,
            flash_reads: self.flash_reads - earlier.flash_reads,
            flash_erases: self.flash_erases - earlier.flash_erases,
            gc_pages_moved: self.gc_pages_moved - earlier.gc_pages_moved,
            gc_runs: self.gc_runs - earlier.gc_runs,
            mapping_ram_bytes: self.mapping_ram_bytes,
            upcalls_delivered: self.upcalls_delivered - earlier.upcalls_delivered,
        }
    }
}

/// The common surface of the block, extended-block, and nameless
/// interfaces, in host vocabulary (tags and handles).
pub trait DeviceInterface {
    /// What the host must remember to find a page again: an [`Lpn`] for
    /// block interfaces, a [`PhysName`] for the nameless one.
    type Handle: Copy + std::fmt::Debug + PartialEq;

    /// Short human label for tables.
    fn label(&self) -> &'static str;

    /// Distinct tags the host may keep live simultaneously (exported
    /// LBAs for block devices; raw pages minus over-provisioning for the
    /// nameless device).
    fn usable_tags(&self) -> u64;

    /// Write (or overwrite) `tag`'s page. `prev` is the handle from the
    /// last update, if any; interfaces that relocate on write use it to
    /// release the old version. The outcome carries the new handle, the
    /// durable instant, and the typed media status — a full device or
    /// illegal tag comes back as [`IoStatus::Rejected`], not a panic.
    fn update(
        &mut self,
        now: SimTime,
        tag: u64,
        prev: Option<Self::Handle>,
    ) -> UpdateOutcome<Self::Handle>;

    /// Read `tag`'s page at `handle`; returns the completion instant and
    /// how the device fared getting the data back: clean, recovered
    /// after media retries, unrecoverable (data lost), or rejected (the
    /// handle no longer names the page — drain relocations and retry).
    fn fetch(&mut self, now: SimTime, tag: u64, handle: Self::Handle) -> (SimTime, IoStatus);

    /// Declare `tag` dead — TRIM for block devices, an exact `free` for
    /// the nameless one. A stale handle (the page already moved or was
    /// already released) reports [`IoStatus::Rejected`]; the page's live
    /// copy, if any, is untouched.
    fn discard(&mut self, now: SimTime, tag: u64, handle: Self::Handle) -> (SimTime, IoStatus);

    /// Durably commit a batch of updates with all-or-nothing visibility.
    /// `prev[i]` is tag `tags[i]`'s current handle, if any. Each
    /// interface pays its own price: a plain block device needs a
    /// double-write journal (2× the data I/O), the extended interface
    /// has native atomic writes (1×), and the nameless interface writes
    /// out of place by construction — old handles stay valid until the
    /// host swaps its index, so atomicity is free (1×).
    fn commit_batch(
        &mut self,
        now: SimTime,
        tags: &[u64],
        prev: &[Option<Self::Handle>],
    ) -> CommitOutcome<Self::Handle>;

    /// Deliver pending page-relocation upcalls in handle vocabulary.
    /// Block interfaces return nothing — not because nothing moved, but
    /// because the interface cannot say so (the FTL's mapping table
    /// silently absorbs the move).
    fn drain_relocations(&mut self) -> Vec<Relocation<Self::Handle>> {
        Vec::new()
    }

    /// When every queued operation has drained.
    fn drain_time(&self) -> SimTime;

    /// Interface-agnostic counters.
    fn device_metrics(&self) -> DeviceMetrics;
}

// ---------------------------------------------------------------------
// block interface: requiem_ssd::Ssd
// ---------------------------------------------------------------------

impl DeviceInterface for Ssd {
    type Handle = Lpn;

    fn label(&self) -> &'static str {
        "block FTL"
    }

    fn usable_tags(&self) -> u64 {
        self.capacity().exported_pages
    }

    fn update(&mut self, now: SimTime, tag: u64, _prev: Option<Lpn>) -> UpdateOutcome<Lpn> {
        match self.write(now, Lpn(tag)) {
            Ok(c) => UpdateOutcome {
                handle: Some(Lpn(tag)),
                done: c.done,
                status: c.status,
            },
            Err(_) => UpdateOutcome {
                handle: None,
                done: now,
                status: IoStatus::Rejected,
            },
        }
    }

    fn fetch(&mut self, now: SimTime, tag: u64, handle: Lpn) -> (SimTime, IoStatus) {
        debug_assert_eq!(handle, Lpn(tag), "block handles are the tag itself");
        match self.read(now, handle) {
            Ok(c) => (c.done, c.status),
            Err(_) => (now, IoStatus::Rejected),
        }
    }

    fn discard(&mut self, now: SimTime, _tag: u64, handle: Lpn) -> (SimTime, IoStatus) {
        match self.trim(now, handle) {
            Ok(c) => (c.done, c.status),
            Err(_) => (now, IoStatus::Rejected),
        }
    }

    fn commit_batch(
        &mut self,
        now: SimTime,
        tags: &[u64],
        _prev: &[Option<Lpn>],
    ) -> CommitOutcome<Lpn> {
        // No atomic primitive: emulate with a double-write journal in the
        // top of the LBA space (hosts using commit_batch must keep tags
        // below `usable_tags - batch`).
        let journal_base = Lpn(self.capacity().exported_pages - tags.len() as u64);
        let lpns: Vec<Lpn> = tags.iter().map(|&t| Lpn(t)).collect();
        match double_write_journal(self, now, &lpns, journal_base) {
            Ok(c) => CommitOutcome {
                handles: lpns,
                done: c.done,
                status: c.status,
            },
            // refused before any in-place write became visible: the
            // journal copies are garbage, the old versions are intact
            Err(_) => CommitOutcome {
                handles: Vec::new(),
                done: now,
                status: IoStatus::Rejected,
            },
        }
    }

    fn drain_time(&self) -> SimTime {
        Ssd::drain_time(self)
    }

    fn device_metrics(&self) -> DeviceMetrics {
        let m = self.metrics();
        DeviceMetrics {
            host_writes: m.host_writes,
            host_reads: m.host_reads,
            flash_programs: m.flash_programs.total(),
            flash_reads: m.flash_reads.total(),
            flash_erases: m.flash_erases.total(),
            gc_pages_moved: m.gc_pages_moved,
            gc_runs: m.gc_runs,
            mapping_ram_bytes: self.config().mapping_table_bytes(),
            upcalls_delivered: 0,
        }
    }
}

// ---------------------------------------------------------------------
// extended block interface: TRIM + atomic writes + barriers
// ---------------------------------------------------------------------

impl DeviceInterface for ExtendedSsd {
    type Handle = Lpn;

    fn label(&self) -> &'static str {
        "extended block"
    }

    // plain reads, writes and trims pass straight through the extension
    // to the block device underneath: only the batch commit differs

    fn usable_tags(&self) -> u64 {
        self.inner().usable_tags()
    }

    fn update(&mut self, now: SimTime, tag: u64, prev: Option<Lpn>) -> UpdateOutcome<Lpn> {
        self.inner_mut().update(now, tag, prev)
    }

    fn fetch(&mut self, now: SimTime, tag: u64, handle: Lpn) -> (SimTime, IoStatus) {
        self.inner_mut().fetch(now, tag, handle)
    }

    fn discard(&mut self, now: SimTime, tag: u64, handle: Lpn) -> (SimTime, IoStatus) {
        self.inner_mut().discard(now, tag, handle)
    }

    fn commit_batch(
        &mut self,
        now: SimTime,
        tags: &[u64],
        _prev: &[Option<Lpn>],
    ) -> CommitOutcome<Lpn> {
        let lpns: Vec<Lpn> = tags.iter().map(|&t| Lpn(t)).collect();
        match self.write_atomic(now, &lpns) {
            Ok(c) => CommitOutcome {
                handles: lpns,
                done: c.done,
                status: c.status,
            },
            // the FTL defers the mapping switch until the whole batch is
            // durable, so a refused batch leaves the old versions visible
            Err(_) => CommitOutcome {
                handles: Vec::new(),
                done: now,
                status: IoStatus::Rejected,
            },
        }
    }

    fn drain_time(&self) -> SimTime {
        self.inner().drain_time()
    }

    fn device_metrics(&self) -> DeviceMetrics {
        self.inner().device_metrics()
    }
}

// ---------------------------------------------------------------------
// communication abstraction: nameless writes + upcalls
// ---------------------------------------------------------------------

impl DeviceInterface for NamelessSsd {
    type Handle = PhysName;

    fn label(&self) -> &'static str {
        "nameless"
    }

    fn usable_tags(&self) -> u64 {
        NamelessSsd::usable_tags(self)
    }

    fn update(
        &mut self,
        now: SimTime,
        tag: u64,
        prev: Option<PhysName>,
    ) -> UpdateOutcome<PhysName> {
        // release the old version first; the host's handle may be stale
        // if GC moved it, in which case the pending upcall names the
        // current location — apply it and free that instead. No pending
        // upcall means the old version is already gone (freed by an
        // earlier drain, or its block was retired): the free is
        // idempotent-by-intent and skipping it is the correct action.
        if let Some(old) = prev {
            if self.free(now, old, tag).is_err() {
                let cur = self.upcalls_pending().iter().rev().find_map(|u| match u {
                    Upcall::Migrated { tag: t, new, .. } if *t == tag => Some(*new),
                    _ => None,
                });
                if let Some(cur) = cur {
                    let _ = self.free(now, cur, tag);
                }
            }
        }
        match self.write(now, tag) {
            Ok(w) => UpdateOutcome {
                handle: Some(w.name),
                done: w.done,
                status: w.status,
            },
            Err(_) => UpdateOutcome {
                handle: None,
                done: now,
                status: IoStatus::Rejected,
            },
        }
    }

    fn fetch(&mut self, now: SimTime, tag: u64, handle: PhysName) -> (SimTime, IoStatus) {
        match self.read(now, handle, tag) {
            Ok((done, _lat, status)) => (done, status),
            // stale name: the host must drain its relocation upcalls
            Err(_) => (now, IoStatus::Rejected),
        }
    }

    fn discard(&mut self, now: SimTime, tag: u64, handle: PhysName) -> (SimTime, IoStatus) {
        match self.free(now, handle, tag) {
            Ok(done) => (done, IoStatus::Ok),
            // stale name: the page already moved; the live copy (named
            // by a pending upcall) is untouched
            Err(_) => (now, IoStatus::Rejected),
        }
    }

    fn commit_batch(
        &mut self,
        now: SimTime,
        tags: &[u64],
        prev: &[Option<PhysName>],
    ) -> CommitOutcome<PhysName> {
        // out-of-place by construction: write every new version first
        // (old names stay valid — a crash before the index swap leaves
        // the old batch intact), then release the old versions. A write
        // refusal mid-batch aborts before any old version is freed, so
        // the previous batch stays fully intact: atomicity holds even
        // on failure.
        let mut names = Vec::with_capacity(tags.len());
        let mut done = now;
        let mut status = IoStatus::Ok;
        for &tag in tags {
            match self.write(now, tag) {
                Ok(w) => {
                    done = done.max(w.done);
                    status = status.combine(w.status);
                    names.push(w.name);
                }
                Err(_) => {
                    return CommitOutcome {
                        handles: Vec::new(),
                        done,
                        status: IoStatus::Rejected,
                    };
                }
            }
        }
        for (i, &tag) in tags.iter().enumerate() {
            if let Some(old) = prev[i] {
                let _ = self.free(done, old, tag); // stale = already moved
            }
        }
        CommitOutcome {
            handles: names,
            done,
            status,
        }
    }

    fn drain_relocations(&mut self) -> Vec<Relocation<PhysName>> {
        self.upcalls()
            .drain()
            .into_iter()
            .filter_map(|u| match u {
                Upcall::Migrated { tag, new, at, .. } => Some(Relocation { tag, new, at }),
                _ => None,
            })
            .collect()
    }

    fn drain_time(&self) -> SimTime {
        NamelessSsd::drain_time(self)
    }

    fn device_metrics(&self) -> DeviceMetrics {
        let m = self.metrics();
        DeviceMetrics {
            host_writes: m.host_writes,
            host_reads: m.host_reads,
            flash_programs: m.flash_programs.total(),
            flash_reads: m.flash_reads.total(),
            flash_erases: m.flash_erases.total(),
            gc_pages_moved: m.gc_pages_moved,
            gc_runs: m.gc_runs,
            mapping_ram_bytes: self.mapping_table_bytes(),
            upcalls_delivered: self.upcalls_pending().delivered(),
        }
    }
}

// ---------------------------------------------------------------------
// generic harness: the workload that used to be copy-pasted per device
// ---------------------------------------------------------------------

/// What [`tag_churn`] measured during its churn phase.
#[derive(Debug, Clone, Copy)]
pub struct ChurnReport {
    /// Rewrites issued during the churn phase.
    pub rewrites: u64,
    /// Wall-clock of the churn phase.
    pub makespan: SimDuration,
    /// Counter deltas over the churn phase.
    pub delta: DeviceMetrics,
    /// Host MB/s during churn (4 KiB pages).
    pub throughput_mbs: f64,
    /// Rewrites the device refused (`IoStatus::Rejected`) — 0 on a
    /// healthy run; a nonzero count means the device ran out of space.
    pub rejected: u64,
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Fill `live_fraction` of the device's usable tags, then rewrite random
/// tags for `drive_fills` passes over the live set, applying relocation
/// upcalls as they arrive. The identical loop runs against every
/// [`DeviceInterface`] implementation — interface differences are the
/// *only* variable.
pub fn tag_churn<D: DeviceInterface>(
    dev: &mut D,
    live_fraction: f64,
    drive_fills: u64,
    seed: u64,
) -> ChurnReport {
    let live = (dev.usable_tags() as f64 * live_fraction) as u64;
    assert!(live > 0, "empty live set");
    let mut handles: Vec<Option<D::Handle>> = vec![None; live as usize];
    let mut t = SimTime::ZERO;
    let mut rejected = 0u64;
    for tag in 0..live {
        let out = dev.update(t, tag, None);
        if let Some(h) = out.handle {
            handles[tag as usize] = Some(h);
        } else {
            rejected += 1;
        }
        t = out.done;
    }
    let t0 = t;
    let before = dev.device_metrics();
    let rewrites = drive_fills * live;
    let mut x = seed;
    for _ in 0..rewrites {
        x = lcg(x);
        let tag = x % live;
        for r in dev.drain_relocations() {
            if r.tag < live {
                handles[r.tag as usize] = Some(r.new);
            }
        }
        let out = dev.update(t, tag, handles[tag as usize]);
        if let Some(h) = out.handle {
            handles[tag as usize] = Some(h);
        } else {
            rejected += 1;
        }
        t = out.done;
    }
    for r in dev.drain_relocations() {
        if r.tag < live {
            handles[r.tag as usize] = Some(r.new);
        }
    }
    let delta = dev.device_metrics().since(&before);
    let makespan = t.since(t0);
    let secs = makespan.as_secs_f64();
    ChurnReport {
        rewrites,
        makespan,
        delta,
        throughput_mbs: if secs > 0.0 {
            delta.host_writes as f64 * 4096.0 / (1024.0 * 1024.0) / secs
        } else {
            0.0
        },
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_ssd::SsdConfig;

    use crate::nameless::NamelessConfig;

    fn small_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::modern();
        cfg.buffer.capacity_pages = 0;
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        cfg
    }

    /// The generic loop a host would actually run: update, remember the
    /// handle, fetch it back — for each interface.
    fn round_trip<D: DeviceInterface>(dev: &mut D) {
        let w = dev.update(SimTime::ZERO, 7, None);
        assert_eq!(w.status, IoStatus::Ok, "{}: clean write", dev.label());
        let h = w.handle.expect("clean write returns a handle");
        let (read_done, status) = dev.fetch(w.done, 7, h);
        assert_eq!(status, IoStatus::Ok, "{}: clean media", dev.label());
        assert!(read_done > w.done, "{}: fetch must take time", dev.label());
        let w2 = dev.update(read_done, 7, Some(h));
        assert!(w2.done > read_done);
        let h2 = w2.handle.expect("clean rewrite returns a handle");
        let (end, st) = dev.discard(w2.done, 7, h2);
        assert_eq!(st, IoStatus::Ok, "{}: live discard accepted", dev.label());
        assert!(end >= w2.done);
        let m = dev.device_metrics();
        assert_eq!(m.host_writes, 2);
        assert_eq!(m.host_reads, 1);
    }

    #[test]
    fn round_trip_on_every_interface() {
        round_trip(&mut Ssd::new(small_cfg()));
        round_trip(&mut ExtendedSsd::new(Ssd::new(small_cfg())));
        round_trip(&mut NamelessSsd::new(NamelessConfig::from(&small_cfg())));
    }

    #[test]
    fn commit_batch_io_cost_ranks_interfaces() {
        let tags: Vec<u64> = (0..8).collect();
        let prev: Vec<Option<Lpn>> = vec![None; 8];

        let mut blk = Ssd::new(small_cfg());
        let cb = blk.commit_batch(SimTime::ZERO, &tags, &prev);
        assert_eq!(cb.status, IoStatus::Ok);
        assert_eq!(cb.handles.len(), 8);
        let mut ext = ExtendedSsd::new(Ssd::new(small_cfg()));
        let ce = ext.commit_batch(SimTime::ZERO, &tags, &prev);
        assert_eq!(ce.status, IoStatus::Ok);
        let mut nl = NamelessSsd::new(NamelessConfig::from(&small_cfg()));
        let nprev: Vec<Option<PhysName>> = vec![None; 8];
        let cn = nl.commit_batch(SimTime::ZERO, &tags, &nprev);
        assert_eq!(cn.status, IoStatus::Ok);
        assert_eq!(cn.handles.len(), 8);

        // journal pays 2x; the other two pay 1x
        assert_eq!(blk.device_metrics().flash_programs, 16);
        assert_eq!(ext.device_metrics().flash_programs, 8);
        assert_eq!(nl.device_metrics().flash_programs, 8);
    }

    #[test]
    fn device_full_surfaces_as_rejected_not_panic() {
        let mut d = NamelessSsd::new(NamelessConfig::from(&small_cfg()));
        let raw = d.config().shape.total_luns() as u64 * d.config().flash.geometry.total_pages();
        let mut t = SimTime::ZERO;
        let mut saw_reject = false;
        // distinct tags, never freed: the device must eventually refuse
        // with a typed status instead of panicking (satellite 1)
        for tag in 0..raw * 2 {
            let out = d.update(t, tag, None);
            t = out.done;
            if out.handle.is_none() {
                assert_eq!(out.status, IoStatus::Rejected);
                saw_reject = true;
                break;
            }
        }
        assert!(saw_reject, "overfilled device must reject");
    }

    #[test]
    fn churn_applies_relocations_and_stays_consistent() {
        let mut dev = NamelessSsd::new(NamelessConfig::from(&small_cfg()));
        let r = tag_churn(&mut dev, 0.9, 2, 99);
        assert_eq!(r.rejected, 0, "healthy churn rejects nothing");
        assert!(r.delta.gc_runs > 0, "churn must trigger GC");
        assert!(
            r.delta.upcalls_delivered > 0,
            "GC migrations must reach the host"
        );
        assert!(r.throughput_mbs > 0.0);
    }

    #[test]
    fn same_churn_on_block_interface_reports_no_upcalls() {
        let mut dev = Ssd::new(small_cfg());
        let r = tag_churn(&mut dev, 1.0, 2, 99);
        assert!(r.delta.gc_pages_moved > 0, "GC moved pages…");
        assert_eq!(
            r.delta.upcalls_delivered, 0,
            "…but the block interface cannot say so"
        );
        assert!(r.delta.mapping_ram_bytes > 0, "and it pays mapping RAM");
    }
}
