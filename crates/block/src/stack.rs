//! The composed I/O stack: cores → queues → device → completions.
//!
//! Models the three block-layer design axes §2.2 names:
//!
//! * **queue structure** — one shared request queue (lock contention
//!   across cores) vs per-core queues (blk-mq);
//! * **completion mode** — interrupt (core freed during device time, pays
//!   IRQ + context switch) vs polling (core spins, no IRQ cost — the
//!   low-latency-networking technique P3 imports);
//! * **path cost** — disk-era vs streamlined CPU costs.
//!
//! Two host interfaces sit on top:
//!
//! * [`IoStack::submit`] — the serialized path: one command through the
//!   whole stack, completion observed before the next submit. This is
//!   the pre-queue-pair behaviour, preserved bit-for-bit.
//! * [`IoStack::submit_batch`] / [`IoStack::poll_completions`] — the
//!   queue-pair path: a batch of typed [`IoRequest`]s rings the doorbell
//!   once, then each command rides its core's [`QueuePair`] — up to the
//!   configured in-flight window of commands run on the device
//!   concurrently, and completions are reaped out of submission order
//!   (interrupt coalescing: one IRQ + context switch per reap, not per
//!   command). Neither allocates: tags ride on the requests, and a reap
//!   lends its completions out of a buffer the stack keeps ([`Reaped`]).
//!   [`IoStack::reap_into`] is the one reap loop underneath, for a caller
//!   that keeps its own buffer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use requiem_sim::resource::Grant;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, Histogram, Layer, Probe, QueuePair, Resource, ResourceBank};

use crate::backend::{BackendOp, CommandId, IoRequest, IoStatus, StorageBackend};
use crate::cpu::CpuCosts;

/// Request-queue structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// One shared queue; every core serializes on its lock.
    Single,
    /// A queue per core (blk-mq): no cross-core contention.
    PerCore,
}

/// How completions reach the issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// Device raises an interrupt; the core pays IRQ + context switch.
    Interrupt,
    /// The core polls: busy from doorbell to completion, no IRQ.
    Polling,
}

/// Default device-side in-flight window (queue depth) for the batch
/// path — NVMe-ish, deep enough to saturate a single channel.
pub const DEFAULT_INFLIGHT_WINDOW: usize = 16;

/// Stack configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackConfig {
    /// Number of CPU cores submitting I/O.
    pub cores: u32,
    /// Queue structure.
    pub queue_mode: QueueMode,
    /// Completion mode.
    pub completion: CompletionMode,
    /// Per-stage CPU costs.
    pub cpu: CpuCosts,
}

impl StackConfig {
    /// Legacy single-queue, interrupt-driven, disk-era costs.
    pub fn legacy(cores: u32) -> Self {
        StackConfig {
            cores,
            queue_mode: QueueMode::Single,
            completion: CompletionMode::Interrupt,
            cpu: CpuCosts::disk_era(),
        }
    }

    /// Modern multi-queue, interrupt-driven, streamlined costs.
    pub fn blk_mq(cores: u32) -> Self {
        StackConfig {
            cores,
            queue_mode: QueueMode::PerCore,
            completion: CompletionMode::Interrupt,
            cpu: CpuCosts::streamlined(),
        }
    }

    /// The bare device: [`blk_mq`](Self::blk_mq) with every CPU stage at
    /// zero, so a command costs exactly its device time. Completion stays
    /// interrupt-driven — a polling core would be held for the device
    /// time.
    pub fn bare(cores: u32) -> Self {
        let zero = SimDuration::ZERO;
        StackConfig {
            cpu: CpuCosts {
                submit: zero,
                queue_lock: zero,
                doorbell: zero,
                interrupt: zero,
                context_switch: zero,
                complete: zero,
            },
            ..Self::blk_mq(cores)
        }
    }
}

/// Completion of one I/O through the stack.
#[derive(Debug, Clone, Copy)]
pub struct StackCompletion {
    /// Host tag of the completed command.
    pub tag: CommandId,
    /// Instant the issuer observed completion.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Device-resident portion of the latency.
    pub device_time: SimDuration,
    /// How the device fared: clean, recovered after retries, lost the
    /// data, or refused the command outright.
    pub status: IoStatus,
}

/// The completions one [`IoStack::poll_completions`] reaped, in reap
/// order, lent out of a buffer the stack keeps: it derefs to
/// `[StackCompletion]` and iterates by reference, and lives until the
/// stack is next used.
#[derive(Debug, Clone, Copy)]
pub struct Reaped<'a>(&'a [StackCompletion]);

impl std::ops::Deref for Reaped<'_> {
    type Target = [StackCompletion];

    fn deref(&self) -> &[StackCompletion] {
        self.0
    }
}

impl<'a> IntoIterator for &Reaped<'a> {
    type Item = &'a StackCompletion;
    type IntoIter = std::slice::Iter<'a, StackCompletion>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One command in flight between `submit_batch` and `poll_completions`:
/// the device has finished (or will finish) at `dev_done`, but the host
/// has not reaped it yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    tag: CommandId,
    probe_id: u64,
    submitted: SimTime,
    dev_done: SimTime,
    device_time: SimDuration,
    status: IoStatus,
}

/// Aggregated result of a stack run.
#[derive(Debug, Clone)]
pub struct StackReport {
    /// I/Os completed.
    pub ios: u64,
    /// I/Os per second of virtual time.
    pub iops: f64,
    /// Latency distribution.
    pub latency: Histogram,
    /// Mean share of end-to-end latency spent in software (1 − device/total).
    pub software_share: f64,
    /// Makespan of the run.
    pub makespan: SimDuration,
}

/// The composed stack over a backend.
pub struct IoStack<B: StorageBackend> {
    cfg: StackConfig,
    backend: B,
    cores: ResourceBank,
    queues: Vec<Resource>,
    probe: Probe,
    latency: Histogram,
    /// Accumulated device-side busy time across all completed I/Os.
    device_busy: SimDuration,
    /// Accumulated end-to-end latency across all completed I/Os.
    total_latency: SimDuration,
    ios: u64,
    /// The queue-pair path's queue pairs, one per core: each submission
    /// context bounds its own outstanding commands, so shards on
    /// different cores throttle independently.
    qps: Vec<QueuePair<Pending>>,
    /// The buffer [`IoStack::poll_completions`] reaps into and lends out.
    reaped: Vec<StackCompletion>,
}

impl<B: StorageBackend> std::fmt::Debug for IoStack<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoStack")
            .field("backend", &self.backend.label())
            .field("cores", &self.cfg.cores)
            .field("ios", &self.ios)
            .finish()
    }
}

impl<B: StorageBackend> IoStack<B> {
    /// Build a stack over `backend`.
    pub fn new(cfg: StackConfig, backend: B) -> Self {
        let nq = match cfg.queue_mode {
            QueueMode::Single => 1,
            QueueMode::PerCore => cfg.cores as usize,
        };
        IoStack {
            cores: ResourceBank::new("core", cfg.cores as usize),
            qps: (0..cfg.cores)
                .map(|_| QueuePair::new(DEFAULT_INFLIGHT_WINDOW))
                .collect(),
            queues: (0..nq).map(|i| Resource::new(format!("q{i}"))).collect(),
            cfg,
            backend,
            probe: Probe::disabled(),
            latency: Histogram::new(),
            device_busy: SimDuration::ZERO,
            total_latency: SimDuration::ZERO,
            ios: 0,
            reaped: Vec::new(),
        }
    }

    /// Set the device-side in-flight window (NVMe queue depth) used by
    /// the batch path. Call before submitting; defaults to
    /// [`DEFAULT_INFLIGHT_WINDOW`]. A window of 1 serializes the device
    /// exactly like [`IoStack::submit`].
    pub fn set_inflight_window(&mut self, depth: usize) {
        for qp in self.qps.iter_mut() {
            qp.resize(depth);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Access the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. preconditioning).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Attach a cross-layer [`Probe`]: the stack opens one command per
    /// `submit` and emits `Block`-layer spans (submission-path CPU,
    /// queue-lock waits, doorbell, completion); the same probe is handed
    /// down to the backend so a self-reporting device (the SSD) fills in
    /// the device interval with its own controller/channel/flash spans.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.backend.attach_probe(probe.clone());
        self.probe = probe;
    }

    /// Emit a wait span `[from, start)` (queueing on a software resource)
    /// followed by a busy span `[start, end)` of CPU-path overhead, into
    /// an already-open batch.
    fn batch_stage(
        batch: &mut requiem_sim::SpanBatch<'_>,
        res: &str,
        from: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
        if start > from {
            batch.span(Layer::Block, Cause::Queue, res, from, start);
        }
        if end > start {
            batch.span(Layer::Block, Cause::Overhead, res, start, end);
        }
    }

    /// Emit the submit-path stage spans of one command — core slice,
    /// queue-lock slice, doorbell slice — through a single probe borrow
    /// instead of up to six.
    fn span_submit_stages(
        &self,
        core: usize,
        q: usize,
        now: SimTime,
        g_submit: &Grant,
        g_lock: &Grant,
        g_bell: &Grant,
    ) {
        let Some(mut batch) = self.probe.batch() else {
            return;
        };
        let (core_res, q_res) = (self.cores.get(core).name(), self.queues[q].name());
        Self::batch_stage(&mut batch, core_res, now, g_submit.start, g_submit.end);
        Self::batch_stage(&mut batch, q_res, g_submit.end, g_lock.start, g_lock.end);
        Self::batch_stage(&mut batch, core_res, g_lock.end, g_bell.start, g_bell.end);
    }

    /// Index of the request queue `core` uses.
    fn queue_of(&self, core: usize) -> usize {
        match self.cfg.queue_mode {
            QueueMode::Single => 0,
            QueueMode::PerCore => core,
        }
    }

    /// Submit one typed I/O from `core` at `now`, serialized: the caller
    /// observes the completion before it can submit again. This is the
    /// pre-queue-pair path, preserved bit-for-bit.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn submit(&mut self, now: SimTime, core: usize, req: IoRequest) -> StackCompletion {
        assert!(core < self.cfg.cores as usize, "core out of range");
        let tag = self.qps[core].assign_tag(req.tag);
        let cpu = &self.cfg.cpu;
        let probing = self.probe.is_enabled();
        let scope = self.probe.open_command(req.op.as_str(), now);
        // 1. submission path on the core
        let g_submit = self.cores.get_mut(core).reserve(now, cpu.submit);
        // 2. request-queue lock (the contention point in single-queue mode)
        let q = self.queue_of(core);
        let g_lock = self.queues[q].reserve(g_submit.end, cpu.queue_lock);
        // 3. doorbell
        let g_bell = self.cores.get_mut(core).reserve(g_lock.end, cpu.doorbell);
        if probing {
            self.span_submit_stages(core, q, now, &g_submit, &g_lock, &g_bell);
        }
        // 4. device — a self-reporting backend decomposes this interval
        // itself (the probe joined the open command); an opaque one gets
        // the single block-interface span the paper complains about
        let dev_c = self.backend.submit(g_bell.end, req);
        let dev_done = dev_c.done;
        let device_time = dev_done.since(g_bell.end);
        if probing && !self.backend.self_reporting() && dev_done > g_bell.end {
            self.probe.span(
                Layer::Block,
                Cause::Transfer,
                self.backend.label(),
                g_bell.end,
                dev_done,
            );
        }
        // 5. completion
        let done = match self.cfg.completion {
            CompletionMode::Polling => {
                // core spins through device time, then completes
                let spin = dev_done.since(g_bell.end) + cpu.complete;
                self.cores.get_mut(core).reserve(g_bell.end, spin).end
            }
            CompletionMode::Interrupt => {
                self.cores
                    .get_mut(core)
                    .reserve(dev_done, cpu.interrupt + cpu.context_switch + cpu.complete)
                    .end
            }
        };
        if probing && done > dev_done {
            // interrupt + context switch + complete (or the polled
            // completion tail); core waits fold into the same interval
            self.probe
                .span(Layer::Block, Cause::Overhead, "irq", dev_done, done);
        }
        scope.close(done);
        let latency = done.since(now);
        self.latency.record_duration(latency);
        self.device_busy += device_time;
        self.total_latency += latency;
        self.ios += 1;
        StackCompletion {
            tag,
            done,
            latency,
            device_time,
            status: dev_c.status,
        }
    }

    /// Submit a batch of typed I/Os from `core` at `now` without waiting
    /// for any of them: the queue-pair path.
    ///
    /// The batch pays the submission-path CPU once **per command** but
    /// takes the request-queue lock and rings the doorbell once **per
    /// batch** — the blk-mq plugging optimisation. After the doorbell,
    /// each command waits in the submission queue until the device-side
    /// in-flight window admits it (at most `window` commands run on the
    /// device at once; see [`IoStack::set_inflight_window`]), then runs
    /// the device path. Completions accumulate in `core`'s completion
    /// queue; reap them with [`IoStack::poll_completions`].
    ///
    /// Tags ride on the requests: a command's completion carries its
    /// request's tag, or, when that is unassigned, the next tag of
    /// `core`'s queue-pair counter. Probe note: shared batch costs (lock,
    /// doorbell, IRQ) are attributed to *each* command they cover, so
    /// per-command span tiling holds; aggregate block-layer totals
    /// therefore count a shared interval once per covered command.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn submit_batch(&mut self, now: SimTime, core: usize, reqs: &[IoRequest]) {
        assert!(core < self.cfg.cores as usize, "core out of range");
        if reqs.is_empty() {
            return;
        }
        let CpuCosts {
            submit,
            queue_lock,
            doorbell,
            ..
        } = self.cfg.cpu;
        let probing = self.probe.is_enabled();
        // 1. per-command submission path on the core: a FIFO timeline,
        // so the slices run back to back from the first one's start
        let first = self.cores.get_mut(core).reserve(now, submit);
        let mut batch_ready = first.end;
        for _ in 1..reqs.len() {
            batch_ready = self.cores.get_mut(core).reserve(now, submit).end;
        }
        debug_assert_eq!(batch_ready, first.start + submit * reqs.len() as u64);
        // 2. one queue-lock acquisition for the whole batch
        let q = self.queue_of(core);
        let g_lock = self.queues[q].reserve(batch_ready, queue_lock);
        // 3. one doorbell for the whole batch
        let g_bell = self.cores.get_mut(core).reserve(g_lock.end, doorbell);
        for (i, req) in reqs.iter().enumerate() {
            // Open this command's probe record for the submit path and
            // tile [now, bell) with its share of the batch: its own core
            // slice, then the shared lock + doorbell.
            let scope = self.probe.open_command(req.op.as_str(), now);
            if probing {
                let start = first.start + submit * i as u64;
                let g_submit = Grant {
                    start,
                    end: start + submit,
                };
                self.span_submit_stages(core, q, now, &g_submit, &g_lock, &g_bell);
            }
            // 4. the core's queue pair: SQ residency until a window slot
            // (and any same-LBA predecessor) frees up, then 5. the device
            // path at the admit instant
            let (backend, probe) = (&mut self.backend, &self.probe);
            self.qps[core].submit(probe, g_bell.end, req.tag, req.lba, |tag, admit| {
                let dev_c = backend.submit(admit, *req);
                let dev_done = dev_c.done;
                if probing && !backend.self_reporting() && dev_done > admit {
                    probe.span(
                        Layer::Block,
                        Cause::Transfer,
                        backend.label(),
                        admit,
                        dev_done,
                    );
                }
                let pending = Pending {
                    tag,
                    // the command stays open until its completion is reaped
                    probe_id: scope.detach(),
                    submitted: now,
                    dev_done,
                    device_time: dev_done.since(admit),
                    status: dev_c.status,
                };
                (dev_done, pending)
            });
        }
    }

    /// Reap every completion ready on `core`'s completion queue at
    /// `now`, earliest device-finish first (generally **not** submission
    /// order). Interrupt mode pays one IRQ + context switch for the
    /// whole reap (interrupt coalescing) plus the per-command completion
    /// path; polling mode pays only the per-command completion path.
    ///
    /// The reaped batch is lent out of a buffer the stack keeps and
    /// reuses, so a reap allocates nothing once the buffer has grown to
    /// the deepest batch; it is empty when nothing was ready.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn poll_completions(&mut self, now: SimTime, core: usize) -> Reaped<'_> {
        let mut reaped = std::mem::take(&mut self.reaped);
        reaped.clear();
        self.reap_into(now, core, &mut reaped);
        self.reaped = reaped;
        Reaped(&self.reaped)
    }

    /// The reap loop under [`IoStack::poll_completions`], into a buffer
    /// the caller keeps: the reaped completions are appended to `out`,
    /// and a reap that finds nothing ready touches neither `out` nor the
    /// core.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn reap_into(&mut self, now: SimTime, core: usize, out: &mut Vec<StackCompletion>) {
        assert!(core < self.cfg.cores as usize, "core out of range");
        if !self.qps[core].next_done().is_some_and(|d| d <= now) {
            return;
        }
        let cpu = &self.cfg.cpu;
        let probing = self.probe.is_enabled();
        // Interrupt coalescing: one IRQ + context switch per reap.
        let mut cursor = match self.cfg.completion {
            CompletionMode::Interrupt => {
                self.cores
                    .get_mut(core)
                    .reserve(now, cpu.interrupt + cpu.context_switch)
                    .end
            }
            CompletionMode::Polling => now,
        };
        for p in self.qps[core].ready(now) {
            let g = self.cores.get_mut(core).reserve(cursor, cpu.complete);
            cursor = g.end;
            let done = g.end;
            if probing && p.probe_id != 0 {
                let scope = self.probe.resume(p.probe_id);
                if let Some(mut batch) = self.probe.batch() {
                    // CQ residency (includes the shared IRQ interval — it
                    // is wait time from this command's point of view) …
                    if g.start > p.dev_done {
                        batch.span(Layer::Block, Cause::Queue, "cq", p.dev_done, g.start);
                    }
                    // … then this command's completion slice.
                    if done > g.start {
                        batch.span(Layer::Block, Cause::Overhead, "irq", g.start, done);
                    }
                }
                scope.close(done);
            }
            let latency = done.since(p.submitted);
            self.latency.record_duration(latency);
            self.device_busy += p.device_time;
            self.total_latency += latency;
            self.ios += 1;
            out.push(StackCompletion {
                tag: p.tag,
                done,
                latency,
                device_time: p.device_time,
                status: p.status,
            });
        }
    }

    /// Instant the earliest pending completion on `core`'s completion
    /// queue becomes reapable (`None` when nothing is in flight).
    pub fn next_completion_time(&self, core: usize) -> Option<SimTime> {
        self.qps[core].next_done()
    }

    /// Run a closed loop with one outstanding I/O **per core**, all cores
    /// driving the shared device; `next_lba` maps (core, index) to an
    /// address. This is the multi-core scaling harness of E9.
    pub fn run_per_core_loop(
        &mut self,
        ops_per_core: u64,
        op: BackendOp,
        mut next_lba: impl FnMut(usize, u64) -> u64,
        start_at: SimTime,
    ) -> StackReport {
        let cores = self.cfg.cores as usize;
        let mut heap: BinaryHeap<Reverse<(SimTime, usize, u64)>> = BinaryHeap::new();
        for c in 0..cores {
            heap.push(Reverse((start_at, c, 0)));
        }
        let mut last_done = start_at;
        let before_ios = self.ios;
        let mut lat = Histogram::new();
        while let Some(Reverse((t, core, i))) = heap.pop() {
            if i >= ops_per_core {
                continue;
            }
            let lba = next_lba(core, i);
            let c = self.submit(t, core, IoRequest::new(op, lba));
            lat.record_duration(c.latency);
            last_done = last_done.max(c.done);
            heap.push(Reverse((c.done, core, i + 1)));
        }
        let ios = self.ios - before_ios;
        let makespan = last_done.since(start_at);
        let secs = makespan.as_secs_f64().max(1e-12);
        StackReport {
            ios,
            iops: ios as f64 / secs,
            latency: lat,
            software_share: self.software_share(),
            makespan,
        }
    }

    /// Mean fraction of end-to-end latency spent outside the device.
    pub fn software_share(&self) -> f64 {
        if self.total_latency.is_zero() {
            return 0.0;
        }
        1.0 - self.device_busy / self.total_latency
    }

    /// Latency distribution.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, DiskConfig};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use requiem_ssd::{Ssd, SsdConfig};

    fn ssd_stack(cfg: StackConfig) -> IoStack<Ssd> {
        IoStack::new(cfg, Ssd::new(SsdConfig::modern()))
    }

    #[test]
    fn software_share_tiny_on_disk_large_on_ssd() {
        // E9's core claim in miniature
        let mut disk_stack =
            IoStack::new(StackConfig::legacy(1), Disk::new(DiskConfig::hdd_7200()));
        let mut t = SimTime::ZERO;
        let mut s = 99u64;
        for _ in 0..32 {
            s = (s.wrapping_mul(999983)) % (1 << 20);
            t = disk_stack.submit(t, 0, IoRequest::read(s)).done;
        }
        let disk_share = disk_stack.software_share();

        let mut ssd_stack = ssd_stack(StackConfig::legacy(1));
        let mut t = SimTime::ZERO;
        for lba in 0..32u64 {
            t = ssd_stack.submit(t, 0, IoRequest::write(lba)).done;
        }
        let ssd_share = ssd_stack.software_share();
        assert!(disk_share < 0.01, "disk software share {disk_share}");
        assert!(ssd_share > 0.2, "ssd software share {ssd_share}");
    }

    #[test]
    fn polling_cuts_latency_for_buffered_writes() {
        let mut irq = ssd_stack(StackConfig::blk_mq(1));
        let mut poll = ssd_stack(StackConfig {
            completion: CompletionMode::Polling,
            ..StackConfig::blk_mq(1)
        });
        let a = irq.submit(SimTime::ZERO, 0, IoRequest::write(0));
        let b = poll.submit(SimTime::ZERO, 0, IoRequest::write(0));
        assert!(
            b.latency < a.latency,
            "polling {} should beat interrupt {}",
            b.latency,
            a.latency
        );
    }

    #[test]
    fn single_queue_contends_across_cores() {
        // same workload, same device: per-core queues must beat the shared
        // queue once the device is fast enough that the lock is the
        // bottleneck. Use an NVMe-class host link (so the link does not
        // hide the lock) and the heavyweight disk-era lock cost.
        let cores = 16;
        // an idealized fast device so the flash array itself is not the
        // bottleneck — we are measuring the software lock here
        let fast_dev = || crate::backend::NullDevice {
            latency: requiem_sim::time::SimDuration::from_micros(5),
            pages: 1 << 20,
        };
        let mk = |mode| StackConfig {
            queue_mode: mode,
            completion: CompletionMode::Interrupt,
            cores,
            cpu: CpuCosts::disk_era(),
        };
        let mut sq = IoStack::new(mk(QueueMode::Single), fast_dev());
        let r_sq = sq.run_per_core_loop(
            64,
            BackendOp::Write,
            |c, i| (c as u64) * 1024 + i,
            SimTime::ZERO,
        );
        let mut mq = IoStack::new(mk(QueueMode::PerCore), fast_dev());
        let r_mq = mq.run_per_core_loop(
            64,
            BackendOp::Write,
            |c, i| (c as u64) * 1024 + i,
            SimTime::ZERO,
        );
        assert!(
            r_mq.iops > r_sq.iops * 1.2,
            "MQ {} should clearly beat SQ {}",
            r_mq.iops,
            r_sq.iops
        );
    }

    #[test]
    fn per_core_loop_counts() {
        let mut st = ssd_stack(StackConfig::blk_mq(4));
        let r = st.run_per_core_loop(
            16,
            BackendOp::Write,
            |c, i| (c as u64) * 64 + i,
            SimTime::ZERO,
        );
        assert_eq!(r.ios, 64);
        assert_eq!(r.latency.count(), 64);
        assert!(r.iops > 0.0);
    }

    #[test]
    #[should_panic(expected = "core out of range")]
    fn bad_core_panics() {
        let mut st = ssd_stack(StackConfig::blk_mq(2));
        st.submit(SimTime::ZERO, 5, IoRequest::read(0));
    }

    #[test]
    fn batch_path_completes_all_and_echoes_tags() {
        let mut st = ssd_stack(StackConfig::blk_mq(1));
        st.set_inflight_window(4);
        // even requests carry their own tag; odd ones take the queue
        // pair's counter, 1 to 4
        let reqs: Vec<IoRequest> = (0..8u64)
            .map(|i| match i % 2 {
                0 => IoRequest::write(i).tag(CommandId(100 + i)),
                _ => IoRequest::write(i),
            })
            .collect();
        st.submit_batch(SimTime::ZERO, 0, &reqs);
        // Nothing is reapable before the first device finish.
        assert!(st.poll_completions(SimTime::ZERO, 0).is_empty());
        let mut got: Vec<StackCompletion> = Vec::new();
        while let Some(t) = st.next_completion_time(0) {
            got.extend(st.poll_completions(t, 0).iter());
        }
        assert_eq!(got.len(), 8);
        // Completions surface in device order (non-decreasing done) and
        // cover exactly the submitted tags.
        for w in got.windows(2) {
            assert!(w[0].done <= w[1].done);
        }
        let mut seen: Vec<u64> = got.iter().map(|c| c.tag.0).collect();
        seen.sort();
        assert_eq!(seen, [1, 2, 3, 4, 100, 102, 104, 106]);
        assert_eq!(st.latency().count(), 8);
    }

    #[test]
    fn batch_beats_serialized_at_depth() {
        // Same 16 reads on the same device: the queue-pair path must
        // finish sooner than chaining on each completion.
        let precondition = |st: &mut IoStack<Ssd>| {
            let mut t = SimTime::ZERO;
            for lba in 0..16u64 {
                t = st
                    .backend_mut()
                    .write(t, requiem_ssd::Lpn(lba))
                    .unwrap()
                    .done;
            }
            t.max(st.backend().drain_time())
        };
        let mut serial = ssd_stack(StackConfig::blk_mq(1));
        let t0 = precondition(&mut serial);
        let mut t = t0;
        for lba in 0..16u64 {
            t = serial.submit(t, 0, IoRequest::read(lba)).done;
        }
        let serial_done = t;

        let mut batched = ssd_stack(StackConfig::blk_mq(1));
        let t0 = precondition(&mut batched);
        batched.set_inflight_window(16);
        let reqs: Vec<IoRequest> = (0..16u64).map(IoRequest::read).collect();
        batched.submit_batch(t0, 0, &reqs);
        let mut last = SimTime::ZERO;
        while let Some(t) = batched.next_completion_time(0) {
            for c in &batched.poll_completions(t, 0) {
                last = last.max(c.done);
            }
        }
        assert!(
            last < serial_done,
            "batched ({last}) should beat serialized ({serial_done})"
        );
    }

    /// The `Vec`-returning reap `poll_completions` once was: the reference
    /// its lent batch is held equal to.
    fn reap_vec<B: StorageBackend>(
        st: &mut IoStack<B>,
        now: SimTime,
        core: usize,
    ) -> Vec<StackCompletion> {
        let mut out = Vec::new();
        st.reap_into(now, core, &mut out);
        out
    }

    /// Every field of a completion, comparable.
    type Fields = (CommandId, SimTime, SimDuration, SimDuration, IoStatus);

    fn fields(c: &StackCompletion) -> Fields {
        (c.tag, c.done, c.latency, c.device_time, c.status)
    }

    /// `(op: 0 read, 1 write, 2 trim; lba; 1 if it carries its own tag)`.
    type Req = (u8, u64, u8);

    /// Where a poll lands: at the clock, before the next completion
    /// (reaps nothing); on the next completion (reaps part of the
    /// batch); or a second past the clock (reaps all of it, unless the
    /// device is more than a second behind).
    const POLL_EARLY: u8 = 0;
    const POLL_NEXT: u8 = 1;

    /// Rounds of one batch and the polls after it, then a drain.
    type Script = Vec<(Vec<Req>, Vec<u8>)>;

    /// What a run shows: every reaped completion in reap order, the
    /// latency histogram, and the software share's bits.
    type Run = (Vec<Fields>, Histogram, u64);

    /// Drive `script` through the batch path at window `depth`, reaping
    /// through the lent batch or through the reference.
    fn drive(depth: usize, polling: bool, script: &Script, lend: bool) -> Run {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        cfg.buffer.capacity_pages = 4;
        let stack_cfg = StackConfig {
            completion: if polling {
                CompletionMode::Polling
            } else {
                CompletionMode::Interrupt
            },
            ..StackConfig::blk_mq(1)
        };
        let mut st = IoStack::new(stack_cfg, Ssd::new(cfg));
        st.set_inflight_window(depth);
        let mut got = Vec::new();
        let mut reap = |st: &mut IoStack<Ssd>, at: SimTime| {
            let before = got.len();
            if lend {
                got.extend(st.poll_completions(at, 0).iter().map(fields));
            } else {
                got.extend(reap_vec(st, at, 0).iter().map(fields));
            }
            got.len() - before
        };
        let mut now = SimTime::ZERO;
        let mut explicit = 1u64 << 32;
        let mut reqs = Vec::new();
        for (batch, polls) in script {
            reqs.clear();
            for &(op, lba, tagged) in batch {
                let req = match op {
                    0 => IoRequest::read(lba),
                    1 => IoRequest::write(lba),
                    _ => IoRequest::trim(lba),
                };
                explicit += 1;
                reqs.push(if tagged == 1 {
                    req.tag(CommandId(explicit))
                } else {
                    req
                });
            }
            st.submit_batch(now, 0, &reqs);
            for &poll in polls {
                let at = match poll {
                    POLL_EARLY => now,
                    POLL_NEXT => st.next_completion_time(0).map_or(now, |t| t.max(now)),
                    _ => now + SimDuration::from_secs(1),
                };
                let n = reap(&mut st, at);
                assert!(poll != POLL_EARLY || n == 0, "an early poll reaps nothing");
                now = at;
            }
        }
        while let Some(t) = st.next_completion_time(0) {
            now = now.max(t);
            reap(&mut st, now);
        }
        let share = st.software_share().to_bits();
        (got, st.latency().clone(), share)
    }

    /// The tags `script`'s completions must carry: each request's own,
    /// or the next of the queue pair's counter when it has none.
    fn assigned_tags(script: &Script) -> Vec<u64> {
        let (mut explicit, mut counter) = (1u64 << 32, 0u64);
        let mut tags: Vec<u64> = script
            .iter()
            .flat_map(|(batch, _)| batch)
            .map(|&(_, _, tagged)| {
                explicit += 1;
                if tagged == 1 {
                    explicit
                } else {
                    counter += 1;
                    counter
                }
            })
            .collect();
        tags.sort_unstable();
        tags
    }

    fn script() -> impl Strategy<Value = Script> {
        let req = (0..3u8, 0..64u64, 0..2u8);
        let round = (vec(req, 1..17), vec(0..3u8, 0..4));
        vec(round, 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lent_batch_equals_the_vec_reap(
            depth in (0..4usize).prop_map(|i| [1, 2, 8, 16][i]),
            polling in 0..2u8,
            script in script(),
        ) {
            let lent = drive(depth, polling == 1, &script, true);
            let reference = drive(depth, polling == 1, &script, false);
            let mut tags: Vec<u64> = lent.0.iter().map(|f| f.0 .0).collect();
            tags.sort_unstable();
            prop_assert_eq!(tags, assigned_tags(&script));
            prop_assert_eq!(lent, reference);
        }
    }
}
