//! Laws of the QD-1 reference, and of the drained run it stands for.
//!
//! 1. **A QD-1 run does not depend on the depth limit.** One proptest
//!    drives each instantiation of the generic queue pair — the bare
//!    `Ssd`, the nameless device under the cooperating-logs manager, and
//!    the block stack's batch path — through the same seeded stream of
//!    reads and writes, keeping one command outstanding at a time, on a
//!    pair of depth 1 and on one of depth d ∈ {2, 8, 64}. With nothing
//!    else in flight the window is empty at every arrival, so the
//!    completion instants, the statuses and the probe's span count per
//!    command must be identical; the two devices must also replay their
//!    serialized references (`Ssd::io`, `CoopLogBackend::page_read`)
//!    exactly. A `StackConfig::bare` stack's synchronous `IoStack::submit`
//!    replays `Ssd::io` too, completions and spans: the bare block device
//!    is the stack with its CPU costs at zero, not a second backend.
//! 2. **The executor at QD 1 is `execute()`, on every storage manager.**
//!    `Database::execute` is the serialized reference: one transaction at
//!    a time, a force per commit. `run_concurrent` under
//!    `ExecConfig::serialized()` must end where an `execute()` loop ends —
//!    clock, stall ledger, both latency histograms, WAL forces and bytes,
//!    page reads and steal writes, PCM wear — over every manager (bare
//!    block device, vision, block stack, cooperating logs with and
//!    without the device buffer), both
//!    WAL media, with and without checkpoints, in a pool that steals and
//!    one that does not — and over a flash log whose k-th force fails,
//!    where both must also keep the same durable commits.
//! 3. **A drained run survives a crash bit for bit.** Once
//!    `run_concurrent` (or `ShardedDb::run`) returns, every commit it
//!    acknowledged is durable, so `crash()` + `recover()` leaves every
//!    `(page, slot)`'s visible owner where it was — at QD 1 with a force
//!    per commit and at QD 4 with batched forces. A crash with frames
//!    still dirty leaves every durable image's bytes as they were: a
//!    frame's redo reaches its page only by that page's write, and the
//!    log alone brings the frame's writes back.

use proptest::prelude::*;
use requiem::block::{IoStack, StackConfig};
use requiem::db::backend::{BackendStats, PersistenceBackend};
use requiem::db::engine::EngineStats;
use requiem::db::wal::Lsn;
use requiem::db::{
    BlockStackBackend, CommandTag, CoopLogBackend, Database, DbBuilder, DbConfig, ExecConfig,
    ForceFailed, GroupCommitPolicy, PageId, PageImage, PageRead, ReadShim, ShardedDb, TxnInput,
    WalBackend, WalConfig, WalForce, WalStats,
};
use requiem::iface::NamelessConfig;
use requiem::pcm::WearSnapshot;
use requiem::sim::time::SimTime;
use requiem::sim::{Cause, Histogram, IoStatus, Probe};
use requiem::ssd::{IoRequest, QueuePair, Ssd, SsdConfig};
use requiem::workload::oltp::{OltpConfig, OltpGen};
use requiem::workload::oltp_inputs;

/// What a run shows: each command's completion instant and status, in
/// order, and each probe command's span count.
type Run = (Vec<(SimTime, IoStatus)>, Vec<u32>);

const PAGES: u64 = 64;
const DEPTHS: [usize; 3] = [2, 8, 64];

/// `(write?, page)`, about one in three a write.
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0..3u8, 0..PAGES), 1..120)
}

/// 2 x 2 LUNs with a four-slot write buffer: reads hit RAM and flash.
fn ssd_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg.buffer.capacity_pages = 4;
    cfg
}

fn request(&(kind, page): &(u8, u64)) -> IoRequest {
    if kind == 0 {
        IoRequest::write(page)
    } else {
        IoRequest::read(page)
    }
}

fn spans(probe: &Probe) -> Vec<u32> {
    probe.commands_ref().iter().map(|r| r.spans).collect()
}

/// The bare SSD on a pair of depth `depth`, or through `Ssd::io`.
fn ssd(depth: Option<usize>, ops: &[(u8, u64)]) -> Run {
    let mut ssd = Ssd::new(ssd_cfg());
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    let mut qp = QueuePair::new(depth.unwrap_or(1));
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for op in ops {
        let c = match depth {
            Some(_) => {
                ssd.enqueue(&mut qp, now, request(op));
                qp.pop().expect("one command in flight")
            }
            None => ssd.io(now, request(op)).expect("served"),
        };
        now = c.done;
        out.push((c.done, c.status));
    }
    (out, spans(&probe))
}

/// The nameless device under the cooperating-logs manager: writes are
/// its synchronous page writes, reads ride its pair of depth `depth` or
/// go through `page_read`. A page never written is refused by the host.
fn nameless(depth: Option<usize>, ops: &[(u8, u64)]) -> Run {
    let mut b = CoopLogBackend::new(NamelessConfig::from(&ssd_cfg()), PAGES, 16);
    let probe = Probe::recording();
    b.attach_probe(probe.clone());
    b.set_read_window(depth.unwrap_or(1));
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for &(kind, page) in ops {
        let page = PageId(page);
        let (done, status) = match (kind, depth) {
            (0, _) => (b.page_write(now, page), IoStatus::Ok),
            (_, Some(_)) => {
                b.submit_reads(now, &[page]);
                let next = b.next_read_done().expect("one read in flight");
                let [r] = b.poll(next)[..] else {
                    panic!("one read completes")
                };
                (r.done, r.status)
            }
            (_, None) => b.page_read(now, page),
        };
        now = done;
        out.push((done, status));
    }
    (out, spans(&probe))
}

/// A bare stack's synchronous path: `IoStack::submit` on core 0.
fn bare_submit(ops: &[(u8, u64)]) -> Run {
    let mut st = IoStack::new(StackConfig::bare(1), Ssd::new(ssd_cfg()));
    let probe = Probe::recording();
    st.attach_probe(probe.clone());
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for op in ops {
        let c = st.submit(now, 0, request(op));
        now = c.done;
        out.push((c.done, c.status));
    }
    (out, spans(&probe))
}

/// The block stack's batch path, one-command batches on core 0.
fn stack(depth: usize, ops: &[(u8, u64)]) -> Run {
    let mut st = IoStack::new(StackConfig::blk_mq(1), Ssd::new(ssd_cfg()));
    let probe = Probe::recording();
    st.attach_probe(probe.clone());
    st.set_inflight_window(depth);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    for op in ops {
        st.submit_batch(now, 0, &[request(op)]);
        let next = st.next_completion_time(0).expect("one command in flight");
        let [c] = st.poll_completions(next, 0)[..] else {
            panic!("one command completes")
        };
        now = c.done;
        out.push((c.done, c.status));
    }
    (out, spans(&probe))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_qd1_run_does_not_depend_on_the_depth_limit(d in 0..DEPTHS.len(), ops in ops()) {
        let d = DEPTHS[d];
        let reference = ssd(None, &ops);
        prop_assert_eq!(&ssd(Some(1), &ops), &reference, "ssd at depth 1 vs Ssd::io");
        prop_assert_eq!(&ssd(Some(d), &ops), &reference, "ssd at depth {}", d);
        prop_assert_eq!(&bare_submit(&ops), &reference, "bare stack vs Ssd::io");

        let reference = nameless(None, &ops);
        prop_assert_eq!(&nameless(Some(1), &ops), &reference, "nameless at depth 1 vs page_read");
        prop_assert_eq!(&nameless(Some(d), &ops), &reference, "nameless at depth {}", d);

        prop_assert_eq!(stack(d, &ops), stack(1, &ops), "block stack at depth {}", d);
    }
}

// ---------------------------------------------------------------------
// Laws 2 and 3: the storage managers
// ---------------------------------------------------------------------

const DATA_PAGES: u64 = 64;
const LOG_PAGES: u64 = 32;
const SLOTS: u16 = 16;
/// Commits between checkpoints when a shape takes them: every input list
/// below is long enough for two.
const CHECKPOINT_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Manager {
    /// The bare block device: the block stack at `bare(1)`, zero CPU cost.
    Bare,
    Vision,
    /// The block stack at `blk_mq(1)`.
    Stack,
    /// Cooperating logs over the nameless device without its buffer.
    Coop,
    /// Cooperating logs over the nameless device with a write buffer.
    CoopBuffered,
}

const MANAGERS: [Manager; 5] = [
    Manager::Bare,
    Manager::Vision,
    Manager::Stack,
    Manager::Coop,
    Manager::CoopBuffered,
];

/// One engine configuration the laws run over.
#[derive(Debug, Clone, Copy)]
struct Shape {
    manager: Manager,
    pcm_wal: bool,
    checkpoints: bool,
    /// 8 frames (steals on most misses) or the whole database.
    small_pool: bool,
}

impl Shape {
    /// All 40: every manager × WAL medium × checkpoints × pool.
    fn all() -> impl Iterator<Item = Shape> {
        MANAGERS.into_iter().flat_map(|manager| {
            (0..8u8).map(move |bits| Shape {
                manager,
                pcm_wal: bits & 1 != 0,
                checkpoints: bits & 2 != 0,
                small_pool: bits & 4 != 0,
            })
        })
    }

    fn builder(&self) -> DbBuilder {
        DbConfig::builder()
            .data_pages(DATA_PAGES)
            .log_pages(LOG_PAGES)
            .buffer_frames(if self.small_pool {
                8
            } else {
                DATA_PAGES as usize
            })
            .checkpoint_every(if self.checkpoints {
                CHECKPOINT_EVERY
            } else {
                0
            })
            .wal(if self.pcm_wal {
                WalConfig::pcm()
            } else {
                WalConfig::Flash
            })
    }
}

/// A device small enough to build fast: 2 × 2 LUNs.
fn device(buffer_pages: u32) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg.buffer.capacity_pages = buffer_pages;
    cfg
}

/// Bind `$backend` to a closure that returns a fresh storage manager of
/// `shape`, then evaluate `$body`: generic code over the five managers.
macro_rules! with_backend {
    ($shape:expr, |$backend:ident| $body:expr) => {{
        let shape: Shape = $shape;
        match shape.manager {
            Manager::Bare => {
                let $backend = || {
                    BlockStackBackend::new(StackConfig::bare(1), device(0), DATA_PAGES, LOG_PAGES)
                };
                $body
            }
            Manager::Vision => {
                let $backend = || BlockStackBackend::vision(device(0), DATA_PAGES, 1 << 22);
                $body
            }
            Manager::Stack => {
                let $backend = || {
                    BlockStackBackend::new(StackConfig::blk_mq(1), device(0), DATA_PAGES, LOG_PAGES)
                };
                $body
            }
            Manager::Coop => {
                let $backend =
                    || CoopLogBackend::new(NamelessConfig::from(&device(0)), DATA_PAGES, LOG_PAGES);
                $body
            }
            Manager::CoopBuffered => {
                let $backend =
                    || CoopLogBackend::new(NamelessConfig::from(&device(4)), DATA_PAGES, LOG_PAGES);
                $body
            }
        }
    }};
}

/// Bind `$build` to a closure that returns a fresh, loaded database of
/// `shape`, then evaluate `$body`.
macro_rules! with_builder {
    ($shape:expr, |$build:ident| $body:expr) => {{
        let shape: Shape = $shape;
        with_backend!(shape, |backend| {
            let $build = || loaded(&shape, backend());
            $body
        })
    }};
}

/// A database of `shape` over `backend`, loaded.
fn loaded<B: PersistenceBackend>(shape: &Shape, backend: B) -> Database<B> {
    let mut db = Database::new(shape.builder().db_config(), backend);
    db.load();
    db
}

/// The log device of a [`FailingLog`]: its `fail_at`-th force (the
/// load's is the first) takes its time and comes back unrecoverable.
struct FailAt {
    inner: Box<dyn WalBackend>,
    forces: u64,
    fail_at: u64,
}

impl WalBackend for FailAt {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        self.inner.append(lsn, bytes)
    }
    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        let forced = self.inner.force(now, to);
        self.forces += 1;
        if self.forces != self.fail_at {
            return forced;
        }
        let (Ok(done) | Err(ForceFailed { done, .. })) = forced.settle();
        WalForce::new(done, IoStatus::Unrecoverable)
    }
    fn truncate(&mut self, now: SimTime, up_to_byte: u64) {
        self.inner.truncate(now, up_to_byte)
    }
    fn recover_scan(&mut self, now: SimTime, offset: u64, bytes: u32) -> (SimTime, IoStatus) {
        self.inner.recover_scan(now, offset, bytes)
    }
    fn stats(&self) -> &WalStats {
        self.inner.stats()
    }
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn force_cause(&self) -> Cause {
        self.inner.force_cause()
    }
    fn wear(&self) -> Option<WearSnapshot> {
        self.inner.wear()
    }
}

/// A storage manager whose log fails at its `fail_at`-th force.
struct FailingLog<B> {
    inner: B,
    fail_at: u64,
}

impl<B: PersistenceBackend> PersistenceBackend for FailingLog<B> {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        let inner = self.inner.make_wal();
        let fail_at = self.fail_at;
        Box::new(FailAt {
            inner,
            forces: 0,
            fail_at,
        })
    }
    fn page_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.inner.page_write(now, page)
    }
    fn steal_write(&mut self, now: SimTime, page: PageId) -> SimTime {
        self.inner.steal_write(now, page)
    }
    fn page_read(&mut self, now: SimTime, page: PageId) -> (SimTime, IoStatus) {
        self.inner.page_read(now, page)
    }
    fn page_batch(&mut self, now: SimTime, pages: &[PageId]) -> SimTime {
        self.inner.page_batch(now, pages)
    }
    fn free_page(&mut self, now: SimTime, page: PageId) {
        self.inner.free_page(now, page)
    }
    fn stats(&self) -> &BackendStats {
        self.inner.stats()
    }
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn attach_probe(&mut self, probe: Probe) {
        self.inner.attach_probe(probe)
    }
    fn relax_submit_order(&mut self) {
        self.inner.relax_submit_order()
    }
    fn read_shim(&mut self) -> Option<&mut ReadShim> {
        self.inner.read_shim()
    }
    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<CommandTag> {
        self.inner.submit_reads(now, pages)
    }
    fn poll(&mut self, now: SimTime) -> Vec<PageRead> {
        self.inner.poll(now)
    }
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<PageRead>) {
        self.inner.poll_into(now, out)
    }
    fn next_read_done(&mut self) -> Option<SimTime> {
        self.inner.next_read_done()
    }
    fn reads_in_flight(&mut self) -> usize {
        self.inner.reads_in_flight()
    }
    fn set_read_window(&mut self, depth: usize) {
        self.inner.set_read_window(depth)
    }
}

/// What the QD-1 law compares.
#[derive(Debug, PartialEq)]
struct Ending {
    clock: SimTime,
    stats: EngineStats,
    txn_latency: Histogram,
    commit_latency: Histogram,
    log_forces: u64,
    log_bytes: u64,
    page_reads: u64,
    steal_writes: u64,
    wear: Option<WearSnapshot>,
    durable_commits: Vec<u64>,
}

fn ending<B: PersistenceBackend>(db: &Database<B>) -> Ending {
    Ending {
        clock: db.now(),
        stats: db.stats().clone(),
        txn_latency: db.txn_latency().clone(),
        commit_latency: db.commit_latency().clone(),
        log_forces: db.wal_backend().stats().log_forces,
        log_bytes: db.wal_backend().stats().log_bytes,
        page_reads: db.backend().stats().page_reads,
        steal_writes: db.backend().stats().steal_writes,
        wear: db.wal_backend().wear(),
        durable_commits: db.wal().durable_commits(),
    }
}

/// Where an `execute()` loop ends, then where the executor at QD 1 ends,
/// each on a fresh database. A commit whose force failed is no outcome.
fn reference_and_executor<B: PersistenceBackend>(
    mut serial: Database<B>,
    mut executor: Database<B>,
    inputs: &[TxnInput],
) -> (Ending, Ending) {
    for t in inputs {
        serial.execute(&t.accesses, t.log_bytes).ok();
    }
    executor.run_concurrent(inputs, &ExecConfig::serialized());
    (ending(&serial), ending(&executor))
}

fn qd1_law(shape: Shape, inputs: &[TxnInput]) -> (Ending, Ending) {
    with_builder!(shape, |build| reference_and_executor(
        build(),
        build(),
        inputs
    ))
}

/// [`qd1_law`] over a log whose `fail_at`-th force fails.
fn faulted_qd1_law(shape: Shape, fail_at: u64, inputs: &[TxnInput]) -> (Ending, Ending) {
    with_backend!(shape, |backend| {
        let build = || {
            let inner = backend();
            loaded(&shape, FailingLog { inner, fail_at })
        };
        reference_and_executor(build(), build(), inputs)
    })
}

/// Every `(page, slot)`'s visible owner.
fn owners<B: PersistenceBackend>(db: &mut Database<B>) -> Vec<u64> {
    (0..DATA_PAGES)
        .flat_map(|p| (0..SLOTS).map(move |s| (p, s)))
        .map(|(p, s)| db.visible_owner(p, s))
        .collect()
}

/// QD 1 with a force per commit, or QD 4 with batched forces.
fn exec_config(qd4: bool) -> ExecConfig {
    if qd4 {
        ExecConfig {
            concurrency: 4,
            group: GroupCommitPolicy::batched(4),
            ..ExecConfig::serialized()
        }
    } else {
        ExecConfig::serialized()
    }
}

/// Owners after a drained run, and again after a crash and recovery.
fn crash_law(shape: Shape, qd4: bool, inputs: &[TxnInput]) -> (Vec<u64>, Vec<u64>) {
    with_builder!(shape, |build| {
        let mut db = build();
        db.run_concurrent(inputs, &exec_config(qd4));
        let before = owners(&mut db);
        db.crash();
        db.recover();
        (before, owners(&mut db))
    })
}

/// [`crash_law`] with the durable images checked across the crash: their
/// bytes before it (asserting some frame held a write they lack), then
/// the owners before and after crash + recovery.
fn dirty_crash_law(shape: Shape, qd4: bool, inputs: &[TxnInput]) -> (Vec<u64>, Vec<u64>) {
    with_builder!(shape, |build| {
        let mut db = build();
        db.run_concurrent(inputs, &exec_config(qd4));
        let before = owners(&mut db);
        let durable: Vec<PageImage> = (0..DATA_PAGES)
            .map(|p| db.durable_page(p).clone())
            .collect();
        let durable_owners: Vec<u64> = durable
            .iter()
            .flat_map(|page| (0..SLOTS).map(move |s| page.get(s).expect("formatted slot")))
            .map(|r| u64::from_le_bytes(r[..8].try_into().expect("8 bytes")))
            .collect();
        assert_ne!(durable_owners, before, "{shape:?}: no frame was dirty");
        db.crash();
        for (p, image) in (0..DATA_PAGES).zip(&durable) {
            assert_eq!(db.durable_page(p), image, "{shape:?}: page {p} changed");
        }
        db.recover();
        (before, owners(&mut db))
    })
}

/// The same over a sharded block stack.
fn sharded_crash_law(
    shards: usize,
    frames: usize,
    qd4: bool,
    inputs: &[TxnInput],
) -> (Vec<u64>, Vec<u64>) {
    let mut db = DbConfig::builder()
        .data_pages(DATA_PAGES)
        .log_pages(LOG_PAGES)
        .buffer_frames(frames)
        .checkpoint_every(CHECKPOINT_EVERY / 2)
        .shards(shards)
        .build_sharded_stack(StackConfig::blk_mq(shards as u32), device(0));
    db.run(inputs, &exec_config(qd4));
    let owners = |db: &mut ShardedDb<_>| -> Vec<u64> {
        let local = DATA_PAGES / shards as u64;
        (0..shards)
            .flat_map(|s| (0..local).flat_map(move |p| (0..SLOTS).map(move |slot| (s, p, slot))))
            .map(|(s, p, slot)| db.shard_mut(s).visible_owner(p, slot))
            .collect()
    };
    let before = owners(&mut db);
    db.crash();
    db.recover();
    (before, owners(&mut db))
}

fn arb_txn() -> impl Strategy<Value = TxnInput> {
    (
        proptest::collection::vec((0..DATA_PAGES, 0..SLOTS, 0u8..2), 1..6),
        32u32..512,
    )
        .prop_map(|(raw, log_bytes)| TxnInput {
            accesses: raw
                .into_iter()
                .map(|(page, slot, dirty)| (page, slot, dirty == 1))
                .collect(),
            log_bytes,
        })
}

/// At least two checkpoints' worth of transactions.
fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(), 2 * CHECKPOINT_EVERY as usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_executor_at_qd1_is_execute_on_every_manager(inputs in arb_inputs()) {
        for shape in Shape::all() {
            let (reference, executor) = qd1_law(shape, &inputs);
            prop_assert_eq!(reference.stats.wal_force_failures, 0, "{:?}", shape);
            prop_assert_eq!(executor, reference, "{:?}", shape);
        }
    }

    /// The law holds past a failed force too, on the 20 shapes whose log
    /// is the manager's (a PCM log is the engine's own DIMM): every input
    /// list forces at least 17 times (the load, a commit each), so the
    /// log fails in each run, at the load or after up to 14 commits.
    #[test]
    fn the_executor_at_qd1_is_execute_on_a_failing_log(
        inputs in arb_inputs(),
        fail_at in 1u64..16,
    ) {
        for shape in Shape::all().filter(|s| !s.pcm_wal) {
            let (reference, executor) = faulted_qd1_law(shape, fail_at, &inputs);
            prop_assert!(reference.stats.wal_force_failures > 0, "{:?}", shape);
            prop_assert!(reference.stats.commits < fail_at, "{:?}", shape);
            prop_assert_eq!(executor, reference, "{:?}, force {}", shape, fail_at);
        }
    }

    #[test]
    fn a_drained_run_survives_a_crash_bit_for_bit(inputs in arb_inputs()) {
        for qd4 in [false, true] {
            for shape in Shape::all() {
                let (before, after) = crash_law(shape, qd4, &inputs);
                prop_assert_eq!(after, before, "{:?}, QD 4: {}", shape, qd4);
            }
            // 8 frames over 4 shards steal on nearly every miss, inside
            // the window of a group force still in flight
            for (shards, frames) in [(2, 32), (4, 32), (2, 8), (4, 8)] {
                let (before, after) = sharded_crash_law(shards, frames, qd4, &inputs);
                prop_assert_eq!(after, before, "{} shards, {} frames, QD 4: {}", shards, frames, qd4);
            }
        }
    }
}

/// Law 3 with frames still dirty at the crash, on the bare, block-stack
/// and cooperating-logs managers.
#[test]
fn a_crash_with_dirty_frames_leaves_the_durable_images_as_they_were() {
    let gen = OltpConfig {
        data_pages: DATA_PAGES,
        ..OltpConfig::default()
    };
    let inputs = oltp_inputs(&mut OltpGen::new(gen, 31), 60);
    for manager in [Manager::Bare, Manager::Stack, Manager::Coop] {
        for (checkpoints, qd4) in [(false, false), (false, true), (true, false), (true, true)] {
            let shape = Shape {
                manager,
                pcm_wal: false,
                checkpoints,
                small_pool: false,
            };
            let (before, after) = dirty_crash_law(shape, qd4, &inputs);
            assert_eq!(after, before, "{shape:?}, QD 4: {qd4}");
        }
    }
}

/// E14's database on the block stack: checkpoints of a few hundred dirty
/// pages go through the journal while the executor's window is the one
/// `execute()` sees.
#[test]
fn the_block_stack_holds_the_law_on_e14s_shape() {
    let mut device = SsdConfig::figure1();
    device.shape.chips_per_channel = 2;
    let b = DbConfig::builder()
        .data_pages(1200)
        .log_pages(600)
        .buffer_frames(384)
        .checkpoint_every(300);
    let gen = OltpConfig {
        data_pages: 1200,
        read_only_fraction: 0.5,
        theta: 0.1,
        ..OltpConfig::default()
    };
    let inputs = oltp_inputs(&mut OltpGen::new(gen, 14), 700);
    let stack = || b.build_stack(StackConfig::blk_mq(1), device.clone());
    let (reference, executor) = reference_and_executor(stack(), stack(), &inputs);
    assert!(reference.stats.checkpoints >= 2);
    assert_eq!(executor, reference);
}
