//! Completion-driven transaction execution.
//!
//! [`Database::execute`] is the paper's *synchronous* storage manager:
//! one transaction at a time, every page miss a blocking `page_read`,
//! every commit a private log force. This module is the same engine
//! rebuilt around the queue-pair reality of a modern device:
//!
//! * **N transactions in flight** — a closed loop of executor slots,
//!   each walking the state machine
//!   `Run → WaitPage → Run → … → WaitCommit → Idle`;
//! * **batched asynchronous reads** — a page miss submits the demand
//!   page *and* its readahead successors as one
//!   [`PersistenceBackend::submit_reads`] batch (one doorbell), and the
//!   executor advances virtual time to the earliest completion instead
//!   of the next submission;
//! * **fetch coalescing** — a second transaction missing on an
//!   in-flight page waits on it instead of duplicating the device read
//!   ([`crate::buffer::BufferPool::add_waiter`]);
//! * **group commit** — commits enlist in a shared
//!   [`GroupCommit`]; one force makes the whole group durable, and the
//!   probe decomposes each commit into its *group wait* (`wal/queue`)
//!   and the *shared force* (`wal/transfer`).
//!
//! ## The QD-1 identity
//!
//! With `concurrency = 1`, prefetching off, and
//! [`GroupCommitPolicy::immediate`] ([`ExecConfig::serialized`]), this
//! executor replays the serialized engine **bit for bit**: the same
//! device commands at the same instants, the same stall accounting, the
//! same histograms — on every storage manager, with checkpoints or
//! without (`tests/qd1_law.rs`). Every observed difference at higher
//! concurrency is therefore *caused* by overlap — the same discipline the
//! queue-pair engine itself follows (`requiem-ssd`'s depth-1 identity),
//! carried one layer up the stack.
//!
//! Panic policy (DESIGN §2.5): clippy denies `unwrap`, `expect` and
//! `panic!` here outside tests — fallible outcomes surface as typed
//! statuses, invariants use `assert!` with a message.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;

use requiem_sim::time::SimTime;
use requiem_sim::{Cause, Histogram, IoStatus, Layer};

use crate::backend::{PageRead, PersistenceBackend};
use crate::engine::Database;
use crate::page::{PageId, RECORD_SIZE, SLOTS_PER_PAGE};
use crate::prefetch::{PrefetchConfig, PrefetchStats, Prefetcher};
use crate::wal::{
    GroupCommit, GroupCommitPolicy, GroupMember, LogRecord, Lsn, MemberKind, TXN_RECORD_BYTES,
    UPDATE_HEAD_BYTES,
};

/// Configuration for the completion-driven executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Transactions kept in flight (the closed loop's population, ≥ 1).
    pub concurrency: usize,
    /// Readahead policy for page misses.
    pub prefetch: PrefetchConfig,
    /// When the shared log force happens.
    pub group: GroupCommitPolicy,
}

impl ExecConfig {
    /// The QD-1 identity configuration: one transaction in flight, no
    /// readahead, a private force per commit.
    pub fn serialized() -> Self {
        ExecConfig {
            concurrency: 1,
            prefetch: PrefetchConfig::off(),
            group: GroupCommitPolicy::immediate(),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::serialized()
    }
}

/// One pre-generated transaction for the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnInput {
    /// Accesses as `(page, slot, dirty)` — the same triple
    /// [`Database::execute`] takes.
    pub accesses: Vec<(u64, u16, bool)>,
    /// Log payload bytes the transaction forces at commit.
    pub log_bytes: u32,
}

/// What a closed-loop run measured.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Transactions committed.
    pub txns: u64,
    /// Wall-clock (virtual) span of the run.
    pub makespan: requiem_sim::SimDuration,
    /// Committed transactions per second of virtual time.
    pub tps: f64,
    /// Shared log forces performed.
    pub forces: u64,
    /// Mean commits per force (group effectiveness).
    pub mean_group: f64,
    /// Readahead outcome counters (finalized: losses resolved).
    pub prefetch: PrefetchStats,
    /// Demand requests that coalesced onto an in-flight fetch.
    pub coalesced: u64,
    /// End-to-end latency of read-only transactions.
    pub read_only_latency: Histogram,
    /// End-to-end latency of updating transactions.
    pub update_latency: Histogram,
    /// `(txn, commit LSN)` in durability order — group commit must keep
    /// this consistent with WAL order (asserted by the proptests).
    pub commit_order: Vec<(u64, Lsn)>,
}

/// Where one executor slot is in its transaction's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// No transaction; free to start one once `free_at` passes.
    Idle {
        /// When the slot's previous commit completed.
        free_at: SimTime,
    },
    /// Applying accesses; runnable once `ready_at` passes.
    Run {
        /// When the slot's awaited work finished.
        ready_at: SimTime,
    },
    /// Blocked on a demand page read.
    WaitPage {
        /// The page being fetched.
        page: PageId,
        /// When the demand was posted (read-stall accounting).
        demand_at: SimTime,
    },
    /// Commit enlisted, waiting for the shared force.
    WaitCommit,
}

/// One closed-loop slot.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) state: SlotState,
    pub(crate) txn: Option<Active>,
}

/// How a transaction terminates on this executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TxnRole {
    /// Single-shard: append `Commit` and finish locally (the only role
    /// `run_concurrent` ever uses).
    #[default]
    Local,
    /// One participant's share of a cross-shard transaction: append
    /// `Prepare`, report the vote, and let the coordinator decide.
    Participant,
}

/// The transaction a slot is running.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Active {
    /// Transaction id (the *global* id for cross-shard participants).
    pub(crate) id: u64,
    /// Start instant (end-to-end latency base).
    pub(crate) started: SimTime,
    /// Index into the input list.
    pub(crate) input: usize,
    /// Next access to apply.
    pub(crate) next: usize,
    /// True once any access dirtied a page.
    pub(crate) wrote: bool,
    /// How the transaction terminates.
    pub(crate) role: TxnRole,
}

/// One pre-assigned transaction in a shard's input queue: the
/// coordinator names ids up front (a global namespace across shards)
/// instead of letting the executor allocate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannedTxn {
    /// Transaction id to run under.
    pub(crate) id: u64,
    /// Commit locally or prepare for the coordinator.
    pub(crate) role: TxnRole,
}

/// What a shard reports back to its coordinator after a force.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardEvent {
    /// A participant's prepare force completed: its durability vote.
    Prepared {
        /// The global transaction.
        txn: u64,
        /// The force's typed outcome — a failure is a NO vote.
        status: IoStatus,
        /// When the force landed.
        done: SimTime,
        /// When this participant's share started (latency base).
        started: SimTime,
    },
    /// The coordinator's decision force completed: the global commit
    /// point for a cross-shard transaction.
    Committed {
        /// The global transaction.
        txn: u64,
        /// When the decision force landed.
        done: SimTime,
    },
}

/// In-memory before-image of one participant update, kept until the
/// global decision so a typed abort can roll the share back.
#[derive(Debug, Clone)]
pub(crate) struct UndoEntry {
    /// Updated page.
    pub(crate) page: PageId,
    /// Updated slot.
    pub(crate) slot: u16,
    /// Record bytes before the update (`None` = slot was empty).
    pub(crate) before: Option<[u8; RECORD_SIZE]>,
}

/// Host-side context of one in-flight page fetch. It carries no bytes:
/// the completion installs a clean frame, which shows the page's newest
/// image — the same one at completion as at submit, unless a rollback
/// patched it in between, and then the patched one is the right one.
#[derive(Debug)]
pub(crate) struct FetchCtx {
    pub(crate) page: PageId,
    /// Submitted by the readahead engine rather than a demand miss.
    pub(crate) speculative: bool,
    /// A demand request is (or was) waiting on it.
    pub(crate) demanded: bool,
}

/// Mutable executor state threaded through the event loop.
pub(crate) struct ExecState {
    /// A slot's `state` is written through [`ExecState::set_state`] only.
    pub(crate) slots: Vec<Slot>,
    /// No slot is `Run` with `ready_at` before this, nor `Idle` with
    /// `free_at` before `idle_from`: lower bounds that every state change
    /// lowers and every quiesce scan makes exact, so a pass skips the
    /// scans that could find nothing (a wake that reaps one completion
    /// usually has one slot to drive and none to refill).
    pub(crate) run_from: SimTime,
    pub(crate) idle_from: SimTime,
    /// Fetches in flight, unordered (the pool's page table says *whether*
    /// a page is being fetched; this says with what). One demand fetch
    /// per slot plus whatever readahead rode along, so a scan is short.
    pub(crate) pending: Vec<FetchCtx>,
    /// Scratch for the one batch a miss submits (reused, never shrunk).
    batch: Vec<PageId>,
    /// Scratch the completions of one reap land in (reused likewise).
    reaped: Vec<PageRead>,
    pub(crate) prefetcher: Prefetcher,
    pub(crate) group: GroupCommit,
    /// The member list `force_group` trades with the group's (reused).
    forcing: Vec<GroupMember>,
    /// Inputs handed to slots so far.
    pub(crate) issued: usize,
    pub(crate) forces: u64,
    pub(crate) grouped: u64,
    pub(crate) commit_order: Vec<(u64, Lsn)>,
    pub(crate) read_only_latency: Histogram,
    pub(crate) update_latency: Histogram,
    /// Coordinator-assigned ids/roles per input index; empty in
    /// `run_concurrent`, where the executor allocates ids itself.
    pub(crate) assigned: Vec<PlannedTxn>,
    /// Force outcomes to report to the coordinator (drained per step).
    pub(crate) outbox: Vec<ShardEvent>,
    /// Before-images of participant updates, per global transaction,
    /// consumed on abort and dropped on commit.
    pub(crate) undo: BTreeMap<u64, Vec<UndoEntry>>,
    /// Under a sharded coordinator, a group force does *not* advance the
    /// shard's event clock synchronously (other shards keep submitting
    /// into the overlap window); the completion instant is parked here
    /// and the coordinator wakes the shard at it. `run_concurrent`
    /// keeps the synchronous single-submitter discipline.
    pub(crate) async_force: bool,
    /// Latest pending force completion (only meaningful when
    /// `async_force` is set; the coordinator treats it as a wake).
    pub(crate) force_horizon: SimTime,
}

impl ExecState {
    /// Fresh state for a `depth`-slot closed loop over `inputs`
    /// transactions starting at `now`.
    pub(crate) fn new(
        depth: usize,
        now: SimTime,
        prefetch: &PrefetchConfig,
        inputs: usize,
    ) -> Self {
        ExecState {
            slots: vec![
                Slot {
                    state: SlotState::Idle { free_at: now },
                    txn: None,
                };
                depth
            ],
            run_from: SimTime::MAX,
            idle_from: now,
            pending: Vec::with_capacity(depth + prefetch.depth as usize),
            batch: Vec::new(),
            reaped: Vec::new(),
            prefetcher: Prefetcher::new(*prefetch),
            group: GroupCommit::new(),
            forcing: Vec::new(),
            issued: 0,
            forces: 0,
            grouped: 0,
            // one entry per input at most: a prepare records none, and a
            // decision commit stands in for its home share
            commit_order: Vec::with_capacity(inputs),
            read_only_latency: Histogram::new(),
            update_latency: Histogram::new(),
            assigned: Vec::new(),
            outbox: Vec::new(),
            undo: BTreeMap::new(),
            async_force: false,
            force_horizon: now,
        }
    }

    /// Move slot `i` to `state`, keeping the scan bounds.
    pub(crate) fn set_state(&mut self, i: usize, state: SlotState) {
        match state {
            SlotState::Run { ready_at } => self.run_from = self.run_from.min(ready_at),
            SlotState::Idle { free_at } => self.idle_from = self.idle_from.min(free_at),
            SlotState::WaitPage { .. } | SlotState::WaitCommit => {}
        }
        self.slots[i].state = state;
    }

    pub(crate) fn all_idle(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Idle { .. }))
    }
}

impl<B: PersistenceBackend> Database<B> {
    /// Run `inputs` to completion as a closed loop of
    /// `cfg.concurrency` transactions over the batched asynchronous
    /// read path. See the module docs for the state machine and the
    /// QD-1 identity.
    pub fn run_concurrent(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> ExecReport {
        assert!(self.loaded, "call load() before executing transactions");
        let depth = cfg.concurrency.max(1);
        self.backend
            .set_read_window(depth + cfg.prefetch.depth as usize);
        let started_at = self.now;
        let coalesced_before = self.pool.stats().coalesced;
        let mut st = ExecState::new(depth, self.now, &cfg.prefetch, inputs.len());
        self.reserve_log(inputs, &[]);

        loop {
            // 1. run everything that can run at the current instant
            self.quiesce(inputs, cfg, &mut st);

            // 2. reap completions; if any arrived, re-quiesce first
            if self.reap(&mut st) {
                continue;
            }

            // 3. done?
            if st.issued == inputs.len()
                && st.all_idle()
                && st.pending.is_empty()
                && st.group.is_empty()
            {
                break;
            }

            // 4. advance virtual time to the next event
            match self.next_event(inputs.len(), cfg, &st) {
                Some(t) if t > self.now => self.now = t,
                Some(_) => {} // an event is ready at `now`: loop again
                None => {
                    // nothing scheduled: the only way forward is forcing
                    // an undersized group (batched policies with too few
                    // stragglers to fill one)
                    if st.group.is_empty() {
                        break; // defensive: no work, no waiters
                    }
                    self.force_group(self.now, &mut st);
                }
            }
        }

        self.finish_run(started_at, coalesced_before, st)
    }

    /// Size the in-memory log for `inputs` before running them: an update
    /// per dirty access, a termination record per transaction, a
    /// checkpoint per checkpoint they trigger; for a two-phase participant
    /// (`assigned` as in [`ExecState::assigned`]) also the decision or
    /// abort record its home shard appends. An upper bound by a few
    /// records, so a fault-free run grows its log once.
    pub(crate) fn reserve_log(&mut self, inputs: &[TxnInput], assigned: &[PlannedTxn]) {
        let mut bytes = 0;
        for (i, input) in inputs.iter().enumerate() {
            let dirty = input.accesses.iter().filter(|a| a.2).count();
            let two_phase = assigned
                .get(i)
                .is_some_and(|p| p.role == TxnRole::Participant);
            bytes += dirty * (UPDATE_HEAD_BYTES + RECORD_SIZE)
                + (1 + usize::from(two_phase)) * TXN_RECORD_BYTES;
        }
        if self.cfg.checkpoint_every > 0 {
            let checkpoints = inputs.len() / self.cfg.checkpoint_every as usize + 1;
            bytes += checkpoints * LogRecord::Checkpoint.encoded_len() as usize;
        }
        self.wal.reserve(bytes);
    }

    /// Close out a closed-loop run: settle the clock on the last commit
    /// force, finalize readahead attribution, and build the report.
    /// Shared by `run_concurrent` and the shard coordinator so the two
    /// paths cannot drift.
    pub(crate) fn finish_run(
        &mut self,
        started_at: SimTime,
        coalesced_before: u64,
        mut st: ExecState,
    ) -> ExecReport {
        // the run ends when the last commit force (or checkpoint) lands
        for s in &st.slots {
            if let SlotState::Idle { free_at } = s.state {
                self.now = self.now.max(free_at);
            }
        }

        let prefetch = st.prefetcher.finalize();
        for _ in 0..prefetch.losses {
            self.probe.note_status("prefetch-loss");
        }
        let makespan = self.now.since(started_at);
        let txns = st.issued as u64;
        let secs = makespan.as_secs_f64();
        ExecReport {
            txns,
            makespan,
            tps: if secs > 0.0 { txns as f64 / secs } else { 0.0 },
            forces: st.forces,
            mean_group: if st.forces > 0 {
                st.grouped as f64 / st.forces as f64
            } else {
                0.0
            },
            prefetch,
            coalesced: self.pool.stats().coalesced - coalesced_before,
            read_only_latency: st.read_only_latency,
            update_latency: st.update_latency,
            commit_order: st.commit_order,
        }
    }

    /// The earliest *future* instant anything can happen: the next read
    /// completion, a slot becoming free or runnable, or the group
    /// deadline. `None` means nothing is scheduled (an undersized group
    /// may still need forcing). `Some(t)` with `t <= now` means an
    /// event is already ready at the current instant.
    pub(crate) fn next_event(
        &mut self,
        input_count: usize,
        cfg: &ExecConfig,
        st: &ExecState,
    ) -> Option<SimTime> {
        let mut next: Option<SimTime> = self.backend.next_read_done();
        let mut merge = |t: SimTime| {
            next = Some(match next {
                Some(n) => n.min(t),
                None => t,
            });
        };
        // the bounds say when no slot can be Idle or Run at all: a wake
        // spent waiting on reads and forces skips the scan
        let idle = st.issued < input_count && st.idle_from < SimTime::MAX;
        if idle || st.run_from < SimTime::MAX {
            for s in &st.slots {
                match s.state {
                    SlotState::Idle { free_at } if idle && free_at > self.now => merge(free_at),
                    SlotState::Run { ready_at } if ready_at > self.now => merge(ready_at),
                    _ => {}
                }
            }
        }
        if let Some(d) = st.group.deadline(&cfg.group) {
            if d > self.now {
                merge(d);
            }
        }
        next
    }

    /// Run refills, runnable slots, and due forces until nothing can
    /// make progress at the current instant.
    pub(crate) fn quiesce(&mut self, inputs: &[TxnInput], cfg: &ExecConfig, st: &mut ExecState) {
        loop {
            let mut progress = false;
            // refill idle slots in slot order (deterministic admission)
            if st.idle_from <= self.now && st.issued < inputs.len() {
                progress |= self.refill(inputs, st);
            }
            // drive runnable slots in slot order
            if st.run_from <= self.now {
                st.run_from = SimTime::MAX;
                for i in 0..st.slots.len() {
                    if let SlotState::Run { ready_at } = st.slots[i].state {
                        if ready_at <= self.now {
                            self.drive_slot(i, inputs, st);
                            progress = true;
                        }
                    }
                    // what is still Run bounds the next scan (a slot that
                    // turns Run later lowers the bound through set_state)
                    if let SlotState::Run { ready_at } = st.slots[i].state {
                        st.run_from = st.run_from.min(ready_at);
                    }
                }
            }
            // force the group the moment the policy says so
            if st.group.due(&cfg.group, self.now) {
                self.force_group(self.now, st);
                progress = true;
            }
            if !progress {
                return;
            }
        }
    }

    /// Start the next inputs on the idle slots free at `now`, in slot
    /// order; true when one started.
    fn refill(&mut self, inputs: &[TxnInput], st: &mut ExecState) -> bool {
        let mut started = false;
        st.idle_from = SimTime::MAX;
        for i in 0..st.slots.len() {
            if let SlotState::Idle { free_at } = st.slots[i].state {
                if free_at <= self.now && st.issued < inputs.len() {
                    // the coordinator pre-assigns ids (a global
                    // namespace across shards); standalone runs
                    // allocate locally, exactly as before
                    let (id, role) = match st.assigned.get(st.issued) {
                        Some(p) => (p.id, p.role),
                        None => {
                            let id = self.next_txn;
                            self.next_txn += 1;
                            (id, TxnRole::Local)
                        }
                    };
                    st.slots[i].txn = Some(Active {
                        id,
                        started: self.now,
                        input: st.issued,
                        next: 0,
                        wrote: false,
                        role,
                    });
                    st.set_state(i, SlotState::Run { ready_at: self.now });
                    st.issued += 1;
                    started = true;
                } else {
                    st.idle_from = st.idle_from.min(free_at);
                }
            }
        }
        started
    }

    /// Advance slot `i` through its accesses until it blocks (page
    /// miss) or commits (enlists in the group).
    pub(crate) fn drive_slot(&mut self, i: usize, inputs: &[TxnInput], st: &mut ExecState) {
        loop {
            let Some(active) = st.slots[i].txn else {
                return; // defensive: a Run slot always has a transaction
            };
            let input = &inputs[active.input];
            if active.next >= input.accesses.len() {
                // all accesses applied: append the termination record
                // (a local commit, or a two-phase prepare whose force
                // is this shard's durability vote) and enlist it for
                // the shared force
                let (record, kind, label) = match active.role {
                    TxnRole::Local => (
                        LogRecord::Commit { txn: active.id },
                        MemberKind::Commit,
                        "commit",
                    ),
                    TxnRole::Participant => (
                        LogRecord::Prepare { txn: active.id },
                        MemberKind::Prepare,
                        "prepare",
                    ),
                };
                let commit_lsn = self.wal.append(record);
                let force_bytes = if active.wrote {
                    input.log_bytes.max(32)
                } else {
                    32
                };
                // enlist the force-accounting cost with the WAL backend
                // now; the shared force drains everything at or below
                // the group's horizon in one device interaction
                self.wal_dev.append(commit_lsn, force_bytes);
                let probe_id = if self.probe.is_enabled() {
                    self.probe.open_command(label, self.now).detach()
                } else {
                    0
                };
                st.group.enlist(GroupMember {
                    slot: i,
                    kind,
                    txn: active.id,
                    lsn: commit_lsn,
                    enlisted: self.now,
                    started: active.started,
                    probe_id,
                    read_only: !active.wrote,
                });
                st.set_state(i, SlotState::WaitCommit);
                return;
            }
            let (page, slot_no, dirty) = input.accesses[active.next];
            let pid = PageId(page % self.cfg.data_pages);
            let slot_no = slot_no % SLOTS_PER_PAGE;

            if self.pool.contains(pid) {
                // resident: was this residency bought by readahead?
                if st.prefetcher.note_demand_resident(pid.0) {
                    self.probe.note_status("prefetch-win");
                }
                self.apply_access(i, pid, slot_no, dirty, st);
                continue;
            }
            if self.pool.fetch_in_flight(pid) {
                // coalesce onto the in-flight fetch
                self.pool.add_waiter(pid);
                if let Some(ctx) = st.pending.iter_mut().find(|c| c.page == pid) {
                    if ctx.speculative && !ctx.demanded {
                        st.prefetcher.note_hit_in_flight();
                        self.probe.note_status("prefetch-win");
                    }
                    ctx.demanded = true;
                }
                st.set_state(
                    i,
                    SlotState::WaitPage {
                        page: pid,
                        demand_at: self.now,
                    },
                );
                return;
            }

            // miss: submit the demand page plus its readahead successors
            // as ONE batch — one doorbell
            self.images.settle(self.now, &self.wal);
            st.prefetcher.note_demand_fetch(pid.0);
            self.pool.begin_fetch(pid);
            st.pending.push(FetchCtx {
                page: pid,
                speculative: false,
                demanded: true,
            });
            st.batch.clear();
            st.batch.push(pid);
            if !st.prefetcher.is_off() {
                for t in st.prefetcher.targets(pid.0, self.cfg.data_pages) {
                    let tp = PageId(t % self.cfg.data_pages);
                    if self.pool.contains(tp) || self.pool.fetch_in_flight(tp) {
                        continue;
                    }
                    self.pool.begin_fetch(tp);
                    st.prefetcher.note_issued(tp.0);
                    st.pending.push(FetchCtx {
                        page: tp,
                        speculative: true,
                        demanded: false,
                    });
                    st.batch.push(tp);
                }
            }
            self.backend.submit_reads(self.now, &st.batch);
            st.set_state(
                i,
                SlotState::WaitPage {
                    page: pid,
                    demand_at: self.now,
                },
            );
            return;
        }
    }

    /// Apply one access to a resident page (the serialized engine's
    /// inner loop, verbatim — plus before-image capture for two-phase
    /// participants, whose updates may need a typed abort).
    pub(crate) fn apply_access(
        &mut self,
        i: usize,
        pid: PageId,
        slot_no: u16,
        dirty: bool,
        st: &mut ExecState,
    ) {
        let Some(mut active) = st.slots[i].txn else {
            return; // defensive: a Run slot always has a transaction
        };
        if dirty {
            // RAM-only bookkeeping: no device work, no clock
            let before = (active.role == TxnRole::Participant).then(|| {
                let pending = self.pool.redo(pid);
                let shown = self.images.record(pending, pid, slot_no, &self.wal);
                shown.map(|r| {
                    let mut before = [0; RECORD_SIZE];
                    before.copy_from_slice(r); // every record is RECORD_SIZE bytes
                    before
                })
            });
            // pin the frame BEFORE logging (see `Database::execute`)
            if self.write_record(active.id, pid, slot_no) {
                active.wrote = true;
                if let Some(before) = before {
                    st.undo.entry(active.id).or_default().push(UndoEntry {
                        page: pid,
                        slot: slot_no,
                        before,
                    });
                }
            }
        } else {
            self.pool.touch(pid);
        }
        active.next += 1;
        st.slots[i].txn = Some(active);
    }

    /// Reap ready completions; the event clock advances through each
    /// completion's instant as it is processed (device submissions must
    /// be non-decreasing in time, so install-side work — media redo,
    /// steal writes — happens on the advanced clock). Returns true when
    /// anything was reaped.
    pub(crate) fn reap(&mut self, st: &mut ExecState) -> bool {
        let mut completions = std::mem::take(&mut st.reaped);
        self.backend.poll_into(self.now, &mut completions);
        let any = !completions.is_empty();
        for &r in &completions {
            self.now = self.now.max(r.done);
            self.finish_read(r, st);
        }
        st.reaped = completions;
        any
    }

    /// Install one completed page read: typed-status handling, media
    /// redo, eviction (with the WAL rule), waiter wake-up, and
    /// speculation attribution — on the advanced event clock.
    pub(crate) fn finish_read(&mut self, r: PageRead, st: &mut ExecState) {
        let Some(at) = st.pending.iter().position(|c| c.page == r.page) else {
            return; // orphaned completion (no fetch context): drop it
        };
        let ctx = st.pending.swap_remove(at);
        // Install-side device work starts on the advanced event clock
        // (>= r.done): an earlier completion in the same reap batch may
        // have pushed `now` past this read's `done`, and the device
        // requires non-decreasing submission times.
        let end = self.install_read(self.now, r.page, r.status);
        // install-side device work (media redo, steal) drove the device
        // to `end`
        if st.async_force {
            // sharded coordinator: park the horizon instead of
            // advancing the clock — the waiters' `ready_at = end` gates
            // execution, and the multi-queue device accepts the
            // out-of-order submissions peer overlap produces
            st.force_horizon = st.force_horizon.max(end);
        } else {
            // single submitter: the event clock follows so no later
            // submission can go backwards in device time
            self.now = self.now.max(end);
        }
        // wake every waiter at the instant the page became usable; each
        // charges its own read stall from its own demand instant (zero
        // when the coalesced read had already completed before the
        // demand arrived — the data was sitting in the completion queue)
        let mut any_waiter = false;
        for i in 0..st.slots.len() {
            if let SlotState::WaitPage { page, demand_at } = st.slots[i].state {
                if page == r.page {
                    self.stats.read_stall += r.done.max(demand_at).since(demand_at);
                    st.set_state(i, SlotState::Run { ready_at: end });
                    any_waiter = true;
                }
            }
        }
        if ctx.speculative && !ctx.demanded && !any_waiter {
            // installed on speculation alone: a win only if a demand
            // arrives before eviction
            st.prefetcher.note_installed(r.page.0);
        }
    }

    /// Force the enlisted group at `t`: one shared log force, then each
    /// member resolves at the force's end — probe spans split the wait
    /// into *group wait* and *shared force*. `Commit` members complete
    /// their slot's transaction; `Prepare` members free the slot and
    /// report their durability vote; `Decide` members are the slot-less
    /// commit point of a cross-shard transaction.
    pub(crate) fn force_group(&mut self, t: SimTime, st: &mut ExecState) {
        if st.group.is_empty() {
            return;
        }
        // the group's list and the scratch trade places, so neither is
        // regrown; the scratch leaves `st` while the members resolve
        // (they free slots, fill the outbox, checkpoint)
        let mut members = std::mem::take(&mut st.forcing);
        st.group.swap_out(&mut members);
        st.forces += 1;
        st.grouped += members.len() as u64;
        // one shared force to the group's horizon drains every member's
        // enlisted bytes in one device interaction
        let horizon = members.iter().map(|m| m.lsn).max().unwrap_or(Lsn(0));
        let f = self.force_log(t, horizon);
        let done = f.done;
        if st.async_force {
            // sharded coordinator: the force's outcome is already fully
            // determined (slot frees, stats, and outbox all carry
            // `done`), but the clock holds so peer shards can submit
            // into the force's latency window; the coordinator wakes
            // this shard at the horizon
            st.force_horizon = st.force_horizon.max(done);
        } else {
            // the force is synchronous at the engine interface: a
            // spilling force submits device writes up to `done`, so the
            // event clock follows (reads already in flight still
            // overlap the force — their completions are reaped
            // afterwards with done <= now)
            self.now = self.now.max(done);
        }
        let force_cause = self.wal_dev.force_cause();
        for m in &members {
            if m.probe_id != 0 {
                let scope = self.probe.resume(m.probe_id);
                // one bus borrow for both commit spans (QD fast path)
                if let Some(mut batch) = self.probe.batch() {
                    if t > m.enlisted {
                        batch.span(Layer::Wal, Cause::Queue, "group-wait", m.enlisted, t);
                    }
                    batch.span(Layer::Wal, force_cause, "log-force", t, done);
                }
                scope.close(done);
            }
            if m.kind == MemberKind::Prepare {
                // the vote: a failed force is a NO — the coordinator
                // turns it into a typed abort. The slot frees either
                // way; commit accounting waits for the decision.
                st.outbox.push(ShardEvent::Prepared {
                    txn: m.txn,
                    status: f.status,
                    done,
                    started: m.started,
                });
                st.set_state(m.slot, SlotState::Idle { free_at: done });
                st.slots[m.slot].txn = None;
                continue;
            }
            let commit_force = done.since(m.enlisted);
            self.stats.commit_stall += commit_force;
            self.stats.commits += 1;
            let latency = done.since(m.started);
            self.txn_latency.record_duration(latency);
            self.commit_latency.record_duration(commit_force);
            if m.read_only {
                st.read_only_latency.record_duration(latency);
            } else {
                st.update_latency.record_duration(latency);
            }
            st.commit_order.push((m.txn, m.lsn));
            match m.kind {
                MemberKind::Commit => {
                    st.set_state(m.slot, SlotState::Idle { free_at: done });
                    st.slots[m.slot].txn = None;
                }
                MemberKind::Decide => {
                    // slot-less: the participants' slots freed at their
                    // prepare forces; this force is the commit point
                    st.outbox.push(ShardEvent::Committed { txn: m.txn, done });
                }
                MemberKind::Prepare => {} // handled above
            }
            if self.cfg.checkpoint_every > 0 && self.stats.commits % self.cfg.checkpoint_every == 0
            {
                // a sharp checkpoint quiesces the engine (global pause),
                // exactly as in the serialized path
                self.now = self.now.max(done);
                self.checkpoint();
            }
        }
        members.clear();
        st.forcing = members;
    }

    /// Enlist the coordinator's decision commit for cross-shard
    /// transaction `global` in this (home) shard's group: the single
    /// commit-point force of the two-phase protocol. `started` is the
    /// global transaction's earliest participant start (latency base).
    pub(crate) fn enlist_decision(
        &mut self,
        global: u64,
        started: SimTime,
        read_only: bool,
        st: &mut ExecState,
    ) {
        let commit_lsn = self.wal.append(LogRecord::Commit { txn: global });
        // the participants' prepare forces already paid for the update
        // payload; the decision forces only the commit record itself
        self.wal_dev.append(commit_lsn, 32);
        let probe_id = if self.probe.is_enabled() {
            self.probe.open_command("decide", self.now).detach()
        } else {
            0
        };
        st.group.enlist(GroupMember {
            slot: usize::MAX,
            kind: MemberKind::Decide,
            txn: global,
            lsn: commit_lsn,
            enlisted: self.now,
            started,
            probe_id,
            read_only,
        });
    }

    /// Roll back this shard's share of an aborted cross-shard
    /// transaction: restore captured before-images wherever the aborted
    /// write is still visible (resident frame, stolen durable image, or
    /// a checkpoint write in flight). Each before-image is logged as a
    /// compensation `Update` of the aborted transaction, so a frame or a
    /// write in flight can name it; with no `Commit` anywhere, recovery
    /// replays neither it nor the updates it undoes. No device work, no
    /// clock. Returns the number of slots restored.
    ///
    /// A resident frame is visited as a write access, *before* the images
    /// outside the pool are patched: the frame reads the slot while the
    /// newest record still carries the aborted write, so `restored` counts
    /// it, its redo takes the before-image, and — clean or not — the
    /// frame ends dirty, so its later steal writes the rollback out.
    pub(crate) fn undo_participant(&mut self, global: u64, st: &mut ExecState) -> u64 {
        let Some(entries) = st.undo.remove(&global) else {
            return 0; // read-only share, or already rolled back
        };
        // only touch a slot that still carries the aborted write (a later
        // committed update supersedes the rollback)
        let owned = |record: Option<&[u8]>| {
            record.is_some_and(|r| r.len() >= 8 && r[..8] == global.to_le_bytes())
        };
        let (pool, images, wal) = (&mut self.pool, &mut self.images, &mut self.wal);
        let mut roll_back = |e: &UndoEntry| {
            let before = e.before.map(|image| {
                let (_, after) = wal.append_update(global, e.page, e.slot, RECORD_SIZE, |b| {
                    b.copy_from_slice(&image)
                });
                after
            });
            images.roll_back(pool.get_mut(e.page), e.page, e.slot, before, wal, owned)
        };
        entries.iter().rev().map(|e| u64::from(roll_back(e))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VisionBackend;
    use crate::engine::DbConfig;
    use crate::stack_backend::BlockStackBackend;
    use requiem_block::StackConfig;
    use requiem_ssd::SsdConfig;

    fn mixed_inputs(n: u64, pages: u64, write_every: u64) -> Vec<TxnInput> {
        (0..n)
            .map(|i| TxnInput {
                accesses: vec![
                    (
                        (i * 7) % pages,
                        (i % 16) as u16,
                        write_every > 0 && i % write_every == 0,
                    ),
                    ((i * 13 + 3) % pages, ((i + 5) % 16) as u16, false),
                ],
                log_bytes: 128,
            })
            .collect()
    }

    fn block_db(stack: StackConfig, frames: usize) -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: frames,
            ..DbConfig::default()
        };
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        let be = BlockStackBackend::new(stack, ssd_cfg, cfg.data_pages, 64);
        let mut db = Database::new(cfg, be);
        db.load();
        db
    }

    /// The bare block device: the block stack at zero CPU cost.
    fn legacy_db(frames: usize) -> Database<BlockStackBackend> {
        block_db(StackConfig::bare(1), frames)
    }

    fn stack_db(frames: usize) -> Database<BlockStackBackend> {
        block_db(StackConfig::blk_mq(1), frames)
    }

    fn vision_db(frames: usize) -> Database<VisionBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: frames,
            ..DbConfig::default()
        };
        let be = VisionBackend::new(SsdConfig::modern(), cfg.data_pages, 1 << 22);
        let mut db = Database::new(cfg, be);
        db.load();
        db
    }

    /// The tentpole invariant: concurrency 1 + prefetch off + immediate
    /// forces replays the serialized engine bit for bit.
    #[test]
    fn qd1_identity_legacy() {
        let inputs = mixed_inputs(60, 256, 3);
        let mut serial = legacy_db(32);
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes);
        }
        let mut conc = legacy_db(32);
        let report = conc.run_concurrent(&inputs, &ExecConfig::serialized());
        assert_eq!(report.txns, 60);
        assert_eq!(conc.now(), serial.now(), "clocks must agree");
        assert_eq!(conc.stats().commits, serial.stats().commits);
        assert_eq!(conc.stats().read_stall, serial.stats().read_stall);
        assert_eq!(conc.stats().steal_stall, serial.stats().steal_stall);
        assert_eq!(conc.stats().commit_stall, serial.stats().commit_stall);
        assert_eq!(
            conc.wal_backend().stats().log_forces,
            serial.wal_backend().stats().log_forces
        );
        assert_eq!(
            conc.wal_backend().stats().log_bytes,
            serial.wal_backend().stats().log_bytes
        );
        assert_eq!(
            conc.backend().stats().page_reads,
            serial.backend().stats().page_reads
        );
        assert_eq!(conc.txn_latency(), serial.txn_latency(), "histograms");
        assert_eq!(conc.commit_latency(), serial.commit_latency());
        assert_eq!(report.coalesced, 0);
        assert_eq!(report.prefetch.issued, 0);
    }

    #[test]
    fn qd1_identity_vision() {
        let inputs = mixed_inputs(40, 256, 2);
        let mut serial = vision_db(32);
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes);
        }
        let mut conc = vision_db(32);
        conc.run_concurrent(&inputs, &ExecConfig::serialized());
        assert_eq!(conc.now(), serial.now(), "clocks must agree");
        assert_eq!(conc.txn_latency(), serial.txn_latency());
    }

    #[test]
    fn concurrency_overlaps_reads_and_beats_serial() {
        let inputs = mixed_inputs(120, 256, 0); // read-only: misses dominate
        let mut serial = stack_db(16);
        let r1 = serial.run_concurrent(&inputs, &ExecConfig::serialized());
        let mut conc = stack_db(16);
        let r8 = conc.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 8,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(8),
            },
        );
        assert!(
            r8.makespan < r1.makespan,
            "8-deep loop {} should beat serial {}",
            r8.makespan,
            r1.makespan
        );
        assert!(r8.tps > r1.tps);
    }

    #[test]
    fn coalescing_counts_and_returns_same_bytes() {
        // every transaction hammers the same page: with N in flight the
        // fetch must coalesce, and all of them see the installed image
        let inputs: Vec<TxnInput> = (0..8)
            .map(|i| TxnInput {
                accesses: vec![(7, i as u16, true)],
                log_bytes: 64,
            })
            .collect();
        let mut db = legacy_db(32);
        let report = db.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 4,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(4),
            },
        );
        assert!(report.coalesced > 0, "same-page misses must coalesce");
        // all eight updates landed on the one page
        for i in 0..8u64 {
            assert_eq!(db.visible_owner(7, i as u16), i + 1);
        }
    }

    #[test]
    fn sequential_prefetch_wins_on_a_scan() {
        // a pure sequential scan over more pages than the pool holds:
        // readahead should convert most misses into wins
        let inputs: Vec<TxnInput> = (0..128u64)
            .map(|p| TxnInput {
                accesses: vec![(p, 0, false)],
                log_bytes: 32,
            })
            .collect();
        let mut plain = stack_db(16);
        let r0 = plain.run_concurrent(&inputs, &ExecConfig::serialized());
        let mut ra = stack_db(16);
        let r4 = ra.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 1,
                prefetch: PrefetchConfig::sequential(4),
                group: GroupCommitPolicy::immediate(),
            },
        );
        assert!(r4.prefetch.issued > 0);
        assert!(
            r4.prefetch.wins * 2 > r4.prefetch.issued,
            "sequential scan should win most speculations: {:?}",
            r4.prefetch
        );
        assert!(
            r4.makespan < r0.makespan,
            "readahead {} should beat demand-only {}",
            r4.makespan,
            r0.makespan
        );
    }

    #[test]
    fn group_commit_amortizes_forces_in_the_loop() {
        let inputs = mixed_inputs(64, 64, 1); // all writers
        let mut single = legacy_db(64);
        let r1 = single.run_concurrent(&inputs, &ExecConfig::serialized());
        let mut grouped = legacy_db(64);
        let r8 = grouped.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 8,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(8),
            },
        );
        assert!(r8.forces < r1.forces / 4, "{} vs {}", r8.forces, r1.forces);
        assert!(r8.mean_group > 4.0);
        assert!(r8.makespan < r1.makespan, "grouping should be faster");
    }

    #[test]
    fn commit_probe_spans_tile_wait_and_force() {
        let inputs = mixed_inputs(24, 64, 1);
        let mut db = legacy_db(64);
        let probe = requiem_sim::Probe::recording();
        db.attach_probe(probe.clone());
        db.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 4,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(4),
            },
        );
        let summary = probe.summary();
        let force = summary
            .by_layer_cause
            .get(&(Layer::Wal, Cause::Transfer))
            .copied()
            .unwrap_or_default();
        assert!(force.count >= 24, "every commit carries a force span");
        let wait = summary
            .by_layer_cause
            .get(&(Layer::Wal, Cause::Queue))
            .copied()
            .unwrap_or_default();
        assert!(wait.count > 0, "grouped commits must show group-wait spans");
    }

    #[test]
    fn checkpoints_fire_in_the_concurrent_loop() {
        let inputs = mixed_inputs(40, 64, 1);
        let mut db = legacy_db(64);
        db.cfg.checkpoint_every = 10;
        db.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 4,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(4),
            },
        );
        assert_eq!(db.stats().checkpoints, 4);
    }

    /// Transaction id of the participant share [`Aborting`] rolls back.
    const ABORTED: u64 = 7;

    /// A one-slot closed loop driven by hand, the test playing the
    /// coordinator: the first input runs as a two-phase participant (its
    /// prepare vote lands in `st.outbox`, where the test leaves it), the
    /// rest as local transactions.
    struct Aborting {
        db: Database<BlockStackBackend>,
        st: ExecState,
        inputs: Vec<TxnInput>,
    }

    impl Aborting {
        fn new(frames: usize, inputs: Vec<TxnInput>) -> Self {
            let db = legacy_db(frames);
            let mut st = ExecState::new(1, db.now, &PrefetchConfig::off(), inputs.len());
            st.assigned = (0..inputs.len() as u64)
                .map(|i| PlannedTxn {
                    id: ABORTED + i,
                    role: if i == 0 {
                        TxnRole::Participant
                    } else {
                        TxnRole::Local
                    },
                })
                .collect();
            Aborting { db, st, inputs }
        }

        /// `run_concurrent`'s loop, stopped the first time `until` holds
        /// with nothing left to run at the current instant.
        fn drive(&mut self, until: impl Fn(&Self) -> bool) {
            let cfg = ExecConfig::serialized();
            loop {
                self.db.quiesce(&self.inputs, &cfg, &mut self.st);
                if until(self) {
                    return;
                }
                if self.db.reap(&mut self.st) {
                    continue;
                }
                match self.db.next_event(self.inputs.len(), &cfg, &self.st) {
                    Some(t) => self.db.now = self.db.now.max(t),
                    None => self.db.force_group(self.db.now, &mut self.st),
                }
            }
        }

        fn drained(&self) -> bool {
            self.st.issued == self.inputs.len()
                && self.st.all_idle()
                && self.st.pending.is_empty()
                && self.st.group.is_empty()
        }
    }

    fn one_access(page: u64, slot: u16, dirty: bool) -> TxnInput {
        TxnInput {
            accesses: vec![(page, slot, dirty)],
            log_bytes: 64,
        }
    }

    /// A fetch in flight while its page is rolled back installs a frame
    /// that shows the rolled-back bytes: the fetch carries no image of its
    /// own, chosen before the rollback, to install instead.
    #[test]
    fn a_fetch_in_flight_across_a_rollback_installs_the_rolled_back_page() {
        let (p, q) = (5u64, 9u64);
        let mut run = Aborting::new(
            1,
            vec![
                one_access(p, 0, true),  // the participant's write
                one_access(q, 0, false), // its fetch steals p: the write is durable
                one_access(p, 1, false), // p is fetched again
            ],
        );
        run.drive(|r| r.st.issued == 3 && r.db.pool.fetch_in_flight(PageId(p)));
        let Aborting { db, st, .. } = &mut run;
        assert_eq!(db.backend().stats().steal_writes, 1, "p was stolen");
        assert_eq!(db.visible_owner(p, 0), ABORTED, "and is durable as written");
        // no frame holds p: none is restored, and the visit is a pool miss
        let misses = db.pool_stats().misses;
        assert_eq!(db.undo_participant(ABORTED, st), 0);
        assert_eq!(db.pool_stats().misses, misses + 1);

        run.drive(Aborting::drained);
        let db = &mut run.db;
        assert!(db.pool.contains(PageId(p)), "the fetch of p completed");
        assert_eq!(
            db.visible_owner(p, 0),
            0,
            "the aborted write is visible through the fetched frame"
        );

        // and it stays rolled back: a committed write to another slot of
        // the frame, a steal of it, a crash
        let later = db.execute(&[(p, 1, true)], 64).txn;
        db.execute(&[(q, 0, false)], 32);
        assert!(!db.pool.contains(PageId(p)), "p was stolen again");
        db.crash();
        db.recover();
        assert_eq!(
            (db.visible_owner(p, 0), db.visible_owner(p, 1)),
            (0, later),
            "the aborted write turned durable again"
        );
    }

    /// A rollback visits a resident frame as a write access, before it
    /// patches the images outside the pool: a frame a checkpoint cleaned
    /// reads the slot while the newest record still carries the aborted
    /// write, is counted as restored, and ends dirty.
    #[test]
    fn a_rollback_dirties_the_clean_frame_it_visits() {
        let p = 5u64;
        let mut run = Aborting::new(4, vec![one_access(p, 0, true)]);
        run.drive(Aborting::drained);
        let Aborting { db, st, .. } = &mut run;
        db.checkpoint();
        assert!(db.pool.dirty_pages().is_empty(), "checkpointed");
        assert_eq!(db.visible_owner(p, 0), ABORTED);

        let hits = db.pool_stats().hits;
        assert_eq!(db.undo_participant(ABORTED, st), 1, "restored in the frame");
        assert_eq!(db.pool_stats().hits, hits + 1);
        assert_eq!(db.pool.dirty_pages(), [PageId(p)], "the visit dirtied it");
        let frame = db.pool.redo(PageId(p)).expect("resident");
        let before = frame.slot(0).expect("the frame holds the rollback");
        assert_eq!(
            before.map(|r| db.wal.after(r)[..8].to_vec()),
            Some(vec![0; 8])
        );
        assert_eq!(db.visible_owner(p, 0), 0);
        db.crash(); // the durable image was rolled back too
        assert_eq!(db.visible_owner(p, 0), 0);
    }
}
