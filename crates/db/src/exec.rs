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
//! This module holds the steps; the one loop that drives them is the
//! shard driver's (`shard.rs`), and `run_concurrent` is its one-shard
//! case.
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

use std::collections::{BTreeMap, VecDeque};

use requiem_sim::time::SimTime;
use requiem_sim::{Cause, Histogram, IoStatus, Layer};

use crate::backend::{PageRead, PersistenceBackend};
use crate::engine::Database;
use crate::ledger::TwoPhaseLedger;
use crate::page::{PageId, RECORD_SIZE, SLOTS_PER_PAGE};
use crate::prefetch::{PrefetchConfig, PrefetchStats, Prefetcher};
use crate::shard::drive;
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
    /// Single-shard: append `Commit` and finish locally (every share of
    /// a one-shard run is one).
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
    /// Index into the caller's (global) input list.
    pub(crate) input: usize,
    /// The log's next LSN when it started: at or below its first record.
    pub(crate) first: Lsn,
    /// The global input's next access to look at; accesses another
    /// shard owns are stepped over.
    pub(crate) next: usize,
    /// True once any access dirtied a page.
    pub(crate) wrote: bool,
    /// How the transaction terminates.
    pub(crate) role: TxnRole,
    /// Log payload bytes the share forces if it wrote.
    pub(crate) log_bytes: u32,
}

/// What one closed loop runs: positions in the caller's inputs, each read
/// through a shard filter. `run_concurrent` runs every input whole
/// ([`Plan::all`]); a shard runs the inputs it is home to, and the shares
/// of other homes' cross-shard inputs its inbox delivers
/// ([`Plan::shard`]). Nothing is copied: a share's id, role, log bytes
/// and accesses (in the shard's own page numbering) are derived from the
/// global input where they are used.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan<'a> {
    /// The caller's inputs, in global order.
    inputs: &'a [TxnInput],
    /// Global indices of the inputs this loop runs, in admission order;
    /// `None` runs every input in order.
    picks: Option<&'a [u32]>,
    /// Id of `inputs[0]`: an input runs under this plus its index.
    first_id: u64,
    /// The filter: this loop owns global page `g` (taken modulo `pages`)
    /// when `g % shards == shard`, as its local page `g / shards`.
    pages: u64,
    shards: u64,
    shard: u64,
}

impl<'a> Plan<'a> {
    /// Every input, whole, under ids `first_id..` (one shard of one).
    pub(crate) fn all(inputs: &'a [TxnInput], first_id: u64, pages: u64) -> Self {
        Plan {
            inputs,
            picks: None,
            first_id,
            pages,
            shards: 1,
            shard: 0,
        }
    }

    /// Shard `shard`'s view of the global `inputs` over a global keyspace
    /// of `pages` pages split `shards` ways: it admits the inputs at
    /// `picks`, in that order, and whatever share its inbox delivers.
    pub(crate) fn shard(
        inputs: &'a [TxnInput],
        picks: &'a [u32],
        first_id: u64,
        pages: u64,
        shards: usize,
        shard: usize,
    ) -> Self {
        Plan {
            inputs,
            picks: Some(picks),
            first_id,
            pages,
            shards: shards as u64,
            shard: shard as u64,
        }
    }

    /// Plan entries: the transactions this loop admits in order.
    pub(crate) fn len(&self) -> usize {
        self.picks.map_or(self.inputs.len(), <[u32]>::len)
    }

    /// The global input of plan entry `k`.
    pub(crate) fn input(&self, k: usize) -> usize {
        self.picks.map_or(k, |p| p[k] as usize)
    }

    /// Every global input with a share on this loop, plan entries and
    /// inbox shares alike, in input order: with one shard every input,
    /// else each one with an access here.
    pub(crate) fn shares(self) -> impl Iterator<Item = usize> + 'a {
        (0..self.inputs.len())
            .filter(move |&i| self.shards == 1 || self.accesses(i, 0).next().is_some())
    }

    /// `page` within the global keyspace. A page already in range, as
    /// every generated one is, skips the division: tens of cycles on
    /// every access the executor walks.
    fn global(&self, page: u64) -> u64 {
        if page < self.pages {
            page
        } else {
            page % self.pages
        }
    }

    /// The local page of global `page`, `None` when another shard owns it
    /// (with one shard, none does, and no division by `shards` is made).
    fn local(&self, page: u64) -> Option<u64> {
        let g = self.global(page);
        if self.shards == 1 {
            return Some(g);
        }
        (g % self.shards == self.shard).then_some(g / self.shards)
    }

    /// This loop's share of global input `input` as a transaction starting
    /// at `started` with the log at `first`. An input touching more than
    /// one shard runs as a two-phase participant and forces a slice of its
    /// log payload. `seen` is scratch for the shard count (one flag per
    /// shard, all clear on entry and on return).
    pub(crate) fn start(
        &self,
        input: usize,
        seen: &mut Vec<bool>,
        started: SimTime,
        first: Lsn,
    ) -> Active {
        let txn = &self.inputs[input];
        let touched = self.touched(txn, seen);
        let (role, log_bytes) = if touched > 1 {
            (TxnRole::Participant, (txn.log_bytes / touched).max(32))
        } else {
            (TxnRole::Local, txn.log_bytes)
        };
        Active {
            id: self.first_id + input as u64,
            started,
            input,
            first,
            next: 0,
            wrote: false,
            role,
            log_bytes,
        }
    }

    /// How many shards `txn` touches, or 1 when that is at most one: only
    /// a cross-shard input, the rare one, is counted on `seen`.
    fn touched(&self, txn: &TxnInput, seen: &mut Vec<bool>) -> u32 {
        if self.shards == 1 {
            return 1;
        }
        let shard_of = |a: &(u64, u16, bool)| (self.global(a.0) % self.shards) as usize;
        let mut shards = txn.accesses.iter().map(shard_of);
        let first = shards.next();
        if shards.all(|s| Some(s) == first) {
            return 1;
        }
        seen.resize(self.shards as usize, false);
        let mut touched = 0;
        for s in txn.accesses.iter().map(shard_of) {
            touched += u32::from(!std::mem::replace(&mut seen[s], true));
        }
        for s in txn.accesses.iter().map(shard_of) {
            seen[s] = false;
        }
        touched
    }

    /// The accesses of global input `input` this shard owns, from access
    /// `from` on: each with its index and its local page.
    pub(crate) fn accesses(
        self,
        input: usize,
        from: usize,
    ) -> impl Iterator<Item = (usize, u64, u16, bool)> + 'a {
        self.inputs[input]
            .accesses
            .iter()
            .enumerate()
            .skip(from)
            .filter_map(move |(at, &(page, slot, dirty))| {
                self.local(page).map(|p| (at, p, slot, dirty))
            })
    }
}

/// What a shard reports back to its coordinator: a cross-shard input it
/// started as home, and the outcome of a force.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardEvent {
    /// The home shard started a cross-shard input: its other shares are
    /// due in their shards' inboxes at `at`.
    Started {
        /// The global transaction.
        txn: u64,
        /// Its index in the global inputs.
        input: u32,
        /// The home's start instant.
        at: SimTime,
    },
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
    /// Plan entries handed to slots so far.
    pub(crate) issued: usize,
    /// Shares of other homes' cross-shard inputs, `(due, global input)`
    /// in arrival order: each is due when its home started the input, and
    /// a free slot admits the first due one ahead of the next plan entry.
    pub(crate) inbox: VecDeque<(SimTime, u32)>,
    /// Inbox shares handed to slots so far.
    pub(crate) admitted: usize,
    pub(crate) forces: u64,
    pub(crate) grouped: u64,
    pub(crate) read_only_latency: Histogram,
    pub(crate) update_latency: Histogram,
    /// Scratch for [`Plan::start`]'s shard count (reused).
    seen: Vec<bool>,
    /// Force outcomes to report to the coordinator (drained per step).
    pub(crate) outbox: Vec<ShardEvent>,
    /// Before-images of participant updates, per global transaction,
    /// with the share's [`Active::first`]: consumed on abort, dropped once
    /// the home shard's decision force lands.
    pub(crate) undo: BTreeMap<u64, (Lsn, Vec<UndoEntry>)>,
    /// Set by the driver when the run has more than one shard: a group
    /// force (and install-side device work) then does *not* advance the
    /// shard's event clock synchronously, so the peers keep submitting
    /// into the overlap window; the completion instant is parked in
    /// `force_horizon` and the driver wakes the shard at it. A lone shard
    /// keeps the synchronous single-submitter discipline.
    pub(crate) async_force: bool,
    /// Latest pending force completion (moves only when `async_force` is
    /// set; the driver treats it as a wake).
    pub(crate) force_horizon: SimTime,
}

impl ExecState {
    /// Fresh state for a `depth`-slot closed loop starting at `now`.
    pub(crate) fn new(depth: usize, now: SimTime, prefetch: &PrefetchConfig) -> Self {
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
            inbox: VecDeque::new(),
            admitted: 0,
            forces: 0,
            grouped: 0,
            read_only_latency: Histogram::new(),
            update_latency: Histogram::new(),
            seen: Vec::new(),
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

    /// When a free slot can next start a transaction: `ZERO` while plan
    /// entries remain (of `plan_len`), else when the first inbox share is
    /// due, `None` with nothing left to admit.
    pub(crate) fn admit_at(&self, plan_len: usize) -> Option<SimTime> {
        if self.issued < plan_len {
            return Some(SimTime::ZERO);
        }
        self.inbox.front().map(|&(due, _)| due)
    }

    /// Every plan entry and inbox share is admitted, and nothing is in
    /// flight: the loop is drained.
    pub(crate) fn drained(&self, plan_len: usize) -> bool {
        self.issued == plan_len
            && self.inbox.is_empty()
            && self.all_idle()
            && self.pending.is_empty()
            && self.group.is_empty()
    }

    /// Where the log's open transactions start: the lowest
    /// [`Active::first`] of a slot's transaction or of a share awaiting
    /// its decision. A checkpoint's trim keeps the log from there.
    pub(crate) fn oldest_open(&self) -> Option<Lsn> {
        let running = self.slots.iter().filter_map(|s| s.txn.map(|t| t.first));
        let waiting = self.undo.values().map(|&(first, _)| first);
        running.chain(waiting).min()
    }
}

impl<B: PersistenceBackend> Database<B> {
    /// Run `inputs` to completion as a closed loop of
    /// `cfg.concurrency` transactions over the batched asynchronous
    /// read path: the shard coordinator's driver over this one engine.
    /// See the module docs for the state machine and the QD-1 identity.
    pub fn run_concurrent(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> ExecReport {
        // the executor allocates the run's ids: one per input, in order
        let plan = Plan::all(inputs, self.next_txn, self.cfg.data_pages);
        self.next_txn += inputs.len() as u64;
        let ledger = &mut TwoPhaseLedger::new();
        drive(std::slice::from_mut(self), ledger, &[plan], cfg).swap_remove(0)
    }

    /// Size the in-memory log for `plan` before running it: an update per
    /// dirty access and a termination record per share — for a two-phase
    /// participant also the decision or abort record its home shard
    /// appends. An upper bound by a few records, so a fault-free run grows
    /// its log once. A run that checkpoints reserves nothing:
    /// each checkpoint's trim cuts the log back to the transactions still
    /// open, so it stops growing once it holds about one checkpoint
    /// interval.
    pub(crate) fn reserve_log(&mut self, plan: &Plan) {
        if self.cfg.checkpoint_every > 0 {
            return;
        }
        let mut seen = Vec::new();
        let mut bytes = 0;
        for input in plan.shares() {
            let share = plan.start(input, &mut seen, self.now, Lsn(0));
            let dirty = plan.accesses(share.input, 0).filter(|a| a.3).count();
            let two_phase = share.role == TxnRole::Participant;
            bytes += dirty * (UPDATE_HEAD_BYTES + RECORD_SIZE)
                + (1 + usize::from(two_phase)) * TXN_RECORD_BYTES;
        }
        self.wal.reserve(bytes);
    }

    /// This loop's next wake instant: `Some(now)` while it has work at
    /// its current clock (a refillable or runnable slot, a ready
    /// completion, a due group, or `mail` — its earliest decision commit —
    /// already deliverable), else the earliest future instant anything
    /// can happen: a read completion, a slot turning runnable, a free slot
    /// meeting work to admit, the group deadline, a parked force's end or
    /// `mail`. `None` means nothing is scheduled (an undersized group may
    /// still need forcing).
    ///
    /// This reads the loop's own clock, slots, group, `force_horizon`,
    /// plan length and inbox and its own backend's completion instants
    /// (fixed at submission) — nothing a step of another shard can move
    /// but a share mailed to its inbox. The driver's wake cache rests on
    /// that.
    pub(crate) fn wake(
        &mut self,
        plan_len: usize,
        cfg: &ExecConfig,
        st: &ExecState,
        mail: Option<SimTime>,
    ) -> Option<SimTime> {
        let now = self.now;
        let mut next = self.backend.next_read_done();
        if next.is_some_and(|t| t <= now)
            || mail.is_some_and(|t| t <= now)
            || st.group.due(&cfg.group, now)
        {
            return Some(now);
        }
        let mut merge = |t: SimTime| next = Some(next.map_or(t, |n| n.min(t)));
        // the bounds say when no slot can be Idle or Run at all: a wake
        // spent waiting on reads and forces skips the scan
        let admit = st
            .admit_at(plan_len)
            .filter(|_| st.idle_from < SimTime::MAX);
        if admit.is_some() || st.run_from < SimTime::MAX {
            for s in &st.slots {
                let t = match s.state {
                    // a free slot wakes when it also has work to admit
                    SlotState::Idle { free_at } => match admit {
                        Some(a) => a.max(free_at),
                        None => continue,
                    },
                    SlotState::Run { ready_at } => ready_at,
                    SlotState::WaitPage { .. } | SlotState::WaitCommit => continue,
                };
                if t <= now {
                    return Some(now);
                }
                merge(t);
            }
        }
        if let Some(d) = st.group.deadline(&cfg.group).filter(|&d| d > now) {
            merge(d);
        }
        if st.force_horizon > now {
            merge(st.force_horizon);
        }
        if let Some(at) = mail {
            merge(at);
        }
        next
    }

    /// Run refills, runnable slots, and due forces until nothing can
    /// make progress at the current instant.
    pub(crate) fn quiesce(&mut self, plan: &Plan, cfg: &ExecConfig, st: &mut ExecState) {
        loop {
            let mut progress = false;
            // refill idle slots in slot order (deterministic admission)
            if st.idle_from <= self.now && st.admit_at(plan.len()).is_some_and(|a| a <= self.now) {
                progress |= self.refill(plan, st);
            }
            // drive runnable slots in slot order
            if st.run_from <= self.now {
                st.run_from = SimTime::MAX;
                for i in 0..st.slots.len() {
                    if let SlotState::Run { ready_at } = st.slots[i].state {
                        if ready_at <= self.now {
                            self.drive_slot(i, plan, st);
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

    /// Start the next transactions on the idle slots free at `now`, in
    /// slot order — a due inbox share ahead of the next plan entry, so a
    /// share starts once its home has started the input however far this
    /// shard's plan lags; true when one started. A cross-shard input
    /// started from the plan is reported, for the coordinator to mail its
    /// other shares.
    fn refill(&mut self, plan: &Plan, st: &mut ExecState) -> bool {
        let mut started = false;
        st.idle_from = SimTime::MAX;
        for i in 0..st.slots.len() {
            if let SlotState::Idle { free_at } = st.slots[i].state {
                let mailed = st.inbox.front().filter(|m| m.0 <= self.now).map(|m| m.1);
                if free_at > self.now || (mailed.is_none() && st.issued == plan.len()) {
                    st.idle_from = st.idle_from.min(free_at);
                    continue;
                }
                let input = match mailed {
                    Some(input) => {
                        st.inbox.pop_front();
                        st.admitted += 1;
                        input as usize
                    }
                    None => {
                        st.issued += 1;
                        plan.input(st.issued - 1)
                    }
                };
                let first = self.wal.next_lsn();
                let active = plan.start(input, &mut st.seen, self.now, first);
                if mailed.is_none() && active.role == TxnRole::Participant {
                    st.outbox.push(ShardEvent::Started {
                        txn: active.id,
                        input: input as u32,
                        at: self.now,
                    });
                }
                st.slots[i].txn = Some(active);
                st.set_state(i, SlotState::Run { ready_at: self.now });
                started = true;
            }
        }
        started
    }

    /// Advance slot `i` through its accesses until it blocks (page
    /// miss) or commits (enlists in the group).
    pub(crate) fn drive_slot(&mut self, i: usize, plan: &Plan, st: &mut ExecState) {
        loop {
            let Some(mut active) = st.slots[i].txn else {
                return; // defensive: a Run slot always has a transaction
            };
            let Some((at, page, slot_no, dirty)) = plan.accesses(active.input, active.next).next()
            else {
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
                    active.log_bytes.max(32)
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
            };
            // another shard's accesses stay stepped over
            active.next = at;
            st.slots[i].txn = Some(active);
            let pid = PageId(page);
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
                    let share = st.undo.entry(active.id);
                    let (_, entries) = share.or_insert_with(|| (active.first, Vec::new()));
                    entries.push(UndoEntry {
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
            // peer shards: park the horizon instead of advancing the
            // clock — the waiters' `ready_at = end` gates
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
        let (done, status) = match self.force_log(t, horizon) {
            Ok(done) => (done, IoStatus::Ok),
            // a failed force still resolves the group at its end: a
            // `Prepare` member votes NO, but a `Commit` member is
            // acknowledged anyway — the failure is only counted
            Err(failed) => (failed.done, failed.status),
        };
        if st.async_force {
            // peer shards: the force's outcome is already fully
            // determined (slot frees, stats, and outbox all carry
            // `done`), but the clock holds so peer shards can submit
            // into the force's latency window; the driver wakes this
            // shard at the horizon
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
                    status,
                    done,
                    started: m.started,
                });
                st.set_state(m.slot, SlotState::Idle { free_at: done });
                st.slots[m.slot].txn = None;
                continue;
            }
            self.durability.acknowledge(&self.wal, m.lsn, done);
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
            match m.kind {
                MemberKind::Commit => {
                    st.set_state(m.slot, SlotState::Idle { free_at: done });
                    st.slots[m.slot].txn = None;
                }
                MemberKind::Decide => {
                    // slot-less: the participants' slots freed at their
                    // prepare forces; this force is the commit point
                    st.outbox.push(ShardEvent::Committed { txn: m.txn });
                }
                MemberKind::Prepare => {} // handled above
            }
            if self.cfg.checkpoint_every > 0 && self.stats.commits % self.cfg.checkpoint_every == 0
            {
                // a sharp checkpoint quiesces the engine (global pause),
                // exactly as in the serialized path; its trim keeps what
                // the open transactions logged
                self.now = self.now.max(done);
                self.checkpoint_keeping(st.oldest_open());
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
        let commit_lsn = self.wal.append_decision(global);
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
        let Some((_, entries)) = st.undo.remove(&global) else {
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

    fn vision_db(frames: usize) -> Database<BlockStackBackend> {
        let cfg = DbConfig {
            data_pages: 256,
            buffer_frames: frames,
            ..DbConfig::default()
        };
        let be = BlockStackBackend::vision(SsdConfig::modern(), cfg.data_pages, 1 << 22);
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
    /// coordinator. The database is shard 0 of two: the first input also
    /// reads a page of shard 1, so it runs as a two-phase participant (its
    /// prepare vote lands in `st.outbox`, where the test leaves it), the
    /// rest as local transactions.
    struct Aborting {
        db: Database<BlockStackBackend>,
        st: ExecState,
        /// The global inputs: local page `p` is global page `2p`.
        inputs: Vec<TxnInput>,
        picks: Vec<u32>,
    }

    impl Aborting {
        /// `inputs` name the database's own (local) pages.
        fn new(frames: usize, inputs: Vec<TxnInput>) -> Self {
            let db = legacy_db(frames);
            let st = ExecState::new(1, db.now, &PrefetchConfig::off());
            let mut inputs: Vec<TxnInput> = inputs
                .into_iter()
                .map(|t| TxnInput {
                    accesses: t.accesses.iter().map(|&(p, s, d)| (2 * p, s, d)).collect(),
                    log_bytes: t.log_bytes,
                })
                .collect();
            if let Some(first) = inputs.first_mut() {
                first.accesses.push((1, 0, false));
                first.log_bytes *= 2; // each of its two shares forces half
            }
            let picks = (0..inputs.len() as u32).collect();
            Aborting {
                db,
                st,
                inputs,
                picks,
            }
        }

        /// The driver's loop over this one shard, stopped the first time
        /// `until` holds with nothing left to run at the current instant.
        fn drive(&mut self, until: impl Fn(&Self) -> bool) {
            let cfg = ExecConfig::serialized();
            let pages = 2 * self.db.cfg.data_pages;
            let plan = Plan::shard(&self.inputs, &self.picks, ABORTED, pages, 2, 0);
            loop {
                self.db.quiesce(&plan, &cfg, &mut self.st);
                if until(self) {
                    return;
                }
                if self.db.reap(&mut self.st) {
                    continue;
                }
                match self.db.wake(plan.len(), &cfg, &self.st, None) {
                    Some(t) => self.db.now = self.db.now.max(t),
                    None => self.db.force_group(self.db.now, &mut self.st),
                }
            }
        }

        fn drained(&self) -> bool {
            self.st.drained(self.inputs.len())
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
