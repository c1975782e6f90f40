//! The sharded execution path: N executor shards over one device,
//! stepped by a deterministic core clock.
//!
//! [`ShardedDb`] owns `N` [`Database`] instances — each with its own
//! submission context (queue pair via
//! [`BlockStackBackend::shards`](crate::stack_backend::BlockStackBackend::shards)),
//! its own buffer-pool partition, its own WAL region, and a hash
//! partition of the keyspace (`page % N`). The shards never touch each
//! other's state; the only cross-shard machinery is the
//! [`TwoPhaseLedger`] riding on the existing group-commit WAL.
//!
//! ## The coordinator loop
//!
//! One driver runs every closed loop in the crate: each shard is a
//! `cfg.concurrency`-deep completion-driven executor, the driver computes
//! every shard's next wake instant — runnable work at its current clock,
//! its next device completion, slot/group timers, or a deliverable commit
//! decision — and a [`CoreClock`] picks the earliest, breaking ties
//! round-robin from the last grant. The picked shard advances to that
//! instant and runs its `quiesce`/`reap` loop to exhaustion.
//! [`Database::run_concurrent`] is the driver over one shard, so a
//! one-shard [`ShardedDb`] is the single executor itself, not a copy of
//! it: with no peer, forces advance the shard clock and the device keeps
//! its in-order submission check, and only more than one shard parks
//! forces and relaxes submission order.
//!
//! ## Cross-shard transactions
//!
//! A transaction whose accesses land on more than one partition runs as
//! one *share* per touched shard, all under one global id. Submission
//! copies nothing: each shard's plan is a list of indices into the
//! caller's inputs, and the shard reads a share through a filter over
//! the global input (`exec::Plan::shard`) — the id is the run's first
//! global id plus the index, the role and the share's slice of the log
//! payload follow from how many shards the input touches, and the
//! accesses are the input's own on this shard, in local page numbers.
//!
//! Only the *home* shard (the first access's) holds a cross-shard input
//! in its plan. When the home starts it, a `ShardEvent::Started` tells the
//! coordinator, which mails the global index to every other
//! participant's inbox, due at the home's start instant; a free slot
//! admits a due inbox share ahead of its own next plan entry, never
//! before its own clock. So a share starts when its transaction does,
//! not when its shard's plan reaches the input's position — under a
//! skewed partition the most-loaded shard falls further behind in input
//! position with every transaction, and a share waiting for that position
//! waited on a lag that grew with the run.
//!
//! Each share prepares ([`LogRecord::Prepare`]) instead of
//! committing; prepare votes flow through the shard's
//! `ShardEvent` outbox into the ledger; a unanimous-YES verdict posts
//! a *decision commit* to the home shard's mailbox, deliverable once
//! the home clock reaches the last vote's force end — one more
//! group-commit member ([`MemberKind::Decide`]) whose force is the
//! global commit point. A NO vote (typed force failure under fault
//! injection) aborts: an [`LogRecord::Abort`] on the home shard and an
//! in-memory before-image rollback on every shard whose share applied.
//! What the coordinator keeps of a transaction goes once it settles: the
//! ledger forgets the entry, the participants drop their before-images,
//! and the home's log keeps the decision's id past a trim for two agings
//! of the logs — one each time every shard has checkpointed since the
//! last — by when every participant has checkpointed above its share
//! (DESIGN §5).
//!
//! ## Modeling caveat
//!
//! Shard clocks are loosely coupled: the coordinator steps shards in
//! wake-time order, so a shard's clock can run ahead of a peer's by at
//! most one step. Cross-clock messages (shares, votes, decisions) are delivered
//! at `max(sender done, receiver now)` — never into a receiver's past —
//! so the interleaving is causal and, because every choice flows from
//! the core clock's deterministic pick, bit-reproducible at a fixed
//! seed.
//!
//! Panic policy (DESIGN §2.5): clippy denies `unwrap`, `expect` and
//! `panic!` here outside tests — fallible outcomes are typed,
//! invariants use `assert!` with a message.
//!
//! [`LogRecord::Prepare`]: crate::wal::LogRecord::Prepare
//! [`LogRecord::Abort`]: crate::wal::LogRecord::Abort
//! [`MemberKind::Decide`]: crate::wal::MemberKind::Decide

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{CoreClock, Histogram};

use crate::backend::PersistenceBackend;
use crate::engine::Database;
use crate::exec::{ExecConfig, ExecReport, ExecState, Plan, ShardEvent, SlotState, TxnInput};
use crate::ledger::{LedgerAction, LedgerStats, TwoPhaseLedger};
use crate::wal::LogRecord;

/// A decision commit in flight to its home shard: created when the last
/// prepare vote lands, delivered once the home clock reaches `at`.
#[derive(Debug, Clone, Copy)]
struct Decision {
    home: usize,
    txn: u64,
    /// Earliest delivery instant (the last vote's force end).
    at: SimTime,
    /// Global latency base (earliest participant start).
    started: SimTime,
    read_only: bool,
}

/// What a sharded run measured, merged across shards.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Each shard's own closed-loop report (participant shares count as
    /// that shard's transactions).
    pub per_shard: Vec<ExecReport>,
    /// Global transactions offered.
    pub txns: u64,
    /// Global transactions committed (single-shard commits plus
    /// cross-shard decision commits).
    pub committed: u64,
    /// Cross-shard transactions attempted.
    pub cross_txns: u64,
    /// Cross-shard transactions aborted on a NO vote.
    pub aborted: u64,
    /// Prepare forces that came back as typed failures.
    pub prepare_failures: u64,
    /// Wall-clock (virtual) span: run start to the last shard's end.
    pub makespan: SimDuration,
    /// Committed global transactions per second of virtual time.
    pub tps: f64,
    /// Shared log forces summed across shards.
    pub forces: u64,
    /// End-to-end read-only latency, merged across shards
    /// ([`Histogram::merge`] — each global transaction counted once).
    pub read_only_latency: Histogram,
    /// End-to-end update latency, merged across shards.
    pub update_latency: Histogram,
}

/// N executor shards over one device, plus the two-phase ledger.
///
/// Construction pairs each [`Database`] with a backend already bound to
/// its own submission core and LBA stripe (see
/// [`BlockStackBackend::shards`](crate::stack_backend::BlockStackBackend::shards));
/// `data_pages` is the *global* keyspace, partitioned `page % N` with
/// local page `page / N` — so every shard's engine must be configured
/// with `data_pages / N` pages.
#[derive(Debug)]
pub struct ShardedDb<B: PersistenceBackend> {
    shards: Vec<Database<B>>,
    /// Global keyspace size (pages), before partitioning.
    data_pages: u64,
    ledger: TwoPhaseLedger,
    /// Global transaction id namespace (shards never allocate).
    next_global: u64,
}

impl<B: PersistenceBackend> ShardedDb<B> {
    /// Wrap `shards` engines over the global `data_pages` keyspace.
    pub fn new(shards: Vec<Database<B>>, data_pages: u64) -> Self {
        let n = shards.len() as u64;
        assert!(n >= 1, "a sharded database needs at least one shard");
        assert!(
            data_pages % n == 0,
            "global data_pages {data_pages} must divide evenly over {n} shards"
        );
        let mut shards = shards;
        for db in &mut shards {
            assert!(
                db.cfg.data_pages == data_pages / n,
                "each shard must be configured with data_pages / N local pages"
            );
            // several shards are multi-queue submission: a shard submits
            // into a peer's parked force window, so the device must
            // accept per-stream (not global) time order; a lone shard
            // submits in time order, as the single executor does
            if n > 1 {
                db.backend.relax_submit_order();
            }
        }
        ShardedDb {
            shards,
            data_pages,
            ledger: TwoPhaseLedger::new(),
            next_global: 1,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global keyspace size in pages.
    pub fn data_pages(&self) -> u64 {
        self.data_pages
    }

    /// Shard `i`'s engine (inspection: WAL, stats, probes).
    pub fn shard(&self, i: usize) -> &Database<B> {
        &self.shards[i]
    }

    /// Mutable access to shard `i`'s engine.
    pub fn shard_mut(&mut self, i: usize) -> &mut Database<B> {
        &mut self.shards[i]
    }

    /// Attach `probe` to every shard's engine and backend, so the engine
    /// spans of all shards land beside the device spans they share.
    pub fn attach_probe(&mut self, probe: &requiem_sim::Probe) {
        for db in &mut self.shards {
            db.attach_probe(probe.clone());
        }
    }

    /// The cross-shard ledger (inspection for tests and benches).
    pub fn ledger(&self) -> &TwoPhaseLedger {
        &self.ledger
    }

    /// The shard a global page belongs to.
    pub fn shard_of(&self, page: u64) -> usize {
        ((page % self.data_pages) % self.shards.len() as u64) as usize
    }

    /// Load every shard's partition, then align the shard clocks so the
    /// run starts from a common instant.
    pub fn load(&mut self) {
        for db in &mut self.shards {
            db.load();
        }
        self.align_clocks();
    }

    fn align_clocks(&mut self) {
        let t = self
            .shards
            .iter()
            .map(|db| db.now)
            .max()
            .unwrap_or(SimTime::ZERO);
        for db in &mut self.shards {
            db.now = t;
        }
    }

    /// Commits acknowledged on every shard so far: a cross-shard
    /// transaction counts once, on its home shard.
    fn commits(&self) -> u64 {
        self.shards.iter().map(|db| db.stats.commits).sum()
    }

    /// Plan global `inputs` over the shards: each shard's list of the
    /// inputs it is home to (global indices, in input order), and the
    /// run's first global id (an input runs under it plus its index).
    /// Cross-shard transactions are registered in the ledger, which names
    /// the participants their home's start mails a share to. Everything
    /// is planned up front — the run itself makes no partitioning
    /// choices, which keeps replay deterministic — and nothing is copied:
    /// a shard reads its shares through [`Plan::shard`]'s filter.
    fn split(&mut self, inputs: &[TxnInput]) -> (Vec<Vec<u32>>, u64) {
        let n = self.shards.len();
        assert!(
            u32::try_from(inputs.len()).is_ok(),
            "a sharded run takes at most u32::MAX inputs"
        );
        let first_id = self.next_global;
        self.next_global += inputs.len() as u64;
        // an even spread's worth up front: skew and the extra shares of
        // cross-shard transactions cost a list one doubling at most
        let even = inputs.len().div_ceil(n);
        let mut picks: Vec<Vec<u32>> = (0..n).map(|_| Vec::with_capacity(even)).collect();
        // the shards one input touches, cleared per input
        let mut seen = vec![false; n];
        for (i, input) in inputs.iter().enumerate() {
            let mut touched = 0usize;
            for &(page, _, _) in &input.accesses {
                touched += usize::from(!std::mem::replace(&mut seen[self.shard_of(page)], true));
            }
            // home = the first access's shard
            let home = input
                .accesses
                .first()
                .map(|&(page, _, _)| self.shard_of(page))
                .unwrap_or(0);
            picks[home].push(i as u32);
            if touched <= 1 {
                // single-shard (or access-free): an ordinary local
                // transaction on its partition, ledger never involved
                seen[home] = false;
                continue;
            }
            // cross-shard: one participant share per touched partition in
            // ascending shard order, the others mailed when home starts it
            let read_only = !input.accesses.iter().any(|a| a.2);
            let participants: Vec<usize> =
                (0..n).filter(|&s| std::mem::take(&mut seen[s])).collect();
            self.ledger
                .begin(first_id + i as u64, home, participants, read_only);
        }
        (picks, first_id)
    }

    /// Run global `inputs` to completion across the shards: the clocks
    /// aligned, the inputs split into one plan per shard, the driver run
    /// over them, and the shards' reports merged. See the module docs for
    /// the loop.
    pub fn run(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> ShardedReport {
        let n = self.shards.len();
        let stats_before = self.ledger.stats();
        let commits_before = self.commits();
        self.align_clocks();
        let started_at = self
            .shards
            .first()
            .map(|db| db.now)
            .unwrap_or(SimTime::ZERO);
        let (picks, first_id) = self.split(inputs);
        let plans: Vec<Plan> = picks
            .iter()
            .enumerate()
            .map(|(s, p)| Plan::shard(inputs, p, first_id, self.data_pages, n, s))
            .collect();
        let per_shard = drive(&mut self.shards, &mut self.ledger, &plans, cfg);
        self.align_clocks();
        let end = self.shards.first().map(|db| db.now).unwrap_or(started_at);

        let delta = |f: fn(&LedgerStats) -> u64| {
            let after = self.ledger.stats();
            f(&after) - f(&stats_before)
        };
        let committed = self.commits() - commits_before;
        let mut read_only_latency = Histogram::new();
        let mut update_latency = Histogram::new();
        for r in &per_shard {
            read_only_latency.merge(&r.read_only_latency);
            update_latency.merge(&r.update_latency);
        }
        let makespan = end.since(started_at);
        let secs = makespan.as_secs_f64();
        ShardedReport {
            txns: inputs.len() as u64,
            committed,
            cross_txns: delta(|s| s.cross_txns),
            aborted: delta(|s| s.aborted),
            prepare_failures: delta(|s| s.prepare_failures),
            makespan,
            tps: if secs > 0.0 {
                committed as f64 / secs
            } else {
                0.0
            },
            forces: per_shard.iter().map(|r| r.forces).sum(),
            read_only_latency,
            update_latency,
            per_shard,
        }
    }

    /// Simulated crash of the whole deployment: every shard loses its
    /// volatile state at its current instant.
    pub fn crash(&mut self) {
        for db in &mut self.shards {
            db.crash();
        }
    }

    /// Recover every shard against the *union* of durable `Commit`
    /// records across all shards — a cross-shard transaction's commit
    /// record lives only on its home shard, but its updates live on
    /// every participant ([`Database::recover_with`]). Returns the
    /// total records replayed.
    pub fn recover(&mut self) -> u64 {
        let mut committed: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|db| db.wal().durable_commits())
            .collect();
        committed.sort_unstable();
        let mut replayed = 0;
        for db in &mut self.shards {
            replayed += db.recover_with(Some(&committed));
        }
        self.align_clocks();
        replayed
    }
}

/// The closed-loop driver, the one loop both entry points run: each of
/// `shards` runs its `plans` entry as a `cfg.concurrency`-deep closed
/// loop, a [`CoreClock`] picks the shard with the earliest wake to step,
/// and `ledger` decides the fates of the cross-shard transactions the
/// plans hold. [`Database::run_concurrent`] is the one-shard case, and
/// [`ShardedDb::run`] the rest. Returns each shard's report, in shard
/// order, its makespan measured from the shard's clock on entry.
pub(crate) fn drive<B: PersistenceBackend>(
    shards: &mut [Database<B>],
    ledger: &mut TwoPhaseLedger,
    plans: &[Plan],
    cfg: &ExecConfig,
) -> Vec<ExecReport> {
    let n = shards.len();
    let depth = cfg.concurrency.max(1);
    let mut states: Vec<ExecState> = Vec::with_capacity(n);
    // each shard's clock and coalesced-fetch count on entry
    let mut entry: Vec<(SimTime, u64)> = Vec::with_capacity(n);
    for (db, plan) in shards.iter_mut().zip(plans) {
        assert!(db.loaded, "call load() before executing transactions");
        db.backend
            .set_read_window(depth + cfg.prefetch.depth as usize);
        entry.push((db.now, db.pool.stats().coalesced));
        let mut st = ExecState::new(depth, db.now, &cfg.prefetch);
        db.reserve_log(plan);
        // with peers, group forces park their completion in
        // `force_horizon` instead of advancing the shard clock, so the
        // peers keep submitting into the force's latency window (the
        // overlap a real multi-queue host gets for free); a lone shard
        // has no peer to overlap a force with
        st.async_force = n > 1;
        states.push(st);
    }

    let mut clock = CoreClock::new(n);
    let mut mailbox: Vec<Decision> = Vec::new();
    // Every shard's next wake instant, kept across iterations. A shard's
    // wake moves only when the shard steps (either arm of the pick
    // below) or a share or a decision is mailed to it (see
    // `Database::wake`), so those places mark it stale and only stale
    // wakes are derived again. Debug builds derive all of them every
    // iteration and hold the cache to the result.
    let mut wakes: Vec<Option<SimTime>> = vec![None; n];
    let mut stale = vec![true; n];
    // force outcomes of the shard that stepped, for the ledger
    let mut events: Vec<ShardEvent> = Vec::new();
    // each shard's checkpoint count when the logs last aged their
    // trimmed decisions: they age again once every shard has
    // checkpointed since (`Wal::age_decisions`)
    let mut aged_at: Vec<u64> = shards.iter().map(|db| db.stats.checkpoints).collect();

    loop {
        for s in 0..n {
            if stale[s] || cfg!(debug_assertions) {
                let mail = mailbox.iter().filter(|d| d.home == s).map(|d| d.at).min();
                let w = shards[s].wake(plans[s].len(), cfg, &states[s], mail);
                debug_assert!(
                    stale[s] || wakes[s] == w,
                    "shard {s}: cached wake {:?}, but its state says {w:?}",
                    wakes[s]
                );
                wakes[s] = w;
                stale[s] = false;
            }
        }

        let stepped = match clock.pick(&wakes) {
            Some((s, t)) => {
                let db = &mut shards[s];
                let st = &mut states[s];
                db.now = db.now.max(t);
                // deliver due decision commits in arrival order
                let mut i = 0;
                while i < mailbox.len() {
                    if mailbox[i].home == s && mailbox[i].at <= db.now {
                        let d = mailbox.remove(i);
                        db.enlist_decision(d.txn, d.started, d.read_only, st);
                    } else {
                        i += 1;
                    }
                }
                // run everything that can run at this instant, reaping
                // the completions it reaches
                loop {
                    db.quiesce(&plans[s], cfg, st);
                    if !db.reap(st) {
                        break;
                    }
                }
                s
            }
            None => {
                // nothing scheduled anywhere: the only way forward is
                // forcing an undersized group (batched policies with too
                // few stragglers to fill one), lowest shard first
                let Some(s) = (0..n).find(|&s| !states[s].group.is_empty()) else {
                    break; // all quiet: the run is complete
                };
                let t = shards[s].now;
                shards[s].force_group(t, &mut states[s]);
                s
            }
        };
        stale[stepped] = true;
        events.append(&mut states[stepped].outbox);

        // mail shares to their inboxes, route force outcomes through the
        // ledger
        for ev in events.drain(..) {
            match ev {
                ShardEvent::Started { txn, input, at } => {
                    let participants = ledger.entry(txn).map(|e| &e.participants[..]);
                    for &p in participants.unwrap_or_default() {
                        if p != stepped {
                            states[p].inbox.push_back((at, input));
                            stale[p] = true;
                        }
                    }
                }
                ShardEvent::Prepared {
                    txn,
                    status,
                    done,
                    started,
                } => match ledger.on_prepared(txn, stepped, status, done, started) {
                    LedgerAction::None => {}
                    LedgerAction::EnlistCommit {
                        home,
                        at,
                        started,
                        read_only,
                    } => {
                        mailbox.push(Decision {
                            home,
                            txn,
                            at,
                            started,
                            read_only,
                        });
                        stale[home] = true;
                    }
                    LedgerAction::Abort { home, undo } => {
                        // typed abort: an informational record on the home
                        // log (RAM append — there is no commit to retract,
                        // so nothing forces) plus a rollback of every
                        // share that already applied
                        shards[home].wal.append(LogRecord::Abort { txn });
                        for p in undo {
                            shards[p].undo_participant(txn, &mut states[p]);
                        }
                    }
                    LedgerAction::UndoLate { shard } => {
                        shards[shard].undo_participant(txn, &mut states[shard]);
                    }
                },
                ShardEvent::Committed { txn } => {
                    // committed: no share can roll back any more
                    if let Some(entry) = ledger.on_committed(txn) {
                        for &p in &entry.participants {
                            states[p].undo.remove(&txn);
                        }
                    }
                }
            }
        }

        let checkpoints = |(db, &at): (&Database<B>, &u64)| db.stats.checkpoints > at;
        if shards.iter().zip(&aged_at).all(checkpoints) {
            for (db, at) in shards.iter_mut().zip(&mut aged_at) {
                db.wal.age_decisions();
                *at = db.stats.checkpoints;
            }
        }
    }

    // the loop only exits fully drained; pin that down
    for (s, st) in states.iter().enumerate() {
        assert!(
            st.drained(plans[s].len()),
            "shard {s} exited the run with work outstanding"
        );
    }
    assert!(mailbox.is_empty(), "undelivered decision commits remain");
    assert!(
        ledger.is_quiescent(),
        "cross-shard transactions left undecided"
    );

    // close out each shard's loop: its run ends when its last commit
    // force (or checkpoint) lands, and readahead attribution is final
    let closed = shards.iter_mut().zip(states).zip(entry);
    closed
        .map(|((db, mut st), (started_at, coalesced_before))| {
            for s in &st.slots {
                if let SlotState::Idle { free_at } = s.state {
                    db.now = db.now.max(free_at);
                }
            }
            let prefetch = st.prefetcher.finalize();
            for _ in 0..prefetch.losses {
                db.probe.note_status("prefetch-loss");
            }
            let makespan = db.now.since(started_at);
            let txns = (st.issued + st.admitted) as u64;
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
                coalesced: db.pool.stats().coalesced - coalesced_before,
                read_only_latency: st.read_only_latency,
                update_latency: st.update_latency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DbConfig;
    use crate::exec::TxnRole;
    use crate::stack_backend::BlockStackBackend;
    use crate::wal::Lsn;
    use proptest::prelude::*;
    use requiem_block::StackConfig;
    use requiem_ssd::SsdConfig;
    use std::collections::BTreeMap;

    fn sharded(n: usize) -> ShardedDb<BlockStackBackend> {
        sharded_over(n, 64)
    }

    fn sharded_over(n: usize, pages: u64) -> ShardedDb<BlockStackBackend> {
        DbConfig::builder()
            .data_pages(pages)
            .log_pages(16)
            .buffer_frames(32)
            .shards(n)
            .build_sharded_stack(StackConfig::blk_mq(n as u32), SsdConfig::modern())
    }

    /// One share's id and role, as `split_by_tree` assigned them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct PlannedTxn {
        id: u64,
        role: TxnRole,
    }

    /// Global input `input` read through `plan`'s filter: the share as
    /// the `TxnInput` and `PlannedTxn` a copying split built.
    fn share(plan: &Plan, input: usize) -> (TxnInput, PlannedTxn) {
        let share = plan.start(input, &mut Vec::new(), SimTime::ZERO, Lsn(0));
        let accesses = plan
            .accesses(share.input, 0)
            .map(|(_, page, slot, dirty)| (page, slot, dirty))
            .collect();
        let input = TxnInput {
            accesses,
            log_bytes: share.log_bytes,
        };
        let planned = PlannedTxn {
            id: share.id,
            role: share.role,
        };
        (input, planned)
    }

    /// A shard's plan read through its filter, entry by entry.
    fn materialise(plan: &Plan) -> (Vec<TxnInput>, Vec<PlannedTxn>) {
        (0..plan.len()).map(|k| share(plan, plan.input(k))).unzip()
    }

    /// What the tree split gives one shard: the shares its plan holds, with
    /// their ids and roles, and the shares its inbox is mailed, by input.
    type TreeShares = (Vec<TxnInput>, Vec<PlannedTxn>, Vec<(usize, TxnInput)>);

    impl<B: PersistenceBackend> ShardedDb<B> {
        /// `split` as it was when it built a `BTreeMap` of shares per
        /// input — the reference the index plans are held to — with each
        /// cross-shard input's shares but the home's set aside for the
        /// inboxes, as `run` mails them.
        fn split_by_tree(&mut self, inputs: &[TxnInput]) -> Vec<TreeShares> {
            let n = self.shards.len();
            let mut shards: Vec<TreeShares> = vec![(Vec::new(), Vec::new(), Vec::new()); n];
            for (i, input) in inputs.iter().enumerate() {
                let id = self.next_global;
                self.next_global += 1;
                let mut shares: BTreeMap<usize, Vec<(u64, u16, bool)>> = BTreeMap::new();
                for &(page, slot, dirty) in &input.accesses {
                    let g = page % self.data_pages;
                    shares.entry((g % n as u64) as usize).or_default().push((
                        g / n as u64,
                        slot,
                        dirty,
                    ));
                }
                if shares.len() <= 1 {
                    let (s, accesses) = shares.into_iter().next().unwrap_or((0, Vec::new()));
                    shards[s].0.push(TxnInput {
                        accesses,
                        log_bytes: input.log_bytes,
                    });
                    shards[s].1.push(PlannedTxn {
                        id,
                        role: TxnRole::Local,
                    });
                    continue;
                }
                let home = input
                    .accesses
                    .first()
                    .map(|&(page, _, _)| self.shard_of(page))
                    .unwrap_or(0);
                let read_only = !input.accesses.iter().any(|a| a.2);
                let k = shares.len() as u32;
                self.ledger
                    .begin(id, home, shares.keys().copied().collect(), read_only);
                for (s, accesses) in shares {
                    let share = TxnInput {
                        accesses,
                        log_bytes: (input.log_bytes / k).max(32),
                    };
                    if s != home {
                        shards[s].2.push((i, share));
                        continue;
                    }
                    shards[s].0.push(share);
                    shards[s].1.push(PlannedTxn {
                        id,
                        role: TxnRole::Participant,
                    });
                }
            }
            shards
        }
    }

    /// Transactions with no access at all, with every access on one shard
    /// whatever the shard count (pages congruent mod 20, the least common
    /// multiple of the counts tried), and with accesses anywhere in and
    /// beyond the keyspace (two to four shards for most of them).
    fn arb_split_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
        let txn = (
            (0u8..4, 0u64..20),
            proptest::collection::vec((0u64..240, 0u16..16, 0u8..2), 0..6),
            16u32..600,
        )
            .prop_map(|((kind, residue), raw, log_bytes)| TxnInput {
                accesses: raw
                    .into_iter()
                    .map(|(page, slot, dirty)| match kind {
                        0 => (residue + 20 * (page % 12), slot, dirty == 1),
                        _ => (page, slot, dirty == 1),
                    })
                    .collect(),
                log_bytes,
            });
        proptest::collection::vec(txn, 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn index_plans_read_the_shares_the_tree_split_built(
            batches in proptest::collection::vec(arb_split_inputs(), 1..4),
        ) {
            for n in [1usize, 2, 4, 5] {
                // one deployment per implementation: both walk the global id
                // namespace and fill a ledger, batch after batch
                let (mut lists, mut tree) = (sharded_over(n, 60), sharded_over(n, 60));
                for inputs in &batches {
                    let (picks, first_id) = lists.split(inputs);
                    let want = tree.split_by_tree(inputs);
                    prop_assert_eq!(picks.len(), n);
                    for (s, p) in picks.iter().enumerate() {
                        let plan = Plan::shard(inputs, p, first_id, lists.data_pages, n, s);
                        let (shares, assigned) = materialise(&plan);
                        let (want_shares, want_assigned, mailed) = &want[s];
                        prop_assert_eq!(&shares, want_shares, "{} shards: shard {} shares", n, s);
                        prop_assert_eq!(
                            &assigned, want_assigned, "{} shards: shard {} ids and roles", n, s
                        );
                        // a mailed share is read through the same filter
                        for (i, want_share) in mailed {
                            let (got, planned) = share(&plan, *i);
                            prop_assert_eq!(&got, want_share, "{} shards: shard {} input {}", n, s, i);
                            prop_assert_eq!(planned.role, TxnRole::Participant);
                            prop_assert_eq!(planned.id, first_id + *i as u64);
                            let home = lists.ledger.entry(planned.id).map(|e| e.home);
                            prop_assert!(home.is_some_and(|h| h != s), "input {} mailed to its home", i);
                        }
                    }
                    prop_assert_eq!(lists.next_global, tree.next_global);
                    prop_assert_eq!(
                        format!("{:?}", lists.ledger.entries().collect::<Vec<_>>()),
                        format!("{:?}", tree.ledger.entries().collect::<Vec<_>>()),
                        "{} shards: ledger entries", n
                    );
                    prop_assert_eq!(lists.ledger.stats(), tree.ledger.stats());
                }
            }
        }
    }

    fn mixed_inputs(n: u64, pages: u64, cross_every: u64) -> Vec<TxnInput> {
        (0..n)
            .map(|i| {
                let p = (i * 7) % pages;
                let mut accesses = vec![(p, (i % 16) as u16, true)];
                if cross_every > 0 && i % cross_every == 0 {
                    // touch the next residue class too: guaranteed
                    // cross-shard for any shard count > 1
                    accesses.push(((p + 1) % pages, (i % 16) as u16, true));
                }
                TxnInput {
                    accesses,
                    log_bytes: 128,
                }
            })
            .collect()
    }

    #[test]
    fn single_shard_commits_everything_locally() {
        let mut db = sharded(1);
        let report = db.run(&mixed_inputs(24, 64, 3), &ExecConfig::serialized());
        assert_eq!(report.txns, 24);
        assert_eq!(report.committed, 24);
        assert_eq!(report.cross_txns, 0, "one shard: nothing crosses");
        assert_eq!(db.ledger().stats().cross_txns, 0);
        assert_eq!(db.shard(0).stats().commits, 24);
    }

    #[test]
    fn cross_shard_txns_two_phase_commit() {
        let mut db = sharded(2);
        // txn 1 spans shards 0 and 1; txn 2 stays on shard 0
        let inputs = vec![
            TxnInput {
                accesses: vec![(0, 0, true), (1, 0, true)],
                log_bytes: 128,
            },
            TxnInput {
                accesses: vec![(2, 1, true)],
                log_bytes: 128,
            },
        ];
        let report = db.run(&inputs, &ExecConfig::serialized());
        assert_eq!(report.committed, 2);
        assert_eq!(report.cross_txns, 1);
        assert_eq!(report.aborted, 0);
        assert_eq!(db.ledger().stats().committed, 1);
        assert!(
            db.ledger().entry(1).is_none(),
            "settled: the ledger forgot it"
        );
        // the commit point lives only on the home shard (the first
        // access's, shard 0); both shards hold a durable prepare
        for s in 0..2 {
            let has_prepare = db
                .shard(s)
                .wal()
                .durable_records()
                .any(|(_, r)| matches!(r, LogRecord::Prepare { txn: 1 }));
            assert!(has_prepare, "shard {s} must hold a durable Prepare");
        }
        let commits: Vec<usize> = (0..2)
            .filter(|&s| {
                db.shard(s)
                    .wal()
                    .durable_records()
                    .any(|(_, r)| matches!(r, LogRecord::Commit { txn: 1 }))
            })
            .collect();
        assert_eq!(commits, vec![0], "commit record only on home");
    }

    #[test]
    fn cross_shard_updates_survive_crash_via_union_recovery() {
        let mut db = sharded(2);
        let inputs = vec![TxnInput {
            accesses: vec![(0, 3, true), (1, 3, true)],
            log_bytes: 128,
        }];
        db.run(&inputs, &ExecConfig::serialized());
        db.crash();
        db.recover();
        // global page 1 lives on shard 1, local page 0; the update must
        // replay there even though shard 1 only holds a Prepare record
        assert_eq!(db.shard_mut(1).visible_owner(0, 3), 1);
        assert_eq!(db.shard_mut(0).visible_owner(0, 3), 1);
    }

    #[test]
    fn sharded_replay_is_deterministic() {
        for n in [2usize, 4] {
            let inputs = mixed_inputs(40, 64, 4);
            let cfg = ExecConfig {
                concurrency: 4,
                ..ExecConfig::serialized()
            };
            let (mut a, mut b) = (sharded(n), sharded(n));
            let (ra, rb) = (a.run(&inputs, &cfg), b.run(&inputs, &cfg));
            assert_eq!(ra.makespan, rb.makespan, "{n} shards: makespan");
            assert_eq!(ra.forces, rb.forces, "{n} shards: forces");
            for s in 0..n {
                // the engine acknowledges commits in log order, so equal
                // logs are equal commit orders
                assert!(
                    a.shard(s).wal().records().eq(b.shard(s).wal().records()),
                    "{n} shards: shard {s} log"
                );
                assert_eq!(
                    a.shard(s).stats(),
                    b.shard(s).stats(),
                    "{n} shards: shard {s} stats"
                );
            }
        }
    }
}
