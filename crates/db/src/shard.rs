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
//! Each shard is the *same* completion-driven executor
//! ([`Database::run_concurrent`]'s building blocks, not a copy): the
//! coordinator computes every shard's next wake instant — runnable work
//! at its current clock, its next device completion, slot/group timers,
//! or a deliverable commit decision — and a [`CoreClock`] picks the
//! earliest, breaking ties round-robin from the last grant. The picked
//! shard advances to that instant and runs its `quiesce`/`reap` loop to
//! exhaustion, exactly as the single-threaded executor would. With one
//! shard the coordinator collapses structurally into
//! `run_concurrent` — the same calls in the same order on the same
//! state — which is the **QD-1 × 1-shard bit-identity** anchor the
//! proptests pin.
//!
//! ## Cross-shard transactions
//!
//! A transaction whose accesses land on more than one partition is
//! split into per-shard *shares* at submission time, all under one
//! global id. Each share prepares ([`LogRecord::Prepare`]) instead of
//! committing; prepare votes flow through the shard's
//! `ShardEvent` outbox into the ledger; a unanimous-YES verdict posts
//! a *decision commit* to the home shard's mailbox, deliverable once
//! the home clock reaches the last vote's force end — one more
//! group-commit member ([`MemberKind::Decide`]) whose force is the
//! global commit point. A NO vote (typed force failure under fault
//! injection) aborts: an [`LogRecord::Abort`] on the home shard and an
//! in-memory before-image rollback on every shard whose share applied.
//!
//! ## Modeling caveat
//!
//! Shard clocks are loosely coupled: the coordinator steps shards in
//! wake-time order, so a shard's clock can run ahead of a peer's by at
//! most one step. Cross-clock messages (votes, decisions) are delivered
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
use crate::exec::{
    ExecConfig, ExecReport, ExecState, PlannedTxn, ShardEvent, SlotState, TxnInput, TxnRole,
};
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
            // sharded submission is multi-queue by construction: a
            // shard submits into a peer's parked force window, so the
            // device must accept per-stream (not global) time order
            db.backend.relax_submit_order();
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

    /// Split global `inputs` into per-shard input queues and id/role
    /// assignments, registering cross-shard transactions in the ledger.
    /// Everything is planned up front — the run itself makes no
    /// partitioning choices, which keeps replay deterministic.
    fn split(&mut self, inputs: &[TxnInput]) -> (Vec<Vec<TxnInput>>, Vec<Vec<PlannedTxn>>) {
        let n = self.shards.len();
        // an even spread's worth up front: skew and the extra shares of
        // cross-shard transactions cost a list one doubling at most
        let even = inputs.len().div_ceil(n);
        let mut plans: Vec<Vec<TxnInput>> = (0..n).map(|_| Vec::with_capacity(even)).collect();
        let mut assigned: Vec<Vec<PlannedTxn>> = (0..n).map(|_| Vec::with_capacity(even)).collect();
        // one input's accesses by shard, refilled per input; within a
        // shard the global access order is preserved
        let mut shares: Vec<Vec<(u64, u16, bool)>> = vec![Vec::new(); n];
        for input in inputs {
            let id = self.next_global;
            self.next_global += 1;
            let mut touched = 0usize;
            for &(page, slot, dirty) in &input.accesses {
                let g = page % self.data_pages;
                let share = &mut shares[(g % n as u64) as usize];
                touched += usize::from(share.is_empty());
                share.push((g / n as u64, slot, dirty));
            }
            if touched <= 1 {
                // single-shard (or access-free): an ordinary local
                // transaction on its partition, ledger never involved
                let s = shares.iter().position(|sh| !sh.is_empty()).unwrap_or(0);
                plans[s].push(TxnInput {
                    accesses: shares[s].to_vec(),
                    log_bytes: input.log_bytes,
                });
                shares[s].clear();
                assigned[s].push(PlannedTxn {
                    id,
                    role: TxnRole::Local,
                });
                continue;
            }
            // cross-shard: one participant share per touched partition in
            // ascending shard order, home = the first access's shard, log
            // payload split across the shares (each prepare forces its
            // own slice)
            let home = input
                .accesses
                .first()
                .map(|&(page, _, _)| self.shard_of(page))
                .unwrap_or(0);
            let read_only = !input.accesses.iter().any(|a| a.2);
            let participants = (0..n).filter(|&s| !shares[s].is_empty()).collect();
            self.ledger.begin(id, home, participants, read_only);
            for (s, share) in shares.iter_mut().enumerate() {
                if share.is_empty() {
                    continue;
                }
                plans[s].push(TxnInput {
                    accesses: share.to_vec(),
                    log_bytes: (input.log_bytes / touched as u32).max(32),
                });
                share.clear();
                assigned[s].push(PlannedTxn {
                    id,
                    role: TxnRole::Participant,
                });
            }
        }
        (plans, assigned)
    }

    /// Shard `s`'s next wake instant: `Some(now)` while it has work at its
    /// current clock (a deliverable decision, a refillable or runnable
    /// slot, a ready completion, a due group), else its next future
    /// event, `None` when nothing is scheduled.
    ///
    /// This reads the shard's own clock, slots, group, `force_horizon`
    /// and input count, its own backend's completion instants (fixed at
    /// submission) and the mailbox entries addressed to it — nothing a
    /// step of another shard can move. [`ShardedDb::run`]'s wake cache
    /// rests on that.
    fn wake_of(
        db: &mut Database<B>,
        st: &ExecState,
        s: usize,
        inputs: usize,
        cfg: &ExecConfig,
        mailbox: &[Decision],
    ) -> Option<SimTime> {
        let now = db.now;
        let deliverable = mailbox.iter().any(|d| d.home == s && d.at <= now);
        // the executor's scan bounds rule most shards out without a scan
        let refillable = st.issued < inputs
            && st.idle_from <= now
            && st
                .slots
                .iter()
                .any(|sl| matches!(sl.state, SlotState::Idle { free_at } if free_at <= now));
        let runnable = st.run_from <= now
            && st
                .slots
                .iter()
                .any(|sl| matches!(sl.state, SlotState::Run { ready_at } if ready_at <= now));
        let completion_ready = db
            .backend
            .next_read_done()
            .map(|t| t <= now)
            .unwrap_or(false);
        if deliverable
            || refillable
            || runnable
            || completion_ready
            || st.group.due(&cfg.group, now)
        {
            return Some(now);
        }
        // quiescent at `now`: next future event, a pending force
        // completion, or a queued decision not yet deliverable
        let mut w = db.next_event(inputs, cfg, st);
        if st.force_horizon > now {
            let fh = st.force_horizon;
            w = Some(w.map_or(fh, |x| x.min(fh)));
        }
        if let Some(at) = mailbox.iter().filter(|d| d.home == s).map(|d| d.at).min() {
            let at = at.max(now);
            w = Some(w.map_or(at, |x| x.min(at)));
        }
        w
    }

    /// Run global `inputs` to completion across the shards: each shard
    /// a `cfg.concurrency`-deep closed loop, the core clock picking who
    /// steps, the ledger deciding cross-shard fates. See the module
    /// docs for the loop and the 1-shard identity.
    pub fn run(&mut self, inputs: &[TxnInput], cfg: &ExecConfig) -> ShardedReport {
        let n = self.shards.len();
        let depth = cfg.concurrency.max(1);
        let stats_before = self.ledger.stats();
        self.align_clocks();
        let started_at = self
            .shards
            .first()
            .map(|db| db.now)
            .unwrap_or(SimTime::ZERO);
        let (plans, assigned) = self.split(inputs);

        let mut states: Vec<ExecState> = Vec::with_capacity(n);
        let mut coalesced_before: Vec<u64> = Vec::with_capacity(n);
        for ((db, plan), assigned) in self.shards.iter_mut().zip(&plans).zip(assigned) {
            assert!(db.loaded, "call load() before executing transactions");
            db.backend
                .set_read_window(depth + cfg.prefetch.depth as usize);
            coalesced_before.push(db.pool.stats().coalesced);
            let mut st = ExecState::new(depth, db.now, &cfg.prefetch, plan.len());
            db.reserve_log(plan, &assigned);
            st.assigned = assigned;
            // group forces park their completion in `force_horizon`
            // instead of advancing the shard clock, so peer shards keep
            // submitting into the force's latency window (the overlap a
            // real multi-queue host gets for free)
            st.async_force = true;
            states.push(st);
        }

        let mut clock = CoreClock::new(n);
        let mut mailbox: Vec<Decision> = Vec::new();
        // Every shard's next wake instant, kept across iterations. A
        // shard's wake moves only when the shard steps (either arm of the
        // pick below) or a decision is mailed to it (see `wake_of`), so
        // those three places mark it stale and only stale wakes are
        // derived again. Debug builds derive all of them every iteration
        // and hold the cache to the result.
        let mut wakes: Vec<Option<SimTime>> = vec![None; n];
        let mut stale = vec![true; n];
        // force outcomes of the shard that stepped, for the ledger
        let mut events: Vec<ShardEvent> = Vec::new();

        loop {
            for s in 0..n {
                if stale[s] || cfg!(debug_assertions) {
                    let w = Self::wake_of(
                        &mut self.shards[s],
                        &states[s],
                        s,
                        plans[s].len(),
                        cfg,
                        &mailbox,
                    );
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
                    let db = &mut self.shards[s];
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
                    // the single-executor inner loop, verbatim
                    loop {
                        db.quiesce(&plans[s], cfg, st);
                        if !db.reap(st) {
                            break;
                        }
                    }
                    s
                }
                None => {
                    // nothing scheduled anywhere: the only way forward
                    // is forcing an undersized group (same fallback as
                    // the single-executor loop, lowest shard first)
                    let Some(s) = (0..n).find(|&s| !states[s].group.is_empty()) else {
                        break; // all quiet: the run is complete
                    };
                    let t = self.shards[s].now;
                    self.shards[s].force_group(t, &mut states[s]);
                    s
                }
            };
            stale[stepped] = true;
            events.append(&mut states[stepped].outbox);

            // route force outcomes through the ledger
            for ev in events.drain(..) {
                match ev {
                    ShardEvent::Prepared {
                        txn,
                        status,
                        done,
                        started,
                    } => match self.ledger.on_prepared(txn, stepped, status, done, started) {
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
                            // typed abort: an informational record on the
                            // home log (RAM append — there is no commit to
                            // retract, so nothing forces) plus a rollback
                            // of every share that already applied
                            self.shards[home].wal.append(LogRecord::Abort { txn });
                            for p in undo {
                                self.shards[p].undo_participant(txn, &mut states[p]);
                            }
                        }
                        LedgerAction::UndoLate { shard } => {
                            self.shards[shard].undo_participant(txn, &mut states[shard]);
                        }
                    },
                    ShardEvent::Committed { txn, done } => {
                        self.ledger.on_committed(txn, done);
                        // committed: no share can roll back any more
                        if let Some(entry) = self.ledger.entry(txn) {
                            for &p in &entry.participants {
                                states[p].undo.remove(&txn);
                            }
                        }
                    }
                }
            }
        }

        // the loop only exits fully drained; pin that down
        for (s, st) in states.iter().enumerate() {
            assert!(
                st.issued == plans[s].len()
                    && st.all_idle()
                    && st.pending.is_empty()
                    && st.group.is_empty(),
                "shard {s} exited the run with work outstanding"
            );
        }
        assert!(mailbox.is_empty(), "undelivered decision commits remain");
        assert!(
            self.ledger.is_quiescent(),
            "cross-shard transactions left undecided"
        );

        // per-shard reports, then align the clocks on the global end
        let mut per_shard: Vec<ExecReport> = Vec::with_capacity(n);
        for (s, st) in states.into_iter().enumerate() {
            let report = self.shards[s].finish_run(started_at, coalesced_before[s], st);
            per_shard.push(report);
        }
        self.align_clocks();
        let end = self.shards.first().map(|db| db.now).unwrap_or(started_at);

        let delta = |f: fn(&LedgerStats) -> u64| {
            let after = self.ledger.stats();
            f(&after) - f(&stats_before)
        };
        let committed: u64 = per_shard.iter().map(|r| r.commit_order.len() as u64).sum();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DbConfig;
    use crate::ledger::TxnDecision;
    use crate::stack_backend::BlockStackBackend;
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

    impl<B: PersistenceBackend> ShardedDb<B> {
        /// `split` as it was when it built a `BTreeMap` of shares per
        /// input — the reference the scratch-list `split` is held to.
        fn split_by_tree(
            &mut self,
            inputs: &[TxnInput],
        ) -> (Vec<Vec<TxnInput>>, Vec<Vec<PlannedTxn>>) {
            let n = self.shards.len();
            let mut plans: Vec<Vec<TxnInput>> = vec![Vec::new(); n];
            let mut assigned: Vec<Vec<PlannedTxn>> = vec![Vec::new(); n];
            for input in inputs {
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
                    plans[s].push(TxnInput {
                        accesses,
                        log_bytes: input.log_bytes,
                    });
                    assigned[s].push(PlannedTxn {
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
                    plans[s].push(TxnInput {
                        accesses,
                        log_bytes: (input.log_bytes / k).max(32),
                    });
                    assigned[s].push(PlannedTxn {
                        id,
                        role: TxnRole::Participant,
                    });
                }
            }
            (plans, assigned)
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
        fn scratch_list_split_matches_the_tree_split_it_replaced(
            batches in proptest::collection::vec(arb_split_inputs(), 1..4),
        ) {
            for n in [1usize, 2, 4, 5] {
                // one deployment per implementation: both walk the global id
                // namespace and fill a ledger, batch after batch
                let (mut lists, mut tree) = (sharded_over(n, 60), sharded_over(n, 60));
                for inputs in &batches {
                    let (plans, assigned) = lists.split(inputs);
                    let (want_plans, want_assigned) = tree.split_by_tree(inputs);
                    prop_assert_eq!(&plans, &want_plans, "{} shards: plans", n);
                    prop_assert_eq!(&assigned, &want_assigned, "{} shards: assigned", n);
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
        let entry = db.ledger().entry(1).expect("txn 1 is cross-shard");
        assert_eq!(entry.decision, TxnDecision::Committed);
        assert_eq!(entry.participants, vec![0, 1]);
        // the commit point lives only on the home shard; both shards
        // hold a durable prepare
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
        assert_eq!(commits, vec![entry.home], "commit record only on home");
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
            let a = sharded(n).run(&inputs, &cfg);
            let b = sharded(n).run(&inputs, &cfg);
            assert_eq!(a.makespan, b.makespan, "{n} shards: makespan");
            assert_eq!(a.forces, b.forces, "{n} shards: forces");
            for s in 0..n {
                assert_eq!(
                    a.per_shard[s].commit_order, b.per_shard[s].commit_order,
                    "{n} shards: shard {s} commit order"
                );
            }
        }
    }
}
