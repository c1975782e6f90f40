//! Property tests for the sharded execution path (PR 10):
//!
//! 1. **One shard is the single executor** — at queue depths 1 to 16,
//!    over pools small enough to steal, a one-shard [`ShardedDb`] leaves
//!    the engine where `run_concurrent` does: clock, stall ledger,
//!    histograms, WAL and device counters, every record's owner. At QD 1
//!    both also replay the serialized `execute()` engine bit for bit.
//!    The two entry points run one driver, and the shard count alone
//!    picks its force model; this is the law that holds them to it.
//! 2. **No cross-shard commit without every prepare** — under arbitrary
//!    fault plans (program fails, elevated RBER), a durable `Commit`
//!    for a cross-shard transaction implies a durable `Prepare` on
//!    every participant, aborted transactions never leave a `Commit`
//!    anywhere, and recovery only resurrects decided transactions. The
//!    oracle reads nothing the coordinator keeps (its ledger forgets a
//!    transaction once settled): the cross-shard set, each home and each
//!    participant follow from the inputs, and each decision from the
//!    logs, which these runs never checkpoint, so they are whole.
//! 3. **Deterministic replay** — the same inputs on identically built
//!    deployments produce byte-identical schedules for N ∈ {2, 4, 8}.
//! 4. **Stationarity** — at `oltp_shard4`'s shape, a run four times as
//!    long keeps the short run's p99.9 latency within a fixed factor: no
//!    share waits on a lag that grows with the run.
//!
//! The coordinator keeps each shard's wake instant cached between the
//! events that can move it, and in debug builds re-derives every wake on
//! every iteration and asserts the cache agrees. Two fixed cases at the
//! end walk it through the paths the properties only meet by chance:
//! aborts with late votes, and groups only the nothing-scheduled fallback
//! can force.

use proptest::prelude::*;
use proptest::strategy::Just;
use requiem_block::StackConfig;
use requiem_db::page::PageId;
use requiem_db::wal::{LogRecord, Lsn};
use requiem_db::{
    BlockStackBackend, Database, DbConfig, ExecConfig, GroupCommitPolicy, PersistenceBackend,
    ReadShim, ShardedDb, TxnInput, WalBackend, WalForce, WalStats,
};
use requiem_sim::time::SimTime;
use requiem_sim::{FaultPlan, Histogram, IoStatus};
use requiem_ssd::SsdConfig;
use requiem_workload::{txn_to_input, ShardedOltpConfig, ShardedOltpGen};
use std::collections::BTreeSet;

const DATA_PAGES: u64 = 64;
const SLOTS: u16 = 16;

fn sharded(n: usize, fault: FaultPlan) -> ShardedDb<BlockStackBackend> {
    let mut ssd = SsdConfig::modern();
    ssd.fault = fault;
    DbConfig::builder()
        .data_pages(DATA_PAGES)
        .log_pages(16)
        .buffer_frames(32)
        .shards(n)
        .build_sharded_stack(StackConfig::blk_mq(n as u32), ssd)
}

fn arb_txn(accesses: std::ops::Range<usize>) -> impl Strategy<Value = TxnInput> {
    (
        proptest::collection::vec((0..DATA_PAGES, 0..SLOTS, 0u8..2), accesses),
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

fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(1..6), 1..24)
}

/// A run long enough for a small pool to steal under every queue depth,
/// of transactions of one to four accesses.
fn arb_law_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(1..5), 400)
}

/// A cross-shard transaction as its input defines it.
struct Cross {
    /// Its global id.
    txn: u64,
    /// The shard of its first access, which holds its decision.
    home: usize,
    /// Every shard it touches, ascending.
    participants: Vec<usize>,
}

/// The cross-shard transactions of `inputs` run as the first batch of a
/// fresh deployment of `n` shards, whose global ids start at 1.
fn cross_shard(inputs: &[TxnInput], n: usize) -> Vec<Cross> {
    let shard = |a: &(u64, u16, bool)| ((a.0 % DATA_PAGES) % n as u64) as usize;
    let cross = inputs.iter().enumerate().filter_map(|(i, t)| {
        let mut participants: Vec<usize> = t.accesses.iter().map(shard).collect();
        participants.sort_unstable();
        participants.dedup();
        let home = shard(t.accesses.first()?);
        (participants.len() > 1).then(|| Cross {
            txn: i as u64 + 1,
            home,
            participants,
        })
    });
    cross.collect()
}

/// How the logs decided `c`: committed by a durable `Commit` on its home,
/// aborted by an `Abort` its home logged (in memory: nothing forces one),
/// pending with neither. Both is a contradiction the caller reports.
fn decided<B: PersistenceBackend>(db: &ShardedDb<B>, c: &Cross) -> (bool, bool) {
    let home = db.shard(c.home).wal();
    let commit = LogRecord::Commit { txn: c.txn };
    let abort = LogRecord::Abort { txn: c.txn };
    (
        home.durable_records().any(|(_, r)| r == commit),
        home.records().any(|(_, r)| r == abort),
    )
}

/// A fault plan mixing deterministic program fails (early write indices
/// on a few units — these land in WAL regions and turn prepare forces
/// into NO votes) with optional elevated raw bit error rates.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec((0u32..8, proptest::collection::vec(0u64..40, 0..4)), 0..4),
        prop_oneof![Just(1.0f64), Just(50.0), Just(400.0)],
    )
        .prop_map(|(fails, rber)| {
            let mut plan = if rber > 1.0 {
                FaultPlan::uniform_rber(rber)
            } else {
                FaultPlan::none()
            };
            for (unit, indices) in fails {
                if !indices.is_empty() {
                    plan = plan.with_program_fail(unit, indices);
                }
            }
            plan
        })
}

/// A WAL that forges `Unrecoverable` on its `fail_at`-th force (0:
/// never) and serves every other: the device's write path self-heals
/// program failures, so genuinely failing a prepare force — the NO vote
/// the ledger must handle — needs a forged status, exactly like the
/// engine's own flaky-read tests. The engine forces a failed log no more,
/// so a later force that the device would serve is never asked for.
struct FlakyWal {
    inner: Box<dyn WalBackend>,
    forces: u64,
    fail_at: u64,
}

impl WalBackend for FlakyWal {
    fn append(&mut self, lsn: Lsn, bytes: u32) {
        self.inner.append(lsn, bytes)
    }
    fn force(&mut self, now: SimTime, to: Lsn) -> WalForce {
        let f = self.inner.force(now, to);
        self.forces += 1;
        if self.forces == self.fail_at {
            let done = f.settle().unwrap_or_else(|failed| failed.done);
            return WalForce::new(done, IoStatus::Unrecoverable);
        }
        f
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
        "flaky-wal"
    }
}

struct FlakyWalBackend {
    inner: BlockStackBackend,
    fail_at: u64,
}

impl PersistenceBackend for FlakyWalBackend {
    fn make_wal(&mut self) -> Box<dyn WalBackend> {
        Box::new(FlakyWal {
            inner: self.inner.make_wal(),
            forces: 0,
            fail_at: self.fail_at,
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
    fn read_shim(&mut self) -> Option<&mut ReadShim> {
        self.inner.read_shim()
    }
    fn submit_reads(&mut self, now: SimTime, pages: &[PageId]) -> Vec<requiem_db::CommandTag> {
        self.inner.submit_reads(now, pages)
    }
    fn poll(&mut self, now: SimTime) -> Vec<requiem_db::PageRead> {
        self.inner.poll(now)
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
    fn relax_submit_order(&mut self) {
        self.inner.relax_submit_order()
    }
    fn stats(&self) -> &requiem_db::backend::BackendStats {
        self.inner.stats()
    }
    fn label(&self) -> &'static str {
        "flaky-wal-block"
    }
}

/// A sharded deployment whose shard `s` fails its `fail_at(s)`-th WAL
/// force, its `load()` being the first (1 = the log fails at the load,
/// every prepare is a NO vote; 0 = never).
fn flaky_sharded(n: usize, fail_at: impl Fn(usize) -> u64) -> ShardedDb<FlakyWalBackend> {
    let local_pages = DATA_PAGES / n as u64;
    let dbs = (0..n)
        .map(|s| {
            let cfg = requiem_db::DbConfig {
                data_pages: local_pages,
                buffer_frames: 16,
                ..requiem_db::DbConfig::default()
            };
            let mut ssd = SsdConfig::modern();
            ssd.buffer.capacity_pages = 0;
            let be = FlakyWalBackend {
                inner: BlockStackBackend::new(StackConfig::bare(1), ssd, local_pages, 64),
                fail_at: fail_at(s),
            };
            let mut db = Database::new(cfg, be);
            db.load();
            db
        })
        .collect();
    ShardedDb::new(dbs, DATA_PAGES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One shard is the single executor: at every queue depth, with pools
    /// small enough to steal, a one-shard `ShardedDb::run` leaves the
    /// engine where `run_concurrent` leaves it — clock, stall ledger,
    /// histograms, WAL and device counters, every record's owner — and at
    /// QD 1 both leave it where the serialized `execute()` does.
    #[test]
    fn one_shard_is_the_single_executor(inputs in arb_law_inputs()) {
        for frames in [8usize, 64] {
            let builder = DbConfig::builder()
                .data_pages(DATA_PAGES)
                .log_pages(16)
                .buffer_frames(frames);
            for qd in [1usize, 2, 4, 8, 16] {
                let cfg = ExecConfig {
                    concurrency: qd,
                    group: GroupCommitPolicy::batched(qd.min(4) as u32),
                    ..ExecConfig::serialized()
                };
                let mut single = builder.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
                single.run_concurrent(&inputs, &cfg);
                let mut one = builder
                    .clone()
                    .shards(1)
                    .build_sharded_stack(StackConfig::blk_mq(1), SsdConfig::modern());
                let report = one.run(&inputs, &cfg);
                prop_assert_eq!(report.committed, inputs.len() as u64);
                let mut serial = (qd == 1).then(|| {
                    let mut db = builder.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
                    for t in &inputs {
                        db.execute(&t.accesses, t.log_bytes).expect("committed");
                    }
                    db
                });
                let shard = one.shard_mut(0);
                for other in std::iter::once(&mut single).chain(serial.as_mut()) {
                    let at = format!("{frames} frames, QD {qd}, {}", other.backend().label());
                    prop_assert_eq!(shard.now(), other.now(), "{}: clock", at);
                    prop_assert_eq!(shard.stats(), other.stats(), "{}: engine stats", at);
                    prop_assert_eq!(shard.txn_latency(), other.txn_latency(), "{}", at);
                    prop_assert_eq!(shard.commit_latency(), other.commit_latency(), "{}", at);
                    prop_assert_eq!(
                        format!("{:?}", shard.wal_backend().stats()),
                        format!("{:?}", other.wal_backend().stats()),
                        "{}: WAL stats", at
                    );
                    prop_assert_eq!(
                        format!("{:?}", shard.backend().stats()),
                        format!("{:?}", other.backend().stats()),
                        "{}: backend stats", at
                    );
                    for page in 0..DATA_PAGES {
                        for slot in 0..SLOTS {
                            prop_assert_eq!(
                                shard.visible_owner(page, slot),
                                other.visible_owner(page, slot),
                                "{}: owner of page {} slot {}", at, page, slot
                            );
                        }
                    }
                }
            }
        }
    }

    /// Two-phase safety under arbitrary fault plans: durable `Commit`
    /// for a cross-shard transaction ⇒ durable `Prepare` on every
    /// participant; an abort leaves no `Commit` anywhere.
    #[test]
    fn no_cross_shard_commit_with_missing_prepare(
        inputs in arb_inputs(),
        n in prop_oneof![Just(2usize), Just(4usize)],
        concurrency in 1usize..5,
        plan in arb_fault_plan(),
    ) {
        let mut db = sharded(n, plan);
        let cfg = ExecConfig {
            concurrency,
            group: GroupCommitPolicy::batched(2),
            ..ExecConfig::serialized()
        };
        let report = db.run(&inputs, &cfg);
        prop_assert_eq!(
            report.committed + report.aborted,
            inputs.len() as u64,
            "every global transaction must be decided"
        );

        let durable_commit = |s: usize, txn: u64| {
            db.shard(s)
                .wal()
                .durable_records()
                .any(|(_, r)| matches!(r, LogRecord::Commit { txn: t } if t == txn))
        };
        let durable_prepare = |s: usize, txn: u64| {
            db.shard(s)
                .wal()
                .durable_records()
                .any(|(_, r)| matches!(r, LogRecord::Prepare { txn: t } if t == txn))
        };

        let cross = cross_shard(&inputs, n);
        prop_assert_eq!(report.cross_txns, cross.len() as u64);
        prop_assert!(db.ledger().is_quiescent(), "the ledger forgets what settled");
        let mut aborted = Vec::new();
        for c in &cross {
            let txn = c.txn;
            match decided(&db, c) {
                (true, false) => {
                    for &p in &c.participants {
                        prop_assert!(
                            durable_prepare(p, txn),
                            "committed txn {} has no durable Prepare on shard {}", txn, p
                        );
                    }
                }
                (false, true) => {
                    for s in 0..n {
                        prop_assert!(
                            !durable_commit(s, txn),
                            "aborted txn {} left a Commit on shard {}", txn, s
                        );
                    }
                    aborted.push(txn);
                }
                (commit, abort) => prop_assert!(
                    false,
                    "txn {} after the run: home Commit {}, home Abort {}", txn, commit, abort
                ),
            }
            // the commit point is the home shard's force alone
            for s in (0..n).filter(|&s| s != c.home) {
                prop_assert!(
                    !durable_commit(s, txn),
                    "txn {} has a Commit off its home shard ({})", txn, s
                );
            }
        }
        prop_assert_eq!(report.aborted, aborted.len() as u64, "aborts the logs show");

        // recovery must agree: only decided-committed transactions are
        // visible after a crash
        db.crash();
        db.recover();
        for txn in aborted {
            for s in 0..n {
                let local_pages = DATA_PAGES / n as u64;
                for page in 0..local_pages {
                    for slot in 0..SLOTS {
                        prop_assert_ne!(
                            db.shard_mut(s).visible_owner(page, slot),
                            txn,
                            "aborted txn {} visible after recovery (shard {} page {} slot {})",
                            txn, s, page, slot
                        );
                    }
                }
            }
        }
    }

    /// Typed aborts under forged force failures: a NO vote or a failed
    /// decision force can never be followed by a durable commit, every
    /// aborted share is rolled back, a commit whose force failed is
    /// neither acknowledged nor durable, and with the load's force
    /// failing, *every* cross-shard transaction aborts. Each shard's log
    /// fails at its `fail_at`-th force and stays failed: the forces after
    /// it fail at once.
    #[test]
    fn forged_prepare_failures_abort_without_commits(
        inputs in arb_inputs(),
        n in prop_oneof![Just(2usize), Just(4usize)],
        fail_at in 1u64..16,
        concurrency in 1usize..5,
    ) {
        let mut db = flaky_sharded(n, |_| fail_at);
        let cfg = ExecConfig {
            concurrency,
            ..ExecConfig::serialized()
        };
        let report = db.run(&inputs, &cfg);
        // each decision, read off the logs before the checkpoints below
        // trim them
        let cross = cross_shard(&inputs, n);
        let mut aborted = Vec::new();
        for c in &cross {
            match decided(&db, c) {
                (true, false) => {}
                (false, true) => aborted.push(c),
                (commit, abort) => prop_assert!(
                    false,
                    "txn {} after the run: home Commit {}, home Abort {}", c.txn, commit, abort
                ),
            }
        }
        prop_assert_eq!(report.aborted, aborted.len() as u64, "aborts the logs show");
        if fail_at == 1 {
            prop_assert_eq!(
                report.aborted, report.cross_txns,
                "with every log failed from the load, every cross-shard txn must abort"
            );
        }
        // a commit is acknowledged exactly when its record is durable; the
        // rest of the inputs neither committed nor aborted: their commit
        // force failed, and their `Commit` lies above the horizon
        let durable: BTreeSet<u64> = (0..n)
            .flat_map(|s| db.shard(s).wal().durable_commits())
            .collect();
        prop_assert_eq!(durable.len() as u64, report.committed, "{:?}", durable);
        let aborted_ids: BTreeSet<u64> = aborted.iter().map(|c| c.txn).collect();
        let unacked: Vec<u64> = (1..=inputs.len() as u64)
            .filter(|t| !durable.contains(t) && !aborted_ids.contains(t))
            .collect();
        prop_assert_eq!(
            unacked.len() as u64,
            inputs.len() as u64 - report.committed - report.aborted
        );
        for &txn in &unacked {
            let lost = (0..n).any(|s| {
                let wal = db.shard(s).wal();
                let commit = LogRecord::Commit { txn };
                db.shard(s).log_failure().is_some()
                    && wal.records().any(|(lsn, r)| r == commit && Some(lsn) > wal.flushed())
            });
            prop_assert!(lost, "unacknowledged txn {} has no commit past a failed log", txn);
        }
        // every `Commit` and `Abort` each log holds, forced or not, before
        // a checkpoint forces the log whole and trims it — unless the log
        // has failed, when the checkpoint forces nothing
        let ends: Vec<Vec<(Lsn, LogRecord)>> = (0..n)
            .map(|s| {
                db.shard(s)
                    .wal()
                    .records()
                    .filter(|(_, r)| matches!(r, LogRecord::Commit { .. } | LogRecord::Abort { .. }))
                    .collect()
            })
            .collect();
        let mut horizons = Vec::new();
        for (s, ends) in ends.iter().enumerate() {
            let before = db.shard(s).wal().flushed();
            db.shard_mut(s).checkpoint();
            let horizon = db.shard(s).wal().flushed();
            if db.shard(s).log_failure().is_some() {
                prop_assert_eq!(horizon, before, "shard {}: a failed log moved its horizon", s);
            } else {
                for &(lsn, rec) in ends {
                    prop_assert!(
                        Some(lsn) <= horizon,
                        "{:?} at {:?} on shard {} is past the checkpoint's force to {:?}",
                        rec, lsn, s, horizon
                    );
                }
            }
            horizons.push(horizon);
        }
        // an aborted transaction's `Commit` is its failed decision force's
        // alone, on a failed home log and above its horizon
        for c in &aborted {
            let txn = c.txn;
            for (s, ends) in ends.iter().enumerate() {
                let commit = ends.iter().find(|&&(_, r)| r == LogRecord::Commit { txn });
                let durable = db.shard(s).wal().durable_commits().contains(&txn);
                let failed_home = s == c.home && db.shard(s).log_failure().is_some();
                prop_assert!(
                    !durable && commit.is_none_or(|&(lsn, _)| failed_home && Some(lsn) > horizons[s]),
                    "aborted txn {} left a Commit on shard {}", txn, s
                );
            }
        }
        // rolled-back shares must be invisible in the final bytes
        let local_pages = DATA_PAGES / n as u64;
        for txn in aborted.iter().map(|c| c.txn) {
            for s in 0..n {
                for page in 0..local_pages {
                    for slot in 0..SLOTS {
                        prop_assert_ne!(
                            db.shard_mut(s).visible_owner(page, slot),
                            txn,
                            "aborted txn {} still visible on shard {}", txn, s
                        );
                    }
                }
            }
        }
        // and after a crash, nothing but the acknowledged commits
        db.crash();
        db.recover();
        for s in 0..n {
            for page in 0..local_pages {
                for slot in 0..SLOTS {
                    let owner = db.shard_mut(s).visible_owner(page, slot);
                    prop_assert!(
                        owner == 0 || durable.contains(&owner),
                        "unacknowledged txn {} visible after recovery (shard {})", owner, s
                    );
                }
            }
        }
    }

    /// Bit-reproducible schedules at every shard count.
    #[test]
    fn sharded_replay_is_deterministic(
        inputs in arb_inputs(),
        concurrency in 1usize..6,
    ) {
        for n in [2usize, 4, 8] {
            let cfg = ExecConfig {
                concurrency,
                ..ExecConfig::serialized()
            };
            let mut a = sharded(n, FaultPlan::none());
            let mut b = sharded(n, FaultPlan::none());
            let ra = a.run(&inputs, &cfg);
            let rb = b.run(&inputs, &cfg);
            prop_assert_eq!(ra.makespan, rb.makespan, "{} shards: makespan", n);
            prop_assert_eq!(ra.committed, rb.committed, "{} shards: committed", n);
            prop_assert_eq!(ra.forces, rb.forces, "{} shards: forces", n);
            for s in 0..n {
                // the engine acknowledges commits in log order, so equal
                // logs are equal durability orders
                prop_assert_eq!(
                    a.shard(s).wal().records().collect::<Vec<_>>(),
                    b.shard(s).wal().records().collect::<Vec<_>>(),
                    "{} shards: shard {} log", n, s
                );
                prop_assert_eq!(
                    a.shard(s).stats(),
                    b.shard(s).stats(),
                    "{} shards: shard {} engine stats", n, s
                );
                prop_assert_eq!(
                    a.shard(s).now(),
                    b.shard(s).now(),
                    "{} shards: shard {} clock", n, s
                );
                prop_assert_eq!(
                    a.shard(s).wal_backend().stats().log_bytes,
                    b.shard(s).wal_backend().stats().log_bytes,
                    "{} shards: shard {} WAL bytes", n, s
                );
            }
        }
    }
}

/// Every transaction touches one page on each of two shards, and the
/// shard pair rotates, so every shard is home to some and a late voter to
/// others.
fn all_cross_inputs(n: u64, shards: u64) -> Vec<TxnInput> {
    (0..n)
        .map(|i| TxnInput {
            accesses: vec![
                (i % DATA_PAGES, (i % 16) as u16, true),
                (
                    (i + 1 + i % (shards - 1)) % DATA_PAGES,
                    (i % 16) as u16,
                    i % 3 == 0,
                ),
            ],
            log_bytes: 128,
        })
        .collect()
}

/// Every prepare force fails (the forged status stands in for a fault
/// plan: the device heals injected program failures itself; the load's
/// force failed, so the logs fail every force after it at once): the first
/// vote of each transaction aborts it and rolls back whoever voted, every
/// later vote is an `UndoLate`, and no decision is ever mailed. In a debug
/// build the coordinator's cached wakes are checked against fresh ones all
/// the way through.
#[test]
fn aborts_and_late_votes_keep_the_wake_cache_honest() {
    for (n, concurrency) in [(2usize, 1usize), (4, 3)] {
        let mut db = flaky_sharded(n, |_| 1);
        let inputs = all_cross_inputs(48, n as u64);
        let cfg = ExecConfig {
            concurrency,
            ..ExecConfig::serialized()
        };
        let report = db.run(&inputs, &cfg);
        assert_eq!(
            (report.cross_txns, report.aborted, report.committed),
            (48, 48, 0)
        );
        assert_eq!(report.prepare_failures, 96, "both votes of each are NO");
        // the engine counts every failed force, each group force among
        // them
        let failures: u64 = (0..n).map(|s| db.shard(s).stats().wal_force_failures).sum();
        assert!(failures >= report.forces, "{failures} of {}", report.forces);
        // an aborted transaction is forgotten only with its last vote
        assert!(db.ledger().is_quiescent(), "every late vote arrived");
    }
    // the logs fail at their FAIL_AT-th force, at different points of the
    // run: until a log fails its shard's transactions commit, after it
    // those touching it abort while the others commit on, and decisions
    // are mailed to shards that are not the one stepping
    const FAIL_AT: u64 = 12;
    let mut db = flaky_sharded(4, |_| FAIL_AT);
    let report = db.run(
        &all_cross_inputs(60, 4),
        &ExecConfig {
            concurrency: 2,
            ..ExecConfig::serialized()
        },
    );
    assert_eq!(report.committed + report.aborted, 60);
    assert!(report.committed > 0 && report.aborted > 0, "{report:?}");
}

/// A cross-shard transaction whose decision force fails is aborted: its
/// home's log failed, so the `Commit` it logged never becomes durable, and
/// both shares roll back; the other shard commits on.
#[test]
fn a_failed_decision_force_aborts_the_transaction() {
    // shard 0's forces: its load, the prepare of txn 1, txn 1's decision
    let mut db = flaky_sharded(2, |s| if s == 0 { 3 } else { 0 });
    let inputs = vec![
        TxnInput {
            accesses: vec![(0, 1, true), (1, 1, true)],
            log_bytes: 128,
        },
        TxnInput {
            accesses: vec![(3, 2, true)],
            log_bytes: 128,
        },
    ];
    let report = db.run(&inputs, &ExecConfig::serialized());
    assert_eq!(
        (
            report.cross_txns,
            report.prepare_failures,
            report.aborted,
            report.committed
        ),
        (1, 0, 1, 1),
        "{report:?}"
    );
    assert!(db.shard(0).log_failure().is_some());
    assert!(db.shard(1).log_failure().is_none());
    let txn1 = Cross {
        txn: 1,
        home: 0,
        participants: vec![0, 1],
    };
    assert_eq!(decided(&db, &txn1), (false, true), "aborted by its home");
    let home = db.shard(0).wal();
    let commit = home
        .records()
        .find(|&(_, r)| r == LogRecord::Commit { txn: 1 });
    assert!(
        commit.is_some_and(|(lsn, _)| Some(lsn) > home.flushed()),
        "the decision's Commit lies past the failed force: {commit:?}"
    );
    // global page 0 is shard 0's local page 0, 1 and 3 shard 1's 0 and 1
    let owners = |db: &mut ShardedDb<FlakyWalBackend>| {
        [
            db.shard_mut(0).visible_owner(0, 1),
            db.shard_mut(1).visible_owner(0, 1),
            db.shard_mut(1).visible_owner(1, 2),
        ]
    };
    assert_eq!(owners(&mut db), [0, 0, 2], "both shares rolled back");
    db.crash();
    db.recover();
    assert_eq!(owners(&mut db), [0, 0, 2], "and stay rolled back");
}

/// A group-commit threshold no shard can reach (two slots and the odd
/// decision against a batch of sixteen, no deadline): every force of the
/// run is the coordinator's nothing-scheduled fallback, the one place
/// outside a step where a shard's state — and so its wake — moves.
#[test]
fn undersized_groups_are_forced_by_the_fallback() {
    let mut db = sharded(4, FaultPlan::none());
    let inputs = all_cross_inputs(40, 4)
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            if i % 2 == 0 {
                t.accesses.truncate(1); // half stay on one shard
            }
            t
        })
        .collect::<Vec<_>>();
    let cfg = ExecConfig {
        concurrency: 2,
        group: GroupCommitPolicy::batched(16),
        ..ExecConfig::serialized()
    };
    let report = db.run(&inputs, &cfg);
    assert_eq!((report.committed, report.aborted), (40, 0));
    assert_eq!(report.cross_txns, 20);
    assert!(report.forces > 0);
    for shard in &report.per_shard {
        assert!(
            shard.mean_group < 16.0,
            "no group filled: {}",
            shard.mean_group
        );
    }
}

/// `oltp_shard4`'s first `txns` inputs at `seed`, and the deployment and
/// executor configuration it runs them on: 4 096 pages over four shards,
/// a tenth of the transactions cross-shard, four slots a shard, groups of
/// four, a checkpoint every 2 000 commits a shard.
fn oltp_shard4(
    seed: u64,
    txns: usize,
) -> (Vec<TxnInput>, ShardedDb<BlockStackBackend>, ExecConfig) {
    let b = DbConfig::builder()
        .data_pages(4096)
        .log_pages(512)
        .checkpoint_every(2000)
        .buffer_frames(1024)
        .shards(4)
        .cross_shard_ratio(0.10)
        .concurrency(4)
        .group(GroupCommitPolicy::batched(4));
    let gen_cfg = ShardedOltpConfig {
        clients: 4096,
        theta: 0.8,
        shards: 4,
        cross_shard_ratio: b.cross_ratio(),
        data_pages: 4096,
        ..ShardedOltpConfig::default()
    };
    let mut gen = ShardedOltpGen::new(gen_cfg, seed);
    let inputs = (0..txns).map(|_| txn_to_input(&gen.next_txn())).collect();
    let db = b.build_sharded_stack(StackConfig::blk_mq(4), SsdConfig::modern());
    (inputs, db, b.exec_config())
}

/// Law 4: the tail of a run does not grow with its length. A share of a
/// cross-shard transaction that started only when its shard reached the
/// input's position waited out the lag between the most- and the
/// least-loaded shard, which grows with every transaction: p99.9 of a
/// 40 000-transaction run read 5–6× that of its first 10 000.
#[test]
fn a_run_four_times_as_long_keeps_its_tail() {
    const N: usize = 10_000;
    const FACTOR: f64 = 2.0;
    let p999 = |txns: usize, seed: u64| {
        let (inputs, mut db, cfg) = oltp_shard4(seed, txns);
        let report = db.run(&inputs, &cfg);
        assert_eq!(report.committed, txns as u64, "every txn commits");
        let mut all = Histogram::new();
        all.merge(&report.read_only_latency);
        all.merge(&report.update_latency);
        all.quantile(0.999)
    };
    for seed in [11, 29] {
        let (short, long) = (p999(N, seed), p999(4 * N, seed));
        println!(
            "seed {seed}: p99.9 {short} ns over {N} txns, {long} ns over {}",
            4 * N
        );
        assert!(
            long as f64 <= FACTOR * short as f64,
            "seed {seed}: p99.9 grew from {short} ns over {N} txns to {long} ns over {} \
             (more than {FACTOR}x)",
            4 * N
        );
    }
}
