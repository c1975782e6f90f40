//! The two-phase ledger: cross-shard atomic commit over the
//! group-commit WAL.
//!
//! A cross-shard transaction splits into one *participant* share per
//! shard it touches. Each share runs in its shard's closed loop like
//! any other transaction, but terminates with a [`Prepare`] record
//! whose group-commit force is that shard's durability **vote** (a
//! typed force failure is a NO). The ledger — plain coordinator state,
//! no device of its own — collects votes and decides:
//!
//! * **all YES** → the home shard enlists one slot-less *decision
//!   commit* ([`MemberKind::Decide`]) in its own group; that single
//!   force is the global commit point. Durable `Commit{G}` on the home
//!   shard therefore implies a durable `Prepare{G}` on every
//!   participant — the invariant the proptests check.
//! * **any NO** → typed abort: an [`Abort`] record on the home shard
//!   (informational; there is no commit to retract) and an in-memory
//!   rollback of every participant share that already applied, via the
//!   before-images the executor captured. Participants whose share is
//!   still queued run to a wasted prepare and are rolled back when
//!   their late vote arrives — deterministic, and honest about the
//!   cost of aborts.
//! * **a failed decision force** → the same abort, of every share: the
//!   home's log has failed, so its `Commit` never becomes durable.
//!
//! The ledger holds a transaction only until it settles: its entry is
//! forgotten once the decision force lands, or once an aborted
//! transaction's last (late) vote is in, so what it holds is bounded by
//! the transactions in flight, not by the length of the run. Its counters
//! ([`TwoPhaseLedger::stats`]) keep the whole history.
//!
//! Recovery composes across shards: the committed set is the **union**
//! of durable `Commit` records everywhere
//! ([`Database::recover_with`](crate::Database::recover_with)), so a
//! participant's updates replay exactly when the home shard's decision
//! survived.
//!
//! Panic policy (DESIGN §2.5): clippy denies `unwrap`, `expect` and
//! `panic!` here outside tests — fallible outcomes are typed
//! ([`LedgerAction`], [`TxnDecision`]), invariants use `assert!` with a
//! message.
//!
//! [`Prepare`]: crate::wal::LogRecord::Prepare
//! [`Abort`]: crate::wal::LogRecord::Abort
//! [`MemberKind::Decide`]: crate::wal::MemberKind::Decide

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;

use requiem_sim::time::SimTime;
use requiem_sim::IoStatus;

/// Where a cross-shard transaction stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnDecision {
    /// Collecting prepare votes.
    Pending,
    /// All votes YES; the decision commit is enlisted (or in the home
    /// shard's mailbox) but its force has not landed yet.
    Committing,
    /// A vote was NO: globally aborted.
    Aborted,
}

/// One cross-shard transaction's ledger entry.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Coordinator shard (owner of the decision commit).
    pub home: usize,
    /// Every shard with a participant share (sorted, includes `home`).
    pub participants: Vec<usize>,
    /// True when no share dirties a page.
    pub read_only: bool,
    /// Votes received so far: shard → the prepare force's typed status.
    pub votes: BTreeMap<usize, IoStatus>,
    /// Earliest participant start seen (global latency base).
    pub started: Option<SimTime>,
    /// Current decision state.
    pub decision: TxnDecision,
}

/// What the coordinator must do after feeding the ledger one vote or decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerAction {
    /// Keep collecting votes.
    None,
    /// All votes are in and YES: deliver a decision commit to the home
    /// shard once its clock reaches `at` (the last vote's force end).
    EnlistCommit {
        /// Coordinator shard to enlist on.
        home: usize,
        /// Earliest instant the decision may be enlisted.
        at: SimTime,
        /// Global latency base (earliest participant start).
        started: SimTime,
        /// True when no share dirtied a page.
        read_only: bool,
    },
    /// First NO vote or a failed decision: append the `Abort` record on
    /// `home` and roll back the shares on `undo` (every shard that voted —
    /// their updates are applied; later voters roll back as they arrive).
    Abort {
        /// Home shard for the `Abort` record.
        home: usize,
        /// Shards to roll back now.
        undo: Vec<usize>,
    },
    /// A vote arrived for an already-aborted transaction: roll back
    /// that shard's share alone.
    UndoLate {
        /// The late-voting shard.
        shard: usize,
    },
    /// The decision force landed: no share can roll back any more.
    Release {
        /// Every shard with a share.
        participants: Vec<usize>,
    },
}

/// Counters the ledger keeps (surfaced in the sharded report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Cross-shard transactions begun.
    pub cross_txns: u64,
    /// Prepare votes received.
    pub prepares: u64,
    /// Votes that were typed failures.
    pub prepare_failures: u64,
    /// Transactions whose decision commit force landed.
    pub committed: u64,
    /// Transactions aborted on a NO vote or a failed decision force.
    pub aborted: u64,
}

/// Coordinator state for every cross-shard transaction not yet settled.
/// Keyed by the global transaction id — one namespace across all shards,
/// assigned by the coordinator.
#[derive(Debug, Default)]
pub struct TwoPhaseLedger {
    entries: BTreeMap<u64, LedgerEntry>,
    stats: LedgerStats,
}

impl TwoPhaseLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an entry for global transaction `txn`.
    pub fn begin(&mut self, txn: u64, home: usize, participants: Vec<usize>, read_only: bool) {
        assert!(
            participants.contains(&home),
            "home shard must hold a participant share"
        );
        assert!(
            participants.len() >= 2,
            "a cross-shard transaction needs at least two participants"
        );
        self.stats.cross_txns += 1;
        let prev = self.entries.insert(
            txn,
            LedgerEntry {
                home,
                participants,
                read_only,
                votes: BTreeMap::new(),
                started: None,
                decision: TxnDecision::Pending,
            },
        );
        assert!(prev.is_none(), "duplicate global transaction id {txn}");
    }

    /// Feed one prepare vote: shard `shard`'s prepare force for `txn`
    /// ended at `done` with `status`; its share started at `started`. An
    /// aborted transaction's entry is forgotten with its last vote.
    pub fn on_prepared(
        &mut self,
        txn: u64,
        shard: usize,
        status: IoStatus,
        done: SimTime,
        started: SimTime,
    ) -> LedgerAction {
        let Some(e) = self.entries.get_mut(&txn) else {
            return LedgerAction::None; // not a cross-shard txn: ignore
        };
        self.stats.prepares += 1;
        e.started = Some(e.started.map_or(started, |s| s.min(started)));
        e.votes.insert(shard, status);
        let action = match e.decision {
            TxnDecision::Aborted => {
                // late vote after the decision fell: the share applied
                // (and maybe even prepared durably) for nothing
                if !status.is_success() {
                    self.stats.prepare_failures += 1;
                }
                LedgerAction::UndoLate { shard }
            }
            TxnDecision::Pending if !status.is_success() => {
                self.stats.prepare_failures += 1;
                self.stats.aborted += 1;
                e.decision = TxnDecision::Aborted;
                LedgerAction::Abort {
                    home: e.home,
                    undo: e.votes.keys().copied().collect(),
                }
            }
            TxnDecision::Pending if e.votes.len() == e.participants.len() => {
                e.decision = TxnDecision::Committing;
                LedgerAction::EnlistCommit {
                    home: e.home,
                    at: done,
                    started: e.started.unwrap_or(started),
                    read_only: e.read_only,
                }
            }
            // a vote after the decision commit was enlisted cannot
            // happen (the commit needs every vote first); be defensive
            _ => LedgerAction::None,
        };
        if e.decision == TxnDecision::Aborted && e.votes.len() == e.participants.len() {
            self.entries.remove(&txn);
        }
        action
    }

    /// The decision commit's force ended with `status`: it commits `txn`,
    /// or aborts every share when the home's failed log never makes its
    /// `Commit` durable. The entry is forgotten.
    pub fn on_decided(&mut self, txn: u64, status: IoStatus) -> LedgerAction {
        let Some(e) = self.entries.remove(&txn) else {
            return LedgerAction::None;
        };
        assert!(
            e.decision == TxnDecision::Committing,
            "decision force for txn {txn} in state {:?}",
            e.decision
        );
        if status.is_success() {
            self.stats.committed += 1;
            LedgerAction::Release {
                participants: e.participants,
            }
        } else {
            self.stats.aborted += 1;
            LedgerAction::Abort {
                home: e.home,
                undo: e.participants,
            }
        }
    }

    /// True when every transaction settled and was forgotten — part of
    /// the coordinator's done-check.
    pub fn is_quiescent(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for global transaction `txn`, while it is a cross-shard
    /// transaction not yet settled.
    pub fn entry(&self, txn: u64) -> Option<&LedgerEntry> {
        self.entries.get(&txn)
    }

    /// The entries not yet settled, keyed by global transaction id.
    pub fn entries(&self) -> impl Iterator<Item = (&u64, &LedgerEntry)> {
        self.entries.iter()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> LedgerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + requiem_sim::SimDuration::from_nanos(ns)
    }

    #[test]
    fn unanimous_yes_commits_on_the_last_vote() {
        let mut l = TwoPhaseLedger::new();
        l.begin(7, 0, vec![0, 2], false);
        assert_eq!(
            l.on_prepared(7, 0, IoStatus::Ok, t(100), t(10)),
            LedgerAction::None
        );
        let act = l.on_prepared(7, 2, IoStatus::Ok, t(250), t(5));
        assert_eq!(
            act,
            LedgerAction::EnlistCommit {
                home: 0,
                at: t(250),
                started: t(5),
                read_only: false,
            },
            "last YES vote triggers the decision, latency from earliest start"
        );
        assert!(!l.is_quiescent(), "committing is not final");
        let settled = l.on_decided(7, IoStatus::Ok);
        assert_eq!(
            settled,
            LedgerAction::Release {
                participants: vec![0, 2]
            }
        );
        assert!(l.is_quiescent());
        assert!(l.entry(7).is_none(), "a settled entry is forgotten");
        assert_eq!(l.stats().committed, 1);
    }

    #[test]
    fn a_no_vote_aborts_and_late_votes_roll_back() {
        let mut l = TwoPhaseLedger::new();
        l.begin(9, 1, vec![0, 1, 3], true);
        l.on_prepared(9, 1, IoStatus::Ok, t(50), t(1));
        let act = l.on_prepared(9, 0, IoStatus::Unrecoverable, t(80), t(2));
        assert_eq!(
            act,
            LedgerAction::Abort {
                home: 1,
                undo: vec![0, 1],
            },
            "abort rolls back every share that already ran"
        );
        let decision = l.entry(9).map(|e| e.decision);
        assert_eq!(
            decision,
            Some(TxnDecision::Aborted),
            "kept for the vote out"
        );
        assert!(!l.is_quiescent());
        // shard 3's share was still queued; its vote arrives later
        assert_eq!(
            l.on_prepared(9, 3, IoStatus::Ok, t(500), t(3)),
            LedgerAction::UndoLate { shard: 3 }
        );
        assert!(l.is_quiescent(), "the last vote settles it");
        assert_eq!(l.stats().aborted, 1);
        assert_eq!(l.stats().prepare_failures, 1);
        assert_eq!(l.stats().committed, 0);
    }

    #[test]
    fn a_failed_decision_aborts_every_share() {
        let mut l = TwoPhaseLedger::new();
        l.begin(5, 2, vec![1, 2], false);
        l.on_prepared(5, 1, IoStatus::Ok, t(40), t(4));
        l.on_prepared(5, 2, IoStatus::Ok, t(60), t(6));
        assert_eq!(
            l.on_decided(5, IoStatus::Unrecoverable),
            LedgerAction::Abort {
                home: 2,
                undo: vec![1, 2],
            }
        );
        assert!(l.is_quiescent(), "a failed decision settles it");
        let stats = l.stats();
        assert_eq!((stats.committed, stats.aborted), (0, 1));
        assert_eq!(stats.prepare_failures, 0, "every vote was YES");
    }

    #[test]
    fn votes_for_unknown_txns_are_ignored() {
        let mut l = TwoPhaseLedger::new();
        assert_eq!(
            l.on_prepared(42, 0, IoStatus::Ok, t(1), t(0)),
            LedgerAction::None
        );
        assert!(l.is_quiescent());
    }
}
