//! Property tests for the completion-driven executor (ISSUE 5):
//!
//! 1. **Group commit never reorders LSNs** — the engine acknowledges
//!    commits in WAL order (an assert at each acknowledgement), for any
//!    mix, concurrency, and batching policy.
//! 2. **Coalesced fetches return identical bytes** — a workload
//!    engineered so concurrent transactions pile onto the same in-flight
//!    page reads must leave the database byte-for-byte where independent
//!    (serialized) fetches leave it.
//! 3. **The QD-1 identity holds under random access mixes** — not just
//!    for the hand-picked workloads in the unit tests.
//! 4. **The durable horizon only moves forward** — under a deadline
//!    group that steal writes overtake.
//!
//! `tests/qd1_law.rs` extends the QD-1 identity to every storage manager,
//! WAL medium and checkpoint setting.

use proptest::prelude::*;
use requiem_block::StackConfig;
use requiem_db::wal::{LogRecord, Lsn};
use requiem_db::{
    BlockStackBackend, Database, DbConfig, ExecConfig, GroupCommitPolicy, PersistenceBackend,
    TxnInput,
};
use requiem_sim::time::SimDuration;
use requiem_ssd::SsdConfig;

const DATA_PAGES: u64 = 64;
const SLOTS: u16 = 16;

fn small_db(buffer_frames: usize) -> Database<BlockStackBackend> {
    let cfg = DbConfig {
        data_pages: DATA_PAGES,
        buffer_frames,
        ..DbConfig::default()
    };
    let mut ssd_cfg = SsdConfig::modern();
    ssd_cfg.buffer.capacity_pages = 0;
    let mut db = Database::new(
        cfg,
        BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, DATA_PAGES, 64),
    );
    db.load();
    db
}

/// The transactions whose `Commit` record is among `records`, in log
/// order.
fn commits(records: impl Iterator<Item = (Lsn, LogRecord)>) -> Vec<u64> {
    records
        .filter_map(|(_, r)| match r {
            LogRecord::Commit { txn } => Some(txn),
            _ => None,
        })
        .collect()
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

fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Durability order == WAL order: the engine asserts, at each
    /// acknowledgement, that the commit's record lies above the last
    /// acknowledged one's, so a run that returns acknowledged its commits
    /// in log order. Every transaction commits exactly once, and every
    /// commit record is durable.
    #[test]
    fn group_commit_never_reorders_lsns(
        inputs in arb_inputs(),
        concurrency in 1usize..6,
        batch in 1u32..8,
    ) {
        let mut db = small_db(16);
        let cfg = ExecConfig {
            concurrency,
            group: GroupCommitPolicy::batched(batch),
            ..ExecConfig::serialized()
        };
        db.run_concurrent(&inputs, &cfg);
        prop_assert_eq!(db.stats().commits, inputs.len() as u64);
        let mut logged = commits(db.wal().records());
        prop_assert_eq!(
            &logged,
            &commits(db.wal().durable_records()),
            "every commit record must be durable"
        );
        logged.sort_unstable();
        logged.dedup();
        prop_assert_eq!(logged.len(), inputs.len(), "each txn commits exactly once");
    }

    /// A deadline group sized past the queue (never due by count) holds
    /// its members while other slots' steal writes force the whole log,
    /// so the group's own force asks for an LSN the log has already
    /// passed. `Wal::flushed()` must not follow it back down, and what
    /// was acknowledged must stay inside it. The horizon is sampled
    /// between runs — inside one, only `Wal` sees every mark, which is
    /// what `wal.rs`'s `durability_horizon` pins.
    #[test]
    fn flushed_horizon_never_decreases(
        inputs in arb_inputs(),
        concurrency in 2usize..6,
        wait_us in 1u64..400,
    ) {
        let mut db = small_db(4);
        let cfg = ExecConfig {
            concurrency,
            group: GroupCommitPolicy {
                max_txns: 2 * concurrency as u32,
                max_wait: SimDuration::from_micros(wait_us),
            },
            ..ExecConfig::serialized()
        };
        let mut horizon = db.wal().flushed();
        for chunk in inputs.chunks(6) {
            db.run_concurrent(chunk, &cfg);
            let flushed = db.wal().flushed();
            prop_assert!(flushed >= horizon, "horizon fell from {:?} to {:?}", horizon, flushed);
            // a run acknowledges every commit it logs
            let acked = db
                .wal()
                .records()
                .filter_map(|(lsn, r)| matches!(r, LogRecord::Commit { .. }).then_some(lsn))
                .max();
            prop_assert!(acked <= flushed, "acknowledged {:?} past the horizon {:?}", acked, flushed);
            horizon = flushed;
        }
    }

    /// Coalescing must be invisible in the bytes: a run whose demand
    /// fetches pile onto in-flight reads (tiny pool, shared hot pages,
    /// disjoint writes) ends with exactly the record owners a serialized
    /// run produces. Disjoint write sets make the final image
    /// order-independent, so any byte difference is a coalescing bug.
    #[test]
    fn coalesced_fetches_return_identical_bytes(
        hot in proptest::collection::vec(0..DATA_PAGES, 1..4),
        seed_pages in proptest::collection::vec(0..DATA_PAGES, 8..24),
        concurrency in 2usize..6,
    ) {
        // each txn reads the shared hot pages, then writes its own page
        let inputs: Vec<TxnInput> = seed_pages
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut accesses: Vec<(u64, u16, bool)> =
                    hot.iter().map(|&h| (h, (h % u64::from(SLOTS)) as u16, false)).collect();
                // unique (page, slot) per txn: page stride + slot from index
                let page = (p + i as u64) % DATA_PAGES;
                accesses.push((page, (i as u16) % SLOTS, true));
                TxnInput { accesses, log_bytes: 64 }
            })
            .collect();
        let mut serial = small_db(4);
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes).expect("committed");
        }
        let mut conc = small_db(4);
        conc.run_concurrent(&inputs, &ExecConfig {
            concurrency,
            ..ExecConfig::serialized()
        });
        // visible_owner is the byte-level observable: who owns each slot
        for page in 0..DATA_PAGES {
            for slot in 0..SLOTS {
                prop_assert_eq!(
                    conc.visible_owner(page, slot),
                    serial.visible_owner(page, slot),
                    "owner mismatch at page {} slot {}", page, slot
                );
            }
        }
    }

    /// The QD-1 identity under arbitrary mixes: concurrency 1 +
    /// prefetch off + immediate forces replays the serialized engine
    /// bit-for-bit — clock, stall ledger, histograms, device counters.
    #[test]
    fn qd1_identity_under_random_mixes(inputs in arb_inputs()) {
        let mut serial = small_db(16);
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes).expect("committed");
        }
        let mut conc = small_db(16);
        conc.run_concurrent(&inputs, &ExecConfig::serialized());
        prop_assert_eq!(conc.now(), serial.now());
        prop_assert_eq!(conc.stats(), serial.stats());
        prop_assert_eq!(conc.txn_latency(), serial.txn_latency());
        prop_assert_eq!(conc.commit_latency(), serial.commit_latency());
        prop_assert_eq!(
            conc.wal_backend().stats().log_forces,
            serial.wal_backend().stats().log_forces
        );
        prop_assert_eq!(
            conc.wal_backend().stats().log_bytes,
            serial.wal_backend().stats().log_bytes
        );
        prop_assert_eq!(
            conc.backend().stats().page_reads,
            serial.backend().stats().page_reads
        );
        prop_assert_eq!(
            conc.backend().stats().steal_writes,
            serial.backend().stats().steal_writes
        );
    }
}
