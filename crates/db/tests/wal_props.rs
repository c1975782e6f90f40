//! Property tests for the WAL backend split (ISSUE 7): the log's
//! durability medium must change *timing only*, never *state*.
//!
//! 1. **Crash recovery is medium-independent** — a seeded commit-heavy
//!    mix run on a flash WAL and on a PCM WAL, crashed at the end and
//!    redo-recovered, leaves every (page, slot) with the same visible
//!    owner. The two media advance the clock differently (a PCM persist
//!    is ~1µs, a flash segment force is hundreds of µs), so the set of
//!    in-flight page images lost at the crash may differ — redo replay
//!    must erase that difference.
//! 2. **Zero-latency PCM is an ordering identity** — with
//!    [`PcmTiming::zero`] the PCM WAL is the flash path minus the
//!    stalls: the durable log record sequence, the commit count, and
//!    the visible state are bit-identical to the immediate-commit flash
//!    engine.
//! 3. **The QD-1 identity survives the PCM path** — concurrency 1 +
//!    prefetch off + immediate forces on a PCM WAL replays the
//!    serialized engine bit-for-bit, clock included, exactly as
//!    exp13/14 pin for the flash WAL. `tests/qd1_law.rs` extends it to
//!    every storage manager.

use proptest::prelude::*;
use requiem_db::wal::LogRecord;
use requiem_db::{
    Database, DbConfig, ExecConfig, LegacyBackend, PcmWalConfig, TxnInput, WalConfig,
};
use requiem_pcm::PcmTiming;
use requiem_ssd::SsdConfig;

const DATA_PAGES: u64 = 96;
const SLOTS: u16 = 16;

fn bare_ssd() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.buffer.capacity_pages = 0;
    cfg
}

/// A small pool (steals) and frequent checkpoints (truncation) so the
/// mixes exercise every WAL call site, not just the commit force.
fn db(wal: WalConfig) -> Database<LegacyBackend> {
    DbConfig::builder()
        .data_pages(DATA_PAGES)
        .log_pages(64)
        .buffer_frames(24)
        .checkpoint_every(16)
        .wal(wal)
        .build_legacy(bare_ssd())
}

fn pcm(timing: PcmTiming) -> WalConfig {
    WalConfig::Pcm(PcmWalConfig {
        bytes: 1 << 20,
        timing,
        gap_interval: 64,
    })
}

/// Commit-heavy: most accesses dirty, every transaction carries log
/// payload — the shape where the WAL medium matters most.
fn arb_txn() -> impl Strategy<Value = TxnInput> {
    (
        proptest::collection::vec((0..DATA_PAGES, 0..SLOTS, 0u8..4), 1..6),
        32u32..512,
    )
        .prop_map(|(raw, log_bytes)| TxnInput {
            accesses: raw
                .into_iter()
                .map(|(page, slot, dirty)| (page, slot, dirty > 0))
                .collect(),
            log_bytes,
        })
}

fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(), 1..40)
}

/// The durable log as text, each update followed by the bytes its
/// after-image handle names: two logs can agree on every handle (offset
/// and length) and still hold different images.
fn durable_log(db: &Database<LegacyBackend>) -> Vec<String> {
    db.wal()
        .durable_records()
        .map(|(lsn, rec)| match rec {
            LogRecord::Update { after, .. } => {
                format!("{lsn:?} {rec:?} = {:?}", db.wal().after(*after))
            }
            _ => format!("{lsn:?} {rec:?}"),
        })
        .collect()
}

/// Every (page, slot)'s visible owner — the post-recovery ground truth.
fn owners(db: &mut Database<LegacyBackend>) -> Vec<u64> {
    (0..DATA_PAGES)
        .flat_map(|p| (0..SLOTS).map(move |s| (p, s)))
        .map(|(p, s)| db.visible_owner(p, s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: flash-WAL and PCM-WAL recovery agree on every slot.
    #[test]
    fn crash_recovery_is_medium_independent(inputs in arb_inputs()) {
        let mut flash = db(WalConfig::Flash);
        let mut byte = db(pcm(PcmTiming::gen1()));
        for t in &inputs {
            flash.execute(&t.accesses, t.log_bytes);
            byte.execute(&t.accesses, t.log_bytes);
        }
        prop_assert_eq!(flash.stats().commits, byte.stats().commits);
        flash.crash();
        byte.crash();
        flash.recover();
        byte.recover();
        prop_assert_eq!(
            owners(&mut flash),
            owners(&mut byte),
            "redo recovery must erase the media timing difference"
        );
    }

    /// Property 2: PCM at zero latency == immediate-commit flash, as
    /// state machines (records, commits, visible slots).
    #[test]
    fn zero_latency_pcm_is_an_ordering_identity(inputs in arb_inputs()) {
        let mut flash = db(WalConfig::Flash);
        let mut byte = db(pcm(PcmTiming::zero()));
        for t in &inputs {
            flash.execute(&t.accesses, t.log_bytes);
            byte.execute(&t.accesses, t.log_bytes);
        }
        prop_assert_eq!(flash.stats().commits, byte.stats().commits);
        prop_assert_eq!(
            durable_log(&flash),
            durable_log(&byte),
            "the durable log must be record-for-record, byte-for-byte identical"
        );
        prop_assert_eq!(owners(&mut flash), owners(&mut byte));
    }

    /// Property 3: the QD-1 identity anchor holds with the WAL on PCM.
    #[test]
    fn qd1_identity_holds_on_the_pcm_wal(inputs in arb_inputs()) {
        let mut serial = db(pcm(PcmTiming::gen1()));
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes);
        }
        let mut conc = db(pcm(PcmTiming::gen1()));
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
        let (cw, sw) = (conc.wal_backend().wear(), serial.wal_backend().wear());
        prop_assert_eq!(
            cw.map(|w| w.total_line_writes),
            sw.map(|w| w.total_line_writes),
            "start-gap wear must replay identically too"
        );
    }
}
