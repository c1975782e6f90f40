//! Cross-crate integration: the database engine drives the simulated
//! I/O stack end-to-end on both persistence designs; crash/recovery and
//! device-level accounting are cross-checked.

use requiem::block::StackConfig;
use requiem::db::backend::PersistenceBackend;
use requiem::db::engine::{Database, DbConfig};
use requiem::db::BlockStackBackend;
use requiem::ssd::SsdConfig;
use requiem::workload::oltp::{OltpConfig, OltpGen};
use std::collections::HashMap;

fn db_cfg() -> DbConfig {
    DbConfig {
        buffer_frames: 64,
        data_pages: 512,
        checkpoint_every: 0,
        ..DbConfig::default()
    }
}

fn legacy() -> Database<BlockStackBackend> {
    let mut ssd_cfg = SsdConfig::modern();
    ssd_cfg.buffer.capacity_pages = 0;
    let mut db = Database::new(
        db_cfg(),
        BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, 512, 128),
    );
    db.load();
    db
}

fn vision() -> Database<BlockStackBackend> {
    let mut flash_cfg = SsdConfig::modern();
    flash_cfg.buffer.capacity_pages = 0;
    let mut db = Database::new(db_cfg(), BlockStackBackend::vision(flash_cfg, 512, 1 << 22));
    db.load();
    db
}

/// Run an OLTP mix and track the expected last writer of every slot.
fn run_tracked<B: PersistenceBackend>(
    db: &mut Database<B>,
    txns: u64,
    seed: u64,
) -> HashMap<(u64, u16), u64> {
    let mut gen = OltpGen::new(
        OltpConfig {
            data_pages: 512,
            ..OltpConfig::default()
        },
        seed,
    );
    let mut expected: HashMap<(u64, u16), u64> = HashMap::new();
    for _ in 0..txns {
        let txn = gen.next_txn();
        let acc: Vec<(u64, u16, bool)> = txn
            .accesses
            .iter()
            .map(|a| (a.page, (a.page % 16) as u16, a.dirty))
            .collect();
        let out = db.execute(&acc, txn.log_bytes);
        for &(page, slot, dirty) in &acc {
            if dirty {
                expected.insert((page % 512, slot % 16), out.txn);
            }
        }
    }
    expected
}

#[test]
fn committed_state_survives_crash_on_both_backends() {
    // legacy
    let mut db = legacy();
    let expected = run_tracked(&mut db, 300, 5);
    db.crash();
    db.recover();
    for (&(page, slot), &txn) in &expected {
        assert_eq!(db.visible_owner(page, slot), txn, "legacy ({page},{slot})");
    }
    // vision
    let mut db = vision();
    let expected = run_tracked(&mut db, 300, 5);
    db.crash();
    db.recover();
    for (&(page, slot), &txn) in &expected {
        assert_eq!(db.visible_owner(page, slot), txn, "vision ({page},{slot})");
    }
}

#[test]
fn both_backends_agree_on_logical_state() {
    // identical workload, seed, and engine — physical worlds differ, the
    // logical outcome must not
    let mut a = legacy();
    let mut b = vision();
    let ea = run_tracked(&mut a, 200, 9);
    let eb = run_tracked(&mut b, 200, 9);
    assert_eq!(ea, eb, "workload generation must be deterministic");
    for (&(page, slot), &txn) in &ea {
        assert_eq!(a.visible_owner(page, slot), txn);
        assert_eq!(b.visible_owner(page, slot), txn);
    }
}

#[test]
fn vision_is_strictly_faster_on_commit_heavy_oltp() {
    let mut a = legacy();
    let mut b = vision();
    run_tracked(&mut a, 300, 3);
    run_tracked(&mut b, 300, 3);
    assert!(
        b.now() < a.now(),
        "vision {} should beat legacy {}",
        b.now(),
        a.now()
    );
    // and the gap comes from commit stalls specifically
    assert!(b.stats().commit_stall < a.stats().commit_stall);
}

#[test]
fn device_accounting_is_consistent_with_engine_traffic() {
    let mut db = legacy();
    run_tracked(&mut db, 200, 7);
    let be_stats = db.backend().stats().clone();
    let ssd = db.backend().ssd();
    let m = ssd.metrics();
    let log_forces = db.wal_backend().stats().log_forces;
    // every backend-level write/read became at least one host command on
    // the device (log forces can spill into multiple page writes)
    assert!(m.host_writes >= be_stats.page_writes + be_stats.steal_writes + log_forces);
    assert_eq!(m.host_reads, be_stats.page_reads);
    // no metrics went backwards
    assert!(m.write_amplification() >= 1.0 - 1e-9);
}

#[test]
fn checkpoints_bound_recovery_replay() {
    let mut cfg = db_cfg();
    cfg.checkpoint_every = 50;
    let mut ssd_cfg = SsdConfig::modern();
    ssd_cfg.buffer.capacity_pages = 0;
    let mut db = Database::new(
        cfg,
        BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, 512, 128),
    );
    db.load();
    let expected = run_tracked(&mut db, 300, 13);
    db.crash();
    let replayed = db.recover();
    // with a checkpoint every 50 txns and ≤ 4 dirty slots per txn, the
    // replay is bounded by roughly one checkpoint interval of updates
    assert!(
        replayed <= 50 * 4 + 8,
        "replay {replayed} not bounded by the checkpoint interval"
    );
    for (&(page, slot), &txn) in &expected {
        assert_eq!(db.visible_owner(page, slot), txn);
    }
}
