//! The §3 vision end-to-end: one storage manager, two worlds.
//!
//! Runs the same OLTP workload on the legacy design (everything through
//! one flash SSD's block interface, a bare block stack) and the vision
//! backend (PCM log + atomic flash + TRIM), then crashes both mid-flight
//! and recovers.
//!
//! ```sh
//! cargo run --release --example vision_db
//! ```

use requiem::block::StackConfig;
use requiem::db::backend::PersistenceBackend;
use requiem::db::engine::{Database, DbConfig};
use requiem::db::{BlockStackBackend, ExecConfig, TxnInput};
use requiem::sim::table::Align;
use requiem::sim::time::SimDuration;
use requiem::sim::Table;
use requiem::ssd::SsdConfig;
use requiem::workload::oltp::{OltpConfig, OltpGen};

fn drive<B: PersistenceBackend>(db: &mut Database<B>, txns: u64, seed: u64) {
    let mut gen = OltpGen::new(
        OltpConfig {
            data_pages: 1024,
            theta: 0.8,
            ..OltpConfig::default()
        },
        seed,
    );
    let inputs: Vec<TxnInput> = (0..txns)
        .map(|_| {
            let txn = gen.next_txn();
            TxnInput {
                accesses: txn
                    .accesses
                    .iter()
                    .map(|a| (a.page, (a.page % 16) as u16, a.dirty))
                    .collect(),
                log_bytes: txn.log_bytes,
            }
        })
        .collect();
    // one transaction in flight, a log force per commit
    db.run_concurrent(&inputs, &ExecConfig::serialized());
}

fn main() {
    let cfg = DbConfig {
        buffer_frames: 256,
        data_pages: 1024,
        checkpoint_every: 400,
        ..DbConfig::default()
    };

    println!("# one storage manager, two persistence worlds\n");
    let mut tbl = Table::new([
        "backend",
        "1000 txns took",
        "txns/s",
        "commit p50",
        "commit p99",
        "recovery replay",
    ])
    .align(0, Align::Left);

    // ---- legacy ----
    let mut ssd_cfg = SsdConfig::modern();
    ssd_cfg.buffer.capacity_pages = 0;
    let be = BlockStackBackend::new(StackConfig::bare(1), ssd_cfg, cfg.data_pages, 256);
    let mut db = Database::new(cfg.clone(), be);
    db.load();
    let t0 = db.now();
    drive(&mut db, 1000, 11);
    let span = db.now().since(t0);
    db.crash();
    let replayed = db.recover();
    assert_ne!(db.visible_owner(0, 0), u64::MAX); // engine consistency touch
    tbl.row([
        "legacy (block SSD)".to_string(),
        format!("{span}"),
        format!("{:.0}", 1000.0 / span.as_secs_f64()),
        format!("{}", SimDuration::from_nanos(db.commit_latency().p50())),
        format!("{}", SimDuration::from_nanos(db.commit_latency().p99())),
        format!("{replayed} records"),
    ]);

    // ---- vision ----
    let mut flash_cfg = SsdConfig::modern();
    flash_cfg.buffer.capacity_pages = 0;
    let be = BlockStackBackend::vision(flash_cfg, cfg.data_pages, 1 << 22);
    let mut db = Database::new(cfg, be);
    db.load();
    let t0 = db.now();
    drive(&mut db, 1000, 11);
    let span = db.now().since(t0);
    db.crash();
    let replayed = db.recover();
    tbl.row([
        "vision (PCM log + atomic flash)".to_string(),
        format!("{span}"),
        format!("{:.0}", 1000.0 / span.as_secs_f64()),
        format!("{}", SimDuration::from_nanos(db.commit_latency().p50())),
        format!("{}", SimDuration::from_nanos(db.commit_latency().p99())),
        format!("{replayed} records"),
    ]);

    println!("{tbl}");
    println!(
        "Same WAL, same buffer pool, same recovery algorithm.\nOnly the routing changed: synchronous traffic to PCM on the memory bus,\nasynchronous traffic to flash through atomic writes and TRIM (§3, P1+P2)."
    );
}
