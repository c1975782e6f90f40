//! Criterion: simulated transaction execution rate of the storage engine
//! on the legacy and vision backends.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use requiem_db::backend::{LegacyBackend, VisionBackend};
use requiem_db::engine::{Database, DbConfig};
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};

fn db_cfg() -> DbConfig {
    DbConfig {
        buffer_frames: 256,
        data_pages: 1024,
        slots_per_page: 16,
        record_size: 100,
        checkpoint_every: 0,
        group_commit: 1,
        ..DbConfig::default()
    }
}

fn bench_txn(c: &mut Criterion) {
    let mut g = c.benchmark_group("db/txn_execute");
    g.throughput(Throughput::Elements(1));
    g.bench_function("legacy_backend", |b| {
        let mut ssd_cfg = SsdConfig::modern();
        ssd_cfg.buffer.capacity_pages = 0;
        let be = LegacyBackend::new(ssd_cfg, 1024, 256);
        let mut db = Database::new(db_cfg(), be);
        db.load();
        let mut gen = OltpGen::new(OltpConfig::default(), 1);
        b.iter(|| {
            let txn = gen.next_txn();
            let acc: Vec<(u64, u16, bool)> =
                txn.accesses.iter().map(|a| (a.page, 0, a.dirty)).collect();
            db.execute(&acc, txn.log_bytes)
        });
    });
    g.bench_function("vision_backend", |b| {
        let mut flash_cfg = SsdConfig::modern();
        flash_cfg.buffer.capacity_pages = 0;
        let be = VisionBackend::new(flash_cfg, 1024, 1 << 22);
        let mut db = Database::new(db_cfg(), be);
        db.load();
        let mut gen = OltpGen::new(OltpConfig::default(), 1);
        b.iter(|| {
            let txn = gen.next_txn();
            let acc: Vec<(u64, u16, bool)> =
                txn.accesses.iter().map(|a| (a.page, 0, a.dirty)).collect();
            db.execute(&acc, txn.log_bytes)
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_txn
}
criterion_main!(benches);
