//! Criterion: per-FTL host-side cost of one simulated write, and the
//! mapping structures in isolation. Quantifies the ablation axis "mapping
//! granularity" from DESIGN.md §4.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use requiem_sim::time::SimTime;
use requiem_ssd::mapping::dftl::DftlMap;
use requiem_ssd::mapping::page::PageMap;
use requiem_ssd::{ArrayShape, BufferConfig, FtlKind, Lpn, LunId, PhysPage, Ssd, SsdConfig};

fn cfg_with(ftl: FtlKind) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.ftl = ftl;
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg
}

fn bench_ftl_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftl/simulated_write");
    g.throughput(Throughput::Elements(1));
    for (name, ftl) in [
        ("page_map", FtlKind::PageMap),
        (
            "dftl_4k",
            FtlKind::Dftl {
                cached_entries: 4096,
            },
        ),
        ("block_map", FtlKind::BlockMap),
        ("hybrid_8", FtlKind::Hybrid { log_blocks: 8 }),
    ] {
        g.bench_function(name, |b| {
            let mut ssd = Ssd::new(cfg_with(ftl.clone()));
            let span = ssd.capacity().exported_pages / 2;
            let mut t = SimTime::ZERO;
            let mut x = 9u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let c = ssd.write(t, Lpn(x % span)).expect("write");
                t = c.done;
                c.latency
            });
        });
    }
    g.finish();
}

fn bench_mapping_structures(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftl/mapping_lookup");
    g.throughput(Throughput::Elements(1));
    // eight LUNs of one plane × 64 blocks × 16 pages: what `pp` spans
    let shape = ArrayShape {
        channels: 8,
        chips_per_channel: 1,
        luns_per_chip: 1,
    };
    let geom = requiem_flash::Geometry::new(1, 64, 16, 4096);
    let pp = |i: u64| PhysPage {
        lun: LunId((i % 8) as u32),
        addr: requiem_flash::PageAddr {
            plane: 0,
            block: (i % 64) as u32,
            page: (i % 16) as u32,
        },
    };
    g.bench_function("page_map", |b| {
        let mut m = PageMap::new(1 << 16, &shape, &geom);
        for i in 0..(1 << 16) {
            m.update(Lpn(i), pp(i));
        }
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.lookup(Lpn(x % (1 << 16)))
        });
    });
    g.bench_function("dftl_hit", |b| {
        let mut m = DftlMap::new(1 << 16, 1 << 16, &shape, &geom);
        let mut ios = Vec::new();
        for i in 0..(1 << 16) {
            m.update(Lpn(i), pp(i), &mut ios);
        }
        let mut x = 1u64;
        b.iter(|| {
            ios.clear();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.lookup(Lpn(x % (1 << 16)), &mut ios)
        });
    });
    g.bench_function("dftl_thrash", |b| {
        // CMT far smaller than the working set: every lookup misses
        let mut m = DftlMap::new(1 << 16, 64, &shape, &geom);
        let mut ios = Vec::new();
        let mut x = 1u64;
        b.iter(|| {
            ios.clear();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.lookup(Lpn(x % (1 << 16)), &mut ios)
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
    targets = bench_ftl_write, bench_mapping_structures
}
criterion_main!(benches);
