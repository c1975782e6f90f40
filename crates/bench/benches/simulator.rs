//! Criterion microbenchmarks of the simulator core: how many simulated
//! I/Os per second of *host* CPU the framework sustains. These guard the
//! experiment harness against performance regressions (a slow simulator
//! caps experiment scale).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use requiem_sim::time::SimTime;
use requiem_sim::{Histogram, Resource};
use requiem_ssd::{BufferConfig, Lpn, Ssd, SsdConfig};

fn bench_resource(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/resource");
    g.throughput(Throughput::Elements(1));
    g.bench_function("reserve", |b| {
        let mut r = Resource::new("x");
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            r.reserve(SimTime::from_nanos(t), requiem_sim::time::MICROSECOND)
        });
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/histogram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("record", |b| {
        let mut h = Histogram::new();
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        });
    });
    g.bench_function("p99", |b| {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i % 3_000_000);
        }
        b.iter(|| h.p99());
    });
    g.finish();
}

fn bench_ssd_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssd/simulated_io_rate");
    g.throughput(Throughput::Elements(1));
    g.bench_function("buffered_write", |b| {
        let mut ssd = Ssd::new(SsdConfig::modern());
        let span = ssd.capacity().exported_pages;
        let mut t = SimTime::ZERO;
        let mut lpn = 0u64;
        b.iter(|| {
            lpn = (lpn + 1) % span;
            let c = ssd.write(t, Lpn(lpn)).expect("write");
            t = c.done;
            c.latency
        });
    });
    g.bench_function("unbuffered_read", |b| {
        let mut cfg = SsdConfig::modern();
        cfg.buffer = BufferConfig { capacity_pages: 0 };
        let mut ssd = Ssd::new(cfg);
        let mut t = SimTime::ZERO;
        for lpn in 0..1024u64 {
            t = ssd.write(t, Lpn(lpn)).expect("precondition").done;
        }
        let mut lpn = 0u64;
        b.iter(|| {
            lpn = (lpn + 1) % 1024;
            let c = ssd.read(t, Lpn(lpn)).expect("read");
            t = c.done;
            c.latency
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
    targets = bench_resource, bench_histogram, bench_ssd_io
}
criterion_main!(benches);
