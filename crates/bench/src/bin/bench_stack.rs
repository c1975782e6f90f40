//! **Stack micro-bench driver** — `bench_kernel`'s sibling one layer
//! up: deterministic work units for the per-command path from
//! [`IoStack`] down to the flash LUN, and for the storage manager's
//! executor above it.
//!
//! Same contract as `bench_kernel`: each sub-bench runs a fixed, seeded
//! amount of simulated work and prints
//!
//! ```text
//! bench=<name> events=<count> checksum=<value>
//! ```
//!
//! where `events` counts simulated commands (every command the sub-bench
//! pushes through the layer under test, set-up included; committed
//! transactions for the `db_*` rows) and `checksum` folds their simulated
//! completion instants (final clocks and counters for the `db_*` rows).
//! The binary never reads a clock; `scripts/perf_gate.sh` owns the
//! stopwatch and composes `BENCH_stack.json` (host-ns per simulated
//! command).
//!
//! Sub-benches:
//!
//! * `window_admit` — [`InflightWindow`] alone: 2²¹ admit/commit pairs at
//!   depth 16 with arrivals a little faster than the window drains (so
//!   it retires, fills and blocks) and every 64th command re-targeting
//!   its predecessor's LBA (the hazard path).
//! * `iostack_read_qd8` — the benchmark's `ssd_randread` shape: the
//!   modern preset behind a one-core blk-mq [`IoStack`], sequential
//!   fill, then uniform-random reads in a closed loop at queue depth 8.
//! * `iostack_overwrite_qd8` — `ssd_overwrite`'s shape: fill, twice the
//!   capacity of random overwrites to reach the write-amplification
//!   plateau, then more of the same; garbage collection does the work.
//! * `qpair_qd1` — [`Ssd::enqueue`] on a [`QueuePair`] at depth 1
//!   straight over the device (no block layer): fill, then random reads,
//!   one submit + one pop per command.
//! * `ssd_read_random` — bare [`Ssd::read`] at queue depth 1 on the
//!   modern preset: sequential fill, then 2¹⁹ uniform-random reads — the
//!   controller's read path (buffer residency, map lookup, flash read)
//!   with no queue above it. Events are the reads; the checksum also
//!   folds the host / flash / buffer-hit read counts.
//! * `ssd_write_plateau` — bare [`Ssd::write`] at queue depth 1 on the
//!   modern preset (no block layer, no queue pair): sequential fill,
//!   twice the capacity of random overwrites, then 2¹⁸ more — the
//!   controller's write + GC path alone. The checksum also folds the GC
//!   and flash counters and the erase-count spread.
//! * `lun_ops` — one [`Lun`] alone: 200 program / erase cycles over every
//!   page of the modern preset's die, then 200 read passes, as the
//!   benchmark's flash calibration does.
//! * `db_run_qd16` — the benchmark's `oltp_qd16` shape:
//!   [`Database::run_concurrent`] at concurrency 16 over the blk-mq
//!   stack, 4096 data pages behind 512 frames, `batched(16)` group
//!   commit, a sharp checkpoint every 2000 commits, zipfian θ 0.8.
//! * `db_shard4` — `oltp_shard4`'s shape: `ShardedDb::run` over four
//!   shards of that database (1024 frames in all, concurrency 4 each),
//!   a tenth of the transactions crossing shards.
//! * `db_coop_qd16` — `oltp_coop_pcm`'s shape: `db_run_qd16`'s inputs and
//!   pool over the cooperating-logs manager on a nameless device, the
//!   WAL on a PCM DIMM with a force per commit. The checksum also folds
//!   the migration upcalls patched into the page table.
//!
//! The `db_*` rows are [`requiem_bench::campaign`] specs, probe off.

use requiem_bench::campaign::{self, Coop, RunSpec, ShardedStack, Stack, Workload};
use requiem_block::{IoStack, StackConfig};
use requiem_db::{Database, DbConfig, GroupCommitPolicy, PersistenceBackend, WalConfig};
use requiem_flash::{Lun, PagePayload};
use requiem_iface::nameless::NamelessConfig;
use requiem_sim::completion::InflightWindow;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{IoOp, IoRequest};
use requiem_ssd::{Lpn, QueuePair, Ssd, SsdConfig};
use requiem_workload::oltp::OltpConfig;
use requiem_workload::pattern::{AddressPattern, Pattern};
use requiem_workload::ShardedOltpConfig;

const BENCHES: [&str; 10] = [
    "window_admit",
    "iostack_read_qd8",
    "iostack_overwrite_qd8",
    "qpair_qd1",
    "ssd_read_random",
    "ssd_write_plateau",
    "lun_ops",
    "db_run_qd16",
    "db_shard4",
    "db_coop_qd16",
];

/// Queue depth of the `iostack_*` closed loops.
const QD: usize = 8;

fn fold(checksum: &mut u64, t: SimTime) {
    *checksum = checksum.wrapping_mul(31).wrapping_add(t.as_nanos());
}

fn window_admit() -> (u64, u64) {
    const ADMITS: u64 = 1 << 21;
    let mut w = InflightWindow::new(16);
    let mut now = SimTime::ZERO;
    let mut lba = 0u64;
    let mut checksum = 0u64;
    for i in 0..ADMITS {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
        if i % 64 != 63 {
            lba = h % (1 << 20);
        }
        let admit = w.admit(now, lba);
        // 20–100 µs of service against a mean 3 µs between arrivals:
        // sixteen slots drain one command per ~3.75 µs, so the window
        // hovers at full
        w.commit(
            admit,
            lba,
            admit + SimDuration::from_nanos(20_000 + h % 80_000),
        );
        fold(&mut checksum, admit);
        now += SimDuration::from_nanos(h % 6_000);
    }
    (ADMITS, checksum)
}

/// Keep [`QD`] commands of `op` outstanding on core 0 until `lbas` is
/// exhausted: submit, jump to the next completion instant, reap, refill
/// with as many commands as were reaped. Returns the instant the last
/// completion was observed.
fn closed_loop(
    stack: &mut IoStack<Ssd>,
    start: SimTime,
    op: IoOp,
    lbas: &[u64],
    checksum: &mut u64,
) -> SimTime {
    let mut now = start;
    let mut next = 0usize;
    let mut refill = QD.min(lbas.len());
    let mut reqs: Vec<IoRequest> = Vec::with_capacity(QD);
    loop {
        if refill > 0 {
            reqs.clear();
            reqs.extend(
                lbas[next..next + refill]
                    .iter()
                    .map(|&lba| IoRequest::new(op, lba)),
            );
            next += refill;
            stack.submit_batch(now, 0, &reqs);
        }
        let Some(ready) = stack.next_completion_time(0) else {
            return now;
        };
        now = now.max(ready);
        let done = stack.poll_completions(now, 0);
        for c in &done {
            assert!(c.status.is_success(), "bench command failed: {c:?}");
            now = now.max(c.done);
            fold(checksum, c.done);
        }
        refill = done.len().min(lbas.len() - next);
    }
}

fn iostack(op: IoOp, plateau: bool, timed_ops: usize) -> (u64, u64) {
    let mut stack = IoStack::new(StackConfig::blk_mq(1), Ssd::new(SsdConfig::modern()));
    stack.set_inflight_window(QD);
    let pages = stack.backend().capacity().exported_pages;
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 42);
    let mut lbas: Vec<u64> = (0..pages).collect();
    if plateau {
        lbas.extend(pat.take_vec(2 * pages as usize));
    }
    let mut checksum = 0u64;
    let filled = closed_loop(&mut stack, SimTime::ZERO, IoOp::Write, &lbas, &mut checksum);
    let timed = pat.take_vec(timed_ops);
    closed_loop(&mut stack, filled, op, &timed, &mut checksum);
    ((lbas.len() + timed.len()) as u64, checksum)
}

fn qpair_qd1() -> (u64, u64) {
    const READS: usize = 1 << 19;
    let mut ssd = Ssd::new(SsdConfig::modern());
    let mut qp = QueuePair::new(1);
    let pages = ssd.capacity().exported_pages;
    let reads = AddressPattern::new(Pattern::UniformRandom, pages, 42).take_vec(READS);
    let cmds = (0..pages)
        .map(IoRequest::write)
        .chain(reads.into_iter().map(IoRequest::read));
    let mut now = SimTime::ZERO;
    let mut checksum = 0u64;
    for req in cmds {
        ssd.enqueue(&mut qp, now, req);
        let c = qp.pop().expect("one command in flight");
        assert!(c.status.is_success(), "bench command failed: {c:?}");
        now = c.done;
        fold(&mut checksum, c.done);
    }
    (pages + READS as u64, checksum)
}

fn ssd_read_random() -> (u64, u64) {
    const READS: usize = 1 << 19;
    let mut ssd = Ssd::new(SsdConfig::modern());
    let pages = ssd.capacity().exported_pages;
    let mut now = SimTime::ZERO;
    for lpn in 0..pages {
        now = ssd.write(now, Lpn(lpn)).expect("bench fill").done;
    }
    let reads = AddressPattern::new(Pattern::UniformRandom, pages, 42).take_vec(READS);
    let mut checksum = 0u64;
    for &lpn in &reads {
        let c = ssd.read(now, Lpn(lpn)).expect("bench command");
        assert!(c.status.is_success(), "bench command failed: {c:?}");
        now = c.done;
        fold(&mut checksum, c.done);
    }
    let m = ssd.metrics();
    for x in [m.host_reads, m.flash_reads.total(), m.buffer_read_hits] {
        checksum = checksum.wrapping_mul(31).wrapping_add(x);
    }
    (READS as u64, checksum)
}

fn ssd_write_plateau() -> (u64, u64) {
    const TIMED: usize = 1 << 18;
    let mut ssd = Ssd::new(SsdConfig::modern());
    let pages = ssd.capacity().exported_pages;
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, 42);
    let mut lpns: Vec<u64> = (0..pages).collect();
    lpns.extend(pat.take_vec(2 * pages as usize + TIMED));
    let mut now = SimTime::ZERO;
    let mut checksum = 0u64;
    for &lpn in &lpns {
        let c = ssd.write(now, Lpn(lpn)).expect("bench command");
        assert!(c.status.is_success(), "bench command failed: {c:?}");
        now = c.done;
        fold(&mut checksum, c.done);
    }
    let m = ssd.metrics();
    let (min, max, mean) = ssd.wear_spread();
    for x in [
        m.gc_runs,
        m.gc_pages_moved,
        m.flash_programs.total(),
        m.flash_erases.total(),
        u64::from(min),
        u64::from(max),
        mean.to_bits(),
    ] {
        checksum = checksum.wrapping_mul(31).wrapping_add(x);
    }
    (lpns.len() as u64, checksum)
}

fn lun_ops() -> (u64, u64) {
    const CYCLES: u64 = 200;
    let spec = SsdConfig::modern().flash;
    let geometry = spec.geometry.clone();
    let mut lun = Lun::new(0, spec, 0);
    let blocks: Vec<_> = geometry.blocks().collect();
    let pages: Vec<_> = blocks.iter().flat_map(|&b| geometry.pages_of(b)).collect();
    let mut events = 0u64;
    let mut checksum = 0u64;
    let mut fold_ns = |d: SimDuration| {
        events += 1;
        checksum = checksum.wrapping_mul(31).wrapping_add(d.as_nanos());
    };
    for cycle in 0..CYCLES {
        for &a in &pages {
            let oob = PagePayload::Oob {
                lpn: geometry.ppn(a).0,
                seq: cycle,
            };
            fold_ns(lun.program(a, oob).expect("bench program").duration);
        }
        if cycle + 1 == CYCLES {
            break; // leave the LUN programmed for the reads
        }
        for &b in &blocks {
            fold_ns(lun.erase(b).expect("bench erase").duration);
        }
    }
    for _ in 0..CYCLES {
        for &a in &pages {
            fold_ns(lun.read(a).expect("bench read").duration);
        }
    }
    (events, checksum)
}

/// `db_run_qd16`'s spec (see the module docs); the other `db_*` rows
/// vary it.
fn qd16_spec() -> RunSpec<Stack> {
    RunSpec {
        db: DbConfig::builder()
            .data_pages(4096)
            .log_pages(512)
            .checkpoint_every(2000)
            .buffer_frames(512)
            .concurrency(16)
            .group(GroupCommitPolicy::batched(16)),
        manager: Stack(StackConfig::blk_mq(1), SsdConfig::modern()),
        workload: Workload::Oltp(OltpConfig::default()),
        txns: 50_000,
        seed: 11,
        probe: false,
    }
}

/// Fold one engine's final clock and every counter a page-state change
/// could move.
fn fold_db<B: PersistenceBackend>(checksum: &mut u64, db: &Database<B>) {
    fold(checksum, db.now());
    let (e, b, w) = (db.stats(), db.backend().stats(), db.wal_backend().stats());
    for x in [
        e.commits,
        e.checkpoints,
        e.read_stall.as_nanos(),
        e.steal_stall.as_nanos(),
        e.commit_stall.as_nanos(),
        e.media_recoveries,
        e.media_failures,
        e.wal_force_failures,
        b.page_writes,
        b.steal_writes,
        b.page_reads,
        b.frees,
        b.batches,
        b.logical_writes,
        w.log_forces,
        w.log_bytes,
    ] {
        *checksum = checksum.wrapping_mul(31).wrapping_add(x);
    }
}

fn db_run_qd16() -> (u64, u64) {
    let r = campaign::run(&qd16_spec());
    let mut checksum = 0u64;
    fold_db(&mut checksum, &r.engine);
    (r.report.txns, checksum)
}

fn db_shard4() -> (u64, u64) {
    const SHARDS: usize = 4;
    let spec = qd16_spec();
    let spec = RunSpec {
        db: spec
            .db
            .buffer_frames(1024)
            .shards(SHARDS)
            .cross_shard_ratio(0.10)
            .concurrency(4)
            .group(GroupCommitPolicy::batched(4)),
        workload: Workload::Sharded(ShardedOltpConfig {
            clients: 4096,
            ..ShardedOltpConfig::default()
        }),
        txns: 40_000,
        ..spec
    };
    let stack = ShardedStack(StackConfig::blk_mq(SHARDS as u32), SsdConfig::modern());
    let r = campaign::run(&spec.over(stack));
    let mut checksum = 0u64;
    for s in 0..SHARDS {
        fold_db(&mut checksum, r.engine.shard(s));
    }
    (r.report.committed, checksum)
}

fn db_coop_qd16() -> (u64, u64) {
    let spec = qd16_spec();
    let spec = RunSpec {
        db: spec
            .db
            .group(GroupCommitPolicy::immediate())
            .wal(WalConfig::pcm()),
        ..spec
    };
    let r = campaign::run(&spec.over(Coop(NamelessConfig::from(&SsdConfig::modern()))));
    let mut checksum = 0u64;
    fold_db(&mut checksum, &r.engine);
    checksum = checksum
        .wrapping_mul(31)
        .wrapping_add(r.engine.backend().relocations_patched());
    (r.report.txns, checksum)
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let (events, checksum) = match name.as_str() {
        "--list" => {
            println!("{}", BENCHES.join(" "));
            return;
        }
        "window_admit" => window_admit(),
        "iostack_read_qd8" => iostack(IoOp::Read, false, 1 << 19),
        "iostack_overwrite_qd8" => iostack(IoOp::Write, true, 1 << 18),
        "qpair_qd1" => qpair_qd1(),
        "ssd_read_random" => ssd_read_random(),
        "ssd_write_plateau" => ssd_write_plateau(),
        "lun_ops" => lun_ops(),
        "db_run_qd16" => db_run_qd16(),
        "db_shard4" => db_shard4(),
        "db_coop_qd16" => db_coop_qd16(),
        _ => {
            eprintln!("usage: bench_stack <--list|{}>", BENCHES.join("|"));
            std::process::exit(2);
        }
    };
    println!("bench={name} events={events} checksum={checksum}");
}
