//! **Stack micro-bench driver** — `bench_kernel`'s sibling one layer
//! up: deterministic work units for the per-command path from
//! [`IoStack`] down to the flash LUN.
//!
//! Same contract as `bench_kernel`: each sub-bench runs a fixed, seeded
//! amount of simulated work and prints
//!
//! ```text
//! bench=<name> events=<count> checksum=<value>
//! ```
//!
//! where `events` counts simulated commands (every command the sub-bench
//! pushes through the layer under test, set-up included) and `checksum`
//! folds their simulated completion instants. The binary never reads a
//! clock; `scripts/perf_gate.sh` owns the stopwatch and composes
//! `BENCH_stack.json` (host-ns per simulated command).
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
//! * `qpair_qd1` — [`QueuePair`] at depth 1 straight over the device
//!   (no block layer): fill, then random reads, one submit + one pop per
//!   command.

use requiem_block::{IoStack, StackConfig};
use requiem_sim::completion::InflightWindow;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{IoOp, IoRequest};
use requiem_ssd::{QueuePair, Ssd, SsdConfig};
use requiem_workload::pattern::{AddressPattern, Pattern};

const BENCHES: [&str; 4] = [
    "window_admit",
    "iostack_read_qd8",
    "iostack_overwrite_qd8",
    "qpair_qd1",
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
        qp.submit(&mut ssd, now, req).expect("bench command");
        let c = qp.pop().expect("one command in flight");
        assert!(c.status.is_success(), "bench command failed: {c:?}");
        now = c.done;
        fold(&mut checksum, c.done);
    }
    (pages + READS as u64, checksum)
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
        _ => {
            eprintln!("usage: bench_stack <--list|{}>", BENCHES.join("|"));
            std::process::exit(2);
        }
    };
    println!("bench={name} events={events} checksum={checksum}");
}
