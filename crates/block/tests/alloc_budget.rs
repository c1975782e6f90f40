//! Heap allocations per command on the block stack's batch path: none.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Over one
//! `IoStack<Ssd>` on `SsdConfig::modern()` the test fills the device,
//! then runs a QD-8 closed loop of random reads and one of random
//! overwrites, each driven as the benchmark's block loop drives it:
//! `submit_batch`, `next_completion_time`, `poll_completions`. Each loop
//! first runs a warm-up slice, so the stack's reap buffer, the queue
//! pair's heaps and the device's scratch reach their steady size (the
//! overwrite warm-up runs the device into garbage collection), then
//! counts `alloc` + `realloc` calls across a second slice and asserts
//! zero per command. The request buffer and the addresses are made
//! before counting. Counts, not times: they hold on any runner.

use std::alloc::System;

use requiem_block::{IoRequest, IoStack, StackConfig};
use requiem_sim::time::SimTime;
use requiem_ssd::{IoOp, Ssd, SsdConfig};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Commands kept outstanding, as in the benchmark's block workloads.
const QD: usize = 8;
const WARM_UP: usize = 1 << 13;
const COUNTED: usize = 1 << 13;

/// `alloc` + `realloc` calls made while `f` ran, and `f`'s result. The
/// counters are process-wide, which is why this file holds one `#[test]`:
/// nothing else allocates while it measures.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let region = Region::new(GLOBAL);
    let out = f();
    let change = region.change();
    ((change.allocations + change.reallocations) as u64, out)
}

/// `n` addresses spread over `pages` by a multiplicative hash.
fn random_lbas(n: usize, pages: u64, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| ((i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) % pages)
        .collect()
}

/// Keep [`QD`] commands of `op` outstanding on core 0 until `lbas` is
/// exhausted: submit, jump to the next completion instant, reap, refill
/// with as many commands as were reaped. `reqs` is the caller's batch
/// buffer. Returns the instant the last completion was observed.
fn closed_loop(
    stack: &mut IoStack<Ssd>,
    start: SimTime,
    op: IoOp,
    lbas: &[u64],
    reqs: &mut Vec<IoRequest>,
) -> SimTime {
    let mut now = start;
    let mut next = 0usize;
    let mut refill = QD.min(lbas.len());
    loop {
        if refill > 0 {
            reqs.clear();
            reqs.extend(
                lbas[next..next + refill]
                    .iter()
                    .map(|&lba| IoRequest::new(op, lba)),
            );
            next += refill;
            stack.submit_batch(now, 0, reqs);
        }
        let Some(ready) = stack.next_completion_time(0) else {
            return now;
        };
        now = now.max(ready);
        let done = stack.poll_completions(now, 0);
        for c in &done {
            assert!(c.status.is_success(), "command failed: {c:?}");
            now = now.max(c.done);
        }
        refill = done.len().min(lbas.len() - next);
    }
}

#[test]
fn the_batch_path_allocates_nothing_per_command() {
    let mut stack = IoStack::new(StackConfig::blk_mq(1), Ssd::new(SsdConfig::modern()));
    stack.set_inflight_window(QD);
    let pages = stack.backend().capacity().exported_pages;
    let mut reqs = Vec::with_capacity(QD);
    let fill: Vec<u64> = (0..pages).collect();
    let mut now = closed_loop(&mut stack, SimTime::ZERO, IoOp::Write, &fill, &mut reqs);

    // (shape, allocations per command, GC page moves while counted)
    let mut rows = Vec::new();
    for (shape, op, warm_up) in [
        ("read_qd8", IoOp::Read, WARM_UP),
        ("overwrite_qd8", IoOp::Write, pages as usize),
    ] {
        let warm = random_lbas(warm_up, pages, 1);
        let timed = random_lbas(COUNTED, pages, 1 + warm_up as u64);
        now = closed_loop(&mut stack, now, op, &warm, &mut reqs);
        let moved = stack.backend().metrics().gc_pages_moved;
        let (allocs, end) = counted(|| closed_loop(&mut stack, now, op, &timed, &mut reqs));
        now = end;
        let moved = stack.backend().metrics().gc_pages_moved - moved;
        println!("{shape}: {allocs} heap allocations over {COUNTED} commands ({moved} GC page moves), budget 0");
        rows.push((shape, allocs as f64 / COUNTED as f64, moved));
    }
    assert!(
        rows[1].2 > 0,
        "the counted overwrites run garbage collection"
    );
    assert!(
        rows.iter().all(|&(_, per_cmd, _)| per_cmd == 0.0),
        "the batch path allocated: {rows:?}"
    );
}
