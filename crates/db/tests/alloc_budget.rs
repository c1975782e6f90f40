//! Heap allocations per committed transaction and heap bytes retained per
//! data page, as checked-in budgets.
//!
//! A counting `#[global_allocator]` wraps the system allocator. For each
//! of `bench_stack`'s three `db_*` shapes the test builds the database,
//! runs a warm-up slice so pools, scratch buffers and tables reach their
//! steady size, then counts `alloc` + `realloc` calls across a second
//! slice and asserts the count per committed transaction against a
//! literal. Beside it, the heap bytes the shape still holds after build,
//! warm-up and counted slice — allocated less freed, the inputs aside —
//! per data page, against a literal: what the database keeps per page it
//! models, most of its share of a run's peak memory. Counts, not times:
//! they hold on any runner.
//!
//! What may still allocate inside the counted region, and nothing else:
//!
//! * **per miss** — the frozen [`PersistenceBackend`] return value
//!   `submit_reads -> Vec<CommandTag>` (`benchmark/src/trace.rs::Timed`
//!   implements the trait, so its signature stays); completions are
//!   reaped through `poll_into` into the executor's one buffer, so a
//!   miss costs no `Vec` however its completion is spread over wakes;
//! * **per cross-shard transaction** — the ledger's entry (its
//!   participant `Vec`, its vote and entry tree nodes) and each
//!   participant's undo list;
//! * **amortised** — `commit_order` past its reservation, a slot's first
//!   record in its page's durable image (made when the first write-back
//!   of that slot lands), a redo list growing past the most slots
//!   its frame has held written at once (frames, steals and in-flight
//!   writes keep their lists' capacity), and the log's trim state growing
//!   past its size: the archive's slot list and image arena when a slot
//!   is archived for the first time, and the trimmed commit ids. The
//!   log's bytes stop growing once the checkpoints' trims hold them to
//!   about one checkpoint interval;
//! * **per checkpoint** — the dirty pages' id list, and the trim's lists
//!   of the commits, the cut writes and the committed ids;
//! * **per run** — executor state, the log's reservation when the run
//!   does not checkpoint, histograms and the reports.

use std::alloc::System;

use requiem_block::StackConfig;
use requiem_db::{DbBuilder, DbConfig, GroupCommitPolicy, TxnInput, WalConfig};
use requiem_iface::nameless::NamelessConfig;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::{oltp_inputs, txn_to_input, ShardedOltpConfig, ShardedOltpGen};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// `alloc` + `realloc` calls made while `f` ran, and `f`'s result. The
/// counters are process-wide, which is why this file holds one `#[test]`:
/// nothing else allocates while it measures.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let region = Region::new(GLOBAL);
    let out = f();
    let change = region.change();
    ((change.allocations + change.reallocations) as u64, out)
}

const PAGES: u64 = 4096;
const THETA: f64 = 0.8;
const SEED: u64 = 11;
const SHARDS: usize = 4;
const WARM_UP: usize = 10_000;
const COUNTED: usize = 20_000;

fn builder() -> DbBuilder {
    DbConfig::builder()
        .data_pages(PAGES)
        .log_pages(512)
        .checkpoint_every(2000)
}

fn qd16_inputs() -> Vec<TxnInput> {
    let gen_cfg = OltpConfig {
        data_pages: PAGES,
        theta: THETA,
        ..OltpConfig::default()
    };
    oltp_inputs(&mut OltpGen::new(gen_cfg, SEED), (WARM_UP + COUNTED) as u64)
}

/// One shape's figures: allocations per committed transaction of its
/// counted slice, and heap bytes held per data page since its build.
struct Measured {
    per_txn: f64,
    per_page: f64,
}

fn measured(shape: &str, allocs: u64, committed: u64, held: &Region<'_, System>) -> Measured {
    assert_eq!(committed, COUNTED as u64, "{shape}: every txn commits");
    // a growing `realloc` counts its growth in `bytes_allocated` and a
    // shrinking one its shrink in `bytes_deallocated`: the difference is
    // the bytes still held
    let held = held.change();
    Measured {
        per_txn: allocs as f64 / committed as f64,
        per_page: (held.bytes_allocated as f64 - held.bytes_deallocated as f64) / PAGES as f64,
    }
}

fn db_run_qd16() -> Measured {
    let b = builder()
        .buffer_frames(512)
        .concurrency(16)
        .group(GroupCommitPolicy::batched(16));
    let inputs = qd16_inputs();
    let held = Region::new(GLOBAL);
    let mut db = b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
    let cfg = b.exec_config();
    db.run_concurrent(&inputs[..WARM_UP], &cfg);
    let (allocs, report) = counted(|| db.run_concurrent(&inputs[WARM_UP..], &cfg));
    measured("db_run_qd16", allocs, report.txns, &held)
}

fn db_shard4() -> Measured {
    let b = builder()
        .buffer_frames(1024)
        .shards(SHARDS)
        .cross_shard_ratio(0.10)
        .concurrency(4)
        .group(GroupCommitPolicy::batched(4));
    let gen_cfg = ShardedOltpConfig {
        clients: 4096,
        theta: THETA,
        shards: SHARDS,
        cross_shard_ratio: b.cross_ratio(),
        data_pages: PAGES,
        ..ShardedOltpConfig::default()
    };
    let mut gen = ShardedOltpGen::new(gen_cfg, SEED);
    let inputs: Vec<_> = (0..WARM_UP + COUNTED)
        .map(|_| txn_to_input(&gen.next_txn()))
        .collect();
    let held = Region::new(GLOBAL);
    let mut db = b.build_sharded_stack(StackConfig::blk_mq(SHARDS as u32), SsdConfig::modern());
    let cfg = b.exec_config();
    db.run(&inputs[..WARM_UP], &cfg);
    let (allocs, report) = counted(|| db.run(&inputs[WARM_UP..], &cfg));
    measured("db_shard4", allocs, report.committed, &held)
}

fn db_coop_qd16() -> Measured {
    let b = builder()
        .buffer_frames(512)
        .concurrency(16)
        .group(GroupCommitPolicy::immediate())
        .wal(WalConfig::pcm());
    let inputs = qd16_inputs();
    let held = Region::new(GLOBAL);
    let mut db = b.build_coop(NamelessConfig::from(&SsdConfig::modern()));
    let cfg = b.exec_config();
    db.run_concurrent(&inputs[..WARM_UP], &cfg);
    let (allocs, report) = counted(|| db.run_concurrent(&inputs[WARM_UP..], &cfg));
    measured("db_coop_qd16", allocs, report.txns, &held)
}

#[test]
fn steady_state_allocations_stay_inside_their_budgets() {
    // (shape, figures, allocations per committed txn budget, retained
    // bytes per data page budget). At the parent of the change that
    // checked this file in the three read 7.92, 14.50 and 8.22
    // allocations; that change left 3.06, 5.41 and 2.84. Once bus
    // transfers backfilled idle gaps, reads stopped completing in batches
    // and a `Vec` per non-empty `poll` pushed them to 3.80, 5.50 and 3.97;
    // reaping into one buffer left 2.36, 3.60 and 2.35 (budgets 2.6, 3.9
    // and 2.6). Frames that hold redo instead of a page copy left 2.24,
    // 3.55 and 2.23, and each budget is that plus the same margin. Shard
    // plans that index the caller's inputs instead of copying each share's
    // accesses left db_shard4 at 2.36 (budget 2.6).
    //
    // Retained bytes per data page read 2863, 4093 and 3161 while every
    // durable image held all 16 records of its page (1 616 B); images that
    // hold only the records written to them left 1392, 2686 and 1689, and
    // each budget is that plus about a tenth.
    let rows = [
        ("db_run_qd16", db_run_qd16(), 2.48, 1530.0),
        ("db_shard4", db_shard4(), 2.6, 2950.0),
        ("db_coop_qd16", db_coop_qd16(), 2.48, 1860.0),
    ];
    for (shape, got, allocs, bytes) in &rows {
        println!(
            "{shape}: {:.2} heap allocations per committed txn, budget {allocs}; \
             {:.0} heap bytes retained per data page, budget {bytes}",
            got.per_txn, got.per_page
        );
    }
    let over: Vec<_> = rows
        .iter()
        .filter(|(_, got, allocs, bytes)| got.per_txn > *allocs || got.per_page > *bytes)
        .map(|(shape, ..)| shape)
        .collect();
    assert!(over.is_empty(), "over budget: {over:?}");
}
