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
//! A second test is a law rather than a budget: what a database keeps
//! does not grow with the length of its run. A fresh build of
//! `db_run_qd16` and of `db_shard4` runs 2N transactions, another 4N, and
//! the second may keep no more than the first beyond a fixed slack —
//! retained bytes per committed transaction halve as the run doubles.
//!
//! What may still allocate inside the counted region, and nothing else:
//!
//! * **per miss** — the frozen [`PersistenceBackend`] return value
//!   `submit_reads -> Vec<CommandTag>` (`benchmark/src/trace.rs::Timed`
//!   implements the trait, so its signature stays); completions are
//!   reaped through `poll_into` into the executor's one buffer, so a
//!   miss costs no `Vec` however its completion is spread over wakes;
//! * **per cross-shard transaction** — the ledger's entry (its
//!   participant `Vec`, its vote and entry tree nodes, freed once it
//!   settles) and each participant's undo list;
//! * **amortised** — a slot's first record in its page's durable image
//!   (made when the first write-back of that slot lands), a redo list
//!   growing past the most slots its frame has held written at once
//!   (frames, steals and in-flight writes keep their lists' capacity), a
//!   shard's inbox, and the log's
//!   trim state growing past its size: the archive's slot list and image
//!   arena when a slot is archived for the first time, and the trimmed
//!   decision ids. The log's bytes stop growing once the checkpoints'
//!   trims hold them to about one checkpoint interval;
//! * **per checkpoint** — the dirty pages' id list, and the trim's lists
//!   of the commits, the cut writes and the committed ids;
//! * **per run** — executor state, the log's reservation when the run
//!   does not checkpoint, histograms and the reports.

use std::alloc::System;
use std::sync::Mutex;

use requiem_block::StackConfig;
use requiem_db::{DbBuilder, DbConfig, GroupCommitPolicy, TxnInput, WalConfig};
use requiem_iface::nameless::NamelessConfig;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::{oltp_inputs, txn_to_input, ShardedOltpConfig, ShardedOltpGen};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Held by each test for its whole length. The counters are process-wide,
/// so nothing else may allocate while a test measures.
static MEASURING: Mutex<()> = Mutex::new(());

/// `alloc` + `realloc` calls made while `f` ran, and `f`'s result.
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

fn qd16_builder() -> DbBuilder {
    builder()
        .buffer_frames(512)
        .concurrency(16)
        .group(GroupCommitPolicy::batched(16))
}

fn qd16_inputs(txns: usize) -> Vec<TxnInput> {
    let gen_cfg = OltpConfig {
        data_pages: PAGES,
        theta: THETA,
        ..OltpConfig::default()
    };
    oltp_inputs(&mut OltpGen::new(gen_cfg, SEED), txns as u64)
}

fn shard4_builder() -> DbBuilder {
    builder()
        .buffer_frames(1024)
        .shards(SHARDS)
        .cross_shard_ratio(0.10)
        .concurrency(4)
        .group(GroupCommitPolicy::batched(4))
}

fn shard4_inputs(txns: usize) -> Vec<TxnInput> {
    let gen_cfg = ShardedOltpConfig {
        clients: 4096,
        theta: THETA,
        shards: SHARDS,
        cross_shard_ratio: shard4_builder().cross_ratio(),
        data_pages: PAGES,
        ..ShardedOltpConfig::default()
    };
    let mut gen = ShardedOltpGen::new(gen_cfg, SEED);
    (0..txns).map(|_| txn_to_input(&gen.next_txn())).collect()
}

/// Heap bytes held by what `f` left behind: allocated less freed while
/// it ran. A growing `realloc` counts its growth in `bytes_allocated` and
/// a shrinking one its shrink in `bytes_deallocated`.
fn held(region: &Region<'_, System>) -> f64 {
    let change = region.change();
    change.bytes_allocated as f64 - change.bytes_deallocated as f64
}

/// One shape's figures: allocations per committed transaction of its
/// counted slice, and heap bytes held per data page since its build.
struct Measured {
    per_txn: f64,
    per_page: f64,
}

fn measured(shape: &str, allocs: u64, committed: u64, since: &Region<'_, System>) -> Measured {
    assert_eq!(committed, COUNTED as u64, "{shape}: every txn commits");
    Measured {
        per_txn: allocs as f64 / committed as f64,
        per_page: held(since) / PAGES as f64,
    }
}

fn db_run_qd16() -> Measured {
    let b = qd16_builder();
    let inputs = qd16_inputs(WARM_UP + COUNTED);
    let held = Region::new(GLOBAL);
    let mut db = b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
    let cfg = b.exec_config();
    db.run_concurrent(&inputs[..WARM_UP], &cfg);
    let (allocs, report) = counted(|| db.run_concurrent(&inputs[WARM_UP..], &cfg));
    measured("db_run_qd16", allocs, report.txns, &held)
}

fn db_shard4() -> Measured {
    let b = shard4_builder();
    let inputs = shard4_inputs(WARM_UP + COUNTED);
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
    let inputs = qd16_inputs(WARM_UP + COUNTED);
    let held = Region::new(GLOBAL);
    let mut db = b.build_coop(NamelessConfig::from(&SsdConfig::modern()));
    let cfg = b.exec_config();
    db.run_concurrent(&inputs[..WARM_UP], &cfg);
    let (allocs, report) = counted(|| db.run_concurrent(&inputs[WARM_UP..], &cfg));
    measured("db_coop_qd16", allocs, report.txns, &held)
}

#[test]
fn steady_state_allocations_stay_inside_their_budgets() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
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
    // each budget is that plus about a tenth. Shares mailed to their shard
    // when their home starts them, a ledger that forgets what settled and
    // a log that keeps no cut local commit's id left 1330, 1844 and 1628;
    // db_shard4's budget is that plus about a tenth. Later changes left
    // 1247, 1761 and 1547; a device whose flash pages keep one 16-byte
    // out-of-band record, whose directory keeps a valid bit beside it and
    // whose write buffer indexes only what it holds (46 → 26 heap bytes
    // per physical page) left 977, 1483 and 1221, and each budget is
    // that plus about a tenth.
    let rows = [
        ("db_run_qd16", db_run_qd16(), 2.48, 1075.0),
        ("db_shard4", db_shard4(), 2.6, 1630.0),
        ("db_coop_qd16", db_coop_qd16(), 2.48, 1345.0),
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

/// What a fresh build of `db_run_qd16` keeps after one run of `inputs`.
fn qd16_keeps(inputs: &[TxnInput]) -> f64 {
    let b = qd16_builder();
    let since = Region::new(GLOBAL);
    let mut db = b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
    let committed = db.run_concurrent(inputs, &b.exec_config()).txns;
    assert_eq!(
        committed,
        inputs.len() as u64,
        "db_run_qd16: every txn commits"
    );
    held(&since)
}

/// What a fresh build of `db_shard4` keeps after one run of `inputs`.
fn shard4_keeps(inputs: &[TxnInput]) -> f64 {
    let b = shard4_builder();
    let since = Region::new(GLOBAL);
    let mut db = b.build_sharded_stack(StackConfig::blk_mq(SHARDS as u32), SsdConfig::modern());
    let committed = db.run(inputs, &b.exec_config()).committed;
    assert_eq!(
        committed,
        inputs.len() as u64,
        "db_shard4: every txn commits"
    );
    held(&since)
}

/// The bounded-memory law: a run twice as long keeps no more than a fixed
/// slack beyond the shorter one, from 2N to 4N transactions for N = 5 000
/// and 10 000 — the slack does not scale with N, so what the database
/// keeps per committed transaction halves as the run doubles. What still
/// grows is the data: slots written for the first time (+44 KB and
/// +51 KB from 10 000 to 20 000 transactions, +10 KB and +19 KB from
/// 20 000 to 40 000). Each term that once grew with the run broke the law
/// alone on `db_shard4`: shares held back until their shard reached the
/// input's position (their before-images held each checkpoint's trim
/// back, so the kept log outgrew its buffer: +1.9 MB from 10 000 to
/// 20 000), settled ledger entries (+0.46 and +0.81 MB), and the ids of
/// every local commit a trim cut (+0.11 and +0.27 MB; on `db_run_qd16`
/// +0.17 and +0.27 MB).
#[test]
fn what_a_run_keeps_does_not_grow_with_its_length() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    const RUNS: [usize; 3] = [10_000, 20_000, 40_000];
    const SLACK: f64 = 80.0 * 1024.0;
    let rows = [
        (
            "db_run_qd16",
            qd16_inputs(RUNS[2]),
            qd16_keeps as fn(&[TxnInput]) -> f64,
        ),
        ("db_shard4", shard4_inputs(RUNS[2]), shard4_keeps),
    ];
    for (shape, inputs, keeps) in &rows {
        let kept = RUNS.map(|txns| keeps(&inputs[..txns]));
        for i in 1..RUNS.len() {
            let grew = kept[i] - kept[i - 1];
            println!(
                "{shape}: {:.0} heap bytes kept after {} txns, {:.0} after {} (+{grew:.0}, slack {SLACK})",
                kept[i - 1],
                RUNS[i - 1],
                kept[i],
                RUNS[i]
            );
            assert!(
                grew <= SLACK,
                "{shape}: a run of {} txns keeps {grew:.0} bytes more than one of {}",
                RUNS[i],
                RUNS[i - 1]
            );
        }
    }
}
