//! **E7 — Principle P1**: separate synchronous from asynchronous
//! persistence.
//!
//! The same storage manager (buffer pool, WAL, checkpoints) runs on two
//! backends: **legacy** (everything through one flash SSD's block
//! interface) and **vision** (log forces and buffer steals to a PCM DIMM
//! on the memory bus; data traffic to flash with atomic batches). The
//! vision backend would TRIM freed pages, but the engine frees none, so
//! neither design sends a page free.
//! The workload is a TPC-B-flavoured OLTP mix, run on the executor one
//! transaction at a time with a log force per commit. How far group
//! commit alone closes the gap is E15's question (15a).

use requiem_bench::{fmt_ns, modern_unbuffered, note, section};
use requiem_block::StackConfig;
use requiem_db::backend::{PersistenceBackend, VisionBackend};
use requiem_db::engine::{Database, DbConfig};
use requiem_db::{BlockStackBackend, ExecConfig, TxnInput};
use requiem_sim::table::Align;
use requiem_sim::time::SimDuration;
use requiem_sim::Table;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::oltp_inputs;

struct RunResult {
    label: String,
    tps: f64,
    txn_p50: u64,
    txn_p99: u64,
    commit_p50: u64,
    commit_p99: u64,
    steals: u64,
    read_stall: SimDuration,
    commit_stall: SimDuration,
}

/// The legacy design: everything through one flash SSD's block
/// interface, the bare device (the block stack at zero CPU cost).
fn legacy(ssd: SsdConfig, data_pages: u64) -> BlockStackBackend {
    BlockStackBackend::new(StackConfig::bare(1), ssd, data_pages, 256)
}

fn run<B: PersistenceBackend>(label: &str, mut db: Database<B>, inputs: &[TxnInput]) -> RunResult {
    db.load();
    let report = db.run_concurrent(inputs, &ExecConfig::serialized());
    let s = db.stats().clone();
    RunResult {
        label: label.to_string(),
        tps: report.tps,
        txn_p50: db.txn_latency().p50(),
        txn_p99: db.txn_latency().p99(),
        commit_p50: db.commit_latency().p50(),
        commit_p99: db.commit_latency().p99(),
        steals: db.backend().stats().steal_writes,
        read_stall: s.read_stall,
        commit_stall: s.commit_stall,
    }
}

/// One row of the memory-pressure ablation: 1 000 default-mix
/// transactions through a pool too small to hold them (every access on
/// slot 0), reporting the steal traffic that results.
fn pressure_row<B: PersistenceBackend>(tbl: &mut Table, label: &str, mut db: Database<B>) {
    db.load();
    let mut gen = OltpGen::new(OltpConfig::default(), 9);
    let inputs: Vec<TxnInput> = (0..1000)
        .map(|_| {
            let txn = gen.next_txn();
            TxnInput {
                accesses: txn.accesses.iter().map(|a| (a.page, 0, a.dirty)).collect(),
                log_bytes: txn.log_bytes,
            }
        })
        .collect();
    let report = db.run_concurrent(&inputs, &ExecConfig::serialized());
    tbl.row([
        label.to_string(),
        format!("{:.0}", report.tps),
        format!("{}", db.backend().stats().steal_writes),
        format!("{}", db.stats().steal_stall),
    ]);
}

fn main() {
    println!("# E7 — synchronous/asynchronous separation (log on PCM vs log on flash)");
    let oltp = OltpConfig {
        pages_per_txn: 4,
        read_only_fraction: 0.5,
        log_bytes_per_txn: 256,
        data_pages: 1024,
        theta: 0.8,
    };
    let inputs = oltp_inputs(&mut OltpGen::new(oltp, 7), 2_000);
    let db_cfg = DbConfig {
        buffer_frames: 256,
        data_pages: 1024,
        checkpoint_every: 500,
        ..DbConfig::default()
    };

    section("OLTP (2 000 txns, zipf 0.8, 4 pages/txn, 50% dirty, checkpoint every 500)");
    let mut results = Vec::new();

    // legacy, conservative: no write cache trusted
    let be = legacy(modern_unbuffered(), db_cfg.data_pages);
    results.push(run(
        "legacy (flash, no write cache)",
        Database::new(db_cfg.clone(), be),
        &inputs,
    ));

    // legacy with a battery-backed write cache (ablation)
    let be = legacy(SsdConfig::modern(), db_cfg.data_pages);
    results.push(run(
        "legacy (flash + battery cache)",
        Database::new(db_cfg.clone(), be),
        &inputs,
    ));

    // vision: PCM log + extended flash
    let be = VisionBackend::new(modern_unbuffered(), db_cfg.data_pages, 1 << 22);
    results.push(run(
        "vision (PCM log + atomic flash)",
        Database::new(db_cfg.clone(), be),
        &inputs,
    ));

    let mut tbl = Table::new([
        "backend",
        "txns/s",
        "txn p50",
        "txn p99",
        "commit p50",
        "commit p99",
        "steals",
    ])
    .align(0, Align::Left);
    for r in &results {
        tbl.row([
            r.label.clone(),
            format!("{:.0}", r.tps),
            fmt_ns(r.txn_p50),
            fmt_ns(r.txn_p99),
            fmt_ns(r.commit_p50),
            fmt_ns(r.commit_p99),
            format!("{}", r.steals),
        ]);
    }
    println!("{tbl}");

    section("Where the time goes (stall decomposition)");
    let mut tbl = Table::new(["backend", "read stall", "commit stall"]).align(0, Align::Left);
    for r in &results {
        tbl.row([
            r.label.clone(),
            format!("{}", r.read_stall),
            format!("{}", r.commit_stall),
        ]);
    }
    println!("{tbl}");
    note("Expected shape: legacy commit forces cost hundreds of µs each and dominate; the PCM path cuts the commit force to ~1µs, leaving reads as the async bottleneck — 'synchronous patterns should be directed to PCM, asynchronous patterns to flash-based SSDs'.");

    section("Memory-pressure ablation (buffer pool 32 frames, 1 000 txns)");
    let small = DbConfig {
        buffer_frames: 32,
        checkpoint_every: 0,
        ..db_cfg.clone()
    };
    let mut tbl = Table::new(["backend", "txns/s", "steals", "steal stall"]).align(0, Align::Left);
    pressure_row(
        &mut tbl,
        "legacy (flash steals)",
        Database::new(small.clone(), legacy(modern_unbuffered(), small.data_pages)),
    );
    pressure_row(
        &mut tbl,
        "vision (PCM staging steals)",
        Database::new(
            small.clone(),
            VisionBackend::new(modern_unbuffered(), small.data_pages, 1 << 22),
        ),
    );
    println!("{tbl}");
    note("Buffer steals are the second synchronous pattern P1 names; staging them in PCM removes the flash program from the blocking path.");
}
