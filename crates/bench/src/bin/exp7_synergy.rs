//! **E7 — Principle P1**: separate synchronous from asynchronous
//! persistence.
//!
//! The same storage manager (buffer pool, WAL, checkpoints) runs on two
//! routes of one backend, `BlockStackBackend`: **legacy** (everything
//! through one flash SSD's block interface) and **vision** (log forces
//! and buffer steals to a PCM DIMM on the memory bus; data traffic to
//! flash with atomic batches). The vision route would TRIM freed pages,
//! but the engine frees none, so neither design sends a page free.
//! The workload is a TPC-B-flavoured OLTP mix, run on the executor one
//! transaction at a time with a log force per commit. How far group
//! commit alone closes the gap is E15's question (15a). Every run is a
//! [`requiem_bench::campaign`] spec.

use requiem_bench::campaign::{self, RunResult, RunSpec, Stack, Vision, Workload};
use requiem_bench::{fmt_ns, modern_unbuffered, note, section};
use requiem_block::StackConfig;
use requiem_db::{BlockStackBackend, Database, DbConfig, TxnInput};
use requiem_sim::table::Align;
use requiem_sim::Table;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};

/// One route's row in each OLTP table: throughput, latencies and
/// steals; then where its time went.
fn rows(label: &str, r: &RunResult<Database<BlockStackBackend>>) -> [Vec<String>; 2] {
    let (txn, commit) = (r.engine.txn_latency(), r.engine.commit_latency());
    [
        vec![
            label.to_string(),
            format!("{:.0}", r.report.tps),
            fmt_ns(txn.p50()),
            fmt_ns(txn.p99()),
            fmt_ns(commit.p50()),
            fmt_ns(commit.p99()),
            format!("{}", r.delta.steal_writes),
        ],
        vec![
            label.to_string(),
            format!("{}", r.delta.read_stall),
            format!("{}", r.delta.commit_stall),
        ],
    ]
}

fn main() {
    println!("# E7 — synchronous/asynchronous separation (log on PCM vs log on flash)");
    // one transaction in flight with a log force per commit (the
    // builder's default loop), every run on the legacy design first:
    // everything through one flash SSD's block interface, the bare
    // device (the block stack at zero CPU cost)
    let legacy = RunSpec {
        db: DbConfig::builder()
            .log_pages(256)
            .buffer_frames(256)
            .checkpoint_every(500),
        manager: Stack(StackConfig::bare(1), modern_unbuffered()),
        // the default mix: zipf 0.8, 4 pages/txn, half of them dirty,
        // 256 log bytes, over the builder's 1 024 pages
        workload: Workload::Oltp(OltpConfig::default()),
        txns: 2_000,
        seed: 7,
        probe: false,
    };

    section("OLTP (2 000 txns, zipf 0.8, 4 pages/txn, 50% dirty, checkpoint every 500)");
    let runs = [
        // legacy, conservative: no write cache trusted
        ("legacy (flash, no write cache)", campaign::run(&legacy)),
        // legacy with a battery-backed write cache (ablation)
        (
            "legacy (flash + battery cache)",
            campaign::run(&RunSpec {
                manager: Stack(StackConfig::bare(1), SsdConfig::modern()),
                ..legacy.clone()
            }),
        ),
        // vision: PCM log + extended flash
        (
            "vision (PCM log + atomic flash)",
            campaign::run(&legacy.clone().over(Vision(modern_unbuffered()))),
        ),
    ];
    let mut latency = Table::new([
        "backend",
        "txns/s",
        "txn p50",
        "txn p99",
        "commit p50",
        "commit p99",
        "steals",
    ])
    .align(0, Align::Left);
    let mut stalls = Table::new(["backend", "read stall", "commit stall"]).align(0, Align::Left);
    for (label, r) in &runs {
        let [l, s] = rows(label, r);
        latency.row(l);
        stalls.row(s);
    }
    println!("{latency}");
    let [(_, raw), (_, cached), (_, vision)] = &runs;
    assert!(
        vision.report.tps > raw.report.tps && vision.report.tps > cached.report.tps,
        "vision must out-run both legacy rows ({:.0} vs {:.0} and {:.0} txns/s)",
        vision.report.tps,
        raw.report.tps,
        cached.report.tps
    );
    let commit_p50 = |r: &RunResult<Database<BlockStackBackend>>| r.engine.commit_latency().p50();
    assert!(
        commit_p50(vision) < commit_p50(cached) && commit_p50(cached) < commit_p50(raw),
        "commit p50 must rank vision < legacy + battery cache < legacy ({} / {} / {} ns)",
        commit_p50(vision),
        commit_p50(cached),
        commit_p50(raw)
    );
    section("Where the time goes (stall decomposition)");
    println!("{stalls}");
    assert!(
        raw.delta.commit_stall > raw.delta.read_stall,
        "legacy without a cache must stall on commits more than on reads ({} vs {})",
        raw.delta.commit_stall,
        raw.delta.read_stall
    );
    assert!(
        vision.delta.commit_stall <= vision.delta.read_stall,
        "vision must leave reads, not commits, as the larger stall ({} vs {})",
        vision.delta.commit_stall,
        vision.delta.read_stall
    );
    note("Expected shape: legacy commit forces cost hundreds of µs each and dominate; the PCM path cuts the commit force to ~1µs, leaving reads as the async bottleneck — 'synchronous patterns should be directed to PCM, asynchronous patterns to flash-based SSDs'.");

    section("Memory-pressure ablation (buffer pool 32 frames, 1 000 txns)");
    // 1 000 default-mix transactions, every access on slot 0, through a
    // pool too small to hold them
    let mut gen = OltpGen::new(OltpConfig::default(), 9);
    let pressure: Vec<TxnInput> = (0..1000)
        .map(|_| {
            let txn = gen.next_txn();
            TxnInput {
                accesses: txn.accesses.iter().map(|a| (a.page, 0, a.dirty)).collect(),
                log_bytes: txn.log_bytes,
            }
        })
        .collect();
    let small = RunSpec {
        db: legacy.db.buffer_frames(32).checkpoint_every(0),
        workload: Workload::Inputs(pressure),
        txns: 1000,
        ..legacy
    };
    let flash = campaign::run(&small);
    let pcm = campaign::run(&small.over(Vision(modern_unbuffered())));
    let mut tbl = Table::new(["backend", "txns/s", "steals", "steal stall"]).align(0, Align::Left);
    for (label, tps, delta) in [
        ("legacy (flash steals)", flash.report.tps, flash.delta),
        ("vision (PCM staging steals)", pcm.report.tps, pcm.delta),
    ] {
        let steals = [
            delta.steal_writes.to_string(),
            delta.steal_stall.to_string(),
        ];
        tbl.row(
            [label.to_string(), format!("{tps:.0}")]
                .into_iter()
                .chain(steals),
        );
    }
    println!("{tbl}");
    assert!(
        pcm.delta.steal_stall < flash.delta.steal_stall && pcm.report.tps > flash.report.tps,
        "PCM staging must cut the steal stall ({} vs {}) and raise throughput ({:.0} vs {:.0})",
        pcm.delta.steal_stall,
        flash.delta.steal_stall,
        pcm.report.tps,
        flash.report.tps
    );
    note("Buffer steals are the second synchronous pattern P1 names; staging them in PCM removes the flash program from the blocking path.");
}
