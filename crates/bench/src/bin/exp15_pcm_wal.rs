//! **E15 — The WAL medium split**: byte-granular PCM commit records vs
//! flash group commit, measured at the commit-latency CDF.
//!
//! §3's principle P1: synchronous patterns (the commit force) belong on
//! byte-addressable PCM on the memory bus; asynchronous patterns (page
//! streaming) belong on flash. The
//! [`WalBackend`](requiem_db::walbackend::WalBackend) split makes the
//! WAL medium a configuration knob, so the same engine, trace, and
//! flash data path can carry its commit records four ways:
//!
//! * **flash immediate** — every commit forces a 4 KiB segment write:
//!   today's conservative path.
//! * **flash batched** — group commit amortizes the segment write over
//!   up to QD commits: latency traded for throughput.
//! * **flash deadline** — an oversized group bounded by a 150 µs
//!   deadline: the tail-control variant.
//! * **pcm immediate** — the commit record persists byte-granularly on
//!   the DIMM ([`PcmWal`](requiem_db::walbackend::PcmWal)); no batching
//!   needed, truncation free.
//!
//! Sections:
//!
//! * **15a** — TPS and commit-latency quantiles per policy × QD, and
//!   the **amortization crossover**: the first QD where flash group
//!   commit's throughput catches what PCM delivers with *no* queueing
//!   at QD 1. Batching can buy back the bandwidth, but only by paying
//!   queue depth and group-wait latency for it.
//! * **15b** — the commit CDF at QD 1: the medium gap no policy hides.
//! * **15c** — Start-Gap wear on the DIMM: the hot log head spreads
//!   across physical lines; the wear table is the endurance cost of
//!   putting the hottest bytes in the system on PCM.
//! * **15d** — probe decomposition: the force span class splits into
//!   `wal/transfer` (flash) vs `wal/pcm_persist` (PCM) on the bus.
//!
//! Every run is a [`requiem_bench::campaign`] spec. The JSON at the end
//! feeds the determinism CI job.

use requiem_bench::campaign::{self, RunResult, RunSpec, Stack, Workload};
use requiem_bench::{fmt_ns, note, section, Series, V};
use requiem_block::StackConfig;
use requiem_db::{
    BlockStackBackend, Database, DbConfig, GroupCommitPolicy, PcmWalConfig, WalConfig,
};
use requiem_pcm::PcmTiming;
use requiem_sim::table::Align;
use requiem_sim::time::SimDuration;
use requiem_sim::{Cause, Layer, ProbeSummary, Table};
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::OltpConfig;

const SEED: u64 = 15;
const TXNS: u64 = 600;
const DATA_PAGES: u64 = 1024;
const LOG_PAGES: u64 = 512;
const BUFFER_FRAMES: usize = 512;
const QDS: [usize; 5] = [1, 2, 4, 8, 16];
/// The deadline variant's tail bound.
const DEADLINE: SimDuration = SimDuration::from_micros(150);

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    FlashImmediate,
    FlashBatched,
    FlashDeadline,
    PcmImmediate,
}

impl Policy {
    const ALL: [Policy; 4] = [
        Policy::FlashImmediate,
        Policy::FlashBatched,
        Policy::FlashDeadline,
        Policy::PcmImmediate,
    ];

    fn label(self) -> &'static str {
        match self {
            Policy::FlashImmediate => "flash immediate",
            Policy::FlashBatched => "flash batched",
            Policy::FlashDeadline => "flash deadline",
            Policy::PcmImmediate => "pcm immediate",
        }
    }

    /// The label as a JSON-friendly key: `flash_batched`.
    fn key(self) -> String {
        self.label().replace(' ', "_")
    }

    fn group(self, qd: usize) -> GroupCommitPolicy {
        match self {
            Policy::FlashImmediate | Policy::PcmImmediate => GroupCommitPolicy::immediate(),
            Policy::FlashBatched => GroupCommitPolicy::batched(qd as u32),
            // oversized group, bounded by the deadline (the executor
            // still forces an undersized group when the loop idles)
            Policy::FlashDeadline => GroupCommitPolicy {
                max_txns: 2 * qd.max(1) as u32,
                max_wait: DEADLINE,
            },
        }
    }

    /// One closed-loop run of the commit-heavy trace (80% updates,
    /// every transaction carries log bytes) under this policy at `qd`,
    /// on the E13 device, so flash group commit has real parallelism to
    /// amortize into. 15d traces the QD-8 runs of the two policies it
    /// compares.
    fn spec(self, qd: usize) -> RunSpec<Stack> {
        RunSpec {
            db: DbConfig::builder()
                .data_pages(DATA_PAGES)
                .log_pages(LOG_PAGES)
                .buffer_frames(BUFFER_FRAMES)
                .group(self.group(qd))
                .concurrency(qd)
                .wal(match self {
                    // a 64 KiB log region: the circular log laps it many
                    // times in one run, so Start-Gap has real churn to level
                    Policy::PcmImmediate => WalConfig::Pcm(PcmWalConfig {
                        bytes: 64 * 1024,
                        timing: PcmTiming::gen1(),
                        gap_interval: 100,
                    }),
                    _ => WalConfig::Flash,
                }),
            manager: Stack(StackConfig::bare(1), SsdConfig::figure1()),
            workload: Workload::Oltp(OltpConfig {
                read_only_fraction: 0.2,
                ..OltpConfig::default()
            }),
            txns: TXNS,
            seed: SEED,
            probe: qd == 8 && matches!(self, Policy::FlashBatched | Policy::PcmImmediate),
        }
    }
}

type Run = RunResult<Database<BlockStackBackend>>;

fn main() {
    println!("# E15 — WAL medium split: PCM commit records vs flash group commit");
    note("Same engine, same seeded 80%-update OLTP trace, same flash data path (1ch x 4chip onfi2). Only the WAL medium and the group-commit policy vary: the synchronous path either batches onto flash segments or persists byte-granularly on the DIMM.");

    // ------------------------------------------------------------------
    section("15a. TPS and commit latency per policy x QD; the amortization crossover");
    let mut runs: Vec<(Policy, usize, Run)> = Vec::new();
    for &qd in &QDS {
        for policy in Policy::ALL {
            runs.push((policy, qd, campaign::run(&policy.spec(qd))));
        }
    }
    // the policy prints as its label in the table, as its key in JSON
    let sweep = Series::new()
        .col("QD", "qd", |c: &(Policy, usize, Run)| V::Count(c.1 as u64))
        .table_only("policy", |c| V::Label(c.0.label().into()))
        .json_only("policy", |c| V::Label(c.0.key()))
        .col("TPS", "tps", |c| V::Float(c.2.report.tps, 0, 1))
        .col("forces", "forces", |c| V::Count(c.2.report.forces))
        .col("commit p50", "commit_p50_ns", |c| {
            V::Ns(c.2.engine.commit_latency().p50())
        })
        .col("commit p99", "commit_p99_ns", |c| {
            V::Ns(c.2.engine.commit_latency().p99())
        })
        .col("commit p99.9", "commit_p999_ns", |c| {
            V::Ns(c.2.engine.commit_latency().quantile(0.999))
        });
    println!("{}", sweep.table(&runs).align(1, Align::Left));
    let get = |p: Policy, qd: usize| -> &Run {
        let cell = runs.iter().find(|(rp, rq, _)| *rp == p && *rq == qd);
        &cell
            .unwrap_or_else(|| unreachable!("run matrix covers every (policy, qd)"))
            .2
    };
    let pcm_qd1_tps = get(Policy::PcmImmediate, 1).report.tps;
    // the amortization crossover: the first QD where batching's
    // throughput gain outweighs the group-wait latency it charges —
    // i.e. where group commit starts earning its keep against the
    // immediate force at the same depth
    let crossover_qd = QDS
        .iter()
        .copied()
        .find(|&qd| {
            get(Policy::FlashBatched, qd).report.tps > get(Policy::FlashImmediate, qd).report.tps
        })
        .unwrap_or_else(|| panic!("batched group commit never out-ran the immediate force"));
    assert!(
        crossover_qd > 1,
        "at QD 1 a batch of one is an immediate force: the crossover must \
         cost at least one doubling of queue depth"
    );
    assert!(
        pcm_qd1_tps > get(Policy::FlashImmediate, 1).report.tps,
        "at QD 1 the PCM WAL must out-run the flash force it replaces"
    );
    let deepest = QDS[QDS.len() - 1];
    let batched_best = get(Policy::FlashBatched, deepest).report.tps;
    assert!(
        batched_best < pcm_qd1_tps,
        "the headline: flash group commit at QD {deepest} ({batched_best:.0} TPS) \
         must still trail the un-batched PCM WAL at QD 1 ({pcm_qd1_tps:.0} TPS)"
    );
    println!(
        "amortization crossover: batching starts paying at QD {crossover_qd}; \
         yet flash batched at QD {deepest} ({batched_best:.0} TPS) never catches \
         pcm-immediate@QD1 ({pcm_qd1_tps:.0} TPS)\n"
    );
    note("Group commit starts earning its keep one doubling of queue depth in — and then never catches the DIMM: sixteen transactions' worth of batching and parallelism still trails what byte-granular persistence delivers with no batching at all. Amortization shrinks the force's *bandwidth* cost; it cannot shrink the *latency* every commit still waits, and the closed loop pays that wait in throughput too.");

    // ------------------------------------------------------------------
    section("15b. Commit-latency CDF at QD 1 (no batching to hide behind)");
    let quantiles = [
        ("p10", 0.10),
        ("p25", 0.25),
        ("p50", 0.50),
        ("p75", 0.75),
        ("p90", 0.90),
        ("p99", 0.99),
        ("p99.9", 0.999),
    ];
    let at = |p: Policy, q: f64| V::Ns(get(p, 1).engine.commit_latency().quantile(q));
    let cdf = Series::new()
        .table_only("quantile", |q: &(&str, f64)| V::Label(q.0.into()))
        .table_only("flash immediate", |q| at(Policy::FlashImmediate, q.1))
        .table_only("flash deadline", |q| at(Policy::FlashDeadline, q.1))
        .table_only("pcm immediate", |q| at(Policy::PcmImmediate, q.1));
    println!("{}", cdf.table(&quantiles).align(0, Align::Left));
    let flash_p50 = get(Policy::FlashImmediate, 1).engine.commit_latency().p50();
    let pcm_p50 = get(Policy::PcmImmediate, 1).engine.commit_latency().p50();
    assert!(
        flash_p50 > 10 * pcm_p50,
        "the P1 medium gap must dominate the QD-1 CDF ({} vs {})",
        fmt_ns(flash_p50),
        fmt_ns(pcm_p50)
    );
    note("The whole CDF shifts by the medium gap: a byte-granular persist on the DIMM vs a 4 KiB segment program behind the ONFI channel. No policy knob recovers two orders of magnitude.");

    // ------------------------------------------------------------------
    section("15c. Start-Gap wear on the DIMM (QD 16 pcm run)");
    let wear = get(Policy::PcmImmediate, 16)
        .engine
        .wal_backend()
        .wear()
        .unwrap_or_else(|| panic!("the pcm WAL must surface a wear snapshot"));
    let mut tbl = Table::new(["metric", "value"]).align(0, Align::Left);
    for (metric, value) in [
        ("logical lines", wear.lines.to_string()),
        ("total line writes", wear.total_line_writes.to_string()),
        ("gap moves", wear.gap_moves.to_string()),
        ("hottest line writes", wear.max_line_writes.to_string()),
        ("mean line writes", format!("{:.2}", wear.mean_line_writes)),
        ("max/mean skew", format!("{:.2}", wear.skew())),
        ("gap overhead", format!("{:.4}", wear.gap_overhead_ratio)),
    ] {
        tbl.row([metric.to_string(), value]);
    }
    println!("{tbl}");
    // per-line wear, bucketed: how many physical lines absorbed how many
    // writes (the full vector is lines+1 slots long)
    let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &w in &wear.per_line_writes {
        *buckets.entry(w).or_insert(0) += 1;
    }
    let buckets: Vec<(u64, u64)> = buckets.into_iter().collect();
    let bucket_series = Series::new()
        .col("writes/line", "writes", |b: &(u64, u64)| V::Count(b.0))
        .col("physical lines", "lines", |b| V::Count(b.1));
    println!("{}", bucket_series.table(&buckets));
    assert!(wear.total_line_writes > 0, "the wear table must be nonzero");
    assert!(
        wear.gap_moves > 0,
        "the circular log head must have driven Start-Gap rotations"
    );
    assert!(
        wear.skew() < 3.0,
        "Start-Gap must keep the hot log head spread across lines (skew {:.2})",
        wear.skew()
    );
    note("The commit stream is the hottest write traffic in the system, and it now lands on a medium with finite endurance. Start-Gap's slow rotation keeps max/mean wear bounded without a mapping table — the device-side discipline that makes P1 sustainable.");

    // ------------------------------------------------------------------
    section("15d. Probe decomposition: wal/transfer vs wal/pcm_persist (QD 8)");
    let probe = |p: Policy| -> &ProbeSummary {
        let traced = &get(p, 8).probe;
        traced.as_ref().expect("15d's QD-8 runs are traced")
    };
    let (flash_probe, pcm_probe) = (probe(Policy::FlashBatched), probe(Policy::PcmImmediate));
    let force_spans = |summary: &ProbeSummary, cause: Cause| -> (u64, u64) {
        summary
            .by_layer_cause
            .get(&(Layer::Wal, cause))
            .map_or((0, 0), |stat| (stat.count, stat.total.as_nanos()))
    };
    let (ft_n, ft_ns) = force_spans(flash_probe, Cause::Transfer);
    let (fp_n, _) = force_spans(flash_probe, Cause::PcmPersist);
    let (pt_n, _) = force_spans(pcm_probe, Cause::Transfer);
    let (pp_n, pp_ns) = force_spans(pcm_probe, Cause::PcmPersist);
    let mut tbl = Table::new([
        "run",
        "wal/transfer spans",
        "wal/pcm_persist spans",
        "force time",
    ])
    .align(0, Align::Left);
    for (run, transfer, persist, force_ns) in [
        ("flash batched", ft_n, fp_n, ft_ns),
        ("pcm immediate", pt_n, pp_n, pp_ns),
    ] {
        let force = fmt_ns(force_ns);
        tbl.row([
            run.to_string(),
            transfer.to_string(),
            persist.to_string(),
            force,
        ]);
    }
    println!("{tbl}");
    assert!(ft_n > 0 && fp_n == 0, "flash forces blame wal/transfer");
    assert!(pp_n > 0 && pt_n == 0, "pcm forces blame wal/pcm_persist");
    note("The same engine span ('log-force') carries a typed cause from the WAL backend, so the probe bus tells a flash segment transfer from a DIMM persist without either layer knowing about the other.");

    // ------------------------------------------------------------------
    section("Summary (JSON)");
    note("Per-(policy, QD) throughput and commit quantiles, the crossover, the wear table, and both traced probes.");
    println!("```json");
    println!(
        "{{\"device\":\"1ch x 4chip onfi2, data {DATA_PAGES} + wal {LOG_PAGES}, pcm log 64KiB\",\"txns\":{TXNS},\"crossover_qd\":{crossover_qd},\"pcm_qd1_tps\":{pcm_qd1_tps:.1},\"flash_batched_qd{deepest}_tps\":{batched_best:.1},"
    );
    println!("\"sweep\":{},", sweep.json(&runs));
    println!(
        "\"wear\":{{\"lines\":{},\"total_line_writes\":{},\"gap_moves\":{},\"max_line_writes\":{},\"mean_line_writes\":{:.4},\"skew\":{:.4},\"per_line_buckets\":{}}},",
        wear.lines,
        wear.total_line_writes,
        wear.gap_moves,
        wear.max_line_writes,
        wear.mean_line_writes,
        wear.skew(),
        bucket_series.json(&buckets)
    );
    println!("\"probe_flash_qd8\":{},", flash_probe.to_json());
    println!("\"probe_pcm_qd8\":{}}}", pcm_probe.to_json());
    println!("```");
}
