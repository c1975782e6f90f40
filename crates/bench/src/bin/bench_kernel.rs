//! **Kernel micro-bench driver** — deterministic work units for the
//! perf gate.
//!
//! Each sub-bench runs a fixed, seeded amount of simulation-kernel work
//! and prints one machine-readable line:
//!
//! ```text
//! bench=<name> events=<count> checksum=<value>
//! ```
//!
//! The binary itself never reads a clock: everything in the simulation
//! path is virtual-time only (the determinism lint enforces this), so
//! wall-clock timing lives outside, in `scripts/perf_gate.sh`, which
//! times each sub-bench and composes `BENCH_kernel.json`. The `events`
//! count is the numerator of the events/sec figure; `checksum` pins the
//! work actually done so a broken bench can't pass by doing nothing.
//!
//! Sub-benches:
//!
//! * `blame_scratch` — occupant blame decomposition per wait into the
//!   caller's scratch buffer ([`Resource::blame_into`]), as both devices'
//!   scheduler does.
//! * `link_reserve` — reservations on one backfilling bus
//!   ([`TransferTimeline`]), as a channel or the host link takes them: a
//!   floor that advances every few reservations, a `not_before` just
//!   past it or, for one in eight, a read-out booked up to 1 ms ahead, so
//!   later requests land in the gaps those leave (about five gaps open
//!   at a time, as on the OLTP workloads).
//! * `probe_recording_clone` / `probe_aggregated` — the headline pair:
//!   a preconditioned device under zipfian overwrite, sampling probe
//!   state every window. The first samples by cloning the recording
//!   bus's event vector (the pre-refactor idiom); the second reads the
//!   aggregated probe's per-resource accumulators. Same simulated work,
//!   same sampled totals — the events/sec ratio is the cost of keeping
//!   (and copying) unbounded event history on an aging run.
//! * `zipf_sample` — the workload generator's zipfian draw alone, at the
//!   benchmark's 4096-page span and at E17's 2^20-client span (table
//!   construction included): the cost the pair above carries per
//!   overwrite, and every `oltp_*` input per page access.

use requiem_bench::aging::{device, AgingConfig};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Occupant, Probe, Resource, SimRng, TransferTimeline};
use requiem_ssd::{FtlKind, GcPolicyKind, Lpn, Ssd};
use requiem_workload::driver::precondition_sequential;
use requiem_workload::pattern::{AddressPattern, Pattern};

/// Blame decomposition per wait, into one reused scratch buffer.
fn blame_scratch() -> (u64, u64) {
    const QUERIES: u64 = 2_000_000;
    let mut res = Resource::new("bench-chan");
    res.track_occupants(true);
    let mut out = Vec::new();
    let mut checksum = 0u64;
    let mut t = SimTime::ZERO;
    for i in 0..QUERIES {
        let occ = if i % 3 == 0 {
            Occupant::Gc
        } else {
            Occupant::Host
        };
        let g = res.reserve_tagged(t, SimDuration::from_nanos((i % 7) + 1), occ);
        // a waiter that asked 300 ns before the grant started
        let asked = if g.start >= SimTime::ZERO + SimDuration::from_nanos(300) {
            g.start - SimDuration::from_nanos(300)
        } else {
            SimTime::ZERO
        };
        res.blame_into(asked, g.start, &mut out);
        checksum = checksum.wrapping_add(out.len() as u64);
        t = g.end;
    }
    (QUERIES, checksum)
}

/// Seeded reservations on one transfer timeline; checksum = Σ start.
fn link_reserve() -> (u64, u64) {
    const RESERVATIONS: u64 = 4_000_000;
    const PER_FLOOR: u64 = 4;
    let mut bus = TransferTimeline::new("bench-link");
    let mut rng = SimRng::from_seed(42);
    let mut floor = SimTime::ZERO;
    let mut checksum = 0u64;
    for i in 0..RESERVATIONS {
        if i % PER_FLOOR == 0 {
            floor += SimDuration::from_nanos(rng.below(120_000));
        }
        let ahead = if rng.below(8) == 0 {
            rng.below(1_000_000)
        } else {
            rng.below(30_000)
        };
        let duration = if rng.below(2) == 0 { 10_240 } else { 7_448 };
        let g = bus.reserve_tagged(
            floor,
            floor + SimDuration::from_nanos(ahead),
            SimDuration::from_nanos(duration),
            Occupant::Host,
        );
        checksum = checksum.wrapping_add(g.start.as_nanos());
    }
    (RESERVATIONS, checksum)
}

/// Preconditioned device under zipfian overwrite, sampling probe state
/// every `SAMPLE_EVERY` host operations. Returns (host ops, checksum of
/// the sampled totals).
fn probe_workload(probe: Probe, sample: impl Fn(&Probe) -> u64) -> (u64, u64) {
    const OVERWRITES: u64 = 24_576;
    const SAMPLE_EVERY: u64 = 64;
    let c = AgingConfig {
        ftl: FtlKind::PageMap,
        gc: GcPolicyKind::Greedy,
        op_ratio: 0.28,
    };
    let mut ssd = Ssd::new(device(&c));
    ssd.attach_probe(probe.clone());
    let pages = ssd.capacity().exported_pages;
    let mut t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
    let mut pat = AddressPattern::new(Pattern::Zipfian { theta: 0.9 }, pages, 42);
    let mut checksum = 0u64;
    for i in 0..OVERWRITES {
        let cmd = ssd.write(t, Lpn(pat.next_addr())).expect("overwrite");
        t = cmd.done;
        if (i + 1) % SAMPLE_EVERY == 0 {
            checksum = checksum.wrapping_mul(31).wrapping_add(sample(&probe));
        }
    }
    (pages + OVERWRITES, checksum)
}

/// `DRAWS` zipfian addresses (theta 0.8) at each of two spans.
fn zipf_sample() -> (u64, u64) {
    const DRAWS: u64 = 1 << 20;
    let mut checksum = 0u64;
    for span in [4096, 1 << 20] {
        let mut pat = AddressPattern::new(Pattern::Zipfian { theta: 0.8 }, span, 42);
        for _ in 0..DRAWS {
            checksum = checksum.wrapping_mul(31).wrapping_add(pat.next_addr());
        }
    }
    (2 * DRAWS, checksum)
}

const BENCHES: [&str; 5] = [
    "blame_scratch",
    "link_reserve",
    "probe_recording_clone",
    "probe_aggregated",
    "zipf_sample",
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let (events, checksum) = match name.as_str() {
        // the sub-bench names, for scripts/perf_gate.sh
        "--list" => {
            println!("{}", BENCHES.join(" "));
            return;
        }
        "blame_scratch" => blame_scratch(),
        "link_reserve" => link_reserve(),
        // pre-refactor sampling idiom: clone the whole recording bus
        "probe_recording_clone" => probe_workload(Probe::recording(), |p| p.events().len() as u64),
        // fast path: fold the aggregated per-resource accumulators
        "probe_aggregated" => probe_workload(Probe::aggregated(), |p| {
            p.resource_summary().iter().map(|s| s.count).sum()
        }),
        "zipf_sample" => zipf_sample(),
        _ => {
            eprintln!("usage: bench_kernel <--list|{}>", BENCHES.join("|"));
            std::process::exit(2);
        }
    };
    println!("bench={name} events={events} checksum={checksum}");
}
