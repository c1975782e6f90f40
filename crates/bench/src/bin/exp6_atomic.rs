//! **E6 — Atomic writes** (the paper's ref [17], Ouyang et al. HPCA'11):
//! a device primitive beats a host-side workaround.
//!
//! Torn-page safety through the block interface requires a double-write
//! journal — every page written twice with a barrier between the copies.
//! An FTL that already writes out of place can promise multi-page
//! atomicity natively at ~1× the I/O, and a nameless device gets it for
//! free (old names stay valid until the host swaps its index). One
//! generic harness drives all three through
//! [`DeviceInterface::commit_batch`] — the interface is the only
//! variable.

use requiem_bench::{modern_unbuffered, note, section};
use requiem_iface::atomic::ExtendedSsd;
use requiem_iface::device::DeviceInterface;
use requiem_iface::nameless::{NamelessConfig, NamelessSsd};
use requiem_sim::table::Align;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::Table;
use requiem_ssd::Ssd;

/// One all-or-nothing batch commit on a fresh device: (latency, flash
/// programs paid).
fn one_commit<D: DeviceInterface>(dev: &mut D, batch: u64) -> (SimDuration, u64) {
    let tags: Vec<u64> = (0..batch).collect();
    let prev: Vec<Option<D::Handle>> = vec![None; batch as usize];
    let c = dev.commit_batch(SimTime::ZERO, &tags, &prev);
    assert!(c.status.is_success(), "commit accepted on a fresh device");
    (
        c.done.since(SimTime::ZERO),
        dev.device_metrics().flash_programs,
    )
}

/// Sustained checkpoint traffic: `checkpoints` batches of `batch` pages
/// cycling over a `working`-tag working set, handles tracked like a real
/// buffer manager would.
fn sustained<D: DeviceInterface>(
    dev: &mut D,
    checkpoints: u64,
    batch: u64,
    working: u64,
) -> (SimDuration, u64, f64) {
    let mut handles: Vec<Option<D::Handle>> = vec![None; working as usize];
    let mut t = SimTime::ZERO;
    for ck in 0..checkpoints {
        let tags: Vec<u64> = (0..batch).map(|i| (ck * batch + i) % working).collect();
        let prev: Vec<Option<D::Handle>> = tags.iter().map(|&tg| handles[tg as usize]).collect();
        let c = dev.commit_batch(t, &tags, &prev);
        assert!(c.status.is_success(), "sustained commit accepted");
        for (&tg, h) in tags.iter().zip(c.handles) {
            handles[tg as usize] = Some(h);
        }
        for r in dev.drain_relocations() {
            if (r.tag as usize) < handles.len() {
                handles[r.tag as usize] = Some(r.new);
            }
        }
        t = c.done;
    }
    let m = dev.device_metrics();
    (
        t.since(SimTime::ZERO),
        m.flash_programs,
        m.write_amplification(),
    )
}

fn main() {
    println!("# E6 — atomic commits: native primitive vs host-side workaround");
    section("Batch commit cost (fresh device per row; identical generic harness per interface)");
    let mut tbl = Table::new([
        "batch pages",
        "interface",
        "commit latency",
        "flash programs",
        "I/O vs batch",
    ])
    .align(1, Align::Left);
    for batch in [1u64, 4, 16, 64] {
        let mut row = |label: String, (lat, programs): (SimDuration, u64)| {
            tbl.row([
                format!("{batch}"),
                label,
                format!("{lat}"),
                format!("{programs}"),
                format!("{:.2}x", programs as f64 / batch as f64),
            ]);
        };
        let mut dev = Ssd::new(modern_unbuffered());
        let cost = one_commit(&mut dev, batch);
        row(format!("{} (double-write journal)", dev.label()), cost);
        let mut dev = ExtendedSsd::new(Ssd::new(modern_unbuffered()));
        let cost = one_commit(&mut dev, batch);
        row(format!("{} (atomic write)", dev.label()), cost);
        let mut dev = NamelessSsd::new(NamelessConfig::from(&modern_unbuffered()));
        let cost = one_commit(&mut dev, batch);
        row(format!("{} (out-of-place)", dev.label()), cost);
    }
    println!("{tbl}");
    note("Expected shape: the journal pays exactly 2x the programs and roughly 2x the latency (two serialized phases); the atomic primitive pays 1x; the nameless device pays 1x by construction — old names stay valid until the host's index swap, so atomicity needs no extra I/O at all.");

    section(
        "Sustained checkpoint traffic (64-page batches, 32 checkpoints, 2048-page working set)",
    );
    let mut tbl = Table::new([
        "interface",
        "makespan",
        "flash programs",
        "write amplification",
    ])
    .align(0, Align::Left);
    let mut row = |label: &str, (makespan, programs, wa): (SimDuration, u64, f64)| {
        tbl.row([
            label.to_string(),
            format!("{makespan}"),
            format!("{programs}"),
            format!("{wa:.2}"),
        ]);
    };
    row(
        "block FTL + double-write journal",
        sustained(&mut Ssd::new(modern_unbuffered()), 32, 64, 2048),
    );
    row(
        "extended block, device atomic write",
        sustained(
            &mut ExtendedSsd::new(Ssd::new(modern_unbuffered())),
            32,
            64,
            2048,
        ),
    );
    row(
        "nameless, host index swap",
        sustained(
            &mut NamelessSsd::new(NamelessConfig::from(&modern_unbuffered())),
            32,
            64,
            2048,
        ),
    );
    println!("{tbl}");
    note("The journal's extra writes also age the flash twice as fast — the cost compounds through GC and wear.");
}
