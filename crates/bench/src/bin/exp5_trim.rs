//! **E5 — TRIM**: the first crack in the block interface.
//!
//! §3: the TRIM command was added *"to communicate to a SSD that a range
//! of logical addresses \[is\] no longer used and could thus be un-mapped by
//! the FTL"* — the memory abstraction amended with a hint because the FTL
//! otherwise copies dead data forever. This experiment runs a file-churn
//! workload (create + delete) with and without TRIM and measures what the
//! hint buys the garbage collector.

use requiem_bench::{measure, modern_unbuffered, note, section};
use requiem_iface::device::DeviceInterface;
use requiem_iface::nameless::{NamelessConfig, NamelessSsd};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::Table;
use requiem_ssd::{Lpn, Ssd, SsdConfig};
use requiem_workload::driver::{precondition_sequential, IoMix};
use requiem_workload::pattern::Pattern;

fn churn_cfg() -> SsdConfig {
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg
}

/// Fill the device with "files", delete a third of them (with or without
/// telling the device), then randomly overwrite the surviving files for
/// two drive-fills. If the device is not told, the deleted files' pages
/// remain "valid" to its collector: they shrink the effective spare area
/// and get copied by every GC pass. The generic [`DeviceInterface`] loop
/// runs unchanged against the block FTL (where *telling* is TRIM) and the
/// nameless device (where it is an exact `free` of the page's name).
fn churn<D: DeviceInterface>(dev: &mut D, tell_device: bool) -> (f64, f64, u64, f64) {
    let pages = dev.usable_tags();
    let file_pages = 64u64;
    let files = pages / file_pages; // fill the whole tag space with files
    let mut handles: Vec<Option<D::Handle>> = vec![None; pages as usize];
    let mut t = SimTime::ZERO;
    for tag in 0..files * file_pages {
        let out = dev.update(t, tag, None);
        handles[tag as usize] = Some(out.handle.expect("fill write accepted"));
        t = out.done;
    }
    // delete every 3rd file; these tags are never used again — the host
    // knows they are dead, the device only learns it if told
    for f in 0..files {
        if f % 3 != 0 || !tell_device {
            continue;
        }
        for r in dev.drain_relocations() {
            handles[r.tag as usize] = Some(r.new);
        }
        for p in 0..file_pages {
            let tag = f * file_pages + p;
            let h = handles[tag as usize].take().expect("live file page");
            let (done, status) = dev.discard(t, tag, h);
            assert!(status.is_success(), "discard of a live page accepted");
            t = done;
        }
    }
    // now churn the *surviving* files: random overwrites, 2 drive-fills
    let survivors: Vec<u64> = (0..files)
        .filter(|f| f % 3 != 0)
        .flat_map(|f| (0..file_pages).map(move |p| f * file_pages + p))
        .collect();
    let before = dev.device_metrics();
    let t0 = t;
    let mut x = 42u64;
    for _ in 0..2 * pages {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tag = survivors[(x % survivors.len() as u64) as usize];
        for r in dev.drain_relocations() {
            if handles[r.tag as usize].is_some() {
                handles[r.tag as usize] = Some(r.new);
            }
        }
        let out = dev.update(t, tag, handles[tag as usize]);
        handles[tag as usize] = Some(out.handle.expect("churn rewrite accepted"));
        t = out.done;
    }
    let d = dev.device_metrics().since(&before);
    let makespan = t.since(t0);
    let mbs = d.host_writes as f64 * 4096.0 / (1024.0 * 1024.0) / makespan.as_secs_f64();
    (
        d.write_amplification(),
        mbs,
        d.gc_pages_moved,
        d.gc_runs as f64,
    )
}

fn main() {
    println!("# E5 — TRIM: telling the device what is dead");
    section("File churn: fill device, delete 1/3 of files, then randomly overwrite the survivors for 2 drive-fills (one generic loop per interface)");
    let mut tbl = Table::new([
        "interface / mode",
        "churn-phase WA",
        "GC pages moved",
        "GC runs",
        "effective MB/s",
    ])
    .align(0, Align::Left);
    let rows: Vec<(String, (f64, f64, u64, f64))> = vec![
        (
            "block FTL, deletes unsaid".to_string(),
            churn(&mut Ssd::new(churn_cfg()), false),
        ),
        (
            "block FTL, TRIM".to_string(),
            churn(&mut Ssd::new(churn_cfg()), true),
        ),
        (
            "nameless, names hoarded".to_string(),
            churn(
                &mut NamelessSsd::new(NamelessConfig::from(&churn_cfg())),
                false,
            ),
        ),
        (
            "nameless, names freed".to_string(),
            churn(
                &mut NamelessSsd::new(NamelessConfig::from(&churn_cfg())),
                true,
            ),
        ),
    ];
    // telling the device what is dead cuts its WA, on either interface
    for pair in rows.chunks(2) {
        let ((_, (unsaid, ..)), (told, (wa, ..))) = (&pair[0], &pair[1]);
        assert!(wa * 1.3 < *unsaid, "{told}: WA {wa:.2} against {unsaid:.2}");
    }
    for (label, (wa, mbs, moved, runs)) in rows {
        tbl.row([
            label,
            format!("{wa:.2}"),
            format!("{moved}"),
            format!("{runs:.0}"),
            format!("{mbs:.1}"),
        ]);
    }
    println!("{tbl}");
    note("Expected shape: a device not told about dead pages relocates them forever — on either interface. TRIM (block) and free (nameless) are the same message: death notification. The difference is that the nameless host *must* manage names anyway, so the message is structural, not an optional afterthought.");

    section("Interaction with steady-state overwrite (no deletes): TRIM is no help");
    let mut tbl = Table::new(["mode", "write amplification"]).align(0, Align::Left);
    for (mode, use_trim) in [("plain overwrite", false), ("trim-then-write", true)] {
        let mut ssd = Ssd::new(churn_cfg());
        let pages = ssd.capacity().exported_pages;
        let t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
        // pure overwrites never have dead-but-unmapped pages, so trimming
        // immediately before each write is a wash
        if use_trim {
            let mut t2 = t;
            for lpn in 0..pages / 2 {
                let c = ssd.trim(t2, Lpn(lpn)).expect("trim");
                t2 = c.done;
                let c = ssd.write(t2, Lpn(lpn)).expect("write");
                t2 = c.done;
            }
        } else {
            let _ = measure(
                &mut ssd,
                Pattern::Sequential,
                pages / 2,
                IoMix::write_only(),
                1,
                pages / 2,
                9,
                t,
            );
        }
        tbl.row([
            mode.to_string(),
            format!("{:.2}", ssd.metrics().write_amplification()),
        ]);
    }
    println!("{tbl}");
    note("TRIM helps exactly when the host knows something the FTL cannot infer — dead data. It is a communication channel, which is the paper's point.");
}
