//! Heap bytes a device keeps per physical page, as a checked-in budget.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The test
//! builds `Ssd::new(SsdConfig::modern())`, fills every exported page in
//! order, overwrites as many pages again at random (the device runs into
//! garbage collection), and divides the heap bytes still held —
//! allocated less freed since before the build — by the device's
//! physical page count. The per-page tables dominate: what a flash page's
//! metadata costs in simulator RAM, times 2²⁸ pages for a 1 TiB device.
//! A count, not a time: it holds on any runner.

use std::alloc::System;

use requiem_sim::time::SimTime;
use requiem_ssd::{Lpn, Ssd, SsdConfig};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Heap bytes held per physical page by a `modern()` device after a
/// sequential fill and one pass of random overwrites, and the device's
/// physical page count.
fn bytes_per_page() -> (f64, u64) {
    let region = Region::new(GLOBAL);
    let mut ssd = Ssd::new(SsdConfig::modern());
    let exported = ssd.capacity().exported_pages;
    let physical = ssd.capacity().raw_pages;
    let mut t = SimTime::ZERO;
    for lpn in 0..exported {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    for i in 0..exported {
        let lpn = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) % exported;
        t = ssd.write(t, Lpn(lpn)).expect("overwrite").done;
    }
    assert!(ssd.metrics().gc_runs > 0, "the overwrites reach GC");
    let change = region.change();
    let held = change.bytes_allocated as f64 - change.bytes_deallocated as f64;
    drop(ssd);
    (held / physical as f64, physical)
}

/// The budget: 46.02 B a page while the die kept a 1 B state and a 24 B
/// payload per page, the directory an 8 B back-pointer and the write
/// buffer a 4 B index entry per LPN; 25.62 B once the die keeps one
/// 16 B out-of-band record, the directory a valid bit, and the buffer an
/// index sized by what it holds. The rest is the 4 B page-map word per
/// exported page and the per-block records.
#[test]
fn a_flash_page_costs_its_budget_in_simulator_ram() {
    let (per_page, pages) = bytes_per_page();
    println!("{per_page:.2} heap bytes retained per physical page ({pages} pages), budget 27");
    assert!(per_page <= 27.0, "{per_page:.2} B per page over budget");
}
