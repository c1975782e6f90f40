//! End-of-life behaviour: accelerated-aging tests that drive blocks past
//! rated endurance and check that the controller's error handling —
//! erase-failure retirement, program-failure salvage, ECC recovery — keeps
//! the device correct while capacity shrinks.

use requiem_sim::time::SimTime;
use requiem_ssd::{BufferConfig, Lpn, Served, Ssd, SsdConfig, SsdError};

/// A tiny device whose blocks wear out after ~30 P/E cycles.
fn short_lived() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.flash.geometry = requiem_flash::Geometry::new(1, 16, 8, 4096);
    cfg.flash.endurance_override = Some(30);
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg.op_ratio = 0.25;
    cfg
}

#[test]
fn device_retires_blocks_and_keeps_data_correct_past_endurance() {
    let mut ssd = Ssd::new(short_lived());
    let pages = ssd.capacity().exported_pages;
    let working_set = pages / 2;
    let mut t = SimTime::ZERO;
    // fill the working set
    for lpn in 0..working_set {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    // churn far past rated endurance (30 cycles); stop on DeviceFull
    let mut x = 7u64;
    let mut wrote = 0u64;
    let mut full = false;
    for _ in 0..200 * pages {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        match ssd.write(t, Lpn(x % working_set)) {
            Ok(c) => {
                t = c.done;
                wrote += 1;
            }
            Err(SsdError::DeviceFull { .. }) => {
                full = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let m = ssd.metrics();
    assert!(
        m.blocks_retired > 0,
        "churn past endurance must retire blocks (wrote {wrote})"
    );
    // whatever survives must still be readable (from flash, not unmapped)
    if !full {
        for lpn in 0..working_set {
            let r = ssd.read(t, Lpn(lpn)).expect("read");
            t = r.done;
            assert_eq!(r.served, Served::Flash, "lpn {lpn} lost after wear-out");
        }
    }
    let (_, max_ec, _) = ssd.wear_spread();
    assert!(
        max_ec > 30,
        "blocks should have been cycled past rated endurance (max {max_ec})"
    );
}

#[test]
fn worn_device_reports_uncorrectable_reads_but_recovers() {
    // wear raises RBER exponentially; with a weak ECC the device must see
    // uncorrectable reads and recover via (modelled) redundancy
    let mut cfg = short_lived();
    // drastically undersized ECC: reads start failing around 80% of rated
    // wear, well before blocks retire
    cfg.flash.ecc = requiem_flash::EccConfig {
        correctable_per_1k: 2,
    };
    cfg.flash.endurance_override = Some(10);
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let working_set = pages / 2;
    let mut t = SimTime::ZERO;
    for lpn in 0..working_set {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    let mut x = 3u64;
    for _ in 0..40 * pages {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        match ssd.write(t, Lpn(x % working_set)) {
            Ok(c) => t = c.done,
            Err(SsdError::DeviceFull { .. }) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        // interleave reads so the worn blocks actually get read
        match ssd.read(t, Lpn(x % working_set)) {
            Ok(c) => t = c.done,
            Err(e) => panic!("read error: {e}"),
        }
    }
    let m = ssd.metrics();
    assert!(
        m.uncorrectable_reads > 0,
        "a worn device with weak ECC must hit uncorrectable reads"
    );
    // and the API never surfaced them as failures — the controller's job
    assert!(m.host_reads > 0);
}

#[test]
fn static_wear_leveling_narrows_the_erase_spread() {
    // hot/cold split: half the LBAs are written once and never touched
    // (cold), the other half churn. Without static WL the cold blocks
    // freeze at low erase counts; with it they re-enter circulation.
    // Returns (min, max) erase counts at the end, the widest spread any
    // write left behind, and the erases static migration performed.
    let spread = |static_threshold: u32| -> ((u32, u32), u32, u64) {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        cfg.flash.geometry = requiem_flash::Geometry::new(1, 32, 8, 4096);
        cfg.buffer = BufferConfig { capacity_pages: 0 };
        cfg.op_ratio = 0.25;
        cfg.wl.static_threshold = static_threshold;
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut t = SimTime::ZERO;
        for lpn in 0..pages {
            t = ssd.write(t, Lpn(lpn)).expect("fill").done;
        }
        // churn only the second half
        let hot_base = pages / 2;
        let mut x = 9u64;
        let mut widest = 0;
        for _ in 0..30 * pages {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t = ssd
                .write(t, Lpn(hot_base + x % (pages - hot_base)))
                .expect("churn")
                .done;
            let (min, max, _) = ssd.wear_spread();
            widest = widest.max(max - min);
        }
        let (min, max, _) = ssd.wear_spread();
        ((min, max), widest, ssd.metrics().flash_erases.wear_level)
    };
    let ((min_off, max_off), widest_off, migrations_off) = spread(0);
    let ((min_on, max_on), _, _) = spread(8);
    assert!(
        max_on - min_on < max_off - min_off,
        "static WL should narrow the spread: off ({min_off},{max_off}) on ({min_on},{max_on})"
    );
    assert!(
        min_on > min_off,
        "cold blocks must re-enter circulation: min {min_off} -> {min_on}"
    );
    // the trigger's boundary: threshold 0 never migrates, a spread equal
    // to the threshold does not, one past it does
    assert_eq!(migrations_off, 0, "threshold 0 disables static WL");
    assert!(widest_off > 8);
    let (ends_at, widest_at, migrations_at) = spread(widest_off);
    assert_eq!(
        (ends_at, widest_at, migrations_at),
        ((min_off, max_off), widest_off, 0),
        "a spread that only reaches the threshold must not migrate"
    );
    let (_, _, migrations_past) = spread(widest_off - 1);
    assert!(
        migrations_past > 0,
        "a spread of {widest_off} exceeds threshold {}",
        widest_off - 1
    );
}

#[test]
fn read_disturb_scrubbing_caps_error_accumulation() {
    // a read-hot block accumulates disturb; with a weak ECC, uncorrectable
    // reads appear unless the controller scrubs
    let run = |scrub_after: u64| -> (u64, u64) {
        // TLC (disturb budget 100k reads/block) with a weak ECC: disturb
        // alone pushes reads past correctability within ~800k reads
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        cfg.flash = requiem_flash::FlashSpec::tlc_small();
        cfg.flash.geometry = requiem_flash::Geometry::new(1, 16, 8, 4096);
        cfg.flash.ecc = requiem_flash::EccConfig {
            correctable_per_1k: 2,
        };
        cfg.buffer = BufferConfig { capacity_pages: 0 };
        cfg.op_ratio = 0.25;
        cfg.scrub_after_reads = scrub_after;
        let mut ssd = Ssd::new(cfg);
        let mut t = SimTime::ZERO;
        // write a handful of pages, then hammer them with reads
        for lpn in 0..8u64 {
            t = ssd.write(t, Lpn(lpn)).expect("fill").done;
        }
        for i in 0..1_200_000u64 {
            let r = ssd.read(t, Lpn(i % 8)).expect("read");
            t = r.done;
        }
        (ssd.metrics().uncorrectable_reads, ssd.metrics().scrubs)
    };
    let (errs_off, scrubs_off) = run(0);
    let (errs_on, scrubs_on) = run(100_000);
    assert_eq!(scrubs_off, 0);
    assert!(scrubs_on > 0, "scrubbing must have triggered");
    assert!(
        errs_off > 10 * errs_on.max(1),
        "scrubbing should cap disturb errors: off {errs_off} on {errs_on}"
    );
}

#[test]
fn scrubbed_data_remains_readable() {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg.scrub_after_reads = 1_000;
    let mut ssd = Ssd::new(cfg);
    let mut t = SimTime::ZERO;
    for lpn in 0..32u64 {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    for i in 0..20_000u64 {
        let r = ssd.read(t, Lpn(i % 32)).expect("read");
        t = r.done;
        assert_eq!(r.served, Served::Flash, "read {i} lost data");
    }
    assert!(ssd.metrics().scrubs > 0);
}
