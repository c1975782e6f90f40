//! Power-loss mapping rebuild: the page-FTL boot scan (the startup cost
//! that motivated DFTL) must reconstruct the exact pre-crash mapping from
//! out-of-band metadata, newest write winning.

use requiem_sim::time::SimTime;
use requiem_ssd::{BufferConfig, Lpn, Served, Ssd, SsdConfig};

fn device() -> Ssd {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    cfg.buffer = BufferConfig { capacity_pages: 32 };
    Ssd::new(cfg)
}

#[test]
fn rebuild_reconstructs_the_exact_mapping() {
    let mut ssd = device();
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    // scattered writes including overwrites (duplicates on flash!)
    let mut x = 11u64;
    for _ in 0..pages {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        t = ssd.write(t, Lpn(x % (pages / 2))).expect("write").done;
    }
    let before = ssd.debug_mapping().expect("page map");
    let t = ssd.drain_time();
    let report = ssd.power_loss_rebuild(t).expect("rebuild");
    let after = ssd.debug_mapping().expect("page map");
    assert_eq!(before, after, "rebuilt mapping must match the lost one");
    assert!(report.pages_scanned > 0);
    assert!(report.duration > requiem_sim::time::SimDuration::ZERO);
    // device remains fully usable
    let mut t = report.ready;
    for lpn in 0..pages / 2 {
        let r = ssd.read(t, Lpn(lpn)).expect("read");
        t = r.done;
        if before[lpn as usize].is_some() {
            assert_eq!(r.served, Served::Flash, "lpn {lpn}");
        } else {
            assert_eq!(r.served, Served::Unmapped, "lpn {lpn}");
        }
    }
    // and writable (free lists were rebuilt sanely)
    for lpn in 0..64u64 {
        t = ssd.write(t, Lpn(lpn)).expect("post-rebuild write").done;
    }
}

#[test]
fn rebuild_survives_gc_history() {
    // after heavy churn + GC, flash holds many stale copies; the seq
    // numbers must still pick every winner correctly
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    for lpn in 0..pages {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    let mut x = 3u64;
    for _ in 0..2 * pages {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        t = ssd.write(t, Lpn(x % pages)).expect("churn").done;
    }
    assert!(ssd.metrics().gc_runs > 0);
    let before = ssd.debug_mapping().expect("page map");
    let report = ssd.power_loss_rebuild(ssd.drain_time()).expect("rebuild");
    assert_eq!(ssd.debug_mapping().expect("page map"), before);
    assert!(report.pages_scanned >= pages, "scan must cover live data");
}

#[test]
fn a_page_the_scan_cannot_decode_has_no_oob() {
    // one LUN, so no stripe to rebuild from, and media so bad that no
    // rung of the recovery ladder decodes anything: the bytes are still
    // in the array, but the controller never saw them
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 1;
    cfg.buffer = BufferConfig { capacity_pages: 0 };
    cfg.fault = requiem_sim::FaultPlan::uniform_rber(1e9);
    let mut ssd = Ssd::new(cfg);
    let mut t = SimTime::ZERO;
    for lpn in 0..16 {
        t = ssd.write(t, Lpn(lpn)).expect("write").done;
    }
    assert_eq!(
        ssd.debug_mapping()
            .expect("page map")
            .iter()
            .flatten()
            .count(),
        16
    );
    let report = ssd.power_loss_rebuild(ssd.drain_time()).expect("rebuild");
    assert_eq!(report.pages_scanned, 16);
    assert_eq!(ssd.metrics().recovery.unrecoverable, 16);
    assert_eq!(
        ssd.debug_mapping()
            .expect("page map")
            .iter()
            .flatten()
            .count(),
        0
    );
}

#[test]
fn rebuild_time_scales_with_capacity() {
    // the DFTL motivation: boot scan grows with raw capacity
    let scan = |chips: u32| -> u64 {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = chips;
        cfg.buffer = BufferConfig { capacity_pages: 0 };
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut t = SimTime::ZERO;
        for lpn in 0..pages {
            t = ssd.write(t, Lpn(lpn)).expect("fill").done;
        }
        ssd.power_loss_rebuild(ssd.drain_time())
            .expect("rebuild")
            .duration
            .as_nanos()
    };
    let small = scan(1);
    let large = scan(4);
    // scan parallelizes across LUNs but each LUN holds the same share, so
    // duration stays roughly flat per-LUN; with 1 channel the *channel*
    // is idle (OOB reads skip transfers) — duration tracks per-LUN pages
    assert!(small > 0 && large > 0);
    // a same-size-per-lun device: duration within 2x either way
    assert!(
        large < small * 2 && small < large * 2,
        "small {small} large {large}"
    );
}

#[test]
fn rebuild_unsupported_for_legacy_ftls() {
    let mut ssd = Ssd::new(SsdConfig::circa_2009_block());
    let mut t = SimTime::ZERO;
    t = ssd.write(t, Lpn(0)).expect("write").done;
    assert!(ssd.power_loss_rebuild(ssd.drain_time().max(t)).is_err());
}
