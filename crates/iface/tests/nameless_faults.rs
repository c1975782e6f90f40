//! Faults on the nameless device: the media misbehaves under a host-held
//! map exactly as under the block controller's, and the host hears of it.
//!
//! 1. under elevated RBER every read ends in a typed status, and every
//!    command's spans tile its latency on a recording probe;
//! 2. a page rebuilt from stripe parity is re-homed and announced
//!    ([`Upcall::Migrated`]): readable at its new name, stale at the old;
//! 3. an erase that fails retires its block, counts as an erase and a
//!    retirement, and is announced ([`Upcall::BlockRetired`]);
//! 4. a channel hiccup lengthens the read whose transfer it hits.

use requiem_flash::Geometry;
use requiem_iface::{NamelessConfig, NamelessError, NamelessSsd, PhysName, Upcall};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{FaultPlan, IoStatus, Probe};
use requiem_ssd::SsdConfig;

/// RBER multipliers: the retry band, and past every rung of the ladder.
const RBER: [f64; 2] = [1.0e5, 1.0e7];

/// `SsdConfig::modern()` on `channels` × `chips` LUNs of 32 blocks × 8
/// pages, write-through, carrying `plan`.
fn device(channels: u32, chips: u32, plan: FaultPlan) -> NamelessSsd {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = channels;
    cfg.shape.chips_per_channel = chips;
    cfg.flash.geometry = Geometry::new(1, 32, 8, 4096);
    cfg.buffer.capacity_pages = 0;
    cfg.fault = plan;
    NamelessSsd::new(NamelessConfig::from(&cfg))
}

/// Write tags `0..n` back to back; returns their names and the clock.
fn fill(dev: &mut NamelessSsd, n: u64) -> (Vec<PhysName>, SimTime) {
    let mut t = SimTime::ZERO;
    let names = (0..n)
        .map(|tag| {
            let w = dev.write(t, tag).expect("fill");
            t = w.done;
            w.name
        })
        .collect();
    (names, t)
}

/// Every `Migrated` upcall pending, as `(tag, old, new)`, applied to
/// `names`.
fn migrations(dev: &mut NamelessSsd, names: &mut [PhysName]) -> Vec<(u64, PhysName, PhysName)> {
    let mut moved = Vec::new();
    for u in dev.upcalls().drain() {
        if let Upcall::Migrated { tag, old, new, .. } = u {
            names[tag as usize] = new;
            moved.push((tag, old, new));
        }
    }
    moved
}

/// Assert that every command on `probe` is covered by its spans from
/// submission to completion, without gap or overlap.
fn assert_every_command_tiles(probe: &Probe) {
    for rec in probe.commands_ref().iter() {
        let done = rec.done.expect("command closed");
        let mut cursor = rec.submit;
        for s in probe.command_spans(rec.id) {
            assert_eq!(
                s.start, cursor,
                "{} cmd {}: gap or overlap before {:?}/{:?}",
                rec.kind, rec.id, s.layer, s.cause
            );
            cursor = s.end;
        }
        assert_eq!(cursor, done, "{} cmd {}: spans end early", rec.kind, rec.id);
    }
}

#[test]
fn reads_under_elevated_rber_end_typed_and_tile() {
    for mult in RBER {
        let mut dev = device(2, 2, FaultPlan::uniform_rber(mult));
        let probe = Probe::recording();
        dev.attach_probe(probe.clone());
        let (mut names, mut t) = fill(&mut dev, 64);
        let mut recovered = 0;
        for tag in 0..64u64 {
            migrations(&mut dev, &mut names);
            let (done, _, status) = dev
                .read(t, names[tag as usize], tag)
                .unwrap_or_else(|e| panic!("rber {mult:e} tag {tag}: {e}"));
            assert_ne!(status, IoStatus::Rejected, "rber {mult:e} tag {tag}");
            recovered += u64::from(status != IoStatus::Ok);
            t = done;
        }
        assert!(recovered > 0, "rber {mult:e} recovered nothing");
        assert_every_command_tiles(&probe);
    }
}

#[test]
fn a_rebuilt_page_is_rehomed_and_announced() {
    for mult in RBER {
        let mut dev = device(2, 2, FaultPlan::uniform_rber(mult));
        let (mut names, mut t) = fill(&mut dev, 64);
        let mut moved = Vec::new();
        for tag in 0..64u64 {
            migrations(&mut dev, &mut names);
            t = dev.read(t, names[tag as usize], tag).expect("read").0;
            moved.extend(migrations(&mut dev, &mut names));
        }
        let m = dev.metrics();
        assert_eq!(
            moved.len() as u64,
            m.recovery.rebuild_relocations,
            "rber {mult:e}: one announcement per re-homed page"
        );
        if mult >= 1.0e7 {
            assert!(m.recovery.parity_rebuilds > 0, "no read went to parity");
            assert!(!moved.is_empty(), "no rebuilt page was re-homed");
        }
        for (tag, old, new) in moved {
            assert_eq!(
                dev.read(t, old, tag),
                Err(NamelessError::StaleName { name: old }),
                "rber {mult:e}: tag {tag}'s old name still reads"
            );
            assert_ne!(old, new);
            let current = names[tag as usize];
            let (done, _, status) = dev.read(t, current, tag).expect("the new name reads");
            assert!(status.is_success(), "rber {mult:e} tag {tag}: {status:?}");
            t = done;
            migrations(&mut dev, &mut names);
        }
    }
}

/// Fill three quarters of a 1×1 device whose first two erases fail, then
/// free and rewrite scattered tags until the collector has erased well
/// past them.
#[test]
fn a_failed_erase_retires_the_block_and_says_so() {
    let mut dev = device(1, 1, FaultPlan::none().with_erase_fail(0, vec![0, 1]));
    let live = 192;
    let (mut names, mut t) = fill(&mut dev, live);
    let mut retired = 0;
    let mut x = 17u64;
    while dev.metrics().gc_runs < 8 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tag = (x >> 33) % live;
        for u in dev.upcalls().drain() {
            if let Upcall::Migrated { tag, new, .. } = u {
                names[tag as usize] = new;
            }
            retired += usize::from(matches!(u, Upcall::BlockRetired { .. }));
        }
        t = dev.free(t, names[tag as usize], tag).expect("free");
        let w = dev.write(t, tag).expect("rewrite");
        names[tag as usize] = w.name;
        t = w.done;
    }
    retired += dev
        .upcalls()
        .drain()
        .iter()
        .filter(|u| matches!(u, Upcall::BlockRetired { .. }))
        .count();
    let m = dev.metrics();
    assert_eq!(retired, 2, "one BlockRetired per failed erase");
    assert_eq!(m.recovery.erase_retirements, 2);
    assert_eq!(m.blocks_retired, 2);
    assert_eq!(
        m.flash_erases.gc, m.gc_runs,
        "every collection ends in an erase, failed ones included"
    );
}

/// One write, then a read of it: the read's data-out transfer is the
/// channel's second grant, and the hiccup plan makes every early grant
/// 50 µs longer.
#[test]
fn a_channel_hiccup_lengthens_a_nameless_read() {
    let read_latency = |plan: FaultPlan| {
        let mut dev = device(1, 1, plan);
        let w = dev.write(SimTime::ZERO, 7).expect("write");
        dev.read(w.done, w.name, 7).expect("read").1
    };
    let mut plan = FaultPlan::none();
    plan.channel_hiccup
        .insert(0, (0..8).map(|grant| (grant, 50_000)).collect());
    let clean = read_latency(FaultPlan::none());
    let hiccup = read_latency(plan);
    assert_eq!(hiccup, clean + SimDuration::from_micros(50));
}
