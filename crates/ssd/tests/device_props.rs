//! Property-based tests: the device must keep its mapping, block
//! directory, and flash state mutually consistent under arbitrary
//! workloads, for every FTL and under a host-held map.
//!
//! The coherence law, checked after every case: every mapped LPN's page
//! is valid and its out-of-band record names that LPN, no other page is
//! valid, each block's live-page count equals its valid bits, and no
//! valid bit sits on an erased page (`Ssd::audit_metadata`). The page's
//! record on the die is the one copy of which LPN it holds, so a valid
//! bit set or cleared out of step with the map shows here.

use proptest::prelude::*;
use requiem_sim::time::SimTime;
use requiem_ssd::{BufferConfig, FtlKind, Lpn, PhysPage, Served, Ssd, SsdConfig};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum HostOp {
    Write(u64),
    Read(u64),
    Trim(u64),
}

fn ops(space: u64) -> impl Strategy<Value = Vec<HostOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..space).prop_map(HostOp::Write),
            2 => (0..space).prop_map(HostOp::Read),
            1 => (0..space).prop_map(HostOp::Trim),
        ],
        1..200,
    )
}

fn small_cfg(ftl: FtlKind) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 1;
    cfg.ftl = ftl;
    cfg.buffer = BufferConfig { capacity_pages: 8 };
    cfg
}

/// [`small_cfg`] on dies of 16 blocks of 8 pages: 256 physical pages, so
/// a few thousand ops over 160 LPNs reach garbage collection and merges.
fn tiny_cfg(ftl: FtlKind) -> SsdConfig {
    let mut cfg = small_cfg(ftl);
    cfg.flash.geometry = requiem_flash::Geometry::new(1, 16, 8, 4096);
    cfg
}

/// `n` ops over `space` pages drawn from a fixed LCG, three writes to two
/// reads to one trim.
fn long_ops(n: usize, space: u64, seed: u64) -> Vec<HostOp> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let page = (x >> 33) % space;
            match (x >> 20) % 6 {
                0..=2 => HostOp::Write(page),
                3 | 4 => HostOp::Read(page),
                _ => HostOp::Trim(page),
            }
        })
        .collect()
}

/// Drive the device and a trivial shadow model (set of written lpns);
/// check read servedness matches the shadow at every step, and the
/// coherence law at the end. Returns the device.
fn check_ftl(cfg: SsdConfig, ops: &[HostOp]) -> Result<Ssd, TestCaseError> {
    let mut ssd = Ssd::new(cfg);
    let space = 256u64.min(ssd.capacity().exported_pages);
    let mut written: BTreeSet<u64> = BTreeSet::new();
    let mut t = SimTime::ZERO;
    for op in ops {
        match op {
            HostOp::Write(lpn) => {
                let lpn = lpn % space;
                let c = ssd.write(t, Lpn(lpn)).expect("write failed");
                prop_assert!(c.done >= t);
                t = c.done;
                written.insert(lpn);
            }
            HostOp::Read(lpn) => {
                let lpn = lpn % space;
                let c = ssd.read(t, Lpn(lpn)).expect("read failed");
                prop_assert!(c.done >= t);
                t = c.done;
                if written.contains(&lpn) {
                    prop_assert!(
                        matches!(c.served, Served::Flash | Served::Buffer),
                        "written lpn {lpn} served {:?}",
                        c.served
                    );
                } else {
                    prop_assert_eq!(c.served, Served::Unmapped, "unwritten lpn {}", lpn);
                }
            }
            HostOp::Trim(lpn) => {
                let lpn = lpn % space;
                let c = ssd.trim(t, Lpn(lpn)).expect("trim failed");
                t = c.done;
                written.remove(&lpn);
            }
        }
    }
    // final sweep: every shadow-written lpn must still be readable
    for &lpn in &written {
        let c = ssd.read(t, Lpn(lpn)).expect("final read failed");
        t = c.done;
        prop_assert!(
            matches!(c.served, Served::Flash | Served::Buffer),
            "lpn {lpn} lost"
        );
    }
    // metrics sanity: host counters match what we issued
    let m = ssd.metrics();
    prop_assert_eq!(
        m.host_writes + m.host_reads + m.host_trims,
        ops.len() as u64 + written.len() as u64
    );
    let live = ssd.audit_metadata().map_err(TestCaseError::fail)?;
    prop_assert_eq!(live, written.len() as u64, "live pages");
    Ok(ssd)
}

/// The same ops under a host-held map (the nameless device's): writes
/// return names the host keeps, reads and trims present them, and moves
/// the controller makes are patched in from its map events. After the
/// run every name the host holds must still hold its tag, and no other
/// page may be live. Returns the device.
fn check_host_map(cfg: SsdConfig, ops: &[HostOp]) -> Result<Ssd, TestCaseError> {
    let mut ssd = Ssd::with_host_map(cfg);
    let space = 256u64.min(ssd.capacity().exported_pages);
    let mut names: BTreeMap<u64, PhysPage> = BTreeMap::new();
    let mut t = SimTime::ZERO;
    let patch = |ssd: &mut Ssd, names: &mut BTreeMap<u64, PhysPage>| {
        for event in ssd.drain_map_events() {
            if let requiem_ssd::MapEvent::Moved { tag, old, new, .. } = event {
                if names.get(&tag.0) == Some(&old) {
                    names.insert(tag.0, new);
                }
            }
        }
    };
    for op in ops {
        match op {
            HostOp::Write(tag) => {
                let tag = tag % space;
                if let Some(old) = names.remove(&tag) {
                    t = ssd.free_named(t, old, Lpn(tag)).expect("free").done;
                }
                let (phys, c) = ssd.write_named(t, Lpn(tag)).expect("write failed");
                t = c.done;
                patch(&mut ssd, &mut names);
                names.insert(tag, phys);
            }
            HostOp::Read(tag) => {
                let tag = tag % space;
                if let Some(&phys) = names.get(&tag) {
                    let c = ssd.read_named(t, phys, Lpn(tag)).expect("read failed");
                    prop_assert!(matches!(c.served, Served::Flash | Served::Buffer));
                    t = c.done;
                    patch(&mut ssd, &mut names);
                }
            }
            HostOp::Trim(tag) => {
                let tag = tag % space;
                if let Some(phys) = names.remove(&tag) {
                    t = ssd.free_named(t, phys, Lpn(tag)).expect("free").done;
                }
            }
        }
    }
    for (&tag, &phys) in &names {
        prop_assert_eq!(ssd.backptr(phys), Some(Lpn(tag)), "name {:?}", phys);
    }
    let live = ssd.audit_metadata().map_err(TestCaseError::fail)?;
    prop_assert_eq!(live, names.len() as u64, "live pages");
    Ok(ssd)
}

/// The two shrunk `ops` sequences proptest once recorded against these
/// properties, replayed on every FTL the `*_consistency` properties
/// cover (the vendored proptest reads no regressions file).
#[test]
fn recorded_counter_examples_stay_consistent() {
    use HostOp::{Read as R, Trim as T, Write as W};
    #[rustfmt::skip]
    let recorded: [&[HostOp]; 2] = [
        &[
            W(134), W(134), T(134), W(134), T(142), T(92), W(229), W(228), R(218), W(128), W(237),
            W(248), T(210), T(67), R(234), W(149), W(110), W(109), R(52), T(196), W(210), W(20),
            T(151), W(66), R(203), R(12), R(162), T(158), R(15), R(181), T(157), W(30), R(2),
            W(34), W(253), R(142), T(12), W(125), R(238), T(101), R(74), T(111), W(251), W(135),
            T(208), W(230), R(33), W(248), W(32), W(43), W(63), R(242), W(90), W(146), R(113),
            W(103), R(136), R(249), W(211), W(76), W(176), T(230), R(176), W(173), R(215), T(152),
            T(123), R(149), W(199), W(229), W(149), W(54), R(175), R(134), W(167), R(21), W(68),
            R(196), W(225), T(94), W(47), T(207), T(179), T(13), T(80), W(121), R(100), W(177),
            T(146), W(3), W(15), R(39),
        ],
        &[
            W(5), W(5), W(13), T(13), R(13), W(123), W(150), T(26), R(185), T(46), R(204), W(208),
            T(239), W(66), W(47), R(47), R(8), W(183), R(78), W(129), W(92), W(141), R(69), W(190),
            T(255), T(53), W(136), W(5), T(41), W(0), R(148), W(52), R(31), W(180), W(211), R(38),
            R(119), T(241), R(178), W(147), W(26), W(131), W(135), T(199), W(200), W(69), W(220),
            R(240), T(65), W(7), W(170), W(10), R(75), W(180), W(190), R(145), R(251), W(243),
            R(88), W(234), T(201), W(196), W(220), W(24), R(250), W(78), W(175), W(202), W(165),
            R(175), W(183), R(27), T(66), W(177), T(230), W(216), W(197),
        ],
    ];
    for ftl in [
        FtlKind::PageMap,
        FtlKind::Dftl { cached_entries: 32 },
        FtlKind::BlockMap,
        FtlKind::Hybrid { log_blocks: 4 },
    ] {
        for ops in recorded {
            if let Err(e) = check_ftl(small_cfg(ftl.clone()), ops) {
                panic!("{ftl:?}: {e:?}");
            }
        }
    }
    for ops in recorded {
        if let Err(e) = check_host_map(small_cfg(FtlKind::PageMap), ops) {
            panic!("host map: {e:?}");
        }
    }
}

/// Long runs on [`tiny_cfg`]'s dies, which reach garbage collection (page
/// maps), merges (block and hybrid maps) and, under the host map, moves
/// the host patches in from map events: the coherence law holds after
/// each, on two op streams.
#[test]
fn coherence_holds_through_collection_and_merges() {
    for seed in [7, 11] {
        let ops = long_ops(4000, 160, seed);
        for ftl in [
            FtlKind::PageMap,
            FtlKind::Dftl { cached_entries: 32 },
            FtlKind::BlockMap,
            FtlKind::Hybrid { log_blocks: 4 },
        ] {
            let ssd = check_ftl(tiny_cfg(ftl.clone()), &ops)
                .unwrap_or_else(|e| panic!("{ftl:?} seed {seed}: {e:?}"));
            let m = ssd.metrics();
            assert!(
                m.gc_pages_moved + m.merges_full + m.merges_switch > 0,
                "{ftl:?} seed {seed}: no page moved"
            );
        }
        let ssd = check_host_map(tiny_cfg(FtlKind::PageMap), &ops)
            .unwrap_or_else(|e| panic!("host map seed {seed}: {e:?}"));
        assert!(ssd.metrics().gc_pages_moved > 0, "host map seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn page_map_consistency(ops in ops(256)) {
        check_ftl(small_cfg(FtlKind::PageMap), &ops)?;
    }

    #[test]
    fn dftl_consistency(ops in ops(256)) {
        check_ftl(small_cfg(FtlKind::Dftl { cached_entries: 32 }), &ops)?;
    }

    #[test]
    fn block_map_consistency(ops in ops(256)) {
        check_ftl(small_cfg(FtlKind::BlockMap), &ops)?;
    }

    #[test]
    fn hybrid_consistency(ops in ops(256)) {
        check_ftl(small_cfg(FtlKind::Hybrid { log_blocks: 4 }), &ops)?;
    }

    #[test]
    fn host_map_consistency(ops in ops(256)) {
        check_host_map(small_cfg(FtlKind::PageMap), &ops)?;
    }

    /// Write amplification is never below 1 once any write happened, for
    /// any FTL and any workload.
    #[test]
    fn wa_at_least_one(ops in ops(128)) {
        for ftl in [FtlKind::PageMap, FtlKind::BlockMap, FtlKind::Hybrid { log_blocks: 4 }] {
            let mut ssd = Ssd::new(small_cfg(ftl));
            let mut t = SimTime::ZERO;
            let mut wrote = false;
            for op in &ops {
                if let HostOp::Write(lpn) = op {
                    let c = ssd.write(t, Lpn(lpn % 128)).unwrap();
                    t = c.done;
                    wrote = true;
                }
            }
            if wrote {
                prop_assert!(ssd.metrics().write_amplification() >= 1.0 - 1e-9);
            }
        }
    }
}
