//! The differential law: a nameless device is the page-mapped controller
//! with the host holding the map. On the same [`SsdConfig`], driven with
//! the same commands — a page-mapped [`Ssd`] addressed by LPN, a
//! [`NamelessSsd`] addressed by the name its last write returned — the
//! two complete every command at the same instant and end with the same
//! flash work: reads, programs and erases by cause, collections, pages
//! moved, and the instant the last queued operation drains.
//!
//! Runs are write-through (no write buffer: RAM residency is keyed by the
//! handle the host reads with, so buffered read hits may differ), filled
//! to 90–95 % of the exported space and churned for twice that space in
//! commands, so the collector runs and migrates live pages under the
//! nameless host.

use proptest::prelude::*;
use requiem_flash::Geometry;
use requiem_iface::{NamelessConfig, NamelessSsd, PhysName, Upcall};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_ssd::{Lpn, Ssd, SsdConfig};

/// Array shapes from 1×1 to 2×4 (channels × chips per channel).
const SHAPES: [(u32, u32); 6] = [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)];

/// `SsdConfig::modern()` write-through, on `shape`, with dies of 64
/// blocks × 8 pages so a short run reaches steady-state collection.
fn config(shape: usize, seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    (cfg.shape.channels, cfg.shape.chips_per_channel) = SHAPES[shape];
    cfg.flash.geometry = Geometry::new(1, 64, 8, 4096);
    cfg.buffer.capacity_pages = 0;
    cfg.seed = seed;
    cfg
}

/// Both devices, driven in lockstep.
struct Pair {
    ssd: Ssd,
    nl: NamelessSsd,
    /// The nameless host's index: tag → current name, patched from
    /// `Migrated` upcalls.
    names: Vec<Option<PhysName>>,
}

impl Pair {
    fn patch(&mut self) {
        for u in self.nl.upcalls().drain() {
            if let Upcall::Migrated { tag, new, .. } = u {
                self.names[tag as usize] = Some(new);
            }
        }
    }

    /// Write `tag` on both; returns both completion instants.
    fn write(&mut self, t: SimTime, tag: u64) -> (SimTime, SimTime) {
        let a = self.ssd.write(t, Lpn(tag)).expect("page-mapped write");
        let b = self.nl.write(t, tag).expect("nameless write");
        self.names[tag as usize] = Some(b.name);
        self.patch();
        (a.done, b.done)
    }

    /// Trim / free `tag`'s current version on both.
    fn release(&mut self, t: SimTime, tag: u64) -> (SimTime, SimTime) {
        let a = self.ssd.trim(t, Lpn(tag)).expect("trim");
        let name = self.names[tag as usize].take().expect("a written tag");
        let b = self
            .nl
            .free(t, name, tag)
            .expect("free of the current name");
        self.patch();
        (a.done, b)
    }

    fn read(&mut self, t: SimTime, tag: u64) -> (SimTime, SimTime) {
        let a = self.ssd.read(t, Lpn(tag)).expect("page-mapped read");
        let name = self.names[tag as usize].expect("a written tag");
        let (b, _, _) = self
            .nl
            .read(t, name, tag)
            .expect("read of the current name");
        self.patch();
        (a.done, b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ops`, replayed in a cycle, are `(kind, tag, time step in µs)`:
    /// kind 0 writes a tag not yet written (a rewrite once 95 % of the
    /// space is), 1–5 trim / free a tag and write it again, 6–8 read a
    /// tag, 9 only lets time pass. The clock moves only by the steps, so
    /// commands queue behind each other.
    #[test]
    fn nameless_and_page_mapped_agree_command_for_command(
        shape in 0..SHAPES.len(),
        seed in 0u64..1_000,
        fill_permille in 900u64..950,
        ops in proptest::collection::vec((0..10u8, 0..4_096u64, 0..400u64), 50..400),
    ) {
        let cfg = config(shape, seed);
        let ssd = Ssd::new(cfg.clone());
        let nl = NamelessSsd::new(NamelessConfig::from(&cfg));
        let space = ssd.capacity().exported_pages.min(nl.usable_tags());
        let mut p = Pair { ssd, nl, names: vec![None; space as usize] };
        let mut written = space * fill_permille / 1_000;
        let most = space * 95 / 100;
        let mut t = SimTime::ZERO;
        for tag in 0..written {
            let (a, b) = p.write(t, tag);
            prop_assert_eq!(a, b, "fill write of tag {}", tag);
            t = a;
        }
        let churn = ops.iter().cycle().take(2 * space as usize);
        for (step, &(kind, pick, dt)) in churn.enumerate() {
            t += SimDuration::from_micros(dt);
            let tag = pick % written;
            let (what, (a, b)) = match kind {
                0 if written < most => {
                    written += 1;
                    ("write", p.write(t, written - 1))
                }
                0..=5 => {
                    let released = p.release(t, tag);
                    prop_assert_eq!(released.0, released.1, "step {}: release of {}", step, tag);
                    ("rewrite", p.write(t, tag))
                }
                6..=8 => ("read", p.read(t, tag)),
                _ => continue,
            };
            prop_assert_eq!(a, b, "step {}: {} of tag {}", step, what, tag);
        }
        let (m, n) = (p.ssd.metrics(), p.nl.metrics());
        prop_assert!(m.gc_runs > 0, "the run never collected");
        prop_assert_eq!(format!("{:?}", m.flash_reads), format!("{:?}", n.flash_reads));
        prop_assert_eq!(format!("{:?}", m.flash_programs), format!("{:?}", n.flash_programs));
        prop_assert_eq!(format!("{:?}", m.flash_erases), format!("{:?}", n.flash_erases));
        prop_assert_eq!((m.gc_runs, m.gc_pages_moved), (n.gc_runs, n.gc_pages_moved));
        prop_assert_eq!(p.ssd.drain_time(), p.nl.drain_time());
    }
}
