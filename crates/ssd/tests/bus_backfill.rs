//! Channels and the host link backfill idle gaps; LUNs stay in call order.
//!
//! A read queued behind a program on its chip books its channel read-out
//! and its host-link transfer at a future instant. Those buses are idle
//! until then, so a later read on another chip of the same channel must
//! get through them first — and a chip must still run its operations in
//! the order they were booked, or a read could overtake the program of
//! the page it reads.

use std::collections::BTreeMap;

use requiem_sim::time::SimTime;
use requiem_sim::{Cause, Layer, Probe};
use requiem_ssd::{Completion, Lpn, LunId, Ssd, SsdConfig};

/// Pages written (and settled on flash) before the probe commands.
const PAGES: u64 = 256;

/// A `modern()` device holding `PAGES` pages, every flush done and every
/// page out of the write buffer; returns the device and the instant.
fn settled() -> (Ssd, SimTime) {
    let mut ssd = Ssd::new(SsdConfig::modern());
    let mut t = SimTime::ZERO;
    for lpn in 0..PAGES {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    let t = ssd.drain_time();
    (ssd, t)
}

/// At `t`: write a fresh page (its flush programs a chip), read a page
/// of that chip (queued behind the program) unless `skip_queued`, then
/// read a page of another chip on the same channel. Returns the program's
/// LUN, the queued read and the last read.
fn program_then_two_reads(skip_queued: bool) -> (LunId, Option<Completion>, Completion) {
    let (mut ssd, t) = settled();
    ssd.write(t, Lpn(PAGES)).expect("fresh write");
    let map = ssd.debug_mapping().expect("page-mapped");
    let lun_of = |lpn: u64| map[lpn as usize].expect("mapped").lun;
    let shape = ssd.config().shape.clone();
    let busy = lun_of(PAGES);
    let behind = (0..PAGES)
        .find(|&l| lun_of(l) == busy)
        .expect("a page on the busy chip");
    let beside = (0..PAGES)
        .find(|&l| lun_of(l) != busy && shape.channel_of(lun_of(l)) == shape.channel_of(busy))
        .expect("a page on another chip of the channel");
    let queued = (!skip_queued).then(|| ssd.read(t, Lpn(behind)).expect("queued read"));
    let last = ssd.read(t, Lpn(beside)).expect("read beside");
    (busy, queued, last)
}

#[test]
fn a_read_behind_a_program_does_not_hold_the_channel_or_the_link() {
    let (busy, queued, last) = program_then_two_reads(false);
    let queued = queued.expect("issued");
    assert_eq!(busy, LunId(0), "the fresh write's flush programs LUN 0");
    let tprog = SsdConfig::modern().flash.timing.program_mean();
    assert!(
        queued.latency > tprog / 2,
        "the read on the busy chip waits for the program: {}",
        queued.latency
    );
    // the read beside it is timed exactly as if the queued read had never
    // been issued: its read-out and its link transfer use the gaps before
    // the queued read's bookings
    let (_, _, alone) = program_then_two_reads(true);
    assert_eq!(last, alone);
    assert!(last.done < queued.done);
}

/// One booked operation on a chip: start, end, cell operation.
type ChipOp = (SimTime, SimTime, Cause);

/// The cell operations `probe` recorded, one list per chip, each in
/// booking order.
fn chip_lanes(probe: &Probe) -> Vec<Vec<ChipOp>> {
    let mut lanes: BTreeMap<String, Vec<ChipOp>> = BTreeMap::new();
    for e in probe.events() {
        let cell_op = matches!(
            e.cause,
            Cause::CellRead | Cause::CellProgram | Cause::CellErase
        );
        if e.layer == Layer::Flash && cell_op {
            let chip = e.resource.expect("a cell op names its chip");
            lanes
                .entry(chip)
                .or_default()
                .push((e.start, e.end, e.cause));
        }
    }
    lanes.into_values().collect()
}

#[test]
fn a_read_booked_after_a_program_on_its_chip_starts_after_the_program_ends() {
    let (mut ssd, mut t) = settled();
    let probe = Probe::recording();
    ssd.attach_probe(probe.clone());
    // bursts of overwrites and reads submitted at the same instant, so
    // reads land on chips with programs booked ahead of them
    for round in 0..32u64 {
        for i in 0..8 {
            ssd.write(t, Lpn((round * 8 + i) * 7 % PAGES))
                .expect("write");
            ssd.read(t, Lpn((round * 8 + i) * 13 % PAGES))
                .expect("read");
        }
        t += requiem_sim::SimDuration::from_micros(100);
    }
    let mut reads_behind_programs = 0;
    for lane in chip_lanes(&probe) {
        for w in lane.windows(2) {
            let ((_, prev_end, prev), (start, _, op)) = (w[0], w[1]);
            assert!(
                start >= prev_end,
                "{op:?} at {start} starts before the {prev:?} booked ahead of it ends ({prev_end})"
            );
            if prev == Cause::CellProgram && op == Cause::CellRead && start == prev_end {
                reads_behind_programs += 1;
            }
        }
    }
    assert!(reads_behind_programs > 0, "no read queued behind a program");
}
