//! Property tests for the nameless device on a queue pair: seeded write /
//! read-by-name / free-by-exact-name mixes at queue depths up to 16, each
//! command dispatched to [`NamelessSsd`] at its admit instant, on a device small
//! enough that garbage collection migrates live pages under the host,
//! ending in a tail that fills the device until it refuses writes — write
//! through (no buffer slots), and behind a battery-backed write buffer of
//! 4 and of 256 slots.
//!
//! 1. every probe command's spans **tile** its `[submit, done)` exactly —
//!    refused writes included: a write the device has no room for still
//!    crossed the host link, and completes when it was refused;
//! 2. commands on the **same tag** complete in submission order (the
//!    in-flight window's hazard guard);
//! 3. with buffer slots a write is acknowledged from RAM: the wait for a
//!    slot is on its record, its flash program is background, and a read
//!    is served from RAM or from flash, never both.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use requiem_flash::Geometry;
use requiem_iface::{NamelessConfig, NamelessError, NamelessSsd, PhysName, Upcall};
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, CommandId, IoStatus, Layer, Probe, QueuePair};
use requiem_ssd::SsdConfig;

/// Tags the generated phase keeps live: three quarters of the raw pages,
/// so a GC victim always has live neighbours to relocate.
const LIVE: u64 = 768;

/// Write-buffer sizes the property runs over: write-through, a buffer the
/// closed loop keeps full, and `SsdConfig::modern()`'s own.
const CAPACITIES: [u32; 3] = [0, 4, 256];

/// 2 x 2 LUNs of 32 blocks x 8 pages: 1024 raw pages.
fn device(capacity_pages: u32) -> NamelessSsd {
    let mut base = SsdConfig::modern();
    base.buffer.capacity_pages = capacity_pages;
    base.shape.channels = 2;
    base.shape.chips_per_channel = 2;
    base.flash.geometry = Geometry::new(1, 32, 8, 4096);
    NamelessSsd::new(NamelessConfig::from(&base))
}

/// What the host asks for; the name comes from its index at submit.
#[derive(Clone, Copy)]
enum Op {
    Write(u64),
    Read(u64),
    Free(u64),
}

/// One command's completion.
#[derive(Clone, Copy)]
struct Cqe {
    id: CommandId,
    tag: u64,
    /// The device-chosen name of a write, the name a read or free
    /// operated on; `None` exactly when a write was refused.
    name: Option<PhysName>,
    done: SimTime,
    status: IoStatus,
}

/// Submit `op` on `tag` (at `name` for a read or free) on `qp` at `now`,
/// the tag as the hazard key and the device as the dispatch. A refusal
/// completes `Rejected` when the device refused it: a stale name at
/// admission, a full device when the controller gave up.
fn submit(
    qp: &mut QueuePair<Cqe>,
    dev: &mut NamelessSsd,
    now: SimTime,
    op: Op,
    name: Option<PhysName>,
) -> CommandId {
    let probe = dev.probe().clone();
    let (kind, tag) = match op {
        Op::Write(tag) => ("write", tag),
        Op::Read(tag) => ("read", tag),
        Op::Free(tag) => ("free", tag),
    };
    let scope = probe.open_command(kind, now);
    let c = qp.submit(&probe, now, CommandId::UNASSIGNED, tag, |id, admit| {
        let (done, name, status) = match op {
            Op::Write(_) => match dev.write(admit, tag) {
                Ok(w) => (w.done, Some(w.name), w.status),
                Err(NamelessError::DeviceFull { at }) => (at, None, IoStatus::Rejected),
                Err(NamelessError::StaleName { .. }) => (admit, None, IoStatus::Rejected),
            },
            Op::Read(_) => match dev.read(admit, name.expect("a named read"), tag) {
                Ok((done, _lat, status)) => (done, name, status),
                Err(_) => (admit, name, IoStatus::Rejected),
            },
            Op::Free(_) => match dev.free(admit, name.expect("a named free"), tag) {
                Ok(done) => (done, name, IoStatus::Ok),
                Err(_) => (admit, name, IoStatus::Rejected),
            },
        };
        scope.close(done);
        let c = Cqe {
            id,
            tag,
            name,
            done,
            status,
        };
        (done, c)
    });
    c.id
}

/// The host: its name index, what it has in flight per tag, and the
/// closed loop that keeps at most `qd` commands outstanding.
struct Host {
    dev: NamelessSsd,
    qp: QueuePair<Cqe>,
    qd: usize,
    now: SimTime,
    in_flight: usize,
    /// The host's index: the current name of every written tag.
    names: BTreeMap<u64, PhysName>,
    /// Commands outstanding per tag.
    busy: BTreeMap<u64, u32>,
    /// The writes among them, by command id.
    writes: BTreeSet<u64>,
    /// `Migrated` upcalls that named a page whose write completion the
    /// host has not reaped yet: applied when it is.
    early: Vec<(u64, PhysName, PhysName)>,
    /// Every completion, in pop order.
    trace: Vec<Cqe>,
}

impl Host {
    fn reap(&mut self) {
        let c = self.qp.pop().expect("a completion is pending");
        self.in_flight -= 1;
        self.now = self.now.max(c.done);
        *self.busy.get_mut(&c.tag).expect("reaped tag was busy") -= 1;
        if let (true, Some(mut name)) = (self.writes.remove(&c.id.0), c.name) {
            // the page may have moved since the device named it
            while let Some(i) = self
                .early
                .iter()
                .position(|&(t, old, _)| t == c.tag && old == name)
            {
                name = self.early.remove(i).2;
            }
            self.names.insert(c.tag, name);
        }
        self.trace.push(c);
    }

    fn submit(&mut self, op: Op) {
        while self.in_flight >= self.qd {
            self.reap();
        }
        for u in self.dev.upcalls().drain() {
            if let Upcall::Migrated { tag, old, new, .. } = u {
                match self.names.get_mut(&tag) {
                    Some(n) if *n == old => *n = new,
                    _ => self.early.push((tag, old, new)),
                }
            }
        }
        // drained just above, so a name taken from the index is current
        let (tag, name) = match op {
            Op::Write(tag) => (tag, None),
            Op::Read(tag) => (tag, Some(self.names[&tag])),
            Op::Free(tag) => (tag, self.names.remove(&tag)),
        };
        *self.busy.entry(tag).or_insert(0) += 1;
        let id = submit(&mut self.qp, &mut self.dev, self.now, op, name);
        if let Op::Write(_) = op {
            self.writes.insert(id.0);
        }
        self.in_flight += 1;
    }

    /// The first tag at or after `tag` (mod [`LIVE`]) that `ok` accepts.
    fn first_from(&self, tag: u64, ok: impl Fn(&Host, u64) -> bool) -> u64 {
        (0..LIVE)
            .map(|k| (tag + k) % LIVE)
            .find(|&t| ok(self, t))
            .expect("fewer commands in flight than tags")
    }
}

/// Fill, churn for `2 * LIVE` seeded ops, then write fresh tags until the
/// device has refused eight of them. Returns the host and its probe.
/// The media is healthy: a salvage's spans overlap the command that set
/// it off, so tiling is not claimed under program failures (when such a
/// write is refused is pinned by a unit test in `nameless.rs`).
fn run(qd: usize, seed: u64, read_pct: u64, free_pct: u64, capacity_pages: u32) -> (Host, Probe) {
    let mut dev = device(capacity_pages);
    let probe = Probe::recording();
    dev.attach_probe(probe.clone());
    let mut h = Host {
        dev,
        qp: QueuePair::new(qd),
        qd,
        now: SimTime::ZERO,
        in_flight: 0,
        names: BTreeMap::new(),
        busy: BTreeMap::new(),
        writes: BTreeSet::new(),
        early: Vec::new(),
        trace: Vec::new(),
    };
    for tag in 0..LIVE {
        h.submit(Op::Write(tag));
    }
    let mut x = seed;
    for _ in 0..2 * LIVE {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (roll, pick) = ((x >> 33) % 100, (x >> 40) % LIVE);
        if roll < read_pct {
            // reads pile up on a tag; they wait only for its write
            let tag = h.first_from(pick, |h, t| h.names.contains_key(&t));
            h.submit(Op::Read(tag));
            continue;
        }
        // writes and frees take a tag with nothing in flight
        let tag = h.first_from(pick, |h, t| h.busy.get(&t).map_or(true, |&n| n == 0));
        if h.names.contains_key(&tag) {
            h.submit(Op::Free(tag));
            if roll < read_pct + free_pct {
                continue; // stays unwritten until it is picked again
            }
        }
        // same tag as the free just submitted: the hazard guard orders them
        h.submit(Op::Write(tag));
    }
    let mut fresh = LIVE;
    while h.trace.iter().filter(|c| c.name.is_none()).count() < 8 {
        assert!(fresh < 4 * LIVE, "the device never filled");
        h.submit(Op::Write(fresh));
        fresh += 1;
    }
    while h.in_flight > 0 {
        h.reap();
    }
    (h, probe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spans_tile_every_command_and_same_tag_completes_in_order(
        qd in 1usize..17,
        seed in 0u64..u64::MAX,
        read_pct in 0u64..50,
        free_pct in 0u64..20,
        capacity in 0..CAPACITIES.len(),
    ) {
        let capacity_pages = CAPACITIES[capacity];
        let (h, probe) = run(qd, seed, read_pct, free_pct, capacity_pages);
        prop_assert!(h.dev.metrics().gc_pages_moved > 0, "GC never migrated a live page");
        prop_assert!(h.dev.upcalls_pending().delivered() > 0, "no upcall reached the host");

        // same tag: pop order is submission order, dones never regress
        let mut last: BTreeMap<u64, &Cqe> = BTreeMap::new();
        for c in &h.trace {
            if c.name.is_some() {
                prop_assert!(c.status.is_success(), "tag {} {:?}: the host's name was stale", c.tag, c.status);
            } else {
                prop_assert_eq!(c.status, IoStatus::Rejected);
            }
            if let Some(prev) = last.insert(c.tag, c) {
                prop_assert!(prev.id < c.id, "tag {} popped {:?} after {:?}", c.tag, c.id, prev.id);
                prop_assert!(prev.done <= c.done, "tag {} done regressed", c.tag);
            }
        }

        // one pass over the bus: each command's spans, in emission order
        let mut spans: BTreeMap<u64, Vec<(Layer, Cause, SimTime, SimTime)>> = BTreeMap::new();
        for e in probe.events_ref().iter() {
            match e.cmd {
                Some(cmd) => spans.entry(cmd).or_default().push((e.layer, e.cause, e.start, e.end)),
                None => prop_assert!(e.layer != Layer::Buffer, "a buffer span off the record"),
            }
        }
        let cmds = probe.commands_ref();
        prop_assert_eq!(cmds.len(), h.trace.len(), "one probe command per submission");
        // the queue pair and the bus both number submissions from 1
        let cqe: BTreeMap<u64, &Cqe> = h.trace.iter().map(|c| (c.id.0, c)).collect();
        let (mut stalled, mut ram_reads) = (0u64, 0u64);
        for rec in cmds.iter() {
            let done = rec.done.expect("command closed");
            let on_record = spans.get(&rec.id).map_or(&[][..], |v| v);
            let mut cursor = rec.submit;
            let mut total = SimDuration::ZERO;
            for &(_, _, start, end) in on_record {
                prop_assert_eq!(start, cursor, "gap/overlap in {} cmd {}", rec.kind, rec.id);
                cursor = end;
                total += end.since(start);
            }
            prop_assert_eq!(cursor, done, "{} cmd {}: spans do not end at completion", rec.kind, rec.id);
            prop_assert_eq!(total, done.since(rec.submit), "span sum != latency");

            // where the command was served from
            let count = |layer, cause| {
                on_record.iter().filter(|s| (s.0, s.1) == (layer, cause)).count() as u64
            };
            let from_ram = count(Layer::Buffer, Cause::BufferHit);
            let waited = count(Layer::Buffer, Cause::BufferStall);
            let cell_ops = on_record.iter().filter(|s| s.0 == Layer::Flash && s.1 != Cause::Recovery).count();
            let c = cqe[&rec.id];
            prop_assert_eq!(c.done, done);
            match (rec.kind, c.status.is_success()) {
                // acknowledged from RAM, the program behind it is
                // background; write-through, the program is the command
                ("write", true) if capacity_pages > 0 => {
                    prop_assert_eq!((from_ram, cell_ops), (1, 0), "buffered write cmd {}", rec.id);
                    prop_assert!(waited <= 1);
                    stalled += waited;
                }
                ("write", true) => {
                    prop_assert_eq!(count(Layer::Flash, Cause::CellProgram), 1);
                    prop_assert_eq!(from_ram + waited, 0);
                }
                // RAM or flash, never both, never neither
                ("read", true) => {
                    prop_assert_eq!(from_ram + count(Layer::Flash, Cause::CellRead), 1, "read cmd {}", rec.id);
                    prop_assert_eq!(waited, 0);
                    ram_reads += from_ram;
                }
                // frees and refusals touch neither RAM nor a chip (a
                // refused write may have waited for the slot it gave back)
                _ => {
                    prop_assert_eq!(cell_ops, 0);
                    stalled += waited;
                }
            }
        }
        prop_assert_eq!(stalled, h.dev.buffer_stalls(), "every wait for a slot is on a record");
        prop_assert_eq!(ram_reads, h.dev.metrics().buffer_read_hits);
        // the fill alone outruns the flash: any buffer at all runs out of slots
        prop_assert_eq!(stalled > 0, capacity_pages > 0);
    }
}

/// The buffer's read side, one step at a time on a four-slot device: a
/// name is readable from RAM while its page is mid-flush and from flash
/// once the flush has ended, and a name freed while still in RAM is as
/// stale as any other freed name.
#[test]
fn a_buffered_name_reads_from_ram_until_its_flush_ends() {
    let mut dev = device(4);
    let probe = Probe::recording();
    dev.attach_probe(probe.clone());
    let mut qp = QueuePair::new(4);
    let mut step = |dev: &mut NamelessSsd, at: SimTime, op: Op, name: Option<PhysName>| {
        submit(&mut qp, dev, at, op, name);
        let c = qp.pop().expect("the command completes");
        let causes: Vec<Cause> = probe
            .command_spans(c.id.0)
            .iter()
            .map(|e| e.cause)
            .collect();
        (c, causes)
    };

    let (w, causes) = step(&mut dev, SimTime::ZERO, Op::Write(1), None);
    let name = w.name.expect("the write was named");
    assert!(causes.contains(&Cause::BufferHit) && !causes.contains(&Cause::CellProgram));
    let flushed = dev.drain_time();
    assert!(
        w.done + dev.config().flash.timing.program(0) <= flushed,
        "acknowledged at {}, a program before the flush ends at {flushed}",
        w.done
    );

    let (r, causes) = step(&mut dev, w.done, Op::Read(1), Some(name));
    assert_eq!(r.status, IoStatus::Ok);
    assert!(r.done < flushed, "served before the page reached flash");
    assert!(causes.contains(&Cause::BufferHit) && !causes.contains(&Cause::CellRead));

    let (r, causes) = step(&mut dev, flushed, Op::Read(1), Some(name));
    assert_eq!(r.status, IoStatus::Ok);
    assert!(causes.contains(&Cause::CellRead) && !causes.contains(&Cause::BufferHit));
    assert_eq!(dev.metrics().buffer_read_hits, 1);

    let (w, _) = step(&mut dev, r.done, Op::Write(2), None);
    let name = w.name.expect("the write was named");
    assert!(w.done < dev.drain_time(), "still mid-flush");
    let (f, _) = step(&mut dev, w.done, Op::Free(2), Some(name));
    assert_eq!(f.status, IoStatus::Ok);
    let (r, causes) = step(&mut dev, f.done, Op::Read(2), Some(name));
    assert_eq!(r.status, IoStatus::Rejected, "freed while buffered: stale");
    assert!(causes.is_empty(), "a stale name costs the device nothing");
    assert_eq!(dev.metrics().buffer_read_hits, 1);
}
