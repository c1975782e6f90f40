//! Nameless writes: the device names the data, the host keeps the name.
//!
//! §3: with a communication abstraction, *"extent-based allocation is
//! irrelevant, nameless writes are interesting"*. In a nameless write the
//! host sends only data (plus an opaque `tag` such as its database page
//! id); the **device** picks the physical location — wherever its write
//! frontier and parallelism make cheapest — and returns the location's
//! *name*. The host stores names in the index it already maintains, so
//! the FTL's page-mapping table (8 bytes/page of controller RAM) simply
//! disappears, and the double indirection (host index → LBA → physical)
//! collapses to one hop.
//!
//! The cost is a protocol: when garbage collection relocates a live page,
//! the device must tell the host its new name — the
//! [`Upcall::Migrated`](crate::comm::Upcall) message. A host that reads a
//! stale name gets [`NamelessError::StaleName`] (detectable via the
//! out-of-band tag), so correctness is preserved even with a lazy host.
//!
//! A nameless write changes *who holds the map*, not what the device is:
//! [`NamelessSsd`] is a vocabulary over the one flash controller of
//! `requiem-ssd`, built with the map held by the host
//! ([`Ssd::with_host_map`]). Placement, collection, the read-recovery
//! ladder, salvage, erase and every timeline are that controller's; what
//! is here is the names, the stale-name refusals, and the upcall queue
//! the controller's recorded moves and retirements feed. The hardware's
//! battery-backed RAM (§2.3.2) stays too: built from a buffered
//! [`SsdConfig`], a nameless write is named and acknowledged once it is
//! in RAM and programmed behind the acknowledgement, a read of a name
//! still in RAM is served from RAM, and a free drops the RAM copy with
//! the name. E14, E6 and the Figure-1 experiments run both devices
//! **unbuffered on purpose** (they compare what the flash does under each
//! interface); `SsdConfig::modern()`, the benchmark's device, is buffered
//! under both.

use requiem_sim::probe::Probe;
use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::IoStatus;
use requiem_ssd::addr::PhysPage;
use requiem_ssd::config::{Placement, SsdConfig};
use requiem_ssd::metrics::SsdMetrics;
use requiem_ssd::{Lpn, MapEvent, Ssd, SsdError};

use crate::comm::{Upcall, UpcallQueue};

/// The name of a written page: the physical page the device chose, which
/// the host keeps in its own index.
pub type PhysName = PhysPage;

/// Configuration of a nameless device: the [`SsdConfig`] of the same
/// hardware, whose FTL choice is moot (the host holds the map). The
/// device names each location, so it picks it: writes are placed on the
/// least-loaded LUN whatever the hardware's `placement` says.
#[derive(Debug, Clone)]
pub struct NamelessConfig(SsdConfig);

impl From<&SsdConfig> for NamelessConfig {
    fn from(c: &SsdConfig) -> Self {
        NamelessConfig(SsdConfig {
            placement: Placement::LeastLoaded,
            ..c.clone()
        })
    }
}

/// Errors from the nameless interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamelessError {
    /// The name no longer holds the tagged page (migrated or freed); the
    /// host must drain its upcalls.
    StaleName {
        /// The stale name presented.
        name: PhysName,
    },
    /// No usable space left. The device finds that out only once it has
    /// the page in hand: the host-link transfer and the controller's
    /// command overhead are spent by then — and, on worn-out media, so
    /// are the programs that failed before it gave up.
    DeviceFull {
        /// The instant the controller gave up on the write.
        at: SimTime,
    },
}

impl std::fmt::Display for NamelessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamelessError::StaleName { name } => {
                write!(f, "stale name {:?}; drain migration upcalls", name)
            }
            NamelessError::DeviceFull { at } => write!(f, "device full at {at}"),
        }
    }
}

impl std::error::Error for NamelessError {}

/// Completion of a nameless write.
#[derive(Debug, Clone, Copy)]
pub struct NamelessCompletion {
    /// The device-chosen name.
    pub name: PhysName,
    /// Instant the write was durable: in the battery-backed buffer when
    /// the device has one, else the end of the flash program.
    pub done: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Clean, or recovered after program-fail salvage(s).
    pub status: IoStatus,
}

/// A flash device with no FTL mapping: nameless writes + migration upcalls.
#[derive(Debug)]
pub struct NamelessSsd {
    /// The controller, its map held by the host.
    ssd: Ssd,
    upcalls: UpcallQueue,
}

impl NamelessSsd {
    /// Build a nameless device.
    pub fn new(cfg: NamelessConfig) -> Self {
        NamelessSsd {
            ssd: Ssd::with_host_map(cfg.0),
            upcalls: UpcallQueue::new(),
        }
    }

    /// Attach an observability probe: host commands stalled behind GC
    /// relocations get the wait blamed as `GcStall` spans, exactly as on
    /// the block controller — it is the same controller.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.ssd.attach_probe(probe);
    }

    /// The attached probe (disabled handle when none was attached).
    pub fn probe(&self) -> &Probe {
        self.ssd.probe()
    }

    /// The hardware's configuration.
    pub fn config(&self) -> &SsdConfig {
        self.ssd.config()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &SsdMetrics {
        self.ssd.metrics()
    }

    /// The device→host message queue.
    pub fn upcalls(&mut self) -> &mut UpcallQueue {
        &mut self.upcalls
    }

    /// Immutable view of the device→host message queue (for metrics).
    pub fn upcalls_pending(&self) -> &UpcallQueue {
        &self.upcalls
    }

    /// Distinct host tags the device can keep live while honouring its
    /// over-provisioning ratio — the page-mapped device's exported LBA
    /// count: a block-device FTL enforces the ratio by exporting fewer
    /// LBAs; a nameless device can only *tell* the host.
    pub fn usable_tags(&self) -> u64 {
        self.ssd.capacity().exported_pages
    }

    /// Controller RAM spent on logical→physical mapping: **zero** — the
    /// point of the interface (contrast [`SsdConfig::mapping_table_bytes`]).
    pub fn mapping_table_bytes(&self) -> u64 {
        0
    }

    /// When all queued operations drain.
    pub fn drain_time(&self) -> SimTime {
        self.ssd.drain_time()
    }

    /// Host writes that waited for a write-buffer slot (0 under
    /// write-through).
    pub fn buffer_stalls(&self) -> u64 {
        self.ssd.buffer_stalls()
    }

    /// Queue what the controller did to the host's names since the last
    /// command: a move is announced as [`Upcall::Migrated`] — a page moved
    /// in silence is a page the host can no longer name — and a retired
    /// block as [`Upcall::BlockRetired`].
    fn announce(&mut self) {
        for event in self.ssd.drain_map_events() {
            self.upcalls.push(match event {
                MapEvent::Moved { tag, old, new, at } => Upcall::Migrated {
                    tag: tag.0,
                    old,
                    new,
                    at,
                },
                MapEvent::Retired { at } => Upcall::BlockRetired { at },
            });
        }
    }

    /// Write a page; the device picks the location and returns its name.
    /// `tag` is an opaque host identifier stored out-of-band (and echoed
    /// in migration upcalls): any value but `u64::MAX`, which is what the
    /// directory keeps for a page that holds nothing.
    pub fn write(&mut self, now: SimTime, tag: u64) -> Result<NamelessCompletion, NamelessError> {
        let written = self.ssd.write_named(now, Lpn(tag));
        self.announce();
        match written {
            Ok((name, c)) => Ok(NamelessCompletion {
                name,
                done: c.done,
                latency: c.latency,
                status: c.status,
            }),
            Err(SsdError::DeviceFull { at, .. }) => Err(NamelessError::DeviceFull { at }),
            // any other refusal places nothing either
            Err(_) => Err(NamelessError::DeviceFull { at: now }),
        }
    }

    /// Read the page at `name`, verifying it still holds `tag`'s data.
    /// The third element reports how the media fared: clean, recovered
    /// (a parity rebuild re-homes the page and queues a
    /// [`Upcall::Migrated`] naming the new location), or unrecoverable.
    pub fn read(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<(SimTime, SimDuration, IoStatus), NamelessError> {
        let read = self.ssd.read_named(now, name, Lpn(tag));
        self.announce();
        // a name that passed the tag check names a programmed page: every
        // refusal of a read is its name's
        read.map(|c| (c.done, c.latency, c.status))
            .map_err(|_| NamelessError::StaleName { name })
    }

    /// Free the page at `name` (the trim analog — but exact, since the
    /// host speaks in physical names).
    pub fn free(
        &mut self,
        now: SimTime,
        name: PhysName,
        tag: u64,
    ) -> Result<SimTime, NamelessError> {
        self.ssd
            .free_named(now, name, Lpn(tag))
            .map(|c| c.done)
            .map_err(|_| NamelessError::StaleName { name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use requiem_ssd::config::GcPolicyKind;
    use requiem_ssd::LunId;
    use std::collections::HashMap;

    fn device() -> NamelessSsd {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        NamelessSsd::new(NamelessConfig::from(&base))
    }

    #[test]
    fn write_returns_name_and_read_round_trips() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let (done, lat, status) = d.read(w.done, w.name, 42).unwrap();
        assert!(done > w.done);
        assert!(lat > SimDuration::ZERO);
        assert_eq!(status, IoStatus::Ok);
    }

    #[test]
    fn wrong_tag_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 42).unwrap();
        let err = d.read(w.done, w.name, 43).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn free_then_read_is_stale() {
        let mut d = device();
        let w = d.write(SimTime::ZERO, 7).unwrap();
        let t = d.free(w.done, w.name, 7).unwrap();
        let err = d.read(t, w.name, 7).unwrap_err();
        assert!(matches!(err, NamelessError::StaleName { .. }));
    }

    #[test]
    fn no_mapping_table_ram() {
        let d = device();
        assert_eq!(d.mapping_table_bytes(), 0);
        // versus the page-mapped FTL on the same hardware:
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        assert!(base.mapping_table_bytes() > 50_000);
    }

    /// Fill 80 % of raw capacity, then rewrite scattered tags for twice
    /// that many writes — past raw capacity, at a utilization where GC
    /// victims cannot be fully dead — keeping the host-side index (tag →
    /// name, exactly what a DB's page table is) patched from upcalls.
    fn churn(d: &mut NamelessSsd) -> (HashMap<u64, PhysName>, SimTime) {
        fn patch(d: &mut NamelessSsd, index: &mut HashMap<u64, PhysName>) {
            for u in d.upcalls().drain() {
                if let Upcall::Migrated { tag, new, .. } = u {
                    index.insert(tag, new);
                }
            }
        }
        let mut index: HashMap<u64, PhysName> = HashMap::new();
        let raw_pages: u64 = 4 * d.config().flash.geometry.total_pages();
        let live_set = raw_pages * 8 / 10;
        let mut t = SimTime::ZERO;
        for tag in 0..live_set {
            let w = d.write(t, tag).unwrap();
            t = w.done;
            index.insert(tag, w.name);
        }
        // scattered rewrites spread invalid pages thinly over blocks,
        // forcing GC to relocate live neighbours
        let mut x = 12345u64;
        for step in 0..(live_set * 2) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tag = x % live_set;
            // old version may have migrated; drain upcalls first
            patch(d, &mut index);
            let cur = index[&tag];
            d.free(t, cur, tag).expect("free of current name");
            let w = d
                .write(t, tag)
                .unwrap_or_else(|e| panic!("step {step} tag {tag}: {e}"));
            t = w.done;
            index.insert(tag, w.name);
        }
        patch(d, &mut index);
        (index, t)
    }

    #[test]
    fn gc_migrations_emit_upcalls_and_host_stays_consistent() {
        let mut d = device();
        let (index, mut t) = churn(&mut d);
        assert!(d.metrics().gc_runs > 0, "churn must trigger GC");
        assert!(d.upcalls().delivered() > 0, "GC must have migrated pages");
        // every tag readable at its current name
        for (tag, name) in index {
            let r = d.read(t, name, tag);
            assert!(r.is_ok(), "tag {tag} unreadable at {name:?}");
            t = r.unwrap().0;
        }
    }

    #[test]
    fn nameless_collector_honours_the_configured_policy() {
        // same churn, different `gc.policy` ⇒ different GC traffic: the
        // collector reads the configuration it was built from
        let run = |policy| {
            let mut base = SsdConfig::modern();
            base.shape.channels = 2;
            base.shape.chips_per_channel = 2;
            base.gc.policy = policy;
            let mut d = NamelessSsd::new(NamelessConfig::from(&base));
            assert_eq!(d.config().gc.policy, policy);
            churn(&mut d);
            let m = d.metrics();
            assert!(m.gc_runs > 0, "churn must trigger GC");
            (m.gc_pages_moved, m.flash_erases.gc)
        };
        let (greedy, cb) = (run(GcPolicyKind::Greedy), run(GcPolicyKind::CostBenefit));
        assert_ne!(
            greedy, cb,
            "(pages moved, GC erases) identical under greedy and cost-benefit"
        );
    }

    /// From its 100th program on, every LUN fails every program: each
    /// write burns through blocks (failed program, salvage, retire) until
    /// the device has no block left and refuses. The refusal comes after
    /// that work, not at the instant the command reached the controller.
    #[test]
    fn a_write_refused_after_failed_programs_completes_after_them() {
        let mut base = SsdConfig::modern();
        base.shape.channels = 2;
        base.shape.chips_per_channel = 2;
        base.flash.geometry = requiem_flash::Geometry::new(1, 32, 8, 4096);
        for unit in 0..4 {
            base.fault = base.fault.with_program_fail(unit, (100..10_000).collect());
        }
        let mut d = NamelessSsd::new(NamelessConfig::from(&base));
        let probe = Probe::recording();
        d.attach_probe(probe.clone());
        let mut t = SimTime::ZERO;
        let refused_at = (0..1024u64)
            .find_map(|tag| match d.write(t, tag) {
                Ok(w) => {
                    t = w.done;
                    None
                }
                Err(NamelessError::DeviceFull { at }) => Some(at),
                Err(e) => panic!("tag {tag}: {e}"),
            })
            .expect("a device that cannot program must refuse");
        assert!(d.metrics().recovery.program_salvages > 0);
        let cfg = d.config();
        let reached_controller = t + cfg.host_link_time() + cfg.controller_overhead;
        assert!(
            refused_at >= reached_controller + cfg.flash.timing.program(0),
            "refused at {refused_at}, before the failed program could have ended"
        );
        let rec = probe.commands().pop().expect("the refused write");
        assert_eq!((rec.submit, rec.done), (t, Some(refused_at)));
        for e in probe.command_spans(rec.id) {
            assert!(e.end <= refused_at, "span {e:?} outlives the command");
        }
    }

    /// On `SsdConfig::modern()` with 256 tags written and settled, at one
    /// instant: write a fresh tag (its flush programs a chip), read a tag
    /// of that chip (queued behind the program) unless `skip_queued`, then
    /// read a tag of another chip on the same channel. Returns the
    /// program's LUN, the queued read and the last read.
    fn program_then_two_reads(
        skip_queued: bool,
    ) -> (LunId, Option<(SimTime, SimDuration, IoStatus)>, SimTime) {
        const TAGS: u64 = 256;
        let mut d = NamelessSsd::new(NamelessConfig::from(&SsdConfig::modern()));
        let mut t = SimTime::ZERO;
        let names: Vec<PhysName> = (0..TAGS)
            .map(|tag| {
                let w = d.write(t, tag).unwrap();
                t = w.done;
                w.name
            })
            .collect();
        let t = d.drain_time();
        let busy = d.write(t, TAGS).unwrap().name.lun;
        let shape = d.config().shape.clone();
        let tag_on = |want: &dyn Fn(LunId) -> bool| {
            (0..TAGS)
                .find(|&tag| want(names[tag as usize].lun))
                .unwrap()
        };
        let behind = tag_on(&|l| l == busy);
        let beside = tag_on(&|l| l != busy && shape.channel_of(l) == shape.channel_of(busy));
        let queued = (!skip_queued).then(|| d.read(t, names[behind as usize], behind).unwrap());
        let (last, _, _) = d.read(t, names[beside as usize], beside).unwrap();
        (busy, queued, last)
    }

    #[test]
    fn a_read_behind_a_program_does_not_hold_the_channel_or_the_link() {
        let (busy, queued, last) = program_then_two_reads(false);
        let (queued_done, queued_latency, _) = queued.unwrap();
        assert_eq!(busy, LunId(0), "the fresh write's flush programs LUN 0");
        let tprog = SsdConfig::modern().flash.timing.program_mean();
        assert!(queued_latency > tprog / 2, "{queued_latency}");
        // timed exactly as if the queued read had never been issued
        let (_, _, alone) = program_then_two_reads(true);
        assert_eq!(last, alone);
        assert!(last < queued_done);
    }

    #[test]
    fn parallel_writes_stripe_like_an_ftl() {
        let mut d = device();
        let mut names = Vec::new();
        for tag in 0..8u64 {
            names.push(d.write(SimTime::ZERO, tag).unwrap().name);
        }
        let luns: std::collections::HashSet<u32> = names.iter().map(|n| n.lun.0).collect();
        assert!(luns.len() >= 3, "writes should spread over LUNs: {luns:?}");
    }
}
