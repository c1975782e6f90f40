//! **E8 — Principle P2**: the communication abstraction and nameless
//! writes.
//!
//! Three quantities the block interface hides:
//!
//! 1. **Mapping RAM** — a page-mapped FTL burns 8 B of controller RAM per
//!    page; DFTL trades RAM for flash traffic; a nameless device needs
//!    none (the host's own index carries the names).
//! 2. **Double log-structuring** — a log-structured host (LFS, LSM, or a
//!    log-structured database file) on top of a log-structured FTL cleans
//!    twice: host cleaning traffic is also device traffic, multiplying
//!    write amplification. (*"the management of log-structured files …
//!    is today handled both at the database level and within the FTL"*.)
//! 3. **Migration upcalls** — the price of namelessness, measured.

use requiem_bench::{modern_unbuffered, note, section};
use requiem_iface::device::{tag_churn, ChurnReport};
use requiem_iface::nameless::{NamelessConfig, NamelessSsd};
use requiem_sim::table::Align;
use requiem_sim::time::SimTime;
use requiem_sim::Table;
use requiem_ssd::{Lpn, Ssd, SsdConfig};
use requiem_workload::driver::precondition_sequential;
use std::collections::{BTreeMap, VecDeque};

/// The host log's bookkeeping: which `(segment, slot)` holds each live
/// record, the append point, and the segments free to append into.
struct HostLog {
    seg_pages: u64,
    seg_live: Vec<u64>,
    loc: BTreeMap<u64, (u64, u64)>,
    where_is: BTreeMap<(u64, u64), u64>,
    free_segs: VecDeque<u64>,
    cur_seg: u64,
    cur_slot: u64,
    t: SimTime,
    dev_writes: u64,
}

impl HostLog {
    /// Append record `id` at the log head (superseding its old copy),
    /// moving to the next free segment when this one fills.
    fn append(&mut self, ssd: &mut Ssd, id: u64) {
        if let Some(prev) = self.loc.remove(&id) {
            self.seg_live[prev.0 as usize] -= 1;
            self.where_is.remove(&prev);
        }
        let at = (self.cur_seg, self.cur_slot);
        let lpn = self.cur_seg * self.seg_pages + self.cur_slot;
        self.t = ssd.write(self.t, Lpn(lpn)).expect("lfs write").done;
        self.dev_writes += 1;
        self.loc.insert(id, at);
        self.where_is.insert(at, id);
        self.seg_live[self.cur_seg as usize] += 1;
        self.cur_slot += 1;
        if self.cur_slot == self.seg_pages {
            self.cur_seg = self
                .free_segs
                .pop_front()
                .expect("host log out of segments");
            self.cur_slot = 0;
        }
    }
}

/// Host-side LFS over a block device at 75% live utilization, with greedy
/// host cleaning. Returns (host device-writes per user write, device WA).
fn run_lfs(cfg: &SsdConfig, use_trim: bool, seg_pages: u64) -> (f64, f64) {
    let mut ssd = Ssd::new(cfg.clone());
    let pages = ssd.capacity().exported_pages;
    let segments = pages / seg_pages;
    let live_target = (pages as f64 * 0.75) as u64;
    let mut free_segs: VecDeque<u64> = (0..segments).collect();
    let mut log = HostLog {
        seg_pages,
        seg_live: vec![0u64; segments as usize],
        loc: BTreeMap::new(),
        where_is: BTreeMap::new(),
        cur_seg: free_segs.pop_front().expect("segments"),
        free_segs,
        cur_slot: 0,
        t: SimTime::ZERO,
        dev_writes: 0,
    };
    let user_writes = 2 * pages;
    for id in 0..live_target {
        log.append(&mut ssd, id);
    }
    let fill_writes = log.dev_writes;
    let mut x = 3u64;
    for _ in 0..user_writes {
        while log.free_segs.len() < 4 {
            let victim = (0..segments)
                .filter(|&s| s != log.cur_seg && !log.free_segs.contains(&s))
                .min_by_key(|&s| log.seg_live[s as usize])
                .expect("victim");
            for slot in 0..seg_pages {
                if let Some(&id) = log.where_is.get(&(victim, slot)) {
                    let lpn = victim * seg_pages + slot;
                    log.t = ssd.read(log.t, Lpn(lpn)).expect("lfs clean read").done;
                    log.append(&mut ssd, id);
                }
            }
            if use_trim {
                // coordinated layers: tell the FTL the segment is dead
                for slot in 0..seg_pages {
                    let lpn = victim * seg_pages + slot;
                    log.t = ssd.trim(log.t, Lpn(lpn)).expect("trim").done;
                }
            }
            log.seg_live[victim as usize] = 0;
            log.free_segs.push_back(victim);
        }
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        log.append(&mut ssd, x % live_target);
    }
    let host_per_user = (log.dev_writes - fill_writes) as f64 / user_writes as f64;
    (host_per_user, ssd.metrics().write_amplification())
}

fn main() {
    println!("# E8 — nameless writes and the double-log-structuring penalty");

    // ------------------------------------------------------------------
    section("Mapping-table controller RAM (computed from configuration)");
    let mut tbl = Table::new(["scheme", "mapping RAM", "per exported GiB"]).align(0, Align::Left);
    let base = SsdConfig::modern();
    let exported_gib = (base.total_luns() as u64 * base.flash.geometry.total_pages()) as f64
        * base.flash.geometry.page_size as f64
        / (1u64 << 30) as f64;
    for (name, cfg_bytes) in [
        ("page map", SsdConfig::modern().mapping_table_bytes()),
        (
            "block map",
            SsdConfig {
                ftl: requiem_ssd::FtlKind::BlockMap,
                ..SsdConfig::modern()
            }
            .mapping_table_bytes(),
        ),
        (
            "DFTL (64Ki CMT)",
            SsdConfig::modern_dftl(65536).mapping_table_bytes(),
        ),
        ("nameless", 0),
    ] {
        tbl.row([
            name.to_string(),
            format!("{} KiB", cfg_bytes / 1024),
            format!("{:.0} KiB/GiB", cfg_bytes as f64 / 1024.0 / exported_gib),
        ]);
    }
    println!("{tbl}");
    note("A real 512 GiB page-mapped drive needs ~512 MiB of mapping DRAM; the nameless interface moves naming into the index the database already maintains.");

    section("The other page-map cost DFTL attacks: the power-loss boot scan");
    let mut tbl = Table::new([
        "per-LUN blocks",
        "raw capacity",
        "pages scanned",
        "boot scan time",
    ]);
    for blocks in [64u32, 128, 256] {
        let mut cfg = modern_unbuffered();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 1;
        cfg.flash.geometry = requiem_flash::Geometry::new(2, blocks, 16, 4096);
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let quiet = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
        let r = ssd.power_loss_rebuild(quiet).expect("rebuild");
        let raw = ssd.capacity().raw_pages * 4096 / (1 << 20);
        tbl.row([
            format!("{blocks}"),
            format!("{raw} MiB"),
            format!("{}", r.pages_scanned),
            format!("{}", r.duration),
        ]);
    }
    println!("{tbl}");
    note("The scan reads every programmed page's OOB area (LUN-parallel). Scaled to a 2012-era 256 GiB drive this is tens of seconds of boot time — the second reason (after RAM) vendors could not afford page maps, and another asymmetry the block interface cannot express.");

    // ------------------------------------------------------------------
    section("Random-overwrite churn: the same generic loop through each interface");
    note("One host loop (fill live set, rewrite random tags for 2 drive-fills, apply relocation upcalls) drives every device via the DeviceInterface trait — the interface is the only variable.");
    let mut tbl = Table::new([
        "device",
        "MB/s",
        "WA",
        "GC pages moved",
        "mapping RAM",
        "upcalls",
    ])
    .align(0, Align::Left);
    let mut cfg = modern_unbuffered();
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;

    fn churn_row(tbl: &mut Table, label: &str, r: ChurnReport) {
        tbl.row([
            label.to_string(),
            format!("{:.1}", r.throughput_mbs),
            format!("{:.2}", r.delta.write_amplification()),
            format!("{}", r.delta.gc_pages_moved),
            format!("{} KiB", r.delta.mapping_ram_bytes / 1024),
            if r.delta.upcalls_delivered == 0 {
                "-".to_string()
            } else {
                format!(
                    "{} ({:.3}/write)",
                    r.delta.upcalls_delivered,
                    r.delta.upcalls_delivered as f64 / r.rewrites as f64
                )
            },
        ]);
    }

    {
        let mut dev = Ssd::new(cfg.clone());
        let r = tag_churn(&mut dev, 1.0, 2, 5);
        churn_row(&mut tbl, "page-mapped FTL", r);
    }
    {
        let mut dev = NamelessSsd::new(NamelessConfig::from(&cfg));
        let r = tag_churn(&mut dev, 1.0, 2, 5);
        churn_row(&mut tbl, "nameless", r);
    }
    println!("{tbl}");
    note("Same flash, same GC machinery: throughput and WA match — the mapping table bought nothing this workload needed. The upcall rate is the entire protocol cost.");

    // ------------------------------------------------------------------
    section("Double log-structuring: host-side LFS over the FTL vs writing in place");
    note("Host LFS at 75% utilization: every user write appends to the host log; host cleaning copies live pages (each copy = device read + device write). The FTL underneath cleans too.");
    let mut tbl = Table::new([
        "design",
        "host writes to device / user write",
        "device WA",
        "end-to-end writes / user write",
    ])
    .align(0, Align::Left);

    let mut row = |design: &str, (host_per_user, dev_wa): (f64, f64)| {
        tbl.row([
            design.to_string(),
            format!("{host_per_user:.2}"),
            format!("{dev_wa:.2}"),
            format!("{:.2}", host_per_user * dev_wa),
        ]);
    };
    // (a) in-place updates straight to the page-mapped FTL
    {
        let mut ssd = Ssd::new(cfg.clone());
        let pages = ssd.capacity().exported_pages;
        let mut t = precondition_sequential(&mut ssd, pages, SimTime::ZERO);
        let user_writes = 2 * pages;
        let mut x = 3u64;
        for _ in 0..user_writes {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t = ssd.write(t, Lpn(x % pages)).expect("write").done;
        }
        let m = ssd.metrics();
        let host_per_user = (m.host_writes - pages) as f64 / user_writes as f64;
        row(
            "in-place onto page FTL",
            (host_per_user, m.write_amplification()),
        );
    }
    // (b) host LFS, segments aligned to flash blocks, layers coordinated
    // via TRIM: the FTL's cleaner goes idle — one log, one cleaner
    row(
        "host LFS, block-aligned segments, TRIM",
        run_lfs(&cfg, true, 64),
    );
    // (c) host LFS, aligned but no TRIM: sequential segment reuse still
    // lets the FTL infer death — alignment is an accidental protocol
    row(
        "host LFS, block-aligned segments, no TRIM",
        run_lfs(&cfg, false, 64),
    );
    // (d) host LFS with segments misaligned to flash blocks and no TRIM:
    // the two cleaners thrash each other — the multiplicative penalty
    row(
        "host LFS, misaligned segments, no TRIM",
        run_lfs(&cfg, false, 24),
    );
    println!("{tbl}");
    note("Expected shape: uncoordinated layers multiply — the host cleaner's traffic is amplified again by the FTL's cleaner. Coordination (TRIM, or one shared log via the communication abstraction) collapses the product: 'the management of log-structured files is today handled both at the database level and within the FTL'.");
}
