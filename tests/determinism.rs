//! The reproducibility contract: identical seeds and configurations must
//! produce bit-identical simulations — the property uFLIP-style "sound
//! measurements" (the paper's ref [3]) are built on.

use requiem::sim::time::SimTime;
use requiem::ssd::{Lpn, Ssd, SsdConfig};
use requiem::workload::driver::{run_closed_loop, IoMix};
use requiem::workload::pattern::{AddressPattern, Pattern};

fn run_once(seed: u64) -> (u64, u64, u64, u64, f64) {
    let mut cfg = SsdConfig::modern();
    cfg.seed = seed;
    cfg.shape.channels = 2;
    cfg.shape.chips_per_channel = 2;
    let mut ssd = Ssd::new(cfg);
    let pages = ssd.capacity().exported_pages;
    let mut t = SimTime::ZERO;
    for lpn in 0..pages {
        t = ssd.write(t, Lpn(lpn)).expect("fill").done;
    }
    let mut pat = AddressPattern::new(Pattern::UniformRandom, pages, seed);
    let start = ssd.drain_time();
    let r = run_closed_loop(
        &mut ssd,
        &mut pat,
        IoMix::mixed(0.3),
        8,
        2 * pages,
        seed,
        start,
    );
    let m = ssd.metrics();
    (
        m.flash_programs.total(),
        m.flash_erases.total(),
        m.gc_pages_moved,
        ssd.drain_time().as_nanos(),
        r.iops,
    )
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.0, b.0, "programs");
    assert_eq!(a.1, b.1, "erases");
    assert_eq!(a.2, b.2, "gc pages");
    assert_eq!(a.3, b.3, "drain time (ns)");
    assert_eq!(a.4.to_bits(), b.4.to_bits(), "iops bit pattern");
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1);
    let b = run_once(2);
    // the random pattern differs, so fine-grained outcomes must diverge
    assert_ne!(a.3, b.3, "two seeds produced identical timelines");
}

#[test]
fn oltp_generation_replays_identically() {
    use requiem::workload::oltp::{OltpConfig, OltpGen};
    let mut a = OltpGen::new(OltpConfig::default(), 7);
    let mut b = OltpGen::new(OltpConfig::default(), 7);
    for _ in 0..500 {
        let (x, y) = (a.next_txn(), b.next_txn());
        assert_eq!(x.accesses, y.accesses);
        assert_eq!(x.log_bytes, y.log_bytes);
    }
}

/// The input stream every `oltp_*` benchmark fingerprint and every
/// checked-in OLTP table is a function of, pinned as literals: a sampler
/// change that moves it moves all of them.
#[test]
fn zipfian_input_stream_is_pinned() {
    use requiem::workload::oltp::{OltpConfig, OltpGen};
    let mut p = AddressPattern::new(Pattern::Zipfian { theta: 0.8 }, 4096, 11);
    assert_eq!(
        p.take_vec(16),
        [
            1997, 1921, 3902, 1039, 2706, 189, 1233, 2489, 2803, 2738, 3971, 926, 2595, 3167, 3754,
            558
        ]
    );
    let mut g = OltpGen::new(OltpConfig::default(), 11);
    let txns: Vec<Vec<(u64, bool)>> = (0..4)
        .map(|_| {
            let t = g.next_txn();
            t.accesses.iter().map(|a| (a.page, a.dirty)).collect()
        })
        .collect();
    assert_eq!(
        txns,
        [
            [(1997, false), (1921, false), (3902, false), (1039, true)],
            [(2706, true), (189, false), (1233, false), (2489, true)],
            [(2803, true), (2738, true), (3971, true), (926, true)],
            [(2595, false), (3167, true), (3754, true), (558, true)],
        ]
    );
}

/// The pinned stream is also the right distribution: rank 1 of a zipfian
/// over n pages draws `1/H_{n,theta}` of the accesses.
#[test]
fn zipfian_hottest_rank_share_matches_the_harmonic() {
    const SPAN: u64 = 4096;
    const DRAWS: u32 = 200_000;
    let theta = 0.8;
    let mut p = AddressPattern::new(Pattern::Zipfian { theta }, SPAN, 11);
    let mut counts = vec![0u32; SPAN as usize];
    for _ in 0..DRAWS {
        counts[p.next_addr() as usize] += 1;
    }
    let harmonic: f64 = (1..=SPAN).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let share = f64::from(*counts.iter().max().expect("non-empty")) / f64::from(DRAWS);
    let want = 1.0 / harmonic;
    assert!(
        (share / want - 1.0).abs() < 0.05,
        "hottest page drew {share:.5} of the accesses, 1/H is {want:.5}"
    );
}

/// The storage manager's simulated numbers, pinned as literals: a small
/// `oltp_qd16`-shaped run over the block stack (steals, coalesced
/// fetches, checkpoints), then a crash and a recovery. A change to how
/// the engine *finds* a page's state must not move any of them.
#[test]
fn db_executor_run_is_pinned() {
    use requiem::block::StackConfig;
    use requiem::db::{DbConfig, GroupCommitPolicy, PersistenceBackend};
    use requiem::workload::oltp::{OltpConfig, OltpGen};
    use requiem::workload::oltp_inputs;

    let b = DbConfig::builder()
        .data_pages(256)
        .log_pages(64)
        .buffer_frames(32)
        .checkpoint_every(600)
        .concurrency(8)
        .group(GroupCommitPolicy::batched(8));
    let gen_cfg = OltpConfig {
        data_pages: 256,
        ..OltpConfig::default()
    };
    let inputs = oltp_inputs(&mut OltpGen::new(gen_cfg, 11), 2_000);
    let mut db = b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
    let report = db.run_concurrent(&inputs, &b.exec_config());
    assert_eq!(db.now().as_nanos(), 428_047_112);
    assert_eq!(
        (report.txns, report.forces, report.coalesced),
        (2000, 250, 224)
    );
    assert_eq!(
        format!("{:?}", db.stats()),
        "EngineStats { commits: 2000, checkpoints: 3, read_stall: SimDuration(1488993432), \
         steal_stall: SimDuration(88454864), commit_stall: SimDuration(1750592504), \
         media_recoveries: 0, media_failures: 0, wal_force_failures: 0 }"
    );
    assert_eq!(
        format!("{:?}", db.pool_stats()),
        "PoolStats { hits: 8000, misses: 0, steals: 2844, clean_evictions: 2166, coalesced: 224 }"
    );
    assert_eq!(
        format!("{:?}", db.backend().stats()),
        "BackendStats { page_writes: 305, steal_writes: 2844, page_reads: 5042, frees: 0, \
         batches: 3, logical_writes: 3149 }"
    );
    let w = db.wal_backend().stats();
    assert_eq!(
        (w.log_forces, w.log_bytes, w.log_trims),
        (2273, 1_514_656, 189)
    );

    // every 125th transaction's first written record, across a crash
    const OWNERS: [u64; 16] = [
        1994, 1974, 1206, 1995, 1894, 1994, 1745, 1895, 1854, 1988, 1968, 1864, 1823, 1626, 1990,
        1876,
    ];
    let samples: Vec<(u64, u16)> = inputs
        .iter()
        .step_by(125)
        .filter_map(|t| t.accesses.iter().find(|a| a.2).map(|a| (a.0, a.1)))
        .collect();
    let owners = |db: &mut requiem::db::Database<_>| -> Vec<u64> {
        samples
            .iter()
            .map(|&(p, s)| db.visible_owner(p, s))
            .collect()
    };
    assert_eq!(owners(&mut db), OWNERS);
    db.crash();
    assert_eq!(
        db.recover(),
        30,
        "records replayed past the last checkpoint"
    );
    assert_eq!(owners(&mut db), OWNERS);
    assert_eq!(db.now().as_nanos(), 429_096_316);
}

/// The controller's simulated numbers, pinned as literals: a small
/// page-mapped device filled, overwritten twice over (so garbage
/// collection, victim choice, write placement and the write buffer all
/// run) with reads of just-written and long-settled pages mixed in, once
/// under each victim policy. A changed victim or placement tie-break, or
/// a residency set that answers a read differently, moves them.
#[test]
fn ssd_controller_run_is_pinned() {
    use requiem::ssd::GcPolicyKind;

    let run = |policy: GcPolicyKind| -> String {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 2;
        cfg.shape.chips_per_channel = 2;
        cfg.gc.policy = policy;
        let mut ssd = Ssd::new(cfg);
        let pages = ssd.capacity().exported_pages;
        let mut lpns: Vec<u64> = (0..pages).collect();
        lpns.extend(
            AddressPattern::new(Pattern::UniformRandom, pages, 11).take_vec(2 * pages as usize),
        );
        let mut t = SimTime::ZERO;
        for (i, &lpn) in lpns.iter().enumerate() {
            t = ssd.write(t, Lpn(lpn)).expect("write").done;
            if i % 7 == 3 {
                // the page just admitted: still in buffer RAM
                t = ssd.read(t, Lpn(lpn)).expect("read").done;
            }
            if i % 11 == 5 {
                // a page written long ago: flushed, or swept
                t = ssd.read(t, Lpn(lpns[i / 2])).expect("read").done;
            }
        }
        let m = ssd.metrics();
        format!(
            "drain {} writes {} reads {} gc_runs {} moved {} flash_reads {:?} programs {:?} \
             erases {:?} buffer_hits {} stalls {} wear {:?}",
            ssd.drain_time().as_nanos(),
            m.host_writes,
            m.host_reads,
            m.gc_runs,
            m.gc_pages_moved,
            m.flash_reads,
            m.flash_programs,
            m.flash_erases,
            m.buffer_read_hits,
            ssd.buffer_stalls(),
            ssd.wear_spread(),
        )
    };
    assert_eq!(
        run(GcPolicyKind::Greedy),
        "drain 27446177304 writes 21504 reads 5027 gc_runs 3680 moved 45273 \
         flash_reads CauseCounts { host: 1907, gc: 45273, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         programs CauseCounts { host: 21504, gc: 45273, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         erases CauseCounts { host: 0, gc: 3680, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         buffer_hits 3120 stalls 61 wear (3, 11, 7.1875)"
    );
    assert_eq!(
        run(GcPolicyKind::CostBenefit),
        "drain 27481658120 writes 21504 reads 5027 gc_runs 3813 moved 47387 \
         flash_reads CauseCounts { host: 1907, gc: 47387, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         programs CauseCounts { host: 21504, gc: 47387, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         erases CauseCounts { host: 0, gc: 3813, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         buffer_hits 3120 stalls 61 wear (5, 9, 7.447265625)"
    );
}

/// The nameless device's simulated numbers, pinned as literals: a small
/// device written past its raw capacity with exact-name frees, so the
/// collector migrates live pages and says so in upcalls; then every 64th
/// tag read back by name. What `read` and `free` check a name against,
/// what GC finds live and what a relocation read costs all move them.
/// Write-through (`capacity_pages` 0): the literals are the ones pinned
/// before the nameless device carried its hardware's write buffer, so
/// their passing is the proof that capacity 0 is that device bit for bit.
#[test]
fn nameless_device_run_is_pinned() {
    use requiem::iface::comm::Upcall;
    use requiem::iface::nameless::{NamelessConfig, NamelessError, NamelessSsd};

    let mut base = SsdConfig::modern();
    base.buffer.capacity_pages = 0;
    base.shape.channels = 2;
    base.shape.chips_per_channel = 2;
    let mut dev = NamelessSsd::new(NamelessConfig::from(&base));
    let live = dev.usable_tags();
    let mut t = SimTime::ZERO;
    // the host's index: tag -> current name, patched from upcalls
    let mut index = Vec::new();
    for tag in 0..live {
        let w = dev.write(t, tag).expect("fill");
        t = w.done;
        index.push(w.name);
    }
    // the last migration the host hears of: its old name is stale, its
    // new one is current only because the upcall patched the index
    let mut last_move = None;
    let mut patch = |dev: &mut NamelessSsd, index: &mut Vec<_>| {
        for u in dev.upcalls().drain() {
            if let Upcall::Migrated { tag, old, new, .. } = u {
                index[tag as usize] = new;
                last_move = Some((tag, old, new));
            }
        }
    };
    let churn = AddressPattern::new(Pattern::UniformRandom, live, 11).take_vec(2 * live as usize);
    for tag in churn {
        patch(&mut dev, &mut index);
        t = dev
            .free(t, index[tag as usize], tag)
            .expect("free of the current name");
        let w = dev.write(t, tag).expect("rewrite");
        t = w.done;
        index[tag as usize] = w.name;
    }
    patch(&mut dev, &mut index);

    let (moved, old, new) = last_move.expect("churn past capacity migrates");
    assert_eq!(
        dev.read(t, old, moved),
        Err(NamelessError::StaleName { name: old })
    );
    assert_eq!(index[moved as usize], new);
    for tag in (0..live).step_by(64).chain([moved]) {
        let (done, _, status) = dev.read(t, index[tag as usize], tag).expect("current name");
        assert!(status.is_success(), "tag {tag}: {status:?}");
        t = done;
    }
    let m = dev.metrics();
    assert_eq!(
        format!(
            "clock {} upcalls {} gc_runs {} moved {} flash_reads {:?} programs {:?} \
             erases {:?} host r/w/free {}/{}/{}",
            t.as_nanos(),
            dev.upcalls_pending().delivered(),
            m.gc_runs,
            m.gc_pages_moved,
            m.flash_reads,
            m.flash_programs,
            m.flash_erases,
            m.host_reads,
            m.host_writes,
            m.host_trims,
        ),
        "clock 73435110376 upcalls 44876 gc_runs 3653 moved 44876 \
         flash_reads CauseCounts { host: 113, gc: 44876, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         programs CauseCounts { host: 21504, gc: 44876, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         erases CauseCounts { host: 0, gc: 3653, wear_level: 0, merge: 0, translation: 0, recovery: 0 } \
         host r/w/free 114/21504/14336"
    );
}

/// The shard coordinator's simulated numbers, pinned as literals: four
/// executor shards over one device, a tenth of the transactions crossing
/// shards (prepare votes, decision commits, the mailbox), checkpoints
/// landing mid-run, then a crash of the whole deployment and the union
/// recovery. A change to *when* the coordinator looks at a shard must not
/// move which shard steps next, so none of these may move.
#[test]
fn sharded_run_is_pinned() {
    use requiem::block::StackConfig;
    use requiem::db::{DbConfig, GroupCommitPolicy, PersistenceBackend};
    use requiem::workload::{txn_to_input, ShardedOltpConfig, ShardedOltpGen};

    const SHARDS: usize = 4;
    const PAGES: u64 = 256;
    let b = DbConfig::builder()
        .data_pages(PAGES)
        .log_pages(64)
        .buffer_frames(64)
        .checkpoint_every(150)
        .shards(SHARDS)
        .cross_shard_ratio(0.10)
        .concurrency(4)
        .group(GroupCommitPolicy::batched(4));
    let gen_cfg = ShardedOltpConfig {
        clients: 512,
        shards: SHARDS,
        cross_shard_ratio: b.cross_ratio(),
        data_pages: PAGES,
        ..ShardedOltpConfig::default()
    };
    let mut gen = ShardedOltpGen::new(gen_cfg, 11);
    let inputs: Vec<_> = (0..2_000).map(|_| txn_to_input(&gen.next_txn())).collect();
    let mut db = b.build_sharded_stack(StackConfig::blk_mq(SHARDS as u32), SsdConfig::modern());
    let report = db.run(&inputs, &b.exec_config());

    assert_eq!(
        (
            report.committed,
            report.cross_txns,
            report.aborted,
            report.prepare_failures,
            report.forces,
            report.makespan.as_nanos(),
        ),
        (2000, 210, 0, 0, 651, 269_520_236)
    );
    assert_eq!(
        format!("{:?}", db.ledger().stats()),
        "LedgerStats { cross_txns: 210, prepares: 609, prepare_failures: 0, committed: 210, \
         aborted: 0 }"
    );
    let per_shard: Vec<String> = (0..SHARDS)
        .map(|s| {
            let shard = db.shard(s);
            let (e, w) = (shard.stats(), shard.wal_backend().stats());
            format!(
                "end {} commits {} checkpoints {} stalls {}/{}/{} reads {} steals {} forces {}",
                report.per_shard[s].makespan.as_nanos(),
                e.commits,
                e.checkpoints,
                e.read_stall.as_nanos(),
                e.steal_stall.as_nanos(),
                e.commit_stall.as_nanos(),
                shard.backend().stats().page_reads,
                shard.backend().stats().steal_writes,
                w.log_forces,
            )
        })
        .collect();
    assert_eq!(
        per_shard,
        [
            "end 269520236 commits 567 checkpoints 3 stalls 589182684/31349656/323194920 \
             reads 1263 steals 765 forces 776",
            "end 269484292 commits 429 checkpoints 2 stalls 518943832/27578776/265792332 \
             reads 1079 steals 638 forces 639",
            "end 269505988 commits 493 checkpoints 3 stalls 542964516/28139860/286364336 \
             reads 1155 steals 655 forces 663",
            "end 269256036 commits 511 checkpoints 3 stalls 497271176/30158788/306928144 \
             reads 1163 steals 679 forces 695",
        ]
    );

    // the first written record of sixteen transactions spread over the
    // run, across a crash
    const OWNERS: [u64; 16] = [
        1939, 1820, 1970, 1991, 1923, 1910, 1505, 1933, 1827, 1153, 1968, 1680, 1927, 1983, 1962,
        1959,
    ];
    let samples: Vec<(u64, u16)> = inputs
        .iter()
        .step_by(100)
        .filter_map(|t| t.accesses.iter().find(|a| a.2).map(|a| (a.0, a.1)))
        .take(16)
        .collect();
    let owners = |db: &mut requiem::db::ShardedDb<_>| -> Vec<u64> {
        samples
            .iter()
            .map(|&(p, s)| {
                let shard = db.shard_of(p);
                db.shard_mut(shard)
                    .visible_owner((p % PAGES) / SHARDS as u64, s)
            })
            .collect()
    };
    assert_eq!(owners(&mut db), OWNERS);
    db.crash();
    assert_eq!(
        db.recover(),
        65,
        "records replayed past the last checkpoints"
    );
    assert_eq!(owners(&mut db), OWNERS);
    assert_eq!(db.shard(0).now().as_nanos(), 275_155_396);
}

/// `oltp_coop_pcm`'s stack at pin size, over the nameless device of
/// `base`'s hardware: 1536 data pages / 32 frames / PCM WAL / concurrency
/// 16 / a force per commit / a checkpoint every 600 commits / 2 000
/// seed-11 transactions. Returns the inputs, the run database and the
/// executor's report.
fn coop_pcm_pin_run(
    base: &SsdConfig,
) -> (
    Vec<requiem::db::TxnInput>,
    requiem::db::Database<requiem::db::CoopLogBackend>,
    requiem::db::ExecReport,
) {
    use requiem::db::{DbConfig, GroupCommitPolicy, WalConfig};
    use requiem::iface::nameless::NamelessConfig;
    use requiem::workload::oltp::{OltpConfig, OltpGen};
    use requiem::workload::oltp_inputs;

    const PAGES: u64 = 1536;
    let b = DbConfig::builder()
        .data_pages(PAGES)
        .log_pages(64)
        .buffer_frames(32)
        .checkpoint_every(600)
        .concurrency(16)
        .group(GroupCommitPolicy::immediate())
        .wal(WalConfig::pcm());
    let gen_cfg = OltpConfig {
        data_pages: PAGES,
        ..OltpConfig::default()
    };
    let inputs = oltp_inputs(&mut OltpGen::new(gen_cfg, 11), 2_000);
    let mut db = b.build_coop(NamelessConfig::from(base));
    let report = db.run_concurrent(&inputs, &b.exec_config());
    (inputs, db, report)
}

/// The vision path's simulated numbers, pinned as literals: the
/// cooperating-logs manager on a nameless device with the WAL on a PCM
/// DIMM (`oltp_coop_pcm`'s stack), a pool small enough to steal, a force
/// per commit, checkpoints landing mid-run — on a one-LUN device three
/// quarters full of data pages, so the collector migrates live pages and
/// the upcalls patch the stored names (the benchmark's device never gets
/// that far: its `iface.relocations_patched` reads 0). Then a crash and a
/// recovery. A change to how the host *stores* a name, or to who owns a
/// page image, must not move any of them.
#[test]
fn coop_pcm_run_is_pinned() {
    use requiem::db::PersistenceBackend;

    let mut base = SsdConfig::modern();
    base.buffer.capacity_pages = 0;
    base.shape.channels = 1;
    base.shape.chips_per_channel = 1;
    let (inputs, mut db, report) = coop_pcm_pin_run(&base);
    assert_eq!(db.now().as_nanos(), 10_134_895_828);
    assert_eq!(
        (report.txns, report.forces, report.coalesced),
        (2000, 663, 253)
    );
    assert_eq!(
        format!("{:?}", db.stats()),
        "EngineStats { commits: 2000, checkpoints: 3, read_stall: SimDuration(2734834915), \
         steal_stall: SimDuration(8514988726), commit_stall: SimDuration(12732180), \
         media_recoveries: 0, media_failures: 0, wal_force_failures: 0 }"
    );
    assert_eq!(
        format!("{:?}", db.pool_stats()),
        "PoolStats { hits: 8000, misses: 0, steals: 3446, clean_evictions: 3121, coalesced: 253 }"
    );
    assert_eq!(
        format!("{:?}", db.backend().stats()),
        "BackendStats { page_writes: 1596, steal_writes: 3446, page_reads: 6599, frees: 0, \
         batches: 3, logical_writes: 5042 }"
    );
    {
        // every data page has a stored name; GC moved 4045 of them under
        // the host, and every move found the name it expected
        let names = db.backend().table();
        assert_eq!(
            (names.len(), names.patched(), names.unmatched()),
            (1536, 4045, 0)
        );
        assert_eq!(db.backend().relocations_patched(), 4045);
    }
    // the PCM log: one persist per force, nothing on the flash device
    let w = db.wal_backend().stats();
    assert_eq!(
        (w.log_forces, w.log_bytes, w.logical_writes),
        (1361, 836_256, 0)
    );
    let wear = db.wal_backend().wear().expect("a PCM WAL reports wear");
    assert_eq!(
        (wear.total_line_writes, wear.max_line_writes, wear.gap_moves),
        (14_287, 3, 141)
    );

    // every 125th transaction's first written record, across a crash
    const OWNERS: [u64; 16] = [
        1980, 1974, 802, 941, 1894, 1994, 1580, 1505, 1001, 1909, 1916, 1560, 1501, 1626, 1964,
        1876,
    ];
    let samples: Vec<(u64, u16)> = inputs
        .iter()
        .step_by(125)
        .filter_map(|t| t.accesses.iter().find(|a| a.2).map(|a| (a.0, a.1)))
        .collect();
    let owners = |db: &mut requiem::db::Database<_>| -> Vec<u64> {
        samples
            .iter()
            .map(|&(p, s)| db.visible_owner(p, s))
            .collect()
    };
    assert_eq!(owners(&mut db), OWNERS);
    db.crash();
    assert_eq!(
        db.recover(),
        22,
        "records replayed past the last checkpoint"
    );
    assert_eq!(owners(&mut db), OWNERS);
    assert_eq!(db.now().as_nanos(), 10_134_971_903);
}

/// The same run on `SsdConfig::modern()` as it is — the benchmark's
/// device: 8 x 4 LUNs behind the 256-slot battery-backed write buffer the
/// nameless device now keeps. A steal is acknowledged from RAM and its
/// program stripes over the array behind the acknowledgement, so the
/// steal stall must be under a tenth of the write-through pin's above and
/// under a twentieth of this same array's with the buffer taken out
/// (3.19 s against 0.071 s: the acknowledgement's link transfer takes the
/// gap before read-outs booked ahead of it, DESIGN §5). The one-LUN
/// device of the pin above would not show it: its single LUN is the
/// bottleneck with or without RAM in front.
#[test]
fn coop_pcm_buffered_run_is_pinned() {
    use requiem::db::PersistenceBackend;

    let base = SsdConfig::modern();
    assert_eq!(base.buffer.capacity_pages, 256);
    let (inputs, mut db, report) = coop_pcm_pin_run(&base);
    assert_eq!(db.now().as_nanos(), 214_279_598);
    assert_eq!(
        (report.txns, report.forces, report.coalesced),
        (2000, 1627, 269)
    );
    assert_eq!(
        format!("{:?}", db.stats()),
        "EngineStats { commits: 2000, checkpoints: 3, read_stall: SimDuration(2564871334), \
         steal_stall: SimDuration(70854744), commit_stall: SimDuration(4996105), \
         media_recoveries: 0, media_failures: 0, wal_force_failures: 0 }"
    );
    assert_eq!(
        format!("{:?}", db.backend().stats()),
        "BackendStats { page_writes: 1593, steal_writes: 3415, page_reads: 6528, frees: 0, \
         batches: 3, logical_writes: 5008 }"
    );
    {
        // 36 writes (checkpoint batches outrun 256 slots) waited for a
        // slot; 425 reads found their page still in RAM
        let dev = db.backend().dev();
        assert_eq!(
            (dev.buffer_stalls(), dev.metrics().buffer_read_hits),
            (36, 425)
        );
    }
    let steal_stall = db.stats().steal_stall;
    assert!(steal_stall.as_nanos() * 10 < 8_514_991_771);
    let mut write_through = base.clone();
    write_through.buffer.capacity_pages = 0;
    let (_, unbuffered, _) = coop_pcm_pin_run(&write_through);
    assert!(
        steal_stall * 20 < unbuffered.stats().steal_stall,
        "steal stall {steal_stall} buffered, {} write-through",
        unbuffered.stats().steal_stall
    );

    // every 125th transaction's first written record, across a crash:
    // the owners of the write-through run but two, which commit in
    // another order here
    const OWNERS: [u64; 16] = [
        1980, 1974, 802, 941, 1894, 1994, 1593, 1517, 1001, 1909, 1916, 1560, 1501, 1626, 1964,
        1876,
    ];
    let samples: Vec<(u64, u16)> = inputs
        .iter()
        .step_by(125)
        .filter_map(|t| t.accesses.iter().find(|a| a.2).map(|a| (a.0, a.1)))
        .collect();
    let owners = |db: &mut requiem::db::Database<_>| -> Vec<u64> {
        samples
            .iter()
            .map(|&(p, s)| db.visible_owner(p, s))
            .collect()
    };
    assert_eq!(owners(&mut db), OWNERS);
    db.crash();
    assert_eq!(
        db.recover(),
        24,
        "records replayed past the last checkpoint"
    );
    assert_eq!(owners(&mut db), OWNERS);
    assert_eq!(db.now().as_nanos(), 214_356_608);
}
