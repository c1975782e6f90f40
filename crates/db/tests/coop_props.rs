//! Property tests for the cooperating-logs storage manager (ISSUE 6):
//!
//! 1. **No page is lost or misdirected across arbitrary `Migrated`
//!    upcall interleavings** — for any sequence of writes, steals,
//!    atomic batches, frees, forces, truncations, and (batched) reads
//!    on a device churned to the edge of garbage collection, every page
//!    the host believes bound is readable at its current handle. A read
//!    is validated by the device's back-pointer check, so a clean
//!    status is proof the handle still names *that* page — migrations
//!    may have moved it arbitrarily, the upcall patches must have kept
//!    up exactly.
//! 2. **Fixed-seed bit-identical replay** — the same input sequence
//!    driven twice through fresh managers produces byte-identical
//!    device metrics, page tables, and clocks. Determinism is what
//!    makes the identity anchor (E14d) and the CI double-run diff
//!    meaningful for the nameless path too.

use proptest::prelude::*;
use requiem_db::wal::Lsn;
use requiem_db::{
    CoopLogBackend, Database, DbConfig, ExecConfig, GroupCommitPolicy, PageId, PersistenceBackend,
    PrefetchConfig, TxnInput, WalBackend, PAGE_SIZE,
};
use requiem_iface::nameless::NamelessConfig;
use requiem_sim::time::SimTime;
use requiem_sim::{IoStatus, Probe};
use requiem_ssd::SsdConfig;
use std::collections::BTreeSet;

const DATA_PAGES: u64 = 900;
const LOG_PAGES: u64 = 500;

/// One LUN: the live set (data + WAL names) sits at ~68% of physical
/// capacity, so uniform churn keeps the device collector active and
/// `Migrated` upcalls flowing through every operation below.
fn one_lun() -> NamelessConfig {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 1;
    NamelessConfig::from(&cfg)
}

/// A churned manager plus its WAL port and the running LSN ledger the
/// force protocol needs (appends must arrive in LSN order).
struct Churned {
    b: CoopLogBackend,
    w: Box<dyn WalBackend>,
    lsn: u64,
    t: SimTime,
}

impl Churned {
    /// Enlist `bytes` at the next LSN and force to it.
    fn force(&mut self, bytes: u32) {
        self.lsn += u64::from(bytes);
        self.w.append(Lsn(self.lsn), bytes);
        let forced = self.w.force(self.t, Lsn(self.lsn)).settle();
        self.t = forced.unwrap_or_else(|failed| failed.done);
    }
}

/// A backend churned to the GC edge: every data page written once, then
/// a deterministic uniform rewrite storm with periodic log traffic.
fn churned_backend() -> Churned {
    let mut b = CoopLogBackend::new(one_lun(), DATA_PAGES, LOG_PAGES);
    let w = b.make_wal();
    let mut c = Churned {
        b,
        w,
        lsn: 0,
        t: SimTime::ZERO,
    };
    for p in 0..DATA_PAGES {
        c.t = c.b.page_write(c.t, PageId(p));
    }
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..1500u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        c.t = c.b.page_write(c.t, PageId((x >> 33) % DATA_PAGES));
        if i % 8 == 0 {
            c.force(PAGE_SIZE as u32);
        }
    }
    c
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Steal(u64),
    Batch(Vec<u64>),
    Free(u64),
    Force(u32),
    Truncate,
    Read(u64),
    BatchedReads(Vec<u64>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..DATA_PAGES).prop_map(Op::Write),
        (0..DATA_PAGES).prop_map(Op::Steal),
        proptest::collection::vec(0..DATA_PAGES, 1..12).prop_map(Op::Batch),
        (0..DATA_PAGES).prop_map(Op::Free),
        (64u32..2 * PAGE_SIZE as u32).prop_map(Op::Force),
        proptest::strategy::Just(Op::Truncate),
        (0..DATA_PAGES).prop_map(Op::Read),
        proptest::collection::vec(0..DATA_PAGES, 1..8).prop_map(Op::BatchedReads),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 20..120)
}

/// Drive one op sequence; returns the host's model of which pages
/// should be bound. The clock advances in `c.t`.
fn drive(c: &mut Churned, ops: &[Op]) -> BTreeSet<u64> {
    let mut bound: BTreeSet<u64> = (0..DATA_PAGES).collect();
    for op in ops {
        match op {
            Op::Write(p) => {
                c.t = c.b.page_write(c.t, PageId(*p));
                bound.insert(*p);
            }
            Op::Steal(p) => {
                c.t = c.b.steal_write(c.t, PageId(*p));
                bound.insert(*p);
            }
            Op::Batch(ps) => {
                let pages: Vec<PageId> = ps.iter().map(|&p| PageId(p)).collect();
                c.t = c.b.page_batch(c.t, &pages);
                bound.extend(ps.iter().copied());
            }
            Op::Free(p) => {
                c.b.free_page(c.t, PageId(*p));
                bound.remove(p);
            }
            Op::Force(bytes) => {
                c.force(*bytes);
            }
            Op::Truncate => {
                // everything but the last two segments is outside the
                // redo horizon — the checkpoint shape
                let horizon = c.w.stats().log_bytes.saturating_sub(2 * PAGE_SIZE as u64);
                c.w.truncate(c.t, horizon);
            }
            Op::Read(p) => {
                let (done, _status) = c.b.page_read(c.t, PageId(*p));
                c.t = c.t.max(done);
            }
            Op::BatchedReads(ps) => {
                let pages: Vec<PageId> = ps.iter().map(|&p| PageId(p)).collect();
                let tags = c.b.submit_reads(c.t, &pages);
                let mut seen = 0usize;
                while seen < tags.len() {
                    if let Some(next) = c.b.next_read_done() {
                        c.t = c.t.max(next);
                    }
                    let drained = c.b.poll(c.t).len();
                    assert!(drained > 0, "batched reads must all complete");
                    seen += drained;
                }
            }
        }
    }
    bound
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: whatever the interleaving of host operations and
    /// device migrations, the page table never loses or misdirects a
    /// page.
    #[test]
    fn no_page_lost_or_misdirected(ops in arb_ops()) {
        let mut c = churned_backend();
        let bound = drive(&mut c, &ops);
        prop_assert_eq!(
            c.b.rejected_writes(),
            0,
            "eager frees must keep the device out of DeviceFull"
        );
        prop_assert_eq!(
            c.b.table().len() as u64,
            bound.len() as u64,
            "host model and page table must agree on what is bound"
        );
        for &p in &bound {
            let handle = c.b.table().lookup(p);
            prop_assert!(handle.is_some(), "page {} lost its handle", p);
            let (done, status) = c.b.page_read(c.t, PageId(p));
            c.t = c.t.max(done);
            prop_assert!(
                status != IoStatus::Rejected,
                "page {} unreadable at its current handle: the upcall \
                 patches fell behind the device's migrations",
                p
            );
        }
    }

    /// Property 2: the same sequence replays bit-identically — device
    /// metrics, page tables, relocation counts, clocks, everything.
    #[test]
    fn fixed_seed_replay_is_bit_identical(ops in arb_ops()) {
        let run = || {
            let mut c = churned_backend();
            drive(&mut c, &ops);
            (
                format!("{:?}", c.b.dev().metrics()),
                format!("{:?}", c.b.table().iter().collect::<Vec<_>>()),
                format!("{:?}", c.b.segs().iter().collect::<Vec<_>>()),
                format!("{:?}", c.b.stats()),
                format!("{:?}", c.w.stats()),
                c.b.relocations_patched(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}

/// The interleaving property, pinned to a sequence guaranteed to make
/// the collector migrate: proptest explores breadth, this anchors depth
/// (a run where `relocations_patched` is provably non-zero).
#[test]
fn migrations_actually_happen_and_patch_cleanly() {
    let mut c = churned_backend();
    let mut x = 7u64;
    for i in 0..1200u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        c.t = c.b.page_write(c.t, PageId((x >> 33) % DATA_PAGES));
        if i % 16 == 0 {
            c.force(PAGE_SIZE as u32);
        }
        if i % 300 == 299 {
            let horizon = c.w.stats().log_bytes.saturating_sub(2 * PAGE_SIZE as u64);
            c.w.truncate(c.t, horizon);
        }
    }
    assert!(
        c.b.relocations_patched() > 0,
        "the churn must provoke device GC into migrating live pages"
    );
    assert_eq!(c.b.rejected_writes(), 0);
    for p in 0..DATA_PAGES {
        let (done, status) = c.b.page_read(c.t, PageId(p));
        c.t = c.t.max(done);
        assert!(
            status != IoStatus::Rejected,
            "page {p} unreadable after {} patched migrations",
            c.b.relocations_patched()
        );
    }
}

/// A write the device has no room for is refused only after the page has
/// crossed the host link and the controller has looked for a place; the
/// manager's clock must not run ahead of that. The device here promises
/// the host every raw page (`op_ratio` 0), so once they are all live an
/// out-of-place rewrite has nowhere to go. Each write path is checked
/// against the refused command's own record on the probe.
#[test]
fn a_refused_write_completes_no_earlier_than_the_device_refused_it() {
    let mut cfg = SsdConfig::modern();
    cfg.shape.channels = 1;
    cfg.shape.chips_per_channel = 1;
    cfg.op_ratio = 0.0;
    let raw = cfg.flash.geometry.total_pages();
    let mut b = CoopLogBackend::new(NamelessConfig::from(&cfg), raw - 8, 8);
    assert_eq!(b.dev().usable_tags(), raw);
    let mut w = b.make_wal();
    let mut t = SimTime::ZERO;
    for page in 0..raw - 8 {
        t = b.page_write(t, PageId(page));
    }
    for seg in 1..=8u64 {
        w.append(Lsn(seg * PAGE_SIZE as u64), PAGE_SIZE as u32);
        t = w
            .force(t, Lsn(seg * PAGE_SIZE as u64))
            .settle()
            .expect("the log fits");
    }
    assert_eq!(b.rejected_writes(), 0, "every promised page fits");

    let probe = Probe::recording();
    b.attach_probe(probe.clone());
    // the instant the device refused the last command it saw
    let refused_at = |b: &CoopLogBackend, so_far: u64| {
        assert_eq!(b.rejected_writes(), so_far, "the full device refuses");
        let rec = probe.commands().pop().expect("a command on the record");
        assert_eq!(rec.kind, "write");
        let at = rec.done.expect("the refused write was closed");
        assert!(at > t, "a refusal costs the link transfer and the overhead");
        at
    };
    let so_far = b.rejected_writes();
    let done = b.steal_write(t, PageId(0));
    assert!(done >= refused_at(&b, so_far + 1), "steal returned {done}");
    let done = b.page_batch(t, &[PageId(1), PageId(2)]);
    assert!(done >= refused_at(&b, so_far + 3), "batch returned {done}");
    // the batch's refusals reached the device after `t`: submit from there
    let t = done;
    let lsn = Lsn(8 * PAGE_SIZE as u64 + 512);
    w.append(lsn, 512);
    let failed = w
        .force(t, lsn)
        .settle()
        .expect_err("the full device refuses");
    assert_eq!(failed.status, IoStatus::Rejected);
    assert!(
        failed.done >= refused_at(&b, so_far + 4),
        "force returned {}",
        failed.done
    );
}

/// Determinism must survive the *engine* too: the full database over
/// the cooperating-logs manager replays a fixed transaction sequence
/// bit-identically (the nameless half of E14's CI double-run diff).
#[test]
fn database_on_coop_logs_replays_bit_identically() {
    let inputs: Vec<TxnInput> = (0..60)
        .map(|i: u64| TxnInput {
            accesses: (0..4)
                .map(|j| {
                    let page = (i * 37 + j * 11) % 128;
                    (page, ((page % 16) as u16), j % 2 == 0)
                })
                .collect(),
            log_bytes: 200 + (i as u32 % 300),
        })
        .collect();
    let run = || {
        let mut cfg = SsdConfig::modern();
        cfg.shape.channels = 1;
        cfg.shape.chips_per_channel = 2;
        let backend = CoopLogBackend::new(NamelessConfig::from(&cfg), 128, 64);
        let mut db = Database::new(
            DbConfig {
                data_pages: 128,
                buffer_frames: 48,
                checkpoint_every: 20,
                ..DbConfig::default()
            },
            backend,
        );
        db.load();
        db.run_concurrent(
            &inputs,
            &ExecConfig {
                concurrency: 4,
                prefetch: PrefetchConfig::off(),
                group: GroupCommitPolicy::batched(4),
            },
        );
        (
            db.now(),
            format!("{:?}", db.stats()),
            format!("{:?}", db.backend().dev().metrics()),
            db.backend().relocations_patched(),
        )
    };
    assert_eq!(run(), run());
}
