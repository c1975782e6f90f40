//! Property tests for the WAL backend split (ISSUE 7): the log's
//! durability medium must change *timing only*, never *state*.
//!
//! 1. **Crash recovery is medium-independent** — a seeded commit-heavy
//!    mix run on a flash WAL and on a PCM WAL, crashed at the end and
//!    redo-recovered, leaves every (page, slot) with the same visible
//!    owner. The two media advance the clock differently (a PCM persist
//!    is ~1µs, a flash segment force is hundreds of µs), so the set of
//!    in-flight page images lost at the crash may differ — redo replay
//!    must erase that difference.
//! 2. **Zero-latency PCM is an ordering identity** — with
//!    [`PcmTiming::zero`] the PCM WAL is the flash path minus the
//!    stalls: the durable log record sequence, the commit count, and
//!    the visible state are bit-identical to the immediate-commit flash
//!    engine.
//! 3. **The QD-1 identity survives the PCM path** — concurrency 1 +
//!    prefetch off + immediate forces on a PCM WAL replays the
//!    serialized engine bit-for-bit, clock included, exactly as
//!    exp13/14 pin for the flash WAL. `tests/qd1_law.rs` extends it to
//!    every storage manager.
//!
//! Then the log's codec, over generated record sequences of every kind
//! with images of 0–4096 bytes:
//!
//! 4. **Round trip** — decoding the bytes gives back every record, LSN
//!    and image byte that was appended.
//! 5. **A cut tears exactly one frame** — cutting the bytes at any
//!    offset decodes exactly the records wholly before the cut, then a
//!    typed [`Torn::Short`].
//! 6. **Garbage is refused, not believed** — arbitrary bytes, and valid
//!    logs with bytes overwritten, never panic the decoder, and what it
//!    accepts is a valid prefix: re-encoding the records gives back
//!    exactly the bytes they came from.
//!
//! And one law of the host log's size:
//!
//! 7. **The log keeps a bounded tail** — with checkpoints, the bytes the
//!    in-memory log holds and the writes its archive keeps do not grow
//!    with the length of the run; without them, it keeps every byte.

use std::collections::BTreeSet;

use proptest::prelude::*;
use requiem_block::StackConfig;
use requiem_db::page::PageId;
use requiem_db::wal::{decode_at, LogRecord, Lsn, Torn, Wal};
use requiem_db::{
    BlockStackBackend, Database, DbConfig, ExecConfig, GroupCommitPolicy, PcmWalConfig, TxnInput,
    WalConfig,
};
use requiem_pcm::PcmTiming;
use requiem_ssd::SsdConfig;
use requiem_workload::oltp::{OltpConfig, OltpGen};
use requiem_workload::oltp_inputs;

const DATA_PAGES: u64 = 96;
const SLOTS: u16 = 16;

fn bare_ssd() -> SsdConfig {
    let mut cfg = SsdConfig::modern();
    cfg.buffer.capacity_pages = 0;
    cfg
}

/// A small pool (steals) and frequent checkpoints (truncation) so the
/// mixes exercise every WAL call site, not just the commit force.
fn db(wal: WalConfig) -> Database<BlockStackBackend> {
    DbConfig::builder()
        .data_pages(DATA_PAGES)
        .log_pages(64)
        .buffer_frames(24)
        .checkpoint_every(16)
        .wal(wal)
        .build_stack(StackConfig::bare(1), bare_ssd())
}

fn pcm(timing: PcmTiming) -> WalConfig {
    WalConfig::Pcm(PcmWalConfig {
        bytes: 1 << 20,
        timing,
        gap_interval: 64,
    })
}

/// Commit-heavy: most accesses dirty, every transaction carries log
/// payload — the shape where the WAL medium matters most.
fn arb_txn() -> impl Strategy<Value = TxnInput> {
    (
        proptest::collection::vec((0..DATA_PAGES, 0..SLOTS, 0u8..4), 1..6),
        32u32..512,
    )
        .prop_map(|(raw, log_bytes)| TxnInput {
            accesses: raw
                .into_iter()
                .map(|(page, slot, dirty)| (page, slot, dirty > 0))
                .collect(),
            log_bytes,
        })
}

fn arb_inputs() -> impl Strategy<Value = Vec<TxnInput>> {
    proptest::collection::vec(arb_txn(), 1..40)
}

/// Every (page, slot)'s visible owner — the post-recovery ground truth.
fn owners(db: &mut Database<BlockStackBackend>) -> Vec<u64> {
    (0..DATA_PAGES)
        .flat_map(|p| (0..SLOTS).map(move |s| (p, s)))
        .map(|(p, s)| db.visible_owner(p, s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: flash-WAL and PCM-WAL recovery agree on every slot.
    #[test]
    fn crash_recovery_is_medium_independent(inputs in arb_inputs()) {
        let mut flash = db(WalConfig::Flash);
        let mut byte = db(pcm(PcmTiming::gen1()));
        for t in &inputs {
            flash.execute(&t.accesses, t.log_bytes);
            byte.execute(&t.accesses, t.log_bytes);
        }
        prop_assert_eq!(flash.stats().commits, byte.stats().commits);
        flash.crash();
        byte.crash();
        flash.recover();
        byte.recover();
        prop_assert_eq!(
            owners(&mut flash),
            owners(&mut byte),
            "redo recovery must erase the media timing difference"
        );
    }

    /// Property 2: PCM at zero latency == immediate-commit flash, as
    /// state machines (records, commits, visible slots).
    #[test]
    fn zero_latency_pcm_is_an_ordering_identity(inputs in arb_inputs()) {
        let mut flash = db(WalConfig::Flash);
        let mut byte = db(pcm(PcmTiming::zero()));
        for t in &inputs {
            flash.execute(&t.accesses, t.log_bytes);
            byte.execute(&t.accesses, t.log_bytes);
        }
        prop_assert_eq!(flash.stats().commits, byte.stats().commits);
        prop_assert!(
            flash.wal().durable_bytes() == byte.wal().durable_bytes(),
            "the durable logs must be byte-for-byte identical"
        );
        prop_assert_eq!(owners(&mut flash), owners(&mut byte));
    }

    /// Property 3: the QD-1 identity anchor holds with the WAL on PCM.
    #[test]
    fn qd1_identity_holds_on_the_pcm_wal(inputs in arb_inputs()) {
        let mut serial = db(pcm(PcmTiming::gen1()));
        for t in &inputs {
            serial.execute(&t.accesses, t.log_bytes);
        }
        let mut conc = db(pcm(PcmTiming::gen1()));
        conc.run_concurrent(&inputs, &ExecConfig::serialized());
        prop_assert_eq!(conc.now(), serial.now());
        prop_assert_eq!(conc.stats(), serial.stats());
        prop_assert_eq!(conc.txn_latency(), serial.txn_latency());
        prop_assert_eq!(conc.commit_latency(), serial.commit_latency());
        prop_assert_eq!(
            conc.wal_backend().stats().log_forces,
            serial.wal_backend().stats().log_forces
        );
        prop_assert_eq!(
            conc.wal_backend().stats().log_bytes,
            serial.wal_backend().stats().log_bytes
        );
        let (cw, sw) = (conc.wal_backend().wear(), serial.wal_backend().wear());
        prop_assert_eq!(
            cw.map(|w| w.total_line_writes),
            sw.map(|w| w.total_line_writes),
            "start-gap wear must replay identically too"
        );
    }
}

/// A record to append: kind 0–5, the value its fields are drawn from, its
/// image length (an update's).
type Spec = (u8, u64, usize);

fn arb_specs(records: usize) -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec((0..6u8, 0..u64::MAX, 0..4097usize), 0..records)
}

/// `specs` appended to a fresh log and forced: the log, and what each
/// append wrote — its LSN, its record and its image bytes.
fn written(specs: &[Spec]) -> (Wal, Vec<(Lsn, LogRecord, Vec<u8>)>) {
    let mut wal = Wal::new();
    let mut out = Vec::new();
    for &(kind, v, len) in specs {
        let (txn, page, slot) = (v, PageId(v.rotate_left(17)), v as u16);
        let image: Vec<u8> = (0..len).map(|i| (i as u64 ^ v) as u8).collect();
        let (lsn, rec) = match kind {
            0 => {
                let fill = |b: &mut [u8]| b.copy_from_slice(&image);
                let (lsn, after) = wal.append_update(txn, page, slot, len, fill);
                (
                    lsn,
                    LogRecord::Update {
                        txn,
                        page,
                        slot,
                        after,
                    },
                )
            }
            _ => {
                let rec = match kind {
                    1 => LogRecord::Delete { txn, page, slot },
                    2 => LogRecord::Commit { txn },
                    3 => LogRecord::Prepare { txn },
                    4 => LogRecord::Abort { txn },
                    _ => LogRecord::Checkpoint,
                };
                (wal.append(rec), rec)
            }
        };
        let image = if kind == 0 { image } else { Vec::new() };
        out.push((lsn, rec, image));
    }
    if let Some(&(last, ..)) = out.last() {
        wal.mark_flushed(last);
    }
    (wal, out)
}

/// Decode `bytes` from offset 0 until the first refusal: each record with
/// its LSN and its image (the tail of its frame), and the refusal.
fn decode_all(bytes: &[u8]) -> (Vec<(Lsn, LogRecord, Vec<u8>)>, Torn) {
    let mut out = Vec::new();
    let mut off = 0;
    loop {
        match decode_at(bytes, 0, off) {
            Ok((rec, len)) => {
                let end = off + len;
                let image = match rec {
                    LogRecord::Update { after, .. } => bytes[end - after.len()..end].to_vec(),
                    _ => Vec::new(),
                };
                out.push((Lsn(off as u64), rec, image));
                off = end;
            }
            Err(torn) => return (out, torn),
        }
    }
}

/// Records and images as a log writes them, from scratch.
fn reencoded(records: &[(Lsn, LogRecord, Vec<u8>)]) -> Vec<u8> {
    let mut wal = Wal::new();
    for (_, rec, image) in records {
        match *rec {
            LogRecord::Update {
                txn, page, slot, ..
            } => {
                let fill = |b: &mut [u8]| b.copy_from_slice(image);
                wal.append_update(txn, page, slot, image.len(), fill);
            }
            rec => {
                wal.append(rec);
            }
        }
    }
    if let Some((last, ..)) = records.last() {
        wal.mark_flushed(*last);
    }
    wal.durable_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 4: encode, then decode, gives back every record.
    #[test]
    fn decoding_gives_back_every_record_and_image_byte(specs in arb_specs(24)) {
        let (wal, appended) = written(&specs);
        let bytes = wal.durable_bytes();
        let (decoded, end) = decode_all(bytes);
        prop_assert_eq!(end, Torn::Short, "the log ends where its bytes do");
        prop_assert_eq!(bytes.len() as u64, wal.next_lsn().0);
        prop_assert_eq!(&decoded, &appended);
        let through_the_log: Vec<Vec<u8>> = wal
            .durable_records()
            .map(|(_, rec)| match rec {
                LogRecord::Update { after, .. } => wal.after(after).to_vec(),
                _ => Vec::new(),
            })
            .collect();
        let images: Vec<Vec<u8>> = appended.into_iter().map(|r| r.2).collect();
        prop_assert_eq!(through_the_log, images);
    }

    /// Property 5: a cut at any offset loses exactly the record it cuts.
    #[test]
    fn a_cut_anywhere_keeps_exactly_the_whole_records_before_it(specs in arb_specs(10)) {
        let (wal, appended) = written(&specs);
        let bytes = wal.durable_bytes();
        for cut in 0..=bytes.len() {
            let (decoded, torn) = decode_all(&bytes[..cut]);
            let whole = appended
                .iter()
                .take_while(|(lsn, rec, _)| lsn.0 + u64::from(rec.encoded_len()) <= cut as u64)
                .count();
            prop_assert_eq!(decoded.len(), whole, "cut at {}", cut);
            prop_assert_eq!(&decoded[..], &appended[..whole], "cut at {}", cut);
            prop_assert_eq!(torn, Torn::Short, "cut at {}", cut);
        }
    }

    /// Property 6: no byte string panics the decoder, and what it accepts
    /// is a valid prefix.
    #[test]
    fn garbage_decodes_to_a_valid_prefix(
        specs in arb_specs(8),
        writes in proptest::collection::vec((0..usize::MAX, 0..256u16), 0..4),
        noise in proptest::collection::vec(0..256u16, 0..96),
    ) {
        let (wal, _) = written(&specs);
        let mut bytes = wal.durable_bytes().to_vec();
        for &(at, byte) in &writes {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte as u8;
            }
        }
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        for bytes in [bytes, noise] {
            let (decoded, _) = decode_all(&bytes);
            let valid = reencoded(&decoded);
            prop_assert_eq!(&bytes[..valid.len()], &valid[..]);
        }
    }
}

/// Law 7 on `oltp_qd16`'s shape (the benchmark's: 4 096 pages, a
/// 512-frame pool, 16 slots, groups of 16), run for 10 000 and for
/// 40 000 transactions with a checkpoint every 500 commits: four times
/// the run leaves the log holding no more bytes, and the archive one
/// write per slot written, not one per write. With no checkpoints the
/// log trims nothing.
#[test]
fn the_log_keeps_a_bounded_tail_however_long_the_run() {
    const PAGES: u64 = 4096;
    let run = |txns: u64, checkpoint_every: u64| {
        let b = DbConfig::builder()
            .data_pages(PAGES)
            .log_pages(512)
            .checkpoint_every(checkpoint_every)
            .buffer_frames(512)
            .concurrency(16)
            .group(GroupCommitPolicy::batched(16));
        let gen_cfg = OltpConfig {
            data_pages: PAGES,
            theta: 0.8,
            ..OltpConfig::default()
        };
        let inputs = oltp_inputs(&mut OltpGen::new(gen_cfg, 11), txns);
        let mut db = b.build_stack(StackConfig::blk_mq(1), SsdConfig::modern());
        db.run_concurrent(&inputs, &b.exec_config());
        let writes: Vec<(u64, u16)> = inputs
            .iter()
            .flat_map(|t| t.accesses.iter().filter(|a| a.2))
            .map(|a| (a.0 % PAGES, a.1 % SLOTS))
            .collect();
        let slots: BTreeSet<(u64, u16)> = writes.iter().copied().collect();
        let wal = db.wal();
        let held = wal.next_lsn().0 - wal.base().0;
        (
            held,
            wal.archived(),
            writes.len(),
            slots.len(),
            wal.next_lsn(),
        )
    };
    let (short, archived_short, _, slots_short, _) = run(10_000, 500);
    let (long, archived_long, writes_long, slots_long, _) = run(40_000, 500);
    assert!(
        long <= short,
        "the log holds {long} bytes after 40 000 txns, {short} after 10 000"
    );
    assert!(archived_short <= slots_short && archived_long <= slots_long);
    assert!(
        archived_long * 4 < writes_long,
        "{archived_long} archived writes of {writes_long}"
    );
    let (untrimmed, archived, _, _, end) = run(10_000, 0);
    assert_eq!((untrimmed, archived), (end.0, 0), "no checkpoint, no trim");
    assert!(short * 100 < untrimmed, "{short} of {untrimmed} bytes held");
}
