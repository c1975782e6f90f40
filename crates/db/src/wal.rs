//! The write-ahead log: redo records, LSNs, group commit.
//!
//! A physiological redo log in the ARIES tradition, cut down to what the
//! experiments need: page-update redo records and commit records. The log
//! object is pure state; *forcing* it to stable storage is the backend's
//! job — which is precisely where the legacy and vision designs diverge
//! (§3 P1: log writes are the canonical synchronous pattern).
//!
//! The log is its bytes: one append-only buffer of framed records, each
//! at the byte offset that is its LSN. [`LogRecord`] is the decoded view
//! of a frame ([`decode_at`]), an [`ImageRef`] names an after-image inside
//! its own `Update` frame, and a crash cuts the buffer to its durable
//! prefix ([`Wal::crash`]) — all that recovery reads. A checkpoint trims
//! the prefix no reader needs any more (`Wal::trim`): the buffer then
//! starts at its `base` LSN, what media redo still wants of the cut bytes
//! is folded into a per-slot archive, and the ids of the cut cross-shard
//! decisions are kept until no participant's recovery can ask for them.
//! A frame, every field little-endian:
//!
//! | bytes | field | in |
//! |---:|---|---|
//! | 8 | LSN: the frame's own offset | every frame |
//! | 4 | length of the whole frame, header included | every frame |
//! | 1 | kind: 1 update, 2 delete, 3 commit, 4 prepare, 5 abort, 6 checkpoint | every frame |
//! | 3 | reserved, zero (a checksum's place) | every frame |
//! | 8 | transaction | all but a checkpoint |
//! | 8 | page | update, delete |
//! | 2 | slot | update, delete |
//! | 4 | image length *n* | update |
//! | *n* | after-image | update |

use std::mem::size_of;

use requiem_sim::time::{SimDuration, SimTime};

use crate::page::{PageId, PageImage};

/// A log sequence number (byte offset in the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

/// A record image in the payload of the `Update` frame that carries it:
/// where in the log it starts and how long it is. Only the log that
/// issued a handle can read it back ([`Wal::after`]), until a crash cuts
/// its frame off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageRef {
    off: u64,
    len: u32,
}

impl ImageRef {
    /// Length of the image in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    /// Redo information for one page update: replace the record in
    /// slot `slot` of `page` with `after`.
    Update {
        /// The transaction.
        txn: u64,
        /// Target page.
        page: PageId,
        /// Target slot.
        slot: u16,
        /// After-image of the record, in this record's own frame
        /// ([`Wal::append_update`]).
        after: ImageRef,
    },
    /// A record was deleted.
    Delete {
        /// The transaction.
        txn: u64,
        /// Target page.
        page: PageId,
        /// Target slot.
        slot: u16,
    },
    /// Transaction commit.
    Commit {
        /// The transaction.
        txn: u64,
    },
    /// Two-phase prepare: this shard's updates for the global
    /// transaction are complete and durable once the record is forced.
    /// A transaction with a `Prepare` but no `Commit` anywhere is *not*
    /// committed — recovery discards it.
    Prepare {
        /// The global transaction.
        txn: u64,
    },
    /// Two-phase abort: a participant's prepare force failed and the
    /// coordinator rolled the global transaction back. Purely
    /// informational for recovery (no `Commit` exists either way).
    Abort {
        /// The global transaction.
        txn: u64,
    },
    /// Checkpoint: all pages with LSN ≤ this record's LSN are durable.
    Checkpoint,
}

// Field sizes of a frame (module doc), the one source of both
// `encoded_len` and the codec.
const LSN_BYTES: usize = size_of::<u64>();
const LEN_BYTES: usize = size_of::<u32>();
const KIND_BYTES: usize = size_of::<u8>();
const RESERVED_BYTES: usize = 3;
const TXN_BYTES: usize = size_of::<u64>();
const PAGE_BYTES: usize = size_of::<u64>();
const SLOT_BYTES: usize = size_of::<u16>();
const IMAGE_LEN_BYTES: usize = size_of::<u32>();

/// A frame's header: LSN, length, kind, reserved bytes.
const HEADER_BYTES: usize = LSN_BYTES + LEN_BYTES + KIND_BYTES + RESERVED_BYTES;
/// An `Update` frame before its image: header, transaction, page, slot,
/// image length.
pub(crate) const UPDATE_HEAD_BYTES: usize =
    HEADER_BYTES + TXN_BYTES + PAGE_BYTES + SLOT_BYTES + IMAGE_LEN_BYTES;
/// A `Commit`, `Prepare` or `Abort` frame.
pub(crate) const TXN_RECORD_BYTES: usize = HEADER_BYTES + TXN_BYTES;
const DELETE_BYTES: usize = HEADER_BYTES + TXN_BYTES + PAGE_BYTES + SLOT_BYTES;
/// The longest image a frame's `u32` length can carry.
const MAX_IMAGE_BYTES: usize = u32::MAX as usize - UPDATE_HEAD_BYTES;

const UPDATE: u8 = 1;
const DELETE: u8 = 2;
const COMMIT: u8 = 3;
const PREPARE: u8 = 4;
const ABORT: u8 = 5;
const CHECKPOINT: u8 = 6;

impl LogRecord {
    /// Serialized size in bytes (header + payload), used for log-space
    /// accounting and force sizing: the length of the record's frame.
    pub fn encoded_len(&self) -> u32 {
        let (_, fixed) = self.kind();
        let image = match self {
            LogRecord::Update { after, .. } => after.len(),
            _ => 0,
        };
        (fixed + image) as u32
    }

    /// The kind byte, and the frame's length without an image.
    fn kind(&self) -> (u8, usize) {
        match self {
            LogRecord::Update { .. } => (UPDATE, UPDATE_HEAD_BYTES),
            LogRecord::Delete { .. } => (DELETE, DELETE_BYTES),
            LogRecord::Commit { .. } => (COMMIT, TXN_RECORD_BYTES),
            LogRecord::Prepare { .. } => (PREPARE, TXN_RECORD_BYTES),
            LogRecord::Abort { .. } => (ABORT, TXN_RECORD_BYTES),
            LogRecord::Checkpoint => (CHECKPOINT, HEADER_BYTES),
        }
    }

    /// What redo does with a page write: `(txn, page, slot, after)`, the
    /// after-image `None` for a delete. `None` for every other record.
    pub fn page_write(&self) -> Option<(u64, PageId, u16, Option<ImageRef>)> {
        match *self {
            LogRecord::Update {
                txn,
                page,
                slot,
                after,
            } => Some((txn, page, slot, Some(after))),
            LogRecord::Delete { txn, page, slot } => Some((txn, page, slot, None)),
            _ => None,
        }
    }

    /// Append this record's frame, at `lsn`, up to its image (an
    /// `Update`'s image bytes are the caller's to append).
    fn encode_head(&self, lsn: u64, out: &mut Vec<u8>) {
        let (kind, fixed) = self.kind();
        let mut head = [0u8; UPDATE_HEAD_BYTES];
        let mut at = 0;
        let mut put = |field: &[u8]| {
            head[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        };
        put(&lsn.to_le_bytes());
        put(&self.encoded_len().to_le_bytes());
        put(&[kind]);
        put(&[0; RESERVED_BYTES]);
        match *self {
            LogRecord::Update {
                txn,
                page,
                slot,
                after,
            } => {
                put(&txn.to_le_bytes());
                put(&page.0.to_le_bytes());
                put(&slot.to_le_bytes());
                put(&after.len.to_le_bytes());
            }
            LogRecord::Delete { txn, page, slot } => {
                put(&txn.to_le_bytes());
                put(&page.0.to_le_bytes());
                put(&slot.to_le_bytes());
            }
            LogRecord::Commit { txn } | LogRecord::Prepare { txn } | LogRecord::Abort { txn } => {
                put(&txn.to_le_bytes());
            }
            LogRecord::Checkpoint => {}
        }
        debug_assert_eq!(at, fixed, "{self:?} encodes its own length");
        out.extend_from_slice(&head[..at]);
    }
}

/// Why the bytes at an offset are not a whole record — what a torn or a
/// foreign tail decodes to. A scan of the log stops at the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Torn {
    /// The frame, or its header, runs past the end of the bytes.
    Short,
    /// The header's LSN is not the frame's offset.
    Lsn,
    /// The kind byte names no record.
    Kind,
    /// The length is not that of a record of its kind.
    Len,
    /// A reserved header byte is not zero.
    Reserved,
}

/// Little-endian fields read in order off the front of a slice.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    /// The next `N` bytes, zero-filled past the end of the slice.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut field = [0u8; N];
        let n = N.min(self.0.len());
        field[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        field
    }
}

/// Decode the frame at byte `off` of `bytes`, whose first byte is the
/// log's LSN `base`: the record and the frame's length. Never panics —
/// `bytes` stand for whatever the medium holds — and accepts exactly what
/// [`Wal`] writes: the frame's LSN is `base + off`, its kind is known, its
/// length is exact for the kind, its reserved bytes are zero, and it ends
/// within `bytes`.
pub fn decode_at(bytes: &[u8], base: u64, off: usize) -> Result<(LogRecord, usize), Torn> {
    let frame = bytes.get(off..).unwrap_or_default();
    if frame.len() < HEADER_BYTES {
        return Err(Torn::Short);
    }
    let mut f = Fields(frame);
    let lsn = u64::from_le_bytes(f.take());
    let len = u32::from_le_bytes(f.take()) as usize;
    let [kind] = f.take();
    let reserved: [u8; RESERVED_BYTES] = f.take();
    if Some(lsn) != base.checked_add(off as u64) {
        return Err(Torn::Lsn);
    }
    if reserved != [0; RESERVED_BYTES] {
        return Err(Torn::Reserved);
    }
    let fixed = match kind {
        UPDATE => UPDATE_HEAD_BYTES,
        DELETE => DELETE_BYTES,
        COMMIT | PREPARE | ABORT => TXN_RECORD_BYTES,
        CHECKPOINT => HEADER_BYTES,
        _ => return Err(Torn::Kind),
    };
    if len < fixed || (kind != UPDATE && len != fixed) {
        return Err(Torn::Len);
    }
    if len > frame.len() {
        return Err(Torn::Short);
    }
    let mut f = Fields(&frame[HEADER_BYTES..len]);
    let txn = u64::from_le_bytes(f.take());
    let rec = match kind {
        UPDATE | DELETE => {
            let page = PageId(u64::from_le_bytes(f.take()));
            let slot = u16::from_le_bytes(f.take());
            if kind == DELETE {
                LogRecord::Delete { txn, page, slot }
            } else {
                let image = u32::from_le_bytes(f.take());
                if len - fixed != image as usize {
                    return Err(Torn::Len);
                }
                let off = lsn + fixed as u64;
                let after = ImageRef { off, len: image };
                LogRecord::Update {
                    txn,
                    page,
                    slot,
                    after,
                }
            }
        }
        COMMIT => LogRecord::Commit { txn },
        PREPARE => LogRecord::Prepare { txn },
        ABORT => LogRecord::Abort { txn },
        _ => LogRecord::Checkpoint,
    };
    Ok((rec, len))
}

/// The log: framed records back to back (module doc) from its first kept
/// byte on, its horizon, and what a trim folded out of the bytes it cut.
#[derive(Debug, Default)]
pub struct Wal {
    /// The records from `base` on, each at its LSN less `base`. A crash
    /// cuts everything past the durable prefix, a trim the prefix below a
    /// checkpoint.
    bytes: Vec<u8>,
    /// The LSN of `bytes[0]`; every byte below it was trimmed.
    base: u64,
    /// Every record at or below this LSN is durable.
    flushed: Option<Lsn>,
    /// The LSNs of the kept decision commits ([`Wal::append_decision`]),
    /// ascending.
    decisions: Vec<u64>,
    /// The ids of the decision commits trims cut, `[older, newer]`: a
    /// participant's recovery may still replay their writes, until
    /// [`Wal::age_decisions`] drops the older generation.
    trimmed_decisions: [Vec<u64>; 2],
    /// The writes below `base` media redo replays.
    archive: Archive,
}

impl Wal {
    /// New, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `bytes` more bytes of records, so a run that can
    /// count its inputs grows the log once: an estimate nothing depends on.
    pub fn reserve(&mut self, bytes: usize) {
        self.bytes.reserve(bytes);
    }

    /// Append `txn`'s update of `(page, slot)` with a `len`-byte
    /// after-image, which `fill` writes in place (it starts zeroed).
    /// Returns the record's LSN and the image's handle. Not yet durable.
    pub fn append_update(
        &mut self,
        txn: u64,
        page: PageId,
        slot: u16,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> (Lsn, ImageRef) {
        assert!(len <= MAX_IMAGE_BYTES, "an image of {len} bytes");
        let (lsn, len) = (self.next_lsn(), len as u32);
        let off = lsn.0 + UPDATE_HEAD_BYTES as u64;
        let after = ImageRef { off, len };
        let rec = LogRecord::Update {
            txn,
            page,
            slot,
            after,
        };
        rec.encode_head(lsn.0, &mut self.bytes);
        let at = (off - self.base) as usize;
        self.bytes.resize(at + after.len(), 0);
        fill(&mut self.bytes[at..]);
        (lsn, after)
    }

    /// Append a record other than an `Update` (that is
    /// [`Self::append_update`]); returns its LSN. Not yet durable.
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        let image = matches!(rec, LogRecord::Update { .. });
        assert!(!image, "an update is appended with its image");
        let lsn = self.next_lsn();
        rec.encode_head(lsn.0, &mut self.bytes);
        lsn
    }

    /// Append the decision commit of cross-shard transaction `txn`: a
    /// `Commit` whose id a trim keeps, because other shards' logs hold
    /// the transaction's writes. Returns its LSN. Not yet durable.
    pub(crate) fn append_decision(&mut self, txn: u64) -> Lsn {
        let lsn = self.append(LogRecord::Commit { txn });
        self.decisions.push(lsn.0);
        lsn
    }

    /// Drop the older generation of trimmed decision ids, and age the
    /// newer. Called each time every shard of the deployment has
    /// checkpointed since the last call: a decision cut before the last
    /// call has by now every participant's share below that participant's
    /// last checkpoint, where no recovery reads it (DESIGN §5).
    pub(crate) fn age_decisions(&mut self) {
        let [older, newer] = &mut self.trimmed_decisions;
        std::mem::swap(older, newer);
        newer.clear();
    }

    /// The bytes behind a handle this log issued.
    ///
    /// # Panics
    /// Panics on a handle outside the kept bytes — it came from another
    /// log, or names a write a trim cut off.
    pub fn after(&self, image: ImageRef) -> &[u8] {
        let kept = image.off.checked_sub(self.base).map(|off| off as usize);
        let range = kept.map(|off| off..off + image.len());
        match range.and_then(|r| self.bytes.get(r)) {
            Some(bytes) => bytes,
            None => panic!(
                "image {image:?} is not from this log (bytes {}..{})",
                self.base,
                self.next_lsn().0
            ),
        }
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.base + self.bytes.len() as u64)
    }

    /// The LSN of the first byte the log still holds: a trim cut every
    /// byte below it.
    pub fn base(&self) -> Lsn {
        Lsn(self.base)
    }

    /// How many `(page, slot)` writes the trims archived.
    pub fn archived(&self) -> usize {
        self.archive.len()
    }

    /// Durable horizon.
    pub fn flushed(&self) -> Option<Lsn> {
        self.flushed
    }

    /// Mark everything up to `lsn` durable (called after every force,
    /// whatever its status: the engine counts a failed force but does
    /// not hold the horizon back). The horizon never moves backwards: a
    /// force to an LSN already covered — a group's members enlisted
    /// before a steal forced the whole log — leaves it where it is.
    pub fn mark_flushed(&mut self, lsn: Lsn) {
        self.flushed = self.flushed.max(Some(lsn));
    }

    /// Where the durable prefix ends: after the record at the (inclusive)
    /// horizon, which may have been appended after a steal marked it.
    pub fn durable_end(&self) -> u64 {
        self.flushed.map_or(self.base, |Lsn(horizon)| {
            let at = decode_at(&self.bytes, self.base, (horizon - self.base) as usize);
            (horizon + at.map_or(0, |(_, len)| len as u64)).min(self.next_lsn().0)
        })
    }

    /// The durable bytes the log holds, from `base` on: what a crash
    /// leaves of them.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.bytes[..(self.durable_end() - self.base) as usize]
    }

    /// The durable records the log holds, decoded — what survives a
    /// crash, from `base` on.
    pub fn durable_records(&self) -> impl Iterator<Item = (Lsn, LogRecord)> + '_ {
        frames(self.durable_bytes(), self.base)
    }

    /// Every record the log holds, decoded, durable or not.
    pub fn records(&self) -> impl Iterator<Item = (Lsn, LogRecord)> + '_ {
        frames(&self.bytes, self.base)
    }

    /// The transactions whose `Commit` record survives a crash, ascending
    /// — the set whose updates redo replays. Of the trimmed ones only the
    /// decisions a participant may still ask for are listed: a local
    /// transaction's writes lie below its `Commit`, so no recovery asks
    /// for it once a trim cut its `Commit`.
    pub fn durable_commits(&self) -> Vec<u64> {
        let mut txns = self.trimmed_decisions.concat();
        txns.extend(self.durable_records().filter_map(|(_, r)| match r {
            LogRecord::Commit { txn } => Some(txn),
            _ => None,
        }));
        txns.sort_unstable();
        txns
    }

    /// The latest checkpoint LSN at or below the durable horizon.
    pub fn last_durable_checkpoint(&self) -> Option<Lsn> {
        self.durable_records()
            .filter(|(_, r)| matches!(r, LogRecord::Checkpoint))
            .map(|(lsn, _)| lsn)
            .last()
    }

    /// The durable page writes from `from` on by a transaction in
    /// `committed` (ascending), in LSN order: `(lsn, page, slot,
    /// after-image)`, the image `None` for a delete.
    pub(crate) fn committed_writes<'a>(
        &'a self,
        from: Lsn,
        committed: &'a [u64],
    ) -> impl Iterator<Item = (Lsn, PageId, u16, Option<&'a [u8]>)> + 'a {
        let records = self.durable_records().skip_while(move |r| r.0 < from);
        records.filter_map(move |(lsn, rec)| {
            let (txn, page, slot, after) = rec.page_write()?;
            committed.binary_search(&txn).ok()?;
            Some((lsn, page, slot, after.map(|a| self.after(a))))
        })
    }

    /// Media redo of `page` onto `image`, a formatted page: every write of
    /// it by a transaction whose `Commit` is durable here, in LSN order —
    /// the archive's, then the kept bytes', each above the archived LSNs.
    pub(crate) fn rebuild_page(&self, page: PageId, image: &mut PageImage) {
        self.archive.replay(page, image);
        let committed = self.durable_commits();
        for (lsn, p, slot, after) in self.committed_writes(Lsn(0), &committed) {
            if p == page && image.lsn() < lsn.0 {
                image.redo(slot, after, lsn.0);
            }
        }
    }

    /// Cut the log below `to`, a record boundary at or below the durable
    /// horizon that no reader will decode again — neither crash recovery,
    /// which starts at the last durable checkpoint, nor a handle. The cut
    /// records fold into what recovery still asks of them: the writes of
    /// transactions whose `Commit` this log holds into the archive, the
    /// newest per slot, for media redo; the ids of the decision commits
    /// into the trimmed decisions, for the participants' recovery. A cut
    /// local `Commit` leaves nothing: its writes were cut with it. The
    /// writes of every other transaction are dropped: `to` lies
    /// at or below the first record of each transaction still open — one
    /// whose `Commit` is not durable yet — so those had closed without a
    /// `Commit` here, and media redo replays none of them. (A transaction
    /// logs its writes before its `Commit`.)
    ///
    /// # Panics
    /// Panics when `to` lies outside `base..=` the durable horizon.
    pub(crate) fn trim(&mut self, to: Lsn) {
        let horizon = self.flushed.unwrap_or(Lsn(0));
        assert!(
            self.base <= to.0 && to <= horizon,
            "a trim to {to:?} outside {}..={horizon:?}",
            self.base
        );
        // one pass over the durable records: every `Commit`, and the
        // page writes of the cut
        let (mut commits, mut writes) = (Vec::new(), Vec::new());
        for (lsn, rec) in self.durable_records() {
            match rec {
                LogRecord::Commit { txn } => commits.push((lsn, txn)),
                _ if lsn < to => writes.extend(rec.page_write().map(|w| (lsn, w))),
                _ => {}
            }
        }
        let mut committed: Vec<u64> = commits.iter().map(|c| c.1).collect();
        committed.sort_unstable();
        for (lsn, (txn, page, slot, after)) in writes {
            if committed.binary_search(&txn).is_ok() {
                let after = after.map(|a| &self.bytes[(a.off - self.base) as usize..][..a.len()]);
                self.archive.fold(page, slot, lsn.0, after);
            }
        }
        let cut = self.decisions.partition_point(|&lsn| lsn < to.0);
        let decided = |c: &&(Lsn, u64)| self.decisions[..cut].binary_search(&c.0 .0).is_ok();
        let ids = commits.iter().take_while(|c| c.0 < to).filter(decided);
        self.trimmed_decisions[1].extend(ids.map(|c| c.1));
        self.decisions.drain(..cut);
        self.bytes.drain(..(to.0 - self.base) as usize);
        self.base = to.0;
    }

    /// Simulated crash: the log keeps its durable prefix and loses the
    /// rest, so every later read decodes what the medium held.
    pub fn crash(&mut self) {
        let durable = self.durable_end();
        self.bytes.truncate((durable - self.base) as usize);
        let kept = self.decisions.partition_point(|&lsn| lsn < durable);
        self.decisions.truncate(kept);
    }
}

/// The records of `bytes`, whose first byte is the log's LSN `base`,
/// decoded up to the first that is not whole.
fn frames(bytes: &[u8], base: u64) -> impl Iterator<Item = (Lsn, LogRecord)> + '_ {
    let mut off = 0;
    std::iter::from_fn(move || {
        let (rec, len) = decode_at(bytes, base, off).ok()?;
        off += len;
        Some((Lsn(base + (off - len) as u64), rec))
    })
}

/// One archived write: a slot's newest below the log's `base`.
#[derive(Debug, Clone, Copy)]
struct Archived {
    slot: u16,
    lsn: u64,
    /// The after-image, a range of [`Archive::images`]; `None` deleted
    /// the record.
    image: Option<(usize, usize)>,
    /// The page's next archived slot, an index into [`Archive::more`].
    next: Option<usize>,
}

/// The writes a trim cut that media redo still replays: the newest of
/// each `(page, slot)`, as [`PageImage::redo`] leaves it.
#[derive(Debug, Default)]
struct Archive {
    /// Per page id (dense, as the engine's are): its first archived slot,
    /// kept in place so that a trim's lookup of a page's only slot — the
    /// common case — reads one entry.
    pages: Vec<Option<Archived>>,
    /// The pages' other archived slots, chained from their first.
    more: Vec<Archived>,
    /// The after-images back to back. A slot's newer image overwrites its
    /// older one in place when the lengths agree, as the engine's do.
    images: Vec<u8>,
}

impl Archive {
    /// Fold `page`'s write of `slot` at `lsn`: `after` replaces the
    /// record, `None` deletes it, and a write over a deleted record
    /// changes only the LSN.
    fn fold(&mut self, page: PageId, slot: u16, lsn: u64, after: Option<&[u8]>) {
        let at = page.0 as usize;
        if self.pages.len() <= at {
            self.pages.resize(at + 1, None);
        }
        let images = &mut self.images;
        let mut keep = |a: &[u8]| {
            images.extend_from_slice(a);
            (images.len() - a.len(), images.len())
        };
        let Some(first) = self.pages[at].as_mut() else {
            let image = after.map(keep);
            self.pages[at] = Some(Archived {
                slot,
                lsn,
                image,
                next: None,
            });
            return;
        };
        let mut write = &mut *first;
        while write.slot != slot {
            let Some(i) = write.next else {
                // a slot of its page not archived yet: chain it in
                let image = after.map(keep);
                let next = first.next.replace(self.more.len());
                self.more.push(Archived {
                    slot,
                    lsn,
                    image,
                    next,
                });
                return;
            };
            write = &mut self.more[i];
        }
        write.lsn = lsn;
        match (write.image, after) {
            (Some((from, to)), Some(a)) if to - from == a.len() => {
                images[from..to].copy_from_slice(a)
            }
            (Some(_), Some(a)) => write.image = Some(keep(a)),
            (_, None) => write.image = None,
            (None, Some(_)) => {}
        }
    }

    /// How many slots are archived.
    fn len(&self) -> usize {
        self.pages.iter().flatten().count() + self.more.len()
    }

    /// Redo `page`'s archived writes onto `image`, in LSN order.
    fn replay(&self, page: PageId, image: &mut PageImage) {
        let mut writes = Vec::new();
        let mut link = self.pages.get(page.0 as usize).copied().flatten();
        while let Some(write) = link {
            writes.push(write);
            link = write.next.map(|i| self.more[i]);
        }
        writes.sort_unstable_by_key(|w| w.lsn);
        for w in writes {
            let after = w.image.map(|(from, to)| &self.images[from..to]);
            image.redo(w.slot, after, w.lsn);
        }
    }
}

// ---------------------------------------------------------------------
// Group commit: shared log forces with a deterministic flush policy
// ---------------------------------------------------------------------

/// When the next shared log force happens. Both triggers are
/// deterministic functions of enlisted state and virtual time — no
/// wall-clock timers.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCommitPolicy {
    /// Force once this many commits are enlisted (≥ 1).
    pub max_txns: u32,
    /// Force once the oldest enlisted commit has waited this long
    /// ([`SimDuration::ZERO`] disables the deadline trigger).
    pub max_wait: SimDuration,
}

impl GroupCommitPolicy {
    /// Force on every commit — the serialized engine's behaviour, and
    /// the policy under which the QD-1 identity holds.
    pub fn immediate() -> Self {
        GroupCommitPolicy {
            max_txns: 1,
            max_wait: SimDuration::ZERO,
        }
    }

    /// Batch up to `n` commits per force, with no deadline trigger
    /// (idle engines still force: the executor forces an undersized group
    /// whenever nothing else can make progress).
    pub fn batched(n: u32) -> Self {
        GroupCommitPolicy {
            max_txns: n.max(1),
            max_wait: SimDuration::ZERO,
        }
    }
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        Self::immediate()
    }
}

/// What an enlisted member means once its force lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemberKind {
    /// A local (single-shard) commit: the force completes the slot's
    /// transaction.
    #[default]
    Commit,
    /// A two-phase prepare: the force makes this shard's prepare record
    /// durable; the slot frees, and the coordinator is told the vote.
    Prepare,
    /// The coordinator's decision commit for a cross-shard transaction:
    /// slot-less (`slot == usize::MAX`), counted as one global commit.
    Decide,
}

/// One commit enlisted for the next shared force.
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// Executor slot cookie (opaque to the WAL); `usize::MAX` for
    /// slot-less [`MemberKind::Decide`] members.
    pub slot: usize,
    /// How the member resolves when the force lands.
    pub kind: MemberKind,
    /// The committing transaction.
    pub txn: u64,
    /// Its commit record's LSN.
    pub lsn: Lsn,
    /// When the commit record was appended (per-txn wait starts here).
    pub enlisted: SimTime,
    /// When the transaction started (for end-to-end latency).
    pub started: SimTime,
    /// Detached probe command id for the commit span (0 = not probed).
    pub probe_id: u64,
    /// True when the transaction dirtied nothing.
    pub read_only: bool,
}

/// Commits waiting for the next shared log force.
#[derive(Debug, Default)]
pub struct GroupCommit {
    members: Vec<GroupMember>,
}

impl GroupCommit {
    /// Empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enlist one commit.
    pub fn enlist(&mut self, member: GroupMember) {
        self.members.push(member);
    }

    /// True when nothing is enlisted.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Enlist instant of the oldest member.
    fn oldest(&self) -> Option<SimTime> {
        self.members.iter().map(|m| m.enlisted).min()
    }

    /// True when `policy` wants a force at `now`.
    pub fn due(&self, policy: &GroupCommitPolicy, now: SimTime) -> bool {
        if self.members.is_empty() {
            return false;
        }
        if self.members.len() as u32 >= policy.max_txns.max(1) {
            return true;
        }
        if policy.max_wait > SimDuration::ZERO {
            if let Some(oldest) = self.oldest() {
                return now.since(oldest) >= policy.max_wait;
            }
        }
        false
    }

    /// Instant the deadline trigger will fire (`None` when disabled or
    /// empty).
    pub fn deadline(&self, policy: &GroupCommitPolicy) -> Option<SimTime> {
        if policy.max_wait == SimDuration::ZERO {
            return None;
        }
        self.oldest().map(|t| t + policy.max_wait)
    }

    /// Hand the whole group over for forcing: the enlisted members end up
    /// in `scratch`, whose (empty) buffer becomes the group's, so neither
    /// list is regrown from nothing at the next force.
    pub fn swap_out(&mut self, scratch: &mut Vec<GroupMember>) {
        assert!(scratch.is_empty(), "the scratch list still holds members");
        std::mem::swap(&mut self.members, scratch);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Log `bytes` as an update image and return its handle: how the unit
    /// tests of the modules that read images make one.
    pub(crate) fn logged(wal: &mut Wal, bytes: &[u8]) -> ImageRef {
        let fill = |image: &mut [u8]| image.copy_from_slice(bytes);
        wal.append_update(0, PageId(0), 0, bytes.len(), fill).1
    }

    #[test]
    fn lsns_advance_by_encoded_len() {
        let mut w = Wal::new();
        let r1 = LogRecord::Commit { txn: 1 };
        let l1 = w.append(r1);
        let l2 = w.append(LogRecord::Commit { txn: 2 });
        assert_eq!(l1, Lsn(0));
        assert_eq!(l2, Lsn(u64::from(r1.encoded_len())));
    }

    #[test]
    fn encoded_len_tracks_payload() {
        let update = |len: u32| LogRecord::Update {
            txn: 1,
            page: PageId(1),
            slot: 0,
            after: ImageRef { off: 0, len },
        };
        let (small, big) = (update(10), update(100));
        assert_eq!(big.encoded_len() - small.encoded_len(), 90);
    }

    /// After-images of assorted lengths, interleaved with records that
    /// carry none, come back out of their frames byte for byte; the LSNs
    /// are the ones the log handed out before it was bytes (16-byte
    /// header + 22 bytes of update fields + the image; 24 for a commit;
    /// 16 for a checkpoint).
    #[test]
    fn after_images_round_trip_through_their_frames() {
        let image = |len: usize, salt: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ salt)
                .collect()
        };
        let lens = [100usize, 1, 0, 8, 4000, 37];
        let mut w = Wal::new();
        let mut lsns = Vec::new();
        let mut handles = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let bytes = image(len, i as u8);
            let (lsn, after) = w.append_update(i as u64, PageId(i as u64), i as u16, len, |b| {
                b.copy_from_slice(&bytes)
            });
            assert_eq!((after.len(), after.is_empty()), (len, len == 0));
            lsns.push(lsn.0);
            handles.push(after);
            lsns.push(match i % 3 {
                0 => w.append(LogRecord::Commit { txn: i as u64 }).0,
                1 => w.append(LogRecord::Checkpoint).0,
                _ => continue,
            });
        }
        assert_eq!(lsns, [0, 138, 162, 201, 217, 255, 301, 325, 4363, 4379]);
        assert_eq!(w.next_lsn(), Lsn(4454));
        for (i, (&len, &h)) in lens.iter().zip(&handles).enumerate() {
            assert_eq!(w.after(h), image(len, i as u8), "image {i}");
        }
        w.mark_flushed(Lsn(lsns[lsns.len() - 1]));
        assert_eq!(w.durable_end(), 4454);
        let logged: Vec<(u64, ImageRef)> = w
            .durable_records()
            .filter_map(|(lsn, r)| match r {
                LogRecord::Update { after, .. } => Some((lsn.0, after)),
                _ => None,
            })
            .collect();
        let want: Vec<(u64, ImageRef)> = [0, 162, 217, 255, 325, 4379]
            .into_iter()
            .zip(handles.iter().copied())
            .collect();
        assert_eq!(logged, want, "the decoded records name the images");
    }

    #[test]
    #[should_panic(expected = "is not from this log")]
    fn a_handle_from_another_log_is_refused() {
        let mut a = Wal::new();
        let h = logged(&mut a, &[0; 16]);
        Wal::new().after(h);
    }

    #[test]
    fn durability_horizon() {
        let mut w = Wal::new();
        let l1 = w.append(LogRecord::Commit { txn: 1 });
        let l2 = w.append(LogRecord::Commit { txn: 2 });
        assert_eq!(w.durable_records().count(), 0);
        w.mark_flushed(l1);
        assert_eq!(w.durable_records().count(), 1);
        w.mark_flushed(l2);
        assert_eq!(w.durable_records().count(), 2);
        // a later force to an LSN already covered cannot un-flush l2
        w.mark_flushed(l1);
        assert_eq!(w.flushed(), Some(l2));
    }

    /// A crash keeps the records at or below the horizon whole — the one
    /// appended at a horizon marked before it existed included — and cuts
    /// the rest off the bytes.
    #[test]
    fn a_crash_cuts_the_log_to_its_durable_prefix() {
        let mut w = Wal::new();
        w.append(LogRecord::Commit { txn: 1 });
        w.mark_flushed(w.next_lsn());
        let (at, _) = w.append_update(2, PageId(3), 1, 100, |_| {});
        w.append(LogRecord::Commit { txn: 2 });
        assert_eq!(w.durable_end(), at.0 + 138);
        w.crash();
        assert_eq!(w.next_lsn(), Lsn(at.0 + 138));
        assert_eq!(w.durable_bytes().len(), 24 + 138);
        let kept: Vec<Lsn> = w.durable_records().map(|(lsn, _)| lsn).collect();
        assert_eq!(kept, [Lsn(0), at]);
        assert_eq!(w.durable_commits(), [1]);
        let never = Wal::new();
        assert_eq!(
            (never.durable_end(), never.durable_records().count()),
            (0, 0)
        );
    }

    /// Every way a frame can be wrong is a typed refusal, not a panic.
    #[test]
    fn a_bad_frame_is_torn_by_its_first_fault() {
        let mut w = Wal::new();
        w.append(LogRecord::Checkpoint);
        let (at, _) = w.append_update(1, PageId(2), 3, 4, |b| b.fill(7));
        w.mark_flushed(at);
        let good = w.durable_bytes().to_vec();
        let at = at.0 as usize;
        assert!(decode_at(&good, 0, at).is_ok());
        let torn = |off: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at + off] = byte;
            decode_at(&bytes, 0, at).unwrap_err()
        };
        assert_eq!(torn(0, 0xff), Torn::Lsn);
        assert_eq!(torn(8, 41), Torn::Len, "length off by one from the image");
        assert_eq!(torn(8, 90), Torn::Short, "past the end");
        assert_eq!(torn(12, 9), Torn::Kind);
        assert_eq!(torn(12, COMMIT), Torn::Len);
        assert_eq!(torn(15, 1), Torn::Reserved);
        assert_eq!(torn(34, 5), Torn::Len, "image length off by one");
        assert_eq!(decode_at(&good, 0, good.len()), Err(Torn::Short));
        assert_eq!(decode_at(&good, 0, usize::MAX), Err(Torn::Short));
        assert_eq!(decode_at(&good[..at + 41], 0, at), Err(Torn::Short));
    }

    fn member(slot: usize, lsn: u64, enlisted: u64) -> GroupMember {
        GroupMember {
            slot,
            kind: MemberKind::Commit,
            txn: slot as u64,
            lsn: Lsn(lsn),
            enlisted: SimTime::ZERO + SimDuration::from_nanos(enlisted),
            started: SimTime::ZERO,
            probe_id: 0,
            read_only: false,
        }
    }

    #[test]
    fn group_triggers_on_count_and_deadline() {
        let mut g = GroupCommit::new();
        let by_count = GroupCommitPolicy::batched(2);
        let by_wait = GroupCommitPolicy {
            max_txns: 100,
            max_wait: SimDuration::from_micros(10),
        };
        let t = |ns: u64| SimTime::ZERO + SimDuration::from_nanos(ns);
        assert!(!g.due(&by_count, t(0)), "empty group is never due");
        g.enlist(member(0, 10, 100));
        assert!(!g.due(&by_count, t(100)));
        assert!(!g.due(&by_wait, t(100)));
        assert_eq!(
            g.deadline(&by_wait),
            Some(t(100) + SimDuration::from_micros(10))
        );
        g.enlist(member(1, 20, 200));
        assert!(g.due(&by_count, t(200)), "two commits hit max_txns=2");
        assert!(!g.due(&by_wait, t(200)));
        assert!(g.due(&by_wait, t(100 + 10_000)), "oldest member ages out");
        let mut members = Vec::with_capacity(8);
        g.swap_out(&mut members);
        assert_eq!(members.len(), 2);
        assert!(g.is_empty());
        // the two lists trade buffers: the next group fills the scratch's
        g.enlist(member(2, 30, 300));
        members.clear();
        g.swap_out(&mut members);
        assert_eq!((members.len(), members[0].slot), (1, 2));
    }

    #[test]
    fn checkpoint_discovery() {
        let mut w = Wal::new();
        w.append(LogRecord::Commit { txn: 1 });
        let ck = w.append(LogRecord::Checkpoint);
        let l3 = w.append(LogRecord::Commit { txn: 2 });
        assert_eq!(w.last_durable_checkpoint(), None, "not yet flushed");
        w.mark_flushed(l3);
        assert_eq!(w.last_durable_checkpoint(), Some(ck));
    }

    /// The log as it was before it was bytes: a record list beside an
    /// arena of images, LSNs advanced by `encoded_len`. The reference the
    /// byte log is held equal to.
    #[derive(Default)]
    struct ListWal {
        records: Vec<(Lsn, LogRecord)>,
        arena: Vec<u8>,
        next_lsn: u64,
        flushed: Option<Lsn>,
    }

    impl ListWal {
        fn append_update(&mut self, txn: u64, page: PageId, slot: u16, image: &[u8]) {
            let off = self.arena.len() as u64;
            self.arena.extend_from_slice(image);
            let len = image.len() as u32;
            let after = ImageRef { off, len };
            self.append(LogRecord::Update {
                txn,
                page,
                slot,
                after,
            });
        }

        fn append(&mut self, rec: LogRecord) {
            self.records.push((Lsn(self.next_lsn), rec));
            self.next_lsn += u64::from(rec.encoded_len());
        }

        fn after(&self, image: ImageRef) -> &[u8] {
            &self.arena[image.off as usize..][..image.len()]
        }

        fn durable(&self) -> impl Iterator<Item = &(Lsn, LogRecord)> {
            let horizon = self.flushed;
            self.records
                .iter()
                .filter(move |(lsn, _)| horizon.is_some_and(|h| *lsn <= h))
        }

        /// A crash keeps the durable records; the next LSN follows them.
        fn crash(&mut self) {
            let kept = self.durable().count();
            self.records.truncate(kept);
            self.next_lsn = self
                .records
                .last()
                .map_or(0, |(lsn, r)| lsn.0 + u64::from(r.encoded_len()));
        }
    }

    /// A durable record as text, an update's image bytes spelled out:
    /// two logs agree when the texts do, whatever their handles.
    fn show(lsn: Lsn, rec: LogRecord, image: impl Fn(ImageRef) -> Vec<u8>) -> String {
        match rec {
            LogRecord::Update {
                txn,
                page,
                slot,
                after,
            } => format!("{lsn:?} update {txn} {page:?} {slot} = {:?}", image(after)),
            _ => format!("{lsn:?} {rec:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The byte log against the record list it replaced, over random
        /// appends of every kind, horizon marks (at a record, or at the
        /// next LSN as a steal marks it) and crashes: the same durable
        /// records with the same image bytes, the same next LSN, the
        /// same durable commits.
        #[test]
        fn the_byte_log_matches_the_record_list_it_replaced(
            ops in proptest::collection::vec((0..10u8, 0..200u16), 1..120),
        ) {
            let (mut bytes, mut list) = (Wal::new(), ListWal::default());
            for (step, &(op, arg)) in ops.iter().enumerate() {
                let txn = u64::from(arg % 8);
                let (page, slot) = (PageId(u64::from(arg)), arg % 16);
                match op {
                    0..=2 => {
                        let image: Vec<u8> = (0..arg).map(|i| (i as u8) ^ op).collect();
                        let fill = |b: &mut [u8]| b.copy_from_slice(&image);
                        bytes.append_update(txn, page, slot, image.len(), fill);
                        list.append_update(txn, page, slot, &image);
                    }
                    3 => {
                        let rec = LogRecord::Delete { txn, page, slot };
                        prop_assert_eq!(bytes.append(rec), Lsn(list.next_lsn));
                        list.append(rec);
                    }
                    4 | 5 => {
                        let rec = [
                            LogRecord::Commit { txn },
                            LogRecord::Prepare { txn },
                            LogRecord::Abort { txn },
                            LogRecord::Checkpoint,
                        ][usize::from(arg % 4)];
                        bytes.append(rec);
                        list.append(rec);
                    }
                    6 | 7 => {
                        // a force to a record, or to the next LSN
                        let at = match list.records.len() {
                            n if n > 0 && op == 6 => list.records[usize::from(arg) % n].0,
                            _ => Lsn(list.next_lsn),
                        };
                        bytes.mark_flushed(at);
                        list.flushed = list.flushed.max(Some(at));
                    }
                    8 => {
                        bytes.crash();
                        list.crash();
                        prop_assert_eq!(bytes.durable_end(), bytes.next_lsn().0);
                    }
                    _ => {}
                }
                let got: Vec<String> = bytes
                    .durable_records()
                    .map(|(lsn, r)| show(lsn, r, |a| bytes.after(a).to_vec()))
                    .collect();
                let want: Vec<String> = list
                    .durable()
                    .map(|&(lsn, r)| show(lsn, r, |a| list.after(a).to_vec()))
                    .collect();
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!(bytes.next_lsn(), Lsn(list.next_lsn), "step {}", step);
                let mut commits: Vec<u64> = list
                    .durable()
                    .filter_map(|(_, r)| match r {
                        LogRecord::Commit { txn } => Some(*txn),
                        _ => None,
                    })
                    .collect();
                commits.sort_unstable();
                prop_assert_eq!(bytes.durable_commits(), commits, "step {}", step);
            }
        }
    }

    proptest! {
        // an update folded over an archived delete first shows after
        // two dozen cases; the rest is margin
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The trimmed log against the untrimmed one it replaced, over
        /// random runs of transactions — writes, commits, prepares
        /// decided at home, elsewhere or by an abort with compensation
        /// writes — forces, checkpoints that trim below the transactions
        /// still open, and crashes: after every step the same durable
        /// commits but the local ones a trim cut, last checkpoint, durable
        /// end and next LSN, the same durable bytes from the trimmed log's
        /// base on, the same writes for recovery to replay, and the same
        /// media rebuild of every page written.
        #[test]
        fn the_trimmed_log_answers_as_the_untrimmed_one_it_replaced(
            ops in proptest::collection::vec((0..12u8, 0..u16::MAX), 1..200),
        ) {
            // the log starts as `Database::load` leaves it: no write sits
            // at LSN 0, where a formatted page's LSN guard would skip it
            let (mut wal, mut full) = (Wal::new(), Untrimmed::default());
            let ck = wal.append(LogRecord::Checkpoint);
            full.append(LogRecord::Checkpoint);
            wal.mark_flushed(ck);
            full.flushed = Some(ck);
            let mut open: Vec<Open> = Vec::new();
            // the transactions whose decision commit this log holds
            let mut decided: Vec<u64> = Vec::new();
            let mut next_txn = 1;
            for (step, &(op, arg)) in ops.iter().enumerate() {
                let pick = |n: usize| usize::from(arg) % n.max(1);
                let running = |o: &&mut Open| o.state == State::Running;
                match op {
                    0 | 1 => {
                        open.push(Open { txn: next_txn, first: wal.next_lsn(), state: State::Running });
                        next_txn += 1;
                    }
                    2..=4 => {
                        let mut writers: Vec<&mut Open> = open.iter_mut().filter(running).collect();
                        let n = writers.len();
                        if let Some(t) = writers.get_mut(pick(n)) {
                            let (page, slot) = (PageId(u64::from(arg % 5)), (arg / 5) % 16);
                            if op == 4 && arg % 7 == 0 {
                                let rec = LogRecord::Delete { txn: t.txn, page, slot };
                                prop_assert_eq!(wal.append(rec), full.append(rec));
                            } else {
                                let image = record(t.txn, step);
                                let fill = |b: &mut [u8]| b.copy_from_slice(&image);
                                let (lsn, _) = wal.append_update(t.txn, page, slot, image.len(), fill);
                                prop_assert_eq!(lsn, full.append_update(t.txn, page, slot, &image));
                            }
                        }
                    }
                    5 | 6 => {
                        // commit, or prepare for a decision to come
                        let mut enders: Vec<&mut Open> = open.iter_mut().filter(running).collect();
                        let n = enders.len();
                        if let Some(t) = enders.get_mut(pick(n)) {
                            let rec = if op == 5 {
                                LogRecord::Commit { txn: t.txn }
                            } else {
                                LogRecord::Prepare { txn: t.txn }
                            };
                            let lsn = wal.append(rec);
                            prop_assert_eq!(lsn, full.append(rec));
                            t.state = if op == 5 { State::Committing(lsn) } else { State::Prepared };
                        }
                    }
                    7 => {
                        // decide a prepared share: commit here, abort with
                        // a compensation write, or commit elsewhere
                        let prepared = open.iter().position(|o| o.state == State::Prepared);
                        if let Some(i) = prepared {
                            let txn = open[i].txn;
                            match arg % 3 {
                                0 => {
                                    let lsn = wal.append_decision(txn);
                                    prop_assert_eq!(lsn, full.append(LogRecord::Commit { txn }));
                                    decided.push(txn);
                                    open[i].state = State::Committing(lsn);
                                }
                                1 => {
                                    full.append(LogRecord::Abort { txn });
                                    wal.append(LogRecord::Abort { txn });
                                    let (page, slot, image) = (PageId(u64::from(arg % 5)), arg % 16, record(0, step));
                                    let fill = |b: &mut [u8]| b.copy_from_slice(&image);
                                    wal.append_update(txn, page, slot, image.len(), fill);
                                    full.append_update(txn, page, slot, &image);
                                    open.remove(i);
                                }
                                _ => {
                                    open.remove(i);
                                }
                            }
                        }
                    }
                    8 => {
                        // a force to the next LSN, or to a record
                        let lsns = full.records(full.bytes.len());
                        let at = match lsns.len() {
                            n if n > 0 && arg % 2 == 0 => lsns[pick(n)].0,
                            _ => full.next_lsn(),
                        };
                        wal.mark_flushed(at);
                        full.flushed = full.flushed.max(Some(at));
                    }
                    9 | 10 => {
                        // a checkpoint, forced, then the trim below it and
                        // below every transaction still open
                        let ck = wal.append(LogRecord::Checkpoint);
                        full.append(LogRecord::Checkpoint);
                        wal.mark_flushed(ck);
                        full.flushed = full.flushed.max(Some(ck));
                        open.retain(|o| !matches!(o.state, State::Committing(_)));
                        let oldest = open.iter().map(|o| o.first).min();
                        wal.trim(oldest.map_or(ck, |o| o.min(ck)));
                    }
                    _ => {
                        wal.crash();
                        full.crash();
                        open.clear();
                    }
                }
                // a commit the horizon covers closes its transaction
                let horizon = wal.flushed();
                open.retain(|o| !matches!(o.state, State::Committing(lsn) if Some(lsn) <= horizon));

                let base = wal.base();
                let kept = full.durable().into_iter().filter_map(|(lsn, r)| match r {
                    LogRecord::Commit { txn } if lsn >= base || decided.contains(&txn) => Some(txn),
                    _ => None,
                });
                let mut kept: Vec<u64> = kept.collect();
                kept.sort_unstable();
                prop_assert_eq!(wal.durable_commits(), kept, "step {}", step);
                prop_assert_eq!(wal.last_durable_checkpoint(), full.last_durable_checkpoint(), "step {}", step);
                prop_assert_eq!(wal.durable_end(), full.durable_end(), "step {}", step);
                prop_assert_eq!(wal.next_lsn(), full.next_lsn(), "step {}", step);
                let base = base.0 as usize;
                prop_assert_eq!(wal.durable_bytes(), &full.bytes[base..full.durable_end() as usize], "step {}", step);
                let from = wal.last_durable_checkpoint().unwrap_or(Lsn(0));
                let commits = wal.durable_commits();
                let replayed: Vec<_> = wal.committed_writes(from, &commits).map(|(l, p, s, a)| (l, p, s, a.map(<[u8]>::to_vec))).collect();
                prop_assert_eq!(replayed, full.committed_writes(from, &commits), "step {}", step);
                for page in (0..5).map(PageId) {
                    let mut rebuilt = PageImage::formatted();
                    wal.rebuild_page(page, &mut rebuilt);
                    prop_assert_eq!(rebuilt, full.rebuild_page(page), "step {} {:?}", step, page);
                }
            }
        }
    }

    /// A trim keeps no local commit's id, and a decision's through one
    /// aging after the trim that cut it, not two.
    #[test]
    fn a_trim_keeps_a_decision_id_for_two_agings() {
        let mut w = Wal::new();
        w.append(LogRecord::Commit { txn: 1 });
        w.append(LogRecord::Prepare { txn: 2 });
        w.append_decision(2);
        let ck = w.append(LogRecord::Checkpoint);
        let local = w.append(LogRecord::Commit { txn: 3 });
        w.mark_flushed(local);
        w.age_decisions(); // before the trim: the decision is not cut yet
        w.trim(ck);
        assert_eq!(w.durable_commits(), [2, 3], "a cut local commit is gone");
        w.age_decisions();
        assert_eq!(w.durable_commits(), [2, 3]);
        w.age_decisions();
        assert_eq!(w.durable_commits(), [3]);
    }

    /// A crash cuts the mark of a decision commit it cuts: a later trim
    /// past the same LSN keeps no id for it.
    #[test]
    fn a_crash_cuts_an_undurable_decision_mark() {
        let mut w = Wal::new();
        let at = w.append_decision(7);
        w.crash();
        assert_eq!(w.next_lsn(), at, "the decision was not durable");
        w.append(LogRecord::Commit { txn: 8 });
        let ck = w.append(LogRecord::Checkpoint);
        w.mark_flushed(ck);
        w.trim(ck);
        assert!(w.durable_commits().is_empty());
    }

    /// A transaction the differential test keeps open, and where it
    /// started in the log.
    struct Open {
        txn: u64,
        first: Lsn,
        state: State,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Running,
        /// Its `Commit` at this LSN is not durable yet.
        Committing(Lsn),
        /// Prepared, waiting for its decision.
        Prepared,
    }

    /// A record stamped with `txn` and `salt`.
    fn record(txn: u64, salt: usize) -> Vec<u8> {
        let mut r = vec![salt as u8; crate::page::RECORD_SIZE];
        r[..8].copy_from_slice(&txn.to_le_bytes());
        r
    }

    /// The log as it was before it was trimmed: every byte from LSN 0 on
    /// for the whole run, and media redo replays a page from LSN 0. The
    /// reference the trimmed log is held equal to.
    #[derive(Default)]
    struct Untrimmed {
        bytes: Vec<u8>,
        flushed: Option<Lsn>,
    }

    impl Untrimmed {
        fn next_lsn(&self) -> Lsn {
            Lsn(self.bytes.len() as u64)
        }

        fn append_update(&mut self, txn: u64, page: PageId, slot: u16, image: &[u8]) -> Lsn {
            let lsn = self.next_lsn();
            let off = lsn.0 + UPDATE_HEAD_BYTES as u64;
            let after = ImageRef {
                off,
                len: image.len() as u32,
            };
            LogRecord::Update {
                txn,
                page,
                slot,
                after,
            }
            .encode_head(lsn.0, &mut self.bytes);
            self.bytes.extend_from_slice(image);
            lsn
        }

        fn append(&mut self, rec: LogRecord) -> Lsn {
            let lsn = self.next_lsn();
            rec.encode_head(lsn.0, &mut self.bytes);
            lsn
        }

        fn durable_end(&self) -> u64 {
            self.flushed.map_or(0, |Lsn(horizon)| {
                let at = decode_at(&self.bytes, 0, horizon as usize);
                (horizon + at.map_or(0, |(_, len)| len as u64)).min(self.next_lsn().0)
            })
        }

        /// The records of the first `end` bytes.
        fn records(&self, end: usize) -> Vec<(Lsn, LogRecord)> {
            frames(&self.bytes[..end], 0).collect()
        }

        fn durable(&self) -> Vec<(Lsn, LogRecord)> {
            self.records(self.durable_end() as usize)
        }

        fn durable_commits(&self) -> Vec<u64> {
            let mut txns: Vec<u64> = self
                .durable()
                .into_iter()
                .filter_map(|(_, r)| match r {
                    LogRecord::Commit { txn } => Some(txn),
                    _ => None,
                })
                .collect();
            txns.sort_unstable();
            txns
        }

        fn last_durable_checkpoint(&self) -> Option<Lsn> {
            let durable = self.durable().into_iter().rev();
            durable
                .filter(|(_, r)| *r == LogRecord::Checkpoint)
                .map(|(lsn, _)| lsn)
                .next()
        }

        fn crash(&mut self) {
            self.bytes.truncate(self.durable_end() as usize);
        }

        fn image(&self, after: ImageRef) -> &[u8] {
            &self.bytes[after.off as usize..][..after.len()]
        }

        fn committed_writes(
            &self,
            from: Lsn,
            committed: &[u64],
        ) -> Vec<(Lsn, PageId, u16, Option<Vec<u8>>)> {
            let writes = self.durable().into_iter().filter(|r| r.0 >= from);
            writes
                .filter_map(|(lsn, rec)| {
                    let (txn, page, slot, after) = rec.page_write()?;
                    committed.binary_search(&txn).ok()?;
                    Some((lsn, page, slot, after.map(|a| self.image(a).to_vec())))
                })
                .collect()
        }

        /// Media redo as it was: a formatted page, every durable write of
        /// it by a committed transaction from LSN 0 on, LSN-guarded.
        fn rebuild_page(&self, page: PageId) -> PageImage {
            let mut image = PageImage::formatted();
            for (lsn, p, slot, after) in self.committed_writes(Lsn(0), &self.durable_commits()) {
                if p == page && image.lsn() < lsn.0 {
                    image.redo(slot, after.as_deref(), lsn.0);
                }
            }
            image
        }
    }
}
