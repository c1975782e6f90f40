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
//! prefix ([`Wal::crash`]) — all that recovery reads. A frame, every
//! field little-endian:
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

use crate::page::PageId;

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
    /// Redo information for one page update: replace slot `slot` of
    /// `page` with `after` (insert if the slot is new).
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

/// Decode the frame at byte `off` of `bytes`: the record and the frame's
/// length. Never panics — `bytes` stand for whatever the medium holds —
/// and accepts exactly what [`Wal`] writes: the frame's LSN is `off`, its
/// kind is known, its length is exact for the kind, its reserved bytes
/// are zero, and it ends within `bytes`.
pub fn decode_at(bytes: &[u8], off: usize) -> Result<(LogRecord, usize), Torn> {
    let frame = bytes.get(off..).unwrap_or_default();
    if frame.len() < HEADER_BYTES {
        return Err(Torn::Short);
    }
    let mut f = Fields(frame);
    let lsn = u64::from_le_bytes(f.take());
    let len = u32::from_le_bytes(f.take()) as usize;
    let [kind] = f.take();
    let reserved: [u8; RESERVED_BYTES] = f.take();
    if lsn != off as u64 {
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

/// The log: framed records back to back (module doc), and its horizon.
#[derive(Debug, Default)]
pub struct Wal {
    /// Every record, each at the offset that is its LSN. Nothing is cut
    /// while the engine runs — media-failure redo replays a page from LSN
    /// 0 — and a crash cuts everything past the durable prefix.
    bytes: Vec<u8>,
    /// Every record at or below this LSN is durable.
    flushed: Option<Lsn>,
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
        self.bytes.resize(off as usize + after.len(), 0);
        fill(&mut self.bytes[off as usize..]);
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

    /// The bytes behind a handle this log issued.
    ///
    /// # Panics
    /// Panics on a handle reaching past the log — it came from another
    /// one.
    pub fn after(&self, image: ImageRef) -> &[u8] {
        let off = image.off as usize;
        assert!(
            off + image.len() <= self.bytes.len(),
            "image {image:?} is not from this log ({} log bytes)",
            self.bytes.len()
        );
        &self.bytes[off..off + image.len()]
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.bytes.len() as u64)
    }

    /// Durable horizon.
    pub fn flushed(&self) -> Option<Lsn> {
        self.flushed
    }

    /// Mark everything up to `lsn` durable (called after a successful
    /// force). The horizon never moves backwards: a force to an LSN
    /// already covered — a group's members enlisted before a steal
    /// forced the whole log — leaves it where it is.
    pub fn mark_flushed(&mut self, lsn: Lsn) {
        self.flushed = self.flushed.max(Some(lsn));
    }

    /// Where the durable prefix ends: after the record at the (inclusive)
    /// horizon, which may have been appended after a steal marked it.
    pub fn durable_end(&self) -> u64 {
        self.flushed.map_or(0, |Lsn(horizon)| {
            let at = decode_at(&self.bytes, horizon as usize);
            (horizon + at.map_or(0, |(_, len)| len as u64)).min(self.next_lsn().0)
        })
    }

    /// The durable prefix of the log: the bytes a crash leaves.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.bytes[..self.durable_end() as usize]
    }

    /// The durable records, decoded — what survives a crash.
    pub fn durable_records(&self) -> impl Iterator<Item = (Lsn, LogRecord)> + '_ {
        let (prefix, mut off) = (self.durable_bytes(), 0);
        std::iter::from_fn(move || {
            let (rec, len) = decode_at(prefix, off).ok()?;
            off += len;
            Some((Lsn((off - len) as u64), rec))
        })
    }

    /// The transactions whose `Commit` record survives a crash, ascending
    /// — the set whose updates redo replays.
    pub fn durable_commits(&self) -> Vec<u64> {
        let mut txns: Vec<u64> = self
            .durable_records()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(txn),
                _ => None,
            })
            .collect();
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

    /// Simulated crash: the log keeps its durable prefix and loses the
    /// rest, so every later read decodes what the medium held.
    pub fn crash(&mut self) {
        self.bytes.truncate(self.durable_end() as usize);
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
        assert!(decode_at(&good, at).is_ok());
        let torn = |off: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at + off] = byte;
            decode_at(&bytes, at).unwrap_err()
        };
        assert_eq!(torn(0, 0xff), Torn::Lsn);
        assert_eq!(torn(8, 41), Torn::Len, "length off by one from the image");
        assert_eq!(torn(8, 90), Torn::Short, "past the end");
        assert_eq!(torn(12, 9), Torn::Kind);
        assert_eq!(torn(12, COMMIT), Torn::Len);
        assert_eq!(torn(15, 1), Torn::Reserved);
        assert_eq!(torn(34, 5), Torn::Len, "image length off by one");
        assert_eq!(decode_at(&good, good.len()), Err(Torn::Short));
        assert_eq!(decode_at(&good, usize::MAX), Err(Torn::Short));
        assert_eq!(decode_at(&good[..at + 41], at), Err(Torn::Short));
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
}
