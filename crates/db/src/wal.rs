//! The write-ahead log: redo records, LSNs, group commit.
//!
//! A physiological redo log in the ARIES tradition, cut down to what the
//! experiments need: page-update redo records and commit records. The log
//! object is pure state; *forcing* it to stable storage is the backend's
//! job — which is precisely where the legacy and vision designs diverge
//! (§3 P1: log writes are the canonical synchronous pattern).

use requiem_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::page::PageId;

/// A log sequence number (byte offset in the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lsn(pub u64);

/// A record image held in a [`Wal`]'s arena: where it starts and how long
/// it is. Only the log that issued a handle can read it back
/// ([`Wal::after`]); the arena is append-only, so a handle stays valid for
/// the life of its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        /// After-image of the record, in the arena of the log the record
        /// is appended to ([`Wal::new_after`]).
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

impl LogRecord {
    /// Serialized size in bytes (header + payload), used for log-space
    /// accounting and force sizing.
    pub fn encoded_len(&self) -> u32 {
        let payload = match self {
            LogRecord::Update { after, .. } => 8 + 8 + 2 + 4 + after.len(),
            LogRecord::Delete { .. } => 8 + 8 + 2,
            LogRecord::Commit { .. } => 8,
            LogRecord::Prepare { .. } => 8,
            LogRecord::Abort { .. } => 8,
            LogRecord::Checkpoint => 0,
        };
        (16 + payload) as u32 // 16-byte record header (lsn, len, type, crc)
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
}

/// The in-memory log: appended records plus the durable horizon.
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<(Lsn, LogRecord)>,
    /// Every record image the log holds, back to back in arrival order;
    /// records name theirs by [`ImageRef`]. Never truncated: media-failure
    /// redo replays from LSN 0, so the in-memory log keeps all history.
    arena: Vec<u8>,
    next_lsn: u64,
    /// Everything up to (and including) this LSN is durable.
    flushed: Option<Lsn>,
}

impl Wal {
    /// New, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `records` more records carrying `image_bytes` more
    /// bytes of images, so a run that can count its inputs grows the log
    /// once instead of by doubling. An estimate nothing depends on: appends
    /// past it grow the log as they always did.
    pub fn reserve(&mut self, records: usize, image_bytes: usize) {
        self.records.reserve(records);
        self.arena.reserve(image_bytes);
    }

    /// Reserve `len` zeroed bytes at the arena's tail, let `fill` write the
    /// image into them, and return the handle — for the
    /// [`LogRecord::Update`] about to be appended.
    pub fn new_after(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> ImageRef {
        assert!(
            len <= u32::MAX as usize,
            "a record image fits a page, not {len} bytes"
        );
        let off = self.arena.len();
        self.arena.resize(off + len, 0);
        fill(&mut self.arena[off..]);
        ImageRef {
            off: off as u64,
            len: len as u32,
        }
    }

    /// Copy `bytes` into the arena and return the handle: how the executor
    /// parks a participant's before-image until the global decision.
    pub fn keep(&mut self, bytes: &[u8]) -> ImageRef {
        self.new_after(bytes.len(), |image| image.copy_from_slice(bytes))
    }

    /// The bytes behind a handle this log issued.
    ///
    /// # Panics
    /// Panics on a handle reaching past the arena — it came from another
    /// log.
    pub fn after(&self, image: ImageRef) -> &[u8] {
        let off = image.off as usize;
        assert!(
            off + image.len() <= self.arena.len(),
            "image {image:?} is not from this log ({} arena bytes)",
            self.arena.len()
        );
        &self.arena[off..off + image.len()]
    }

    /// Append a record; returns its LSN. Not yet durable.
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += u64::from(rec.encoded_len());
        self.records.push((lsn, rec));
        lsn
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
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

    /// All records up to the durable horizon — what survives a crash.
    pub fn durable_records(&self) -> impl Iterator<Item = &(Lsn, LogRecord)> {
        let horizon = self.flushed;
        self.records
            .iter()
            .filter(move |(lsn, _)| horizon.map(|h| *lsn <= h).unwrap_or(false))
    }

    /// The transactions whose `Commit` record survives a crash, ascending
    /// — the set whose updates redo replays.
    pub fn durable_commits(&self) -> Vec<u64> {
        let mut txns: Vec<u64> = self
            .durable_records()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(*txn),
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
            .map(|(lsn, _)| *lsn)
            .last()
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
mod tests {
    use super::*;

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
        let mut w = Wal::new();
        let mut update = |len: usize| LogRecord::Update {
            txn: 1,
            page: PageId(1),
            slot: 0,
            after: w.new_after(len, |_| {}),
        };
        let (small, big) = (update(10), update(100));
        assert_eq!(big.encoded_len() - small.encoded_len(), 90);
    }

    /// After-images of assorted lengths, interleaved with records that
    /// carry none, come back out of the arena byte for byte; the LSNs are
    /// the ones the log handed out when each record owned its bytes
    /// (16-byte header + 22 bytes of update fields + the image; 24 for a
    /// commit; 16 for a checkpoint).
    #[test]
    fn after_images_round_trip_through_the_arena() {
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
            let after = w.new_after(len, |b| b.copy_from_slice(&bytes));
            assert_eq!((after.len(), after.is_empty()), (len, len == 0));
            let rec = LogRecord::Update {
                txn: i as u64,
                page: PageId(i as u64),
                slot: i as u16,
                after,
            };
            assert_eq!(rec.encoded_len() as usize, 38 + len);
            lsns.push(w.append(rec).0);
            handles.push(after);
            lsns.push(match i % 3 {
                0 => w.append(LogRecord::Commit { txn: i as u64 }).0,
                1 => w.append(LogRecord::Checkpoint).0,
                _ => continue,
            });
        }
        assert_eq!(lsns, [0, 138, 162, 201, 217, 255, 301, 325, 4363, 4379]);
        assert_eq!(w.next_lsn(), Lsn(4454));
        // a before-image parked between records lands behind them
        let parked = w.keep(b"before");
        for (i, (&len, &h)) in lens.iter().zip(&handles).enumerate() {
            assert_eq!(w.after(h), image(len, i as u8), "image {i}");
        }
        assert_eq!(w.after(parked), b"before");
        w.mark_flushed(Lsn(lsns[lsns.len() - 1]));
        let logged: Vec<ImageRef> = w
            .durable_records()
            .filter_map(|(_, r)| match r {
                LogRecord::Update { after, .. } => Some(*after),
                _ => None,
            })
            .collect();
        assert_eq!(logged, handles, "records carry the handles they were given");
    }

    #[test]
    #[should_panic(expected = "is not from this log")]
    fn a_handle_from_another_log_is_refused() {
        let mut a = Wal::new();
        let h = a.new_after(16, |_| {});
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
}
