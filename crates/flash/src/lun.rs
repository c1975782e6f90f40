//! The LUN: the stateful flash die model and unit of operation interleaving.
//!
//! *"LUNs are the unit of operation interleaving, i.e., operations on
//! distinct LUNs can be executed in parallel, while operations on a same
//! LUN are executed serially."* (§2.2)
//!
//! A [`Lun`] owns the page/block state machine and enforces C1–C4. It is a
//! *semantic + timing oracle*: every successful operation returns the
//! duration it would occupy the die. Serialization of operations in time is
//! the caller's job (in `requiem-ssd`, a [`requiem_sim::Resource`] per LUN).

use requiem_sim::time::SimDuration;
use requiem_sim::{FaultView, SimRng};

use crate::error::FlashError;
use crate::geometry::{BlockAddr, Geometry, PageAddr};
use crate::FlashSpec;

/// State of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased, ready to program.
    Free,
    /// Programmed with live or stale data (liveness is FTL-level knowledge;
    /// the chip only knows "programmed").
    Programmed,
}

/// What a page holds. Real chips hold 4 KiB of bytes plus out-of-band
/// metadata; the simulation keeps only the metadata an FTL stores there
/// ([`PagePayload::Oob`]), which is how real FTLs rebuild their mapping
/// after power loss. The host's bytes live above the device (the
/// database's page images).
///
/// The die stores one 16-byte record per page, and that record is the
/// one copy of what the page holds: the controller's directory keeps only
/// a valid bit beside it and reads the LPN here. An erased page's record
/// is all ones, as erased flash reads; [`Lun::payload`] hands it out as
/// [`PagePayload::Empty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePayload {
    /// Erased / never written.
    #[default]
    Empty,
    /// FTL out-of-band metadata: the logical page stored here plus a
    /// monotonic write sequence number — exactly what real FTLs keep in
    /// the spare area so the mapping can be rebuilt after power loss.
    /// The all-ones record (`lpn` and `seq` both `u64::MAX`) is the erased
    /// pattern, not a record a program may store.
    Oob {
        /// Logical page number.
        lpn: u64,
        /// Global write sequence (newest wins during rebuild).
        seq: u64,
    },
}

/// One page's out-of-band record as the die stores it: 16 bytes, all ones
/// while the page is erased ([`OobRecord::ERASED`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OobRecord {
    lpn: u64,
    seq: u64,
}

impl OobRecord {
    /// What an erased page reads: every bit set.
    const ERASED: OobRecord = OobRecord {
        lpn: u64::MAX,
        seq: u64::MAX,
    };

    fn of(payload: PagePayload) -> Self {
        match payload {
            PagePayload::Empty => OobRecord::ERASED,
            PagePayload::Oob { lpn, seq } => OobRecord { lpn, seq },
        }
    }

    fn payload(self) -> PagePayload {
        if self == OobRecord::ERASED {
            PagePayload::Empty
        } else {
            PagePayload::Oob {
                lpn: self.lpn,
                seq: self.seq,
            }
        }
    }
}

/// Outcome of a program or erase: how long the die is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Die-busy time for the operation.
    pub duration: SimDuration,
}

/// Outcome of a read: duration and the raw bit errors the ECC corrected
/// (observable by controllers that track block health). The bytes stay
/// in the array; whoever wants them asks [`Lun::payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Die-busy time (tR). Transfer time is a channel concern.
    pub duration: SimDuration,
    /// Raw bit errors corrected by ECC on this read.
    pub corrected_errors: u32,
}

/// Per-block bookkeeping.
#[derive(Debug, Clone)]
pub struct BlockState {
    /// P/E cycles sustained (C4).
    pub erase_count: u32,
    /// Next page index the write point expects (C3).
    pub write_point: u32,
    /// True once the block has failed and been retired.
    pub bad: bool,
    /// Page reads since the last erase (read-disturb accumulator).
    pub reads_since_erase: u64,
}

#[derive(Clone)]
struct Block {
    state: BlockState,
    /// `cell.rber(wear_ratio)` at the block's current erase count: a pure
    /// function of it, so computed where the count moves (construction
    /// and both erase outcomes) instead of on every read.
    rber: f64,
}

/// One flash die with full state tracking.
pub struct Lun {
    id: u32,
    spec: FlashSpec,
    blocks: Vec<Block>,
    /// Every page's out-of-band record, indexed by [`Geometry::ppn`]: a
    /// page is free while its record is [`OobRecord::ERASED`].
    oob: Vec<OobRecord>,
    rng: SimRng,
    /// Counters for reporting.
    reads: u64,
    programs: u64,
    erases: u64,
    /// Deterministic fault-injection schedules for this unit
    /// ([`FaultView::none`] by default — bit-exact identity).
    faults: FaultView,
}

impl std::fmt::Debug for Lun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lun")
            .field("id", &self.id)
            .field("geometry", &self.spec.geometry)
            .field("reads", &self.reads)
            .field("programs", &self.programs)
            .field("erases", &self.erases)
            .finish()
    }
}

impl Lun {
    /// Create a fresh (fully erased) LUN. `seed` feeds the error-injection
    /// stream; LUNs with different ids derive different streams.
    pub fn new(id: u32, spec: FlashSpec, seed: u64) -> Self {
        let fresh = Block {
            state: BlockState {
                erase_count: 0,
                write_point: 0,
                bad: false,
                reads_since_erase: 0,
            },
            rber: spec.cell.rber(0.0),
        };
        let npages = spec.geometry.total_pages() as usize;
        let rng = SimRng::from_seed(seed).derive(&format!("lun{id}"));
        Lun {
            id,
            blocks: vec![fresh; spec.geometry.total_blocks() as usize],
            oob: vec![OobRecord::ERASED; npages],
            spec,
            rng,
            reads: 0,
            programs: 0,
            erases: 0,
            faults: FaultView::none(),
        }
    }

    /// Install a deterministic fault view (from
    /// [`requiem_sim::FaultPlan::unit_view`]). The identity view keeps
    /// the LUN bit-identical to a fault-oblivious build: the RBER
    /// multiplier is 1.0 (exact in IEEE-754) and the empty schedules
    /// never match an operation index, so no extra randomness is drawn.
    pub fn apply_faults(&mut self, view: FaultView) {
        self.faults = view;
    }

    /// This LUN's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The LUN's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.spec.geometry
    }

    /// The LUN's full spec.
    pub fn spec(&self) -> &FlashSpec {
        &self.spec
    }

    fn block(&self, b: BlockAddr) -> &Block {
        &self.blocks[self.spec.geometry.block_index(b) as usize]
    }

    fn block_mut(&mut self, b: BlockAddr) -> &mut Block {
        let idx = self.spec.geometry.block_index(b) as usize;
        &mut self.blocks[idx]
    }

    /// Bookkeeping for one block.
    pub fn block_state(&self, b: BlockAddr) -> &BlockState {
        &self.block(b).state
    }

    /// Where page `a` sits in the per-page array.
    fn slot_of(&self, a: PageAddr) -> usize {
        self.spec.geometry.ppn(a).0 as usize
    }

    /// Where block `b`'s pages sit in the per-page array.
    fn slots_of(&self, b: BlockAddr) -> std::ops::Range<usize> {
        let ppb = self.spec.geometry.pages_per_block as usize;
        let first = self.spec.geometry.block_index(b) as usize * ppb;
        first..first + ppb
    }

    /// State of one page.
    pub fn page_state(&self, a: PageAddr) -> PageState {
        if self.oob[self.slot_of(a)] == OobRecord::ERASED {
            PageState::Free
        } else {
            PageState::Programmed
        }
    }

    /// What page `a` holds, read off the array without touching the
    /// media error model: no randomness drawn, nothing counted. The
    /// bytes behind a successful [`Lun::read`] or
    /// [`Lun::recovery_read`] of `a`, and what XOR parity across the
    /// stripe reconstructs when neither decodes — whether and when that
    /// happens is the controller's to model.
    ///
    /// # Panics
    /// Panics if `a` lies outside the geometry.
    pub fn payload(&self, a: PageAddr) -> PagePayload {
        assert!(
            self.spec.geometry.contains(a),
            "payload of {a}: out of range"
        );
        self.oob[self.slot_of(a)].payload()
    }

    /// Wear ratio of a block: `erase_count / endurance`.
    pub fn wear_ratio(&self, b: BlockAddr) -> f64 {
        self.block(b).state.erase_count as f64 / self.spec.endurance() as f64
    }

    /// `(reads, programs, erases)` issued so far.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.reads, self.programs, self.erases)
    }

    /// What every sense of page `a` starts with: the address and
    /// bad-block checks, the read counters, and the raw bit error rate
    /// the page shows at its block's wear and read disturb.
    fn sense(&mut self, a: PageAddr) -> Result<f64, FlashError> {
        if !self.spec.geometry.contains(a) {
            return Err(FlashError::OutOfRange { addr: a });
        }
        let baddr = self.spec.geometry.block_of(a);
        let cell = self.spec.cell;
        let block = self.block_mut(baddr);
        if block.state.bad {
            return Err(FlashError::BadBlock { block: baddr });
        }
        block.state.reads_since_erase += 1;
        let worn = block.rber * cell.read_disturb_factor(block.state.reads_since_erase);
        self.reads += 1;
        Ok(worn * self.faults.rber_multiplier)
    }

    /// Read one page (C1: page granularity).
    ///
    /// Reading an erased page is legal (its payload is
    /// [`PagePayload::Empty`], all-ones on real flash). Wear raises the raw
    /// bit error rate; if errors exceed ECC capability the read fails with
    /// [`FlashError::UncorrectableRead`].
    pub fn read(&mut self, a: PageAddr) -> Result<ReadOutcome, FlashError> {
        let rber = self.sense(a)?;
        let page_size = self.spec.geometry.page_size;
        let (raw, correctable) = self.spec.ecc.decode(rber, page_size, &mut self.rng);
        if !correctable {
            return Err(FlashError::UncorrectableRead {
                addr: a,
                raw_errors: raw,
                correctable: self.spec.ecc.correctable_for_page(page_size),
            });
        }
        Ok(ReadOutcome {
            duration: self.spec.timing.read,
            corrected_errors: raw,
        })
    }

    /// A calibrated recovery re-read: the controller shifts read
    /// reference voltages (`rber_derate` < 1.0 lowers the effective raw
    /// bit error rate) and/or falls back to a stronger soft decode
    /// (`capability_boost` > 1.0 raises the correctable-bit budget).
    /// Draws the same per-read randomness as [`Lun::read`]; only ever
    /// called by recovery pipelines, so zero-fault runs that never see
    /// an uncorrectable read consume no extra randomness.
    pub fn recovery_read(
        &mut self,
        a: PageAddr,
        rber_derate: f64,
        capability_boost: f64,
    ) -> Result<ReadOutcome, FlashError> {
        let rber = self.sense(a)? * rber_derate;
        let page_size = self.spec.geometry.page_size;
        let (raw, _) = self.spec.ecc.decode(rber, page_size, &mut self.rng);
        let capability = self.spec.ecc.correctable_for_page(page_size);
        let boosted = (capability as f64 * capability_boost) as u32;
        if raw > boosted {
            return Err(FlashError::UncorrectableRead {
                addr: a,
                raw_errors: raw,
                correctable: boosted,
            });
        }
        Ok(ReadOutcome {
            duration: self.spec.timing.read,
            corrected_errors: raw,
        })
    }

    /// Program one page (C1; enforces C2 and C3).
    ///
    /// Programming [`PagePayload::Empty`] stores the erased pattern: the
    /// page goes on reading as free, as a page programmed with all ones
    /// does on real flash, though the write point moves past it.
    ///
    /// Past rated endurance, programs fail probabilistically
    /// ([`FlashError::ProgramFailed`]); the controller is expected to
    /// retire the block.
    pub fn program(&mut self, a: PageAddr, payload: PagePayload) -> Result<OpOutcome, FlashError> {
        if !self.spec.geometry.contains(a) {
            return Err(FlashError::OutOfRange { addr: a });
        }
        let baddr = self.spec.geometry.block_of(a);
        let wear = self.wear_ratio(baddr);
        let endurance_exceeded = wear > 1.0;
        let slot = self.slot_of(a);
        let block = self.block(baddr);
        if block.state.bad {
            return Err(FlashError::BadBlock { block: baddr });
        }
        if self.oob[slot] != OobRecord::ERASED {
            return Err(FlashError::ProgramDirtyPage { addr: a });
        }
        // C3: pages must be programmed in ascending order within a block.
        // ONFI permits *skipping* pages but never going back below the
        // write point.
        if a.page < block.state.write_point {
            return Err(FlashError::NonSequentialProgram {
                addr: a,
                expected: block.state.write_point,
            });
        }
        // scheduled fault injection: the n-th program issued to this
        // unit fails (empty schedule = no-op, no randomness drawn)
        if self
            .faults
            .program_fail
            .binary_search(&self.programs)
            .is_ok()
        {
            self.programs += 1;
            return Err(FlashError::ProgramFailed { addr: a });
        }
        // wear-induced program failure: ramps from 0 at rated life
        if endurance_exceeded {
            let p_fail = ((wear - 1.0) * 0.5).min(0.9);
            if self.rng.chance(p_fail) {
                self.programs += 1;
                return Err(FlashError::ProgramFailed { addr: a });
            }
        }
        debug_assert!(
            payload == PagePayload::Empty || OobRecord::of(payload) != OobRecord::ERASED,
            "program of {a} with the erased pattern as its record"
        );
        self.oob[slot] = OobRecord::of(payload);
        self.block_mut(baddr).state.write_point = a.page + 1;
        self.programs += 1;
        Ok(OpOutcome {
            duration: self.spec.timing.program(a.page),
        })
    }

    /// Erase one block (resets all pages to free; C4: counts wear).
    ///
    /// Past rated endurance, erases fail probabilistically and mark the
    /// block bad ([`FlashError::EraseFailed`]).
    pub fn erase(&mut self, b: BlockAddr) -> Result<OpOutcome, FlashError> {
        if !self.spec.geometry.contains_block(b) {
            return Err(FlashError::OutOfRange {
                addr: PageAddr {
                    plane: b.plane,
                    block: b.block,
                    page: 0,
                },
            });
        }
        if self.block(b).state.bad {
            return Err(FlashError::BadBlock { block: b });
        }
        // scheduled fault injection: the n-th erase issued to this unit
        // fails and retires the block (empty schedule = no-op)
        if self.faults.erase_fail.binary_search(&self.erases).is_ok() {
            self.erases += 1;
            let count = self.count_erase(b);
            self.block_mut(b).state.bad = true;
            return Err(FlashError::EraseFailed {
                block: b,
                erase_count: count,
            });
        }
        self.erases += 1;
        let count = self.count_erase(b);
        let wear = self.wear_ratio(b);
        if wear > 1.0 {
            let p_fail = ((wear - 1.0) * 0.5).min(0.9);
            if self.rng.chance(p_fail) {
                self.block_mut(b).state.bad = true;
                return Err(FlashError::EraseFailed {
                    block: b,
                    erase_count: count,
                });
            }
        }
        let block = self.block_mut(b);
        block.state.write_point = 0;
        block.state.reads_since_erase = 0;
        let slots = self.slots_of(b);
        self.oob[slots].fill(OobRecord::ERASED);
        Ok(OpOutcome {
            duration: self.spec.timing.erase,
        })
    }

    /// One more P/E cycle on block `b`, whichever way the erase ends:
    /// bump its erase count and re-price its raw bit error rate at the
    /// new wear. Returns the new count.
    fn count_erase(&mut self, b: BlockAddr) -> u32 {
        self.block_mut(b).state.erase_count += 1;
        let rber = self.spec.cell.rber(self.wear_ratio(b));
        let block = self.block_mut(b);
        block.rber = rber;
        block.state.erase_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lun() -> Lun {
        Lun::new(0, FlashSpec::mlc_small(), 7)
    }

    /// The out-of-band record of logical page `lpn`'s first write.
    fn oob(lpn: u64) -> PagePayload {
        PagePayload::Oob { lpn, seq: 0 }
    }

    proptest! {
        /// The layout the one record array replaced, kept as the reference:
        /// a `Vec` of `(state, payload)` per block (a state and a 24-byte
        /// payload per page, where the die now stores a 16-byte record
        /// whose erased pattern is the state), and RBER priced from the
        /// erase count whenever it is asked for. A die of 2 × 3 blocks of
        /// 5 pages (nothing a power of two) rated for 8 cycles, so blocks
        /// wear past their endurance and die on their own as well as on
        /// schedule. After every op every page and every block must agree.
        #[test]
        fn flat_arrays_match_the_per_block_vecs_they_replaced(
            ops in proptest::collection::vec((0..7u8, 0..6u32, 0..5u32), 1..400),
            erase_faults in proptest::collection::vec(0..60u64, 0..4),
        ) {
            let spec = FlashSpec {
                geometry: Geometry::new(2, 3, 5, 4096),
                endurance_override: Some(8),
                ..FlashSpec::tlc_small()
            };
            let g = spec.geometry.clone();
            let mut l = Lun::new(0, spec.clone(), 99);
            l.apply_faults(
                requiem_sim::FaultPlan::none()
                    .with_erase_fail(0, erase_faults)
                    .unit_view(0),
            );
            let fresh = vec![(PageState::Free, PagePayload::Empty); g.pages_per_block as usize];
            let mut blocks = vec![fresh.clone(); g.total_blocks() as usize];
            for (step, &(kind, b, p)) in ops.iter().enumerate() {
                let baddr = g.block_from_index(b);
                let a = g.page_addr(baddr.plane, baddr.block, p);
                match kind {
                    0..=2 => {
                        let payload = PagePayload::Oob { lpn: u64::from(p), seq: step as u64 };
                        if l.program(a, payload).is_ok() {
                            blocks[b as usize][p as usize] = (PageState::Programmed, payload);
                        }
                    }
                    3 | 4 => {
                        let _ = l.read(a);
                    }
                    _ => {
                        if l.erase(baddr).is_ok() {
                            blocks[b as usize] = fresh.clone();
                        }
                    }
                }
                for (i, pages) in blocks.iter().enumerate() {
                    let baddr = g.block_from_index(i as u32);
                    prop_assert_eq!(
                        l.blocks[i].rber.to_bits(),
                        spec.cell.rber(l.wear_ratio(baddr)).to_bits(),
                        "step {}: RBER of block {}", step, i
                    );
                    for (a, (state, payload)) in g.pages_of(baddr).zip(pages) {
                        prop_assert_eq!(l.page_state(a), *state, "step {}: {}", step, a);
                        prop_assert_eq!(l.payload(a), *payload, "step {}: {}", step, a);
                    }
                }
            }
        }
    }

    #[test]
    fn fresh_lun_is_all_free() {
        let mut l = lun();
        let g = l.geometry().clone();
        for b in g.blocks() {
            assert_eq!(l.block_state(b).erase_count, 0);
            assert!(!l.block_state(b).bad);
        }
        l.read(g.page_addr(0, 0, 0)).unwrap();
        assert_eq!(l.payload(g.page_addr(0, 0, 0)), PagePayload::Empty);
    }

    #[test]
    fn program_then_read_roundtrips_payload() {
        let mut l = lun();
        let a = l.geometry().page_addr(1, 3, 0);
        l.program(a, oob(99)).unwrap();
        l.read(a).unwrap();
        assert_eq!(l.payload(a), oob(99));
        assert_eq!(l.page_state(a), PageState::Programmed);
    }

    /// The erased record is the free state: programming it (the all-ones
    /// `Empty`) moves the write point but leaves the page reading free,
    /// and any other record makes the page programmed.
    #[test]
    fn the_erased_record_is_the_free_state() {
        let mut l = lun();
        let g = l.geometry().clone();
        let (a, b) = (g.page_addr(0, 0, 0), g.page_addr(0, 0, 1));
        l.program(a, PagePayload::Empty).unwrap();
        assert_eq!(l.page_state(a), PageState::Free);
        assert_eq!(l.payload(a), PagePayload::Empty);
        assert_eq!(l.block_state(g.block_addr(0, 0)).write_point, 1);
        let last = PagePayload::Oob {
            lpn: u64::MAX,
            seq: 0,
        };
        l.program(b, last).unwrap();
        assert_eq!(l.page_state(b), PageState::Programmed);
        assert_eq!(l.payload(b), last);
    }

    #[test]
    fn c2_program_dirty_page_rejected() {
        let mut l = lun();
        let a = l.geometry().page_addr(0, 0, 0);
        l.program(a, oob(1)).unwrap();
        let err = l.program(a, oob(2)).unwrap_err();
        assert!(matches!(err, FlashError::ProgramDirtyPage { .. }));
    }

    #[test]
    fn c3_descending_program_rejected_but_gaps_allowed() {
        let mut l = lun();
        // skipping ahead is legal (ONFI allows gaps)…
        let skip = l.geometry().page_addr(0, 0, 5);
        l.program(skip, oob(1)).unwrap();
        // …but going back below the write point is not
        let back = l.geometry().page_addr(0, 0, 2);
        let err = l.program(back, oob(2)).unwrap_err();
        assert_eq!(
            err,
            FlashError::NonSequentialProgram {
                addr: back,
                expected: 6
            }
        );
        // skipped pages read as empty
        let gap = l.geometry().page_addr(0, 0, 3);
        l.read(gap).unwrap();
        assert_eq!(l.payload(gap), PagePayload::Empty);
    }

    #[test]
    fn erase_resets_write_point_and_pages() {
        let mut l = lun();
        let g = l.geometry().clone();
        let b = g.block_addr(0, 2);
        for p in 0..g.pages_per_block {
            l.program(g.page_addr(0, 2, p), oob(p as u64)).unwrap();
        }
        // block full: next program violates C2
        assert!(l.program(g.page_addr(0, 2, 0), oob(0)).is_err());
        l.erase(b).unwrap();
        assert_eq!(l.block_state(b).erase_count, 1);
        assert_eq!(l.block_state(b).write_point, 0);
        l.read(g.page_addr(0, 2, 3)).unwrap();
        assert_eq!(l.payload(g.page_addr(0, 2, 3)), PagePayload::Empty);
        // and the block can be rewritten from page 0
        l.program(g.page_addr(0, 2, 0), oob(42)).unwrap();
    }

    #[test]
    fn c4_wear_eventually_kills_block() {
        // use TLC (5000 cycles) and hammer one block well past endurance
        let mut l = Lun::new(0, FlashSpec::tlc_small(), 3);
        let b = l.geometry().block_addr(0, 0);
        let mut died = None;
        for i in 0..20_000u32 {
            match l.erase(b) {
                Ok(_) => {}
                Err(FlashError::EraseFailed { erase_count, .. }) => {
                    died = Some((i, erase_count));
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let (_, count) = died.expect("block should die past endurance");
        assert!(count > 5_000, "died too early: {count}");
        assert!(l.block_state(b).bad);
        // further ops rejected
        assert!(matches!(l.erase(b), Err(FlashError::BadBlock { .. })));
        assert!(matches!(
            l.read(l.geometry().page_addr(0, 0, 0)),
            Err(FlashError::BadBlock { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut l = lun();
        let bad = PageAddr {
            plane: 9,
            block: 0,
            page: 0,
        };
        assert!(matches!(l.read(bad), Err(FlashError::OutOfRange { .. })));
        assert!(matches!(
            l.program(bad, PagePayload::Empty),
            Err(FlashError::OutOfRange { .. })
        ));
    }

    #[test]
    fn durations_follow_timing_model() {
        let mut l = lun();
        let g = l.geometry().clone();
        let t = l.spec().timing.clone();
        assert_eq!(l.read(g.page_addr(0, 0, 0)).unwrap().duration, t.read);
        for p in 0..4 {
            let d = l.program(g.page_addr(0, 1, p), oob(0)).unwrap().duration;
            assert_eq!(d, t.program(p));
        }
        assert_eq!(l.erase(g.block_addr(0, 1)).unwrap().duration, t.erase);
    }

    #[test]
    fn op_counts_track() {
        let mut l = lun();
        let g = l.geometry().clone();
        l.program(g.page_addr(0, 0, 0), oob(0)).unwrap();
        l.read(g.page_addr(0, 0, 0)).unwrap();
        l.read(g.page_addr(0, 0, 0)).unwrap();
        l.erase(g.block_addr(0, 0)).unwrap();
        assert_eq!(l.op_counts(), (2, 1, 1));
    }

    #[test]
    fn read_counter_accumulates_and_erase_resets_it() {
        let mut l = lun();
        let g = l.geometry().clone();
        let b = g.block_addr(0, 0);
        l.program(g.page_addr(0, 0, 0), oob(1)).unwrap();
        for _ in 0..5 {
            l.read(g.page_addr(0, 0, 0)).unwrap();
        }
        assert_eq!(l.block_state(b).reads_since_erase, 5);
        l.erase(b).unwrap();
        assert_eq!(l.block_state(b).reads_since_erase, 0);
    }

    #[test]
    fn scheduled_program_fault_fires_deterministically() {
        let run = || {
            let mut l = lun();
            l.apply_faults(
                requiem_sim::FaultPlan::none()
                    .with_program_fail(0, vec![1])
                    .unit_view(0),
            );
            let g = l.geometry().clone();
            let r0 = l.program(g.page_addr(0, 0, 0), oob(0)).is_ok();
            let r1 = l.program(g.page_addr(0, 0, 1), oob(1)).is_err();
            let r2 = l.program(g.page_addr(0, 0, 1), oob(1)).is_ok();
            (r0, r1, r2, l.op_counts())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault-injected runs must replay identically");
        assert_eq!(a, (true, true, true, (0, 3, 0)));
    }

    #[test]
    fn scheduled_erase_fault_retires_block() {
        let mut l = lun();
        l.apply_faults(
            requiem_sim::FaultPlan::none()
                .with_erase_fail(0, vec![0])
                .unit_view(0),
        );
        let b = l.geometry().block_addr(0, 0);
        assert!(matches!(l.erase(b), Err(FlashError::EraseFailed { .. })));
        assert!(l.block_state(b).bad);
        // the schedule named only erase 0: the next block erases fine
        assert!(l.erase(l.geometry().block_addr(0, 1)).is_ok());
    }

    #[test]
    fn rber_elevation_makes_reads_uncorrectable() {
        let mut l = lun();
        let a = l.geometry().page_addr(0, 0, 0);
        l.program(a, oob(7)).unwrap();
        // enormous multiplier: ECC capability is exceeded on every read
        l.apply_faults(requiem_sim::FaultPlan::uniform_rber(1e9).unit_view(0));
        assert!(matches!(
            l.read(a),
            Err(FlashError::UncorrectableRead { .. })
        ));
        // a strong-enough recovery derate brings it back
        l.recovery_read(a, 1e-9, 1.5).unwrap();
        // the bytes are in the array either way, error model or not
        assert_eq!(l.payload(a), oob(7));
    }

    #[test]
    fn identity_view_changes_nothing() {
        let trace = |inject: bool| {
            let mut l = lun();
            if inject {
                l.apply_faults(requiem_sim::FaultPlan::none().unit_view(0));
            }
            let g = l.geometry().clone();
            let mut out = Vec::new();
            for p in 0..4 {
                out.push(format!(
                    "{:?}",
                    l.program(g.page_addr(0, 0, p), oob(p as u64))
                ));
                out.push(format!("{:?}", l.read(g.page_addr(0, 0, p))));
            }
            out.push(format!("{:?}", l.erase(g.block_addr(0, 0))));
            out
        };
        assert_eq!(trace(false), trace(true));
    }

    #[test]
    fn worn_block_error_count_is_pinned() {
        let mut l = Lun::new(0, FlashSpec::tlc_small(), 3);
        let g = l.geometry().clone();
        let b = g.block_addr(1, 5);
        for _ in 0..3_000 {
            l.erase(b).unwrap();
        }
        let a = g.page_addr(1, 5, 0);
        l.program(a, oob(1)).unwrap();
        let corrected: u64 = (0..10_000)
            .map(|_| u64::from(l.read(a).unwrap().corrected_errors))
            .sum();
        // taken from the code that priced RBER on every read
        assert_eq!(corrected, 41_504);
    }
}
