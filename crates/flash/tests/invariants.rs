//! Property-based tests of the flash constraints C1–C4.
//!
//! These drive a [`Lun`] with arbitrary operation sequences and assert that
//! the model's state machine never violates the paper's constraints — and
//! that legal sequences never fail below rated endurance.
//!
//! C3 semantics under test: pages within a block must be programmed in
//! strictly ascending order; skipping pages is allowed (ONFI), programming
//! at or below the write point is not — unless the page is dirty, in which
//! case C2 takes precedence.

use proptest::prelude::*;
use requiem_flash::{FlashError, FlashSpec, Lun, PagePayload, PageState};

/// Arbitrary op against a tiny geometry.
#[derive(Debug, Clone)]
enum Op {
    Read { plane: u32, block: u32, page: u32 },
    Program { plane: u32, block: u32, page: u32 },
    Erase { plane: u32, block: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // geometry used below: 2 planes x 4 blocks x 8 pages
    prop_oneof![
        (0..2u32, 0..4u32, 0..8u32).prop_map(|(plane, block, page)| Op::Read {
            plane,
            block,
            page
        }),
        (0..2u32, 0..4u32, 0..8u32).prop_map(|(plane, block, page)| Op::Program {
            plane,
            block,
            page
        }),
        (0..2u32, 0..4u32).prop_map(|(plane, block)| Op::Erase { plane, block }),
    ]
}

/// The out-of-band record an FTL would store for logical page `lpn`.
fn oob(lpn: u64) -> PagePayload {
    PagePayload::Oob { lpn, seq: 0 }
}

fn tiny_spec() -> FlashSpec {
    let mut spec = FlashSpec::mlc_small();
    spec.geometry = requiem_flash::Geometry::new(2, 4, 8, 512);
    spec
}

#[derive(Clone, Default)]
struct ShadowBlock {
    wp: u32,
    programmed: [bool; 8],
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A shadow model tracking (write point, programmed set) must always
    /// agree with the Lun, and the Lun must accept exactly the legal
    /// programs.
    #[test]
    fn state_machine_agrees_with_shadow_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let spec = tiny_spec();
        let g = spec.geometry.clone();
        let mut lun = Lun::new(0, spec, 1234);
        let mut shadow: Vec<ShadowBlock> =
            vec![ShadowBlock::default(); g.total_blocks() as usize];

        for op in ops {
            match op {
                Op::Read { plane, block, page } => {
                    let a = g.page_addr(plane, block, page);
                    let out = lun.read(a);
                    // fresh device, zero wear: reads never fail
                    prop_assert!(out.is_ok());
                    let bidx = g.block_index(g.block_of(a)) as usize;
                    let payload = lun.payload(a);
                    if shadow[bidx].programmed[page as usize] {
                        prop_assert_ne!(payload, PagePayload::Empty);
                    } else {
                        prop_assert_eq!(payload, PagePayload::Empty);
                    }
                }
                Op::Program { plane, block, page } => {
                    let a = g.page_addr(plane, block, page);
                    let bidx = g.block_index(g.block_of(a)) as usize;
                    let legal = page >= shadow[bidx].wp;
                    let res = lun.program(a, oob(u64::from(page) + 1));
                    if legal {
                        prop_assert!(res.is_ok(), "legal program rejected: {:?}", res);
                        shadow[bidx].wp = page + 1;
                        shadow[bidx].programmed[page as usize] = true;
                    } else {
                        prop_assert!(res.is_err(), "illegal program accepted at {a:?}");
                        match res.unwrap_err() {
                            FlashError::ProgramDirtyPage { .. } => {
                                prop_assert!(shadow[bidx].programmed[page as usize]);
                            }
                            FlashError::NonSequentialProgram { expected, .. } => {
                                // a skipped (gap) page below the write point
                                prop_assert!(!shadow[bidx].programmed[page as usize]);
                                prop_assert_eq!(expected, shadow[bidx].wp);
                                prop_assert!(page < shadow[bidx].wp);
                            }
                            other => prop_assert!(false, "unexpected error {other}"),
                        }
                    }
                }
                Op::Erase { plane, block } => {
                    let b = g.block_addr(plane, block);
                    let before = lun.block_state(b).erase_count;
                    lun.erase(b).unwrap(); // fresh device: never fails
                    prop_assert_eq!(lun.block_state(b).erase_count, before + 1);
                    let bidx = g.block_index(b) as usize;
                    shadow[bidx] = ShadowBlock::default();
                }
            }
        }

        // final consistency: page states agree with the shadow
        for b in g.blocks() {
            let bidx = g.block_index(b) as usize;
            for a in g.pages_of(b) {
                let expect = if shadow[bidx].programmed[a.page as usize] {
                    PageState::Programmed
                } else {
                    PageState::Free
                };
                prop_assert_eq!(lun.page_state(a), expect);
            }
        }
    }

    /// Payloads survive arbitrary interleavings: whatever tag was last
    /// programmed to a page reads back until the block is erased.
    #[test]
    fn payload_durability(seq in proptest::collection::vec((0..4u32, 0..8u32), 1..100)) {
        let spec = tiny_spec();
        let g = spec.geometry.clone();
        let mut lun = Lun::new(0, spec, 99);
        // interpretation: (block, n) -> program next n pages of block 'block'
        // on plane 0, erasing first if full; token = unique counter
        let mut token = 1u64;
        let mut expected: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
        for (block, n) in seq {
            for _ in 0..=n {
                let wp = lun.block_state(g.block_addr(0, block)).write_point;
                if wp >= g.pages_per_block {
                    lun.erase(g.block_addr(0, block)).unwrap();
                    expected.retain(|&(b, _), _| b != block);
                    continue;
                }
                lun.program(g.page_addr(0, block, wp), oob(token)).unwrap();
                expected.insert((block, wp), token);
                token += 1;
            }
        }
        for ((block, page), tok) in expected {
            let a = g.page_addr(0, block, page);
            lun.read(a).unwrap();
            prop_assert_eq!(lun.payload(a), oob(tok));
        }
    }

    /// Geometry ppn mapping is a bijection for arbitrary shapes.
    #[test]
    fn ppn_bijection(planes in 1..4u32, blocks in 1..20u32, pages in 1..32u32) {
        let g = requiem_flash::Geometry::new(planes, blocks, pages, 512);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..g.total_pages() {
            let a = g.addr(requiem_flash::Ppn(i));
            prop_assert!(g.contains(a));
            prop_assert_eq!(g.ppn(a).0, i);
            prop_assert!(seen.insert(a), "duplicate address {a:?}");
        }
    }
}
