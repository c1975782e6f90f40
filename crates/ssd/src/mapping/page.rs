//! Full page-level mapping table.

use requiem_flash::{Geometry, PageAddr};

use crate::addr::{ArrayShape, Lpn, LunId, PhysPage};

/// The word of a logical page nothing is mapped to. The constructor
/// refuses any device on which it would also be an address.
const UNMAPPED: u32 = u32::MAX;

/// Where the four coordinates of a [`PhysPage`] sit in a 32-bit word,
/// low bits first: page, block, plane, LUN — each field as wide as its
/// dimension needs, so packing and unpacking are shifts and masks.
#[derive(Debug, Clone, Copy)]
struct Packing {
    /// Field widths of page, block and plane (the LUN takes the rest).
    bits: [u32; 3],
    /// Extent of page, block, plane and LUN.
    dims: [u32; 4],
}

impl Packing {
    fn new(shape: &ArrayShape, geom: &Geometry) -> Self {
        let dims = [
            geom.pages_per_block,
            geom.blocks_per_plane,
            geom.planes,
            shape.total_luns(),
        ];
        let bits = dims.map(|n| u32::BITS - n.saturating_sub(1).leading_zeros());
        let total: u32 = bits.iter().sum();
        assert!(
            total <= u32::BITS,
            "a physical page of {dims:?} (pages, blocks, planes, LUNs) takes {total} bits; \
             the page map packs it into 32"
        );
        assert!(
            total < u32::BITS || dims.iter().any(|n| !n.is_power_of_two()),
            "on {dims:?} (pages, blocks, planes, LUNs) the all-ones word is the last \
             physical page; the page map needs it to mean unmapped"
        );
        Packing {
            bits: [bits[0], bits[1], bits[2]],
            dims,
        }
    }

    fn pack(&self, phys: PhysPage) -> u32 {
        let [page, block, plane] = self.bits;
        let fields = [phys.addr.page, phys.addr.block, phys.addr.plane, phys.lun.0];
        // an in-range page never packs to `UNMAPPED` (see `new`); one out
        // of range would spill into its neighbour's field
        debug_assert!(
            fields.iter().zip(&self.dims).all(|(f, n)| f < n),
            "{phys:?} lies outside {:?} (pages, blocks, planes, LUNs)",
            self.dims
        );
        // 64 bits wide: a one-LUN device's LUN field sits at bit 32
        let word = u64::from(fields[0])
            | u64::from(fields[1]) << page
            | u64::from(fields[2]) << (page + block)
            | u64::from(fields[3]) << (page + block + plane);
        word as u32
    }

    /// The page `word` names, if it names one.
    fn unpack(&self, word: u32) -> Option<PhysPage> {
        if word == UNMAPPED {
            return None;
        }
        let [page, block, plane] = self.bits;
        let word = u64::from(word);
        let field = |shift: u32, bits: u32| ((word >> shift) & ((1 << bits) - 1)) as u32;
        Some(PhysPage {
            lun: LunId((word >> (page + block + plane)) as u32),
            addr: PageAddr {
                plane: field(page + block, plane),
                block: field(page, block),
                page: field(0, page),
            },
        })
    }
}

/// A dense logical-page → physical-page table, four bytes an entry.
///
/// The scheme of modern controllers: *"with page mapping, there are no
/// constraints on the placement of any write — regardless of whether they
/// are sequential or random"* (§2.3.2).
#[derive(Debug, Clone)]
pub struct PageMap {
    table: Vec<u32>,
    mapped: u64,
    packing: Packing,
}

impl PageMap {
    /// Create an empty map of `exported_pages` logical pages onto a
    /// device of `shape` LUNs of `geom`.
    ///
    /// # Panics
    /// Panics if a physical page of that device does not fit a 32-bit
    /// word with the all-ones word to spare (16 TiB at 4 KiB pages).
    pub fn new(exported_pages: u64, shape: &ArrayShape, geom: &Geometry) -> Self {
        PageMap {
            table: vec![UNMAPPED; exported_pages as usize],
            mapped: 0,
            packing: Packing::new(shape, geom),
        }
    }

    /// Number of logical pages.
    pub fn len(&self) -> u64 {
        self.table.len() as u64
    }

    /// True if no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    /// Current physical location of `lpn`, if written.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<PhysPage> {
        self.packing.unpack(self.table[lpn.0 as usize])
    }

    /// Map `lpn` to `phys`, returning the previous location (which the
    /// caller must invalidate — out-of-place update).
    #[inline]
    pub fn update(&mut self, lpn: Lpn, phys: PhysPage) -> Option<PhysPage> {
        let word = self.packing.pack(phys);
        let old = std::mem::replace(&mut self.table[lpn.0 as usize], word);
        if old == UNMAPPED {
            self.mapped += 1;
        }
        self.packing.unpack(old)
    }

    /// Unmap `lpn` (trim), returning the previous location.
    #[inline]
    pub fn unmap(&mut self, lpn: Lpn) -> Option<PhysPage> {
        let old = std::mem::replace(&mut self.table[lpn.0 as usize], UNMAPPED);
        if old != UNMAPPED {
            self.mapped -= 1;
        }
        self.packing.unpack(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(channels: u32, chips_per_channel: u32) -> ArrayShape {
        ArrayShape {
            channels,
            chips_per_channel,
            luns_per_chip: 1,
        }
    }

    fn pp(lun: u32, block: u32, page: u32) -> PhysPage {
        PhysPage {
            lun: LunId(lun),
            addr: PageAddr {
                plane: 0,
                block,
                page,
            },
        }
    }

    fn map() -> PageMap {
        PageMap::new(10, &grid(2, 1), &Geometry::new(1, 8, 4, 4096))
    }

    #[test]
    fn starts_unmapped() {
        let m = map();
        assert_eq!(m.lookup(Lpn(3)), None);
        assert!(m.is_empty());
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn update_returns_old_for_invalidation() {
        let mut m = map();
        assert_eq!(m.update(Lpn(3), pp(0, 1, 2)), None);
        assert_eq!(m.mapped, 1);
        let old = m.update(Lpn(3), pp(1, 5, 0));
        assert_eq!(old, Some(pp(0, 1, 2)));
        assert_eq!(m.mapped, 1);
        assert_eq!(m.lookup(Lpn(3)), Some(pp(1, 5, 0)));
    }

    #[test]
    fn unmap_clears() {
        let mut m = map();
        m.update(Lpn(3), pp(0, 1, 2));
        assert_eq!(m.unmap(Lpn(3)), Some(pp(0, 1, 2)));
        assert_eq!(m.lookup(Lpn(3)), None);
        assert_eq!(m.mapped, 0);
        assert_eq!(m.unmap(Lpn(3)), None);
    }

    const SHAPES: [(u32, u32); 4] = [(1, 1), (2, 2), (8, 4), (3, 5)];

    /// The last LUN, plane, block and page of the device, each alone and
    /// all at once.
    fn corners(shape: &ArrayShape, geom: &Geometry) -> [PhysPage; 5] {
        let (lun, plane) = (shape.total_luns() - 1, geom.planes - 1);
        let (block, page) = (geom.blocks_per_plane - 1, geom.pages_per_block - 1);
        let at = |lun, plane, block, page| PhysPage {
            lun: LunId(lun),
            addr: PageAddr { plane, block, page },
        };
        [
            at(lun, 0, 0, 0),
            at(0, plane, 0, 0),
            at(0, 0, block, 0),
            at(0, 0, 0, page),
            at(lun, plane, block, page),
        ]
    }

    proptest! {
        /// Shapes 1×1, 2×2, 8×4 and 3×5 over dies of 3 planes × 130
        /// blocks × 12 pages or 2 × 64 × 16: no dimension, some and all
        /// of them a power of two. Every step returns what the
        /// `Vec<Option<PhysPage>>` the packed table replaced returns,
        /// and leaves as many mapped.
        #[test]
        fn packed_words_match_the_option_table_they_replaced(
            shape in 0..SHAPES.len(),
            odd in 0..2u8,
            ops in proptest::collection::vec((0..3u8, 0..40u64, 0..u32::MAX), 1..300),
        ) {
            let shape = grid(SHAPES[shape].0, SHAPES[shape].1);
            let geom = if odd == 1 {
                Geometry::new(3, 130, 12, 4096)
            } else {
                Geometry::new(2, 64, 16, 4096)
            };
            let mut m = PageMap::new(40, &shape, &geom);
            let mut want: Vec<Option<PhysPage>> = vec![None; 40];
            for &(kind, lpn, x) in &ops {
                let slot = lpn as usize;
                match kind {
                    0 => {
                        let phys = PhysPage {
                            lun: LunId(x % shape.total_luns()),
                            addr: geom.addr(requiem_flash::Ppn(
                                u64::from(x.rotate_left(7)) % geom.total_pages(),
                            )),
                        };
                        prop_assert_eq!(m.update(Lpn(lpn), phys), want[slot].replace(phys));
                    }
                    1 => prop_assert_eq!(m.unmap(Lpn(lpn)), want[slot].take()),
                    _ => {}
                }
                prop_assert_eq!(m.lookup(Lpn(lpn)), want[slot]);
                prop_assert_eq!(m.mapped, want.iter().flatten().count() as u64);
            }
        }
    }

    #[test]
    fn corner_addresses_round_trip() {
        for (channels, chips) in SHAPES {
            let shape = grid(channels, chips);
            for geom in [
                Geometry::new(3, 130, 12, 4096),
                Geometry::new(2, 64, 16, 4096),
            ] {
                let mut m = PageMap::new(5, &shape, &geom);
                for (i, phys) in corners(&shape, &geom).into_iter().enumerate() {
                    assert_eq!(m.update(Lpn(i as u64), phys), None);
                    assert_eq!(m.lookup(Lpn(i as u64)), Some(phys), "{shape:?} {geom:?}");
                }
                assert_eq!(m.mapped, 5);
            }
        }
    }

    /// 3 LUNs (2 bits) × 4 planes × 2²⁰ blocks × 256 pages: 32 bits to
    /// the last, and the all-ones word would be LUN 3 of three.
    #[test]
    fn a_device_of_exactly_32_bits_fits() {
        let (shape, geom) = (grid(3, 1), Geometry::new(4, 1 << 20, 256, 4096));
        let mut m = PageMap::new(5, &shape, &geom);
        for (i, phys) in corners(&shape, &geom).into_iter().enumerate() {
            m.update(Lpn(i as u64), phys);
            assert_eq!(m.lookup(Lpn(i as u64)), Some(phys));
        }
        // one LUN: the (empty) LUN field starts at bit 32
        let (shape, geom) = (grid(1, 1), Geometry::new(3, 1 << 22, 256, 4096));
        let mut m = PageMap::new(1, &shape, &geom);
        let last = corners(&shape, &geom)[4];
        m.update(Lpn(0), last);
        assert_eq!(m.lookup(Lpn(0)), Some(last));
    }

    #[test]
    #[should_panic(expected = "takes 33 bits")]
    fn a_device_of_33_bits_is_refused() {
        PageMap::new(1, &grid(3, 1), &Geometry::new(4, 1 << 21, 256, 4096));
    }

    #[test]
    #[should_panic(expected = "all-ones word is the last physical page")]
    fn a_device_whose_last_page_is_all_ones_is_refused() {
        PageMap::new(1, &grid(4, 1), &Geometry::new(4, 1 << 20, 256, 4096));
    }

    /// One page past the device is the only way to an all-ones word
    /// where the constructor let the device through.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lies outside")]
    fn a_page_that_packs_to_the_unmapped_word_is_refused() {
        let (shape, geom) = (grid(3, 1), Geometry::new(4, 1 << 20, 256, 4096));
        let mut beyond = corners(&shape, &geom)[4];
        beyond.lun = LunId(3);
        PageMap::new(1, &shape, &geom).update(Lpn(0), beyond);
    }
}
