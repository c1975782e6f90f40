//! Physical layout of one LUN and its address types.
//!
//! A LUN (logical unit, usually one die) is structured as
//! `planes × blocks-per-plane × pages-per-block × page-size`. Multi-plane
//! layouts permit plane-parallel operations (an SSD-level optimization); at
//! this layer planes are simply an addressing dimension.

/// Physical layout parameters of a LUN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Number of planes in the LUN (typically 1, 2 or 4).
    pub planes: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erase block (paper: 64–256).
    pub pages_per_block: u32,
    /// User-data bytes per page (paper: 512–4096; modern chips larger).
    pub page_size: u32,
}

/// Address of a page within a LUN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Plane index.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Address of an erase block within a LUN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Plane index.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
}

/// A flat physical page number within one LUN — the dense index form of
/// [`PageAddr`], handy as a map key or array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn(pub u64);

impl Geometry {
    /// Construct a geometry; all dimensions must be non-zero.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(planes: u32, blocks_per_plane: u32, pages_per_block: u32, page_size: u32) -> Self {
        assert!(planes > 0, "geometry needs >=1 plane");
        assert!(blocks_per_plane > 0, "geometry needs >=1 block per plane");
        assert!(pages_per_block > 0, "geometry needs >=1 page per block");
        assert!(page_size > 0, "geometry needs non-zero page size");
        Geometry {
            planes,
            blocks_per_plane,
            pages_per_block,
            page_size,
        }
    }

    /// Total erase blocks in the LUN.
    #[inline]
    pub fn total_blocks(&self) -> u32 {
        self.planes * self.blocks_per_plane
    }

    /// Total pages in the LUN.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() as u64 * self.pages_per_block as u64
    }

    /// Build a checked [`PageAddr`].
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn page_addr(&self, plane: u32, block: u32, page: u32) -> PageAddr {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(block < self.blocks_per_plane, "block {block} out of range");
        assert!(page < self.pages_per_block, "page {page} out of range");
        PageAddr { plane, block, page }
    }

    /// Build a checked [`BlockAddr`].
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn block_addr(&self, plane: u32, block: u32) -> BlockAddr {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(block < self.blocks_per_plane, "block {block} out of range");
        BlockAddr { plane, block }
    }

    /// True if the address lies inside this geometry.
    pub fn contains(&self, a: PageAddr) -> bool {
        a.plane < self.planes && a.block < self.blocks_per_plane && a.page < self.pages_per_block
    }

    /// True if the block address lies inside this geometry.
    pub fn contains_block(&self, a: BlockAddr) -> bool {
        a.plane < self.planes && a.block < self.blocks_per_plane
    }

    /// Dense block index of a [`BlockAddr`] in `[0, total_blocks)`.
    #[inline]
    pub fn block_index(&self, a: BlockAddr) -> u32 {
        a.plane * self.blocks_per_plane + a.block
    }

    /// Inverse of [`Geometry::block_index`].
    #[inline]
    pub fn block_from_index(&self, idx: u32) -> BlockAddr {
        debug_assert!(idx < self.total_blocks());
        BlockAddr {
            plane: idx / self.blocks_per_plane,
            block: idx % self.blocks_per_plane,
        }
    }

    /// Dense physical page number of a [`PageAddr`] in `[0, total_pages)`.
    #[inline]
    pub fn ppn(&self, a: PageAddr) -> Ppn {
        let block_idx = self.block_index(BlockAddr {
            plane: a.plane,
            block: a.block,
        }) as u64;
        Ppn(block_idx * self.pages_per_block as u64 + a.page as u64)
    }

    /// Inverse of [`Geometry::ppn`].
    #[inline]
    pub fn addr(&self, ppn: Ppn) -> PageAddr {
        debug_assert!(ppn.0 < self.total_pages());
        let block_idx = (ppn.0 / self.pages_per_block as u64) as u32;
        let page = (ppn.0 % self.pages_per_block as u64) as u32;
        let b = self.block_from_index(block_idx);
        PageAddr {
            plane: b.plane,
            block: b.block,
            page,
        }
    }

    /// The block containing a page.
    #[inline]
    pub fn block_of(&self, a: PageAddr) -> BlockAddr {
        BlockAddr {
            plane: a.plane,
            block: a.block,
        }
    }

    /// Iterate over every block address in plane-major order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.total_blocks()).map(|i| self.block_from_index(i))
    }

    /// Iterate over every page address of one block in program order.
    pub fn pages_of(&self, b: BlockAddr) -> impl Iterator<Item = PageAddr> + '_ {
        (0..self.pages_per_block).map(move |page| PageAddr {
            plane: b.plane,
            block: b.block,
            page,
        })
    }
}

impl std::fmt::Display for PageAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pl{}/blk{}/pg{}", self.plane, self.block, self.page)
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pl{}/blk{}", self.plane, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Geometry {
        Geometry::new(2, 64, 16, 4096)
    }

    #[test]
    fn totals() {
        let g = g();
        assert_eq!(g.total_blocks(), 128);
        assert_eq!(g.total_pages(), 2048);
    }

    #[test]
    fn ppn_roundtrip_all_pages() {
        let g = g();
        for i in 0..g.total_pages() {
            let a = g.addr(Ppn(i));
            assert!(g.contains(a));
            assert_eq!(g.ppn(a), Ppn(i));
        }
    }

    #[test]
    fn block_index_roundtrip() {
        let g = g();
        for i in 0..g.total_blocks() {
            let b = g.block_from_index(i);
            assert!(g.contains_block(b));
            assert_eq!(g.block_index(b), i);
        }
    }

    #[test]
    #[should_panic(expected = "page 16 out of range")]
    fn page_addr_bounds_checked() {
        g().page_addr(0, 0, 16);
    }

    #[test]
    #[should_panic(expected = "needs >=1 plane")]
    fn zero_planes_rejected() {
        Geometry::new(0, 1, 1, 512);
    }

    #[test]
    fn pages_of_block_in_program_order() {
        let g = g();
        let b = g.block_addr(1, 3);
        let pages: Vec<_> = g.pages_of(b).collect();
        assert_eq!(pages.len(), 16);
        assert_eq!(pages[0], g.page_addr(1, 3, 0));
        assert_eq!(pages[15], g.page_addr(1, 3, 15));
    }

    #[test]
    fn blocks_iterates_all() {
        let g = g();
        assert_eq!(g.blocks().count(), 128);
    }

    #[test]
    fn display_formats() {
        let g = g();
        assert_eq!(g.page_addr(1, 2, 3).to_string(), "pl1/blk2/pg3");
        assert_eq!(g.block_addr(1, 2).to_string(), "pl1/blk2");
    }
}
