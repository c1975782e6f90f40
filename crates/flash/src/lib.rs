//! # requiem-flash — a NAND flash memory model
//!
//! This crate models flash memory at the level the paper's §2.2 describes:
//! *"a complex assembly of a huge number of flash cells, organized by pages
//! (512 to 4096 bytes per page), blocks (64 to 256 pages per block) and
//! sometimes arranged in multiple planes."*
//!
//! The model enforces the paper's four constraints as hard invariants:
//!
//! * **C1** — reads and writes are performed at the granularity of a page.
//!   (The API only exposes page-granular [`Lun::read`]/[`Lun::program`].)
//! * **C2** — a block must be erased before any of its pages can be
//!   overwritten. (Programming a non-free page is a [`FlashError`].)
//! * **C3** — writes must be sequential within a block. (Programming any
//!   page other than the block's write point is a [`FlashError`].)
//! * **C4** — flash supports a limited number of erase cycles. (Erase
//!   counts are tracked per block; wear drives the raw-bit-error-rate model
//!   and eventually produces bad blocks.)
//!
//! The crate is purely *semantic + timing oracle*: operations validate
//! state, mutate it, and report how long they take ([`timing::FlashTiming`]).
//! *When* operations run — channel arbitration, LUN interleaving — is the
//! job of `requiem-ssd`, which the paper argues is exactly the part that the
//! block device interface hides (myth 1: a device is not a chip).
//!
//! ## Quick example
//!
//! ```
//! use requiem_flash::{FlashSpec, Lun, PagePayload};
//!
//! let spec = FlashSpec::mlc_small();
//! let mut lun = Lun::new(0, spec.clone(), 42);
//! let block = lun.geometry().block_addr(0, 0);
//! // C3: program pages in order, each with the logical page an FTL
//! // stores in its out-of-band area
//! for page in 0..4 {
//!     let addr = lun.geometry().page_addr(0, 0, page);
//!     let oob = PagePayload::Oob { lpn: page as u64, seq: page as u64 };
//!     let outcome = lun.program(addr, oob).unwrap();
//!     assert_eq!(outcome.duration, spec.timing.program(page));
//! }
//! let addr = lun.geometry().page_addr(0, 0, 2);
//! let read = lun.read(addr).unwrap();
//! assert_eq!(read.duration, spec.timing.read);
//! assert_eq!(lun.payload(addr), PagePayload::Oob { lpn: 2, seq: 2 });
//! lun.erase(block).unwrap();
//! assert_eq!(lun.block_state(block).erase_count, 1);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod ecc;
pub mod error;
pub mod geometry;
pub mod lun;
pub mod timing;

pub use cell::CellKind;
pub use ecc::EccConfig;
pub use error::FlashError;
pub use geometry::{BlockAddr, Geometry, PageAddr, Ppn};
pub use lun::{Lun, OpOutcome, PagePayload, PageState, ReadOutcome};
pub use timing::FlashTiming;

/// A complete specification of one flash die (LUN): geometry + cell
/// technology + timing + ECC. Bundled so device builders pass one value.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashSpec {
    /// Physical layout.
    pub geometry: Geometry,
    /// Cell technology (drives endurance and error rates).
    pub cell: CellKind,
    /// Operation latencies.
    pub timing: FlashTiming,
    /// Error-correction capability.
    pub ecc: EccConfig,
    /// Override the cell technology's rated endurance (accelerated-aging
    /// experiments and end-of-life tests). `None` uses [`CellKind::endurance`].
    pub endurance_override: Option<u32>,
}

impl FlashSpec {
    /// A small MLC die for fast tests: 2 planes × 64 blocks × 16 pages ×
    /// 4 KiB ⇒ 8 MiB per LUN.
    pub fn mlc_small() -> Self {
        FlashSpec {
            geometry: Geometry::new(2, 64, 16, 4096),
            cell: CellKind::Mlc,
            timing: FlashTiming::mlc(),
            ecc: EccConfig::bch_24_per_1k(),
            endurance_override: None,
        }
    }

    /// TLC variant: dense, slow, 5 000-cycle endurance (the paper's figure).
    pub fn tlc_small() -> Self {
        FlashSpec {
            geometry: Geometry::new(2, 64, 16, 4096),
            cell: CellKind::Tlc,
            timing: FlashTiming::tlc(),
            ecc: EccConfig::ldpc_40_per_1k(),
            endurance_override: None,
        }
    }

    /// Effective rated P/E cycles (override or the cell technology's).
    pub fn endurance(&self) -> u32 {
        self.endurance_override
            .unwrap_or_else(|| self.cell.endurance())
    }

    /// Bytes of user data per LUN.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.total_pages() * self.geometry.page_size as u64
    }
}
