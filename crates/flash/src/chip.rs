//! A flash chip: a package of one or more LUNs sharing a chip-enable.
//!
//! At this layer the chip is a container; the interleaving consequences of
//! sharing a channel are modelled by `requiem-ssd`. Figure 1 of the paper
//! assumes "1 LUN per chip" — [`FlashChip::single_lun`] builds exactly that.

use crate::lun::Lun;
use crate::FlashSpec;

/// A package of LUNs (dies).
pub struct FlashChip {
    id: u32,
    luns: Vec<Lun>,
}

impl std::fmt::Debug for FlashChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashChip")
            .field("id", &self.id)
            .field("luns", &self.luns.len())
            .finish()
    }
}

impl FlashChip {
    /// Create a chip with `luns` dies of identical `spec`. LUN ids are
    /// globally unique across chips: `chip_id * luns + i`.
    pub fn new(id: u32, luns: u32, spec: FlashSpec, seed: u64) -> Self {
        assert!(luns > 0, "chip needs >=1 LUN");
        FlashChip {
            id,
            luns: (0..luns)
                .map(|i| Lun::new(id * luns + i, spec.clone(), seed))
                .collect(),
        }
    }

    /// A chip with exactly one LUN (Figure 1's assumption).
    pub fn single_lun(id: u32, spec: FlashSpec, seed: u64) -> Self {
        Self::new(id, 1, spec, seed)
    }

    /// This chip's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of LUNs in the package.
    pub fn lun_count(&self) -> usize {
        self.luns.len()
    }

    /// Access one LUN.
    pub fn lun(&self, idx: usize) -> &Lun {
        &self.luns[idx]
    }

    /// Mutable access to one LUN.
    pub fn lun_mut(&mut self, idx: usize) -> &mut Lun {
        &mut self.luns[idx]
    }

    /// Iterate over LUNs.
    pub fn luns(&self) -> impl Iterator<Item = &Lun> {
        self.luns.iter()
    }

    /// Total user capacity of the package in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.luns.iter().map(|l| l.spec().capacity_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lun::PagePayload;

    #[test]
    fn chip_contains_independent_luns() {
        let mut chip = FlashChip::new(0, 2, FlashSpec::mlc_small(), 11);
        let a = chip.lun(0).geometry().page_addr(0, 0, 0);
        chip.lun_mut(0).program(a, PagePayload::Tag(1)).unwrap();
        // LUN 1 unaffected
        assert_eq!(*chip.lun(1).payload(a), PagePayload::Empty);
        assert_eq!(*chip.lun(0).payload(a), PagePayload::Tag(1));
    }

    #[test]
    fn lun_ids_globally_unique() {
        let c0 = FlashChip::new(0, 2, FlashSpec::mlc_small(), 1);
        let c1 = FlashChip::new(1, 2, FlashSpec::mlc_small(), 1);
        let ids: Vec<u32> = c0.luns().chain(c1.luns()).map(|l| l.id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_sums_luns() {
        let chip = FlashChip::new(0, 4, FlashSpec::mlc_small(), 1);
        assert_eq!(
            chip.capacity_bytes(),
            4 * FlashSpec::mlc_small().capacity_bytes()
        );
    }

    #[test]
    fn single_lun_constructor() {
        let chip = FlashChip::single_lun(3, FlashSpec::slc_small(), 1);
        assert_eq!(chip.lun_count(), 1);
        assert_eq!(chip.id(), 3);
    }

    #[test]
    #[should_panic(expected = "needs >=1 LUN")]
    fn zero_luns_rejected() {
        FlashChip::new(0, 0, FlashSpec::mlc_small(), 1);
    }
}
