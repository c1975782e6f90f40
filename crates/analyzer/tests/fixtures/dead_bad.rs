// DEAD01 fixture, linted as `crates/flash/src/lun.rs`: four `pub` items
// in the declaration forms the rule knows, each named by nothing but its
// declaration and this file's #[cfg(test)] module. `erase_total` has a
// caller outside the tests, `scrub` is not `pub` (rustc's dead_code
// covers it) and `retire` is `pub(crate)` (so does rustc).
pub struct Lun {
    erase_counts: Vec<u32>,
}

/// Blocks held back from the host.
pub const SPARE_BLOCKS: u32 = 4;

/// Erases a block is rated for.
pub static WEAR_LIMIT: u32 = 3_000;

/// Pages per block of the test geometry.
pub const fn lines_per_block() -> u32 {
    64
}

impl Lun {
    pub fn erase_total(&self) -> u32 {
        self.erase_counts.iter().sum()
    }

    pub fn mean_erase_count(&self) -> f64 {
        f64::from(self.erase_total()) / self.erase_counts.len() as f64
    }

    fn scrub(&mut self) {
        self.erase_counts.clear();
    }

    pub(crate) fn retire(&mut self) {
        self.scrub();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear() {
        let lun = Lun { erase_counts: vec![1, 3] };
        assert_eq!(lun.mean_erase_count(), 2.0);
        assert!(SPARE_BLOCKS < lines_per_block() && WEAR_LIMIT > 0);
    }
}
