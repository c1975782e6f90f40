//! Flash cell technology: bits per cell, endurance, raw bit error rate.
//!
//! The paper (§2.2) notes the density trend — more bits per cell, smaller
//! process — and its cost: *"Increased density also incurs reduced cell
//! lifetime (5000 cycles for triple-level-cell flash), and raw performance
//! decreases."* This module encodes that trade-off: each [`CellKind`]
//! carries an endurance budget and a wear-dependent raw bit error rate
//! (RBER) curve that the ECC model consumes.

/// Flash cell technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Single-level cell: 1 bit/cell, fastest, ~100 000 P/E cycles.
    Slc,
    /// Multi-level cell: 2 bits/cell, ~10 000 P/E cycles.
    Mlc,
    /// Triple-level cell: 3 bits/cell, ~5 000 P/E cycles (the paper's figure).
    Tlc,
}

impl CellKind {
    /// Rated program/erase cycles before the block is considered worn out.
    pub fn endurance(self) -> u32 {
        match self {
            CellKind::Slc => 100_000,
            CellKind::Mlc => 10_000,
            CellKind::Tlc => 5_000,
        }
    }

    /// Raw bit error rate at zero wear (fresh block).
    ///
    /// Values follow published characterization studies: SLC ~1e-9,
    /// MLC ~1e-7, TLC ~1e-6 fresh.
    pub fn base_rber(self) -> f64 {
        match self {
            CellKind::Slc => 1e-9,
            CellKind::Mlc => 1e-7,
            CellKind::Tlc => 1e-6,
        }
    }

    /// RBER growth factor at rated endurance. RBER grows exponentially with
    /// wear; at 100 % of rated cycles it is `base × growth`.
    pub fn rber_growth_at_endurance(self) -> f64 {
        match self {
            CellKind::Slc => 100.0,
            CellKind::Mlc => 1_000.0,
            CellKind::Tlc => 3_000.0,
        }
    }

    /// Raw bit error rate at a given wear ratio (`erase_count / endurance`).
    ///
    /// Exponential interpolation: `base · growthʷ`. Wear beyond 1.0 keeps
    /// compounding, modelling operation past rated life.
    pub fn rber(self, wear_ratio: f64) -> f64 {
        let w = wear_ratio.max(0.0);
        self.base_rber() * self.rber_growth_at_endurance().powf(w)
    }

    /// Reads-per-block budget before read disturb roughly doubles the
    /// raw bit error rate. Denser cells disturb sooner.
    pub fn read_disturb_budget(self) -> u64 {
        match self {
            CellKind::Slc => 1_000_000,
            CellKind::Mlc => 250_000,
            CellKind::Tlc => 100_000,
        }
    }

    /// Multiplicative RBER factor after `reads` page reads since the last
    /// erase: `2^(reads / budget)` — the exponential drift observed in
    /// characterization studies.
    pub fn read_disturb_factor(self, reads: u64) -> f64 {
        2f64.powf(reads as f64 / self.read_disturb_budget() as f64)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Slc => "SLC",
            CellKind::Mlc => "MLC",
            CellKind::Tlc => "TLC",
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_endurance_tradeoff_monotone() {
        // more bits per cell => fewer cycles and higher error rates,
        // exactly the trend §2.2 describes
        assert!(CellKind::Slc.endurance() > CellKind::Mlc.endurance());
        assert!(CellKind::Mlc.endurance() > CellKind::Tlc.endurance());
        assert!(CellKind::Slc.base_rber() < CellKind::Mlc.base_rber());
        assert!(CellKind::Mlc.base_rber() < CellKind::Tlc.base_rber());
        assert_eq!(CellKind::Tlc.endurance(), 5_000); // paper's number
    }

    #[test]
    fn rber_grows_with_wear() {
        for kind in [CellKind::Slc, CellKind::Mlc, CellKind::Tlc] {
            let fresh = kind.rber(0.0);
            let half = kind.rber(0.5);
            let worn = kind.rber(1.0);
            assert!(fresh < half && half < worn, "{kind}");
            let expected = kind.base_rber() * kind.rber_growth_at_endurance();
            assert!((worn / expected - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rber_past_endurance_keeps_growing() {
        let k = CellKind::Mlc;
        assert!(k.rber(2.0) > k.rber(1.0));
    }

    #[test]
    fn negative_wear_clamped() {
        let k = CellKind::Mlc;
        assert_eq!(k.rber(-1.0), k.rber(0.0));
    }

    #[test]
    fn read_disturb_compounds_and_orders_by_density() {
        for kind in [CellKind::Slc, CellKind::Mlc, CellKind::Tlc] {
            assert!((kind.read_disturb_factor(0) - 1.0).abs() < 1e-12);
            let budget = kind.read_disturb_budget();
            assert!((kind.read_disturb_factor(budget) - 2.0).abs() < 1e-9);
            assert!((kind.read_disturb_factor(2 * budget) - 4.0).abs() < 1e-9);
        }
        // denser cells disturb sooner
        assert!(CellKind::Tlc.read_disturb_budget() < CellKind::Mlc.read_disturb_budget());
        assert!(CellKind::Mlc.read_disturb_budget() < CellKind::Slc.read_disturb_budget());
    }
}
