//! Address-pattern generators (uFLIP-style).
//!
//! A pattern is an infinite iterator of logical page numbers over a space
//! of `span` pages. All randomness is seeded ([`requiem_sim::SimRng`]), so
//! a pattern replays identically across runs and devices — the property
//! uFLIP's "sound measurements" methodology (the paper's ref \[3\]) insists
//! on.

use requiem_sim::SimRng;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The shape of an address pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `base, base+1, base+2, …` wrapping at the span.
    Sequential,
    /// Uniform random over the span.
    UniformRandom,
    /// Zipfian over the span with exponent `theta` (0 = uniform, ~0.99 =
    /// classic YCSB skew).
    Zipfian {
        /// Skew exponent.
        theta: f64,
    },
    /// `base, base+stride, base+2·stride, …` wrapping at the span. A
    /// stride equal to the LUN count defeats static striping — the uFLIP
    /// pattern that exposes placement policies.
    Strided {
        /// Address increment per access.
        stride: u64,
    },
    /// A fraction `hot_fraction` of the span receives `hot_probability`
    /// of the accesses (random within each region).
    HotCold {
        /// Fraction of the span that is hot (0, 1].
        hot_fraction: f64,
        /// Probability an access goes to the hot region.
        hot_probability: f64,
    },
}

/// A seeded, replayable generator of page addresses in `[0, span)`.
pub struct AddressPattern {
    pattern: Pattern,
    span: u64,
    cursor: u64,
    rng: SimRng,
    /// Zipf inverse-CDF table, built once (8 B per rank): entry `i - 1`
    /// is the running sum `1/1^theta + … + 1/i^theta`, so the last entry
    /// is the generalized harmonic number the draws are scaled by.
    zipf_cdf: Vec<f64>,
    /// Multiplier coprime to `span`, scattering zipf ranks over the space
    /// as a bijection.
    zipf_mult: u64,
}

impl std::fmt::Debug for AddressPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AddressPattern({:?}, span={})", self.pattern, self.span)
    }
}

impl AddressPattern {
    /// Create a pattern over `span` pages with a seeded RNG.
    ///
    /// # Panics
    /// Panics if `span == 0` or pattern parameters are out of range.
    pub fn new(pattern: Pattern, span: u64, seed: u64) -> Self {
        assert!(span > 0, "pattern needs a non-empty span");
        if let Pattern::HotCold {
            hot_fraction,
            hot_probability,
        } = &pattern
        {
            assert!(
                *hot_fraction > 0.0 && *hot_fraction <= 1.0,
                "hot fraction must be in (0, 1]"
            );
            assert!(
                (0.0..=1.0).contains(hot_probability),
                "hot probability must be in [0, 1]"
            );
        }
        if let Pattern::Strided { stride } = &pattern {
            assert!(*stride > 0, "stride must be positive");
        }
        let zipf_cdf = match &pattern {
            Pattern::Zipfian { theta } => {
                assert!(*theta >= 0.0, "zipf theta must be non-negative");
                let mut acc = 0.0;
                (1..=span)
                    .map(|i| {
                        acc += 1.0 / (i as f64).powf(*theta);
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        // pick a scatter multiplier coprime to the span so the rank →
        // address map is a bijection (hot ranks land on distinct pages)
        let mut zipf_mult = 0x9E37_79B9u64 | 1;
        while gcd(zipf_mult, span) != 1 {
            zipf_mult += 2;
        }
        AddressPattern {
            pattern,
            span,
            cursor: 0,
            rng: SimRng::from_seed(seed).derive("pattern"),
            zipf_cdf,
            zipf_mult,
        }
    }

    /// The address space size.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Next address in `[0, span)`.
    pub fn next_addr(&mut self) -> u64 {
        match &self.pattern {
            Pattern::Sequential => {
                let a = self.cursor % self.span;
                self.cursor += 1;
                a
            }
            Pattern::Strided { stride } => {
                let a = self.cursor % self.span;
                self.cursor = self.cursor.wrapping_add(*stride);
                a
            }
            Pattern::UniformRandom => self.rng.below(self.span),
            Pattern::Zipfian { .. } => {
                // inverse CDF by binary search over the cumulative table:
                // the first rank whose running sum reaches `u`
                let u = self.rng.unit() * self.zipf_cdf[self.zipf_cdf.len() - 1];
                let rank = self.zipf_cdf.partition_point(|&c| c < u) as u64 + 1;
                // scatter ranks over the address space deterministically
                // (bijective affine map: gcd(mult, span) == 1)
                rank.wrapping_mul(self.zipf_mult) % self.span
            }
            Pattern::HotCold {
                hot_fraction,
                hot_probability,
            } => {
                let hot_pages = ((self.span as f64 * hot_fraction).ceil() as u64).max(1);
                if self.rng.chance(*hot_probability) {
                    self.rng.below(hot_pages)
                } else if hot_pages < self.span {
                    hot_pages + self.rng.below(self.span - hot_pages)
                } else {
                    self.rng.below(self.span)
                }
            }
        }
    }

    /// Take the next `n` addresses as a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_addr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps() {
        let mut p = AddressPattern::new(Pattern::Sequential, 4, 1);
        assert_eq!(p.take_vec(6), vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn strided_pattern() {
        let mut p = AddressPattern::new(Pattern::Strided { stride: 3 }, 8, 1);
        assert_eq!(p.take_vec(4), vec![0, 3, 6, 1]);
    }

    #[test]
    fn uniform_random_in_range_and_covers() {
        let mut p = AddressPattern::new(Pattern::UniformRandom, 16, 2);
        let v = p.take_vec(1000);
        assert!(v.iter().all(|&a| a < 16));
        let distinct: std::collections::BTreeSet<_> = v.iter().collect();
        assert_eq!(distinct.len(), 16, "1000 draws over 16 pages hit all");
    }

    #[test]
    fn uniform_replays_with_same_seed() {
        let mut a = AddressPattern::new(Pattern::UniformRandom, 100, 7);
        let mut b = AddressPattern::new(Pattern::UniformRandom, 100, 7);
        assert_eq!(a.take_vec(50), b.take_vec(50));
    }

    /// The sampler the cumulative table replaced, kept as the reference
    /// the table is held bit-identical to: a left-to-right scan for the
    /// first rank whose running sum reaches `u`. The terms are computed
    /// once, by the expression the table uses, so a draw costs adds, not
    /// `powf` calls; the accumulation order is what the identity rests on.
    struct ScanZipf {
        terms: Vec<f64>,
        harmonic: f64,
        span: u64,
        mult: u64,
        rng: SimRng,
    }

    impl ScanZipf {
        fn new(theta: f64, span: u64, seed: u64, mult: u64) -> Self {
            let terms: Vec<f64> = (1..=span).map(|i| 1.0 / (i as f64).powf(theta)).collect();
            let mut harmonic = 0.0;
            for t in &terms {
                harmonic += t;
            }
            ScanZipf {
                terms,
                harmonic,
                span,
                mult,
                rng: SimRng::from_seed(seed).derive("pattern"),
            }
        }

        fn next_addr(&mut self) -> u64 {
            let u = self.rng.unit() * self.harmonic;
            let mut acc = 0.0;
            let mut rank = self.span; // fallback: coldest
                                      // indexed, not `iter().enumerate()`: half the debug-build time
            let mut i = 0;
            while i < self.terms.len() {
                acc += self.terms[i];
                i += 1;
                if acc >= u {
                    rank = i as u64;
                    break;
                }
            }
            rank.wrapping_mul(self.mult) % self.span
        }
    }

    fn assert_matches_scan(theta: f64, span: u64, seed: u64, draws: usize) {
        let mut table = AddressPattern::new(Pattern::Zipfian { theta }, span, seed);
        let mut scan = ScanZipf::new(theta, span, seed, table.zipf_mult);
        for i in 0..draws {
            assert_eq!(
                table.next_addr(),
                scan.next_addr(),
                "theta {theta}, span {span}, seed {seed}: draw {i} differs"
            );
        }
    }

    #[test]
    fn zipfian_table_matches_the_scan_it_replaced() {
        for span in [1, 2, 100, 4096, 57_344] {
            // a scanned draw costs O(span): fewer of them at the big span
            // keep a debug-build run of this test to a few seconds
            let draws = if span > 4096 { 1_000 } else { 10_000 };
            for theta in [0.0, 0.5, 0.8, 0.99, 1.0, 1.2] {
                for seed in [3, 11, 42] {
                    assert_matches_scan(theta, span, seed, draws);
                }
            }
        }
        assert_matches_scan(0.8, 1_000_000, 11, 200);
    }

    #[test]
    fn zipfian_stream_is_pinned() {
        // every `oltp_*` fingerprint and experiment table is a function of
        // this stream; a sampler change that moves it moves all of them
        let mut p = AddressPattern::new(Pattern::Zipfian { theta: 0.8 }, 4096, 11);
        assert_eq!(
            p.take_vec(16),
            [
                1997, 1921, 3902, 1039, 2706, 189, 1233, 2489, 2803, 2738, 3971, 926, 2595, 3167,
                3754, 558
            ]
        );
    }

    #[test]
    fn zipfian_tail_ranks_are_drawn_past_a_million() {
        // a scan capped at rank 10^6 let the remaining mass (0.98 % here)
        // fall through to `rank = span`, which the scatter maps to address 0
        const SPAN: u64 = (1 << 20) + 1;
        const DRAWS: usize = 200_000;
        let mut p = AddressPattern::new(Pattern::Zipfian { theta: 0.8 }, SPAN, 11);
        let tail: std::collections::BTreeSet<u64> = (1_000_001..SPAN)
            .map(|rank| rank * p.zipf_mult % SPAN)
            .collect();
        let v = p.take_vec(DRAWS);
        let in_tail = v.iter().filter(|a| tail.contains(a)).count();
        assert!(
            in_tail > DRAWS / 200,
            "ranks above 10^6 drew {in_tail}/{DRAWS}, expected about 1 %"
        );
        // address 0 is rank `span`, the coldest: 2e-7 of the mass
        let at_zero = v.iter().filter(|&&a| a == 0).count();
        assert!(at_zero <= 2, "address 0 drew {at_zero}/{DRAWS}");
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut p = AddressPattern::new(Pattern::Zipfian { theta: 0.99 }, 1000, 3);
        let v = p.take_vec(10_000);
        assert!(v.iter().all(|&a| a < 1000));
        // the most popular page should take far more than 1/1000 of accesses
        let mut counts = std::collections::BTreeMap::new();
        for a in v {
            *counts.entry(a).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 400, "zipf 0.99 hottest page got only {max}/10000");
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let mut p = AddressPattern::new(Pattern::Zipfian { theta: 0.0 }, 100, 3);
        let v = p.take_vec(10_000);
        let mut counts = std::collections::BTreeMap::new();
        for a in v {
            *counts.entry(a).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max < 250, "theta=0 should be near-uniform, max={max}");
    }

    #[test]
    fn hot_cold_concentrates() {
        let mut p = AddressPattern::new(
            Pattern::HotCold {
                hot_fraction: 0.1,
                hot_probability: 0.9,
            },
            1000,
            4,
        );
        let v = p.take_vec(10_000);
        let hot_hits = v.iter().filter(|&&a| a < 100).count();
        assert!(
            (8_500..=9_500).contains(&hot_hits),
            "expected ~90% hot hits, got {hot_hits}"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty span")]
    fn zero_span_rejected() {
        AddressPattern::new(Pattern::Sequential, 0, 1);
    }

    #[test]
    #[should_panic(expected = "hot fraction")]
    fn bad_hot_fraction_rejected() {
        AddressPattern::new(
            Pattern::HotCold {
                hot_fraction: 1.5,
                hot_probability: 0.5,
            },
            10,
            1,
        );
    }
}
