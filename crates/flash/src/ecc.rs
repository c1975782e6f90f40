//! Error-correction model.
//!
//! SSD controllers wrap every flash page in an ECC codeword (BCH in the
//! paper's era, LDPC later). The paper's myth 1 notes that *"the necessary
//! error management … should take place within a device controller"* — so
//! the model belongs here, below the FTL, invisible to the host.
//!
//! We model ECC statistically: a page read draws a raw bit-error count from
//! a binomial (approximated by a Poisson, accurate for small p and large n)
//! with rate `RBER × page_bits`. If the count exceeds the per-page
//! correction capability, the read is uncorrectable.

use requiem_sim::SimRng;

/// ECC capability configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccConfig {
    /// Correctable bits per 1 KiB sector.
    pub correctable_per_1k: u32,
}

impl EccConfig {
    /// 24-bit BCH (Bose–Chaudhuri–Hocquenghem) per 1 KiB — MLC-class,
    /// the 2012-era standard.
    pub fn bch_24_per_1k() -> Self {
        EccConfig {
            correctable_per_1k: 24,
        }
    }

    /// 40-bit LDPC (low-density parity check) per 1 KiB — TLC-class.
    pub fn ldpc_40_per_1k() -> Self {
        EccConfig {
            correctable_per_1k: 40,
        }
    }

    /// Correctable bits for a whole page of `page_size` bytes.
    pub fn correctable_for_page(&self, page_size: u32) -> u32 {
        let sectors = page_size.div_ceil(1024);
        sectors * self.correctable_per_1k
    }

    /// Draw a raw bit-error count for one page read.
    ///
    /// Poisson(λ = rber × bits) sampled by inversion; exact for the small λ
    /// regime flash operates in (λ ≪ capability except near wear-out).
    pub fn sample_raw_errors(&self, rber: f64, page_size: u32, rng: &mut SimRng) -> u32 {
        let bits = page_size as f64 * 8.0;
        let lambda = (rber * bits).max(0.0);
        if lambda == 0.0 {
            return 0;
        }
        // Knuth inversion for modest λ; for large λ fall back to the
        // normal approximation (wear far past end of life).
        if lambda < 64.0 {
            let l = (-lambda).exp();
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= rng.unit();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 100_000 {
                    return k; // numeric guard; unreachable in practice
                }
            }
        } else {
            let z = normal_sample(rng);
            let x = lambda + lambda.sqrt() * z;
            x.max(0.0).round() as u32
        }
    }

    /// Decide a read outcome: `(raw_errors, correctable?)`.
    pub fn decode(&self, rber: f64, page_size: u32, rng: &mut SimRng) -> (u32, bool) {
        let raw = self.sample_raw_errors(rber, page_size, rng);
        (raw, raw <= self.correctable_for_page(page_size))
    }
}

/// Standard normal via Box–Muller (only used in the far-worn regime).
fn normal_sample(rng: &mut SimRng) -> f64 {
    let u1 = rng.unit().max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_capability_scales_with_sectors() {
        let ecc = EccConfig::bch_24_per_1k();
        assert_eq!(ecc.correctable_for_page(1024), 24);
        assert_eq!(ecc.correctable_for_page(4096), 96);
        assert_eq!(ecc.correctable_for_page(4097), 120); // rounds up
    }

    #[test]
    fn fresh_flash_reads_are_clean() {
        let ecc = EccConfig::bch_24_per_1k();
        let mut rng = SimRng::from_seed(1);
        // MLC fresh rber=1e-7 → λ ≈ 0.0033 per 4KiB page; ~all zero errors
        let mut total = 0u32;
        for _ in 0..1000 {
            let (raw, ok) = ecc.decode(1e-7, 4096, &mut rng);
            total += raw;
            assert!(ok);
        }
        assert!(total < 20, "total={total}");
    }

    #[test]
    fn worn_flash_exceeds_capability() {
        let ecc = EccConfig::bch_24_per_1k();
        let mut rng = SimRng::from_seed(2);
        // RBER 1e-2 → λ ≈ 328 per 4KiB page ≫ 96 correctable
        let mut failures = 0;
        for _ in 0..100 {
            let (_, ok) = ecc.decode(1e-2, 4096, &mut rng);
            if !ok {
                failures += 1;
            }
        }
        assert_eq!(failures, 100);
    }

    #[test]
    fn poisson_mean_roughly_lambda() {
        let ecc = EccConfig::bch_24_per_1k();
        let mut rng = SimRng::from_seed(3);
        // λ = 1e-4 * 32768 = 3.2768
        let n = 10_000;
        let sum: u64 = (0..n)
            .map(|_| ecc.sample_raw_errors(1e-4, 4096, &mut rng) as u64)
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.2768).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn large_lambda_uses_normal_path() {
        let ecc = EccConfig::bch_24_per_1k();
        let mut rng = SimRng::from_seed(4);
        // λ = 0.01 * 32768 ≈ 327.7 — exercises the normal branch
        let n = 2_000;
        let sum: u64 = (0..n)
            .map(|_| ecc.sample_raw_errors(0.01, 4096, &mut rng) as u64)
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 327.68).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn zero_rber_zero_errors() {
        let ecc = EccConfig::bch_24_per_1k();
        let mut rng = SimRng::from_seed(5);
        assert_eq!(ecc.sample_raw_errors(0.0, 4096, &mut rng), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ecc = EccConfig::ldpc_40_per_1k();
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        for _ in 0..100 {
            assert_eq!(
                ecc.sample_raw_errors(1e-5, 4096, &mut a),
                ecc.sample_raw_errors(1e-5, 4096, &mut b)
            );
        }
    }
}
