//! Deterministic, splittable randomness.
//!
//! One experiment seed fans out into independent streams — one per
//! component (workload generator, error injector, GC victim tiebreaker…) —
//! so that changing how one component consumes randomness cannot perturb
//! another component's stream. Streams are derived by hashing the parent
//! seed with a label (FNV-1a), so derivation is stable across runs,
//! platforms, and code reordering.
//!
//! The generator itself is a self-contained xoshiro256++ (Blackman &
//! Vigna), state-expanded from the 64-bit seed with splitmix64. No
//! external crates are involved, so the stream is fully under this
//! repository's control: identical across toolchains and immune to
//! upstream algorithm changes — a hard requirement for the bit-identical
//! determinism tests in `tests/determinism.rs`.

/// A deterministic random source, seedable and splittable by label.
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimRng(seed={})", self.seed)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, label: &str) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // avalanche (splitmix64 finalizer) so nearby seeds diverge fully
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// splitmix64 step: advances `x` and returns the next output. Used only
/// to expand the 64-bit seed into xoshiro's 256-bit state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a stream from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { seed, state }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The same `(seed, label)` pair always yields the same stream.
    pub fn derive(&self, label: &str) -> SimRng {
        SimRng::from_seed(fnv1a(self.seed, label))
    }

    /// The seed this stream was constructed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Returns 0 if `bound == 0`.
    ///
    /// Debiased via Lemire's widening-multiply rejection method.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound.wrapping_neg() % bound {
                // acceptance region reached; high word is unbiased
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize index in `[0, bound)`. Returns 0 if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality mantissa bits -> [0, 1)
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = SimRng::from_seed(7);
        let mut a1 = root.derive("workload");
        let mut a2 = root.derive("workload");
        let mut b = root.derive("errors");
        let x1 = a1.next_u64();
        assert_eq!(x1, a2.next_u64());
        assert_ne!(x1, b.next_u64());
    }

    #[test]
    fn derive_differs_across_seeds() {
        let a = SimRng::from_seed(1).derive("x");
        let b = SimRng::from_seed(2).derive("x");
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::from_seed(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..=11_000).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(13);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "unit out of range: {u}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut r = SimRng::from_seed(9);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..=3_300).contains(&hits), "hits={hits}");
    }
}
