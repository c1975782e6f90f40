//! Small measuring tools shared by the workloads: the run fingerprint, an
//! interpolated histogram quantile, the quiet repetition, and peak RSS.

use requiem_sim::Histogram;

/// FNV-1a over 64-bit words: the `sim_fingerprint` of a run. Every
/// simulated quantity a run reports is folded in, so two runs agree on the
/// fingerprint exactly when they simulated the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Fold a latency histogram: its exact moments plus a percentile
    /// ladder (the bucket counts themselves are private).
    pub fn hist(&mut self, h: &Histogram) {
        self.u64(h.count());
        self.u64(h.min());
        self.u64(h.max());
        self.f64(h.mean());
        for i in 1..100 {
            self.u64(h.quantile(f64::from(i) / 100.0));
        }
        self.u64(h.quantile(0.999));
        self.u64(h.quantile(0.9999));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The value at quantile `q`, interpolated linearly inside the histogram
/// bucket that holds it.
///
/// [`Histogram::quantile`] returns a bucket's lower bound: steps of up to
/// 6.25 %, so a 2 % shift in a latency is either invisible or reads as
/// 6 %. Interpolating by the rank's position among the bucket's samples
/// gives a continuous estimate from the same public API: the ranks at the
/// bucket's edges are found by bisection on `quantile` itself, and the
/// bucket geometry (16 linear sub-buckets per power of two) is the one
/// `requiem_sim::stats` documents.
pub fn quantile_interp(h: &Histogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let floor = h.quantile(q);
    let (lo, width) = if floor < 16 {
        (floor, 1)
    } else {
        let shift = 63 - floor.leading_zeros() - 4;
        ((floor >> shift) << shift, 1u64 << shift)
    };
    // value of the r-th smallest sample's bucket, r in 1..=total
    let at_rank = |r: u64| h.quantile((r as f64 - 0.5) / total as f64);
    // first rank whose bucket value satisfies `pred` (monotone in r)
    let first_rank = |pred: &dyn Fn(u64) -> bool| {
        let (mut a, mut b) = (1u64, total + 1);
        while a < b {
            let mid = a + (b - a) / 2;
            if pred(at_rank(mid)) {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        a
    };
    let below = first_rank(&|v| v >= floor) - 1;
    let through = first_rank(&|v| v > floor) - 1;
    let inside = (through - below).max(1) as f64;
    let frac = ((q * total as f64 - below as f64) / inside).clamp(0.0, 1.0);
    // the bucket holds a sample, so it overlaps [min, max]
    let hi = (lo + width).min(h.max()) as f64;
    let lo = lo.max(h.min()) as f64;
    lo + frac * (hi - lo)
}

/// The lower quartile of a non-empty slice of host times, and where in the
/// slice it is.
///
/// Every host time the harness reports comes from several repetitions of
/// *identical* deterministic work. The sandbox's noise is one-sided and
/// large — neighbours on the core and its caches slow a repetition by
/// anything up to 2x, for seconds to minutes at a time — so the median
/// over a run swings by tens of percent between runs. The fastest
/// repetition is an extreme and jumps about as well. Over sliding windows
/// of real rep times the lower quartile had the smallest run-to-run spread
/// of the three (about 4-6 % against 5-13 % and 9-11 %).
pub fn quiet(xs: &[f64]) -> (usize, f64) {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let i = order[(xs.len() - 1) / 4];
    (i, xs[i])
}

/// A reference clock for host times.
///
/// Beyond the jitter [`quiet`] deals with, the sandbox changes speed as a
/// whole: for a quarter of an hour at a time everything runs a third
/// slower. No statistic over one run can see through that, so every run
/// also times a fixed piece of work of the harness's own — a xorshift walk
/// over a 4 MiB table with a data-dependent branch, about as cache- and
/// branch-bound as the simulator — between its reps, and reports host times
/// scaled to a machine on which that loop takes [`RefClock::NOMINAL_S`].
/// Over 11 minutes of 20-rep windows this cut the spread of `oltp_qd16`'s
/// rep time from 11 % to 4 % and its range from 29 % to 16 %.
pub struct RefClock {
    table: Vec<u32>,
    samples_s: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        let mut clock = RefClock {
            table: vec![0; 1 << 20],
            samples_s: Vec::new(),
        };
        // the first pass pays for faulting the table in: discard it
        clock.sample();
        clock.samples_s.clear();
        clock
    }
}

impl RefClock {
    /// What one sample takes on the machine the baseline was taken on,
    /// undisturbed.
    pub const NOMINAL_S: f64 = 0.016;

    /// Time the reference work once (about 16 ms).
    pub fn sample(&mut self) {
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        let t = std::time::Instant::now();
        for _ in 0..4_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                self.table[i] = v.wrapping_add(x as u32);
            } else {
                acc = acc.wrapping_add(u64::from(v));
                self.table[i] = v >> 1;
            }
        }
        std::hint::black_box(acc);
        self.samples_s.push(t.elapsed().as_secs_f64());
    }

    /// Factor that turns this run's host seconds into reference seconds
    /// (below 1 while the machine is slower than nominal).
    pub fn scale(&self) -> f64 {
        Self::NOMINAL_S / quiet(&self.samples_s).1
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket_and_moves_with_rank() {
        let mut h = Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.999] {
            let exact = 1000.0 + q * 1000.0;
            let got = quantile_interp(&h, q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
            assert!(got >= h.quantile(q) as f64);
        }
        assert!(quantile_interp(&h, 0.52) > quantile_interp(&h, 0.5));
    }

    #[test]
    fn interpolated_quantile_of_a_point_mass_is_the_point() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(75_000);
        }
        assert_eq!(quantile_interp(&h, 0.5), 75_000.0);
        assert_eq!(quantile_interp(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn quiet_is_the_lower_quartile_and_the_minimum_of_a_few() {
        assert_eq!(quiet(&[3.0, 1.5, 2.0]), (1, 1.5));
        let xs: Vec<f64> = (0..9).rev().map(f64::from).collect();
        assert_eq!(quiet(&xs), (6, 2.0));
    }
}
