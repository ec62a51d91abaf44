//! Order statistics over measured samples.

/// A percentile together with the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value (nearest rank).
    pub value: u64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, which it sorts.
/// `None` when there are no samples.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: samples[rank - 1],
        samples: n,
    })
}

/// `q`-quantile of `samples` (which it sorts) for data with many ties:
/// the nearest-rank value, moved down into the gap below it by the share
/// of its tie group the rank has not yet passed. Without ties it lies
/// between the nearest-rank value and its predecessor; with ties it
/// moves continuously as the rank crosses from one value to the next,
/// where the nearest-rank percentile jumps a whole gap. `None` when
/// there are no samples.
pub fn percentile_interpolated(samples: &mut [u64], q: f64) -> Option<f64> {
    let nearest = percentile(samples, q)?;
    let v = nearest.value;
    let below = samples.partition_point(|&x| x < v);
    let through = samples.partition_point(|&x| x <= v);
    let prev = if below == 0 { v } else { samples[below - 1] };
    let rank = q * samples.len() as f64;
    let share = ((rank - below as f64) / (through - below) as f64).clamp(0.0, 1.0);
    Some(prev as f64 + (v - prev) as f64 * share)
}

/// The highest percentile, in tenths of a percent, that still has at
/// least `beyond` samples above it out of `n` — the tail a run of `n`
/// samples can honestly report. `None` when `n <= beyond`.
pub fn highest_supported_permille(n: usize, beyond: usize) -> Option<u32> {
    if n <= beyond {
        return None;
    }
    // Largest p (permille) with n * (1000 - p) / 1000 >= beyond.
    let p = 1000 - (beyond * 1000).div_ceil(n);
    Some(p as u32)
}

/// Sub-buckets per power of two in [`Histogram`] (relative bucket width
/// under 0.8 %).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of `u64` samples: fixed memory however many
/// samples arrive, so recording latencies does not grow the process.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; Histogram::index(u64::MAX) + 1],
            n: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Lowest value of bucket `i`, and the bucket's width.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let shift = i / SUB - 1;
        ((SUB + i % SUB) << shift, 1 << shift)
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Histogram::index(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank `q`-quantile, placed inside its bucket by rank as if
    /// the bucket's samples were spread evenly over it: the bucket's
    /// middle would read the same in every run whose quantile falls in
    /// that bucket.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as usize).clamp(1, self.n) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Histogram::bucket(i);
                // The k-th of the bucket's c samples sits in the middle
                // of the k-th of c equal parts of the bucket.
                let k = rank - (seen - c);
                let offset = u128::from(width) * u128::from(2 * k - 1) / u128::from(2 * c);
                return Some(Percentile {
                    value: low + offset as u64,
                    samples: self.n,
                });
            }
        }
        unreachable!("ranks stop at the sample count")
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_count() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(
            percentile(&mut s, 0.5),
            Some(Percentile {
                value: 50,
                samples: 100
            })
        );
        assert_eq!(percentile(&mut s, 0.99).unwrap().value, 99);
        assert_eq!(percentile(&mut s, 1.0).unwrap().value, 100);
        assert_eq!(percentile(&mut [7], 0.99).unwrap().value, 7);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn interpolated_percentiles_move_smoothly_across_ties() {
        // 40 × 100 then 60 × 200: the median is inside the 200 group,
        // 10 of its 60 ranks in.
        let mut s: Vec<u64> = [100; 40].into_iter().chain([200; 60]).collect();
        let m = percentile_interpolated(&mut s, 0.5).unwrap();
        assert!((m - (100.0 + 100.0 * 10.0 / 60.0)).abs() < 1e-9, "{m}");
        // Shifting one sample across the boundary moves it a little,
        // where the nearest-rank median would not move at all or jump.
        let mut t: Vec<u64> = [100; 41].into_iter().chain([200; 59]).collect();
        let m2 = percentile_interpolated(&mut t, 0.5).unwrap();
        assert!(m2 < m && m - m2 < 5.0, "{m2}");
        // At the top of a tie group it equals the group's value.
        let mut u: Vec<u64> = [100; 50].into_iter().chain([200; 50]).collect();
        assert_eq!(percentile_interpolated(&mut u, 0.5), Some(100.0));
        // Distinct values: between the nearest-rank value and the one below.
        let mut d: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_interpolated(&mut d, 0.99), Some(99.0));
        assert_eq!(percentile_interpolated(&mut [7], 0.5), Some(7.0));
        assert_eq!(percentile_interpolated(&mut [], 0.5), None);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 above.
        assert_eq!(highest_supported_permille(1000, 10), Some(990));
        // 2000 samples reach p99.5.
        assert_eq!(highest_supported_permille(2000, 10), Some(995));
        // 15 samples: only p33.3 keeps ten above.
        assert_eq!(highest_supported_permille(15, 10), Some(333));
        assert_eq!(highest_supported_permille(10, 10), None);
        for n in [11usize, 57, 999, 1234, 100_000] {
            let p = highest_supported_permille(n, 10).unwrap() as usize;
            assert!(n * (1000 - p) >= 10 * 1000, "n={n} p={p}");
            assert!(p == 999 || n * (1000 - p - 1) < 10 * 1000, "n={n} p={p}");
        }
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket() {
        let mut h = Histogram::default();
        assert!(h.percentile(0.5).is_none());
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 100_000);
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.001, 100.0)] {
            let p = h.percentile(q).unwrap();
            assert_eq!(p.samples, 100_000);
            let err = (p.value as f64 - exact).abs() / exact;
            assert!(err < 0.008, "q={q}: {} vs {exact}", p.value);
        }
        // Small values are exact; buckets tile the range without gaps.
        let mut small = Histogram::default();
        small.record(5);
        assert_eq!(small.percentile(0.5).unwrap().value, 5);
        // Inside a wide bucket the quantile moves with the rank: four
        // samples in [1024, 1032) read 1025, 1027, 1029 and 1031.
        let mut wide = Histogram::default();
        for _ in 0..4 {
            wide.record(1024);
        }
        let at = |q| wide.percentile(q).unwrap().value;
        assert_eq!(
            [at(0.25), at(0.5), at(0.75), at(1.0)],
            [1025, 1027, 1029, 1031]
        );
        for i in 0..3000 {
            let (low, width) = Histogram::bucket(i);
            assert_eq!(Histogram::bucket(i + 1).0, low + width);
            assert_eq!(Histogram::index(low), i);
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
