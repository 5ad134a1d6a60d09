//! Summary statistics for Monte-Carlo experiment results.
//!
//! Two ways to build a [`Summary`]:
//!
//! * [`Summary::of`] — exact, sort-based, needs the whole sample in memory;
//! * streaming — a `Moments` accumulator and a `QuantileHistogram` fed
//!   the same values, finished by `Moments::summary`. The
//!   Monte-Carlo driver uses this, so its memory does not scale with the
//!   replica count: moments are fixed-size, and the histogram holds one
//!   entry per non-empty bucket, a number bounded by the values' spread
//!   (256 buckets per octave) rather than by how many values there are.
//!
//! Moments use Welford's update and Chan's pairwise merge. Float merges
//! are order-sensitive, so the driver folds replicas in fixed-size chunks
//! whose boundaries depend only on the sample size and merges the chunk
//! moments in index order. Histogram counts are integers, so summing
//! histograms is exact in any order and any grouping. Both together make
//! the result bit-identical at any thread count. `min`/`max` and all
//! counters are exact; `median`/`p95` come from the log₂-quantized
//! histogram (≲0.4% relative quantization error), clamped to the exact
//! `[min, max]` — a documented approximation, adequate for the dispersion
//! read-outs they feed.

use serde::{Deserialize, Serialize};

/// Summary of a sample of scalar outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Panics
    /// Panics on an empty sample or non-finite values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "sample contains non-finite values"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Linear-interpolated percentile of a pre-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Number of leading `f64` bits (sign + exponent + 8 mantissa bits) kept as
/// the histogram bucket key; 256 sub-bins per octave.
const BUCKET_SHIFT: u32 = 44;

/// Bucket key for a non-negative finite value. Monotone in the value, so
/// cumulative bucket counts give rank bounds.
fn bucket_of(v: f64) -> u32 {
    if v <= 0.0 {
        0
    } else {
        (v.to_bits() >> BUCKET_SHIFT) as u32
    }
}

/// Half-open value range `[lo, hi)` covered by a bucket key.
fn bucket_bounds(key: u32) -> (f64, f64) {
    let lo = if key == 0 {
        0.0
    } else {
        f64::from_bits((key as u64) << BUCKET_SHIFT)
    };
    let hi = f64::from_bits(((key as u64) + 1) << BUCKET_SHIFT);
    (lo, hi)
}

/// Log₂-quantized counting histogram for quantile estimates: one
/// `(bucket key, count)` pair per non-empty bucket, in ascending key
/// order. A push is a binary search plus an increment (an insert only for
/// a bucket not seen before); a merge is one linear pass over two sorted
/// lists. Bucket counts are integers, so merging is exactly commutative
/// and associative — the result is independent of merge order and thread
/// count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct QuantileHistogram {
    buckets: Vec<(u32, u64)>,
}

impl QuantileHistogram {
    /// Count one value.
    pub fn push(&mut self, v: f64) {
        let key = bucket_of(v);
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (key, 1)),
        }
    }

    /// Add another histogram's counts in.
    pub fn merge(&mut self, other: &Self) {
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets.clone_from(&other.buckets);
            return;
        }
        let (a, b) = (&self.buckets, &other.buckets);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ka, ca) = a[i];
            let (kb, cb) = b[j];
            if ka < kb {
                merged.push(a[i]);
                i += 1;
            } else if kb < ka {
                merged.push(b[j]);
                j += 1;
            } else {
                merged.push((ka, ca + cb));
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.buckets = merged;
    }

    /// Value at integer rank `r` (0-based), interpolated linearly inside the
    /// bucket that contains the rank.
    fn value_at_rank(&self, r: u64) -> f64 {
        let mut before = 0u64;
        for &(key, count) in &self.buckets {
            if r < before + count {
                let (lo, hi) = bucket_bounds(key);
                let frac = (r - before) as f64 + 0.5;
                return lo + (hi - lo) * (frac / count as f64);
            }
            before += count;
        }
        // Ranks are always < total count; fall back to the top bucket edge.
        f64::NAN
    }

    /// Approximate `q`-quantile of `n` accumulated values, clamped to the
    /// exact observed `[min, max]`.
    ///
    /// Total on degenerate input instead of UB-adjacent: `n == 0` answers
    /// NaN (there is no quantile of nothing), a NaN `q` answers NaN, and
    /// out-of-range `q` clamps to `[0, 1]`. The old `debug_assert!`-only
    /// guard let release builds underflow `n - 1` for `n == 0` and walk
    /// ranks past the histogram, surfacing as a `clamp` panic on the
    /// empty accumulator's inverted `[∞, -∞]` range.
    fn quantile(&self, q: f64, n: u64, min: f64, max: f64) -> f64 {
        if n == 0 || q.is_nan() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if n == 1 {
            return min;
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let frac = pos - lo as f64;
        let v = self.value_at_rank(lo) * (1.0 - frac) + self.value_at_rank(hi) * frac;
        v.clamp(min, max)
    }
}

/// Streaming moments: exact count, mean, variance, min and max. Welford's
/// update per value, Chan's pairwise merge per partial. Float merges are
/// order-sensitive, so callers merge partials in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Self::new()
    }
}

impl Moments {
    /// No values yet.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of values accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Fold one value in (Welford's update).
    ///
    /// # Panics
    /// Panics on non-finite values, matching [`Summary::of`].
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "sample contains non-finite values");
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another partial in (Chan's pairwise update). Callers must
    /// merge partials in a fixed order for bit-identical results.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finish into a [`Summary`], with `median` and `p95` read from
    /// `hist`, which must hold the same values.
    ///
    /// # Panics
    /// Panics if no values were accumulated.
    pub fn summary(&self, hist: &QuantileHistogram) -> Summary {
        assert!(self.n > 0, "cannot summarize an empty sample");
        let var = if self.n > 1 {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        } else {
            0.0
        };
        Summary {
            n: self.n as usize,
            mean: self.mean,
            std_dev: var.sqrt(),
            min: self.min,
            max: self.max,
            median: hist.quantile(0.50, self.n, self.min, self.max),
            p95: hist.quantile(0.95, self.n, self.min, self.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Moments and a histogram fed the same values, as one stream.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct StreamingSummary {
        moments: Moments,
        hist: QuantileHistogram,
    }

    impl StreamingSummary {
        fn new() -> Self {
            Self::default()
        }

        fn push(&mut self, v: f64) {
            self.moments.push(v);
            self.hist.push(v);
        }

        fn merge(&mut self, other: &Self) {
            self.moments.merge(&other.moments);
            self.hist.merge(&other.hist);
        }

        fn summary(&self) -> Summary {
            self.moments.summary(&self.hist)
        }
    }

    /// The `BTreeMap` histogram the sorted-vector one replaced, kept as
    /// its oracle.
    #[derive(Debug, Clone, Default)]
    struct OracleHistogram {
        buckets: BTreeMap<u32, u64>,
    }

    impl OracleHistogram {
        fn push(&mut self, v: f64) {
            *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        }

        fn merge(&mut self, other: &Self) {
            for (&key, &count) in &other.buckets {
                *self.buckets.entry(key).or_insert(0) += count;
            }
        }

        fn value_at_rank(&self, r: u64) -> f64 {
            let mut before = 0u64;
            for (&key, &count) in &self.buckets {
                if r < before + count {
                    let (lo, hi) = bucket_bounds(key);
                    let frac = (r - before) as f64 + 0.5;
                    return lo + (hi - lo) * (frac / count as f64);
                }
                before += count;
            }
            f64::NAN
        }

        fn quantile(&self, q: f64, n: u64, min: f64, max: f64) -> f64 {
            if n == 0 || q.is_nan() {
                return f64::NAN;
            }
            let q = q.clamp(0.0, 1.0);
            if n == 1 {
                return min;
            }
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as u64;
            let hi = pos.ceil() as u64;
            let frac = pos - lo as f64;
            let v = self.value_at_rank(lo) * (1.0 - frac) + self.value_at_rank(hi) * frac;
            v.clamp(min, max)
        }

        fn buckets(&self) -> Vec<(u32, u64)> {
            self.buckets.iter().map(|(&k, &c)| (k, c)).collect()
        }
    }

    /// SplitMix64 step, for the chunkings and merge orders below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sorted-vector histogram counts exactly what the `BTreeMap`
        /// oracle counts, however the values are chunked into partial
        /// histograms and in whatever order the partials merge, and its
        /// quantiles have the oracle's bits.
        #[test]
        fn sorted_histogram_matches_the_btreemap_oracle(
            exps in prop::collection::vec(-3.0f64..4.0, 1..700),
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            // Values from 1e-3 to 1e4, with exact repeats and zeros mixed in.
            let vals: Vec<f64> = exps
                .iter()
                .enumerate()
                .map(|(i, &e)| match mix(&mut state) % 16 {
                    0 => 0.0,
                    1 if i > 0 => 10f64.powf(exps[i - 1]),
                    _ => 10f64.powf(e),
                })
                .collect();
            let mut parts = Vec::new();
            let mut rest = &vals[..];
            while !rest.is_empty() {
                let take = 1 + (mix(&mut state) as usize) % rest.len().min(97);
                let (chunk, tail) = rest.split_at(take);
                let mut part = (QuantileHistogram::default(), OracleHistogram::default());
                for &v in chunk {
                    part.0.push(v);
                    part.1.push(v);
                }
                parts.push(part);
                rest = tail;
            }
            // Merge in a random order: the oracle one partial at a time,
            // the sorted histograms pairwise first.
            for k in (1..parts.len()).rev() {
                parts.swap(k, (mix(&mut state) as usize) % (k + 1));
            }
            let mut oracle = OracleHistogram::default();
            let mut total = QuantileHistogram::default();
            for pair in parts.chunks(2) {
                let mut p = QuantileHistogram::default();
                for (sorted, tree) in pair {
                    p.merge(sorted);
                    oracle.merge(tree);
                }
                total.merge(&p);
            }
            prop_assert_eq!(total.buckets, oracle.buckets());
            let n = vals.len() as u64;
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                prop_assert_eq!(
                    total.quantile(q, n, min, max).to_bits(),
                    oracle.quantile(q, n, min, max).to_bits(),
                    "q={}", q
                );
            }
        }
    }

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn median_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 10.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_value_degenerate() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn percentile_ordering() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::of(&vals);
        assert!(s.median < s.p95);
        assert!(s.p95 <= s.max);
        assert!((s.p95 - 94.05).abs() < 1e-9);
    }

    #[test]
    fn cv_of_constant_sample_is_zero() {
        let s = Summary::of(&[3.0, 3.0, 3.0]);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        Summary::of(&[1.0, f64::NAN]);
    }

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic spread over ~3 orders of magnitude.
        (0..n)
            .map(|i| 0.07 + (i as f64 * 0.613).sin().abs() * 40.0 + (i % 13) as f64)
            .collect()
    }

    #[test]
    fn streaming_matches_exact_moments_and_extrema() {
        let vals = sample(500);
        let exact = Summary::of(&vals);
        let mut acc = StreamingSummary::new();
        for &v in &vals {
            acc.push(v);
        }
        let s = acc.summary();
        assert_eq!(s.n, exact.n);
        assert_eq!(s.min, exact.min);
        assert_eq!(s.max, exact.max);
        assert!((s.mean - exact.mean).abs() < 1e-9 * exact.mean.abs());
        assert!((s.std_dev - exact.std_dev).abs() < 1e-9 * exact.std_dev.abs());
    }

    #[test]
    fn streaming_quantiles_within_bucket_tolerance() {
        let vals = sample(2000);
        let exact = Summary::of(&vals);
        let mut acc = StreamingSummary::new();
        for &v in &vals {
            acc.push(v);
        }
        let s = acc.summary();
        // One log2 bucket spans a relative width of 2^-8 ≈ 0.4%; allow a
        // little slack for the cross-rank interpolation.
        assert!((s.median - exact.median).abs() < 0.01 * exact.median.abs());
        assert!((s.p95 - exact.p95).abs() < 0.01 * exact.p95.abs());
        assert!(s.median >= s.min && s.p95 <= s.max);
    }

    #[test]
    fn streaming_chunked_merge_is_bit_identical_to_itself() {
        // The determinism contract: identical chunk boundaries merged in
        // index order give bit-identical results however the partials were
        // produced.
        let vals = sample(777);
        let fold = |chunk: usize| {
            let mut merged = StreamingSummary::new();
            for c in vals.chunks(chunk) {
                let mut part = StreamingSummary::new();
                for &v in c {
                    part.push(v);
                }
                merged.merge(&part);
            }
            merged.summary()
        };
        assert_eq!(fold(64), fold(64));
        // Different chunkings agree to float tolerance (not necessarily
        // bit-identical — that is why evaluate() fixes the chunk size).
        let a = fold(64);
        let b = fold(13);
        assert!((a.mean - b.mean).abs() < 1e-9 * a.mean.abs());
    }

    #[test]
    fn streaming_constant_sample_is_exact() {
        let mut acc = StreamingSummary::new();
        for _ in 0..100 {
            acc.push(3.25);
        }
        let s = acc.summary();
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.25);
        assert_eq!(s.p95, 3.25);
    }

    #[test]
    fn streaming_single_and_zero_values() {
        let mut acc = StreamingSummary::new();
        acc.push(7.0);
        let s = acc.summary();
        assert_eq!((s.n, s.mean, s.median, s.p95), (1, 7.0, 7.0, 7.0));

        let mut zeros = StreamingSummary::new();
        zeros.push(0.0);
        zeros.push(0.0);
        let z = zeros.summary();
        assert_eq!((z.min, z.max, z.median), (0.0, 0.0, 0.0));
    }

    #[test]
    fn streaming_merge_with_empty_is_identity() {
        let mut acc = StreamingSummary::new();
        acc.push(1.0);
        acc.push(2.0);
        let before = acc.clone();
        acc.merge(&StreamingSummary::new());
        assert_eq!(acc, before);
        let mut empty = StreamingSummary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn streaming_empty_summary_panics() {
        StreamingSummary::new().summary();
    }

    #[test]
    fn quantile_is_total_on_degenerate_inputs() {
        let mut h = QuantileHistogram::default();
        // n == 0: no quantile, not a panic. Release builds used to
        // underflow `n - 1`, walk ranks past the histogram, and panic in
        // `clamp` on the empty accumulator's inverted `[∞, -∞]` range.
        assert!(h
            .quantile(0.5, 0, f64::INFINITY, f64::NEG_INFINITY)
            .is_nan());
        h.push(4.0);
        assert_eq!(h.quantile(0.5, 1, 4.0, 4.0), 4.0);
        h.push(8.0);
        // Out-of-range and NaN q: clamp into [0, 1] / answer NaN instead
        // of interpolating at ranks that do not exist.
        assert_eq!(h.quantile(-0.3, 2, 4.0, 8.0), h.quantile(0.0, 2, 4.0, 8.0));
        assert_eq!(h.quantile(1.7, 2, 4.0, 8.0), h.quantile(1.0, 2, 4.0, 8.0));
        assert!(h.quantile(f64::NAN, 2, 4.0, 8.0).is_nan());
        // Healthy queries stay inside the observed extrema.
        let v = h.quantile(0.9, 2, 4.0, 8.0);
        assert!((4.0..=8.0).contains(&v));
    }
}
