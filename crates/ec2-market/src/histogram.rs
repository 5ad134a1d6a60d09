//! Spot price histograms and distribution-stability measures.
//!
//! Section 2 of the paper argues that although the spot price itself is
//! unpredictable, its *distribution* over a short horizon is stable — their
//! Figure 2 overlays the m1.medium/us-east-1a histograms of four consecutive
//! days. This module provides the histogram type used to regenerate that
//! figure and the distance measures used to quantify "stable".

use crate::trace::TraceWindow;
use crate::Usd;
use serde::{Deserialize, Serialize};

/// A fixed-bin histogram of spot prices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceHistogram {
    lo: Usd,
    hi: Usd,
    counts: Vec<u64>,
    total: u64,
}

impl PriceHistogram {
    /// Build a histogram of the window's samples over `[lo, hi)` with
    /// `bins` equal-width bins. Samples outside the range are clamped into
    /// the first/last bin so mass is never silently dropped.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn from_window(window: TraceWindow<'_>, lo: Usd, hi: Usd, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &p in window.samples() {
            let idx = if p < lo {
                0
            } else {
                (((p - lo) / width) as usize).min(bins - 1)
            };
            counts[idx] += 1;
        }
        let total = window.len() as u64;
        Self {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized bin frequencies (sums to 1 for a non-empty histogram).
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// `(bin_center, frequency)` pairs — the series plotted in Figure 2.
    pub fn series(&self) -> Vec<(Usd, f64)> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.frequencies()
            .into_iter()
            .enumerate()
            .map(|(i, f)| (self.lo + width * (i as f64 + 0.5), f))
            .collect()
    }

    /// Total-variation distance to another histogram with identical binning
    /// — `0` means identical distributions, `1` disjoint support.
    ///
    /// # Panics
    /// Panics if the two histograms have different binning.
    pub fn total_variation(&self, other: &PriceHistogram) -> f64 {
        assert_eq!(self.bins(), other.bins(), "histograms must share binning");
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "histograms must share the price range"
        );
        let a = self.frequencies();
        let b = other.frequencies();
        0.5 * a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpotTrace;

    fn hist(prices: &[f64], lo: f64, hi: f64, bins: usize) -> PriceHistogram {
        let t = SpotTrace::new(1.0, prices.to_vec());
        PriceHistogram::from_window(t.window(0.0, f64::INFINITY), lo, hi, bins)
    }

    #[test]
    fn counts_land_in_right_bins() {
        let h = hist(&[0.05, 0.15, 0.15, 0.25], 0.0, 0.3, 3);
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_clamps() {
        let h = hist(&[0.1, 0.6, 10.0], 0.5, 1.0, 2);
        assert_eq!(h.counts(), &[2, 1]);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let h = hist(&[0.1, 0.2, 0.3, 0.4, 0.5], 0.0, 1.0, 4);
        let s: f64 = h.frequencies().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_histograms_have_zero_tv() {
        let h1 = hist(&[0.1, 0.2, 0.3], 0.0, 1.0, 5);
        let h2 = hist(&[0.1, 0.2, 0.3], 0.0, 1.0, 5);
        assert_eq!(h1.total_variation(&h2), 0.0);
    }

    #[test]
    fn disjoint_histograms_have_tv_one() {
        let h1 = hist(&[0.1, 0.1], 0.0, 1.0, 2);
        let h2 = hist(&[0.9, 0.9], 0.0, 1.0, 2);
        assert!((h1.total_variation(&h2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_centers_are_correct() {
        let h = hist(&[0.25, 0.75], 0.0, 1.0, 2);
        let s = h.series();
        assert_eq!(s[0], (0.25, 0.5));
        assert_eq!(s[1], (0.75, 0.5));
    }

    #[test]
    #[should_panic(expected = "share binning")]
    fn tv_rejects_mismatched_bins() {
        let h1 = hist(&[0.1], 0.0, 1.0, 2);
        let h2 = hist(&[0.1], 0.0, 1.0, 3);
        h1.total_variation(&h2);
    }

    #[test]
    fn stability_of_stationary_generator_across_windows() {
        // Regenerating Figure 2's claim in miniature: two consecutive
        // multi-day windows of a stationary calm process have close
        // histograms (single days of a wandering plateau are noisier, so
        // the stability statement is about windows long enough to mix).
        use crate::tracegen::{TraceGenConfig, ZoneVolatility};
        let t = TraceGenConfig::preset(0.03, ZoneVolatility::Calm).generate(384.0, 1.0 / 12.0, 5);
        let d1 = PriceHistogram::from_window(t.window(0.0, 192.0), 0.0, 0.1, 10);
        let d2 = PriceHistogram::from_window(t.window(192.0, 192.0), 0.0, 0.1, 10);
        assert!(
            d1.total_variation(&d2) < 0.5,
            "tv {}",
            d1.total_variation(&d2)
        );
    }
}
