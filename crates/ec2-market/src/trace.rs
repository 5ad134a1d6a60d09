//! Spot price traces.
//!
//! A [`SpotTrace`] is a fixed-resolution time series of spot prices for one
//! circle group (one instance type in one availability zone). All market
//! estimation in this crate — failure rates, expected spot prices, histogram
//! stability — consumes traces through this type, so real AWS price history
//! (if available) and the synthetic generator in [`crate::tracegen`] are
//! interchangeable.
//!
//! A trace keeps one derived structure beside its samples, its
//! [`TraceIndex`]: the run table of maximal runs of one price, which views
//! slice ([`SpotTrace::window`]), and the first-passage trees over the run
//! prices, which replays query ([`SpotTrace::query`]). It is built once, on
//! first use.

use crate::index::{TraceIndex, TraceQuery};
use crate::{Hours, Usd};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// A uniformly sampled spot price time series.
#[derive(Debug, Clone)]
pub struct SpotTrace {
    /// Sampling step in hours (e.g. `1.0 / 12.0` for 5-minute resolution).
    step_hours: Hours,
    /// Price at sample `i`, valid over `[i*step, (i+1)*step)`.
    prices: Vec<Usd>,
    /// Cached `(max, min)` over `prices`, maintained by the constructor and
    /// [`SpotTrace::extend_from`]. Bit-identical to the folds it replaces:
    /// `f64::max`/`f64::min` over finite values always return one of their
    /// arguments, so incremental updates equal a full left-fold recompute.
    extrema: (Usd, Usd),
    /// The run table and first-passage trees. Derived state like
    /// `extrema`, but built lazily, on the first [`SpotTrace::index`],
    /// [`SpotTrace::query`] or [`SpotTrace::window`].
    /// [`SpotTrace::extend_from`] drops it, equality ignores it, and serde
    /// never sees it.
    index: OnceLock<TraceIndex>,
}

fn fold_extrema(prices: &[Usd]) -> (Usd, Usd) {
    (
        prices.iter().cloned().fold(0.0, f64::max),
        prices.iter().cloned().fold(f64::INFINITY, f64::min),
    )
}

/// Equality of the step, the samples and the cached extrema. The index
/// is derived from the samples and ignored, so a trace equals its clone
/// whether or not either has built its index.
impl PartialEq for SpotTrace {
    fn eq(&self, other: &Self) -> bool {
        self.step_hours == other.step_hours
            && self.prices == other.prices
            && self.extrema == other.extrema
    }
}

impl SpotTrace {
    /// Build a trace from raw samples.
    ///
    /// # Panics
    /// Panics if `step_hours` is not strictly positive, if `prices` is
    /// empty, or if any price is negative or non-finite.
    pub fn new(step_hours: Hours, prices: Vec<Usd>) -> Self {
        assert!(step_hours > 0.0, "step must be positive");
        assert!(!prices.is_empty(), "trace must contain at least one sample");
        assert!(
            prices.iter().all(|p| p.is_finite() && *p >= 0.0),
            "prices must be finite and non-negative"
        );
        let extrema = fold_extrema(&prices);
        Self {
            step_hours,
            prices,
            extrema,
            index: OnceLock::new(),
        }
    }

    /// Sampling step in hours.
    pub fn step_hours(&self) -> Hours {
        self.step_hours
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// Whether the trace has no samples (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// Total covered duration in hours.
    pub fn duration(&self) -> Hours {
        self.step_hours * self.prices.len() as f64
    }

    /// Raw samples.
    pub fn samples(&self) -> &[Usd] {
        &self.prices
    }

    /// Price in effect at time `t` (hours since trace start). Times at or
    /// past the end clamp to the final sample, which lets replay runs outlive
    /// a finite trace gracefully.
    pub fn price_at(&self, t: Hours) -> Usd {
        if t <= 0.0 {
            return self.prices[0];
        }
        let idx = (t / self.step_hours) as usize;
        self.prices[idx.min(self.prices.len() - 1)]
    }

    /// Index of the sample containing time `t`, clamped to the trace.
    pub fn index_at(&self, t: Hours) -> usize {
        if t <= 0.0 {
            return 0;
        }
        ((t / self.step_hours) as usize).min(self.prices.len() - 1)
    }

    /// Maximum price in the trace — the paper's `H_i`, the upper end of the
    /// bid-price search range for this circle group. O(1): cached at
    /// construction.
    pub fn max_price(&self) -> Usd {
        self.extrema.0
    }

    /// Minimum price in the trace. O(1): cached at construction.
    pub fn min_price(&self) -> Usd {
        self.extrema.1
    }

    /// Arithmetic mean price.
    pub fn mean_price(&self) -> Usd {
        self.prices.iter().sum::<f64>() / self.prices.len() as f64
    }

    /// The trace's run table and first-passage trees, built here on first
    /// use in O(n), then shared read-only.
    pub fn index(&self) -> &TraceIndex {
        self.index.get_or_init(|| TraceIndex::build(&self.prices))
    }

    /// The indexed first-passage queries over this trace: O(log runs)
    /// each, bit-identical to the scans below.
    pub fn query(&self) -> TraceQuery<'_> {
        TraceQuery::new(self, self.index())
    }

    /// A borrowed window `[start, start + len_hours)` of this trace.
    ///
    /// The window is clamped to the trace bounds; it always contains at
    /// least one sample. It carries the slice of the trace's run table
    /// that covers it, from the trace's [`TraceIndex`]: O(n) once, on the
    /// trace's first use, then O(log runs) per window.
    pub fn window(&self, start: Hours, len_hours: Hours) -> TraceWindow<'_> {
        let lo = self.index_at(start.max(0.0));
        let want = (len_hours / self.step_hours).ceil() as usize;
        let hi = (lo + want.max(1)).min(self.prices.len());
        let starts = self.index().run_starts();
        // The run holding sample `lo` (the table starts at 0, so one
        // exists), through the last run starting before `hi`.
        let first = starts.partition_point(|&s| s <= lo) - 1;
        let last = first + starts[first..].partition_point(|&s| s < hi);
        TraceWindow {
            step_hours: self.step_hours,
            prices: &self.prices[lo..hi],
            offset: lo,
            run_starts: &starts[first..last],
        }
    }

    /// First-passage time: the earliest time `>= start` at which the price
    /// strictly exceeds `bid`, or `None` if it never does within the trace.
    ///
    /// This is the out-of-bid event for an instance bidding `bid` launched
    /// at `start`: EC2 terminates the instance the moment the spot price
    /// rises above the bid.
    pub fn first_passage_above(&self, start: Hours, bid: Usd) -> Option<Hours> {
        let lo = self.index_at(start.max(0.0));
        self.prices[lo..]
            .iter()
            .position(|&p| p > bid)
            .map(|off| (lo + off) as f64 * self.step_hours)
            .map(|t| t.max(start))
    }

    /// Launch-search twin of [`SpotTrace::first_passage_above`]: the
    /// earliest time `>= start` at which the price is at or below `bid`,
    /// searching sample boundaries only, or `None` if that time would fall
    /// at or past `cutoff` (or past the end of the trace).
    ///
    /// A request launched at `start` starts immediately if the sample
    /// containing `start` is already affordable; otherwise the price can
    /// only change at the next sample boundary `i * step`, so boundaries
    /// are the only candidate launch times. This replaces the executors'
    /// old `t += step` probe loops: stepping from an arbitrary float
    /// `start` accumulates rounding drift, while boundary times are
    /// computed directly as `i as f64 * step` — the same arithmetic form
    /// the indexed search uses, so both paths agree bit for bit.
    pub fn first_time_at_or_below(&self, start: Hours, bid: Usd, cutoff: Hours) -> Option<Hours> {
        if start >= cutoff || start >= self.duration() {
            return None;
        }
        let lo = self.index_at(start);
        if self.prices[lo] <= bid {
            return Some(start);
        }
        self.prices[lo + 1..]
            .iter()
            .position(|&p| p <= bid)
            .map(|off| (lo + 1 + off) as f64 * self.step_hours)
            .filter(|&t| t < cutoff)
    }

    /// Concatenate another trace (same step) onto this one. Used by the
    /// adaptive algorithm to extend the known history window by window.
    pub fn extend_from(&mut self, other: &SpotTrace) {
        assert!(
            (self.step_hours - other.step_hours).abs() < 1e-12,
            "cannot concatenate traces with different steps"
        );
        self.prices.extend_from_slice(&other.prices);
        self.extrema = (
            self.extrema.0.max(other.extrema.0),
            self.extrema.1.min(other.extrema.1),
        );
        // The last run may now continue into `other`: rebuild on demand.
        self.index = OnceLock::new();
    }
}

// Manual serde impls: the cached extrema and index are derived state
// and must not change the serialized shape (`{step_hours, prices}`), and
// the vendored `serde_derive` has no `#[serde(skip)]`.
impl Serialize for SpotTrace {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("step_hours".to_string(), self.step_hours.to_value()),
            ("prices".to_string(), self.prices.to_value()),
        ])
    }
}

impl Deserialize for SpotTrace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let step_hours = f64::from_value(v.field("step_hours"))?;
        let prices = Vec::<Usd>::from_value(v.field("prices"))?;
        if step_hours.is_nan() || step_hours <= 0.0 {
            return Err(DeError::msg("trace step must be positive"));
        }
        if prices.is_empty() {
            return Err(DeError::msg("trace must contain at least one sample"));
        }
        if !prices.iter().all(|p| p.is_finite() && *p >= 0.0) {
            return Err(DeError::msg("trace prices must be finite and non-negative"));
        }
        Ok(SpotTrace::new(step_hours, prices))
    }
}

/// A borrowed, zero-copy view of a contiguous slice of a [`SpotTrace`].
///
/// Estimators accept windows so the adaptive algorithm can re-estimate from
/// "the previous optimization window" without cloning price data.
#[derive(Debug, Clone, Copy)]
pub struct TraceWindow<'a> {
    step_hours: Hours,
    prices: &'a [Usd],
    /// Trace index of the window's first sample.
    offset: usize,
    /// The trace's run starts from the run holding the first sample
    /// through the last run starting inside the window.
    run_starts: &'a [usize],
}

/// One maximal run of bit-equal prices: `len` consecutive samples at
/// `price`. Spot prices are piecewise constant, so a 48 h window of
/// 5-minute samples holds a few dozen runs, not hundreds of samples.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) price: Usd,
    pub(crate) len: usize,
}

impl<'a> TraceWindow<'a> {
    /// Sampling step in hours.
    pub fn step_hours(&self) -> Hours {
        self.step_hours
    }

    /// Samples in the window.
    pub fn samples(&self) -> &'a [Usd] {
        self.prices
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// Covered duration in hours.
    pub fn duration(&self) -> Hours {
        self.step_hours * self.prices.len() as f64
    }

    /// Maximum price in the window (`H_i` over this window).
    pub fn max_price(&self) -> Usd {
        self.prices.iter().cloned().fold(0.0, f64::max)
    }

    /// Price at offset `t` hours from the window start (clamped).
    pub fn price_at(&self, t: Hours) -> Usd {
        if t <= 0.0 {
            return self.prices[0];
        }
        let idx = (t / self.step_hours) as usize;
        self.prices[idx.min(self.prices.len() - 1)]
    }

    /// The window's maximal runs of bit-equal prices, in time order, read
    /// off the trace's run table: O(runs), no sample is scanned. A run
    /// cut by either window edge counts only its samples inside.
    pub(crate) fn runs(&self) -> impl ExactSizeIterator<Item = Run> + 'a {
        let (prices, offset, starts) = (self.prices, self.offset, self.run_starts);
        (0..starts.len()).map(move |i| {
            let start = starts[i].saturating_sub(offset);
            let end = starts.get(i + 1).map_or(prices.len(), |&s| s - offset);
            Run {
                price: prices[start],
                len: end - start,
            }
        })
    }

    /// Copy this window into an owned [`SpotTrace`].
    pub fn to_trace(&self) -> SpotTrace {
        SpotTrace::new(self.step_hours, self.prices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(prices: &[f64]) -> SpotTrace {
        SpotTrace::new(0.5, prices.to_vec())
    }

    #[test]
    fn price_lookup_uses_floor_semantics() {
        let tr = t(&[1.0, 2.0, 3.0]);
        assert_eq!(tr.price_at(0.0), 1.0);
        assert_eq!(tr.price_at(0.49), 1.0);
        assert_eq!(tr.price_at(0.5), 2.0);
        assert_eq!(tr.price_at(1.49), 3.0);
        // Past the end clamps.
        assert_eq!(tr.price_at(99.0), 3.0);
        // Negative clamps to start.
        assert_eq!(tr.price_at(-1.0), 1.0);
    }

    #[test]
    fn duration_and_extrema() {
        let tr = t(&[0.1, 0.9, 0.4]);
        assert!((tr.duration() - 1.5).abs() < 1e-12);
        assert_eq!(tr.max_price(), 0.9);
        assert_eq!(tr.min_price(), 0.1);
        assert!((tr.mean_price() - (0.1 + 0.9 + 0.4) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_passage_finds_out_of_bid_event() {
        let tr = t(&[0.1, 0.1, 0.5, 0.1, 0.8]);
        // Bid 0.3: first exceeded at sample 2 => time 1.0.
        assert_eq!(tr.first_passage_above(0.0, 0.3), Some(1.0));
        // Starting after the first spike, next passage is sample 4 => 2.0.
        assert_eq!(tr.first_passage_above(1.6, 0.3), Some(2.0));
        // Bid above the max never fails.
        assert_eq!(tr.first_passage_above(0.0, 1.0), None);
        // Bid equal to a price does NOT fail (strictly greater).
        assert_eq!(tr.first_passage_above(0.0, 0.8), None);
    }

    #[test]
    fn first_passage_when_already_above_is_immediate() {
        let tr = t(&[0.9, 0.1]);
        let fp = tr.first_passage_above(0.0, 0.5).unwrap();
        assert_eq!(fp, 0.0);
        // Start strictly inside the failing sample: failure can't predate
        // the launch time.
        let fp = tr.first_passage_above(0.2, 0.5).unwrap();
        assert!(fp >= 0.2);
    }

    #[test]
    fn window_clamps_to_bounds() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0]);
        let w = tr.window(0.5, 1.0);
        assert_eq!(w.samples(), &[2.0, 3.0]);
        let w = tr.window(1.5, 99.0);
        assert_eq!(w.samples(), &[4.0]);
        let w = tr.window(-5.0, 0.6);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn window_roundtrips_to_trace() {
        let tr = t(&[1.0, 2.0, 3.0, 4.0]);
        let owned = tr.window(0.0, 99.0).to_trace();
        assert_eq!(owned, tr);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = t(&[1.0]);
        a.extend_from(&t(&[2.0, 3.0]));
        assert_eq!(a.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn extend_updates_cached_extrema() {
        let mut a = t(&[0.5]);
        a.extend_from(&t(&[0.9, 0.2]));
        assert_eq!(a.max_price(), 0.9);
        assert_eq!(a.min_price(), 0.2);
        assert_eq!((a.max_price(), a.min_price()), {
            let full = t(&[0.5, 0.9, 0.2]);
            (full.max_price(), full.min_price())
        });
    }

    #[test]
    fn launch_search_uses_boundary_semantics() {
        let tr = t(&[0.9, 0.9, 0.1, 0.9]); // step 0.5
                                           // Already affordable at start: launch immediately.
        assert_eq!(tr.first_time_at_or_below(0.0, 1.0, 99.0), Some(0.0));
        // Affordable first at sample 2: launch at the boundary 1.0, even
        // from a fractional start inside sample 0.
        assert_eq!(tr.first_time_at_or_below(0.2, 0.5, 99.0), Some(1.0));
        // Cutoff excludes the boundary (strictly-before semantics).
        assert_eq!(tr.first_time_at_or_below(0.2, 0.5, 1.0), None);
        // Start at or past the end never launches.
        assert_eq!(tr.first_time_at_or_below(2.0, 1.0, 99.0), None);
        // Never affordable within the trace.
        assert_eq!(tr.first_time_at_or_below(0.0, 0.05, 99.0), None);
    }

    #[test]
    fn serde_roundtrip_skips_cached_extrema() {
        let tr = t(&[0.1, 0.9]);
        let _ = tr.window(0.0, 1.0); // builds the index
        let v = tr.to_value();
        assert!(v.get("extrema").is_none(), "cache must not be serialized");
        assert!(v.get("index").is_none(), "index must not be serialized");
        let back = SpotTrace::from_value(&v).unwrap();
        assert_eq!(back, tr);
        assert!(SpotTrace::from_value(&Value::Obj(vec![])).is_err());
    }

    #[test]
    #[should_panic(expected = "different steps")]
    fn extend_rejects_mismatched_step() {
        let mut a = t(&[1.0]);
        a.extend_from(&SpotTrace::new(0.25, vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        SpotTrace::new(1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_price_rejected() {
        SpotTrace::new(1.0, vec![-0.1]);
    }
}
