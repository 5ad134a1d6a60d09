//! Failure-rate function `f_i(P, t)` and expected spot price `S_i(P)`.
//!
//! Section 4.4 ("Obtaining Failure Rate Function") estimates the probability
//! that a circle group bidding `P` suffers its first out-of-bid event in the
//! hour bucket `[t, t+1)` by repeatedly picking a random start point in the
//! recent spot price history and recording the first passage above `P`. We
//! implement both that Monte-Carlo estimator (seeded, reproducible) and the
//! exhaustive all-start-points estimator it converges to.
//!
//! Every exhaustive quantity of one `(group, bid)` — the first-passage
//! counts behind `f_i(P, t)` and the expected launch delay — comes out of
//! one backward sweep over the circular history,
//! [`FailureEstimator::bid_profile`].
//!
//! Spot prices are piecewise constant, so an estimator keeps its window
//! as maximal runs of one price, `(price, length)` in time order, and
//! that sweep steps run by run: a run at or below the bid adds its starts
//! to each hour bucket it reaches as one range, and a run above it adds
//! its launch-delay distances as one arithmetic series. A 48 h window of
//! 5-minute samples holds 576 samples but typically a few dozen runs.
//! The runs come from the slice of the trace's run table that the window
//! carries, so building an estimator reads one sample per run instead of
//! scanning the window: O(log R + r) for a trace of R runs and a window
//! of r.
//!
//! The expected spot price `S_i(P)` is the mean of historical prices at or
//! below the bid (Section 3.2.1), precomputed here as a table of the
//! distinct price levels with cumulative counts and sums, so bid-price
//! sweeps are O(log levels) per query. An estimator builds that table on
//! first use: a planner that only needs the window's extremes and how
//! many samples a bid admits reads them off the runs and never sorts or
//! sums the window.

use crate::trace::{Run, TraceWindow};
use crate::{Hours, Usd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;

/// The estimated failure-rate function of one circle group at one bid price:
/// a sub-distribution over hourly failure buckets plus the survival mass.
///
/// ```
/// use ec2_market::failure::FailureRateFn;
///
/// // 10% chance of dying in hour [0,1), 30% in [1,2), 60% survival.
/// let f = FailureRateFn::new(0.2, vec![0.1, 0.3], 0.6);
/// assert_eq!(f.horizon(), 2);
/// assert_eq!(f.prob_fail_in(0), 0.1);
/// assert_eq!(f.prob_fail_in(5), 0.0); // past the horizon
/// assert!((f.prob_fail() - 0.4).abs() < 1e-12);
/// assert!(f.mean_time_to_failure().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRateFn {
    bid: Usd,
    /// `bucket[t]` = P[first out-of-bid event lands in hour `[t, t+1)`].
    buckets: Vec<f64>,
    /// P[no out-of-bid event within the horizon] — the paper's
    /// `f_i(P, T_i)`, i.e. the application completes on this circle group.
    survival: f64,
}

impl FailureRateFn {
    /// Construct from raw bucket probabilities. Normalizes tiny numerical
    /// drift; panics if the mass is not ≈ 1 or any entry is negative.
    pub fn new(bid: Usd, buckets: Vec<f64>, survival: f64) -> Self {
        assert!(
            buckets.iter().all(|p| *p >= 0.0) && survival >= 0.0,
            "probabilities must be non-negative"
        );
        let mass: f64 = buckets.iter().sum::<f64>() + survival;
        assert!(
            (mass - 1.0).abs() < 1e-6,
            "failure distribution mass must be 1, got {mass}"
        );
        Self {
            bid,
            buckets,
            survival,
        }
    }

    /// The bid price this function was estimated for.
    pub fn bid(&self) -> Usd {
        self.bid
    }

    /// Horizon in hours (number of buckets).
    pub fn horizon(&self) -> usize {
        self.buckets.len()
    }

    /// P[first failure in `[t, t+1)`]; zero past the horizon.
    pub fn prob_fail_in(&self, t: usize) -> f64 {
        self.buckets.get(t).copied().unwrap_or(0.0)
    }

    /// All bucket probabilities.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// Consume the function and take ownership of its bucket vector —
    /// for callers that would otherwise `buckets().to_vec()` a function
    /// they are done with (the assessment hot path clones nothing).
    pub fn into_buckets(self) -> Vec<f64> {
        self.buckets
    }

    /// P[survive the entire horizon].
    pub fn survival(&self) -> f64 {
        self.survival
    }

    /// P[fail at some point within the horizon].
    pub fn prob_fail(&self) -> f64 {
        1.0 - self.survival
    }

    /// Mean time to failure in hours, treating survival as censoring at the
    /// horizon and extrapolating with the empirical tail hazard.
    ///
    /// Returns `None` when no failure mass was observed at all — the bid is
    /// effectively un-terminable (e.g. `P_i = H_i` in the paper, "terminated
    /// in extremely low probability, which we can ignore") and the optimal
    /// checkpoint interval degenerates to "no checkpoints".
    pub fn mean_time_to_failure(&self) -> Option<Hours> {
        let pf = self.prob_fail();
        if pf <= 1e-12 {
            return None;
        }
        let horizon = self.buckets.len() as f64;
        // Conditional mean within the horizon (bucket midpoints)...
        let within: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(t, p)| (t as f64 + 0.5) * p)
            .sum();
        // ...plus the censored mass extrapolated geometrically: survivors
        // restart the same first-passage experiment after `horizon` hours.
        // E[T] = within + survival * (horizon + E[T])  =>
        let ettf = (within + self.survival * horizon) / pf;
        Some(ettf)
    }
}

/// Raw integer first-passage counts behind a [`FailureRateFn`]: how many
/// admissible start points failed in each hour bucket, how many survived
/// the horizon, and how many were usable at all.
///
/// Keeping the *integer* counts (rather than the normalized probabilities)
/// makes horizon truncation exact: a count recorded at sample offset
/// `k ≤ h·sph` lands in the same hour bucket for any horizon `≥ h`, and
/// counts past `h·sph` fold into the survivors, so
/// [`FailureCounts::to_fn`] reproduces `failure_rate_exact(bid, h)` bit
/// for bit for every `h` up to the recorded horizon. This is what lets
/// one sweep per bid serve φ and every checkpoint interval's assessment,
/// whose horizons differ.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCounts {
    bid: Usd,
    /// `buckets[t]` = number of admissible starts whose first out-of-bid
    /// event landed in hour `[t, t+1)`.
    buckets: Vec<u64>,
    /// Starts that survived the full recorded horizon.
    survived: u64,
    /// Admissible starts (price at or below the bid).
    used: u64,
}

impl FailureCounts {
    /// The bid these counts were recorded for.
    pub fn bid(&self) -> Usd {
        self.bid
    }

    /// The recorded horizon in hours — the largest horizon `to_fn` serves.
    pub fn horizon(&self) -> usize {
        self.buckets.len()
    }

    /// Normalize into the failure-rate function for `horizon_hours`,
    /// truncating exactly: the result is bit-identical to
    /// `failure_rate_exact(bid, horizon_hours)` on the same history.
    ///
    /// # Panics
    /// Panics when `horizon_hours` is zero or exceeds the recorded horizon.
    pub fn to_fn(&self, horizon_hours: usize) -> FailureRateFn {
        assert!(horizon_hours > 0, "horizon must be positive");
        assert!(
            horizon_hours <= self.buckets.len(),
            "horizon {horizon_hours} exceeds recorded horizon {}",
            self.buckets.len()
        );
        let buckets = self.buckets[..horizon_hours].to_vec();
        let survived = self.survived + self.buckets[horizon_hours..].iter().sum::<u64>();
        FailureEstimator::finish(self.bid, horizon_hours, buckets, survived, self.used)
    }
}

/// Everything the history says about one `(group, bid)`, from one sweep:
/// the exhaustive first-passage counts (truncatable to any horizon up to
/// the recorded one, see [`FailureCounts::to_fn`]) and the expected
/// launch delay. Built by [`FailureEstimator::bid_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct BidProfile {
    counts: FailureCounts,
    launch_delay: Hours,
}

impl BidProfile {
    /// The integer first-passage counts.
    pub fn counts(&self) -> &FailureCounts {
        &self.counts
    }

    /// Expected launch delay in hours, bit-identical to
    /// [`FailureEstimator::expected_launch_delay`].
    pub fn launch_delay(&self) -> Hours {
        self.launch_delay
    }
}

/// Totals of one [`FailureEstimator`] sweep (the bucket counts go to the
/// caller's slice).
struct Sweep {
    /// Weighted admissible starts that outlived the recorded horizon.
    survived: u64,
    /// Weighted admissible starts.
    used: u64,
    /// Σ over every sample of the distance (in samples) to the next
    /// admissible one; `None` when no sample is admissible.
    delay_steps: Option<u64>,
}

/// One distinct price of an [`ExpectedSpotPrice`] table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Level {
    price: Usd,
    /// Samples priced at or below `price`.
    at_or_below: usize,
    /// Those samples, summed one at a time in ascending order.
    sum: f64,
}

/// The lowest and highest price of `runs`, given in time order; `(0, 0)`
/// when there are none. Walking in time order, among equal prices (`0.0`
/// and `-0.0`) the minimum keeps the earliest sample's bits and the
/// maximum the latest's, as the ends of a stable sort would.
fn extremes(runs: &[Run]) -> (Usd, Usd) {
    let Some(first) = runs.first() else {
        return (0.0, 0.0);
    };
    let (mut min, mut max) = (first.price, first.price);
    for run in &runs[1..] {
        if run.price < min {
            min = run.price;
        }
        if run.price >= max {
            max = run.price;
        }
    }
    (min, max)
}

/// Precomputed `S_i(P)` table: expected spot price given the bid, plus the
/// instant launch probability.
///
/// The history's distinct price levels in ascending order, each with the
/// number of samples at or below it and their sum. A sum adds every
/// sample one at a time in ascending order, exactly as a running sum over
/// the sorted samples would, so `mean_below` is the same to the bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedSpotPrice {
    /// Distinct prices, ascending; `0.0` and `-0.0` share one level.
    levels: Vec<Level>,
    /// Lowest price, with the bits of the earliest sample at it.
    min: Usd,
    /// Highest price, with the bits of the latest sample at it.
    max: Usd,
}

impl ExpectedSpotPrice {
    /// Build the table from a history window, reading its runs off the
    /// trace's run table.
    pub fn from_window(window: TraceWindow<'_>) -> Self {
        Self::from_runs(window.runs().collect())
    }

    /// The table of `runs`, given in time order (sorted here, in place).
    fn from_runs(mut runs: Vec<Run>) -> Self {
        let (min, max) = extremes(&runs);
        // Trace prices are finite and non-negative, where the total order
        // is the numeric one except that it puts `-0.0` just below `0.0`;
        // the two share a level.
        runs.sort_unstable_by(|a, b| a.price.total_cmp(&b.price));
        let mut levels: Vec<Level> = Vec::with_capacity(runs.len());
        let (mut count, mut acc) = (0usize, 0.0f64);
        for Run { price, len } in runs {
            for _ in 0..len {
                acc += price;
            }
            count += len;
            let level = Level {
                price,
                at_or_below: count,
                sum: acc,
            };
            match levels.last_mut() {
                Some(last) if last.price == price => *last = level,
                _ => levels.push(level),
            }
        }
        Self { levels, min, max }
    }

    /// Levels at or below `bid`: the table row a query reads is the one
    /// before this index.
    fn levels_at_or_below(&self, bid: Usd) -> usize {
        self.levels.partition_point(|level| level.price <= bid)
    }

    /// Number of historical samples at or below `bid` — the start points
    /// a launch at `bid` admits. Two bids with equal counts admit exactly
    /// the same samples (no price lies between them), so every quantity
    /// derived from the history — failure counts, launch delay, `S_i(P)`
    /// — is identical for both.
    pub fn count_at_or_below(&self, bid: Usd) -> usize {
        match self.levels_at_or_below(bid) {
            0 => 0,
            i => self.levels[i - 1].at_or_below,
        }
    }

    /// Mean of historical prices at or below `bid` — the paper's `S_i(P_i)`.
    /// `None` when the bid is below every observed price (the instance
    /// would never launch).
    pub fn mean_below(&self, bid: Usd) -> Option<Usd> {
        match self.levels_at_or_below(bid) {
            0 => None,
            i => {
                let level = &self.levels[i - 1];
                Some(level.sum / level.at_or_below as f64)
            }
        }
    }

    /// Fraction of history time during which the price is at or below
    /// `bid` — the probability a launch request is immediately satisfied.
    pub fn launch_fraction(&self, bid: Usd) -> f64 {
        match self.levels.last() {
            None => 0.0,
            Some(all) => self.count_at_or_below(bid) as f64 / all.at_or_below as f64,
        }
    }

    /// Highest observed price (`H_i`).
    pub fn max_price(&self) -> Usd {
        self.max
    }

    /// Lowest observed price.
    pub fn min_price(&self) -> Usd {
        self.min
    }
}

/// Estimates failure-rate functions and expected spot prices from a price
/// history window (typically "the previous two days", per the paper).
///
/// The window is kept as its maximal runs of constant price, read off
/// the trace's run table instead of a scan of the samples, and every
/// estimate walks those runs rather than the samples. The window's
/// extremes are kept too; its `S_i(P)` table is built on the first
/// [`expected_spot_price`](Self::expected_spot_price) call, so an
/// estimator asked only for the extremes, admission counts or bid
/// profiles never sorts or sums its window.
///
/// ```
/// use ec2_market::failure::FailureEstimator;
/// use ec2_market::trace::SpotTrace;
///
/// // 48 h of calm $0.10 prices with one $1.00 spike at hour 10.
/// let mut prices = vec![0.1; 48];
/// prices[10] = 1.0;
/// let trace = SpotTrace::new(1.0, prices);
///
/// let est = FailureEstimator::from_window(trace.window(0.0, 48.0));
/// assert_eq!(est.max_price(), 1.0);
///
/// // Bidding $0.50 loses only to the single spike, so most of the
/// // exhaustively-enumerated start points survive a 12 h horizon
/// // (only starts within 12 h before the spike die).
/// let f = est.failure_rate_exact(0.5, 12);
/// assert!(f.survival() > 0.5);
///
/// // S_i(P): the mean of historical prices at or below the bid.
/// let s = est.expected_spot_price().mean_below(0.5).unwrap();
/// assert!((s - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FailureEstimator {
    step_hours: Hours,
    /// The window as maximal runs of bit-equal prices, in time order.
    runs: Vec<Run>,
    /// Samples in the window: the runs' total length.
    samples: usize,
    /// Lowest price, with the bits of the earliest sample at it.
    min: Usd,
    /// Highest price, with the bits of the latest sample at it.
    max: Usd,
    /// The `S_i(P)` table, built from `runs` on first use. A clone
    /// carries the table when it was built before the clone, and builds
    /// its own otherwise.
    expected: OnceLock<ExpectedSpotPrice>,
}

impl FailureEstimator {
    /// Build an estimator over a history window: its runs and extremes,
    /// without the `S_i(P)` table.
    ///
    /// # Panics
    /// Panics if the window is empty.
    pub fn from_window(window: TraceWindow<'_>) -> Self {
        assert!(!window.is_empty(), "history window must be non-empty");
        let runs: Vec<Run> = window.runs().collect();
        let (min, max) = extremes(&runs);
        Self {
            step_hours: window.step_hours(),
            samples: window.len(),
            runs,
            min,
            max,
            expected: OnceLock::new(),
        }
    }

    /// `S_i(P)` table for this history, built on the first call: a sort
    /// of the runs and one addition per sample.
    pub fn expected_spot_price(&self) -> &ExpectedSpotPrice {
        self.expected
            .get_or_init(|| ExpectedSpotPrice::from_runs(self.runs.clone()))
    }

    /// Highest historical price `H_i` — the top of the bid search range.
    /// Bit-identical to the table's [`ExpectedSpotPrice::max_price`].
    pub fn max_price(&self) -> Usd {
        self.max
    }

    /// Lowest historical price. Bit-identical to the table's
    /// [`ExpectedSpotPrice::min_price`].
    pub fn min_price(&self) -> Usd {
        self.min
    }

    /// Number of historical samples at or below `bid`, read off the runs
    /// without the `S_i(P)` table: equal to the table's
    /// [`ExpectedSpotPrice::count_at_or_below`]. O(runs), against the
    /// table's O(log levels) once it is built.
    pub fn count_at_or_below(&self, bid: Usd) -> usize {
        self.runs
            .iter()
            .filter(|run| run.price <= bid)
            .map(|run| run.len)
            .sum()
    }

    /// Expected delay (hours) between requesting an instance at a uniformly
    /// random time and the spot price first being at or below `bid` — the
    /// paper's "otherwise it waits" launch semantics. Zero when the bid
    /// covers the whole history; the full window duration when the bid
    /// never admits a launch.
    pub fn expected_launch_delay(&self, bid: Usd) -> Hours {
        // A zero horizon records no buckets: the sweep's launch delay alone.
        self.bid_profile(bid, 0).launch_delay
    }

    /// Exhaustive estimator: every sample of the history serves as a start
    /// point once (the `G → all` limit of the paper's sampler). The history
    /// is treated as circular so late start points still observe a full
    /// horizon. Start points where the price already exceeds the bid (the
    /// instance cannot launch) are skipped, matching the paper's bidding
    /// semantics: "if the bid price is higher than the spot price, the
    /// instance can be successfully launched; otherwise it waits".
    pub fn failure_rate_exact(&self, bid: Usd, horizon_hours: usize) -> FailureRateFn {
        self.bid_profile(bid, horizon_hours)
            .counts
            .to_fn(horizon_hours)
    }

    /// Exhaustive first-passage counts at `bid` over `horizon_hours`,
    /// before normalization. `counts.to_fn(h)` for any `h ≤ horizon_hours`
    /// is bit-identical to `failure_rate_exact(bid, h)`, which makes the
    /// counts reusable across shrinking horizons without re-walking the
    /// history.
    pub fn failure_counts(&self, bid: Usd, horizon_hours: usize) -> FailureCounts {
        assert!(horizon_hours > 0, "horizon must be positive");
        self.bid_profile(bid, horizon_hours).counts
    }

    /// One backward sweep over the circular history at `bid`: the
    /// exhaustive first-passage counts recorded at `horizon_hours` and the
    /// expected launch delay, together. Every exhaustive quantity —
    /// [`failure_rate_exact`](Self::failure_rate_exact),
    /// [`failure_counts`](Self::failure_counts),
    /// [`expected_launch_delay`](Self::expected_launch_delay) — is read
    /// off this profile, bit for bit.
    ///
    /// O(runs + hour buckets touched) and allocation-free apart from the
    /// `horizon_hours` bucket counters it returns (a zero horizon records
    /// none). The launch-delay distances are summed as a `u64`, which
    /// equals a left-to-right `f64` sum bit for bit while the total stays
    /// below 2^53.
    ///
    /// ```
    /// use ec2_market::failure::FailureEstimator;
    /// use ec2_market::trace::SpotTrace;
    ///
    /// let trace = SpotTrace::new(1.0, vec![9.0, 9.0, 0.1, 9.0]);
    /// let est = FailureEstimator::from_window(trace.window(0.0, 4.0));
    /// let profile = est.bid_profile(0.5, 2);
    /// assert_eq!(profile.launch_delay(), est.expected_launch_delay(0.5));
    /// assert_eq!(profile.counts().to_fn(2), est.failure_rate_exact(0.5, 2));
    /// ```
    pub fn bid_profile(&self, bid: Usd, horizon_hours: usize) -> BidProfile {
        let mut buckets = vec![0u64; horizon_hours];
        let n = self.samples;
        let sweep = self.sweep(bid, &mut buckets, |starts| {
            (starts.end - starts.start) as u64
        });
        let launch_delay = match sweep.delay_steps {
            None => self.step_hours * n as f64,
            Some(total) => total as f64 / n as f64 * self.step_hours,
        };
        BidProfile {
            counts: FailureCounts {
                bid,
                buckets,
                survived: sweep.survived,
                used: sweep.used,
            },
            launch_delay,
        }
    }

    /// The paper's Monte-Carlo estimator with `g` random start points.
    /// Runs the same sweep as [`bid_profile`](Self::bid_profile), each
    /// start weighted by how often it was drawn.
    pub fn failure_rate_sampled(
        &self,
        bid: Usd,
        horizon_hours: usize,
        g: usize,
        seed: u64,
    ) -> FailureRateFn {
        assert!(g > 0, "need at least one sample");
        assert!(horizon_hours > 0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.samples;
        // `drawn[i]`: draws that landed before start `i`.
        let mut drawn = vec![0u64; n + 1];
        for _ in 0..g {
            drawn[rng.gen_range(0..n) + 1] += 1;
        }
        for i in 1..=n {
            drawn[i] += drawn[i - 1];
        }
        let mut buckets = vec![0u64; horizon_hours];
        let sweep = self.sweep(bid, &mut buckets, |starts| {
            drawn[starts.end] - drawn[starts.start]
        });
        Self::finish(bid, horizon_hours, buckets, sweep.survived, sweep.used)
    }

    /// The sweep behind every estimate. Walks the history's runs once
    /// backwards, carrying the next sample above the bid and the next
    /// admissible one (at or below it), both seeded across the
    /// wrap-around; `weight(starts)` is how many times the starts in that
    /// range count together.
    ///
    /// A start `s` that admits a launch fails at the first sample strictly
    /// after it above the bid, `k` steps ahead, and lands in hour bucket
    /// `(k − 1) / samples_per_hour`, or survives when `k` exceeds the
    /// recorded horizon or no sample is above the bid. Over an admissible
    /// run `start..end`, `k` runs from `next_above − end + 1` to
    /// `next_above − start`, so the run adds one range per hour bucket it
    /// reaches plus one for its survivors. Over a run above the bid, the
    /// distances to the next admissible sample form one arithmetic series.
    fn sweep(&self, bid: Usd, buckets: &mut [u64], weight: impl Fn(Range<usize>) -> u64) -> Sweep {
        let n = self.samples;
        // The window's extremes tell whether no sample is admissible (at
        // or below the bid; none is at a NaN bid) or every one is.
        if bid < self.min || bid.is_nan() {
            return Sweep {
                survived: 0,
                used: 0,
                delay_steps: None,
            };
        }
        if bid >= self.max {
            // Nothing is above the bid: every start survives and every
            // request launches at once.
            let all = weight(0..n);
            return Sweep {
                survived: all,
                used: all,
                delay_steps: Some(0),
            };
        }
        let samples_per_hour = (1.0 / self.step_hours).round().max(1.0) as usize;
        let horizon_samples = buckets.len() * samples_per_hour;

        // Both classes occur. Run 0 belongs to one; the first run of the
        // other starts at `split`. Seen from the last sample, the next
        // occurrence of each class is its first one, one lap later.
        let above0 = self.runs[0].price > bid;
        let split: usize = self
            .runs
            .iter()
            .take_while(|run| (run.price > bid) == above0)
            .map(|run| run.len)
            .sum();
        let (first_above, first_admitted) = if above0 { (0, split) } else { (split, 0) };
        let mut next_above = first_above + n;
        let mut next_admitted = first_admitted + n;

        let (mut survived, mut used, mut delay_steps) = (0u64, 0u64, 0u64);
        let mut end = n;
        for run in self.runs.iter().rev() {
            let start = end - run.len;
            if run.price > bid {
                // Σ (next_admitted − i) for i in start..end.
                let nearest = (next_admitted + 1 - end) as u64;
                let farthest = (next_admitted - start) as u64;
                delay_steps += (nearest + farthest) * run.len as u64 / 2;
                next_above = start;
            } else {
                next_admitted = start;
                used += weight(start..end);
                // Start `i` fails `next_above − i` steps ahead: `near` for
                // the run's last start, `far` for its first.
                let near = next_above + 1 - end;
                let far = next_above - start;
                if far > horizon_samples {
                    // Starts before `next_above − horizon_samples` outlive
                    // the horizon.
                    survived += weight(start..(next_above - horizon_samples).min(end));
                }
                if near <= horizon_samples {
                    let far = far.min(horizon_samples);
                    let (mut k, mut hour) = (near, (near - 1) / samples_per_hour);
                    loop {
                        let hour_last = (hour + 1) * samples_per_hour;
                        if far <= hour_last {
                            buckets[hour] += weight(next_above - far..next_above + 1 - k);
                            break;
                        }
                        buckets[hour] += weight(next_above - hour_last..next_above + 1 - k);
                        (k, hour) = (hour_last + 1, hour + 1);
                    }
                }
            }
            end = start;
        }
        Sweep {
            survived,
            used,
            delay_steps: Some(delay_steps),
        }
    }

    /// The window's samples, expanded from its runs.
    #[cfg(test)]
    fn samples(&self) -> Vec<Usd> {
        self.runs
            .iter()
            .flat_map(|run| std::iter::repeat_n(run.price, run.len))
            .collect()
    }

    fn finish(
        bid: Usd,
        horizon_hours: usize,
        buckets: Vec<u64>,
        survived: u64,
        used: u64,
    ) -> FailureRateFn {
        if used == 0 {
            // The bid never admits a launch; model it as immediate failure,
            // which the optimizer prices as "this circle group is useless".
            let mut b = vec![0.0; horizon_hours];
            b[0] = 1.0;
            return FailureRateFn::new(bid, b, 0.0);
        }
        let buckets = buckets
            .into_iter()
            .map(|c| c as f64 / used as f64)
            .collect();
        FailureRateFn::new(bid, buckets, survived as f64 / used as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpotTrace;

    fn estimator(prices: &[f64], step: f64) -> FailureEstimator {
        let t = SpotTrace::new(step, prices.to_vec());
        FailureEstimator::from_window(t.window(0.0, f64::INFINITY))
    }

    /// The sorted-sample `S_i(P)` table the level table replaced: every
    /// sample, stable-sorted, with a running sum. A test reference.
    struct SortedSamples {
        sorted: Vec<Usd>,
        prefix_sum: Vec<f64>,
    }

    impl SortedSamples {
        fn new(samples: &[Usd]) -> Self {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite prices"));
            let mut prefix_sum = Vec::with_capacity(sorted.len() + 1);
            prefix_sum.push(0.0);
            let mut acc = 0.0;
            for &p in &sorted {
                acc += p;
                prefix_sum.push(acc);
            }
            Self { sorted, prefix_sum }
        }

        fn count_at_or_below(&self, bid: Usd) -> usize {
            self.sorted.partition_point(|&p| p <= bid)
        }

        fn mean_below(&self, bid: Usd) -> Option<Usd> {
            let n = self.count_at_or_below(bid);
            (n > 0).then(|| self.prefix_sum[n] / n as f64)
        }

        fn launch_fraction(&self, bid: Usd) -> f64 {
            if self.sorted.is_empty() {
                return 0.0;
            }
            self.count_at_or_below(bid) as f64 / self.sorted.len() as f64
        }

        fn max_price(&self) -> Usd {
            self.sorted.last().copied().unwrap_or(0.0)
        }

        fn min_price(&self) -> Usd {
            self.sorted.first().copied().unwrap_or(0.0)
        }
    }

    /// Split `samples` into maximal runs of bit-equal prices, in time
    /// order, by scanning them: the oracle the trace's run table is
    /// checked against.
    fn runs_of(samples: &[Usd]) -> Vec<Run> {
        let Some(&first) = samples.first() else {
            return Vec::new();
        };
        let mut runs = Vec::new();
        let (mut price, mut start) = (first, 0);
        for (i, &p) in samples.iter().enumerate().skip(1) {
            if p.to_bits() != price.to_bits() {
                runs.push(Run {
                    price,
                    len: i - start,
                });
                (price, start) = (p, i);
            }
        }
        runs.push(Run {
            price,
            len: samples.len() - start,
        });
        runs
    }

    /// The history sample by sample, with the per-sample estimators the
    /// run-based ones are checked against. Test references only.
    struct Reference {
        prices: Vec<Usd>,
        step_hours: Hours,
    }

    impl Reference {
        fn of(e: &FailureEstimator) -> Self {
            Self {
                prices: e.samples(),
                step_hours: e.step_hours,
            }
        }

        fn samples_per_hour(&self) -> usize {
            (1.0 / self.step_hours).round().max(1.0) as usize
        }

        /// The per-sample sweep the run sweep replaced: one step per
        /// sample, `weight(i)` the count of start `i`. Returns the bucket
        /// counts, survivors, usable starts and summed launch-delay steps.
        fn sweep(
            &self,
            bid: Usd,
            horizon_hours: usize,
            weight: impl Fn(usize) -> u64,
        ) -> (Vec<u64>, u64, u64, Option<u64>) {
            let n = self.prices.len();
            let mut buckets = vec![0u64; horizon_hours];
            match SortedSamples::new(&self.prices).count_at_or_below(bid) {
                0 => return (buckets, 0, 0, None),
                admitted if admitted == n => {
                    let all: u64 = (0..n).map(weight).sum();
                    return (buckets, all, all, Some(0));
                }
                _ => {}
            }
            let samples_per_hour = self.samples_per_hour();
            let horizon_samples = horizon_hours * samples_per_hour;
            let above0 = self.prices[0] > bid;
            let split = self.prices[1..]
                .iter()
                .position(|&p| (p > bid) != above0)
                .map_or(n, |j| j + 1);
            let (first_above, first_admitted) = if above0 { (0, split) } else { (split, 0) };
            let mut next_above = first_above + n;
            let mut next_admitted = first_admitted + n;
            let (mut survived, mut used, mut delay_steps) = (0u64, 0u64, 0u64);
            for i in (0..n).rev() {
                if self.prices[i] > bid {
                    delay_steps += (next_admitted - i) as u64;
                    next_above = i;
                } else {
                    next_admitted = i;
                    let w = weight(i);
                    used += w;
                    let k = next_above - i;
                    if k <= horizon_samples {
                        let hour = ((k - 1) / samples_per_hour).min(buckets.len() - 1);
                        buckets[hour] += w;
                    } else {
                        survived += w;
                    }
                }
            }
            (buckets, survived, used, Some(delay_steps))
        }

        /// [`FailureEstimator::bid_profile`] off the per-sample sweep.
        fn profile(&self, bid: Usd, horizon_hours: usize) -> BidProfile {
            let n = self.prices.len();
            let (buckets, survived, used, delay_steps) = self.sweep(bid, horizon_hours, |_| 1);
            let launch_delay = match delay_steps {
                None => self.step_hours * n as f64,
                Some(total) => total as f64 / n as f64 * self.step_hours,
            };
            BidProfile {
                counts: FailureCounts {
                    bid,
                    buckets,
                    survived,
                    used,
                },
                launch_delay,
            }
        }

        /// [`FailureEstimator::failure_rate_sampled`] off the per-sample
        /// sweep, each start weighted by its draws.
        fn sampled(&self, bid: Usd, horizon_hours: usize, g: usize, seed: u64) -> FailureRateFn {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draws = vec![0u64; self.prices.len()];
            for _ in 0..g {
                draws[rng.gen_range(0..self.prices.len())] += 1;
            }
            let (buckets, survived, used, _) = self.sweep(bid, horizon_hours, |i| draws[i]);
            FailureEstimator::finish(bid, horizon_hours, buckets, survived, used)
        }

        /// A two-pass distance carry, independent of both sweeps: integer
        /// bucket counts, survivors, and usable starts for the given start
        /// points.
        fn count_by_carry(
            &self,
            bid: Usd,
            horizon_hours: usize,
            starts: impl Iterator<Item = usize>,
        ) -> (Vec<u64>, u64, u64) {
            assert!(horizon_hours > 0, "horizon must be positive");
            let n = self.prices.len();
            let samples_per_hour = self.samples_per_hour();
            let horizon_samples = horizon_hours * samples_per_hour;

            // Distance (in samples) from each index to the first sample at
            // or after it (circularly) whose price strictly exceeds the
            // bid; `u32::MAX` when the bid is never exceeded. Same two-pass
            // backward carry as `launch_delay_by_carry`.
            let mut dist = vec![u32::MAX; n];
            let mut next: Option<usize> = None;
            for _pass in 0..2 {
                for i in (0..n).rev() {
                    if self.prices[i] > bid {
                        next = Some(i);
                    }
                    if let Some(j) = next {
                        let d = if j >= i { j - i } else { j + n - i };
                        dist[i] = dist[i].min(d as u32);
                    }
                }
            }

            let mut buckets = vec![0u64; horizon_hours];
            let mut survived = 0u64;
            let mut used = 0u64;
            for s in starts {
                if self.prices[s] > bid {
                    continue; // cannot launch here
                }
                used += 1;
                // The first strictly-after-`s` sample above the bid is
                // `dist[(s+1) % n] + 1` steps ahead — exactly the `k` the
                // linear probe of `estimate_by_scan` finds.
                let k = match dist[(s + 1) % n] {
                    u32::MAX => usize::MAX,
                    d => d as usize + 1,
                };
                if k <= horizon_samples {
                    let hour = ((k - 1) / samples_per_hour).min(horizon_hours - 1);
                    buckets[hour] += 1;
                } else {
                    survived += 1;
                }
            }

            (buckets, survived, used)
        }

        /// A two-pass launch-delay carry that sums the distances as `f64`,
        /// left to right; `bid_profile`'s `u64` sum must match it bit for
        /// bit.
        fn launch_delay_by_carry(&self, bid: Usd) -> Hours {
            let n = self.prices.len();
            let mut dist = vec![u32::MAX; n];
            let mut next: Option<usize> = None;
            for _pass in 0..2 {
                for i in (0..n).rev() {
                    if self.prices[i] <= bid {
                        next = Some(i);
                    }
                    if let Some(j) = next {
                        let d = if j >= i { j - i } else { j + n - i };
                        dist[i] = dist[i].min(d as u32);
                    }
                }
            }
            if dist.contains(&u32::MAX) {
                return self.step_hours * n as f64;
            }
            let total: f64 = dist.iter().map(|&d| d as f64).sum();
            total / n as f64 * self.step_hours
        }

        /// The naive launch delay: from every sample, probe forward
        /// (around the circle) for the first admissible one. O(n²).
        fn launch_delay_by_scan(&self, bid: Usd) -> Hours {
            let n = self.prices.len();
            let mut total = 0.0;
            for i in 0..n {
                match (0..n).find(|&d| self.prices[(i + d) % n] <= bid) {
                    Some(d) => total += d as f64,
                    None => return self.step_hours * n as f64,
                }
            }
            total / n as f64 * self.step_hours
        }

        /// The original per-start probe loop, O(n·horizon).
        fn estimate_by_scan(
            &self,
            bid: Usd,
            horizon_hours: usize,
            starts: impl Iterator<Item = usize>,
        ) -> FailureRateFn {
            assert!(horizon_hours > 0, "horizon must be positive");
            let n = self.prices.len();
            let samples_per_hour = self.samples_per_hour();
            let horizon_samples = horizon_hours * samples_per_hour;
            let mut buckets = vec![0u64; horizon_hours];
            let mut survived = 0u64;
            let mut used = 0u64;

            for s in starts {
                if self.prices[s] > bid {
                    continue; // cannot launch here
                }
                used += 1;
                let mut failed = false;
                for k in 1..=horizon_samples {
                    let p = self.prices[(s + k) % n];
                    if p > bid {
                        let hour = ((k - 1) / samples_per_hour).min(horizon_hours - 1);
                        buckets[hour] += 1;
                        failed = true;
                        break;
                    }
                }
                if !failed {
                    survived += 1;
                }
            }

            FailureEstimator::finish(bid, horizon_hours, buckets, survived, used)
        }
    }

    #[test]
    fn constant_price_never_fails_above_it() {
        let e = estimator(&[0.1; 48], 1.0);
        let f = e.failure_rate_exact(0.2, 10);
        assert_eq!(f.survival(), 1.0);
        assert_eq!(f.prob_fail(), 0.0);
        assert!(f.mean_time_to_failure().is_none());
    }

    #[test]
    fn bid_below_all_prices_is_immediate_failure() {
        let e = estimator(&[0.1; 48], 1.0);
        let f = e.failure_rate_exact(0.05, 10);
        assert_eq!(f.prob_fail_in(0), 1.0);
        assert_eq!(f.survival(), 0.0);
    }

    #[test]
    fn periodic_spike_concentrates_failures() {
        // Price spikes every 12 hours for 1 hour; bidding between base and
        // spike must fail within 12 hours from any start.
        let mut prices = Vec::new();
        for day in 0..8 {
            let _ = day;
            prices.extend(std::iter::repeat_n(0.1, 11));
            prices.push(1.0);
        }
        let e = estimator(&prices, 1.0);
        let f = e.failure_rate_exact(0.5, 12);
        assert!(f.survival() < 1e-9, "survival {}", f.survival());
        let mass: f64 = f.buckets().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_bid_survives_no_worse() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(240.0, 1.0 / 12.0, 3);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let lo = e.failure_rate_exact(0.035, 24);
        let hi = e.failure_rate_exact(0.5, 24);
        assert!(hi.survival() >= lo.survival());
    }

    #[test]
    fn sampled_estimator_approaches_exact() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(480.0, 1.0 / 12.0, 9);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let exact = e.failure_rate_exact(0.06, 24);
        let sampled = e.failure_rate_sampled(0.06, 24, 20_000, 1);
        assert!(
            (exact.survival() - sampled.survival()).abs() < 0.05,
            "exact {} vs sampled {}",
            exact.survival(),
            sampled.survival()
        );
    }

    #[test]
    fn sampled_estimator_is_deterministic_per_seed() {
        let e = estimator(&[0.1, 0.2, 0.05, 0.4, 0.1, 0.1], 1.0);
        let a = e.failure_rate_sampled(0.25, 4, 500, 7);
        let b = e.failure_rate_sampled(0.25, 4, 500, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn expected_spot_price_means_below_bid() {
        let e = estimator(&[0.1, 0.2, 0.3, 0.4], 1.0);
        let s = e.expected_spot_price();
        assert_eq!(s.mean_below(0.05), None);
        assert!((s.mean_below(0.25).unwrap() - 0.15).abs() < 1e-12);
        assert!((s.mean_below(1.0).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(s.launch_fraction(0.25), 0.5);
        assert_eq!(s.max_price(), 0.4);
    }

    #[test]
    fn launch_delay_zero_when_bid_covers_history() {
        let e = estimator(&[0.1, 0.2, 0.15, 0.1], 1.0);
        assert_eq!(e.expected_launch_delay(0.2), 0.0);
    }

    #[test]
    fn launch_delay_full_window_when_unlaunchable() {
        let e = estimator(&[0.1; 10], 0.5);
        assert_eq!(e.expected_launch_delay(0.05), 5.0);
    }

    #[test]
    fn launch_delay_matches_hand_computation() {
        // Prices: [hi, hi, lo, hi]; bid admits only index 2.
        // Distances to next admissible (circular): [2, 1, 0, 3] → mean 1.5
        // steps × 1 h.
        let e = estimator(&[9.0, 9.0, 0.1, 9.0], 1.0);
        assert!((e.expected_launch_delay(0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn launch_delay_monotone_in_bid() {
        let t = crate::tracegen::TraceGenConfig::preset(
            0.03,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(240.0, 1.0 / 12.0, 17);
        let e = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
        let mut prev = f64::INFINITY;
        for bid in [0.02, 0.03, 0.05, 0.1, 0.5] {
            let d = e.expected_launch_delay(bid);
            assert!(d <= prev + 1e-12, "bid {bid}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn mttf_of_geometric_hazard_is_plausible() {
        // Hourly independent failure with p = 0.25 per hour has MTTF 4h
        // (geometric mean 1/p, measured from bucket midpoints ≈ 3.5–4.5).
        let buckets: Vec<f64> = (0..40).map(|t| 0.25 * (0.75f64).powi(t)).collect();
        let survival = 1.0 - buckets.iter().sum::<f64>();
        let f = FailureRateFn::new(0.1, buckets, survival);
        let mttf = f.mean_time_to_failure().unwrap();
        assert!((mttf - 4.0).abs() < 0.6, "mttf {mttf}");
    }

    #[test]
    fn carry_estimate_matches_scan_reference() {
        // The sweep must reproduce the O(n·horizon) probe loop and the
        // two-pass carry bit for bit — same integer bucket counts, so the
        // same float divisions. Exercise generated traces (sub-hour steps,
        // wrap-around) and degenerate hand traces at several bids.
        let gen = crate::tracegen::TraceGenConfig::preset(
            0.05,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(120.0, 1.0 / 12.0, 23);
        let estimators = [
            estimator(gen.samples(), 1.0 / 12.0),
            estimator(&[0.1; 5], 1.0),
            estimator(&[0.4], 1.0),
            estimator(&[9.0, 9.0, 0.1, 9.0, 0.1, 0.1], 0.5),
        ];
        for e in &estimators {
            let r = Reference::of(e);
            let n = r.prices.len();
            let max = e.max_price();
            for bid in [0.0, 0.05, 0.09, 0.3, max, max * 2.0] {
                for horizon in [1usize, 7, 24, 400] {
                    let fast = e.failure_rate_exact(bid, horizon);
                    let slow = r.estimate_by_scan(bid, horizon, 0..n);
                    assert_eq!(fast, slow, "bid {bid} horizon {horizon}");
                    let (buckets, survived, used) = r.count_by_carry(bid, horizon, 0..n);
                    let counts = e.failure_counts(bid, horizon);
                    assert_eq!(
                        (&counts.buckets, counts.survived, counts.used),
                        (&buckets, survived, used)
                    );
                }
            }
            // Sampled start points go through the same sweep, weighted.
            let fast = e.failure_rate_sampled(0.08, 12, 200, 5);
            let slow = r.estimate_by_scan(0.08, 12, {
                let mut rng = StdRng::seed_from_u64(5);
                let starts: Vec<usize> = (0..200).map(|_| rng.gen_range(0..n)).collect();
                starts.into_iter()
            });
            assert_eq!(fast, slow);
        }
    }

    /// Bitwise equality of two failure-rate functions (stricter than
    /// `PartialEq`, which lets `-0.0 == 0.0` pass).
    fn assert_fn_bits(a: &FailureRateFn, b: &FailureRateFn, label: &str) {
        assert_eq!(a.bid().to_bits(), b.bid().to_bits(), "{label}: bid");
        assert_eq!(
            a.survival().to_bits(),
            b.survival().to_bits(),
            "{label}: survival"
        );
        let bits = |f: &FailureRateFn| f.buckets().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{label}: buckets");
    }

    /// Bitwise equality of two bid profiles.
    fn assert_profile_bits(a: &BidProfile, b: &BidProfile, label: &str) {
        let (x, y) = (a.counts(), b.counts());
        assert_eq!(x.bid.to_bits(), y.bid.to_bits(), "{label}: bid");
        assert_eq!(
            (&x.buckets, x.survived, x.used),
            (&y.buckets, y.survived, y.used),
            "{label}: counts"
        );
        assert_eq!(
            a.launch_delay().to_bits(),
            b.launch_delay().to_bits(),
            "{label}: launch delay"
        );
    }

    /// Differential check of one history against the per-sample
    /// references: the `S_i(P)` table against the sorted-sample table,
    /// and at every bid of interest — each distinct price exactly, midway
    /// between neighbours, below the minimum and above the maximum — the
    /// profile against the per-sample sweep at every horizon (zero
    /// included), its counts against the per-start probe, its launch
    /// delay against the naive O(n²) scan and the two-pass carry, and the
    /// sampled estimator against the weighted per-sample sweep, all bit
    /// for bit.
    fn check_profile_against_references(e: &FailureEstimator, label: &str) {
        let r = Reference::of(e);
        let n = r.prices.len();
        let table = e.expected_spot_price();
        let sorted = SortedSamples::new(&r.prices);
        assert_eq!(
            table.min_price().to_bits(),
            sorted.min_price().to_bits(),
            "{label}: min"
        );
        assert_eq!(
            table.max_price().to_bits(),
            sorted.max_price().to_bits(),
            "{label}: max"
        );
        assert_eq!(e.max_price().to_bits(), sorted.max_price().to_bits());
        assert_eq!(e.min_price().to_bits(), sorted.min_price().to_bits());
        let mut levels = r.prices.clone();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let mut bids = vec![levels[0] * 0.5 - 1.0, levels[levels.len() - 1] * 2.0 + 1.0];
        for (i, &p) in levels.iter().enumerate() {
            bids.push(p);
            if let Some(&q) = levels.get(i + 1) {
                bids.push((p + q) / 2.0);
            }
        }
        for &bid in &bids {
            assert_eq!(
                table.count_at_or_below(bid),
                sorted.count_at_or_below(bid),
                "{label} bid {bid}: count"
            );
            assert_eq!(
                e.count_at_or_below(bid),
                sorted.count_at_or_below(bid),
                "{label} bid {bid}: count off the runs"
            );
            assert_eq!(
                table.mean_below(bid).map(f64::to_bits),
                sorted.mean_below(bid).map(f64::to_bits),
                "{label} bid {bid}: mean"
            );
            assert_eq!(
                table.launch_fraction(bid).to_bits(),
                sorted.launch_fraction(bid).to_bits(),
                "{label} bid {bid}: launch fraction"
            );
            let delay = e.bid_profile(bid, 0).launch_delay();
            let naive = r.launch_delay_by_scan(bid);
            assert_eq!(delay.to_bits(), naive.to_bits(), "{label} bid {bid}: delay");
            assert_eq!(
                delay.to_bits(),
                r.launch_delay_by_carry(bid).to_bits(),
                "{label} bid {bid}: delay vs carry"
            );
            assert_eq!(delay.to_bits(), e.expected_launch_delay(bid).to_bits());
            for horizon in [0usize, 1, 2, 5, 24, 97] {
                let profile = e.bid_profile(bid, horizon);
                let tag = format!("{label} bid {bid} horizon {horizon}");
                assert_profile_bits(&profile, &r.profile(bid, horizon), &tag);
                if horizon == 0 {
                    continue;
                }
                let scan = r.estimate_by_scan(bid, horizon, 0..n);
                assert_fn_bits(&profile.counts().to_fn(horizon), &scan, &tag);
                assert_fn_bits(&e.failure_rate_exact(bid, horizon), &scan, &tag);
                // Truncation from a longer recording is exact too.
                let long = e.bid_profile(bid, horizon + 13);
                assert_fn_bits(&long.counts().to_fn(horizon), &scan, &tag);
                assert_eq!(profile.counts().used, r.count_by_carry(bid, 1, 0..n).2);
                assert_fn_bits(
                    &e.failure_rate_sampled(bid, horizon, 3 * n, horizon as u64),
                    &r.sampled(bid, horizon, 3 * n, horizon as u64),
                    &format!("{tag} sampled"),
                );
            }
        }
    }

    #[test]
    fn bid_profile_matches_scan_on_seeded_random_traces() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..40 {
            let n = rng.gen_range(1..200);
            // Few distinct levels, so many prices tie with a tested bid.
            let levels = rng.gen_range(1..6);
            let prices: Vec<f64> = (0..n)
                .map(|_| 0.01 * (1 + rng.gen_range(0..levels)) as f64)
                .collect();
            let step = [1.0, 0.5, 1.0 / 12.0][case % 3];
            check_profile_against_references(&estimator(&prices, step), &format!("case {case}"));
        }
        // Long plateaus, as in generated spot traces: runs that span
        // several hour buckets at 5-minute steps.
        for case in 0..20 {
            let mut prices = Vec::new();
            while prices.len() < 600 {
                let level = 0.01 * (1 + rng.gen_range(0..4)) as f64;
                prices.extend(std::iter::repeat_n(level, rng.gen_range(1..90usize)));
            }
            let step = [1.0 / 12.0, 1.0][case % 2];
            check_profile_against_references(
                &estimator(&prices, step),
                &format!("plateau case {case}"),
            );
        }
    }

    #[test]
    fn bid_profile_matches_scan_on_edge_cases() {
        let mut spike_at_end = vec![0.1; 30];
        spike_at_end[29] = 5.0;
        spike_at_end[0] = 5.0;
        let mut sub_hour = vec![0.1; 40];
        sub_hour[13] = 9.0;
        sub_hour[27] = 9.0;
        // Runs of 7, 13, 30, ... 5-minute samples, crossing hour buckets.
        let crossing: Vec<f64> = [7, 13, 30, 5, 18, 11, 25, 12]
            .iter()
            .zip([0.1, 9.0, 0.2, 9.0, 0.1, 0.5, 0.3, 9.0])
            .flat_map(|(&len, p)| std::iter::repeat_n(p, len))
            .collect();
        // No two neighbours equal: every run has length one.
        let no_runs: Vec<f64> = (0..60).map(|i| 0.01 * (1 + (i * 7) % 13) as f64).collect();
        let cases: [(&str, Vec<f64>, f64); 19] = [
            ("single sample", vec![0.3], 1.0),
            ("single sample, sub-hour", vec![0.3], 1.0 / 12.0),
            ("all equal", vec![0.2; 9], 1.0),
            ("one run, sub-hour", vec![0.2; 300], 1.0 / 12.0),
            ("wrap-around spikes", spike_at_end, 1.0),
            ("sub-hour steps", sub_hour, 1.0 / 12.0),
            ("alternating", [0.1, 0.9].repeat(11), 0.5),
            ("spike first only", [vec![4.0], vec![0.1; 10]].concat(), 1.0),
            ("spike last only", [vec![0.1; 10], vec![4.0]].concat(), 1.0),
            ("no repeated neighbours", no_runs.clone(), 1.0 / 12.0),
            ("no repeated neighbours, hourly", no_runs, 1.0),
            (
                "admissible at both ends",
                vec![0.1, 0.1, 0.1, 5.0, 5.0, 0.3, 0.1, 0.1],
                1.0,
            ),
            (
                "above at both ends",
                vec![5.0, 5.0, 0.1, 0.2, 0.2, 5.0],
                0.5,
            ),
            (
                "run longer than the horizon",
                [vec![0.1; 150], vec![5.0; 3], vec![0.1; 20]].concat(),
                1.0,
            ),
            ("runs crossing hour buckets", crossing, 1.0 / 12.0),
            (
                "signed zeros",
                vec![0.0, -0.0, 0.1, -0.0, 0.0, 0.3, 0.0],
                1.0,
            ),
            ("zero then negative zero", vec![0.0, -0.0], 1.0),
            ("negative zero then zero", vec![-0.0, 0.0, 0.0], 1.0),
            ("negative zeros around a price", vec![-0.0, 0.2, -0.0], 1.0),
        ];
        for (label, prices, step) in &cases {
            check_profile_against_references(&estimator(prices, *step), label);
        }
        // Every price above the bid, every price at or below it, and a
        // bid exactly equal to the only price level.
        let e = estimator(&[0.2; 9], 1.0);
        assert_eq!(e.bid_profile(0.1, 4).counts().used, 0);
        assert_eq!(e.bid_profile(0.1, 4).launch_delay(), 9.0);
        assert_eq!(e.bid_profile(0.2, 4).counts().to_fn(4).survival(), 1.0);
        assert_eq!(e.bid_profile(0.2, 4).launch_delay(), 0.0);
        // A zero horizon records no buckets: every usable start survives.
        let e = estimator(&[0.1, 5.0, 0.1, 0.1], 1.0);
        let counts = e.bid_profile(0.5, 0).counts().clone();
        assert_eq!((counts.horizon(), counts.survived, counts.used), (0, 3, 3));
        // Equal prices with different bits: the extremes keep the bits a
        // stable sort leaves at its ends — the earliest minimum, the
        // latest maximum.
        let s = estimator(&[0.0, -0.0], 1.0);
        let table = s.expected_spot_price();
        assert_eq!(table.min_price().to_bits(), 0.0f64.to_bits());
        assert_eq!(table.max_price().to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            table.mean_below(0.0).map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
    }

    #[test]
    fn truncated_counts_match_direct_estimation() {
        // `failure_counts(bid, H).to_fn(h)` must be bit-identical to
        // `failure_rate_exact(bid, h)` for every h ≤ H — the exactness
        // contract single-sweep assessment relies on. Cover generated
        // traces, degenerate traces, unlaunchable bids, and h == H.
        let gen = crate::tracegen::TraceGenConfig::preset(
            0.05,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(120.0, 1.0 / 12.0, 29);
        let estimators = [
            estimator(gen.samples(), 1.0 / 12.0),
            estimator(&[0.1; 5], 1.0),
            estimator(&[0.4], 1.0),
            estimator(&[9.0, 9.0, 0.1, 9.0, 0.1, 0.1], 0.5),
        ];
        for e in &estimators {
            let max = e.max_price();
            for bid in [0.0, 0.05, 0.09, 0.3, max, max * 2.0] {
                let counts = e.failure_counts(bid, 400);
                assert_eq!(counts.horizon(), 400);
                assert_eq!(counts.bid(), bid);
                for horizon in [1usize, 2, 7, 24, 399, 400] {
                    assert_eq!(
                        counts.to_fn(horizon),
                        e.failure_rate_exact(bid, horizon),
                        "bid {bid} horizon {horizon}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds recorded horizon")]
    fn truncated_counts_reject_longer_horizons() {
        let e = estimator(&[0.1; 5], 1.0);
        e.failure_counts(0.2, 4).to_fn(5);
    }

    #[test]
    fn sub_hour_resolution_buckets_correctly() {
        // 5-minute steps; spike at sample 13 (~65 min) => failure in hour 1.
        let mut prices = vec![0.1; 36];
        prices[13] = 9.0;
        let e = estimator(&prices, 1.0 / 12.0);
        // Only start point 0 matters for this check; use exact and confirm
        // the mass in bucket 1 from starts near 0 is nonzero.
        let f = e.failure_rate_exact(0.5, 3);
        assert!(f.prob_fail() > 0.0);
        let mass: f64 = f.buckets().iter().sum::<f64>() + f.survival();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    /// A run list as `(price bits, length)` pairs: bitwise, so a `0.0` run
    /// and a `-0.0` run differ.
    fn run_bits(runs: impl IntoIterator<Item = Run>) -> Vec<(u64, usize)> {
        runs.into_iter()
            .map(|run| (run.price.to_bits(), run.len))
            .collect()
    }

    /// The `S_i(P)` table bit for bit: every level, the minimum, the
    /// maximum.
    fn table_bits(t: &ExpectedSpotPrice) -> (Vec<(u64, usize, u64)>, u64, u64) {
        let levels = t
            .levels
            .iter()
            .map(|l| (l.price.to_bits(), l.at_or_below, l.sum.to_bits()))
            .collect();
        (levels, t.min.to_bits(), t.max.to_bits())
    }

    /// Every `(start, length)` window of `trace` must read the runs a scan
    /// of its samples finds. `trace`'s step must make `i * step / step`
    /// exact (1.0 or 0.5), so the windows cover every start and length.
    fn assert_window_runs_match(trace: &SpotTrace, label: &str) {
        let (n, step) = (trace.len(), trace.step_hours());
        for lo in 0..n {
            for len in 1..=n - lo {
                let w = trace.window(lo as f64 * step, len as f64 * step);
                assert_eq!(
                    (w.samples().as_ptr(), w.len()),
                    (trace.samples()[lo..].as_ptr(), len),
                    "{label}: window {lo}+{len} not covered"
                );
                assert_eq!(
                    run_bits(w.runs()),
                    run_bits(runs_of(w.samples())),
                    "{label}: window {lo}+{len}"
                );
            }
        }
        let all = trace.window(0.0, f64::INFINITY);
        assert_eq!(run_bits(all.runs()), run_bits(runs_of(trace.samples())));
    }

    /// The traces the run-table oracle walks: seeded random ones with few
    /// levels, plateau ones, one with no two equal neighbours, a single
    /// sample, and `0.0`/`-0.0` neighbours.
    fn run_table_traces() -> Vec<(String, SpotTrace)> {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        let mut out = Vec::new();
        for case in 0..12 {
            let n = rng.gen_range(1..48);
            let levels = rng.gen_range(1..4);
            let prices = (0..n)
                .map(|_| 0.01 * (1 + rng.gen_range(0..levels)) as f64)
                .collect();
            let step = [1.0, 0.5][case % 2];
            out.push((format!("random {case}"), SpotTrace::new(step, prices)));
        }
        for case in 0..6 {
            let mut prices = Vec::new();
            while prices.len() < 40 {
                let level = 0.01 * (1 + rng.gen_range(0..3)) as f64;
                prices.extend(std::iter::repeat_n(level, rng.gen_range(1..12usize)));
            }
            out.push((format!("plateau {case}"), SpotTrace::new(1.0, prices)));
        }
        let no_runs = (0..40).map(|i| 0.01 * (1 + (i * 7) % 13) as f64).collect();
        out.push(("no equal neighbours".into(), SpotTrace::new(0.5, no_runs)));
        out.push(("one sample".into(), SpotTrace::new(1.0, vec![0.3])));
        out.push((
            "signed zeros".into(),
            SpotTrace::new(1.0, vec![0.0, -0.0, -0.0, 0.1, 0.0, 0.0, -0.0, 0.3, -0.0]),
        ));
        out
    }

    #[test]
    fn window_runs_match_a_scan_of_the_samples() {
        for (label, trace) in run_table_traces() {
            assert_window_runs_match(&trace, &label);
        }
        // `0.0` and `-0.0` compare equal but keep separate runs.
        let zeros = SpotTrace::new(1.0, vec![0.0, -0.0, -0.0, 0.0]);
        assert_eq!(zeros.window(0.0, 4.0).runs().len(), 3);
    }

    #[test]
    fn extending_a_windowed_trace_rebuilds_its_run_table() {
        // The table is built by the first window; `extend_from` must drop
        // it, whether the joining samples are bit-equal (the last run
        // continues) or bit-different (`0.0` then `-0.0`: a new run).
        for (label, head, tail, joined_runs) in [
            (
                "bit-equal join",
                vec![0.1, 0.1, 0.2],
                vec![0.2, 0.2, 0.3],
                3,
            ),
            (
                "bit-different join",
                vec![0.1, 0.0],
                vec![-0.0, 0.3, 0.3],
                4,
            ),
        ] {
            let mut trace = SpotTrace::new(1.0, head);
            assert_window_runs_match(&trace, label);
            trace.extend_from(&SpotTrace::new(1.0, tail));
            assert_window_runs_match(&trace, label);
            assert_eq!(
                trace.window(0.0, f64::INFINITY).runs().len(),
                joined_runs,
                "{label}"
            );
        }
    }

    #[test]
    fn estimators_from_a_window_equal_those_of_its_copy() {
        // A window reads its runs off the trace's table; a copy of its
        // samples as a trace of its own builds a table from just them.
        // Both must give the same runs, `S_i(P)` table and bid profiles.
        let generated = crate::tracegen::TraceGenConfig::preset(
            0.05,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(120.0, 1.0 / 12.0, 41);
        let mut traces = run_table_traces();
        traces.push(("generated".into(), generated));
        for (label, trace) in &traces {
            let (n, step) = (trace.len(), trace.step_hours());
            let spans = [
                (0, n),
                (0, 1),
                (n / 3, n / 2),
                (n / 2, n - n / 2),
                (n - 1, 1),
            ];
            for (lo, len) in spans.into_iter().filter(|&(_, len)| len > 0) {
                let w = trace.window(lo as f64 * step, len as f64 * step);
                let copy = SpotTrace::new(step, w.samples().to_vec());
                let (a, b) = (
                    FailureEstimator::from_window(w),
                    FailureEstimator::from_window(copy.window(0.0, f64::INFINITY)),
                );
                let tag = format!("{label} window {lo}+{len}");
                assert_eq!(run_bits(a.runs.clone()), run_bits(b.runs.clone()), "{tag}");
                assert_eq!((a.samples, a.step_hours), (b.samples, b.step_hours));
                let table = ExpectedSpotPrice::from_window(w);
                assert_eq!(table_bits(&table), table_bits(a.expected_spot_price()));
                assert_eq!(table_bits(&table), table_bits(b.expected_spot_price()));
                let mut bids: Vec<Usd> = w.samples().to_vec();
                bids.extend([-1.0, a.max_price() * 2.0 + 1.0]);
                for bid in bids {
                    for horizon in [0usize, 1, 5, 24] {
                        assert_profile_bits(
                            &a.bid_profile(bid, horizon),
                            &b.bid_profile(bid, horizon),
                            &format!("{tag} bid {bid} horizon {horizon}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_estimator_never_asked_for_its_table_has_none() {
        // Everything but `expected_spot_price` reads the runs alone.
        for (label, trace) in run_table_traces() {
            let e = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
            let mid = (e.min_price() + e.max_price()) / 2.0;
            for bid in [-1.0, e.min_price(), mid, e.max_price(), f64::NAN] {
                e.count_at_or_below(bid);
                e.bid_profile(bid, 3);
                e.failure_rate_exact(bid, 2);
                e.failure_rate_sampled(bid, 2, 5, 1);
                e.expected_launch_delay(bid);
            }
            assert!(e.expected.get().is_none(), "{label}: table built");
            let copy = e.clone();
            assert!(copy.expected.get().is_none(), "{label}: clone has a table");
            e.expected_spot_price();
            assert!(e.expected.get().is_some(), "{label}: no table after use");
        }
    }

    #[test]
    fn a_table_built_on_first_use_equals_an_eager_one() {
        // Seeded, plateau, no-runs, one-sample and signed-zero windows:
        // the estimator's table, built on first use by the estimator, by a
        // clone taken before that use, or carried by a clone taken after
        // it, equals the table built eagerly from the same window, and the
        // estimator's extremes and counts equal the table's.
        let generated = crate::tracegen::TraceGenConfig::preset(
            0.05,
            crate::tracegen::ZoneVolatility::Volatile,
        )
        .generate(48.0, 1.0 / 12.0, 43);
        let mut traces = run_table_traces();
        traces.push(("generated".into(), generated));
        for (label, trace) in &traces {
            let n = trace.len();
            for (lo, len) in [(0, n), (n / 3, n - n / 3)] {
                let w = trace.window(
                    lo as f64 * trace.step_hours(),
                    len as f64 * trace.step_hours(),
                );
                let eager = table_bits(&ExpectedSpotPrice::from_window(w));
                let e = FailureEstimator::from_window(w);
                let before = e.clone();
                assert_eq!(
                    (e.min_price().to_bits(), e.max_price().to_bits()),
                    (eager.1, eager.2),
                    "{label} {lo}+{len}: extremes"
                );
                assert_eq!(
                    table_bits(e.expected_spot_price()),
                    eager,
                    "{label}: first use"
                );
                assert_eq!(
                    table_bits(before.expected_spot_price()),
                    eager,
                    "{label}: clone before"
                );
                let after = e.clone();
                assert!(
                    after.expected.get().is_some(),
                    "{label}: clone after lost the table"
                );
                assert_eq!(
                    table_bits(after.expected_spot_price()),
                    eager,
                    "{label}: clone after"
                );
                let mut bids: Vec<Usd> = w.samples().to_vec();
                bids.extend([-1.0, 0.0, -0.0, e.max_price() * 2.0 + 1.0]);
                for bid in bids {
                    assert_eq!(
                        e.count_at_or_below(bid),
                        e.expected_spot_price().count_at_or_below(bid),
                        "{label} bid {bid}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_trace_equals_its_clone_before_and_after_its_run_table() {
        let trace = SpotTrace::new(1.0, vec![0.1, 0.1, 0.0, -0.0, 0.2]);
        let before = trace.clone();
        assert_eq!(before, trace);
        let _ = trace.window(0.0, 2.0); // builds `trace`'s table only
        assert_eq!(before, trace);
        assert_eq!(trace.clone(), trace);
        assert_eq!(trace.clone(), before);
    }
}
