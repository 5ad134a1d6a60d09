//! Precomputed per-trace query index for the replay hot path.
//!
//! The paper's evaluation replays each candidate plan against price history
//! "one million times" from random start points (Section 5). Every replica
//! asks the same two questions of a trace — *when does the price first rise
//! above the bid?* (the out-of-bid death) and *when does it first fall to or
//! below the bid?* (the launch) — and the naive answers scan raw samples in
//! O(n). Spot prices are calm plateaus broken by spikes, so a trace of n
//! samples holds R ≪ n maximal runs of one price (about 31 samples per run
//! on the benchmark's stress market). [`TraceIndex`] keeps the trace's run
//! table and a max tree and a min tree over the run prices, and answers
//! both questions in O(log R). It is built once per trace, in O(n) time and
//! 8·R + 32·`next_power_of_two(R)` bytes, and lives on the trace itself
//! ([`SpotTrace::index`]), next to nothing else: views slice the same run
//! table ([`SpotTrace::window`]).
//!
//! **Exactness is non-negotiable.** Every query here is bit-identical to
//! the linear scan it replaces. A node's maximum (minimum) is one of the
//! run prices beneath it, and every sample of a run has its price's bits,
//! so the test "some run under this node is above (at or below) the bid"
//! is *exactly* the naive per-sample comparison. The query finds the run
//! holding `lo`; if that run matches, the first matching sample is `lo`
//! itself, and otherwise it is the first sample of the first matching run
//! after it. First-passage times are materialized with the same arithmetic
//! form (`i as f64 * step_hours`) the naive paths use. The unit tests below
//! and the equality properties in `tests/properties.rs` compare every
//! query against the naive [`SpotTrace`] scans, which stay only as that
//! oracle.
//!
//! [`TraceQuery`] bundles a borrowed trace with its index; it is what
//! [`SpotTrace::query`] and [`crate::market::SpotMarket::query`] hand the
//! replay executors.

use crate::trace::SpotTrace;
use crate::{Hours, Usd};
use std::fmt;

/// Immutable first-passage index over one trace: its run table plus a max
/// tree and a min tree over the run prices, in the implicit bottom-up
/// layout. Node 1 is the root, node `i` has children `2i` and `2i + 1`, and
/// leaves `m..m + R` (with `m = next_power_of_two(R)`) hold the R run
/// prices in order. The padding leaves past the last run hold NaN:
/// `f64::max`/`f64::min` return the other operand when one is NaN, and
/// `>`/`<=` are false on it, so padding never matches a threshold test.
///
/// Built once per trace (lazily, on first use) and shared read-only across
/// Monte-Carlo worker threads.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    /// Number of indexed samples.
    n: usize,
    /// Index of the first sample of each maximal run of bit-equal prices,
    /// ascending (so it starts with `0`).
    run_starts: Vec<usize>,
    /// `max_tree[i]` = the largest run price under node `i`.
    max_tree: Vec<Usd>,
    /// `min_tree[i]` = the smallest run price under node `i`.
    min_tree: Vec<Usd>,
}

impl TraceIndex {
    /// Build from raw samples (non-empty, as every [`SpotTrace`] is).
    /// O(n) time: one pass counts the runs, so every vector is allocated
    /// at its final size, and a second pass fills the run table.
    pub(crate) fn build(prices: &[Usd]) -> Self {
        assert!(!prices.is_empty(), "cannot index an empty trace");
        let n = prices.len();
        // Bits, not `==`: `0.0` and `-0.0` neighbours start separate runs.
        let starts_run = |&i: &usize| prices[i].to_bits() != prices[i - 1].to_bits();
        let runs = 1 + (1..n).filter(starts_run).count();
        let mut run_starts = Vec::with_capacity(runs);
        run_starts.push(0);
        run_starts.extend((1..n).filter(starts_run));
        let m = runs.next_power_of_two();
        let mut max_tree = vec![Usd::NAN; 2 * m];
        for (leaf, &s) in max_tree[m..].iter_mut().zip(&run_starts) {
            *leaf = prices[s];
        }
        let mut min_tree = max_tree.clone();
        for i in (1..m).rev() {
            max_tree[i] = max_tree[2 * i].max(max_tree[2 * i + 1]);
            min_tree[i] = min_tree[2 * i].min(min_tree[2 * i + 1]);
        }
        Self {
            n,
            run_starts,
            max_tree,
            min_tree,
        }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index is empty (never true for a built index).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of maximal runs of bit-equal prices in the trace.
    pub fn runs(&self) -> usize {
        self.run_starts.len()
    }

    /// The first sample of each run, ascending from `0`.
    pub(crate) fn run_starts(&self) -> &[usize] {
        &self.run_starts
    }

    /// Heap bytes held by the run table and the two trees:
    /// 8·R + 32·`next_power_of_two(R)` on a 64-bit target.
    pub fn heap_bytes(&self) -> usize {
        self.run_starts.capacity() * std::mem::size_of::<usize>()
            + (self.max_tree.capacity() + self.min_tree.capacity()) * std::mem::size_of::<Usd>()
    }

    /// Smallest index `i >= lo` with `samples[i] > bid`, or `None`.
    /// O(log R) over the max tree.
    pub fn first_above(&self, lo: usize, bid: Usd) -> Option<usize> {
        self.first_sample(&self.max_tree, lo, |max| max > bid)
    }

    /// Smallest index `i >= lo` with `samples[i] <= bid`, or `None`.
    /// O(log R) over the min tree.
    pub fn first_at_or_below(&self, lo: usize, bid: Usd) -> Option<usize> {
        self.first_sample(&self.min_tree, lo, |min| min <= bid)
    }

    /// First sample at or after `lo` whose run passes `hit`. Every sample
    /// of a run has the run price's bits, so when the run holding `lo`
    /// passes, `lo` is the answer; otherwise no sample from `lo` to the
    /// end of its run passes, and the answer is the first sample of the
    /// first passing run after it.
    fn first_sample(&self, tree: &[Usd], lo: usize, hit: impl Fn(Usd) -> bool) -> Option<usize> {
        if lo >= self.n {
            return None;
        }
        // The last run starting at or before `lo` (the table starts at 0).
        let run = self.run_starts.partition_point(|&s| s <= lo) - 1;
        let first = first_leaf(tree, run, hit)?;
        Some(if first == run {
            lo
        } else {
            self.run_starts[first]
        })
    }
}

/// Leftmost leaf at or after `leaf` under a node that passes `hit`.
/// `hit(tree[i])` must mean "some leaf under node `i` matches", which
/// holds exactly for threshold tests on subtree extrema because an
/// extremum is one of its leaves. Climbs from `leaf` through the subtrees
/// that follow it until one hits, then descends to that subtree's leftmost
/// hit. O(log R).
fn first_leaf(tree: &[Usd], leaf: usize, hit: impl Fn(Usd) -> bool) -> Option<usize> {
    let m = tree.len() / 2;
    let mut i = m + leaf;
    while !hit(tree[i]) {
        // Step to the subtree just right of node `i`'s: leave every right
        // child, then cross to the right sibling. Leaving the root (node
        // 1) reaches 0: nothing lies to the right.
        while i & 1 == 1 {
            i >>= 1;
        }
        if i == 0 {
            return None;
        }
        i += 1;
    }
    while i < m {
        // One child holds the parent's extremum; prefer the left.
        i *= 2;
        if !hit(tree[i]) {
            i += 1;
        }
    }
    Some(i - m)
}

/// Totals over a market's trace indexes: what [`TraceIndex`] holds, summed
/// ([`crate::market::SpotMarket::index_size`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSize {
    /// Runs of one price, summed over the traces.
    pub runs: usize,
    /// Samples, summed over the traces.
    pub samples: usize,
    /// Heap bytes of the run tables and trees.
    pub heap_bytes: usize,
}

impl<'a> std::iter::Sum<&'a TraceIndex> for IndexSize {
    fn sum<I: Iterator<Item = &'a TraceIndex>>(indexes: I) -> Self {
        indexes.fold(Self::default(), |size, index| Self {
            runs: size.runs + index.runs(),
            samples: size.samples + index.len(),
            heap_bytes: size.heap_bytes + index.heap_bytes(),
        })
    }
}

/// `14,105 runs over 432,000 samples, 751 KiB`.
impl fmt::Display for IndexSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs over {} samples, {} KiB",
            thousands(self.runs),
            thousands(self.samples),
            thousands(self.heap_bytes.div_ceil(1024))
        )
    }
}

/// `n` with a comma between each group of three digits.
fn thousands(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A borrowed trace plus its index: the query surface the replay
/// executors use when they hold no death-time table.
#[derive(Debug, Clone, Copy)]
pub struct TraceQuery<'a> {
    trace: &'a SpotTrace,
    index: &'a TraceIndex,
}

impl<'a> TraceQuery<'a> {
    /// Bundle a trace with its own index.
    pub(crate) fn new(trace: &'a SpotTrace, index: &'a TraceIndex) -> Self {
        Self { trace, index }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a SpotTrace {
        self.trace
    }

    /// First-passage time above `bid` from `start` — the out-of-bid death.
    /// Bit-identical to [`SpotTrace::first_passage_above`], in O(log R).
    pub fn first_passage_above(&self, start: Hours, bid: Usd) -> Option<Hours> {
        let lo = self.trace.index_at(start.max(0.0));
        self.index
            .first_above(lo, bid)
            .map(|i| i as f64 * self.trace.step_hours())
            .map(|t| t.max(start))
    }

    /// Launch time: earliest time `>= start` (strictly before `cutoff`)
    /// with the price at or below `bid`. Bit-identical to
    /// [`SpotTrace::first_time_at_or_below`], in O(log R).
    pub fn launch_time(&self, start: Hours, bid: Usd, cutoff: Hours) -> Option<Hours> {
        if start >= cutoff || start >= self.trace.duration() {
            return None;
        }
        let lo = self.trace.index_at(start);
        if self.trace.samples()[lo] <= bid {
            return Some(start);
        }
        self.index
            .first_at_or_below(lo + 1, bid)
            .map(|i| i as f64 * self.trace.step_hours())
            .filter(|&t| t < cutoff)
    }

    /// Whole-trace maximum price. O(1) (the trace caches it).
    pub fn max_price(&self) -> Usd {
        self.trace.max_price()
    }

    /// Whole-trace minimum price. O(1) (the trace caches it).
    pub fn min_price(&self) -> Usd {
        self.trace.min_price()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator (xorshift64*) so the differential
    /// checks don't need an external RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn price(&mut self) -> f64 {
            // Coarse grid so equal prices (bid ties) actually occur.
            (self.next() % 1000) as f64 / 1000.0
        }
    }

    fn random_trace(rng: &mut Rng, len: usize, step: f64) -> SpotTrace {
        SpotTrace::new(step, (0..len).map(|_| rng.price()).collect())
    }

    /// A piecewise-constant trace of exactly `runs` runs, each 1–200
    /// samples long at one of 6 levels (neighbouring runs differ).
    fn plateau_trace(rng: &mut Rng, runs: usize, step: f64) -> SpotTrace {
        let mut prices = Vec::new();
        let mut level = rng.next() % 6;
        for r in 0..runs {
            if r > 0 {
                level = (level + 1 + rng.next() % 5) % 6;
            }
            let len = 1 + (rng.next() % 200) as usize;
            prices.extend(std::iter::repeat_n(0.05 * (1 + level) as f64, len));
        }
        SpotTrace::new(step, prices)
    }

    /// Every `lo` through two past the end, against every bid in `bids`.
    /// The oracle is the scan run backwards, so each answer costs O(1):
    /// the nearest matching sample at or after `lo`.
    fn assert_matches_scans(tr: &SpotTrace, bids: &[f64], tag: &str) {
        let (ix, s) = (tr.index(), tr.samples());
        for &bid in bids {
            let (mut above, mut below) = (None, None);
            for lo in (0..s.len() + 2).rev() {
                if lo < s.len() && s[lo] > bid {
                    above = Some(lo);
                }
                if lo < s.len() && s[lo] <= bid {
                    below = Some(lo);
                }
                assert_eq!(ix.first_above(lo, bid), above, "{tag}: lo {lo} bid {bid}");
                assert_eq!(
                    ix.first_at_or_below(lo, bid),
                    below,
                    "{tag}: lo {lo} bid {bid}"
                );
            }
        }
    }

    /// Every run price, its neighbours one ulp either side, and the
    /// thresholds outside any price.
    fn bids_around(tr: &SpotTrace) -> Vec<f64> {
        let mut bids = vec![0.0, -0.0, f64::INFINITY, -f64::INFINITY, f64::NAN];
        for &p in tr.samples() {
            bids.extend([p, p.next_up(), p.next_down()]);
        }
        bids.sort_by(f64::total_cmp);
        bids.dedup_by(|a, b| a.to_bits() == b.to_bits());
        bids
    }

    #[test]
    fn first_above_and_below_match_scans() {
        let mut rng = Rng(13);
        // Lengths 2^k - 1, 2^k and 2^k + 1 put the last sample just before,
        // exactly at and just past a power of two, where the padding starts;
        // nearly every run of these traces is one sample long.
        let padding_edges = (1..=9).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        let lens = [1usize, 2, 5, 33, 128, 300]
            .into_iter()
            .chain(padding_edges);
        let mut traces: Vec<SpotTrace> = lens.map(|len| random_trace(&mut rng, len, 0.5)).collect();
        // Runs of 1–200 samples, at run counts 2^k - 1, 2^k and 2^k + 1,
        // where the run trees' padding starts; one run; `0.0` next to
        // `-0.0`, which are separate runs.
        let counts = (1..=5).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        for runs in [1usize, 3, 9].into_iter().chain(counts) {
            let tr = plateau_trace(&mut rng, runs, 0.5);
            assert_eq!(tr.index().runs(), runs);
            traces.push(tr);
        }
        let zeros = SpotTrace::new(0.5, vec![0.0, -0.0, -0.0, 0.1, 0.0, 0.0, -0.0]);
        assert_eq!(zeros.index().runs(), 5);
        traces.push(zeros);
        let fixed = [0.1, 0.25, 0.5, 0.9, 1.0];
        for tr in &traces {
            let mut bids = bids_around(tr);
            bids.extend(fixed);
            let tag = format!("{} samples, {} runs", tr.len(), tr.index().runs());
            assert_matches_scans(tr, &bids, &tag);
        }
    }

    #[test]
    fn memory_is_the_run_table_and_two_run_trees() {
        let mut rng = Rng(3);
        for runs in [1usize, 7, 8, 9, 100] {
            let tr = plateau_trace(&mut rng, runs, 1.0);
            let ix = tr.index();
            assert_eq!(ix.len(), tr.len());
            assert_eq!(
                ix.heap_bytes(),
                std::mem::size_of::<usize>() * runs + 32 * runs.next_power_of_two(),
                "{runs} runs"
            );
        }
    }

    #[test]
    fn index_size_renders_with_thousands() {
        let size = IndexSize {
            runs: 14_105,
            samples: 432_000,
            heap_bytes: 768_200,
        };
        assert_eq!(
            size.to_string(),
            "14,105 runs over 432,000 samples, 751 KiB"
        );
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn query_first_passage_is_bit_identical() {
        let mut rng = Rng(99);
        let random = [1usize, 3, 50, 240].map(|len| random_trace(&mut rng, len, 1.0 / 12.0));
        let plateaus = [1usize, 4, 33].map(|runs| plateau_trace(&mut rng, runs, 1.0 / 12.0));
        for tr in random.iter().chain(&plateaus) {
            let q = tr.query();
            let span = tr.duration() + 2.0;
            for i in 0..80 {
                let start = (rng.next() % 400) as f64 * span / 400.0 - 1.0;
                let bid = rng.price();
                assert_eq!(
                    q.first_passage_above(start, bid),
                    tr.first_passage_above(start, bid),
                    "len {} iter {i} start {start} bid {bid}",
                    tr.len()
                );
            }
        }
    }

    #[test]
    fn query_launch_time_is_bit_identical() {
        let mut rng = Rng(5);
        let random = [1usize, 2, 17, 300].map(|len| random_trace(&mut rng, len, 1.0 / 12.0));
        let plateaus = [1usize, 5, 31].map(|runs| plateau_trace(&mut rng, runs, 1.0 / 12.0));
        for tr in random.iter().chain(&plateaus) {
            let q = tr.query();
            let span = tr.duration() + 1.0;
            for _ in 0..80 {
                let start = (rng.next() % 500) as f64 * span / 500.0 - 0.5;
                let bid = rng.price();
                let cutoff = start + (rng.next() % 300) as f64 * span / 300.0;
                assert_eq!(
                    q.launch_time(start, bid, cutoff),
                    tr.first_time_at_or_below(start, bid, cutoff),
                    "len {} start {start} bid {bid} cutoff {cutoff}",
                    tr.len()
                );
            }
        }
    }
}
