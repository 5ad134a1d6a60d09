//! Precomputed per-trace query index for the replay hot path.
//!
//! The paper's evaluation replays each candidate plan against price history
//! "one million times" from random start points (Section 5). Every replica
//! asks the same two questions of a trace — *when does the price first rise
//! above the bid?* (the out-of-bid death) and *when does it first fall to or
//! below the bid?* (the launch) — and the naive answers scan raw samples in
//! O(n). [`TraceIndex`] answers both in O(log n) from a max tree and a min
//! tree over the samples, built once per trace in O(n) time and
//! 32·`next_power_of_two(n)` bytes.
//!
//! **Exactness is non-negotiable.** Every query here is bit-identical to
//! the linear scan it replaces: a node's maximum (minimum) is one of the
//! samples beneath it, so the test "some sample under this node is above
//! (at or below) the bid" is *exactly* the naive per-element comparison,
//! and first-passage times are materialized with the same arithmetic form
//! (`i as f64 * step_hours`) the naive paths use. The unit tests below and
//! the randomized equality properties in `tests/properties.rs` compare
//! every query against the naive [`SpotTrace`] scans, which stay only as
//! that oracle.
//!
//! [`TraceQuery`] bundles a borrowed trace with its index; it is what
//! [`crate::market::SpotMarket::query`] hands the replay executors.

use crate::trace::SpotTrace;
use crate::{Hours, Usd};

/// Immutable first-passage index over one trace's price samples: a max tree
/// and a min tree in the implicit bottom-up layout. Node 1 is the root,
/// node `i` has children `2i` and `2i + 1`, and leaves `m..m + n` (with
/// `m = next_power_of_two(n)`) hold the samples in order. The padding
/// leaves past the last sample hold NaN: `f64::max`/`f64::min` return the
/// other operand when one is NaN, and `>`/`<=` are false on it, so padding
/// never matches a threshold test.
///
/// Built once per trace (lazily, on first use) and shared read-only across
/// Monte-Carlo worker threads.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    /// Number of indexed samples.
    n: usize,
    /// `max_tree[i]` = the largest sample under node `i`.
    max_tree: Vec<Usd>,
    /// `min_tree[i]` = the smallest sample under node `i`.
    min_tree: Vec<Usd>,
}

impl TraceIndex {
    /// Build the index for a trace. O(n) time, 32·`next_power_of_two(n)`
    /// bytes.
    pub fn build(trace: &SpotTrace) -> Self {
        Self::from_samples(trace.samples())
    }

    /// Build from raw samples (must be non-empty, finite, non-negative —
    /// the [`SpotTrace`] constructor invariants).
    pub fn from_samples(prices: &[Usd]) -> Self {
        assert!(!prices.is_empty(), "cannot index an empty trace");
        let n = prices.len();
        let m = n.next_power_of_two();
        let mut max_tree = vec![Usd::NAN; 2 * m];
        max_tree[m..m + n].copy_from_slice(prices);
        let mut min_tree = max_tree.clone();
        for i in (1..m).rev() {
            max_tree[i] = max_tree[2 * i].max(max_tree[2 * i + 1]);
            min_tree[i] = min_tree[2 * i].min(min_tree[2 * i + 1]);
        }
        Self {
            n,
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

    /// Heap bytes held by the two trees: 32·`next_power_of_two(len)`.
    pub fn heap_bytes(&self) -> usize {
        (self.max_tree.capacity() + self.min_tree.capacity()) * std::mem::size_of::<Usd>()
    }

    /// Smallest index `i >= lo` with `samples[i] > bid`, or `None`.
    /// O(log n) over the max tree.
    pub fn first_above(&self, lo: usize, bid: Usd) -> Option<usize> {
        self.first_match(&self.max_tree, lo, |max| max > bid)
    }

    /// Smallest index `i >= lo` with `samples[i] <= bid`, or `None`.
    /// O(log n) over the min tree.
    pub fn first_at_or_below(&self, lo: usize, bid: Usd) -> Option<usize> {
        self.first_match(&self.min_tree, lo, |min| min <= bid)
    }

    /// Leftmost sample at or after `lo` under a node that passes `hit`.
    /// `hit(tree[i])` must mean "some sample under node `i` matches", which
    /// holds exactly for threshold tests on subtree extrema because an
    /// extremum is one of its samples. Climbs from leaf `lo` through the
    /// subtrees that follow it until one hits, then descends to that
    /// subtree's leftmost hit. O(log n).
    fn first_match(&self, tree: &[Usd], lo: usize, hit: impl Fn(Usd) -> bool) -> Option<usize> {
        if lo >= self.n {
            return None;
        }
        let m = tree.len() / 2;
        let mut i = m + lo;
        while !hit(tree[i]) {
            // Step to the subtree just right of node `i`'s: leave every
            // right child, then cross to the right sibling. Leaving the
            // root (node 1) reaches 0: nothing lies to the right.
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
}

/// A borrowed trace plus its index: the query surface the replay
/// executors use when they hold no death-time table.
#[derive(Debug, Clone, Copy)]
pub struct TraceQuery<'a> {
    trace: &'a SpotTrace,
    index: &'a TraceIndex,
}

impl<'a> TraceQuery<'a> {
    /// Bundle a trace with its index (built from the same samples).
    pub fn new(trace: &'a SpotTrace, index: &'a TraceIndex) -> Self {
        Self { trace, index }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a SpotTrace {
        self.trace
    }

    /// First-passage time above `bid` from `start` — the out-of-bid death.
    /// Bit-identical to [`SpotTrace::first_passage_above`], in O(log n).
    pub fn first_passage_above(&self, start: Hours, bid: Usd) -> Option<Hours> {
        let lo = self.trace.index_at(start.max(0.0));
        self.index
            .first_above(lo, bid)
            .map(|i| i as f64 * self.trace.step_hours())
            .map(|t| t.max(start))
    }

    /// Launch time: earliest time `>= start` (strictly before `cutoff`)
    /// with the price at or below `bid`. Bit-identical to
    /// [`SpotTrace::first_time_at_or_below`], in O(log n).
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

    #[test]
    fn first_above_and_below_match_scans() {
        let mut rng = Rng(13);
        // Lengths 2^k - 1, 2^k and 2^k + 1 put the last sample just before,
        // exactly at and just past a power of two, where the padding starts.
        let padding_edges = (1..=9).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        let lens = [1usize, 2, 5, 33, 128, 300]
            .into_iter()
            .chain(padding_edges);
        let fixed = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0, f64::INFINITY, -f64::INFINITY];
        for len in lens {
            let tr = random_trace(&mut rng, len, 0.5);
            let ix = TraceIndex::build(&tr);
            let s = tr.samples();
            for lo in 0..=len {
                // Every sample's exact value is a bid too: ties decide
                // between `>` and `<=`.
                for &bid in fixed.iter().chain(s) {
                    let naive_above = (lo..len).find(|&i| s[i] > bid);
                    let naive_below = (lo..len).find(|&i| s[i] <= bid);
                    assert_eq!(
                        ix.first_above(lo, bid),
                        naive_above,
                        "len {len} lo {lo} bid {bid}"
                    );
                    assert_eq!(ix.first_at_or_below(lo, bid), naive_below);
                }
            }
        }
    }

    #[test]
    fn query_first_passage_is_bit_identical() {
        let mut rng = Rng(99);
        for len in [1usize, 3, 50, 240] {
            let tr = random_trace(&mut rng, len, 1.0 / 12.0);
            let ix = TraceIndex::build(&tr);
            let q = TraceQuery::new(&tr, &ix);
            for i in 0..40 {
                let start = (rng.next() % 400) as f64 * 0.077 - 1.0;
                let bid = rng.price();
                assert_eq!(
                    q.first_passage_above(start, bid),
                    tr.first_passage_above(start, bid),
                    "len {len} iter {i} start {start} bid {bid}"
                );
            }
        }
    }

    #[test]
    fn query_launch_time_is_bit_identical() {
        let mut rng = Rng(5);
        for len in [1usize, 2, 17, 300] {
            let tr = random_trace(&mut rng, len, 1.0 / 12.0);
            let ix = TraceIndex::build(&tr);
            let q = TraceQuery::new(&tr, &ix);
            for _ in 0..60 {
                let start = (rng.next() % 500) as f64 * 0.061 - 0.5;
                let bid = rng.price();
                let cutoff = start + (rng.next() % 300) as f64 * 0.093;
                assert_eq!(
                    q.launch_time(start, bid, cutoff),
                    tr.first_time_at_or_below(start, bid, cutoff),
                    "len {len} start {start} bid {bid} cutoff {cutoff}"
                );
            }
        }
    }
}
