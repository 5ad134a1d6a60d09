//! Per-(trace, bid) death/launch time tables for Monte-Carlo replay.
//!
//! Monte-Carlo replay asks each trace the same two questions per replica —
//! *when does the price first rise above the bid?* (the out-of-bid death)
//! and *when does it first fall to or at the bid?* (the launch). The
//! trace's [`crate::index::TraceIndex`] answers both in O(log R) per query
//! over its R runs of one price, but one replay asks them of the same
//! (group, bid) pair for thousands of replicas. A [`DeathTimeTable`]
//! hoists the whole trace scan into **one** O(n) pass per (group, bid):
//! for every sample index it precomputes the next crossing in each
//! direction, so each replica's launch/death lookup becomes O(1) array
//! reads. The tables stay per sample, not per run: a lookup then reads its
//! answer at the start's own sample index, with no search for the run
//! holding it.
//!
//! **Exactness is non-negotiable**, exactly as for the trace index: the
//! table materializes times with the same arithmetic form
//! (`i as f64 * step_hours`, then `.max(start)` / `< cutoff` filtering)
//! as [`crate::index::TraceQuery`], so table lookups are bit-identical to
//! both the indexed descent and the naive scan. The differential suite in
//! `tests/mc_batch_differential.rs` enforces this.
//!
//! Fault-plan and start-offset dimensions need no table entries of their
//! own: storm kills come from the frozen [`crate::fault::FaultInjector`]
//! timeline (composed with the price death at lookup time), and a start
//! offset only selects *which* precomputed sample index the lookup reads.
//!
//! A table is a copy of its trace as it was when built, 8 bytes per
//! sample, and this crate keeps none: the replay that builds one
//! (`replay`'s `BatchTables`) owns it and drops it when the replay ends.

use crate::trace::SpotTrace;
use crate::{Hours, Usd};

/// Sentinel for "no later sample crosses" in the next-crossing arrays.
const NONE: u32 = u32::MAX;

/// Precomputed first-crossing times of one trace against one bid.
///
/// For every sample index `i` the table stores the smallest `j >= i` with
/// `samples[j] > bid` (the death direction) and the smallest `j >= i` with
/// `samples[j] <= bid` (the launch direction). Both arrays are filled by a
/// single backward pass over the samples, after which every query is O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct DeathTimeTable {
    /// The bid this table answers for (identity, not used in lookups).
    bid: Usd,
    /// Trace sampling step, hours.
    step_hours: Hours,
    /// Trace duration, hours (`step_hours * len`).
    duration: Hours,
    /// `next_above[i]` = smallest `j >= i` with `samples[j] > bid`.
    next_above: Vec<u32>,
    /// `next_at_or_below[i]` = smallest `j >= i` with `samples[j] <= bid`.
    next_at_or_below: Vec<u32>,
}

impl DeathTimeTable {
    /// Build the table for `(trace, bid)` in one O(n) backward pass.
    ///
    /// `None` for a trace of `u32::MAX` samples or more, which the
    /// next-crossing arrays' `u32` indexes cannot address; its replays
    /// query the trace index instead.
    pub fn build(trace: &SpotTrace, bid: Usd) -> Option<Self> {
        let samples = trace.samples();
        let n = samples.len();
        if n >= NONE as usize {
            return None;
        }
        let mut next_above = vec![NONE; n];
        let mut next_at_or_below = vec![NONE; n];
        let mut above = NONE;
        let mut at_or_below = NONE;
        for i in (0..n).rev() {
            if samples[i] > bid {
                above = i as u32;
            } else {
                at_or_below = i as u32;
            }
            next_above[i] = above;
            next_at_or_below[i] = at_or_below;
        }
        Some(Self {
            bid,
            step_hours: trace.step_hours(),
            duration: trace.duration(),
            next_above,
            next_at_or_below,
        })
    }

    /// The bid this table was built for.
    pub fn bid(&self) -> Usd {
        self.bid
    }

    /// Number of table entries (== trace samples).
    pub fn len(&self) -> usize {
        self.next_above.len()
    }

    /// Whether the table is empty (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.next_above.is_empty()
    }

    /// Sample index containing time `t` — [`SpotTrace::index_at`] verbatim,
    /// so clamping matches the scalar query path bit for bit.
    fn index_at(&self, t: Hours) -> usize {
        if t <= 0.0 {
            return 0;
        }
        ((t / self.step_hours) as usize).min(self.next_above.len() - 1)
    }

    /// First-passage time above the bid from `start` — the out-of-bid
    /// death. Bit-identical to
    /// [`TraceQuery::first_passage_above`](crate::index::TraceQuery::first_passage_above)
    /// at this table's bid, in O(1).
    pub fn first_passage_above(&self, start: Hours) -> Option<Hours> {
        let lo = self.index_at(start.max(0.0));
        let j = self.next_above[lo];
        if j == NONE {
            return None;
        }
        Some((j as f64 * self.step_hours).max(start))
    }

    /// Launch time: earliest time `>= start` (strictly before `cutoff`)
    /// with the price at or below the bid. Bit-identical to
    /// [`TraceQuery::launch_time`](crate::index::TraceQuery::launch_time)
    /// at this table's bid, in O(1).
    pub fn launch_time(&self, start: Hours, cutoff: Hours) -> Option<Hours> {
        if start >= cutoff || start >= self.duration {
            return None;
        }
        let lo = self.index_at(start);
        // `next_at_or_below[lo] == lo` iff `samples[lo] <= bid`.
        if self.next_at_or_below[lo] as usize == lo {
            return Some(start);
        }
        let j = match self.next_at_or_below.get(lo + 1) {
            Some(&j) => j,
            None => NONE,
        };
        if j == NONE {
            return None;
        }
        Some(j as f64 * self.step_hours).filter(|&t| t < cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator (xorshift64*), same shape as the index
    /// differential tests.
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
            // Coarse grid so exact bid ties actually occur.
            (self.next() % 1000) as f64 / 1000.0
        }
    }

    fn random_trace(rng: &mut Rng, len: usize, step: f64) -> SpotTrace {
        SpotTrace::new(step, (0..len).map(|_| rng.price()).collect())
    }

    #[test]
    fn table_matches_indexed_and_naive_queries() {
        let mut rng = Rng(41);
        for len in [1usize, 2, 5, 33, 128, 300] {
            let tr = random_trace(&mut rng, len, 1.0 / 12.0);
            let qi = tr.query();
            let duration = tr.duration();
            for bid in [0.0, 0.1, 0.25, 0.5, 0.75, 0.999, 1.5] {
                let table = DeathTimeTable::build(&tr, bid).unwrap();
                for k in 0..60 {
                    // Starts before, inside, and past the trace; cutoffs
                    // both binding and not.
                    let start = -1.0 + k as f64 * (duration + 2.0) / 60.0;
                    let cutoff = start + (k % 7) as f64 * duration / 5.0;
                    let fp = table.first_passage_above(start);
                    assert_eq!(fp, qi.first_passage_above(start, bid));
                    assert_eq!(
                        fp.map(f64::to_bits),
                        tr.first_passage_above(start, bid).map(f64::to_bits)
                    );
                    let lt = table.launch_time(start, cutoff);
                    assert_eq!(lt, qi.launch_time(start, bid, cutoff));
                    assert_eq!(
                        lt.map(f64::to_bits),
                        tr.first_time_at_or_below(start, bid, cutoff)
                            .map(f64::to_bits)
                    );
                }
            }
        }
    }
}
