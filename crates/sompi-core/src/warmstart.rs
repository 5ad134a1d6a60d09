//! Warm-start state for incremental re-optimization (DESIGN.md §12).
//!
//! The adaptive loop (Algorithm 1, §4.3) re-runs the two-level search
//! every window over a problem that usually changed only slightly: the
//! remaining work shrank, and the market view slid forward by one window.
//! A [`WarmStart`] carries three things from one search to the next, all
//! exactness-preserving — the selected plan stays bit-identical to a cold
//! search at every thread count:
//!
//! 1. **Incumbent seed** — the previous window's plan, projected onto the
//!    current option grids and re-evaluated. When feasible, its cost seeds
//!    the shared branch-and-bound incumbent so pruning bites from the very
//!    first candidate instead of ramping up.
//! 2. **Hot-first subset order** — the previous window's winning subset
//!    plus its top-ranked runners-up are enumerated first. Only the visit
//!    order changes; every subset is still walked and the total candidate
//!    order decides, so the result cannot change — but the incumbent bound
//!    tightens sooner, compounding with the seed.
//! 3. **Bid-profile store** — the [`BidProfile`]s (integer first-passage
//!    counts plus launch delay) behind `φ(P)` and each
//!    [`GroupAssessment`](crate::cost::GroupAssessment) are kept per
//!    `(group, bid)`, keyed by a digest of the group's empirical price
//!    history. A profile recorded at horizon `H` truncates to any
//!    `h ≤ H` bit-identically (asserted by `ec2_market`'s truncation
//!    tests), so an unchanged view entry skips its `O(n)` sweep; a
//!    drifted digest invalidates that group's entries and nothing else.
//!
//! The store is optional, not a second code path: every search sweeps
//! each `(group, bid)` once and derives φ and every assessment from that
//! one profile (DESIGN.md §16, "Single-sweep bid profiles"). The store
//! saves that one `O(n)` sweep only when the same view is searched again;
//! sliding adaptive windows drift the digest every window, so there it
//! never hits.
//!
//! The layers are independently toggleable (the CLI's `--no-warmstart`
//! and `--no-bucket-reuse` ablation flags); `tests/warmstart_differential.rs`
//! pins warm and cold plans bit-identical across thread counts and
//! ablation settings over a long adaptive study.

use crate::model::Plan;
use crate::Usd;
use ec2_market::failure::{BidProfile, FailureEstimator};
use ec2_market::market::CircleGroupId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How many subsets the previous window hands to the next one as the
/// hot-first prefix of the enumeration order (winner first, then the
/// best-ranked runners-up by summed lower bound).
pub const HOT_SUBSETS: usize = 16;

/// Carry-over from the previous window's search: the plan that seeds the
/// incumbent bound and the subsets enumerated first.
#[derive(Debug, Clone)]
pub(crate) struct PrevWindow {
    /// The previously selected plan (possibly pure on-demand, in which
    /// case it cannot seed the bound but the hot subsets still apply).
    pub(crate) plan: Plan,
    /// Top-ranked subsets as circle-group id lists (id-based so the
    /// carry-over survives candidate reindexing between windows).
    pub(crate) hot_subsets: Vec<Vec<CircleGroupId>>,
}

/// Stored bid profiles for one circle group, valid only while the
/// group's empirical price history digest matches.
#[derive(Debug, Clone)]
pub(crate) struct GroupTables {
    /// FNV-1a digest of the price history the profiles were swept from.
    pub(crate) digest: u64,
    /// Per-bid profiles, keyed by the bid's IEEE-754 bits (bids come off
    /// a deterministic grid, so bit equality is the right identity).
    pub(crate) by_bid: BTreeMap<u64, BidProfile>,
}

impl GroupTables {
    pub(crate) fn new(digest: u64) -> Self {
        Self {
            digest,
            by_bid: BTreeMap::new(),
        }
    }

    /// The stored profile of `bid` when it was recorded at `horizon` or
    /// longer (`true`: a cross-window hit); otherwise a fresh sweep,
    /// stored in its place (`false`).
    pub(crate) fn profile(
        &mut self,
        est: &FailureEstimator,
        bid: Usd,
        horizon: usize,
    ) -> (&BidProfile, bool) {
        match self.by_bid.entry(bid.to_bits()) {
            Entry::Occupied(e) if e.get().counts().horizon() >= horizon => (e.into_mut(), true),
            Entry::Occupied(mut e) => {
                e.insert(est.bid_profile(bid, horizon));
                (e.into_mut(), false)
            }
            Entry::Vacant(e) => (e.insert(est.bid_profile(bid, horizon)), false),
        }
    }
}

/// Mutable warm-start state threaded through consecutive
/// [`TwoLevelOptimizer::optimize_with`](crate::twolevel::TwoLevelOptimizer::optimize_with)
/// calls. Construct once per adaptive run and thread `ctx.with_warm(&mut
/// state)` into every window's search; leave the context bare (or use
/// `optimize`) for a cold search.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Seed the incumbent bound from the previous plan and enumerate the
    /// previous window's hot subsets first.
    pub(crate) use_plan: bool,
    /// Keep per-`(group, bid)` bid profiles across searches.
    pub(crate) use_tables: bool,
    pub(crate) prev: Option<PrevWindow>,
    pub(crate) tables: BTreeMap<CircleGroupId, GroupTables>,
}

impl WarmStart {
    /// Fresh warm-start state with every layer enabled.
    pub fn new() -> Self {
        Self {
            use_plan: true,
            use_tables: true,
            prev: None,
            tables: BTreeMap::new(),
        }
    }

    /// Enable/disable the plan carry-over (incumbent seed + hot-first
    /// order). Disabling drops any carried plan.
    pub fn with_plan_carryover(mut self, on: bool) -> Self {
        self.use_plan = on;
        if !on {
            self.prev = None;
        }
        self
    }

    /// Enable/disable bucket-table reuse. Disabling drops the cache.
    pub fn with_table_reuse(mut self, on: bool) -> Self {
        self.use_tables = on;
        if !on {
            self.tables.clear();
        }
        self
    }

    /// Whether the plan carry-over layer is enabled.
    pub fn plan_carryover(&self) -> bool {
        self.use_plan
    }

    /// Whether the bucket-table layer is enabled.
    pub fn table_reuse(&self) -> bool {
        self.use_tables
    }

    /// The profile store for the group `est` describes, emptied first if
    /// the group's history digest drifted; `None` when the layer is off.
    pub(crate) fn group_tables(
        &mut self,
        id: CircleGroupId,
        est: &FailureEstimator,
    ) -> Option<&mut GroupTables> {
        if !self.use_tables {
            return None;
        }
        let digest = est.digest();
        let tables = self
            .tables
            .entry(id)
            .or_insert_with(|| GroupTables::new(digest));
        if tables.digest != digest {
            *tables = GroupTables::new(digest);
        }
        Some(tables)
    }

    /// Whether a previous window's plan is currently carried.
    pub fn has_plan(&self) -> bool {
        self.prev.is_some()
    }

    /// Number of circle groups with stored bid profiles.
    pub fn cached_groups(&self) -> usize {
        self.tables.len()
    }

    /// Drop the carried plan (e.g. after a mid-window group failure makes
    /// the previous window's outcome a poor predictor). The next search
    /// runs with canonical order and the on-demand seed only; the bucket
    /// tables stay (they depend on the market view, not the plan).
    pub fn invalidate_plan(&mut self) {
        self.prev = None;
    }

    /// Drop everything: carried plan and cached tables.
    pub fn clear(&mut self) {
        self.prev = None;
        self.tables.clear();
    }
}

impl Default for WarmStart {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_every_layer() {
        let w = WarmStart::default();
        assert!(w.plan_carryover());
        assert!(w.table_reuse());
        assert!(!w.has_plan());
        assert_eq!(w.cached_groups(), 0);
    }

    #[test]
    fn ablation_toggles_drop_their_state() {
        let w = WarmStart::new()
            .with_plan_carryover(false)
            .with_table_reuse(false);
        assert!(!w.plan_carryover());
        assert!(!w.table_reuse());
        assert!(!w.has_plan());
        assert_eq!(w.cached_groups(), 0);
    }

    #[test]
    fn clear_resets_without_touching_toggles() {
        let mut w = WarmStart::new();
        w.tables.insert(
            CircleGroupId::new(
                ec2_market::instance::InstanceTypeId(0),
                ec2_market::zone::AvailabilityZone::UsEast1a,
            ),
            GroupTables::new(7),
        );
        assert_eq!(w.cached_groups(), 1);
        w.clear();
        assert_eq!(w.cached_groups(), 0);
        assert!(w.plan_carryover() && w.table_reuse());
    }
}
