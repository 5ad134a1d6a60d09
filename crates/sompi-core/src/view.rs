//! Market estimation view: the optimizer's window onto spot price history.
//!
//! A [`MarketView`] wraps one [`FailureEstimator`] per circle group, built
//! from a chosen history window (typically "the previous two days" offline,
//! or "the previous optimization window" in the adaptive algorithm). It
//! cleanly separates what the optimizer *believed* (this view) from what
//! the market later *did* (a later region of the same traces, consumed by
//! the replay crate).

use crate::error::SompiError;
use crate::{Hours, Usd};
use ec2_market::failure::{FailureEstimator, FailureRateFn};
use ec2_market::market::{CircleGroupId, SpotMarket};
use std::collections::BTreeMap;

/// Per-circle-group estimators over one history window.
#[derive(Debug, Clone)]
pub struct MarketView {
    estimators: BTreeMap<CircleGroupId, FailureEstimator>,
}

impl MarketView {
    /// Build estimators for every group in `market` from the history window
    /// `[start, start + len)` (hours into each trace). Each reads its
    /// window's runs of one price off the trace's run table, built on the
    /// trace's first window, without scanning the samples (DESIGN.md §17).
    pub fn from_market(market: &SpotMarket, start: Hours, len: Hours) -> Self {
        let estimators = market.estimators(start, len).collect();
        Self { estimators }
    }

    /// Build a view over explicit per-group estimators.
    pub fn from_estimators(estimators: BTreeMap<CircleGroupId, FailureEstimator>) -> Self {
        Self { estimators }
    }

    /// Groups covered by this view.
    pub fn groups(&self) -> impl Iterator<Item = CircleGroupId> + '_ {
        self.estimators.keys().copied()
    }

    /// The estimator for a group, or `SompiError::UnknownGroup` when the
    /// view has no history for it. Lookups used to panic here; routing the
    /// miss through a `Result` lets user-reachable paths (hand-built plans,
    /// mismatched problems) surface a proper error instead of aborting.
    pub fn try_estimator(&self, id: CircleGroupId) -> Result<&FailureEstimator, SompiError> {
        self.estimators
            .get(&id)
            .ok_or_else(|| SompiError::UnknownGroup {
                group: id.to_string(),
            })
    }

    /// Every (group, estimator) pair in deterministic group order —
    /// infallible by construction, for callers that walk the view itself.
    pub fn estimators(&self) -> impl Iterator<Item = (CircleGroupId, &FailureEstimator)> + '_ {
        self.estimators.iter().map(|(id, e)| (*id, e))
    }

    /// Highest historical price `H_i` for a group — the top of its bid
    /// search range.
    pub fn max_bid(&self, id: CircleGroupId) -> Result<Usd, SompiError> {
        Ok(self.try_estimator(id)?.max_price())
    }

    /// Lowest historical price of a group — the bottom of the useful bid
    /// range (below it nothing ever launches).
    pub fn min_price(&self, id: CircleGroupId) -> Result<Usd, SompiError> {
        Ok(self.try_estimator(id)?.expected_spot_price().min_price())
    }

    /// Failure-rate function `f_i(P, t)` over an hourly horizon.
    pub fn failure_fn(
        &self,
        id: CircleGroupId,
        bid: Usd,
        horizon_hours: usize,
    ) -> Result<FailureRateFn, SompiError> {
        Ok(self
            .try_estimator(id)?
            .failure_rate_exact(bid, horizon_hours))
    }

    /// Expected spot price `S_i(P)`: mean of historical prices at or below
    /// the bid. `Ok(None)` when the bid admits no launch.
    pub fn expected_price(&self, id: CircleGroupId, bid: Usd) -> Result<Option<Usd>, SompiError> {
        Ok(self
            .try_estimator(id)?
            .expected_spot_price()
            .mean_below(bid))
    }

    /// Mean historical price of a group (the Spot-Avg baseline's bid).
    pub fn mean_price(&self, id: CircleGroupId) -> Result<Usd, SompiError> {
        Ok(self.expected_price(id, f64::INFINITY)?.unwrap_or(0.0))
    }

    /// Expected wait between requesting instances and the spot price first
    /// admitting the bid ("otherwise it waits").
    pub fn launch_delay(&self, id: CircleGroupId, bid: Usd) -> Result<Hours, SompiError> {
        Ok(self.try_estimator(id)?.expected_launch_delay(bid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};

    fn view() -> (SpotMarket, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 3), 96.0, 1.0 / 12.0);
        let v = MarketView::from_market(&market, 0.0, 48.0);
        (market, v)
    }

    #[test]
    fn covers_every_market_group() {
        let (m, v) = view();
        assert_eq!(v.groups().count(), m.len());
    }

    #[test]
    fn max_bid_positive_everywhere() {
        let (_, v) = view();
        for id in v.groups().collect::<Vec<_>>() {
            assert!(v.max_bid(id).unwrap() > 0.0);
        }
    }

    #[test]
    fn expected_price_below_max_bid() {
        let (_, v) = view();
        for id in v.groups().collect::<Vec<_>>() {
            let h = v.max_bid(id).unwrap();
            let s = v
                .expected_price(id, h)
                .unwrap()
                .expect("max bid always launches");
            // Tolerance: on a flat trace the mean of identical values can
            // drift above the max by float accumulation error.
            assert!(s <= h * (1.0 + 1e-9));
            assert!(s > 0.0);
        }
    }

    #[test]
    fn mean_price_matches_unbounded_expected_price() {
        let (_, v) = view();
        let id = v.groups().next().unwrap();
        assert_eq!(
            v.mean_price(id).unwrap(),
            v.expected_price(id, f64::INFINITY).unwrap().unwrap()
        );
    }

    #[test]
    fn unknown_group_is_an_error_not_a_panic() {
        let (_, v) = view();
        let bogus = CircleGroupId::new(
            ec2_market::instance::InstanceTypeId(99),
            ec2_market::zone::AvailabilityZone::UsEast1a,
        );
        let err = v.try_estimator(bogus).unwrap_err();
        assert!(matches!(err, SompiError::UnknownGroup { .. }));
        assert!(err.to_string().contains("no market trace"));
        assert!(v.max_bid(bogus).is_err());
        assert!(v.failure_fn(bogus, 0.1, 4).is_err());
        assert!(v.launch_delay(bogus, 0.1).is_err());
    }
}
