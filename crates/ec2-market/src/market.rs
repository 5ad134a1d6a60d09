//! The [`SpotMarket`] facade: catalog + per-circle-group spot traces.
//!
//! A *circle group* (paper Section 3.1.1) is an independent group of spot
//! instances of one type in one availability zone. The market stores one
//! spot trace per (type, zone) pair and hands out estimation windows over
//! them. The optimizer and the replay engine both talk to this type, which
//! keeps "what the optimizer believed" (a history window) and "what actually
//! happened" (a later region of the same trace) cleanly separated.
//!
//! Each trace carries its own lazily built [`crate::index::TraceIndex`]
//! (run table and first-passage trees); the market holds nothing else
//! beside its traces and catalog.

use crate::failure::FailureEstimator;
use crate::index::{IndexSize, TraceQuery};
use crate::instance::{InstanceCatalog, InstanceType, InstanceTypeId};
use crate::trace::{SpotTrace, TraceWindow};
use crate::tracegen::TraceGenerator;
use crate::zone::AvailabilityZone;
use crate::Hours;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identity of a circle group's market: an instance type in a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CircleGroupId {
    /// Instance type of every instance in the group.
    pub instance_type: InstanceTypeId,
    /// Availability zone the group lives in.
    pub zone: AvailabilityZone,
}

impl CircleGroupId {
    /// Construct from parts.
    pub fn new(instance_type: InstanceTypeId, zone: AvailabilityZone) -> Self {
        Self {
            instance_type,
            zone,
        }
    }
}

impl fmt::Display for CircleGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.instance_type, self.zone)
    }
}

/// A lookup referenced a circle group the market holds no trace (or trace
/// configuration) for.
///
/// Market lookups used to panic on unknown groups; they now return this
/// error so callers higher up the stack can surface it as
/// `SompiError::UnknownGroup` instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGroupError {
    /// Display form of the missing group id.
    pub group: String,
}

impl UnknownGroupError {
    /// Error for a missing (type, zone) pair.
    pub fn new(id: CircleGroupId) -> Self {
        Self {
            group: id.to_string(),
        }
    }
}

impl fmt::Display for UnknownGroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no market trace for circle group {}", self.group)
    }
}

impl std::error::Error for UnknownGroupError {}

/// A collection of spot price traces keyed by circle group, plus the
/// instance catalog they refer to.
///
/// ```
/// use ec2_market::instance::InstanceCatalog;
/// use ec2_market::market::{CircleGroupId, SpotMarket};
/// use ec2_market::trace::SpotTrace;
/// use ec2_market::zone::AvailabilityZone;
///
/// let catalog = InstanceCatalog::paper_2014();
/// let ty = catalog.by_name("m1.small").unwrap();
/// let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
///
/// let mut market = SpotMarket::new(catalog);
/// market.insert(id, SpotTrace::new(1.0, vec![0.1, 0.2, 0.1]));
///
/// assert_eq!(market.groups().count(), 1);
/// assert_eq!(market.instance_type(id).name, "m1.small");
/// assert_eq!(market.trace(id).unwrap().len(), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotMarket {
    catalog: InstanceCatalog,
    traces: BTreeMap<CircleGroupId, SpotTrace>,
}

impl SpotMarket {
    /// An empty market over a catalog.
    pub fn new(catalog: InstanceCatalog) -> Self {
        Self {
            catalog,
            traces: BTreeMap::new(),
        }
    }

    /// Generate a full market from a [`TraceGenerator`]: one trace per
    /// calibrated (type, zone) pair.
    pub fn generate(
        catalog: InstanceCatalog,
        generator: &TraceGenerator,
        duration_hours: Hours,
        step_hours: Hours,
    ) -> Self {
        let mut market = Self::new(catalog);
        for (ty, zone, trace) in generator.generate_all(duration_hours, step_hours) {
            market.insert(CircleGroupId::new(ty, zone), trace);
        }
        market
    }

    /// The instance catalog.
    pub fn catalog(&self) -> &InstanceCatalog {
        &self.catalog
    }

    /// Instance type details for a circle group.
    pub fn instance_type(&self, id: CircleGroupId) -> &InstanceType {
        self.catalog.get(id.instance_type)
    }

    /// Insert (or replace) a trace. The replaced trace's index goes with
    /// it.
    pub fn insert(&mut self, id: CircleGroupId, trace: SpotTrace) {
        self.traces.insert(id, trace);
    }

    /// Trace for a circle group.
    pub fn trace(&self, id: CircleGroupId) -> Option<&SpotTrace> {
        self.traces.get(&id)
    }

    /// Query surface for a circle group: the trace plus its lazily built
    /// index ([`SpotTrace::query`]). This is what the replay executors use
    /// for launch/death searches without a death-time table; answers are
    /// bit-identical to the trace's own scans.
    pub fn query(&self, id: CircleGroupId) -> Option<TraceQuery<'_>> {
        self.traces.get(&id).map(SpotTrace::query)
    }

    /// Force-build every trace's index (its run table and first-passage
    /// trees) now, instead of lazily on each trace's first window or
    /// query. The server calls this when it binds, so no request pays for
    /// a build; benchmarks call it to keep build cost out of query timings.
    pub fn build_indexes(&self) {
        for trace in self.traces.values() {
            trace.index();
        }
    }

    /// Runs, samples and heap bytes of every trace's index, summed. Reading
    /// an index builds it, as [`SpotMarket::build_indexes`] does.
    pub fn index_size(&self) -> IndexSize {
        self.traces.values().map(SpotTrace::index).sum()
    }

    /// All circle groups with traces, in deterministic order.
    pub fn groups(&self) -> impl Iterator<Item = CircleGroupId> + '_ {
        self.traces.keys().copied()
    }

    /// Number of circle groups.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the market has no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// A history window `[start, start+len)` of a group's trace, for
    /// estimation. Errors when the group has no trace.
    pub fn try_history(
        &self,
        id: CircleGroupId,
        start: Hours,
        len: Hours,
    ) -> Result<TraceWindow<'_>, UnknownGroupError> {
        self.traces
            .get(&id)
            .map(|t| t.window(start, len))
            .ok_or_else(|| UnknownGroupError::new(id))
    }

    /// Failure/price estimator built on a history window of a group.
    /// Errors when the group has no trace.
    pub fn try_estimator(
        &self,
        id: CircleGroupId,
        start: Hours,
        len: Hours,
    ) -> Result<FailureEstimator, UnknownGroupError> {
        Ok(FailureEstimator::from_window(
            self.try_history(id, start, len)?,
        ))
    }

    /// Estimators over the same history window for every traced group, in
    /// deterministic group order. Infallible by construction — the ids come
    /// straight from the trace map.
    pub fn estimators(
        &self,
        start: Hours,
        len: Hours,
    ) -> impl Iterator<Item = (CircleGroupId, FailureEstimator)> + '_ {
        self.traces
            .iter()
            .map(move |(id, t)| (*id, FailureEstimator::from_window(t.window(start, len))))
    }

    /// Shortest trace duration across all groups — the usable market horizon.
    pub fn horizon(&self) -> Hours {
        self.traces
            .values()
            .map(SpotTrace::duration)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracegen::MarketProfile;

    fn paper_market() -> SpotMarket {
        let catalog = InstanceCatalog::paper_2014();
        let profile = MarketProfile::paper_2014(&catalog);
        let generator = TraceGenerator::new(profile, 1);
        SpotMarket::generate(catalog, &generator, 96.0, 1.0 / 12.0)
    }

    #[test]
    fn generated_market_covers_all_pairs() {
        let m = paper_market();
        // 5 types × 3 zones.
        assert_eq!(m.len(), 15);
        assert!((m.horizon() - 96.0).abs() < 1.0);
    }

    #[test]
    fn groups_are_deterministically_ordered() {
        let m = paper_market();
        let a: Vec<_> = m.groups().collect();
        let b: Vec<_> = m.groups().collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn history_and_estimator_work() {
        let m = paper_market();
        let id = m.groups().next().unwrap();
        let w = m.try_history(id, 0.0, 48.0).unwrap();
        assert!(w.duration() > 47.0);
        let est = m.try_estimator(id, 0.0, 48.0).unwrap();
        assert!(est.max_price() > 0.0);
        let all: Vec<_> = m.estimators(0.0, 48.0).collect();
        assert_eq!(all.len(), m.len());
        assert_eq!(all[0].0, id);
        let bid = est.max_price() * 0.5;
        assert_eq!(
            all[0].1.failure_rate_exact(bid, 24),
            est.failure_rate_exact(bid, 24)
        );
    }

    #[test]
    fn instance_type_lookup_roundtrips() {
        let m = paper_market();
        for id in m.groups().collect::<Vec<_>>() {
            let ty = m.instance_type(id);
            assert!(ty.cores >= 1);
        }
    }

    #[test]
    fn indexed_and_naive_queries_agree_on_generated_market() {
        let m = paper_market();
        m.build_indexes();
        for id in m.groups().collect::<Vec<_>>() {
            let q = m.query(id).unwrap();
            let trace = m.trace(id).unwrap();
            for k in 0..40 {
                let start = k as f64 * 2.37;
                let bid = q.min_price() + (q.max_price() - q.min_price()) * (k as f64 / 40.0);
                assert_eq!(
                    q.first_passage_above(start, bid),
                    trace.first_passage_above(start, bid)
                );
                assert_eq!(
                    q.launch_time(start, bid, start + 30.0),
                    trace.first_time_at_or_below(start, bid, start + 30.0)
                );
            }
        }
    }

    #[test]
    fn index_size_sums_every_trace_index() {
        let m = paper_market();
        let size = m.index_size();
        let traces: Vec<&SpotTrace> = m.groups().map(|id| m.trace(id).unwrap()).collect();
        assert_eq!(size.samples, traces.iter().map(|t| t.len()).sum::<usize>());
        assert_eq!(
            size.runs,
            traces.iter().map(|t| t.index().runs()).sum::<usize>()
        );
        assert_eq!(
            size.heap_bytes,
            traces.iter().map(|t| t.index().heap_bytes()).sum::<usize>()
        );
        // Calm plateaus: far fewer runs than samples.
        assert!(size.runs * 4 < size.samples, "{size}");
    }

    #[test]
    fn serde_roundtrip_skips_index_state() {
        let m = paper_market();
        m.build_indexes();
        let v = m.to_value();
        let serde::Value::Obj(fields) = &v else {
            panic!("a market serializes to an object: {v:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["catalog", "traces"]);
        let back = SpotMarket::from_value(&v).unwrap();
        assert_eq!(back.len(), m.len());
        for id in m.groups().collect::<Vec<_>>() {
            assert_eq!(back.trace(id), m.trace(id));
        }
    }

    #[test]
    fn history_for_unknown_group_is_an_error_not_a_panic() {
        let catalog = InstanceCatalog::paper_2014();
        let ty = catalog.by_name("m1.small").unwrap();
        let m = SpotMarket::new(catalog);
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let err = m.try_history(id, 0.0, 1.0).unwrap_err();
        assert_eq!(err, UnknownGroupError::new(id));
        assert!(err.to_string().contains("no market trace for circle group"));
        assert!(err.to_string().contains(&id.to_string()));
        assert!(m.try_estimator(id, 0.0, 1.0).is_err());
    }
}
