//! The [`SpotMarket`] facade: catalog + per-circle-group spot traces.
//!
//! A *circle group* (paper Section 3.1.1) is an independent group of spot
//! instances of one type in one availability zone. The market stores one
//! spot trace per (type, zone) pair and hands out estimation windows over
//! them. The optimizer and the replay engine both talk to this type, which
//! keeps "what the optimizer believed" (a history window) and "what actually
//! happened" (a later region of the same trace) cleanly separated.

use crate::death::{DeathTimeCache, DeathTimeTable};
use crate::failure::FailureEstimator;
use crate::index::{TraceIndex, TraceQuery};
use crate::instance::{InstanceCatalog, InstanceType, InstanceTypeId};
use crate::trace::{SpotTrace, TraceWindow};
use crate::tracegen::TraceGenerator;
use crate::zone::AvailabilityZone;
use crate::Hours;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
#[derive(Debug, Clone)]
pub struct SpotMarket {
    catalog: InstanceCatalog,
    traces: BTreeMap<CircleGroupId, SpotTrace>,
    /// Lazily built per-trace query indexes. `OnceLock` gives exactly-once
    /// construction behind `&self`, so Monte-Carlo worker threads share one
    /// immutable index per trace; the slots are derived state and are not
    /// serialized.
    indexes: BTreeMap<CircleGroupId, OnceLock<TraceIndex>>,
    /// Memoized per-(group, bid) death/launch time tables for the batched
    /// replay path. Like the index slots this is derived state — built on
    /// first use, shared read-only across Monte-Carlo workers and
    /// tournament cells, never serialized, and dropped for a group when
    /// its trace is replaced.
    death_tables: DeathTimeCache<CircleGroupId>,
}

impl SpotMarket {
    /// An empty market over a catalog.
    pub fn new(catalog: InstanceCatalog) -> Self {
        Self {
            catalog,
            traces: BTreeMap::new(),
            indexes: BTreeMap::new(),
            death_tables: DeathTimeCache::new(),
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

    /// Insert (or replace) a trace. Any previously built index for the
    /// group is dropped (it would describe the old samples).
    pub fn insert(&mut self, id: CircleGroupId, trace: SpotTrace) {
        self.traces.insert(id, trace);
        self.indexes.insert(id, OnceLock::new());
        self.death_tables.invalidate(id);
    }

    /// Trace for a circle group.
    pub fn trace(&self, id: CircleGroupId) -> Option<&SpotTrace> {
        self.traces.get(&id)
    }

    /// Query surface for a circle group: the trace plus its lazily built
    /// [`TraceIndex`]. This is what the replay executors use for
    /// launch/death searches without a death-time table; answers are
    /// bit-identical to the trace's own scans.
    pub fn query(&self, id: CircleGroupId) -> Option<TraceQuery<'_>> {
        let trace = self.traces.get(&id)?;
        let index = self
            .indexes
            .get(&id)?
            .get_or_init(|| TraceIndex::build(trace));
        Some(TraceQuery::new(trace, index))
    }

    /// Memoized death/launch time table for `(id, bid)`, built on first use
    /// and shared read-only afterwards. Returns `(table, freshly_built)`,
    /// or `None` when the group has no trace or the trace is too long for
    /// the table's `u32` indexes (callers fall back to [`SpotMarket::query`]).
    pub fn death_table(
        &self,
        id: CircleGroupId,
        bid: crate::Usd,
    ) -> Option<(Arc<DeathTimeTable>, bool)> {
        let trace = self.traces.get(&id)?;
        self.death_tables.get_or_build(id, bid, trace)
    }

    /// Number of death/launch tables currently cached.
    pub fn death_tables_cached(&self) -> usize {
        self.death_tables.len()
    }

    /// Force-build every group's index now, instead of lazily on each
    /// group's first [`SpotMarket::query`]. The server calls this when it
    /// binds, so no request pays for a build; benchmarks call it to keep
    /// build cost out of query timings.
    pub fn build_indexes(&self) {
        for id in self.traces.keys() {
            self.query(*id);
        }
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

// Manual serde impls: the index slots are derived state (rebuilt lazily on
// demand) and must not leak into the serialized shape, which stays
// `{catalog, traces}` exactly as the old derive produced; the vendored
// `serde_derive` has no `#[serde(skip)]`.
impl Serialize for SpotMarket {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("catalog".to_string(), self.catalog.to_value()),
            ("traces".to_string(), self.traces.to_value()),
        ])
    }
}

impl Deserialize for SpotMarket {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let catalog = InstanceCatalog::from_value(v.field("catalog"))?;
        let traces = BTreeMap::<CircleGroupId, SpotTrace>::from_value(v.field("traces"))?;
        let indexes = traces.keys().map(|id| (*id, OnceLock::new())).collect();
        Ok(Self {
            catalog,
            traces,
            indexes,
            death_tables: DeathTimeCache::new(),
        })
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
    fn serde_roundtrip_skips_index_state() {
        let m = paper_market();
        m.build_indexes();
        let v = m.to_value();
        assert!(v.get("indexes").is_none());
        let back = SpotMarket::from_value(&v).unwrap();
        assert_eq!(back.len(), m.len());
        for id in m.groups().collect::<Vec<_>>() {
            assert_eq!(back.trace(id), m.trace(id));
        }
    }

    #[test]
    fn death_tables_match_queries_and_invalidate_on_insert() {
        let mut m = paper_market();
        let id = m.groups().next().unwrap();
        let q = m.query(id).unwrap();
        let bid = (q.min_price() + q.max_price()) / 2.0;
        let (table, built) = m.death_table(id, bid).unwrap();
        assert!(built);
        for k in 0..25 {
            let start = k as f64 * 3.1;
            assert_eq!(
                table.first_passage_above(start),
                q.first_passage_above(start, bid)
            );
            assert_eq!(
                table.launch_time(start, start + 40.0),
                q.launch_time(start, bid, start + 40.0)
            );
        }
        let (again, rebuilt) = m.death_table(id, bid).unwrap();
        assert!(!rebuilt);
        assert!(std::sync::Arc::ptr_eq(&table, &again));
        assert_eq!(m.death_tables_cached(), 1);
        // Replacing the trace drops the stale table.
        let fresh = m.trace(id).unwrap().clone();
        m.insert(id, fresh);
        assert_eq!(m.death_tables_cached(), 0);
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
