//! Per-plan death-time tables for scenario-major Monte-Carlo replay.
//!
//! Replica-major replay re-derives the same launch/death crossings for
//! every replica: each [`crate::PlanRunner::run`] call walks the trace
//! index once per (group, bid) per start offset. [`BatchTables`] flips
//! the loop scenario-major — before any replica runs, one
//! [`DeathTimeTable`] per plan (group, bid) is built in one pass over the
//! group's trace, and the per-group [`ec2_market::fault::group_key`] hash
//! is computed once instead of once per fault draw. Replicas then resolve
//! launch and death times with O(1) array reads.
//!
//! The tables belong to the replay that builds them: [`BatchTables`] owns
//! them, nothing on the market keeps a copy, and they are dropped when
//! the replay ends. A table is built from the trace as it is when
//! [`BatchTables::for_plan`] runs, so build them for the replay at hand.
//!
//! The tables answer with the **same bits** as the table-free
//! [`ec2_market::TraceQuery`] path — they are an acceleration, not an
//! approximation, and the `mc_batch_differential` suite compares every
//! outcome field by `to_bits` to enforce it.

use crate::Usd;
use ec2_market::death::DeathTimeTable;
use ec2_market::fault::group_key;
use ec2_market::market::{CircleGroupId, SpotMarket};
use sompi_core::error::SompiError;
use sompi_core::model::Plan;

/// One plan group's precomputed replay state: its death-time table and
/// its cached fault-draw key.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The plan group this entry serves.
    pub group: CircleGroupId,
    /// The bid the table was built for.
    pub bid: Usd,
    /// Cached [`group_key`] hash, so fault draws in the replay hot loop
    /// skip the per-call string hash.
    pub gkey: u64,
    /// Death/launch table for (group, bid).
    pub table: DeathTimeTable,
}

/// Batch state for one plan against one market: entries index-aligned
/// with `plan.groups`, plus the build counter of the `ReplayBatched`
/// trace event.
#[derive(Debug, Clone)]
pub struct BatchTables {
    /// `entries[i]` serves `plan.groups[i]`; `None` when the group's
    /// trace is too long for the table's `u32` indexes (the executor
    /// queries the trace index for that group).
    entries: Vec<Option<BatchEntry>>,
    /// Tables built for this plan: one per group whose trace fits the
    /// table's `u32` indexes.
    pub tables_built: u32,
    /// Always 0: every table is built for the plan at hand. Kept only
    /// because the end-to-end benchmark still reads it.
    pub tables_reused: u32,
}

impl BatchTables {
    /// Build the death-time table for every group in `plan`.
    ///
    /// Errors with [`SompiError::UnknownGroup`] for a plan group the
    /// market has no trace for — the same error, at the same point in
    /// the call sequence, as the table-free executor's per-group query.
    pub fn for_plan(market: &SpotMarket, plan: &Plan) -> Result<Self, SompiError> {
        let mut entries = Vec::with_capacity(plan.groups.len());
        for (group, decision) in &plan.groups {
            let trace = market
                .trace(group.id)
                .ok_or_else(|| SompiError::UnknownGroup {
                    group: group.id.to_string(),
                })?;
            entries.push(
                DeathTimeTable::build(trace, decision.bid).map(|table| BatchEntry {
                    group: group.id,
                    bid: decision.bid,
                    gkey: group_key(group.id),
                    table,
                }),
            );
        }
        let tables_built = entries.iter().flatten().count() as u32;
        Ok(Self {
            entries,
            tables_built,
            tables_reused: 0,
        })
    }

    /// The entry for plan group `i`, validated against the group id and
    /// bid the caller is replaying (defensive: a context paired with the
    /// wrong plan degrades to the table-free path instead of answering for
    /// the wrong trace).
    pub fn entry(&self, i: usize, group: CircleGroupId, bid: Usd) -> Option<&BatchEntry> {
        self.entries
            .get(i)?
            .as_ref()
            .filter(|e| e.group == group && e.bid.to_bits() == bid.to_bits())
    }

    /// Number of plan groups covered (== `plan.groups.len()`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan had no groups.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecContext, Finisher, PlanRunner, RunOutcome};
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::trace::SpotTrace;
    use ec2_market::zone::AvailabilityZone;
    use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption};

    fn tiny_plan(id: CircleGroupId, bid: Usd) -> Plan {
        Plan {
            groups: vec![(
                CircleGroup {
                    id,
                    instances: 1,
                    exec_hours: 2.0,
                    ckpt_overhead_hours: 0.0,
                    recovery_hours: 0.5,
                },
                GroupDecision {
                    bid,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: OnDemandOption {
                instance_type: InstanceTypeId(4),
                instances: 1,
                exec_hours: 4.0,
                unit_price: 2.0,
                recovery_hours: 0.5,
            },
        }
    }

    fn one_group_market(samples: Vec<f64>) -> (SpotMarket, CircleGroupId) {
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let mut market = SpotMarket::new(cat);
        market.insert(id, SpotTrace::new(1.0, samples));
        (market, id)
    }

    #[test]
    fn every_call_builds_one_table_per_group() {
        let (market, id) = one_group_market(vec![0.1, 0.3, 0.1, 0.5]);
        let plan = tiny_plan(id, 0.2);
        let first = BatchTables::for_plan(&market, &plan).unwrap();
        let second = BatchTables::for_plan(&market, &plan).unwrap();
        for batch in [&first, &second] {
            assert_eq!((batch.tables_built, batch.tables_reused), (1, 0));
        }
        let a = first.entry(0, id, 0.2).unwrap();
        let b = second.entry(0, id, 0.2).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(a.table.bid(), 0.2);
        assert_eq!(a.gkey, ec2_market::fault::group_key(id));

        // A different bid is a different table.
        let other = BatchTables::for_plan(&market, &tiny_plan(id, 0.4)).unwrap();
        assert_eq!((other.tables_built, other.tables_reused), (1, 0));
        assert_ne!(other.entry(0, id, 0.4).unwrap().table, a.table);

        // Mismatched lookups degrade to None rather than answering wrong.
        assert!(first.entry(0, id, 0.4).is_none());
        assert!(first.entry(1, id, 0.2).is_none());
    }

    /// Every field of an outcome, floats by their bits.
    fn bits(o: &RunOutcome) -> (u64, u64, u64, u64, Finisher, u32, bool) {
        (
            o.total_cost.to_bits(),
            o.spot_cost.to_bits(),
            o.od_cost.to_bits(),
            o.wall_hours.to_bits(),
            o.finisher,
            o.groups_failed,
            o.met_deadline,
        )
    }

    #[test]
    fn tables_follow_a_replaced_trace() {
        // A flat trace, then one that spikes above the bid for the second
        // hour of every four: tables built after `insert` answer from the
        // new samples, bit for bit like the table-free replay, while the
        // tables built before it still describe the old ones.
        let (mut market, id) = one_group_market(vec![0.1; 48]);
        let plan = tiny_plan(id, 0.2);
        let stale = BatchTables::for_plan(&market, &plan).unwrap();
        let spiky = (0..48).map(|i| if i % 4 == 1 { 0.5 } else { 0.1 });
        market.insert(id, SpotTrace::new(1.0, spiky.collect()));
        let fresh = BatchTables::for_plan(&market, &plan).unwrap();
        let runner = PlanRunner::new(&market, 10.0);
        for start in [0.0, 4.5, 9.25] {
            let run = |ctx: ExecContext<'_>| bits(&runner.run(&plan, start, &ctx).unwrap());
            let free = run(ExecContext::new());
            assert_eq!(run(ExecContext::new().with_batch(&fresh)), free, "{start}");
            assert_ne!(run(ExecContext::new().with_batch(&stale)), free, "{start}");
        }
    }

    #[test]
    fn unknown_group_is_an_error() {
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let market = SpotMarket::new(cat);
        let err = BatchTables::for_plan(&market, &tiny_plan(id, 0.2)).unwrap_err();
        assert!(matches!(err, SompiError::UnknownGroup { .. }));
    }
}
