//! Every comparison strategy from the paper's evaluation (Sections 5.3 and
//! 5.4.2), behind the one [`crate::policy::Policy`] trait so experiments
//! can sweep them.
//!
//! | Name        | Paper description |
//! |-------------|-------------------|
//! | `OnDemandOnly` | cheapest on-demand type meeting the deadline |
//! | `Marathe`   | Marathe et al. \[30\]: replicated execution of one fixed instance type (cc2.8xlarge) across availability zones, near-on-demand bids |
//! | `MaratheOpt`| Marathe with the instance type chosen by cost model |
//! | `SpotInf`   | single spot group, effectively infinite bid ($999) |
//! | `SpotAvg`   | single spot group, bid = average historical price |
//! | `Sompi`     | the full two-level optimizer |
//! | `SompiNoReplication` | SOMPI restricted to one circle group (w/o-RP) |
//! | `SompiNoCheckpoint`  | SOMPI with checkpointing disabled (w/o-CK) |
//! | `AllUnable` | one spot group, no checkpoints, no replication |

use crate::adaptive::PlanContext;
use crate::error::SompiError;
use crate::model::{GroupDecision, Plan};
use crate::ondemand::{select_on_demand, DEFAULT_SLACK};
use crate::phi::optimal_interval;
use crate::policy::{best_single_group, cheapest_plan, Policy};
use crate::problem::Problem;
use crate::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use crate::view::MarketView;

/// The evaluation's *On-demand* method.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnDemandOnly;

impl Policy for OnDemandOnly {
    fn name(&self) -> &'static str {
        "On-demand"
    }

    fn plan(
        &self,
        problem: &Problem,
        _view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        problem.try_baseline()?;
        Ok(Plan::on_demand_only(select_on_demand(
            &problem.on_demand,
            problem.deadline,
            DEFAULT_SLACK,
        )))
    }
}

/// Marathe et al.: replicate one fixed instance type — the fastest
/// (cc2.8xlarge in the paper's catalog, "they utilize CC2 instances as
/// default setting") — across all its availability zones, bid at the
/// type's on-demand price, checkpoint at a Young/Daly interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marathe;

impl Policy for Marathe {
    fn name(&self) -> &'static str {
        "Marathe"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        // Identify the fixed type: the most capable (fastest) candidate —
        // cc2.8xlarge in the paper's catalog — unless the problem was built
        // without it.
        let target = *problem.try_baseline()?;
        let mut groups = Vec::new();
        for c in &problem.candidates {
            if c.id.instance_type != target.instance_type {
                continue;
            }
            let bid = target.unit_price; // bid at the on-demand price
            let interval = optimal_interval(c, bid, view)?;
            groups.push((
                *c,
                GroupDecision {
                    bid,
                    ckpt_interval: interval,
                },
            ));
        }
        Ok(Plan {
            groups,
            on_demand: target,
        })
    }
}

/// Marathe with the replicated instance type optimized: try each candidate
/// type, keep the cheapest (by the cost model) that meets the deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaratheOpt;

impl Policy for MaratheOpt {
    fn name(&self) -> &'static str {
        "Marathe-Opt"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        let plans = problem.on_demand.iter().map(|od| {
            let mut groups = Vec::new();
            for c in &problem.candidates {
                if c.id.instance_type != od.instance_type {
                    continue;
                }
                let bid = od.unit_price;
                let interval = optimal_interval(c, bid, view)?;
                groups.push((
                    *c,
                    GroupDecision {
                        bid,
                        ckpt_interval: interval,
                    },
                ));
            }
            Ok((!groups.is_empty()).then_some(Plan {
                groups,
                on_demand: *od,
            }))
        });
        match cheapest_plan(problem, view, plans)? {
            Some(plan) => Ok(plan),
            None => OnDemandOnly.plan(problem, view, ctx),
        }
    }
}

/// Spot-Inf: one spot group with an effectively infinite bid ($999), no
/// checkpointing, no replication; the group with minimal expected cost
/// meeting the deadline wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpotInf;

/// The "infinite" bid used by the paper's Spot-Inf heuristic.
pub const INFINITE_BID: f64 = 999.0;

impl Policy for SpotInf {
    fn name(&self) -> &'static str {
        "Spot-Inf"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            Ok(Some(GroupDecision {
                bid: INFINITE_BID,
                ckpt_interval: c.exec_hours,
            }))
        })
    }
}

/// Spot-Avg: like Spot-Inf but bidding the average historical price.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpotAvg;

impl Policy for SpotAvg {
    fn name(&self) -> &'static str {
        "Spot-Avg"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        // A group without a mean price is skipped; one the view does not
        // know is an error.
        best_single_group(problem, view, |c| {
            Ok(view.mean_price(c.id)?.map(|bid| GroupDecision {
                bid,
                ckpt_interval: c.exec_hours,
            }))
        })
    }
}

/// The full SOMPI optimizer as a [`Policy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Sompi {
    /// Optimizer knobs.
    pub config: OptimizerConfig,
}

impl Policy for Sompi {
    fn name(&self) -> &'static str {
        "SOMPI"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        Ok(TwoLevelOptimizer::new(problem, view, self.config)
            .optimize_with(ctx)?
            .plan)
    }
}

/// w/o-RP: SOMPI restricted to a single circle group (checkpointing only).
#[derive(Debug, Clone, Copy, Default)]
pub struct SompiNoReplication {
    /// Optimizer knobs (κ is forced to 1).
    pub config: OptimizerConfig,
}

impl Policy for SompiNoReplication {
    fn name(&self) -> &'static str {
        "w/o-RP"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        let cfg = OptimizerConfig {
            kappa: 1,
            ..self.config
        };
        Ok(TwoLevelOptimizer::new(problem, view, cfg)
            .optimize_with(ctx)?
            .plan)
    }
}

/// w/o-CK: SOMPI with checkpointing disabled (replication only). Uses the
/// interval-grid hook with a single point `F = T_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SompiNoCheckpoint {
    /// Optimizer knobs (interval forced to `T_i`).
    pub config: OptimizerConfig,
}

impl Policy for SompiNoCheckpoint {
    fn name(&self) -> &'static str {
        "w/o-CK"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        let cfg = OptimizerConfig {
            interval_grid: Some(1),
            ..self.config
        };
        Ok(TwoLevelOptimizer::new(problem, view, cfg)
            .optimize_with(ctx)?
            .plan)
    }
}

/// All-Unable: single group, no checkpointing — bid still optimized, which
/// is the strongest version of "no fault tolerance at all".
#[derive(Debug, Clone, Copy, Default)]
pub struct AllUnable {
    /// Optimizer knobs (κ = 1 and interval forced to `T_i`).
    pub config: OptimizerConfig,
}

impl Policy for AllUnable {
    fn name(&self) -> &'static str {
        "All-Unable"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        let cfg = OptimizerConfig {
            kappa: 1,
            interval_grid: Some(1),
            ..self.config
        };
        Ok(TwoLevelOptimizer::new(problem, view, cfg)
            .optimize_with(ctx)?
            .plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    fn setup() -> (SpotMarket, Problem, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 21), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 3.0, Some(&types), S3Store::paper_2014());
        let view = MarketView::from_market(&market, 0.0, 48.0);
        (market, problem, view)
    }

    #[test]
    fn on_demand_only_uses_no_spot() {
        let (_, p, v) = setup();
        let plan = OnDemandOnly.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 0);
    }

    #[test]
    fn marathe_replicates_cc2_across_zones() {
        let (m, p, v) = setup();
        let plan = Marathe.plan(&p, &v, &mut PlanContext::new()).unwrap();
        let cc2 = m.catalog().by_name("cc2.8xlarge").unwrap();
        assert_eq!(plan.replication_degree(), 3); // three zones
        for (g, d) in &plan.groups {
            assert_eq!(g.id.instance_type, cc2);
            assert!((d.bid - 2.0).abs() < 1e-12); // on-demand price bid
        }
        assert_eq!(plan.on_demand.instance_type, cc2);
    }

    #[test]
    fn marathe_opt_single_type_but_chosen() {
        let (_, p, v) = setup();
        let plan = MaratheOpt.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert!(!plan.groups.is_empty());
        let ty = plan.groups[0].0.id.instance_type;
        assert!(plan.groups.iter().all(|(g, _)| g.id.instance_type == ty));
        // For compute-intensive BT under a loose deadline, Marathe-Opt
        // should pick something cheaper than cc2.8xlarge.
        let (_, eval_opt) = MaratheOpt.plan_and_evaluate(&p, &v).unwrap();
        let (_, eval_fixed) = Marathe.plan_and_evaluate(&p, &v).unwrap();
        assert!(eval_opt.expected_cost <= eval_fixed.expected_cost + 1e-9);
    }

    #[test]
    fn spot_inf_never_fails() {
        let (_, p, v) = setup();
        let (plan, eval) = SpotInf.plan_and_evaluate(&p, &v).unwrap();
        assert_eq!(plan.replication_degree(), 1);
        assert_eq!(plan.groups[0].1.bid, INFINITE_BID);
        assert!(eval.p_all_fail < 1e-9);
    }

    #[test]
    fn spot_avg_bids_the_mean() {
        let (_, p, v) = setup();
        let plan = SpotAvg.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 1);
        let (g, d) = &plan.groups[0];
        assert!((d.bid - v.mean_price(g.id).unwrap().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn a_candidate_the_view_does_not_know_is_an_error() {
        let (market, p, _) = setup();
        // A view of a market that holds the first candidate's trace only.
        let known = p.candidates[0].id;
        let mut thin = SpotMarket::new(market.catalog().clone());
        thin.insert(known, market.trace(known).unwrap().clone());
        let v = MarketView::from_market(&thin, 0.0, 48.0);
        for policy in [&SpotInf as &dyn Policy, &SpotAvg, &MaratheOpt] {
            assert!(
                matches!(
                    policy.plan(&p, &v, &mut PlanContext::new()),
                    Err(SompiError::UnknownGroup { .. })
                ),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn ablations_respect_their_restrictions() {
        let (_, p, v) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..OptimizerConfig::default()
        };
        let no_rp = SompiNoReplication { config: cfg }
            .plan(&p, &v, &mut PlanContext::new())
            .unwrap();
        assert!(no_rp.replication_degree() <= 1);
        let no_ck = SompiNoCheckpoint { config: cfg }
            .plan(&p, &v, &mut PlanContext::new())
            .unwrap();
        for (g, d) in &no_ck.groups {
            assert!(
                d.ckpt_interval >= g.exec_hours,
                "checkpointing not disabled"
            );
        }
        let none = AllUnable { config: cfg }
            .plan(&p, &v, &mut PlanContext::new())
            .unwrap();
        assert!(none.replication_degree() <= 1);
        for (g, d) in &none.groups {
            assert!(d.ckpt_interval >= g.exec_hours);
        }
    }

    #[test]
    fn sompi_beats_or_ties_every_restricted_variant_in_expectation() {
        let (_, p, v) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..OptimizerConfig::default()
        };
        let (_, full) = Sompi { config: cfg }.plan_and_evaluate(&p, &v).unwrap();
        for (name, eval) in [
            (
                "w/o-RP",
                SompiNoReplication { config: cfg }
                    .plan_and_evaluate(&p, &v)
                    .unwrap()
                    .1,
            ),
            (
                "w/o-CK",
                SompiNoCheckpoint { config: cfg }
                    .plan_and_evaluate(&p, &v)
                    .unwrap()
                    .1,
            ),
            (
                "All-Unable",
                AllUnable { config: cfg }
                    .plan_and_evaluate(&p, &v)
                    .unwrap()
                    .1,
            ),
        ] {
            assert!(
                full.expected_cost <= eval.expected_cost + 1e-9,
                "SOMPI {} vs {name} {}",
                full.expected_cost,
                eval.expected_cost
            );
        }
    }
}
