//! The policy arena: one [`Policy`] trait over planning, plus rival
//! strategies from the wider spot-market-HPC literature.
//!
//! The paper evaluates SOMPI against a fixed set of baselines that map
//! `(problem, view) → plan`; the rivals here do the same.
//! [`Policy::plan`] is the single context-taking planning entry point
//! (the trace recorder rides in the [`PlanContext`]). When and how a plan
//! is re-made at window boundaries is the adaptive loop's business
//! (`replay::AdaptiveRunner`), the same for every policy.
//!
//! Rival policies implemented here (sources in PAPERS.md):
//!
//! | Name             | Source | Idea |
//! |------------------|--------|------|
//! | [`NoFt`]         | Alourani & Kshemkalyani | no fault-tolerance provisioning at all |
//! | [`CheckpointOnly`] | Spot-on style | single group + Young/Daly checkpoints, no replication |
//! | [`AppCentric`]   | Khatua & Mukherjee | lowest bid whose survival meets an availability target |
//! | [`DeadlineHedge`] | Teylo et al. | full optimizer against a tightened deadline |
//!
//! The evaluation baselines (`On-demand`, `Marathe`, `Spot-Inf`, …) live
//! in [`crate::baselines`] and implement the same trait. See
//! `docs/POLICIES.md` for the trait contract and how to add a policy.

use crate::adaptive::PlanContext;
use crate::cost::{evaluate_plan, Evaluation};
use crate::error::SompiError;
use crate::logsearch::BidGrid;
use crate::model::{CircleGroup, GroupDecision, Plan};
use crate::ondemand::{select_on_demand, DEFAULT_SLACK};
use crate::phi::{optimal_interval_for, phi_horizon};
use crate::problem::Problem;
use crate::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use crate::view::MarketView;
use crate::Usd;

/// A planning policy: the one strategy abstraction behind the baselines,
/// the rival policies, the service layer, the tournament harness and the
/// adaptive loop's re-plans.
///
/// Implementors provide [`Policy::plan`]; the evaluation convenience
/// [`Policy::plan_and_evaluate`] has a default, so a strategy is a
/// one-method impl.
pub trait Policy: Send + Sync {
    /// Display name used in experiment tables and reports.
    fn name(&self) -> &'static str;

    /// Produce the plan this policy would execute for `problem` against
    /// the market history exposed by `view`.
    ///
    /// Everything optional rides in `ctx` (see [`PlanContext`]), the
    /// trace recorder among it. Policies without a search simply
    /// ignore what they do not use; `&mut PlanContext::new()` is the
    /// all-no-op context. Plans must be deterministic functions of
    /// `(problem, view)` — the context only changes *how* the search
    /// runs, never its result.
    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError>;

    /// Convenience: plan with an all-no-op context and evaluate under
    /// the cost model. Errors instead of panicking when the problem has
    /// no on-demand option ([`SompiError::NoOnDemandOption`]) or the
    /// plan cannot launch under the view
    /// ([`SompiError::UnlaunchablePlan`]).
    fn plan_and_evaluate(
        &self,
        problem: &Problem,
        view: &MarketView,
    ) -> Result<(Plan, Evaluation), SompiError> {
        let plan = self.plan(problem, view, &mut PlanContext::new())?;
        let eval = evaluate_plan(&plan, view)?.ok_or(SompiError::UnlaunchablePlan)?;
        Ok((plan, eval))
    }
}

/// The canonical policy names [`policy_by_name`] accepts, in report
/// order: the paper's baselines and ablations first, then the rival
/// policies from the literature.
pub const POLICY_NAMES: &[&str] = &[
    "sompi",
    "on-demand",
    "marathe",
    "marathe-opt",
    "spot-inf",
    "spot-avg",
    "no-rp",
    "no-ck",
    "all-unable",
    "no-ft",
    "ckpt-only",
    "app-centric",
    "deadline-hedge",
];

/// The [`POLICY_NAMES`] entry a CLI/wire name selects: names are
/// case-insensitive, and `ondemand`, `noft`, `checkpoint-only` and
/// `appcentric` are aliases of `on-demand`, `no-ft`, `ckpt-only` and
/// `app-centric`. `None` for a name no policy answers to. This is the one
/// alias table: [`policy_by_name`] matches on its answer, so two names
/// select the same policy exactly when they map to the same entry.
pub fn canonical_policy_name(name: &str) -> Option<&'static str> {
    let name = name.to_lowercase();
    let name = match name.as_str() {
        "ondemand" => "on-demand",
        "noft" => "no-ft",
        "checkpoint-only" => "ckpt-only",
        "appcentric" => "app-centric",
        other => other,
    };
    POLICY_NAMES.iter().copied().find(|known| *known == name)
}

/// Look a policy up by its CLI/wire name, as [`canonical_policy_name`]
/// reads it. `config` parameterizes the optimizer-backed policies and is
/// ignored by the closed-form ones. Errors with
/// [`SompiError::InvalidConfig`] naming the known policies on an unknown
/// name.
pub fn policy_by_name(name: &str, config: OptimizerConfig) -> Result<Box<dyn Policy>, SompiError> {
    use crate::baselines::{
        AllUnable, Marathe, MaratheOpt, OnDemandOnly, Sompi, SompiNoCheckpoint, SompiNoReplication,
        SpotAvg, SpotInf,
    };
    Ok(match canonical_policy_name(name).unwrap_or_default() {
        "sompi" => Box::new(Sompi { config }),
        "on-demand" => Box::new(OnDemandOnly),
        "marathe" => Box::new(Marathe),
        "marathe-opt" => Box::new(MaratheOpt),
        "spot-inf" => Box::new(SpotInf),
        "spot-avg" => Box::new(SpotAvg),
        "no-rp" => Box::new(SompiNoReplication { config }),
        "no-ck" => Box::new(SompiNoCheckpoint { config }),
        "all-unable" => Box::new(AllUnable { config }),
        "no-ft" => Box::new(NoFt),
        "ckpt-only" => Box::new(CheckpointOnly),
        "app-centric" => Box::new(AppCentric::default()),
        "deadline-hedge" => Box::new(DeadlineHedge {
            config,
            ..DeadlineHedge::default()
        }),
        _ => {
            return Err(SompiError::InvalidConfig {
                message: format!(
                    "unknown strategy {:?} (one of: {})",
                    name.to_lowercase(),
                    POLICY_NAMES.join(", ")
                ),
            })
        }
    })
}

/// The on-demand unit price of a candidate group's instance type, when
/// the problem offers that type on demand.
fn on_demand_price_of(problem: &Problem, group: &CircleGroup) -> Option<Usd> {
    problem
        .on_demand
        .iter()
        .find(|o| o.instance_type == group.id.instance_type)
        .map(|o| o.unit_price)
}

/// The cheapest of `plans` under the cost model, deadline-feasible plans
/// strictly preferred; on a tie the first offered stays. A plan offered as
/// `None`, or one that cannot launch under the view, is skipped. `None`
/// when nothing is left; the first error (a candidate the view does not
/// know, say) is returned as is.
pub(crate) fn cheapest_plan(
    problem: &Problem,
    view: &MarketView,
    plans: impl IntoIterator<Item = Result<Option<Plan>, SompiError>>,
) -> Result<Option<Plan>, SompiError> {
    let mut best: Option<(Plan, Evaluation)> = None;
    for plan in plans {
        let Some(plan) = plan? else {
            continue;
        };
        let Some(eval) = evaluate_plan(&plan, view)? else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, b)) => match (eval.meets(problem.deadline), b.meets(problem.deadline)) {
                (true, false) => true,
                (false, true) => false,
                _ => eval.expected_cost < b.expected_cost,
            },
        };
        if better {
            best = Some((plan, eval));
        }
    }
    Ok(best.map(|(plan, _)| plan))
}

/// The single-group selector behind every one-group policy (Spot-Inf,
/// Spot-Avg, No-FT, Ckpt-Only, App-Centric): offer each candidate group
/// one `GroupDecision` (or skip it) and keep the [`cheapest_plan`] of the
/// one-group plans. Falls back to the pure on-demand plan when no group
/// yields a launchable option.
pub(crate) fn best_single_group<F>(
    problem: &Problem,
    view: &MarketView,
    mut option_for: F,
) -> Result<Plan, SompiError>
where
    F: FnMut(&CircleGroup) -> Result<Option<GroupDecision>, SompiError>,
{
    problem.try_baseline()?;
    let od = select_on_demand(&problem.on_demand, problem.deadline, DEFAULT_SLACK);
    let plans = problem.candidates.iter().map(|c| {
        Ok(option_for(c)?.map(|decision| Plan {
            groups: vec![(*c, decision)],
            on_demand: od,
        }))
    });
    Ok(cheapest_plan(problem, view, plans)?.unwrap_or_else(|| Plan::on_demand_only(od)))
}

/// No fault-tolerance provisioning (Alourani & Kshemkalyani): one spot
/// group, bid at its type's on-demand price, **no checkpointing and no
/// replication** — a kill means restarting from scratch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFt;

impl Policy for NoFt {
    fn name(&self) -> &'static str {
        "No-FT"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            Ok(on_demand_price_of(problem, c).map(|bid| GroupDecision {
                bid,
                // F = T_i disables checkpointing by convention.
                ckpt_interval: c.exec_hours,
            }))
        })
    }
}

/// Checkpointing framework without replication (Spot-on style): one spot
/// group, bid at its type's on-demand price, Young/Daly checkpoint
/// interval from the group's failure behavior at that bid.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOnly;

impl Policy for CheckpointOnly {
    fn name(&self) -> &'static str {
        "Ckpt-Only"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            let Some(bid) = on_demand_price_of(problem, c) else {
                return Ok(None);
            };
            let est = view.try_estimator(c.id)?;
            Ok(Some(GroupDecision {
                bid,
                ckpt_interval: optimal_interval_for(c, bid, est),
            }))
        })
    }
}

/// Application-centric bidding (Khatua & Mukherjee): per group, take the
/// *lowest* bid on the logarithmic grid whose survival probability over
/// the application's own duration meets the availability target, then
/// keep the cheapest feasible group. Checkpoints at the Young/Daly
/// interval for the chosen bid.
#[derive(Debug, Clone, Copy)]
pub struct AppCentric {
    /// Required probability of surviving the application's duration at
    /// the chosen bid (the paper's availability SLO; 0.9 by default).
    pub availability: f64,
    /// Bid-grid resolution used for the per-group bid scan.
    pub bid_levels: u32,
}

impl Default for AppCentric {
    fn default() -> Self {
        Self {
            availability: 0.9,
            bid_levels: 12,
        }
    }
}

impl Policy for AppCentric {
    fn name(&self) -> &'static str {
        "App-Centric"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        _ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        best_single_group(problem, view, |c| {
            let est = view.try_estimator(c.id)?;
            let max_bid = est.max_price();
            if !(max_bid.is_finite() && max_bid > 0.0) {
                return Ok(None);
            }
            let grid = BidGrid::logarithmic(max_bid, self.bid_levels);
            let horizon = phi_horizon(c);
            // Grid bids are highest-first; scan from the lowest up and
            // take the first meeting the availability target.
            let bid =
                grid.bids().iter().rev().copied().find(|&bid| {
                    est.failure_rate_exact(bid, horizon).survival() >= self.availability
                });
            Ok(bid.map(|bid| GroupDecision {
                bid,
                ckpt_interval: optimal_interval_for(c, bid, est),
            }))
        })
    }
}

/// Deadline-aware hedging (Teylo et al.): run the full SOMPI optimizer,
/// but against a deadline tightened by `margin` — the plan keeps a
/// reserve against estimation error and spot volatility.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineHedge {
    /// Fraction of the deadline held back as reserve (0.1 = plan as if
    /// the deadline were 10% earlier). Must lie in `[0, 1)`.
    pub margin: f64,
    /// Inner optimizer knobs.
    pub config: OptimizerConfig,
}

impl Default for DeadlineHedge {
    fn default() -> Self {
        Self {
            margin: 0.1,
            config: OptimizerConfig::default(),
        }
    }
}

impl Policy for DeadlineHedge {
    fn name(&self) -> &'static str {
        "Deadline-Hedge"
    }

    fn plan(
        &self,
        problem: &Problem,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<Plan, SompiError> {
        if !(0.0..1.0).contains(&self.margin) {
            return Err(SompiError::InvalidConfig {
                message: format!("deadline-hedge margin {} outside [0, 1)", self.margin),
            });
        }
        let mut hedged = problem.clone();
        hedged.deadline = problem.deadline * (1.0 - self.margin);
        Ok(TwoLevelOptimizer::new(&hedged, view, self.config)
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
    fn registry_resolves_every_canonical_name() {
        for name in POLICY_NAMES {
            let p = policy_by_name(name, OptimizerConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!p.name().is_empty());
        }
        // Aliases and case-insensitivity.
        assert_eq!(
            policy_by_name("ondemand", OptimizerConfig::default())
                .unwrap()
                .name(),
            "On-demand"
        );
        assert_eq!(
            policy_by_name("SOMPI", OptimizerConfig::default())
                .unwrap()
                .name(),
            "SOMPI"
        );
    }

    #[test]
    fn unknown_policy_is_an_error_naming_the_roster() {
        let Err(err) = policy_by_name("magic", OptimizerConfig::default()) else {
            panic!("unknown name must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown strategy"), "{msg}");
        assert!(msg.contains("deadline-hedge"), "{msg}");
    }

    #[test]
    fn no_ft_has_no_fault_tolerance() {
        let (_, p, v) = setup();
        let plan = NoFt.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 1, "single group only");
        for (g, d) in &plan.groups {
            assert!(d.ckpt_interval >= g.exec_hours, "checkpointing must be off");
            let od = on_demand_price_of(&p, g).unwrap();
            assert!((d.bid - od).abs() < 1e-12, "bids at the on-demand price");
        }
    }

    #[test]
    fn ckpt_only_checkpoints_one_group_at_the_young_daly_interval() {
        let (_, p, v) = setup();
        let plan = CheckpointOnly
            .plan(&p, &v, &mut PlanContext::new())
            .unwrap();
        assert_eq!(plan.replication_degree(), 1);
        let (g, d) = &plan.groups[0];
        let od = on_demand_price_of(&p, g).unwrap();
        assert!((d.bid - od).abs() < 1e-12);
        let est = v.try_estimator(g.id).unwrap();
        assert_eq!(d.ckpt_interval, optimal_interval_for(g, d.bid, est));
    }

    #[test]
    fn app_centric_takes_the_lowest_bid_meeting_the_availability_target() {
        let (_, p, v) = setup();
        let pol = AppCentric::default();
        let plan = pol.plan(&p, &v, &mut PlanContext::new()).unwrap();
        assert_eq!(plan.replication_degree(), 1);
        let (g, d) = &plan.groups[0];
        let est = v.try_estimator(g.id).unwrap();
        let horizon = phi_horizon(g);
        let survival = est.failure_rate_exact(d.bid, horizon).survival();
        assert!(
            survival >= pol.availability,
            "chosen bid survival {survival} misses the target"
        );
        // No strictly lower grid bid may meet the target.
        let grid = BidGrid::logarithmic(est.max_price(), pol.bid_levels);
        for &bid in grid.bids() {
            if bid < d.bid - 1e-12 {
                assert!(
                    est.failure_rate_exact(bid, horizon).survival() < pol.availability,
                    "bid {bid} also meets the target but is lower than {}",
                    d.bid
                );
            }
        }
    }

    #[test]
    fn deadline_hedge_plans_against_the_tightened_deadline() {
        let (_, p, v) = setup();
        let pol = DeadlineHedge::default();
        let (plan, eval) = pol.plan_and_evaluate(&p, &v).unwrap();
        assert!(!plan.groups.is_empty());
        // The hedged plan must meet the *tightened* deadline in
        // expectation whenever the optimizer found a feasible spot plan.
        assert!(
            eval.expected_time <= p.deadline * (1.0 - pol.margin) + 1e-9,
            "expected time {} exceeds the hedged deadline",
            eval.expected_time
        );
        let bad = DeadlineHedge {
            margin: 1.5,
            ..DeadlineHedge::default()
        };
        assert!(matches!(
            bad.plan(&p, &v, &mut PlanContext::new()),
            Err(SompiError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn plan_and_evaluate_reports_errors_instead_of_panicking() {
        let (_, p, v) = setup();
        // A problem stripped of on-demand options must error, not abort.
        let mut restricted = p.clone();
        restricted.on_demand.clear();
        assert_eq!(
            NoFt.plan_and_evaluate(&restricted, &v).unwrap_err(),
            SompiError::NoOnDemandOption
        );
    }
}
