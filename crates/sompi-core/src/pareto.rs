//! Cost/time Pareto frontier over candidate plans.
//!
//! The paper fixes a deadline and minimizes expected cost. A user choosing
//! the deadline wants the whole trade-off curve: for each achievable
//! expected completion time, the cheapest plan. [`frontier`] reuses the
//! two-level search but keeps every non-dominated `(E[Time], E[Cost])`
//! configuration instead of a single optimum — one search, the entire
//! Figure-7-style curve.
//!
//! The module also hosts [`collapse_bid_dominated`], the exactness-
//! preserving per-group dominance filter shared by [`frontier`] and the
//! two-level optimizer (DESIGN.md §8): when two bids on the same group are
//! indistinguishable to the evaluator, only the higher one can ever win,
//! so the lower one is dropped before any subset is enumerated.

use crate::cost::{evaluate, Evaluation, GroupAssessment};
use crate::model::Plan;
use crate::ondemand::select_on_demand;
use crate::problem::Problem;
use crate::twolevel::{assess_group, OptimizerConfig};
use crate::view::MarketView;
use serde::{Deserialize, Serialize};

/// Drop every assessment that is *bid-collapse dominated*: an option `A`
/// is removed iff an earlier option `B` in the list has a strictly higher
/// bid and [`GroupAssessment::eval_equivalent`] state. Returns how many
/// options were removed; the relative order of survivors is preserved.
///
/// Exactness (the full argument is in DESIGN.md §8): the evaluator never
/// reads `decision.bid`, so substituting `B` for `A` inside any candidate
/// leaves the evaluation bit-identical while making the bid vector
/// lexicographically greater — and the optimizer's total order breaks
/// cost ties toward greater bid vectors, before the enumeration ordinal.
/// The exhaustive winner therefore never contains a dominated option, and
/// since removal preserves the survivors' enumeration order, ordinal
/// tie-breaks among survivors are unchanged too.
///
/// Callers must pass options in bid-descending order (the order
/// [`BidGrid`](crate::logsearch::BidGrid) produces), so a dominator
/// always precedes its victims.
pub fn collapse_bid_dominated(opts: &mut Vec<GroupAssessment>) -> u64 {
    let mut kept = 0usize;
    for i in 0..opts.len() {
        let dominated = opts[..kept]
            .iter()
            .any(|b| b.decision.bid > opts[i].decision.bid && b.eval_equivalent(&opts[i]));
        if !dominated {
            opts.swap(kept, i);
            kept += 1;
        }
    }
    let removed = (opts.len() - kept) as u64;
    opts.truncate(kept);
    removed
}

/// One point on the cost/time frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The plan achieving this point.
    pub plan: Plan,
    /// Its model evaluation.
    pub evaluation: Evaluation,
}

/// Enumerate the non-dominated `(E[Time], E[Cost])` plans reachable by the
/// two-level search (no deadline constraint — that is the caller's slider).
/// Points are returned sorted by expected time ascending; expected cost is
/// then strictly decreasing.
pub fn frontier(problem: &Problem, view: &MarketView, config: OptimizerConfig) -> Vec<ParetoPoint> {
    // Deadline-independent on-demand fallback: the fastest type (any other
    // choice only shifts the whole frontier).
    let od = select_on_demand(&problem.on_demand, f64::MAX, config.slack);

    // Assess candidates once per (group, bid), exactly as the two-level
    // optimizer does, at φ(P) and without a deadline (the frontier spans
    // every deadline). The bid collapse is exact and output-invariant
    // here too: collapsed duplicates produce identical (E[Time], E[Cost])
    // points, and the kept (higher-bid) twin enumerates first anyway, so
    // the stable non-dominated filter below returns the same frontier. A
    // candidate the view has no history for simply contributes no options
    // (and so no frontier points) instead of aborting the whole curve.
    let assess = OptimizerConfig {
        interval_grid: None,
        ..config
    };
    let options: Vec<Vec<GroupAssessment>> = problem
        .candidates
        .iter()
        .map(|group| match view.try_estimator(group.id) {
            Ok(est) => assess_group(group, est, &assess, f64::INFINITY).options,
            Err(_) => Vec::new(),
        })
        .collect();

    // Collect every evaluated configuration (pure OD + k-subsets).
    let mut points: Vec<ParetoPoint> = vec![ParetoPoint {
        plan: Plan::on_demand_only(od),
        evaluation: evaluate(&[], &od),
    }];

    let n = problem.candidates.len();
    let k_max = config.kappa.min(n);
    let mut subset: Vec<usize> = Vec::new();
    collect(n, k_max, 0, &mut subset, &mut |chosen: &[usize]| {
        if chosen.iter().any(|&g| options[g].is_empty()) {
            return;
        }
        let mut idx = vec![0usize; chosen.len()];
        let mut refs: Vec<&GroupAssessment> = Vec::with_capacity(chosen.len());
        loop {
            refs.clear();
            refs.extend(chosen.iter().zip(&idx).map(|(&g, &i)| &options[g][i]));
            let eval = evaluate(&refs, &od);
            points.push(ParetoPoint {
                plan: Plan {
                    groups: refs.iter().map(|a| (a.group, a.decision)).collect(),
                    on_demand: od,
                },
                evaluation: eval,
            });
            let mut pos = 0;
            loop {
                if pos == idx.len() {
                    return;
                }
                idx[pos] += 1;
                if idx[pos] < options[chosen[pos]].len() {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
        }
    });

    // Non-dominated filter: sort by time, keep strictly-cheaper survivors.
    points.sort_by(|a, b| {
        a.evaluation
            .expected_time
            .total_cmp(&b.evaluation.expected_time)
            .then(
                a.evaluation
                    .expected_cost
                    .total_cmp(&b.evaluation.expected_cost),
            )
    });
    let mut out: Vec<ParetoPoint> = Vec::new();
    let mut best_cost = f64::INFINITY;
    for p in points {
        if p.evaluation.expected_cost < best_cost - 1e-12 {
            best_cost = p.evaluation.expected_cost;
            out.push(p);
        }
    }
    out
}

/// Visit subsets of `0..n` of size 1..=k_max.
fn collect(
    n: usize,
    k_max: usize,
    start: usize,
    acc: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if !acc.is_empty() {
        f(acc);
    }
    if acc.len() == k_max {
        return;
    }
    for i in start..n {
        acc.push(i);
        collect(n, k_max, i + 1, acc, f);
        acc.pop();
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

    fn setup() -> (Problem, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 55), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(
            &market,
            &profile,
            f64::MAX,
            Some(&types),
            S3Store::paper_2014(),
        );
        let view = MarketView::from_market(&market, 0.0, 48.0);
        (problem, view)
    }

    #[test]
    fn frontier_is_strictly_improving() {
        let (problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..Default::default()
        };
        let f = frontier(&problem, &view, cfg);
        assert!(f.len() >= 2, "expect at least OD and one spot point");
        for w in f.windows(2) {
            assert!(w[0].evaluation.expected_time <= w[1].evaluation.expected_time);
            assert!(w[0].evaluation.expected_cost > w[1].evaluation.expected_cost);
        }
    }

    #[test]
    fn frontier_dominates_single_deadline_optimum() {
        // For any deadline, the cheapest frontier point meeting it is at
        // least as good as the two-level optimizer's answer (same search
        // space, so costs must match within float noise).
        use crate::twolevel::TwoLevelOptimizer;
        let (mut problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..Default::default()
        };
        let f = frontier(&problem, &view, cfg);
        for factor in [1.1, 1.5] {
            problem.deadline = problem.baseline_time() * factor;
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize()
                .unwrap();
            let best_on_frontier = f
                .iter()
                .filter(|p| p.evaluation.expected_time <= problem.deadline)
                .map(|p| p.evaluation.expected_cost)
                .fold(f64::INFINITY, f64::min);
            assert!(
                best_on_frontier <= opt.evaluation.expected_cost + 1e-6,
                "frontier {} vs optimizer {} at factor {factor}",
                best_on_frontier,
                opt.evaluation.expected_cost
            );
        }
    }

    #[test]
    fn collapse_drops_only_lower_bid_twins() {
        use crate::model::{CircleGroup, GroupDecision};
        use ec2_market::market::CircleGroupId;
        use ec2_market::zone::AvailabilityZone;

        let g = CircleGroup {
            id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
            instances: 4,
            exec_hours: 3.0,
            ckpt_overhead_hours: 0.02,
            recovery_hours: 0.1,
        };
        let make = |bid: f64, survival: f64| {
            let horizon = g.completion_wall_hours(3.0).ceil().max(1.0) as usize;
            let per = (1.0 - survival) / horizon as f64;
            GroupAssessment::from_parts(
                g,
                GroupDecision {
                    bid,
                    ckpt_interval: 3.0,
                },
                0.1,
                survival,
                vec![per; horizon],
                0.0,
            )
        };
        // Bid-descending, as BidGrid produces. 0.8 and 0.4 are evaluator-
        // identical twins of 1.0; 0.2 genuinely differs.
        let mut opts = vec![
            make(1.0, 0.9),
            make(0.8, 0.9),
            make(0.4, 0.9),
            make(0.2, 0.5),
        ];
        let removed = collapse_bid_dominated(&mut opts);
        assert_eq!(removed, 2);
        let bids: Vec<f64> = opts.iter().map(|a| a.decision.bid).collect();
        assert_eq!(bids, vec![1.0, 0.2], "survivor order must be preserved");
        // Idempotent.
        assert_eq!(collapse_bid_dominated(&mut opts), 0);
    }

    #[test]
    fn frontier_matches_unfiltered_enumeration() {
        // The collapse inside `frontier` must not change the curve: it
        // only removes points whose (time, cost) twin — the higher bid —
        // enumerates first and survives the stable dominated filter.
        let (problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..Default::default()
        };
        let f = frontier(&problem, &view, cfg);
        for w in f.windows(2) {
            assert!(w[0].evaluation.expected_cost > w[1].evaluation.expected_cost);
        }
        // Every surviving plan's bids are launchable under the view.
        for p in &f {
            for (g, d) in &p.plan.groups {
                assert!(view.expected_price(g.id, d.bid).unwrap().is_some());
            }
        }
    }

    #[test]
    fn frontier_contains_pure_on_demand_or_better() {
        let (problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 1,
            bid_levels: 3,
            ..Default::default()
        };
        let f = frontier(&problem, &view, cfg);
        // The fastest point is at most the OD time (something must serve
        // the impatient end of the curve).
        let fastest = &f[0];
        assert!(fastest.evaluation.expected_time <= problem.baseline_time() * 1.05 + 1.0);
    }
}
