//! The independent exhaustive reference for the plan search, shared by
//! `tests/assess_differential.rs` and sompi-core's
//! `tests/prune_differential.rs`.
//!
//! Options are assembled bid by bid from public pieces only:
//! `failure_rate_exact` at φ's and at each assessment's own horizon, the
//! Young/Daly interval, `expected_launch_delay`, `GroupAssessment::
//! from_parts`, the deadline prune and, on request,
//! `collapse_bid_dominated`. An exhaustive walk over those options under
//! the optimizer's total candidate order gives the reference plan; it is
//! the only unpruned search in the workspace, so it is what the
//! optimizer's bid collapse, branch-and-bound and early subset rejection
//! (DESIGN.md §8) answer to.

use ec2_market::failure::FailureEstimator;
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::{assessment_horizon, evaluate, Evaluation, GroupAssessment};
use sompi_core::logsearch::BidGrid;
use sompi_core::model::{CircleGroup, GroupDecision, Plan};
use sompi_core::pareto::collapse_bid_dominated;
use sompi_core::phi::phi_horizon;
use sompi_core::twolevel::{OptimizedPlan, OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_core::{select_on_demand, Problem};
use sompi_obs::{Event, RingRecorder, TraceLevel};
use std::cmp::Ordering;

/// The reference's counts, in `PlanSearchStarted` terms.
#[derive(Debug, Default, PartialEq)]
pub struct Counts {
    pub considered: u64,
    pub pruned: u64,
    pub dominated: u64,
    pub grid_points: u64,
    /// Grid bids admitting as many samples as the previous grid bid.
    pub equal_admission: u64,
}

/// Young/Daly: `sqrt(2 · O · MTTF)` clamped into `[O, T]`; no
/// checkpoints without observed failures or when one checkpoint costs
/// more than the work left.
fn young_daly(group: &CircleGroup, mttf: Option<f64>) -> f64 {
    match mttf {
        Some(m) if group.ckpt_overhead_hours <= group.exec_hours => {
            (2.0 * group.ckpt_overhead_hours * m)
                .sqrt()
                .clamp(group.ckpt_overhead_hours, group.exec_hours)
        }
        _ => group.exec_hours,
    }
}

/// The group's bid grid, by the optimizer's documented rule.
fn grid(est: &FailureEstimator, cfg: &OptimizerConfig) -> Option<BidGrid> {
    let max_bid = est.max_price();
    if !(max_bid.is_finite() && max_bid > 0.0) {
        return None;
    }
    let min_price = est.expected_spot_price().min_price().max(1e-6);
    let span = ((max_bid / min_price).log2().ceil() as u32 + 1).max(2);
    let grid = BidGrid::logarithmic(max_bid, span.min(cfg.bid_levels.max(2)));
    Some(match cfg.top_margin {
        Some(m) => grid.with_top_margin(m),
        None => grid,
    })
}

/// Assess every (group, bid, interval) on its own, from public pieces,
/// dropping bid-dominated options when `collapse` is set.
fn reference_options(
    problem: &Problem,
    view: &MarketView,
    cfg: &OptimizerConfig,
    collapse: bool,
) -> (Vec<Vec<GroupAssessment>>, Counts) {
    let mut counts = Counts::default();
    let mut options = Vec::new();
    for group in &problem.candidates {
        let est = view.try_estimator(group.id).expect("candidate in view");
        let mut opts = Vec::new();
        let Some(grid) = grid(est, cfg) else {
            options.push(opts);
            continue;
        };
        let mut prev_admitted = None;
        for &bid in grid.bids() {
            counts.grid_points += 1;
            let admitted = est.expected_spot_price().count_at_or_below(bid);
            counts.equal_admission += u64::from(prev_admitted == Some(admitted));
            prev_admitted = Some(admitted);
            let intervals: Vec<f64> = match cfg.interval_grid {
                None => {
                    let f = est.failure_rate_exact(bid, phi_horizon(group));
                    vec![young_daly(group, f.mean_time_to_failure())]
                }
                Some(n) => (1..=n)
                    .map(|j| group.exec_hours * j as f64 / n as f64)
                    .collect(),
            };
            for ckpt_interval in intervals {
                counts.considered += 1;
                let Some(price) = est.expected_spot_price().mean_below(bid) else {
                    continue;
                };
                let decision = GroupDecision { bid, ckpt_interval };
                let f = est.failure_rate_exact(bid, assessment_horizon(group, &decision));
                let a = GroupAssessment::from_parts(
                    *group,
                    decision,
                    price,
                    f.survival(),
                    f.buckets().to_vec(),
                    est.expected_launch_delay(bid),
                );
                if a.completion_wall() <= problem.deadline {
                    opts.push(a);
                } else {
                    counts.pruned += 1;
                }
            }
        }
        if collapse {
            counts.dominated += collapse_bid_dominated(&mut opts);
        }
        options.push(opts);
    }
    (options, counts)
}

/// The best candidate so far under the optimizer's total order.
struct Best {
    feasible: bool,
    eval: Evaluation,
    bids: Vec<f64>,
    picks: Vec<(usize, usize)>,
    ordinal: (usize, u64),
}

/// Feasible first, then lower cost, then the lexicographically greater
/// bid vector, then the earlier enumeration ordinal.
fn better(
    feasible: bool,
    eval: &Evaluation,
    bids: &[f64],
    ordinal: (usize, u64),
    b: &Best,
) -> bool {
    if feasible != b.feasible {
        return feasible;
    }
    match eval.expected_cost.total_cmp(&b.eval.expected_cost) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => {
            let by_bids = bids
                .iter()
                .zip(&b.bids)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(bids.len().cmp(&b.bids.len()));
            match by_bids {
                Ordering::Greater => true,
                Ordering::Less => false,
                Ordering::Equal => ordinal < b.ordinal,
            }
        }
    }
}

/// Every k-subset of `0..n`, k ascending, lexicographic within k.
fn subsets(n: usize, k_max: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, k: usize, start: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if acc.len() == k {
            out.push(acc.clone());
            return;
        }
        for i in start..n {
            acc.push(i);
            rec(n, k, i + 1, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    for k in 1..=k_max.min(n) {
        rec(n, k, 0, &mut Vec::new(), &mut out);
    }
    out
}

/// Exhaustive search over the reference options: every subset, every
/// bid vector (slot 0 fastest), the pure on-demand plan as the incumbent.
fn reference_search(
    problem: &Problem,
    cfg: &OptimizerConfig,
    options: &[Vec<GroupAssessment>],
) -> OptimizedPlan {
    let od = select_on_demand(&problem.on_demand, problem.deadline, cfg.slack);
    let od_eval = evaluate(&[], &od);
    let od_feasible = od_eval.meets(problem.deadline);
    let mut evaluations = 1u64;
    let mut best: Option<Best> = None;
    for (si, chosen) in subsets(problem.candidates.len(), cfg.kappa)
        .iter()
        .enumerate()
    {
        if chosen.iter().any(|&g| options[g].is_empty()) {
            continue;
        }
        let mut idx = vec![0usize; chosen.len()];
        let mut step = 0u64;
        loop {
            let refs: Vec<&GroupAssessment> = chosen
                .iter()
                .zip(&idx)
                .map(|(&g, &i)| &options[g][i])
                .collect();
            let eval = evaluate(&refs, &od);
            evaluations += 1;
            let feasible = eval.meets(problem.deadline)
                && cfg
                    .min_spot_success
                    .is_none_or(|q| eval.p_all_fail <= 1.0 - q);
            let bids: Vec<f64> = refs.iter().map(|a| a.decision.bid).collect();
            if best
                .as_ref()
                .is_none_or(|b| better(feasible, &eval, &bids, (si, step), b))
            {
                best = Some(Best {
                    feasible,
                    eval,
                    bids,
                    picks: chosen.iter().copied().zip(idx.iter().copied()).collect(),
                    ordinal: (si, step),
                });
            }
            step += 1;
            let mut pos = 0;
            while pos < idx.len() {
                idx[pos] += 1;
                if idx[pos] < options[chosen[pos]].len() {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
            if pos == idx.len() {
                break;
            }
        }
    }
    let spot = best.filter(|b| match (b.feasible, od_feasible) {
        (true, false) => true,
        (false, true) => false,
        _ => b.eval.expected_cost < od_eval.expected_cost,
    });
    match spot {
        Some(b) => OptimizedPlan {
            plan: Plan {
                groups: b
                    .picks
                    .iter()
                    .map(|&(g, i)| (options[g][i].group, options[g][i].decision))
                    .collect(),
                on_demand: od,
            },
            evaluation: b.eval,
            evaluations_performed: evaluations,
        },
        None => OptimizedPlan {
            plan: Plan::on_demand_only(od),
            evaluation: od_eval,
            evaluations_performed: evaluations,
        },
    }
}

/// The plan, its decision bits and its evaluation bits match.
fn assert_bits_identical(want: &OptimizedPlan, got: &OptimizedPlan, label: &str) {
    assert_eq!(want.plan, got.plan, "{label}: plan diverged");
    let bits = |p: &Plan| -> Vec<u64> {
        p.groups
            .iter()
            .flat_map(|(_, d)| [d.bid.to_bits(), d.ckpt_interval.to_bits()])
            .collect()
    };
    assert_eq!(bits(&want.plan), bits(&got.plan), "{label}: decision bits");
    let fields = |e: &Evaluation| {
        [
            e.expected_cost,
            e.expected_time,
            e.p_all_fail,
            e.expected_spot_cost,
            e.expected_od_cost,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(
        fields(&want.evaluation),
        fields(&got.evaluation),
        "{label}: evaluation bits"
    );
}

/// The counters one traced search reported.
fn traced(events: &[Event]) -> Counts {
    let mut out = Counts::default();
    for e in events {
        if let Event::PlanSearchStarted {
            options_considered,
            options_pruned,
            options_dominated,
            profiles_swept,
            profiles_shared,
            ..
        } = e
        {
            out = Counts {
                considered: *options_considered,
                pruned: *options_pruned,
                dominated: *options_dominated,
                grid_points: profiles_swept + profiles_shared,
                equal_admission: *profiles_shared,
            };
        }
    }
    out
}

/// Plan `view` at `cfg` and compare with the search over the collapsed
/// reference options, bit for bit: plan, evaluation, evaluation count
/// and counters. Returns the reference's counts.
pub fn check_collapsed(
    tag: &str,
    problem: &Problem,
    view: &MarketView,
    cfg: OptimizerConfig,
) -> Counts {
    let (options, counts) = reference_options(problem, view, &cfg, true);
    let want = reference_search(problem, &cfg, &options);
    let ring = RingRecorder::new(TraceLevel::Summary, 16);
    let got = TwoLevelOptimizer::new(problem, view, cfg)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .expect("candidates in view");
    assert_bits_identical(&want, &got, tag);
    assert_eq!(
        want.evaluations_performed, got.evaluations_performed,
        "{tag}: evaluation count"
    );
    assert_eq!(traced(&ring.take()), counts, "{tag}: counters");
    counts
}

/// Plan `view` at `cfg` and compare with the search over the
/// *uncollapsed* reference options: plan and evaluation bits only. A
/// shared bid's options are enumerated next to its twin's there, so the
/// exhaustive walk evaluates more candidates and drops none as
/// dominated; the evaluation count and `options_dominated` are left out.
pub fn check_uncollapsed(tag: &str, problem: &Problem, view: &MarketView, cfg: OptimizerConfig) {
    let (raw, _) = reference_options(problem, view, &cfg, false);
    let want = reference_search(problem, &cfg, &raw);
    let got = TwoLevelOptimizer::new(problem, view, cfg)
        .optimize()
        .expect("candidates in view");
    assert_bits_identical(&want, &got, tag);
}
