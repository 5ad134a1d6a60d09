//! Exactness of the search pruning (DESIGN.md §8): the optimizer's bid
//! collapse, branch-and-bound and early subset rejection must return the
//! *same* optimal plan and evaluation as an exhaustive walk, on every
//! market.
//!
//! The exhaustive walk is the independent reference shared with
//! `tests/assess_differential.rs` (`tests/reference/mod.rs` at the
//! workspace root), built from public pieces only. Over the collapsed
//! reference options the plan, evaluation, evaluation count and
//! `PlanSearchStarted` counters must match bit for bit. Over the
//! uncollapsed ones the plan and evaluation must; the evaluation count
//! is left out there, because the collapse shrinks the enumerated space
//! itself (fewer per-group options) while the optimum stays.

#[path = "../../../tests/reference/mod.rs"]
mod reference;

use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use reference::{check_collapsed, check_uncollapsed};
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::{MarketView, Problem};

fn problem_on(seed: u64, kernel: NpbKernel, deadline: f64) -> (Problem, MarketView) {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 200.0, 1.0 / 12.0);
    let profile = kernel.profile(NpbClass::B, 128).repeated(200);
    let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).unwrap())
        .collect();
    let problem = Problem::build(
        &market,
        &profile,
        deadline,
        Some(&types),
        S3Store::paper_2014(),
    );
    let view = MarketView::from_market(&market, 0.0, 48.0);
    (problem, view)
}

/// The pruned search agrees with the exhaustive walk over the collapsed
/// and over the uncollapsed reference options.
fn assert_prune_exact(label: &str, problem: &Problem, view: &MarketView, cfg: OptimizerConfig) {
    check_collapsed(&format!("{label}, collapsed"), problem, view, cfg);
    check_uncollapsed(&format!("{label}, uncollapsed"), problem, view, cfg);
}

#[test]
fn paper_scale_market_prunes_exactly() {
    let (problem, view) = problem_on(13, NpbKernel::Bt, 3.0);
    assert_prune_exact(
        "paper scale",
        &problem,
        &view,
        OptimizerConfig {
            kappa: 3,
            bid_levels: 6,
            ..OptimizerConfig::default()
        },
    );
}

#[test]
fn second_market_prunes_exactly() {
    let (problem, view) = problem_on(31, NpbKernel::Sp, 2.5);
    assert_prune_exact(
        "second market",
        &problem,
        &view,
        OptimizerConfig {
            kappa: 2,
            bid_levels: 8,
            ..OptimizerConfig::default()
        },
    );
}

#[test]
fn third_market_prunes_exactly() {
    let (problem, view) = problem_on(97, NpbKernel::Lu, 2.0);
    assert_prune_exact(
        "third market",
        &problem,
        &view,
        OptimizerConfig {
            kappa: 3,
            bid_levels: 5,
            ..OptimizerConfig::default()
        },
    );
}

/// Tight deadlines drive the search into the infeasible regime where the
/// incumbent order falls back to cheapest-in-expectation; pruning must
/// not disturb that path either.
#[test]
fn infeasible_regime_prunes_exactly() {
    let (mut problem, view) = problem_on(13, NpbKernel::Bt, 3.0);
    problem.deadline = 0.05;
    assert_prune_exact(
        "infeasible regime",
        &problem,
        &view,
        OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..OptimizerConfig::default()
        },
    );
}

/// The Theorem 1 ablation (interval grids) multiplies per-slot options;
/// the bound and dominance stages must stay exact there too.
#[test]
fn interval_grid_prunes_exactly() {
    let (problem, view) = problem_on(31, NpbKernel::Bt, 3.0);
    assert_prune_exact(
        "interval grid",
        &problem,
        &view,
        OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            interval_grid: Some(3),
            ..OptimizerConfig::default()
        },
    );
}

/// κ 4, the κ the benchmark and the CLI plan with, on the market and
/// job whose κ 4 search walks the most: the subset cursor rejects
/// prefixes of up to three groups in bulk, the walk carries over up to
/// four slots, and the floor rejects by its spot part alone.
#[test]
fn production_kappa_prunes_exactly() {
    use sompi_core::PlanContext;
    use sompi_obs::{Event, RingRecorder, TraceLevel};

    let (problem, view) = problem_on(42, NpbKernel::Sp, 2.5);
    let cfg = OptimizerConfig {
        kappa: 4,
        bid_levels: 3,
        ..OptimizerConfig::default()
    };
    assert_prune_exact("κ 4", &problem, &view, cfg);
    let ring = RingRecorder::new(TraceLevel::Detail, 8);
    TwoLevelOptimizer::new(&problem, &view, cfg)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    let events = ring.take();
    let Some(&Event::SubsetEvaluated {
        subsets_prefix_rejected,
        rank_steps,
        floor_checks,
        floor_spot_rejections,
        ..
    }) = events.get(1)
    else {
        panic!("SubsetEvaluated second: {events:?}");
    };
    assert!(
        subsets_prefix_rejected > 0 && rank_steps > floor_checks && floor_spot_rejections > 0,
        "{:?}",
        events[1]
    );
}
