//! Exactness of the search-pruning stages: with dominance collapse and
//! branch-and-bound enabled, alone or together, the optimizer must return
//! the *same* optimal plan and evaluation as the exhaustive odometer
//! walk — on every market, and again when the search repeats.
//!
//! `evaluations_performed` is deliberately not compared between pruned
//! and exhaustive runs: dominance collapse shrinks the enumerated space
//! itself (fewer per-group options), so the raw size differs while the
//! optimum does not.

use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
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

/// Every ablation of the pruning stages, exhaustive first.
fn ablations(base: OptimizerConfig) -> Vec<(&'static str, OptimizerConfig)> {
    vec![
        (
            "exhaustive",
            OptimizerConfig {
                prune_dominance: false,
                prune_bound: false,
                ..base
            },
        ),
        (
            "dominance-only",
            OptimizerConfig {
                prune_dominance: true,
                prune_bound: false,
                ..base
            },
        ),
        (
            "bound-only",
            OptimizerConfig {
                prune_dominance: false,
                prune_bound: true,
                ..base
            },
        ),
        ("full", base),
    ]
}

/// Pruned and exhaustive searches agree on the optimum — plan, bids,
/// checkpoint intervals, on-demand fallback, and the full evaluation —
/// for every pruning ablation, on two runs of each.
fn assert_prune_exact(problem: &Problem, view: &MarketView, cfg: OptimizerConfig) {
    let reference = TwoLevelOptimizer::new(
        problem,
        view,
        OptimizerConfig {
            prune_dominance: false,
            prune_bound: false,
            ..cfg
        },
    )
    .optimize()
    .unwrap();
    assert!(reference.evaluations_performed > 0);
    for (name, ablation) in ablations(cfg) {
        for run in 0..2 {
            let pruned = TwoLevelOptimizer::new(problem, view, ablation)
                .optimize()
                .unwrap();
            assert_eq!(
                pruned.plan, reference.plan,
                "{name} (run {run}) changed the optimal plan"
            );
            assert_eq!(
                pruned.evaluation, reference.evaluation,
                "{name} (run {run}) changed the optimal evaluation"
            );
        }
    }
}

#[test]
fn paper_scale_market_prunes_exactly() {
    let (problem, view) = problem_on(13, NpbKernel::Bt, 3.0);
    assert_prune_exact(
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
