//! Differential suite for the subset search (DESIGN.md §14): across
//! three markets plus the interval-grid study, a repeated search must
//! select a plan — and `Evaluation` fields — bit-identical to the first.
//!
//! Each search is one walker under a total candidate order, so any
//! divergence here is an exactness bug, not floating-point noise.
//! The kernel itself is pinned against the scalar oracle in
//! `sompi_core::cost`'s unit tests.

use sompi_bench::{
    build_problem, lammps_workload, npb_workload, paper_market, planning_view, stress_market,
    PROCESSES, TIGHT,
};
use sompi_core::twolevel::{OptimizedPlan, OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_core::Problem;

/// The three study markets: the calibrated paper market, the drifting
/// stress market, and the paper market under the LAMMPS profile (a
/// different candidate geometry).
fn studies() -> Vec<(&'static str, Problem, MarketView)> {
    let mut out = Vec::new();
    {
        let market = paper_market(42, 200.0);
        let problem = build_problem(&market, &npb_workload(mpi_sim::npb::NpbKernel::Bt), TIGHT);
        let view = planning_view(&market);
        out.push(("paper/BT", problem, view));
    }
    {
        let market = stress_market(20140816, 200.0);
        let problem = build_problem(&market, &npb_workload(mpi_sim::npb::NpbKernel::Ft), TIGHT);
        let view = planning_view(&market);
        out.push(("stress/FT", problem, view));
    }
    {
        let market = paper_market(7, 200.0);
        let problem = build_problem(&market, &lammps_workload(PROCESSES), TIGHT);
        let view = planning_view(&market);
        out.push(("paper/LAMMPS", problem, view));
    }
    out
}

fn optimize(problem: &Problem, view: &MarketView, cfg: OptimizerConfig) -> OptimizedPlan {
    TwoLevelOptimizer::new(problem, view, cfg)
        .optimize()
        .expect("candidates are drawn from the view's market")
}

/// Bitwise comparison of every `Evaluation` field — stricter than the
/// `PartialEq` derive, which would let `-0.0 == 0.0` slide.
fn assert_bits_identical(a: &OptimizedPlan, b: &OptimizedPlan, label: &str) {
    assert_eq!(a.plan, b.plan, "{label}: plan diverged");
    let pairs = [
        (a.evaluation.expected_cost, b.evaluation.expected_cost),
        (a.evaluation.expected_time, b.evaluation.expected_time),
        (a.evaluation.p_all_fail, b.evaluation.p_all_fail),
        (
            a.evaluation.expected_spot_cost,
            b.evaluation.expected_spot_cost,
        ),
        (a.evaluation.expected_od_cost, b.evaluation.expected_od_cost),
    ];
    for (i, (x, y)) in pairs.iter().enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: evaluation field {i} diverged ({x} vs {y})"
        );
    }
    assert_eq!(
        a.evaluations_performed, b.evaluations_performed,
        "{label}: evaluation count diverged"
    );
}

fn run_grid(base: OptimizerConfig, problem: &Problem, view: &MarketView, market_label: &str) {
    let reference = optimize(problem, view, base);
    assert!(
        reference.evaluations_performed > 0,
        "{market_label}: empty search space tests nothing"
    );

    let again = optimize(problem, view, base);
    assert_bits_identical(&reference, &again, &format!("{market_label} repeated"));
}

#[test]
fn repeated_searches_are_bit_identical() {
    // A small κ 2 search, and the production κ 4 with 12 bid levels,
    // whose searches take the cursor's prefix rejection, the walk's carry
    // and the two-stage floor.
    for (label, problem, view) in &studies() {
        for (kappa, bid_levels) in [(2, 3), (4, 12)] {
            run_grid(
                OptimizerConfig {
                    kappa,
                    bid_levels,
                    ..Default::default()
                },
                problem,
                view,
                &format!("{label} κ {kappa}"),
            );
        }
    }
}

#[test]
fn interval_grid_study_is_bit_identical_too() {
    // The interval-grid ablation multiplies per-candidate work (every
    // checkpoint-interval grid point is a separate kernel call), so each
    // search walks far more candidates than at the φ(P) default.
    let (label, problem, view) = &studies()[0];
    run_grid(
        OptimizerConfig {
            kappa: 2,
            bid_levels: 2,
            interval_grid: Some(4),
            ..Default::default()
        },
        problem,
        view,
        &format!("{label}+grid"),
    );
}
