//! Differential suite for single-sweep assessment (DESIGN.md,
//! "Single-sweep bid profiles"): the optimizer sweeps each (group, bid)
//! once, derives φ and every assessment from that one profile, and shares
//! the options of grid bids that admit the same price samples. None of
//! that may change a single bit of the answer.
//!
//! The reference (`tests/reference/mod.rs`) is assembled bid by bid
//! from public pieces only, and its exhaustive walk under the
//! optimizer's total candidate order is the only unpruned search in the
//! workspace, so it is also what the optimizer's bid collapse,
//! branch-and-bound and early subset rejection (DESIGN.md §8) answer
//! to. Every `OptimizedPlan` and `Evaluation` field must match it
//! bit for bit, and the `PlanSearchStarted` counters must match the
//! reference's counts, across three markets × interval grid {φ, 4
//! points} over 20 sliding windows at κ 2, over 6 at κ 3, and at a
//! deadline no option meets. Over the reference's *uncollapsed* options
//! the plan and evaluation must still match.
//!
//! This suite covers the layer above the sweep — horizon truncation,
//! equal-admission sharing and the search — not the
//! sweep itself: `failure_rate_exact` and `expected_launch_delay` read
//! `FailureEstimator::bid_profile` too, and `ExpectedSpotPrice` is the
//! same run-based table the optimizer reads. The sweep and the table are
//! pinned bit for bit by `ec2-market`'s own tests against per-sample
//! oracles (the sorted-sample table, the per-sample sweep,
//! `estimate_by_scan`, `count_by_carry`, `launch_delay_by_scan`), and
//! `tests/plan_golden.rs` pins whole plan reports.

mod reference;

use reference::{check_collapsed, check_uncollapsed};
use sompi_bench::{
    build_problem, lammps_workload, npb_workload, paper_market, stress_market, HISTORY_HOURS,
    PROCESSES, TIGHT,
};
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use sompi_core::Problem;

const WINDOWS: usize = 20;
const STEP_HOURS: f64 = 2.0;

/// The three study markets of the other differential suites, each with
/// one sliding 48 h view per window.
fn studies() -> Vec<(&'static str, Problem, Vec<MarketView>)> {
    let horizon = HISTORY_HOURS + 2.0 + WINDOWS as f64 * STEP_HOURS + 10.0;
    let views = |market: &ec2_market::market::SpotMarket| -> Vec<MarketView> {
        (0..WINDOWS)
            .map(|i| {
                let now = HISTORY_HOURS + 1.0 + i as f64 * STEP_HOURS;
                MarketView::from_market(market, now - HISTORY_HOURS, HISTORY_HOURS)
            })
            .collect()
    };
    let bt = paper_market(42, horizon);
    let ft = stress_market(20140816, horizon);
    let lammps = paper_market(7, horizon);
    vec![
        (
            "paper/BT",
            build_problem(&bt, &npb_workload(mpi_sim::npb::NpbKernel::Bt), TIGHT),
            views(&bt),
        ),
        (
            "stress/FT",
            build_problem(&ft, &npb_workload(mpi_sim::npb::NpbKernel::Ft), TIGHT),
            views(&ft),
        ),
        (
            "paper/LAMMPS",
            build_problem(&lammps, &lammps_workload(PROCESSES), TIGHT),
            views(&lammps),
        ),
    ]
}

/// Plan every window at `cfg` and compare with the search over the
/// collapsed reference options, bit for bit: plan, evaluation,
/// evaluation count and counters.
fn run_study(label: &str, problem: &Problem, views: &[MarketView], cfg: OptimizerConfig) {
    let mut shared = 0u64;
    for (w, view) in views.iter().enumerate() {
        let tag = format!("{label} κ {} window {w}", cfg.kappa);
        shared += check_collapsed(&tag, problem, view, cfg).equal_admission;
    }
    assert!(shared > 0, "{label}: no grid bid shared its options");
}

/// The φ and interval-grid configurations at κ.
fn configs(kappa: usize) -> [(&'static str, OptimizerConfig); 2] {
    [
        (
            "",
            OptimizerConfig {
                kappa,
                bid_levels: 8,
                ..Default::default()
            },
        ),
        (
            "+grid",
            OptimizerConfig {
                kappa,
                bid_levels: 4,
                interval_grid: Some(4),
                ..Default::default()
            },
        ),
    ]
}

#[test]
fn assessments_match_the_per_bid_reference_with_phi() {
    let [(_, cfg), _] = configs(2);
    for (label, problem, views) in &studies() {
        run_study(label, problem, views, cfg);
    }
}

#[test]
fn assessments_match_the_per_bid_reference_on_the_interval_grid() {
    let [_, (suffix, cfg)] = configs(2);
    for (label, problem, views) in &studies() {
        run_study(&format!("{label}{suffix}"), problem, views, cfg);
    }
}

#[test]
fn assessments_match_the_per_bid_reference_at_kappa_3() {
    // Three-group subsets give the bound and the early rejection the most
    // to skip; a loose deadline (3× the baseline) keeps many more options
    // than the studies' tight one.
    let [(_, phi), (suffix, grid)] = configs(3);
    for (label, problem, views) in &studies() {
        run_study(label, problem, &views[..6], phi);
        run_study(&format!("{label}{suffix}"), problem, &views[..6], grid);
        let loose = Problem {
            deadline: 3.0 * problem.baseline_time(),
            ..problem.clone()
        };
        run_study(&format!("{label} ×3"), &loose, &views[..6], phi);
    }
}

#[test]
fn assessments_match_the_per_bid_reference_at_a_hopeless_deadline() {
    // Every group's run time is past a 0.05 h deadline: no option
    // survives, and the answer is the on-demand fallback.
    for (label, problem, views) in &studies() {
        let problem = Problem {
            deadline: 0.05,
            ..problem.clone()
        };
        for (suffix, cfg) in configs(3) {
            run_study(
                &format!("{label}{suffix} 0.05 h"),
                &problem,
                &views[..6],
                cfg,
            );
        }
    }
}

#[test]
fn assessments_match_the_per_bid_reference_without_the_collapse() {
    for (label, problem, views) in &studies() {
        for (kappa, windows) in [(2, WINDOWS), (3, 6)] {
            let [(_, cfg), _] = configs(kappa);
            for (w, view) in views[..windows].iter().enumerate() {
                check_uncollapsed(&format!("{label} κ {kappa} window {w}"), problem, view, cfg);
            }
        }
    }
}
