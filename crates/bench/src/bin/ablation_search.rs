//! Section 4.2.2 ablation — the search-space reductions, measured.
//!
//! The paper's example: naive search `(P × T)^K ≈ 10^16`; dimension
//! reduction (`F = φ(P)`, Theorem 1) removes the interval axis; the
//! logarithmic grid shrinks bids to `(log₂ H)^K ≈ 2000`. Here we measure
//! actual evaluation counts, wall time, *and solution quality* (model
//! expected cost and replayed cost) so the "reduction preserves
//! optimality" claim is tested, not assumed.

use mpi_sim::npb::NpbKernel;
use replay::ExecContext;
use sompi_bench::{
    build_problem, monte_carlo, npb_workload, paper_market, planning_view, Table, LOOSE,
};
use sompi_core::twolevel::{GridKind, OptimizerConfig, TwoLevelOptimizer};
use std::time::Instant;

fn main() {
    let market = paper_market(20140815, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    let variants: Vec<(&str, OptimizerConfig)> = vec![
        (
            "exhaustive-ish (interval grid 8, uniform bids)",
            OptimizerConfig {
                kappa: 2,
                bid_levels: 8,
                grid: GridKind::Uniform,
                interval_grid: Some(8),
                top_margin: None,
                ..Default::default()
            },
        ),
        (
            "+ Theorem 1 (F = phi(P), uniform bids)",
            OptimizerConfig {
                kappa: 2,
                bid_levels: 8,
                grid: GridKind::Uniform,
                top_margin: None,
                ..Default::default()
            },
        ),
        (
            "+ logarithmic bid grid (full SOMPI)",
            OptimizerConfig {
                kappa: 2,
                bid_levels: 8,
                grid: GridKind::Logarithmic,
                top_margin: None,
                ..Default::default()
            },
        ),
    ];

    println!("Search-space ablation (BT, loose deadline, kappa = 2)\n");
    let mut t = Table::new([
        "configuration",
        "plan evals",
        "opt time",
        "E[cost] $",
        "replayed $",
    ]);
    for (name, cfg) in variants {
        let started = Instant::now();
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        let mc = monte_carlo(&market, problem.deadline + 6.0, 1234);
        let r = mc
            .run_plan(&market, &opt.plan, problem.deadline, &ExecContext::new())
            .expect("replay succeeds");
        t.row([
            name.to_string(),
            format!("{}", opt.evaluations_performed),
            format!("{elapsed:.2}s"),
            format!("{:.2}", opt.evaluation.expected_cost),
            format!("{:.2}", r.cost.mean),
        ]);
    }
    t.print();
    println!("\nTheorem 1 and the logarithmic grid should cut evaluations by ~an order");
    println!("of magnitude each while losing little or no replayed-cost quality —");
    println!("that is the paper's 10^16 -> 10^8 -> ~2000 narrative in miniature.");
}
