//! Section 5.2 parameter study — κ, the number of circle groups used
//! simultaneously.
//!
//! Expected shape (paper): beyond κ = 4 the monetary cost barely improves
//! while optimization overhead explodes (κ = 10 cost them 2× Baseline
//! Time in overhead; κ = 4 kept it under 1%).

use mpi_sim::npb::NpbKernel;
use replay::ExecContext;
use sompi_bench::{
    build_problem, monte_carlo, npb_workload, planning_view, stress_market, Table, LOOSE,
};
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use std::time::Instant;

fn main() {
    let market = stress_market(20140811, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    println!("Kappa study (BT, loose deadline)\n");
    let mut t = Table::new([
        "kappa",
        "norm. cost",
        "plan evals",
        "opt time (s)",
        "overhead %BT",
    ]);
    for kappa in 1..=6 {
        // Small grid: the study isolates the C(K,k)·L^k growth in κ;
        // deep grids at κ = 6 would take hours.
        let cfg = OptimizerConfig {
            kappa,
            bid_levels: 4,
            ..Default::default()
        };
        let started = Instant::now();
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .expect("problem candidates come from the same market");
        let elapsed = started.elapsed().as_secs_f64();
        let mc = monte_carlo(&market, problem.deadline + 6.0, 7000);
        let r = mc
            .run_plan(&market, &opt.plan, problem.deadline, &ExecContext::new())
            .expect("replay succeeds");
        t.row([
            format!("{kappa}"),
            format!("{:.3}", r.cost.mean / problem.baseline_cost_billed()),
            format!("{}", opt.evaluations_performed),
            format!("{elapsed:.2}"),
            format!("{:.2}%", elapsed / 3600.0 / problem.baseline_time() * 100.0),
        ]);
    }
    t.print();
    println!("\n(Paper default: kappa = 4 — past it, cost improvement is marginal");
    println!(" while the search space grows by C(K,k) * levels^k.)");
}
