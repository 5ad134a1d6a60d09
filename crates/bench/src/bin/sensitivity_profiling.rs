//! Sensitivity to inaccurate execution-time profiling (the paper's
//! Section 5.3.1 remark / technical-report Appendix B study).
//!
//! The paper: *"Marathe, Marathe-Opt and SOMPI are all sensitive to the
//! accuracy of estimated execution time … our proposed method can still
//! outperform other algorithms when the estimated execution time is
//! inaccurate."*
//!
//! Protocol: perturb every `T_i`/`T_d` the planner sees by a relative
//! error ε (the market and the *actual* replayed execution stay truthful),
//! and measure the replayed cost of each strategy's plan.

use mpi_sim::npb::NpbKernel;
use replay::ExecContext;
use sompi_bench::{
    build_problem, monte_carlo, npb_workload, paper_market, planning_view, Table, LOOSE,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{MaratheOpt, Sompi};
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;

/// The planner believes execution times are `(1 + eps) ×` reality.
fn misprofiled(problem: &Problem, eps: f64) -> Problem {
    let mut p = problem.clone();
    for c in &mut p.candidates {
        c.exec_hours *= 1.0 + eps;
    }
    for od in &mut p.on_demand {
        od.exec_hours *= 1.0 + eps;
    }
    p
}

fn main() {
    let market = paper_market(20140818, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    let truth = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 3,
            bid_levels: 10,
            ..Default::default()
        },
    };

    println!("Profiling-error sensitivity (BT, loose deadline)\n");
    println!("The planner sees T_i x (1+eps); replay uses the true times.\n");
    let mut t = Table::new([
        "profiling error",
        "Marathe-Opt norm.",
        "SOMPI norm.",
        "SOMPI dl met",
    ]);
    for eps in [-0.3, -0.15, 0.0, 0.15, 0.3] {
        let believed = misprofiled(&truth, eps);
        let mut cells = vec![format!("{:+.0}%", eps * 100.0)];
        let mut sompi_dl = 0.0;
        for (i, strat) in [&MaratheOpt as &dyn Policy, &sompi as &dyn Policy]
            .iter()
            .enumerate()
        {
            // Plan against the *misprofiled* problem…
            let plan = strat
                .plan(&believed, &view, &mut PlanContext::new())
                .expect("plan succeeds");
            // …but replay against reality: rebuild the plan's groups with
            // true execution times (the bids/intervals are the decisions).
            let mut real_plan = plan.clone();
            for (g, _) in &mut real_plan.groups {
                if let Some(truth_g) = truth.candidate(g.id) {
                    g.exec_hours = truth_g.exec_hours;
                }
            }
            if let Some(od) = truth
                .on_demand
                .iter()
                .find(|o| o.instance_type == real_plan.on_demand.instance_type)
            {
                real_plan.on_demand = *od;
            }
            let mc = monte_carlo(&market, truth.deadline + 6.0, 7777);
            let r = mc
                .run_plan(&market, &real_plan, truth.deadline, &ExecContext::new())
                .expect("replay succeeds");
            cells.push(format!("{:.3}", r.cost.mean / truth.baseline_cost_billed()));
            if i == 1 {
                sompi_dl = r.deadline_rate;
            }
        }
        cells.push(format!("{:.0}%", sompi_dl * 100.0));
        t.row(cells);
    }
    t.print();
    println!("\n(Paper: all methods are sensitive to profiling accuracy, but SOMPI");
    println!(" keeps its lead under misestimation — check that the SOMPI column");
    println!(" stays below Marathe-Opt across the error range.)");
}
