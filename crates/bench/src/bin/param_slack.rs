//! Section 5.2 parameter study — Slack.
//!
//! The deadline is fixed at Baseline Time (the paper fixes "the deadline
//! for the on-demand execution as Baseline Time") and the slack reserved
//! for checkpoint/recovery in on-demand selection is swept. Expected
//! shape: cost falls as slack rises toward ~20%, then plateaus; execution
//! time grows and saturates around 1.16× Baseline Time.

use mpi_sim::npb::NpbKernel;
use replay::ExecContext;
use sompi_bench::{build_problem, monte_carlo, npb_workload, planning_view, stress_market, Table};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = stress_market(20140810, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    // Deadline 1.3x Baseline Time, chosen so the sweep straddles the
    // c3.xlarge/cc2.8xlarge on-demand boundary (T_c3 = 1.18x baseline):
    // small slacks admit the cheaper-but-slower c3 fallback, larger
    // slacks force the fast cc2 fallback and reserve real recovery
    // headroom.
    let problem = build_problem(&market, &profile, 0.30);
    let view = planning_view(&market);

    println!("Slack study (BT on the stress market, deadline = 1.3 x Baseline Time)\n");
    let mut t = Table::new(["slack", "norm. cost", "norm. time", "dl met"]);
    for slack in [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
        let sompi = Sompi {
            config: OptimizerConfig {
                kappa: 3,
                bid_levels: 10,
                slack,
                ..Default::default()
            },
        };
        let plan = sompi
            .plan(&problem, &view, &mut PlanContext::new())
            .expect("plan succeeds");
        let mc = monte_carlo(&market, problem.deadline + 6.0, 6000);
        let r = mc
            .run_plan(&market, &plan, problem.deadline, &ExecContext::new())
            .expect("replay succeeds");
        t.row([
            format!("{:.0}%", slack * 100.0),
            format!("{:.3}", r.cost.mean / problem.baseline_cost_billed()),
            format!("{:.3}", r.time.mean / problem.baseline_time()),
            format!("{:.0}%", r.deadline_rate * 100.0),
        ]);
    }
    t.print();
    println!("\n(Paper: cost stops improving past slack = 20%, time saturates ~1.16x.)");
}
