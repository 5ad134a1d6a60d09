//! Section 5.4.1 — accuracy of the cost model (Formula 1) against
//! Monte-Carlo trace replay.
//!
//! For a spread of plans (different strategies and deadlines) we compare
//! the model's `E[Cost]` with the replayed mean cost. The paper reports
//! 20% of relative differences under 5%, 40% between 5% and 10%, and a
//! maximum of ~15%; the model is useful for *ranking* plans, not for
//! dollar-exact prediction.

use mpi_sim::npb::NpbKernel;
use replay::ExecContext;
use sompi_bench::{
    build_problem, monte_carlo, npb_workload, paper_market, planning_view, Table, LOOSE, TIGHT,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{Marathe, MaratheOpt, Sompi, SpotAvg};
use sompi_core::cost::evaluate_plan;
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140814, 400.0);
    let view = planning_view(&market);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 3,
            bid_levels: 10,
            ..Default::default()
        },
    };
    let strategies: Vec<(&str, &dyn Policy)> = vec![
        ("Marathe", &Marathe),
        ("Marathe-Opt", &MaratheOpt),
        ("Spot-Avg", &SpotAvg),
        ("SOMPI", &sompi),
    ];

    println!("Cost-model accuracy: Formula 1 vs Monte-Carlo replay\n");
    let mut t = Table::new([
        "app", "deadline", "strategy", "model $", "replay $", "rel diff",
    ]);
    let mut diffs = Vec::new();
    for kernel in [NpbKernel::Bt, NpbKernel::Ft, NpbKernel::Btio] {
        let profile = npb_workload(kernel);
        for (dname, headroom) in [("loose", LOOSE), ("tight", TIGHT)] {
            let problem = build_problem(&market, &profile, headroom);
            for (sname, strat) in &strategies {
                let plan = strat
                    .plan(&problem, &view, &mut PlanContext::new())
                    .expect("plan succeeds");
                let Ok(Some(eval)) = evaluate_plan(&plan, &view) else {
                    continue;
                };
                // Replay close to the training window: the paper's premise
                // is that the price distribution is stable over a *short*
                // horizon, so the model is only claimed valid there.
                let mut mc = monte_carlo(&market, problem.deadline + 6.0, 9000);
                mc.offset_max = mc.offset_min + 72.0;
                let r = mc
                    .run_plan(&market, &plan, problem.deadline, &ExecContext::new())
                    .expect("replay succeeds");
                let rel = (eval.expected_cost - r.cost.mean).abs() / r.cost.mean.max(1e-9);
                diffs.push(rel);
                t.row([
                    format!("{kernel}"),
                    dname.to_string(),
                    sname.to_string(),
                    format!("{:.2}", eval.expected_cost),
                    format!("{:.2}", r.cost.mean),
                    format!("{:.0}%", rel * 100.0),
                ]);
            }
        }
    }
    t.print();
    diffs.sort_by(|a, b| a.total_cmp(b));
    let below = |x: f64| diffs.iter().filter(|d| **d < x).count() as f64 / diffs.len() as f64;
    println!(
        "\nrelative differences: <5%: {:.0}%   5-10%: {:.0}%   max: {:.0}%",
        below(0.05) * 100.0,
        (below(0.10) - below(0.05)) * 100.0,
        diffs.last().unwrap() * 100.0
    );
    println!("(Paper: 20% below 5%, 40% in 5-10%, max ~15%. Differences come from");
    println!(" hourly billing granularity, launch waits, and window-vs-future drift.)");
}
