//! Figure 7 — monetary cost vs deadline requirement for BT, FT and BTIO.
//!
//! The x-axis is the deadline headroom over Baseline Time (the paper plots
//! `Deadline − Baseline Time`); loose/tight of the other experiments are
//! 0.50/0.05. Expected shape: cost staircases downward as the deadline
//! loosens, with jumps where the optimizer switches to a cheaper (slower)
//! instance type — the arrows in the paper's figure. BT reaches ≈70% off,
//! FT saturates around +10% headroom at ≈50% off (cc2.8xlarge is optimal
//! for communication-bound codes regardless), BTIO saturates by +20%.

use mpi_sim::npb::NpbKernel;
use sompi_bench::{
    build_problem, evaluate_strategy, npb_workload, paper_market, planning_view, Table,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140808, 400.0);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 4,
            bid_levels: 10,
            ..Default::default()
        },
    };

    for kernel in [NpbKernel::Bt, NpbKernel::Ft, NpbKernel::Btio] {
        let profile = npb_workload(kernel);
        println!("\nFigure 7 — {kernel}: normalized cost vs deadline headroom\n");
        let mut t = Table::new(["headroom", "norm. cost", "dl met", "plan (types used)"]);
        let mut prev_types = String::new();
        for pct in [0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50] {
            let problem = build_problem(&market, &profile, pct);
            let r = evaluate_strategy(&sompi, &problem, &market, 4000);
            // Re-derive the plan to describe the chosen types.
            let view = planning_view(&market);
            let plan = sompi
                .plan(&problem, &view, &mut PlanContext::new())
                .expect("plan succeeds");
            let mut types: Vec<String> = plan
                .groups
                .iter()
                .map(|(g, _)| market.instance_type(g.id).name.clone())
                .collect();
            types.sort();
            types.dedup();
            let od_name = market
                .catalog()
                .get(plan.on_demand.instance_type)
                .name
                .clone();
            let desc = format!("spot[{}] od[{}]", types.join(","), od_name);
            let marker = if desc != prev_types {
                "  <- switch"
            } else {
                ""
            };
            prev_types = desc.clone();
            t.row([
                format!("+{:.0}%", pct * 100.0),
                format!("{:.3}", r.cost.mean / problem.baseline_cost_billed()),
                format!("{:.0}%", r.deadline_rate * 100.0),
                format!("{desc}{marker}"),
            ]);
        }
        t.print();
    }
    println!("\n(The '<- switch' markers are the paper's arrows: points where the");
    println!(" optimizer changes the instance type mix as the deadline loosens.)");
}
