//! Extension experiment — how much of the 2014 cost structure is an
//! artifact of hourly billing?
//!
//! AWS moved to per-second billing in 2017. We replay the same plans under
//! both billing models: whole-instance-hours with free provider-terminated
//! partial hours (2014) versus exact-duration charging (modern). The
//! out-of-bid "free partial hour" was a famous spot-market subsidy —
//! bidding low and getting reclaimed before the hour boundary could make
//! compute nearly free, and the optimizer's checkpoint/bid choices
//! implicitly leaned on it.

use ec2_market::billing::BillingModel;
use mpi_sim::npb::NpbKernel;
use replay::PlanRunner;
use sompi_bench::{
    build_problem, monte_carlo, npb_workload, paper_market, planning_view, Table, LOOSE, TIGHT,
};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{MaratheOpt, OnDemandOnly, Sompi};
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140816, 400.0);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 3,
            bid_levels: 10,
            ..Default::default()
        },
    };
    let strategies: Vec<(&str, &dyn Policy)> = vec![
        ("On-demand", &OnDemandOnly),
        ("Marathe-Opt", &MaratheOpt),
        ("SOMPI", &sompi),
    ];

    println!("Billing-model ablation: 2014 hourly vs modern per-second\n");
    for (dl_name, headroom) in [("loose", LOOSE), ("tight", TIGHT)] {
        let mut t = Table::new([
            "strategy",
            "app",
            "hourly $",
            "per-second $",
            "hourly premium",
        ]);
        for kernel in [NpbKernel::Bt, NpbKernel::Ft] {
            let profile = npb_workload(kernel);
            let problem = build_problem(&market, &profile, headroom);
            let view = planning_view(&market);
            for (name, strat) in &strategies {
                let plan = strat
                    .plan(&problem, &view, &mut PlanContext::new())
                    .expect("plan succeeds");
                let mc = monte_carlo(&market, problem.deadline + 6.0, 4321);
                let ctx = replay::ExecContext::new();
                let hourly = {
                    let runner = PlanRunner::new(&market, problem.deadline);
                    mc.evaluate(|s| runner.run(&plan, s, &ctx))
                        .expect("replay succeeds")
                };
                let exact = {
                    let runner = PlanRunner::new(&market, problem.deadline)
                        .with_billing(BillingModel::per_second());
                    mc.evaluate(|s| runner.run(&plan, s, &ctx))
                        .expect("replay succeeds")
                };
                t.row([
                    name.to_string(),
                    format!("{kernel}"),
                    format!("{:.2}", hourly.cost.mean),
                    format!("{:.2}", exact.cost.mean),
                    format!(
                        "{:+.0}%",
                        (hourly.cost.mean / exact.cost.mean - 1.0) * 100.0
                    ),
                ]);
            }
        }
        println!("{dl_name} deadline:");
        t.print();
        println!();
    }
    println!("Short executions are quantized up by hourly billing (positive premium);");
    println!("plans that die out-of-bid mid-hour enjoy the 2014 free-partial-hour");
    println!("subsidy (negative premium). Per-second billing removes both effects.");
}
