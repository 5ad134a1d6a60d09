//! Quickstart: optimize and execute one MPI job on a simulated EC2 spot
//! market.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The pipeline, end to end:
//! 1. build the 2014-calibrated market (5 instance types × 3 zones),
//! 2. profile an NPB BT (CLASS B, 128 processes) workload,
//! 3. let SOMPI choose circle groups, bid prices and checkpoint intervals
//!    under a deadline,
//! 4. replay the plan against the realized spot prices and compare the
//!    bill with the pure on-demand baseline.

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::PlanRunner;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{OnDemandOnly, Sompi};
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;

fn main() {
    // 1. Market: two weeks of synthetic spot history, deterministic seed.
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    let market = SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, 42),
        336.0,
        1.0 / 12.0,
    );

    // 2. Application: BT.B on 128 ranks, repeated 200x (the paper scales
    //    each kernel to a long-running job this way).
    let app = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    println!("application: {} ({} processes)", app.name, app.processes);

    // 3. Problem: deadline 1.5x the fastest on-demand execution.
    let mut problem = Problem::build(&market, &app, f64::MAX, None, S3Store::paper_2014());
    problem.deadline = problem.baseline_time() * 1.5;
    println!(
        "baseline: {:.2} h on {} (${:.2} billed), deadline {:.2} h",
        problem.baseline_time(),
        market.catalog().get(problem.baseline().instance_type).name,
        problem.baseline_cost_billed(),
        problem.deadline
    );

    // 4. Optimize against the first two days of history.
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let sompi = Sompi {
        config: OptimizerConfig::default(),
    };
    let plan = sompi
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("plan succeeds");
    println!(
        "\nSOMPI plan ({} circle groups):",
        plan.replication_degree()
    );
    for (group, decision) in &plan.groups {
        let ty = market.instance_type(group.id);
        println!(
            "  {} x{:<3} bid ${:.4}/h  checkpoint every {:.2} h  (T_i = {:.2} h)",
            ty.name, group.instances, decision.bid, decision.ckpt_interval, group.exec_hours
        );
    }
    println!(
        "  on-demand fallback: {} x{}",
        market.catalog().get(plan.on_demand.instance_type).name,
        plan.on_demand.instances
    );

    // 5. Replay against the realized market from a few start offsets.
    let runner = PlanRunner::new(&market, problem.deadline);
    let od_plan = OnDemandOnly
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("plan succeeds");
    println!("\nreplay (start offset -> SOMPI bill vs on-demand bill):");
    let mut sompi_total = 0.0;
    let mut od_total = 0.0;
    for i in 0..5 {
        let start = 60.0 + i as f64 * 50.0;
        let ctx = replay::ExecContext::new();
        let s = runner.run(&plan, start, &ctx).expect("replay succeeds");
        let o = runner.run(&od_plan, start, &ctx).expect("replay succeeds");
        sompi_total += s.total_cost;
        od_total += o.total_cost;
        println!(
            "  t={:>5.1} h   ${:>6.2} ({}, {:.2} h)   vs ${:>6.2}",
            start,
            s.total_cost,
            if s.met_deadline { "met" } else { "missed" },
            s.wall_hours,
            o.total_cost,
        );
    }
    println!(
        "\naverage saving vs on-demand: {:.0}%",
        (1.0 - sompi_total / od_total) * 100.0
    );
}
