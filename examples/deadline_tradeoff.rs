//! How much does urgency cost? Sweep the deadline for one application and
//! print the cost/deadline frontier plus the instance-type mix SOMPI picks
//! at each point (the paper's Figure 7 scenario, as a user would consume
//! it).
//!
//! ```bash
//! cargo run --release --example deadline_tradeoff [BT|SP|LU|FT|IS|BTIO]
//! ```

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::PlanRunner;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;

fn main() {
    let kernel = match std::env::args().nth(1).as_deref() {
        Some("SP") => NpbKernel::Sp,
        Some("LU") => NpbKernel::Lu,
        Some("FT") => NpbKernel::Ft,
        Some("IS") => NpbKernel::Is,
        Some("BTIO") => NpbKernel::Btio,
        _ => NpbKernel::Bt,
    };

    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    let market = SpotMarket::generate(catalog, &TraceGenerator::new(profile, 7), 400.0, 1.0 / 12.0);
    let app = kernel.profile(NpbClass::B, 128).repeated(200);
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let sompi = Sompi {
        config: OptimizerConfig::default(),
    };

    let base = Problem::build(&market, &app, f64::MAX, None, S3Store::paper_2014());
    println!(
        "{}: baseline {:.2} h / ${:.2} billed on {}\n",
        app.name,
        base.baseline_time(),
        base.baseline_cost_billed(),
        market.catalog().get(base.baseline().instance_type).name
    );
    println!(
        "{:<10} {:>10} {:>8} {:>8}  spot mix",
        "deadline", "avg bill", "saving", "met"
    );
    for headroom in [0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.00] {
        let mut problem = base.clone();
        problem.deadline = base.baseline_time() * (1.0 + headroom);
        let plan = sompi
            .plan(&problem, &view, &mut PlanContext::new())
            .expect("plan succeeds");
        let runner = PlanRunner::new(&market, problem.deadline);
        let mut total = 0.0;
        let mut met = 0;
        let n = 12;
        for i in 0..n {
            let out = runner
                .run(&plan, 50.0 + i as f64 * 25.0, &replay::ExecContext::new())
                .expect("replay succeeds");
            total += out.total_cost;
            met += out.met_deadline as usize;
        }
        let avg = total / n as f64;
        let mut mix: Vec<String> = plan
            .groups
            .iter()
            .map(|(g, _)| market.instance_type(g.id).name.clone())
            .collect();
        mix.sort();
        mix.dedup();
        println!(
            "+{:<8} {:>9.2}$ {:>7.0}% {:>7}/{n}  {}",
            format!("{:.0}%", headroom * 100.0),
            avg,
            (1.0 - avg / base.baseline_cost_billed()) * 100.0,
            met,
            mix.join(",")
        );
    }
    println!("\nLooser deadlines let SOMPI shift from the fast expensive types to");
    println!("slow cheap ones — the staircase of the paper's Figure 7.");
}
