//! Strong-scaling a real application: LAMMPS at 32–256 processes on a
//! fixed problem size (the paper's Section 5.3.1 real-world study).
//!
//! As the process count grows, per-rank work shrinks while the halo
//! surface and per-step latency don't — the run turns from
//! computation-intensive into communication-intensive, and SOMPI's
//! instance choice flips from cheap m1 fleets to cc2.8xlarge.
//!
//! ```bash
//! cargo run --release --example lammps_scaling
//! ```

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::cluster::ClusterSpec;
use mpi_sim::lammps::Lammps;
use mpi_sim::storage::S3Store;
use replay::PlanRunner;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;

fn main() {
    let catalog = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&catalog);
    let market = SpotMarket::generate(catalog, &TraceGenerator::new(prof, 99), 400.0, 1.0 / 12.0);
    let lammps = Lammps::paper();
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let sompi = Sompi {
        config: OptimizerConfig::default(),
    };

    println!(
        "LAMMPS melt: {} atoms, {} timesteps, fixed problem size\n",
        lammps.atoms, lammps.timesteps
    );
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>9}  spot mix",
        "procs", "comm frac", "baseline", "avg bill", "saving"
    );

    for procs in [32u32, 64, 128, 256] {
        let app = lammps.profile(procs).repeated(20);
        // Communication share on the m1.small fleet (1 rank/instance).
        let cat = market.catalog();
        let small = cat.by_name("m1.small").unwrap();
        let breakdown = ClusterSpec::for_processes(cat, small, procs).estimate(cat, &app);

        let mut problem = Problem::build(&market, &app, f64::MAX, None, S3Store::paper_2014());
        problem.deadline = problem.baseline_time() * 1.5;
        let plan = sompi
            .plan(&problem, &view, &mut PlanContext::new())
            .expect("plan succeeds");
        let runner = PlanRunner::new(&market, problem.deadline);
        let mut total = 0.0;
        let n = 10;
        for i in 0..n {
            total += runner
                .run(&plan, 50.0 + 30.0 * i as f64, &replay::ExecContext::new())
                .expect("replay succeeds")
                .total_cost;
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
            "{procs:>6} {:>9.0}% {:>8.2} h {:>9.2}$ {:>8.0}%  {}",
            breakdown.comm_fraction() * 100.0,
            problem.baseline_time(),
            avg,
            (1.0 - avg / problem.baseline_cost_billed()) * 100.0,
            mix.join(",")
        );
    }
    println!("\nThe communication share climbs with the process count; once it");
    println!("dominates, only cc2.8xlarge (10 GbE + shared memory) is competitive");
    println!("and the cost reduction shrinks — the paper's LAMMPS observation.");
}
