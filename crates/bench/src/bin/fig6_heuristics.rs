//! Figure 6 — comparison with simple spot heuristics: On-demand, Spot-Inf
//! (infinite bid, no fault tolerance), Spot-Avg (bid = average historical
//! price, no fault tolerance) and SOMPI, averaged per application class.
//!
//! Expected shape (paper): both Spot heuristics beat On-demand; SOMPI
//! beats both (28%/38% under loose, 20%/22% under tight); Spot-Inf has
//! much higher cost *variance* than SOMPI because infinite bids ride
//! through price spikes at full market price.

use mpi_sim::npb::NpbKernel;
use replay::montecarlo::McResult;
use sompi_bench::{
    build_problem, evaluate_strategy, npb_workload, paper_market, Table, LOOSE, TIGHT,
};
use sompi_core::baselines::{OnDemandOnly, Sompi, SpotAvg, SpotInf};
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140807, 400.0);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 4,
            bid_levels: 10,
            ..Default::default()
        },
    };
    let strategies: Vec<(&str, &dyn Policy)> = vec![
        ("On-demand", &OnDemandOnly),
        ("Spot-Inf", &SpotInf),
        ("Spot-Avg", &SpotAvg),
        ("SOMPI", &sompi),
    ];
    let classes: [(&str, &[NpbKernel]); 3] = [
        (
            "Computation",
            &[NpbKernel::Bt, NpbKernel::Sp, NpbKernel::Lu],
        ),
        ("Communication", &[NpbKernel::Ft, NpbKernel::Is]),
        ("IO", &[NpbKernel::Btio]),
    ];

    for (dl_name, headroom) in [("loose (+50%)", LOOSE), ("tight (+5%)", TIGHT)] {
        println!("\nFigure 6 — normalized cost vs heuristics, {dl_name} deadline\n");
        let mut t = Table::new(["class", "strategy", "norm. cost", "cost CV", "dl met"]);
        let mut class_means: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
        for (cname, kernels) in classes {
            for (si, (sname, strat)) in strategies.iter().enumerate() {
                let mut norm = 0.0;
                let mut cv = 0.0;
                let mut dl = 0.0;
                for kernel in kernels.iter() {
                    let profile = npb_workload(*kernel);
                    let problem = build_problem(&market, &profile, headroom);
                    let r: McResult =
                        evaluate_strategy(*strat, &problem, &market, 3000 + si as u64);
                    norm += r.cost.mean / problem.baseline_cost_billed();
                    cv += r.cost.cv();
                    dl += r.deadline_rate;
                }
                let n = kernels.len() as f64;
                class_means[si].push(norm / n);
                t.row([
                    cname.to_string(),
                    sname.to_string(),
                    format!("{:.3}", norm / n),
                    format!("{:.2}", cv / n),
                    format!("{:.0}%", dl / n * 100.0),
                ]);
            }
        }
        t.print();
        let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let s = avg(&class_means[3]);
        println!(
            "\nSOMPI vs Spot-Inf: {:.0}% cheaper; vs Spot-Avg: {:.0}% cheaper",
            (1.0 - s / avg(&class_means[1])) * 100.0,
            (1.0 - s / avg(&class_means[2])) * 100.0,
        );
        println!("(Paper: 28%/38% loose, 20%/22% tight; also expect Spot-Inf CV >> SOMPI CV.)");
    }
}
