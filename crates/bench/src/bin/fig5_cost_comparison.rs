//! Figure 5 — monetary cost comparison against the state of the art:
//! On-demand, Marathe \[30\], Marathe-Opt and SOMPI across computation-,
//! communication- and IO-intensive NPB kernels plus LAMMPS at 32 and 128
//! processes, under loose (+50%) and tight (+5%) deadlines. Costs are
//! normalized to Baseline Cost (fastest on-demand execution).

use mpi_sim::npb::NpbKernel;
use sompi_bench::{
    build_problem, evaluate_strategy, lammps_workload, normalized, npb_workload, paper_market,
    Table, LOOSE, TIGHT,
};
use sompi_core::baselines::{Marathe, MaratheOpt, OnDemandOnly, Sompi};
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140805, 400.0);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 4,
            bid_levels: 10,
            ..Default::default()
        },
    };
    let strategies: Vec<&dyn Policy> = vec![&OnDemandOnly, &Marathe, &MaratheOpt, &sompi];

    let apps: Vec<(String, mpi_sim::profile::AppProfile)> = NpbKernel::ALL
        .iter()
        .map(|k| (format!("{k} ({})", k.class_label()), npb_workload(*k)))
        .chain([
            ("LAMMPS-32p".to_string(), lammps_workload(32)),
            ("LAMMPS-128p".to_string(), lammps_workload(128)),
        ])
        .collect();

    for (dl_name, headroom) in [("loose (+50%)", LOOSE), ("tight (+5%)", TIGHT)] {
        println!("\nFigure 5 — normalized monetary cost, {dl_name} deadline");
        println!("(1.0 = Baseline Cost: fastest on-demand execution)\n");
        let mut t = Table::new([
            "application",
            "On-demand",
            "Marathe",
            "Marathe-Opt",
            "SOMPI",
            "SOMPI dl-met",
        ]);
        let mut sums = [0.0f64; 4];
        for (name, profile) in &apps {
            let problem = build_problem(&market, profile, headroom);
            let mut cells = vec![name.clone()];
            let mut dl_rate = 0.0;
            for (si, strat) in strategies.iter().enumerate() {
                let r = evaluate_strategy(*strat, &problem, &market, 1000 + si as u64);
                let (nc, _) = normalized(&r, &problem);
                sums[si] += nc;
                cells.push(format!("{nc:.3}"));
                if si == 3 {
                    dl_rate = r.deadline_rate;
                }
            }
            cells.push(format!("{:.0}%", dl_rate * 100.0));
            t.row(cells);
        }
        let n = apps.len() as f64;
        t.row([
            "AVERAGE".to_string(),
            format!("{:.3}", sums[0] / n),
            format!("{:.3}", sums[1] / n),
            format!("{:.3}", sums[2] / n),
            format!("{:.3}", sums[3] / n),
            String::new(),
        ]);
        t.print();

        println!("\nReductions vs each comparison (paper: 70% / 48% / 20% on average):");
        for (si, label) in [(0, "On-demand"), (1, "Marathe"), (2, "Marathe-Opt")] {
            let red = 1.0 - (sums[3] / sums[si]);
            println!("  SOMPI vs {label}: {:.0}% cheaper", red * 100.0);
        }
    }
}
