//! Table 2 — normalized execution time comparison for Marathe-Opt and
//! SOMPI under loose and tight deadlines (1.0 = Baseline Time, the fastest
//! on-demand execution).
//!
//! Expected shape (paper): both methods sit well above 1.0 under the loose
//! deadline (they trade time for money, up to ≈1.4×) and hug the deadline
//! (≈1.04–1.05×) under the tight one; the two methods are similar.

use mpi_sim::npb::NpbKernel;
use sompi_bench::{
    build_problem, evaluate_strategy, normalized, npb_workload, paper_market, Table, LOOSE, TIGHT,
};
use sompi_core::baselines::{MaratheOpt, Sompi};
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    let market = paper_market(20140806, 400.0);
    let sompi = Sompi {
        config: OptimizerConfig {
            kappa: 4,
            bid_levels: 10,
            ..Default::default()
        },
    };

    println!("Table 2 — normalized execution time (1.0 = Baseline Time)\n");
    let mut t = Table::new(["deadline", "method", "BT", "SP", "LU", "FT", "IS", "BTIO"]);
    for (dl_name, headroom) in [("Loose", LOOSE), ("Tight", TIGHT)] {
        for (mname, strat) in [
            ("Marathe-Opt", &MaratheOpt as &dyn Policy),
            ("SOMPI", &sompi as &dyn Policy),
        ] {
            let mut cells = vec![dl_name.to_string(), mname.to_string()];
            for kernel in NpbKernel::ALL {
                let profile = npb_workload(kernel);
                let problem = build_problem(&market, &profile, headroom);
                let r = evaluate_strategy(strat, &problem, &market, 2000);
                let (_, nt) = normalized(&r, &problem);
                cells.push(format!("{nt:.2}"));
            }
            t.row(cells);
        }
    }
    t.print();
    println!("\nDeadline bounds: loose = 1.50, tight = 1.05 × Baseline Time.");
    println!("(Normalized times at or below the bound mean the deadline was met on average.)");
}
