//! Figure 8 — comparison with individual fault-tolerance mechanisms:
//! All-Unable (no fault tolerance), w/o-RP (checkpointing only), w/o-CK
//! (replication only), w/o-MT (both, but no adaptive update maintenance)
//! and full SOMPI.
//!
//! This experiment uses a *long* workload (≈24 h baseline) so that the
//! optimization window `T_m = 15 h` and distribution drift actually
//! matter. Expected shape (paper): single mechanisms gain <5% over
//! All-Unable; SOMPI gains >25% over either single mechanism; w/o-MT
//! costs ≈15% more than SOMPI and has much higher variance.

use mpi_sim::npb::{NpbClass, NpbKernel};
use replay::adaptive_exec::AdaptiveRunner;
use replay::montecarlo::McResult;
use sompi_bench::{
    build_problem, monte_carlo, planning_view, repeat_to_hours, stress_market, Table, LOOSE,
    PROCESSES, TIGHT,
};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{AllUnable, Sompi, SompiNoCheckpoint, SompiNoReplication};
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn main() {
    // Long *stress* market (every zone volatile — no free rides) and a
    // ~12-hour workload, so fault tolerance and the 15-hour optimization
    // window are genuinely exercised.
    let market = stress_market(20140809, 700.0);
    let profile = repeat_to_hours(NpbKernel::Bt.profile(NpbClass::B, PROCESSES), 24.0);
    let cfg = OptimizerConfig {
        kappa: 2,
        bid_levels: 8,
        ..Default::default()
    };
    let adaptive_cfg = AdaptiveConfig {
        window_hours: 15.0,
        history_hours: 48.0,
        optimizer: cfg,
        ..Default::default()
    };

    for (dl_name, headroom) in [("loose (+50%)", LOOSE), ("tight (+5%)", TIGHT)] {
        let problem = build_problem(&market, &profile, headroom);
        let margin = problem.deadline + 8.0;
        println!(
            "\nFigure 8 — fault-tolerance ablations, {dl_name} deadline (baseline {:.1} h)\n",
            problem.baseline_time()
        );
        let mut t = Table::new(["method", "norm. cost", "cost CV", "dl met"]);
        let mut rows: Vec<(String, McResult)> = Vec::new();

        // Static-plan ablations.
        let statics: Vec<(&str, Box<dyn Policy>)> = vec![
            ("All-Unable", Box::new(AllUnable { config: cfg })),
            ("w/o-RP", Box::new(SompiNoReplication { config: cfg })),
            ("w/o-CK", Box::new(SompiNoCheckpoint { config: cfg })),
        ];
        let view = planning_view(&market);
        let ctx = replay::ExecContext::new();
        for (name, strat) in &statics {
            let plan = strat
                .plan(&problem, &view, &mut PlanContext::new())
                .expect("plan succeeds");
            let r = monte_carlo(&market, margin, 5000)
                .run_plan(&market, &plan, problem.deadline, &ctx)
                .expect("replay succeeds");
            rows.push((name.to_string(), r));
        }

        // w/o-MT: adaptive machinery, but the first window's plan is frozen.
        {
            let runner = AdaptiveRunner::new(&market, adaptive_cfg).without_maintenance();
            let mc = monte_carlo(&market, margin, 5001);
            let r = mc
                .evaluate(|start| Ok(runner.run(&problem, start, &ctx)?.run))
                .expect("replay succeeds");
            rows.push(("w/o-MT".to_string(), r));
        }
        // Full SOMPI with update maintenance.
        {
            let _ = Sompi { config: cfg }; // the adaptive runner embeds the optimizer
            let runner = AdaptiveRunner::new(&market, adaptive_cfg);
            let mc = monte_carlo(&market, margin, 5001);
            let r = mc
                .evaluate(|start| Ok(runner.run(&problem, start, &ctx)?.run))
                .expect("replay succeeds");
            rows.push(("SOMPI".to_string(), r));
        }

        let base = problem.baseline_cost_billed();
        for (name, r) in &rows {
            t.row([
                name.clone(),
                format!("{:.3}", r.cost.mean / base),
                format!("{:.2}", r.cost.cv()),
                format!("{:.0}%", r.deadline_rate * 100.0),
            ]);
        }
        t.print();

        let cost = |n: &str| {
            rows.iter()
                .find(|(name, _)| name == n)
                .map(|(_, r)| r.cost.mean)
                .expect("row exists")
        };
        println!(
            "\n  SOMPI vs w/o-RP: {:.0}% cheaper (paper: >25%)",
            (1.0 - cost("SOMPI") / cost("w/o-RP")) * 100.0
        );
        println!(
            "  SOMPI vs w/o-CK: {:.0}% cheaper (paper: >25%)",
            (1.0 - cost("SOMPI") / cost("w/o-CK")) * 100.0
        );
        println!(
            "  SOMPI vs w/o-MT: {:.0}% cheaper (paper: ~15%)",
            (1.0 - cost("SOMPI") / cost("w/o-MT")) * 100.0
        );
    }
}
