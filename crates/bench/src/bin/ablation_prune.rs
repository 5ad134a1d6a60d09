//! Search-pruning ablation — exhaustive odometer walk vs the
//! exactness-preserving pruning stages, on the stock Figure 5 / Figure 7
//! planner scenarios.
//!
//! Three configurations are timed against the same markets:
//!
//! 1. `exhaustive` — every pruning stage off (the pre-pruning planner),
//! 2. `+dominance` — bid-collapse dominance filter only,
//! 3. `full`       — dominance + branch-and-bound (the default
//!    configuration).
//!
//! Every configuration must return a plan and evaluation identical to the
//! exhaustive reference — the whole point of the pruning design is that it
//! changes wall-clock, never the optimum. The prune rate is read from the
//! optimizer's own trace events: `PlanSearchStarted.options_dominated`
//! (grid points removed before enumeration) and
//! `PlanSelected.evals_skipped` (odometer positions skipped in-walk).
//!
//! `--smoke` shrinks the search (κ = 2, 5 bid levels, one scenario) for a
//! fast CI sanity check of the same identity assertions.

use mpi_sim::npb::NpbKernel;
use sompi_bench::{build_problem, npb_workload, paper_market, planning_view, Table, LOOSE, TIGHT};
use sompi_core::adaptive::PlanContext;
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::{MarketView, Problem};
use sompi_obs::{Event, RingRecorder, TraceLevel};
use std::time::Instant;

/// The pruning-stage ablation ladder, exhaustive first.
fn ladder(base: OptimizerConfig) -> Vec<(&'static str, OptimizerConfig)> {
    vec![
        (
            "exhaustive",
            OptimizerConfig {
                prune_dominance: false,
                prune_bound: false,
                ..base
            },
        ),
        (
            "+dominance",
            OptimizerConfig {
                prune_dominance: true,
                prune_bound: false,
                ..base
            },
        ),
        (
            "full",
            OptimizerConfig {
                prune_dominance: true,
                prune_bound: true,
                ..base
            },
        ),
    ]
}

/// Pruning counters recovered from the optimizer's trace events.
fn prune_counters(recorder: &RingRecorder) -> (u64, u64, u64) {
    let mut dominated = 0;
    let mut skipped = 0;
    let mut evaluations = 0;
    for ev in recorder.take() {
        match ev {
            Event::PlanSearchStarted {
                options_dominated, ..
            } => dominated = options_dominated,
            Event::PlanSelected {
                evaluations: evals,
                evals_skipped,
                ..
            } => {
                evaluations = evals;
                skipped = evals_skipped;
            }
            _ => {}
        }
    }
    (dominated, skipped, evaluations)
}

fn run_study(
    label: &str,
    problem: &Problem,
    view: &MarketView,
    base: OptimizerConfig,
    iters: usize,
) {
    println!("{label}");
    let mut t = Table::new([
        "config",
        "opt time (s)",
        "speedup",
        "plan evals",
        "dominated",
        "skipped",
        "prune rate",
        "identical",
    ]);

    let mut reference = None;
    let mut reference_secs = 0.0;
    for (name, cfg) in ladder(base) {
        // Best-of-N so millisecond-scale searches are not drowned in
        // scheduler noise; every iteration returns the same plan.
        let mut elapsed = f64::INFINITY;
        let mut opt = None;
        let mut recorder = RingRecorder::new(TraceLevel::Summary, 64);
        for _ in 0..iters.max(1) {
            let r = RingRecorder::new(TraceLevel::Summary, 64);
            let started = Instant::now();
            let o = TwoLevelOptimizer::new(problem, view, cfg)
                .optimize_with(&mut PlanContext::new().with_recorder(&r))
                .unwrap();
            elapsed = elapsed.min(started.elapsed().as_secs_f64());
            opt = Some(o);
            recorder = r;
        }
        let opt = opt.expect("at least one iteration ran");
        let (dominated, skipped, evaluations) = prune_counters(&recorder);
        // Fraction of the enumerated space never cost-evaluated: odometer
        // positions skipped by the bound, relative to the walked space.
        let prune_rate = if evaluations > 0 {
            skipped as f64 / evaluations as f64
        } else {
            0.0
        };
        let identical = match &reference {
            None => {
                reference = Some((opt.plan.clone(), opt.evaluation));
                reference_secs = elapsed;
                true
            }
            Some((plan, eval)) => opt.plan == *plan && opt.evaluation == *eval,
        };
        t.row([
            name.into(),
            format!("{elapsed:.3}"),
            format!("{:.2}x", reference_secs / elapsed),
            format!("{evaluations}"),
            format!("{dominated}"),
            format!("{skipped}"),
            format!("{:.1}%", prune_rate * 100.0),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        assert!(
            identical,
            "pruning config {name:?} changed the optimum — exactness violated"
        );
    }
    t.print();
    println!();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base = if smoke {
        OptimizerConfig {
            kappa: 2,
            bid_levels: 5,
            ..Default::default()
        }
    } else {
        OptimizerConfig::default()
    };
    println!(
        "Search-pruning ablation (kappa = {}, {} bid levels){}",
        base.kappa,
        base.bid_levels,
        if smoke { " [smoke]" } else { "" }
    );
    println!();

    let iters = if smoke { 1 } else { 5 };

    // The Figure 5 planner scenario: BT on the stock paper market, both
    // deadline regimes (tight deadlines reshape the incumbent trajectory
    // and therefore the bound's leverage).
    let market = paper_market(20140805, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    let view = planning_view(&market);
    let problem = build_problem(&market, &profile, LOOSE);
    run_study(
        "fig5 scenario: BT, loose (+50%) deadline",
        &problem,
        &view,
        base,
        iters,
    );

    if !smoke {
        let tight = build_problem(&market, &profile, TIGHT);
        run_study(
            "fig5 scenario: BT, tight (+5%) deadline",
            &tight,
            &view,
            base,
            iters,
        );

        // The Figure 7 sweep market with a heavier workload (FT) — a
        // different seed, so the incumbent ordering is independent of the
        // fig5 trajectory.
        let market7 = paper_market(20140808, 400.0);
        let profile7 = npb_workload(NpbKernel::Ft);
        let view7 = planning_view(&market7);
        let problem7 = build_problem(&market7, &profile7, LOOSE);
        run_study(
            "fig7 scenario: FT, loose (+50%) deadline",
            &problem7,
            &view7,
            base,
            iters,
        );

        // The searches above finish in milliseconds, so fixed setup cost
        // (option assessment, on-demand selection) caps the end-to-end
        // speedup. The Theorem 1 ablation multiplies per-subset work
        // ~256x, making the odometer walk dominate — this is where the
        // pruning pays at scale.
        let heavy = OptimizerConfig {
            interval_grid: Some(4),
            ..base
        };
        run_study(
            "fig5 scenario + interval-grid ablation (search-dominated)",
            &problem,
            &view,
            heavy,
            iters,
        );
    }

    println!("(Every row must be identical to the exhaustive reference: the");
    println!(" dominance filter and branch-and-bound are exactness-preserving;");
    println!(" only planner wall-clock changes.)");
}
