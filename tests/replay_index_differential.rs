//! Differential suite for the trace-index ablation: every replay-facing
//! answer — planner output, per-replica `RunOutcome`s, Monte-Carlo
//! aggregates, adaptive timelines — must be bit-identical with the
//! max/min-tree trace index enabled (the default) and disabled
//! (`--no-trace-index`). The index is a pure wall-clock optimization;
//! any divergence here is a correctness bug, not a tuning regression.

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::{AdaptiveRunner, ExecContext, MonteCarlo, PlanRunner};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{Sompi, Strategy};
use sompi_core::model::Plan;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use sompi_obs::{Event, RingRecorder, TraceLevel};

/// The same deterministic market twice: once with the trace index (the
/// default) and once with the `--no-trace-index` ablation applied.
fn market_pair(seed: u64) -> (SpotMarket, SpotMarket) {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let indexed = SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 300.0, 1.0 / 12.0);
    let naive = indexed.clone().without_trace_index();
    assert!(indexed.trace_index_enabled() && !naive.trace_index_enabled());
    (indexed, naive)
}

fn problem_on(market: &SpotMarket) -> Problem {
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).unwrap())
        .collect();
    Problem::build(market, &profile, 4.0, Some(&types), S3Store::paper_2014())
}

fn plan_on(market: &SpotMarket, problem: &Problem) -> Plan {
    let view = MarketView::from_market(market, 0.0, 48.0);
    Sompi {
        config: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
    }
    .plan(problem, &view, &mut PlanContext::new())
    .unwrap()
}

/// Planner output is unaffected by the index (planning reads history
/// windows through the estimator, replay reads futures through the
/// query layer — both must agree with the scan-based answers).
#[test]
fn plans_are_identical_with_and_without_index() {
    let (indexed, naive) = market_pair(31);
    let p1 = problem_on(&indexed);
    let p2 = problem_on(&naive);
    assert_eq!(p1.deadline, p2.deadline);
    assert_eq!(plan_on(&indexed, &p1), plan_on(&naive, &p2));
}

/// Every per-replica `RunOutcome` matches exactly over a grid of start
/// offsets — on the clean closed-form path and on the fault-injected
/// step-walk path.
#[test]
fn run_outcomes_are_identical_with_and_without_index() {
    let (indexed, naive) = market_pair(31);
    let problem = problem_on(&indexed);
    let plan = plan_on(&indexed, &problem);
    let inj_a = FaultInjector::new(
        FaultPlan::parse("storm=0.05x0.8,ckpt-fail=0.3", 17).unwrap(),
        indexed.horizon(),
    );
    let inj_b = FaultInjector::new(
        FaultPlan::parse("storm=0.05x0.8,ckpt-fail=0.3", 17).unwrap(),
        naive.horizon(),
    );
    let clean = ExecContext::new();
    let faulty_a = ExecContext::new()
        .with_faults(&inj_a)
        .with_retry(RetryPolicy::default_io());
    let faulty_b = ExecContext::new()
        .with_faults(&inj_b)
        .with_retry(RetryPolicy::default_io());
    let ra = PlanRunner::new(&indexed, problem.deadline);
    let rb = PlanRunner::new(&naive, problem.deadline);
    for i in 0..40 {
        let start = 48.0 + i as f64 * 5.3;
        let a = ra.run(&plan, start, &clean).unwrap();
        let b = rb.run(&plan, start, &clean).unwrap();
        assert_eq!(a, b, "clean outcome diverges at start={start}");
        let a = ra.run(&plan, start, &faulty_a).unwrap();
        let b = rb.run(&plan, start, &faulty_b).unwrap();
        assert_eq!(a, b, "faulty outcome diverges at start={start}");
    }
}

/// Monte-Carlo aggregates are bit-identical across the full matrix of
/// {index on, index off} × {threads 1, 4, auto}.
#[test]
fn mc_aggregates_are_identical_across_index_and_threads() {
    let (indexed, naive) = market_pair(31);
    let problem = problem_on(&indexed);
    let plan = plan_on(&indexed, &problem);
    let ctx = ExecContext::new();
    let run = |market: &SpotMarket, threads: usize| {
        MonteCarlo::builder()
            .replicas(96)
            .seed(5)
            .offsets(48.0, 260.0)
            .threads(threads)
            .build()
            .run_plan(market, &plan, problem.deadline, &ctx)
            .expect("replay succeeds")
    };
    let reference = run(&indexed, 1);
    for threads in [1usize, 4, 0] {
        assert_eq!(
            reference,
            run(&indexed, threads),
            "indexed, threads={threads}"
        );
        assert_eq!(reference, run(&naive, threads), "naive, threads={threads}");
    }
}

/// The adaptive re-planning loop — which re-queries launch and death
/// times every window — produces the same event timeline and totals
/// either way.
#[test]
fn adaptive_timeline_is_identical_with_and_without_index() {
    let (indexed, naive) = market_pair(31);
    let config = || AdaptiveConfig {
        window_hours: 0.5,
        history_hours: 48.0,
        optimizer: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut outs = Vec::new();
    for market in [&indexed, &naive] {
        let problem = problem_on(market);
        let ring = RingRecorder::new(TraceLevel::Detail, 4096);
        let ctx = ExecContext::new().with_recorder(&ring);
        let out = AdaptiveRunner::new(market, config())
            .run(&problem, 60.0, &ctx)
            .expect("adaptive run succeeds");
        let timeline: Vec<Event> = ring
            .take()
            .into_iter()
            .map(|mut e| {
                if let Event::PlanSelected {
                    assess_secs,
                    search_secs,
                    evals_per_sec,
                    kernel_nanos,
                    ..
                } = &mut e
                {
                    *assess_secs = 0.0;
                    *search_secs = 0.0;
                    *evals_per_sec = 0.0;
                    *kernel_nanos = 0;
                }
                e
            })
            .collect();
        outs.push((out, timeline));
    }
    let (a, ta) = &outs[0];
    let (b, tb) = &outs[1];
    assert_eq!(ta, tb, "adaptive timelines diverge between index on/off");
    assert_eq!(a.run, b.run);
    assert_eq!(a.windows, b.windows);
}
