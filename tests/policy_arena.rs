//! Policy-trait exactness contract.
//!
//! The `Policy` redesign must be a pure re-plumbing: routing SOMPI
//! through the trait (as the service, tournament and adaptive runner
//! now do) has to produce bitwise the same plans as calling the
//! two-level optimizer directly — on every repeat, and through the
//! adaptive loop's default-policy path.

use replay::adaptive_exec::AdaptiveRunner;
use replay::ExecContext;
use sompi_bench::{build_problem, npb_workload, paper_market, planning_view, LOOSE};
use sompi_core::adaptive::{AdaptiveConfig, PlanContext};
use sompi_core::baselines::Sompi;
use sompi_core::policy::{policy_by_name, Policy};
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};

fn config() -> OptimizerConfig {
    OptimizerConfig {
        kappa: 2,
        bid_levels: 4,
        ..Default::default()
    }
}

#[test]
fn sompi_via_policy_is_bit_identical_to_the_direct_optimizer() {
    let market = paper_market(20140809, 300.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    // One direct run anchors every comparison.
    let cfg = config();
    let reference = TwoLevelOptimizer::new(&problem, &view, cfg)
        .optimize()
        .expect("search succeeds")
        .plan;

    let direct = TwoLevelOptimizer::new(&problem, &view, cfg)
        .optimize()
        .expect("search succeeds")
        .plan;
    assert_eq!(direct, reference, "direct plan drifted between runs");

    let via_policy = Sompi { config: cfg }
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("policy plans");
    assert_eq!(via_policy, reference, "Sompi-via-Policy diverged");

    let registry = policy_by_name("sompi", cfg).expect("sompi is registered");
    let named = registry
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("registry policy plans");
    assert_eq!(named, reference, "registry-resolved sompi diverged");
}

#[test]
fn adaptive_default_policy_matches_explicit_sompi_policy() {
    let market = paper_market(27182, 300.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Sp);
    let problem = build_problem(&market, &profile, LOOSE);
    let cfg = AdaptiveConfig {
        window_hours: 2.0,
        history_hours: 48.0,
        optimizer: config(),
        ..Default::default()
    };
    let ctx = ExecContext::new();
    let start = 49.0;

    let default_run = AdaptiveRunner::new(&market, cfg)
        .run(&problem, start, &ctx)
        .expect("default adaptive run succeeds");
    let policy = Sompi { config: config() };
    let explicit_run = AdaptiveRunner::new(&market, cfg)
        .with_policy(&policy)
        .run(&problem, start, &ctx)
        .expect("explicit-policy adaptive run succeeds");

    assert_eq!(default_run.run, explicit_run.run);
    assert_eq!(default_run.windows, explicit_run.windows);
    assert_eq!(default_run.plan_changes, explicit_run.plan_changes);
}

#[test]
fn every_registered_policy_plans_deterministically() {
    let market = paper_market(31415, 300.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    for name in sompi_core::policy::POLICY_NAMES {
        let policy = policy_by_name(name, config()).expect("roster name resolves");
        let a = policy.plan(&problem, &view, &mut PlanContext::new());
        let b = policy.plan(&problem, &view, &mut PlanContext::new());
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{name} is nondeterministic"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("{name}: one run planned, the other errored"),
        }
    }
}
