//! End-to-end integration: market generation → problem construction →
//! optimization → trace replay, across all library crates.

use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::montecarlo::MonteCarlo;
use replay::{Finisher, PlanRunner};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{OnDemandOnly, Sompi};
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;

fn market(seed: u64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, seed),
        260.0,
        1.0 / 12.0,
    )
}

fn paper_types(m: &SpotMarket) -> Vec<InstanceTypeId> {
    ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| m.catalog().by_name(n).unwrap())
        .collect()
}

fn problem(m: &SpotMarket, headroom: f64) -> Problem {
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let types = paper_types(m);
    let mut p = Problem::build(m, &profile, f64::MAX, Some(&types), S3Store::paper_2014());
    p.deadline = p.baseline_time() * (1.0 + headroom);
    p
}

fn small_cfg() -> OptimizerConfig {
    OptimizerConfig {
        kappa: 2,
        bid_levels: 3,
        ..Default::default()
    }
}

#[test]
fn sompi_beats_on_demand_in_replay() {
    let m = market(101);
    let p = problem(&m, 0.5);
    let view = MarketView::from_market(&m, 0.0, 48.0);
    let sompi_plan = Sompi {
        config: small_cfg(),
    }
    .plan(&p, &view, &mut PlanContext::new())
    .unwrap();
    let od_plan = OnDemandOnly
        .plan(&p, &view, &mut PlanContext::new())
        .unwrap();
    let mc = MonteCarlo {
        replicas: 24,
        seed: 9,
        offset_min: 48.0,
        offset_max: 220.0,
        threads: 4,
    };
    let ctx = replay::ExecContext::new();
    let s = mc
        .run_plan(&m, &sompi_plan, p.deadline, &ctx)
        .expect("replay succeeds");
    let o = mc
        .run_plan(&m, &od_plan, p.deadline, &ctx)
        .expect("replay succeeds");
    assert!(
        s.cost.mean < 0.8 * o.cost.mean,
        "SOMPI {} vs on-demand {}",
        s.cost.mean,
        o.cost.mean
    );
    assert!(s.deadline_rate > 0.75, "deadline rate {}", s.deadline_rate);
}

#[test]
fn replays_are_deterministic_end_to_end() {
    let m = market(102);
    let p = problem(&m, 0.5);
    let view = MarketView::from_market(&m, 0.0, 48.0);
    let plan = Sompi {
        config: small_cfg(),
    }
    .plan(&p, &view, &mut PlanContext::new())
    .unwrap();
    let mc = MonteCarlo {
        replicas: 12,
        seed: 4,
        offset_min: 48.0,
        offset_max: 200.0,
        threads: 3,
    };
    let ctx = replay::ExecContext::new();
    let a = mc
        .run_plan(&m, &plan, p.deadline, &ctx)
        .expect("replay succeeds");
    let b = mc
        .run_plan(&m, &plan, p.deadline, &ctx)
        .expect("replay succeeds");
    assert_eq!(a, b);
}

#[test]
fn every_replay_completes_the_application() {
    // Whatever the market does, the hybrid scheme finishes the job: either
    // a circle group completes or the on-demand fallback does.
    let m = market(103);
    let p = problem(&m, 0.2);
    let view = MarketView::from_market(&m, 0.0, 48.0);
    let plan = Sompi {
        config: small_cfg(),
    }
    .plan(&p, &view, &mut PlanContext::new())
    .unwrap();
    let runner = PlanRunner::new(&m, p.deadline);
    for i in 0..24 {
        let out = runner
            .run(&plan, 50.0 + i as f64 * 8.0, &replay::ExecContext::new())
            .expect("replay succeeds");
        assert!(out.total_cost > 0.0);
        assert!(out.wall_hours > 0.0);
        match out.finisher {
            Finisher::Spot(id) => {
                assert!(plan.groups.iter().any(|(g, _)| g.id == id));
            }
            Finisher::OnDemand => {
                assert!(out.od_cost > 0.0);
            }
        }
    }
}

#[test]
fn tight_deadline_plans_stay_feasible() {
    let m = market(104);
    let tight = problem(&m, 0.05);
    let view = MarketView::from_market(&m, 0.0, 48.0);
    let plan = Sompi {
        config: small_cfg(),
    }
    .plan(&tight, &view, &mut PlanContext::new())
    .unwrap();
    // The paper's constraint is on the expectation: E[Time] <= Deadline.
    let eval = sompi_core::cost::evaluate_plan(&plan, &view)
        .expect("known groups")
        .expect("launchable plan");
    assert!(
        eval.meets(tight.deadline),
        "E[Time] {} exceeds deadline {}",
        eval.expected_time,
        tight.deadline
    );
    // Slow groups may ride along as checkpoint providers, but at least one
    // chosen group must be able to finish within the deadline itself.
    if !plan.groups.is_empty() {
        assert!(
            plan.groups
                .iter()
                .any(|(g, d)| { g.completion_wall_hours(d.ckpt_interval) <= tight.deadline }),
            "no group can finish by the deadline"
        );
    }
}

#[test]
fn baseline_is_fastest_and_normalization_sane() {
    let m = market(105);
    let p = problem(&m, 0.5);
    for od in &p.on_demand {
        assert!(p.baseline_time() <= od.exec_hours + 1e-12);
    }
    assert!(p.baseline_cost_billed() >= p.baseline_cost());
}
