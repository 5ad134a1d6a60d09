//! Integration tests of the adaptive (Algorithm 1) execution path against
//! drifting markets.

use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::tracegen::{TraceGenConfig, ZoneVolatility};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::adaptive_exec::AdaptiveRunner;
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;

/// Market whose price level doubles halfway through the trace.
fn shifting_market() -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let mut market = SpotMarket::new(catalog.clone());
    for (id, ty) in catalog.iter() {
        for (zi, zone) in AvailabilityZone::PAPER_ZONES.into_iter().enumerate() {
            let cfg1 = TraceGenConfig::preset(ty.on_demand_price * 0.10, ZoneVolatility::Volatile);
            let cfg2 = TraceGenConfig::preset(ty.on_demand_price * 0.22, ZoneVolatility::Volatile);
            let mut t = cfg1.generate(150.0, 1.0 / 12.0, (id.0 * 11 + zi) as u64);
            t.extend_from(&cfg2.generate(150.0, 1.0 / 12.0, (id.0 * 13 + zi + 5) as u64));
            market.insert(CircleGroupId::new(id, zone), t);
        }
    }
    market
}

fn problem(market: &SpotMarket) -> Problem {
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(600);
    let mut p = Problem::build(market, &profile, f64::MAX, None, S3Store::paper_2014());
    p.deadline = p.baseline_time() * 1.5;
    p
}

fn config(window: f64) -> AdaptiveConfig {
    AdaptiveConfig {
        window_hours: window,
        history_hours: 48.0,
        optimizer: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn adaptive_runs_complete_with_bounded_wall() {
    let market = shifting_market();
    let p = problem(&market);
    let runner = AdaptiveRunner::new(&market, config(1.0));
    for start in [60.0, 120.0, 200.0] {
        let out = runner
            .run(&p, start, &replay::ExecContext::new())
            .expect("adaptive run succeeds");
        assert!(out.run.total_cost > 0.0);
        // Even a disastrous run is bounded: spot attempts cut off at the
        // deadline plus one on-demand pass.
        let od = p.baseline();
        assert!(
            out.run.wall_hours <= p.deadline + od.exec_hours + od.recovery_hours + 1.0,
            "wall {} unbounded",
            out.run.wall_hours
        );
        assert!(out.windows >= 1);
    }
}

#[test]
fn progress_carries_across_windows() {
    // With a window much shorter than the job, completion requires durable
    // cross-window progress; if progress leaked, the run would hit the
    // trace horizon and cost a fortune.
    let market = shifting_market();
    let p = problem(&market);
    let runner = AdaptiveRunner::new(&market, config(0.5));
    let out = runner
        .run(&p, 100.0, &replay::ExecContext::new())
        .expect("adaptive run succeeds");
    assert!(
        out.windows >= 2,
        "expected multiple windows, got {}",
        out.windows
    );
    // Total spot+od cost should be within an order of magnitude of the
    // baseline, not multiples from re-executed work.
    assert!(
        out.run.total_cost < 3.0 * p.baseline_cost_billed(),
        "cost {} suggests lost progress",
        out.run.total_cost
    );
}

#[test]
fn maintenance_replans_but_frozen_does_not() {
    let market = shifting_market();
    let p = problem(&market);
    // Start just before the regime shift so re-planning has something to
    // react to.
    let ctx = replay::ExecContext::new();
    let with = AdaptiveRunner::new(&market, config(0.5))
        .run(&p, 145.0, &ctx)
        .expect("adaptive run succeeds");
    let frozen = AdaptiveRunner::new(&market, config(0.5))
        .without_maintenance()
        .run(&p, 145.0, &ctx)
        .expect("adaptive run succeeds");
    assert_eq!(frozen.plan_changes, 0);
    // Both still complete.
    assert!(with.run.total_cost > 0.0 && frozen.run.total_cost > 0.0);
}

#[test]
fn hopeless_deadline_goes_straight_on_demand() {
    let market = shifting_market();
    let mut p = problem(&market);
    p.deadline = p.baseline_time() * 0.5; // impossible even on demand
    let out = AdaptiveRunner::new(&market, config(1.0))
        .run(&p, 60.0, &replay::ExecContext::new())
        .expect("adaptive run succeeds");
    assert!(matches!(out.run.finisher, replay::Finisher::OnDemand));
    assert!(!out.run.met_deadline);
    assert_eq!(out.run.spot_cost, 0.0, "no spot gambling on a lost cause");
}

#[test]
fn adaptive_studies_repeat_bit_for_bit() {
    // Full adaptive replays (windowed Algorithm 1 with plan continuity,
    // and under a half-gapped market feed the recall of the last fresh
    // plan) over the drifting stress market, compared outcome for
    // outcome: a repeated study must agree on every window's plan. The
    // 0.25 h windows and the start at hour 127 make a window stall and a
    // gapped re-plan recall.
    use ec2_market::fault::{FaultInjector, FaultPlan};
    use sompi_bench::{build_problem, npb_workload, stress_market, HISTORY_HOURS};
    use sompi_obs::{Event, RingRecorder, TraceLevel};

    let market = stress_market(20140817, 400.0);
    let profile = npb_workload(NpbKernel::Bt);
    let problem = build_problem(&market, &profile, 2.0);
    let faults = FaultInjector::new(
        FaultPlan::parse("feed-gap=0.5", 42).expect("fault spec"),
        market.horizon(),
    );

    let study = || {
        let cfg = AdaptiveConfig {
            window_hours: 0.25,
            history_hours: HISTORY_HOURS,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let runner = AdaptiveRunner::new(&market, cfg);
        let ring = RingRecorder::new(TraceLevel::Summary, 1 << 12);
        let ctx = replay::ExecContext::new()
            .with_faults(&faults)
            .with_recorder(&ring);
        let outcomes = [60.0, 127.0, 140.0]
            .map(|start| runner.run(&problem, start, &ctx).expect("replay succeeds"));
        let recalls = ring
            .take()
            .iter()
            .filter(|e| matches!(e, Event::DegradedMode { mode, .. } if mode == "stale-plan"))
            .count();
        (outcomes, recalls)
    };

    let (outcomes, recalls) = study();
    assert!(recalls >= 1, "no gapped re-plan recalled a plan");
    assert_eq!((outcomes, recalls), study(), "adaptive outcome diverged");
}
