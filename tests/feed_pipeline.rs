//! Integration: real-trace ingestion end to end — parse an AWS-style price
//! feed, build a market from it, calibrate the generator against it, and
//! plan/replay on both the imported and the calibrated-synthetic markets.

use ec2_market::calibrate::calibrate;
use ec2_market::feed::{parse_feed, traces_by_group};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::PlanRunner;
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use std::fmt::Write as _;

/// Build a plausible multi-day feed: m1.small in two zones, hourly
/// repricing with a daily spike in zone 1a.
fn synthetic_feed() -> String {
    let mut f = String::from("# ts type zone price\n");
    for hour in 0..200u32 {
        let ts = hour as f64 * 3600.0;
        let spike = hour % 24 == 10; // daily spike in 1a
        let p1a = if spike {
            2.0
        } else {
            0.008 + 0.001 * ((hour % 5) as f64)
        };
        let p1b = 0.0075 + 0.0005 * ((hour % 3) as f64);
        writeln!(f, "{ts} m1.small us-east-1a {p1a:.4}").unwrap();
        writeln!(f, "{ts} m1.small us-east-1b {p1b:.4}").unwrap();
    }
    f
}

fn market_from_feed(feed: &str) -> SpotMarket {
    let events = parse_feed(feed).expect("feed parses");
    let catalog = InstanceCatalog::paper_2014();
    let mut market = SpotMarket::new(catalog.clone());
    for ((ty, zone), trace) in traces_by_group(&events, 1.0 / 12.0).expect("feed resamples") {
        let ty = catalog.by_name(&ty).expect("known type");
        let zone = match zone.as_str() {
            "us-east-1a" => AvailabilityZone::UsEast1a,
            "us-east-1b" => AvailabilityZone::UsEast1b,
            other => panic!("unexpected zone {other}"),
        };
        market.insert(CircleGroupId::new(ty, zone), trace);
    }
    market
}

#[test]
fn imported_feed_supports_full_planning_pipeline() {
    let market = market_from_feed(&synthetic_feed());
    assert_eq!(market.len(), 2);

    // 16-rank job so a 16-instance m1.small fleet hosts it.
    let profile = NpbKernel::Bt.profile(NpbClass::A, 16).repeated(100);
    let mut problem = Problem::build(&market, &profile, f64::MAX, None, S3Store::paper_2014());
    // Candidates exist only for types with traces.
    assert_eq!(problem.candidates.len(), 2);
    problem.deadline = problem.baseline_time() * 1.5;

    let view = MarketView::from_market(&market, 0.0, 48.0);
    let plan = Sompi {
        config: OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..Default::default()
        },
    }
    .plan(&problem, &view, &mut PlanContext::new())
    .unwrap();
    assert!(
        !plan.groups.is_empty(),
        "spot plan expected on a cheap market"
    );

    let out = PlanRunner::new(&market, problem.deadline)
        .run(&plan, 60.0, &replay::ExecContext::new())
        .expect("replay succeeds");
    assert!(out.total_cost > 0.0);
    assert!(out.wall_hours > 0.0);
}

#[test]
fn calibration_of_imported_trace_detects_the_daily_spike() {
    let market = market_from_feed(&synthetic_feed());
    let cat = market.catalog();
    let id = CircleGroupId::new(cat.by_name("m1.small").unwrap(), AvailabilityZone::UsEast1a);
    let trace = market.trace(id).unwrap();
    let cal = calibrate(trace.window(0.0, f64::INFINITY), 4.0);
    // One spike a day over ~8 days.
    assert!(
        (5..=10).contains(&cal.spike_episodes),
        "episodes {}",
        cal.spike_episodes
    );
    // Spike amplitude ≈ 2.0 / 0.009 ≈ 200× the base.
    assert!(cal.config.spike_multiplier.1 > 50.0);
    // Base recovered near the calm level.
    assert!(
        (cal.config.base_price - 0.009).abs() < 0.004,
        "{}",
        cal.config.base_price
    );
}

#[test]
fn flat_zone_of_the_feed_is_preferred_by_the_optimizer() {
    let market = market_from_feed(&synthetic_feed());
    let profile = NpbKernel::Bt.profile(NpbClass::A, 16).repeated(100);
    let mut problem = Problem::build(&market, &profile, f64::MAX, None, S3Store::paper_2014());
    problem.deadline = problem.baseline_time() * 1.5;
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let plan = Sompi {
        config: OptimizerConfig {
            kappa: 1,
            bid_levels: 4,
            ..Default::default()
        },
    }
    .plan(&problem, &view, &mut PlanContext::new())
    .unwrap();
    // With κ = 1 the single chosen group should be the spike-free 1b zone.
    assert_eq!(plan.groups.len(), 1);
    assert_eq!(plan.groups[0].0.id.zone, AvailabilityZone::UsEast1b);
}
