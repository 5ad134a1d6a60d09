//! Cross-crate property-based tests (proptest) over the core invariants of
//! the market substrate, the cost model and the replay engine.

use ec2_market::billing::{BillingModel, Termination};
use ec2_market::failure::FailureEstimator;
use ec2_market::index::{TraceIndex, TraceQuery};
use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use ec2_market::zone::AvailabilityZone;
use proptest::prelude::*;
use replay::PlanRunner;
use sompi_core::cost::{evaluate, GroupAssessment};
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};

fn arb_trace() -> impl Strategy<Value = SpotTrace> {
    prop::collection::vec(0.001f64..1.0, 12..240)
        .prop_map(|prices| SpotTrace::new(1.0 / 12.0, prices))
}

fn group(id: CircleGroupId, exec: f64, o: f64, r: f64) -> CircleGroup {
    CircleGroup {
        id,
        instances: 4,
        exec_hours: exec,
        ckpt_overhead_hours: o,
        recovery_hours: r,
    }
}

fn od_option() -> OnDemandOption {
    OnDemandOption {
        instance_type: InstanceTypeId(4),
        instances: 4,
        exec_hours: 2.0,
        unit_price: 2.0,
        recovery_hours: 0.1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The failure-rate function is always a valid sub-distribution and
    /// monotone (weakly) in the bid price.
    #[test]
    fn failure_fn_is_distribution_and_monotone(trace in arb_trace(), lo in 0.05f64..0.4) {
        let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
        let hi = (lo * 2.0).min(1.0);
        let f_lo = est.failure_rate_exact(lo, 8);
        let f_hi = est.failure_rate_exact(hi, 8);
        for f in [&f_lo, &f_hi] {
            let mass: f64 = f.buckets().iter().sum::<f64>() + f.survival();
            prop_assert!((mass - 1.0).abs() < 1e-6);
            prop_assert!(f.buckets().iter().all(|p| (0.0..=1.0).contains(p)));
        }
        prop_assert!(f_hi.survival() >= f_lo.survival() - 1e-9);
    }

    /// Expected spot price never exceeds the bid's admissible range and
    /// launch delay is monotone non-increasing in the bid.
    #[test]
    fn expected_price_and_delay_sane(trace in arb_trace(), bid in 0.05f64..1.0) {
        let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
        if let Some(s) = est.expected_spot_price().mean_below(bid) {
            prop_assert!(s <= bid * (1.0 + 1e-9));
            prop_assert!(s > 0.0);
        }
        let d1 = est.expected_launch_delay(bid);
        let d2 = est.expected_launch_delay(bid * 1.5);
        prop_assert!(d2 <= d1 + 1e-9);
        prop_assert!(d1 >= 0.0);
    }

    /// Billing: spot cost is non-negative, monotone in duration, and
    /// provider termination never costs more than user termination.
    #[test]
    fn billing_monotonicity(trace in arb_trace(), a in 0.0f64..5.0, d in 0.1f64..5.0) {
        let b = BillingModel::hourly();
        let c_short = b.spot_cost(&trace, a, a + d, Termination::User, 3);
        let c_long = b.spot_cost(&trace, a, a + d + 1.0, Termination::User, 3);
        prop_assert!(c_short >= 0.0);
        prop_assert!(c_long >= c_short - 1e-9);
        let c_prov = b.spot_cost(&trace, a, a + d, Termination::Provider, 3);
        prop_assert!(c_prov <= c_short + 1e-9);
    }

    /// The evaluator's probability accounting: the all-fail probability
    /// equals the product of per-group failure probabilities, and expected
    /// cost decomposes into spot + on-demand shares.
    #[test]
    fn evaluation_probability_identities(
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        price in 0.01f64..0.5,
    ) {
        let id = CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a);
        let mk = |s: f64| {
            let g = group(id, 3.0, 0.02, 0.1);
            let horizon = 4;
            GroupAssessment::from_parts(
                g,
                GroupDecision { bid: 1.0, ckpt_interval: 1.0 },
                price,
                s,
                vec![(1.0 - s) / horizon as f64; horizon],
                0.0,
            )
        };
        let (a1, a2) = (mk(s1), mk(s2));
        let e = evaluate(&[&a1, &a2], &od_option());
        prop_assert!((e.p_all_fail - (1.0 - s1) * (1.0 - s2)).abs() < 1e-9);
        prop_assert!(
            (e.expected_cost - (e.expected_spot_cost + e.expected_od_cost)).abs() < 1e-9
        );
        prop_assert!(e.expected_time >= 0.0);
        prop_assert!(e.expected_cost >= 0.0);
    }

    /// Replay: cost and wall time are non-negative; on a trace that never
    /// exceeds the bid, the group completes on spot and the wall equals
    /// its completion time.
    #[test]
    fn replay_on_safe_trace_completes_on_spot(
        exec in 0.5f64..6.0,
        interval_frac in 0.1f64..1.0,
    ) {
        let catalog = InstanceCatalog::paper_2014();
        let ty = catalog.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let mut market = SpotMarket::new(catalog);
        market.insert(id, SpotTrace::new(0.5, vec![0.01; 100]));
        let g = group(id, exec, 0.01, 0.1);
        let interval = exec * interval_frac;
        let plan = Plan {
            groups: vec![(g, GroupDecision { bid: 0.05, ckpt_interval: interval })],
            on_demand: od_option(),
        };
        let runner = PlanRunner::new(&market, 50.0);
        let out = runner.run(&plan, 0.0, &replay::ExecContext::new()).unwrap();
        prop_assert!(matches!(out.finisher, replay::Finisher::Spot(_)));
        prop_assert_eq!(out.od_cost, 0.0);
        let expected_wall = g.completion_wall_hours(interval);
        prop_assert!((out.wall_hours - expected_wall).abs() < 1e-9);
        prop_assert!(out.spot_cost > 0.0);
    }

    /// Indexed trace queries are bit-identical to the naive scans, which
    /// stay only as this oracle, for arbitrary traces, bids, starts and
    /// cutoffs.
    #[test]
    fn indexed_queries_match_naive_scans(
        trace in arb_trace(),
        bid in 0.0f64..1.2,
        start in -1.0f64..25.0,
    ) {
        let ix = TraceIndex::build(&trace);
        let fast = TraceQuery::new(&trace, &ix);
        prop_assert_eq!(
            trace.first_passage_above(start, bid),
            fast.first_passage_above(start, bid)
        );
        for cutoff in [start, start + 1.0, trace.duration(), f64::INFINITY] {
            prop_assert_eq!(
                trace.first_time_at_or_below(start, bid, cutoff),
                fast.launch_time(start, bid, cutoff)
            );
        }
    }

    /// Remaining-ratio bounds and monotonicity hold for arbitrary inputs.
    #[test]
    fn remaining_ratio_bounds(
        exec in 0.5f64..20.0,
        interval in 0.05f64..25.0,
        t1 in 0.0f64..20.0,
        dt in 0.0f64..5.0,
    ) {
        let id = CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a);
        let g = group(id, exec, 0.02, 0.1);
        let r1 = g.remaining_ratio(t1, interval);
        let r2 = g.remaining_ratio(t1 + dt, interval);
        prop_assert!((0.0..=1.0).contains(&r1));
        prop_assert!(r2 <= r1 + 1e-12);
    }
}

/// Assert every query family agrees between the naive scans and the
/// indexed queries over a grid of bids, starts and cutoffs.
fn assert_index_agrees(trace: &SpotTrace, bids: &[f64], starts: &[f64]) {
    let ix = TraceIndex::build(trace);
    let fast = TraceQuery::new(trace, &ix);
    for &bid in bids {
        for &start in starts {
            assert_eq!(
                trace.first_passage_above(start, bid),
                fast.first_passage_above(start, bid),
                "first_passage_above(start={start}, bid={bid})"
            );
            for cutoff in [start - 1.0, start + 0.25, trace.duration(), f64::INFINITY] {
                assert_eq!(
                    trace.first_time_at_or_below(start, bid, cutoff),
                    fast.launch_time(start, bid, cutoff),
                    "launch_time(start={start}, bid={bid}, cutoff={cutoff})"
                );
            }
        }
    }
}

#[test]
fn index_agrees_on_constant_price_trace() {
    let trace = SpotTrace::new(1.0 / 12.0, vec![0.1; 60]);
    // Bids below, exactly at, and above the constant price.
    assert_index_agrees(&trace, &[0.05, 0.1, 0.2], &[0.0, 0.5, 3.0, 4.9, 5.0, 80.0]);
    let ix = TraceIndex::build(&trace);
    let fast = TraceQuery::new(&trace, &ix);
    // A bid at the constant price never passes above it but launches at once.
    assert_eq!(fast.first_passage_above(0.0, 0.1), None);
    assert_eq!(fast.launch_time(0.25, 0.1, f64::INFINITY), Some(0.25));
}

#[test]
fn index_agrees_outside_the_price_range() {
    let trace = SpotTrace::new(0.5, (0..48).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect());
    // Bid below the minimum: never launches; above the maximum: never dies.
    assert_index_agrees(&trace, &[0.01, 0.5], &[0.0, 1.3, 11.0, 23.9]);
    let ix = TraceIndex::build(&trace);
    let fast = TraceQuery::new(&trace, &ix);
    assert_eq!(fast.launch_time(0.0, 0.01, f64::INFINITY), None);
    assert_eq!(fast.first_passage_above(0.0, 0.5), None);
}

#[test]
fn index_agrees_past_trace_end_and_on_single_sample() {
    let trace = SpotTrace::new(0.5, vec![0.1, 0.3, 0.2, 0.05]);
    // Starts at, beyond, and far beyond the trace end.
    assert_index_agrees(&trace, &[0.04, 0.1, 0.25], &[1.9, 2.0, 2.1, 100.0]);

    let single = SpotTrace::new(1.0, vec![0.3]);
    assert_index_agrees(&single, &[0.1, 0.3, 0.9], &[-1.0, 0.0, 0.5, 1.0, 2.0]);
    let ix = TraceIndex::build(&single);
    assert_eq!(ix.len(), 1);

    // 2^6 + 1 samples: the last one shares the root's right half with
    // padding only, and is the only sample above 0.35.
    let mut prices: Vec<f64> = (0..64).map(|i| 0.1 + 0.1 * (i % 3) as f64).collect();
    prices.push(0.4);
    assert_index_agrees(
        &SpotTrace::new(0.5, prices),
        &[0.05, 0.1, 0.25, 0.35, 0.4, 0.5],
        &[0.0, 31.25, 31.75, 32.0, 32.25, 32.5, 40.0],
    );
}
