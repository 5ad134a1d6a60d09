//! Failure-rate estimation cost: the exhaustive first-passage estimator
//! and the paper's G-sample Monte-Carlo variant over varying history
//! lengths, plus the launch-delay precomputation and the single sweep
//! (`bid_profile`) that yields both.
//!
//! `from_window` and `bid_profile` run on two 48 h windows: a generated
//! plateau trace, whose prices hold for hours at a time, and a random
//! walk in which no two neighbouring samples are equal — the worst case
//! for an estimator that works on runs of constant price.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ec2_market::failure::FailureEstimator;
use ec2_market::trace::SpotTrace;
use ec2_market::tracegen::{TraceGenConfig, ZoneVolatility};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STEP_HOURS: f64 = 1.0 / 12.0;

/// A multiplicative random walk around $0.05 with no two equal
/// neighbours.
fn random_walk(hours: f64, seed: u64) -> SpotTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (hours / STEP_HOURS).ceil() as usize;
    let mut prices = Vec::with_capacity(n);
    let mut p = 0.05f64;
    for _ in 0..n {
        let next = (p * rng.gen_range(0.9..1.1)).clamp(0.01, 0.25);
        p = if next == p { next * 1.01 } else { next };
        prices.push(p);
    }
    assert!(prices.windows(2).all(|w| w[0] != w[1]));
    SpotTrace::new(STEP_HOURS, prices)
}

fn bench_estimators(c: &mut Criterion) {
    let mut g = c.benchmark_group("failure_rate_exact");
    for hours in [24.0, 48.0, 96.0] {
        let trace =
            TraceGenConfig::preset(0.03, ZoneVolatility::Volatile).generate(hours, STEP_HOURS, 7);
        let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
        g.bench_with_input(BenchmarkId::from_parameter(hours as u32), &est, |b, est| {
            b.iter(|| est.failure_rate_exact(std::hint::black_box(0.05), 24))
        });
    }
    g.finish();

    let trace =
        TraceGenConfig::preset(0.03, ZoneVolatility::Volatile).generate(48.0, STEP_HOURS, 7);
    let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));

    let mut g = c.benchmark_group("failure_rate_sampled");
    for samples in [100usize, 1000, 10_000] {
        g.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &n| {
            b.iter(|| est.failure_rate_sampled(std::hint::black_box(0.05), 24, n, 1))
        });
    }
    g.finish();

    c.bench_function("expected_launch_delay", |b| {
        b.iter(|| est.expected_launch_delay(std::hint::black_box(0.028)))
    });
    c.bench_function("expected_spot_price_table_build", |b| {
        b.iter(|| {
            ec2_market::failure::ExpectedSpotPrice::from_window(trace.window(0.0, f64::INFINITY))
        })
    });

    // Each window with a bid that both admits and rejects part of it, so
    // the sweep does its full work: the plateau trace's usual bid, and
    // the walk's mean price.
    let walk = random_walk(48.0, 11);
    let walk_bid = walk.mean_price();
    let windows = [("plateau", &trace, 0.05), ("no_runs", &walk, walk_bid)];
    let mut g = c.benchmark_group("from_window");
    for (name, trace, _) in windows {
        g.bench_with_input(BenchmarkId::from_parameter(name), trace, |b, t| {
            b.iter(|| FailureEstimator::from_window(t.window(0.0, f64::INFINITY)))
        });
    }
    g.finish();
    let mut g = c.benchmark_group("bid_profile");
    for (name, trace, bid) in windows {
        let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
        g.bench_with_input(BenchmarkId::from_parameter(name), &est, |b, est| {
            b.iter(|| est.bid_profile(std::hint::black_box(bid), 24))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
