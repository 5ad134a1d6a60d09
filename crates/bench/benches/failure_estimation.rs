//! Failure-rate estimation cost: the exhaustive first-passage estimator
//! and the paper's G-sample Monte-Carlo variant over varying history
//! lengths, plus the launch-delay precomputation and the single sweep
//! (`bid_profile`) that yields both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ec2_market::failure::FailureEstimator;
use ec2_market::tracegen::{TraceGenConfig, ZoneVolatility};

fn bench_estimators(c: &mut Criterion) {
    let mut g = c.benchmark_group("failure_rate_exact");
    for hours in [24.0, 48.0, 96.0] {
        let trace =
            TraceGenConfig::preset(0.03, ZoneVolatility::Volatile).generate(hours, 1.0 / 12.0, 7);
        let est = FailureEstimator::from_window(trace.window(0.0, f64::INFINITY));
        g.bench_with_input(BenchmarkId::from_parameter(hours as u32), &est, |b, est| {
            b.iter(|| est.failure_rate_exact(std::hint::black_box(0.05), 24))
        });
    }
    g.finish();

    let trace =
        TraceGenConfig::preset(0.03, ZoneVolatility::Volatile).generate(48.0, 1.0 / 12.0, 7);
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
    c.bench_function("bid_profile", |b| {
        b.iter(|| est.bid_profile(std::hint::black_box(0.05), 24))
    });
    c.bench_function("expected_spot_price_table_build", |b| {
        b.iter(|| {
            ec2_market::failure::ExpectedSpotPrice::from_window(trace.window(0.0, f64::INFINITY))
        })
    });
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
