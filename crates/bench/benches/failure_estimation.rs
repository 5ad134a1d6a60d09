//! Failure-rate estimation cost: the exhaustive first-passage estimator
//! and the paper's G-sample Monte-Carlo variant over varying history
//! lengths, plus the launch-delay precomputation and the single sweep
//! (`bid_profile`) that yields both.
//!
//! `from_window` and `bid_profile` run on two 48 h windows: a generated
//! plateau trace, whose prices hold for hours at a time, and a random
//! walk in which no two neighbouring samples are equal — the worst case
//! for an estimator that works on runs of constant price. `from_window`
//! times two cases per trace: `warm`, a window of a trace whose run table
//! is already built, and `cold`, the first window of a fresh copy of the
//! trace, which builds the table (the copy is made outside the timing).
//!
//! `admission_counts` times what a planner pays to count the samples each
//! bid of a 13-point halving grid admits, estimator build included: `runs`
//! counts off the window's runs, as the walk of a group past the deadline
//! does, with no `S_i(P)` table; `table` builds the table and reads the
//! counts off it, as a swept group does. The walk costs O(runs × grid),
//! so the no-runs window is its worst case.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
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
        g.bench_with_input(BenchmarkId::new(name, "warm"), trace, |b, t| {
            b.iter(|| FailureEstimator::from_window(t.window(0.0, f64::INFINITY)))
        });
        g.bench_with_input(BenchmarkId::new(name, "cold"), trace, |b, t| {
            b.iter_batched(
                || SpotTrace::new(t.step_hours(), t.samples().to_vec()),
                |fresh| {
                    let est = FailureEstimator::from_window(fresh.window(0.0, f64::INFINITY));
                    (est, fresh)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
    let mut g = c.benchmark_group("admission_counts");
    for (name, trace, _) in windows {
        let top = trace.max_price();
        let grid: Vec<f64> = (0..13).map(|l| top / f64::powi(2.0, l)).collect();
        g.bench_with_input(BenchmarkId::new(name, "runs"), trace, |b, t| {
            b.iter(|| {
                let est = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
                grid.iter()
                    .map(|&bid| est.count_at_or_below(bid))
                    .sum::<usize>()
            })
        });
        g.bench_with_input(BenchmarkId::new(name, "table"), trace, |b, t| {
            b.iter(|| {
                let est = FailureEstimator::from_window(t.window(0.0, f64::INFINITY));
                let table = est.expected_spot_price();
                grid.iter()
                    .map(|&bid| table.count_at_or_below(bid))
                    .sum::<usize>()
            })
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
