//! Optimizer search-cost benchmarks — the Section 4.2.2 claims.
//!
//! The paper's example: a naive search over (bids × intervals)^K would be
//! ~10^16 evaluations; dimension reduction (F = φ(P)) brings it to
//! (bids)^K per subset and the logarithmic grid to (log₂ H)^K ≈ 2000.
//! These benchmarks measure the real cost of each level on the same
//! problem, plus the κ scaling. Every search runs on the calling thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sompi_bench::{build_problem, npb_workload, paper_market, planning_view, LOOSE};
use sompi_core::twolevel::{GridKind, OptimizerConfig, TwoLevelOptimizer};

fn bench_search_levels(c: &mut Criterion) {
    let market = paper_market(31415, 160.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);

    let mut g = c.benchmark_group("two_level_search");
    g.sample_size(10);

    // Full method: φ(P) + logarithmic grid.
    g.bench_function("phi_log_grid", |b| {
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 5,
            ..Default::default()
        };
        b.iter(|| TwoLevelOptimizer::new(&problem, &view, cfg).optimize())
    });
    // Ablation 1: drop Theorem 1, search intervals on a grid too.
    g.bench_function("interval_grid_5", |b| {
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 5,
            interval_grid: Some(5),
            ..Default::default()
        };
        b.iter(|| TwoLevelOptimizer::new(&problem, &view, cfg).optimize())
    });
    // Ablation 2: uniform bid grid of the same size.
    g.bench_function("phi_uniform_grid", |b| {
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 5,
            grid: GridKind::Uniform,
            ..Default::default()
        };
        b.iter(|| TwoLevelOptimizer::new(&problem, &view, cfg).optimize())
    });
    g.finish();

    let mut g = c.benchmark_group("kappa_scaling");
    g.sample_size(10);
    for kappa in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::from_parameter(kappa), &kappa, |b, &kappa| {
            let cfg = OptimizerConfig {
                kappa,
                bid_levels: 3,
                ..Default::default()
            };
            b.iter(|| TwoLevelOptimizer::new(&problem, &view, cfg).optimize())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_search_levels);
criterion_main!(benches);
