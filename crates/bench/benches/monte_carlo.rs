//! Trace-replay throughput: single-plan replays and the parallel
//! Monte-Carlo driver (the paper repeats its simulation one million times;
//! this measures what a million costs us).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use replay::montecarlo::MonteCarlo;
use replay::PlanRunner;
use sompi_bench::{build_problem, npb_workload, paper_market, planning_view, LOOSE};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::policy::Policy;
use sompi_core::twolevel::OptimizerConfig;

fn bench_replay(c: &mut Criterion) {
    let market = paper_market(27182, 300.0);
    let profile = npb_workload(mpi_sim::npb::NpbKernel::Bt);
    let problem = build_problem(&market, &profile, LOOSE);
    let view = planning_view(&market);
    let plan = Sompi {
        config: OptimizerConfig {
            kappa: 3,
            bid_levels: 4,
            ..Default::default()
        },
    }
    .plan(&problem, &view, &mut PlanContext::new())
    .expect("plan succeeds");
    let runner = PlanRunner::new(&market, problem.deadline);

    let ctx = replay::ExecContext::new();
    c.bench_function("single_replay", |b| {
        let mut offset = 50.0;
        b.iter(|| {
            offset = if offset > 230.0 { 50.0 } else { offset + 1.7 };
            runner.run(std::hint::black_box(&plan), offset, &ctx)
        })
    });

    let mut g = c.benchmark_group("monte_carlo_batch");
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let mc = MonteCarlo {
                    replicas: 256,
                    seed: 11,
                    offset_min: 48.0,
                    offset_max: 260.0,
                    threads,
                };
                b.iter(|| mc.run_plan(&market, &plan, problem.deadline, &ctx))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
