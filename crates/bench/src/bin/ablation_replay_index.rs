//! Trace-index ablation — the replay hot path with the max/min-tree
//! `TraceIndex` on (default) vs off (`--no-trace-index` semantics), plus
//! the raw query layer in isolation.
//!
//! Two studies, each asserting bit-identical answers before reporting
//! wall-clock:
//!
//! 1. `queries` — `first_passage_above` + `launch_time` microbenchmark on
//!    one long trace: O(n) scans vs O(log n) climbs and descents over the
//!    max and min trees.
//! 2. `mc-replay` — the paper's Section 5 experiment shape (Monte-Carlo
//!    replay of a planned execution from random start offsets), scaled
//!    toward the paper's one-million replicas, on the per-replica scalar
//!    executor: the one that queries the index. The speedup ratio is
//!    per-replica and therefore scale-invariant; the table also reports
//!    both configurations extrapolated to 1M replicas.
//!
//! Timing is best-of-5 (`--smoke`: best-of-1 with shrunk sizes for CI).
//! The full run writes the measured baseline to `BENCH_replay.json`.

use ec2_market::index::{TraceIndex, TraceQuery};
use ec2_market::market::CircleGroupId;
use ec2_market::trace::SpotTrace;
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use replay::{ExecContext, ExecMode, MonteCarlo};
use sompi_bench::{build_problem, paper_market, planning_view, repeat_to_hours, Table, LOOSE};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{SpotInf, Strategy};
use std::time::Instant;

/// Best-of-N wall-clock of `f`, returning the last value for identity
/// checks.
fn time_best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let started = Instant::now();
        let v = f();
        best = best.min(started.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one iteration ran"))
}

struct Study {
    name: &'static str,
    work: String,
    naive_secs: f64,
    indexed_secs: f64,
}

impl Study {
    fn speedup(&self) -> f64 {
        self.naive_secs / self.indexed_secs
    }
}

/// Study 1: the two O(log n) query families against their O(n) scans.
/// Also returns the index's build time and heap bytes.
fn query_study(trace: &SpotTrace, queries: usize, iters: usize) -> (Study, f64, usize) {
    let (build_secs, ix) = time_best_of(iters, || TraceIndex::build(trace));
    let duration = trace.duration();
    let max_price = trace.max_price();
    // Deterministic low-discrepancy grid of (start, bid) pairs; the bid
    // range deliberately includes never-crossed and never-launchable
    // levels so both descent directions hit their worst cases.
    let run = |q: TraceQuery<'_>| {
        let mut deaths = 0u64;
        let mut launches = 0u64;
        for i in 0..queries {
            let start = (i as f64 * 0.618_033_988_75 * duration) % duration;
            let bid = max_price * (0.05 + 1.05 * ((i % 97) as f64 / 97.0));
            if let Some(t) = q.first_passage_above(start, bid) {
                deaths = deaths.wrapping_add(t.to_bits());
            }
            if let Some(t) = q.launch_time(start, bid, duration) {
                launches = launches.wrapping_add(t.to_bits());
            }
        }
        (deaths, launches)
    };
    let (naive_secs, naive_sum) = time_best_of(iters, || run(TraceQuery::new(trace, None)));
    let (indexed_secs, indexed_sum) =
        time_best_of(iters, || run(TraceQuery::new(trace, Some(&ix))));
    assert_eq!(
        naive_sum, indexed_sum,
        "indexed queries diverged from the naive scans"
    );
    (
        Study {
            name: "queries",
            work: format!("{queries} query pairs, {} samples", trace.len()),
            naive_secs,
            indexed_secs,
        },
        build_secs,
        ix.heap_bytes(),
    )
}

/// Study 2: end-to-end Monte-Carlo replay, index on vs off. The scenario
/// is deliberately the scan-heavy regime the one-million-replica
/// experiment lives in: a long production run (the workload is repeated
/// to `exec_hours` of baseline execution) under the paper's bid-infinity
/// baseline, whose uncrossable bid lets the group ride out the whole
/// window — so proving "the price never crossed the bid" forces the
/// naive path to walk every sample of a minute-resolution trace. (A plan
/// that dies within a few samples answers the same query trivially with
/// or without the index.)
fn mc_study(replicas: usize, hours: f64, step_hours: f64, exec_hours: f64, iters: usize) -> Study {
    let catalog = ec2_market::instance::InstanceCatalog::paper_2014();
    let profile = ec2_market::tracegen::MarketProfile::paper_2014(&catalog);
    let generator = ec2_market::tracegen::TraceGenerator::new(profile, 20140806);
    let indexed = ec2_market::market::SpotMarket::generate(catalog, &generator, hours, step_hours);
    let naive = indexed.clone().without_trace_index();
    let workload = repeat_to_hours(NpbKernel::Bt.profile(NpbClass::B, 128), exec_hours);
    let view = planning_view(&indexed);
    let problem = build_problem(&indexed, &workload, LOOSE);
    let plan = SpotInf
        .plan(&problem, &view, &mut PlanContext::new())
        .expect("plan succeeds");
    let mc = MonteCarlo::builder()
        .replicas(replicas)
        .seed(7)
        .offsets(48.0, (hours - problem.deadline - 2.0).max(49.0))
        .threads(0)
        .build();
    // The default batched executor answers every crossing from death-time
    // tables, index on or off; only the scalar executor queries the index.
    let ctx = ExecContext::new().with_mode(ExecMode::Scalar);
    // The index is built once per market and shared across replicas and
    // worker threads; pre-building keeps the timed region to pure replay
    // (build cost is reported by the query study).
    indexed.build_indexes();
    let (indexed_secs, r_ix) = time_best_of(iters, || {
        mc.run_plan(&indexed, &plan, problem.deadline, &ctx)
            .unwrap()
    });
    let (naive_secs, r_nv) = time_best_of(iters, || {
        mc.run_plan(&naive, &plan, problem.deadline, &ctx).unwrap()
    });
    assert_eq!(
        r_ix, r_nv,
        "Monte-Carlo aggregates diverged between index on/off"
    );
    assert!(
        r_ix.spot_finish_rate > 0.5,
        "the study must exercise the surviving-group scan path"
    );
    Study {
        name: "mc-replay",
        work: format!(
            "{replicas} replicas, {:.0} h run, {:.0}k samples/trace",
            problem.deadline,
            hours / step_hours / 1000.0
        ),
        naive_secs,
        indexed_secs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let iters = if smoke { 1 } else { 5 };
    let (queries, replicas, mc_hours, mc_step, exec_hours) = if smoke {
        (20_000, 500, 300.0, 1.0 / 12.0, 12.0)
    } else {
        (500_000, 20_000, 1000.0, 1.0 / 60.0, 240.0)
    };
    println!(
        "Trace-index ablation ({} cores, best-of-{iters}){}",
        cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!();

    let query_hours = if smoke { 300.0 } else { 1200.0 };
    let market = paper_market(20140806, query_hours);
    let trace = market
        .trace(CircleGroupId::new(
            market.catalog().by_name("m1.medium").unwrap(),
            AvailabilityZone::UsEast1a,
        ))
        .unwrap();

    let (q_study, build_secs, index_bytes) = query_study(trace, queries, iters);
    let m_study = mc_study(replicas, mc_hours, mc_step, exec_hours, iters);

    let mut t = Table::new(["study", "work", "naive (s)", "indexed (s)", "speedup"]);
    for s in [&q_study, &m_study] {
        t.row([
            s.name.into(),
            s.work.clone(),
            format!("{:.4}", s.naive_secs),
            format!("{:.4}", s.indexed_secs),
            format!("{:.1}x", s.speedup()),
        ]);
    }
    t.print();
    println!();
    println!(
        "index build (one-time, per trace): {build_secs:.5} s, {index_bytes} bytes for {} samples",
        trace.len()
    );
    let per_replica_ix = m_study.indexed_secs / replicas as f64;
    let per_replica_nv = m_study.naive_secs / replicas as f64;
    println!(
        "mc-replay extrapolated to the paper's 1M replicas: naive {:.1} s, indexed {:.1} s",
        per_replica_nv * 1e6,
        per_replica_ix * 1e6
    );
    println!(
        "(Aggregation streams through at most {} chunk partials, so peak",
        replay::montecarlo::MAX_CHUNKS
    );
    println!(" memory is independent of the replica count.)");

    if !smoke {
        let study_doc = |s: &Study| {
            serde_json::json!({
                "name": s.name,
                "work": s.work.as_str(),
                "naive_secs": s.naive_secs,
                "indexed_secs": s.indexed_secs,
                "speedup": s.speedup(),
            })
        };
        let mc_doc = serde_json::json!({
            "name": m_study.name,
            "work": m_study.work.as_str(),
            "naive_secs": m_study.naive_secs,
            "indexed_secs": m_study.indexed_secs,
            "speedup": m_study.speedup(),
            "extrapolated_1m_naive_secs": per_replica_nv * 1e6,
            "extrapolated_1m_indexed_secs": per_replica_ix * 1e6,
        });
        let doc = serde_json::json!({
            "bench": "ablation_replay_index",
            "cores": cores,
            "best_of": iters,
            "index_build_secs": build_secs,
            "index_bytes": index_bytes,
            "studies": [study_doc(&q_study), mc_doc],
        });
        let json = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write("BENCH_replay.json", json + "\n").expect("write BENCH_replay.json");
        println!("\nwrote BENCH_replay.json");
    }
}
