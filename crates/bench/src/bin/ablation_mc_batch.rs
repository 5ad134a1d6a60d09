//! Batched-replay / replay-memo ablation — the Monte-Carlo hot path with
//! the scenario-major batched executor on (default) vs off
//! (`--no-batch-replay` semantics), and the tournament with cross-cell
//! replay memoization on (default) vs off (`--no-replay-memo`).
//!
//! Three studies, each asserting bit-identical answers before reporting
//! wall-clock:
//!
//! 1. `death-tables` — `first_passage_above` + `launch_time` on one long
//!    trace: the per-(group, bid) `DeathTimeTable`'s O(1) lookups vs the
//!    max/min-tree `TraceIndex`'s O(log n) searches. The table is the
//!    batched executor's building block; its build cost is amortized over
//!    every replica and every tournament cell sharing the market.
//! 2. `mc-replay` — Monte-Carlo replay of one planned execution,
//!    `ExecMode::Batched` vs `ExecMode::Scalar` on the same indexed
//!    market (so the ratio isolates the batch layer, not the trace
//!    index).
//! 3. `tournament-grid` — a duplication-heavy tournament (the paper's
//!    six-policy roster submitted by several tenants, the same shape the
//!    server's shared plan cache serves) with {batch+memo} vs
//!    {scalar, no memo}. Duplicate (plan, market, fault-spec) cells
//!    collapse onto one search and one replay; the committed baseline
//!    must show at least [`TOURNAMENT_SPEEDUP_FLOOR`]x.
//!
//! Timing is best-of-5 (`--smoke`: best-of-1 with shrunk sizes for CI).
//! `--smoke` additionally asserts the tournament speedup floor
//! [`SMOKE_SPEEDUP_FLOOR`] and byte-identical tournament JSON across
//! repeat runs. The full run writes the measured baseline to
//! `BENCH_mc_batch.json`.

use ec2_market::death::DeathTimeTable;
use ec2_market::index::{TraceIndex, TraceQuery};
use ec2_market::market::CircleGroupId;
use ec2_market::trace::SpotTrace;
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use replay::{ExecContext, ExecMode, MonteCarlo};
use sompi_bench::{build_problem, paper_market, planning_view, repeat_to_hours, Table, LOOSE};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::{Sompi, Strategy};
use sompi_core::twolevel::OptimizerConfig;
use sompi_obs::NullRecorder;
use sompi_server::proto::PlanRequest;
use sompi_server::tournament::{run_tournament, TournamentConfig, TournamentReport};
use std::time::Instant;

/// The committed full-run baseline must clear this on the tournament
/// grid (the PR's acceptance floor).
const TOURNAMENT_SPEEDUP_FLOOR: f64 = 5.0;
/// The CI smoke assertion: deliberately below the structural dedup
/// factor of the smoke grid (~6x fewer replays with the memo on), so a
/// noisy shared runner cannot flake it.
const SMOKE_SPEEDUP_FLOOR: f64 = 2.0;

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
    scalar_secs: f64,
    batched_secs: f64,
}

impl Study {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.batched_secs
    }
}

/// Study 1: the death-time table's O(1) answers against the trace
/// index's O(log n) descents, over a (start, bid) grid that reuses each
/// bid across many starts — the batched executor's access pattern (one
/// table per (group, bid), thousands of replica start offsets).
fn table_study(trace: &SpotTrace, bids: usize, starts: usize, iters: usize) -> (Study, f64) {
    let ix = TraceIndex::build(trace);
    let q = TraceQuery::new(trace, Some(&ix));
    let duration = trace.duration();
    let max_price = trace.max_price();
    let bid_at = |b: usize| max_price * (0.05 + 1.05 * (b as f64 / bids as f64));
    let start_at = |s: usize| (s as f64 * 0.618_033_988_75 * duration) % duration;
    let (build_secs, tables) = time_best_of(iters, || {
        (0..bids)
            .map(|b| DeathTimeTable::build(trace, bid_at(b)))
            .collect::<Vec<_>>()
    });
    let run_indexed = || {
        let mut acc = 0u64;
        for b in 0..bids {
            let bid = bid_at(b);
            for s in 0..starts {
                let start = start_at(s);
                if let Some(t) = q.first_passage_above(start, bid) {
                    acc = acc.wrapping_add(t.to_bits());
                }
                if let Some(t) = q.launch_time(start, bid, duration) {
                    acc = acc.wrapping_add(t.to_bits());
                }
            }
        }
        acc
    };
    let run_tables = || {
        let mut acc = 0u64;
        for (b, table) in tables.iter().enumerate() {
            debug_assert_eq!(table.bid().to_bits(), bid_at(b).to_bits());
            for s in 0..starts {
                let start = start_at(s);
                if let Some(t) = table.first_passage_above(start) {
                    acc = acc.wrapping_add(t.to_bits());
                }
                if let Some(t) = table.launch_time(start, duration) {
                    acc = acc.wrapping_add(t.to_bits());
                }
            }
        }
        acc
    };
    let (scalar_secs, indexed_sum) = time_best_of(iters, run_indexed);
    let (batched_secs, table_sum) = time_best_of(iters, run_tables);
    assert_eq!(
        indexed_sum, table_sum,
        "death-table answers diverged from the indexed queries"
    );
    (
        Study {
            name: "death-tables",
            work: format!("{bids} bids x {starts} starts, {} samples", trace.len()),
            scalar_secs,
            batched_secs,
        },
        build_secs,
    )
}

/// Study 2: end-to-end Monte-Carlo replay, batched vs scalar, on the
/// same trace-indexed market — isolating the batch layer's contribution
/// on top of the (already committed) index speedup.
fn mc_study(replicas: usize, hours: f64, exec_hours: f64, iters: usize) -> Study {
    let market = paper_market(20140806, hours);
    market.build_indexes();
    let workload = repeat_to_hours(NpbKernel::Bt.profile(NpbClass::B, 128), exec_hours);
    let view = planning_view(&market);
    let problem = build_problem(&market, &workload, LOOSE);
    let plan = Sompi {
        config: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
    }
    .plan(&problem, &view, &mut PlanContext::new())
    .expect("plan succeeds");
    let mc = MonteCarlo::builder()
        .replicas(replicas)
        .seed(7)
        .offsets(48.0, (hours - problem.deadline - 2.0).max(49.0))
        .threads(0)
        .build();
    let scalar_ctx = ExecContext::new().with_mode(ExecMode::Scalar);
    let batched_ctx = ExecContext::new().with_mode(ExecMode::Batched);
    let (scalar_secs, a) = time_best_of(iters, || {
        mc.run_plan(&market, &plan, problem.deadline, &scalar_ctx)
            .unwrap()
    });
    let (batched_secs, b) = time_best_of(iters, || {
        mc.run_plan(&market, &plan, problem.deadline, &batched_ctx)
            .unwrap()
    });
    assert_eq!(a, b, "Monte-Carlo aggregates diverged between batch on/off");
    Study {
        name: "mc-replay",
        work: format!("{replicas} replicas, {} groups", plan.groups.len()),
        scalar_secs,
        batched_secs,
    }
}

/// The duplication-heavy tournament grid: the paper's six-policy roster
/// submitted by `tenants` tenants over `seeds` markets and a two-point
/// fault grid.
fn grid_config(tenants: usize, seeds: &[u64], replicas: u32) -> TournamentConfig {
    let base = [
        "ondemand",
        "no-ft",
        "ckpt-only",
        "app-centric",
        "deadline-hedge",
        "sompi",
    ];
    let mut policies = Vec::new();
    for _ in 0..tenants {
        policies.extend(base.iter().map(|s| s.to_string()));
    }
    TournamentConfig {
        policies,
        market_seeds: seeds.to_vec(),
        market_hours: 400.0,
        replicas,
        fault_specs: vec![None, Some("storm=0.02x0.5".into())],
        plan: PlanRequest {
            repeats: 200,
            kappa: 1,
            bid_levels: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Study 3: the tournament with both layers on vs both off. Cells must
/// be byte-identical (serialized floats distinguish `-0.0` from `0.0`,
/// so byte equality is bit equality).
fn tournament_study(
    tenants: usize,
    seeds: &[u64],
    replicas: u32,
    iters: usize,
) -> (Study, TournamentReport) {
    let cfg_on = grid_config(tenants, seeds, replicas);
    let mut cfg_off = cfg_on.clone();
    cfg_off.batch_replay = false;
    cfg_off.replay_memo = false;
    let (batched_secs, on) = time_best_of(iters, || {
        run_tournament(&cfg_on, &NullRecorder, None).unwrap()
    });
    let (scalar_secs, off) = time_best_of(iters, || {
        run_tournament(&cfg_off, &NullRecorder, None).unwrap()
    });
    assert_eq!(
        serde_json::to_string(&on.cells).expect("serializable"),
        serde_json::to_string(&off.cells).expect("serializable"),
        "tournament cells diverged between {{batch, memo}} on/off"
    );
    assert_eq!(off.replay_memo_hits, 0, "memo off must not count hits");
    let study = Study {
        name: "tournament-grid",
        work: format!(
            "{} cells ({} tenants x 6 policies x {} markets x 2 faults), {replicas} replicas",
            on.cells.len(),
            tenants,
            seeds.len()
        ),
        scalar_secs,
        batched_secs,
    };
    (study, on)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let iters = if smoke { 1 } else { 5 };
    println!(
        "Batched-replay / replay-memo ablation ({} cores, best-of-{iters}){}",
        cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!();

    let (bids, starts, mc_replicas, mc_hours, exec_hours) = if smoke {
        (32, 2_000, 2_000, 300.0, 12.0)
    } else {
        (64, 40_000, 20_000, 1000.0, 240.0)
    };
    let (tenants, seeds, t_replicas): (usize, &[u64], u32) = if smoke {
        (6, &[21], 300)
    } else {
        (6, &[21, 22, 23], 4_000)
    };

    let query_hours = if smoke { 300.0 } else { 1200.0 };
    let market = paper_market(20140806, query_hours);
    let trace = market
        .trace(CircleGroupId::new(
            market.catalog().by_name("m1.medium").unwrap(),
            AvailabilityZone::UsEast1a,
        ))
        .unwrap();

    let (d_study, build_secs) = table_study(trace, bids, starts, iters);
    let m_study = mc_study(mc_replicas, mc_hours, exec_hours, iters);
    let (t_study, report) = tournament_study(tenants, seeds, t_replicas, iters);

    let mut t = Table::new(["study", "work", "scalar (s)", "batched (s)", "speedup"]);
    for s in [&d_study, &m_study, &t_study] {
        t.row([
            s.name.into(),
            s.work.clone(),
            format!("{:.4}", s.scalar_secs),
            format!("{:.4}", s.batched_secs),
            format!("{:.1}x", s.speedup()),
        ]);
    }
    t.print();
    println!();
    println!(
        "death-table build (one-time, per (group, bid), amortized by the \
         market cache): {:.5} s for {bids} tables",
        build_secs
    );
    println!(
        "tournament memo: {} hits / {} misses over {} cells",
        report.replay_memo_hits,
        report.replay_memo_misses,
        report.cells.len()
    );

    if smoke {
        assert!(
            t_study.speedup() >= SMOKE_SPEEDUP_FLOOR,
            "smoke tournament speedup {:.2}x under the {SMOKE_SPEEDUP_FLOOR}x floor",
            t_study.speedup()
        );
        // Determinism contract, extended to the new layers: the full
        // report JSON — counters included — is byte-identical across
        // repeat runs.
        let run = || {
            run_tournament(
                &grid_config(tenants, seeds, t_replicas),
                &NullRecorder,
                None,
            )
            .expect("tournament runs")
            .to_json()
        };
        assert_eq!(run(), run(), "a repeat run changed the report");
        println!("\nsmoke checks passed: speedup floor + repeat-run JSON identity");
        return;
    }

    assert!(
        t_study.speedup() >= TOURNAMENT_SPEEDUP_FLOOR,
        "tournament-grid speedup {:.2}x under the committed {TOURNAMENT_SPEEDUP_FLOOR}x floor",
        t_study.speedup()
    );
    let study_doc = |s: &Study| {
        serde_json::json!({
            "name": s.name,
            "work": s.work.as_str(),
            "scalar_secs": s.scalar_secs,
            "batched_secs": s.batched_secs,
            "speedup": s.speedup(),
        })
    };
    let memo_doc = serde_json::json!({
        "hits": report.replay_memo_hits,
        "misses": report.replay_memo_misses,
        "cells": report.cells.len(),
    });
    let doc = serde_json::json!({
        "bench": "ablation_mc_batch",
        "cores": cores,
        "best_of": iters,
        "table_build_secs": build_secs,
        "tournament_memo": memo_doc,
        "studies": [study_doc(&d_study), study_doc(&m_study), study_doc(&t_study)],
    });
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write("BENCH_mc_batch.json", json + "\n").expect("write BENCH_mc_batch.json");
    println!("\nwrote BENCH_mc_batch.json");
}
