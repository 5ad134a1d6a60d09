//! `tournament`: the paper's cost comparison, closed loop, one client.
//!
//! Each operation is one `run_tournament` grid: six policies (on-demand,
//! the literature rivals and SOMPI) × two paper markets × three fault
//! plans, 25,000 Monte-Carlo replicas per cell.
//! Batched and faulty replay, the death-time tables and the replay memo do
//! nearly all the work, so planner optimizations should show no change
//! here.

use crate::layers::{self, EventTally, Layers};
use crate::market;
use crate::span::Tracer;
use crate::stats::{self, Fnv};
use crate::{Round, Traced};
use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::market::SpotMarket;
use replay::batch::BatchTables;
use replay::exec::{ExecContext, ExecMode};
use replay::montecarlo::{McResult, MonteCarlo};
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::evaluate_plan;
use sompi_core::model::Plan;
use sompi_obs::{NullRecorder, RingRecorder, TraceLevel};
use sompi_server::service::{self, ServiceError};
use sompi_server::tournament::{
    run_tournament, TournamentCell, TournamentConfig, TournamentReport,
};
use sompi_server::PlanRequest;
use std::collections::HashMap;
use std::time::Instant;

pub struct Sizes {
    pub market_hours: f64,
    pub grids: usize,
    pub replicas: u32,
    pub repeats: u32,
}

pub const FULL: Sizes = Sizes {
    market_hours: 200.0,
    grids: 12,
    replicas: 25_000,
    repeats: 2000,
};

pub const SMOKE: Sizes = Sizes {
    market_hours: 150.0,
    grids: 1,
    replicas: 40,
    repeats: 200,
};

/// Grid `g` of a round: two market cases and a replica seed derived from
/// the workload seed and the grid index.
pub fn grid(seed: u64, g: usize, sizes: &Sizes) -> TournamentConfig {
    let g = g as u64;
    TournamentConfig {
        market_seeds: vec![
            stats::sub_seed(seed, 3, 2 * g) % 1_000_000,
            stats::sub_seed(seed, 3, 2 * g + 1) % 1_000_000,
        ],
        market_hours: sizes.market_hours,
        market_step_hours: market::STEP_HOURS,
        plan: PlanRequest {
            tenant: "bench".into(),
            repeats: sizes.repeats,
            threads: crate::plan::SEARCH_THREADS,
            ..Default::default()
        },
        fault_specs: vec![
            None,
            Some("storm=0.02x0.5".into()),
            Some("ckpt-fail=0.1".into()),
        ],
        replicas: sizes.replicas,
        mc_seed: stats::sub_seed(seed, 4, g),
        ..Default::default()
    }
}

/// Cells must be in range, and on-demand never misses or fails.
fn check(report: &TournamentReport) -> bool {
    report.cells.iter().all(|c| {
        let sane = c.mean_cost.is_finite()
            && c.normalized_cost > 0.0
            && (0.0..=1.0).contains(&c.deadline_miss_rate)
            && (0.0..=1.0).contains(&c.spot_finish_rate);
        let od_ok =
            c.policy != "On-demand" || (c.deadline_miss_rate == 0.0 && c.mean_failures == 0.0);
        sane && od_ok
    })
}

/// The round's market cases, built and indexed as set-up. The grid builds
/// its own markets; building them here gives the inputs digest and the
/// set-up time of the round's inputs. Returns the markets and the
/// (generate, index) seconds.
fn build_markets(grids: &[TournamentConfig]) -> (Vec<SpotMarket>, f64, f64) {
    let t = Instant::now();
    let markets: Vec<_> = grids
        .iter()
        .flat_map(|cfg| {
            cfg.market_seeds
                .iter()
                .map(|&s| market::paper_market(s, cfg.market_hours))
        })
        .collect();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for m in &markets {
        m.build_indexes();
    }
    (markets, generate_s, t.elapsed().as_secs_f64())
}

pub fn round(seed: u64, sizes: &Sizes) -> Round {
    let grids: Vec<_> = (0..sizes.grids).map(|g| grid(seed, g, sizes)).collect();
    let (markets, generate_s, index_s) = build_markets(&grids);
    let setup_s = generate_s + index_s;

    let mut op_ms = Vec::with_capacity(grids.len());
    let mut answers = Vec::with_capacity(grids.len());
    let t = Instant::now();
    for cfg in &grids {
        let t0 = Instant::now();
        let r = run_tournament(cfg, &NullRecorder, None);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(r);
    }
    let wall_s = t.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut out = Fnv::new();
    let mut cells = 0u64;
    let mut costs = Vec::new();
    let mut met = Vec::new();
    for answer in &answers {
        match answer {
            Ok(rep) => {
                out.write(rep.to_json().as_bytes());
                if !check(rep) {
                    failed += 1;
                }
                cells += rep.cells.len() as u64;
                for c in rep.cells.iter().filter(|c| c.policy == "SOMPI") {
                    costs.push(c.normalized_cost);
                    met.push(1.0 - c.deadline_miss_rate);
                }
            }
            Err(e) => {
                out.write(e.to_string().as_bytes());
                failed += 1;
            }
        }
    }
    let mut inputs = Fnv::new();
    for m in &markets {
        market::digest_into(&mut inputs, m);
    }
    Round {
        setup_s,
        work: (cells * u64::from(sizes.replicas)) as f64,
        op_ms,
        wall_s,
        norm_cost: stats::mean(&costs),
        met_rate: stats::mean(&met),
        attempted: grids.len() as u64,
        failed,
        inputs_digest: inputs.finish(),
        outputs_digest: out.finish(),
    }
}

/// Replay-side counters the recomposed grid collects.
#[derive(Default)]
struct ReplayTally {
    plan_searches: u64,
    tables_built: u64,
    tables_reused: u64,
    replicas: u64,
    failures: f64,
    spot_finishes: f64,
}

/// `run_tournament` recomposed from its public pieces: market generation,
/// problem and view, each policy's plan and model evaluation, and per
/// fault plan either a replay-memo hit or death tables plus a batched
/// Monte-Carlo replay (one thread). Same memo rules, same cell order.
fn grid_traced(
    cfg: &TournamentConfig,
    tracer: &mut Tracer,
    ring: &RingRecorder,
    tally: &mut EventTally,
    rt: &mut ReplayTally,
) -> Result<TournamentReport, ServiceError> {
    let plan_err = |e: sompi_core::SompiError| ServiceError::Plan(e.to_string());
    let roster: Vec<_> = cfg
        .policies
        .iter()
        .map(|name| service::strategy_from(name, service::optimizer_config(&cfg.plan)))
        .collect::<Result<_, _>>()?;
    let p = &cfg.plan;
    let app = tracer.time("problem.build", || {
        service::app_profile(&p.app, &p.class, p.procs, p.repeats)
    })?;
    let mut cells = Vec::new();
    let mut meta: Option<(String, f64, f64)> = None;
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    for &seed in &cfg.market_seeds {
        let market = tracer.time("tournament.market", || {
            market::paper_market(seed, cfg.market_hours)
        });
        let label = format!("paper-2014-s{seed}");
        let problem = tracer.time("problem.build", || {
            service::build_problem(&market, &app, p.deadline_factor)
        })?;
        let view = tracer.time("view.build", || service::view_for(&market, p));
        meta.get_or_insert_with(|| {
            (
                problem.app.clone(),
                problem.deadline,
                problem.baseline_cost_billed(),
            )
        });
        let margin = problem.baseline_time() * 4.0 + 4.0;
        let max = (market.horizon() - margin).max(p.history_hours + 1.0);
        let mc = MonteCarlo::builder()
            .replicas(cfg.replicas as usize)
            .seed(cfg.mc_seed)
            .offsets(p.history_hours, max)
            .threads(1)
            .build();
        let mut plan_memo: HashMap<String, (Plan, Option<f64>)> = HashMap::new();
        let mut replay_memo: HashMap<(String, usize), McResult> = HashMap::new();
        for policy in &roster {
            let name = policy.name().to_string();
            let (plan, expected) = match plan_memo.get(&name).cloned() {
                Some(hit) => hit,
                None => {
                    let span = tracer.open("policy.plan");
                    let plan =
                        policy.plan(&problem, &view, &mut PlanContext::new().with_recorder(ring));
                    tracer.close(span);
                    layers::drain_search_events(ring, tracer, span, tally);
                    rt.plan_searches += 1;
                    let plan = plan.map_err(|e| ServiceError::Plan(format!("{name}: {e}")))?;
                    let expected = tracer
                        .time("cost.evaluate_plan", || evaluate_plan(&plan, &view))
                        .map_err(plan_err)?
                        .map(|e| e.expected_cost);
                    plan_memo.insert(name.clone(), (plan.clone(), expected));
                    (plan, expected)
                }
            };
            let plan_bytes = tracer.time("tournament.memo", || {
                serde_json::to_string(&plan).expect("plans are serializable")
            });
            for (spec_idx, spec) in cfg.fault_specs.iter().enumerate() {
                let injector = tracer.time("fault.injector", || match spec {
                    Some(s) => FaultPlan::parse(s, cfg.fault_seed)
                        .map(|fp| Some(FaultInjector::new(fp, market.horizon())))
                        .map_err(ServiceError::InvalidArgument),
                    None => Ok(None),
                })?;
                let mut ctx = ExecContext::new().with_mode(ExecMode::Batched);
                if let Some(inj) = &injector {
                    ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
                }
                let key = (plan_bytes.clone(), spec_idx);
                let result = match replay_memo.get(&key) {
                    Some(hit) => {
                        memo_hits += 1;
                        hit.clone()
                    }
                    None => {
                        let batch = tracer
                            .time("death.tables", || BatchTables::for_plan(&market, &plan))
                            .map_err(plan_err)?;
                        rt.tables_built += u64::from(batch.tables_built);
                        rt.tables_reused += u64::from(batch.tables_reused);
                        let bctx = ctx.with_batch(&batch);
                        let result = tracer
                            .time("mc.run_plan", || {
                                mc.run_plan(&market, &plan, problem.deadline, &bctx)
                            })
                            .map_err(plan_err)?;
                        let n = f64::from(cfg.replicas);
                        rt.replicas += u64::from(cfg.replicas);
                        rt.failures += result.mean_failures * n;
                        rt.spot_finishes += result.spot_finish_rate * n;
                        memo_misses += 1;
                        replay_memo.insert(key, result.clone());
                        result
                    }
                };
                cells.push(TournamentCell {
                    policy: name.clone(),
                    market: label.clone(),
                    faults: spec.clone().unwrap_or_else(|| "none".into()),
                    expected_cost: expected,
                    mean_cost: result.cost.mean,
                    normalized_cost: result.cost.mean / problem.baseline_cost_billed(),
                    deadline_miss_rate: 1.0 - result.deadline_rate,
                    spot_finish_rate: result.spot_finish_rate,
                    mean_failures: result.mean_failures,
                    time_degradation: result.time.mean / problem.baseline_time(),
                });
            }
        }
    }
    let (app, deadline_hours, baseline_cost_billed) = meta.expect("at least one market ran");
    Ok(TournamentReport {
        app,
        deadline_hours,
        baseline_cost_billed,
        replicas: cfg.replicas,
        replay_memo_hits: memo_hits,
        replay_memo_misses: memo_misses,
        cells,
    })
}

pub fn traced(seed: u64, sizes: &Sizes) -> Traced {
    let grids: Vec<_> = (0..sizes.grids).map(|g| grid(seed, g, sizes)).collect();
    let ring = RingRecorder::new(TraceLevel::Summary, 1 << 16);
    let mut tracer = Tracer::new();
    let mut tally = EventTally::default();
    let mut rt = ReplayTally::default();
    let (mut failed, mut memo_hits, mut memo_misses) = (0u64, 0u64, 0u64);
    let (mut costs, mut met) = (Vec::new(), Vec::new());
    for (i, cfg) in grids.iter().enumerate() {
        let op = tracer.begin_op("tournament.op", i as u64);
        let got = grid_traced(cfg, &mut tracer, &ring, &mut tally, &mut rt);
        tracer.close(op);
        let want = run_tournament(cfg, &NullRecorder, None);
        if got != want {
            failed += 1;
        }
        if let Ok(rep) = &got {
            memo_hits += rep.replay_memo_hits;
            memo_misses += rep.replay_memo_misses;
            for c in rep.cells.iter().filter(|c| c.policy == "SOMPI") {
                costs.push(c.normalized_cost);
                met.push(1.0 - c.deadline_miss_rate);
            }
        }
    }
    let untraced_ns = crate::untraced_ns(&grids, |cfg, tracer, ring, tally| {
        grid_traced(cfg, tracer, ring, tally, &mut ReplayTally::default())
    });

    let (markets, generate_s, index_s) = build_markets(&grids);
    let mut out = Layers::new();
    tally.apply(&mut out);
    layers::quality(&mut out, &costs, &met);
    out.set("market.generate_ms", generate_s * 1e3);
    out.set("market.index_build_ms", index_s * 1e3);
    out.set(
        "market.samples",
        markets.iter().map(market::samples).sum::<u64>() as f64,
    );
    out.set("tournament.plan_searches", rt.plan_searches as f64);
    out.set("tournament.replay_memo_hits", memo_hits as f64);
    out.set("tournament.replay_memo_misses", memo_misses as f64);
    out.set("death.tables_built", rt.tables_built as f64);
    out.set("death.tables_reused", rt.tables_reused as f64);
    out.set("mc.replicas", rt.replicas as f64);
    out.set("replay.group_failures", rt.failures);
    out.set(
        "replay.spot_finish_rate",
        layers::ratio(rt.spot_finishes, rt.replicas as f64),
    );
    out.set(
        "view.builds",
        grids.iter().map(|g| g.market_seeds.len()).sum::<usize>() as f64,
    );
    Traced {
        spans: tracer.spans().to_vec(),
        ops: grids.len() as u64,
        untraced_ns,
        layers: out,
        attempted: grids.len() as u64,
        failed,
    }
}
