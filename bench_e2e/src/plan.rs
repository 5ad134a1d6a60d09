//! `plan`: the one-shot `sompi plan` path, closed loop, one client.
//!
//! Every round asks for one plan per point of a fixed design (app ×
//! repeats × deadline × κ × bid levels, 756 distinct requests) against a
//! 2,400 h stress market, each with its own seeded view start, in a seeded
//! order. No two requests share a view, so no cache or replay is involved:
//! the view, `assess_options` and the search kernel do the work. The design
//! is the same for every seed, so seeds change the market and the views but
//! not the mix.

use crate::layers::{self, EventTally, Layers};
use crate::market;
use crate::span::Tracer;
use crate::stats::{self, Fnv};
use crate::{Round, Traced};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replay::exec::ExecContext;
use replay::montecarlo::MonteCarlo;
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::evaluate_plan;
use sompi_obs::{NullRecorder, RingRecorder, TraceLevel};
use sompi_server::service::{self, PlanReport};
use sompi_server::PlanRequest;
use std::time::Instant;

pub const APPS: [&str; 7] = ["BT", "SP", "LU", "FT", "CG", "MG", "LAMMPS"];
const REPEATS: [u32; 3] = [200, 1000, 2000];
const DEADLINES: [f64; 4] = [1.05, 1.2, 1.5, 2.0];
const KAPPAS: [u32; 3] = [1, 2, 4];
const BID_LEVELS: [u32; 3] = [6, 12, 16];

/// Every search runs on one thread. The request default (0) means one
/// worker per core; at 0, adaptive replays on two cores occasionally
/// differ between identical calls, which would break the exact output
/// digests.
pub const SEARCH_THREADS: u32 = 1;

pub struct Sizes {
    pub market_hours: f64,
    /// Requests per round (at most the 756 design points).
    pub requests: usize,
    /// Replay every n-th plan to measure its realized cost (untimed).
    pub replay_every: usize,
    pub replay_replicas: usize,
}

pub const FULL: Sizes = Sizes {
    market_hours: market::STRESS_HOURS,
    requests: 756,
    replay_every: 12,
    replay_replicas: 200,
};

pub const SMOKE: Sizes = Sizes {
    market_hours: 150.0,
    requests: 6,
    replay_every: 3,
    replay_replicas: 8,
};

/// The full design in seeded order.
pub fn design(seed: u64, market_hours: f64) -> Vec<PlanRequest> {
    let mut out = design_points(seed, market_hours);
    stats::shuffle(
        &mut out,
        &mut StdRng::seed_from_u64(stats::sub_seed(seed, 1, 1)),
    );
    out
}

/// The full design in its fixed order (app, repeats, deadline, κ, bid
/// levels), each point with a seeded view start anywhere its 48 h history
/// fits in the market.
pub fn design_points(seed: u64, market_hours: f64) -> Vec<PlanRequest> {
    let mut rng = StdRng::seed_from_u64(stats::sub_seed(seed, 1, 0));
    let view_max = market_hours - 2.0 * PlanRequest::default().history_hours;
    let mut out = Vec::new();
    for app in APPS {
        for repeats in REPEATS {
            for deadline_factor in DEADLINES {
                for kappa in KAPPAS {
                    for bid_levels in BID_LEVELS {
                        out.push(PlanRequest {
                            tenant: "bench".into(),
                            app: app.into(),
                            repeats,
                            deadline_factor,
                            kappa,
                            bid_levels,
                            view_start_hours: rng.gen_range(0.0..view_max),
                            threads: SEARCH_THREADS,
                            ..Default::default()
                        });
                    }
                }
            }
        }
    }
    out
}

/// The model's own answer must reproduce: re-evaluating the returned plan
/// against the request's view gives the reported cost and time bit for
/// bit, and the numbers are in range.
fn check(market: &ec2_market::market::SpotMarket, req: &PlanRequest, rep: &PlanReport) -> bool {
    let view = service::view_for(market, req);
    let same = match evaluate_plan(&rep.plan, &view) {
        Ok(Some(e)) => {
            e.expected_cost.to_bits() == rep.expected_cost.to_bits()
                && e.expected_time.to_bits() == rep.expected_time.to_bits()
        }
        _ => false,
    };
    same && rep.expected_cost.is_finite()
        && rep.expected_cost > 0.0
        && (0.0..=1.0).contains(&rep.p_all_fail)
        && rep.baseline_cost_billed > 0.0
}

/// Realized cost of a returned plan: Monte-Carlo replay over the market
/// from the same start-offset window the `replay` service uses.
fn realized(
    market: &ec2_market::market::SpotMarket,
    req: &PlanRequest,
    rep: &PlanReport,
    replicas: usize,
    seed: u64,
) -> Option<(f64, f64)> {
    let margin = rep.baseline_hours * 4.0 + 4.0;
    let max = (market.horizon() - margin).max(req.history_hours + 1.0);
    let mc = MonteCarlo::builder()
        .replicas(replicas)
        .seed(seed)
        .offsets(req.history_hours, max)
        .build();
    let r = mc
        .run_plan(market, &rep.plan, rep.deadline_hours, &ExecContext::new())
        .ok()?;
    Some((r.cost.mean / rep.baseline_cost_billed, r.deadline_rate))
}

pub fn round(seed: u64, sizes: &Sizes) -> Round {
    let built = market::build_stress(seed, sizes.market_hours);
    let m = &built.market;
    let mut reqs = design(seed, sizes.market_hours);
    reqs.truncate(sizes.requests);

    let mut op_ms = Vec::with_capacity(reqs.len());
    let mut answers = Vec::with_capacity(reqs.len());
    let t = Instant::now();
    for req in &reqs {
        let t0 = Instant::now();
        let r = service::plan(m, req, &NullRecorder, None);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push(r);
    }
    let wall_s = t.elapsed().as_secs_f64();

    // Untimed: correctness checks, digests, realized cost of a sample.
    let mut failed = 0u64;
    let mut out = Fnv::new();
    let mut costs = Vec::new();
    let mut met = Vec::new();
    for (i, (req, answer)) in reqs.iter().zip(&answers).enumerate() {
        match answer {
            Ok(rep) => {
                out.write_json(rep);
                if i % 10 == 0 && !check(m, req, rep) {
                    failed += 1;
                }
                if i % sizes.replay_every == 0 {
                    match realized(m, req, rep, sizes.replay_replicas, seed) {
                        Some((c, d)) => {
                            costs.push(c);
                            met.push(d);
                        }
                        None => failed += 1,
                    }
                }
            }
            Err(e) => {
                out.write(e.to_string().as_bytes());
                failed += 1;
            }
        }
    }
    let mut inputs = Fnv::new();
    market::digest_into(&mut inputs, m);
    Round {
        setup_s: built.setup_s(),
        work: reqs.len() as f64,
        op_ms,
        wall_s,
        norm_cost: stats::mean(&costs),
        met_rate: stats::mean(&met),
        attempted: reqs.len() as u64,
        failed,
        inputs_digest: inputs.finish(),
        outputs_digest: out.finish(),
    }
}

/// The plan pipeline recomposed from its public pieces, one span per
/// piece. Equal to `service::plan` by construction; `traced` checks it.
pub fn plan_traced(
    market: &ec2_market::market::SpotMarket,
    req: &PlanRequest,
    tracer: &mut Tracer,
    ring: &RingRecorder,
    tally: &mut EventTally,
) -> Result<PlanReport, service::ServiceError> {
    let plan_err = |e: sompi_core::SompiError| service::ServiceError::Plan(e.to_string());
    let problem = tracer.time("problem.build", || {
        let app = service::app_profile(&req.app, &req.class, req.procs, req.repeats)?;
        service::build_problem(market, &app, req.deadline_factor)
    })?;
    let view = tracer.time("view.build", || service::view_for(market, req));
    let span = tracer.open("policy.plan");
    let plan =
        service::strategy_from(&req.strategy, service::optimizer_config(req)).and_then(|policy| {
            policy
                .plan(&problem, &view, &mut PlanContext::new().with_recorder(ring))
                .map(|plan| (plan, policy.name().to_string()))
                .map_err(plan_err)
        });
    tracer.close(span);
    layers::drain_search_events(ring, tracer, span, tally);
    let (plan, strategy) = plan?;
    let eval = tracer
        .time("cost.evaluate_plan", || evaluate_plan(&plan, &view))
        .map_err(plan_err)?
        .ok_or_else(|| service::ServiceError::Plan("plan has an unlaunchable bid".into()))?;
    Ok(PlanReport {
        app: problem.app.clone(),
        deadline_hours: problem.deadline,
        baseline_hours: problem.baseline_time(),
        baseline_cost_billed: problem.baseline_cost_billed(),
        strategy,
        plan,
        expected_cost: eval.expected_cost,
        expected_time: eval.expected_time,
        p_all_fail: eval.p_all_fail,
    })
}

/// One traced round: the same requests, each recomposed under spans and compared bit for bit with `service::plan`;
/// then the same recomposition with tracing off, for the tracing overhead.
pub fn traced(seed: u64, sizes: &Sizes) -> Traced {
    let built = market::build_stress(seed, sizes.market_hours);
    let m = &built.market;
    let mut reqs = design(seed, sizes.market_hours);
    reqs.truncate(sizes.requests);

    let ring = RingRecorder::new(TraceLevel::Summary, 1 << 16);
    let mut tracer = Tracer::new();
    let mut tally = EventTally::default();
    let mut failed = 0u64;
    let (mut costs, mut met) = (Vec::new(), Vec::new());
    for (i, req) in reqs.iter().enumerate() {
        let op = tracer.begin_op("plan.op", i as u64);
        let got = plan_traced(m, req, &mut tracer, &ring, &mut tally);
        tracer.close(op);
        let want = service::plan(m, req, &NullRecorder, None);
        if got != want {
            failed += 1;
        }
        if let (Ok(rep), 0) = (&got, i % sizes.replay_every) {
            if let Some((c, d)) = realized(m, req, rep, sizes.replay_replicas, seed) {
                costs.push(c);
                met.push(d);
            }
        }
    }

    let untraced_ns = crate::untraced_ns(&reqs, |req, tracer, ring, tally| {
        plan_traced(m, req, tracer, ring, tally)
    });

    let mut out = Layers::new();
    layers::market_setup(&mut out, &built);
    out.set("view.builds", reqs.len() as f64);
    layers::quality(&mut out, &costs, &met);
    tally.apply(&mut out);
    Traced {
        spans: tracer.spans().to_vec(),
        ops: reqs.len() as u64,
        untraced_ns,
        layers: out,
        attempted: reqs.len() as u64,
        failed,
    }
}
