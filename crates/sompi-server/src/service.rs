//! Request execution: the *one* implementation of "plan" and "replay"
//! shared by the CLI subcommands and the server workers.
//!
//! Both front ends translate their inputs (flags or wire messages) into
//! the same [`PlanRequest`] / [`ReplayRequest`] structs and call
//! [`plan`] / [`replay()`] here, so a plan served over the socket is
//! bit-identical to one printed by `sompi plan` against the same
//! market. That exactness invariant is what makes the cross-tenant
//! plan cache sound — and it is enforced by the server test suite.

use crate::proto::{errkind, PlanRequest, ReplayRequest};
use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::market::SpotMarket;
use mpi_sim::lammps::Lammps;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::profile::AppProfile;
use mpi_sim::storage::S3Store;
use replay::adaptive_exec::AdaptiveRunner;
use replay::exec::ExecContext;
use replay::montecarlo::MonteCarlo;
use replay::stats::Summary;
use serde::{Deserialize, Serialize};
use sompi_core::adaptive::{AdaptiveConfig, PlanContext};
use sompi_core::cost::evaluate_plan;
use sompi_core::model::Plan;
use sompi_core::policy::{canonical_policy_name, policy_by_name, Policy};
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use sompi_obs::Recorder;
use std::convert::Infallible;

/// Request-level failure. [`ServiceError::kind`] maps each variant to
/// the wire-protocol error vocabulary in [`errkind`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A request field failed validation (unknown app, zero procs, …).
    InvalidArgument(String),
    /// The optimizer or replay engine reported a domain error.
    Plan(String),
}

impl ServiceError {
    /// The machine-readable error category for [`crate::proto::Response::Error`].
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::InvalidArgument(_) => errkind::INVALID_ARGUMENT,
            ServiceError::Plan(_) => errkind::PLAN_FAILED,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidArgument(m) | ServiceError::Plan(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Build the application profile from request fields (the CLI's
/// `--app`/`--class`/`--procs`/`--repeats`).
pub fn app_profile(
    app: &str,
    class: &str,
    procs: u32,
    repeats: u32,
) -> Result<AppProfile, ServiceError> {
    let app = app.to_uppercase();
    if procs == 0 {
        return Err(ServiceError::InvalidArgument(
            "procs must be positive".into(),
        ));
    }
    if app == "LAMMPS" {
        return Ok(Lammps::paper().profile(procs).repeated(repeats.max(1)));
    }
    let class = match class.to_uppercase().as_str() {
        "S" => NpbClass::S,
        "W" => NpbClass::W,
        "A" => NpbClass::A,
        "B" => NpbClass::B,
        "C" => NpbClass::C,
        other => {
            return Err(ServiceError::InvalidArgument(format!(
                "unknown NPB class {other:?}"
            )))
        }
    };
    let kernel = NpbKernel::FULL_SUITE
        .into_iter()
        .find(|k| k.to_string() == app)
        .ok_or_else(|| {
            ServiceError::InvalidArgument(format!(
                "unknown app {app:?} (expected one of BT SP LU FT IS BTIO CG MG EP LAMMPS)"
            ))
        })?;
    Ok(kernel.profile(class, procs).repeated(repeats.max(1)))
}

/// Build the problem: market + app + deadline factor (a multiple of
/// Baseline Time).
pub fn build_problem(
    market: &SpotMarket,
    app: &AppProfile,
    deadline_factor: f64,
) -> Result<Problem, ServiceError> {
    if deadline_factor <= 0.0 {
        return Err(ServiceError::InvalidArgument(
            "deadline factor must be positive".into(),
        ));
    }
    let mut p = Problem::build(market, app, f64::MAX, None, S3Store::paper_2014());
    p.deadline = p.baseline_time() * deadline_factor;
    Ok(p)
}

/// The inner optimizer's configuration from request knobs.
pub fn optimizer_config(req: &PlanRequest) -> OptimizerConfig {
    OptimizerConfig {
        kappa: req.kappa as usize,
        bid_levels: req.bid_levels,
        slack: req.slack,
        ..Default::default()
    }
}

/// Pick the planning policy by name. Thin wrapper over the one policy
/// registry in [`sompi_core::policy::policy_by_name`], so the server
/// roster and the CLI/tournament roster can never drift apart.
pub fn strategy_from(name: &str, config: OptimizerConfig) -> Result<Box<dyn Policy>, ServiceError> {
    policy_by_name(name, config).map_err(|e| ServiceError::InvalidArgument(e.to_string()))
}

/// The market view a request plans against.
pub fn view_for(market: &SpotMarket, req: &PlanRequest) -> MarketView {
    MarketView::from_market(market, req.view_start_hours, req.history_hours)
}

/// Cross-tenant plan-cache key: an FNV-1a digest of the request with its
/// `tenant` label and `threads` count cleared. Neither changes the answer
/// (`threads` is accepted and ignored), so identical problems from
/// different tenants or at different thread counts coalesce onto one
/// optimization. The other fields are hashed as the planner reads them,
/// so spellings that plan the same share a key: `app` and `class` are
/// upper-cased as [`app_profile`] reads them, `class` is cleared for
/// LAMMPS (which has no NPB class), and a known `strategy` becomes its
/// [`canonical_policy_name`]. A request already in that form keeps its
/// key.
///
/// The key reads the request only: a server plans against one immutable
/// market, and the request's `view_start_hours`/`history_hours` fix the
/// view. The market parameter is not read; it stays for existing callers.
pub fn plan_request_key(_market: &SpotMarket, req: &PlanRequest) -> u64 {
    let app = req.app.to_uppercase();
    let canon = PlanRequest {
        tenant: String::new(),
        threads: 0,
        class: if app == "LAMMPS" {
            String::new()
        } else {
            req.class.to_uppercase()
        },
        app,
        strategy: canonical_policy_name(&req.strategy)
            .map_or_else(|| req.strategy.to_lowercase(), str::to_string),
        ..req.clone()
    };
    let body = serde_json::to_string(&canon).expect("request is serializable");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    body.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The answer to a [`PlanRequest`]: the optimized plan plus its model
/// evaluation, with the problem framing needed to interpret it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Application name (e.g. `BT.Bx200`).
    pub app: String,
    /// Absolute deadline, hours.
    pub deadline_hours: f64,
    /// Baseline Time (on-demand, no checkpoints), hours.
    pub baseline_hours: f64,
    /// Baseline cost with hourly billing, USD.
    pub baseline_cost_billed: f64,
    /// Name of the policy that produced the plan.
    pub strategy: String,
    /// The optimized plan.
    pub plan: Plan,
    /// Model-expected cost, USD.
    pub expected_cost: f64,
    /// Model-expected completion time, hours.
    pub expected_time: f64,
    /// Probability that every replica fails before the deadline.
    pub p_all_fail: f64,
}

/// Optimize one plan. This is the exact code path behind `sompi plan`:
/// same view construction, same policy dispatch, same model
/// evaluation — so server-served plans are bit-identical to CLI plans.
///
/// The trailing argument can never carry a value (`Infallible` has
/// none); pass `None`. It only keeps existing `plan(.., None)` call sites
/// compiling and goes away once they drop it.
pub fn plan(
    market: &SpotMarket,
    req: &PlanRequest,
    recorder: &dyn Recorder,
    _: Option<Infallible>,
) -> Result<PlanReport, ServiceError> {
    let app = app_profile(&req.app, &req.class, req.procs, req.repeats)?;
    let problem = build_problem(market, &app, req.deadline_factor)?;
    let view = view_for(market, req);
    let strategy = strategy_from(&req.strategy, optimizer_config(req))?;
    let plan = strategy
        .plan(
            &problem,
            &view,
            &mut PlanContext::new().with_recorder(recorder),
        )
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let eval = evaluate_plan(&plan, &view)
        .map_err(|e| ServiceError::Plan(e.to_string()))?
        .ok_or_else(|| ServiceError::Plan("plan has an unlaunchable bid".into()))?;
    Ok(PlanReport {
        app: problem.app.clone(),
        deadline_hours: problem.deadline,
        baseline_hours: problem.baseline_time(),
        baseline_cost_billed: problem.baseline_cost_billed(),
        strategy: strategy.name().to_string(),
        plan,
        expected_cost: eval.expected_cost,
        expected_time: eval.expected_time,
        p_all_fail: eval.p_all_fail,
    })
}

/// The answer to a [`ReplayRequest`]: Monte-Carlo statistics plus the
/// plan (fixed-plan replays only; adaptive runs re-plan per window).
/// The `window_hours`/`warmstart`/`bucket_reuse`/`mean_windows`/
/// `mean_plan_changes` fields are `Some` only for adaptive replays;
/// `warmstart`/`bucket_reuse` echo the request and change nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Application name.
    pub app: String,
    /// Name of the policy (`sompi-adaptive` for adaptive replays).
    pub strategy: String,
    /// Monte-Carlo replica count.
    pub replicas: u32,
    /// Absolute deadline, hours.
    pub deadline_hours: f64,
    /// Baseline cost with hourly billing, USD.
    pub baseline_cost_billed: f64,
    /// Total cost across replicas, USD.
    pub cost: Summary,
    /// Wall-clock time across replicas, hours.
    pub time: Summary,
    /// Fraction of replicas meeting the deadline.
    pub deadline_rate: f64,
    /// Fraction of replicas finished on spot.
    pub spot_finish_rate: f64,
    /// Mean out-of-bid terminations per replica.
    pub mean_failures: f64,
    /// Mean cost as a multiple of the billed baseline.
    pub normalized_cost: f64,
    /// The replayed plan (`None` for adaptive replays).
    pub plan: Option<Plan>,
    /// Re-planning period T_m, hours (adaptive only).
    pub window_hours: Option<f64>,
    /// The request's `warmstart` (adaptive only), echoed; ignored.
    pub warmstart: Option<bool>,
    /// The request's `bucket_reuse` (adaptive only), echoed; ignored.
    pub bucket_reuse: Option<bool>,
    /// Mean windows per run (adaptive only).
    pub mean_windows: Option<f64>,
    /// Mean plan changes per run (adaptive only).
    pub mean_plan_changes: Option<f64>,
}

fn injector_from(
    market: &SpotMarket,
    req: &ReplayRequest,
) -> Result<Option<FaultInjector>, ServiceError> {
    let Some(spec) = &req.faults else {
        return Ok(None);
    };
    // FaultPlan::parse errors already name the offending `--faults` term.
    let plan = FaultPlan::parse(spec, req.fault_seed).map_err(ServiceError::InvalidArgument)?;
    Ok(Some(FaultInjector::new(plan, market.horizon())))
}

fn monte_carlo(market: &SpotMarket, problem: &Problem, req: &ReplayRequest) -> MonteCarlo {
    let history = req.plan.history_hours;
    // Keep replica start offsets far enough from the trace end that a
    // badly delayed run still fits inside the recorded horizon.
    let margin = problem.baseline_time() * 4.0 + 4.0;
    let max = (market.horizon() - margin).max(history + 1.0);
    MonteCarlo::builder()
        .replicas(req.replicas as usize)
        .seed(req.mc_seed)
        .offsets(history, max)
        .build()
}

/// Plan, then Monte-Carlo replay over the market — the exact code path
/// behind `sompi replay` (and `--adaptive`). The recorder receives the
/// planning narration only; use [`traced_replay`] to additionally
/// record one deterministic execution timeline.
pub fn replay(
    market: &SpotMarket,
    req: &ReplayRequest,
    recorder: &dyn Recorder,
) -> Result<ReplayReport, ServiceError> {
    let p = &req.plan;
    let app = app_profile(&p.app, &p.class, p.procs, p.repeats)?;
    let problem = build_problem(market, &app, p.deadline_factor)?;
    let injector = injector_from(market, req)?;
    // Fixed-plan replays run against death-time tables, which
    // `MonteCarlo::run_plan` builds for each call. The adaptive runner
    // below re-plans every window and queries the trace index instead.
    let mut ctx = ExecContext::new();
    if let Some(inj) = &injector {
        // Faulted checkpoint I/O retries under the standard policy.
        ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
    }
    let mc = monte_carlo(market, &problem, req);
    let replicas = req.replicas as usize;

    if req.adaptive {
        let cfg = AdaptiveConfig {
            window_hours: req.window_hours,
            history_hours: p.history_hours,
            optimizer: optimizer_config(p),
            ..Default::default()
        };
        let runner = AdaptiveRunner::new(market, cfg);
        let windows = std::sync::atomic::AtomicU64::new(0);
        let changes = std::sync::atomic::AtomicU64::new(0);
        let result = mc
            .evaluate(|start| {
                let o = runner.run(&problem, start, &ctx)?;
                windows.fetch_add(o.windows as u64, std::sync::atomic::Ordering::Relaxed);
                changes.fetch_add(o.plan_changes as u64, std::sync::atomic::Ordering::Relaxed);
                Ok(o.run)
            })
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
        let normalized = result.cost.mean / problem.baseline_cost_billed();
        return Ok(ReplayReport {
            app: problem.app.clone(),
            strategy: "sompi-adaptive".into(),
            replicas: req.replicas,
            deadline_hours: problem.deadline,
            baseline_cost_billed: problem.baseline_cost_billed(),
            cost: result.cost,
            time: result.time,
            deadline_rate: result.deadline_rate,
            spot_finish_rate: result.spot_finish_rate,
            mean_failures: result.mean_failures,
            normalized_cost: normalized,
            plan: None,
            window_hours: Some(req.window_hours),
            warmstart: Some(req.warmstart),
            bucket_reuse: Some(req.bucket_reuse),
            mean_windows: Some(windows.into_inner() as f64 / replicas as f64),
            mean_plan_changes: Some(changes.into_inner() as f64 / replicas as f64),
        });
    }

    let view = view_for(market, p);
    let strategy = strategy_from(&p.strategy, optimizer_config(p))?;
    let plan = strategy
        .plan(
            &problem,
            &view,
            &mut PlanContext::new().with_recorder(recorder),
        )
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let result = mc
        .run_plan(market, &plan, problem.deadline, &ctx)
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    let normalized = result.cost.mean / problem.baseline_cost_billed();
    Ok(ReplayReport {
        app: problem.app.clone(),
        strategy: strategy.name().to_string(),
        replicas: req.replicas,
        deadline_hours: problem.deadline,
        baseline_cost_billed: problem.baseline_cost_billed(),
        cost: result.cost,
        time: result.time,
        deadline_rate: result.deadline_rate,
        spot_finish_rate: result.spot_finish_rate,
        mean_failures: result.mean_failures,
        normalized_cost: normalized,
        plan: Some(plan),
        window_hours: None,
        warmstart: None,
        bucket_reuse: None,
        mean_windows: None,
        mean_plan_changes: None,
    })
}

/// Record one deterministic replay of `req` into `recorder` (the
/// Monte-Carlo sweep would interleave replica timelines into an
/// unreadable stream). Starts at `history + 1` hours, like the CLI's
/// `--trace-out` path. Pass the plan from a prior [`replay()`] call as
/// `plan_hint` to skip re-running the search (fixed-plan replays only;
/// adaptive replays re-plan per window regardless).
pub fn traced_replay(
    market: &SpotMarket,
    req: &ReplayRequest,
    plan_hint: Option<&Plan>,
    recorder: &dyn Recorder,
) -> Result<(), ServiceError> {
    let p = &req.plan;
    let app = app_profile(&p.app, &p.class, p.procs, p.repeats)?;
    let problem = build_problem(market, &app, p.deadline_factor)?;
    let injector = injector_from(market, req)?;
    let mut ctx = ExecContext::new();
    if let Some(inj) = &injector {
        ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
    }
    let ctx = ctx.with_recorder(recorder);
    let start = p.history_hours + 1.0;
    if req.adaptive {
        let cfg = AdaptiveConfig {
            window_hours: req.window_hours,
            history_hours: p.history_hours,
            optimizer: optimizer_config(p),
            ..Default::default()
        };
        AdaptiveRunner::new(market, cfg)
            .run(&problem, start, &ctx)
            .map_err(|e| ServiceError::Plan(e.to_string()))?;
        return Ok(());
    }
    let plan = match plan_hint {
        Some(plan) => plan.clone(),
        None => {
            let view = view_for(market, p);
            let strategy = strategy_from(&p.strategy, optimizer_config(p))?;
            strategy
                .plan(&problem, &view, &mut PlanContext::new())
                .map_err(|e| ServiceError::Plan(e.to_string()))?
        }
    };
    // One replica: the trace index answers its crossings.
    replay::PlanRunner::new(market, problem.deadline)
        .run(&plan, start, &ctx)
        .map_err(|e| ServiceError::Plan(e.to_string()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use sompi_obs::NullRecorder;

    fn market(hours: f64) -> SpotMarket {
        let catalog = InstanceCatalog::paper_2014();
        let profile = MarketProfile::paper_2014(&catalog);
        SpotMarket::generate(
            catalog,
            &TraceGenerator::new(profile, 42),
            hours,
            1.0 / 12.0,
        )
    }

    fn small_request() -> PlanRequest {
        PlanRequest {
            repeats: 50,
            kappa: 1,
            bid_levels: 2,
            ..Default::default()
        }
    }

    #[test]
    fn app_profile_matches_cli_parsing() {
        let a = app_profile("ft", "A", 64, 200).unwrap();
        assert_eq!(a.name, "FT.Ax200");
        assert_eq!(a.processes, 64);
        let l = app_profile("LAMMPS", "B", 32, 1).unwrap();
        assert!(l.name.starts_with("LAMMPS-32p"));
        assert!(app_profile("NOPE", "B", 128, 200).is_err());
        assert!(app_profile("BT", "B", 0, 200).is_err());
        assert!(app_profile("BT", "Z", 128, 200).is_err());
    }

    #[test]
    fn unknown_strategy_is_invalid_argument() {
        let Err(err) = strategy_from("magic", OptimizerConfig::default()) else {
            panic!("expected an error")
        };
        assert_eq!(err.kind(), errkind::INVALID_ARGUMENT);
        assert!(err.to_string().contains("unknown strategy"));
    }

    #[test]
    fn plan_matches_direct_strategy_call_bit_for_bit() {
        let market = market(100.0);
        let req = small_request();
        let report = plan(&market, &req, &NullRecorder, None).unwrap();

        // The long way round: build everything by hand, as `sompi plan`
        // used to, and require an identical plan and evaluation.
        let app = app_profile(&req.app, &req.class, req.procs, req.repeats).unwrap();
        let problem = build_problem(&market, &app, req.deadline_factor).unwrap();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let strategy = strategy_from("sompi", optimizer_config(&req)).unwrap();
        let direct = strategy
            .plan(&problem, &view, &mut PlanContext::new())
            .unwrap();
        assert_eq!(report.plan, direct);
        let eval = evaluate_plan(&direct, &view).unwrap().unwrap();
        assert_eq!(report.expected_cost, eval.expected_cost);
        assert_eq!(report.expected_time, eval.expected_time);
    }

    #[test]
    fn oversized_thread_requests_run_on_the_cores() {
        // `threads` comes off the wire and is ignored: u32::MAX is
        // accepted and plans the default request's answer.
        let market = market(100.0);
        let want = plan(&market, &small_request(), &NullRecorder, None).unwrap();
        let huge = PlanRequest {
            threads: u32::MAX,
            ..small_request()
        };
        assert_eq!(plan(&market, &huge, &NullRecorder, None).unwrap(), want);
    }

    #[test]
    fn retired_search_knobs_still_decode_and_plan_the_same() {
        use crate::proto::{read_message, write_frame, Request};

        // A client built against the parallel search may still send its
        // thread count, the shared-incumbent switch and the pruning
        // switches.
        let body = br#"{"Plan":{"repeats":50,"kappa":1,"bid_levels":2,
            "threads":4,"shared_incumbent":false,
            "prune_dominance":false,"prune_bound":false}}"#;
        let mut frame = Vec::new();
        write_frame(&mut frame, body).unwrap();
        let Request::Plan(req) = read_message::<Request>(&mut &frame[..]).unwrap() else {
            panic!("expected a Plan request");
        };
        assert_eq!(req.threads, 4);
        let market = market(100.0);
        assert_eq!(
            plan(&market, &req, &NullRecorder, None).unwrap(),
            plan(&market, &small_request(), &NullRecorder, None).unwrap()
        );
    }

    #[test]
    fn retired_replay_switch_still_decodes_and_replays_the_same() {
        use crate::proto::{read_message, write_frame, Request};

        let body = br#"{"Replay":{"plan":{"repeats":50,"kappa":1,"bid_levels":2},
            "replicas":4,"batch_replay":false}}"#;
        let mut frame = Vec::new();
        write_frame(&mut frame, body).unwrap();
        let Request::Replay(req) = read_message::<Request>(&mut &frame[..]).unwrap() else {
            panic!("expected a Replay request");
        };
        let want = ReplayRequest {
            plan: small_request(),
            replicas: 4,
            ..Default::default()
        };
        assert_eq!(req, want);
        let market = market(200.0);
        assert_eq!(
            replay(&market, &req, &NullRecorder).unwrap(),
            replay(&market, &want, &NullRecorder).unwrap()
        );
    }

    #[test]
    fn plan_request_key_ignores_tenant_but_not_problem_shape() {
        use serde::{Deserialize, Value};

        // Perturb each serialized field in turn: every field but `tenant`
        // and `threads` can change the answer, so it must change the key.
        let market = market(100.0);
        let base = small_request();
        let key = plan_request_key(&market, &base);
        let Value::Obj(fields) = serde_json::to_value(&base).unwrap() else {
            panic!("a request serializes to an object");
        };
        let mut ignored = Vec::new();
        for i in 0..fields.len() {
            let mut perturbed = fields.clone();
            let (name, value) = &mut perturbed[i];
            *value = match value {
                Value::Num(x) => Value::Num(*x + 1.0),
                Value::Str(s) => Value::Str(format!("{s}-x")),
                Value::Bool(b) => Value::Bool(!*b),
                other => panic!("{name}: no perturbation for {other:?}"),
            };
            let name = name.clone();
            let req = PlanRequest::from_value(&Value::Obj(perturbed)).unwrap();
            assert_ne!(req, base, "{name}: the perturbation must reach the request");
            if plan_request_key(&market, &req) == key {
                ignored.push(name);
            }
        }
        assert_eq!(ignored, ["tenant", "threads"]);

        // The key reads the request only, not the market it is given.
        let other = super::tests::market(200.0);
        assert_eq!(key, plan_request_key(&other, &base));
    }

    #[test]
    fn plan_request_key_folds_case_as_the_planner_reads_it() {
        // The planner upper-cases `app` and `class` and lower-cases
        // `strategy`: both spellings plan the same and share one key.
        let market = market(100.0);
        let canonical = small_request();
        assert_eq!(
            (&*canonical.app, &*canonical.class, &*canonical.strategy),
            ("BT", "B", "sompi")
        );
        let other = PlanRequest {
            app: "bt".into(),
            class: "b".into(),
            strategy: "SOMPI".into(),
            ..canonical.clone()
        };
        assert_eq!(
            plan_request_key(&market, &other),
            plan_request_key(&market, &canonical)
        );
        assert_eq!(
            plan(&market, &other, &NullRecorder, None).unwrap(),
            plan(&market, &canonical, &NullRecorder, None).unwrap()
        );
        // A request already in the planner's case is hashed as sent.
        let body = serde_json::to_string(&PlanRequest {
            tenant: String::new(),
            ..canonical.clone()
        })
        .unwrap();
        let fnv = body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(plan_request_key(&market, &canonical), fnv);
    }

    #[test]
    fn plan_request_key_folds_policy_aliases_and_the_lammps_class() {
        // Each alias pair selects one policy, and LAMMPS has no NPB class:
        // such requests plan byte for byte the same and share one key.
        let market = market(100.0);
        let key = |req: &PlanRequest| plan_request_key(&market, req);
        let answer = |req: &PlanRequest| {
            serde_json::to_string(&plan(&market, req, &NullRecorder, None).unwrap()).unwrap()
        };
        let base = small_request();
        let strategy = |name: &str| PlanRequest {
            strategy: name.into(),
            ..base.clone()
        };
        let lammps = |class: &str| PlanRequest {
            app: "LAMMPS".into(),
            class: class.into(),
            ..base.clone()
        };
        let pairs = [
            (strategy("ondemand"), strategy("on-demand")),
            (strategy("noft"), strategy("no-ft")),
            (strategy("checkpoint-only"), strategy("ckpt-only")),
            (strategy("appcentric"), strategy("app-centric")),
            (lammps("A"), lammps("B")),
        ];
        for (a, b) in &pairs {
            assert_eq!(key(a), key(b), "{a:?} / {b:?}");
            assert_eq!(answer(a), answer(b), "{a:?} / {b:?}");
        }

        // An NPB class does change the problem, so BT A and BT B do not
        // share a key.
        let bt_a = PlanRequest {
            class: "A".into(),
            ..base.clone()
        };
        assert_ne!(key(&bt_a), key(&base));
        assert_ne!(answer(&bt_a), answer(&base));
    }

    #[test]
    fn replay_is_deterministic_and_normalized() {
        let market = market(200.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 4,
            ..Default::default()
        };
        let a = replay(&market, &req, &NullRecorder).unwrap();
        let b = replay(&market, &req, &NullRecorder).unwrap();
        assert_eq!(a, b);
        assert!(a.normalized_cost > 0.0);
        assert!(a.plan.is_some());
        assert!(a.mean_windows.is_none());
    }

    #[test]
    fn adaptive_replay_reports_window_stats() {
        let market = market(200.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 2,
            adaptive: true,
            window_hours: 2.0,
            ..Default::default()
        };
        let r = replay(&market, &req, &NullRecorder).unwrap();
        assert_eq!(r.strategy, "sompi-adaptive");
        assert!(r.plan.is_none());
        assert!(r.mean_windows.unwrap() >= 1.0);
        assert_eq!(r.warmstart, Some(true));
    }

    #[test]
    fn bad_fault_spec_is_invalid_argument() {
        let market = market(100.0);
        let req = ReplayRequest {
            plan: small_request(),
            replicas: 2,
            faults: Some("gremlins=1.0".into()),
            ..Default::default()
        };
        let err = replay(&market, &req, &NullRecorder).unwrap_err();
        assert_eq!(err.kind(), errkind::INVALID_ARGUMENT);
    }
}
