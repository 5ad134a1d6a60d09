//! The policy arena: every [`Policy`](sompi_core::policy::Policy) in
//! the roster planned and Monte-Carlo-executed over a grid of markets
//! and fault plans, in one deterministic pass.
//!
//! The tournament is the head-to-head harness behind `sompi tournament`
//! and the `tournament` bench binary. It answers the paper's core
//! comparison question — how much money does SOMPI's combined
//! checkpoint + replication + on-demand-fallback policy save over the
//! single-mechanism strategies from the literature — on equal terms:
//! every policy sees the same market view, the same Monte-Carlo replica
//! offsets, and the same fault timeline.
//!
//! Determinism contract: the report (and its JSON form) is a pure
//! function of [`TournamentConfig`]. Each plan search runs on one thread
//! and is deterministic, and Monte-Carlo replicas merge in chunk order
//! at any worker count, so repeat runs yield byte-identical JSON.

use crate::proto::PlanRequest;
use crate::service::{
    app_profile, build_problem, optimizer_config, strategy_from, view_for, ServiceError,
};
use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use replay::exec::ExecContext;
use replay::montecarlo::{McResult, MonteCarlo};
use serde::{Deserialize, Serialize};
use sompi_core::adaptive::PlanContext;
use sompi_core::cost::evaluate_plan;
use sompi_core::model::Plan;
use sompi_obs::{emit, Event, Recorder, TraceLevel};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;

/// The full tournament grid: which policies meet which markets under
/// which fault plans, and the shared problem framing they compete on.
///
/// A config that still carries the retired `batch_replay` or
/// `replay_memo` switch decodes, and the fields are dropped: every cell
/// replays against death-time tables, and the memo only reuses what a
/// re-run would reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentConfig {
    /// Policy names, resolved through the one registry in
    /// [`sompi_core::policy::policy_by_name`].
    pub policies: Vec<String>,
    /// Trace-generator seeds; each seed is one synthetic market case.
    pub market_seeds: Vec<u64>,
    /// Hours of market history generated per seed.
    pub market_hours: f64,
    /// Trace sampling step, hours (the CLI's `--step`).
    pub market_step_hours: f64,
    /// Problem framing and optimizer knobs shared by every policy.
    /// The `strategy` field is ignored — the roster comes from
    /// `policies`.
    pub plan: PlanRequest,
    /// Fault-injection specs (`FaultPlan::parse` grammar); `None` is
    /// the fault-free case, labelled `"none"` in the report.
    pub fault_specs: Vec<Option<String>>,
    /// Seed for the fault-plan timeline.
    pub fault_seed: u64,
    /// Monte-Carlo replicas per cell.
    pub replicas: u32,
    /// Monte-Carlo offset seed.
    pub mc_seed: u64,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            policies: vec![
                "ondemand".into(),
                "no-ft".into(),
                "ckpt-only".into(),
                "app-centric".into(),
                "deadline-hedge".into(),
                "sompi".into(),
            ],
            market_seeds: vec![21],
            market_hours: 200.0,
            market_step_hours: 1.0 / 12.0,
            plan: PlanRequest::default(),
            fault_specs: vec![None],
            fault_seed: 42,
            replicas: 20,
            mc_seed: 1,
        }
    }
}

/// One cell of the tournament grid: a policy's realized economics on
/// one market × fault-plan combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentCell {
    /// Policy display name.
    pub policy: String,
    /// Market case label (`paper-2014-s<seed>`).
    pub market: String,
    /// Fault-plan label (`"none"` or the injection spec).
    pub faults: String,
    /// Model-expected cost of the policy's plan, USD (`None` when the
    /// plan is unlaunchable under the view, e.g. the all-unable
    /// ablation).
    pub expected_cost: Option<f64>,
    /// Mean realized cost across replicas, USD.
    pub mean_cost: f64,
    /// Mean realized cost over the billed on-demand baseline.
    pub normalized_cost: f64,
    /// Fraction of replicas missing the deadline.
    pub deadline_miss_rate: f64,
    /// Fraction of replicas finished by a spot group.
    pub spot_finish_rate: f64,
    /// Mean out-of-bid kills per replica.
    pub mean_failures: f64,
    /// Mean wall hours over the baseline (fastest on-demand) time.
    pub time_degradation: f64,
}

/// The tournament's answer: one [`TournamentCell`] per
/// policy × market × fault-plan, in deterministic grid order
/// (markets outermost, then policies, then fault plans).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentReport {
    /// Application name (shared by every cell).
    pub app: String,
    /// Absolute deadline, hours.
    pub deadline_hours: f64,
    /// Billed on-demand baseline cost, USD (the normalization unit).
    pub baseline_cost_billed: f64,
    /// Monte-Carlo replicas per cell.
    pub replicas: u32,
    /// Cells served from the plan-fingerprint replay memo: a cell whose
    /// plan, market and fault plan an earlier cell already replayed.
    /// Defaults to 0 for reports written before the memo existed.
    #[serde(default)]
    pub replay_memo_hits: u64,
    /// Cells that ran a fresh Monte-Carlo replay and seeded the memo.
    #[serde(default)]
    pub replay_memo_misses: u64,
    /// The grid, row-major.
    pub cells: Vec<TournamentCell>,
}

impl TournamentReport {
    /// Render the grid as a fixed-width table, one line per cell.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} — deadline {:.2} h, baseline ${:.2} billed, {} replicas/cell",
            self.app, self.deadline_hours, self.baseline_cost_billed, self.replicas
        );
        let _ = writeln!(
            s,
            "{:<15} {:<16} {:<22} {:>9} {:>9} {:>7} {:>6} {:>6} {:>6} {:>6}",
            "policy",
            "market",
            "faults",
            "E[cost]$",
            "mean$",
            "xbase",
            "miss%",
            "spot%",
            "kills",
            "xtime"
        );
        for c in &self.cells {
            let expected = match c.expected_cost {
                Some(v) => format!("{v:.2}"),
                None => "-".into(),
            };
            let _ = writeln!(
                s,
                "{:<15} {:<16} {:<22} {:>9} {:>9.2} {:>7.3} {:>5.0}% {:>5.0}% {:>6.2} {:>6.2}",
                c.policy,
                c.market,
                c.faults,
                expected,
                c.mean_cost,
                c.normalized_cost,
                c.deadline_miss_rate * 100.0,
                c.spot_finish_rate * 100.0,
                c.mean_failures,
                c.time_degradation
            );
        }
        // Name the cheapest deadline-meeting policy per market × fault
        // combination — the headline the table exists to answer.
        for (market, faults) in self.combinations() {
            let winner = self
                .cells
                .iter()
                .filter(|c| c.market == market && c.faults == faults)
                .filter(|c| c.deadline_miss_rate <= 0.0)
                .min_by(|a, b| a.mean_cost.total_cmp(&b.mean_cost));
            let _ = match winner {
                Some(w) => writeln!(
                    s,
                    "winner [{market} / {faults}]: {} at ${:.2} ({:.3}x baseline)",
                    w.policy, w.mean_cost, w.normalized_cost
                ),
                None => writeln!(
                    s,
                    "winner [{market} / {faults}]: none met the deadline in every replica"
                ),
            };
        }
        s
    }

    /// Serialize the report as pretty JSON (byte-stable across runs and
    /// thread counts — see the module docs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }

    /// Distinct (market, faults) pairs in first-appearance order.
    fn combinations(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for c in &self.cells {
            let pair = (c.market.clone(), c.faults.clone());
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        pairs
    }
}

fn generate_market(seed: u64, hours: f64, step: f64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(catalog, &TraceGenerator::new(profile, seed), hours, step)
}

/// Run the full grid. Planning narration goes to `recorder` (one
/// [`Event::PolicyEvaluated`] per finished cell).
///
/// The trailing argument can never carry a value (`Infallible` has
/// none); pass `None`. It only keeps existing `run_tournament(.., None)`
/// call sites compiling and goes away once they drop it.
pub fn run_tournament(
    cfg: &TournamentConfig,
    recorder: &dyn Recorder,
    _: Option<Infallible>,
) -> Result<TournamentReport, ServiceError> {
    if cfg.policies.is_empty() {
        return Err(ServiceError::InvalidArgument(
            "tournament needs at least one policy".into(),
        ));
    }
    if cfg.market_seeds.is_empty() {
        return Err(ServiceError::InvalidArgument(
            "tournament needs at least one market seed".into(),
        ));
    }
    if cfg.fault_specs.is_empty() {
        return Err(ServiceError::InvalidArgument(
            "tournament needs at least one fault case (use `none`)".into(),
        ));
    }
    // Resolve the whole roster up front so an unknown name fails before
    // any search runs.
    let roster: Vec<_> = cfg
        .policies
        .iter()
        .map(|name| strategy_from(name, optimizer_config(&cfg.plan)))
        .collect::<Result<_, _>>()?;

    let app = app_profile(
        &cfg.plan.app,
        &cfg.plan.class,
        cfg.plan.procs,
        cfg.plan.repeats,
    )?;
    let mut cells = Vec::new();
    let mut meta: Option<(String, f64, f64)> = None;
    let mut replay_memo_hits = 0u64;
    let mut replay_memo_misses = 0u64;

    for &seed in &cfg.market_seeds {
        let market = generate_market(seed, cfg.market_hours, cfg.market_step_hours);
        let market_label = format!("paper-2014-s{seed}");
        let problem = build_problem(&market, &app, cfg.plan.deadline_factor)?;
        let view = view_for(&market, &cfg.plan);
        meta.get_or_insert_with(|| {
            (
                problem.app.clone(),
                problem.deadline,
                problem.baseline_cost_billed(),
            )
        });
        // Shared replica offsets: every policy replays from the same
        // start times, like the paper's fixed trace windows.
        let history = cfg.plan.history_hours;
        let margin = problem.baseline_time() * 4.0 + 4.0;
        let max = (market.horizon() - margin).max(history + 1.0);
        let mc = MonteCarlo::builder()
            .replicas(cfg.replicas as usize)
            .seed(cfg.mc_seed)
            .offsets(history, max)
            .build();

        // Per-market memo tables. Plans: duplicate roster entries (same
        // policy name ⇒ same deterministic search) share one search.
        // Replays: cells whose policies produced byte-identical plans
        // under the same fault case share one Monte-Carlo result — the
        // memo key is the plan's full serialized form, so only literal
        // plan equality ever collapses cells.
        let mut plan_memo: HashMap<String, (Plan, Option<f64>)> = HashMap::new();
        let mut replay_memo: HashMap<(String, usize), McResult> = HashMap::new();

        for policy in &roster {
            let policy_name = policy.name().to_string();
            let (plan, expected) = match plan_memo.get(&policy_name).cloned() {
                Some(hit) => hit,
                None => {
                    let plan = policy
                        .plan(
                            &problem,
                            &view,
                            &mut PlanContext::new().with_recorder(recorder),
                        )
                        .map_err(|e| ServiceError::Plan(format!("{}: {e}", policy.name())))?;
                    let expected = evaluate_plan(&plan, &view)
                        .map_err(|e| ServiceError::Plan(e.to_string()))?
                        .map(|e| e.expected_cost);
                    plan_memo.insert(policy_name.clone(), (plan.clone(), expected));
                    (plan, expected)
                }
            };
            let plan_bytes = serde_json::to_string(&plan).expect("plans are serializable");

            for (spec_idx, spec) in cfg.fault_specs.iter().enumerate() {
                let injector = match spec {
                    Some(s) => {
                        let fp = FaultPlan::parse(s, cfg.fault_seed)
                            .map_err(ServiceError::InvalidArgument)?;
                        Some(FaultInjector::new(fp, market.horizon()))
                    }
                    None => None,
                };
                let mut ctx = ExecContext::new().with_recorder(recorder);
                if let Some(inj) = &injector {
                    ctx = ctx.with_faults(inj).with_retry(RetryPolicy::default_io());
                }
                let faults_label = spec.clone().unwrap_or_else(|| "none".into());
                let memo_key = (plan_bytes.clone(), spec_idx);
                let result = match replay_memo.get(&memo_key) {
                    Some(hit) => {
                        replay_memo_hits += 1;
                        emit(recorder, TraceLevel::Summary, || Event::ReplayMemoHit {
                            policy: policy_name.clone(),
                            market: market_label.clone(),
                            faults: faults_label.clone(),
                            fingerprint: fnv1a(&plan_bytes),
                        });
                        hit.clone()
                    }
                    None => {
                        // `run_plan` announces its tables on this thread
                        // and replays every replica without the recorder.
                        let result = mc
                            .run_plan(&market, &plan, problem.deadline, &ctx)
                            .map_err(|e| ServiceError::Plan(e.to_string()))?;
                        replay_memo_misses += 1;
                        replay_memo.insert(memo_key, result.clone());
                        result
                    }
                };
                let cell = TournamentCell {
                    policy: policy_name.clone(),
                    market: market_label.clone(),
                    faults: faults_label,
                    expected_cost: expected,
                    mean_cost: result.cost.mean,
                    normalized_cost: result.cost.mean / problem.baseline_cost_billed(),
                    deadline_miss_rate: 1.0 - result.deadline_rate,
                    spot_finish_rate: result.spot_finish_rate,
                    mean_failures: result.mean_failures,
                    time_degradation: result.time.mean / problem.baseline_time(),
                };
                emit(recorder, TraceLevel::Summary, || Event::PolicyEvaluated {
                    policy: cell.policy.clone(),
                    market: cell.market.clone(),
                    faults: cell.faults.clone(),
                    expected_cost: cell.expected_cost,
                    mean_cost: cell.mean_cost,
                    normalized_cost: cell.normalized_cost,
                    deadline_miss_rate: cell.deadline_miss_rate,
                    spot_finish_rate: cell.spot_finish_rate,
                    mean_failures: cell.mean_failures,
                    time_degradation: cell.time_degradation,
                });
                cells.push(cell);
            }
        }
    }

    let (app, deadline_hours, baseline_cost_billed) = meta.expect("at least one market ran");
    Ok(TournamentReport {
        app,
        deadline_hours,
        baseline_cost_billed,
        replicas: cfg.replicas,
        replay_memo_hits,
        replay_memo_misses,
        cells,
    })
}

/// FNV-1a digest of a plan's serialized form — the fingerprint reported
/// on [`Event::ReplayMemoHit`]. The memo itself keys on the full bytes;
/// the digest is observability-only, so a collision can mislabel a trace
/// line but never conflate two replays.
fn fnv1a(bytes: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in bytes.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sompi_obs::{NullRecorder, RingRecorder};

    fn small_config() -> TournamentConfig {
        TournamentConfig {
            market_hours: 150.0,
            replicas: 4,
            plan: PlanRequest {
                repeats: 50,
                kappa: 1,
                bid_levels: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn grid_is_policies_by_markets_by_faults_in_order() {
        let mut cfg = small_config();
        cfg.policies = vec!["ondemand".into(), "no-ft".into()];
        cfg.market_seeds = vec![21, 22];
        cfg.fault_specs = vec![None, Some("storm=0.02x0.5".into())];
        let report = run_tournament(&cfg, &NullRecorder, None).unwrap();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        // Markets outermost, then policies, then faults.
        let head: Vec<_> = report
            .cells
            .iter()
            .map(|c| (c.market.as_str(), c.policy.as_str(), c.faults.as_str()))
            .collect();
        assert_eq!(head[0], ("paper-2014-s21", "On-demand", "none"));
        assert_eq!(head[1], ("paper-2014-s21", "On-demand", "storm=0.02x0.5"));
        assert_eq!(head[2], ("paper-2014-s21", "No-FT", "none"));
        assert_eq!(head[4], ("paper-2014-s22", "On-demand", "none"));
    }

    #[test]
    fn report_is_deterministic_across_runs_and_thread_counts() {
        let cfg = small_config();
        let a = run_tournament(&cfg, &NullRecorder, None).unwrap();
        let b = run_tournament(&cfg, &NullRecorder, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn on_demand_never_misses_and_never_fails() {
        let mut cfg = small_config();
        cfg.policies = vec!["ondemand".into()];
        let report = run_tournament(&cfg, &NullRecorder, None).unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.deadline_miss_rate, 0.0);
        assert_eq!(cell.mean_failures, 0.0);
        assert_eq!(cell.spot_finish_rate, 0.0);
    }

    #[test]
    fn every_cell_emits_a_policy_evaluated_event() {
        let cfg = small_config();
        let ring = RingRecorder::new(TraceLevel::Summary, 4096);
        let report = run_tournament(&cfg, &ring, None).unwrap();
        let evaluated = ring
            .events()
            .iter()
            .filter(|e| e.kind() == "PolicyEvaluated")
            .count();
        assert_eq!(evaluated, report.cells.len());
    }

    #[test]
    fn identical_plan_cells_share_one_search_and_one_replay() {
        // Two roster entries of the same policy produce byte-identical
        // plans: the memo must run ONE plan search and ONE Monte-Carlo
        // replay, serve the duplicate from the memo, and report cells
        // that are exactly equal.
        let mut cfg = small_config();
        cfg.policies = vec!["sompi".into(), "sompi".into()];
        let ring = RingRecorder::new(TraceLevel::Summary, 4096);
        let report = run_tournament(&cfg, &ring, None).unwrap();
        let searches = ring
            .events()
            .iter()
            .filter(|e| e.kind() == "PlanSearchStarted")
            .count();
        assert_eq!(searches, 1, "duplicate roster entries must share a search");
        let memo_hits = ring
            .events()
            .iter()
            .filter(|e| e.kind() == "ReplayMemoHit")
            .count();
        assert_eq!(memo_hits, 1);
        assert_eq!(report.replay_memo_hits, 1);
        assert_eq!(report.replay_memo_misses, 1);
        assert_eq!(report.cells.len(), 2);
        let (a, b) = (&report.cells[0], &report.cells[1]);
        assert_eq!(a.mean_cost.to_bits(), b.mean_cost.to_bits());
        assert_eq!(a.normalized_cost.to_bits(), b.normalized_cost.to_bits());
        assert_eq!(a.time_degradation.to_bits(), b.time_degradation.to_bits());
    }

    #[test]
    fn config_with_retired_switches_decodes_and_plays_the_same() {
        // A config written while the replay switches existed still
        // decodes; the switches are dropped and the cells do not move.
        let cfg = small_config();
        let json = serde_json::to_string(&cfg).unwrap();
        let old = json.replacen('{', r#"{"batch_replay":false,"replay_memo":false,"#, 1);
        let back: TournamentConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(
            run_tournament(&back, &NullRecorder, None).unwrap().cells,
            run_tournament(&cfg, &NullRecorder, None).unwrap().cells
        );
    }

    #[test]
    fn unknown_policy_fails_before_any_search() {
        let mut cfg = small_config();
        cfg.policies = vec!["sompi".into(), "magic".into()];
        let Err(err) = run_tournament(&cfg, &NullRecorder, None) else {
            panic!("unknown policy must fail the tournament");
        };
        assert!(err.to_string().contains("unknown strategy"), "{err}");
    }

    #[test]
    fn render_names_a_winner_per_combination() {
        let cfg = small_config();
        let report = run_tournament(&cfg, &NullRecorder, None).unwrap();
        let table = report.render();
        assert!(table.contains("policy"), "{table}");
        assert!(table.contains("winner [paper-2014-s21 / none]"), "{table}");
    }

    #[test]
    fn empty_roster_is_invalid() {
        let mut cfg = small_config();
        cfg.policies.clear();
        assert!(run_tournament(&cfg, &NullRecorder, None).is_err());
    }
}
