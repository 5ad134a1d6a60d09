//! The adaptive update-maintenance algorithm — Section 4.3, Algorithm 1.
//!
//! Spot price distributions drift, so a plan computed once from stale
//! history degrades (the paper's w/o-MT ablation). Algorithm 1 splits the
//! execution into optimization windows of size `T_m`: at each window
//! boundary it re-estimates the failure-rate functions from the *previous*
//! window's prices, re-solves the two-level optimization for the residual
//! application, and — when the deadline can no longer be met — abandons
//! spot and finishes on demand.
//!
//! This module holds the planning half (what to do at a window boundary);
//! the execution half (tracking realized progress against real traces)
//! lives in the `replay` crate, which feeds realized progress back in as
//! `remaining_fraction`.

use crate::baselines::Sompi;
use crate::cost::evaluate_plan;
use crate::error::SompiError;
use crate::model::Plan;
use crate::policy::Policy;
use crate::problem::Problem;
use crate::twolevel::OptimizerConfig;
use crate::view::MarketView;
use crate::Hours;
use ec2_market::fault::FaultInjector;
use serde::{Deserialize, Serialize};
use sompi_obs::{emit, Event, NullRecorder, Recorder, TraceLevel};

/// Adaptive algorithm knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// `T_m`: optimization window size, hours (paper default ≈ 15).
    pub window_hours: Hours,
    /// History length used for each re-estimation, hours (the paper uses
    /// "the previous two days" offline and the previous window online).
    pub history_hours: Hours,
    /// The inner optimizer's configuration.
    pub optimizer: OptimizerConfig,
    /// Accepted and ignored: every window re-plans with the same cold
    /// search as a one-shot plan (DESIGN.md §12). Kept so that callers
    /// and stored configs that set it still compile and load.
    #[serde(default = "default_true")]
    pub warmstart: bool,
    /// Accepted and ignored, like [`AdaptiveConfig::warmstart`].
    #[serde(default = "default_true")]
    pub bucket_reuse: bool,
}

fn default_true() -> bool {
    true
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            window_hours: 15.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig::default(),
            warmstart: true,
            bucket_reuse: true,
        }
    }
}

/// Everything a window-planning call may consult besides the problem and
/// the market view: the trace recorder, an optional last-plan cache, an
/// optional fault injector (for market-feed gaps), and the window index
/// for event labeling. [`PlanContext::default`] is all no-ops, so the
/// simplest call is `planner.plan_window(&p, 1.0, 0.0, &view, &mut
/// PlanContext::default())`.
pub struct PlanContext<'a> {
    /// Trace event sink.
    pub recorder: &'a dyn Recorder,
    /// Last-plan cache: refreshed by every fresh plan, consulted only on
    /// a market-feed gap.
    pub cache: Option<&'a mut PlanCache>,
    /// Fault injector; the planner consults it for market-feed gaps at
    /// this window and prefers the cached plan over a fresh search when
    /// the feed is gapped.
    pub faults: Option<&'a FaultInjector>,
    /// 0-based index of the window being planned (labels events and keys
    /// feed-gap injection).
    pub window: u32,
}

impl Default for PlanContext<'_> {
    fn default() -> Self {
        Self {
            recorder: &NullRecorder,
            cache: None,
            faults: None,
            window: 0,
        }
    }
}

impl<'a> PlanContext<'a> {
    /// All-no-op context (same as [`PlanContext::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record trace events into `recorder`.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Consult and refresh `cache`.
    pub fn with_cache(mut self, cache: &'a mut PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Consult `faults` for market-feed gaps.
    pub fn with_faults(mut self, faults: &'a FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Label events (and key feed-gap injection) with window index `w`.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }
}

/// What [`AdaptivePlanner::plan_window`] produced and how it got there.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedWindow {
    /// The window's decision.
    pub decision: WindowDecision,
    /// True when a market-feed gap made the window fall back to the
    /// cached plan instead of a fresh search.
    pub reused_from_cache: bool,
}

/// What Algorithm 1 decides at a window boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WindowDecision {
    /// Keep executing on spot with this plan for the next window.
    Hybrid(Plan),
    /// The deadline is at risk: finish the residual work on demand
    /// (Algorithm 1 lines 7–9).
    FinishOnDemand(Plan),
}

impl WindowDecision {
    /// The plan to execute either way.
    pub fn plan(&self) -> &Plan {
        match self {
            WindowDecision::Hybrid(p) | WindowDecision::FinishOnDemand(p) => p,
        }
    }
}

/// Stateless planner for Algorithm 1's per-window decision.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePlanner {
    /// Configuration.
    pub config: AdaptiveConfig,
}

impl AdaptivePlanner {
    /// Create a planner.
    pub fn new(config: AdaptiveConfig) -> Self {
        Self { config }
    }

    /// Decide the next window's plan — the single planning entry point.
    ///
    /// * `base` — the original problem (full application),
    /// * `remaining_fraction` — residual work in `(0, 1]`,
    /// * `elapsed` — wall hours consumed so far,
    /// * `view` — estimators over the *latest* history window,
    /// * `ctx` — recorder / plan cache / fault injector / window index,
    ///   all optional (see [`PlanContext`]).
    ///
    /// Every window on a healthy feed re-plans, with the same search as a
    /// one-shot plan. With a cache in the context and a fault injector
    /// reporting a market-feed gap at this window, the planner degrades
    /// gracefully instead of trusting a stale view: when the Algorithm-1
    /// line-7 guard passes and the cached plan — rescaled to the current
    /// residual — is still feasible under the view's estimators, it
    /// reuses that plan (emitting `DegradedMode { mode: "stale-plan" }`
    /// and `WindowReplanned { reused: true }`).
    ///
    /// Errors with [`SompiError::InvalidFraction`] when
    /// `remaining_fraction` is outside `(0, 1]` and
    /// [`SompiError::NoOnDemandOption`] when the problem offers no
    /// on-demand option to guard the deadline with.
    pub fn plan_window(
        &self,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<PlannedWindow, SompiError> {
        let policy = Sompi {
            config: self.config.optimizer,
        };
        self.plan_window_with(&policy, base, remaining_fraction, elapsed, view, ctx)
    }

    /// [`AdaptivePlanner::plan_window`] with the re-optimization routed
    /// through an arbitrary [`Policy`] instead of the SOMPI optimizer.
    /// The feed-gap recall and Algorithm-1 deadline-guard
    /// machinery is policy-agnostic and identical; only the "re-optimize
    /// the residual" step calls `policy.plan(&residual, view, …)`. With
    /// `policy = Sompi { config }` this is [`AdaptivePlanner::plan_window`]
    /// bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_window_with(
        &self,
        policy: &dyn Policy,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        ctx: &mut PlanContext<'_>,
    ) -> Result<PlannedWindow, SompiError> {
        if !(remaining_fraction > 0.0 && remaining_fraction <= 1.0) {
            return Err(SompiError::InvalidFraction {
                fraction: remaining_fraction,
            });
        }
        let leftover = base.deadline - elapsed;
        let gap = ctx
            .faults
            .map(|f| f.feed_gap_at(ctx.window))
            .unwrap_or(false);

        // On a feed gap the fresh view is suspect, so the last valid plan
        // is preferred over re-optimizing against stale data.
        let recalled = match ctx.cache.as_deref() {
            Some(cache) if gap => cache.recall(remaining_fraction),
            _ => None,
        };
        if let Some(plan) = recalled {
            // Reuse only if the decision would still be Hybrid: the
            // fastest on-demand bail-out check passes and the rescaled
            // incumbent remains feasible when re-evaluated against the
            // latest estimators.
            let residual = base.try_residual(remaining_fraction, leftover.max(0.0))?;
            let fastest = residual.try_baseline()?;
            if fastest.exec_hours + fastest.recovery_hours <= leftover {
                if let Some(eval) = evaluate_plan(&plan, view)? {
                    let feasible = eval.meets(leftover)
                        && self
                            .config
                            .optimizer
                            .min_spot_success
                            .map(|q| eval.p_all_fail <= 1.0 - q)
                            .unwrap_or(true);
                    if feasible {
                        let window = ctx.window;
                        emit(ctx.recorder, TraceLevel::Summary, || Event::DegradedMode {
                            mode: "stale-plan".to_string(),
                            group: None,
                            at_hours: elapsed,
                            reason: "feed-gap".to_string(),
                        });
                        emit(ctx.recorder, TraceLevel::Summary, || {
                            Event::WindowReplanned {
                                window,
                                elapsed_hours: elapsed,
                                remaining_fraction,
                                reused: true,
                                decision: "hybrid".to_string(),
                                groups: plan.groups.len() as u32,
                            }
                        });
                        return Ok(PlannedWindow {
                            decision: WindowDecision::Hybrid(plan),
                            reused_from_cache: true,
                        });
                    }
                }
            }
        }

        let decision = self.decide(
            policy,
            base,
            remaining_fraction,
            elapsed,
            view,
            ctx.recorder,
        )?;
        let window = ctx.window;
        emit(ctx.recorder, TraceLevel::Summary, || {
            Event::WindowReplanned {
                window,
                elapsed_hours: elapsed,
                remaining_fraction,
                reused: false,
                decision: match &decision {
                    WindowDecision::Hybrid(_) => "hybrid".to_string(),
                    WindowDecision::FinishOnDemand(_) => "finish-on-demand".to_string(),
                },
                groups: decision.plan().groups.len() as u32,
            }
        });
        if let Some(cache) = ctx.cache.as_deref_mut() {
            cache.store(&decision, remaining_fraction);
        }
        Ok(PlannedWindow {
            decision,
            reused_from_cache: false,
        })
    }

    fn decide(
        &self,
        policy: &dyn Policy,
        base: &Problem,
        remaining_fraction: f64,
        elapsed: Hours,
        view: &MarketView,
        recorder: &dyn Recorder,
    ) -> Result<WindowDecision, SompiError> {
        let leftover = base.deadline - elapsed;
        let residual = base.try_residual(remaining_fraction, leftover.max(0.0))?;

        // Algorithm 1 line 7: if even the fastest on-demand execution of
        // the residual cannot meet the leftover deadline budget, bail out
        // to on-demand immediately (nothing better exists).
        let fastest = residual.try_baseline()?;
        if fastest.exec_hours + fastest.recovery_hours > leftover {
            return Ok(WindowDecision::FinishOnDemand(Plan::on_demand_only(
                *fastest,
            )));
        }

        // Otherwise re-plan the residual against the fresh view through
        // the policy. For the default SOMPI policy the optimizer's own
        // `E[Time] ≤ leftover` constraint (with graceful on-demand
        // fallback when nothing feasible exists) is the paper's deadline
        // control; any policy returning a pure on-demand plan is treated
        // as the Algorithm-1 bail-out.
        let plan = policy.plan(
            &residual,
            view,
            &mut PlanContext::new().with_recorder(recorder),
        )?;
        if plan.groups.is_empty() {
            return Ok(WindowDecision::FinishOnDemand(plan));
        }
        Ok(WindowDecision::Hybrid(plan))
    }
}

/// The adaptive planner's feed-gap fallback: the last *hybrid* window
/// decision and the residual fraction it was planned for. On a market-feed
/// gap [`AdaptivePlanner::plan_window`] reuses it, rescaled from its
/// original fraction on every recall, so repeated reuse does not compound
/// scaling drift.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entry: Option<CacheEntry>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    plan: Plan,
    /// Residual work fraction the cached plan was optimized for.
    made_for: f64,
}

impl PlanCache {
    /// The cached plan rescaled to `remaining_fraction`. Feasibility is
    /// the caller's check.
    ///
    /// Degenerate ratios answer `None` instead of producing a zero- or
    /// NaN-scaled plan: both fractions must be finite and positive.
    /// (`made_for = +∞` used to slip through a bare `> 0.0` check and
    /// rescale the plan by 0, which `Plan::scaled` rejects by panicking.)
    fn recall(&self, remaining_fraction: f64) -> Option<Plan> {
        let e = self.entry.as_ref()?;
        if !(remaining_fraction.is_finite()
            && remaining_fraction > 0.0
            && e.made_for.is_finite()
            && e.made_for > 0.0)
        {
            return None;
        }
        let ratio = (remaining_fraction / e.made_for).min(1.0);
        Some(e.plan.scaled(ratio))
    }

    /// Remember a freshly planned decision. Only hybrid plans are worth
    /// caching; a finish-on-demand decision clears the cache (subsequent
    /// windows run on demand and never consult it). A non-finite or
    /// non-positive `made_for` cannot be rescaled from later, so the
    /// entry is dropped rather than stored poisoned.
    fn store(&mut self, decision: &WindowDecision, made_for: f64) {
        if !(made_for.is_finite() && made_for > 0.0) {
            self.entry = None;
            return;
        }
        match decision {
            WindowDecision::Hybrid(plan) => {
                self.entry = Some(CacheEntry {
                    plan: plan.clone(),
                    made_for,
                });
            }
            WindowDecision::FinishOnDemand(_) => self.entry = None,
        }
    }

    /// Drop the cached entry (e.g. after realized progress diverges from
    /// the plan — a group failure invalidates the incumbent regardless of
    /// what prices did).
    pub fn clear(&mut self) {
        self.entry = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    fn setup() -> (SpotMarket, Problem) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 300.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 4.0, Some(&types), S3Store::paper_2014());
        (market, problem)
    }

    fn planner() -> AdaptivePlanner {
        AdaptivePlanner::new(AdaptiveConfig {
            window_hours: 1.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    /// Plan with an all-no-op context.
    fn plan(
        p: &AdaptivePlanner,
        problem: &Problem,
        frac: f64,
        t: f64,
        v: &MarketView,
    ) -> WindowDecision {
        p.plan_window(problem, frac, t, v, &mut PlanContext::new())
            .unwrap()
            .decision
    }

    #[test]
    fn plenty_of_time_stays_hybrid() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let d = plan(&planner(), &problem, 1.0, 0.0, &view);
        assert!(matches!(d, WindowDecision::Hybrid(_)));
        assert!(!d.plan().groups.is_empty());
    }

    #[test]
    fn exhausted_deadline_finishes_on_demand() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        // 95% of the deadline gone, whole app remaining.
        let d = plan(&planner(), &problem, 1.0, problem.deadline * 0.95, &view);
        assert!(matches!(d, WindowDecision::FinishOnDemand(_)));
        assert!(d.plan().groups.is_empty());
    }

    #[test]
    fn residual_shrinks_with_progress() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let d = plan(&planner(), &problem, 0.25, 0.5, &view);
        // With 25% of the work left, the chosen groups' exec times must be
        // a quarter of the originals.
        if let WindowDecision::Hybrid(plan) = d {
            for (g, _) in &plan.groups {
                let orig = problem.candidate(g.id).unwrap();
                assert!((g.exec_hours - orig.exec_hours * 0.25).abs() < 1e-9);
            }
        } else {
            panic!("expected hybrid decision");
        }
    }

    /// An injector that gaps the market feed at every window.
    fn always_gapped(market: &SpotMarket) -> FaultInjector {
        use ec2_market::fault::FaultPlan;
        FaultInjector::new(
            FaultPlan {
                seed: 5,
                feed_gap_prob: 1.0,
                ..FaultPlan::quiet()
            },
            market.horizon(),
        )
    }

    #[test]
    fn cached_window_is_reused_only_on_a_feed_gap() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let p = planner();
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(!w1.reused_from_cache, "cold cache cannot be reused");
        assert!(matches!(w1.decision, WindowDecision::Hybrid(_)));

        // Same view, slightly less work left, healthy feed: a fresh
        // search, identical to planning without the cache.
        let w2 = p
            .plan_window(
                &problem,
                0.8,
                0.1,
                &view,
                &mut PlanContext::new().with_cache(&mut cache).with_window(1),
            )
            .unwrap();
        assert!(!w2.reused_from_cache, "a healthy feed always re-plans");
        assert_eq!(w2.decision, plan(&p, &problem, 0.8, 0.1, &view));

        // The same window with the feed gapped reuses the cached plan,
        // rescaled from the fraction it was sized for.
        let injector = always_gapped(&market);
        let w3 = p
            .plan_window(
                &problem,
                0.6,
                0.2,
                &view,
                &mut PlanContext::new()
                    .with_cache(&mut cache)
                    .with_faults(&injector)
                    .with_window(2),
            )
            .unwrap();
        assert!(w3.reused_from_cache, "a feed gap reuses the cached plan");
        let (p2, p3) = (w2.decision.plan(), w3.decision.plan());
        assert_eq!(p2.groups.len(), p3.groups.len());
        for ((g2, dec2), (g3, dec3)) in p2.groups.iter().zip(&p3.groups) {
            assert_eq!(g2.id, g3.id);
            assert_eq!(dec2.bid, dec3.bid);
            assert!((g3.exec_hours - g2.exec_hours * 0.6 / 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn cached_window_still_bails_out_on_hopeless_deadlines() {
        // A feed-gap fallback must not override Algorithm 1 line 7: with
        // the deadline nearly exhausted the decision has to flip to
        // finish-on-demand even though a cached plan is at hand.
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let p = planner();
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(matches!(w1.decision, WindowDecision::Hybrid(_)));
        let injector = always_gapped(&market);
        let w = p
            .plan_window(
                &problem,
                1.0,
                problem.deadline * 0.95,
                &view,
                &mut PlanContext::new()
                    .with_cache(&mut cache)
                    .with_faults(&injector)
                    .with_window(1),
            )
            .unwrap();
        assert!(!w.reused_from_cache, "hopeless deadline must not reuse");
        assert!(matches!(w.decision, WindowDecision::FinishOnDemand(_)));
    }

    #[test]
    fn later_views_change_plans_when_market_shifts() {
        // Re-planning with a different history window is the whole point of
        // update maintenance; verify the planner actually consumes the view.
        let (market, problem) = setup();
        let early = MarketView::from_market(&market, 0.0, 48.0);
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let p = planner();
        let d1 = plan(&p, &problem, 1.0, 0.0, &early);
        let d2 = plan(&p, &problem, 1.0, 0.0, &late);
        // Plans may coincide on calm markets; at minimum both must be
        // valid hybrid decisions with launchable bids.
        for d in [&d1, &d2] {
            for (g, dec) in &d.plan().groups {
                assert!(dec.bid > 0.0, "group {} has nonpositive bid", g.id);
            }
        }
    }

    #[test]
    fn invalid_fraction_is_an_error_not_a_panic() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let err = planner()
            .plan_window(&problem, 0.0, 0.0, &view, &mut PlanContext::new())
            .unwrap_err();
        assert!(matches!(err, SompiError::InvalidFraction { .. }));
        let err = planner()
            .plan_window(&problem, 1.5, 0.0, &view, &mut PlanContext::new())
            .unwrap_err();
        assert!(matches!(err, SompiError::InvalidFraction { .. }));
    }

    #[test]
    fn feed_gap_falls_back_to_cached_plan_without_fingerprint() {
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        // The market moved 200 h...
        let late = MarketView::from_market(&market, 200.0, 48.0);
        let p = planner();
        let injector = always_gapped(&market);
        let mut cache = PlanCache::default();
        let w1 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &view,
                &mut PlanContext::new().with_cache(&mut cache),
            )
            .unwrap();
        assert!(matches!(w1.decision, WindowDecision::Hybrid(_)));
        // ...yet with the feed gapped the planner reuses the last valid
        // plan instead of re-optimizing against suspect data.
        let w2 = p
            .plan_window(
                &problem,
                0.8,
                0.2,
                &late,
                &mut PlanContext::new()
                    .with_cache(&mut cache)
                    .with_faults(&injector)
                    .with_window(1),
            )
            .unwrap();
        assert!(w2.reused_from_cache, "feed gap should reuse the last plan");
        for ((g1, d1), (g2, d2)) in w1
            .decision
            .plan()
            .groups
            .iter()
            .zip(&w2.decision.plan().groups)
        {
            assert_eq!(g1.id, g2.id);
            assert_eq!(d1.bid, d2.bid);
        }
        // Without a cached plan a gapped window still plans best-effort
        // from the (possibly stale) view — never a panic.
        let mut cold = PlanCache::default();
        let w3 = p
            .plan_window(
                &problem,
                1.0,
                0.0,
                &late,
                &mut PlanContext::new()
                    .with_cache(&mut cold)
                    .with_faults(&injector),
            )
            .unwrap();
        assert!(!w3.reused_from_cache);
    }

    #[test]
    fn adaptive_config_deserializes_without_warm_fields() {
        // Configs serialized before the warm-start fields existed must
        // keep loading; the fields default on and are ignored.
        let optimizer = serde_json::to_string(&OptimizerConfig::default()).unwrap();
        let json =
            format!(r#"{{"window_hours": 10.0, "history_hours": 24.0, "optimizer": {optimizer}}}"#);
        let cfg: AdaptiveConfig =
            serde_json::from_str(&json).expect("pre-warmstart config should deserialize");
        assert_eq!(cfg.window_hours, 10.0);
        assert!(cfg.warmstart && cfg.bucket_reuse);
    }

    #[test]
    fn cache_refuses_degenerate_rescale_ratios() {
        // Regression: a cached `made_for = +∞` passed the old bare
        // `> 0.0` guard and rescaled the plan by 0, which panics inside
        // `Plan::scaled`; NaN and non-positive fractions were similarly
        // unguarded on the recall side.
        let (market, problem) = setup();
        let view = MarketView::from_market(&market, 0.0, 48.0);
        let decision = plan(&planner(), &problem, 1.0, 0.0, &view);
        assert!(matches!(decision, WindowDecision::Hybrid(_)));

        for bad in [f64::INFINITY, f64::NAN, 0.0, -0.5] {
            let mut cache = PlanCache::default();
            cache.store(&decision, bad);
            assert!(
                cache.recall(0.5).is_none(),
                "made_for = {bad} must not be stored as recallable"
            );
        }

        let mut cache = PlanCache::default();
        cache.store(&decision, 0.8);
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            assert!(
                cache.recall(bad).is_none(),
                "remaining_fraction = {bad} must not rescale"
            );
        }
        // Sane ratios still recall, clamped to the stored plan's size.
        let recalled = cache.recall(0.4).expect("healthy ratio recalls");
        assert!(!recalled.groups.is_empty());
        assert!(cache.recall(0.9).is_some(), "ratio clamps at 1.0");
    }
}
