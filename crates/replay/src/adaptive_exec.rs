//! Windowed Algorithm-1 execution against realized traces.
//!
//! [`AdaptiveRunner`] is the paper's adaptive loop, every window decision
//! included: at each window boundary it rebuilds the market view from the
//! most recent `history_hours` of prices *ending at the current trace
//! time*, guards the deadline, keeps a healthy plan or re-plans the
//! residual through its [`Policy`] (or finishes on demand when even that
//! cannot make the deadline), and replays at most `T_m` hours of the
//! plan. Durable progress (the best checkpoint across circle groups,
//! stored on S3) carries across windows. Setting
//! `update_maintenance = false` reproduces the w/o-MT ablation: the plan
//! computed in the first window is reused verbatim forever.

use crate::exec::{ExecContext, Finish, PlanRunner, RunOutcome, SpotPhase};
use crate::Hours;
use ec2_market::market::{CircleGroupId, SpotMarket};
use serde::{Deserialize, Serialize};
use sompi_core::adaptive::{AdaptiveConfig, PlanContext};
use sompi_core::baselines::Sompi;
use sompi_core::cost::evaluate_plan;
use sompi_core::error::SompiError;
use sompi_core::model::Plan;
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::view::MarketView;
use sompi_obs::{emit, Event, TraceLevel};
use std::fmt;

/// Outcome of one adaptive execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The completed-run outcome (cost, wall time, deadline flag).
    pub run: RunOutcome,
    /// Number of optimization windows executed.
    pub windows: u32,
    /// Number of times the plan changed between consecutive windows.
    pub plan_changes: u32,
}

/// Replays the adaptive algorithm against a market.
#[derive(Clone)]
pub struct AdaptiveRunner<'a> {
    market: &'a SpotMarket,
    config: AdaptiveConfig,
    /// Re-plan each window (true = SOMPI, false = the w/o-MT ablation).
    pub update_maintenance: bool,
    /// The policy that re-plans each window's residual. `None` means
    /// `Sompi { config: config.optimizer }`.
    policy: Option<&'a dyn Policy>,
}

impl fmt::Debug for AdaptiveRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveRunner")
            .field("config", &self.config)
            .field("update_maintenance", &self.update_maintenance)
            .field(
                "policy",
                &self.policy.map(|p| p.name()).unwrap_or("<default: SOMPI>"),
            )
            .finish_non_exhaustive()
    }
}

impl<'a> AdaptiveRunner<'a> {
    /// Create a runner.
    pub fn new(market: &'a SpotMarket, config: AdaptiveConfig) -> Self {
        Self {
            market,
            config,
            update_maintenance: true,
            policy: None,
        }
    }

    /// Disable update maintenance (the w/o-MT ablation).
    pub fn without_maintenance(mut self) -> Self {
        self.update_maintenance = false;
        self
    }

    /// Re-plan each window's residual with `policy`'s [`Policy::plan`]
    /// instead of the default SOMPI optimizer. When to re-plan, and what
    /// to do when the plan cannot make the deadline, stays the loop's
    /// decision. With `Sompi { config }` this is exactly
    /// [`AdaptiveRunner::new`]'s behavior.
    pub fn with_policy(mut self, policy: &'a dyn Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Execute `problem` starting at trace offset `start` (the first
    /// window sees only prices before `start`), narrating the windowed
    /// loop to the context's recorder: a `WindowReplanned` per window
    /// boundary (after the policy's search events on a fresh re-plan, or
    /// `reused: true` under plan continuity, w/o-MT, or a feed-gap
    /// recall), the replay's `GroupLaunched`/`GroupFailed`/
    /// `CheckpointTaken` timeline (no launch for a group carried across a
    /// boundary), an `OnDemandFallback` when the loop abandons spot, and
    /// a final `RunCompleted` carrying the window/plan-change tallies.
    ///
    /// Each window, in order: the trace-horizon valve; the feed-gap
    /// check, which falls back to the last valid market view; the
    /// deadline guard; plan continuity; and on a re-plan, the feed-gap
    /// recall of the last freshly searched plan, the line-7 bail-out,
    /// and the policy's search of the residual.
    pub fn run(
        &self,
        problem: &Problem,
        start: Hours,
        ctx: &ExecContext<'_>,
    ) -> Result<AdaptiveOutcome, SompiError> {
        let recorder = ctx.recorder;
        let cfg = self.config;
        let default_policy = Sompi {
            config: cfg.optimizer,
        };
        let policy: &dyn Policy = self.policy.unwrap_or(&default_policy);
        let runner = PlanRunner::new(self.market, problem.deadline);

        let mut spent = SpotPhase::default();
        let mut done_fraction: f64 = 0.0;
        let mut windows = 0u32;
        let mut plan_changes = 0u32;
        let mut current_plan: Option<Plan> = None;
        // The group that completed the job, once one has.
        let mut completed_by: Option<CircleGroupId> = None;
        // Last computed plan together with the residual fraction it was
        // sized for — reused (rescaled) by plan continuity, by the w/o-MT
        // ablation and by the trace-horizon valve.
        let mut frozen_full: Option<(Plan, f64)> = None;
        // The last freshly searched hybrid plan and the residual fraction
        // it was sized for: what a re-plan on a gapped market feed recalls
        // instead of searching a stale view. Unlike `frozen_full` it never
        // holds a recalled (already rescaled) plan, and a kill forgets it:
        // the realized market just beat it.
        let mut gap_plan: Option<(Plan, f64)> = None;
        // Whether the last window demands a re-plan.
        let mut replan_needed = true;
        // Coordinates (history start, length) of the last market view
        // built from a healthy feed — what a gapped window falls back to.
        let mut last_view: Option<(Hours, Hours)> = None;

        let finish = loop {
            let remaining = 1.0 - done_fraction;
            if remaining <= 1e-9 {
                // Finished on spot. A window whose final checkpoint made
                // every hour durable without completing names no group;
                // its plan's first group is credited.
                let id = completed_by
                    .or_else(|| current_plan.as_ref()?.groups.first().map(|(g, _)| g.id))
                    .expect("completed on spot implies a spot plan");
                break Finish::Spot(id);
            }
            let elapsed = spent.elapsed;
            let now = start + elapsed;

            // Safety valve: never loop past the trace horizon.
            if let Some((plan, made_for)) = &frozen_full {
                if now >= self.market.horizon() {
                    let od = plan.on_demand;
                    break Finish::OnDemand {
                        option: od,
                        // The option is sized for the residual the plan
                        // was made for; bill what is left now.
                        hours: od.exec_hours * (remaining / made_for) + od.recovery_hours,
                        remaining_fraction: remaining,
                        reason: Some("trace-horizon"),
                    };
                }
            }

            let history_start = (now - cfg.history_hours).max(0.0);
            let fresh = (
                history_start,
                (now - history_start).max(cfg.window_hours.min(1.0)),
            );
            // Feed gap: the price feed for this window is missing or
            // stale. Re-plan against the last valid view instead of the
            // gapped one; on the very first window there is nothing older
            // to fall back to and the gapped view is used best-effort.
            let gap = ctx.faults.is_some_and(|f| f.feed_gap_at(windows));
            let (vh, vl) = if gap {
                emit(recorder, TraceLevel::Summary, || Event::FaultInjected {
                    class: "feed-gap".to_string(),
                    group: None,
                    at_hours: now,
                    detail: windows as f64,
                });
                if let Some(prev) = last_view {
                    emit(recorder, TraceLevel::Summary, || Event::DegradedMode {
                        mode: "stale-market-view".to_string(),
                        group: None,
                        at_hours: now,
                        reason: "feed-gap".to_string(),
                    });
                    prev
                } else {
                    fresh
                }
            } else {
                last_view = Some(fresh);
                fresh
            };

            // Deadline guard (Algorithm 1 line 7, applied on every path
            // including the frozen w/o-MT one — it is deadline
            // enforcement, not update maintenance): switch to on-demand
            // once neither the fastest *spot* completion of the residual
            // nor on-demand (with its recovery) fits in the time left.
            // It looks only at window boundaries and fires only after
            // on-demand has stopped fitting, so the on-demand run it
            // starts is normally late. While a spot plan can still make
            // the deadline, keep gambling: that is the whole premise of
            // the hybrid execution.
            let leftover = problem.deadline - elapsed;
            let fastest = problem.try_baseline()?;
            let od_needed = fastest.exec_hours * remaining + fastest.recovery_hours;
            let spot_needed = problem
                .candidates
                .iter()
                .map(|c| c.exec_hours * remaining)
                .fold(f64::INFINITY, f64::min);
            if od_needed >= leftover && spot_needed >= leftover {
                let mut hours = fastest.exec_hours * remaining;
                if done_fraction > 0.0 {
                    hours += fastest.recovery_hours;
                }
                break Finish::OnDemand {
                    option: *fastest,
                    hours,
                    remaining_fraction: remaining,
                    reason: Some("deadline-guard"),
                };
            }

            // Plan continuity: a healthy plan (progress made, nobody killed
            // out-of-bid) is kept across window boundaries — re-launching
            // different instances every `T_m` pays launch waits and
            // partial-hour billing for nothing. Update maintenance
            // re-plans at the events where fresh market knowledge matters:
            // failures, stalls, and the initial launch. w/o-MT never
            // re-plans at all.
            let reuse = frozen_full.is_some() && (!self.update_maintenance || !replan_needed);
            let replanned = |reused: bool, plan: &Plan| Event::WindowReplanned {
                window: windows,
                elapsed_hours: elapsed,
                remaining_fraction: remaining,
                reused,
                decision: if plan.groups.is_empty() {
                    "finish-on-demand"
                } else {
                    "hybrid"
                }
                .to_string(),
                groups: plan.groups.len() as u32,
            };
            let plan = if reuse {
                let (frozen, made_for) = frozen_full.as_ref().expect("checked");
                let plan = frozen.scaled((remaining / made_for).min(1.0));
                emit(recorder, TraceLevel::Summary, || replanned(true, &plan));
                plan
            } else {
                // Only a re-plan reads the market view, so only a re-plan
                // builds it.
                let view = MarketView::from_market(self.market, vh, vl);
                let residual = problem.try_residual(remaining, leftover.max(0.0))?;
                let fastest = residual.try_baseline()?;
                // Algorithm 1 line 7, read for the residual: the fastest
                // on-demand run, recovery included, still fits.
                let od_fits = fastest.exec_hours + fastest.recovery_hours <= leftover;
                // On a feed gap the view is suspect: recall the last fresh
                // plan, rescaled from the fraction it was sized for, while
                // line 7 passes and the plan still meets the leftover
                // deadline under the view. Both fractions lie in
                // (1e-9, 1] by construction, so the ratio is a valid scale.
                let recalled = match &gap_plan {
                    Some((plan, made_for)) if gap && od_fits => {
                        let plan = plan.scaled((remaining / made_for).min(1.0));
                        let feasible = evaluate_plan(&plan, &view)?.is_some_and(|eval| {
                            eval.meets(leftover)
                                && cfg
                                    .optimizer
                                    .min_spot_success
                                    .map(|q| eval.p_all_fail <= 1.0 - q)
                                    .unwrap_or(true)
                        });
                        feasible.then_some(plan)
                    }
                    _ => None,
                };
                if let Some(plan) = recalled {
                    emit(recorder, TraceLevel::Summary, || Event::DegradedMode {
                        mode: "stale-plan".to_string(),
                        group: None,
                        at_hours: elapsed,
                        reason: "feed-gap".to_string(),
                    });
                    emit(recorder, TraceLevel::Summary, || replanned(true, &plan));
                    plan
                } else {
                    // Line 7 failing, nothing beats on-demand. Otherwise
                    // the policy re-plans the residual (for SOMPI the
                    // optimizer's `E[Time] ≤ leftover` constraint is the
                    // deadline control); a pure on-demand plan from any
                    // policy is the same bail-out.
                    let plan = if od_fits {
                        policy.plan(
                            &residual,
                            &view,
                            &mut PlanContext::new().with_recorder(recorder),
                        )?
                    } else {
                        Plan::on_demand_only(*fastest)
                    };
                    emit(recorder, TraceLevel::Summary, || replanned(false, &plan));
                    if plan.groups.is_empty() {
                        // Run the residual on demand and stop; the gap
                        // plan goes with the loop.
                        let od = plan.on_demand;
                        let mut hours = od.exec_hours; // already residual-scaled
                        if done_fraction > 0.0 {
                            hours += od.recovery_hours;
                        }
                        break Finish::OnDemand {
                            option: od,
                            hours,
                            remaining_fraction: remaining,
                            reason: Some("replan"),
                        };
                    }
                    gap_plan = Some((plan.clone(), remaining));
                    plan
                }
            };
            if !reuse {
                if self.update_maintenance {
                    if let Some(prev) = &current_plan {
                        if *prev != plan {
                            plan_changes += 1;
                        }
                    }
                }
                // Remember this plan and what residual it was sized for,
                // for later continuity rescaling.
                frozen_full = Some((plan.clone(), remaining));
            }
            // Execute one window of the (residual) plan. The plan's groups
            // carry residual exec_hours already; replay them fully
            // (fraction 1.0 of the residual problem). The window never
            // overruns the deadline budget: Algorithm 1 re-evaluates at
            // the deadline at the latest.
            let win = cfg.window_hours.min((problem.deadline - elapsed).max(0.25));
            // `reuse` means the same healthy instances keep running
            // across the boundary: no fresh launch wait.
            let w = runner.run_window(&plan, now, 1.0, Some(win), reuse, ctx)?;
            spent.spot_cost += w.spot_cost;
            spent.groups_failed += w.groups_failed;
            // A kill forgets the gap plan: the realized market just beat
            // it. Re-plan when the window went badly: someone was killed
            // out-of-bid, or no durable progress was made.
            if w.groups_failed > 0 {
                gap_plan = None;
            }
            replan_needed = w.groups_failed > 0 || w.saved_fraction <= 1e-9;
            // saved_fraction is relative to the residual plan.
            done_fraction += remaining * w.saved_fraction.min(1.0);
            if w.completed_by.is_some() {
                done_fraction = 1.0;
                completed_by = w.completed_by;
            }
            // Advance at least a little to guarantee progress even if
            // nothing launched.
            spent.elapsed += w.elapsed.max(cfg.window_hours.min(0.25));
            windows += 1;
            current_plan = Some(plan);
        };
        let run = runner.settle(
            start,
            spent,
            finish,
            Some((windows, plan_changes)),
            recorder,
        );
        Ok(AdaptiveOutcome {
            run,
            windows,
            plan_changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Finisher;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;
    use sompi_core::model::GroupDecision;
    use sompi_core::twolevel::OptimizerConfig;
    use sompi_obs::RingRecorder;

    fn setup(seed: u64) -> (SpotMarket, Problem) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 400.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(&market, &profile, 3.0, Some(&types), S3Store::paper_2014());
        (market, problem)
    }

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            window_hours: 1.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn run(r: &AdaptiveRunner<'_>, problem: &Problem, start: Hours) -> AdaptiveOutcome {
        r.run(problem, start, &ExecContext::new()).unwrap()
    }

    #[test]
    fn completes_and_reports_cost() {
        let (market, problem) = setup(41);
        let out = run(&AdaptiveRunner::new(&market, config()), &problem, 60.0);
        assert!(out.run.total_cost > 0.0);
        assert!(out.run.wall_hours > 0.0);
        assert!(out.windows >= 1);
    }

    #[test]
    fn without_maintenance_never_replans() {
        let (market, problem) = setup(43);
        let r = AdaptiveRunner::new(&market, config()).without_maintenance();
        let out = run(&r, &problem, 60.0);
        assert_eq!(out.plan_changes, 0);
    }

    #[test]
    fn deterministic_given_offset() {
        let (market, problem) = setup(47);
        let r = AdaptiveRunner::new(&market, config());
        let a = run(&r, &problem, 72.0);
        let b = run(&r, &problem, 72.0);
        assert_eq!(a, b);
    }

    #[test]
    fn meets_loose_deadline_on_calm_markets() {
        let (market, problem) = setup(53);
        // Sample several offsets; the adaptive runner should usually meet
        // the loose deadline (3 h vs ~1.1 h baseline).
        let r = AdaptiveRunner::new(&market, config());
        let met = (0..5)
            .map(|i| run(&r, &problem, 60.0 + 40.0 * i as f64))
            .filter(|o| o.run.met_deadline)
            .count();
        assert!(met >= 3, "only {met}/5 met the deadline");
    }

    #[test]
    fn warm_start_does_not_change_the_replayed_outcome() {
        // The config's `warmstart`/`bucket_reuse` fields are accepted and
        // ignored: every window re-plans cold, so the full replayed
        // outcome (cost, wall hours, window count, plan changes) is
        // bit-identical with them on or off.
        let (market, problem) = setup(47);
        let mut off = config();
        off.warmstart = false;
        off.bucket_reuse = false;
        let on_runner = AdaptiveRunner::new(&market, config());
        let off_runner = AdaptiveRunner::new(&market, off);
        for start in [60.0, 120.0, 200.0] {
            assert_eq!(
                run(&on_runner, &problem, start),
                run(&off_runner, &problem, start),
                "offset {start}: an ignored field changed the run"
            );
        }
    }

    #[test]
    fn permanent_feed_gap_still_completes() {
        use ec2_market::fault::{FaultInjector, FaultPlan};
        let (market, problem) = setup(41);
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 11,
                feed_gap_prob: 1.0,
                ..FaultPlan::quiet()
            },
            market.horizon(),
        );
        let r = AdaptiveRunner::new(&market, config());
        let out = r
            .run(&problem, 60.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        // Every window gapped: the first plans best-effort on the gapped
        // view, later windows reuse it — the run still finishes and the
        // accounting stays coherent.
        assert!(out.run.total_cost > 0.0);
        assert!(out.run.wall_hours > 0.0);
    }

    /// `RunCompleted`'s and every `OnDemandFallback`'s payload for one
    /// adaptive run.
    fn traced(
        r: &AdaptiveRunner<'_>,
        problem: &Problem,
        start: Hours,
    ) -> (AdaptiveOutcome, Vec<Event>) {
        let ring = RingRecorder::new(TraceLevel::Summary, 1 << 12);
        let out = r
            .run(problem, start, &ExecContext::new().with_recorder(&ring))
            .unwrap();
        let ends = ring
            .take()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::OnDemandFallback { .. } | Event::RunCompleted { .. }
                )
            })
            .collect();
        (out, ends)
    }

    #[test]
    fn a_job_finished_on_spot_is_not_rebilled_at_the_trace_horizon() {
        // Starts this close to the 400 h horizon finish their last window
        // past it; the job is done, so spot finished it.
        let (market, problem) = setup(41);
        let r = AdaptiveRunner::new(
            &market,
            AdaptiveConfig {
                window_hours: 0.5,
                ..config()
            },
        );
        for start in [398.25, 398.3, 398.35, 398.4, 398.45] {
            let (out, ends) = traced(&r, &problem, start);
            assert!(
                matches!(out.run.finisher, Finisher::Spot(_)),
                "start {start}: {:?}, {ends:?}",
                out.run
            );
            assert_eq!(out.run.od_cost, 0.0, "start {start}");
            assert_eq!(ends.len(), 1, "start {start}: {ends:?}");
        }
    }

    #[test]
    fn the_trace_horizon_bills_the_residual_once() {
        // The valve's on-demand option is sized for the residual its
        // window started from; the hours billed are the full option's
        // hours for what is left now, plus recovery.
        let (market, problem) = setup(41);
        let r = AdaptiveRunner::new(
            &market,
            AdaptiveConfig {
                window_hours: 0.5,
                ..config()
            },
        );
        let mut valves = 0;
        for i in 0..60 {
            let start = 397.0 + 0.05 * i as f64;
            let (_, ends) = traced(&r, &problem, start);
            for e in &ends {
                let Event::OnDemandFallback {
                    remaining_fraction,
                    od_hours,
                    reason,
                    ..
                } = e
                else {
                    continue;
                };
                if reason != "trace-horizon" {
                    continue;
                }
                valves += 1;
                assert!(
                    problem.on_demand.iter().any(|o| {
                        (o.exec_hours * remaining_fraction + o.recovery_hours - od_hours).abs()
                            < 1e-9
                    }),
                    "start {start}: {od_hours} h for {remaining_fraction} of the job"
                );
            }
        }
        assert!(valves >= 20, "only {valves} trace-horizon fallbacks");
    }

    /// Plans two of the residual's candidates: first one at a bid no
    /// price admits, then the fastest at a bid every price admits.
    struct SecondGroupFinishes;

    impl Policy for SecondGroupFinishes {
        fn name(&self) -> &'static str {
            "second-group-finishes"
        }

        fn plan(
            &self,
            problem: &Problem,
            _view: &MarketView,
            _ctx: &mut PlanContext<'_>,
        ) -> Result<Plan, SompiError> {
            let fastest = problem
                .candidates
                .iter()
                .min_by(|a, b| a.exec_hours.total_cmp(&b.exec_hours))
                .expect("candidates");
            let idle = problem
                .candidates
                .iter()
                .find(|c| c.id != fastest.id)
                .expect("two candidates");
            let decision = |bid: f64, exec_hours: f64| GroupDecision {
                bid,
                ckpt_interval: exec_hours,
            };
            Ok(Plan {
                groups: vec![
                    (*idle, decision(0.0, idle.exec_hours)),
                    (*fastest, decision(999.0, fastest.exec_hours)),
                ],
                on_demand: *problem.try_baseline()?,
            })
        }
    }

    #[test]
    fn a_spot_finish_credits_the_group_that_completed() {
        let (market, problem) = setup(41);
        let policy = SecondGroupFinishes;
        let r = AdaptiveRunner::new(&market, config()).with_policy(&policy);
        let winner = SecondGroupFinishes
            .plan(
                &problem,
                &MarketView::from_market(&market, 0.0, 48.0),
                &mut PlanContext::new(),
            )
            .unwrap()
            .groups[1]
            .0
            .id;
        for start in [60.0, 120.0, 200.0] {
            let out = run(&r, &problem, start);
            assert_eq!(out.run.finisher, Finisher::Spot(winner), "start {start}");
        }
    }

    /// One m1.small group on a 100 h trace at 0.25 h steps: $0.10 except
    /// $9.00 over `spike`. Its problem runs 2 h on spot and 3 h on demand.
    fn one_group(spike: std::ops::Range<f64>, deadline: Hours) -> (SpotMarket, Problem) {
        use ec2_market::market::CircleGroupId;
        use ec2_market::trace::SpotTrace;
        use ec2_market::zone::AvailabilityZone;
        use sompi_core::model::{CircleGroup, OnDemandOption};
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let prices = (0..400)
            .map(|i| {
                if spike.contains(&(i as f64 * 0.25)) {
                    9.0
                } else {
                    0.1
                }
            })
            .collect();
        let mut market = SpotMarket::new(cat);
        market.insert(id, SpotTrace::new(0.25, prices));
        let problem = Problem {
            app: "one-group".to_string(),
            processes: 2,
            deadline,
            candidates: vec![CircleGroup {
                id,
                instances: 2,
                exec_hours: 2.0,
                ckpt_overhead_hours: 0.0,
                recovery_hours: 0.0,
            }],
            on_demand: vec![OnDemandOption {
                instance_type: ty,
                instances: 2,
                exec_hours: 3.0,
                unit_price: 1.0,
                recovery_hours: 0.0,
            }],
        };
        (market, problem)
    }

    /// Bids $0.20 on the residual's one group, checkpointing every
    /// 0.25 h, and keeps every plan it makes.
    #[derive(Default)]
    struct Bids20 {
        plans: std::sync::Mutex<Vec<Plan>>,
    }

    impl Policy for Bids20 {
        fn name(&self) -> &'static str {
            "bids-20"
        }

        fn plan(
            &self,
            problem: &Problem,
            _view: &MarketView,
            _ctx: &mut PlanContext<'_>,
        ) -> Result<Plan, SompiError> {
            let plan = Plan {
                groups: vec![(
                    problem.candidates[0],
                    GroupDecision {
                        bid: 0.2,
                        ckpt_interval: 0.25,
                    },
                )],
                on_demand: *problem.try_baseline()?,
            };
            self.plans.lock().unwrap().push(plan.clone());
            Ok(plan)
        }
    }

    /// One 1 h-window run of `Bids20` from hour 48, every window's feed
    /// gapped or none: the outcome, the plans searched, and the
    /// `WindowReplanned`/stale-plan/fallback events.
    fn gap_run(
        market: &SpotMarket,
        problem: &Problem,
        gapped: bool,
    ) -> (AdaptiveOutcome, Vec<Plan>, Vec<Event>) {
        use ec2_market::fault::{FaultInjector, FaultPlan};
        let policy = Bids20::default();
        let r = AdaptiveRunner::new(market, config()).with_policy(&policy);
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 5,
                feed_gap_prob: 1.0,
                ..FaultPlan::quiet()
            },
            market.horizon(),
        );
        let ring = RingRecorder::new(TraceLevel::Summary, 1 << 10);
        let mut ctx = ExecContext::new().with_recorder(&ring);
        if gapped {
            ctx = ctx.with_faults(&inj);
        }
        let out = r.run(problem, 48.0, &ctx).unwrap();
        let events = ring
            .take()
            .into_iter()
            .filter(|e| match e {
                Event::DegradedMode { mode, .. } => mode == "stale-plan",
                e => matches!(
                    e,
                    Event::WindowReplanned { .. } | Event::OnDemandFallback { .. }
                ),
            })
            .collect();
        (out, policy.plans.into_inner().unwrap(), events)
    }

    /// `(window, reused)` of every `WindowReplanned`, and the index of
    /// each stale-plan event in `events`.
    fn windows_and_recalls(events: &[Event]) -> (Vec<(u32, bool)>, Vec<usize>) {
        let windows = events
            .iter()
            .filter_map(|e| match e {
                Event::WindowReplanned { window, reused, .. } => Some((*window, *reused)),
                _ => None,
            })
            .collect();
        let recalls = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::DegradedMode { .. }))
            .map(|(i, _)| i)
            .collect();
        (windows, recalls)
    }

    #[test]
    fn a_gapped_replan_recalls_the_last_fresh_plan() {
        // Window 0 cannot launch ($9 > $0.20), so window 1 re-plans; the
        // group then runs to completion under plan continuity.
        let (market, problem) = one_group(48.0..49.0, 10.0);
        let (healthy, searched, events) = gap_run(&market, &problem, false);
        let (windows, recalls) = windows_and_recalls(&events);
        assert_eq!(searched.len(), 2, "a healthy feed searches every re-plan");
        assert!(recalls.is_empty());
        assert_eq!(&windows[..3], [(0, false), (1, false), (2, true)]);

        // Every window gapped: window 0 searches best-effort (there is
        // nothing to recall), window 1 recalls instead of searching, and
        // the continuity windows after it recall nothing.
        let (gapped, searched, events) = gap_run(&market, &problem, true);
        let (windows, recalls) = windows_and_recalls(&events);
        assert_eq!(searched.len(), 1, "the gapped re-plan searched");
        assert_eq!(&windows[..3], [(0, false), (1, true), (2, true)]);
        assert_eq!(recalls.len(), 1, "{events:?}");
        assert!(matches!(
            events[recalls[0] + 1],
            Event::WindowReplanned {
                window: 1,
                reused: true,
                ..
            }
        ));
        // The recalled plan is the last fresh one, sized for the fraction
        // it was searched at. (A recall follows a window that saved
        // nothing, so that is the fraction still left.) It replays
        // exactly as the healthy feed's fresh search of the same
        // residual.
        assert_eq!(searched[0].groups[0].0.exec_hours, 2.0);
        assert_eq!(gapped.run, healthy.run);
        assert_eq!(gapped.windows, healthy.windows);
        assert_eq!(gapped.plan_changes, 0);
    }

    #[test]
    fn a_gapped_replan_still_bails_out_on_hopeless_deadlines() {
        // With 2.5 h left after window 0, the residual's 3 h on-demand
        // run no longer fits while 2 h of spot still would: Algorithm 1
        // line 7 finishes on demand, recall or no recall.
        let (market, problem) = one_group(48.0..49.0, 3.5);
        let (_, searched, events) = gap_run(&market, &problem, true);
        // The plan at hand would have passed the recall's own test.
        let view = MarketView::from_market(&market, 1.0, 48.0);
        let eval = evaluate_plan(&searched[0], &view).unwrap().unwrap();
        assert!(eval.meets(2.5), "{eval:?}");
        let (windows, recalls) = windows_and_recalls(&events);
        assert!(
            recalls.is_empty(),
            "a hopeless deadline recalled: {events:?}"
        );
        assert_eq!(windows, [(0, false), (1, false)]);
        assert!(matches!(
            &events[2],
            Event::OnDemandFallback { reason, .. } if reason == "replan"
        ));
    }

    #[test]
    fn a_kill_forgets_the_gap_plan() {
        // The group launches at hour 48, checkpoints, and is priced out
        // at 48.5: the kill drops the plan, so the gapped re-plan at
        // window 1 searches the residual afresh.
        let (market, problem) = one_group(48.5..49.0, 10.0);
        let (out, searched, events) = gap_run(&market, &problem, true);
        assert_eq!(out.run.groups_failed, 1);
        let (windows, recalls) = windows_and_recalls(&events);
        assert!(recalls.is_empty(), "a killed plan was recalled: {events:?}");
        assert_eq!(&windows[..2], [(0, false), (1, false)]);
        assert_eq!(searched.len(), 2);
        assert!(
            searched[1].groups[0].0.exec_hours < 2.0,
            "progress was kept"
        );
    }
}
