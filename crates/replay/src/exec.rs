//! Replaying one static plan against realized spot price traces.
//!
//! Semantics, matching the paper's execution model:
//!
//! * each circle group launches at the first instant (≥ the start offset)
//!   its bid covers the spot price — "otherwise it waits";
//! * a group dies the moment the realized price exceeds its bid
//!   (out-of-bid event) — or, under fault injection, when a spot kill
//!   storm reclaims it;
//! * while alive, a group alternates `F_i` productive hours with `O_i`
//!   checkpoint overhead;
//! * the first group to finish the application wins and every other group
//!   is terminated by the user (charged per 2014 billing: partial hours
//!   charged on user termination, free on provider termination);
//! * if all groups die first, the best checkpoint across groups seeds an
//!   on-demand recovery run that starts once the last group is dead.
//!
//! [`PlanRunner::run`] replays a full plan to completion (with the
//! on-demand fallback); [`PlanRunner::run_window`] replays at most one
//! optimization window and reports the intermediate state, which is what
//! the Algorithm-1 adaptive runner consumes. `run` and the adaptive
//! runner end every replay through one settlement, which bills the
//! on-demand run and narrates the end. Both methods take an
//! [`ExecContext`] bundling the trace recorder, the optional
//! [`FaultInjector`], and the [`RetryPolicy`] for checkpoint I/O — all
//! no-ops by default, in which case the replay is bit-identical to the
//! pre-resilience executor.
//!
//! # Fault semantics
//!
//! * **Kill storms** terminate a group like an out-of-bid event
//!   (provider termination: the partial hour is free) at the earliest
//!   storm that reclaims the group.
//! * **Checkpoint upload failures** cost the overhead `O_i` per failed
//!   attempt plus the retry policy's deterministic backoff; when the
//!   policy is exhausted the group degrades to running *without*
//!   checkpoints — it keeps executing, but only previously banked
//!   checkpoints survive a later kill, and the final coordinated
//!   checkpoint at a user stop is also lost.
//! * **Latency spikes** add hours to the affected upload.
//! * **Restore corruption** hits the on-demand recovery: the best
//!   checkpoint reads corrupt and recovery falls back one checkpoint
//!   interval (`WindowOutcome::ckpt_step_fraction`).

use crate::batch::{BatchEntry, BatchTables};
use crate::{Hours, Usd};
use ec2_market::billing::{BillingModel, Termination};
use ec2_market::fault::{FaultInjector, RetryPolicy};
use ec2_market::index::TraceQuery;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use serde::{Deserialize, Serialize};
use sompi_core::error::SompiError;
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use sompi_obs::{emit, Event, NullRecorder, Recorder, TraceLevel};

/// Accepted and ignored: Monte-Carlo replay always resolves a fixed
/// plan's launch/death crossings through [`BatchTables`]. The one variant
/// and [`ExecContext::with_mode`] stay only for callers that still name
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Scenario-major execution: [`MonteCarlo::run_plan`](crate::MonteCarlo::run_plan)
    /// builds one [`BatchTables`] per call and every replica resolves
    /// crossings with O(1) table reads.
    #[default]
    Batched,
}

/// Everything an executor call may consult besides the plan and the
/// market: the trace recorder, an optional fault injector, the retry
/// policy for faulted checkpoint I/O, and the batched replay state.
/// [`ExecContext::default`] is all no-ops — replays under it are
/// bit-identical to the pre-resilience executor.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// Trace event sink.
    pub recorder: &'a dyn Recorder,
    /// Fault oracle; `None` injects nothing.
    pub faults: Option<&'a FaultInjector>,
    /// Retry/backoff policy for faulted checkpoint uploads. The default
    /// [`RetryPolicy::none`] never waits.
    pub retry: RetryPolicy,
    /// Precomputed death-time tables for the plan being replayed. `None`
    /// replays through the market's indexed trace queries (adaptive
    /// windows, one traced replay); the answers are bit-identical either
    /// way.
    pub batch: Option<&'a BatchTables>,
}

impl Default for ExecContext<'_> {
    fn default() -> Self {
        Self {
            recorder: &NullRecorder,
            faults: None,
            retry: RetryPolicy::none(),
            batch: None,
        }
    }
}

impl<'a> ExecContext<'a> {
    /// All-no-op context (same as [`ExecContext::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record trace events into `recorder`.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Inject faults from `faults`.
    pub fn with_faults(mut self, faults: &'a FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Retry faulted operations under `retry`.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Accepted and ignored: [`ExecMode`] has one variant, and
    /// [`MonteCarlo::run_plan`](crate::MonteCarlo::run_plan) always
    /// replays against [`BatchTables`].
    pub fn with_mode(self, _mode: ExecMode) -> Self {
        self
    }

    /// Replay against precomputed batch tables.
    pub fn with_batch(mut self, batch: &'a BatchTables) -> Self {
        self.batch = Some(batch);
        self
    }
}

/// Who completed the application in a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Finisher {
    /// A circle group finished on spot.
    Spot(CircleGroupId),
    /// The on-demand fallback finished the job.
    OnDemand,
}

/// Outcome of replaying one plan from one start offset to completion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Total realized cost, USD.
    pub total_cost: Usd,
    /// Spot share of the cost.
    pub spot_cost: Usd,
    /// On-demand share of the cost.
    pub od_cost: Usd,
    /// Wall-clock duration from the start offset to completion, hours.
    pub wall_hours: Hours,
    /// Who finished the job.
    pub finisher: Finisher,
    /// Number of circle groups terminated by out-of-bid events.
    pub groups_failed: u32,
    /// Whether the plan's deadline was met.
    pub met_deadline: bool,
}

/// State after replaying (at most) one window of a plan — no on-demand
/// fallback applied yet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowOutcome {
    /// Spot cost accrued in the window, USD.
    pub spot_cost: Usd,
    /// Wall hours consumed (from the window start to completion, last
    /// death, or window cutoff — whichever ended the window).
    pub elapsed: Hours,
    /// Application fraction completed *and durable* at window end: the
    /// full target fraction on completion, else the best checkpoint.
    pub saved_fraction: f64,
    /// Which group completed, if any.
    pub completed_by: Option<CircleGroupId>,
    /// Out-of-bid terminations in the window.
    pub groups_failed: u32,
    /// Application fraction one banked checkpoint of the best surviving
    /// group represents — how much a corrupt restore falls back by.
    /// Defaults to 0 for outcomes recorded before fault injection.
    #[serde(default)]
    pub ckpt_step_fraction: f64,
}

/// What a replay spent on spot before it ended: the input every exit
/// hands to [`PlanRunner::settle`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpotPhase {
    /// Spot cost accrued, USD.
    pub spot_cost: Usd,
    /// Wall hours from the start offset to the end of spot execution.
    pub elapsed: Hours,
    /// Circle groups terminated by out-of-bid events or kill storms.
    pub groups_failed: u32,
}

/// How a replay ends, as [`PlanRunner::settle`] bills it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Finish {
    /// A circle group finished the application on spot.
    Spot(CircleGroupId),
    /// On-demand runs `hours` of `option` (restore or reprovisioning
    /// included), right after spot execution ended.
    OnDemand {
        option: OnDemandOption,
        hours: Hours,
        /// Application fraction spot left undone, as the
        /// `OnDemandFallback` event reports it.
        remaining_fraction: f64,
        /// The fallback's reason; `None` for a planned pure-on-demand
        /// run, which is not a fallback and emits no event.
        reason: Option<&'static str>,
    },
}

/// Lifecycle of one group within a window: a small `Copy` record, so a
/// window's runs fit in inline storage (see [`INLINE_RUNS`]).
#[derive(Clone, Copy)]
struct GroupRun<'a> {
    /// Launch time and the trace the group is billed against; `None` when
    /// the group never launched in the window.
    launch: Option<(Hours, &'a SpotTrace)>,
    end: Hours,
    termination: Termination,
    completed: bool,
    /// Fraction of the full application durably saved by this group.
    saved_fraction: f64,
    /// Durable checkpoints behind `saved_fraction` (interval checkpoints,
    /// plus the final coordinated one on a user stop). Trace-event detail.
    ckpts: u32,
    /// Trace hour at which the last durable checkpoint finished.
    ckpt_at: Hours,
    /// Application fraction one banked interval checkpoint represents.
    step_fraction: f64,
}

impl GroupRun<'_> {
    /// A group that never launched in a window starting at `start`; it
    /// ends at `end` and costs nothing.
    fn idle(start: Hours, end: Hours) -> Self {
        GroupRun {
            launch: None,
            end,
            termination: Termination::Provider,
            completed: false,
            saved_fraction: 0.0,
            ckpts: 0,
            ckpt_at: start,
            step_fraction: 0.0,
        }
    }
}

/// Plans with up to this many groups keep a window's runs on the stack:
/// the paper's κ range (§5.2) and every benchmark plan fit. Larger plans
/// use one heap buffer per window.
const INLINE_RUNS: usize = 4;

/// Phase 1's buffer for one group's launch and fault events. A window
/// keeps one buffer of `(plan-group index, trace hour, event)` for all its
/// groups, settled in phase 2 (only events at or before the group's charge
/// end are real). With a recorder that records nothing the buffer is
/// absent, so an untraced replay builds no event and no event string.
struct GroupLog<'v> {
    group: usize,
    events: Option<&'v mut Vec<(usize, Hours, Event)>>,
}

impl GroupLog<'_> {
    /// Buffer `event()`, which happened at trace hour `at`, if anyone
    /// records.
    fn push(&mut self, at: Hours, event: impl FnOnce() -> Event) {
        if let Some(events) = self.events.as_deref_mut() {
            events.push((self.group, at, event()));
        }
    }
}

/// Where a group's launch and death crossings come from: its batch
/// death-time table when the context carries one, else indexed trace
/// queries at the group's bid. Both give the same bits.
enum Crossings<'t> {
    Table(&'t BatchEntry),
    Query(TraceQuery<'t>, Usd),
}

impl Crossings<'_> {
    fn launch_time(&self, start: Hours, cutoff: Hours) -> Option<Hours> {
        match self {
            Crossings::Table(e) => e.table.launch_time(start, cutoff),
            Crossings::Query(q, bid) => q.launch_time(start, *bid, cutoff),
        }
    }

    fn first_passage_above(&self, t: Hours) -> Option<Hours> {
        match self {
            Crossings::Table(e) => e.table.first_passage_above(t),
            Crossings::Query(q, bid) => q.first_passage_above(t, *bid),
        }
    }
}

/// Replays static plans against a market's realized traces.
#[derive(Debug, Clone, Copy)]
pub struct PlanRunner<'a> {
    market: &'a SpotMarket,
    billing: BillingModel,
    /// Deadline used for `met_deadline`, hours from the start offset.
    pub deadline: Hours,
}

impl<'a> PlanRunner<'a> {
    /// Create a runner with 2014 hourly billing.
    pub fn new(market: &'a SpotMarket, deadline: Hours) -> Self {
        Self {
            market,
            billing: BillingModel::hourly(),
            deadline,
        }
    }

    /// Override the billing model.
    pub fn with_billing(mut self, billing: BillingModel) -> Self {
        self.billing = billing;
        self
    }

    /// The billing model in use.
    pub fn billing(&self) -> BillingModel {
        self.billing
    }

    /// Replay `plan` (the full application) starting at trace offset
    /// `start`, falling back to on-demand recovery if all replicas die.
    ///
    /// Spot execution is cut off at the deadline: no operator lets a
    /// replica wait out a week-long price plateau while the deadline burns
    /// (Algorithm 1 line 7's "run on on-demand" applies). The on-demand
    /// recovery then completes the job — late runs are still completed,
    /// just flagged as missing the deadline. Under an injector with
    /// restore corruption, the recovery may find the best checkpoint
    /// corrupt and fall back one checkpoint interval (re-executing the
    /// lost slice on demand).
    ///
    /// Emits the run's timeline to the context's recorder:
    /// `GroupLaunched`, `GroupFailed`, `CheckpointTaken`, and fault events
    /// from the window replay, one `OnDemandFallback` if spot did not
    /// finish, and a final `RunCompleted`. The fallback's reason is
    /// `"all-groups-failed"` when the provider killed every spot group and
    /// `"deadline-cutoff"` otherwise (a group was stopped at the deadline,
    /// or never launched). All `at_hours` are on the market-trace clock
    /// (the same clock as `start`).
    ///
    /// Errors with [`SompiError::UnknownGroup`] when the plan references
    /// a circle group the market has no trace for.
    pub fn run(
        &self,
        plan: &Plan,
        start: Hours,
        ctx: &ExecContext<'_>,
    ) -> Result<RunOutcome, SompiError> {
        let w = self.run_window(plan, start, 1.0, Some(self.deadline), false, ctx)?;
        let spent = SpotPhase {
            spot_cost: w.spot_cost,
            elapsed: w.elapsed,
            groups_failed: w.groups_failed,
        };
        let finish = match w.completed_by {
            Some(id) => Finish::Spot(id),
            None => {
                let od = plan.on_demand;
                let mut saved = w.saved_fraction;
                let mut remaining = (1.0 - saved).max(0.0);
                if remaining > 0.0 && saved > 0.0 {
                    if let Some(inj) = ctx.faults {
                        // One restore per recovery, keyed by the saved
                        // state so distinct recoveries draw independently.
                        if inj.restore_corrupted((saved * 1e9) as u64, 0) {
                            let lost = w.ckpt_step_fraction.min(saved).max(0.0);
                            saved -= lost;
                            remaining = (1.0 - saved).max(0.0);
                            let at = start + w.elapsed;
                            emit(ctx.recorder, TraceLevel::Summary, || Event::FaultInjected {
                                class: "restore-corruption".to_string(),
                                group: None,
                                at_hours: at,
                                detail: lost,
                            });
                            emit(ctx.recorder, TraceLevel::Summary, || Event::DegradedMode {
                                mode: "previous-checkpoint".to_string(),
                                group: None,
                                at_hours: at,
                                reason: "restore-corruption".to_string(),
                            });
                        }
                    }
                }
                let mut hours = od.exec_hours * remaining;
                // Restore a checkpoint, or reprovision after failures.
                if remaining > 0.0 && (saved > 0.0 || !plan.groups.is_empty()) {
                    hours += od.recovery_hours;
                }
                let all_failed = w.groups_failed as usize == plan.groups.len();
                Finish::OnDemand {
                    option: od,
                    hours,
                    remaining_fraction: (1.0 - w.saved_fraction).max(0.0),
                    // A planned pure-on-demand run is not a *fallback*.
                    reason: (!plan.groups.is_empty()).then_some(if all_failed {
                        "all-groups-failed"
                    } else {
                        "deadline-cutoff"
                    }),
                }
            }
        };
        Ok(self.settle(start, spent, finish, None, ctx.recorder))
    }

    /// End a replay that began at trace hour `start`: bill the on-demand
    /// run `finish` names (nothing when a group finished on spot), emit
    /// its `OnDemandFallback` when it has a reason and then
    /// `RunCompleted`, and return the run. `adaptive` carries an adaptive
    /// run's window and plan-change tallies into `RunCompleted`. Every
    /// executor ends here, so a replay is billed and narrated one way.
    pub(crate) fn settle(
        &self,
        start: Hours,
        spent: SpotPhase,
        finish: Finish,
        adaptive: Option<(u32, u32)>,
        recorder: &dyn Recorder,
    ) -> RunOutcome {
        let (finisher, od_cost, wall) = match finish {
            Finish::Spot(id) => (Finisher::Spot(id), 0.0, spent.elapsed),
            Finish::OnDemand {
                option,
                hours,
                remaining_fraction,
                reason,
            } => {
                let od_cost =
                    self.billing
                        .on_demand_cost(option.unit_price, hours, option.instances);
                let wall = spent.elapsed + hours;
                if let Some(reason) = reason {
                    emit(recorder, TraceLevel::Summary, || Event::OnDemandFallback {
                        at_hours: start + spent.elapsed,
                        remaining_fraction,
                        // The hours as the run's wall clock counts them.
                        od_hours: wall - spent.elapsed,
                        od_cost,
                        reason: reason.to_string(),
                    });
                }
                (Finisher::OnDemand, od_cost, wall)
            }
        };
        let out = RunOutcome {
            total_cost: spent.spot_cost + od_cost,
            spot_cost: spent.spot_cost,
            od_cost,
            wall_hours: wall,
            finisher,
            groups_failed: spent.groups_failed,
            met_deadline: wall <= self.deadline,
        };
        emit(recorder, TraceLevel::Summary, || Event::RunCompleted {
            finisher: match out.finisher {
                Finisher::Spot(id) => format!("spot:{id}"),
                Finisher::OnDemand => "on-demand".to_string(),
            },
            total_cost: out.total_cost,
            spot_cost: out.spot_cost,
            od_cost: out.od_cost,
            wall_hours: out.wall_hours,
            met_deadline: out.met_deadline,
            groups_failed: out.groups_failed,
            windows: adaptive.map(|(windows, _)| windows),
            plan_changes: adaptive.map(|(_, changes)| changes),
        });
        out
    }

    /// Replay at most `window` hours (None = unbounded) of `plan` on
    /// `fraction` of the application, starting at trace offset `start`.
    /// With `carried = true` the groups are *already running* at `start`
    /// (an adaptive window boundary where healthy instances were kept):
    /// no launch wait is paid, even if the instantaneous price is above
    /// the bid — the instances only die when the price actually exceeds
    /// it. Returns the intermediate state; no on-demand fallback is
    /// applied. `GroupLaunched` (Detail, one per group that launches in
    /// the window; none for carried groups), `GroupFailed` (Summary),
    /// `CheckpointTaken` (Detail), and fault events are emitted once
    /// per-group lifecycles are settled — i.e. after the winner rule
    /// classifies each termination, so a group the winner stopped before
    /// its launch shows no launch.
    ///
    /// Errors with [`SompiError::InvalidFraction`] for a `fraction`
    /// outside `(0, 1]` and [`SompiError::UnknownGroup`] for a plan group
    /// the market has no trace for.
    pub fn run_window(
        &self,
        plan: &Plan,
        start: Hours,
        fraction: f64,
        window: Option<Hours>,
        carried: bool,
        ctx: &ExecContext<'_>,
    ) -> Result<WindowOutcome, SompiError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(SompiError::InvalidFraction { fraction });
        }
        let cutoff = window.map(|w| start + w).unwrap_or(f64::INFINITY);
        let io_faults = ctx
            .faults
            .filter(|f| f.plan().ckpt_fail_prob > 0.0 || f.plan().ckpt_latency_prob > 0.0);
        let recorder = ctx.recorder;
        let traced = recorder.enabled(TraceLevel::Summary);
        let launches = traced && !carried && recorder.enabled(TraceLevel::Detail);
        let mut events = Vec::new();

        let mut inline = [GroupRun::idle(start, start); INLINE_RUNS];
        let mut spilled = Vec::new();
        let n = plan.groups.len();
        let runs = if n <= INLINE_RUNS {
            &mut inline[..n]
        } else {
            spilled.resize(n, GroupRun::idle(start, start));
            &mut spilled[..]
        };

        // Phase 1: per-group lifecycle ignoring the winner rule.
        for (i, ((group, decision), run)) in plan.groups.iter().zip(runs.iter_mut()).enumerate() {
            let trace = self
                .market
                .trace(group.id)
                .ok_or_else(|| SompiError::UnknownGroup {
                    group: group.id.to_string(),
                })?;
            // Batched replay: the death-time table for this (group, bid),
            // when the context carries one. Every lookup below is
            // bit-identical to the indexed query — the table is the same
            // arithmetic with the trace scan hoisted out. Without one, the
            // query walks the trace index (O(log n)).
            let entry = ctx.batch.and_then(|b| b.entry(i, group.id, decision.bid));
            let crossings = match entry {
                Some(e) => Crossings::Table(e),
                None => Crossings::Query(
                    self.market.query(group.id).expect("trace looked up above"),
                    decision.bid,
                ),
            };

            // Launch: wait until the price is at or below the bid —
            // unless the group was carried over already running.
            let launch = if carried {
                Some(start)
            } else {
                crossings.launch_time(start, cutoff)
            };
            let Some(launch_t) = launch else {
                *run = GroupRun::idle(start, cutoff.min(trace.duration()).max(start));
                continue;
            };

            // Death: first passage above the bid after launch — or an
            // injected kill storm, whichever reclaims the group first.
            let price_death = crossings
                .first_passage_above(launch_t)
                .unwrap_or(f64::INFINITY);
            let storm_death = ctx
                .faults
                .and_then(|f| match entry {
                    Some(e) => f.storm_kill_after_keyed(e.gkey, launch_t),
                    None => f.storm_kill_after(group.id, launch_t),
                })
                .unwrap_or(f64::INFINITY);
            let storm_killed = storm_death < price_death;
            let death = price_death.min(storm_death);

            let mut log = GroupLog {
                group: i,
                events: traced.then_some(&mut events),
            };
            if launches {
                log.push(launch_t, || Event::GroupLaunched {
                    group: group.id.to_string(),
                    at_hours: launch_t,
                });
            }
            let launched = (launch_t, trace);
            *run = match io_faults {
                Some(injector) => walk_group(
                    group,
                    decision,
                    injector,
                    &ctx.retry,
                    fraction,
                    launched,
                    death,
                    cutoff,
                    entry.map(|e| e.gkey),
                    &mut log,
                ),
                None => closed_form_group(group, decision, fraction, launched, death, cutoff),
            };
            if storm_killed && run.end >= storm_death && run.termination == Termination::Provider {
                log.push(storm_death, || Event::FaultInjected {
                    class: "spot-kill-storm".to_string(),
                    group: Some(group.id.to_string()),
                    at_hours: storm_death,
                    detail: 0.0,
                });
            }
        }
        let runs = &*runs;
        let group_events = |i: usize| events.iter().filter(move |(g, ..)| *g == i);

        // Phase 2: winner rule — earliest completion terminates the rest.
        let winner = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.completed)
            .min_by(|a, b| a.1.end.total_cmp(&b.1.end));

        let mut spot_cost = 0.0;
        let mut groups_failed = 0u32;

        let outcome = match winner {
            Some((wi, w)) => {
                let w_end = w.end;
                for (i, ((group, _), r)) in plan.groups.iter().zip(runs).enumerate() {
                    let Some((launch, trace)) = r.launch else {
                        continue;
                    };
                    let ended_before_winner = r.end <= w_end && i != wi;
                    let (term, charge_end) = if ended_before_winner {
                        (r.termination, r.end)
                    } else {
                        (Termination::User, w_end)
                    };
                    for (_, at, e) in group_events(i) {
                        if *at <= charge_end {
                            emit(recorder, e.level(), || e.clone());
                        }
                    }
                    if ended_before_winner && r.termination == Termination::Provider {
                        groups_failed += 1;
                        emit(recorder, TraceLevel::Summary, || Event::GroupFailed {
                            group: group.id.to_string(),
                            at_hours: r.end,
                            saved_fraction: r.saved_fraction,
                        });
                    }
                    spot_cost += self.billing.spot_cost(
                        trace,
                        launch,
                        charge_end.max(launch),
                        term,
                        group.instances,
                    );
                }
                WindowOutcome {
                    spot_cost,
                    elapsed: w_end - start,
                    saved_fraction: fraction,
                    completed_by: Some(plan.groups[wi].0.id),
                    groups_failed,
                    ckpt_step_fraction: 0.0,
                }
            }
            None => {
                let mut last_end = start;
                let mut best = 0.0f64;
                let mut best_step = 0.0f64;
                for (i, ((group, _), r)) in plan.groups.iter().zip(runs).enumerate() {
                    if let Some((launch, trace)) = r.launch {
                        spot_cost += self.billing.spot_cost(
                            trace,
                            launch,
                            r.end.max(launch),
                            r.termination,
                            group.instances,
                        );
                        for (_, _, e) in group_events(i) {
                            emit(recorder, e.level(), || e.clone());
                        }
                        if r.saved_fraction > 0.0 {
                            emit(recorder, TraceLevel::Detail, || Event::CheckpointTaken {
                                group: group.id.to_string(),
                                at_hours: r.ckpt_at,
                                count: r.ckpts,
                                saved_fraction: r.saved_fraction,
                            });
                        }
                        if r.termination == Termination::Provider {
                            groups_failed += 1;
                            emit(recorder, TraceLevel::Summary, || Event::GroupFailed {
                                group: group.id.to_string(),
                                at_hours: r.end,
                                saved_fraction: r.saved_fraction,
                            });
                        }
                    }
                    last_end = last_end.max(r.end);
                    if r.saved_fraction > best {
                        best = r.saved_fraction;
                        best_step = r.step_fraction;
                    }
                }
                WindowOutcome {
                    spot_cost,
                    elapsed: last_end - start,
                    saved_fraction: best,
                    completed_by: None,
                    groups_failed,
                    ckpt_step_fraction: best_step,
                }
            }
        };
        Ok(outcome)
    }
}

/// The fault-free lifecycle in closed form — the paper's execution model,
/// bit-identical to the pre-resilience executor (a storm-truncated
/// `death` composes transparently: a storm kill is just an earlier
/// provider termination).
fn closed_form_group<'a>(
    group: &CircleGroup,
    decision: &GroupDecision,
    fraction: f64,
    launch: (Hours, &'a SpotTrace),
    death: Hours,
    cutoff: Hours,
) -> GroupRun<'a> {
    let launch_t = launch.0;
    let exec = group.exec_hours * fraction;
    let interval = decision.ckpt_interval.min(group.exec_hours);
    let ckpt_on = interval < exec;
    let o = group.ckpt_overhead_hours;
    let step_fraction = step_fraction(group, decision, fraction);

    let n_ckpt = if ckpt_on {
        (exec / interval).floor()
    } else {
        0.0
    };
    let completion = launch_t + exec + o * n_ckpt;

    if completion <= death && completion <= cutoff {
        return GroupRun {
            launch: Some(launch),
            end: completion,
            termination: Termination::User,
            completed: true,
            saved_fraction: fraction,
            ckpts: n_ckpt as u32,
            ckpt_at: completion,
            step_fraction,
        };
    }
    let end = death.min(cutoff);
    let alive = (end - launch_t).max(0.0);
    let killed_by_provider = death <= cutoff;
    let (saved_hours, ckpts, ckpt_at) = if killed_by_provider {
        // Out-of-bid: only completed checkpoints survive.
        if ckpt_on {
            let cycle = interval + o;
            let c = (alive / cycle).floor();
            ((c * interval).min(exec), c as u32, launch_t + c * cycle)
        } else {
            (0.0, 0, end)
        }
    } else {
        // Window/deadline expiry is a *user* stop: the runtime takes a
        // final coordinated checkpoint before releasing the instances
        // (Algorithm 1 line 22, "checkpointing the final state of the
        // application as the next start point"), so all productive
        // progress is durable. That final checkpoint counts as one more
        // durable one.
        if ckpt_on {
            let cycle = interval + o;
            let c = (alive / cycle).floor();
            (
                (c * interval + (alive - c * cycle).min(interval)).min(exec),
                c as u32 + 1,
                end,
            )
        } else {
            (alive.min(exec), 1, end)
        }
    };
    GroupRun {
        launch: Some(launch),
        end,
        termination: if killed_by_provider {
            Termination::Provider
        } else {
            Termination::User
        },
        completed: false,
        saved_fraction: if exec > 0.0 {
            fraction * saved_hours / exec
        } else {
            fraction
        },
        ckpts,
        ckpt_at,
        step_fraction,
    }
}

/// Application fraction one banked interval checkpoint represents.
fn step_fraction(group: &CircleGroup, decision: &GroupDecision, fraction: f64) -> f64 {
    let exec = group.exec_hours * fraction;
    let interval = decision.ckpt_interval.min(group.exec_hours);
    if exec > 0.0 && interval < exec {
        fraction * interval / exec
    } else {
        fraction
    }
}

/// The lifecycle under active checkpoint-I/O faults, walked one
/// checkpoint cycle at a time. Coincides with [`closed_form_group`] when
/// no fault fires. Deterministic: every fault decision is a pure hash of
/// the injector seed and the (group, checkpoint ordinal, attempt)
/// coordinates, and the walk visits checkpoints in time order.
#[allow(clippy::too_many_arguments)]
fn walk_group<'a>(
    group: &CircleGroup,
    decision: &GroupDecision,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    fraction: f64,
    launch: (Hours, &'a SpotTrace),
    death: Hours,
    cutoff: Hours,
    gkey: Option<u64>,
    log: &mut GroupLog<'_>,
) -> GroupRun<'a> {
    let launch_t = launch.0;
    let exec = group.exec_hours * fraction;
    let interval = decision.ckpt_interval.min(group.exec_hours);
    let ckpt_on = interval < exec;
    let o = group.ckpt_overhead_hours;
    let stop = death.min(cutoff);
    let user_stop = cutoff < death;
    // The fault-draw key: cached in the batch entry (computed once per
    // plan), or derived here on the table-free path — the same hash
    // either way, so every draw below is identical on both paths.
    let gkey = gkey.unwrap_or_else(|| ec2_market::fault::group_key(group.id));

    let mut t = launch_t;
    let mut done: Hours = 0.0; // productive hours completed
    let mut saved: Hours = 0.0; // productive hours durable in checkpoints
    let mut ckpts = 0u32;
    let mut ckpt_at = launch_t;
    let mut degraded = false;
    let mut ordinal = 0u32;

    // Bank whatever a user stop can make durable: the final coordinated
    // checkpoint saves all productive progress — unless checkpoint
    // storage was lost, or the final upload itself fails every attempt.
    let finish_user_stop = |done: Hours,
                            saved: &mut Hours,
                            ckpts: &mut u32,
                            ckpt_at: &mut Hours,
                            ordinal: u32,
                            degraded: bool,
                            log: &mut GroupLog<'_>| {
        if degraded {
            return;
        }
        let slot = ordinal + 1;
        let mut banked = true;
        for attempt in 1..=retry.max_attempts.max(1) {
            if injector.ckpt_upload_fails_keyed(gkey, slot, attempt) {
                log.push(stop, || Event::FaultInjected {
                    class: "ckpt-upload-failure".to_string(),
                    group: Some(group.id.to_string()),
                    at_hours: stop,
                    detail: slot as f64,
                });
                let last = attempt == retry.max_attempts.max(1);
                log.push(stop, || Event::RetryAttempted {
                    op: "ckpt-upload".to_string(),
                    group: group.id.to_string(),
                    at_hours: stop,
                    attempt,
                    backoff_hours: 0.0,
                    gave_up: last,
                });
                if last {
                    banked = false;
                }
            } else {
                break;
            }
        }
        if banked && done > *saved {
            *saved = done;
            *ckpts += 1;
            *ckpt_at = stop;
        }
    };

    loop {
        let run_left = (exec - done).max(0.0);
        if !ckpt_on || degraded {
            // No (more) checkpoints: straight run to completion.
            let completion = t + run_left;
            if completion <= stop {
                return GroupRun {
                    launch: Some(launch),
                    end: completion,
                    termination: Termination::User,
                    completed: true,
                    saved_fraction: fraction,
                    ckpts,
                    ckpt_at: completion,
                    step_fraction: step_fraction(group, decision, fraction),
                };
            }
            let done_at_stop = done + (stop - t).max(0.0).min(run_left);
            if user_stop {
                finish_user_stop(
                    done_at_stop,
                    &mut saved,
                    &mut ckpts,
                    &mut ckpt_at,
                    ordinal,
                    degraded,
                    log,
                );
            }
            break;
        }

        let seg = interval.min(run_left);
        let seg_end = t + seg;
        if seg_end > stop {
            // Died or stopped mid-segment.
            let done_at_stop = done + (stop - t).max(0.0).min(seg);
            if user_stop {
                finish_user_stop(
                    done_at_stop,
                    &mut saved,
                    &mut ckpts,
                    &mut ckpt_at,
                    ordinal,
                    degraded,
                    log,
                );
            }
            break;
        }
        done += seg;
        t = seg_end;
        if seg < interval - 1e-12 {
            // Partial tail segment: the application completes without a
            // trailing checkpoint (matches the closed form's
            // ⌊exec/interval⌋ checkpoints).
            return GroupRun {
                launch: Some(launch),
                end: t,
                termination: Termination::User,
                completed: true,
                saved_fraction: fraction,
                ckpts,
                ckpt_at,
                step_fraction: step_fraction(group, decision, fraction),
            };
        }

        // A full interval completed: take checkpoint `ordinal`.
        ordinal += 1;
        let latency = injector.ckpt_latency_spike_keyed(gkey, ordinal);
        let mut interrupted = false;
        for attempt in 1..=retry.max_attempts.max(1) {
            let mut upload = o;
            if attempt == 1 {
                if let Some(extra) = latency {
                    upload += extra;
                    log.push(t, || Event::FaultInjected {
                        class: "ckpt-latency-spike".to_string(),
                        group: Some(group.id.to_string()),
                        at_hours: t,
                        detail: extra,
                    });
                }
            }
            let finish = t + upload;
            if finish > stop {
                // Killed or stopped during the upload: not durable.
                interrupted = true;
                break;
            }
            t = finish;
            if !injector.ckpt_upload_fails_keyed(gkey, ordinal, attempt) {
                saved = done;
                ckpts += 1;
                ckpt_at = t;
                break;
            }
            log.push(t, || Event::FaultInjected {
                class: "ckpt-upload-failure".to_string(),
                group: Some(group.id.to_string()),
                at_hours: t,
                detail: ordinal as f64,
            });
            if attempt < retry.max_attempts.max(1) {
                let backoff =
                    retry.backoff_hours(injector.plan().seed, gkey ^ ordinal as u64, attempt);
                log.push(t, || Event::RetryAttempted {
                    op: "ckpt-upload".to_string(),
                    group: group.id.to_string(),
                    at_hours: t,
                    attempt,
                    backoff_hours: backoff,
                    gave_up: false,
                });
                t += backoff;
                if t > stop {
                    interrupted = true;
                    break;
                }
            } else {
                log.push(t, || Event::RetryAttempted {
                    op: "ckpt-upload".to_string(),
                    group: group.id.to_string(),
                    at_hours: t,
                    attempt,
                    backoff_hours: 0.0,
                    gave_up: true,
                });
                log.push(t, || Event::DegradedMode {
                    mode: "no-checkpoint".to_string(),
                    group: Some(group.id.to_string()),
                    at_hours: t,
                    reason: "ckpt-upload-retries-exhausted".to_string(),
                });
                degraded = true;
            }
        }
        if interrupted {
            if user_stop {
                finish_user_stop(
                    done,
                    &mut saved,
                    &mut ckpts,
                    &mut ckpt_at,
                    ordinal,
                    degraded,
                    log,
                );
            }
            break;
        }
        if done >= exec - 1e-12 {
            // The final interval landed exactly on completion: done.
            return GroupRun {
                launch: Some(launch),
                end: t,
                termination: Termination::User,
                completed: true,
                saved_fraction: fraction,
                ckpts,
                ckpt_at: t,
                step_fraction: step_fraction(group, decision, fraction),
            };
        }
    }

    GroupRun {
        launch: Some(launch),
        end: stop,
        termination: if user_stop {
            Termination::User
        } else {
            Termination::Provider
        },
        completed: false,
        saved_fraction: if exec > 0.0 {
            fraction * saved.min(exec) / exec
        } else {
            fraction
        },
        ckpts,
        ckpt_at,
        step_fraction: step_fraction(group, decision, fraction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::fault::FaultPlan;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::trace::SpotTrace;
    use ec2_market::zone::AvailabilityZone;
    use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption};

    /// One-type market with a hand-written trace for exact assertions.
    fn tiny_market(prices: &[f64]) -> (SpotMarket, CircleGroupId) {
        let cat = InstanceCatalog::paper_2014();
        let ty = cat.by_name("m1.small").unwrap();
        let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
        let mut m = SpotMarket::new(cat);
        m.insert(id, SpotTrace::new(1.0, prices.to_vec()));
        (m, id)
    }

    fn group(id: CircleGroupId, t: Hours) -> CircleGroup {
        CircleGroup {
            id,
            instances: 2,
            exec_hours: t,
            ckpt_overhead_hours: 0.0,
            recovery_hours: 0.5,
        }
    }

    fn od() -> OnDemandOption {
        OnDemandOption {
            instance_type: InstanceTypeId(4),
            instances: 1,
            exec_hours: 4.0,
            unit_price: 2.0,
            recovery_hours: 0.5,
        }
    }

    fn run(m: &SpotMarket, deadline: Hours, plan: &Plan, start: Hours) -> RunOutcome {
        PlanRunner::new(m, deadline)
            .run(plan, start, &ExecContext::new())
            .unwrap()
    }

    #[test]
    fn calm_trace_completes_on_spot() {
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 3.0,
                },
            )],
            on_demand: od(),
        };
        let out = run(&m, 5.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::Spot(id));
        assert_eq!(out.groups_failed, 0);
        assert!((out.wall_hours - 3.0).abs() < 1e-9);
        // 3 whole hours at $0.1 × 2 instances.
        assert!((out.spot_cost - 0.6).abs() < 1e-9);
        assert_eq!(out.od_cost, 0.0);
        assert!(out.met_deadline);
    }

    #[test]
    fn out_of_bid_without_checkpoints_falls_to_od_full_rerun() {
        // Price spikes above the bid at hour 2; 3-hour job, no checkpoints.
        let (m, id) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 3.0,
                },
            )],
            on_demand: od(),
        };
        let out = run(&m, 10.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::OnDemand);
        assert_eq!(out.groups_failed, 1);
        // Provider termination at hour 2: 2 whole hours charged.
        assert!((out.spot_cost - 0.1 * 2.0 * 2.0).abs() < 1e-9);
        // OD reruns everything: 4 h + 0.5 recovery = 4.5 → ceil 5 h × $2.
        assert!((out.od_cost - 10.0).abs() < 1e-9);
        assert!((out.wall_hours - (2.0 + 4.5)).abs() < 1e-9);
    }

    #[test]
    fn checkpoints_shrink_od_rerun() {
        let (m, id) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let g = group(id, 3.0); // zero-overhead checkpoints for exactness
        let plan = Plan {
            groups: vec![(
                g,
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let out = run(&m, 10.0, &plan, 0.0);
        // Died at hour 2 with 2 checkpoints → 2/3 of app saved.
        // OD runs 4 × (1/3) + 0.5 = 1.833 → ceil 2 h × $2 = $4.
        assert_eq!(out.finisher, Finisher::OnDemand);
        assert!((out.od_cost - 4.0).abs() < 1e-9, "od {}", out.od_cost);
    }

    #[test]
    fn waits_for_launch_when_price_above_bid() {
        // Price starts high, drops at hour 2.
        let (m, id) = tiny_market(&[9.0, 9.0, 0.1, 0.1, 0.1, 0.1]);
        let plan = Plan {
            groups: vec![(
                group(id, 2.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: od(),
        };
        let out = run(&m, 10.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::Spot(id));
        // Launched at 2, done at 4 → wall 4 from start.
        assert!((out.wall_hours - 4.0).abs() < 1e-9);
        // Charged 2 hours only.
        assert!((out.spot_cost - 0.1 * 2.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn never_launches_goes_straight_od() {
        let (m, id) = tiny_market(&[9.0; 6]);
        let plan = Plan {
            groups: vec![(
                group(id, 2.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: od(),
        };
        let out = run(&m, 20.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::OnDemand);
        assert_eq!(out.spot_cost, 0.0);
        assert!(out.od_cost > 0.0);
    }

    #[test]
    fn winner_kills_slower_replica_and_pays_partial_hour() {
        let cat = InstanceCatalog::paper_2014();
        let small = cat.by_name("m1.small").unwrap();
        let id_a = CircleGroupId::new(small, AvailabilityZone::UsEast1a);
        let id_b = CircleGroupId::new(small, AvailabilityZone::UsEast1b);
        let mut m = SpotMarket::new(cat);
        m.insert(id_a, SpotTrace::new(1.0, vec![0.1; 24]));
        m.insert(id_b, SpotTrace::new(1.0, vec![0.05; 24]));
        let plan = Plan {
            groups: vec![
                (
                    group(id_a, 2.5),
                    GroupDecision {
                        bid: 0.2,
                        ckpt_interval: 2.5,
                    },
                ),
                (
                    group(id_b, 8.0),
                    GroupDecision {
                        bid: 0.2,
                        ckpt_interval: 8.0,
                    },
                ),
            ],
            on_demand: od(),
        };
        let out = run(&m, 10.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::Spot(id_a));
        assert!((out.wall_hours - 2.5).abs() < 1e-9);
        // Both groups user-terminated at 2.5 → 3 hours charged each.
        let expect = 0.1 * 3.0 * 2.0 + 0.05 * 3.0 * 2.0;
        assert!((out.spot_cost - expect).abs() < 1e-9, "{}", out.spot_cost);
    }

    #[test]
    fn pure_od_plan_runs_on_demand_from_scratch() {
        let (m, _) = tiny_market(&[0.1; 6]);
        let plan = Plan {
            groups: vec![],
            on_demand: od(),
        };
        let out = run(&m, 10.0, &plan, 0.0);
        assert_eq!(out.finisher, Finisher::OnDemand);
        // Full rerun, no recovery (nothing to restore), 4 h × $2.
        assert!((out.od_cost - 8.0).abs() < 1e-9, "od {}", out.od_cost);
        assert!((out.wall_hours - 4.0).abs() < 1e-9);
    }

    #[test]
    fn deadline_flag_reflects_wall_clock() {
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 3.0,
                },
            )],
            on_demand: od(),
        };
        assert!(run(&m, 3.5, &plan, 0.0).met_deadline);
        assert!(!run(&m, 2.5, &plan, 0.0).met_deadline);
    }

    #[test]
    fn window_cutoff_reports_intermediate_state() {
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 6.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let w = PlanRunner::new(&m, 100.0)
            .run_window(&plan, 0.0, 1.0, Some(2.0), false, &ExecContext::new())
            .unwrap();
        assert!(w.completed_by.is_none());
        assert_eq!(w.groups_failed, 0);
        // Two checkpoints at zero overhead → 2/6 saved.
        assert!((w.saved_fraction - 2.0 / 6.0).abs() < 1e-9);
        assert!((w.elapsed - 2.0).abs() < 1e-9);
        // User termination at window end: 2 whole hours charged.
        assert!((w.spot_cost - 0.1 * 2.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn residual_fraction_scales_execution() {
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 6.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 6.0,
                },
            )],
            on_demand: od(),
        };
        // Half the app: 3 hours.
        let w = PlanRunner::new(&m, 100.0)
            .run_window(&plan, 0.0, 0.5, None, false, &ExecContext::new())
            .unwrap();
        assert_eq!(w.completed_by, Some(id));
        assert!((w.elapsed - 3.0).abs() < 1e-9);
        assert!((w.saved_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        let (m, id) = tiny_market(&[0.1; 6]);
        let plan = Plan {
            groups: vec![(
                group(id, 2.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: od(),
        };
        let r = PlanRunner::new(&m, 10.0);
        assert!(matches!(
            r.run_window(&plan, 0.0, 0.0, None, false, &ExecContext::new()),
            Err(SompiError::InvalidFraction { .. })
        ));
        // A plan group the market has never heard of.
        let ghost = CircleGroupId::new(
            m.catalog().by_name("m1.small").unwrap(),
            AvailabilityZone::UsEast1c,
        );
        let bad = Plan {
            groups: vec![(
                group(ghost, 2.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 2.0,
                },
            )],
            on_demand: od(),
        };
        assert!(matches!(
            r.run(&bad, 0.0, &ExecContext::new()),
            Err(SompiError::UnknownGroup { .. })
        ));
    }

    #[test]
    fn quiet_injector_is_bit_identical_to_no_injector() {
        let (m, id) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let inj = FaultInjector::new(FaultPlan::quiet(), 100.0);
        let r = PlanRunner::new(&m, 10.0);
        let plain = r.run(&plan, 0.0, &ExecContext::new()).unwrap();
        let faulted = r
            .run(&plan, 0.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn storm_kills_group_the_price_trace_would_spare() {
        // Calm trace: without faults the 3-hour job completes on spot.
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        // A dense storm stream with certain membership: the first storm
        // after launch kills the group.
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 17,
                storm_rate_per_hour: 1.0,
                storm_group_prob: 1.0,
                ..FaultPlan::quiet()
            },
            24.0,
        );
        let first_storm = inj.storms()[0].at_hours;
        let out = PlanRunner::new(&m, 10.0)
            .run(&plan, 0.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        assert_eq!(out.finisher, Finisher::OnDemand, "storm must kill spot");
        assert_eq!(out.groups_failed, 1);
        // The group died exactly at the first storm; with zero-overhead
        // hourly checkpoints it banked floor(first_storm) of 3 hours.
        let banked = (first_storm.floor().min(3.0) / 3.0_f64).min(1.0);
        let remaining = 1.0 - banked;
        let od_hours = 4.0 * remaining + 0.5;
        assert!(
            (out.wall_hours - (first_storm + od_hours)).abs() < 1e-9,
            "wall {} vs storm {first_storm}",
            out.wall_hours
        );
    }

    #[test]
    fn exhausted_ckpt_retries_degrade_to_no_checkpoint() {
        // Certain upload failure: every checkpoint attempt fails, so the
        // group degrades and banks nothing — but still completes (the
        // kill never comes) and still wins the window.
        let (m, id) = tiny_market(&[0.1; 24]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 3,
                ckpt_fail_prob: 1.0,
                ..FaultPlan::quiet()
            },
            24.0,
        );
        let out = PlanRunner::new(&m, 10.0)
            .run(&plan, 0.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        // Zero checkpoint overhead: completion time unchanged.
        assert_eq!(out.finisher, Finisher::Spot(id));
        assert!((out.wall_hours - 3.0).abs() < 1e-9);

        // Same faults, but the price kills the group at hour 2: nothing
        // was banked, so on-demand reruns the whole job.
        let (m2, id2) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let plan2 = Plan {
            groups: vec![(
                group(id2, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let out2 = PlanRunner::new(&m2, 10.0)
            .run(&plan2, 0.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        assert_eq!(out2.finisher, Finisher::OnDemand);
        // Full rerun: 4 h + 0.5 recovery (reprovision) = 4.5 → $10.
        assert!((out2.od_cost - 10.0).abs() < 1e-9, "od {}", out2.od_cost);
    }

    #[test]
    fn restore_corruption_falls_back_one_checkpoint() {
        // Group dies at hour 2 with 2 of 3 hourly checkpoints banked.
        let (m, id) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
        let plan = Plan {
            groups: vec![(
                group(id, 3.0),
                GroupDecision {
                    bid: 0.2,
                    ckpt_interval: 1.0,
                },
            )],
            on_demand: od(),
        };
        let inj = FaultInjector::new(
            FaultPlan {
                seed: 1,
                restore_corrupt_prob: 1.0,
                ..FaultPlan::quiet()
            },
            24.0,
        );
        let r = PlanRunner::new(&m, 10.0);
        let clean = r.run(&plan, 0.0, &ExecContext::new()).unwrap();
        let corrupt = r
            .run(&plan, 0.0, &ExecContext::new().with_faults(&inj))
            .unwrap();
        // Clean: 2/3 saved → OD 4/3 h + 0.5 = 1.83 → $4.
        // Corrupt: falls back to 1/3 saved → OD 8/3 h + 0.5 = 3.17 → $8.
        assert!((clean.od_cost - 4.0).abs() < 1e-9);
        assert!(
            (corrupt.od_cost - 8.0).abs() < 1e-9,
            "od {}",
            corrupt.od_cost
        );
        assert!(corrupt.total_cost > clean.total_cost);
    }
}
