//! Typed trace events and the verbosity levels that gate them.
//!
//! Every observable moment in the SOMPI pipeline — plan search, adaptive
//! re-planning, replayed failures, checkpoints, fallbacks — is one
//! [`Event`] variant. The full schema (fields, units, emission sites) is
//! documented in `docs/OBSERVABILITY.md`; the serialized form is serde's
//! external enum representation, one JSON object per line in a `.jsonl`
//! trace.

use serde::{Deserialize, Serialize};

/// Trace verbosity. Levels are totally ordered: `Off < Summary < Detail`.
///
/// A [`Recorder`](crate::Recorder) advertises the maximum level it wants;
/// emission sites tag each event with the level it belongs to and skip
/// construction entirely when the recorder's level is below it.
///
/// ```
/// use sompi_obs::TraceLevel;
///
/// assert!(TraceLevel::Off < TraceLevel::Summary);
/// assert!(TraceLevel::Summary < TraceLevel::Detail);
/// assert_eq!("detail".parse::<TraceLevel>(), Ok(TraceLevel::Detail));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the [`NullRecorder`](crate::NullRecorder) level).
    Off,
    /// Decision-level events: searches, selections, replans, fallbacks,
    /// failures, completions.
    Summary,
    /// Everything, including the search's subset statistics and
    /// checkpoint ticks.
    Detail,
}

impl std::str::FromStr for TraceLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "summary" => Ok(TraceLevel::Summary),
            "detail" => Ok(TraceLevel::Detail),
            other => Err(format!(
                "unknown trace level `{other}` (expected off|summary|detail)"
            )),
        }
    }
}

/// One structured observation from the SOMPI pipeline.
///
/// Variants serialize in serde's external enum representation — a
/// single-key JSON object `{"VariantName": {fields...}}` — which is the
/// JSONL wire format consumed by `sompi trace summarize` and documented in
/// `docs/OBSERVABILITY.md`.
///
/// All `*_hours` fields are hours on the market-trace clock (the same
/// clock as spot-price history offsets); `*_secs` fields are wall-clock
/// seconds of optimizer work on the host running the search.
///
/// ```
/// use sompi_obs::Event;
///
/// let e = Event::GroupFailed {
///     group: "g0".to_string(),
///     at_hours: 5.0,
///     saved_fraction: 0.25,
/// };
/// let line = serde_json::to_string(&e).unwrap();
/// assert!(line.starts_with("{\"GroupFailed\":"));
/// let back: Event = serde_json::from_str(&line).unwrap();
/// assert_eq!(back.kind(), "GroupFailed");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The two-level optimizer is about to enumerate κ-subsets.
    /// Emitted once per recorded `optimize_with` call, after per-group bid/φ
    /// options are assessed but before any subset is evaluated.
    PlanSearchStarted {
        /// Number of circle groups the market offers (K).
        candidates: u32,
        /// κ cap on replication degree (subsets of size 1..=κ).
        kappa: u32,
        /// Bid grid resolution per group.
        bid_levels: u32,
        /// Total number of subsets that will be enumerated: Σ C(K, k).
        subsets: u64,
        /// Per-group (bid, φ) options assessed across all groups.
        options_considered: u64,
        /// Options discarded because their completion wall time exceeds
        /// the deadline (the Theorem-1 prune).
        options_pruned: u64,
        /// Job deadline in hours.
        deadline_hours: f64,
        /// Deadline-surviving options removed by the exact bid-collapse
        /// dominance filter (DESIGN.md §8.1). Defaults to 0 for traces
        /// written before the pruning layer existed.
        #[serde(default)]
        options_dominated: u64,
        /// (group, bid) grid points that got their own bid profile: one
        /// history sweep each. Defaults to 0 for traces written before
        /// single-sweep assessment.
        #[serde(default)]
        profiles_swept: u64,
        /// (group, bid) grid points served from the next higher grid bid
        /// that admits the same price samples, without a sweep.
        /// `profiles_swept + profiles_shared` is the number of grid points
        /// assessed. Defaults to 0 for older traces.
        #[serde(default)]
        profiles_shared: u64,
        /// Candidate groups assessed from admission counts alone: their
        /// run time is past the deadline, so no option of theirs can meet
        /// it. Their grid bids still count in `profiles_swept` and
        /// `profiles_shared`, but none is swept. Defaults to 0 for older
        /// traces.
        #[serde(default)]
        groups_past_deadline: u64,
    },
    /// The subset search's aggregate statistics. Emitted once per
    /// recorded `optimize_with` call, after the search and before
    /// `PlanSelected`. Every field is deterministic. Detail level.
    ///
    /// Traces written while the search ran on several workers carry one
    /// event per worker and a `worker` index, which parses and is
    /// ignored.
    SubsetEvaluated {
        /// Subsets enumerated.
        subsets: u64,
        /// Bid-vector candidates evaluated.
        evaluations: u64,
        /// Candidates that met the deadline feasibility bar.
        feasible: u64,
        /// Expected cost of the search's incumbent, if it found a
        /// feasible one.
        best_cost: Option<f64>,
        /// φ checkpoint intervals (hours) of the incumbent's groups —
        /// the Theorem 1 witness for the winning candidate.
        phi_intervals: Vec<f64>,
        /// Enumerated bid-vector positions the branch-and-bound walk
        /// skipped without evaluating (already included in
        /// `evaluations`, which reports the full enumeration size).
        /// Defaults to 0 for pre-pruning traces.
        #[serde(default)]
        skipped: u64,
        /// Subsets rejected before their walk's set-up, because the sum
        /// of their slots' smallest lower bounds (or, for
        /// `subsets_prefix_rejected` of them, a prefix's) was already
        /// above the incumbent cost (counted in `subsets`; their
        /// positions are in `skipped`). Defaults to 0 for traces written
        /// before early rejection.
        #[serde(default)]
        subsets_rejected: u64,
        /// Of `subsets_rejected`, the subsets skipped in bulk because a
        /// prefix of theirs (their first members, plus the smallest bounds
        /// any completion must add) was already above the incumbent cost.
        /// Defaults to 0 for older traces.
        #[serde(default)]
        subsets_prefix_rejected: u64,
        /// Rank positions the branch-and-bound walk visited, each one a
        /// per-slot lower-bound sum. Defaults to 0 for older traces.
        #[serde(default)]
        rank_steps: u64,
        /// Combinations that passed the per-slot sum and reached the
        /// whole-candidate floor; those the floor rejected are
        /// `floor_checks − (evaluations − skipped)`. Defaults to 0 for
        /// older traces.
        #[serde(default)]
        floor_checks: u64,
        /// Of the floor's rejections, those decided by its spot part
        /// alone, before the on-demand share was computed. Defaults to 0
        /// for older traces.
        #[serde(default)]
        floor_spot_rejections: u64,
    },
    /// The optimizer committed to a plan.
    /// Emitted once per recorded `optimize_with` call, after the merge.
    PlanSelected {
        /// `"spot"` when a hybrid spot plan won, `"on-demand"` when the
        /// pure on-demand baseline was cheaper (or nothing was feasible).
        source: String,
        /// Number of circle groups in the winning plan (0 for pure
        /// on-demand).
        groups: u32,
        /// Expected monetary cost of the plan (USD).
        expected_cost: f64,
        /// Expected completion time (hours).
        expected_time: f64,
        /// Probability that every spot group fails before completion.
        p_all_fail: f64,
        /// Slack factor the on-demand fallback budget was scaled by
        /// (Formulas 12–13 decoupling knob).
        slack: f64,
        /// Candidate evaluations, the on-demand incumbent included.
        evaluations: u64,
        /// Wall seconds spent precomputing per-group assessments.
        assess_secs: f64,
        /// Wall seconds spent in the subset search.
        search_secs: f64,
        /// Positions skipped by branch-and-bound (a subset of
        /// `evaluations`). Defaults to 0 for pre-pruning traces.
        #[serde(default)]
        evals_skipped: u64,
        /// Times a feasible candidate lowered the incumbent cost bound.
        /// Defaults to 0 for pre-pruning traces.
        #[serde(default)]
        bound_tightenings: u64,
        /// Evaluated candidates per wall second of subset search
        /// (`(evaluations − evals_skipped) / search_secs`: skipped
        /// positions were never evaluated; 0 when the search was
        /// instantaneous). Defaults to 0 for pre-kernel traces.
        #[serde(default)]
        evals_per_sec: f64,
        /// Wall nanoseconds spent inside the Formula 2–11 evaluation
        /// kernel, timed per enumerated subset (not per candidate, to keep
        /// the probe out of the innermost loop). Only subsets that reach the branch-and-bound walk are timed;
        /// subsets rejected before it (`SubsetEvaluated.subsets_rejected`)
        /// are not. Defaults to 0 for pre-kernel traces.
        #[serde(default)]
        kernel_nanos: u64,
    },
    /// The retired warm-start layer's per-window summary: whether the
    /// previous window's plan seeded the incumbent bound, how many
    /// carried subsets led the enumeration order, and the bucket-table
    /// cache totals. No longer emitted — every search runs cold — but
    /// kept so traces that carry it still parse.
    WarmStartApplied {
        /// True when the previous plan projected onto the current option
        /// grids to a feasible candidate whose cost seeded the incumbent
        /// bound.
        seeded: bool,
        /// The seed cost (USD) when `seeded`.
        seed_cost: Option<f64>,
        /// Previous-window subsets applied to the front of this window's
        /// enumeration order.
        hot_subsets: u32,
        /// Per-`(group, bid)` failure-table entries served entirely from
        /// the warm cache this window.
        tables_reused: u64,
        /// Entries computed fresh (new bid, horizon growth, or a history
        /// digest invalidation).
        tables_rebuilt: u64,
    },
    /// The adaptive loop (Algorithm 1) crossed a window boundary.
    /// Emitted by `AdaptivePlanner::plan_window` on a real
    /// re-plan and by `AdaptiveRunner` when the previous plan is reused.
    WindowReplanned {
        /// 0-based index of the window being planned.
        window: u32,
        /// Hours elapsed since the run started.
        elapsed_hours: f64,
        /// Fraction of total work still outstanding (0..=1).
        remaining_fraction: f64,
        /// True when the previous window's plan was carried over without
        /// a fresh search.
        reused: bool,
        /// `"hybrid"` or `"finish-on-demand"`.
        decision: String,
        /// Spot circle groups in the window's plan.
        groups: u32,
    },
    /// A replayed spot group launched: the price fell to or below its bid
    /// and its instances came up. Detail level; emitted once per group
    /// that launches in a replay window, never for a group carried over
    /// already running, and not for a group the winner stopped before it
    /// launched.
    GroupLaunched {
        /// Circle-group id.
        group: String,
        /// Market-trace hour the group launched.
        at_hours: f64,
    },
    /// A replayed spot group was terminated by the provider (price rose
    /// above its bid) before the work completed.
    GroupFailed {
        /// Circle-group id, e.g. `"g2"`.
        group: String,
        /// Market-trace hour at which the group died.
        at_hours: f64,
        /// Fraction of the group's work preserved in checkpoints at death.
        saved_fraction: f64,
    },
    /// A replayed group banked checkpoint progress. Detail level; one
    /// cumulative event per group per replay segment, not one per tick.
    CheckpointTaken {
        /// Circle-group id.
        group: String,
        /// Market-trace hour of the last completed checkpoint.
        at_hours: f64,
        /// Completed checkpoints in this segment.
        count: u32,
        /// Cumulative fraction of work saved after the last checkpoint.
        saved_fraction: f64,
    },
    /// Replay abandoned spot and bought on-demand capacity to finish.
    OnDemandFallback {
        /// Market-trace hour at which the fallback began.
        at_hours: f64,
        /// Fraction of work still outstanding at fallback time.
        remaining_fraction: f64,
        /// On-demand hours purchased.
        od_hours: f64,
        /// On-demand cost (USD).
        od_cost: f64,
        /// Why: `"all-groups-failed"` (the provider killed every spot
        /// group), `"deadline-cutoff"` (spot did not finish by the deadline
        /// and some group was stopped at it or never launched),
        /// `"deadline-guard"`, `"replan"`, or `"trace-horizon"`.
        reason: String,
    },
    /// The fault injector fired: an adversity beyond what the price trace
    /// implies was imposed on the run. Emitted by the replay executors at
    /// the moment the fault takes effect.
    FaultInjected {
        /// Fault class: `"spot-kill-storm"`, `"ckpt-upload-failure"`,
        /// `"ckpt-latency-spike"`, `"restore-corruption"`, or
        /// `"feed-gap"`.
        class: String,
        /// Circle-group id the fault hit, if group-scoped (`None` for
        /// feed gaps and the on-demand restore).
        group: Option<String>,
        /// Market-trace hour at which the fault took effect.
        at_hours: f64,
        /// Class-specific context: added latency hours for a spike,
        /// window index for a feed gap, checkpoint ordinal for an upload
        /// failure, fraction lost for a restore corruption.
        detail: f64,
    },
    /// An executor retried a faulted operation under its `RetryPolicy`.
    /// One event per retry decision, including the final give-up.
    RetryAttempted {
        /// Operation: `"ckpt-upload"`.
        op: String,
        /// Circle-group id the retry concerns.
        group: String,
        /// Market-trace hour of the decision.
        at_hours: f64,
        /// 1-based attempt number that just failed.
        attempt: u32,
        /// Deterministic backoff applied before the next attempt, hours
        /// (0 when giving up).
        backoff_hours: f64,
        /// True when the policy is exhausted and the executor degrades
        /// instead of retrying again.
        gave_up: bool,
    },
    /// An executor or the adaptive planner entered a documented degraded
    /// mode instead of failing.
    DegradedMode {
        /// Mode: `"no-checkpoint"` (group lost checkpoint storage and
        /// continues bare), `"previous-checkpoint"` (restore fell back
        /// one checkpoint), `"stale-market-view"` (planner reused the
        /// last valid view), or `"stale-plan"` (planner reused its last
        /// plan on a market-feed gap).
        mode: String,
        /// Circle-group id, if group-scoped.
        group: Option<String>,
        /// Market-trace hour the degradation began.
        at_hours: f64,
        /// What forced it, e.g. `"ckpt-upload-retries-exhausted"` or
        /// `"feed-gap"`.
        reason: String,
    },
    /// The planner service accepted a request for processing. Emitted by
    /// `sompi-server` after the request frame is read and parsed,
    /// before the request enters the worker queue.
    RequestReceived {
        /// Server-assigned request id (monotonic per server process).
        id: u64,
        /// Caller-supplied tenant label (`"anon"` when absent).
        tenant: String,
        /// Request kind: `"plan"`, `"replay"`, or `"ping"`.
        kind: String,
    },
    /// The planner service finished a request and wrote the response.
    RequestCompleted {
        /// Server-assigned request id.
        id: u64,
        /// Caller-supplied tenant label.
        tenant: String,
        /// Request kind: `"plan"`, `"replay"`, or `"ping"`.
        kind: String,
        /// False when the response is a typed error.
        ok: bool,
        /// How the cross-tenant plan cache answered: `"miss"` (a real
        /// search ran), `"hit"` (served from a completed entry),
        /// `"coalesced"` (waited on an identical in-flight search), or
        /// `"none"` (the request kind is not cacheable).
        cache: String,
        /// Wall seconds the request waited in the admission queue.
        queue_secs: f64,
        /// Wall seconds spent servicing the request (search/replay +
        /// response serialization).
        service_secs: f64,
    },
    /// The planner service rejected a request at admission because the
    /// worker queue was full (load shedding). The connection receives a
    /// typed `Overloaded` response instead of queueing unboundedly.
    RequestShed {
        /// Server-assigned request id (assigned at accept time; the
        /// request body is never parsed on this path, so no tenant/kind).
        id: u64,
        /// Requests waiting in the queue at the shedding decision.
        queue_depth: u32,
        /// The queue's configured capacity.
        capacity: u32,
    },
    /// The cross-tenant plan cache answered a request without a fresh
    /// search: either from a completed entry, or by waiting for an
    /// identical in-flight search to finish (single-flight coalescing).
    CacheHit {
        /// Stable 64-bit digest of the request (its parameters, tenant and
        /// thread count excluded); identical requests share it.
        key: u64,
        /// Request kind served from cache (currently always `"plan"`).
        kind: String,
        /// True when this hit waited on an in-flight search rather than
        /// reading a completed entry.
        coalesced: bool,
    },
    /// A replayed run finished (success or not).
    RunCompleted {
        /// `"spot:<group-id>"` when a spot group finished the job,
        /// `"on-demand"` otherwise.
        finisher: String,
        /// Total money spent (USD).
        total_cost: f64,
        /// Spot portion of the cost (USD).
        spot_cost: f64,
        /// On-demand portion of the cost (USD).
        od_cost: f64,
        /// Wall hours from start to completion.
        wall_hours: f64,
        /// Whether completion beat the deadline.
        met_deadline: bool,
        /// Spot groups the provider killed during the run.
        groups_failed: u32,
        /// Windows executed (adaptive runs only).
        windows: Option<u32>,
        /// Times the adaptive loop changed plan (adaptive runs only).
        plan_changes: Option<u32>,
    },
    /// Monte-Carlo replay built the plan's per-(group, bid) death-time
    /// tables before any replica ran. Emitted once per
    /// `MonteCarlo::run_plan` call that builds its own tables, on its
    /// calling thread; a tournament replay that is not a memo hit is such
    /// a call.
    ReplayBatched {
        /// Plan groups covered by batch tables.
        groups: u32,
        /// Replicas about to replay against them.
        replicas: u64,
        /// Tables built for this call.
        tables_built: u32,
    },
    /// A tournament cell reused another cell's Monte-Carlo result: its
    /// policy produced a byte-identical plan under the same
    /// (market, fault plan), so the replay was served from the
    /// plan-fingerprint memo instead of re-running.
    ReplayMemoHit {
        /// Policy display name of the cell served from the memo.
        policy: String,
        /// Market case label (e.g. `"paper-2014-s21"`).
        market: String,
        /// Fault-plan label (`"none"` or the injection spec).
        faults: String,
        /// FNV-1a digest of the plan's serialized form — cells sharing a
        /// fingerprint shared one replay.
        fingerprint: u64,
    },
    /// One tournament cell finished: a policy was planned and
    /// Monte-Carlo-executed against one market × fault-plan combination.
    PolicyEvaluated {
        /// Policy display name (e.g. `"SOMPI"`, `"No-FT"`).
        policy: String,
        /// Market case label (e.g. `"paper-2014-s21"`).
        market: String,
        /// Fault-plan label (`"none"` or the injection spec).
        faults: String,
        /// Expected cost of the policy's plan under the cost model, USD
        /// (absent when the plan cannot be evaluated under the view).
        expected_cost: Option<f64>,
        /// Mean realized cost across Monte-Carlo replicas, USD.
        mean_cost: f64,
        /// Mean realized cost normalized by the on-demand baseline cost.
        normalized_cost: f64,
        /// Fraction of replicas that missed the deadline.
        deadline_miss_rate: f64,
        /// Fraction of replicas finished by a spot group.
        spot_finish_rate: f64,
        /// Mean out-of-bid kills per replica.
        mean_failures: f64,
        /// Mean wall hours divided by the baseline (fastest on-demand)
        /// execution time.
        time_degradation: f64,
    },
}

impl Event {
    /// The variant name, as it appears as the single key on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PlanSearchStarted { .. } => "PlanSearchStarted",
            Event::SubsetEvaluated { .. } => "SubsetEvaluated",
            Event::PlanSelected { .. } => "PlanSelected",
            Event::WarmStartApplied { .. } => "WarmStartApplied",
            Event::WindowReplanned { .. } => "WindowReplanned",
            Event::GroupLaunched { .. } => "GroupLaunched",
            Event::GroupFailed { .. } => "GroupFailed",
            Event::CheckpointTaken { .. } => "CheckpointTaken",
            Event::OnDemandFallback { .. } => "OnDemandFallback",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::RetryAttempted { .. } => "RetryAttempted",
            Event::DegradedMode { .. } => "DegradedMode",
            Event::RequestReceived { .. } => "RequestReceived",
            Event::RequestCompleted { .. } => "RequestCompleted",
            Event::RequestShed { .. } => "RequestShed",
            Event::CacheHit { .. } => "CacheHit",
            Event::RunCompleted { .. } => "RunCompleted",
            Event::ReplayBatched { .. } => "ReplayBatched",
            Event::ReplayMemoHit { .. } => "ReplayMemoHit",
            Event::PolicyEvaluated { .. } => "PolicyEvaluated",
        }
    }

    /// The verbosity level this event belongs to. High-volume events
    /// (subset statistics, launches, checkpoint ticks) are
    /// [`TraceLevel::Detail`]; everything else is [`TraceLevel::Summary`].
    pub fn level(&self) -> TraceLevel {
        match self {
            Event::SubsetEvaluated { .. }
            | Event::GroupLaunched { .. }
            | Event::CheckpointTaken { .. } => TraceLevel::Detail,
            _ => TraceLevel::Summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_orders() {
        let levels: Vec<TraceLevel> = ["off", "summary", "detail"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert!("verbose".parse::<TraceLevel>().is_err());
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            Event::PlanSearchStarted {
                candidates: 12,
                kappa: 2,
                bid_levels: 6,
                subsets: 78,
                options_considered: 72,
                options_pruned: 3,
                deadline_hours: 100.0,
                options_dominated: 9,
                profiles_swept: 10,
                profiles_shared: 2,
                groups_past_deadline: 3,
            },
            Event::SubsetEvaluated {
                subsets: 78,
                evaluations: 1200,
                feasible: 900,
                best_cost: Some(41.5),
                phi_intervals: vec![2.5, 3.0],
                skipped: 600,
                subsets_rejected: 40,
                subsets_prefix_rejected: 30,
                rank_steps: 900,
                floor_checks: 700,
                floor_spot_rejections: 90,
            },
            Event::PlanSelected {
                source: "spot".to_string(),
                groups: 2,
                expected_cost: 41.5,
                expected_time: 88.0,
                p_all_fail: 0.01,
                slack: 0.2,
                evaluations: 1200,
                assess_secs: 0.05,
                search_secs: 0.5,
                evals_skipped: 600,
                bound_tightenings: 4,
                evals_per_sec: 2400.0,
                kernel_nanos: 350_000_000,
            },
            Event::WarmStartApplied {
                seeded: true,
                seed_cost: Some(39.25),
                hot_subsets: 16,
                tables_reused: 40,
                tables_rebuilt: 8,
            },
            Event::GroupLaunched {
                group: "g1".to_string(),
                at_hours: 6.25,
            },
            Event::FaultInjected {
                class: "ckpt-upload-failure".to_string(),
                group: Some("g1".to_string()),
                at_hours: 7.5,
                detail: 2.0,
            },
            Event::RetryAttempted {
                op: "ckpt-upload".to_string(),
                group: "g1".to_string(),
                at_hours: 7.5,
                attempt: 2,
                backoff_hours: 0.1,
                gave_up: false,
            },
            Event::DegradedMode {
                mode: "no-checkpoint".to_string(),
                group: Some("g1".to_string()),
                at_hours: 8.0,
                reason: "ckpt-upload-retries-exhausted".to_string(),
            },
            Event::RequestReceived {
                id: 3,
                tenant: "team-a".to_string(),
                kind: "plan".to_string(),
            },
            Event::RequestCompleted {
                id: 3,
                tenant: "team-a".to_string(),
                kind: "plan".to_string(),
                ok: true,
                cache: "coalesced".to_string(),
                queue_secs: 0.002,
                service_secs: 0.13,
            },
            Event::RequestShed {
                id: 4,
                queue_depth: 1,
                capacity: 1,
            },
            Event::CacheHit {
                key: 0x1234_5678,
                kind: "plan".to_string(),
                coalesced: false,
            },
            Event::RunCompleted {
                finisher: "spot:g1".to_string(),
                total_cost: 40.0,
                spot_cost: 40.0,
                od_cost: 0.0,
                wall_hours: 90.0,
                met_deadline: true,
                groups_failed: 1,
                windows: None,
                plan_changes: Some(2),
            },
            Event::ReplayBatched {
                groups: 2,
                replicas: 200,
                tables_built: 2,
            },
            Event::ReplayMemoHit {
                policy: "Ckpt-Only".to_string(),
                market: "paper-2014-s21".to_string(),
                faults: "none".to_string(),
                fingerprint: 0x9e37_79b9_u64,
            },
            Event::PolicyEvaluated {
                policy: "No-FT".to_string(),
                market: "paper-2014-s21".to_string(),
                faults: "none".to_string(),
                expected_cost: Some(35.0),
                mean_cost: 38.5,
                normalized_cost: 0.62,
                deadline_miss_rate: 0.05,
                spot_finish_rate: 0.9,
                mean_failures: 0.2,
                time_degradation: 1.3,
            },
        ];
        for e in &events {
            let line = serde_json::to_string(e).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, e, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn external_tagging_is_the_wire_format() {
        let e = Event::WindowReplanned {
            window: 3,
            elapsed_hours: 45.0,
            remaining_fraction: 0.4,
            reused: false,
            decision: "hybrid".to_string(),
            groups: 2,
        };
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.starts_with("{\"WindowReplanned\":{\"window\":3,"));
        assert_eq!(e.kind(), "WindowReplanned");
        assert_eq!(e.level(), TraceLevel::Summary);
    }

    #[test]
    fn pre_pruning_traces_still_parse() {
        // Fields added by the pruning layer are `#[serde(default)]` so
        // traces written before it existed keep deserializing.
        let old = r#"{"WindowReplanned":{"window":1,"elapsed_hours":12.0,
            "remaining_fraction":0.5,"reused":true,"decision":"hybrid",
            "groups":2}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        assert_eq!(e.kind(), "WindowReplanned");
        // A field since removed (the adaptive plan cache's fingerprint
        // verdict) is ignored on lines that still carry it.
        let old = r#"{"WindowReplanned":{"window":1,"elapsed_hours":12.0,
            "remaining_fraction":0.5,"reused":true,"decision":"hybrid",
            "groups":2,"fingerprint_hit":true}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        match e {
            Event::WindowReplanned { reused, groups, .. } => assert!(reused && groups == 2),
            other => panic!("wrong variant: {other:?}"),
        }
        // So is the `worker` index of traces from the parallel search.
        let old = r#"{"SubsetEvaluated":{"worker":0,"subsets":5,
            "evaluations":10,"feasible":3,"best_cost":null,
            "phi_intervals":[]}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        match e {
            Event::SubsetEvaluated {
                skipped,
                subsets_rejected,
                subsets_prefix_rejected,
                rank_steps,
                floor_checks,
                floor_spot_rejections,
                ..
            } => assert_eq!(
                (
                    skipped,
                    subsets_rejected,
                    subsets_prefix_rejected,
                    rank_steps,
                    floor_checks,
                    floor_spot_rejections
                ),
                (0, 0, 0, 0, 0, 0)
            ),
            other => panic!("wrong variant: {other:?}"),
        }
        // So is `ReplayBatched`'s `tables_reused`, from when the market
        // cached death-time tables.
        let old = r#"{"ReplayBatched":{"groups":2,"replicas":200,
            "tables_built":0,"tables_reused":2}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        match e {
            Event::ReplayBatched {
                groups,
                replicas,
                tables_built,
            } => assert_eq!((groups, replicas, tables_built), (2, 200, 0)),
            other => panic!("wrong variant: {other:?}"),
        }
        // Kernel counters appended in the caps-memo PR likewise default.
        let old = r#"{"PlanSelected":{"source":"spot","groups":2,
            "expected_cost":41.5,"expected_time":88.0,"p_all_fail":0.01,
            "slack":0.2,"evaluations":1200,"assess_secs":0.05,
            "search_secs":0.5}}"#;
        let e: Event = serde_json::from_str(old).unwrap();
        match e {
            Event::PlanSelected {
                evals_per_sec,
                kernel_nanos,
                ..
            } => {
                assert_eq!(evals_per_sec, 0.0);
                assert_eq!(kernel_nanos, 0);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
