//! Turn a stream of [`Event`]s into a human-readable run report — the
//! engine behind `sompi trace summarize`.

use crate::event::Event;
use crate::metrics::{prune_rate, rate_per_sec};
use std::fmt;

/// Aggregated view of one trace, ready to render.
///
/// Build it from parsed events, then `Display` it (or call
/// [`RunReport::render`]):
///
/// ```
/// use sompi_obs::{Event, RunReport};
///
/// let events = vec![Event::RunCompleted {
///     finisher: "on-demand".to_string(),
///     total_cost: 12.5,
///     spot_cost: 2.5,
///     od_cost: 10.0,
///     wall_hours: 48.0,
///     met_deadline: true,
///     groups_failed: 2,
///     windows: Some(3),
///     plan_changes: Some(1),
/// }];
/// let report = RunReport::from_events(&events);
/// let text = report.render();
/// assert!(text.contains("on-demand"));
/// assert!(text.contains("12.5"));
/// ```
#[derive(Debug, Default)]
pub struct RunReport {
    /// (kind, occurrences) in first-seen order.
    pub event_counts: Vec<(&'static str, usize)>,
    /// Last `PlanSearchStarted` seen, if any.
    search: Option<SearchStats>,
    /// Every `PlanSelected`, in trace order.
    selections: Vec<Selection>,
    /// Window decisions, in trace order.
    windows: Vec<WindowLine>,
    /// Launch / failure / checkpoint / fault / fallback timeline,
    /// chronological (ties keep trace order).
    timeline: Vec<TimelineLine>,
    /// Aggregated planner-service counters (requests, cache, shedding,
    /// per-phase latency), if the trace has server events.
    server: Option<ServerStats>,
    /// Final `RunCompleted`, if the trace has one.
    outcome: Option<Outcome>,
}

/// Planner-service aggregates folded from the four server event kinds.
/// A trace containing *only* these (a pure service trace, no
/// `RunCompleted` terminator) still renders a full counters section.
#[derive(Debug, Default)]
struct ServerStats {
    received: u64,
    completed: u64,
    errors: u64,
    shed: u64,
    cache_hits: u64,
    cache_coalesced: u64,
    cache_misses: u64,
    /// (count, sum, max) of queue-wait seconds over completed requests.
    queue: (u64, f64, f64),
    /// (count, sum, max) of service seconds over completed requests.
    service: (u64, f64, f64),
    /// (kind, occurrences) of completed requests, first-seen order.
    kinds: Vec<(String, u64)>,
}

impl ServerStats {
    fn bump_kind(&mut self, kind: &str) {
        match self.kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => self.kinds.push((kind.to_string(), 1)),
        }
    }
}

/// Fold one latency observation into a (count, sum, max) accumulator.
fn observe(acc: &mut (u64, f64, f64), secs: f64) {
    acc.0 += 1;
    acc.1 += secs;
    acc.2 = acc.2.max(secs);
}

#[derive(Debug)]
struct SearchStats {
    candidates: u32,
    kappa: u32,
    bid_levels: u32,
    subsets: u64,
    options_considered: u64,
    options_pruned: u64,
    options_dominated: u64,
    profiles_swept: u64,
    profiles_shared: u64,
    groups_past_deadline: u64,
    deadline_hours: f64,
    /// Summed over `SubsetEvaluated` events (Detail traces only): one per
    /// search, or one per worker in traces of the retired parallel search.
    walk_evaluations: u64,
    walk_feasible: u64,
    walk_skipped: u64,
    walk_rejected: u64,
    walk_prefix_rejected: u64,
    walk_rank_steps: u64,
    walk_floor_checks: u64,
    walk_spot_rejections: u64,
    walk_events: usize,
}

#[derive(Debug)]
struct Selection {
    source: String,
    groups: u32,
    expected_cost: f64,
    expected_time: f64,
    p_all_fail: f64,
    slack: f64,
    evaluations: u64,
    assess_secs: f64,
    search_secs: f64,
    evals_skipped: u64,
    bound_tightenings: u64,
    evals_per_sec: f64,
    kernel_nanos: u64,
}

#[derive(Debug)]
struct WindowLine {
    window: u32,
    elapsed_hours: f64,
    remaining_fraction: f64,
    reused: bool,
    decision: String,
    groups: u32,
}

#[derive(Debug)]
struct TimelineLine {
    at_hours: f64,
    text: String,
}

#[derive(Debug)]
struct Outcome {
    finisher: String,
    total_cost: f64,
    spot_cost: f64,
    od_cost: f64,
    wall_hours: f64,
    met_deadline: bool,
    groups_failed: u32,
    windows: Option<u32>,
    plan_changes: Option<u32>,
}

impl RunReport {
    /// Fold a trace into a report. Events arrive in emission order, which
    /// the report keeps for its selections and windows. The timeline is
    /// stable-sorted by `at_hours`: a replay settles one group at a time,
    /// so a multi-group run emits each group's lifecycle in turn.
    pub fn from_events(events: &[Event]) -> Self {
        let mut report = RunReport::default();
        for event in events {
            report.bump(event.kind());
            match event {
                Event::PlanSearchStarted {
                    candidates,
                    kappa,
                    bid_levels,
                    subsets,
                    options_considered,
                    options_pruned,
                    deadline_hours,
                    options_dominated,
                    profiles_swept,
                    profiles_shared,
                    groups_past_deadline,
                } => {
                    report.search = Some(SearchStats {
                        candidates: *candidates,
                        kappa: *kappa,
                        bid_levels: *bid_levels,
                        subsets: *subsets,
                        options_considered: *options_considered,
                        options_pruned: *options_pruned,
                        options_dominated: *options_dominated,
                        profiles_swept: *profiles_swept,
                        profiles_shared: *profiles_shared,
                        groups_past_deadline: *groups_past_deadline,
                        deadline_hours: *deadline_hours,
                        walk_evaluations: 0,
                        walk_feasible: 0,
                        walk_skipped: 0,
                        walk_rejected: 0,
                        walk_prefix_rejected: 0,
                        walk_rank_steps: 0,
                        walk_floor_checks: 0,
                        walk_spot_rejections: 0,
                        walk_events: 0,
                    });
                }
                Event::SubsetEvaluated {
                    evaluations,
                    feasible,
                    skipped,
                    subsets_rejected,
                    subsets_prefix_rejected,
                    rank_steps,
                    floor_checks,
                    floor_spot_rejections,
                    ..
                } => {
                    if let Some(s) = report.search.as_mut() {
                        s.walk_evaluations += evaluations;
                        s.walk_feasible += feasible;
                        s.walk_skipped += skipped;
                        s.walk_rejected += subsets_rejected;
                        s.walk_prefix_rejected += subsets_prefix_rejected;
                        s.walk_rank_steps += rank_steps;
                        s.walk_floor_checks += floor_checks;
                        s.walk_spot_rejections += floor_spot_rejections;
                        s.walk_events += 1;
                    }
                }
                Event::PlanSelected {
                    source,
                    groups,
                    expected_cost,
                    expected_time,
                    p_all_fail,
                    slack,
                    evaluations,
                    assess_secs,
                    search_secs,
                    evals_skipped,
                    bound_tightenings,
                    evals_per_sec,
                    kernel_nanos,
                } => report.selections.push(Selection {
                    source: source.clone(),
                    groups: *groups,
                    expected_cost: *expected_cost,
                    expected_time: *expected_time,
                    p_all_fail: *p_all_fail,
                    slack: *slack,
                    evaluations: *evaluations,
                    assess_secs: *assess_secs,
                    search_secs: *search_secs,
                    evals_skipped: *evals_skipped,
                    bound_tightenings: *bound_tightenings,
                    evals_per_sec: *evals_per_sec,
                    kernel_nanos: *kernel_nanos,
                }),
                // Retired: only traces recorded before every search ran
                // cold carry it, and the summary only counts it.
                Event::WarmStartApplied { .. } => {}
                Event::WindowReplanned {
                    window,
                    elapsed_hours,
                    remaining_fraction,
                    reused,
                    decision,
                    groups,
                } => report.windows.push(WindowLine {
                    window: *window,
                    elapsed_hours: *elapsed_hours,
                    remaining_fraction: *remaining_fraction,
                    reused: *reused,
                    decision: decision.clone(),
                    groups: *groups,
                }),
                Event::GroupLaunched { group, at_hours } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: format!("group {group} launched"),
                }),
                Event::GroupFailed {
                    group,
                    at_hours,
                    saved_fraction,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: format!(
                        "group {group} killed by provider ({:.0}% of work saved)",
                        saved_fraction * 100.0
                    ),
                }),
                Event::CheckpointTaken {
                    group,
                    at_hours,
                    count,
                    saved_fraction,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: format!(
                        "group {group} banked {count} checkpoint(s) ({:.0}% of work saved)",
                        saved_fraction * 100.0
                    ),
                }),
                Event::OnDemandFallback {
                    at_hours,
                    remaining_fraction,
                    od_hours,
                    od_cost,
                    reason,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: format!(
                        "on-demand fallback ({reason}): {:.0}% of work left, \
                         {od_hours:.2} h on-demand for ${od_cost:.2}",
                        remaining_fraction * 100.0
                    ),
                }),
                Event::FaultInjected {
                    class,
                    group,
                    at_hours,
                    detail,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: match group {
                        Some(g) => format!("fault injected: {class} on group {g} ({detail:.3})"),
                        None => format!("fault injected: {class} ({detail:.3})"),
                    },
                }),
                Event::RetryAttempted {
                    op,
                    group,
                    at_hours,
                    attempt,
                    backoff_hours,
                    gave_up,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: if *gave_up {
                        format!("{op} retries exhausted for group {group} after attempt {attempt}")
                    } else {
                        format!(
                            "{op} attempt {attempt} failed for group {group}; \
                             retrying in {backoff_hours:.3} h"
                        )
                    },
                }),
                Event::DegradedMode {
                    mode,
                    group,
                    at_hours,
                    reason,
                } => report.timeline.push(TimelineLine {
                    at_hours: *at_hours,
                    text: match group {
                        Some(g) => format!("degraded mode {mode} for group {g} ({reason})"),
                        None => format!("degraded mode {mode} ({reason})"),
                    },
                }),
                Event::RequestReceived { .. } => {
                    report.server_mut().received += 1;
                }
                Event::RequestCompleted {
                    kind,
                    ok,
                    cache,
                    queue_secs,
                    service_secs,
                    ..
                } => {
                    let s = report.server_mut();
                    s.completed += 1;
                    if !ok {
                        s.errors += 1;
                    }
                    if cache == "miss" {
                        s.cache_misses += 1;
                    }
                    observe(&mut s.queue, *queue_secs);
                    observe(&mut s.service, *service_secs);
                    s.bump_kind(kind);
                }
                Event::RequestShed { .. } => {
                    report.server_mut().shed += 1;
                }
                Event::CacheHit { coalesced, .. } => {
                    let s = report.server_mut();
                    if *coalesced {
                        s.cache_coalesced += 1;
                    } else {
                        s.cache_hits += 1;
                    }
                }
                Event::RunCompleted {
                    finisher,
                    total_cost,
                    spot_cost,
                    od_cost,
                    wall_hours,
                    met_deadline,
                    groups_failed,
                    windows,
                    plan_changes,
                } => {
                    report.outcome = Some(Outcome {
                        finisher: finisher.clone(),
                        total_cost: *total_cost,
                        spot_cost: *spot_cost,
                        od_cost: *od_cost,
                        wall_hours: *wall_hours,
                        met_deadline: *met_deadline,
                        groups_failed: *groups_failed,
                        windows: *windows,
                        plan_changes: *plan_changes,
                    });
                }
                // Tournament cells are their own report (the rendered
                // table); the trace summary only counts them — likewise
                // the batched-replay and replay-memo accounting events,
                // whose totals live in the tournament report.
                Event::PolicyEvaluated { .. }
                | Event::ReplayBatched { .. }
                | Event::ReplayMemoHit { .. } => {}
            }
        }
        report
            .timeline
            .sort_by(|a, b| a.at_hours.total_cmp(&b.at_hours));
        report
    }

    /// Render the report as plain text (same output as `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }

    fn server_mut(&mut self) -> &mut ServerStats {
        self.server.get_or_insert_with(ServerStats::default)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SOMPI run report")?;
        writeln!(f, "================")?;
        let total: usize = self.event_counts.iter().map(|(_, n)| n).sum();
        write!(f, "events: {total}")?;
        for (kind, n) in &self.event_counts {
            write!(f, "  {kind}={n}")?;
        }
        writeln!(f)?;

        if let Some(s) = &self.search {
            writeln!(f, "\nplan search")?;
            writeln!(f, "-----------")?;
            writeln!(
                f,
                "  {} circle groups, kappa={}, {} bid levels, deadline {:.1} h",
                s.candidates, s.kappa, s.bid_levels, s.deadline_hours
            )?;
            writeln!(
                f,
                "  {} subsets enumerated; {} per-group options considered, {} pruned ({:.1}% prune rate)",
                s.subsets,
                s.options_considered,
                s.options_pruned,
                prune_rate(s.options_pruned, s.options_considered) * 100.0
            )?;
            if s.options_dominated > 0 {
                writeln!(
                    f,
                    "  {} options removed by bid-collapse dominance",
                    s.options_dominated
                )?;
            }
            if s.profiles_swept + s.profiles_shared > 0 {
                writeln!(
                    f,
                    "  {} bid profiles swept, {} grid bids shared with an equal-admission higher bid",
                    s.profiles_swept, s.profiles_shared
                )?;
            }
            if s.groups_past_deadline > 0 {
                writeln!(
                    f,
                    "  {} groups past the deadline assessed from admission counts alone (no bid swept)",
                    s.groups_past_deadline
                )?;
            }
            if s.walk_events > 0 {
                writeln!(
                    f,
                    "  subset walk: {} evaluations ({} feasible)",
                    s.walk_evaluations, s.walk_feasible
                )?;
                if s.walk_skipped > 0 {
                    writeln!(
                        f,
                        "  branch-and-bound skipped {} of those positions ({:.1}%)",
                        s.walk_skipped,
                        prune_rate(s.walk_skipped, s.walk_evaluations) * 100.0
                    )?;
                }
                if s.walk_rejected > 0 {
                    writeln!(
                        f,
                        "  {} subsets rejected before set-up by their smallest bounds ({} in bulk by a hopeless prefix)",
                        s.walk_rejected, s.walk_prefix_rejected
                    )?;
                }
                if s.walk_rank_steps > 0 {
                    // Floor rejections: checks that did not end in an
                    // evaluation.
                    let evaluated = s.walk_evaluations.saturating_sub(s.walk_skipped);
                    writeln!(
                        f,
                        "  walk: {} rank steps, {} floor checks ({} rejected, {} by the spot part alone)",
                        s.walk_rank_steps,
                        s.walk_floor_checks,
                        s.walk_floor_checks.saturating_sub(evaluated),
                        s.walk_spot_rejections
                    )?;
                }
            }
        }

        for sel in &self.selections {
            writeln!(f, "\nplan selected ({})", sel.source)?;
            writeln!(f, "-------------")?;
            writeln!(
                f,
                "  {} group(s), expected ${:.2} over {:.1} h (P[all fail]={:.4}, slack={:.2})",
                sel.groups, sel.expected_cost, sel.expected_time, sel.p_all_fail, sel.slack
            )?;
            writeln!(
                f,
                "  {} evaluations in {:.3} s search + {:.3} s assess ({:.0} eval/s)",
                sel.evaluations,
                sel.search_secs,
                sel.assess_secs,
                rate_per_sec(sel.evaluations, sel.search_secs)
            )?;
            if sel.evals_skipped > 0 {
                writeln!(
                    f,
                    "  {} positions pruned by the incumbent bound ({} tightening(s))",
                    sel.evals_skipped, sel.bound_tightenings
                )?;
            }
        }

        let kernel_timed = self.selections.iter().any(|s| s.kernel_nanos > 0);
        if kernel_timed {
            writeln!(f, "\nkernel")?;
            writeln!(f, "------")?;
            for (i, sel) in self.selections.iter().enumerate() {
                if sel.kernel_nanos == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  search {:>2}: {:.0} eval/s, {:.3} s inside the evaluation kernel \
                     ({:.1}% of search wall)",
                    i + 1,
                    sel.evals_per_sec,
                    sel.kernel_nanos as f64 * 1e-9,
                    if sel.search_secs > 0.0 {
                        100.0 * sel.kernel_nanos as f64 * 1e-9 / sel.search_secs
                    } else {
                        0.0
                    }
                )?;
            }
        }

        if !self.windows.is_empty() {
            writeln!(f, "\nadaptive windows")?;
            writeln!(f, "----------------")?;
            for w in &self.windows {
                writeln!(
                    f,
                    "  window {:>2} @ {:>7.2} h: {:>5.1}% left, {} ({} group(s)){}",
                    w.window,
                    w.elapsed_hours,
                    w.remaining_fraction * 100.0,
                    w.decision,
                    w.groups,
                    if w.reused { " [plan reused]" } else { "" }
                )?;
            }
        }

        if let Some(s) = &self.server {
            writeln!(f, "\nserver requests")?;
            writeln!(f, "---------------")?;
            write!(
                f,
                "  {} received, {} completed ({} error(s)), {} shed",
                s.received, s.completed, s.errors, s.shed
            )?;
            writeln!(f)?;
            if !s.kinds.is_empty() {
                write!(f, "  by kind:")?;
                for (kind, n) in &s.kinds {
                    write!(f, "  {kind}={n}")?;
                }
                writeln!(f)?;
            }
            writeln!(
                f,
                "  plan cache: {} hit(s), {} coalesced, {} miss(es)",
                s.cache_hits, s.cache_coalesced, s.cache_misses
            )?;
            if s.queue.0 > 0 {
                writeln!(
                    f,
                    "  latency: queue mean {:.1} ms (max {:.1}), service mean {:.1} ms (max {:.1})",
                    1e3 * s.queue.1 / s.queue.0 as f64,
                    1e3 * s.queue.2,
                    1e3 * s.service.1 / s.service.0 as f64,
                    1e3 * s.service.2,
                )?;
            }
        }

        if !self.timeline.is_empty() {
            writeln!(f, "\ntimeline")?;
            writeln!(f, "--------")?;
            for line in &self.timeline {
                writeln!(f, "  t={:>8.2} h  {}", line.at_hours, line.text)?;
            }
        }

        if let Some(o) = &self.outcome {
            writeln!(f, "\noutcome")?;
            writeln!(f, "-------")?;
            writeln!(
                f,
                "  finished by {} in {:.2} h — deadline {}",
                o.finisher,
                o.wall_hours,
                if o.met_deadline { "met" } else { "MISSED" }
            )?;
            writeln!(
                f,
                "  cost ${:.4} total = ${:.4} spot + ${:.4} on-demand; {} group(s) failed",
                o.total_cost, o.spot_cost, o.od_cost, o.groups_failed
            )?;
            if let (Some(w), Some(p)) = (o.windows, o.plan_changes) {
                writeln!(f, "  adaptive: {w} window(s), {p} plan change(s)")?;
            }
        } else if self.server.is_some() {
            // A pure service trace has no run terminator; the counters
            // above are the outcome, so no "planning only" caveat.
            writeln!(f, "\n(no RunCompleted event — service trace)")?;
        } else {
            writeln!(f, "\n(no RunCompleted event — trace covers planning only)")?;
        }
        Ok(())
    }
}

impl RunReport {
    fn bump(&mut self, kind: &'static str) {
        match self.event_counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.event_counts.push((kind, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_trace() -> Vec<Event> {
        vec![
            Event::PlanSearchStarted {
                candidates: 4,
                kappa: 2,
                bid_levels: 6,
                subsets: 10,
                options_considered: 24,
                options_pruned: 6,
                deadline_hours: 60.0,
                options_dominated: 4,
                profiles_swept: 9,
                profiles_shared: 3,
                groups_past_deadline: 2,
            },
            // Two walk events, as a trace of the retired parallel search
            // carries one per worker: the report sums them.
            Event::SubsetEvaluated {
                subsets: 5,
                evaluations: 100,
                feasible: 80,
                best_cost: Some(20.0),
                phi_intervals: vec![2.0],
                skipped: 10,
                subsets_rejected: 2,
                subsets_prefix_rejected: 1,
                rank_steps: 40,
                floor_checks: 100,
                floor_spot_rejections: 6,
            },
            Event::SubsetEvaluated {
                subsets: 5,
                evaluations: 120,
                feasible: 90,
                best_cost: Some(21.0),
                phi_intervals: vec![2.5],
                skipped: 30,
                subsets_rejected: 3,
                subsets_prefix_rejected: 2,
                rank_steps: 60,
                floor_checks: 100,
                floor_spot_rejections: 4,
            },
            Event::PlanSelected {
                source: "spot".to_string(),
                groups: 1,
                expected_cost: 20.0,
                expected_time: 50.0,
                p_all_fail: 0.01,
                slack: 1.0,
                evaluations: 220,
                assess_secs: 0.01,
                search_secs: 0.1,
                evals_skipped: 40,
                bound_tightenings: 3,
                evals_per_sec: 2200.0,
                kernel_nanos: 80_000_000,
            },
            Event::WindowReplanned {
                window: 0,
                elapsed_hours: 0.0,
                remaining_fraction: 1.0,
                reused: false,
                decision: "hybrid".to_string(),
                groups: 1,
            },
            Event::GroupFailed {
                group: "g0".to_string(),
                at_hours: 12.0,
                saved_fraction: 0.4,
            },
            Event::OnDemandFallback {
                at_hours: 12.0,
                remaining_fraction: 0.6,
                od_hours: 30.0,
                od_cost: 15.0,
                reason: "all-groups-failed".to_string(),
            },
            Event::RunCompleted {
                finisher: "on-demand".to_string(),
                total_cost: 18.0,
                spot_cost: 3.0,
                od_cost: 15.0,
                wall_hours: 42.0,
                met_deadline: true,
                groups_failed: 1,
                windows: Some(1),
                plan_changes: Some(0),
            },
        ]
    }

    #[test]
    fn report_aggregates_all_sections() {
        let report = RunReport::from_events(&full_trace());
        let text = report.render();
        assert!(text.contains("plan search"), "{text}");
        assert!(text.contains("220 evaluations"), "{text}");
        assert!(text.contains("25.0% prune rate"), "{text}");
        assert!(
            text.contains("9 bid profiles swept, 3 grid bids shared"),
            "{text}"
        );
        assert!(
            text.contains("2 groups past the deadline assessed from admission counts alone"),
            "{text}"
        );
        assert!(
            text.contains("subset walk: 220 evaluations (170 feasible)"),
            "{text}"
        );
        assert!(
            text.contains("4 options removed by bid-collapse dominance"),
            "{text}"
        );
        assert!(
            text.contains("branch-and-bound skipped 40 of those positions"),
            "{text}"
        );
        assert!(
            text.contains(
                "5 subsets rejected before set-up by their smallest bounds (3 in bulk by a hopeless prefix)"
            ),
            "{text}"
        );
        // 200 floor checks against 180 walk evaluations: 20 rejections.
        assert!(
            text.contains(
                "walk: 100 rank steps, 200 floor checks (20 rejected, 10 by the spot part alone)"
            ),
            "{text}"
        );
        assert!(
            text.contains("40 positions pruned by the incumbent bound (3 tightening(s))"),
            "{text}"
        );
        assert!(text.contains("kernel\n------"), "{text}");
        assert!(
            text.contains(
                "2200 eval/s, 0.080 s inside the evaluation kernel (80.0% of search wall)"
            ),
            "{text}"
        );
        assert!(text.contains("adaptive windows"), "{text}");
        assert!(text.contains("killed by provider"), "{text}");
        assert!(
            text.contains("on-demand fallback (all-groups-failed)"),
            "{text}"
        );
        assert!(text.contains("deadline met"), "{text}");
        assert!(text.contains("$18.0000 total"), "{text}");
        assert!(text.contains("1 window(s), 0 plan change(s)"), "{text}");
    }

    #[test]
    fn planning_only_trace_notes_missing_outcome() {
        let events = &full_trace()[..4];
        let text = RunReport::from_events(events).render();
        assert!(text.contains("planning only"), "{text}");
        assert!(!text.contains("outcome\n-------"), "{text}");
    }

    #[test]
    fn resilience_events_render_on_the_timeline() {
        let events = vec![
            Event::FaultInjected {
                class: "spot-kill-storm".to_string(),
                group: Some("g0".to_string()),
                at_hours: 3.0,
                detail: 0.0,
            },
            Event::RetryAttempted {
                op: "ckpt-upload".to_string(),
                group: "g0".to_string(),
                at_hours: 4.0,
                attempt: 3,
                backoff_hours: 0.0,
                gave_up: true,
            },
            Event::DegradedMode {
                mode: "stale-market-view".to_string(),
                group: None,
                at_hours: 5.0,
                reason: "feed-gap".to_string(),
            },
        ];
        let text = RunReport::from_events(&events).render();
        assert!(
            text.contains("fault injected: spot-kill-storm on group g0"),
            "{text}"
        );
        assert!(
            text.contains("ckpt-upload retries exhausted for group g0 after attempt 3"),
            "{text}"
        );
        assert!(
            text.contains("degraded mode stale-market-view (feed-gap)"),
            "{text}"
        );
    }

    #[test]
    fn timeline_is_chronological_across_groups() {
        // A replay settles one group at a time, so g1's launch is emitted
        // after g0's whole lifecycle. The report orders the lines by hour,
        // and lines at one hour keep their trace order.
        let events = vec![
            Event::GroupLaunched {
                group: "g0".to_string(),
                at_hours: 1.0,
            },
            Event::GroupFailed {
                group: "g0".to_string(),
                at_hours: 5.0,
                saved_fraction: 0.5,
            },
            Event::GroupLaunched {
                group: "g1".to_string(),
                at_hours: 2.0,
            },
            Event::FaultInjected {
                class: "spot-kill-storm".to_string(),
                group: Some("g1".to_string()),
                at_hours: 5.0,
                detail: 0.0,
            },
            Event::GroupFailed {
                group: "g1".to_string(),
                at_hours: 5.0,
                saved_fraction: 0.25,
            },
            Event::OnDemandFallback {
                at_hours: 5.0,
                remaining_fraction: 0.5,
                od_hours: 2.5,
                od_cost: 5.0,
                reason: "all-groups-failed".to_string(),
            },
        ];
        let text = RunReport::from_events(&events).render();
        let timeline: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "timeline")
            .skip(2)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(
            timeline,
            [
                "  t=    1.00 h  group g0 launched",
                "  t=    2.00 h  group g1 launched",
                "  t=    5.00 h  group g0 killed by provider (50% of work saved)",
                "  t=    5.00 h  fault injected: spot-kill-storm on group g1 (0.000)",
                "  t=    5.00 h  group g1 killed by provider (25% of work saved)",
                "  t=    5.00 h  on-demand fallback (all-groups-failed): 50% of work left, \
                 2.50 h on-demand for $5.00",
            ],
            "{text}"
        );
    }

    #[test]
    fn retired_warm_start_events_are_only_counted() {
        // Traces recorded while adaptive re-plans ran warm still render:
        // their `WarmStartApplied` events are counted, with no section.
        let events = vec![
            Event::WarmStartApplied {
                seeded: true,
                seed_cost: Some(19.75),
                hot_subsets: 4,
                tables_reused: 36,
                tables_rebuilt: 12,
            },
            Event::WarmStartApplied {
                seeded: false,
                seed_cost: None,
                hot_subsets: 0,
                tables_reused: 0,
                tables_rebuilt: 48,
            },
        ];
        let report = RunReport::from_events(&events);
        assert_eq!(report.event_counts, vec![("WarmStartApplied", 2)]);
        let text = report.render();
        assert!(!text.contains("warm starts"), "{text}");
        assert!(!text.contains("seeded"), "{text}");
    }

    #[test]
    fn server_only_trace_renders_counters_without_run_completed() {
        // Regression for the planner-service satellite: a trace holding
        // only server events (no RunCompleted terminator) must still
        // render the full cache/server counters section.
        let events = vec![
            Event::RequestReceived {
                id: 1,
                tenant: "t0".to_string(),
                kind: "plan".to_string(),
            },
            Event::RequestCompleted {
                id: 1,
                tenant: "t0".to_string(),
                kind: "plan".to_string(),
                ok: true,
                cache: "miss".to_string(),
                queue_secs: 0.004,
                service_secs: 0.2,
            },
            Event::CacheHit {
                key: 99,
                kind: "plan".to_string(),
                coalesced: false,
            },
            Event::CacheHit {
                key: 99,
                kind: "plan".to_string(),
                coalesced: true,
            },
            Event::RequestCompleted {
                id: 2,
                tenant: "t1".to_string(),
                kind: "plan".to_string(),
                ok: true,
                cache: "hit".to_string(),
                queue_secs: 0.002,
                service_secs: 0.01,
            },
            Event::RequestShed {
                id: 3,
                queue_depth: 1,
                capacity: 1,
            },
            Event::RequestCompleted {
                id: 4,
                tenant: "t1".to_string(),
                kind: "ping".to_string(),
                ok: false,
                cache: "none".to_string(),
                queue_secs: 0.001,
                service_secs: 0.001,
            },
        ];
        let text = RunReport::from_events(&events).render();
        assert!(text.contains("server requests"), "{text}");
        assert!(
            text.contains("1 received, 3 completed (1 error(s)), 1 shed"),
            "{text}"
        );
        assert!(text.contains("plan=2  ping=1"), "{text}");
        assert!(
            text.contains("plan cache: 1 hit(s), 1 coalesced, 1 miss(es)"),
            "{text}"
        );
        assert!(text.contains("latency: queue mean"), "{text}");
        assert!(text.contains("service trace"), "{text}");
        assert!(
            !text.contains("planning only"),
            "server-only trace must not claim to cover planning only: {text}"
        );
    }

    #[test]
    fn mixed_trace_renders_server_and_outcome_sections() {
        let mut events = full_trace();
        events.push(Event::RequestCompleted {
            id: 7,
            tenant: "t".to_string(),
            kind: "replay".to_string(),
            ok: true,
            cache: "none".to_string(),
            queue_secs: 0.0,
            service_secs: 0.5,
        });
        let text = RunReport::from_events(&events).render();
        assert!(text.contains("server requests"), "{text}");
        assert!(text.contains("outcome"), "{text}");
    }

    #[test]
    fn event_counts_preserve_first_seen_order() {
        let report = RunReport::from_events(&full_trace());
        let kinds: Vec<&str> = report.event_counts.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds[0], "PlanSearchStarted");
        assert_eq!(
            report
                .event_counts
                .iter()
                .find(|(k, _)| *k == "SubsetEvaluated")
                .unwrap()
                .1,
            2
        );
    }
}
