//! The two-level optimization algorithm — Sections 4.2 and 4.4.
//!
//! Level 1 (dimension reduction): for every candidate bid price the
//! checkpoint interval is fixed to `φ(P)` ([`crate::phi`]), so the search
//! runs over bid vectors only (Theorem 1 preserves optimality).
//!
//! Level 2 (logarithmic search): each group's bid is drawn from the
//! `O(log₂ H)` grid of [`crate::logsearch`], shrinking the bid space from
//! `P^K` to `(log₂ H)^K`.
//!
//! On top, the implementation-level optimization of Section 4.4: only
//! `k ≤ κ` of the `K` candidate circle groups are actually used; all
//! `C(K, k)` subsets are tried and the cheapest feasible configuration
//! wins. The optimizer also always considers the pure on-demand plan, so
//! it degrades gracefully when no spot configuration meets the deadline.
//!
//! # One walker
//!
//! The search runs on its calling thread. One walker takes the `C(K, k)`
//! subsets of the groups that have options in order, running the bid
//! odometer over each with reused scratch buffers, one incumbent and one
//! `f64` incumbent cost bound to prune against. The incumbent is the best
//! candidate under a *total* order: feasibility first, then lower
//! expected cost, then the lexicographic bid-vector tie-break (higher bids
//! win — see the private `beats` helper), then the unique enumeration
//! ordinal `(subset index, odometer step)`. So the returned
//! [`OptimizedPlan`] and every search counter are deterministic.
//!
//! One thread suffices: a pruned search takes microseconds, less than
//! spawning workers would cost, and a bound that no other thread moves
//! keeps the skip, rejection and tightening tallies deterministic
//! (DESIGN.md §8.3).

use crate::adaptive::PlanContext;
use crate::cost::{
    assessment_horizon, completion_wall, evaluate, evaluate_with_scratch, EvalScratch, Evaluation,
    FloorArena, FloorVerdict, GroupAssessment,
};
use crate::error::SompiError;
use crate::logsearch::BidGrid;
use crate::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use crate::ondemand::{select_on_demand, DEFAULT_SLACK};
use crate::phi::{interval_from_counts, phi_horizon};
use crate::problem::Problem;
use crate::view::MarketView;
use crate::Hours;
use ec2_market::failure::FailureEstimator;
use serde::{Deserialize, Serialize};
use sompi_obs::{emit, rate_per_sec, Event, PhaseTimer, TraceLevel};
use std::cmp::Ordering;

/// Which bid grid shape to search (logarithmic is the paper's; uniform
/// exists for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GridKind {
    /// `H / 2^l` — the paper's logarithmic search.
    #[default]
    Logarithmic,
    /// Equally spaced, same cardinality.
    Uniform,
}

/// Optimizer knobs, with the paper's defaults.
///
/// ```
/// use sompi_core::OptimizerConfig;
///
/// let cfg = OptimizerConfig::default();
/// assert_eq!(cfg.kappa, 4);        // §5.2: diminishing returns past 4
/// assert_eq!(cfg.bid_levels, 12);  // log₂ grid cap per group
///
/// // Struct-update syntax is the idiomatic way to tweak one knob:
/// let quick = OptimizerConfig { kappa: 2, bid_levels: 3, ..cfg };
/// assert_eq!(quick.slack, cfg.slack);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// κ: maximum number of circle groups used simultaneously (paper
    /// default 4, from the Section 5.2 study).
    pub kappa: usize,
    /// Cap on the bid grid size per group. The actual depth per group is
    /// the paper's `log₂ H` scaling — `⌈log₂(H_i / min_i)⌉ + 1` halvings
    /// span the observed price range — bounded by this cap, so calm
    /// groups stay cheap to search and spiky ones reach their plateau.
    pub bid_levels: u32,
    /// Slack reserved for checkpoint/recovery in on-demand selection
    /// (paper default 20%).
    pub slack: f64,
    /// Grid shape.
    pub grid: GridKind,
    /// Guard factor for an extra grid point above the historical maximum
    /// price (robustness against plateau drift beyond the training
    /// window); `None` keeps the paper's pure `H/2^l` grid.
    pub top_margin: Option<f64>,
    /// When set, ablate Theorem 1: instead of `F = φ(P)`, search this many
    /// checkpoint-interval values per group (multiplies the search space).
    pub interval_grid: Option<u32>,
    /// Extension beyond the paper: require, in addition to the expected-
    /// time constraint, that the probability of *some* circle group
    /// completing on spot is at least this (`p_all_fail ≤ 1 − q`). The
    /// paper's `E[Time] ≤ Deadline` admits plans that miss the deadline on
    /// a large fraction of runs; this knob trades expected cost for
    /// per-run deadline reliability. `None` reproduces the paper.
    pub min_spot_success: Option<f64>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            kappa: 4,
            bid_levels: 12,
            slack: DEFAULT_SLACK,
            grid: GridKind::Logarithmic,
            top_margin: Some(1.25),
            interval_grid: None,
            min_spot_success: None,
        }
    }
}

/// The optimizer's output: the chosen plan, its model evaluation, and how
/// many candidate configurations were evaluated (the search-space metric
/// of Section 4.2.2).
///
/// The count always includes the pure on-demand incumbent, so it is at
/// least 1 even when no spot option is viable:
///
/// ```
/// use sompi_core::{OptimizedPlan, Plan, OnDemandOption, evaluate};
/// use ec2_market::instance::InstanceTypeId;
///
/// let od = OnDemandOption {
///     instance_type: InstanceTypeId(0),
///     instances: 4,
///     exec_hours: 10.0,
///     unit_price: 0.25,
///     recovery_hours: 0.1,
/// };
/// let opt = OptimizedPlan {
///     plan: Plan::on_demand_only(od),
///     evaluation: evaluate(&[], &od),
///     evaluations_performed: 1,
/// };
/// assert!(opt.plan.groups.is_empty());
/// assert!(opt.evaluations_performed >= 1);
/// // 2014 hourly billing: 10 whole hours × $0.25 × 4 instances.
/// assert_eq!(opt.evaluation.expected_cost, 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedPlan {
    /// The selected plan.
    pub plan: Plan,
    /// Model evaluation of the selected plan.
    pub evaluation: Evaluation,
    /// Number of full plan evaluations performed during the search.
    pub evaluations_performed: u64,
}

/// The search's best candidate so far, carrying enough to compare under
/// the total candidate order and to rebuild the winning plan once at the
/// end.
struct Candidate {
    feasible: bool,
    eval: Evaluation,
    /// Bid vector in subset order — the deterministic tie-breaker.
    bids: Vec<f64>,
    /// Indices into `problem.candidates` (the chosen subset).
    subset: Vec<usize>,
    /// Odometer position: per-slot index into each group's option list.
    idx: Vec<usize>,
    /// Unique enumeration ordinal `(global subset index, odometer step)`
    /// — the final tie-breaker that makes the candidate order total.
    ordinal: (usize, u64),
}

/// The walk's result: its incumbent plus the plain `u64` counters the hot
/// loop maintains (evaluations, feasible hits, subsets walked). They feed
/// `PlanSelected` and, when a recorder wants Detail, one
/// `SubsetEvaluated` event.
struct SearchStats {
    evaluations: u64,
    feasible: u64,
    subsets: u64,
    /// Enumerated positions the branch-and-bound walk never evaluated
    /// (already counted inside `evaluations`, which reports the full
    /// enumeration size for count determinism).
    skipped: u64,
    /// Subsets rejected before their walk's set-up: the sum of their
    /// slots' smallest lower bounds was already above the incumbent.
    /// Their positions are counted in `skipped`.
    rejected: u64,
    /// Of `rejected`, the subsets the cursor skipped in bulk because a
    /// prefix of theirs was already hopeless.
    prefix_rejected: u64,
    /// Times a feasible candidate lowered the incumbent cost bound.
    tightenings: u64,
    /// Rank positions the walk visited: each one a per-slot sum.
    rank_steps: u64,
    /// Combinations that passed the per-slot sum and reached the
    /// whole-candidate floor.
    floor_checks: u64,
    /// Floor rejections decided by the spot part alone.
    spot_rejections: u64,
    /// Wall nanoseconds the walk spent inside the per-subset candidate
    /// loops (evaluation-dominated; timed per subset, not per evaluation,
    /// so the hot loop carries no timer calls). Only subsets that reach
    /// the walk are timed; rejected ones are not.
    kernel_nanos: u64,
    best: Option<Candidate>,
}

/// `assess_options` output: the per-group option lists and the
/// enumeration counters.
struct AssessedOptions {
    options: Vec<Vec<GroupAssessment>>,
    considered: u64,
    pruned: u64,
    dominated: u64,
    /// Grid bids that got their own bid profile.
    swept: u64,
    /// Grid bids served from an equal-admission higher twin.
    shared: u64,
    /// Groups assessed from admission counts alone: their own run time
    /// is already past the deadline.
    past_deadline: u64,
}

/// One group's options and counters from [`assess_group`].
#[derive(Default)]
pub(crate) struct GroupOptions {
    /// Surviving options, bid-descending.
    pub(crate) options: Vec<GroupAssessment>,
    /// (bid, interval) decisions considered.
    pub(crate) considered: u64,
    /// Decisions that miss the deadline even when surviving (checked
    /// before their assessment is built, so never built).
    pub(crate) pruned: u64,
    /// Deadline survivors removed by the bid-collapse filter.
    pub(crate) dominated: u64,
    /// Grid bids whose options came from their own bid profile.
    pub(crate) swept: u64,
    /// Grid bids whose options were copied from the next higher grid bid
    /// admitting the same samples.
    pub(crate) shared: u64,
    /// Whether the group's grid was walked by admission counts alone,
    /// because no option of it can meet the deadline.
    pub(crate) past_deadline: bool,
}

/// The bid grid `config` prescribes for a group with history `est`:
/// `⌈log₂(H_i / min_i)⌉ + 1` levels capped at `bid_levels`, plus the
/// top-margin guard point. `None` when the group has no positive,
/// finite price range to bid over.
fn bid_grid(est: &FailureEstimator, config: &OptimizerConfig) -> Option<BidGrid> {
    let max_bid = est.max_price();
    if !(max_bid.is_finite() && max_bid > 0.0) {
        return None;
    }
    let min_price = est.min_price().max(1e-6);
    let span_levels = ((max_bid / min_price).log2().ceil() as u32 + 1).max(2);
    let levels = span_levels.min(config.bid_levels.max(2));
    let grid = match config.grid {
        GridKind::Logarithmic => BidGrid::logarithmic(max_bid, levels),
        GridKind::Uniform => BidGrid::uniform(max_bid, levels),
    };
    Some(match config.top_margin {
        Some(m) => grid.with_top_margin(m),
        None => grid,
    })
}

/// A swept bid whose options later grid bids would share.
struct Admission {
    /// Samples the bid admits.
    admitted: usize,
    /// Its options that met the deadline.
    len: u64,
    /// Its options that missed it.
    pruned: u64,
}

/// Assess one candidate group over its bid grid: one
/// [`FailureEstimator::bid_profile`] sweep per grid bid gives φ's MTTF
/// and every interval's assessment by exact truncation.
///
/// A grid bid that admits as many samples as the previous, higher one
/// (`count_at_or_below`) admits exactly the same samples — no price lies
/// between them — so its profile, φ and assessments are identical and
/// its options would be the higher bid's with `decision.bid` replaced.
/// Those copies are exactly the options the bid collapse drops (same
/// state, lower bid; DESIGN.md §8.1), so they are counted as dominated
/// without being built, and the collapse then runs over the rest. The
/// counters and the option list equal assessing every bid on its own and
/// collapsing.
///
/// `deadline` prunes options whose completion wall exceeds it. The wall
/// is the bid profile's launch delay plus `W_i` at the interval, so the
/// check runs before the option's assessment is built, and a pruned
/// option allocates nothing. A group whose run time alone is past the
/// deadline has no option to build at all: its grid is walked by
/// admission counts ([`count_past_deadline`]). Shared with
/// [`crate::pareto::frontier`].
pub(crate) fn assess_group(
    group: &CircleGroup,
    est: &FailureEstimator,
    config: &OptimizerConfig,
    deadline: Hours,
) -> GroupOptions {
    let Some(grid) = bid_grid(est, config) else {
        return GroupOptions::default();
    };
    let per_bid = config.interval_grid.map_or(1, u64::from);
    // Every option's wall is a launch delay ≥ 0 plus `W_i` ≥ `T_i` when
    // checkpoints cost no negative time, and adding non-negative numbers
    // never rounds below either term, so each one misses the deadline.
    if group.exec_hours > deadline && group.ckpt_overhead_hours >= 0.0 {
        return count_past_deadline(&grid, est, per_bid);
    }
    let mut out = GroupOptions::default();
    // Under the Theorem 1 ablation the intervals are fixed per group;
    // otherwise each bid gets its own φ(P).
    let fixed: Option<Vec<Hours>> = config.interval_grid.map(|n| {
        (1..=n)
            .map(|j| group.exec_hours * j as f64 / n as f64)
            .collect()
    });
    let horizon = profile_horizon(group, fixed.as_deref());
    let prices = est.expected_spot_price();
    let mut prev: Option<Admission> = None;
    for &bid in grid.bids() {
        let admitted = prices.count_at_or_below(bid);
        out.considered += per_bid;
        // Grid bids strictly descend, so the twin's bid is the higher.
        if let Some(p) = prev.as_ref().filter(|p| p.admitted == admitted) {
            out.shared += 1;
            out.pruned += p.pruned;
            out.dominated += p.len;
            continue;
        }
        out.swept += 1;
        let start = out.options.len();
        let mut pruned = 0u64;
        // A bid below every observed price admits no launch: no options,
        // and nothing to sweep.
        if let Some(price) = prices.mean_below(bid) {
            let profile = est.bid_profile(bid, horizon);
            let phi;
            let intervals = match &fixed {
                Some(v) => v.as_slice(),
                None => {
                    phi = [interval_from_counts(group, profile.counts())];
                    &phi[..]
                }
            };
            for &ckpt_interval in intervals {
                let decision = GroupDecision { bid, ckpt_interval };
                // The deadline check needs only the launch delay and `W_i`:
                // an option past the deadline is never built.
                if completion_wall(group, &decision, profile.launch_delay()) <= deadline {
                    let a = GroupAssessment::from_profile(*group, decision, price, &profile);
                    out.options.push(a);
                } else {
                    pruned += 1;
                }
            }
        }
        out.pruned += pruned;
        prev = Some(Admission {
            admitted,
            len: (out.options.len() - start) as u64,
            pruned,
        });
    }
    // Exact: grids enumerate bids highest-first, which is the descending
    // order the collapse requires, and a dropped option's higher-bid twin
    // wins every tie it could have won (DESIGN.md §8.1).
    out.dominated += crate::pareto::collapse_bid_dominated(&mut out.options);
    out
}

/// [`assess_group`]'s counters for a group none of whose options can meet
/// the deadline, from admission counts alone: no bid profile, φ or
/// assessment, and no `S_i(P)` table. A grid bid that admits a launch
/// has its `per_bid` options pruned; one admitting the same samples as
/// the grid bid before it is shared, as in the sweep, and the rest count
/// as swept. Nothing survives, so nothing is dominated.
fn count_past_deadline(grid: &BidGrid, est: &FailureEstimator, per_bid: u64) -> GroupOptions {
    let mut out = GroupOptions {
        past_deadline: true,
        ..GroupOptions::default()
    };
    let mut prev = None;
    for &bid in grid.bids() {
        let admitted = est.count_at_or_below(bid);
        out.considered += per_bid;
        if admitted > 0 {
            out.pruned += per_bid;
        }
        if prev == Some(admitted) {
            out.shared += 1;
        } else {
            out.swept += 1;
        }
        prev = Some(admitted);
    }
    out
}

/// The horizon one bid profile is recorded at so that φ and every
/// interval's assessment truncate from it: φ reads [`phi_horizon`], and
/// [`assessment_horizon`] grows as the interval shrinks, so the smallest
/// interval a bid can be assessed at bounds them all. φ never returns
/// less than `min(O_i, T_i)` ([`crate::phi::interval_from_mttf`]).
fn profile_horizon(group: &CircleGroup, fixed: Option<&[Hours]>) -> usize {
    let smallest = match fixed {
        Some(v) => v.iter().copied().fold(f64::INFINITY, f64::min),
        None => group.ckpt_overhead_hours.min(group.exec_hours),
    };
    let decision = GroupDecision {
        bid: 0.0,
        ckpt_interval: smallest,
    };
    phi_horizon(group).max(assessment_horizon(group, &decision))
}

/// Lexicographic comparison of a candidate's bid vector (iterator form,
/// so the hot path compares without materializing a `Vec`) against an
/// incumbent's stored bids. Shorter vectors order before their extensions.
fn cmp_bids(current: impl Iterator<Item = f64>, incumbent: &[f64]) -> Ordering {
    let mut n = 0usize;
    for b in current {
        match incumbent.get(n) {
            None => return Ordering::Greater,
            Some(inc) => match b.total_cmp(inc) {
                Ordering::Equal => {}
                other => return other,
            },
        }
        n += 1;
    }
    if n < incumbent.len() {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Whether a freshly evaluated candidate beats the incumbent under the
/// total order: feasible first, then lower expected cost, then the
/// lexicographically *greater* bid vector, then the earlier enumeration
/// ordinal.
///
/// Higher bids win cost ties deliberately: equal modeled cost means the
/// historical window never separates the two bids, and the higher one can
/// only be safer on prices beyond that window. (The bid grids are
/// highest-first, so this also matches the sequential first-seen rule.)
fn beats(
    feasible: bool,
    eval: &Evaluation,
    bids: impl Iterator<Item = f64>,
    ordinal: (usize, u64),
    incumbent: &Candidate,
) -> bool {
    match (feasible, incumbent.feasible) {
        (true, false) => return true,
        (false, true) => return false,
        _ => {}
    }
    match eval.expected_cost.total_cmp(&incumbent.eval.expected_cost) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match cmp_bids(bids, &incumbent.bids) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => ordinal < incumbent.ordinal,
        },
    }
}

/// SOMPI's offline optimizer over one problem + market view.
#[derive(Debug, Clone)]
pub struct TwoLevelOptimizer<'a> {
    problem: &'a Problem,
    view: &'a MarketView,
    config: OptimizerConfig,
}

impl<'a> TwoLevelOptimizer<'a> {
    /// Create an optimizer.
    pub fn new(problem: &'a Problem, view: &'a MarketView, config: OptimizerConfig) -> Self {
        Self {
            problem,
            view,
            config,
        }
    }

    /// Run the full search and return the cheapest feasible plan.
    ///
    /// Equivalent to [`TwoLevelOptimizer::optimize_with`] on an all-no-op
    /// [`PlanContext`]: no event is ever constructed, so the search is
    /// exactly as fast and allocation-free as before instrumentation
    /// existed (asserted by `tests/alloc_guard.rs` and the `opt_speed`
    /// bench). Errors when a candidate group is unknown to the market
    /// view.
    pub fn optimize(&self) -> Result<OptimizedPlan, SompiError> {
        self.optimize_with(&mut PlanContext::new())
    }

    /// Run the full search with everything optional riding in `ctx` (the
    /// same [`PlanContext`] every [`crate::policy::Policy`] takes): the
    /// recorder, which receives one `PlanSearchStarted`, one
    /// `SubsetEvaluated` (Detail level) and one `PlanSelected`. The hot
    /// candidate loop only increments local `u64` counters; events are
    /// built outside it.
    pub fn optimize_with(&self, ctx: &mut PlanContext<'_>) -> Result<OptimizedPlan, SompiError> {
        let recorder = ctx.recorder;
        let od = select_on_demand(
            &self.problem.on_demand,
            self.problem.deadline,
            self.config.slack,
        );
        let assess_timer = PhaseTimer::start();
        let AssessedOptions {
            options,
            considered: options_considered,
            pruned: options_pruned,
            dominated: options_dominated,
            swept: profiles_swept,
            shared: profiles_shared,
            past_deadline: groups_past_deadline,
        } = self.assess_options()?;
        let assess_secs = assess_timer.elapsed_secs();

        // The pure on-demand plan is the incumbent the search must beat.
        let od_eval = evaluate(&[], &od);
        let od_feasible = od_eval.meets(self.problem.deadline);

        // The branch-and-bound inputs, built once per search (DESIGN.md
        // §8.2).
        let tables = BoundTables::new(&options, self.config.kappa);

        // The incumbent cost bound candidates must beat, seeded with the
        // on-demand incumbent when it is feasible — the search only keeps
        // spot candidates that beat it anyway.
        let seed_bound = if od_feasible {
            od_eval.expected_cost
        } else {
            f64::INFINITY
        };

        // The k-subsets of the groups with options (k ascending,
        // lexicographic within k). A subset holding a group without
        // options has no candidate, so leaving it out drops nothing, and
        // the subsets kept keep their relative order: every ordinal
        // tie-break is unchanged.
        let n = self.problem.candidates.len();
        let with_options: Vec<usize> = (0..n).filter(|&g| !options[g].is_empty()).collect();

        emit(recorder, TraceLevel::Summary, || Event::PlanSearchStarted {
            candidates: n as u32,
            kappa: self.config.kappa as u32,
            bid_levels: self.config.bid_levels,
            subsets: subset_count(n, self.config.kappa),
            options_considered,
            options_pruned,
            deadline_hours: self.problem.deadline,
            options_dominated,
            profiles_swept,
            profiles_shared,
            groups_past_deadline,
        });

        let search_timer = PhaseTimer::start();
        let stats = self.search(&options, &od, &with_options, &tables, seed_bound);
        let search_secs = search_timer.elapsed_secs();

        emit(recorder, TraceLevel::Detail, || Event::SubsetEvaluated {
            subsets: stats.subsets,
            evaluations: stats.evaluations,
            feasible: stats.feasible,
            best_cost: stats
                .best
                .as_ref()
                .filter(|c| c.feasible)
                .map(|c| c.eval.expected_cost),
            phi_intervals: stats
                .best
                .as_ref()
                .map(|c| {
                    c.subset
                        .iter()
                        .zip(&c.idx)
                        .map(|(&g, &i)| options[g][i].decision.ckpt_interval)
                        .collect()
                })
                .unwrap_or_default(),
            skipped: stats.skipped,
            subsets_rejected: stats.rejected,
            subsets_prefix_rejected: stats.prefix_rejected,
            rank_steps: stats.rank_steps,
            floor_checks: stats.floor_checks,
            floor_spot_rejections: stats.spot_rejections,
        });

        let evaluations = stats.evaluations + 1; // the on-demand incumbent
        let SearchStats {
            skipped: evals_skipped,
            tightenings: bound_tightenings,
            kernel_nanos,
            best,
            ..
        } = stats;

        // The winning spot candidate must still beat the on-demand
        // incumbent — strictly, as in the sequential algorithm, so ties
        // keep the simpler on-demand plan.
        let spot = best.filter(|c| match (c.feasible, od_feasible) {
            (true, false) => true,
            (false, true) => false,
            _ => c.eval.expected_cost < od_eval.expected_cost,
        });
        let (plan, evaluation, source) = match spot {
            Some(c) => {
                let plan = Plan {
                    groups: c
                        .subset
                        .iter()
                        .zip(&c.idx)
                        .map(|(&g, &i)| {
                            let a = &options[g][i];
                            (a.group, a.decision)
                        })
                        .collect(),
                    on_demand: od,
                };
                (plan, c.eval, "spot")
            }
            None => (Plan::on_demand_only(od), od_eval, "on-demand"),
        };

        emit(recorder, TraceLevel::Summary, || Event::PlanSelected {
            source: source.to_string(),
            groups: plan.groups.len() as u32,
            expected_cost: evaluation.expected_cost,
            expected_time: evaluation.expected_time,
            p_all_fail: evaluation.p_all_fail,
            slack: self.config.slack,
            evaluations,
            assess_secs,
            search_secs,
            evals_skipped,
            bound_tightenings,
            // Positions the walk skipped were never evaluated.
            evals_per_sec: rate_per_sec(evaluations - evals_skipped, search_secs),
            kernel_nanos,
        });
        Ok(OptimizedPlan {
            plan,
            evaluation,
            evaluations_performed: evaluations,
        })
    }

    /// Assess every candidate (group, bid level, interval) option once, up
    /// front, through [`assess_group`]. Index: `options[g]` = list of
    /// viable assessments for group `g`.
    ///
    /// Options that cannot complete before the deadline even when they
    /// survive are dropped: the runtime switches to on-demand rather than
    /// ride a replica past the deadline, so crediting such a group as a
    /// completion winner would let rare deadline-missing patterns
    /// subsidize `E[Cost]`.
    ///
    /// Errors when a candidate group is unknown to the view.
    fn assess_options(&self) -> Result<AssessedOptions, SompiError> {
        let mut out = AssessedOptions {
            options: Vec::with_capacity(self.problem.candidates.len()),
            considered: 0,
            pruned: 0,
            dominated: 0,
            swept: 0,
            shared: 0,
            past_deadline: 0,
        };
        for group in &self.problem.candidates {
            let est = self.view.try_estimator(group.id)?;
            let g = assess_group(group, est, &self.config, self.problem.deadline);
            out.considered += g.considered;
            out.pruned += g.pruned;
            out.dominated += g.dominated;
            out.swept += g.swept;
            out.shared += g.shared;
            out.past_deadline += u64::from(g.past_deadline);
            out.options.push(g.options);
        }
        Ok(out)
    }

    /// Walk every subset of the groups with options (`with_options`) in
    /// order with a [`SubsetCursor`], a reused borrow buffer, a reused
    /// odometer, an [`EvalScratch`], a [`FloorArena`], an incumbent, and
    /// an evaluation counter. A subset's index in that order enters the
    /// enumeration ordinal, so ordinals are unique.
    ///
    /// Each subset runs a branch-and-bound walk (DESIGN.md §8.2) over its
    /// slots' options rank-sorted by the admissible per-group lower bound
    /// [`GroupAssessment::cost_lower_bound`], read from the search's
    /// shared `tables`. Work the bound has ruled out is skipped at four
    /// depths: the cursor skips every subset completing a prefix whose
    /// smallest bounds already exceed the incumbent cost; a subset whose
    /// slots' smallest bounds sum above it is rejected whole before any
    /// set-up; in the walk, rank ranges whose summed lower bound exceeds
    /// it are carried past without evaluation; and a combination that
    /// passes is still skipped when its whole-candidate floor, which adds
    /// the on-demand recovery share (DESIGN.md §8.5), exceeds it.
    /// The bound starts at `seed_bound`, the on-demand incumbent's cost.
    /// Pruning never removes a candidate that could win under the total
    /// order, so the returned incumbent — and with it the
    /// [`OptimizedPlan`] — is bit-identical to an exhaustive walk over the
    /// same options (the test oracle in `tests/reference/mod.rs`). The
    /// reported `evaluations` counter always carries the full enumeration
    /// size; actually-skipped positions are tallied in `skipped` for
    /// observability only.
    fn search(
        &self,
        options: &[Vec<GroupAssessment>],
        od: &OnDemandOption,
        with_options: &[usize],
        tables: &BoundTables,
        seed_bound: f64,
    ) -> SearchStats {
        let mut evaluations = 0u64;
        let mut feasible_hits = 0u64;
        let mut skipped = 0u64;
        let mut rejected = 0u64;
        let mut tightenings = 0u64;
        let mut rank_steps = 0u64;
        let mut floor_checks = 0u64;
        let mut spot_rejections = 0u64;
        let mut kernel_nanos = 0u64;
        let mut best: Option<Candidate> = None;
        let mut refs: Vec<&GroupAssessment> = Vec::new();
        let mut idx: Vec<usize> = Vec::new();
        let mut scratch = EvalScratch::new();
        // Branch-and-bound scratch, reused across subsets: per-slot
        // `(lower bound, original option index)` lists rank-sorted
        // ascending (slices of `tables`), slot cardinalities, mixed-radix
        // step weights, and prefix sums of the per-slot minimum bounds.
        let mut slots: Vec<&[(f64, usize)]> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut head_min: Vec<f64> = Vec::new();
        // The incumbent cost bound. It only ever holds feasible candidate
        // costs (or the on-demand seed), so strict pruning against it is
        // exact (DESIGN.md §8.2).
        let mut bound = seed_bound;
        // Option ids for the floor arena: group `g`'s options are
        // `option_base[g]..`.
        let option_base: Vec<usize> = options
            .iter()
            .scan(0, |base, opts| {
                let at = *base;
                *base += opts.len();
                Some(at)
            })
            .collect();
        let mut floors = FloorArena::new(options.iter().map(Vec::len).sum(), od);

        let mut subsets = SubsetCursor::new(
            with_options,
            self.config.kappa,
            with_options
                .iter()
                .map(|&g| tables.smallest_head(g))
                .collect(),
            with_options
                .iter()
                .map(|&g| options[g].len() as u64)
                .collect(),
        );
        while let Some(Subset {
            members: chosen,
            ordinal,
            product,
        }) = subsets.next(bound)
        {
            let subset_ordinal = ordinal as usize;
            // Count the full enumeration up front: the published
            // `evaluations_performed` stays the paper's search-space
            // metric, unchanged by how many positions branch-and-bound
            // manages to skip.
            evaluations += product;
            let level = tables.level(chosen);
            // Early rejection: the walk's first step sums the slots'
            // smallest bounds, and when that sum is over the incumbent
            // every other position's sum is too (each slot only moves to
            // bounds no smaller, and the incumbent never rises), so the
            // walk would skip the whole subset. Decide it here, before
            // any set-up.
            if tables.head(chosen, level) > bound {
                skipped += product;
                rejected += 1;
                continue;
            }
            let subset_timer = std::time::Instant::now();
            // Branch-and-bound walk over the subset's combinations, on the
            // slots' option lists ranked at the subset's wall level.
            let m = chosen.len();
            slots.clear();
            lens.clear();
            weights.clear();
            head_min.clear();
            let mut weight = 1u64;
            let mut head = 0.0f64;
            for &g in chosen {
                let ranked = tables.ranked(g, level);
                slots.push(ranked);
                lens.push(ranked.len());
                weights.push(weight);
                weight = weight.saturating_mul(ranked.len() as u64);
                head_min.push(head);
                head += ranked[0].0;
            }
            head_min.push(head); // head_min[m] = Σ per-slot minima

            // `idx` holds per-slot *ranks* into `slots`, not original
            // option indices; ordinals and the stored candidate are
            // translated back through `slots[slot][rank].1`.
            idx.clear();
            idx.resize(m, 0);
            let mut evaluated_here = 0u64;
            let mut exhausted = false;
            while !exhausted {
                rank_steps += 1;
                let lb_total: f64 = (0..m).map(|s| slots[s][idx[s]].0).sum();
                if lb_total > bound {
                    let from = carry_slot(&slots, &idx, &head_min, bound);
                    exhausted = !advance_ranks(&mut idx, &lens, from);
                    continue;
                }
                // Whole-candidate floor (DESIGN.md §8.5): tighter than the
                // per-slot sum, and O(k) next to an evaluation. A
                // combination over the bound is skipped like a pruned one.
                floor_checks += 1;
                let picks = chosen.iter().enumerate().map(|(slot, &g)| {
                    let i = slots[slot][idx[slot]].1;
                    (option_base[g] + i, &options[g][i])
                });
                match floors.check(picks, bound) {
                    FloorVerdict::Below => {}
                    verdict => {
                        spot_rejections += u64::from(verdict == FloorVerdict::SpotAbove);
                        exhausted = !advance_ranks(&mut idx, &lens, 0);
                        continue;
                    }
                }
                refs.clear();
                refs.extend(
                    chosen
                        .iter()
                        .enumerate()
                        .map(|(slot, &g)| &options[g][slots[slot][idx[slot]].1]),
                );
                let eval = evaluate_with_scratch(&refs, od, &mut scratch);
                evaluated_here += 1;
                let feasible = eval.meets(self.problem.deadline)
                    && self
                        .config
                        .min_spot_success
                        .map(|q| eval.p_all_fail <= 1.0 - q)
                        .unwrap_or(true);
                feasible_hits += feasible as u64;
                if feasible && eval.expected_cost < bound {
                    // Only feasible costs enter the bound, so pruning can
                    // never drop a candidate that would beat a feasible
                    // incumbent.
                    bound = eval.expected_cost;
                    tightenings += 1;
                }
                // The enumeration step the unsorted odometer would have
                // assigned this combination — ordinals must not depend
                // on the lower-bound sort.
                let step = (0..m).fold(0u64, |acc, slot| {
                    acc.saturating_add(
                        weights[slot].saturating_mul(slots[slot][idx[slot]].1 as u64),
                    )
                });
                let ordinal = (subset_ordinal, step);
                let replace = match &best {
                    None => true,
                    Some(b) => beats(
                        feasible,
                        &eval,
                        refs.iter().map(|a| a.decision.bid),
                        ordinal,
                        b,
                    ),
                };
                if replace {
                    best = Some(Candidate {
                        feasible,
                        eval,
                        bids: refs.iter().map(|a| a.decision.bid).collect(),
                        subset: chosen.to_vec(),
                        idx: (0..m).map(|slot| slots[slot][idx[slot]].1).collect(),
                        ordinal,
                    });
                }
                exhausted = !advance_ranks(&mut idx, &lens, 0);
            }
            skipped += product.saturating_sub(evaluated_here);
            kernel_nanos += subset_timer.elapsed().as_nanos() as u64;
        }
        // The cursor's bulk skips, counted as rejecting each subset would.
        let tally = &subsets.tally;
        evaluations += tally.positions;
        skipped += tally.positions;
        rejected += tally.skipped;
        SearchStats {
            evaluations,
            feasible: feasible_hits,
            subsets: tally.passed,
            skipped,
            rejected,
            prefix_rejected: tally.skipped,
            tightenings,
            rank_steps,
            floor_checks,
            spot_rejections,
            kernel_nanos,
            best,
        }
    }
}

/// Advance the rank odometer (slot 0 fastest, slot `s` below `lens[s]`)
/// at slot `from`, resetting the slots below it — skipping every
/// combination that keeps the ranks of slots `from..`. Returns `false`
/// when the odometer runs out, as it does at once for `from` = the slot
/// count.
fn advance_ranks(idx: &mut [usize], lens: &[usize], from: usize) -> bool {
    idx[..from].fill(0);
    for pos in from..idx.len() {
        idx[pos] += 1;
        if idx[pos] < lens[pos] {
            return true;
        }
        idx[pos] = 0;
    }
    false
}

/// The slot the walk carries from once the combination at rank `idx`
/// sums above `bound`: one past the highest slot `h` that is hopeless
/// with every slot below it at its smallest bound.
///
/// That sum — `head_min[h]` plus the bounds at `idx` from slot `h` on,
/// added in slot order as the walk adds them — is at most the walk's sum
/// at every combination that keeps the ranks of slots `h + 1..` and holds
/// slot `h` at rank `idx[h]` or later: ranks ascend within a slot, and
/// IEEE addition is monotone in each operand. So when it is over the
/// bound, every such combination is, and the odometer carries from
/// `h + 1` (at `h + 1` = the slot count, the subset is done). `h = 0` is
/// the combination itself. The test is not monotone in `h` (the head
/// grows while the tail shrinks), so slots are tried from the highest
/// down. Like the rest of the walk, it relies on the bounds being finite
/// (DESIGN.md §8.2).
fn carry_slot(slots: &[&[(f64, usize)]], idx: &[usize], head_min: &[f64], bound: f64) -> usize {
    let m = idx.len();
    let hopeless = |h: usize| (h..m).fold(head_min[h], |sum, s| sum + slots[s][idx[s]].0) > bound;
    (1..m).rev().find(|&h| hopeless(h)).unwrap_or(0) + 1
}

/// Relative margin of [`SubsetCursor`]'s prefix test. The test adds its
/// bounds in another order than the head sums it stands for, so their
/// rounding differs by a few ulps per term — orders of magnitude below
/// this.
const PREFIX_SLACK: f64 = 1e-9;

/// One subset a [`SubsetCursor`] yields.
struct Subset<'c> {
    /// Its groups.
    members: &'c [usize],
    /// Its index among every subset the cursor enumerates, skipped ones
    /// included: its lexicographic index.
    ordinal: u64,
    /// The product of its groups' option counts (saturating): its
    /// odometer positions.
    product: u64,
}

/// What a [`SubsetCursor`] has passed and skipped so far.
struct CursorTally {
    /// Subsets yielded or skipped.
    passed: u64,
    /// Subsets skipped in bulk.
    skipped: u64,
    /// The skipped subsets' odometer positions: the sum of their option
    /// count products.
    positions: u64,
}

/// The k-subsets, `1 ≤ k ≤ k_max`, of a list of groups, k ascending and
/// lexicographic within k, walked in place, with every completion of a
/// hopeless prefix skipped in bulk (DESIGN.md §8.2).
///
/// Each position of the list carries the smallest head bound its group
/// adds to any subset holding it (`heads`) and its option count. A
/// prefix — the subset's first `d` members — is hopeless when its
/// members' head bounds plus the `r` smallest head bounds after its last
/// position, `r = k − d` being the members still to choose, exceed the
/// incumbent bound after a [`PREFIX_SLACK`] margin. Every completion's
/// head sum is then over the bound too, so the per-subset head test would
/// reject each one; the cursor skips them all at once and counts them as
/// that test would: `C(rest, r)` subsets and `prefix product ·
/// e_r(option counts after the prefix)` positions, `e_r` being the
/// elementary symmetric sum. A prefix is tested only when every bound in
/// play — its own and all those after it — is finite and nonnegative, the
/// condition under which the margin covers the reordering.
struct SubsetCursor<'a> {
    groups: &'a [usize],
    k_max: usize,
    /// Size of the current subsets (0 before the first).
    k: usize,
    /// Whether every subset was yielded or skipped.
    done: bool,
    /// Positions of the current subset's members in `groups`, ascending.
    pos: Vec<usize>,
    /// The current subset: `groups[pos[i]]` for each `i`.
    members: Vec<usize>,
    /// Per position, its head bound, NaN unless finite and nonnegative.
    heads: Vec<f64>,
    /// Per position, its option count.
    counts: Vec<u64>,
    /// `smallest[first · (k_max + 1) + r]`: the sum of the `r` smallest
    /// heads at positions `first..`; NaN when a head there is NaN, or
    /// fewer than `r` positions remain.
    smallest: Vec<f64>,
    /// `esum[first · (k_max + 1) + r]`: `e_r` of the option counts at
    /// positions `first..` (saturating).
    esum: Vec<u64>,
    /// Sums of heads and products of counts over `pos[..d]`, `d ≤ k`.
    psum: Vec<f64>,
    pprod: Vec<u64>,
    /// How many leading members `psum` and `pprod` cover.
    depth: usize,
    /// The subsets passed and skipped so far.
    tally: CursorTally,
}

impl<'a> SubsetCursor<'a> {
    /// A cursor before the first subset of `groups` of up to `k_max`
    /// members; `heads` and `counts` hold each position's head bound and
    /// option count.
    fn new(groups: &'a [usize], k_max: usize, mut heads: Vec<f64>, counts: Vec<u64>) -> Self {
        let n = groups.len();
        let k_max = k_max.min(n);
        let w = k_max + 1;
        for h in &mut heads {
            if !(h.is_finite() && *h >= 0.0) {
                *h = f64::NAN;
            }
        }
        let mut smallest = vec![f64::NAN; (n + 1) * w];
        let mut esum = vec![0u64; (n + 1) * w];
        smallest[n * w] = 0.0;
        esum[n * w] = 1;
        // The finite heads from `first` on, ascending; `unusable` once a
        // NaN is among them.
        let mut sorted: Vec<f64> = Vec::with_capacity(n);
        let mut unusable = false;
        for first in (0..n).rev() {
            let h = heads[first];
            unusable |= h.is_nan();
            if !unusable {
                sorted.insert(sorted.partition_point(|&x| x < h), h);
            }
            let (row, next) = (first * w, (first + 1) * w);
            smallest[row] = 0.0;
            esum[row] = 1;
            let mut sum = 0.0;
            for r in 1..w {
                if !unusable && r <= sorted.len() {
                    sum += sorted[r - 1];
                    smallest[row + r] = sum;
                }
                esum[row + r] =
                    esum[next + r].saturating_add(counts[first].saturating_mul(esum[next + r - 1]));
            }
        }
        Self {
            groups,
            k_max,
            k: 0,
            done: false,
            pos: Vec::with_capacity(k_max),
            members: Vec::with_capacity(k_max),
            heads,
            counts,
            smallest,
            esum,
            psum: vec![0.0; w],
            pprod: vec![1; w],
            depth: 0,
            tally: CursorTally {
                passed: 0,
                skipped: 0,
                positions: 0,
            },
        }
    }

    /// Step to the next subset not skipped against `bound` and return it;
    /// `None` once every subset was yielded or skipped.
    fn next(&mut self, bound: f64) -> Option<Subset<'_>> {
        if self.done {
            return None;
        }
        let mut more = if self.k == 0 {
            self.grow(bound)
        } else {
            self.advance(self.k - 1, bound)
        };
        // Extend the prefix a member at a time, testing each prefix that
        // still has members to choose.
        while more && self.depth < self.k {
            let d = self.depth;
            let p = self.pos[d];
            self.psum[d + 1] = self.psum[d] + self.heads[p];
            self.pprod[d + 1] = self.pprod[d].saturating_mul(self.counts[p]);
            self.depth = d + 1;
            let r = self.k - self.depth;
            if r > 0 && self.hopeless(p + 1, r, self.psum[d + 1], bound) {
                self.skip(p + 1, r, self.pprod[d + 1]);
                more = self.advance(d, bound);
            }
        }
        if !more {
            self.done = true;
            return None;
        }
        self.members.clear();
        self.members
            .extend(self.pos.iter().map(|&p| self.groups[p]));
        let ordinal = self.tally.passed;
        self.tally.passed += 1;
        Some(Subset {
            members: &self.members,
            ordinal,
            product: self.pprod[self.k],
        })
    }

    /// Move member `i` of the current subset one position right, the
    /// members after it following it; when no member up to `i` can move,
    /// start the next size. `false` once every size is done.
    fn advance(&mut self, mut i: usize, bound: f64) -> bool {
        let n = self.groups.len();
        loop {
            // Member `i` of a k-subset goes up to position `n − k + i`.
            if self.pos[i] < n - self.k + i {
                self.pos[i] += 1;
                for j in i + 1..self.k {
                    self.pos[j] = self.pos[j - 1] + 1;
                }
                self.depth = i;
                return true;
            }
            if i == 0 {
                return self.grow(bound);
            }
            i -= 1;
        }
    }

    /// Start the first subset one member larger, skipping every size
    /// whose empty prefix is already hopeless. `false` past `k_max`.
    fn grow(&mut self, bound: f64) -> bool {
        while self.k < self.k_max {
            self.k += 1;
            if self.hopeless(0, self.k, 0.0, bound) {
                self.skip(0, self.k, 1);
                continue;
            }
            self.pos.clear();
            self.pos.extend(0..self.k);
            self.depth = 0;
            return true;
        }
        false
    }

    /// Whether a prefix summing to `prefix`, with `r` members still to
    /// choose from positions `first..`, is over `bound`.
    fn hopeless(&self, first: usize, r: usize, prefix: f64, bound: f64) -> bool {
        let sum = prefix + self.smallest[first * (self.k_max + 1) + r];
        sum.is_finite() && sum * (1.0 - PREFIX_SLACK) > bound
    }

    /// Count as skipped every choice of `r` members from positions
    /// `first..` after a prefix whose option counts multiply to
    /// `prefix_product`.
    fn skip(&mut self, first: usize, r: usize, prefix_product: u64) {
        let subsets = binomial(self.groups.len() - first, r);
        self.tally.passed += subsets;
        self.tally.skipped += subsets;
        self.tally.positions +=
            prefix_product.saturating_mul(self.esum[first * (self.k_max + 1) + r]);
    }
}

/// `C(n, k)`, saturating.
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    // C(n, j) = C(n, j - 1) · (n - j + 1) / j, exact at every step.
    let c = (1..=k).fold(1u128, |c, j| {
        c.saturating_mul((n - j + 1) as u128) / j as u128
    });
    u64::try_from(c).unwrap_or(u64::MAX)
}

/// `Σ C(n, k)` over `1 ≤ k ≤ k_max`: the number of subsets of at most
/// `k_max` of `n` groups (saturating).
fn subset_count(n: usize, k_max: usize) -> u64 {
    (1..=k_max.min(n)).fold(0, |total, k| total.saturating_add(binomial(n, k)))
}

/// The rank order of `(lower bound, option index)` pairs. Keys are
/// unique by index, so unstable sorts under it are deterministic.
fn by_bound(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The branch-and-bound inputs of one search (DESIGN.md §8.2), built once
/// per search.
///
/// A subset's `w_min` is the smallest of its groups' minimum completion
/// walls, so it is one of those walls: the sorted distinct walls of the
/// groups with options are the only *levels* a subset can have. Each
/// group with options gets its options rank-sorted by
/// `(cost_lower_bound(wall), index)` at every level a subset holding it
/// can have — its own and, with κ ≥ 2, every lower one.
struct BoundTables {
    /// Where each group's lists are; all zero for a group without options.
    groups: Vec<GroupLists>,
    /// Every group's lists back to back, lowest level first.
    ranked: Vec<(f64, usize)>,
}

/// One group's lists in [`BoundTables::ranked`]: one per level from
/// `lowest` to `level`, each `len` long, the first at `offset`.
#[derive(Clone, Copy, Default)]
struct GroupLists {
    /// The level of the group's own minimum completion wall.
    level: usize,
    lowest: usize,
    offset: usize,
    len: usize,
}

impl BoundTables {
    fn new(options: &[Vec<GroupAssessment>], kappa: usize) -> Self {
        let min_wall: Vec<f64> = options
            .iter()
            .map(|opts| {
                opts.iter()
                    .map(|a| a.completion_wall())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut walls: Vec<f64> = options
            .iter()
            .zip(&min_wall)
            .filter(|(opts, _)| !opts.is_empty())
            .map(|(_, &w)| w)
            .collect();
        walls.sort_unstable_by(f64::total_cmp);
        walls.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let mut size = 0;
        let groups: Vec<GroupLists> = options
            .iter()
            .zip(&min_wall)
            .map(|(opts, w)| {
                if opts.is_empty() {
                    return GroupLists::default();
                }
                let level = walls
                    .binary_search_by(|x| x.total_cmp(w))
                    .expect("a group's wall is a level");
                let lowest = if kappa >= 2 { 0 } else { level };
                let offset = size;
                size += (level - lowest + 1) * opts.len();
                GroupLists {
                    level,
                    lowest,
                    offset,
                    len: opts.len(),
                }
            })
            .collect();
        let mut ranked = Vec::with_capacity(size);
        for (opts, lists) in options.iter().zip(&groups) {
            if opts.is_empty() {
                continue;
            }
            for &w in &walls[lists.lowest..=lists.level] {
                let at = ranked.len();
                ranked.extend(
                    opts.iter()
                        .enumerate()
                        .map(|(i, a)| (a.cost_lower_bound(w), i)),
                );
                ranked[at..].sort_unstable_by(by_bound);
            }
        }
        Self { groups, ranked }
    }

    /// The level of a subset's `w_min`: its members' lowest.
    fn level(&self, subset: &[usize]) -> usize {
        subset
            .iter()
            .map(|&g| self.groups[g].level)
            .min()
            .expect("subsets are non-empty")
    }

    /// Group `g`'s options rank-sorted at `level`.
    fn ranked(&self, g: usize, level: usize) -> &[(f64, usize)] {
        let lists = self.groups[g];
        let at = lists.offset + (level - lists.lowest) * lists.len;
        &self.ranked[at..at + lists.len]
    }

    /// The sum of the slots' smallest bounds at `level`, in slot order —
    /// the walk's first lower-bound sum.
    fn head(&self, subset: &[usize], level: usize) -> f64 {
        subset.iter().map(|&g| self.ranked(g, level)[0].0).sum()
    }

    /// Group `g`'s smallest bound over every level its lists cover: at
    /// most its term in the head sum of any subset holding it. NaN when
    /// any of those bounds is NaN.
    fn smallest_head(&self, g: usize) -> f64 {
        let lists = self.groups[g];
        (lists.lowest..=lists.level)
            .map(|level| self.ranked(g, level)[0].0)
            .fold(
                f64::INFINITY,
                |lo, h| if h < lo || h.is_nan() { h } else { lo },
            )
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

    pub(super) fn setup() -> (SpotMarket, Problem, MarketView) {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 13), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let problem = Problem::build(
            &market,
            &profile,
            3.0, // loose-ish deadline vs ~1h baseline
            Some(&types),
            S3Store::paper_2014(),
        );
        let view = MarketView::from_market(&market, 0.0, 48.0);
        (market, problem, view)
    }

    fn small_config() -> OptimizerConfig {
        OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn finds_a_feasible_plan_cheaper_than_on_demand() {
        let (_, problem, view) = setup();
        let opt = TwoLevelOptimizer::new(&problem, &view, small_config())
            .optimize()
            .unwrap();
        assert!(opt.evaluation.meets(problem.deadline));
        assert!(!opt.plan.groups.is_empty(), "expected a spot plan");
        let od_cost = select_on_demand(&problem.on_demand, problem.deadline, 0.2).full_cost();
        assert!(
            opt.evaluation.expected_cost < od_cost,
            "spot plan {} vs on-demand {}",
            opt.evaluation.expected_cost,
            od_cost
        );
    }

    #[test]
    fn respects_kappa() {
        let (_, problem, view) = setup();
        for kappa in 1..=3 {
            let cfg = OptimizerConfig {
                kappa,
                bid_levels: 2,
                ..OptimizerConfig::default()
            };
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize()
                .unwrap();
            assert!(opt.plan.replication_degree() <= kappa);
        }
    }

    #[test]
    fn more_bid_levels_never_hurt() {
        use sompi_obs::RingRecorder;

        let (_, problem, view) = setup();
        let search = |bid_levels| {
            let cfg = OptimizerConfig {
                kappa: 2,
                bid_levels,
                ..OptimizerConfig::default()
            };
            let ring = RingRecorder::new(TraceLevel::Summary, 16);
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize_with(&mut PlanContext::new().with_recorder(&ring))
                .unwrap();
            let events = ring.take();
            let Some(&Event::PlanSearchStarted {
                options_considered, ..
            }) = events.first()
            else {
                panic!("PlanSearchStarted first: {events:?}");
            };
            (opt, options_considered)
        };
        let (cheap, cheap_space) = search(2);
        let (rich, rich_space) = search(5);
        // The 5-level grid contains the 2-level grid, so the optimum can
        // only improve. The bid collapse can shrink the richer grid back
        // to the same option count, so the raw space is read from the
        // options considered.
        assert!(rich.evaluation.expected_cost <= cheap.evaluation.expected_cost + 1e-9);
        assert!(rich_space > cheap_space, "{rich_space} vs {cheap_space}");
    }

    #[test]
    fn impossible_deadline_falls_back_to_fastest_on_demand() {
        let (_, mut problem, view) = setup();
        problem.deadline = 0.01;
        let opt = TwoLevelOptimizer::new(&problem, &view, small_config())
            .optimize()
            .unwrap();
        // Nothing is feasible; the incumbent comparison still returns the
        // cheapest-in-expectation configuration, and the plan must carry
        // the fastest on-demand fallback.
        let fastest = problem.baseline();
        assert_eq!(opt.plan.on_demand.instance_type, fastest.instance_type);
    }

    #[test]
    fn search_space_matches_formula() {
        // evaluations ≈ 1 (OD) + Σ_k C(K,k)·L^k for the chosen κ and L.
        // Loose deadline so no option is pruned for deadline viability and
        // the count reflects the raw search space.
        let (_, mut problem, view) = setup();
        problem.deadline = 100.0;
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 2,
            top_margin: None,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .unwrap();
        let k_total = problem.candidates.len() as u64; // 12
        let l = 2u64;
        let expected = 1 + k_total * l + k_total * (k_total - 1) / 2 * l * l;
        // Unlaunchable bids can reduce the count slightly.
        assert!(
            opt.evaluations_performed <= expected && opt.evaluations_performed > expected / 2,
            "evals {} vs expected {expected}",
            opt.evaluations_performed
        );
    }

    #[test]
    fn interval_ablation_multiplies_search() {
        let (_, problem, view) = setup();
        let phi = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 1,
                bid_levels: 3,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        let grid = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 1,
                bid_levels: 3,
                interval_grid: Some(5),
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        assert!(grid.evaluations_performed > 3 * phi.evaluations_performed);
        // Exhaustive-interval search can be at most marginally better than
        // φ(P) (Theorem 1's premise) — allow it to win, but not by much
        // relative to the on-demand scale.
        assert!(
            grid.evaluation.expected_cost
                <= phi.evaluation.expected_cost + 0.05 * problem.baseline_cost()
        );
    }

    /// Every subset a cursor over `groups` yields at an infinite bound,
    /// which skips nothing, in order.
    fn cursor_subsets(groups: &[usize], k_max: usize) -> Vec<Vec<usize>> {
        let n = groups.len();
        let mut cursor = SubsetCursor::new(groups, k_max, vec![0.0; n], vec![1; n]);
        let mut out = Vec::new();
        while let Some(s) = cursor.next(f64::INFINITY) {
            assert_eq!(s.ordinal, out.len() as u64);
            out.push(s.members.to_vec());
        }
        // An exhausted cursor stays exhausted.
        assert!(cursor.next(f64::INFINITY).is_none());
        out
    }

    #[test]
    fn subset_enumeration_counts() {
        let groups = [0, 1, 2, 3, 4];
        let all = cursor_subsets(&groups, 3);
        let sizes: Vec<usize> = (1..=3)
            .map(|k| all.iter().filter(|s| s.len() == k).count())
            .collect();
        assert_eq!(sizes, [5, 10, 10]); // C(5,1), C(5,2), C(5,3)
        assert_eq!(all.len() as u64, subset_count(5, 3));
    }

    #[test]
    fn subset_enumeration_handles_k_larger_than_n() {
        // `k_max > n` stops at the one n-subset: no position runs past
        // the list (a `usize` underflow would panic here).
        let all = cursor_subsets(&[4, 7, 9], 5);
        assert_eq!(all.len(), 7);
        assert_eq!(all.last().unwrap(), &[4, 7, 9]);
        // An empty list, and `k_max = 0`, yield nothing.
        assert!(cursor_subsets(&[], 1).is_empty());
        assert!(cursor_subsets(&[4, 7, 9], 0).is_empty());
    }

    #[test]
    fn a_repeated_search_repeats_its_plan_and_tallies() {
        use sompi_obs::RingRecorder;

        // Each search is one walker with one `f64` bound: a repeated
        // search gives the same plan and the same skip, rejection and
        // tightening tallies. Only the wall times may differ.
        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 3,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let run = || {
            let ring = RingRecorder::new(TraceLevel::Detail, 16);
            let plan = TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize_with(&mut PlanContext::new().with_recorder(&ring))
                .unwrap();
            let mut events = ring.take();
            for e in &mut events {
                if let Event::PlanSelected {
                    assess_secs,
                    search_secs,
                    evals_per_sec,
                    kernel_nanos,
                    ..
                } = e
                {
                    (*assess_secs, *search_secs, *evals_per_sec, *kernel_nanos) =
                        (0.0, 0.0, 0.0, 0);
                }
            }
            (plan, events)
        };
        let reference = run();
        let Some(Event::PlanSelected {
            evals_skipped,
            bound_tightenings,
            ..
        }) = reference.1.last()
        else {
            panic!("PlanSelected last: {:?}", reference.1);
        };
        assert!(*evals_skipped > 0 && *bound_tightenings > 0);
        assert_eq!(run(), reference);
    }

    #[test]
    fn evals_per_sec_counts_only_evaluated_candidates() {
        use sompi_obs::RingRecorder;

        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 3,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let ring = RingRecorder::new(TraceLevel::Summary, 16);
        TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize_with(&mut PlanContext::new().with_recorder(&ring))
            .unwrap();
        let events = ring.take();
        let Some(&Event::PlanSelected {
            evaluations,
            evals_skipped,
            search_secs,
            evals_per_sec,
            ..
        }) = events.last()
        else {
            panic!("PlanSelected last: {events:?}");
        };
        assert!(evals_skipped > 0 && search_secs > 0.0);
        let evaluated = (evaluations - evals_skipped) as f64;
        let rel = (evals_per_sec * search_secs - evaluated).abs() / evaluated;
        assert!(
            rel <= 1e-9,
            "{evals_per_sec} eval/s over {search_secs} s is not {evaluated} evaluations"
        );
    }

    #[test]
    fn bid_vector_tiebreak_is_a_total_order() {
        assert_eq!(
            cmp_bids([0.5, 0.25].into_iter(), &[0.5, 0.25]),
            Ordering::Equal
        );
        assert_eq!(
            cmp_bids([0.5, 0.2].into_iter(), &[0.5, 0.25]),
            Ordering::Less
        );
        assert_eq!(
            cmp_bids([0.5, 0.3].into_iter(), &[0.5, 0.25]),
            Ordering::Greater
        );
        // A prefix orders before its extensions.
        assert_eq!(cmp_bids([0.5].into_iter(), &[0.5, 0.25]), Ordering::Less);
        assert_eq!(cmp_bids([0.5, 0.25].into_iter(), &[0.5]), Ordering::Greater);
    }
}

#[cfg(test)]
mod search_tests;

#[cfg(test)]
mod chance_constraint_tests {
    use super::*;
    use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
    use ec2_market::market::SpotMarket;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use mpi_sim::npb::{NpbClass, NpbKernel};
    use mpi_sim::storage::S3Store;

    #[test]
    fn min_spot_success_tightens_plans() {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 97), 200.0, 1.0 / 12.0);
        let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
        let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
            .iter()
            .map(|n| market.catalog().by_name(n).unwrap())
            .collect();
        let mut problem = crate::problem::Problem::build(
            &market,
            &profile,
            f64::MAX,
            Some(&types),
            S3Store::paper_2014(),
        );
        problem.deadline = problem.baseline_time() * 1.5;
        let view = crate::view::MarketView::from_market(&market, 0.0, 48.0);

        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..Default::default()
        };
        let strict = OptimizerConfig {
            min_spot_success: Some(0.999),
            ..base
        };
        let free = TwoLevelOptimizer::new(&problem, &view, base)
            .optimize()
            .unwrap();
        let safe = TwoLevelOptimizer::new(&problem, &view, strict)
            .optimize()
            .unwrap();
        // The chance constraint can only restrict the feasible set: cost
        // may not improve, and the chosen plan must satisfy it.
        assert!(safe.evaluation.expected_cost >= free.evaluation.expected_cost - 1e-9);
        assert!(safe.evaluation.p_all_fail <= 0.001 + 1e-9);
    }
}

#[cfg(test)]
mod assess_options_tests {
    use super::search_tests::{stress_market, stress_problem};
    use super::tests::setup;
    use super::*;
    use ec2_market::market::CircleGroupId;

    /// [`assess_group`] as it was before the deadline check moved ahead
    /// of the build: every option's assessment is built, then checked.
    /// The reference the deadline-first loop must equal with `collapse`
    /// set; without it, a shared bid's options are copies of its twin's
    /// carrying their own bid, and no option is dropped as dominated.
    fn reference_assess_group(
        group: &CircleGroup,
        est: &FailureEstimator,
        config: &OptimizerConfig,
        deadline: Hours,
        collapse: bool,
    ) -> GroupOptions {
        let mut out = GroupOptions::default();
        let Some(grid) = bid_grid(est, config) else {
            return out;
        };
        let fixed: Option<Vec<Hours>> = config.interval_grid.map(|n| {
            (1..=n)
                .map(|j| group.exec_hours * j as f64 / n as f64)
                .collect()
        });
        let per_bid = fixed.as_ref().map_or(1, |v| v.len() as u64);
        let horizon = profile_horizon(group, fixed.as_deref());
        let prices = est.expected_spot_price();
        // (admitted samples, bid, first option, option count, pruned) of
        // the last swept bid.
        let mut prev: Option<(usize, f64, usize, usize, u64)> = None;
        for &bid in grid.bids() {
            let admitted = prices.count_at_or_below(bid);
            out.considered += per_bid;
            if let Some((_, twin, start, len, pruned)) = prev.filter(|p| p.0 == admitted) {
                out.shared += 1;
                out.pruned += pruned;
                if collapse && twin > bid {
                    out.dominated += len as u64;
                } else {
                    for i in start..start + len {
                        let mut a = out.options[i].clone();
                        a.decision.bid = bid;
                        out.options.push(a);
                    }
                }
                continue;
            }
            out.swept += 1;
            let start = out.options.len();
            let mut pruned = 0u64;
            if let Some(price) = prices.mean_below(bid) {
                let profile = est.bid_profile(bid, horizon);
                let phi;
                let intervals = match &fixed {
                    Some(v) => v.as_slice(),
                    None => {
                        phi = [interval_from_counts(group, profile.counts())];
                        &phi[..]
                    }
                };
                for &ckpt_interval in intervals {
                    let decision = GroupDecision { bid, ckpt_interval };
                    let a = GroupAssessment::from_profile(*group, decision, price, &profile);
                    if a.completion_wall() <= deadline {
                        out.options.push(a);
                    } else {
                        pruned += 1;
                    }
                }
            }
            out.pruned += pruned;
            prev = Some((admitted, bid, start, out.options.len() - start, pruned));
        }
        if collapse {
            out.dominated += crate::pareto::collapse_bid_dominated(&mut out.options);
        }
        out
    }

    #[test]
    fn deadline_first_assessment_equals_the_build_then_check_reference() {
        let (_, paper, paper_view) = setup();
        let stress = stress_market(7, 400.0);
        let stress_view = MarketView::from_market(&stress, 100.0, 48.0);
        let studies = [
            ("paper", paper, &paper_view),
            ("stress", stress_problem(&stress), &stress_view),
        ];
        let base = OptimizerConfig {
            bid_levels: 12,
            ..OptimizerConfig::default()
        };
        let (mut kept, mut pruned) = (0u64, 0u64);
        for (market, mut problem, view) in studies {
            for factor in [1.05, 1.2, 2.0] {
                problem.deadline = factor * problem.baseline_time();
                for interval_grid in [None, Some(4)] {
                    let cfg = OptimizerConfig {
                        interval_grid,
                        ..base
                    };
                    for group in &problem.candidates {
                        let est = view.try_estimator(group.id).unwrap();
                        let fast = assess_group(group, est, &cfg, problem.deadline);
                        let slow = reference_assess_group(group, est, &cfg, problem.deadline, true);
                        let tag = format!(
                            "{market} ×{factor} grid {interval_grid:?} group {}",
                            group.id
                        );
                        assert_eq!(fast.options, slow.options, "{tag}: options");
                        assert_eq!(counters(&fast), counters(&slow), "{tag}: counters");
                        kept += fast.options.len() as u64;
                        pruned += fast.pruned;
                    }
                }
            }
        }
        // Both outcomes of the deadline check occur.
        assert!(kept > 0 && pruned > 0, "kept {kept}, pruned {pruned}");
    }

    /// The group counters of an assessment, in one tuple.
    fn counters(g: &GroupOptions) -> (u64, u64, u64, u64, u64) {
        (g.considered, g.pruned, g.dominated, g.swept, g.shared)
    }

    #[test]
    fn past_deadline_walk_equals_the_reference_sweep() {
        // Each group of the paper and stress problems at deadlines one
        // ulp below, at, and one ulp above its own run time: below, the
        // grid is walked by admission counts; at and above, it is swept.
        // Both must equal the build-then-check reference, options and
        // counters.
        let (_, paper, paper_view) = setup();
        let stress = stress_market(7, 400.0);
        let stress_view = MarketView::from_market(&stress, 100.0, 48.0);
        let studies = [
            ("paper", paper, &paper_view),
            ("stress", stress_problem(&stress), &stress_view),
        ];
        let base = OptimizerConfig {
            bid_levels: 12,
            ..OptimizerConfig::default()
        };
        let mut walked = 0;
        for (market, problem, view) in studies {
            for group in &problem.candidates {
                let exec = group.exec_hours;
                let below = f64::from_bits(exec.to_bits() - 1);
                let above = f64::from_bits(exec.to_bits() + 1);
                for deadline in [below, exec, above] {
                    for interval_grid in [None, Some(4)] {
                        let cfg = OptimizerConfig {
                            interval_grid,
                            ..base
                        };
                        let est = view.try_estimator(group.id).unwrap();
                        let fast = assess_group(group, est, &cfg, deadline);
                        let slow = reference_assess_group(group, est, &cfg, deadline, true);
                        let tag = format!(
                            "{market} group {} deadline {deadline} grid {interval_grid:?}",
                            group.id
                        );
                        assert_eq!(fast.options, slow.options, "{tag}: options");
                        assert_eq!(counters(&fast), counters(&slow), "{tag}: counters");
                        assert_eq!(fast.past_deadline, deadline < exec, "{tag}");
                        if fast.past_deadline {
                            assert!(fast.options.is_empty() && fast.pruned > 0, "{tag}");
                            walked += 1;
                        }
                    }
                }
            }
        }
        assert!(walked > 0);
    }

    #[test]
    fn past_deadline_counter_counts_the_groups_and_keeps_the_others() {
        use sompi_obs::RingRecorder;

        // `groups_past_deadline` is the number of candidates whose run
        // time exceeds the deadline, and every other `PlanSearchStarted`
        // counter is the reference sweep's total.
        let (_, mut problem, view) = setup();
        let mut walls: Vec<Hours> = problem.candidates.iter().map(|g| g.exec_hours).collect();
        walls.sort_by(f64::total_cmp);
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 12,
            ..OptimizerConfig::default()
        };
        let mut seen = Vec::new();
        for deadline in [
            0.5 * walls[0],
            walls[walls.len() / 2],
            2.0 * walls[walls.len() - 1],
        ] {
            problem.deadline = deadline;
            let ring = RingRecorder::new(TraceLevel::Summary, 16);
            TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize_with(&mut PlanContext::new().with_recorder(&ring))
                .unwrap();
            let events = ring.take();
            let Some(Event::PlanSearchStarted {
                options_considered,
                options_pruned,
                options_dominated,
                profiles_swept,
                profiles_shared,
                groups_past_deadline,
                ..
            }) = events.first()
            else {
                panic!("PlanSearchStarted first: {events:?}");
            };
            let past = problem
                .candidates
                .iter()
                .filter(|g| g.exec_hours > deadline)
                .count() as u64;
            assert_eq!(*groups_past_deadline, past, "deadline {deadline}");
            let mut want = (0, 0, 0, 0, 0);
            for group in &problem.candidates {
                let est = view.try_estimator(group.id).unwrap();
                let c = counters(&reference_assess_group(group, est, &cfg, deadline, true));
                want = (
                    want.0 + c.0,
                    want.1 + c.1,
                    want.2 + c.2,
                    want.3 + c.3,
                    want.4 + c.4,
                );
            }
            assert_eq!(
                (
                    *options_considered,
                    *options_pruned,
                    *options_dominated,
                    *profiles_swept,
                    *profiles_shared
                ),
                want,
                "deadline {deadline}"
            );
            seen.push(past);
        }
        let n = problem.candidates.len() as u64;
        assert_eq!(seen[0], n, "every group past the tightest deadline");
        assert!(seen[1] > 0 && seen[1] < n, "{seen:?}");
        assert_eq!(seen[2], 0);
    }

    /// Grid size `assess_options` should enumerate for one group,
    /// mirroring its span/levels/margin arithmetic.
    fn expected_grid_len(view: &MarketView, cfg: &OptimizerConfig, id: CircleGroupId) -> u64 {
        let max_bid = view.max_bid(id).unwrap();
        assert!(max_bid > 0.0, "fixture group must be launchable");
        let min_price = view.min_price(id).unwrap().max(1e-6);
        let span_levels = ((max_bid / min_price).log2().ceil() as u32 + 1).max(2);
        let levels = span_levels.min(cfg.bid_levels.max(2));
        // `with_top_margin` prepends one guard point above `H_i`.
        levels as u64 + cfg.top_margin.map_or(0, |_| 1)
    }

    #[test]
    fn assess_options_pins_considered_and_pruned_counters() {
        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
        let a = opt.assess_options().unwrap();
        let (options, considered, pruned, dominated) =
            (a.options, a.considered, a.pruned, a.dominated);

        // One candidate decision per grid point (φ fixes the interval, so
        // the interval dimension contributes a factor of exactly 1).
        let expected: u64 = problem
            .candidates
            .iter()
            .map(|g| expected_grid_len(&view, &cfg, g.id))
            .sum();
        assert_eq!(considered, expected);
        let kept: u64 = options.iter().map(|o| o.len() as u64).sum();
        assert!(kept > 0, "loose deadline must keep some options");
        // Every considered decision is kept, deadline-pruned, dominated,
        // or was unassessable (no launch at that bid) — never
        // double-counted.
        assert!(kept + pruned + dominated <= considered);

        // A margin-free grid loses exactly the guard point per group.
        let no_margin = OptimizerConfig {
            top_margin: None,
            ..cfg
        };
        let considered_nm = TwoLevelOptimizer::new(&problem, &view, no_margin)
            .assess_options()
            .unwrap()
            .considered;
        assert_eq!(considered_nm, considered - problem.candidates.len() as u64);
    }

    #[test]
    fn assess_options_deadline_pruning_shows_in_counter() {
        let (_, mut problem, view) = setup();
        // A deadline just above the fastest group's wall forces the slower
        // end of every grid out, without emptying the space.
        problem.deadline = 1.2;
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options()
            .unwrap();
        let kept: u64 = a.options.iter().map(|o| o.len() as u64).sum();
        assert!(a.pruned > 0, "tight deadline must prune something");
        assert!(kept + a.pruned + a.dominated <= a.considered);
    }

    #[test]
    fn assess_options_dominated_counter_matches_kept_delta() {
        // The collapse runs after assessment: against the uncollapsed
        // reference, considered and pruned are untouched, `dominated`
        // accounts exactly for the kept delta, and collapsing the
        // reference's options gives the optimizer's.
        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options()
            .unwrap();
        let (mut considered, mut pruned, mut kept_raw) = (0, 0, 0);
        for (group, opts) in problem.candidates.iter().zip(&a.options) {
            let est = view.try_estimator(group.id).unwrap();
            let mut raw = reference_assess_group(group, est, &cfg, problem.deadline, false);
            assert_eq!(raw.dominated, 0, "group {}", group.id);
            considered += raw.considered;
            pruned += raw.pruned;
            kept_raw += raw.options.len() as u64;
            crate::pareto::collapse_bid_dominated(&mut raw.options);
            assert_eq!(&raw.options, opts, "group {}", group.id);
        }
        assert_eq!((considered, pruned), (a.considered, a.pruned));
        let kept: u64 = a.options.iter().map(|o| o.len() as u64).sum();
        assert_eq!(kept_raw - kept, a.dominated);
        assert!(a.dominated > 0, "the fixture has bid-dominated options");
    }

    #[test]
    fn assess_options_skips_unlaunchable_groups() {
        use ec2_market::failure::FailureEstimator;
        use ec2_market::trace::SpotTrace;
        use std::collections::BTreeMap;

        let (market, problem, _) = setup();
        // Rebuild the view, zeroing out one candidate's price history: a
        // group whose observed max price is 0 has no bid range at all.
        let dead = problem.candidates[0].id;
        let zero_trace = SpotTrace::new(1.0 / 12.0, vec![0.0; 12 * 48]);
        let estimators: BTreeMap<_, _> = market
            .groups()
            .map(|id| {
                let est = if id == dead {
                    FailureEstimator::from_window(zero_trace.window(0.0, 48.0))
                } else {
                    market.try_estimator(id, 0.0, 48.0).unwrap()
                };
                (id, est)
            })
            .collect();
        let view = MarketView::from_estimators(estimators);

        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..OptimizerConfig::default()
        };
        let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
        let a = opt.assess_options().unwrap();
        let (options, considered) = (a.options, a.considered);
        assert!(options[0].is_empty(), "dead group must offer no options");
        // The dead group contributes nothing to `considered` either.
        let expected: u64 = problem.candidates[1..]
            .iter()
            .map(|g| expected_grid_len(&view, &cfg, g.id))
            .sum();
        assert_eq!(considered, expected);
        // The optimizer still produces a plan from the remaining groups.
        let out = opt.optimize().unwrap();
        assert!(out.plan.groups.iter().all(|(g, _)| g.id != dead));
    }

    #[test]
    fn profile_counters_partition_the_grid() {
        use sompi_obs::RingRecorder;

        // paper/BT: every (group, bid) grid point is either swept or
        // shared with the next higher bid admitting the same samples, and
        // the search's `PlanSearchStarted` reports the same split.
        let (_, problem, view) = setup();
        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 12,
            ..OptimizerConfig::default()
        };
        for cfg in [
            base,
            OptimizerConfig {
                interval_grid: Some(4),
                ..base
            },
        ] {
            let grid: u64 = problem
                .candidates
                .iter()
                .map(|g| expected_grid_len(&view, &cfg, g.id))
                .sum();
            let opt = TwoLevelOptimizer::new(&problem, &view, cfg);
            let a = opt.assess_options().unwrap();
            assert_eq!(a.swept + a.shared, grid);
            assert!(
                a.shared > 0,
                "the top-margin bid and H_i admit the same samples"
            );
            // Each grid point contributes one decision per interval.
            let per_bid = cfg.interval_grid.map_or(1, u64::from);
            assert_eq!(a.considered, grid * per_bid);

            let ring = RingRecorder::new(TraceLevel::Summary, 16);
            opt.optimize_with(&mut PlanContext::new().with_recorder(&ring))
                .unwrap();
            let events = ring.take();
            let Some(Event::PlanSearchStarted {
                profiles_swept,
                profiles_shared,
                options_considered,
                ..
            }) = events.first()
            else {
                panic!("PlanSearchStarted first: {events:?}");
            };
            assert_eq!((*profiles_swept, *profiles_shared), (a.swept, a.shared));
            assert_eq!(*options_considered, a.considered);
        }
    }

    #[test]
    fn shared_bids_equal_their_own_assessment() {
        // A shared bid's options are counted as dominated without being
        // built: assessing every grid bid from scratch (each option at its
        // own bid) and collapsing must give exactly the options kept.
        use crate::phi::optimal_interval_for;

        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 12,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options()
            .unwrap();
        assert!(
            a.shared > 0,
            "the top-margin bid and H_i admit the same samples"
        );
        for (group, opts) in problem.candidates.iter().zip(&a.options) {
            let est = view.try_estimator(group.id).unwrap();
            let mut expected: Vec<GroupAssessment> = bid_grid(est, &cfg)
                .unwrap()
                .bids()
                .iter()
                .filter_map(|&bid| {
                    let decision = GroupDecision {
                        bid,
                        ckpt_interval: optimal_interval_for(group, bid, est),
                    };
                    GroupAssessment::assess_with(*group, decision, est)
                })
                .filter(|x| x.completion_wall() <= problem.deadline)
                .collect();
            crate::pareto::collapse_bid_dominated(&mut expected);
            assert_eq!(opts, &expected, "group {}", group.id);
        }
    }

    #[test]
    fn candidate_floor_holds_on_a_long_job() {
        // A long job on the paper market: cheap bids die with near
        // certainty, the regime where the on-demand share of the floor
        // prunes. Every single and pair candidate the search could reach
        // must evaluate at or above its floor.
        use crate::cost::tests::candidate_cost_floor;
        use mpi_sim::npb::{NpbClass, NpbKernel};
        use mpi_sim::storage::S3Store;

        let (market, _, view) = setup();
        let profile = NpbKernel::Lu.profile(NpbClass::B, 128).repeated(2000);
        let mut problem = Problem::build(&market, &profile, 1.0, None, S3Store::paper_2014());
        problem.deadline = 2.0 * problem.baseline_time();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options()
            .unwrap();
        let od = select_on_demand(&problem.on_demand, problem.deadline, cfg.slack);
        let flat: Vec<(usize, &GroupAssessment)> = a
            .options
            .iter()
            .enumerate()
            .flat_map(|(g, opts)| opts.iter().map(move |o| (g, o)))
            .collect();
        let (mut checked, mut doomed) = (0, 0);
        for (x, &(gx, ox)) in flat.iter().enumerate() {
            let pairs = flat[x + 1..]
                .iter()
                .filter(|&&(gy, _)| gy != gx)
                .map(|&(_, oy)| vec![ox, oy]);
            for refs in std::iter::once(vec![ox]).chain(pairs) {
                let floors: Vec<crate::cost::CostFloor> =
                    refs.iter().map(|o| o.cost_floor()).collect();
                let eval = evaluate(&refs, &od);
                let floor = candidate_cost_floor(floors.iter(), &od);
                assert!(
                    floor <= eval.expected_cost,
                    "floor {floor} > cost {}",
                    eval.expected_cost
                );
                checked += 1;
                doomed += (eval.p_all_fail > 0.5) as usize;
            }
        }
        assert!(
            checked > 100 && doomed > 0,
            "{checked} checked, {doomed} doomed"
        );
    }
}
