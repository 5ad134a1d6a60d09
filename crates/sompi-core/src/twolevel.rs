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
    assessment_horizon, candidate_cost_floor, completion_wall, evaluate, evaluate_with_scratch,
    CostFloor, EvalScratch, Evaluation, GroupAssessment,
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
use sompi_obs::{emit, Event, PhaseTimer, TraceLevel};
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
/// assert!(cfg.prune_dominance);    // exact pruning is on by default
/// assert!(cfg.prune_bound);
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
    /// Drop per-group options whose only difference from a surviving
    /// higher-bid option is the bid itself (DESIGN.md §8.1). Exact: the
    /// returned plan, evaluation, and tie-breaks are unchanged. Off
    /// reproduces the raw enumeration (the `evaluations_performed` count
    /// shrinks with the filter on, since dominated options are never
    /// enumerated).
    #[serde(default = "default_true")]
    pub prune_dominance: bool,
    /// Branch-and-bound inside the odometer walk: skip bid-vector
    /// suffixes whose admissible cost lower bound (DESIGN.md §8.2), and
    /// combinations whose whole-candidate floor (§8.5), cannot beat the
    /// incumbent. Exact and count-preserving —
    /// `evaluations_performed` still reports the full enumeration size.
    #[serde(default = "default_true")]
    pub prune_bound: bool,
}

fn default_true() -> bool {
    true
}

impl OptimizerConfig {
    /// Start building a config from the defaults. Preferred over growing
    /// positional constructors as knobs accumulate:
    ///
    /// ```
    /// use sompi_core::OptimizerConfig;
    ///
    /// let cfg = OptimizerConfig::builder().kappa(2).bid_levels(3).build();
    /// assert_eq!(cfg.kappa, 2);
    /// assert_eq!(cfg.slack, OptimizerConfig::default().slack);
    /// ```
    pub fn builder() -> OptimizerConfigBuilder {
        OptimizerConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`OptimizerConfig`]; see [`OptimizerConfig::builder`].
#[derive(Debug, Clone)]
pub struct OptimizerConfigBuilder {
    config: OptimizerConfig,
}

impl OptimizerConfigBuilder {
    /// Set κ, the maximum simultaneous circle groups.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.config.kappa = kappa;
        self
    }

    /// Set the per-group bid grid cap.
    pub fn bid_levels(mut self, levels: u32) -> Self {
        self.config.bid_levels = levels;
        self
    }

    /// Set the on-demand selection slack.
    pub fn slack(mut self, slack: f64) -> Self {
        self.config.slack = slack;
        self
    }

    /// Set the bid grid shape.
    pub fn grid(mut self, grid: GridKind) -> Self {
        self.config.grid = grid;
        self
    }

    /// Set (or clear) the above-maximum guard grid point.
    pub fn top_margin(mut self, margin: Option<f64>) -> Self {
        self.config.top_margin = margin;
        self
    }

    /// Set (or clear) the Theorem-1 ablation interval grid.
    pub fn interval_grid(mut self, grid: Option<u32>) -> Self {
        self.config.interval_grid = grid;
        self
    }

    /// Set (or clear) the minimum spot-success probability constraint.
    pub fn min_spot_success(mut self, q: Option<f64>) -> Self {
        self.config.min_spot_success = q;
        self
    }

    /// Toggle the bid-collapse dominance filter.
    pub fn prune_dominance(mut self, on: bool) -> Self {
        self.config.prune_dominance = on;
        self
    }

    /// Toggle branch-and-bound pruning.
    pub fn prune_bound(mut self, on: bool) -> Self {
        self.config.prune_bound = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> OptimizerConfig {
        self.config
    }
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
            prune_dominance: true,
            prune_bound: true,
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
    /// Times a feasible candidate lowered the incumbent cost bound.
    tightenings: u64,
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

/// A swept bid whose options later grid bids may share.
struct Admission {
    /// Samples the bid admits.
    admitted: usize,
    bid: f64,
    /// Its surviving options: `options[start..start + len]`.
    start: usize,
    len: usize,
    pruned: u64,
}

/// Assess one candidate group over its bid grid: one
/// [`FailureEstimator::bid_profile`] sweep per grid bid gives φ's MTTF
/// and every interval's assessment by exact truncation.
///
/// A grid bid that admits as many samples as the previous, higher one
/// (`count_at_or_below`) admits exactly the same samples — no price lies
/// between them — so its profile, φ and assessments are identical and
/// its options are the higher bid's with `decision.bid` replaced, copied
/// without a sweep. When the bid-collapse filter is on, such copies are
/// exactly the options it would drop (same state, lower bid), so they
/// are counted as dominated without being built. Either way the counters
/// and the option list equal assessing every bid on its own.
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
        if let Some(p) = prev.as_ref().filter(|p| p.admitted == admitted) {
            out.shared += 1;
            out.pruned += p.pruned;
            if config.prune_dominance && p.bid > bid {
                out.dominated += p.len as u64;
            } else {
                for i in p.start..p.start + p.len {
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
            bid,
            start,
            len: out.options.len() - start,
            pruned,
        });
    }
    if config.prune_dominance {
        // Exact: grids enumerate bids highest-first, which is the
        // descending order the collapse requires, and a dropped option's
        // higher-bid twin wins every tie it could have won (DESIGN.md
        // §8.1).
        out.dominated += crate::pareto::collapse_bid_dominated(&mut out.options);
    }
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
    /// same [`PlanContext`] the adaptive planner and [`crate::policy`]
    /// use). Only `ctx.recorder` matters here; the rest is ignored. It
    /// receives one `PlanSearchStarted`, one `SubsetEvaluated` (Detail
    /// level) and one `PlanSelected`. The hot candidate loop only
    /// increments local `u64` counters; events are built outside it.
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
            evals_per_sec: if search_secs > 0.0 {
                evaluations as f64 / search_secs
            } else {
                0.0
            },
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
    /// odometer, an [`EvalScratch`], an incumbent, and an evaluation
    /// counter. A subset's index in that order enters the enumeration
    /// ordinal, so ordinals are unique.
    ///
    /// With [`OptimizerConfig::prune_bound`] on, each subset runs a
    /// branch-and-bound walk (DESIGN.md §8.2) over its slots' options
    /// rank-sorted by the admissible per-group lower bound
    /// [`GroupAssessment::cost_lower_bound`], read from the search's
    /// shared `tables`: a subset whose slots' smallest bounds already sum
    /// above the incumbent cost is rejected whole before any set-up, and
    /// in the walk whole rank suffixes whose summed lower bound exceeds
    /// the incumbent cost are skipped without evaluation; a combination
    /// that passes is still skipped when its whole-candidate floor, which
    /// adds the on-demand recovery share (DESIGN.md §8.5), exceeds the
    /// incumbent cost.
    /// The bound starts at `seed_bound`, the on-demand incumbent's cost.
    /// Pruning never removes a candidate that could win under the total
    /// order, so the returned incumbent — and with it the
    /// [`OptimizedPlan`] — is bit-identical to the exhaustive walk. The
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
        let mut subsets_walked = 0u64;
        let mut skipped = 0u64;
        let mut rejected = 0u64;
        let mut tightenings = 0u64;
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
        // Each option's whole-candidate floor tables, built the first time
        // a combination holding the option survives the per-slot bound.
        let option_base: Vec<usize> = options
            .iter()
            .scan(0, |base, opts| {
                let at = *base;
                *base += opts.len();
                Some(at)
            })
            .collect();
        let mut floors: Vec<Option<Box<CostFloor>>> =
            vec![None; options.iter().map(Vec::len).sum()];

        let mut subsets = SubsetCursor::new(with_options, self.config.kappa);
        while let Some(chosen) = subsets.next() {
            let subset_ordinal = subsets_walked as usize;
            subsets_walked += 1;
            let product: u64 = chosen
                .iter()
                .map(|&g| options[g].len() as u64)
                .fold(1, u64::saturating_mul);
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
            if self.config.prune_bound && tables.head(chosen, level) > bound {
                skipped += product;
                rejected += 1;
                continue;
            }
            let subset_timer = std::time::Instant::now();

            if !self.config.prune_bound {
                // Exhaustive odometer walk — the pre-pruning algorithm,
                // kept verbatim as the ablation baseline.
                idx.clear();
                idx.resize(chosen.len(), 0);
                let mut step = 0u64;
                let mut exhausted = false;
                while !exhausted {
                    refs.clear();
                    refs.extend(chosen.iter().zip(&idx).map(|(&g, &i)| &options[g][i]));
                    let eval = evaluate_with_scratch(&refs, od, &mut scratch);
                    let feasible = eval.meets(self.problem.deadline)
                        && self
                            .config
                            .min_spot_success
                            .map(|q| eval.p_all_fail <= 1.0 - q)
                            .unwrap_or(true);
                    feasible_hits += feasible as u64;
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
                            idx: idx.clone(),
                            ordinal,
                        });
                    }
                    step += 1;
                    // Advance odometer.
                    let mut pos = 0;
                    loop {
                        if pos == idx.len() {
                            exhausted = true;
                            break;
                        }
                        idx[pos] += 1;
                        if idx[pos] < options[chosen[pos]].len() {
                            break;
                        }
                        idx[pos] = 0;
                        pos += 1;
                    }
                }
                kernel_nanos += subset_timer.elapsed().as_nanos() as u64;
                continue;
            }

            // Branch-and-bound walk over the same combinations, on the
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

            // `idx` now holds per-slot *ranks* into `slots`, not
            // original option indices; ordinals and the stored candidate
            // are translated back through `slots[slot][rank].1`.
            idx.clear();
            idx.resize(m, 0);
            let mut evaluated_here = 0u64;
            let mut exhausted = false;
            while !exhausted {
                let lb_total: f64 = (0..m).map(|s| slots[s][idx[s]].0).sum();
                if lb_total > bound {
                    // Prune. Advance at the highest slot `h` whose fixed
                    // tail is already hopeless: every combination keeping
                    // ranks `h..` has lower bound ≥ head_min[h] +
                    // suffix(h), so all of them can be skipped at once.
                    // The condition is not monotone in the slot (the
                    // suffix shrinks while the head grows), so scan all
                    // slots; `h = 0` degenerates to skipping just the
                    // current combination.
                    let mut h = 0usize;
                    let mut suffix = lb_total;
                    for s in 1..=m {
                        suffix -= slots[s - 1][idx[s - 1]].0;
                        if head_min[s] + suffix > bound {
                            h = s;
                        }
                    }
                    // At `h == m` even the all-minima combination is over
                    // bound: the rest of this subset is hopeless.
                    exhausted = !advance_ranks(&mut idx, &lens, h);
                    continue;
                }
                // Whole-candidate floor (DESIGN.md §8.5): tighter than the
                // per-slot sum, and O(k) next to an evaluation. A
                // combination over the bound is skipped like a pruned one.
                for (slot, &g) in chosen.iter().enumerate() {
                    let i = slots[slot][idx[slot]].1;
                    floors[option_base[g] + i]
                        .get_or_insert_with(|| Box::new(options[g][i].cost_floor()));
                }
                let picked = chosen.iter().enumerate().filter_map(|(slot, &g)| {
                    floors[option_base[g] + slots[slot][idx[slot]].1].as_deref()
                });
                if candidate_cost_floor(picked, od) > bound {
                    exhausted = !advance_ranks(&mut idx, &lens, 0);
                    continue;
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
        SearchStats {
            evaluations,
            feasible: feasible_hits,
            subsets: subsets_walked,
            skipped,
            rejected,
            tightenings,
            kernel_nanos,
            best,
        }
    }
}

/// Advance the rank odometer (slot 0 fastest, slot `s` below `lens[s]`)
/// at slot `from`, resetting the slots below it — skipping every
/// combination that keeps the ranks of slots `from..`. Returns `false`
/// when the odometer runs out.
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

/// The k-subsets, `1 ≤ k ≤ k_max`, of a list of groups, k ascending and
/// lexicographic within k, walked in place: the cursor keeps the current
/// subset's positions in the list and its members, and steps both to the
/// next subset, so no subset is stored.
struct SubsetCursor<'a> {
    groups: &'a [usize],
    k_max: usize,
    /// Positions of the current subset's members in `groups`, ascending.
    pos: Vec<usize>,
    /// The current subset: `groups[pos[i]]` for each `i`.
    members: Vec<usize>,
}

impl<'a> SubsetCursor<'a> {
    /// A cursor before the first subset of `groups` of up to `k_max`
    /// members.
    fn new(groups: &'a [usize], k_max: usize) -> Self {
        let k_max = k_max.min(groups.len());
        Self {
            groups,
            k_max,
            pos: Vec::with_capacity(k_max),
            members: Vec::with_capacity(k_max),
        }
    }

    /// Step to the next subset and return it; `None` once every subset
    /// was visited.
    fn next(&mut self) -> Option<&[usize]> {
        let (n, k) = (self.groups.len(), self.pos.len());
        // The last position that can still move right: position `i` of a
        // k-subset goes up to `n - k + i`.
        match (0..k).rev().find(|&i| self.pos[i] < n - k + i) {
            Some(i) => {
                self.pos[i] += 1;
                for j in i + 1..k {
                    self.pos[j] = self.pos[j - 1] + 1;
                }
            }
            // The k-subsets are done: the first (k + 1)-subset is next.
            None if k < self.k_max => {
                self.pos.clear();
                self.pos.extend(0..=k);
            }
            None => return None,
        }
        self.members.clear();
        self.members
            .extend(self.pos.iter().map(|&p| self.groups[p]));
        Some(&self.members)
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
        let (_, problem, view) = setup();
        let cheap = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 2,
                bid_levels: 2,
                // Dominance collapse can shrink a richer grid back down to
                // the same option count; this test pins the *raw* space.
                prune_dominance: false,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        let rich = TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig {
                kappa: 2,
                bid_levels: 5,
                prune_dominance: false,
                ..OptimizerConfig::default()
            },
        )
        .optimize()
        .unwrap();
        // The 5-level grid contains the 2-level grid, so the optimum can
        // only improve.
        assert!(rich.evaluation.expected_cost <= cheap.evaluation.expected_cost + 1e-9);
        assert!(rich.evaluations_performed > cheap.evaluations_performed);
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

    /// Every subset a cursor over `groups` yields, in order.
    fn cursor_subsets(groups: &[usize], k_max: usize) -> Vec<Vec<usize>> {
        let mut cursor = SubsetCursor::new(groups, k_max);
        let mut out = Vec::new();
        while let Some(s) = cursor.next() {
            out.push(s.to_vec());
        }
        // An exhausted cursor stays exhausted.
        assert!(cursor.next().is_none());
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
    fn thread_count_does_not_change_the_result() {
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
    /// The reference the deadline-first loop must equal.
    fn reference_assess_group(
        group: &CircleGroup,
        est: &FailureEstimator,
        config: &OptimizerConfig,
        deadline: Hours,
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
        let mut prev: Option<Admission> = None;
        for &bid in grid.bids() {
            let admitted = prices.count_at_or_below(bid);
            out.considered += per_bid;
            if let Some(p) = prev.as_ref().filter(|p| p.admitted == admitted) {
                out.shared += 1;
                out.pruned += p.pruned;
                if config.prune_dominance && p.bid > bid {
                    out.dominated += p.len as u64;
                } else {
                    for i in p.start..p.start + p.len {
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
            prev = Some(Admission {
                admitted,
                bid,
                start,
                len: out.options.len() - start,
                pruned,
            });
        }
        if config.prune_dominance {
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
                    for prune_dominance in [true, false] {
                        let cfg = OptimizerConfig {
                            interval_grid,
                            prune_dominance,
                            ..base
                        };
                        for group in &problem.candidates {
                            let est = view.try_estimator(group.id).unwrap();
                            let fast = assess_group(group, est, &cfg, problem.deadline);
                            let slow = reference_assess_group(group, est, &cfg, problem.deadline);
                            let tag = format!(
                                "{market} ×{factor} grid {interval_grid:?} \
                                 collapse {prune_dominance} group {}",
                                group.id
                            );
                            assert_eq!(fast.options, slow.options, "{tag}: options");
                            assert_eq!(
                                (
                                    fast.considered,
                                    fast.pruned,
                                    fast.dominated,
                                    fast.swept,
                                    fast.shared
                                ),
                                (
                                    slow.considered,
                                    slow.pruned,
                                    slow.dominated,
                                    slow.swept,
                                    slow.shared
                                ),
                                "{tag}: counters"
                            );
                            kept += fast.options.len() as u64;
                            pruned += fast.pruned;
                        }
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
                        for prune_dominance in [true, false] {
                            let cfg = OptimizerConfig {
                                interval_grid,
                                prune_dominance,
                                ..base
                            };
                            let est = view.try_estimator(group.id).unwrap();
                            let fast = assess_group(group, est, &cfg, deadline);
                            let slow = reference_assess_group(group, est, &cfg, deadline);
                            let tag = format!(
                                "{market} group {} deadline {deadline} grid {interval_grid:?} \
                                 collapse {prune_dominance}",
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
                let c = counters(&reference_assess_group(group, est, &cfg, deadline));
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
            prune_dominance: false,
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
        assert_eq!(dominated, 0, "collapse disabled, nothing may be dropped");
        let kept: u64 = options.iter().map(|o| o.len() as u64).sum();
        assert!(kept > 0, "loose deadline must keep some options");
        // Every considered decision is kept, deadline-pruned, or was
        // unassessable (no launch at that bid) — never double-counted.
        assert!(kept + pruned <= considered);

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
            prune_dominance: false,
            ..OptimizerConfig::default()
        };
        let a = TwoLevelOptimizer::new(&problem, &view, cfg)
            .assess_options()
            .unwrap();
        let (options, considered, pruned) = (a.options, a.considered, a.pruned);
        let kept: u64 = options.iter().map(|o| o.len() as u64).sum();
        assert!(pruned > 0, "tight deadline must prune something");
        assert!(kept + pruned <= considered);
    }

    #[test]
    fn assess_options_dominated_counter_matches_kept_delta() {
        let (_, problem, view) = setup();
        let base = OptimizerConfig {
            kappa: 2,
            bid_levels: 6,
            ..OptimizerConfig::default()
        };
        let raw = OptimizerConfig {
            prune_dominance: false,
            ..base
        };
        let a_raw = TwoLevelOptimizer::new(&problem, &view, raw)
            .assess_options()
            .unwrap();
        let (opts_raw, considered_raw, pruned_raw, dominated_raw) = (
            a_raw.options,
            a_raw.considered,
            a_raw.pruned,
            a_raw.dominated,
        );
        let a_dom = TwoLevelOptimizer::new(&problem, &view, base)
            .assess_options()
            .unwrap();
        let (opts_dom, considered_dom, pruned_dom, dominated_dom) = (
            a_dom.options,
            a_dom.considered,
            a_dom.pruned,
            a_dom.dominated,
        );
        // The collapse runs after assessment: considered/pruned are
        // untouched, and `dominated` accounts exactly for the kept delta.
        assert_eq!(considered_raw, considered_dom);
        assert_eq!(pruned_raw, pruned_dom);
        assert_eq!(dominated_raw, 0);
        let kept_raw: u64 = opts_raw.iter().map(|o| o.len() as u64).sum();
        let kept_dom: u64 = opts_dom.iter().map(|o| o.len() as u64).sum();
        assert_eq!(kept_raw - kept_dom, dominated_dom);
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
            OptimizerConfig {
                prune_dominance: false,
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
        // With the collapse off, shared bids are enumerated: each option
        // must be exactly what assessing its own bid from scratch gives
        // (the copy carries its own bid, not its twin's).
        use crate::phi::optimal_interval_for;

        let (_, problem, view) = setup();
        let cfg = OptimizerConfig {
            kappa: 2,
            bid_levels: 12,
            prune_dominance: false,
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
            let expected: Vec<GroupAssessment> = bid_grid(est, &cfg)
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
            assert_eq!(opts, &expected, "group {}", group.id);
        }
    }

    #[test]
    fn candidate_floor_holds_on_a_long_job() {
        // A long job on the paper market: cheap bids die with near
        // certainty, the regime where the on-demand share of the floor
        // prunes. Every single and pair candidate the search could reach
        // must evaluate at or above its floor.
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
                let floors: Vec<CostFloor> = refs.iter().map(|o| o.cost_floor()).collect();
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
