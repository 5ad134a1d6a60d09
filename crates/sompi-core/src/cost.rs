//! The expected monetary cost and execution time model — Formulas 1–11.
//!
//! The paper defines
//!
//! ```text
//! E[Cost] = Σ_{t⃗} f(P⃗, t⃗) · Cost(t⃗, F⃗, d)        (Formula 2)
//! f(P⃗, t⃗) = Π_i f_i(P_i, t_i)                      (Formula 3, independence)
//! ```
//!
//! with `t_i` the hour bucket in which circle group `i` suffers its first
//! out-of-bid event (`t_i = T_i` meaning "completes"). A naive sum is
//! `O(T^K)`. Because (a) completed groups end at a *deterministic* wall
//! time `W_i = T_i + O_i·⌊T_i/F_i⌋` and (b) failure times are independent
//! across groups, the sum factors exactly over the `2^K` complete/fail
//! patterns:
//!
//! * For a pattern with completing set `C ≠ ∅` the run ends at
//!   `W* = min_{i∈C} W_i` (the paper's hybrid rule: the first finished
//!   replica wins and everything else is terminated). Each failed group's
//!   contribution `E[min(e_j, W*) | j fails]` is a 1-D sum.
//! * For the all-fail pattern, `E[max_j e_j]` (Formula 10) and
//!   `E[min_j Ratio_j]` (Formulas 7/11) are computed from products of
//!   per-group CDFs — again 1-D.
//!
//! Total: `O(2^K · K · T)` exact, no sampling — and the kernel tightens
//! that to `O(K² · T + 2^K · K)` by memoizing the per-candidate caps
//! table (see below). `replay` cross-checks this model against
//! Monte-Carlo trace replay (the paper's §5.4.1 accuracy study, max
//! relative difference ≈ 15%).
//!
//! # Hot-path design
//!
//! [`evaluate`] is called once per candidate configuration by the odometer
//! loop in [`crate::twolevel`] — millions of times at paper scale. Three
//! things keep it fast and allocation-free per call:
//!
//! * It borrows its groups (`&[&GroupAssessment]`), so callers compose
//!   candidates from pre-assessed options without cloning `fail_buckets`.
//! * Every per-bucket quantity (`fail_wall`, billed floors, remaining
//!   ratios) is precomputed once in [`GroupAssessment::from_parts`] and
//!   looked up in the loops; every buffer the kernel needs lives in a
//!   caller-reusable [`EvalScratch`].
//! * The winner wall `w*` can only take one of the ≤ `K` completion
//!   walls, so the kernel memoizes each group's `E[billed | fail, cap]`
//!   at every attainable wall once per candidate (a `K × K` table)
//!   instead of rescanning the `T` fail buckets in every one of the
//!   `2^K − 1` patterns, and the all-fail pattern reads its conditional
//!   CDFs off per-group prefix sums. Both memos add the same terms in the
//!   same order as the direct definitions, so results are bit-identical
//!   to them; the test module keeps that direct scalar kernel as the
//!   oracle (DESIGN.md §14).

use crate::error::SompiError;
use crate::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use crate::view::MarketView;
use crate::{Hours, Usd};
use ec2_market::failure::{BidProfile, FailureEstimator};
use serde::{Deserialize, Serialize};

/// Tolerance for probability-mass conservation: `survival + Σ fail_buckets`
/// may drift from 1 by at most this before the tail is renormalized.
const MASS_TOLERANCE: f64 = 1e-9;

/// Everything the evaluator needs to know about one circle group at one
/// realized bid price: the paper's `f_i(P_i, ·)` and `S_i(P_i)` plus the
/// group constants, with every per-bucket quantity precomputed so that
/// [`evaluate`] is pure table lookups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupAssessment {
    /// The group and its constants.
    pub group: CircleGroup,
    /// The decision (bid + checkpoint interval) this assessment is for.
    pub decision: GroupDecision,
    /// `S_i(P_i)`: expected spot price while running, USD/instance-hour.
    pub expected_price: Usd,
    /// P[group survives until it completes the application].
    pub survival: f64,
    /// Unconditional failure probabilities per hour bucket `[t, t+1)`,
    /// covering the group's full wall-clock horizon (measured from launch).
    /// Always satisfies `survival + Σ fail_buckets ≈ 1`.
    pub fail_buckets: Vec<f64>,
    /// Expected wait before the group can launch at this bid ("otherwise
    /// it waits"). Shifts every wall-clock quantity; costs nothing (idle
    /// requests are not billed).
    pub launch_delay: Hours,
    /// Precomputed `fail_wall(t)` per bucket: wall-clock failure instant
    /// including launch delay.
    wall_at_bucket: Vec<Hours>,
    /// Precomputed `fail_run_wall(t)` per bucket: billed running time until
    /// the bucket-`t` failure (no launch delay).
    run_wall_at_bucket: Vec<Hours>,
    /// Precomputed `fail_run_wall(t).floor()` per bucket: billed hours of a
    /// provider kill (partial last hour free under 2014 billing).
    billed_floor_at_bucket: Vec<Hours>,
    /// Precomputed `fail_ratio(t)` per bucket: remaining work fraction.
    ratio_at_bucket: Vec<f64>,
}

/// Wall-clock end time of `group` completing under `decision` after
/// `launch_delay`: the delay plus `W_i`. [`GroupAssessment::completion_wall`]
/// and the optimizer's deadline check share it, so an option can be
/// checked against the deadline before its assessment is built.
pub(crate) fn completion_wall(
    group: &CircleGroup,
    decision: &GroupDecision,
    launch_delay: Hours,
) -> Hours {
    launch_delay + group.completion_wall_hours(decision.ckpt_interval)
}

impl GroupAssessment {
    /// Assess `group` under `decision` against market history.
    ///
    /// Returns `Ok(None)` when the bid admits no launch at all (no
    /// historical price at or below it) — such a group cannot be part of a
    /// plan — and `Err` when the view has no history for the group.
    pub fn assess(
        group: CircleGroup,
        decision: GroupDecision,
        view: &MarketView,
    ) -> Result<Option<Self>, SompiError> {
        let est = view.try_estimator(group.id)?;
        Ok(Self::assess_with(group, decision, est))
    }

    /// [`GroupAssessment::assess`] with the estimator already in hand:
    /// one [`FailureEstimator::bid_profile`] sweep at the decision's
    /// bid.
    pub fn assess_with(
        group: CircleGroup,
        decision: GroupDecision,
        est: &FailureEstimator,
    ) -> Option<Self> {
        let expected_price = est.expected_spot_price().mean_below(decision.bid)?;
        let profile = est.bid_profile(decision.bid, assessment_horizon(&group, &decision));
        Some(Self::from_profile(
            group,
            decision,
            expected_price,
            &profile,
        ))
    }

    /// Build the assessment from a bid profile recorded at a horizon of at
    /// least [`assessment_horizon`]: the counts truncate to that horizon
    /// exactly, so the result equals [`GroupAssessment::assess_with`]'s
    /// bit for bit.
    pub(crate) fn from_profile(
        group: CircleGroup,
        decision: GroupDecision,
        expected_price: Usd,
        profile: &BidProfile,
    ) -> Self {
        let f = profile
            .counts()
            .to_fn(assessment_horizon(&group, &decision));
        let survival = f.survival();
        Self::from_parts(
            group,
            decision,
            expected_price,
            survival,
            f.into_buckets(),
            profile.launch_delay(),
        )
    }

    /// Build an assessment from raw parts, restoring probability-mass
    /// conservation and precomputing the per-bucket tables.
    ///
    /// Estimators that truncate the failure horizon drop tail mass; the
    /// dropped mass is folded back proportionally into the failure buckets
    /// so that `survival + Σ fail_buckets = 1` always holds (a violated
    /// invariant would silently skew every expectation downstream).
    pub fn from_parts(
        group: CircleGroup,
        decision: GroupDecision,
        expected_price: Usd,
        survival: f64,
        mut fail_buckets: Vec<f64>,
        launch_delay: Hours,
    ) -> Self {
        let bucket_mass: f64 = fail_buckets.iter().sum();
        let target = 1.0 - survival;
        if bucket_mass > 0.0 && (bucket_mass - target).abs() > MASS_TOLERANCE {
            let scale = target / bucket_mass;
            for b in &mut fail_buckets {
                *b *= scale;
            }
        }
        debug_assert!(
            bucket_mass <= 0.0 || (survival + fail_buckets.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "probability mass not conserved: survival {survival} + buckets {}",
            fail_buckets.iter().sum::<f64>()
        );

        let w = group.completion_wall_hours(decision.ckpt_interval);
        let n = fail_buckets.len();
        let mut wall_at_bucket = Vec::with_capacity(n);
        let mut run_wall_at_bucket = Vec::with_capacity(n);
        let mut billed_floor_at_bucket = Vec::with_capacity(n);
        let mut ratio_at_bucket = Vec::with_capacity(n);
        for t in 0..n {
            let tau = t as f64 + 0.5;
            // Wall time ≈ productive time within the horizon: checkpoints
            // already consumed some of it. Invert approximately by scaling.
            let productive = if w > 0.0 {
                tau * group.exec_hours / w
            } else {
                tau
            };
            let productive = productive.min(group.exec_hours);
            let run_wall = group
                .wall_at_failure(productive, decision.ckpt_interval)
                .min(w);
            wall_at_bucket.push(launch_delay + run_wall);
            run_wall_at_bucket.push(run_wall);
            billed_floor_at_bucket.push(run_wall.floor());
            ratio_at_bucket.push(group.remaining_ratio(productive, decision.ckpt_interval));
        }

        Self {
            group,
            decision,
            expected_price,
            survival,
            fail_buckets,
            launch_delay,
            wall_at_bucket,
            run_wall_at_bucket,
            billed_floor_at_bucket,
            ratio_at_bucket,
        }
    }

    /// Probability the group fails before completing.
    pub fn prob_fail(&self) -> f64 {
        1.0 - self.survival
    }

    /// Wall-clock end time when completing: launch delay + `W_i`.
    pub fn completion_wall(&self) -> Hours {
        completion_wall(&self.group, &self.decision, self.launch_delay)
    }

    /// Running wall time (excluding launch delay) the group's own horizon
    /// spans: `W_i` without the delay.
    fn run_wall(&self) -> Hours {
        self.group
            .completion_wall_hours(self.decision.ckpt_interval)
    }

    /// Representative wall-clock failure instant (from the start offset,
    /// including launch delay) for bucket `t` (bucket midpoint).
    fn fail_wall(&self, t: usize) -> Hours {
        self.wall_at_bucket[t]
    }

    /// Productive progress ratio remaining after a failure in bucket `t`.
    fn fail_ratio(&self, t: usize) -> f64 {
        self.ratio_at_bucket[t]
    }

    /// Hourly spot cost of the whole group (all `M_i` instances).
    fn hourly_cost(&self) -> Usd {
        self.expected_price * self.group.instances as f64
    }

    /// `E[min(e_j, cap) | fail]` — expected *billed* hours for a failed
    /// group that gets terminated by the user at absolute time `cap` if
    /// still alive, under 2014 hourly billing: an out-of-bid (provider)
    /// kill gets its last partial hour free (`floor`), a user termination
    /// is charged the started hour (`ceil`). Launch delay defers the
    /// billing window but is itself free.
    fn expected_billed_capped(&self, cap: Hours) -> Hours {
        let run_cap = (cap - self.launch_delay).max(0.0);
        let pf = self.prob_fail();
        if pf <= 0.0 {
            return run_cap.ceil().min(self.run_wall().ceil());
        }
        let run_cap_ceil = run_cap.ceil();
        let mut acc = 0.0;
        for (t, p) in self.fail_buckets.iter().enumerate() {
            let billed = if self.run_wall_at_bucket[t] <= run_cap {
                self.billed_floor_at_bucket[t] // provider kill: partial hour free
            } else {
                run_cap_ceil // user kill at the winner's completion
            };
            acc += p * billed;
        }
        acc / pf
    }

    /// `E[billed hours | fail]` until the out-of-bid event (provider
    /// kill: partial last hour free).
    fn expected_billed(&self) -> Hours {
        self.expected_billed_capped(f64::INFINITY)
    }

    /// Whether two assessments of the *same group* are indistinguishable
    /// to [`evaluate`]: identical in every field the evaluator reads —
    /// which is everything except `decision.bid`. Two bids with no
    /// historical price strictly between them produce bitwise-identical
    /// assessments (same launch set, same failure function, same φ), and
    /// then only the higher bid can win under the optimizer's total order
    /// (higher bids break cost ties). That makes the lower bid safe to
    /// drop before enumeration — the bid-collapse dominance filter in
    /// [`crate::pareto::collapse_bid_dominated`].
    pub fn eval_equivalent(&self, other: &Self) -> bool {
        self.group == other.group
            && self.decision.ckpt_interval == other.decision.ckpt_interval
            && self.expected_price == other.expected_price
            && self.survival == other.survival
            && self.launch_delay == other.launch_delay
            && self.fail_buckets == other.fail_buckets
            && self.wall_at_bucket == other.wall_at_bucket
            && self.run_wall_at_bucket == other.run_wall_at_bucket
            && self.billed_floor_at_bucket == other.billed_floor_at_bucket
            && self.ratio_at_bucket == other.ratio_at_bucket
    }

    /// Admissible lower bound on this option's additive contribution to
    /// `E[Cost]` in *any* candidate containing it, given that no group in
    /// the candidate can complete before wall time `w_min`.
    ///
    /// Derivation (`r = hourly_cost`, `cap = ⌈(w_min − delay)₊⌉`):
    ///
    /// * In every pattern where the group survives (total probability
    ///   `survival`), it is billed
    ///   `⌈clamp(w* − delay, 0, run_wall)⌉` hours with `w* ≥ w_min`, and
    ///   that expression is monotone in `w*`.
    /// * In every pattern where it fails in bucket `t` (total probability
    ///   `fail_buckets[t]`), it is billed either the provider-kill floor
    ///   `billed_floor[t]` or the user-kill `⌈(w* − delay)₊⌉ ≥ cap`; both
    ///   branches are ≥ `min(billed_floor[t], cap)`. The all-fail pattern
    ///   bills the floor and adds a nonnegative on-demand recovery cost.
    ///
    /// Summing the per-group bounds over a candidate therefore never
    /// exceeds its true expected cost — the branch-and-bound prune in
    /// `twolevel::search_chunk` is exact.
    pub fn cost_lower_bound(&self, w_min: Hours) -> Usd {
        let run_cap = (w_min - self.launch_delay).max(0.0);
        let surv_hours = run_cap.min(self.run_wall()).ceil();
        let cap_ceil = run_cap.ceil();
        let mut fail_hours = 0.0;
        for (t, p) in self.fail_buckets.iter().enumerate() {
            fail_hours += p * self.billed_floor_at_bucket[t].min(cap_ceil);
        }
        self.hourly_cost() * (self.survival * surv_hours + fail_hours)
    }

    /// This option's tables for [`candidate_cost_floor`]: its
    /// [`GroupAssessment::cost_lower_bound`] at every whole-hour cap, and
    /// the tail of its remaining-work ratio on a fixed grid. O(T) to
    /// build. An option with a negative or non-finite failure bucket or
    /// billed floor gets an unusable floor: no candidate holding it is
    /// bounded.
    pub(crate) fn cost_floor(&self) -> CostFloor {
        let mut max_floor = 0usize;
        for (&p, &f) in self.fail_buckets.iter().zip(&self.billed_floor_at_bucket) {
            if !(p.is_finite() && p >= 0.0 && (0.0..=MAX_FLOOR_HOURS).contains(&f)) {
                return CostFloor {
                    usable: false,
                    wall: 0.0,
                    delay: 0.0,
                    run_wall_ceil: 0.0,
                    hourly: 0.0,
                    survival: 0.0,
                    prob_fail: 0.0,
                    fail_hours: vec![0.0],
                    tail: [0.0; TAIL_POINTS],
                };
            }
            max_floor = max_floor.max(f as usize);
        }
        // Failure mass and billed mass per whole billed hour, then
        // fail_hours[c] = Σ_{f<c} f·mass[f] + c·Σ_{f≥c} mass[f]
        // = Σ_t p_t·min(floor_t, c). Both running sums add nonnegative
        // terms only.
        let mut mass = vec![0.0; max_floor + 1];
        let mut billed = vec![0.0; max_floor + 1];
        for (&p, &f) in self.fail_buckets.iter().zip(&self.billed_floor_at_bucket) {
            mass[f as usize] += p;
            billed[f as usize] += p * f;
        }
        let mut fail_hours = vec![0.0; max_floor + 1];
        let mut above = 0.0;
        for c in (0..=max_floor).rev() {
            above += mass[c];
            fail_hours[c] = above;
        }
        let mut below = 0.0;
        for c in 0..=max_floor {
            fail_hours[c] = below + c as f64 * fail_hours[c];
            below += billed[c];
        }

        // tail[i] = P[ratio ≥ (i+1)/TAIL_POINTS | fail]. TAIL_POINTS is a
        // power of two, so `ratio · TAIL_POINTS` is exact and its floor
        // is the number of grid points at or below the ratio.
        let mut tail = [0.0; TAIL_POINTS];
        let pf = self.prob_fail();
        if pf > 0.0 {
            let mut cells = [0.0; TAIL_POINTS + 1];
            for (&p, &r) in self.fail_buckets.iter().zip(&self.ratio_at_bucket) {
                let cell = (r * TAIL_POINTS as f64)
                    .floor()
                    .clamp(0.0, TAIL_POINTS as f64);
                cells[cell as usize] += p;
            }
            let mut acc = 0.0;
            for i in (0..TAIL_POINTS).rev() {
                acc += cells[i + 1];
                tail[i] = acc / pf;
            }
        }

        CostFloor {
            usable: true,
            wall: self.completion_wall(),
            delay: self.launch_delay,
            run_wall_ceil: self.run_wall().ceil(),
            hourly: self.hourly_cost(),
            survival: self.survival,
            prob_fail: pf,
            fail_hours,
            tail,
        }
    }
}

/// Points of the remaining-work grid a [`CostFloor`] samples. A power of
/// two, so a ratio's grid cell is computed exactly.
const TAIL_POINTS: usize = 32;

/// Billed floors above this many hours get no [`CostFloor`] (its table
/// has one entry per hour).
const MAX_FLOOR_HOURS: f64 = 1e6;

/// Slack subtracted from the bounded `E[min Ratio]` before it is ceiled
/// into on-demand hours: the evaluator's value carries rounding error
/// from its differences of products, orders of magnitude below this.
const RATIO_SLACK: f64 = 1e-9;

/// Relative slack on [`candidate_cost_floor`]: the floor and the
/// evaluator add their nonnegative terms in different orders, so their
/// rounding differs by a few ulps per term — orders of magnitude below
/// this even at the evaluator's 16-group limit.
const FLOOR_SLACK: f64 = 1e-9;

/// One option's share of [`candidate_cost_floor`]: built once per option
/// by [`GroupAssessment::cost_floor`], read in O(1) plus one grid row per
/// candidate.
#[derive(Debug, Clone)]
pub(crate) struct CostFloor {
    usable: bool,
    wall: Hours,
    delay: Hours,
    run_wall_ceil: Hours,
    hourly: Usd,
    survival: f64,
    prob_fail: f64,
    /// `fail_hours[c]` = `Σ_t p_t·min(billed_floor_t, c)` for whole hours
    /// `c`; the last entry holds for every larger `c`.
    fail_hours: Vec<f64>,
    /// `tail[i]` = `P[remaining ratio ≥ (i+1)/TAIL_POINTS | fail]`; zeros
    /// when the group cannot fail.
    tail: [f64; TAIL_POINTS],
}

impl CostFloor {
    /// [`GroupAssessment::cost_lower_bound`] at `w_min`, by table lookup.
    fn lower_bound(&self, w_min: Hours) -> Usd {
        let cap = (w_min - self.delay).max(0.0).ceil();
        let fail = self.fail_hours[(cap as usize).min(self.fail_hours.len() - 1)];
        self.hourly * (self.survival * cap.min(self.run_wall_ceil) + fail)
    }
}

/// A lower bound on the `E[Cost]` [`evaluate`] returns for the candidate
/// made of `floors`' options — no greater than it, rounding included — in
/// O(K · TAIL_POINTS) instead of an evaluation. `-∞` when any floor is
/// unusable.
///
/// It sums two admissible parts (DESIGN.md §8.5):
///
/// * the per-group [`GroupAssessment::cost_lower_bound`]s at the
///   smallest completion wall among the candidate's options that can
///   complete (`survival > 0`), which bound every spot-billing term: a
///   pattern whose completing set holds an option that cannot complete
///   has probability 0, so every other pattern's winner wall `w*` is at
///   least that wall (∞ when no option can complete: then only the
///   all-fail pattern remains, billed its uncapped floors);
/// * `p_all_fail` times the on-demand recovery cost at a lower bound of
///   `E[min_j Ratio_j | all fail]`: that expectation is the integral of
///   `Π_j P[Ratio_j ≥ r]` over `r ∈ [0, 1]`, each factor is nonincreasing
///   in `r`, so the right-endpoint sum over the grid never exceeds it.
pub(crate) fn candidate_cost_floor<'a>(
    floors: impl Iterator<Item = &'a CostFloor> + Clone,
    od: &OnDemandOption,
) -> Usd {
    if floors.clone().any(|f| !f.usable) {
        return f64::NEG_INFINITY;
    }
    let w_min = floors
        .clone()
        .filter(|f| f.survival > 0.0)
        .map(|f| f.wall)
        .fold(f64::INFINITY, f64::min);
    let mut spot = 0.0;
    let mut p0 = 1.0;
    let mut joint = [1.0; TAIL_POINTS];
    for f in floors {
        spot += f.lower_bound(w_min);
        p0 *= f.prob_fail;
        for (j, t) in joint.iter_mut().zip(&f.tail) {
            *j *= t;
        }
    }
    let mut floor = spot;
    if p0 > 0.0 {
        let e_min_ratio = joint.iter().sum::<f64>() / TAIL_POINTS as f64;
        let od_hours = od.exec_hours * (e_min_ratio - RATIO_SLACK) + od.recovery_hours;
        floor += p0 * (od_hours.ceil() * od.unit_price * od.instances as f64);
    }
    floor * (1.0 - FLOOR_SLACK)
}

/// Result of evaluating a plan under the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// `E[Cost]`, USD (Formula 2).
    pub expected_cost: Usd,
    /// `E[Time]`, hours (Formula 8).
    pub expected_time: Hours,
    /// Probability that every circle group fails and the on-demand
    /// fallback runs.
    pub p_all_fail: f64,
    /// Expected spot-instance share of the cost (Formula 5).
    pub expected_spot_cost: Usd,
    /// Expected on-demand share of the cost (Formula 6).
    pub expected_od_cost: Usd,
}

impl Evaluation {
    /// Whether the plan meets `deadline` in expectation (the paper's
    /// constraint in Formula 1).
    pub fn meets(&self, deadline: Hours) -> bool {
        self.expected_time <= deadline
    }
}

/// Reusable workspace for [`evaluate_with_scratch`]: the per-candidate
/// completion walls and flat `k × k` caps/survivor-billing tables, the
/// per-group prefix sums and cursors of the all-fail sweep, and its
/// wall/ratio value collection. All buffers grow to the largest candidate
/// seen and are reused after, so repeated evaluations (the optimizer's
/// odometer loop) do not allocate.
#[derive(Debug, Default)]
pub struct EvalScratch {
    values: Vec<f64>,
    /// `completion_wall()` per group.
    walls: Vec<f64>,
    /// `caps[j·k + i]` = `groups[j].expected_billed_capped(walls[i])` —
    /// the memoized failed-group billing at every attainable winner wall.
    caps: Vec<f64>,
    /// `surv_billed[j·k + i]` = billed hours of surviving group `j` when
    /// the winner finishes at `walls[i]`:
    /// `(walls[i] − delay_j).max(0).min(run_wall_j).ceil()`.
    surv_billed: Vec<f64>,
    /// Per-group left-to-right prefix sums of `fail_buckets`, flattened.
    /// Failure walls are nondecreasing and remaining-work ratios
    /// nonincreasing in the bucket index, so every conditional-CDF sum the
    /// all-fail helpers accumulate is one of these partial sums — bitwise,
    /// since they add the same buckets in the same order.
    prefix: Vec<f64>,
    /// Group offsets into `prefix` (length `k + 1`; group `j`'s sums span
    /// `prefix[off[j]..off[j + 1]]`).
    prefix_off: Vec<usize>,
    /// Per-group bucket cursors for the merged value sweep.
    cursors: Vec<usize>,
    /// Per-value joint survivor-function products (min-ratio sweep).
    products: Vec<f64>,
}

impl EvalScratch {
    /// An empty workspace. Buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the memo tables for one candidate. `caps` is computed by
    /// calling [`GroupAssessment::expected_billed_capped`] per `(group,
    /// wall)` pair — the same left-to-right bucket summation a direct
    /// per-mask evaluation runs — so every table entry is bitwise the
    /// value that evaluation would have recomputed.
    fn prepare(&mut self, groups: &[&GroupAssessment]) {
        let k = groups.len();
        self.walls.clear();
        self.walls
            .extend(groups.iter().map(|g| g.completion_wall()));
        self.caps.clear();
        self.surv_billed.clear();
        for g in groups {
            let run_wall = g.run_wall();
            for i in 0..k {
                self.caps.push(g.expected_billed_capped(self.walls[i]));
                self.surv_billed.push(
                    (self.walls[i] - g.launch_delay)
                        .max(0.0)
                        .min(run_wall)
                        .ceil(),
                );
            }
        }
        self.prefix.clear();
        self.prefix_off.clear();
        self.prefix_off.push(0);
        for g in groups {
            debug_assert!(
                g.wall_at_bucket.windows(2).all(|w| w[0] <= w[1]),
                "failure walls must be nondecreasing for the prefix sweep"
            );
            debug_assert!(
                g.ratio_at_bucket.windows(2).all(|w| w[0] >= w[1]),
                "remaining ratios must be nonincreasing for the prefix sweep"
            );
            let mut acc = 0.0;
            self.prefix.push(acc);
            for &p in &g.fail_buckets {
                acc += p;
                self.prefix.push(acc);
            }
            self.prefix_off.push(self.prefix.len());
        }
    }
}

/// Evaluate a set of assessed circle groups plus the on-demand fallback.
///
/// An empty assessment list models a pure on-demand plan: the application
/// runs once, from scratch, on the fallback option.
///
/// Convenience wrapper over [`evaluate_with_scratch`] that allocates a
/// fresh scratch; hot loops should hold their own [`EvalScratch`].
pub fn evaluate(groups: &[&GroupAssessment], od: &OnDemandOption) -> Evaluation {
    evaluate_with_scratch(groups, od, &mut EvalScratch::new())
}

/// [`evaluate`] with a caller-provided scratch buffer (allocation-free once
/// the scratch has warmed up).
pub fn evaluate_with_scratch(
    groups: &[&GroupAssessment],
    od: &OnDemandOption,
    scratch: &mut EvalScratch,
) -> Evaluation {
    let k = groups.len();
    if k == 0 {
        let cost = od.full_cost_billed();
        return Evaluation {
            expected_cost: cost,
            expected_time: od.exec_hours,
            p_all_fail: 1.0,
            expected_spot_cost: 0.0,
            expected_od_cost: cost,
        };
    }
    assert!(k <= 16, "evaluation is exponential in group count; got {k}");

    let mut e_cost = 0.0;
    let mut e_time = 0.0;
    let mut e_spot = 0.0;
    let mut e_od = 0.0;

    // Patterns with at least one completing group. `w*` is always one of
    // the ≤ k completion walls, and equal walls memoize to bitwise-equal
    // table entries, so looking the billed hours up by wall *index*
    // reproduces the direct per-mask arithmetic exactly — same factors,
    // same order, same rounding.
    scratch.prepare(groups);
    for mask in 1u32..(1 << k) {
        let mut p = 1.0;
        let mut w_star = f64::INFINITY;
        let mut wi = 0usize;
        for (i, g) in groups.iter().enumerate() {
            if mask & (1 << i) != 0 {
                p *= g.survival;
                if scratch.walls[i] <= w_star {
                    w_star = scratch.walls[i];
                    wi = i;
                }
            } else {
                p *= g.prob_fail();
            }
        }
        if p <= 0.0 {
            continue;
        }
        let mut cost = 0.0;
        for (j, g) in groups.iter().enumerate() {
            // Completing groups run until the winner finishes (their own
            // waiting time is not billed; user termination charges the
            // started hour); failed ones are billed up to the winner.
            let hours = if mask & (1 << j) != 0 {
                scratch.surv_billed[j * k + wi]
            } else {
                scratch.caps[j * k + wi]
            };
            cost += g.hourly_cost() * hours;
        }
        e_cost += p * cost;
        e_spot += p * cost;
        e_time += p * w_star;
    }

    // All-fail pattern: on-demand recovery.
    let p0: f64 = groups.iter().map(|g| g.prob_fail()).product();
    if p0 > 0.0 {
        let spot: f64 = groups
            .iter()
            .map(|g| g.hourly_cost() * g.expected_billed())
            .sum();
        let e_max_wall = expected_max_wall(groups, scratch);
        let e_min_ratio = expected_min_ratio(groups, scratch);
        let od_hours = od.exec_hours * e_min_ratio + od.recovery_hours;
        // On-demand is billed in whole started instance-hours.
        let od_cost = od_hours.ceil() * od.unit_price * od.instances as f64;
        e_cost += p0 * (spot + od_cost);
        e_spot += p0 * spot;
        e_od += p0 * od_cost;
        e_time += p0 * (e_max_wall + od_hours);
    }

    Evaluation {
        expected_cost: e_cost,
        expected_time: e_time,
        p_all_fail: p0,
        expected_spot_cost: e_spot,
        expected_od_cost: e_od,
    }
}

/// The hourly horizon a group is assessed over: its full wall-clock
/// completion time under the decision's checkpoint interval.
pub fn assessment_horizon(group: &CircleGroup, decision: &GroupDecision) -> usize {
    group
        .completion_wall_hours(decision.ckpt_interval)
        .ceil()
        .max(1.0) as usize
}

/// Convenience: assess every group of a plan and evaluate it. Returns
/// `Ok(None)` if any group's bid admits no launch, `Err` if any group is
/// unknown to the view.
pub fn evaluate_plan(plan: &Plan, view: &MarketView) -> Result<Option<Evaluation>, SompiError> {
    let mut assessed = Vec::with_capacity(plan.groups.len());
    for (g, d) in &plan.groups {
        match GroupAssessment::assess(*g, *d, view)? {
            Some(a) => assessed.push(a),
            None => return Ok(None),
        }
    }
    let refs: Vec<&GroupAssessment> = assessed.iter().collect();
    Ok(Some(evaluate(&refs, &plan.on_demand)))
}

/// `E[max_j e_j | all fail]` — expected wall time at which the *last*
/// circle group dies (Formula 10). Exact, via the product of conditional
/// CDFs of the independent per-group failure walls. Failure walls are
/// nondecreasing in the bucket index, so each `cdf(g, v)` is one of group
/// `g`'s left-to-right partial sums in `s.prefix`, looked up by advancing
/// a per-group cursor as `v` sweeps the sorted wall values: bitwise the
/// direct conditional sum (same additions, same order, same division) in
/// `O(k·T log(k·T))` instead of `O(k²·T²)`.
fn expected_max_wall(groups: &[&GroupAssessment], s: &mut EvalScratch) -> Hours {
    s.values.clear();
    for g in groups {
        for t in 0..g.fail_buckets.len() {
            if g.fail_buckets[t] > 0.0 {
                s.values.push(g.fail_wall(t));
            }
        }
    }
    if s.values.is_empty() {
        return 0.0;
    }
    s.values.sort_by(|a, b| a.total_cmp(b));
    s.values.dedup();

    s.cursors.clear();
    s.cursors.resize(groups.len(), 0);
    let mut e = 0.0;
    let mut prev_cdf = 0.0;
    for &v in &s.values {
        let mut joint = 1.0;
        for (j, g) in groups.iter().enumerate() {
            let pf = g.prob_fail();
            let cdf = if pf <= 0.0 {
                1.0 // vacuous: group can't be in the all-fail pattern
            } else {
                let walls = &g.wall_at_bucket;
                let mut c = s.cursors[j];
                while c < walls.len() && walls[c] <= v {
                    c += 1;
                }
                s.cursors[j] = c;
                s.prefix[s.prefix_off[j] + c] / pf
            };
            joint *= cdf;
        }
        e += v * (joint - prev_cdf);
        prev_cdf = joint;
    }
    e
}

/// `E[min_j Ratio_j | all fail]` — expected remaining work fraction at the
/// best checkpoint across groups (Formulas 7 and 11). Exact via products
/// of conditional complementary CDFs. Remaining-work ratios are
/// nonincreasing in the bucket index, so `ccdf(g, r)` is a prefix sum too
/// — the cursor retreats as `r` sweeps the sorted ratio values ascending.
/// The per-value joint products are computed once and reused for the
/// adjacent difference (the direct form recomputes each product twice
/// with identical factors, so reuse is bitwise identical).
fn expected_min_ratio(groups: &[&GroupAssessment], s: &mut EvalScratch) -> f64 {
    s.values.clear();
    for g in groups {
        for t in 0..g.fail_buckets.len() {
            if g.fail_buckets[t] > 0.0 {
                s.values.push(g.fail_ratio(t));
            }
        }
    }
    if s.values.is_empty() {
        return 1.0;
    }
    s.values.sort_by(|a, b| a.total_cmp(b));
    s.values.dedup();

    s.cursors.clear();
    s.cursors
        .extend(groups.iter().map(|g| g.fail_buckets.len()));
    s.products.clear();
    for &v in &s.values {
        let mut joint = 1.0;
        for (j, g) in groups.iter().enumerate() {
            let pf = g.prob_fail();
            let ccdf = if pf <= 0.0 {
                1.0
            } else {
                let ratios = &g.ratio_at_bucket;
                let mut c = s.cursors[j];
                while c > 0 && ratios[c - 1] < v {
                    c -= 1;
                }
                s.cursors[j] = c;
                s.prefix[s.prefix_off[j] + c] / pf
            };
            joint *= ccdf;
        }
        s.products.push(joint);
    }

    // E[min] = Σ_m v_m · (P[min ≥ v_m] − P[min ≥ v_{m+1}])
    let mut e = 0.0;
    for (m, &v) in s.values.iter().enumerate() {
        let p_ge_next = if m + 1 < s.products.len() {
            s.products[m + 1]
        } else {
            0.0
        };
        e += v * (s.products[m] - p_ge_next);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceTypeId;
    use ec2_market::market::CircleGroupId;
    use ec2_market::zone::AvailabilityZone;

    fn group(t: Hours) -> CircleGroup {
        CircleGroup {
            id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
            instances: 4,
            exec_hours: t,
            ckpt_overhead_hours: 0.02,
            recovery_hours: 0.1,
        }
    }

    fn od() -> OnDemandOption {
        OnDemandOption {
            instance_type: InstanceTypeId(4),
            instances: 4,
            exec_hours: 2.0,
            unit_price: 2.0,
            recovery_hours: 0.1,
        }
    }

    /// Hand-built assessment: survival `s`, uniform failure mass over
    /// `horizon` buckets, expected price `price`.
    fn assessment(t: Hours, s: f64, price: f64, interval: Hours) -> GroupAssessment {
        let g = group(t);
        let horizon = g.completion_wall_hours(interval).ceil().max(1.0) as usize;
        let per = (1.0 - s) / horizon as f64;
        GroupAssessment::from_parts(
            g,
            GroupDecision {
                bid: 1.0,
                ckpt_interval: interval,
            },
            price,
            s,
            vec![per; horizon],
            0.0,
        )
    }

    #[test]
    fn pure_on_demand_plan_costs_full_run() {
        let e = evaluate(&[], &od());
        assert!((e.expected_cost - 16.0).abs() < 1e-12);
        assert!((e.expected_time - 2.0).abs() < 1e-12);
        assert_eq!(e.p_all_fail, 1.0);
    }

    #[test]
    fn certain_survivor_costs_its_full_run_only() {
        // One group that never fails: cost = S·W·M, time = W.
        let a = assessment(3.0, 1.0, 0.1, 3.0); // no checkpoints
        let e = evaluate(&[&a], &od());
        assert!((e.expected_time - 3.0).abs() < 1e-9);
        assert!((e.expected_cost - 0.1 * 3.0 * 4.0).abs() < 1e-9);
        assert_eq!(e.p_all_fail, 0.0);
        assert_eq!(e.expected_od_cost, 0.0);
    }

    #[test]
    fn certain_failure_without_checkpoints_pays_od_full_rerun() {
        let a = assessment(3.0, 0.0, 0.1, 3.0); // always fails, no ckpt
        let e = evaluate(&[&a], &od());
        assert_eq!(e.p_all_fail, 1.0);
        // Ratio = 1 everywhere → full on-demand run + recovery, billed in
        // whole hours: ceil(2.0 + 0.1) = 3 h × $2 × 4.
        let od_cost = 3.0 * 2.0 * 4.0;
        assert!(
            (e.expected_od_cost - od_cost).abs() < 1e-9,
            "od {}",
            e.expected_od_cost
        );
        // Spot cost: uniform failure at bucket midpoints 0.5/1.5/2.5 h;
        // provider kills waive the partial hour → floor → 0/1/2 → mean 1.
        assert!((e.expected_spot_cost - 0.1 * 4.0 * 1.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoints_reduce_od_recovery_cost() {
        let no_ck = assessment(4.0, 0.0, 0.05, 4.0);
        let with_ck = assessment(4.0, 0.0, 0.05, 1.0);
        let e_no = evaluate(&[&no_ck], &od());
        let e_ck = evaluate(&[&with_ck], &od());
        assert!(
            e_ck.expected_od_cost < e_no.expected_od_cost,
            "ck {} vs no {}",
            e_ck.expected_od_cost,
            e_no.expected_od_cost
        );
    }

    #[test]
    fn replication_reduces_all_fail_probability() {
        let a = assessment(3.0, 0.6, 0.1, 3.0);
        let e1 = evaluate(&[&a], &od());
        let e2 = evaluate(&[&a, &a], &od());
        let e3 = evaluate(&[&a, &a, &a], &od());
        assert!((e1.p_all_fail - 0.4).abs() < 1e-12);
        assert!((e2.p_all_fail - 0.16).abs() < 1e-12);
        assert!((e3.p_all_fail - 0.064).abs() < 1e-12);
    }

    #[test]
    fn faster_replica_sets_completion_time() {
        let slow = assessment(5.0, 1.0, 0.01, 5.0);
        let fast = assessment(2.0, 1.0, 0.01, 2.0);
        let e = evaluate(&[&slow, &fast], &od());
        // Both always survive; the fast one finishes at 2.0 and the slow
        // one is killed then.
        assert!((e.expected_time - 2.0).abs() < 1e-9);
        // Both groups charged 2 hours.
        assert!((e.expected_spot_cost - 2.0 * (0.01 * 4.0) * 2.0).abs() < 1e-9);
    }

    #[test]
    fn evaluation_matches_brute_force_enumeration() {
        // Cross-check the 2^K decomposition against the naive O(T^K) sum
        // for K = 2 with small horizons.
        let a = assessment(2.0, 0.5, 0.1, 2.0);
        let b = assessment(3.0, 0.25, 0.2, 3.0);
        let fast = evaluate(&[&a, &b], &od());

        // Brute force: states per group = buckets + "complete".
        let states = |g: &GroupAssessment| -> Vec<(f64, Option<usize>)> {
            let mut v: Vec<(f64, Option<usize>)> = g
                .fail_buckets
                .iter()
                .enumerate()
                .map(|(t, p)| (*p, Some(t)))
                .collect();
            v.push((g.survival, None));
            v
        };
        let odo = od();
        let mut cost = 0.0;
        let mut time = 0.0;
        for (pa, sa) in states(&a) {
            for (pb, sb) in states(&b) {
                let p = pa * pb;
                if p == 0.0 {
                    continue;
                }
                let groups = [(&a, sa), (&b, sb)];
                let completions: Vec<Hours> = groups
                    .iter()
                    .filter(|(_, s)| s.is_none())
                    .map(|(g, _)| g.completion_wall())
                    .collect();
                if let Some(w) = completions.iter().cloned().reduce(f64::min) {
                    let mut c = 0.0;
                    for (g, s) in groups {
                        // 2014 billing: provider kills floor, user
                        // terminations (winner cutoff / completion) ceil.
                        let h = match s {
                            None => w.ceil(),
                            Some(t) => {
                                if g.fail_wall(t) <= w {
                                    g.fail_wall(t).floor()
                                } else {
                                    w.ceil()
                                }
                            }
                        };
                        c += g.hourly_cost() * h;
                    }
                    cost += p * c;
                    time += p * w;
                } else {
                    let mut c = 0.0;
                    let mut max_wall: f64 = 0.0;
                    let mut min_ratio: f64 = 1.0;
                    for (g, s) in groups {
                        let t = s.unwrap();
                        c += g.hourly_cost() * g.fail_wall(t).floor();
                        max_wall = max_wall.max(g.fail_wall(t));
                        min_ratio = min_ratio.min(g.fail_ratio(t));
                    }
                    let od_h = odo.exec_hours * min_ratio + odo.recovery_hours;
                    c += od_h.ceil() * odo.unit_price * odo.instances as f64;
                    cost += p * c;
                    time += p * (max_wall + od_h);
                }
            }
        }
        assert!(
            (fast.expected_cost - cost).abs() / cost < 1e-9,
            "fast {} vs brute {}",
            fast.expected_cost,
            cost
        );
        assert!(
            (fast.expected_time - time).abs() / time < 1e-9,
            "fast {} vs brute {}",
            fast.expected_time,
            time
        );
    }

    #[test]
    fn meets_deadline_check() {
        let a = assessment(3.0, 1.0, 0.1, 3.0);
        let e = evaluate(&[&a], &od());
        assert!(e.meets(3.0));
        assert!(!e.meets(2.9));
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn too_many_groups_rejected() {
        let a = assessment(1.0, 0.5, 0.1, 1.0);
        let groups: Vec<&GroupAssessment> = std::iter::repeat_n(&a, 17).collect();
        evaluate(&groups, &od());
    }

    #[test]
    fn mass_conservation_renormalizes_dropped_tail() {
        // An estimator that truncated its horizon: survival 0.3 but the
        // buckets only carry 0.5 of the remaining 0.7 mass.
        let g = group(3.0);
        let a = GroupAssessment::from_parts(
            g,
            GroupDecision {
                bid: 1.0,
                ckpt_interval: 3.0,
            },
            0.1,
            0.3,
            vec![0.3, 0.15, 0.05], // Σ = 0.5, should be 0.7
            0.0,
        );
        let total: f64 = a.survival + a.fail_buckets.iter().sum::<f64>();
        assert!((total - 1.0).abs() < 1e-12, "mass {total}");
        // Proportional: the bucket shape is preserved.
        assert!((a.fail_buckets[0] / a.fail_buckets[1] - 2.0).abs() < 1e-9);
        assert!((a.fail_buckets[0] - 0.3 * 0.7 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn mass_conservation_leaves_exact_distributions_alone() {
        let a = assessment(3.0, 0.4, 0.1, 3.0);
        let total: f64 = a.survival + a.fail_buckets.iter().sum::<f64>();
        assert!((total - 1.0).abs() < 1e-12);
        // Uniform mass stays uniform.
        assert!((a.fail_buckets[0] - a.fail_buckets[1]).abs() < 1e-15);
    }

    #[test]
    fn precomputed_tables_match_direct_formulas() {
        // Table lookups must agree with the definitional quantities.
        let a = assessment(4.0, 0.2, 0.1, 1.0);
        let w = a.group.completion_wall_hours(a.decision.ckpt_interval);
        for t in 0..a.fail_buckets.len() {
            let tau = t as f64 + 0.5;
            let productive = (tau * a.group.exec_hours / w).min(a.group.exec_hours);
            let run_wall = a
                .group
                .wall_at_failure(productive, a.decision.ckpt_interval)
                .min(w);
            assert!((a.fail_wall(t) - (a.launch_delay + run_wall)).abs() < 1e-12);
            assert!((a.billed_floor_at_bucket[t] - run_wall.floor()).abs() < 1e-12);
            let ratio = a
                .group
                .remaining_ratio(productive, a.decision.ckpt_interval);
            assert!((a.fail_ratio(t) - ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn eval_equivalent_ignores_only_the_bid() {
        let a = assessment(3.0, 0.6, 0.1, 3.0);
        let mut b = a.clone();
        b.decision.bid = 2.0 * a.decision.bid;
        assert!(a.eval_equivalent(&b), "bid must not break equivalence");
        // Any evaluator-visible difference breaks it.
        let mut c = a.clone();
        c.survival += 1e-12;
        assert!(!a.eval_equivalent(&c));
        let mut d = a.clone();
        d.launch_delay = 0.25;
        assert!(!a.eval_equivalent(&d));
    }

    #[test]
    fn cost_lower_bound_is_admissible() {
        // Σ_i lb_i(w_min) ≤ E[Cost] for every candidate, where w_min is
        // the smallest completion wall among the candidate's groups.
        let pool = [
            assessment(2.0, 0.5, 0.1, 2.0),
            assessment(3.0, 0.25, 0.2, 3.0),
            assessment(4.0, 0.9, 0.05, 1.0),
            assessment(1.0, 0.0, 0.3, 1.0),
        ];
        let odo = od();
        for i in 0..pool.len() {
            for j in 0..pool.len() {
                let refs = [&pool[i], &pool[j]];
                let w_min = refs
                    .iter()
                    .map(|g| g.completion_wall())
                    .fold(f64::INFINITY, f64::min);
                let e = evaluate(&refs, &odo);
                let lb: f64 = refs.iter().map(|g| g.cost_lower_bound(w_min)).sum();
                assert!(
                    lb <= e.expected_cost + 1e-9,
                    "lb {lb} > cost {} for ({i},{j})",
                    e.expected_cost
                );
            }
        }
    }

    #[test]
    fn candidate_cost_floor_never_exceeds_the_evaluation() {
        // Skewed failure mass, launch delays and survivals from certain
        // death to certain completion, over every candidate of up to
        // three options: the floor must stay at or below the evaluated
        // cost bit for bit, and never below the per-slot bound it adds to.
        let skewed = |t: Hours, s: f64, price: f64, interval: Hours, delay: Hours, decay: f64| {
            let g = group(t);
            let horizon = g.completion_wall_hours(interval).ceil().max(1.0) as usize;
            let weights: Vec<f64> = (0..horizon).map(|i| decay.powi(i as i32)).collect();
            let total: f64 = weights.iter().sum();
            GroupAssessment::from_parts(
                g,
                GroupDecision {
                    bid: 1.0,
                    ckpt_interval: interval,
                },
                price,
                s,
                weights.iter().map(|w| w / total * (1.0 - s)).collect(),
                delay,
            )
        };
        let pool = [
            skewed(6.0, 0.0, 0.1, 1.5, 0.0, 0.7),
            skewed(9.5, 0.02, 0.2, 9.5, 0.4, 1.3),
            skewed(4.0, 0.5, 0.05, 1.0, 1.2, 0.9),
            skewed(3.0, 1.0, 0.3, 0.75, 0.0, 1.0),
            skewed(12.0, 0.3, 0.08, 2.0, 2.5, 1.1),
            skewed(2.0, 0.0, 0.4, 2.0, 0.1, 0.5),
        ];
        let floors: Vec<CostFloor> = pool.iter().map(GroupAssessment::cost_floor).collect();
        let odo = od();
        let mut candidates: Vec<Vec<usize>> = (0..pool.len()).map(|i| vec![i]).collect();
        for i in 0..pool.len() {
            for j in 0..pool.len() {
                candidates.push(vec![i, j]);
                for k in 0..pool.len() {
                    candidates.push(vec![i, j, k]);
                }
            }
        }
        let mut tighter = 0;
        for c in &candidates {
            let refs: Vec<&GroupAssessment> = c.iter().map(|&i| &pool[i]).collect();
            let cost = evaluate(&refs, &odo).expected_cost;
            let floor = candidate_cost_floor(c.iter().map(|&i| &floors[i]), &odo);
            assert!(floor <= cost, "floor {floor} > cost {cost} for {c:?}");
            let w_min = refs
                .iter()
                .map(|g| g.completion_wall())
                .fold(f64::INFINITY, f64::min);
            let per_slot: f64 = refs.iter().map(|g| g.cost_lower_bound(w_min)).sum();
            assert!(
                floor >= per_slot * (1.0 - 1e-8),
                "floor {floor} < per-slot {per_slot} for {c:?}"
            );
            tighter += (floor > per_slot * (1.0 + 1e-6)) as usize;
        }
        // The on-demand share lifts the floor whenever every group can fail.
        assert!(
            tighter * 2 > candidates.len(),
            "{tighter} of {}",
            candidates.len()
        );
    }

    #[test]
    fn cost_floor_table_matches_the_per_slot_bound() {
        let a = assessment(5.0, 0.4, 0.1, 1.25);
        let floor = a.cost_floor();
        for w in [0.0, 0.3, 1.0, 2.5, 5.0, 5.2, 40.0] {
            let direct = a.cost_lower_bound(w);
            let table = floor.lower_bound(w);
            assert!(
                (direct - table).abs() <= 1e-12 * direct.max(1.0),
                "w {w}: {direct} vs {table}"
            );
        }
    }

    #[test]
    fn unusable_cost_floor_bounds_nothing() {
        let mut a = assessment(2.0, 0.5, 0.1, 2.0);
        a.fail_buckets[0] = f64::NAN;
        let floor = a.cost_floor();
        assert_eq!(
            candidate_cost_floor(std::iter::once(&floor), &od()),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn cost_lower_bound_is_monotone_in_w_min() {
        // A tighter (larger) completion floor can only raise the bound —
        // the property the branch-and-bound sort relies on.
        let a = assessment(3.0, 0.6, 0.1, 3.0);
        let mut prev = 0.0;
        for w in [0.5, 1.0, 2.0, 3.0, 5.0] {
            let lb = a.cost_lower_bound(w);
            assert!(lb >= prev - 1e-12, "lb regressed at w_min={w}");
            prev = lb;
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_evaluation() {
        let a = assessment(2.0, 0.5, 0.1, 2.0);
        let b = assessment(3.0, 0.25, 0.2, 3.0);
        let mut scratch = EvalScratch::new();
        // Reusing one scratch across differently-shaped evaluations must
        // not leak state between calls.
        let e1 = evaluate_with_scratch(&[&a, &b], &od(), &mut scratch);
        let e2 = evaluate_with_scratch(&[&b], &od(), &mut scratch);
        let e3 = evaluate_with_scratch(&[&a, &b], &od(), &mut scratch);
        assert_eq!(e1, e3);
        assert_eq!(e2, evaluate(&[&b], &od()));
    }

    /// Compare every field of two evaluations bit-for-bit (stricter than
    /// `==`, which would accept `-0.0 == 0.0`).
    fn assert_bits_eq(a: &Evaluation, b: &Evaluation, label: &str) {
        for (x, y, f) in [
            (a.expected_cost, b.expected_cost, "expected_cost"),
            (a.expected_time, b.expected_time, "expected_time"),
            (a.p_all_fail, b.p_all_fail, "p_all_fail"),
            (
                a.expected_spot_cost,
                b.expected_spot_cost,
                "expected_spot_cost",
            ),
            (a.expected_od_cost, b.expected_od_cost, "expected_od_cost"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: {f} differs: {x} vs {y}");
        }
    }

    /// The scalar kernel: every failed group rescans all `T` fail buckets
    /// in every one of the `2^k − 1` patterns, and the all-fail pattern
    /// sums each conditional CDF directly — `O(2^k · k · T + k² · T²)`.
    /// The bit-for-bit oracle of [`evaluate_with_scratch`]'s memos.
    fn evaluate_scalar(groups: &[&GroupAssessment], od: &OnDemandOption) -> Evaluation {
        let k = groups.len();
        assert!((1..=16).contains(&k));
        let (mut e_cost, mut e_time, mut e_spot, mut e_od) = (0.0, 0.0, 0.0, 0.0);
        for mask in 1u32..(1 << k) {
            let mut p = 1.0;
            let mut w_star = f64::INFINITY;
            for (i, g) in groups.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= g.survival;
                    w_star = w_star.min(g.completion_wall());
                } else {
                    p *= g.prob_fail();
                }
            }
            if p <= 0.0 {
                continue;
            }
            let mut cost = 0.0;
            for (i, g) in groups.iter().enumerate() {
                let hours = if mask & (1 << i) != 0 {
                    (w_star - g.launch_delay).max(0.0).min(g.run_wall()).ceil()
                } else {
                    g.expected_billed_capped(w_star)
                };
                cost += g.hourly_cost() * hours;
            }
            e_cost += p * cost;
            e_spot += p * cost;
            e_time += p * w_star;
        }
        let p0: f64 = groups.iter().map(|g| g.prob_fail()).product();
        if p0 > 0.0 {
            let spot: f64 = groups
                .iter()
                .map(|g| g.hourly_cost() * g.expected_billed())
                .sum();
            let od_hours = od.exec_hours * scalar_min_ratio(groups) + od.recovery_hours;
            let od_cost = od_hours.ceil() * od.unit_price * od.instances as f64;
            e_cost += p0 * (spot + od_cost);
            e_spot += p0 * spot;
            e_od += p0 * od_cost;
            e_time += p0 * (scalar_max_wall(groups) + od_hours);
        }
        Evaluation {
            expected_cost: e_cost,
            expected_time: e_time,
            p_all_fail: p0,
            expected_spot_cost: e_spot,
            expected_od_cost: e_od,
        }
    }

    /// The failure values (walls or ratios) carrying failure mass, sorted
    /// ascending and deduplicated.
    fn failure_values(
        groups: &[&GroupAssessment],
        at: impl Fn(&GroupAssessment, usize) -> f64,
    ) -> Vec<f64> {
        let mut values: Vec<f64> = groups
            .iter()
            .flat_map(|g| {
                (0..g.fail_buckets.len())
                    .filter(|&t| g.fail_buckets[t] > 0.0)
                    .map(|t| at(g, t))
            })
            .collect();
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup();
        values
    }

    /// `E[max_j e_j | all fail]` by direct conditional-CDF sums.
    fn scalar_max_wall(groups: &[&GroupAssessment]) -> Hours {
        let cdf = |g: &GroupAssessment, x: Hours| -> f64 {
            let pf = g.prob_fail();
            if pf <= 0.0 {
                return 1.0;
            }
            let mut acc = 0.0;
            for (t, p) in g.fail_buckets.iter().enumerate() {
                if g.fail_wall(t) <= x {
                    acc += p;
                }
            }
            acc / pf
        };
        let mut e = 0.0;
        let mut prev_cdf = 0.0;
        for v in failure_values(groups, GroupAssessment::fail_wall) {
            let joint: f64 = groups.iter().map(|g| cdf(g, v)).product();
            e += v * (joint - prev_cdf);
            prev_cdf = joint;
        }
        e
    }

    /// `E[min_j Ratio_j | all fail]` by direct conditional-CCDF sums.
    fn scalar_min_ratio(groups: &[&GroupAssessment]) -> f64 {
        let values = failure_values(groups, GroupAssessment::fail_ratio);
        if values.is_empty() {
            return 1.0;
        }
        let ccdf = |g: &GroupAssessment, r: f64| -> f64 {
            let pf = g.prob_fail();
            if pf <= 0.0 {
                return 1.0;
            }
            let mut acc = 0.0;
            for (t, p) in g.fail_buckets.iter().enumerate() {
                if g.fail_ratio(t) >= r {
                    acc += p;
                }
            }
            acc / pf
        };
        let mut e = 0.0;
        for (m, &v) in values.iter().enumerate() {
            let p_ge_v: f64 = groups.iter().map(|g| ccdf(g, v)).product();
            let p_ge_next: f64 = match values.get(m + 1) {
                Some(&next) => groups.iter().map(|g| ccdf(g, next)).product(),
                None => 0.0,
            };
            e += v * (p_ge_v - p_ge_next);
        }
        e
    }

    /// Seeded uniform draws in `[0, 1)` (a SplitMix64 chain).
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = ec2_market::fault::splitmix64(self.0);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random assessment on quarter-hour job lengths and intervals (so
    /// completion walls collide and exercise the `w*`-index tie), with a
    /// launch delay 60% of the time and failure mass on a random subset of
    /// buckets. One in four groups never survives and one in four never
    /// fails.
    fn random_assessment(d: &mut Draws) -> GroupAssessment {
        let quarter = |x: f64| (x * 4.0).floor() / 4.0;
        let mut g = group(quarter(0.5 + 5.5 * d.next()));
        g.instances = 1 + (d.next() * 8.0) as u32;
        let interval = if d.next() < 0.3 {
            g.exec_hours
        } else {
            quarter(0.25 + g.exec_hours * d.next())
        };
        let survival = match (d.next() * 4.0) as u32 {
            0 => 0.0,
            1 => 1.0,
            _ => d.next(),
        };
        let horizon = g.completion_wall_hours(interval).ceil().max(1.0) as usize;
        let mut weights: Vec<f64> = (0..horizon)
            .map(|_| if d.next() < 0.3 { 0.0 } else { d.next() })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        let total: f64 = weights.iter().sum();
        let delay = if d.next() < 0.4 { 0.0 } else { 1.5 * d.next() };
        GroupAssessment::from_parts(
            g,
            GroupDecision {
                bid: 1.0,
                ckpt_interval: interval,
            },
            0.01 + 0.5 * d.next(),
            survival,
            weights
                .iter()
                .map(|w| w / total * (1.0 - survival))
                .collect(),
            delay,
        )
    }

    #[test]
    fn kernel_matches_the_scalar_oracle_bit_for_bit() {
        // Seeded random candidates at every k the search can reach, through
        // one reused scratch, mixing certain failures, certain survivors,
        // launch delays and colliding completion walls.
        let odo = od();
        let mut scratch = EvalScratch::new();
        let mut d = Draws(0x5eed);
        let (mut never_survive, mut never_fail) = (0, 0);
        for k in 1..=12 {
            for trial in 0..8 {
                let groups: Vec<GroupAssessment> =
                    (0..k).map(|_| random_assessment(&mut d)).collect();
                never_survive += groups.iter().filter(|g| g.survival == 0.0).count();
                never_fail += groups.iter().filter(|g| g.prob_fail() == 0.0).count();
                let refs: Vec<&GroupAssessment> = groups.iter().collect();
                assert_bits_eq(
                    &evaluate_scalar(&refs, &odo),
                    &evaluate_with_scratch(&refs, &odo, &mut scratch),
                    &format!("k={k} trial={trial}"),
                );
            }
        }
        assert!(never_survive > 0 && never_fail > 0);
    }
}
