//! SOMPI: monetary cost optimization for MPI applications on EC2 spot
//! markets — the primary contribution of Gong, He & Zhou (SC '15).
//!
//! Given an MPI application profile, a deadline, and spot price history for
//! a set of candidate *circle groups* (instance type × availability zone),
//! SOMPI chooses
//!
//! 1. which circle groups to run replicated executions on (≤ κ of them),
//! 2. the bid price `P_i` for each chosen group,
//! 3. the checkpoint interval `F_i` for each chosen group, and
//! 4. the on-demand instance type `d` used to recover if every replica is
//!    killed by out-of-bid events,
//!
//! to minimize the expected monetary cost subject to
//! `E[Time] ≤ Deadline`.
//!
//! Module map (paper section in parentheses):
//!
//! * [`model`] — plan/decision types (Table 1 notation),
//! * [`problem`] — building a [`problem::Problem`] from a market + profile,
//! * [`view`] — estimation access to spot history (`f_i(P,t)`, `S_i(P)`),
//! * [`cost`] — the expected cost/time model, Formulas 1–11 (§3.2), made
//!   tractable by an exact `O(2^K · K · T)` decomposition,
//! * [`ondemand`] — on-demand type selection with Slack (§4.1),
//! * [`phi`] — the `F = φ(P)` dimension reduction (§4.2.2, Theorem 1),
//! * [`logsearch`] — the logarithmic bid-price grid (§4.2.2),
//! * [`twolevel`] — the two-level optimizer with κ-subset selection
//!   (§4.2.2 + §4.4),
//! * [`adaptive`] — the knobs and planning context of the windowed
//!   adaptive re-optimizer, Algorithm 1 (§4.3), whose loop is
//!   `replay::AdaptiveRunner`,
//! * [`policy`] — the [`policy::Policy`] planning trait, rival policies
//!   from the literature
//!   (No-FT, Ckpt-Only, App-Centric, Deadline-Hedge), and the
//!   name→policy registry behind the CLI/server/tournament
//!   (docs/POLICIES.md),
//! * [`baselines`] — every comparison strategy in the evaluation:
//!   On-demand, Marathe, Marathe-Opt, Spot-Inf, Spot-Avg, and the
//!   fault-tolerance ablations (§5.3, §5.4.2), all implementing
//!   [`policy::Policy`].

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baselines;
pub mod cost;
pub mod error;
pub mod logsearch;
pub mod model;
pub mod ondemand;
pub mod pareto;
pub mod phi;
pub mod policy;
pub mod problem;
pub mod twolevel;
pub mod view;

pub use adaptive::{AdaptiveConfig, PlanContext};
pub use cost::{evaluate, EvalScratch, Evaluation, GroupAssessment};
pub use error::SompiError;
pub use logsearch::BidGrid;
pub use model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
pub use ondemand::select_on_demand;
pub use pareto::{collapse_bid_dominated, frontier, ParetoPoint};
pub use phi::optimal_interval;
pub use policy::{canonical_policy_name, policy_by_name, Policy, POLICY_NAMES};
pub use problem::Problem;
pub use twolevel::{OptimizedPlan, OptimizerConfig, TwoLevelOptimizer};
pub use view::MarketView;

/// Hours, matching the substrate crates.
pub type Hours = f64;
/// US dollars.
pub type Usd = f64;
