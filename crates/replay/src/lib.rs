//! Trace-replay execution of SOMPI plans and Monte-Carlo evaluation.
//!
//! The paper's simulation methodology (Section 5.1): *"we use the method of
//! replaying the trace from the spot market … We randomly choose a start
//! point in the trace and compare our bid price with the spot price along
//! the time. If our bid price is lower than the spot price at that point,
//! we treat the application as terminated … We repeat the simulation for
//! one million times and calculate the expected cost."*
//!
//! * [`exec`] — replay one static plan against the realized traces from a
//!   start offset: launch delays, out-of-bid terminations, checkpoint
//!   schedules, the winner-takes-all replica rule, the on-demand fallback,
//!   and 2014 hourly billing,
//! * [`adaptive_exec`] — the windowed Algorithm-1 runner: re-estimates and
//!   re-plans every `T_m` hours against fresh history (SOMPI) or never
//!   (the w/o-MT ablation),
//! * [`montecarlo`] — repeat either runner from seeded random start points,
//!   in parallel across the calling thread and crossbeam scoped threads
//!   (results are deterministic for a given seed and replica count),
//! * [`stats`] — summary statistics for experiment tables.
//!
//! ```
//! use ec2_market::instance::InstanceCatalog;
//! use ec2_market::market::SpotMarket;
//! use ec2_market::tracegen::{MarketProfile, TraceGenerator};
//! use mpi_sim::npb::{NpbClass, NpbKernel};
//! use mpi_sim::storage::S3Store;
//! use replay::PlanRunner;
//! use sompi_core::adaptive::PlanContext;
//! use sompi_core::baselines::Sompi;
//! use sompi_core::policy::Policy;
//! use sompi_core::problem::Problem;
//! use sompi_core::twolevel::OptimizerConfig;
//! use sompi_core::view::MarketView;
//!
//! let catalog = InstanceCatalog::paper_2014();
//! let profile = MarketProfile::paper_2014(&catalog);
//! let market =
//!     SpotMarket::generate(catalog, &TraceGenerator::new(profile, 7), 120.0, 1.0 / 12.0);
//! let app = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(100);
//! let mut problem = Problem::build(&market, &app, f64::MAX, None, S3Store::paper_2014());
//! problem.deadline = problem.baseline_time() * 1.5;
//!
//! let view = MarketView::from_market(&market, 0.0, 48.0);
//! let cfg = OptimizerConfig { kappa: 1, bid_levels: 3, ..Default::default() };
//! let plan = Sompi { config: cfg }
//!     .plan(&problem, &view, &mut PlanContext::new())
//!     .unwrap();
//! let outcome = PlanRunner::new(&market, problem.deadline)
//!     .run(&plan, 60.0, &replay::ExecContext::new())
//!     .unwrap();
//! assert!(outcome.total_cost > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive_exec;
pub mod batch;
pub mod exec;
pub mod montecarlo;
pub mod stats;

pub use adaptive_exec::{AdaptiveOutcome, AdaptiveRunner};
pub use batch::{BatchEntry, BatchTables};
pub use exec::{ExecContext, Finisher, PlanRunner, RunOutcome, WindowOutcome};
pub use montecarlo::{McResult, MonteCarlo, MonteCarloBuilder};
pub use stats::Summary;

/// Hours, matching the substrate crates.
pub type Hours = f64;
/// US dollars.
pub type Usd = f64;
