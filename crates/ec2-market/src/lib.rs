//! EC2 market substrate for the SOMPI reproduction.
//!
//! This crate models everything the SOMPI optimizer needs from Amazon EC2
//! circa 2014:
//!
//! * an **instance catalog** ([`instance`]) with per-type core counts,
//!   compute/network/IO capabilities and on-demand prices,
//! * **availability zones** ([`zone`]) and the (type, zone) pairs the paper
//!   calls *circle groups*,
//! * **spot price traces** ([`trace`]) with a deterministic synthetic
//!   generator ([`tracegen`]) calibrated to the qualitative observations of
//!   the paper (Figures 1 and 2): long calm plateaus, rare 10–100× spikes,
//!   strong heterogeneity across types and zones, and a short-horizon-stable
//!   empirical price distribution,
//! * **price histograms** ([`histogram`]) for distribution-stability studies,
//! * the **failure-rate function** `f_i(P, t)` and the **expected spot
//!   price** `S_i(P)` ([`failure`]), estimated from price history exactly the
//!   way Section 4.4 of the paper prescribes (random-start first-passage
//!   sampling),
//! * 2014-era **billing rules** ([`billing`]) for on-demand and spot
//!   instances,
//! * and a [`market`] facade bundling traces for a set of circle groups.
//!
//! Everything is deterministic given a seed so experiments are repeatable.
//!
//! ```
//! use ec2_market::instance::InstanceCatalog;
//! use ec2_market::market::SpotMarket;
//! use ec2_market::tracegen::{MarketProfile, TraceGenerator};
//!
//! // Two days of synthetic history for every (type, zone) pair.
//! let catalog = InstanceCatalog::paper_2014();
//! let profile = MarketProfile::paper_2014(&catalog);
//! let market = SpotMarket::generate(catalog, &TraceGenerator::new(profile, 42), 48.0, 1.0 / 12.0);
//!
//! // Estimate the failure-rate function f(P, t) for one circle group.
//! let group = market.groups().next().unwrap();
//! let estimator = market.try_estimator(group, 0.0, 48.0).unwrap();
//! let f = estimator.failure_rate_exact(estimator.max_price() / 2.0, 12);
//! assert!(f.survival() >= 0.0 && f.survival() <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod billing;
pub mod calibrate;
pub mod death;
pub mod failure;
pub mod fault;
pub mod feed;
pub mod histogram;
pub mod index;
pub mod instance;
pub mod market;
pub mod trace;
pub mod tracegen;
pub mod zone;

pub use billing::{BillingModel, BillingPolicy};
pub use calibrate::{calibrate, Calibration};
pub use death::{DeathTimeCache, DeathTimeTable};
pub use failure::{ExpectedSpotPrice, FailureCounts, FailureEstimator, FailureRateFn};
pub use fault::{FaultInjector, FaultPlan, RetryPolicy, Storm};
pub use feed::{parse_feed, resample, traces_by_group, PriceEvent};
pub use histogram::PriceHistogram;
pub use index::{TraceIndex, TraceQuery};
pub use instance::{InstanceCatalog, InstanceType, InstanceTypeId};
pub use market::{CircleGroupId, SpotMarket, UnknownGroupError};
pub use trace::{SpotTrace, TraceWindow};
pub use tracegen::{MarketProfile, TraceGenConfig, TraceGenerator, ZoneVolatility};
pub use zone::AvailabilityZone;

/// Hours are the native time unit of the market model, matching the paper's
/// hourly discretization of failure times and EC2's 2014 hourly billing.
pub type Hours = f64;

/// US dollars.
pub type Usd = f64;
