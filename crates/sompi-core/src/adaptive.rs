//! The adaptive update-maintenance algorithm — Section 4.3, Algorithm 1.
//!
//! Spot price distributions drift, so a plan computed once from stale
//! history degrades (the paper's w/o-MT ablation). Algorithm 1 splits the
//! execution into optimization windows of size `T_m`: at each window
//! boundary it re-estimates the failure-rate functions from the *previous*
//! window's prices, re-solves the two-level optimization for the residual
//! application, and — when the deadline can no longer be met — abandons
//! spot and finishes on demand.
//!
//! This module holds the loop's knobs ([`AdaptiveConfig`]) and what a
//! planning call may consult besides the problem and the view
//! ([`PlanContext`]). The loop itself, every window decision included,
//! is `replay::AdaptiveRunner::run`, which tracks realized progress
//! against real traces.

use crate::twolevel::OptimizerConfig;
use crate::Hours;
use serde::{Deserialize, Serialize};
use sompi_obs::{NullRecorder, Recorder};

/// Adaptive algorithm knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// `T_m`: optimization window size, hours (paper default ≈ 15).
    pub window_hours: Hours,
    /// History length used for each re-estimation, hours (the paper uses
    /// "the previous two days" offline and the previous window online).
    pub history_hours: Hours,
    /// The inner optimizer's configuration.
    pub optimizer: OptimizerConfig,
    /// Accepted and ignored: every window re-plans with the same cold
    /// search as a one-shot plan (DESIGN.md §12). Kept so that callers
    /// and stored configs that set it still compile and load.
    #[serde(default = "default_true")]
    pub warmstart: bool,
    /// Accepted and ignored, like [`AdaptiveConfig::warmstart`].
    #[serde(default = "default_true")]
    pub bucket_reuse: bool,
}

fn default_true() -> bool {
    true
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            window_hours: 15.0,
            history_hours: 48.0,
            optimizer: OptimizerConfig::default(),
            warmstart: true,
            bucket_reuse: true,
        }
    }
}

/// Everything a planning call may consult besides the problem and the
/// market view: today, the trace recorder. [`PlanContext::default`]
/// records nothing, so the simplest call is `policy.plan(&p, &view, &mut
/// PlanContext::default())`.
pub struct PlanContext<'a> {
    /// Trace event sink.
    pub recorder: &'a dyn Recorder,
}

impl Default for PlanContext<'_> {
    fn default() -> Self {
        Self {
            recorder: &NullRecorder,
        }
    }
}

impl<'a> PlanContext<'a> {
    /// All-no-op context (same as [`PlanContext::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record trace events into `recorder`.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_config_deserializes_without_warm_fields() {
        // Configs serialized before the warm-start fields existed must
        // keep loading; the fields default on and are ignored.
        let optimizer = serde_json::to_string(&OptimizerConfig::default()).unwrap();
        let json =
            format!(r#"{{"window_hours": 10.0, "history_hours": 24.0, "optimizer": {optimizer}}}"#);
        let cfg: AdaptiveConfig =
            serde_json::from_str(&json).expect("pre-warmstart config should deserialize");
        assert_eq!(cfg.window_hours, 10.0);
        assert!(cfg.warmstart && cfg.bucket_reuse);
    }
}
