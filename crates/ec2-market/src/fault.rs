//! Deterministic fault injection for replay experiments.
//!
//! The paper's replay methodology exercises exactly one failure mode: the
//! realized spot price rising above a bid. Real spot deployments see more
//! — correlated capacity reclaims that kill several circle groups at
//! once, checkpoint uploads that fail or stall, restores that read a
//! corrupt image, and market-feed gaps that starve the adaptive loop
//! of fresh history. This module injects all of those on top of a price
//! trace, reproducibly.
//!
//! # Determinism
//!
//! Every fault decision is a *pure function* of the [`FaultPlan`] seed
//! and the decision's coordinates (fault class tag, circle group, ordinal,
//! attempt number). There is no sequential RNG state to advance, so the
//! order in which executors query the injector — and therefore the thread
//! count, window schedule, or evaluation order — cannot change any
//! outcome. Same seed + same config ⇒ bit-identical fault timeline.
//! Storm arrival times are the one sequential sample; they are drawn once
//! at [`FaultInjector::new`] and frozen.

use crate::market::CircleGroupId;
use crate::Hours;
use serde::{Deserialize, Serialize};

/// One SplitMix64 scramble step — the mixing core of the injector.
/// Public so tests and sibling crates can derive sub-streams the same way.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold `v` into hash state `h` (one SplitMix64 round per word).
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// A uniform sample in `[0, 1)` from the top 53 bits of `h`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Stable 64-bit key for a circle group (hash of its display form, which
/// is the same string the trace events carry). Public so executors can
/// key [`RetryPolicy::backoff_hours`] by the same coordinates the
/// injector uses.
pub fn group_key(id: CircleGroupId) -> u64 {
    let mut h = 0x005e_ed0f_u64;
    for b in id.to_string().bytes() {
        h = mix(h, b as u64);
    }
    h
}

/// Fault-class tags keeping the per-class hash streams independent.
const TAG_STORM_MEMBER: u64 = 1;
const TAG_CKPT_FAIL: u64 = 2;
const TAG_CKPT_LATENCY: u64 = 3;
const TAG_RESTORE: u64 = 4;
const TAG_FEED_GAP: u64 = 5;
const TAG_STORM_TIME: u64 = 6;
const TAG_JITTER: u64 = 7;

/// Bounded exponential backoff with deterministic jitter, for checkpoint
/// I/O attempts.
///
/// [`RetryPolicy::none`] (the [`Default`]) performs exactly one attempt
/// with zero backoff — executors behave bit-identically to the
/// pre-resilience code under it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts before giving up (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, hours.
    pub base_backoff_hours: Hours,
    /// Multiplier applied per further retry.
    pub multiplier: f64,
    /// Cap on any single backoff, hours.
    pub max_backoff_hours: Hours,
    /// Jitter amplitude as a fraction of the backoff (`0.25` perturbs
    /// each wait by up to ±25%, deterministically from the seed).
    pub jitter: f64,
}

impl RetryPolicy {
    /// One attempt, no backoff: the no-op policy.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_hours: 0.0,
            multiplier: 1.0,
            max_backoff_hours: 0.0,
            jitter: 0.0,
        }
    }

    /// Sensible checkpoint-I/O defaults: 3 attempts, 3-minute base
    /// backoff doubling per retry, capped at 30 minutes, ±25% jitter.
    pub fn default_io() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_hours: 0.05,
            multiplier: 2.0,
            max_backoff_hours: 0.5,
            jitter: 0.25,
        }
    }

    /// Whether this policy never waits and never retries.
    pub fn is_noop(&self) -> bool {
        self.max_attempts <= 1 && self.base_backoff_hours == 0.0
    }

    /// Backoff before retry number `attempt` (1-based: the wait after the
    /// `attempt`-th failure). Deterministic in `(seed, key, attempt)`.
    pub fn backoff_hours(&self, seed: u64, key: u64, attempt: u32) -> Hours {
        if self.base_backoff_hours <= 0.0 {
            return 0.0;
        }
        let raw = self.base_backoff_hours * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let capped = raw.min(self.max_backoff_hours.max(self.base_backoff_hours));
        if self.jitter <= 0.0 {
            return capped;
        }
        let h = mix(mix(mix(seed, TAG_JITTER), key), attempt as u64);
        // Uniform in [1 - jitter, 1 + jitter].
        capped * (1.0 + self.jitter * (2.0 * unit(h) - 1.0))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// The highest storm rate [`FaultPlan::parse`] accepts, in storms per
/// trace hour: one every six minutes on average.
pub const MAX_STORM_RATE_PER_HOUR: f64 = 10.0;

/// The most storms one [`FaultInjector`] holds: 2^22, 64 MiB. A stream at
/// [`MAX_STORM_RATE_PER_HOUR`] stays below it for 400,000 trace hours; a
/// hand-built plan whose stream would not end (an infinite rate or
/// horizon) stops here.
pub const MAX_STORMS: usize = 1 << 22;

/// Seeded configuration of every injectable fault class. All
/// probabilities default to zero (a quiet plan injects nothing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every hash stream.
    pub seed: u64,
    /// Expected spot-kill storms per trace hour (0 disables storms).
    pub storm_rate_per_hour: f64,
    /// Probability that a given storm reclaims a given circle group
    /// (correlated multi-group termination when close to 1).
    pub storm_group_prob: f64,
    /// Probability that one checkpoint upload attempt fails.
    pub ckpt_fail_prob: f64,
    /// Probability that a checkpoint upload stalls (a latency spike).
    pub ckpt_latency_prob: f64,
    /// Extra hours a latency spike adds to the affected upload.
    pub ckpt_latency_hours: Hours,
    /// Probability that restoring a checkpoint finds a corrupt image
    /// (forcing fallback to the previous checkpoint).
    pub restore_corrupt_prob: f64,
    /// Probability that the market feed is gapped/stale at a given
    /// adaptive planning window.
    pub feed_gap_prob: f64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn quiet() -> Self {
        Self {
            seed: 0,
            storm_rate_per_hour: 0.0,
            storm_group_prob: 0.0,
            ckpt_fail_prob: 0.0,
            ckpt_latency_prob: 0.0,
            ckpt_latency_hours: 0.0,
            restore_corrupt_prob: 0.0,
            feed_gap_prob: 0.0,
        }
    }

    /// Whether every fault class is disabled.
    pub fn is_quiet(&self) -> bool {
        self.storm_rate_per_hour <= 0.0
            && self.ckpt_fail_prob <= 0.0
            && self.ckpt_latency_prob <= 0.0
            && self.restore_corrupt_prob <= 0.0
            && self.feed_gap_prob <= 0.0
    }

    /// Parse the CLI `--faults` spec: comma-separated `key=value` terms.
    ///
    /// ```text
    /// storm=RATE[xPROB]      kill storms per hour, per-group hit prob (default 1)
    /// ckpt-fail=P            per-attempt upload failure probability
    /// ckpt-latency=P:H       spike probability and added hours
    /// restore-corrupt=P      corrupt-image probability per restore
    /// feed-gap=P             market-feed gap probability per window
    /// ```
    ///
    /// Example: `storm=0.05x0.8,ckpt-fail=0.3,feed-gap=0.25`.
    ///
    /// Probabilities must lie in `[0, 1]`, hours must be finite and
    /// non-negative, and the storm rate must lie in
    /// `[0, MAX_STORM_RATE_PER_HOUR]`; anything else is an error naming
    /// the term.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = Self {
            seed,
            ..Self::quiet()
        };
        let prob = |key: &str, v: &str| -> Result<f64, String> {
            let p: f64 = v
                .parse()
                .map_err(|_| format!("--faults {key}: cannot parse {v:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--faults {key}: probability {p} outside [0, 1]"));
            }
            Ok(p)
        };
        let hours = |key: &str, v: &str| -> Result<Hours, String> {
            let h: f64 = v
                .parse()
                .map_err(|_| format!("--faults {key}: cannot parse hours {v:?}"))?;
            if !(h.is_finite() && h >= 0.0) {
                return Err(format!(
                    "--faults {key}: hours {h} must be finite and non-negative"
                ));
            }
            Ok(h)
        };
        for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let (key, value) = term
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("--faults term {term:?}: expected key=value"))?;
            match key {
                "storm" => {
                    let (rate, p) = match value.split_once('x') {
                        Some((r, p)) => (r, prob("storm", p)?),
                        None => (value, 1.0),
                    };
                    let rate: f64 = rate
                        .parse()
                        .map_err(|_| format!("--faults storm: cannot parse rate {rate:?}"))?;
                    if !(0.0..=MAX_STORM_RATE_PER_HOUR).contains(&rate) {
                        return Err(format!(
                            "--faults storm: rate {rate} outside [0, {MAX_STORM_RATE_PER_HOUR}] per hour"
                        ));
                    }
                    plan.storm_rate_per_hour = rate;
                    plan.storm_group_prob = p;
                }
                "ckpt-fail" => plan.ckpt_fail_prob = prob("ckpt-fail", value)?,
                "ckpt-latency" => {
                    let (p, h) = value.split_once(':').ok_or_else(|| {
                        format!("--faults ckpt-latency: expected P:HOURS, got {value:?}")
                    })?;
                    plan.ckpt_latency_prob = prob("ckpt-latency", p)?;
                    plan.ckpt_latency_hours = hours("ckpt-latency", h)?;
                }
                "restore-corrupt" => plan.restore_corrupt_prob = prob("restore-corrupt", value)?,
                "feed-gap" => plan.feed_gap_prob = prob("feed-gap", value)?,
                other => {
                    return Err(format!(
                        "--faults: unknown term {other:?} (storm, ckpt-fail, ckpt-latency, \
                         restore-corrupt, feed-gap)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::quiet()
    }
}

/// One precomputed spot-kill storm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Storm {
    /// Trace hour at which affected running groups are reclaimed.
    pub at_hours: Hours,
}

/// The fault oracle executors consult. Immutable (and therefore `Sync`)
/// after construction: storm times are sampled once; every other query is
/// a stateless hash of its coordinates, so results are independent of
/// query order and thread count.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    storms: Vec<Storm>,
}

impl FaultInjector {
    /// Build an injector over `[0, horizon_hours)` of trace time. Storm
    /// arrivals are a Poisson stream at `storm_rate_per_hour`, sampled
    /// from the seed once and frozen, and cut at [`MAX_STORMS`], so even a
    /// hand-built plan with an infinite rate or horizon ends.
    pub fn new(plan: FaultPlan, horizon_hours: Hours) -> Self {
        let mut storms = Vec::new();
        if plan.storm_rate_per_hour > 0.0 && horizon_hours > 0.0 {
            let mut state = mix(plan.seed, TAG_STORM_TIME);
            let mut t = 0.0;
            while storms.len() < MAX_STORMS {
                state = splitmix64(state);
                // Exponential inter-arrival; clamp u away from 0.
                let u = unit(state).max(1e-12);
                t += -u.ln() / plan.storm_rate_per_hour;
                if t >= horizon_hours {
                    break;
                }
                storms.push(Storm { at_hours: t });
            }
        }
        Self { plan, storms }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The precomputed storm timeline.
    pub fn storms(&self) -> &[Storm] {
        &self.storms
    }

    /// Uniform `[0, 1)` draw for a fault-class decision at the given
    /// coordinates. Pure — no state advances.
    fn draw(&self, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        unit(mix(mix(mix(mix(self.plan.seed, tag), a), b), c))
    }

    /// Earliest storm at or after `from` that reclaims `group`, if any.
    pub fn storm_kill_after(&self, group: CircleGroupId, from: Hours) -> Option<Hours> {
        self.storm_kill_after_keyed(group_key(group), from)
    }

    /// [`FaultInjector::storm_kill_after`] with the group hash precomputed.
    /// The batched executor caches [`group_key`] per (group, plan) so hot
    /// replay loops skip the per-call string hash; draws are identical.
    pub fn storm_kill_after_keyed(&self, key: u64, from: Hours) -> Option<Hours> {
        if self.plan.storm_group_prob <= 0.0 {
            return None;
        }
        self.storms
            .iter()
            .enumerate()
            .filter(|(_, s)| s.at_hours >= from)
            .find(|(i, _)| {
                self.draw(TAG_STORM_MEMBER, *i as u64, key, 0) < self.plan.storm_group_prob
            })
            .map(|(_, s)| s.at_hours)
    }

    /// Whether attempt `attempt` (1-based) of `group`'s checkpoint number
    /// `ordinal` fails to upload.
    pub fn ckpt_upload_fails(&self, group: CircleGroupId, ordinal: u32, attempt: u32) -> bool {
        self.ckpt_upload_fails_keyed(group_key(group), ordinal, attempt)
    }

    /// [`FaultInjector::ckpt_upload_fails`] with the group hash precomputed
    /// (see [`FaultInjector::storm_kill_after_keyed`]).
    pub fn ckpt_upload_fails_keyed(&self, key: u64, ordinal: u32, attempt: u32) -> bool {
        self.plan.ckpt_fail_prob > 0.0
            && self.draw(TAG_CKPT_FAIL, key, ordinal as u64, attempt as u64)
                < self.plan.ckpt_fail_prob
    }

    /// Extra upload hours if `group`'s checkpoint number `ordinal` hits a
    /// latency spike.
    pub fn ckpt_latency_spike(&self, group: CircleGroupId, ordinal: u32) -> Option<Hours> {
        self.ckpt_latency_spike_keyed(group_key(group), ordinal)
    }

    /// [`FaultInjector::ckpt_latency_spike`] with the group hash precomputed
    /// (see [`FaultInjector::storm_kill_after_keyed`]).
    pub fn ckpt_latency_spike_keyed(&self, key: u64, ordinal: u32) -> Option<Hours> {
        if self.plan.ckpt_latency_prob > 0.0
            && self.draw(TAG_CKPT_LATENCY, key, ordinal as u64, 0) < self.plan.ckpt_latency_prob
        {
            Some(self.plan.ckpt_latency_hours)
        } else {
            None
        }
    }

    /// Whether restore number `ordinal` against `key` (a caller-chosen
    /// coordinate for the on-demand restore) reads a corrupt image.
    pub fn restore_corrupted(&self, key: u64, ordinal: u32) -> bool {
        self.plan.restore_corrupt_prob > 0.0
            && self.draw(TAG_RESTORE, key, ordinal as u64, 0) < self.plan.restore_corrupt_prob
    }

    /// Whether the market feed is gapped at adaptive window `window`.
    pub fn feed_gap_at(&self, window: u32) -> bool {
        self.plan.feed_gap_prob > 0.0
            && self.draw(TAG_FEED_GAP, window as u64, 0, 0) < self.plan.feed_gap_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceCatalog;
    use crate::zone::AvailabilityZone;

    fn gid(zone: AvailabilityZone) -> CircleGroupId {
        let cat = InstanceCatalog::paper_2014();
        CircleGroupId::new(cat.by_name("m1.small").unwrap(), zone)
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::quiet(), 1000.0);
        let g = gid(AvailabilityZone::UsEast1a);
        assert!(inj.storms().is_empty());
        assert_eq!(inj.storm_kill_after(g, 0.0), None);
        assert!(!inj.ckpt_upload_fails(g, 0, 1));
        assert_eq!(inj.ckpt_latency_spike(g, 0), None);
        assert!(!inj.restore_corrupted(group_key(g), 0));
        assert!(!inj.feed_gap_at(0));
    }

    #[test]
    fn keyed_variants_match_group_variants() {
        let plan = FaultPlan::parse("storm=0.1x0.5,ckpt-fail=0.3,ckpt-latency=0.4:0.25", 7)
            .expect("valid fault grammar");
        let inj = FaultInjector::new(plan, 500.0);
        for zone in [
            AvailabilityZone::UsEast1a,
            AvailabilityZone::UsEast1b,
            AvailabilityZone::UsEast1c,
        ] {
            let g = gid(zone);
            let key = group_key(g);
            for from in [0.0, 13.7, 250.0] {
                assert_eq!(
                    inj.storm_kill_after(g, from),
                    inj.storm_kill_after_keyed(key, from)
                );
            }
            for ordinal in 0..16 {
                for attempt in 1..4 {
                    assert_eq!(
                        inj.ckpt_upload_fails(g, ordinal, attempt),
                        inj.ckpt_upload_fails_keyed(key, ordinal, attempt)
                    );
                }
                assert_eq!(
                    inj.ckpt_latency_spike(g, ordinal),
                    inj.ckpt_latency_spike_keyed(key, ordinal)
                );
            }
        }
    }

    #[test]
    fn queries_are_pure_and_order_independent() {
        let plan = FaultPlan {
            seed: 42,
            storm_rate_per_hour: 0.1,
            storm_group_prob: 0.5,
            ckpt_fail_prob: 0.5,
            ckpt_latency_prob: 0.5,
            ckpt_latency_hours: 0.25,
            restore_corrupt_prob: 0.5,
            feed_gap_prob: 0.5,
        };
        let a = FaultInjector::new(plan, 500.0);
        let b = FaultInjector::new(plan, 500.0);
        let g = gid(AvailabilityZone::UsEast1a);
        assert_eq!(a.storms(), b.storms());
        // Query b in a scrambled order; answers must match a's.
        let probes: Vec<bool> = (0..50).map(|i| a.ckpt_upload_fails(g, i, 1)).collect();
        let scrambled: Vec<bool> = (0..50)
            .rev()
            .map(|i| b.ckpt_upload_fails(g, i, 1))
            .rev()
            .collect();
        assert_eq!(probes, scrambled);
        assert_eq!(a.storm_kill_after(g, 10.0), b.storm_kill_after(g, 10.0));
        for w in 0..20 {
            assert_eq!(a.feed_gap_at(w), b.feed_gap_at(w));
        }
    }

    #[test]
    fn seeds_decorrelate_fault_streams() {
        let base = FaultPlan {
            seed: 1,
            ckpt_fail_prob: 0.5,
            ..FaultPlan::quiet()
        };
        let a = FaultInjector::new(base, 100.0);
        let b = FaultInjector::new(FaultPlan { seed: 2, ..base }, 100.0);
        let g = gid(AvailabilityZone::UsEast1b);
        let va: Vec<bool> = (0..64).map(|i| a.ckpt_upload_fails(g, i, 1)).collect();
        let vb: Vec<bool> = (0..64).map(|i| b.ckpt_upload_fails(g, i, 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn storm_rate_roughly_matches_poisson_mean() {
        let plan = FaultPlan {
            seed: 9,
            storm_rate_per_hour: 0.05,
            storm_group_prob: 1.0,
            ..FaultPlan::quiet()
        };
        let inj = FaultInjector::new(plan, 10_000.0);
        let n = inj.storms().len() as f64;
        // Expect ~500; allow a generous band.
        assert!((350.0..650.0).contains(&n), "storms {n}");
        // Sorted, inside horizon.
        for w in inj.storms().windows(2) {
            assert!(w[0].at_hours < w[1].at_hours);
        }
        assert!(inj.storms().last().unwrap().at_hours < 10_000.0);
    }

    #[test]
    fn storm_membership_is_correlated_but_not_universal() {
        let plan = FaultPlan {
            seed: 3,
            storm_rate_per_hour: 0.02,
            storm_group_prob: 0.5,
            ..FaultPlan::quiet()
        };
        let inj = FaultInjector::new(plan, 5_000.0);
        let a = gid(AvailabilityZone::UsEast1a);
        let b = gid(AvailabilityZone::UsEast1b);
        // With p = 0.5 over ~100 storms, each group is hit by some storms
        // but not all, and the two groups' hit sets differ.
        let hits = |g| -> Vec<Hours> {
            let mut from = 0.0;
            let mut out = Vec::new();
            while let Some(t) = inj.storm_kill_after(g, from) {
                out.push(t);
                from = t + 1e-9;
            }
            out
        };
        let (ha, hb) = (hits(a), hits(b));
        assert!(!ha.is_empty() && ha.len() < inj.storms().len());
        assert_ne!(ha, hb);
    }

    #[test]
    fn retry_backoff_is_bounded_monotone_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_hours: 0.1,
            multiplier: 2.0,
            max_backoff_hours: 0.5,
            jitter: 0.0,
        };
        assert_eq!(p.backoff_hours(7, 1, 1), 0.1);
        assert_eq!(p.backoff_hours(7, 1, 2), 0.2);
        assert_eq!(p.backoff_hours(7, 1, 3), 0.4);
        assert_eq!(p.backoff_hours(7, 1, 4), 0.5); // capped
        let jittered = RetryPolicy { jitter: 0.25, ..p };
        let w1 = jittered.backoff_hours(7, 1, 2);
        assert_eq!(w1, jittered.backoff_hours(7, 1, 2), "jitter not seeded");
        assert!((0.15..=0.25).contains(&w1), "jittered {w1}");
        assert!(RetryPolicy::none().is_noop());
        assert_eq!(RetryPolicy::none().backoff_hours(7, 1, 1), 0.0);
        assert!(!RetryPolicy::default_io().is_noop());
    }

    #[test]
    fn spec_parsing_round_trips_every_class() {
        let p = FaultPlan::parse(
            "storm=0.05x0.8,ckpt-fail=0.3,ckpt-latency=0.2:0.5,\
             restore-corrupt=0.25,feed-gap=0.1",
            11,
        )
        .unwrap();
        assert_eq!(p.seed, 11);
        assert_eq!(p.storm_rate_per_hour, 0.05);
        assert_eq!(p.storm_group_prob, 0.8);
        assert_eq!(p.ckpt_fail_prob, 0.3);
        assert_eq!(p.ckpt_latency_prob, 0.2);
        assert_eq!(p.ckpt_latency_hours, 0.5);
        assert_eq!(p.restore_corrupt_prob, 0.25);
        assert_eq!(p.feed_gap_prob, 0.1);
        assert!(!p.is_quiet());

        assert_eq!(
            FaultPlan::parse("storm=0.1", 0).unwrap().storm_group_prob,
            1.0
        );
        assert!(FaultPlan::parse("", 0).unwrap().is_quiet());
        assert!(FaultPlan::parse("bogus=1", 0).is_err());
        // A storm is an instant kill: there is no duration term.
        assert!(FaultPlan::parse("storm-hours=2", 0)
            .unwrap_err()
            .contains("unknown term"));
        assert!(FaultPlan::parse("ckpt-fail=1.5", 0).is_err());
        assert!(FaultPlan::parse("ckpt-latency=0.5", 0).is_err());
        assert!(FaultPlan::parse("storm", 0).is_err());
    }

    #[test]
    fn specs_that_could_exhaust_memory_are_rejected() {
        for spec in [
            "storm=inf",
            "storm=NaN",
            "storm=-0.5",
            "storm=1e5",
            "storm=10.5x0.5",
            "ckpt-latency=0.5:inf",
            "ckpt-latency=0.5:-2",
            "ckpt-latency=0.5:NaN",
            "storm=0.5xnan",
        ] {
            let err = FaultPlan::parse(spec, 1).unwrap_err();
            assert!(err.starts_with("--faults"), "{spec}: {err}");
        }
        let max = FaultPlan::parse(&format!("storm={MAX_STORM_RATE_PER_HOUR}"), 1).unwrap();
        assert_eq!(max.storm_rate_per_hour, MAX_STORM_RATE_PER_HOUR);
        let zero = FaultPlan::parse("storm=0,ckpt-latency=0:0", 1).unwrap();
        assert!(zero.is_quiet());
    }

    #[test]
    fn hand_built_storm_streams_end() {
        // Plans the parser rejects but a caller can build by hand: each
        // injector is built in bounded time and memory.
        let storms = |rate: f64, horizon: Hours| {
            let plan = FaultPlan {
                seed: 4,
                storm_rate_per_hour: rate,
                ..FaultPlan::quiet()
            };
            FaultInjector::new(plan, horizon).storms().len()
        };
        assert_eq!(storms(f64::INFINITY, 200.0), MAX_STORMS);
        assert_eq!(storms(1.0, f64::INFINITY), MAX_STORMS);
        assert_eq!(storms(f64::NAN, 200.0), 0);
        assert_eq!(storms(1.0, f64::NAN), 0);
        assert_eq!(storms(-1.0, 200.0), 0);
        // The cap cuts nothing a parsed plan builds over a long trace.
        let n = storms(MAX_STORM_RATE_PER_HOUR, 10_000.0);
        assert!(n > 90_000 && n < MAX_STORMS, "{n} storms");
    }

    #[test]
    fn plan_serializes() {
        let p = FaultPlan::parse("storm=0.05,feed-gap=0.5", 3).unwrap();
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }
}
