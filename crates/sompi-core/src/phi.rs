//! The `F = φ(P)` dimension reduction — Section 4.2.2, Theorem 1.
//!
//! Given a bid price, the optimal checkpoint interval for a circle group is
//! determined by the group's failure behaviour at that bid alone (Theorem 1
//! lets the optimizer substitute `φ(P)` for `F` without losing optimality).
//! Following the paper's reference to Daly's first-order model, we use the
//! Young/Daly interval `F* = sqrt(2 · O_i · MTTF(P_i))`, clamped into
//! `[O_i, T_i]`:
//!
//! * an un-terminable bid (no failure mass observed) degenerates to
//!   `F = T_i` — checkpointing disabled, matching the paper's convention;
//! * a very failure-prone bid clamps to `O_i` (checkpointing any faster
//!   than the checkpoint itself is useless).

use crate::error::SompiError;
use crate::model::CircleGroup;
use crate::view::MarketView;
use crate::{Hours, Usd};
use ec2_market::failure::{FailureCounts, FailureEstimator};

/// Compute `φ_i(P_i)`: the checkpoint interval for `group` at bid `bid`.
///
/// This is the Theorem 1 substitution: the optimizer never searches over
/// `F` directly — each bid maps to its interval via the market view's
/// failure estimate. The chosen interval per group is surfaced in
/// `SubsetEvaluated.phi_intervals` trace events (see
/// `docs/OBSERVABILITY.md`). Errors when the view has no history for the
/// group.
pub fn optimal_interval(
    group: &CircleGroup,
    bid: Usd,
    view: &MarketView,
) -> Result<Hours, SompiError> {
    Ok(optimal_interval_for(
        group,
        bid,
        view.try_estimator(group.id)?,
    ))
}

/// [`optimal_interval`] with the group's estimator already in hand —
/// infallible; one [`FailureEstimator::bid_profile`] sweep.
pub fn optimal_interval_for(group: &CircleGroup, bid: Usd, est: &FailureEstimator) -> Hours {
    interval_from_counts(group, est.bid_profile(bid, phi_horizon(group)).counts())
}

/// `φ_i(P_i)` from a bid's first-passage counts, recorded at a horizon of
/// at least [`phi_horizon`]. The counts truncate exactly, so the result
/// equals [`optimal_interval_for`]'s bit for bit; the optimizer derives φ
/// this way from the one profile it sweeps per `(group, bid)`.
pub(crate) fn interval_from_counts(group: &CircleGroup, counts: &FailureCounts) -> Hours {
    // Estimate MTTF over the group's own wall-clock horizon (without
    // checkpoints yet — a first-order self-consistent choice: O_i ≪ T_i).
    let f = counts.to_fn(phi_horizon(group));
    interval_from_mttf(group, f.mean_time_to_failure())
}

/// The hourly horizon `φ` estimates MTTF over: the group's own execution
/// time.
pub fn phi_horizon(group: &CircleGroup) -> usize {
    group.exec_hours.ceil().max(1.0) as usize
}

/// The Young/Daly interval given an MTTF estimate; exposed separately for
/// tests and for the ablation bench that sweeps MTTF directly.
///
/// ```
/// use sompi_core::phi::interval_from_mttf;
/// use sompi_core::CircleGroup;
/// use ec2_market::instance::InstanceTypeId;
/// use ec2_market::market::CircleGroupId;
/// use ec2_market::zone::AvailabilityZone;
///
/// let group = CircleGroup {
///     id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
///     instances: 4,
///     exec_hours: 100.0,
///     ckpt_overhead_hours: 0.02,
///     recovery_hours: 0.1,
/// };
/// // MTTF 25 h → F* = sqrt(2 · 0.02 · 25) = 1.0 h.
/// assert!((interval_from_mttf(&group, Some(25.0)) - 1.0).abs() < 1e-12);
/// // No observed failure mass → checkpointing disabled (F = T).
/// assert_eq!(interval_from_mttf(&group, None), 100.0);
/// // Less work left than one checkpoint costs → no checkpoints either.
/// let tail = CircleGroup { exec_hours: 0.01, ..group };
/// assert_eq!(interval_from_mttf(&tail, Some(25.0)), 0.01);
/// ```
pub fn interval_from_mttf(group: &CircleGroup, mttf: Option<Hours>) -> Hours {
    match mttf {
        // No observed failures: do not checkpoint.
        None => group.exec_hours,
        // Less work left than one checkpoint costs (an adaptive re-plan
        // near the end of a job): checkpointing cannot pay, so do not
        // checkpoint — the no-failure convention, and no `clamp` with
        // min > max.
        Some(_) if group.ckpt_overhead_hours > group.exec_hours => group.exec_hours,
        Some(m) => {
            let f = (2.0 * group.ckpt_overhead_hours * m).sqrt();
            f.clamp(group.ckpt_overhead_hours, group.exec_hours)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceTypeId;
    use ec2_market::market::CircleGroupId;
    use ec2_market::zone::AvailabilityZone;

    fn group(t: Hours, o: Hours) -> CircleGroup {
        CircleGroup {
            id: CircleGroupId::new(InstanceTypeId(0), AvailabilityZone::UsEast1a),
            instances: 4,
            exec_hours: t,
            ckpt_overhead_hours: o,
            recovery_hours: 0.1,
        }
    }

    #[test]
    fn young_daly_formula() {
        let g = group(100.0, 0.02);
        // MTTF 25 h → F* = sqrt(2·0.02·25) = 1.0 h.
        let f = interval_from_mttf(&g, Some(25.0));
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_failures_means_no_checkpoints() {
        let g = group(10.0, 0.02);
        assert_eq!(interval_from_mttf(&g, None), 10.0);
    }

    #[test]
    fn clamps_to_execution_time() {
        let g = group(2.0, 0.02);
        // Huge MTTF → interval would exceed T; clamp to T (disable).
        assert_eq!(interval_from_mttf(&g, Some(1e6)), 2.0);
    }

    #[test]
    fn clamps_to_overhead() {
        let g = group(10.0, 0.5);
        // Tiny MTTF → interval would go below O; clamp to O.
        assert_eq!(interval_from_mttf(&g, Some(1e-6)), 0.5);
    }

    #[test]
    fn overhead_above_remaining_work_disables_checkpoints() {
        // An adaptive re-plan with 0.0055 h of work left against a
        // 0.0092 h checkpoint: `clamp` would panic (min > max).
        let g = group(0.0055, 0.0092);
        for mttf in [1e-6, 0.01, 1.0, 1e6] {
            assert_eq!(interval_from_mttf(&g, Some(mttf)), 0.0055);
        }
        assert_eq!(interval_from_mttf(&g, None), 0.0055);
        // Whenever min <= max, the result is exactly `clamp`'s.
        for (t, o) in [(10.0, 0.02), (2.0, 0.5), (0.0092, 0.0092), (1.0, 0.0)] {
            let g = group(t, o);
            for mttf in [1e-9, 1e-3, 0.5, 25.0, 1e9] {
                let clamped = (2.0 * o * mttf).sqrt().clamp(o, t);
                assert_eq!(
                    interval_from_mttf(&g, Some(mttf)).to_bits(),
                    clamped.to_bits()
                );
            }
        }
    }

    #[test]
    fn interval_grows_with_mttf() {
        let g = group(1000.0, 0.02);
        let mut prev = 0.0;
        for mttf in [1.0, 5.0, 25.0, 125.0] {
            let f = interval_from_mttf(&g, Some(mttf));
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn end_to_end_against_market_history() {
        use ec2_market::instance::InstanceCatalog;
        use ec2_market::market::SpotMarket;
        use ec2_market::tracegen::{MarketProfile, TraceGenerator};
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 11), 200.0, 1.0 / 12.0);
        let view = crate::view::MarketView::from_market(&market, 0.0, 96.0);
        let id = market
            .groups()
            .find(|g| g.zone == AvailabilityZone::UsEast1a)
            .unwrap();
        let mut g = group(12.0, 0.03);
        g.id = id;
        // A bid at the historical max never fails → no checkpoints.
        let f_hi = optimal_interval(&g, view.max_bid(id).unwrap(), &view).unwrap();
        assert_eq!(f_hi, g.exec_hours);
        // A low-but-launchable bid fails often → finite interval.
        let low_bid = view.mean_price(id).unwrap().unwrap() * 0.8;
        let f_lo = optimal_interval(&g, low_bid, &view).unwrap();
        assert!(f_lo <= f_hi);
        // The estimator-in-hand and counts forms are the same computation.
        let est = view.try_estimator(id).unwrap();
        assert_eq!(optimal_interval_for(&g, low_bid, est), f_lo);
        let counts = est.failure_counts(low_bid, phi_horizon(&g) + 7);
        assert_eq!(interval_from_counts(&g, &counts).to_bits(), f_lo.to_bits());
    }
}
