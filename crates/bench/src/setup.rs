//! Standard experiment setup: markets, workloads, problems, strategies.

use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::lammps::Lammps;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::profile::AppProfile;
use mpi_sim::storage::S3Store;
use replay::montecarlo::{McResult, MonteCarlo};
use replay::ExecContext;
use sompi_core::adaptive::PlanContext;
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::view::MarketView;

/// Trace sampling step: 5 minutes.
pub const STEP_HOURS: f64 = 1.0 / 12.0;
/// History window used by offline planning (the paper's "previous two
/// days").
pub const HISTORY_HOURS: f64 = 48.0;
/// The paper's default process count.
pub const PROCESSES: u32 = 128;
/// Target baseline (fastest on-demand) execution time, hours. The paper
/// repeats each application "100 to 200 times" to reach large-scale runs;
/// we scale repeat counts so every workload's baseline lands near this,
/// keeping hourly billing and hourly failure buckets meaningful across
/// kernels of very different unit durations.
pub const TARGET_BASELINE_HOURS: f64 = 1.2;
/// Tight deadline: 5% above Baseline Time.
pub const TIGHT: f64 = 0.05;
/// Loose deadline: 50% above Baseline Time.
pub const LOOSE: f64 = 0.50;

/// Build the calibrated 2014 market: 5 types × 3 zones over
/// `duration_hours` of synthetic history.
pub fn paper_market(seed: u64, duration_hours: f64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, seed),
        duration_hours,
        STEP_HOURS,
    )
}

/// A *stress* market for the fault-tolerance ablation (Figure 8): every
/// (type, zone) pair is volatile, so no circle group offers a free ride
/// and the value of checkpointing + replication is actually exercised.
/// The paper's 2014 us-east traces were in this regime for most types.
///
/// Unlike [`paper_market`], the stress market is also **non-stationary**:
/// every ~50 hours each (type, zone) pair re-rolls its base price level
/// (supply/demand shifts). That drift is exactly what the paper's update
/// maintenance (Algorithm 1) exists for, and what the w/o-MT ablation
/// suffers from.
pub fn stress_market(seed: u64, duration_hours: f64) -> SpotMarket {
    use ec2_market::trace::SpotTrace;
    use ec2_market::tracegen::{TraceGenConfig, ZoneVolatility};
    use ec2_market::zone::AvailabilityZone;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SEGMENT_HOURS: f64 = 50.0;
    let catalog = InstanceCatalog::paper_2014();
    let mut market = SpotMarket::new(catalog.clone());
    let segments = (duration_hours / SEGMENT_HOURS).ceil() as usize;

    for (id, ty) in catalog.iter() {
        let discount = match ty.name.as_str() {
            "m1.small" => 0.080,
            "m1.medium" => 0.085,
            "m1.large" => 0.120,
            "c3.xlarge" => 0.200,
            _ => 0.220,
        };
        for (zone, vol) in [
            (AvailabilityZone::UsEast1a, ZoneVolatility::Extreme),
            (AvailabilityZone::UsEast1b, ZoneVolatility::Volatile),
            (AvailabilityZone::UsEast1c, ZoneVolatility::Volatile),
        ] {
            let pair_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((id.0 as u64) << 8)
                .wrapping_add(zone.index() as u64);
            let mut level_rng = StdRng::seed_from_u64(pair_seed ^ 0xDEAD_BEEF);
            let mut trace: Option<SpotTrace> = None;
            for seg in 0..segments {
                // Base level wanders x[0.6, 2.2] across segments; the
                // preset volatility (10-100x on-demand spikes) supplies
                // the out-of-bid risk.
                let level: f64 = level_rng.gen_range(0.6..2.2);
                let cfg = TraceGenConfig::preset(ty.on_demand_price * discount * level, vol);
                let piece = cfg.generate(
                    SEGMENT_HOURS,
                    STEP_HOURS,
                    pair_seed.wrapping_add(seg as u64 * 7919),
                );
                match &mut trace {
                    None => trace = Some(piece),
                    Some(t) => t.extend_from(&piece),
                }
            }
            market.insert(
                ec2_market::market::CircleGroupId::new(id, zone),
                trace.expect("at least one segment"),
            );
        }
    }
    market
}

/// The four candidate instance types of the paper's evaluation.
pub fn paper_types(market: &SpotMarket) -> Vec<InstanceTypeId> {
    ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).expect("paper catalog"))
        .collect()
}

/// Repeat `profile` until its fastest-type execution reaches
/// `target_hours`.
pub fn repeat_to_hours(profile: AppProfile, target_hours: f64) -> AppProfile {
    let catalog = InstanceCatalog::paper_2014();
    let per_run = catalog
        .iter()
        .map(|(id, _)| {
            mpi_sim::cluster::ClusterSpec::for_processes(&catalog, id, profile.processes)
                .estimate(&catalog, &profile)
                .total_hours()
        })
        .fold(f64::INFINITY, f64::min);
    let repeats = (target_hours / per_run).ceil().clamp(1.0, 200_000.0) as u32;
    profile.repeated(repeats)
}

fn repeat_to_scale(profile: AppProfile) -> AppProfile {
    repeat_to_hours(profile, TARGET_BASELINE_HOURS)
}

/// NPB workload at the paper's defaults (CLASS B, 128 processes), repeated
/// to experiment scale.
pub fn npb_workload(kernel: NpbKernel) -> AppProfile {
    repeat_to_scale(kernel.profile(NpbClass::B, PROCESSES))
}

/// LAMMPS workload at a given process count, repeated to experiment scale.
pub fn lammps_workload(processes: u32) -> AppProfile {
    repeat_to_scale(Lammps::paper().profile(processes))
}

/// Build the optimization problem for `profile` with a deadline
/// `(1 + headroom) × Baseline Time`.
pub fn build_problem(market: &SpotMarket, profile: &AppProfile, headroom: f64) -> Problem {
    let types = paper_types(market);
    // Two-pass: build once to learn the baseline, then set the deadline.
    let mut p = Problem::build(
        market,
        profile,
        f64::MAX,
        Some(&types),
        S3Store::paper_2014(),
    );
    p.deadline = p.baseline_time() * (1.0 + headroom);
    p
}

/// The planning view every offline strategy uses: the first
/// [`HISTORY_HOURS`] of the market.
pub fn planning_view(market: &SpotMarket) -> MarketView {
    MarketView::from_market(market, 0.0, HISTORY_HOURS)
}

/// Monte-Carlo replica count: `SOMPI_REPLICAS` env var, default 200.
pub fn replicas() -> usize {
    std::env::var("SOMPI_REPLICAS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// Standard Monte-Carlo driver over a market: offsets start after the
/// planning history and leave `margin_hours` of trace for execution.
pub fn monte_carlo(market: &SpotMarket, margin_hours: f64, seed: u64) -> MonteCarlo {
    let max = (market.horizon() - margin_hours).max(HISTORY_HOURS + 1.0);
    MonteCarlo::builder()
        .replicas(replicas())
        .seed(seed)
        .offsets(HISTORY_HOURS, max)
        .build()
}

/// Plan with `strategy` once (offline, against the planning view) and
/// Monte-Carlo replay the plan over the market.
pub fn evaluate_strategy(
    strategy: &dyn Policy,
    problem: &Problem,
    market: &SpotMarket,
    mc_seed: u64,
) -> McResult {
    let view = planning_view(market);
    let plan = strategy
        .plan(problem, &view, &mut PlanContext::new())
        .expect("plan succeeds");
    let margin = problem.baseline_time() * 4.0 + 4.0;
    monte_carlo(market, margin, mc_seed)
        .run_plan(market, &plan, problem.deadline, &ExecContext::new())
        .expect("replay succeeds on generated markets")
}

/// Normalized (cost, time) pair against the problem's baseline. Cost is
/// normalized to the *billed* baseline (whole instance-hours) since replay
/// outcomes are billed the same way.
pub fn normalized(result: &McResult, problem: &Problem) -> (f64, f64) {
    (
        result.cost.mean / problem.baseline_cost_billed(),
        result.time.mean / problem.baseline_time(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn market_and_problem_scaffold() {
        let market = paper_market(1, 120.0);
        assert_eq!(market.len(), 15);
        let profile = npb_workload(NpbKernel::Bt);
        let problem = build_problem(&market, &profile, LOOSE);
        assert!((problem.deadline / problem.baseline_time() - 1.5).abs() < 1e-9);
        assert_eq!(problem.candidates.len(), 12);
    }

    #[test]
    fn replicas_env_default() {
        // Do not set the env var here (tests run in parallel); just check
        // the default path yields a positive count.
        assert!(replicas() > 0);
    }

    #[test]
    fn end_to_end_strategy_evaluation_smoke() {
        // Tiny smoke test of the full pipeline with few replicas.
        std::env::set_var("SOMPI_REPLICAS", "8");
        let market = paper_market(3, 160.0);
        let profile = npb_workload(NpbKernel::Bt);
        let problem = build_problem(&market, &profile, LOOSE);
        let od = sompi_core::baselines::OnDemandOnly;
        let r = evaluate_strategy(&od, &problem, &market, 11);
        std::env::remove_var("SOMPI_REPLICAS");
        assert!(r.cost.mean > 0.0);
        let (nc, nt) = normalized(&r, &problem);
        assert!(nc > 0.0 && nt > 0.0);
    }
}
