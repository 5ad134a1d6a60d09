//! Policy arena — every strategy from the paper and the related
//! literature, head to head on equal terms.
//!
//! One deterministic pass over a grid of synthetic markets × fault
//! plans: each [`Policy`](sompi_core::policy::Policy) plans against the
//! same 48-hour view and is Monte-Carlo-replayed from the same replica
//! offsets. The roster pits SOMPI against On-demand, No-FT (no fault
//! tolerance, Alourani-style), Ckpt-Only (Spot-on-style checkpointing),
//! App-Centric (availability-targeted bidding) and Deadline-Hedge
//! (deadline-tightened re-planning).
//!
//! Expected shape (paper §5): SOMPI and the bid-aware rivals beat
//! On-demand by 60%+ in calm markets; under injected storms the
//! single-mechanism policies lose their lead to deadline misses and
//! re-run costs while SOMPI's replication + fallback holds.
//!
//! `--smoke` runs a seconds-fast configuration for CI.

use sompi_obs::NullRecorder;
use sompi_server::proto::PlanRequest;
use sompi_server::tournament::{run_tournament, TournamentConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        TournamentConfig {
            market_hours: 120.0,
            replicas: 3,
            plan: PlanRequest {
                repeats: 50,
                kappa: 1,
                bid_levels: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    } else {
        TournamentConfig {
            market_seeds: vec![21, 22, 23],
            market_hours: 400.0,
            replicas: sompi_bench::replicas() as u32,
            fault_specs: vec![None, Some("storm=0.02x0.5,ckpt-fail=0.05".into())],
            plan: PlanRequest {
                kappa: 2,
                bid_levels: 8,
                ..Default::default()
            },
            ..Default::default()
        }
    };

    let report = run_tournament(&cfg, &NullRecorder, None).expect("tournament runs");
    println!(
        "Policy arena — {} policies x {} markets x {} fault plans{}",
        cfg.policies.len(),
        cfg.market_seeds.len(),
        cfg.fault_specs.len(),
        if smoke { " (smoke)" } else { "" }
    );
    print!("{}", report.render());
}
