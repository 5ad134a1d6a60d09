//! Benchmark inputs: the markets every workload plans and replays against.
//!
//! [`stress_market`] is a private copy of the drifting stress market from
//! the ablation scaffolding (`sompi_bench::setup::stress_market`). It is
//! copied, not imported, so that an edit to the ablation binaries can never
//! silently change this benchmark's inputs; `inputs_digest` pins them.

use crate::stats::Fnv;
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use ec2_market::tracegen::{MarketProfile, TraceGenConfig, TraceGenerator, ZoneVolatility};
use ec2_market::zone::AvailabilityZone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Trace sampling step: 5 minutes.
pub const STEP_HOURS: f64 = 1.0 / 12.0;

/// Length of the stress market `plan`, `adaptive` and `serve` run on. Its
/// price level is re-drawn every 50 h, so a long market spreads each
/// round's views and replays over many regimes: the work a round does then
/// depends little on which seed drew the regimes.
pub const STRESS_HOURS: f64 = 2400.0;

/// A market plus what it cost to build, for the `setup_s` metric and the
/// `market.*` per-layer numbers.
pub struct Built {
    pub market: SpotMarket,
    pub generate_s: f64,
    pub index_s: f64,
}

impl Built {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.index_s
    }
}

/// Generate the stress market and force-build its trace indexes, timing
/// both steps.
pub fn build_stress(seed: u64, hours: f64) -> Built {
    let t = Instant::now();
    let market = stress_market(seed, hours);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    market.build_indexes();
    let index_s = t.elapsed().as_secs_f64();
    Built {
        market,
        generate_s,
        index_s,
    }
}

/// Every (type, zone) pair volatile, with the base price level re-rolled
/// every 50 hours: the non-stationary regime the adaptive loop exists for.
pub fn stress_market(seed: u64, duration_hours: f64) -> SpotMarket {
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
                CircleGroupId::new(id, zone),
                trace.expect("at least one segment"),
            );
        }
    }
    market
}

/// The calibrated 2014 market, built exactly as the tournament builds each
/// of its market cases (`sompi_server::tournament` generates them
/// internally from the same seed, hours and step).
pub fn paper_market(seed: u64, hours: f64) -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, seed),
        hours,
        STEP_HOURS,
    )
}

/// Price samples across every trace of `market`.
pub fn samples(market: &SpotMarket) -> u64 {
    market
        .groups()
        .map(|id| market.trace(id).map_or(0, |t| t.len() as u64))
        .sum()
}

/// Fold every trace price of `market` (group order, sample order) into
/// `h`.
pub fn digest_into(h: &mut Fnv, market: &SpotMarket) {
    for id in market.groups() {
        h.write(id.to_string().as_bytes());
        if let Some(trace) = market.trace(id) {
            for p in trace.samples() {
                h.write(&p.to_bits().to_le_bytes());
            }
        }
    }
}
