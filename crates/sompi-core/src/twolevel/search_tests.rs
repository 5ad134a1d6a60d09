//! Tests of the branch-and-bound search set-up: the counters and plans of
//! fixed seeded searches, and the per-subset set-up and full enumeration
//! that the shared tables and the subset cursor must equal.

use super::*;
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use ec2_market::tracegen::{TraceGenConfig, ZoneVolatility};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use sompi_obs::RingRecorder;

/// A drifting stress market over the paper catalog's 15 circle groups:
/// every pair volatile (zone a extreme), its base price re-drawn every
/// 50 h — the regime the adaptive loop re-plans in.
pub(super) fn stress_market(seed: u64, hours: f64) -> SpotMarket {
    const SEGMENT_HOURS: f64 = 50.0;
    let catalog = InstanceCatalog::paper_2014();
    let mut market = SpotMarket::new(catalog.clone());
    let segments = (hours / SEGMENT_HOURS).ceil() as u64;
    for (id, ty) in catalog.iter() {
        for (zone, vol) in [
            (AvailabilityZone::UsEast1a, ZoneVolatility::Extreme),
            (AvailabilityZone::UsEast1b, ZoneVolatility::Volatile),
            (AvailabilityZone::UsEast1c, ZoneVolatility::Volatile),
        ] {
            let pair_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((id.0 as u64) << 8)
                .wrapping_add(zone.index() as u64);
            let mut trace: Option<SpotTrace> = None;
            for seg in 0..segments {
                // SplitMix64 step: a base level in [0.6, 2.2).
                let mut z = pair_seed.wrapping_add((seg + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let level = 0.6 + 1.6 * ((z >> 11) as f64 / (1u64 << 53) as f64);
                let cfg = TraceGenConfig::preset(ty.on_demand_price * 0.15 * level, vol);
                let piece = cfg.generate(
                    SEGMENT_HOURS,
                    1.0 / 12.0,
                    pair_seed.wrapping_add(seg * 7919),
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

/// BT repeated to an 8-h baseline over all 15 groups at deadline 1.5×,
/// as the adaptive benchmark plans it.
pub(super) fn stress_problem(market: &SpotMarket) -> Problem {
    let once = NpbKernel::Bt.profile(NpbClass::B, 128);
    let probe = Problem::build(market, &once, f64::MAX, None, S3Store::paper_2014());
    let repeats = (8.0 / probe.baseline_time()).ceil() as u32;
    let mut problem = Problem::build(
        market,
        &once.repeated(repeats),
        f64::MAX,
        None,
        S3Store::paper_2014(),
    );
    problem.deadline = problem.baseline_time() * 1.5;
    problem
}

/// The long LU job of `candidate_floor_holds_on_a_long_job`.
fn long_job() -> (Problem, MarketView) {
    let (market, _, view) = super::tests::setup();
    let profile = NpbKernel::Lu.profile(NpbClass::B, 128).repeated(2000);
    let mut problem = Problem::build(&market, &profile, 1.0, None, S3Store::paper_2014());
    problem.deadline = 2.0 * problem.baseline_time();
    (problem, view)
}

/// FNV-1a over a string.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One search's pinned values, as one line: `PlanSelected`'s counters,
/// the `SubsetEvaluated` counters (labelled `worker`), and a digest of the
/// plan JSON. The ten sliding-view plans were first pinned with
/// cross-window warm starts and kept their digests when the searches
/// went cold: the warm layers never changed a plan.
fn record(out: &OptimizedPlan, events: &[Event]) -> String {
    let mut line = String::new();
    for e in events {
        match e {
            Event::PlanSelected {
                evaluations,
                evals_skipped,
                bound_tightenings,
                ..
            } => line += &format!("sel {evaluations}/{evals_skipped}/{bound_tightenings} "),
            Event::SubsetEvaluated {
                subsets,
                evaluations,
                feasible,
                skipped,
                subsets_rejected,
                ..
            } => {
                line += &format!("worker {subsets}/{evaluations}/{feasible}/{skipped} ");
                line += &format!("rejected {subsets_rejected} ");
            }
            _ => {}
        }
    }
    let json = serde_json::to_string(&out.plan).expect("plans serialize");
    line + &format!("plan {:016x}", fnv(&json))
}

fn traced(opt: &TwoLevelOptimizer<'_>) -> String {
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = opt
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    record(&out, &ring.take())
}

#[test]
fn seeded_searches_keep_their_counters_and_plans() {
    let market = stress_market(7, 400.0);
    let problem = stress_problem(&market);
    let mut got = Vec::new();

    // Cold search.
    let view = MarketView::from_market(&market, 100.0, 148.0);
    got.push(traced(&TwoLevelOptimizer::new(
        &problem,
        &view,
        OptimizerConfig::default(),
    )));

    // Ten re-plans on a view sliding 2 h per window.
    for w in 0..10 {
        let start = 150.0 + 2.0 * w as f64;
        let view = MarketView::from_market(&market, start, start + 48.0);
        got.push(traced(&TwoLevelOptimizer::new(
            &problem,
            &view,
            OptimizerConfig::default(),
        )));
    }

    // Long-job search.
    let (problem, view) = long_job();
    got.push(traced(&TwoLevelOptimizer::new(
        &problem,
        &view,
        OptimizerConfig::default(),
    )));

    let expected = [
        "worker 793/173438/7/173431 rejected 767 sel 173439/173431/6 plan 8e4e23d1a1377e33",
        "worker 793/366360/11/366349 rejected 761 sel 366361/366349/11 plan edf4955bcc189f0b",
        "worker 793/392856/10/392846 rejected 761 sel 392857/392846/10 plan 1a42318c871ce4b7",
        "worker 793/392856/10/392846 rejected 760 sel 392857/392846/10 plan f06d5a898bda3d5b",
        "worker 793/392856/10/392846 rejected 760 sel 392857/392846/10 plan 304741bb91e763f5",
        "worker 793/392856/10/392846 rejected 757 sel 392857/392846/10 plan efa6bcffd9b058d1",
        "worker 793/420811/9/420802 rejected 756 sel 420812/420802/9 plan f1858e113e9f5a0a",
        "worker 793/420811/9/420802 rejected 755 sel 420812/420802/9 plan ec1b755bf6a7c298",
        "worker 793/448766/9/448757 rejected 755 sel 448767/448757/9 plan 4d836ed621b3a416",
        "worker 793/448766/9/448757 rejected 754 sel 448767/448757/9 plan b019e9e09b735f0e",
        "worker 793/448766/9/448757 rejected 755 sel 448767/448757/9 plan 1eb8006c84944fe1",
        "worker 1940/8522/3/8519 rejected 1930 sel 8523/8519/3 plan c41bef5b3259942d",
    ];
    assert_eq!(got, expected);
}

/// The per-subset set-up the walk ran before the shared tables, kept as
/// the oracle.
struct ReferenceSetup {
    /// Each slot's options sorted by `(cost_lower_bound(w_min), index)`.
    lb_sorted: Vec<Vec<(f64, usize)>>,
    /// The walk's first lower-bound sum.
    lb_total: f64,
    /// Prefix sums of the slots' minima.
    head_min: Vec<f64>,
}

fn reference_setup(options: &[Vec<GroupAssessment>], chosen: &[usize]) -> ReferenceSetup {
    let min_wall = |g: usize| {
        options[g]
            .iter()
            .map(|a| a.completion_wall())
            .fold(f64::INFINITY, f64::min)
    };
    let w_min = chosen
        .iter()
        .map(|&g| min_wall(g))
        .fold(f64::INFINITY, f64::min);
    let mut lb_sorted = Vec::new();
    let mut head_min = Vec::new();
    let mut head = 0.0f64;
    for &g in chosen {
        let mut lb: Vec<(f64, usize)> = options[g]
            .iter()
            .enumerate()
            .map(|(i, a)| (a.cost_lower_bound(w_min), i))
            .collect();
        lb.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        head_min.push(head);
        head += lb[0].0;
        lb_sorted.push(lb);
    }
    head_min.push(head);
    let lb_total: f64 = lb_sorted.iter().map(|lb| lb[0].0).sum();
    ReferenceSetup {
        lb_sorted,
        lb_total,
        head_min,
    }
}

fn with_options(options: &[Vec<GroupAssessment>]) -> Vec<usize> {
    (0..options.len())
        .filter(|&g| !options[g].is_empty())
        .collect()
}

/// The options of the two oracle problems: the stress-market 8-h job and
/// the long LU job.
fn oracle_problems() -> Vec<(&'static str, Problem, Vec<Vec<GroupAssessment>>)> {
    let market = stress_market(7, 400.0);
    let stress = stress_problem(&market);
    let view = MarketView::from_market(&market, 100.0, 148.0);
    let stress_options = TwoLevelOptimizer::new(&stress, &view, OptimizerConfig::default())
        .assess_options()
        .unwrap()
        .options;
    let (long, view) = long_job();
    let long_options = TwoLevelOptimizer::new(&long, &view, OptimizerConfig::default())
        .assess_options()
        .unwrap()
        .options;
    vec![
        ("stress", stress, stress_options),
        ("long job", long, long_options),
    ]
}

#[test]
fn tables_equal_the_per_subset_set_up() {
    for (name, problem, options) in oracle_problems() {
        assert_eq!(problem.candidates.len(), 15, "{name}");
        let groups = with_options(&options);
        assert!(groups.len() >= 4, "{name}: {} groups", groups.len());
        for kappa in [1, 4] {
            let tables = BoundTables::new(&options, kappa);
            let mut subsets = SubsetCursor::new(&groups, kappa);
            let mut walked = 0u64;
            while let Some(chosen) = subsets.next() {
                walked += 1;
                let level = tables.level(chosen);
                let ReferenceSetup {
                    lb_sorted,
                    lb_total,
                    head_min,
                } = reference_setup(&options, chosen);
                for (slot, &g) in chosen.iter().enumerate() {
                    let got: Vec<(u64, usize)> = tables
                        .ranked(g, level)
                        .iter()
                        .map(|&(lb, i)| (lb.to_bits(), i))
                        .collect();
                    let want: Vec<(u64, usize)> = lb_sorted[slot]
                        .iter()
                        .map(|&(lb, i)| (lb.to_bits(), i))
                        .collect();
                    assert_eq!(got, want, "{name} κ {kappa}: subset {chosen:?} slot {slot}");
                }
                let head = tables.head(chosen, level);
                assert_eq!(head.to_bits(), lb_total.to_bits(), "{name}: {chosen:?}");
                assert_eq!(
                    head.to_bits(),
                    head_min[chosen.len()].to_bits(),
                    "{name}: {chosen:?}"
                );
            }
            assert_eq!(
                walked,
                subset_count(groups.len(), kappa),
                "{name} κ {kappa}"
            );
        }
    }
}

/// Every `k`-subset of `0..n`, `1 ≤ k ≤ k_max`, k ascending and
/// lexicographic within k: the bit masks of `0..n` with at most `k_max`
/// bits, sorted. The oracle the subset cursor is checked against.
fn masked_subsets(n: usize, k_max: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = (1..1u32 << n)
        .map(|mask| (0..n).filter(|&g| mask & (1 << g) != 0).collect::<Vec<_>>())
        .filter(|s| s.len() <= k_max)
        .collect();
    all.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    all
}

#[test]
fn subset_cursor_yields_the_filtered_enumeration() {
    for n in 0..=8usize {
        for mask in 0..1u32 << n {
            let has = |g: usize| mask & (1 << g) != 0;
            let groups: Vec<usize> = (0..n).filter(|&g| has(g)).collect();
            for k_max in 0..=n + 1 {
                // Every subset of all n groups, k ascending, kept only
                // when each member has options.
                let want: Vec<Vec<usize>> = masked_subsets(n, k_max)
                    .into_iter()
                    .filter(|s| s.iter().all(|&g| has(g)))
                    .collect();
                if mask == (1 << n) - 1 {
                    assert_eq!(subset_count(n, k_max), want.len() as u64);
                }
                let mut cursor = SubsetCursor::new(&groups, k_max);
                for (i, s) in want.iter().enumerate() {
                    assert_eq!(
                        cursor.next(),
                        Some(s.as_slice()),
                        "n {n} mask {mask:b} k_max {k_max}: subset {i}"
                    );
                }
                assert_eq!(cursor.next(), None, "n {n} mask {mask:b} k_max {k_max}");
            }
        }
    }
    assert_eq!(subset_count(15, 4), 1940);
    assert_eq!(subset_count(15, 99), (1 << 15) - 1);
}

#[test]
fn no_subset_is_rejected_without_the_bound() {
    let market = stress_market(7, 400.0);
    let problem = stress_problem(&market);
    let view = MarketView::from_market(&market, 100.0, 148.0);
    let rejected = |prune_bound: bool| {
        let cfg = OptimizerConfig {
            kappa: 2,
            prune_bound,
            ..OptimizerConfig::default()
        };
        let ring = RingRecorder::new(TraceLevel::Detail, 16);
        TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize_with(&mut PlanContext::new().with_recorder(&ring))
            .unwrap();
        ring.take()
            .iter()
            .map(|e| match e {
                Event::SubsetEvaluated {
                    subsets_rejected, ..
                } => *subsets_rejected,
                _ => 0,
            })
            .sum::<u64>()
    };
    assert_eq!(rejected(false), 0);
    assert!(rejected(true) > 0);
}
