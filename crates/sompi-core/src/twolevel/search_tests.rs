//! Tests of the branch-and-bound search set-up: the counters and plans of
//! fixed seeded searches, and the per-subset set-up and full enumeration
//! that the shared tables and the subset cursor must equal.

#![cfg(test)]

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

/// One search traced at Detail: its output and its events.
fn traced(opt: &TwoLevelOptimizer<'_>) -> (OptimizedPlan, Vec<Event>) {
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = opt
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    (out, ring.take())
}

/// Twelve pinned searches: a cold search of the stress market, ten
/// re-plans on a view sliding 2 h per window, and the long-job search.
fn seeded_searches() -> Vec<(OptimizedPlan, Vec<Event>)> {
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
    got
}

#[test]
fn seeded_searches_keep_their_counters_and_plans() {
    let got: Vec<String> = seeded_searches()
        .iter()
        .map(|(out, events)| record(out, events))
        .collect();
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

#[test]
fn seeded_searches_count_the_work_their_skips_left() {
    // The walk counters of the same twelve searches. Every floor check
    // ends in an evaluation or a floor rejection, so the checks less the
    // evaluations run (`evaluations − skipped`) are the floor's
    // rejections; each check follows a rank step.
    let mut got = Vec::new();
    for (_, events) in seeded_searches() {
        let Some(&Event::SubsetEvaluated {
            evaluations,
            skipped,
            subsets_rejected,
            subsets_prefix_rejected,
            rank_steps,
            floor_checks,
            floor_spot_rejections,
            ..
        }) = events
            .iter()
            .find(|e| matches!(e, Event::SubsetEvaluated { .. }))
        else {
            panic!("one SubsetEvaluated per search: {events:?}");
        };
        let evaluated = evaluations - skipped;
        assert!(floor_checks >= evaluated, "{floor_checks} < {evaluated}");
        let floor_rejections = floor_checks - evaluated;
        assert!(floor_spot_rejections <= floor_rejections);
        assert!(subsets_prefix_rejected <= subsets_rejected);
        assert!(rank_steps >= floor_checks);
        got.push(format!(
            "prefix {subsets_prefix_rejected} steps {rank_steps} floor {floor_checks}/{floor_rejections} spot {floor_spot_rejections}"
        ));
    }
    // The floor columns equal the single-stage floor's checks and
    // rejections on these searches: the carry and the cursor skip only
    // what the per-combination and per-subset tests would have.
    let expected = [
        "prefix 726 steps 93 floor 51/44 spot 12",
        "prefix 739 steps 124 floor 63/52 spot 15",
        "prefix 729 steps 127 floor 65/55 spot 15",
        "prefix 729 steps 131 floor 67/57 spot 15",
        "prefix 729 steps 133 floor 69/59 spot 15",
        "prefix 729 steps 149 floor 76/66 spot 18",
        "prefix 729 steps 156 floor 79/70 spot 18",
        "prefix 729 steps 161 floor 81/72 spot 20",
        "prefix 729 steps 156 floor 78/69 spot 18",
        "prefix 729 steps 160 floor 79/70 spot 19",
        "prefix 739 steps 155 floor 77/68 spot 18",
        "prefix 1884 steps 23 floor 12/9 spot 2",
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
            let n = groups.len();
            let mut subsets = SubsetCursor::new(&groups, kappa, vec![0.0; n], vec![1; n]);
            let mut walked = 0u64;
            while let Some(Subset {
                members: chosen, ..
            }) = subsets.next(f64::INFINITY)
            {
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
                let len = groups.len();
                let mut cursor = SubsetCursor::new(&groups, k_max, vec![0.0; len], vec![1; len]);
                for (i, s) in want.iter().enumerate() {
                    assert_eq!(
                        cursor.next(f64::INFINITY).map(|s| s.members),
                        Some(s.as_slice()),
                        "n {n} mask {mask:b} k_max {k_max}: subset {i}"
                    );
                }
                assert!(
                    cursor.next(f64::INFINITY).is_none(),
                    "n {n} mask {mask:b} k_max {k_max}"
                );
            }
        }
    }
    assert_eq!(subset_count(15, 4), 1940);
    assert_eq!(subset_count(15, 99), (1 << 15) - 1);
}

#[test]
fn the_bound_rejects_subsets_before_their_walk() {
    let market = stress_market(7, 400.0);
    let problem = stress_problem(&market);
    let view = MarketView::from_market(&market, 100.0, 148.0);
    let cfg = OptimizerConfig {
        kappa: 2,
        ..OptimizerConfig::default()
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 16);
    TwoLevelOptimizer::new(&problem, &view, cfg)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    let rejected: u64 = ring
        .take()
        .iter()
        .map(|e| match e {
            Event::SubsetEvaluated {
                subsets_rejected, ..
            } => *subsets_rejected,
            _ => 0,
        })
        .sum();
    assert!(rejected > 0);
}

/// Seeded draws (a SplitMix64 chain).
struct Draws(u64);

impl Draws {
    /// A draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = ec2_market::fault::splitmix64(self.0);
        self.0 % n
    }
}

#[test]
fn subset_cursor_skips_only_hopeless_subsets_and_counts_them() {
    // Random lists of up to 8 groups with per-group bounds drawn from a
    // coarse palette (ties and zeros), with +∞, negatives and NaN mixed
    // in, random option counts and incumbents falling between calls. Each
    // yielded subset is the one at its ordinal in the full enumeration;
    // each subset the cursor did not yield has a slot-order head sum over
    // the incumbent of the call that skipped it; the tallies are the
    // skipped subsets' count and the sum of their option-count products.
    let mut d = Draws(0x5eed_c0de);
    let (mut skipped_any, mut yielded_any) = (0u64, 0usize);
    for case in 0..4000 {
        let n = d.below(9) as usize;
        let k_max = d.below(n as u64 + 2) as usize;
        let heads: Vec<f64> = (0..n)
            .map(|_| match d.below(16) {
                0 | 1 => 0.0,
                2 => f64::INFINITY,
                3 => -0.5,
                4 => f64::NAN,
                x => x as f64 * 0.1,
            })
            .collect();
        let counts: Vec<u64> = (0..n).map(|_| 1 + d.below(6)).collect();
        let groups: Vec<usize> = (0..n).map(|p| 3 * p + 1).collect();
        // Half the incumbents equal some subset's head sum exactly, where
        // a sum of the same bounds in another order can round above it.
        let all = masked_subsets(n, k_max);
        let first_bound = match d.below(10) {
            0 => f64::INFINITY,
            1 => f64::NAN,
            2 => -1.0,
            x if x < 6 || all.is_empty() => x as f64 * 0.35,
            _ => {
                let s = &all[d.below(all.len() as u64) as usize];
                s.iter().map(|&p| heads[p]).sum()
            }
        };
        let shrink = if d.below(2) == 0 { 1.0 } else { 0.9 };
        let mut cursor = SubsetCursor::new(&groups, k_max, heads.clone(), counts.clone());
        // (ordinal, members, product, bound of the call) per yield, and
        // the bound of the call that ran out.
        let mut yielded = Vec::new();
        let mut bound = first_bound;
        while let Some(s) = cursor.next(bound) {
            yielded.push((s.ordinal, s.members.to_vec(), s.product, bound));
            bound *= shrink;
        }
        let last_bound = bound;
        let tally = &cursor.tally;
        assert_eq!(tally.passed, all.len() as u64, "case {case}");
        let mut next_yield = yielded.iter().peekable();
        let (mut skipped, mut positions) = (0u64, 0u64);
        for (ordinal, subset) in all.iter().enumerate() {
            let product: u64 = subset.iter().map(|&p| counts[p]).product();
            if let Some((_, members, got_product, _)) =
                next_yield.next_if(|y| y.0 == ordinal as u64)
            {
                let want: Vec<usize> = subset.iter().map(|&p| groups[p]).collect();
                assert_eq!(members, &want, "case {case} ordinal {ordinal}");
                assert_eq!(*got_product, product, "case {case} ordinal {ordinal}");
                continue;
            }
            // Skipped during the call that yielded the next subset, or
            // during the last call.
            let at = next_yield.peek().map_or(last_bound, |y| y.3);
            let head: f64 = subset.iter().map(|&p| heads[p]).sum();
            assert!(
                head > at,
                "case {case}: skipped {subset:?} has head {head} against {at}"
            );
            skipped += 1;
            positions += product;
        }
        assert!(
            next_yield.next().is_none(),
            "case {case}: yields out of order"
        );
        assert_eq!(
            (tally.skipped, tally.positions),
            (skipped, positions),
            "case {case}"
        );
        skipped_any += skipped;
        yielded_any += yielded.len();
    }
    assert!(
        skipped_any > 1000 && yielded_any > 1000,
        "{skipped_any} / {yielded_any}"
    );
}

#[test]
fn the_carry_skips_only_combinations_over_the_bound() {
    // Small random rank lists (ascending, with ties and zeros, in steps of
    // 0.1 so that sums round) and bounds: from every combination whose
    // slot-order sum is over the bound, the carry's target lies ahead in
    // odometer order, and every combination between the two sums over the
    // bound as well.
    let mut d = Draws(0xca77_1e55);
    let mut carried_past = 0u64;
    for case in 0..3000 {
        let m = 1 + d.below(4) as usize;
        let owned: Vec<Vec<(f64, usize)>> = (0..m)
            .map(|_| {
                let mut list: Vec<(f64, usize)> = (0..1 + d.below(5) as usize)
                    .map(|i| (d.below(9) as f64 * 0.1, i))
                    .collect();
                list.sort_unstable_by(by_bound);
                list
            })
            .collect();
        let slots: Vec<&[(f64, usize)]> = owned.iter().map(Vec::as_slice).collect();
        let lens: Vec<usize> = slots.iter().map(|s| s.len()).collect();
        let mut head_min = vec![0.0f64];
        for s in &slots {
            head_min.push(head_min[head_min.len() - 1] + s[0].0);
        }
        let bound = d.below(30) as f64 * 0.1;
        let sum = |idx: &[usize]| -> f64 { (0..m).map(|s| slots[s][idx[s]].0).sum() };
        let mut idx = vec![0usize; m];
        loop {
            if sum(&idx) > bound {
                let from = carry_slot(&slots, &idx, &head_min, bound);
                assert!((1..=m).contains(&from), "case {case}");
                let mut target = idx.clone();
                let live = advance_ranks(&mut target, &lens, from);
                let mut cur = idx.clone();
                while advance_ranks(&mut cur, &lens, 0) && !(live && cur == target) {
                    assert!(
                        sum(&cur) > bound,
                        "case {case}: carried past {cur:?} from {idx:?} at {bound}"
                    );
                    carried_past += 1;
                }
            }
            if !advance_ranks(&mut idx, &lens, 0) {
                break;
            }
        }
    }
    assert!(carried_past > 1000, "{carried_past}");
}
