//! Resilience suite: deterministic fault injection and graceful
//! degradation, one scenario per fault class (ISSUE 4 acceptance).
//!
//! Every test here drives the *public* fault API — `FaultPlan::parse`,
//! `FaultInjector`, `ExecContext` — the same way the CLI's `--faults`
//! flag does, and asserts two invariants on top of the per-class
//! behavior: the run still completes (degrades, never wedges), and the
//! cost accounting stays consistent (`total = spot + od`).

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::{AdaptiveOutcome, AdaptiveRunner, ExecContext, MonteCarlo, PlanRunner};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::adaptive::PlanContext;
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_obs::{Event, RingRecorder, TraceLevel};

fn seeded_market() -> (SpotMarket, Problem) {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 300.0, 1.0 / 12.0);
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).unwrap())
        .collect();
    let problem = Problem::build(&market, &profile, 4.0, Some(&types), S3Store::paper_2014());
    (market, problem)
}

fn tiny_market(prices: &[f64]) -> (SpotMarket, CircleGroupId) {
    let cat = InstanceCatalog::paper_2014();
    let ty = cat.by_name("m1.small").unwrap();
    let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
    let mut m = SpotMarket::new(cat);
    m.insert(id, SpotTrace::new(1.0, prices.to_vec()));
    (m, id)
}

fn tiny_plan(id: CircleGroupId, ckpt_interval: f64) -> Plan {
    Plan {
        groups: vec![(
            CircleGroup {
                id,
                instances: 2,
                exec_hours: 3.0,
                ckpt_overhead_hours: 0.0,
                recovery_hours: 0.5,
            },
            GroupDecision {
                bid: 0.2,
                ckpt_interval,
            },
        )],
        on_demand: OnDemandOption {
            instance_type: InstanceTypeId(4),
            instances: 1,
            exec_hours: 4.0,
            unit_price: 2.0,
            recovery_hours: 0.5,
        },
    }
}

fn injector(m: &SpotMarket, spec: &str, seed: u64) -> FaultInjector {
    FaultInjector::new(FaultPlan::parse(spec, seed).unwrap(), m.horizon())
}

fn accounting_consistent(total: f64, spot: f64, od: f64) -> bool {
    (total - (spot + od)).abs() < 1e-9
}

/// Zero out the wall-clock profiling fields (`assess_secs`,
/// `search_secs`, `evals_per_sec`, `kernel_nanos`): they measure host
/// time, not simulated time, and are the only event payload allowed to
/// differ between identical runs.
fn scrub_timings(mut events: Vec<Event>) -> Vec<Event> {
    for e in &mut events {
        if let Event::PlanSelected {
            assess_secs,
            search_secs,
            evals_per_sec,
            kernel_nanos,
            ..
        } = e
        {
            *assess_secs = 0.0;
            *search_secs = 0.0;
            *evals_per_sec = 0.0;
            *kernel_nanos = 0;
        }
    }
    events
}

/// Same seed + same config ⇒ bit-identical event timeline and final
/// cost, whichever thread runs it: once on the calling thread, once on a
/// spawned one, as Monte-Carlo's first worker and the others run a
/// replica. Every event must match exactly, the search's own tallies
/// (`PlanSearchStarted`, `SubsetEvaluated`, `PlanSelected`'s skip and
/// tightening counts) and every injected fault included.
#[test]
fn fault_timeline_is_deterministic_across_thread_counts() {
    let (market, problem) = seeded_market();
    let inj = injector(&market, "storm=0.05x0.8,ckpt-fail=0.3,feed-gap=0.5", 17);
    let run = || {
        let config = AdaptiveConfig {
            window_hours: 0.5,
            history_hours: 48.0,
            optimizer: OptimizerConfig {
                kappa: 2,
                bid_levels: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let ring = RingRecorder::new(TraceLevel::Detail, 4096);
        let ctx = ExecContext::new()
            .with_recorder(&ring)
            .with_faults(&inj)
            .with_retry(RetryPolicy::default_io());
        let out = AdaptiveRunner::new(&market, config)
            .run(&problem, 60.0, &ctx)
            .expect("adaptive run succeeds");
        (out, scrub_timings(ring.take()))
    };
    let (a, ta) = run();
    let (b, tb) = std::thread::scope(|s| s.spawn(run).join().expect("run thread"));
    assert!(ta.iter().any(|e| e.kind() == "SubsetEvaluated"));
    assert_eq!(
        ta, tb,
        "timelines diverge between the calling and a spawned thread"
    );
    assert_eq!(a.run.total_cost, b.run.total_cost);
    assert_eq!(a.run.wall_hours, b.run.wall_hours);
    assert_eq!(a.windows, b.windows);
}

/// Monte-Carlo aggregation over a faulty execution is equally
/// thread-count independent.
#[test]
fn faulty_monte_carlo_matches_across_thread_counts() {
    let (market, problem) = seeded_market();
    let view = sompi_core::view::MarketView::from_market(&market, 0.0, 48.0);
    let plan = sompi_core::baselines::Sompi {
        config: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
    }
    .plan(&problem, &view, &mut PlanContext::new())
    .unwrap();
    let inj = injector(&market, "storm=0.05x0.8,ckpt-fail=0.3", 17);
    let ctx = ExecContext::new()
        .with_faults(&inj)
        .with_retry(RetryPolicy::default_io());
    let run = |threads: usize| {
        MonteCarlo::builder()
            .replicas(32)
            .seed(5)
            .offsets(48.0, 260.0)
            .threads(threads)
            .build()
            .run_plan(&market, &plan, problem.deadline, &ctx)
            .expect("replay succeeds")
    };
    assert_eq!(run(1), run(0));
}

/// Fault class 1 — spot kill storms: a storm terminates a group the
/// price trace would have spared; the run degrades to the on-demand
/// fallback instead of wedging, and the books still balance.
#[test]
fn kill_storm_degrades_to_on_demand_fallback() {
    let (m, id) = tiny_market(&[0.1; 48]); // never priced out
    let plan = tiny_plan(id, 1.0);
    let inj = injector(&m, "storm=2.0x1.0", 3);
    let ring = RingRecorder::new(TraceLevel::Detail, 128);
    let ctx = ExecContext::new().with_recorder(&ring).with_faults(&inj);
    let out = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ctx)
        .expect("replay succeeds");

    let calm = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ExecContext::new())
        .expect("replay succeeds");
    assert!(matches!(calm.finisher, replay::Finisher::Spot(_)));

    let events = ring.take();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::FaultInjected { class, .. } if class == "spot-kill-storm"
        )),
        "storm must be narrated"
    );
    assert!(out.total_cost > 0.0 && out.wall_hours > 0.0);
    assert!(accounting_consistent(
        out.total_cost,
        out.spot_cost,
        out.od_cost
    ));
    // Provider kill before hour 3 ⇒ the group cannot have finished.
    assert!(matches!(out.finisher, replay::Finisher::OnDemand));
    assert!(out.od_cost > 0.0);
}

/// Fault class 2 — checkpoint I/O failure: with every upload failing,
/// the group exhausts its retries, drops to no-checkpoint mode, and the
/// run still completes with consistent accounting.
#[test]
fn checkpoint_upload_failures_degrade_to_no_checkpoint() {
    let (m, id) = tiny_market(&[0.1; 48]);
    let plan = tiny_plan(id, 1.0);
    let inj = injector(&m, "ckpt-fail=1.0", 9);
    let ring = RingRecorder::new(TraceLevel::Detail, 128);
    let ctx = ExecContext::new()
        .with_recorder(&ring)
        .with_faults(&inj)
        .with_retry(RetryPolicy::default_io());
    let out = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ctx)
        .expect("replay succeeds");

    let events = ring.take();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::DegradedMode { mode, .. } if mode == "no-checkpoint"
        )),
        "degradation must be narrated"
    );
    assert!(out.total_cost > 0.0);
    assert!(accounting_consistent(
        out.total_cost,
        out.spot_cost,
        out.od_cost
    ));
    // The market never prices the group out, so it still finishes on
    // spot — checkpoints were overhead-free insurance it no longer has.
    assert!(matches!(out.finisher, replay::Finisher::Spot(_)));
}

/// Fault class 3 — restore corruption: the on-demand fallback finds the
/// latest checkpoint corrupt and falls back one checkpoint, re-running
/// that interval; the corrupted run costs at least as much as the clean
/// one and both complete.
#[test]
fn restore_corruption_falls_back_one_checkpoint() {
    // Cheap for 2 h, then priced out: 2 banked checkpoints, then OD.
    let mut prices = vec![0.1, 0.1];
    prices.extend(vec![9.0; 22]);
    let (m, id) = tiny_market(&prices);
    let plan = tiny_plan(id, 1.0);

    let clean = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ExecContext::new())
        .expect("replay succeeds");

    let inj = injector(&m, "restore-corrupt=1.0", 11);
    let ring = RingRecorder::new(TraceLevel::Detail, 128);
    let ctx = ExecContext::new().with_recorder(&ring).with_faults(&inj);
    let corrupt = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ctx)
        .expect("replay succeeds");

    let events = ring.take();
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::DegradedMode { mode, .. } if mode == "previous-checkpoint"
        )),
        "fallback to the previous checkpoint must be narrated"
    );
    assert!(matches!(clean.finisher, replay::Finisher::OnDemand));
    assert!(matches!(corrupt.finisher, replay::Finisher::OnDemand));
    assert!(
        corrupt.od_cost > clean.od_cost,
        "re-running the lost interval must cost extra: {} vs {}",
        corrupt.od_cost,
        clean.od_cost
    );
    assert!(accounting_consistent(
        corrupt.total_cost,
        corrupt.spot_cost,
        corrupt.od_cost
    ));
}

fn adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        window_hours: 0.5,
        history_hours: 48.0,
        optimizer: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Fault class 4a — intermittent market-feed gaps: on a gapped window
/// the adaptive runner falls back to the last valid market view,
/// narrated as `DegradedMode("stale-market-view")`, and still
/// completes.
#[test]
fn intermittent_feed_gap_falls_back_to_last_valid_view() {
    let (market, problem) = seeded_market();
    let inj = injector(&market, "feed-gap=0.5", 17);
    let ring = RingRecorder::new(TraceLevel::Summary, 1024);
    let ctx = ExecContext::new().with_recorder(&ring).with_faults(&inj);
    let out = AdaptiveRunner::new(&market, adaptive_config())
        .run(&problem, 60.0, &ctx)
        .expect("adaptive run succeeds");

    let events = ring.take();
    let gaps = events
        .iter()
        .filter(|e| matches!(e, Event::FaultInjected { class, .. } if class == "feed-gap"))
        .count();
    assert!(gaps >= 1, "seed 17 gaps at least one window");
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::DegradedMode { mode, reason, .. }
                if mode == "stale-market-view" && reason == "feed-gap"
        )),
        "stale-view fallback must be narrated"
    );
    assert!(out.run.total_cost > 0.0 && out.run.wall_hours > 0.0);
    assert!(accounting_consistent(
        out.run.total_cost,
        out.run.spot_cost,
        out.run.od_cost
    ));
}

/// Fault class 4b — a *permanently* gapped feed never yields a valid
/// view to fall back to; the runner plans best-effort on the gapped
/// history and the run still completes with consistent accounting.
#[test]
fn permanent_feed_gap_still_completes() {
    let (market, problem) = seeded_market();
    let inj = injector(&market, "feed-gap=1.0", 29);
    let ring = RingRecorder::new(TraceLevel::Summary, 1024);
    let ctx = ExecContext::new().with_recorder(&ring).with_faults(&inj);
    let out = AdaptiveRunner::new(&market, adaptive_config())
        .run(&problem, 60.0, &ctx)
        .expect("adaptive run succeeds");

    let events = ring.take();
    let gaps = events
        .iter()
        .filter(|e| matches!(e, Event::FaultInjected { class, .. } if class == "feed-gap"))
        .count();
    assert_eq!(gaps as u32, out.windows, "every window's feed was gapped");
    assert!(out.run.total_cost > 0.0 && out.run.wall_hours > 0.0);
    assert!(accounting_consistent(
        out.run.total_cost,
        out.run.spot_cost,
        out.run.od_cost
    ));
}

/// FNV-1a over bytes, for pinning outcomes and traces without
/// committing them.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every field of an adaptive outcome, folded into `hash` by bits.
fn fold_outcome(hash: u64, o: &AdaptiveOutcome) -> u64 {
    let r = &o.run;
    let mut h = hash;
    for x in [r.total_cost, r.spot_cost, r.od_cost, r.wall_hours] {
        h = fnv1a(h, &x.to_bits().to_le_bytes());
    }
    h = fnv1a(h, format!("{:?}", r.finisher).as_bytes());
    for n in [
        r.groups_failed,
        u32::from(r.met_deadline),
        o.windows,
        o.plan_changes,
    ] {
        h = fnv1a(h, &n.to_le_bytes());
    }
    h
}

/// What one pinned adaptive case produced over its 60 starts.
#[derive(Debug, PartialEq)]
struct AdaptivePin {
    /// Every outcome field of every start, by bits.
    outcomes: u64,
    /// Events per kind.
    kinds: Vec<(&'static str, usize)>,
    /// `DegradedMode` per mode and `OnDemandFallback` per reason.
    modes: Vec<(String, usize)>,
    /// The Detail JSONL lines, wall-clock fields zeroed.
    digest: u64,
}

/// Adaptive FT on a drifting stress market under kill storms and a
/// half-gapped feed, with 0.25 h windows: 60 starts, each traced at
/// Detail level and run again without a recorder.
fn adaptive_fault_case(headroom: f64) -> AdaptivePin {
    use std::collections::BTreeMap;
    let market = sompi_bench::stress_market(20140817, 400.0);
    let profile = sompi_bench::npb_workload(NpbKernel::Ft);
    let problem = sompi_bench::build_problem(&market, &profile, headroom);
    let config = AdaptiveConfig {
        window_hours: 0.25,
        history_hours: 48.0,
        optimizer: OptimizerConfig {
            kappa: 2,
            bid_levels: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let inj = injector(&market, "storm=0.3x0.8,feed-gap=0.5", 42);
    let base = ExecContext::new()
        .with_faults(&inj)
        .with_retry(RetryPolicy::default_io());
    let runner = AdaptiveRunner::new(&market, config);
    let mut kinds = BTreeMap::<&'static str, usize>::new();
    let mut modes = BTreeMap::<String, usize>::new();
    let (mut outcomes, mut untraced, mut digest) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for i in 0..60 {
        let start = 49.0 + 5.0 * i as f64;
        let ring = RingRecorder::new(TraceLevel::Detail, 1 << 16);
        let out = runner
            .run(&problem, start, &base.with_recorder(&ring))
            .expect("adaptive run succeeds");
        outcomes = fold_outcome(outcomes, &out);
        let quiet = runner
            .run(&problem, start, &base)
            .expect("adaptive run succeeds");
        untraced = fold_outcome(untraced, &quiet);
        let events = ring.take();
        assert!(events.len() < 1 << 16, "start {start}: ring evicted events");
        for e in scrub_timings(events) {
            *kinds.entry(e.kind()).or_default() += 1;
            match &e {
                Event::DegradedMode { mode, .. } => *modes.entry(mode.clone()).or_default() += 1,
                Event::OnDemandFallback { reason, .. } => {
                    *modes.entry(reason.clone()).or_default() += 1
                }
                _ => {}
            }
            let line = serde_json::to_string(&e).unwrap();
            digest = fnv1a(fnv1a(digest, line.as_bytes()), b"\n");
        }
    }
    assert_eq!(outcomes, untraced, "the recorder changed an outcome");
    AdaptivePin {
        outcomes,
        kinds: kinds.into_iter().collect(),
        modes: modes.into_iter().collect(),
        digest,
    }
}

/// The adaptive loop under faults answers and narrates exactly as it
/// did when its window decision was split between the runner and a
/// planner: every outcome bit, every event count, and the digest of
/// the Detail trace over 60 starts were recorded then. Case A (a loose
/// deadline) reaches every branch of the window decision: the
/// gapped-window recall of the last fresh plan (`stale-plan`), the stale
/// market view, the deadline guard and the line-7 bail-out (`replan`).
#[test]
fn adaptive_fault_timeline_is_pinned() {
    let a = adaptive_fault_case(2.0);
    for mode in [
        "stale-plan",
        "stale-market-view",
        "deadline-guard",
        "replan",
    ] {
        assert!(
            a.modes.iter().any(|(m, n)| m == mode && *n > 0),
            "case A never reached {mode}: {:?}",
            a.modes
        );
    }
    let b = adaptive_fault_case(1.2);
    let modes = |pairs: &[(&str, usize)]| -> Vec<(String, usize)> {
        pairs.iter().map(|&(m, n)| (m.to_string(), n)).collect()
    };
    let expected_a = AdaptivePin {
        outcomes: 7_007_421_123_579_477_653,
        kinds: vec![
            ("CheckpointTaken", 592),
            ("DegradedMode", 360),
            ("FaultInjected", 406),
            ("GroupFailed", 56),
            ("GroupLaunched", 118),
            ("OnDemandFallback", 2),
            ("PlanSearchStarted", 117),
            ("PlanSelected", 117),
            ("RunCompleted", 60),
            ("SubsetEvaluated", 117),
            ("WindowReplanned", 699),
        ],
        modes: modes(&[
            ("deadline-guard", 1),
            ("replan", 1),
            ("stale-market-view", 359),
            ("stale-plan", 1),
        ]),
        digest: 1_355_517_051_241_398_723,
    };
    let expected_b = AdaptivePin {
        outcomes: 3_348_359_759_847_742_513,
        kinds: vec![
            ("CheckpointTaken", 398),
            ("DegradedMode", 274),
            ("FaultInjected", 297),
            ("GroupFailed", 32),
            ("GroupLaunched", 92),
            ("OnDemandFallback", 1),
            ("PlanSearchStarted", 95),
            ("PlanSelected", 95),
            ("RunCompleted", 60),
            ("SubsetEvaluated", 95),
            ("WindowReplanned", 498),
        ],
        modes: modes(&[
            ("deadline-guard", 1),
            ("stale-market-view", 269),
            ("stale-plan", 5),
        ]),
        digest: 17_980_682_721_548_349_219,
    };
    assert_eq!(a, expected_a, "case A (headroom 2.0) moved");
    assert_eq!(b, expected_b, "case B (headroom 1.2) moved");
}
