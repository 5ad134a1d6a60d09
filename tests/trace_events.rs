//! Golden-trace tests: each instrumented path emits exactly the events the
//! observability contract (docs/OBSERVABILITY.md) promises, with field
//! values tied back to the returned outcome — not merely "something was
//! recorded".

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::trace::SpotTrace;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::{AdaptiveRunner, ExecContext, PlanRunner};
use sompi_core::adaptive::AdaptiveConfig;
use sompi_core::adaptive::PlanContext;
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use sompi_core::problem::Problem;
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::view::MarketView;
use sompi_obs::{parse_jsonl, Event, JsonlRecorder, RingRecorder, TraceLevel};
use std::sync::{Arc, Mutex};

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

/// One-type market with a hand-written trace for exact assertions.
fn tiny_market(prices: &[f64]) -> (SpotMarket, CircleGroupId) {
    let cat = InstanceCatalog::paper_2014();
    let ty = cat.by_name("m1.small").unwrap();
    let id = CircleGroupId::new(ty, AvailabilityZone::UsEast1a);
    let mut m = SpotMarket::new(cat);
    m.insert(id, SpotTrace::new(1.0, prices.to_vec()));
    (m, id)
}

fn od() -> OnDemandOption {
    OnDemandOption {
        instance_type: InstanceTypeId(4),
        instances: 1,
        exec_hours: 4.0,
        unit_price: 2.0,
        recovery_hours: 0.5,
    }
}

#[test]
fn twolevel_search_emits_golden_sequence() {
    let (market, problem) = seeded_market();
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let config = OptimizerConfig {
        kappa: 2,
        bid_levels: 3,
        ..Default::default()
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = TwoLevelOptimizer::new(&problem, &view, config)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    let events = ring.take();

    // Exactly: PlanSearchStarted, one SubsetEvaluated, PlanSelected — in
    // that order.
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(
        kinds,
        ["PlanSearchStarted", "SubsetEvaluated", "PlanSelected"],
        "{kinds:?}"
    );

    let Event::PlanSearchStarted {
        kappa,
        bid_levels,
        subsets,
        ..
    } = &events[0]
    else {
        panic!("first event");
    };
    assert_eq!((*kappa, *bid_levels), (2, 3));
    assert!(*subsets > 0);

    let Event::SubsetEvaluated {
        evaluations,
        feasible,
        best_cost,
        phi_intervals,
        ..
    } = &events[1]
    else {
        panic!("second event");
    };
    assert!(*evaluations > 0 && *feasible <= *evaluations);
    // The search's incumbent is the final plan, so its best cost and φ
    // intervals must match the returned plan exactly.
    assert_eq!(*best_cost, Some(out.evaluation.expected_cost));
    let plan_intervals: Vec<f64> = out
        .plan
        .groups
        .iter()
        .map(|(_, d)| d.ckpt_interval)
        .collect();
    assert_eq!(*phi_intervals, plan_intervals);

    let Event::PlanSelected {
        source,
        groups,
        expected_cost,
        expected_time,
        ..
    } = &events[2]
    else {
        panic!("third event");
    };
    assert_eq!(source, "spot");
    assert_eq!(*groups as usize, out.plan.groups.len());
    assert_eq!(*expected_cost, out.evaluation.expected_cost);
    assert_eq!(*expected_time, out.evaluation.expected_time);
}

#[test]
fn search_emits_summary_events_and_kernel_stats() {
    let (market, problem) = seeded_market();
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let config = OptimizerConfig {
        kappa: 2,
        bid_levels: 3,
        ..Default::default()
    };
    let ring = RingRecorder::new(TraceLevel::Summary, 64);
    let out = TwoLevelOptimizer::new(&problem, &view, config)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    let events = ring.take();

    // Summary level: the Detail-level SubsetEvaluated is suppressed, so
    // nothing comes between start and selection.
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, ["PlanSearchStarted", "PlanSelected"], "{kinds:?}");

    let Event::PlanSelected {
        expected_cost,
        evaluations,
        evals_per_sec,
        kernel_nanos,
        ..
    } = &events[1]
    else {
        panic!("second event");
    };
    assert_eq!(*expected_cost, out.evaluation.expected_cost);
    assert!(*evaluations > 0);
    assert!(*kernel_nanos > 0, "kernel time must be accounted");
    assert!(*evals_per_sec > 0.0);
}

#[test]
fn recorded_search_matches_unrecorded_search() {
    let (market, problem) = seeded_market();
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let config = OptimizerConfig {
        kappa: 2,
        bid_levels: 3,
        ..Default::default()
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let a = TwoLevelOptimizer::new(&problem, &view, config)
        .optimize()
        .unwrap();
    let b = TwoLevelOptimizer::new(&problem, &view, config)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.evaluation.expected_cost, b.evaluation.expected_cost);
}

#[test]
fn failed_run_emits_exact_timeline() {
    // Cheap for 2 h, then priced out forever: the group banks 2 interval
    // checkpoints, is provider-killed at t=2, and on-demand finishes.
    let mut prices = vec![0.1, 0.1];
    prices.extend(vec![9.0; 22]);
    let (m, id) = tiny_market(&prices);
    let plan = Plan {
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
                ckpt_interval: 1.0,
            },
        )],
        on_demand: od(),
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = PlanRunner::new(&m, 8.0)
        .run(&plan, 0.0, &ExecContext::new().with_recorder(&ring))
        .expect("replay succeeds");
    let events = ring.take();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(
        kinds,
        [
            "GroupLaunched",
            "CheckpointTaken",
            "GroupFailed",
            "OnDemandFallback",
            "RunCompleted"
        ],
        "{kinds:?}"
    );

    assert_eq!(
        events[0],
        Event::GroupLaunched {
            group: id.to_string(),
            at_hours: 0.0,
        }
    );

    let Event::CheckpointTaken {
        group,
        at_hours,
        count,
        saved_fraction,
    } = &events[1]
    else {
        panic!("checkpoint");
    };
    assert_eq!(group, &id.to_string());
    assert_eq!(*count, 2);
    assert!((at_hours - 2.0).abs() < 1e-9);
    assert!((saved_fraction - 2.0 / 3.0).abs() < 1e-9);

    let Event::GroupFailed {
        at_hours,
        saved_fraction,
        ..
    } = &events[2]
    else {
        panic!("group failed");
    };
    assert!((at_hours - 2.0).abs() < 1e-9);
    assert!((saved_fraction - 2.0 / 3.0).abs() < 1e-9);

    let Event::OnDemandFallback {
        remaining_fraction,
        od_cost,
        reason,
        ..
    } = &events[3]
    else {
        panic!("fallback");
    };
    assert_eq!(reason, "all-groups-failed");
    assert!((remaining_fraction - 1.0 / 3.0).abs() < 1e-9);
    assert!((od_cost - out.od_cost).abs() < 1e-9);

    let Event::RunCompleted {
        finisher,
        total_cost,
        spot_cost,
        od_cost,
        wall_hours,
        met_deadline,
        groups_failed,
        windows,
        ..
    } = &events[4]
    else {
        panic!("run completed");
    };
    assert_eq!(finisher, "on-demand");
    assert_eq!(*total_cost, out.total_cost);
    assert_eq!(*spot_cost, out.spot_cost);
    assert_eq!(*od_cost, out.od_cost);
    assert_eq!(*wall_hours, out.wall_hours);
    assert_eq!(*met_deadline, out.met_deadline);
    assert_eq!(*groups_failed, 1);
    assert_eq!(*windows, None);
}

#[test]
fn out_of_bid_run_ends_with_od_start() {
    // One out-of-bid hour at t=2 on an otherwise calm trace: the group is
    // killed with 2 of 3 hourly checkpoints banked, stays failed when the
    // price comes back, and on-demand finishes the last third.
    let (m, id) = tiny_market(&[0.1, 0.1, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1]);
    let plan = Plan {
        groups: vec![(
            CircleGroup {
                id,
                instances: 2,
                exec_hours: 3.0,
                ckpt_overhead_hours: 0.0,
                recovery_hours: 0.1,
            },
            GroupDecision {
                bid: 0.2,
                ckpt_interval: 1.0,
            },
        )],
        on_demand: od(),
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = PlanRunner::new(&m, 10.0)
        .run(&plan, 0.0, &ExecContext::new().with_recorder(&ring))
        .expect("replay succeeds");
    let events = ring.take();

    let launches = events
        .iter()
        .filter(|e| e.kind() == "GroupLaunched")
        .count();
    assert_eq!(launches, 1, "a failed group is not relaunched: {events:?}");
    let failed_at = events
        .iter()
        .find_map(|e| match e {
            Event::GroupFailed { at_hours, .. } => Some(*at_hours),
            _ => None,
        })
        .expect("out-of-bid event");
    assert_eq!(failed_at, 2.0);
    let (remaining, reason) = events
        .iter()
        .find_map(|e| match e {
            Event::OnDemandFallback {
                remaining_fraction,
                reason,
                ..
            } => Some((*remaining_fraction, reason.as_str())),
            _ => None,
        })
        .expect("od start event");
    // Two checkpoints saved 2/3 of the 3-hour job.
    assert!((remaining - 1.0 / 3.0).abs() < 1e-9, "{remaining}");
    assert_eq!(reason, "all-groups-failed");
    assert_eq!(out.groups_failed, 1);
    assert!(matches!(
        events.last(),
        Some(Event::RunCompleted { finisher, .. }) if finisher == "on-demand"
    ));
}

#[test]
fn clean_run_emits_launch_and_spot_completion() {
    // Calm prices: the group launches at t=0 and finishes the 3 h job on
    // spot at t=3. A winner emits no checkpoint event, and nothing falls
    // back.
    let (m, id) = tiny_market(&[0.1; 24]);
    let plan = Plan {
        groups: vec![(
            CircleGroup {
                id,
                instances: 2,
                exec_hours: 3.0,
                ckpt_overhead_hours: 0.0,
                recovery_hours: 0.1,
            },
            GroupDecision {
                bid: 0.2,
                ckpt_interval: 1.0,
            },
        )],
        on_demand: od(),
    };
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let out = PlanRunner::new(&m, 10.0)
        .run(&plan, 0.0, &ExecContext::new().with_recorder(&ring))
        .expect("replay succeeds");
    assert_eq!(
        ring.take(),
        [
            Event::GroupLaunched {
                group: id.to_string(),
                at_hours: 0.0,
            },
            Event::RunCompleted {
                finisher: format!("spot:{id}"),
                total_cost: out.total_cost,
                spot_cost: out.spot_cost,
                od_cost: 0.0,
                wall_hours: 3.0,
                met_deadline: true,
                groups_failed: 0,
                windows: None,
                plan_changes: None,
            },
        ]
    );
}

#[test]
fn fallback_without_a_provider_kill_is_a_deadline_cutoff() {
    // A 10 h job with 2 h intervals and 0.5 h checkpoints under a 5 h
    // deadline on calm prices: the user stops the group at the deadline
    // with 2 interval checkpoints (4 h) banked, so 60% of the work is
    // left and no group failed. A group whose bid never admits a price
    // never launches and has not failed either.
    let plan = |id| Plan {
        groups: vec![(
            CircleGroup {
                id,
                instances: 2,
                exec_hours: 10.0,
                ckpt_overhead_hours: 0.5,
                recovery_hours: 0.5,
            },
            GroupDecision {
                bid: 0.2,
                ckpt_interval: 2.0,
            },
        )],
        on_demand: od(),
    };
    for (price, remaining, launched) in [(0.1, 0.6, true), (9.0, 1.0, false)] {
        let (m, id) = tiny_market(&[price; 48]);
        let ring = RingRecorder::new(TraceLevel::Detail, 64);
        let out = PlanRunner::new(&m, 5.0)
            .run(&plan(id), 0.0, &ExecContext::new().with_recorder(&ring))
            .expect("replay succeeds");
        assert_eq!(out.groups_failed, 0);
        let events = ring.take();
        assert_eq!(
            events.iter().any(|e| e.kind() == "GroupLaunched"),
            launched,
            "{events:?}"
        );
        let fallback = events
            .iter()
            .find_map(|e| match e {
                Event::OnDemandFallback {
                    at_hours,
                    remaining_fraction,
                    reason,
                    ..
                } => Some((*at_hours, *remaining_fraction, reason.as_str())),
                _ => None,
            })
            .expect("spot did not finish, so on-demand falls back");
        assert_eq!(fallback.0, 5.0);
        assert!((fallback.1 - remaining).abs() < 1e-9, "{fallback:?}");
        assert_eq!(fallback.2, "deadline-cutoff");
    }
}

#[test]
fn adaptive_run_emits_one_replan_per_window() {
    let (market, problem) = seeded_market();
    let config = AdaptiveConfig {
        window_hours: 0.2,
        history_hours: 48.0,
        optimizer: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let ring = RingRecorder::new(TraceLevel::Summary, 256);
    let out = AdaptiveRunner::new(&market, config)
        .run(&problem, 60.0, &ExecContext::new().with_recorder(&ring))
        .expect("adaptive run succeeds");
    let events = ring.take();

    let replans = events
        .iter()
        .filter(|e| e.kind() == "WindowReplanned")
        .count();
    assert_eq!(replans as u32, out.windows);

    let completed: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "RunCompleted")
        .collect();
    assert_eq!(completed.len(), 1);
    let Event::RunCompleted {
        total_cost,
        windows,
        plan_changes,
        ..
    } = completed[0]
    else {
        unreachable!();
    };
    assert_eq!(*total_cost, out.run.total_cost);
    assert_eq!(*windows, Some(out.windows));
    assert_eq!(*plan_changes, Some(out.plan_changes));
}

#[test]
fn committed_fixture_parses_and_renders() {
    // The fixture under tests/fixtures/ is what CI feeds to
    // `sompi trace summarize`; it must stay schema-valid.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/sample_trace.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("fixture exists");
    let events = parse_jsonl(&text).expect("fixture is schema-valid");
    assert!(events.iter().any(|e| e.kind() == "PlanSelected"));
    assert!(events.iter().any(|e| e.kind() == "RunCompleted"));
    let report = sompi_obs::RunReport::from_events(&events).render();
    assert!(report.contains("outcome"), "{report}");
}

#[test]
fn jsonl_round_trip_preserves_the_golden_sequence() {
    // Same scenario as `failed_run_emits_exact_timeline`, but through the
    // JSONL sink: serialize → parse → identical event list.
    let mut prices = vec![0.1, 0.1];
    prices.extend(vec![9.0; 22]);
    let (m, id) = tiny_market(&prices);
    let plan = Plan {
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
                ckpt_interval: 1.0,
            },
        )],
        on_demand: od(),
    };

    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = JsonlRecorder::to_writer(Box::new(Shared(buf.clone())), TraceLevel::Detail);
    let ring = RingRecorder::new(TraceLevel::Detail, 64);
    let runner = PlanRunner::new(&m, 8.0);
    runner
        .run(&plan, 0.0, &ExecContext::new().with_recorder(&sink))
        .expect("replay succeeds");
    runner
        .run(&plan, 0.0, &ExecContext::new().with_recorder(&ring))
        .expect("replay succeeds");
    sink.flush().unwrap();
    assert_eq!(sink.write_errors(), 0);

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let parsed = parse_jsonl(&text).expect("schema-valid");
    assert_eq!(parsed, ring.take());
}

#[test]
fn exhausted_checkpoint_retries_emit_fault_retry_and_degraded_events() {
    // Cheap market forever, every checkpoint upload fails: the group must
    // narrate FaultInjected per failed attempt, RetryAttempted with
    // deterministic backoffs, and DegradedMode("no-checkpoint") once the
    // policy gives up.
    let (m, id) = tiny_market(&[0.1; 48]);
    let plan = Plan {
        groups: vec![(
            CircleGroup {
                id,
                instances: 2,
                exec_hours: 3.0,
                ckpt_overhead_hours: 0.0,
                recovery_hours: 0.0,
            },
            GroupDecision {
                bid: 0.2,
                ckpt_interval: 1.0,
            },
        )],
        on_demand: od(),
    };
    let inj = FaultInjector::new(FaultPlan::parse("ckpt-fail=1.0", 9).unwrap(), m.horizon());
    let ring = RingRecorder::new(TraceLevel::Detail, 128);
    let ctx = ExecContext::new()
        .with_recorder(&ring)
        .with_faults(&inj)
        .with_retry(RetryPolicy::default_io());
    let out = PlanRunner::new(&m, 20.0)
        .run(&plan, 0.0, &ctx)
        .expect("replay succeeds");
    assert!(out.total_cost > 0.0);
    let events = ring.take();

    let faults: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "FaultInjected")
        .collect();
    assert!(!faults.is_empty());
    let Event::FaultInjected {
        class,
        group,
        at_hours,
        detail,
    } = faults[0]
    else {
        unreachable!();
    };
    assert_eq!(class, "ckpt-upload-failure");
    assert_eq!(group.as_deref(), Some(id.to_string().as_str()));
    assert!(
        (at_hours - 1.0).abs() < 1e-9,
        "first ckpt at t=1, got {at_hours}"
    );
    assert_eq!(*detail, 1.0); // checkpoint ordinal

    let retries: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "RetryAttempted")
        .collect();
    assert!(!retries.is_empty());
    let mut saw_gave_up = false;
    for e in &retries {
        let Event::RetryAttempted {
            op,
            group,
            attempt,
            backoff_hours,
            gave_up,
            ..
        } = e
        else {
            unreachable!();
        };
        assert_eq!(op, "ckpt-upload");
        assert_eq!(group, &id.to_string());
        assert!(*attempt >= 1);
        if *gave_up {
            saw_gave_up = true;
            assert_eq!(*backoff_hours, 0.0);
        } else {
            assert!(*backoff_hours > 0.0);
        }
    }
    assert!(saw_gave_up, "retry exhaustion must be narrated");

    let degraded: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind() == "DegradedMode")
        .collect();
    assert_eq!(degraded.len(), 1);
    let Event::DegradedMode {
        mode,
        group,
        reason,
        ..
    } = degraded[0]
    else {
        unreachable!();
    };
    assert_eq!(mode, "no-checkpoint");
    assert_eq!(group.as_deref(), Some(id.to_string().as_str()));
    assert_eq!(reason, "ckpt-upload-retries-exhausted");

    // The whole fault timeline survives a JSONL round trip.
    let json: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    assert_eq!(parse_jsonl(&json).expect("schema-valid"), events);
}
