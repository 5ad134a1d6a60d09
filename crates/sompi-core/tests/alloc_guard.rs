//! Allocation guards for the optimizer's hot path.
//!
//! The observability layer promises that a disabled recorder is free: the
//! candidate loop may not allocate, and `optimize_with` a recorder whose
//! tracing is off must allocate exactly as much as the context-free
//! `optimize`. The search set-up promises that allocations do not grow
//! with the number of subsets, and option assessment that an option
//! past the deadline is never built. A counting global allocator makes
//! these claims testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use sompi_core::cost::{evaluate_with_scratch, EvalScratch, GroupAssessment};
use sompi_core::model::GroupDecision;
use sompi_core::twolevel::{OptimizerConfig, TwoLevelOptimizer};
use sompi_core::{MarketView, PlanContext, Problem};
use sompi_obs::{Event, RingRecorder, TraceLevel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counter is process-global and the default test harness runs
/// `#[test]`s concurrently, so every test holds this lock throughout.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f` with allocation counting on; return its result and the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

fn setup() -> (Problem, MarketView) {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 200.0, 1.0 / 12.0);
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).unwrap())
        .collect();
    let problem = Problem::build(&market, &profile, 4.0, Some(&types), S3Store::paper_2014());
    let view = MarketView::from_market(&market, 0.0, 48.0);
    (problem, view)
}

#[test]
fn null_recorder_adds_zero_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (problem, view) = setup();

    // (1) A warmed `evaluate_with_scratch` call is allocation-free —
    // caps-memo tables and prefix sums included, with enough groups that
    // the k×k caps table is actually consulted.
    let decision = GroupDecision {
        bid: 10.0,
        ckpt_interval: 1.0,
    };
    let assessed: Vec<GroupAssessment> = problem
        .candidates
        .iter()
        .take(3)
        .map(|&group| {
            GroupAssessment::assess(group, decision, &view)
                .expect("known group")
                .expect("launchable")
        })
        .collect();
    let refs: Vec<&GroupAssessment> = assessed.iter().collect();
    let od = *problem.baseline();
    let mut scratch = EvalScratch::new();
    evaluate_with_scratch(&refs, &od, &mut scratch); // warm the buffers
    let (eval, allocs) = counted(|| evaluate_with_scratch(&refs, &od, &mut scratch));
    assert!(eval.expected_cost > 0.0);
    assert_eq!(allocs, 0, "warmed evaluate_with_scratch allocated");

    // (2) `optimize_with` a recorder attached but tracing off allocates
    // exactly as much as the context-free `optimize` — the recorder hook
    // itself is free.
    let cfg = OptimizerConfig {
        kappa: 2,
        bid_levels: 3,
        ..Default::default()
    };
    let _ = TwoLevelOptimizer::new(&problem, &view, cfg).optimize(); // warm lazies
    let (base_plan, base_allocs) = counted(|| {
        TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .unwrap()
    });
    let off = RingRecorder::new(TraceLevel::Off, 8);
    let (rec_plan, rec_allocs) = counted(|| {
        TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize_with(&mut PlanContext::new().with_recorder(&off))
            .unwrap()
    });
    assert_eq!(base_plan.plan, rec_plan.plan);
    assert!(off.is_empty(), "Off-level recorder captured events");
    assert_eq!(
        base_allocs, rec_allocs,
        "tracing-off optimize allocated differently from plain optimize"
    );
}

#[test]
fn search_allocations_do_not_grow_with_the_subsets() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // All 15 circle groups of the paper catalog: κ 4 enumerates 1,940
    // subsets against κ 1's 15. The subsets are slices of one list, and
    // each worker's branch-and-bound scratch is reused across them.
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 200.0, 1.0 / 12.0);
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let mut problem = Problem::build(&market, &profile, f64::MAX, None, S3Store::paper_2014());
    problem.deadline = 1.5 * problem.baseline_time();
    assert_eq!(problem.candidates.len(), 15);
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let allocs = |kappa: usize| {
        let cfg = OptimizerConfig {
            kappa,
            ..Default::default()
        };
        let search = || {
            TwoLevelOptimizer::new(&problem, &view, cfg)
                .optimize()
                .unwrap()
        };
        search(); // warm lazies
        counted(search).1
    };
    let (one, four) = (allocs(1), allocs(4));
    assert!(
        four <= one + 64,
        "κ 4 made {four} allocations against κ 1's {one}"
    );
}

#[test]
fn options_past_the_deadline_are_never_built() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // All 15 circle groups at a deadline below every group's own run
    // time: whatever the bid and interval, no spot option can finish, so
    // the deadline check prunes every one. Each swept bid profile then
    // costs its own bucket counters and φ's truncated function; building
    // a pruned option's assessment would add five vectors per option.
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 31), 200.0, 1.0 / 12.0);
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let mut problem = Problem::build(&market, &profile, f64::MAX, None, S3Store::paper_2014());
    let fastest = problem
        .candidates
        .iter()
        .map(|g| g.exec_hours)
        .fold(f64::INFINITY, f64::min);
    problem.deadline = 0.9 * fastest;
    let view = MarketView::from_market(&market, 0.0, 48.0);
    let cfg = OptimizerConfig {
        kappa: 2,
        bid_levels: 12,
        ..Default::default()
    };

    let ring = RingRecorder::new(TraceLevel::Detail, 8);
    TwoLevelOptimizer::new(&problem, &view, cfg)
        .optimize_with(&mut PlanContext::new().with_recorder(&ring))
        .unwrap();
    let events = ring.take();
    let [Event::PlanSearchStarted {
        options_pruned,
        options_dominated,
        profiles_swept,
        ..
    }, Event::SubsetEvaluated { subsets: 0, .. }, Event::PlanSelected { .. }] = &events[..]
    else {
        panic!("expected a search that walks no subset: {events:?}");
    };
    // No group kept an option, and none was dropped as dominated: every
    // launchable option was pruned by the deadline.
    assert_eq!(*options_dominated, 0);
    assert!(*options_pruned >= 50, "{options_pruned} options pruned");

    let (plan, allocs) = counted(|| {
        TwoLevelOptimizer::new(&problem, &view, cfg)
            .optimize()
            .unwrap()
    });
    assert!(plan.plan.groups.is_empty(), "no spot option survives");
    // Two per launchable swept profile plus the search's fixed set-up
    // stays within three per swept profile (106 for 48 here). Building
    // the pruned assessments of the 34 launchable swept bids would add
    // five each, 276 in all.
    assert!(
        allocs <= 3 * profiles_swept,
        "{allocs} allocations for {profiles_swept} swept bid profiles"
    );
}
