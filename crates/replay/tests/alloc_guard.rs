//! Allocation guard for Monte-Carlo replay.
//!
//! With the recorder off, one replica allocates nothing: the group runs
//! live on the stack, fault events are built only for a recorder that
//! wants them, chunk partials hold only moments and counters, and each
//! worker keeps one pair of quantile histograms across all its chunks.
//! So a twenty-times longer run may allocate only a few more times — for
//! the chunk slots and for histogram buckets first seen late. And a
//! replay keeps nothing: the death-time tables it builds are dropped when
//! it returns, so replaying new bids leaves the live heap where it was. A
//! counting global allocator makes both testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::Mutex;

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;
use replay::{BatchTables, ExecContext, MonteCarlo};
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated and not yet freed, counted at all times.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the layout
// and the pointer `System` returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counters are process-global and the default test harness runs
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

/// Two m1.small groups, in us-east-1a and us-east-1b, that checkpoint
/// every half hour.
fn two_group_plan(market: &SpotMarket) -> Plan {
    let small = market.catalog().by_name("m1.small").unwrap();
    let cc2 = market.catalog().by_name("cc2.8xlarge").unwrap();
    let group = |zone, bid| {
        (
            CircleGroup {
                id: CircleGroupId::new(small, zone),
                instances: 128,
                exec_hours: 1.5,
                ckpt_overhead_hours: 0.02,
                recovery_hours: 0.1,
            },
            GroupDecision {
                bid,
                ckpt_interval: 0.5,
            },
        )
    };
    Plan {
        groups: vec![
            group(AvailabilityZone::UsEast1a, 0.015),
            group(AvailabilityZone::UsEast1b, 0.02),
        ],
        on_demand: OnDemandOption {
            instance_type: cc2,
            instances: 4,
            exec_hours: 1.0,
            unit_price: 2.0,
            recovery_hours: 0.1,
        },
    }
}

#[test]
fn replica_allocations_do_not_grow_with_the_replicas() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 61), 300.0, 1.0 / 12.0);
    let plan = two_group_plan(&market);
    let batch = BatchTables::for_plan(&market, &plan).unwrap();
    for spec in [None, Some("storm=0.05x0.5"), Some("ckpt-fail=0.1")] {
        let injector =
            spec.map(|s| FaultInjector::new(FaultPlan::parse(s, 7).unwrap(), market.horizon()));
        let mut ctx = ExecContext::new().with_batch(&batch);
        if let Some(injector) = &injector {
            ctx = ctx
                .with_faults(injector)
                .with_retry(RetryPolicy::default_io());
        }
        let allocs = |replicas: usize| {
            let mc = MonteCarlo::builder()
                .replicas(replicas)
                .seed(3)
                .offsets(48.0, 250.0)
                .threads(1)
                .build();
            let (result, allocs) = counted(|| mc.run_plan(&market, &plan, 4.0, &ctx));
            assert_eq!(result.unwrap().cost.n, replicas);
            allocs
        };
        let (short, long) = (allocs(640), allocs(12_800));
        assert!(
            long <= short + 32,
            "faults {spec:?}: 12,800 replicas made {long} allocations against 640's {short}"
        );
    }
}

#[test]
fn replays_at_new_bids_leave_the_live_heap_where_it_was() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    let market = SpotMarket::generate(cat, &TraceGenerator::new(prof, 61), 300.0, 1.0 / 12.0);
    market.build_indexes();
    let plan = two_group_plan(&market);
    let mc = MonteCarlo::builder()
        .replicas(200)
        .seed(3)
        .offsets(48.0, 250.0)
        .threads(1)
        .build();
    // Replay the plan with every bid raised by `k` tenths of a cent.
    let replay = |k: u32| {
        let mut plan = plan.clone();
        for (_, decision) in &mut plan.groups {
            decision.bid += 0.001 * f64::from(k);
        }
        let result = mc.run_plan(&market, &plan, 4.0, &ExecContext::new());
        assert_eq!(result.unwrap().cost.n, 200);
    };
    replay(0);
    let before = LIVE.load(Ordering::SeqCst);
    for k in 1..=20 {
        replay(k);
    }
    let kept = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(kept, 0, "20 replays at new bids kept {kept} bytes");
}
