//! Allocation guard for Monte-Carlo replay.
//!
//! With the recorder off, one replica allocates nothing: the group runs
//! live on the stack, fault events are built only for a recorder that
//! wants them, chunk partials hold only moments and counters, and each
//! worker keeps one pair of quantile histograms across all its chunks.
//! So a twenty-times longer run may allocate only a few more times — for
//! the chunk slots and for histogram buckets first seen late. A counting
//! global allocator makes that testable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
