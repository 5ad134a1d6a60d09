//! Differential suite for batched scenario-major replay and the
//! tournament replay memo, against the oracles they replaced.
//!
//! - Death-time tables: every per-replica `RunOutcome` and every
//!   Monte-Carlo aggregate (threads {1, 4, auto}) matches the table-free
//!   `PlanRunner::run`, which queries the trace index, with and without
//!   faults. The table reproduces `TraceQuery`'s float arithmetic form
//!   exactly, so any divergence is a correctness bug.
//! - Replay memo: the cells a duplicated roster serves from the memo
//!   match single-policy tournaments, which have no duplicate plan and so
//!   never hit it. The memo only reuses what a re-run would reproduce.

use ec2_market::fault::{FaultInjector, FaultPlan, RetryPolicy};
use ec2_market::instance::{InstanceCatalog, InstanceTypeId};
use ec2_market::market::{CircleGroupId, SpotMarket};
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use ec2_market::zone::AvailabilityZone;
use mpi_sim::npb::{NpbClass, NpbKernel};
use mpi_sim::storage::S3Store;
use replay::{BatchTables, ExecContext, MonteCarlo, PlanRunner, RunOutcome};
use sompi_core::adaptive::PlanContext;
use sompi_core::baselines::Sompi;
use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption, Plan};
use sompi_core::policy::Policy;
use sompi_core::problem::Problem;
use sompi_core::twolevel::OptimizerConfig;
use sompi_core::view::MarketView;
use sompi_obs::{NullRecorder, RingRecorder, TraceLevel};
use sompi_server::proto::PlanRequest;
use sompi_server::tournament::{run_tournament, TournamentCell, TournamentConfig};

/// Deterministic start-offset stream (xorshift64*), so the "randomized"
/// grid below is reproducible across runs and platforms.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn market(seed: u64) -> SpotMarket {
    let cat = InstanceCatalog::paper_2014();
    let prof = MarketProfile::paper_2014(&cat);
    SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 300.0, 1.0 / 12.0)
}

fn problem_on(market: &SpotMarket) -> Problem {
    let profile = NpbKernel::Bt.profile(NpbClass::B, 128).repeated(200);
    let types: Vec<InstanceTypeId> = ["m1.small", "m1.medium", "c3.xlarge", "cc2.8xlarge"]
        .iter()
        .map(|n| market.catalog().by_name(n).unwrap())
        .collect();
    Problem::build(market, &profile, 4.0, Some(&types), S3Store::paper_2014())
}

fn plan_on(market: &SpotMarket, problem: &Problem) -> Plan {
    let view = MarketView::from_market(market, 0.0, 48.0);
    Sompi {
        config: OptimizerConfig {
            kappa: 2,
            bid_levels: 3,
            ..Default::default()
        },
    }
    .plan(problem, &view, &mut PlanContext::new())
    .unwrap()
}

/// Field-by-field bit comparison — stricter than `PartialEq`, which
/// would let `0.0 == -0.0` slide.
fn assert_outcome_bits(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "{what}");
    assert_eq!(a.spot_cost.to_bits(), b.spot_cost.to_bits(), "{what}");
    assert_eq!(a.od_cost.to_bits(), b.od_cost.to_bits(), "{what}");
    assert_eq!(a.wall_hours.to_bits(), b.wall_hours.to_bits(), "{what}");
    assert_eq!(a.finisher, b.finisher, "{what}");
    assert_eq!(a.groups_failed, b.groups_failed, "{what}");
    assert_eq!(a.met_deadline, b.met_deadline, "{what}");
}

/// Every per-replica `RunOutcome` matches bit-for-bit over a randomized
/// grid of start offsets — on the clean closed-form path and on the
/// fault-perturbed step-walk path (where the batched executor keeps the
/// death tables for launch/death lookups but walks replicas scalar-wise
/// with the precomputed fault keys). The table-free runs are the oracle.
#[test]
fn run_outcomes_identical_with_and_without_death_tables() {
    for seed in [31u64, 77, 910] {
        let market = market(seed);
        let problem = problem_on(&market);
        let plan = plan_on(&market, &problem);
        let batch = BatchTables::for_plan(&market, &plan).unwrap();
        let injector = FaultInjector::new(
            FaultPlan::parse("storm=0.05x0.8,ckpt-fail=0.3,ckpt-latency=0.2:0.25", 17).unwrap(),
            market.horizon(),
        );
        let scalar_clean = ExecContext::new();
        let batched_clean = ExecContext::new().with_batch(&batch);
        let scalar_faulty = scalar_clean
            .with_faults(&injector)
            .with_retry(RetryPolicy::default_io());
        let batched_faulty = batched_clean
            .with_faults(&injector)
            .with_retry(RetryPolicy::default_io());
        let runner = PlanRunner::new(&market, problem.deadline);
        let mut rng = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
        for i in 0..40 {
            let start = 48.0 + rng.next_f64() * 210.0;
            let a = runner.run(&plan, start, &scalar_clean).unwrap();
            let b = runner.run(&plan, start, &batched_clean).unwrap();
            assert_outcome_bits(&a, &b, &format!("clean seed={seed} i={i} start={start}"));
            let a = runner.run(&plan, start, &scalar_faulty).unwrap();
            let b = runner.run(&plan, start, &batched_faulty).unwrap();
            assert_outcome_bits(&a, &b, &format!("faulty seed={seed} i={i} start={start}"));
        }
    }
}

/// `MonteCarlo::run_plan`, which warms the plan's death-time tables
/// itself, aggregates exactly as the table-free runner evaluated replica
/// by replica, at threads {1, 4, auto}, with and without faults.
#[test]
fn mc_aggregates_identical_across_batch_and_threads() {
    let market = market(31);
    let problem = problem_on(&market);
    let plan = plan_on(&market, &problem);
    let injector = FaultInjector::new(
        FaultPlan::parse("storm=0.05x0.8,ckpt-fail=0.3", 17).unwrap(),
        market.horizon(),
    );
    let runner = PlanRunner::new(&market, problem.deadline);
    for faulty in [false, true] {
        let mut ctx = ExecContext::new();
        if faulty {
            ctx = ctx
                .with_faults(&injector)
                .with_retry(RetryPolicy::default_io());
        }
        let mc = |threads: usize| {
            MonteCarlo::builder()
                .replicas(96)
                .seed(5)
                .offsets(48.0, 260.0)
                .threads(threads)
                .build()
        };
        let reference = mc(1)
            .evaluate(|start| runner.run(&plan, start, &ctx))
            .expect("table-free replay succeeds");
        for threads in [1usize, 4, 0] {
            assert_eq!(
                reference,
                mc(threads)
                    .evaluate(|start| runner.run(&plan, start, &ctx))
                    .unwrap(),
                "table-free, threads={threads}, faulty={faulty}"
            );
            assert_eq!(
                reference,
                mc(threads)
                    .run_plan(&market, &plan, problem.deadline, &ctx)
                    .unwrap(),
                "batched, threads={threads}, faulty={faulty}"
            );
        }
    }
}

fn tournament_config() -> TournamentConfig {
    TournamentConfig {
        market_hours: 150.0,
        replicas: 4,
        policies: vec![
            "ondemand".into(),
            "no-ft".into(),
            "no-ft".into(),
            "sompi".into(),
        ],
        fault_specs: vec![None, Some("storm=0.02x0.5,ckpt-fail=0.1".into())],
        plan: PlanRequest {
            repeats: 50,
            kappa: 1,
            bid_levels: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A cell's labels and its floats by `to_bits` — stricter than
/// `PartialEq`, and than the JSON form, which prints `-0.0` as `0`.
fn cell_bits(c: &TournamentCell) -> (&str, &str, &str, Option<u64>, [u64; 6]) {
    let floats = [
        c.mean_cost,
        c.normalized_cost,
        c.deadline_miss_rate,
        c.spot_finish_rate,
        c.mean_failures,
        c.time_degradation,
    ];
    (
        &c.policy,
        &c.market,
        &c.faults,
        c.expected_cost.map(f64::to_bits),
        floats.map(f64::to_bits),
    )
}

/// The roster below has `no-ft` twice, so the memo serves its second
/// entry's cells. Each roster entry's cells match, bit for bit, a
/// single-policy tournament of that entry, which has no duplicate plan
/// and never hits the memo. The full report also repeats byte for byte.
#[test]
fn memo_served_cells_match_single_policy_tournaments() {
    let cfg = tournament_config();
    let full = run_tournament(&cfg, &NullRecorder, None).unwrap();
    assert!(
        full.replay_memo_hits > 0,
        "the roster must exercise the memo"
    );
    assert_eq!(
        full.to_json(),
        run_tournament(&cfg, &NullRecorder, None).unwrap().to_json(),
        "repeat runs diverge"
    );
    let per_policy = cfg.fault_specs.len();
    assert_eq!(full.cells.len(), cfg.policies.len() * per_policy);
    for (i, policy) in cfg.policies.iter().enumerate() {
        let alone = run_tournament(
            &TournamentConfig {
                policies: vec![policy.clone()],
                ..cfg.clone()
            },
            &NullRecorder,
            None,
        )
        .unwrap();
        assert_eq!(alone.replay_memo_hits, 0, "{policy} alone");
        let served = &full.cells[i * per_policy..(i + 1) * per_policy];
        assert_eq!(
            served.iter().map(cell_bits).collect::<Vec<_>>(),
            alone.cells.iter().map(cell_bits).collect::<Vec<_>>(),
            "roster entry {i} ({policy})"
        );
    }
}

/// Identical-plan cells share one search and one replay per fault spec:
/// the roster above has `no-ft` twice, so the trace must show exactly
/// one `PlanSearchStarted` per *unique* policy that runs a two-level
/// search (only `sompi` here — `ondemand`/`no-ft` are closed-form) and
/// the memo counters must account for every duplicated (plan,
/// fault-spec) replay.
#[test]
fn tournament_emits_one_search_per_unique_plan() {
    let cfg = tournament_config();
    let ring = RingRecorder::new(TraceLevel::Summary, 8192);
    let report = run_tournament(&cfg, &ring, None).unwrap();
    let searches = ring
        .events()
        .iter()
        .filter(|e| e.kind() == "PlanSearchStarted")
        .count();
    assert_eq!(searches, 1, "only sompi runs a two-level search");
    let memo_hits = ring
        .events()
        .iter()
        .filter(|e| e.kind() == "ReplayMemoHit")
        .count();
    // The duplicated no-ft entry re-hits the memo once per fault spec.
    assert_eq!(memo_hits, 2);
    assert_eq!(report.replay_memo_hits, 2);
    assert_eq!(report.replay_memo_misses, 3 * 2);
    // Batched replays announce themselves once per (plan, market, spec).
    let batched = ring
        .events()
        .iter()
        .filter(|e| e.kind() == "ReplayBatched")
        .count();
    assert_eq!(batched, 3 * 2, "one ReplayBatched per memo miss");
}

/// One fault plan that exercises every replay fault class: kill storms,
/// failed and slow checkpoint uploads, and corrupt restores.
const MIXED_FAULTS: &str = "storm=0.05x0.8,ckpt-fail=0.3,ckpt-latency=0.2:0.25,restore-corrupt=0.5";

/// A hand-built κ = 3 plan that checkpoints every half hour and bids a
/// little above each trace's mean price, so out-of-bid kills, kill
/// storms and every checkpoint fault class show up within a few dozen
/// starts. (The optimizer's plan on these markets is one group that
/// never checkpoints.)
fn checkpointing_plan(market: &SpotMarket) -> Plan {
    let cat = market.catalog();
    let small = cat.by_name("m1.small").unwrap();
    let medium = cat.by_name("m1.medium").unwrap();
    let groups = [
        (small, AvailabilityZone::UsEast1a),
        (small, AvailabilityZone::UsEast1b),
        (medium, AvailabilityZone::UsEast1c),
    ]
    .map(|(ty, zone)| {
        let id = CircleGroupId::new(ty, zone);
        let group = CircleGroup {
            id,
            instances: 64,
            exec_hours: 3.0,
            ckpt_overhead_hours: 0.05,
            recovery_hours: 0.1,
        };
        let decision = GroupDecision {
            bid: market.trace(id).unwrap().mean_price() * 1.1,
            ckpt_interval: 0.5,
        };
        (group, decision)
    });
    let cc2 = cat.by_name("cc2.8xlarge").unwrap();
    Plan {
        groups: groups.to_vec(),
        on_demand: OnDemandOption {
            instance_type: cc2,
            instances: 4,
            exec_hours: 2.0,
            unit_price: 2.0,
            recovery_hours: 0.1,
        },
    }
}

fn mixed_injector(market: &SpotMarket) -> FaultInjector {
    FaultInjector::new(
        FaultPlan::parse(MIXED_FAULTS, 17).unwrap(),
        market.horizon(),
    )
}

/// Replay outcomes do not depend on the recorder: the executor builds
/// fault events only when the recorder wants them, and that choice must
/// never reach the arithmetic. Every per-replica outcome matches by
/// `to_bits` across {no recorder, Summary, Detail} × {table-free,
/// batched}, and the Monte-Carlo aggregate matches across recorder
/// levels and thread counts.
#[test]
fn outcomes_do_not_depend_on_the_recorder() {
    for seed in [31u64, 77, 910] {
        let market = market(seed);
        let problem = problem_on(&market);
        for plan in [plan_on(&market, &problem), checkpointing_plan(&market)] {
            recorder_grid(&market, &plan, problem.deadline, seed);
        }
    }
}

fn recorder_grid(market: &SpotMarket, plan: &Plan, deadline: f64, seed: u64) {
    let batch = BatchTables::for_plan(market, plan).unwrap();
    let injector = mixed_injector(market);
    let summary = RingRecorder::new(TraceLevel::Summary, 1 << 16);
    let detail = RingRecorder::new(TraceLevel::Detail, 1 << 16);
    let base = ExecContext::new()
        .with_faults(&injector)
        .with_retry(RetryPolicy::default_io());
    let contexts = [
        ("table-free/null", base),
        ("table-free/summary", base.with_recorder(&summary)),
        ("table-free/detail", base.with_recorder(&detail)),
        ("batched/null", base.with_batch(&batch)),
        (
            "batched/summary",
            base.with_batch(&batch).with_recorder(&summary),
        ),
        (
            "batched/detail",
            base.with_batch(&batch).with_recorder(&detail),
        ),
    ];
    let runner = PlanRunner::new(market, deadline);
    let mut rng = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
    for i in 0..40 {
        let start = 48.0 + rng.next_f64() * 210.0;
        let reference = runner.run(plan, start, &contexts[0].1).unwrap();
        for (what, ctx) in &contexts[1..] {
            let o = runner.run(plan, start, ctx).unwrap();
            assert_outcome_bits(&reference, &o, &format!("{what} seed={seed} i={i}"));
        }
    }
    assert!(!summary.is_empty() && detail.len() >= summary.len());

    let mc = |recorder: &dyn sompi_obs::Recorder, threads: usize| {
        MonteCarlo::builder()
            .replicas(200)
            .seed(seed)
            .offsets(48.0, 260.0)
            .threads(threads)
            .build()
            .run_plan(market, plan, deadline, &base.with_recorder(recorder))
            .expect("replay succeeds")
    };
    let reference = mc(&NullRecorder, 1);
    for threads in [1usize, 3] {
        let summary = RingRecorder::new(TraceLevel::Summary, 1 << 16);
        let detail = RingRecorder::new(TraceLevel::Detail, 1 << 16);
        assert_eq!(
            reference,
            mc(&summary, threads),
            "summary, threads={threads}"
        );
        assert_eq!(reference, mc(&detail, threads), "detail, threads={threads}");
    }
}

/// FNV-1a over bytes, for pinning a trace without committing it.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A traced replay emits exactly the events it always has, in the same
/// order. The per-kind counts and the digest of the Detail JSONL lines
/// over 50 fixed starts were recorded before the executor learned to
/// skip building events for a disabled recorder; both executors must
/// still reproduce them. Launch events and the `deadline-cutoff`
/// fallback reason came later: with launches dropped and the reason
/// read as the `all-groups-failed` it used to be, the stream still hashes
/// to the digest recorded before them.
#[test]
fn traced_replay_events_are_pinned() {
    let market = market(31);
    let plan = checkpointing_plan(&market);
    let batch = BatchTables::for_plan(&market, &plan).unwrap();
    let injector = mixed_injector(&market);
    let runner = PlanRunner::new(&market, 8.0);
    let trace = |ctx: ExecContext<'_>| {
        let ring = RingRecorder::new(TraceLevel::Detail, 1 << 16);
        let ctx = ctx
            .with_faults(&injector)
            .with_retry(RetryPolicy::default_io())
            .with_recorder(&ring);
        let mut rng = Rng(0x0bad_5eed_1234_5678);
        for _ in 0..50 {
            let start = 48.0 + rng.next_f64() * 210.0;
            runner.run(&plan, start, &ctx).unwrap();
        }
        let events = ring.take();
        assert!(events.len() < 1 << 16, "ring evicted events");
        let mut kinds = std::collections::BTreeMap::<&str, usize>::new();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut before_launches = digest;
        let mut cutoffs = 0;
        for e in &events {
            *kinds.entry(e.kind()).or_default() += 1;
            let line = serde_json::to_string(e).unwrap();
            digest = fnv1a(fnv1a(digest, line.as_bytes()), b"\n");
            if e.kind() != "GroupLaunched" {
                let old = line.replace("\"deadline-cutoff\"", "\"all-groups-failed\"");
                cutoffs += usize::from(old != line);
                before_launches = fnv1a(fnv1a(before_launches, old.as_bytes()), b"\n");
            }
        }
        let kinds = kinds.into_iter().collect::<Vec<_>>();
        (kinds, digest, before_launches, cutoffs)
    };
    let scalar = trace(ExecContext::new());
    let batched = trace(ExecContext::new().with_batch(&batch));
    assert_eq!(scalar, batched, "the executors trace differently");
    let expected_kinds = [
        ("CheckpointTaken", 17),
        ("DegradedMode", 26),
        ("FaultInjected", 249),
        ("GroupFailed", 27),
        ("GroupLaunched", 118),
        ("OnDemandFallback", 10),
        ("RetryAttempted", 119),
        ("RunCompleted", 50),
    ];
    assert_eq!(scalar.0, expected_kinds);
    assert_eq!(scalar.1, 11_918_675_548_986_882_796, "event digest moved");
    assert_eq!(
        scalar.2, 7_673_867_614_012_836_664,
        "events other than launches moved"
    );
    assert_eq!(scalar.3, 10, "deadline-cutoff fallbacks");
}
