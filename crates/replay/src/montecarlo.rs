//! Parallel Monte-Carlo evaluation over random trace start points.
//!
//! The paper repeats the trace-replay simulation "one million times" from
//! random start points. [`MonteCarlo`] distributes seeded replicas across
//! workers; results are deterministic for a (seed, replica-count) pair
//! regardless of thread count, because each replica's start offset derives
//! only from the seed and its index. The calling thread is worker 0, and
//! only the other workers get a crossbeam scoped thread, so a run with
//! one worker's worth of chunks — any run of at most 64 replicas — spawns
//! no thread at all.
//!
//! Aggregation streams and never materializes per-replica outcomes. The
//! replicas are split into fixed-size chunks whose boundaries depend only
//! on the replica count, never on the thread count. Each chunk folds into
//! a fixed-size partial of float moments and integer counters, and the
//! partials merge in chunk-index order, which keeps the float moments
//! bit-identical at any `threads` setting. The cost and time quantile
//! histograms are integer counts, whose sum does not depend on order or
//! grouping: each worker keeps one pair across all of its chunks, and the
//! pairs are summed after the join. Peak memory is the chunk partials
//! (at most [`MAX_CHUNKS`]) plus one histogram pair per worker, each
//! bounded by the spread of the outcomes rather than by the replica count.

use crate::batch::BatchTables;
use crate::exec::{ExecContext, Finisher, PlanRunner, RunOutcome};
use crate::stats::{Moments, QuantileHistogram, Summary};
use crate::Hours;
use ec2_market::market::SpotMarket;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sompi_core::error::SompiError;
use sompi_core::model::Plan;
use sompi_obs::{emit, Event, NullRecorder, TraceLevel};

/// Aggregated Monte-Carlo result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McResult {
    /// Summary of total cost, USD.
    pub cost: Summary,
    /// Summary of wall-clock time, hours.
    pub time: Summary,
    /// Fraction of replicas meeting the deadline.
    pub deadline_rate: f64,
    /// Fraction of replicas finished on spot (vs on-demand fallback).
    pub spot_finish_rate: f64,
    /// Mean number of out-of-bid terminations per replica.
    pub mean_failures: f64,
}

/// Smallest chunk a replica range is split into for streaming aggregation.
const MIN_CHUNK: usize = 64;

/// Upper bound on the number of chunk partials held at once — this, not the
/// replica count, bounds the aggregation's peak memory.
pub const MAX_CHUNKS: usize = 4096;

/// Replicas per chunk. Depends only on the replica count, so the chunk
/// boundaries — and therefore the merged floating-point result — are
/// identical at every thread count.
fn chunk_size(replicas: usize) -> usize {
    MIN_CHUNK.max(replicas.div_ceil(MAX_CHUNKS))
}

/// Float moments and integer counters of a run of replicas: the part of
/// the aggregate whose merge is order-sensitive, so the fixed-size chunk
/// partials merge in ascending chunk order.
#[derive(Debug, Clone, Default)]
struct ChunkPartial {
    cost: Moments,
    time: Moments,
    met_deadline: u64,
    spot_finish: u64,
    failures: u64,
}

impl ChunkPartial {
    fn push(&mut self, o: &RunOutcome) {
        self.cost.push(o.total_cost);
        self.time.push(o.wall_hours);
        self.met_deadline += u64::from(o.met_deadline);
        self.spot_finish += u64::from(matches!(o.finisher, Finisher::Spot(_)));
        self.failures += u64::from(o.groups_failed);
    }

    fn merge(&mut self, other: &Self) {
        self.cost.merge(&other.cost);
        self.time.merge(&other.time);
        self.met_deadline += other.met_deadline;
        self.spot_finish += other.spot_finish;
        self.failures += other.failures;
    }
}

/// Cost and time quantile histograms. Their counts are integers, so they
/// sum exactly in any order: one pair per worker serves all its chunks.
#[derive(Debug, Clone, Default)]
struct Histograms {
    cost: QuantileHistogram,
    time: QuantileHistogram,
}

impl Histograms {
    fn push(&mut self, o: &RunOutcome) {
        self.cost.push(o.total_cost);
        self.time.push(o.wall_hours);
    }

    fn merge(&mut self, other: &Self) {
        self.cost.merge(&other.cost);
        self.time.merge(&other.time);
    }
}

/// Streaming aggregate of [`RunOutcome`]s: moments and exact integer
/// counters plus the quantile histograms. Merge partials in a fixed order
/// (ascending chunk index) for deterministic results.
#[derive(Debug, Clone, Default)]
pub struct McAccumulator {
    partial: ChunkPartial,
    hists: Histograms,
}

impl McAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one replica outcome in.
    pub fn push(&mut self, o: &RunOutcome) {
        self.partial.push(o);
        self.hists.push(o);
    }

    /// Merge another partial in.
    pub fn merge(&mut self, other: &Self) {
        self.partial.merge(&other.partial);
        self.hists.merge(&other.hists);
    }

    /// Finish into an [`McResult`]; `Err(SompiError::NoOutcomes)` when no
    /// outcomes were accumulated.
    pub fn finish(&self) -> Result<McResult, SompiError> {
        let m = &self.partial;
        if m.cost.count() == 0 {
            return Err(SompiError::NoOutcomes);
        }
        let n = m.cost.count() as f64;
        Ok(McResult {
            cost: m.cost.summary(&self.hists.cost),
            time: m.time.summary(&self.hists.time),
            deadline_rate: m.met_deadline as f64 / n,
            spot_finish_rate: m.spot_finish as f64 / n,
            mean_failures: m.failures as f64 / n,
        })
    }
}

/// Monte-Carlo driver over a market region.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Number of replicas.
    pub replicas: usize,
    /// RNG seed for start-offset sampling.
    pub seed: u64,
    /// Earliest admissible start offset (hours) — leave room for the
    /// planner's history window before it.
    pub offset_min: Hours,
    /// Latest admissible start offset (hours) — leave room for the
    /// execution after it.
    pub offset_max: Hours,
    /// Workers: `0` = one per available core, `1` = sequential, `n` = `n`
    /// workers. Never more workers than chunks run; the calling thread is
    /// worker 0, so `n` workers spawn `n − 1` threads. Results are
    /// identical at any value — only wall-clock changes.
    pub threads: usize,
}

/// Builder for [`MonteCarlo`] (see [`MonteCarlo::builder`]).
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloBuilder {
    mc: MonteCarlo,
}

impl MonteCarloBuilder {
    /// Number of replicas.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.mc.replicas = replicas;
        self
    }

    /// RNG seed for start-offset sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.mc.seed = seed;
        self
    }

    /// Admissible start-offset window `[min, max)`, hours.
    pub fn offsets(mut self, min: Hours, max: Hours) -> Self {
        self.mc.offset_min = min;
        self.mc.offset_max = max;
        self
    }

    /// Worker threads (`0` = all cores, `1` = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.mc.threads = threads;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> MonteCarlo {
        self.mc
    }
}

impl MonteCarlo {
    /// A driver with sensible experiment defaults: all cores (`threads =
    /// 0`), no artificial cap.
    ///
    /// ```
    /// use replay::montecarlo::MonteCarlo;
    /// let mc = MonteCarlo::builder()
    ///     .replicas(64)
    ///     .seed(7)
    ///     .offsets(48.0, 250.0)
    ///     .build();
    /// assert_eq!(mc.threads, 0);
    /// ```
    pub fn builder() -> MonteCarloBuilder {
        MonteCarloBuilder {
            mc: MonteCarlo {
                replicas: 100,
                seed: 0,
                offset_min: 0.0,
                offset_max: 1.0,
                threads: 0,
            },
        }
    }

    /// Deterministic start offset of replica `i`.
    fn offset(&self, i: usize) -> Hours {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
        rng.gen_range(self.offset_min..self.offset_max)
    }

    /// Run `f(start_offset)` for every replica and aggregate by
    /// streaming: the calling thread and up to `threads − 1` scoped
    /// threads each fold a contiguous run of whole chunks of replicas into
    /// moment-and-counter partials and one pair of quantile histograms
    /// (never materializing per-replica outcomes); the partials merge in
    /// ascending chunk order and the histograms are summed. Chunk
    /// boundaries depend only on the replica count, so the result is
    /// bit-identical at every `threads` setting, and peak memory is at most
    /// [`MAX_CHUNKS`] fixed-size partials plus one histogram pair per
    /// worker, regardless of the replica count.
    ///
    /// `f` must be deterministic in the offset. The first replica error
    /// (in replica order, independent of thread count) aborts the
    /// aggregate; an empty or inverted configuration is
    /// [`SompiError::InvalidConfig`].
    pub fn evaluate<F>(&self, f: F) -> Result<McResult, SompiError>
    where
        F: Fn(Hours) -> Result<RunOutcome, SompiError> + Sync,
    {
        if self.replicas == 0 {
            return Err(SompiError::InvalidConfig {
                message: "need at least one replica".to_string(),
            });
        }
        if self.offset_max <= self.offset_min {
            return Err(SompiError::InvalidConfig {
                message: "offset window must be non-empty".to_string(),
            });
        }
        let chunk = chunk_size(self.replicas);
        let n_chunks = self.replicas.div_ceil(chunk);
        // `0` means one worker per core; one chunk needs one worker, so it
        // skips the core-count query, which reads cgroup files on Linux.
        let workers = match self.threads {
            0 if n_chunks > 1 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n.max(1),
        }
        .min(n_chunks);
        // Fold one chunk of consecutive replicas into its partial and the
        // worker's histograms; stops at the chunk's first replica error.
        let run_chunk = |c: usize, hists: &mut Histograms| -> Result<ChunkPartial, SompiError> {
            let hi = ((c + 1) * chunk).min(self.replicas);
            let mut part = ChunkPartial::default();
            for i in c * chunk..hi {
                let o = f(self.offset(i))?;
                part.push(&o);
                hists.push(&o);
            }
            Ok(part)
        };
        // Run one worker's consecutive chunks, starting at chunk `first`,
        // into one slot each. A worker abandons its remaining
        // (higher-index) chunks after an error — those can never beat the
        // error it already holds.
        type Slot = Option<Result<ChunkPartial, SompiError>>;
        let run_chunks = |first: usize, slots: &mut [Slot], hists: &mut Histograms| {
            for (off, slot) in slots.iter_mut().enumerate() {
                let part = run_chunk(first + off, hists);
                let failed = part.is_err();
                *slot = Some(part);
                if failed {
                    break;
                }
            }
        };
        let mut parts: Vec<Slot> = (0..n_chunks).map(|_| None).collect();
        let per_worker = n_chunks.div_ceil(workers);
        let mut hists = vec![Histograms::default(); n_chunks.div_ceil(per_worker)];
        // The caller is worker 0: only workers 1.. get a thread, so a run
        // of one worker's chunks spawns nothing.
        crossbeam::thread::scope(|s| {
            let mut work = parts.chunks_mut(per_worker).zip(&mut hists);
            let (first, first_hists) = work.next().expect("at least one chunk");
            for (w, (slots, h)) in work.enumerate() {
                let run_chunks = &run_chunks;
                s.spawn(move |_| run_chunks((w + 1) * per_worker, slots, h));
            }
            run_chunks(0, first, first_hists);
        })
        .expect("crossbeam scope failed");
        // Deterministic merge: chunk moments in ascending chunk index, then
        // the worker histograms, whose integer counts sum exactly in any
        // order. The first error in chunk order is the lowest-replica-index
        // error, because each worker fills its slots in order and stops at
        // its first failure.
        let mut merged = McAccumulator::new();
        for part in parts {
            match part {
                Some(Ok(p)) => merged.partial.merge(&p),
                Some(Err(e)) => return Err(e),
                None => unreachable!("unfilled chunk slot before the first error"),
            }
        }
        for h in &hists {
            merged.hists.merge(h);
        }
        merged.finish()
    }

    /// Convenience: Monte-Carlo over a static plan via [`PlanRunner`].
    /// The context's fault injector and retry policy apply to every
    /// replica (the fault timeline is a property of the trace clock, so
    /// replicas starting at different offsets see different storm
    /// alignments — exactly like real correlated outages).
    ///
    /// Every replica on every worker replays against the plan's
    /// death-time tables: the context's own [`BatchTables`] when it
    /// carries them, else tables built here for this call alone and
    /// dropped when it returns. Building them is announced with one
    /// [`Event::ReplayBatched`] on the calling thread, before any worker
    /// starts. The replicas replay without the recorder, so the trace is
    /// the same at every thread count; to record one replay's timeline,
    /// run [`PlanRunner::run`] with the recorder.
    pub fn run_plan(
        &self,
        market: &SpotMarket,
        plan: &Plan,
        deadline: Hours,
        ctx: &ExecContext<'_>,
    ) -> Result<McResult, SompiError> {
        let runner = PlanRunner::new(market, deadline);
        let quiet = ctx.with_recorder(&NullRecorder);
        if ctx.batch.is_some() {
            // Caller-built tables, announced (or not) by their caller.
            return self.evaluate(|start| runner.run(plan, start, &quiet));
        }
        let batch = BatchTables::for_plan(market, plan)?;
        emit(ctx.recorder, TraceLevel::Summary, || Event::ReplayBatched {
            groups: batch.len() as u32,
            replicas: self.replicas as u64,
            tables_built: batch.tables_built,
        });
        let bctx = quiet.with_batch(&batch);
        self.evaluate(|start| runner.run(plan, start, &bctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2_market::instance::InstanceCatalog;
    use ec2_market::market::CircleGroupId;
    use ec2_market::tracegen::{MarketProfile, TraceGenerator};
    use ec2_market::zone::AvailabilityZone;
    use sompi_core::model::{CircleGroup, GroupDecision, OnDemandOption};

    fn market(seed: u64) -> SpotMarket {
        let cat = InstanceCatalog::paper_2014();
        let prof = MarketProfile::paper_2014(&cat);
        SpotMarket::generate(cat, &TraceGenerator::new(prof, seed), 300.0, 1.0 / 12.0)
    }

    fn simple_plan(market: &SpotMarket) -> Plan {
        let small = market.catalog().by_name("m1.small").unwrap();
        let cc2 = market.catalog().by_name("cc2.8xlarge").unwrap();
        let id = CircleGroupId::new(small, AvailabilityZone::UsEast1b);
        let group = CircleGroup {
            id,
            instances: 128,
            exec_hours: 1.5,
            ckpt_overhead_hours: 0.02,
            recovery_hours: 0.1,
        };
        Plan {
            groups: vec![(
                group,
                GroupDecision {
                    bid: 0.02,
                    ckpt_interval: 0.5,
                },
            )],
            on_demand: OnDemandOption {
                instance_type: cc2,
                instances: 4,
                exec_hours: 1.0,
                unit_price: 2.0,
                recovery_hours: 0.1,
            },
        }
    }

    fn run(mc: &MonteCarlo, m: &SpotMarket, plan: &Plan, deadline: Hours) -> McResult {
        mc.run_plan(m, plan, deadline, &ExecContext::new()).unwrap()
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo {
            replicas: 64,
            seed: 5,
            offset_min: 48.0,
            offset_max: 250.0,
            threads: 1,
        };
        let seq = run(&base, &m, &plan, 3.0);
        let par = run(&MonteCarlo { threads: 4, ..base }, &m, &plan, 3.0);
        let all = run(&MonteCarlo { threads: 0, ..base }, &m, &plan, 3.0);
        assert_eq!(seq, par);
        assert_eq!(seq, all);
    }

    #[test]
    fn multi_chunk_streaming_is_deterministic_across_thread_counts() {
        // 200 replicas split into ceil(200/64) = 4 chunk partials, so this
        // exercises the fixed-order merge (unlike the 64-replica test,
        // which fits one chunk).
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo {
            replicas: 200,
            seed: 11,
            offset_min: 48.0,
            offset_max: 250.0,
            threads: 1,
        };
        let seq = run(&base, &m, &plan, 3.0);
        let par = run(&MonteCarlo { threads: 3, ..base }, &m, &plan, 3.0);
        let all = run(&MonteCarlo { threads: 0, ..base }, &m, &plan, 3.0);
        assert_eq!(seq, par);
        assert_eq!(seq, all);
    }

    #[test]
    fn chunking_is_bounded_and_thread_independent() {
        assert_eq!(chunk_size(1), MIN_CHUNK);
        assert_eq!(chunk_size(64), MIN_CHUNK);
        let million = chunk_size(1_000_000);
        assert_eq!(million, 245);
        assert!(1_000_000usize.div_ceil(million) <= MAX_CHUNKS);
    }

    #[test]
    fn empty_outcomes_aggregate_to_error() {
        assert_eq!(McAccumulator::new().finish(), Err(SompiError::NoOutcomes));
    }

    #[test]
    fn builder_defaults_to_all_cores() {
        let mc = MonteCarlo::builder().replicas(10).seed(1).build();
        assert_eq!(mc.threads, 0);
        assert_eq!(mc.replicas, 10);
    }

    #[test]
    fn different_seeds_sample_different_offsets() {
        let m = market(61);
        let plan = simple_plan(&m);
        let base = MonteCarlo::builder()
            .replicas(32)
            .offsets(48.0, 250.0)
            .threads(2)
            .build();
        let a = run(&MonteCarlo { seed: 1, ..base }, &m, &plan, 3.0);
        let b = run(&MonteCarlo { seed: 2, ..base }, &m, &plan, 3.0);
        // Statistically all-but-certain to differ on a volatile market.
        assert_ne!(a, b);
    }

    #[test]
    fn aggregates_are_consistent() {
        let m = market(67);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder()
            .replicas(50)
            .seed(9)
            .offsets(48.0, 250.0)
            .threads(4)
            .build();
        let r = run(&mc, &m, &plan, 3.0);
        assert_eq!(r.cost.n, 50);
        assert!(r.cost.mean > 0.0);
        assert!(r.cost.min <= r.cost.mean && r.cost.mean <= r.cost.max);
        assert!((0.0..=1.0).contains(&r.deadline_rate));
        assert!((0.0..=1.0).contains(&r.spot_finish_rate));
    }

    #[test]
    fn cheap_stable_zone_usually_finishes_on_spot() {
        // us-east-1b m1.small is Calm: bidding ~2.3× base should almost
        // always ride through.
        let m = market(71);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder()
            .replicas(40)
            .seed(3)
            .offsets(48.0, 250.0)
            .threads(4)
            .build();
        let r = run(&mc, &m, &plan, 3.0);
        assert!(r.spot_finish_rate > 0.7, "spot rate {}", r.spot_finish_rate);
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let m = market(61);
        let plan = simple_plan(&m);
        let mc = MonteCarlo::builder().replicas(0).offsets(0.0, 1.0).build();
        assert!(matches!(
            mc.run_plan(&m, &plan, 1.0, &ExecContext::new()),
            Err(SompiError::InvalidConfig { .. })
        ));
    }

    /// A synthetic outcome spanning several octaves of cost and time, so
    /// the workers' histograms hold different buckets.
    fn synthetic(start: Hours) -> RunOutcome {
        let cost = 0.01 * 2f64.powf(start / 12.0);
        RunOutcome {
            total_cost: cost,
            spot_cost: cost,
            od_cost: 0.0,
            wall_hours: 1.0 + start.sin().abs() * 30.0,
            finisher: Finisher::OnDemand,
            groups_failed: (start as u32) % 3,
            met_deadline: start.fract() < 0.7,
        }
    }

    #[test]
    fn worker_splits_do_not_change_the_result() {
        // 1,000 replicas are 16 chunks of 64: threads 2, 3, 5 and 16
        // split them unevenly or one per worker, and 17 leaves a worker
        // idle. The chunk moments merge in chunk order and the worker
        // histograms sum exactly, so every split gives the same bits.
        let mc = MonteCarlo::builder()
            .replicas(1_000)
            .seed(21)
            .offsets(0.0, 96.0)
            .threads(1)
            .build();
        assert_eq!(mc.replicas.div_ceil(chunk_size(mc.replicas)), 16);
        let eval = |threads: usize| {
            MonteCarlo { threads, ..mc }
                .evaluate(|start| Ok(synthetic(start)))
                .unwrap()
        };
        let reference = eval(1);
        assert!(reference.cost.max / reference.cost.min > 64.0);
        for threads in [2, 3, 5, 16, 17] {
            assert_eq!(reference, eval(threads), "threads={threads}");
        }
    }

    /// The distinct threads `mc` calls its replica function on.
    fn threads_used(mc: MonteCarlo) -> std::collections::HashSet<std::thread::ThreadId> {
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        mc.evaluate(|start| {
            seen.lock().unwrap().insert(std::thread::current().id());
            Ok(synthetic(start))
        })
        .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        // 64 replicas are one chunk: whatever the thread setting, there is
        // one worker, and the caller is it.
        let caller = std::thread::current().id();
        for threads in [0, 2, 8] {
            let mc = MonteCarlo::builder()
                .replicas(MIN_CHUNK)
                .seed(3)
                .offsets(0.0, 96.0)
                .threads(threads)
                .build();
            let used = threads_used(mc);
            assert_eq!(used.len(), 1, "threads={threads}");
            assert!(used.contains(&caller), "threads={threads}");
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // 1,000 replicas are 16 chunks, which 2, 3, 4 and 8 workers split
        // without leaving one idle: each worker is one thread, and the
        // calling thread runs the first worker's chunks.
        let caller = std::thread::current().id();
        for threads in [2, 3, 4, 8] {
            let mc = MonteCarlo::builder()
                .replicas(1_000)
                .seed(21)
                .offsets(0.0, 96.0)
                .threads(threads)
                .build();
            let used = threads_used(mc);
            assert_eq!(used.len(), threads, "threads={threads}");
            assert!(used.contains(&caller), "threads={threads}");
        }
    }

    #[test]
    fn first_error_in_replica_order_wins_at_every_thread_count() {
        let mc = MonteCarlo::builder()
            .replicas(1_000)
            .seed(21)
            .offsets(0.0, 96.0)
            .build();
        // Replica 700 fails, and so do two later replicas on other
        // workers; the error of the lowest replica comes back.
        let bad = [700, 850, 990].map(|i| (mc.offset(i), i));
        for threads in [1, 2, 3, 5, 16, 17] {
            let r = MonteCarlo { threads, ..mc }.evaluate(|start| {
                match bad.iter().find(|(at, _)| *at == start) {
                    Some((_, i)) => Err(SompiError::InvalidConfig {
                        message: format!("replica {i}"),
                    }),
                    None => Ok(synthetic(start)),
                }
            });
            assert_eq!(
                r,
                Err(SompiError::InvalidConfig {
                    message: "replica 700".to_string()
                }),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn batch_counters_predict_the_work_done() {
        // Without caller-built tables, `run_plan` builds one table per
        // plan group on every call and announces them once, before any
        // replica runs: nothing is reused, and the replica count is the
        // aggregate's sample size. The replicas replay silently.
        let m = market(61);
        let mut plan = simple_plan(&m);
        let (mut second, _) = plan.groups[0];
        second.id = CircleGroupId::new(second.id.instance_type, AvailabilityZone::UsEast1a);
        plan.groups.push((second, plan.groups[0].1));
        let mc = MonteCarlo::builder()
            .replicas(300)
            .seed(8)
            .offsets(48.0, 250.0)
            .threads(2)
            .build();
        let batched = || {
            let ring = sompi_obs::RingRecorder::new(TraceLevel::Summary, 1 << 12);
            let r = mc
                .run_plan(&m, &plan, 3.0, &ExecContext::new().with_recorder(&ring))
                .unwrap();
            let events = ring.events();
            assert_eq!(events.len(), 1, "{events:?}");
            let Event::ReplayBatched {
                groups,
                replicas,
                tables_built,
            } = events[0]
            else {
                panic!("expected ReplayBatched, got {events:?}");
            };
            (r, (groups, replicas, tables_built))
        };
        let (r, counters) = batched();
        assert_eq!(counters, (plan.groups.len() as u32, r.cost.n as u64, 2));
        let (again, counters_again) = batched();
        assert_eq!(counters_again, counters, "every call builds every table");
        assert_eq!(again, r);
    }

    #[test]
    fn replica_errors_propagate() {
        let mc = MonteCarlo::builder()
            .replicas(8)
            .offsets(0.0, 1.0)
            .threads(2)
            .build();
        let r = mc.evaluate(|_| Err(SompiError::NoOutcomes));
        assert_eq!(r, Err(SompiError::NoOutcomes));
    }
}
