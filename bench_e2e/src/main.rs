//! `bench_e2e`: one end-to-end benchmark for the SOMPI pipeline.
//!
//! Four workloads (`plan`, `adaptive`, `tournament`, `serve`) drive the
//! system only through its public entry points — `sompi_server::service`,
//! `sompi_server::tournament::run_tournament`, and an in-process `Server`
//! over loopback TCP. Each round rebuilds its inputs from `--seed` and runs
//! a fixed number of operations; rounds repeat until `--seconds` have been
//! measured, and every metric is a median over rounds, its times scaled to
//! reference host speed (`calib.rs`). `--trace 1` instead runs traced
//! rounds and reports the per-layer breakdown.
//!
//! ```text
//! bench_e2e [--workload plan|adaptive|tournament|serve] [--seed N]
//!           [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process and
//! one combined JSON document is printed. See README.md for the metrics.

mod adaptive;
mod calib;
mod layers;
mod market;
mod plan;
mod serve;
mod span;
mod stats;
mod tournament;

use layers::{EventTally, Layers};
use serde_json::Value;
use sompi_obs::{RingRecorder, TraceLevel};
use span::{Span, Tracer};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark definition: workloads, metric names, units and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Medians, quartiles and output digests recorded for this benchmark.
const BASELINE_JSON: &str = include_str!("../BASELINE.json");

/// One timed round: a fresh set-up, then a fixed operation count.
pub struct Round {
    /// Market (and index, and server) build time.
    pub setup_s: f64,
    /// Latency of each operation, in issue order.
    pub op_ms: Vec<f64>,
    /// Wall time of the operation loop.
    pub wall_s: f64,
    /// Units of work done (plans, windows, replica-runs or requests).
    pub work: f64,
    /// Mean Monte-Carlo-realized cost over the billed on-demand baseline.
    pub norm_cost: f64,
    /// Mean fraction of replicas that met the deadline.
    pub met_rate: f64,
    pub attempted: u64,
    pub failed: u64,
    pub inputs_digest: u64,
    pub outputs_digest: u64,
}

/// One traced round and the same operations untraced.
pub struct Traced {
    pub spans: Vec<Span>,
    pub ops: u64,
    /// Summed operation time of the untraced repetition.
    pub untraced_ns: u64,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
}

/// Run a recomposed operation over `items` with tracing off (a disabled
/// tracer and a recorder at level `Off`) and return the summed time.
pub fn untraced_ns<I, T>(
    items: &[I],
    mut op: impl FnMut(&I, &mut Tracer, &RingRecorder, &mut EventTally) -> T,
) -> u64 {
    let mut tracer = Tracer::disabled();
    let ring = RingRecorder::new(TraceLevel::Off, 1);
    let mut tally = EventTally::default();
    let mut ns = 0u64;
    for item in items {
        let t = Instant::now();
        std::hint::black_box(op(item, &mut tracer, &ring, &mut tally));
        ns += t.elapsed().as_nanos() as u64;
    }
    ns
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Plan,
    Adaptive,
    Tournament,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Plan,
        Workload::Adaptive,
        Workload::Tournament,
        Workload::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan",
            Workload::Adaptive => "adaptive",
            Workload::Tournament => "tournament",
            Workload::Serve => "serve",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `tail_ms` percentile: a high one that leaves dozens of operations
    /// beyond it in every round. The slowest few requests of a round
    /// depend on which seed drew the inputs, so the top percentile that
    /// leaves only ten beyond it (p98 on `plan`, p99 on `serve`, p90 on
    /// `adaptive`) moved between seeds by up to a quarter of its median on
    /// `adaptive` and by a tenth on the others; one step lower moves far
    /// less. A `tournament` round has only 12 grids, so there the rounds
    /// are pooled; p85 still leaves ten beyond it at 6 rounds per run, a
    /// host a quarter slower than when the sizes were frozen.
    fn tail_pct(self) -> f64 {
        match self {
            Workload::Plan => 95.0,
            Workload::Adaptive => 80.0,
            Workload::Tournament => 85.0,
            Workload::Serve => 98.0,
        }
    }

    /// Copies of the calibration kernel the workload runs at once: one per
    /// core it may run on. `plan` searches on the main thread. `tournament`
    /// replays on every core and `serve` serves from several threads.
    /// `adaptive` replays each request on a freshly spawned Monte-Carlo
    /// worker, which lands on whichever core is free; measured over repeated
    /// runs of one seed, one copy per core cancels its drift better than
    /// one copy.
    fn threads(self) -> usize {
        match self {
            Workload::Plan => 1,
            Workload::Adaptive | Workload::Tournament | Workload::Serve => cores(),
        }
    }

    fn round(self, seed: u64, smoke: bool) -> Round {
        match self {
            Workload::Plan => plan::round(seed, if smoke { &plan::SMOKE } else { &plan::FULL }),
            Workload::Adaptive => adaptive::round(
                seed,
                if smoke {
                    &adaptive::SMOKE
                } else {
                    &adaptive::FULL
                },
            ),
            Workload::Tournament => tournament::round(
                seed,
                if smoke {
                    &tournament::SMOKE
                } else {
                    &tournament::FULL
                },
            ),
            Workload::Serve => serve::round(seed, if smoke { &serve::SMOKE } else { &serve::FULL }),
        }
    }

    /// Untimed work before the timed rounds: a discarded round, except on
    /// `adaptive`, whose request list is built by replaying every request
    /// once (see `adaptive::requests`); that pass already runs every path
    /// a round times, so a warm-up round would only repeat it.
    fn warm_up(self, seed: u64, smoke: bool) -> Option<Round> {
        if self == Workload::Adaptive {
            adaptive::requests(
                seed,
                if smoke {
                    &adaptive::SMOKE
                } else {
                    &adaptive::FULL
                },
            );
            return None;
        }
        Some(self.round(seed, smoke))
    }

    fn traced(self, seed: u64, smoke: bool) -> Traced {
        match self {
            Workload::Plan => plan::traced(seed, if smoke { &plan::SMOKE } else { &plan::FULL }),
            Workload::Adaptive => adaptive::traced(
                seed,
                if smoke {
                    &adaptive::SMOKE
                } else {
                    &adaptive::FULL
                },
            ),
            Workload::Tournament => tournament::traced(
                seed,
                if smoke {
                    &tournament::SMOKE
                } else {
                    &tournament::FULL
                },
            ),
            Workload::Serve => {
                serve::traced(seed, if smoke { &serve::SMOKE } else { &serve::FULL })
            }
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: definition().run_seconds,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag}: missing value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    w => Some(Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?),
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: expected integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: expected seconds, got {v:?}"))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                };
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A metric as `BENCHMARK.json` declares it.
struct MetricDef {
    name: String,
    unit: String,
}

struct Definition {
    run_seconds: f64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn definition() -> Definition {
    let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let metrics = |key: &str| -> Vec<MetricDef> {
        match &v[key] {
            Value::Arr(items) => items
                .iter()
                .map(|m| MetricDef {
                    name: m["name"].as_str().expect("metric name").to_string(),
                    unit: m["unit"].as_str().expect("metric unit").to_string(),
                })
                .collect(),
            _ => panic!("BENCHMARK.json: {key} must be a list"),
        }
    };
    Definition {
        run_seconds: v["run_seconds"].as_f64().expect("run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The recorded digests for `(workload, seed)`, if any: `(inputs, outputs)`.
fn recorded_digests(workload: Workload, seed: u64, smoke: bool) -> Option<(String, String)> {
    if smoke {
        return None;
    }
    let v: Value = serde_json::from_str(BASELINE_JSON).expect("BASELINE.json parses");
    let d = v
        .get("digests")?
        .get(workload.name())?
        .get(&seed.to_string())?;
    Some((
        d.get("inputs")?.as_str()?.to_string(),
        d.get("outputs")?.as_str()?.to_string(),
    ))
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one single-workload run measured.
struct Outcome {
    /// Metric name → value, every name of the relevant `BENCHMARK.json` list.
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    /// Everything else worth keeping: digests, round counts, quartiles.
    detail: Value,
}

impl Outcome {
    fn result_line(&self) -> String {
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(*value)),
                            ("unit".into(), Value::Str(unit.clone())),
                        ]),
                    )
                })
                .collect(),
        );
        serde_json::to_string(&Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics),
        ]))
        .expect("serializable")
    }
}

/// Order `values` by the definition list, with its units; a listed name
/// the run did not produce is a bug in this program.
fn in_definition_order(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<(String, f64, String)> {
    for (name, _) in values {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    defs.iter()
        .map(|d| {
            let value = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (d.name.clone(), value, d.unit.clone())
        })
        .collect()
}

/// Call `round` until `seconds` have been measured (at least once), timing
/// the calibration kernel just before each call. Returns each round with
/// the factor that converts its times to reference speed (see `calib.rs`):
/// host contention drifts within seconds, so each round gets its own.
fn calibrated<R>(w: Workload, seconds: f64, mut round: impl FnMut() -> R) -> Vec<(R, f64)> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let kernel: Vec<f64> = (0..calib::REPS_PER_ROUND)
            .map(|_| calib::kernel_secs(w.threads()))
            .collect();
        let to_ref = calib::REFERENCE_SECS / stats::median(&kernel);
        rounds.push((round(), to_ref));
    }
    rounds
}

/// Warm-up, then timed rounds until `seconds` have been measured.
fn measure(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let warm = w.warm_up(seed, smoke);
    let (rounds, to_ref): (Vec<Round>, Vec<f64>) = calibrated(w, seconds, || w.round(seed, smoke))
        .into_iter()
        .unzip();

    // Every round must reproduce the first round's inputs and outputs.
    let first = warm.as_ref().unwrap_or(&rounds[0]);
    let (mut attempted, mut failed) = warm.as_ref().map_or((0, 0), |r| (r.attempted, r.failed));
    for r in &rounds {
        attempted += r.attempted;
        failed += r.failed;
        if r.inputs_digest != first.inputs_digest || r.outputs_digest != first.outputs_digest {
            failed += 1;
        }
    }

    // A per-round tail, median over rounds, shrugs off a burst of host
    // contention that hits one round; rounds too small for one are pooled.
    let q = w.tail_pct();
    let per_round_tail = rounds
        .iter()
        .all(|r| r.op_ms.len() as f64 * (1.0 - q / 100.0) >= 10.0);
    let samples: usize = rounds.iter().map(|r| r.op_ms.len()).sum();
    // Per-round series with each round's times multiplied by its factor.
    let series = |factor: &[f64]| {
        let scaled = |g: &dyn Fn(&Round) -> f64| -> Vec<f64> {
            rounds.iter().zip(factor).map(|(r, f)| g(r) * f).collect()
        };
        let tail = if per_round_tail {
            stats::median(&scaled(&|r| stats::percentile(&r.op_ms, q)))
        } else {
            let pooled: Vec<f64> = rounds
                .iter()
                .zip(factor)
                .flat_map(|(r, f)| r.op_ms.iter().map(move |ms| ms * f))
                .collect();
            stats::percentile(&pooled, q)
        };
        let secs_per_unit = scaled(&|r| r.wall_s / r.work);
        let throughput: Vec<f64> = secs_per_unit.iter().map(|s| 1.0 / s).collect();
        (
            scaled(&|r| r.setup_s),
            scaled(&|r| stats::median(&r.op_ms)),
            tail,
            throughput,
        )
    };
    let summary = |(setup, p50, tail, throughput): &(Vec<f64>, Vec<f64>, f64, Vec<f64>)| {
        vec![
            ("setup_s", stats::median(setup)),
            ("p50_ms", stats::median(p50)),
            ("tail_ms", *tail),
            ("ops_per_s", stats::median(throughput)),
        ]
    };
    let at_ref = series(&to_ref);
    let raw = summary(&series(&vec![1.0; rounds.len()]));
    let mut values = summary(&at_ref);
    let rss = stats::peak_rss_mb().expect("VmHWM readable from /proc/self/status");
    values.push(("peak_rss_mb", rss));
    let metrics = in_definition_order(&definition().end_to_end, &values);
    let (setup, p50, _, throughput) = &at_ref;

    let comparable = recorded_digests(w, seed, smoke)
        .map(|(i, o)| i == hex(first.inputs_digest) && o == hex(first.outputs_digest));
    let quartile = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        Value::Arr(vec![
            Value::Num(q1),
            Value::Num(stats::median(v)),
            Value::Num(q3),
        ])
    };
    let detail = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("cores".into(), Value::Num(cores() as f64)),
        ("rounds".into(), Value::Num(rounds.len() as f64)),
        ("ops_per_round".into(), Value::Num(first.op_ms.len() as f64)),
        ("tail_percentile".into(), Value::Num(q)),
        ("tail_per_round".into(), Value::Bool(per_round_tail)),
        ("samples".into(), Value::Num(samples as f64)),
        ("to_reference".into(), Value::Num(stats::median(&to_ref))),
        (
            "raw".into(),
            Value::Obj(
                raw.iter()
                    .map(|&(name, v)| (name.to_string(), Value::Num(v)))
                    .collect(),
            ),
        ),
        ("norm_cost".into(), Value::Num(first.norm_cost)),
        ("deadline_met_rate".into(), Value::Num(first.met_rate)),
        ("inputs_digest".into(), Value::Str(hex(first.inputs_digest))),
        (
            "outputs_digest".into(),
            Value::Str(hex(first.outputs_digest)),
        ),
        (
            "comparable".into(),
            comparable.map_or(Value::Null, Value::Bool),
        ),
        (
            "round_quartiles".into(),
            Value::Obj(vec![
                ("setup_s".into(), quartile(setup)),
                ("p50_ms".into(), quartile(p50)),
                ("ops_per_s".into(), quartile(throughput)),
            ]),
        ),
    ]);
    Outcome {
        metrics,
        attempted,
        failed,
        detail,
    }
}

/// Traced rounds (each with its untraced repetition) until `seconds` have
/// been measured; per-layer values are medians over the rounds. The first
/// round's spans are written to `target/bench-e2e/trace-<workload>.json`
/// unless `write` is false.
fn measure_traced(w: Workload, seed: u64, seconds: f64, smoke: bool, write: bool) -> Outcome {
    let (rounds, to_ref): (Vec<Traced>, Vec<f64>) =
        calibrated(w, seconds, || w.traced(seed, smoke))
            .into_iter()
            .unzip();
    let defs = definition().per_layer;
    let is_time = |name: &str| {
        defs.iter()
            .any(|d| d.name == name && matches!(d.unit.as_str(), "ms" | "ns"))
    };
    let mut per_round: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (r, &f) in rounds.iter().zip(&to_ref) {
        attempted += r.attempted;
        failed += r.failed;
        let mut l = r.layers.clone();
        layers::from_spans(&mut l, &r.spans, r.ops);
        if let (Some(ms), Some(n)) = (l.get("mc.run_plan_ms"), l.get("mc.replicas")) {
            if n > 0.0 {
                l.set("mc.ns_per_replica", ms * 1e6 * r.ops as f64 / n);
            }
        }
        let wall = span::wall_ns(&r.spans) as f64;
        l.set(
            "trace.overhead_pct",
            100.0 * (layers::ratio(wall, r.untraced_ns as f64) - 1.0),
        );
        l.scale(f, is_time);
        per_round.push(l);
    }

    let values: Vec<(&str, f64)> = defs
        .iter()
        .map(|d| {
            let v: Vec<f64> = per_round.iter().filter_map(|l| l.get(&d.name)).collect();
            (
                d.name.as_str(),
                if v.is_empty() { 0.0 } else { stats::median(&v) },
            )
        })
        .collect();
    for l in &per_round {
        for (name, _) in l.iter() {
            assert!(
                defs.iter().any(|d| d.name == name),
                "per-layer metric {name} is not declared in BENCHMARK.json"
            );
        }
    }
    let metrics = in_definition_order(&defs, &values);

    let first = &rounds[0];
    let totals = span::totals(&first.spans);
    let wall = span::wall_ns(&first.spans);
    eprint!("{}", span::render(w.name(), &totals, wall));
    let unattributed = 100.0 * layers::ratio(span::unattributed_ns(&totals) as f64, wall as f64);
    let limited = w != Workload::Adaptive;
    eprintln!(
        "  unattributed {unattributed:.1}% of wall{}; tracing overhead {:.1}%",
        if limited {
            if unattributed <= 5.0 {
                " (within 5%)"
            } else {
                " (ABOVE 5%)"
            }
        } else {
            " (views and window replay inside AdaptiveRunner::run)"
        },
        per_round[0].get("trace.overhead_pct").unwrap_or(f64::NAN)
    );
    if write {
        let dir = std::path::Path::new("target").join("bench-e2e");
        let path = dir.join(format!("trace-{}.json", w.name()));
        let doc = Value::Obj(vec![
            ("workload".into(), Value::Str(w.name().into())),
            ("seed".into(), Value::Num(seed as f64)),
            ("spans".into(), span::to_json(&first.spans)),
        ]);
        let written = std::fs::create_dir_all(&dir).and_then(|_| {
            std::fs::write(&path, serde_json::to_string(&doc).expect("serializable"))
        });
        match written {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    let detail = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("cores".into(), Value::Num(cores() as f64)),
        ("traced_rounds".into(), Value::Num(rounds.len() as f64)),
        ("to_reference".into(), Value::Num(stats::median(&to_ref))),
        ("unattributed_pct".into(), Value::Num(unattributed)),
    ]);
    Outcome {
        metrics,
        attempted,
        failed,
        detail,
    }
}

fn print_table(w: Workload, out: &Outcome) {
    eprintln!(
        "{} ({} attempted, {} failed)",
        w.name(),
        out.attempted,
        out.failed
    );
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
}

/// Run every workload in its own child process (so peak memory is per
/// workload) and print one combined document.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workloads = Vec::new();
    let mut details = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let parsed = match lines.as_slice() {
            [.., detail, result] => serde_json::from_str::<Value>(detail)
                .and_then(|d| serde_json::from_str::<Value>(result).map(|r| (d, r)))
                .ok(),
            _ => None,
        };
        let Some((detail, result)) = parsed.filter(|_| output.status.success()) else {
            eprintln!("error: workload {} failed ({})", w.name(), output.status);
            return ExitCode::FAILURE;
        };
        ok &= result["correct"].as_bool() == Some(true);
        workloads.push((w.name().to_string(), result));
        details.push((w.name().to_string(), detail));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("cores".into(), Value::Num(cores() as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("workloads".into(), Value::Obj(workloads)),
        ("details".into(), Value::Obj(details)),
    ]);
    println!("{}", serde_json::to_string(&doc).expect("serializable"));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let out = if args.trace {
        measure_traced(w, args.seed, args.seconds, args.smoke, true)
    } else {
        measure(w, args.seed, args.seconds, args.smoke)
    };
    print_table(w, &out);
    if !args.trace {
        if let Some(false) = out.detail["comparable"].as_bool() {
            eprintln!(
                "  NOT COMPARABLE: digests differ from BASELINE.json for seed {}",
                args.seed
            );
        }
    }
    println!(
        "{}",
        serde_json::to_string(&out.detail).expect("serializable")
    );
    println!("{}", out.result_line());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn smoke_runs_emit_every_end_to_end_metric_and_repeat_exactly() {
        let defs = definition().end_to_end;
        for w in Workload::ALL {
            let a = measure(w, 7, 0.0, true);
            let b = measure(w, 7, 0.0, true);
            assert_eq!(
                a.failed,
                0,
                "{}: {}",
                w.name(),
                a.detail["outputs_digest"].as_str().unwrap_or("")
            );
            assert_eq!(a.metrics.len(), defs.len());
            for (name, v, _) in &a.metrics {
                assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
            }
            assert_eq!(a.detail["inputs_digest"], b.detail["inputs_digest"]);
            assert_eq!(a.detail["outputs_digest"], b.detail["outputs_digest"]);
            assert_eq!(a.detail["norm_cost"], b.detail["norm_cost"]);
        }
    }

    #[test]
    fn traced_smoke_recompositions_equal_the_service_outputs() {
        let defs = definition().per_layer;
        for w in Workload::ALL {
            let a = measure_traced(w, 7, 0.0, true, false);
            let b = measure_traced(w, 7, 0.0, true, false);
            // A failure here is a recomposition that differs from the
            // service answer.
            assert_eq!(a.failed, 0, "{}", w.name());
            assert_eq!(a.metrics.len(), defs.len());
            for (name, v, _) in &a.metrics {
                assert!(v.is_finite(), "{}: {name} = {v}", w.name());
            }
            for counter in [
                "twolevel.evaluations",
                "twolevel.searches",
                "adaptive.windows",
                "tournament.replay_memo_hits",
                "death.tables_built",
                "quality.norm_cost",
            ] {
                assert_eq!(
                    value(&a, counter),
                    value(&b, counter),
                    "{}: {counter}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn workload_definitions_match_the_program() {
        let v: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let Value::Arr(listed) = &v["workloads"] else {
            panic!("workloads must be a list")
        };
        let names: Vec<&str> = listed.iter().filter_map(|w| w["name"].as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &[&str]| parse_args(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        let a = parse(&[
            "--workload",
            "serve",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Serve));
        assert!(a.trace && a.seed == 3 && a.seconds == 5.0);
    }
}
