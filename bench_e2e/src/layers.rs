//! Per-layer numbers of a traced round: span totals, the program's own
//! trace events, and set-up timings, under the names `BENCHMARK.json`
//! lists in `per_layer`.

use crate::market::Built;
use crate::span::{self, Span, Tracer};
use sompi_obs::{Event, RingRecorder};
use std::collections::BTreeMap;

/// Per-layer values by metric name. Names a workload does not exercise
/// are reported as 0.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// Multiply every value whose name satisfies `pick` by `factor`.
    pub fn scale(&mut self, factor: f64, pick: impl Fn(&str) -> bool) {
        for (name, v) in &mut self.0 {
            if pick(name) {
                *v *= factor;
            }
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Span names whose mean time per operation is a per-layer metric
/// (`<span>_ms`).
const SPAN_METRICS: [(&str, &str); 16] = [
    ("problem.build", "problem.build_ms"),
    ("view.build", "view.build_ms"),
    ("policy.plan", "policy.plan_ms"),
    ("twolevel.assess", "twolevel.assess_ms"),
    ("twolevel.search", "twolevel.search_ms"),
    ("cost.evaluate_plan", "cost.evaluate_plan_ms"),
    ("death.tables", "death.build_ms"),
    ("fault.injector", "fault.injector_ms"),
    ("mc.run_plan", "mc.run_plan_ms"),
    ("adaptive.run", "adaptive.run_ms"),
    ("tournament.market", "tournament.market_ms"),
    ("tournament.memo", "tournament.memo_ms"),
    ("proto.encode", "proto.encode_ms"),
    ("proto.decode", "proto.decode_ms"),
    ("proto.write_frame", "proto.write_frame_ms"),
    ("client.connect", "client.connect_ms"),
];

/// Mean time per operation of each measured span, plus the run-wide
/// wall and unattributed share.
pub fn from_spans(out: &mut Layers, spans: &[Span], ops: u64) {
    let totals = span::totals(spans);
    let per_op = |ns: u64| ns as f64 / 1e6 / ops.max(1) as f64;
    for (span_name, metric) in SPAN_METRICS {
        if let Some(t) = totals.get(span_name) {
            out.set(metric, per_op(t.total_ns));
        }
    }
    if let Some(t) = totals.get("adaptive.run") {
        out.set("adaptive.unattributed_ms", per_op(t.self_ns));
    }
    let wall = span::wall_ns(spans);
    out.set("trace.wall_ms", wall as f64 / 1e6);
    out.set(
        "trace.unattributed_pct",
        100.0 * ratio(span::unattributed_ns(&totals) as f64, wall as f64),
    );
}

/// Mean Monte-Carlo-realized cost over the billed on-demand baseline, and
/// the mean fraction of replicas that met the deadline, over the round's
/// replayed operations. Deterministic for a seed, but they vary by tens of
/// percent between seeds, so they carry no regression bound; the outputs
/// digest pins them instead.
pub fn quality(out: &mut Layers, costs: &[f64], met: &[f64]) {
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    out.set("quality.norm_cost", mean(costs));
    out.set("quality.deadline_met_rate", mean(met));
}

pub fn market_setup(out: &mut Layers, built: &Built) {
    out.set("market.generate_ms", built.generate_s * 1e3);
    out.set("market.index_build_ms", built.index_s * 1e3);
    out.set(
        "market.samples",
        crate::market::samples(&built.market) as f64,
    );
}

/// Running totals over the program's own trace events.
#[derive(Debug, Clone, Default)]
pub struct EventTally {
    pub searches: u64,
    pub assess_secs: f64,
    pub search_secs: f64,
    pub considered: u64,
    pub pruned: u64,
    pub dominated: u64,
    pub evaluations: u64,
    pub skipped: u64,
    pub tightenings: u64,
    pub kernel_nanos: u64,
    pub windows: u64,
    pub windows_reused: u64,
    pub warm_seeded: u64,
    pub tables_reused: u64,
    pub tables_rebuilt: u64,
}

impl EventTally {
    pub fn add(&mut self, event: &Event) {
        match event {
            Event::PlanSearchStarted {
                options_considered,
                options_pruned,
                options_dominated,
                ..
            } => {
                self.considered += options_considered;
                self.pruned += options_pruned;
                self.dominated += options_dominated;
            }
            Event::PlanSelected {
                evaluations,
                assess_secs,
                search_secs,
                evals_skipped,
                bound_tightenings,
                kernel_nanos,
                ..
            } => {
                self.searches += 1;
                self.evaluations += evaluations;
                self.assess_secs += assess_secs;
                self.search_secs += search_secs;
                self.skipped += evals_skipped;
                self.tightenings += bound_tightenings;
                self.kernel_nanos += kernel_nanos;
            }
            Event::WindowReplanned { reused, .. } => {
                self.windows += 1;
                self.windows_reused += u64::from(*reused);
            }
            Event::WarmStartApplied {
                seeded,
                tables_reused,
                tables_rebuilt,
                ..
            } => {
                self.warm_seeded += u64::from(*seeded);
                self.tables_reused += tables_reused;
                self.tables_rebuilt += tables_rebuilt;
            }
            _ => {}
        }
    }

    /// Search, warm-start and window counters, totals over the round.
    pub fn apply(&self, out: &mut Layers) {
        let f = |v: u64| v as f64;
        out.set("twolevel.searches", f(self.searches));
        out.set("twolevel.options_considered", f(self.considered));
        out.set("twolevel.options_pruned", f(self.pruned));
        out.set("twolevel.options_dominated", f(self.dominated));
        out.set("twolevel.evaluations", f(self.evaluations));
        out.set("twolevel.evals_skipped", f(self.skipped));
        out.set(
            "twolevel.skip_ratio",
            ratio(f(self.skipped), f(self.evaluations)),
        );
        out.set("twolevel.bound_tightenings", f(self.tightenings));
        out.set(
            "twolevel.kernel_ns_per_eval",
            ratio(
                f(self.kernel_nanos),
                f(self.evaluations.saturating_sub(self.skipped)),
            ),
        );
        out.set("adaptive.windows", f(self.windows));
        out.set("adaptive.plans_reused", f(self.windows_reused));
        out.set(
            "adaptive.reuse_ratio",
            ratio(f(self.windows_reused), f(self.windows)),
        );
        out.set("warm.seeded", f(self.warm_seeded));
        out.set("warm.tables_reused", f(self.tables_reused));
        out.set("warm.tables_rebuilt", f(self.tables_rebuilt));
    }
}

/// Move the events a planning call left in `ring` into `tally`, and turn
/// each search's reported assess/search durations into children of the
/// span that contained the call.
pub fn drain_search_events(
    ring: &RingRecorder,
    tracer: &mut Tracer,
    parent: usize,
    tally: &mut EventTally,
) {
    for event in ring.take() {
        if let Event::PlanSelected {
            assess_secs,
            search_secs,
            ..
        } = &event
        {
            tracer.add_reported(parent, "twolevel.assess", *assess_secs);
            tracer.add_reported(parent, "twolevel.search", *search_secs);
        }
        tally.add(&event);
    }
}
