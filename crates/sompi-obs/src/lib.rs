//! Structured observability for the SOMPI pipeline.
//!
//! SOMPI's value is its decision trail — why a bid vector won, which
//! circle-group subsets were pruned, when the adaptive loop re-planned,
//! and when replay fell back to on-demand. This crate makes that trail a
//! first-class artifact:
//!
//! * [`Event`] — the typed vocabulary: `PlanSearchStarted`,
//!   `SubsetEvaluated`, `PlanSelected`, `WindowReplanned`, `GroupLaunched`,
//!   `GroupFailed`, `CheckpointTaken`, `OnDemandFallback`, `RunCompleted`. The full
//!   schema (fields, units, emission sites) lives in
//!   `docs/OBSERVABILITY.md`.
//! * [`Recorder`] — the sink trait, with three implementations:
//!   [`NullRecorder`] (drops everything; the default inside every
//!   un-instrumented public API), [`RingRecorder`] (bounded in-memory
//!   buffer for tests and inspection), and [`JsonlRecorder`] (one JSON
//!   object per line, the `--trace-out` format).
//! * [`emit`] — the gate every instrumentation site goes through. It
//!   takes a closure, so when the recorder's [`TraceLevel`] does not admit
//!   the event, the event is never even constructed. This is what keeps
//!   the `NullRecorder` path allocation-free on the optimizer hot loop
//!   (asserted by `crates/sompi-core/tests/alloc_guard.rs` and the
//!   `opt_speed` bench).
//! * [`Counter`] / [`PhaseTimer`] plus [`rate_per_sec`] / [`prune_rate`]
//!   — the monotonic counters and phase timers behind derived metrics
//!   (candidates evaluated/sec, prune rate, per-phase wall time).
//! * [`RunReport`] / [`parse_jsonl`] — turn a JSONL trace back into the
//!   human-readable report `sompi trace summarize` prints.
//!
//! # End-to-end example
//!
//! ```
//! use sompi_obs::{emit, parse_jsonl, Event, Recorder, RingRecorder, RunReport, TraceLevel};
//!
//! // Instrumented code emits through a recorder…
//! let ring = RingRecorder::new(TraceLevel::Summary, 64);
//! emit(&ring, TraceLevel::Summary, || Event::RunCompleted {
//!     finisher: "spot:g0".to_string(),
//!     total_cost: 21.0,
//!     spot_cost: 21.0,
//!     od_cost: 0.0,
//!     wall_hours: 80.0,
//!     met_deadline: true,
//!     groups_failed: 0,
//!     windows: None,
//!     plan_changes: None,
//! });
//!
//! // …events serialize one-per-line (the JSONL wire format)…
//! let jsonl: String = ring
//!     .events()
//!     .iter()
//!     .map(|e| serde_json::to_string(e).unwrap() + "\n")
//!     .collect();
//!
//! // …and parse back into a renderable report.
//! let report = RunReport::from_events(&parse_jsonl(&jsonl).unwrap());
//! assert!(report.render().contains("finished by spot:g0"));
//! ```

#![forbid(unsafe_code)]

mod event;
mod jsonl;
mod metrics;
mod recorder;
mod summary;

pub use event::{Event, TraceLevel};
pub use jsonl::{parse_jsonl, JsonlRecorder};
pub use metrics::{prune_rate, rate_per_sec, Counter, PhaseTimer};
pub use recorder::{emit, NullRecorder, Recorder, RingRecorder};
pub use summary::RunReport;
