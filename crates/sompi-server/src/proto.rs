//! Wire protocol for the planner service.
//!
//! Transport framing is deliberately minimal: every message — in either
//! direction — is one *frame*, a 4-byte big-endian `u32` byte length
//! followed by exactly that many bytes of UTF-8 JSON. The JSON payload
//! is a [`Request`] (client → server) or a [`Response`] (server →
//! client), serialized with serde's external enum tagging, i.e.
//! `{"Plan": {...}}`. One connection carries one request and one
//! response; clients reconnect per call.
//!
//! Schema evolution follows the trace-format convention documented in
//! `docs/OBSERVABILITY.md`: new *fields* are appended with
//! `#[serde(default)]` so older clients keep working, new *message
//! kinds* are new enum variants, and any change that would break an
//! existing reader bumps [`PROTOCOL_VERSION`]. `Ping`/`Pong` exposes
//! the version so clients can check before doing real work.
//!
//! See `docs/SERVER.md` for the full message reference with examples.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Version of the wire protocol spoken by this build. Returned in
/// [`Response::Pong`]; bumped only on incompatible changes (renamed or
/// re-typed fields, removed variants). Additive changes keep it.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame's payload, in bytes. Plans and
/// Monte-Carlo reports are a few KiB; anything near this limit indicates a
/// corrupt or malicious length prefix and the connection is dropped.
pub const MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed frame. Fails with `InvalidData` on an
/// oversized length prefix and `UnexpectedEof` on a truncated stream.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Serialize a message and write it as one frame.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(w, body.as_bytes())
}

/// Read one frame and deserialize it.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> io::Result<T> {
    let body = read_frame(r)?;
    let text = std::str::from_utf8(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn d_tenant() -> String {
    "anon".into()
}
fn d_app() -> String {
    "BT".into()
}
fn d_class() -> String {
    "B".into()
}
fn d_procs() -> u32 {
    128
}
fn d_repeats() -> u32 {
    200
}
fn d_deadline() -> f64 {
    1.5
}
fn d_strategy() -> String {
    "sompi".into()
}
fn d_kappa() -> u32 {
    4
}
fn d_levels() -> u32 {
    12
}
fn d_slack() -> f64 {
    0.2
}
fn d_true() -> bool {
    true
}
fn d_history() -> f64 {
    48.0
}
fn d_replicas() -> u32 {
    100
}
fn d_mc_seed() -> u64 {
    1
}
fn d_window() -> f64 {
    15.0
}
fn d_fault_seed() -> u64 {
    42
}

/// One tenant's planning request. Every field has a serde default, so
/// the minimal request is `{"Plan": {}}`; defaults mirror the CLI flag
/// defaults so `sompi plan` and a default request produce the same
/// plan. The `tenant` label is for observability and fairness
/// accounting only — it is deliberately *excluded* from the plan-cache
/// key so identical problems from different tenants share one search.
///
/// A frame that still carries a retired search switch
/// (`shared_incumbent`, `prune_dominance`, `prune_bound`) decodes, and the
/// field is dropped: every search prunes, and pruning never changes the
/// plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Tenant label, echoed into trace events.
    #[serde(default = "d_tenant")]
    pub tenant: String,
    /// Application: an NPB kernel name (`BT`, `FT`, …) or `LAMMPS`.
    #[serde(default = "d_app")]
    pub app: String,
    /// NPB problem class (`S`/`W`/`A`/`B`/`C`); ignored for LAMMPS.
    #[serde(default = "d_class")]
    pub class: String,
    /// MPI process count.
    #[serde(default = "d_procs")]
    pub procs: u32,
    /// Back-to-back kernel repetitions (sets total work).
    #[serde(default = "d_repeats")]
    pub repeats: u32,
    /// Deadline as a multiple of Baseline Time.
    #[serde(default = "d_deadline")]
    pub deadline_factor: f64,
    /// Planning strategy (`sompi`, `on-demand`, `marathe`,
    /// `marathe-opt`, `spot-inf`, `spot-avg`).
    #[serde(default = "d_strategy")]
    pub strategy: String,
    /// Replication degree cap κ for the two-level search.
    #[serde(default = "d_kappa")]
    pub kappa: u32,
    /// Bid grid resolution per group.
    #[serde(default = "d_levels")]
    pub bid_levels: u32,
    /// Deadline slack reserved for the on-demand fallback.
    #[serde(default = "d_slack")]
    pub slack: f64,
    /// Accepted and ignored: every plan search runs on the thread that
    /// serves the request. The plan cache key clears it.
    #[serde(default)]
    pub threads: u32,
    /// Hours of price history visible to the planner.
    #[serde(default = "d_history")]
    pub history_hours: f64,
    /// Start of the market view window (hours into the trace).
    #[serde(default)]
    pub view_start_hours: f64,
}

impl Default for PlanRequest {
    fn default() -> Self {
        Self {
            tenant: d_tenant(),
            app: d_app(),
            class: d_class(),
            procs: d_procs(),
            repeats: d_repeats(),
            deadline_factor: d_deadline(),
            strategy: d_strategy(),
            kappa: d_kappa(),
            bid_levels: d_levels(),
            slack: d_slack(),
            threads: 0,
            history_hours: d_history(),
            view_start_hours: 0.0,
        }
    }
}

/// A Monte-Carlo replay request: plan with [`PlanRequest`] parameters,
/// then replay the plan over the server's market. `adaptive` switches
/// to the windowed Algorithm-1 runner (re-plan every `window_hours`).
///
/// A frame that still carries the retired `batch_replay` switch decodes,
/// and the field is dropped: fixed-plan replays always run against
/// death-time tables, which give the same bits as trace queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayRequest {
    /// The planning half of the request.
    #[serde(default)]
    pub plan: PlanRequest,
    /// Monte-Carlo replica count.
    #[serde(default = "d_replicas")]
    pub replicas: u32,
    /// Monte-Carlo seed (replica start offsets).
    #[serde(default = "d_mc_seed")]
    pub mc_seed: u64,
    /// Use the adaptive windowed runner instead of a fixed plan.
    #[serde(default)]
    pub adaptive: bool,
    /// Re-planning period T_m in hours (adaptive only).
    #[serde(default = "d_window")]
    pub window_hours: f64,
    /// Accepted and ignored: every adaptive window re-plans cold. Echoed
    /// in the adaptive [`ReplayReport`](crate::service::ReplayReport).
    #[serde(default = "d_true")]
    pub warmstart: bool,
    /// Accepted and ignored, like `warmstart`.
    #[serde(default = "d_true")]
    pub bucket_reuse: bool,
    /// Optional fault-injection spec (same grammar as `--faults`).
    #[serde(default)]
    pub faults: Option<String>,
    /// Fault-injection seed.
    #[serde(default = "d_fault_seed")]
    pub fault_seed: u64,
}

impl Default for ReplayRequest {
    fn default() -> Self {
        Self {
            plan: PlanRequest::default(),
            replicas: d_replicas(),
            mc_seed: d_mc_seed(),
            adaptive: false,
            window_hours: d_window(),
            warmstart: true,
            bucket_reuse: true,
            faults: None,
            fault_seed: d_fault_seed(),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Optimize one plan (cacheable across tenants).
    Plan(PlanRequest),
    /// Plan and Monte-Carlo replay (never cached: replay output depends
    /// on replica seeds and fault plans, not just the market view).
    Replay(ReplayRequest),
}

/// Machine-readable error categories carried by [`Response::Error`].
/// `bad-request` — the frame was not a valid `Request`;
/// `invalid-argument` — a request field failed validation;
/// `plan-failed` — the optimizer or replay engine reported a domain
/// error; `internal` — anything else.
pub mod errkind {
    pub const BAD_REQUEST: &str = "bad-request";
    pub const INVALID_ARGUMENT: &str = "invalid-argument";
    pub const PLAN_FAILED: &str = "plan-failed";
    pub const INTERNAL: &str = "internal";
}

/// Server → client messages. `id` is the server-assigned request id,
/// matching the `RequestReceived`/`RequestCompleted` trace events for
/// that request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Answer to [`Request::Plan`]. `cache` is `"miss"`, `"hit"` or
    /// `"coalesced"` — see `docs/SERVER.md` for the exact semantics.
    Plan {
        id: u64,
        cache: String,
        report: crate::service::PlanReport,
    },
    /// Answer to [`Request::Replay`].
    Replay {
        id: u64,
        report: crate::service::ReplayReport,
    },
    /// Load-shed rejection: the admission queue was full when the
    /// connection arrived. The request body was discarded unparsed;
    /// retry with backoff. `queue_depth` is the depth observed at
    /// rejection time.
    Overloaded {
        id: u64,
        queue_depth: u32,
        capacity: u32,
    },
    /// Request-level failure; `kind` is one of the [`errkind`] strings.
    Error {
        id: u64,
        kind: String,
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Ping,
            Request::Plan(PlanRequest {
                tenant: "team-a".into(),
                kappa: 2,
                ..Default::default()
            }),
            Request::Replay(ReplayRequest {
                replicas: 8,
                faults: Some("storm=0.02x0.5".into()),
                ..Default::default()
            }),
        ];
        for req in reqs {
            let text = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn minimal_plan_request_uses_cli_defaults() {
        let req: Request = serde_json::from_str(r#"{"Plan": {}}"#).unwrap();
        let Request::Plan(p) = req else {
            panic!("expected Plan")
        };
        assert_eq!(p, PlanRequest::default());
        assert_eq!(p.app, "BT");
        assert_eq!(p.kappa, 4);
        assert!((p.deadline_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn error_responses_round_trip() {
        let resp = Response::Error {
            id: 7,
            kind: errkind::INVALID_ARGUMENT.into(),
            message: "procs must be positive".into(),
        };
        let text = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&text).unwrap(), resp);
        let shed = Response::Overloaded {
            id: 9,
            queue_depth: 4,
            capacity: 4,
        };
        let text = serde_json::to_string(&shed).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&text).unwrap(), shed);
    }
}
