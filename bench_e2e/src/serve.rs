//! `serve`: the planner daemon, closed loop, two client threads.
//!
//! An in-process `Server` (2 workers, queue 64, cache 128) on an ephemeral
//! loopback port answers a seeded mix: 60% plans from a hot set of 16 keys
//! (fewer keys than cache entries, so mostly hits), 30% distinct cold plans
//! (misses plus FIFO eviction) and 10% fixed-plan replays of 2,000
//! replicas. Serialization, queueing, the single-flight cache and the
//! per-request cache key dominate, which no other workload exercises.

use crate::layers::{self, EventTally, Layers};
use crate::market;
use crate::span::Tracer;
use crate::stats::{self, Fnv};
use crate::{Round, Traced};
use ec2_market::market::SpotMarket;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sompi_obs::{Event, NullRecorder, Recorder, RingRecorder, TraceLevel};
use sompi_server::client;
use sompi_server::proto;
use sompi_server::service;
use sompi_server::{
    ReplayRequest, Request, Response, ServeStats, Server, ServerConfig, ServerHandle,
};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Sizes {
    pub market_hours: f64,
    pub requests: usize,
    pub hot_keys: usize,
    pub replay_replicas: u32,
    pub clients: usize,
}

pub const FULL: Sizes = Sizes {
    market_hours: market::STRESS_HOURS,
    requests: 2000,
    hot_keys: 16,
    replay_replicas: 2000,
    clients: 2,
};

pub const SMOKE: Sizes = Sizes {
    market_hours: 150.0,
    requests: 20,
    hot_keys: 4,
    replay_replicas: 20,
    clients: 2,
};

/// Check every n-th plan answer (every n-th replay answer for replays)
/// against an in-process `service` call.
const PLAN_CHECK_EVERY: usize = 50;
const REPLAY_CHECK_EVERY: usize = 25;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 64,
        cache_capacity: 128,
        ..Default::default()
    }
}

/// The request mix, in seeded order. Plan and replay cost differ by orders
/// of magnitude across the design (κ, bid levels, job length), so each
/// part of the mix takes evenly spaced points of the design in its fixed
/// order: every seed asks for the same mix, and the seed changes only the
/// market, the view starts, the replica offsets and the order.
pub fn requests(seed: u64, sizes: &Sizes) -> Vec<Request> {
    let points = crate::plan::design_points(stats::sub_seed(seed, 5, 0), sizes.market_hours);
    let evenly = |n: usize, len: usize| (0..n).map(move |i| i * len / n);
    let n_hot = sizes.requests * 60 / 100;
    let n_cold = sizes.requests * 30 / 100;
    let n_replay = sizes.requests - n_hot - n_cold;
    let hot: Vec<usize> = evenly(sizes.hot_keys, points.len()).collect();
    let cold: Vec<usize> = (0..points.len()).filter(|i| !hot.contains(i)).collect();
    let mut out: Vec<Request> = Vec::with_capacity(sizes.requests);
    out.extend((0..n_hot).map(|i| Request::Plan(points[hot[i % hot.len()]].clone())));
    out.extend(evenly(n_cold, cold.len()).map(|i| Request::Plan(points[cold[i]].clone())));
    out.extend(evenly(n_replay, points.len()).enumerate().map(|(i, p)| {
        Request::Replay(ReplayRequest {
            plan: points[p].clone(),
            replicas: sizes.replay_replicas,
            mc_seed: stats::sub_seed(seed, 6, i as u64),
            ..Default::default()
        })
    }));
    let mut rng = StdRng::seed_from_u64(stats::sub_seed(seed, 7, 0));
    stats::shuffle(&mut out, &mut rng);
    out
}

/// Stops the server when dropped, so a panicking client cannot leave the
/// accept loop (and the scope waiting on it) running.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Run `server` on a scoped thread while `body` drives it, then stop and
/// join it.
fn with_server<T>(server: &Server, body: impl FnOnce(&str) -> T) -> (T, ServeStats) {
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve());
        let stop = StopOnDrop(server.handle());
        let out = body(&addr);
        drop(stop);
        let stats = serving
            .join()
            .expect("server thread panicked")
            .expect("serve loop failed");
        (out, stats)
    })
}

type Answer = (f64, io::Result<Response>);

/// Closed loop: client `c` sends requests `c, c + clients, …` one at a
/// time through `client::call`.
fn drive(addr: &str, reqs: &[Request], clients: usize) -> Vec<Answer> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    (c..reqs.len())
                        .step_by(clients)
                        .map(|i| {
                            let t = Instant::now();
                            let r = client::call(addr, &reqs[i]);
                            (i, (t.elapsed().as_secs_f64() * 1e3, r))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answers: Vec<Option<Answer>> = (0..reqs.len()).map(|_| None).collect();
        for h in handles {
            for (i, a) in h.join().expect("client thread panicked") {
                answers[i] = Some(a);
            }
        }
        answers
            .into_iter()
            .map(|a| a.expect("every request is sent once"))
            .collect()
    })
}

/// Untimed checks and digests over a round's answers. Returns (failed,
/// outputs digest, replay normalized costs, replay deadline rates).
fn verify(
    market: &SpotMarket,
    reqs: &[Request],
    answers: &[io::Result<Response>],
) -> (u64, u64, Vec<f64>, Vec<f64>) {
    let mut failed = 0u64;
    let mut out = Fnv::new();
    let (mut costs, mut met) = (Vec::new(), Vec::new());
    let (mut plans, mut replays) = (0usize, 0usize);
    for (req, answer) in reqs.iter().zip(answers) {
        match (req, answer) {
            (Request::Plan(pr), Ok(Response::Plan { report, .. })) => {
                out.write_json(report);
                plans += 1;
                if plans % PLAN_CHECK_EVERY == 0
                    && service::plan(market, pr, &NullRecorder, None).as_ref() != Ok(report)
                {
                    failed += 1;
                }
            }
            (Request::Replay(rr), Ok(Response::Replay { report, .. })) => {
                out.write_json(report);
                replays += 1;
                let sane = report.normalized_cost.is_finite()
                    && report.normalized_cost > 0.0
                    && (0.0..=1.0).contains(&report.deadline_rate);
                let same = replays % REPLAY_CHECK_EVERY != 0
                    || service::replay(market, rr, &NullRecorder).as_ref() == Ok(report);
                if !(sane && same) {
                    failed += 1;
                }
                costs.push(report.normalized_cost);
                met.push(report.deadline_rate);
            }
            (_, other) => {
                out.write(format!("{other:?}").as_bytes());
                failed += 1;
            }
        }
    }
    (failed, out.finish(), costs, met)
}

pub fn round(seed: u64, sizes: &Sizes) -> Round {
    let t = Instant::now();
    let built = market::build_stress(seed, sizes.market_hours);
    let m = Arc::new(built.market);
    let server = Server::bind(Arc::clone(&m), Arc::new(NullRecorder), config())
        .expect("bind a loopback port");
    let setup_s = t.elapsed().as_secs_f64();
    let reqs = requests(seed, sizes);

    let ((answers, wall_s), _stats) = with_server(&server, |addr| {
        let t = Instant::now();
        let answers = drive(addr, &reqs, sizes.clients);
        (answers, t.elapsed().as_secs_f64())
    });
    let (op_ms, answers): (Vec<f64>, Vec<_>) = answers.into_iter().unzip();
    let (failed, outputs_digest, costs, met) = verify(&m, &reqs, &answers);
    let mut inputs = Fnv::new();
    market::digest_into(&mut inputs, &m);
    Round {
        setup_s,
        work: reqs.len() as f64,
        op_ms,
        wall_s,
        norm_cost: stats::mean(&costs),
        met_rate: stats::mean(&met),
        attempted: reqs.len() as u64,
        failed,
        inputs_digest: inputs.finish(),
        outputs_digest,
    }
}

/// One exchange as `client::call` performs it (connect, write one frame,
/// read one frame), with the JSON encode and decode timed apart from the
/// transport. Returns the response, the exchange span and both frame sizes.
fn exchange(
    addr: &str,
    req: &Request,
    tracer: &mut Tracer,
) -> io::Result<(Response, usize, usize, usize)> {
    let body = tracer.time("proto.encode", || {
        serde_json::to_string(req).expect("requests are serializable")
    });
    // Transport and server time; the server reports its queue and
    // service time, the rest (handshake and wake-ups) is unattributed.
    let ex = tracer.open_mixed("client.exchange");
    let frame = tracer
        .time("client.connect", || TcpStream::connect(addr))
        .and_then(|mut stream| {
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            tracer.time("proto.write_frame", || {
                proto::write_frame(&mut stream, body.as_bytes())
            })?;
            proto::read_frame(&mut stream)
        });
    tracer.close(ex);
    let frame = frame?;
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let resp = tracer.time("proto.decode", || {
        std::str::from_utf8(&frame)
            .map_err(|e| invalid(e.to_string()))
            .and_then(|text| {
                serde_json::from_str::<Response>(text).map_err(|e| invalid(e.to_string()))
            })
    })?;
    Ok((resp, ex, body.len(), frame.len()))
}

fn response_id(resp: &Response) -> Option<u64> {
    match resp {
        Response::Plan { id, .. }
        | Response::Replay { id, .. }
        | Response::Overloaded { id, .. }
        | Response::Error { id, .. } => Some(*id),
        Response::Pong { .. } => None,
    }
}

/// One traced round: a single client thread, every exchange recomposed under spans; the server's `RequestCompleted` events
/// give its queue and service time per request. Then the same exchanges
/// untraced against a fresh server, for the tracing overhead.
pub fn traced(seed: u64, sizes: &Sizes) -> Traced {
    let built = market::build_stress(seed, sizes.market_hours);
    let mut out = Layers::new();
    layers::market_setup(&mut out, &built);
    let m = Arc::new(built.market);
    let reqs = requests(seed, sizes);

    let ring = Arc::new(RingRecorder::new(TraceLevel::Summary, 1 << 20));
    let recorder: Arc<dyn Recorder + Send + Sync> = ring.clone();
    let server = Server::bind(Arc::clone(&m), recorder, config()).expect("bind a loopback port");
    let mut tracer = Tracer::new();
    let (exchanges, stats) = with_server(&server, |addr| {
        reqs.iter()
            .enumerate()
            .map(|(i, req)| {
                let op = tracer.begin_op("serve.op", i as u64);
                let r = exchange(addr, req, &mut tracer);
                tracer.close(op);
                r
            })
            .collect::<Vec<_>>()
    });

    // Server-reported time per request, placed inside the exchange that
    // carried it.
    let mut span_of: HashMap<u64, usize> = HashMap::new();
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    let mut answers = Vec::with_capacity(exchanges.len());
    for r in exchanges {
        answers.push(r.map(|(resp, ex, sent, got)| {
            if let Some(id) = response_id(&resp) {
                span_of.insert(id, ex);
            }
            req_bytes += sent;
            resp_bytes += got;
            resp
        }));
    }
    let mut tally = EventTally::default();
    let mut by_outcome: HashMap<String, (f64, f64, f64)> = HashMap::new();
    for event in ring.take() {
        if let Event::RequestCompleted {
            id,
            cache,
            queue_secs,
            service_secs,
            ..
        } = &event
        {
            if let Some(&ex) = span_of.get(id) {
                tracer.add_reported(ex, "server.queue", *queue_secs);
                tracer.add_reported(ex, "server.service", *service_secs);
            }
            let e = by_outcome.entry(cache.clone()).or_default();
            e.0 += 1.0;
            e.1 += queue_secs * 1e3;
            e.2 += service_secs * 1e3;
        }
        tally.add(&event);
    }
    let (failed, _, costs, met) = verify(&m, &reqs, &answers);

    // The worker computes a plan request's cache key (which builds the
    // request's market view) before queue time ends; time the same calls
    // here.
    let plans: Vec<_> = reqs
        .iter()
        .filter_map(|r| match r {
            Request::Plan(p) => Some(p),
            _ => None,
        })
        .collect();
    let t = Instant::now();
    for p in &plans {
        std::hint::black_box(service::plan_request_key(&m, p));
    }
    let key_ms = t.elapsed().as_secs_f64() * 1e3 / plans.len().max(1) as f64;
    let t = Instant::now();
    for p in &plans {
        std::hint::black_box(service::view_for(&m, p));
    }
    let view_ms = t.elapsed().as_secs_f64() * 1e3 / plans.len().max(1) as f64;

    let quiet = Server::bind(Arc::clone(&m), Arc::new(NullRecorder), config())
        .expect("bind a loopback port");
    let (untraced_ns, _) = with_server(&quiet, |addr| {
        crate::untraced_ns(&reqs, |req, tracer, _, _| exchange(addr, req, tracer))
    });

    let n = reqs.len().max(1) as f64;
    tally.apply(&mut out);
    layers::quality(&mut out, &costs, &met);
    out.set("twolevel.assess_ms", tally.assess_secs * 1e3 / n);
    out.set("twolevel.search_ms", tally.search_secs * 1e3 / n);
    for (label, queue, service) in [
        ("hit", "server.queue_ms.hit", "server.service_ms.hit"),
        ("miss", "server.queue_ms.miss", "server.service_ms.miss"),
        ("none", "server.queue_ms.none", "server.service_ms.none"),
    ] {
        if let Some(&(count, q, s)) = by_outcome.get(label) {
            out.set(queue, q / count);
            out.set(service, s / count);
        }
    }
    let cache = server.cache();
    let (hits, misses, coalesced) = (
        cache.hits() as f64,
        cache.misses() as f64,
        cache.coalesced() as f64,
    );
    out.set("cache.hits", hits);
    out.set("cache.misses", misses);
    out.set("cache.coalesced", coalesced);
    out.set(
        "cache.hit_ratio",
        layers::ratio(hits, hits + misses + coalesced),
    );
    out.set("server.shed", stats.shed as f64);
    out.set("server.key_ms", key_ms);
    out.set("view.build_ms", view_ms);
    out.set(
        "view.builds",
        plans.len() as f64 + misses + (reqs.len() - plans.len()) as f64,
    );
    out.set("proto.request_bytes", req_bytes as f64 / n);
    out.set("proto.response_bytes", resp_bytes as f64 / n);
    Traced {
        spans: tracer.spans().to_vec(),
        ops: reqs.len() as u64,
        untraced_ns,
        layers: out,
        attempted: reqs.len() as u64,
        failed,
    }
}
