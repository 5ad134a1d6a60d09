//! The `serve` and `client` subcommands: run the planner daemon, and a
//! smoke-test client for driving it.
//!
//! `sompi serve` owns the market (synthetic or `--feed`), the trace
//! sink and the server lifecycle; `sompi client` builds one wire
//! request from the same flags `plan`/`replay` use and prints the
//! response — or, with `--burst N`, fires N identical requests from N
//! threads at once to exercise the cache and the load-shedding path.

use crate::args::Args;
use crate::build::{market_from, CliError};
use crate::commands::{
    finish_trace, plan_request_from, replay_request_from, trace_sink_from, PLAN_FLAGS,
};
use sompi_obs::{NullRecorder, Recorder};
use sompi_server::client;
use sompi_server::proto::{Request, Response};
use sompi_server::{Server, ServerConfig, PROTOCOL_VERSION};
use std::io::Write;
use std::sync::Arc;

/// `sompi serve` — run the planner daemon until `--max-requests` is
/// reached (or forever). Market flags choose what the server plans
/// against; the remaining flags size the worker pool, admission queue
/// and cross-tenant plan cache.
pub fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    args.check_known(&[
        "feed",
        "seed",
        "hours",
        "step",
        "addr",
        "workers",
        "queue-cap",
        "cache-cap",
        "pause-ms",
        "max-requests",
        "trace-out",
        "trace-level",
    ])?;
    let market = Arc::new(market_from(args)?);
    let sink = trace_sink_from(args)?.map(Arc::new);
    let recorder: Arc<dyn Recorder + Send + Sync> = match &sink {
        Some(s) => Arc::clone(s) as Arc<dyn Recorder + Send + Sync>,
        None => Arc::new(NullRecorder),
    };
    let max_requests = match args.get("max-requests") {
        None => None,
        Some(_) => Some(args.u64_or("max-requests", 0)?),
    };
    let config = ServerConfig {
        addr: args.str_or("addr", "127.0.0.1:7077"),
        workers: args.u64_or("workers", 2)? as usize,
        queue_cap: args.u64_or("queue-cap", 32)? as usize,
        cache_capacity: args.u64_or("cache-cap", 128)? as usize,
        pause_ms: args.u64_or("pause-ms", 0)?,
        max_requests,
    };
    let server = Server::bind(market, recorder, config.clone())
        .map_err(|e| CliError::Other(format!("cannot bind {}: {e}", config.addr)))?;
    writeln!(
        out,
        "sompi-server listening on {} (protocol v{PROTOCOL_VERSION}, {} worker(s), queue {}, cache {})",
        server.local_addr(),
        config.workers.max(1),
        config.queue_cap.max(1),
        config.cache_capacity.max(1),
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    out.flush().map_err(|e| CliError::Other(e.to_string()))?;

    let stats = server
        .serve()
        .map_err(|e| CliError::Other(format!("serve: {e}")))?;
    let cache = server.cache();
    writeln!(
        out,
        "served {} connection(s): {} shed; plan cache: {} hit(s), {} coalesced, {} miss(es)",
        stats.accepted,
        stats.shed,
        cache.hits(),
        cache.coalesced(),
        cache.misses()
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    if let Some(s) = &sink {
        finish_trace(s, args.get("trace-out").unwrap_or(""))?;
    }
    Ok(())
}

/// `sompi client` — send one request (or a `--burst` of identical
/// ones) to a running server and print the response(s).
pub fn cmd_client(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut flags: Vec<&str> = PLAN_FLAGS
        .iter()
        .copied()
        // Market flags are the server's business, not the client's.
        .filter(|f| !matches!(*f, "feed" | "seed" | "hours" | "step"))
        .filter(|f| !matches!(*f, "trace-out" | "trace-level"))
        .collect();
    flags.extend([
        "addr",
        "tenant",
        "burst",
        "ping",
        "replay",
        "replicas",
        "mc-seed",
        "adaptive",
        "window",
        "faults",
        "fault-seed",
    ]);
    args.check_known(&flags)?;
    let addr = args.str_or("addr", "127.0.0.1:7077");
    let request = if args.flag("ping") {
        Request::Ping
    } else if args.flag("replay") {
        Request::Replay(replay_request_from(args, 100)?)
    } else {
        Request::Plan(plan_request_from(args)?)
    };
    let burst = args.u64_or("burst", 1)?.max(1) as usize;
    let json = args.flag("json");

    if burst == 1 {
        let response =
            client::call(&addr, &request).map_err(|e| CliError::Other(format!("{addr}: {e}")))?;
        return render(out, &response, json).map_err(|e| CliError::Other(e.to_string()));
    }
    for (i, result) in client::burst(&addr, &request, burst)
        .into_iter()
        .enumerate()
    {
        write!(out, "[{i}] ").map_err(|e| CliError::Other(e.to_string()))?;
        match result {
            Ok(response) => {
                render(out, &response, json).map_err(|e| CliError::Other(e.to_string()))?
            }
            Err(e) => {
                writeln!(out, "transport error: {e}").map_err(|e| CliError::Other(e.to_string()))?
            }
        }
    }
    Ok(())
}

/// One response, one line (or a pretty JSON document with `--json`).
/// Typed errors from the server render as lines, not process failures,
/// so a burst with a few shed responses still exits 0.
fn render(out: &mut dyn Write, response: &Response, json: bool) -> std::io::Result<()> {
    if json {
        return writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(response).expect("serializable")
        );
    }
    match response {
        Response::Pong { version } => writeln!(out, "pong: protocol v{version}"),
        Response::Plan { id, cache, report } => writeln!(
            out,
            "plan[{id}] cache={cache}: {} via {} E[cost] ${:.2} E[time] {:.2} h",
            report.app, report.strategy, report.expected_cost, report.expected_time
        ),
        Response::Replay { id, report } => writeln!(
            out,
            "replay[{id}]: {} via {} mean ${:.2} = {:.3} x baseline, met {:.0}%",
            report.app,
            report.strategy,
            report.cost.mean,
            report.normalized_cost,
            report.deadline_rate * 100.0
        ),
        Response::Overloaded {
            id,
            queue_depth,
            capacity,
        } => writeln!(
            out,
            "overloaded[{id}]: queue {queue_depth}/{capacity}, retry with backoff"
        ),
        Response::Error { id, kind, message } => {
            writeln!(out, "error[{id}] ({kind}): {message}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    /// A `Write` sink shareable with the thread running `cmd_serve`.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    /// Reserve an ephemeral loopback port. There is a small window
    /// between dropping the listener and the server re-binding, but
    /// loopback ports are not reused that eagerly in practice.
    fn free_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut buf = Vec::new();
        let err = cmd_serve(&args(&["--nope", "1"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
        let err = cmd_client(&args(&["--hours", "100"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn client_reports_unreachable_server() {
        let mut buf = Vec::new();
        let err = cmd_client(&args(&["--addr", "127.0.0.1:1", "--ping"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
    }

    #[test]
    fn serve_and_client_round_trip_with_cache_accounting() {
        let addr = free_addr();
        let serve_out = SharedBuf::default();
        let server = {
            let addr = addr.clone();
            let mut out = serve_out.clone();
            std::thread::spawn(move || {
                cmd_serve(
                    &args(&[
                        "--addr",
                        &addr,
                        "--hours",
                        "100",
                        "--workers",
                        "1",
                        "--max-requests",
                        "3",
                    ]),
                    &mut out,
                )
            })
        };

        // Wait for the listener, burning the first accepted connection
        // on a ping.
        let ping = args(&["--addr", &addr, "--ping"]);
        let mut buf = Vec::new();
        for attempt in 0.. {
            match cmd_client(&ping, &mut buf) {
                Ok(()) => break,
                Err(_) if attempt < 100 => std::thread::sleep(std::time::Duration::from_millis(20)),
                Err(e) => panic!("server never came up: {e}"),
            }
        }
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("pong: protocol v1"));

        // Identical plans: the first misses, the second hits the cache.
        let plan = args(&[
            "--addr",
            &addr,
            "--repeats",
            "50",
            "--kappa",
            "1",
            "--levels",
            "2",
        ]);
        let mut first = Vec::new();
        cmd_client(&plan, &mut first).unwrap();
        let mut second = Vec::new();
        cmd_client(&plan, &mut second).unwrap();
        let (first, second) = (
            String::from_utf8(first).unwrap(),
            String::from_utf8(second).unwrap(),
        );
        assert!(first.contains("cache=miss"), "{first}");
        assert!(second.contains("cache=hit"), "{second}");

        // --max-requests 3 exits the server cleanly after the burst.
        server.join().unwrap().unwrap();
        let text = serve_out.text();
        assert!(text.contains("listening on"), "{text}");
        assert!(
            text.contains(
                "served 3 connection(s): 0 shed; plan cache: 1 hit(s), 0 coalesced, 1 miss(es)"
            ),
            "{text}"
        );
    }
}
