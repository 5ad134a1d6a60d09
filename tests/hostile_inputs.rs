//! Hostile inputs: every parser a user or a client reaches returns `Ok`
//! or `Err` for any input, never a panic, an abort or an unbounded
//! allocation.
//!
//! - A seeded generator mutates valid fault specs, feed lines and
//!   request frames (byte flips, inserted tokens, cut and repeated
//!   spans, deep nesting) and adds raw random bytes, then feeds each to
//!   `FaultPlan::parse`, `feed::parse_feed` and `proto::read_message`.
//! - A frame nested far deeper than the JSON parser allows gets a
//!   `bad-request` answer from a live server, which goes on serving.
//! - A tenant escaped as a UTF-16 surrogate pair decodes to its char.

use ec2_market::fault::{FaultInjector, FaultPlan, MAX_STORM_RATE_PER_HOUR};
use ec2_market::feed::parse_feed;
use ec2_market::instance::InstanceCatalog;
use ec2_market::market::SpotMarket;
use ec2_market::tracegen::{MarketProfile, TraceGenerator};
use sompi_obs::NullRecorder;
use sompi_server::proto::{self, PlanRequest, Request, Response};
use sompi_server::{client, service, Server, ServerConfig, PROTOCOL_VERSION};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// SplitMix64: the seeded stream every generated input comes from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, `n > 0`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Tokens that steer a mutation into the parsers' edge cases.
const TOKENS: &[&str] = &[
    "inf",
    "-inf",
    "NaN",
    "nan",
    "1e308",
    "1e5",
    "-0",
    "-1",
    "0",
    "x",
    ":",
    ",",
    "=",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "{",
    "}",
    "[",
    "]",
    "null",
    "true",
    "1e-320",
    "$",
    "#",
    "\n",
    "\t",
    "é",
    "🚀",
    "\u{0}",
    "99999999999999999999",
];

/// One mutation of `seed`: flips, insertions, cuts, repeats, nesting.
fn mutate(rng: &mut Rng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(6) {
            0 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes[i] = rng.next() as u8;
            }
            1 => {
                let token = rng.pick(TOKENS).as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
            2 => {
                let end = (at + rng.below(16)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let end = (at + rng.below(32)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                for _ in 0..rng.below(8) {
                    bytes.splice(at..at, span.iter().copied());
                }
            }
            4 => {
                let depth = 1 + rng.below(400);
                let open = if rng.below(2) == 0 { "[" } else { "{\"a\":" };
                bytes.splice(at..at, open.repeat(depth).bytes());
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Raw random bytes, read as UTF-8 where they are valid.
fn noise(rng: &mut Rng) -> String {
    let bytes: Vec<u8> = (0..rng.below(96)).map(|_| rng.next() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `f` on `input`, failing with the input when it panics.
fn no_panic<T>(what: &str, input: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{what} panicked on input {input:?}"))
}

#[test]
fn garbage_never_panics() {
    let fault_specs = [
        "storm=0.05x0.8,ckpt-fail=0.3,ckpt-latency=0.2:0.5",
        "restore-corrupt=0.25,feed-gap=0.1",
        "storm=2.0x1.0",
    ];
    let feeds = [
        "0 m1.small us-east-1a 0.0071\n300 m1.small us-east-1a $0.0075\n",
        "# comment\n1.5e3,c3.xlarge,us-east-1b,0.09\n\n3600,c3.xlarge,us-east-1b,0.1",
    ];
    let requests: Vec<String> = [
        Request::Ping,
        Request::Plan(Default::default()),
        Request::Replay(Default::default()),
    ]
    .iter()
    .map(|r| serde_json::to_string(r).expect("requests serialize"))
    .chain([r#"{"Replay":{"faults":"storm=0.1","plan":{"tenant":"té"}}}"#.to_string()])
    .collect();

    let mut rng = Rng(0x5eed_6a7b);
    let (mut parsed, mut rejected) = (0u32, 0u32);
    for round in 0..3000 {
        let spec = if round % 5 == 0 {
            noise(&mut rng)
        } else {
            let seed = *rng.pick(&fault_specs);
            mutate(&mut rng, seed)
        };
        let plan = no_panic("FaultPlan::parse", &spec, || FaultPlan::parse(&spec, 7));
        if let Ok(plan) = plan {
            // An accepted spec builds a bounded injector over a long
            // market: about the maximum rate's 100,000 storms at most.
            let storms = no_panic("FaultInjector::new", &spec, || {
                FaultInjector::new(plan, 10_000.0).storms().len()
            });
            let bound = 1.2 * MAX_STORM_RATE_PER_HOUR * 10_000.0;
            assert!(storms as f64 <= bound, "{spec:?}: {storms}");
        }

        let feed = if round % 5 == 1 {
            noise(&mut rng)
        } else {
            let seed = *rng.pick(&feeds);
            mutate(&mut rng, seed)
        };
        match no_panic("parse_feed", &feed, || parse_feed(&feed)) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }

        let body = if round % 5 == 2 {
            noise(&mut rng)
        } else {
            let seed = rng.pick(&requests).clone();
            mutate(&mut rng, &seed)
        };
        let mut frame = Vec::with_capacity(body.len() + 4);
        // Mostly the true length; sometimes a lie in either direction.
        let len = match rng.below(8) {
            0 => rng.below(body.len() + 64) as u32,
            _ => body.len() as u32,
        };
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        match no_panic("read_message", &body, || {
            proto::read_message::<Request>(&mut &frame[..])
        }) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    // The generator reaches both outcomes.
    assert!(
        parsed > 100 && rejected > 100,
        "{parsed} parsed, {rejected} rejected"
    );
}

fn market() -> SpotMarket {
    let catalog = InstanceCatalog::paper_2014();
    let profile = MarketProfile::paper_2014(&catalog);
    SpotMarket::generate(
        catalog,
        &TraceGenerator::new(profile, 42),
        100.0,
        1.0 / 12.0,
    )
}

#[test]
fn deep_frames_get_bad_request_and_the_server_goes_on() {
    let market = market();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..Default::default()
    };
    let server = Server::bind(Arc::new(market), Arc::new(NullRecorder), config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve().expect("serve"));

    let raw_call = |body: &str| {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        proto::write_frame(&mut stream, body.as_bytes()).expect("write");
        proto::read_message::<Response>(&mut stream).expect("read")
    };
    let nested =
        |depth: usize| format!(r#"{{"Plan": {}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    // 10,000 levels: 20 KB, far below the frame cap, and deep enough to
    // overflow a worker's stack without the parser's depth limit. 100
    // levels parse, and fail as a value of the wrong type.
    let mut answers = Vec::new();
    for depth in [10_000, 100] {
        let Response::Error { kind, message, .. } = raw_call(&nested(depth)) else {
            panic!("depth {depth}: expected an error");
        };
        assert_eq!(
            kind,
            proto::errkind::BAD_REQUEST,
            "depth {depth}: {message}"
        );
        assert!(
            message.len() < 200,
            "depth {depth}: {} bytes",
            message.len()
        );
        answers.push(message);
    }
    assert!(answers[0].contains("recursion limit"), "{}", answers[0]);
    let pong = client::call(&addr, &Request::Ping).expect("ping after the deep frames");
    handle.stop();
    join.join().expect("server thread");
    assert_eq!(
        pong,
        Response::Pong {
            version: PROTOCOL_VERSION
        }
    );
}

/// A client that escapes every non-ASCII char, as Python's `json.dumps`
/// does, writes a char past the BMP as a UTF-16 surrogate pair. The frame
/// decodes to the char, and it plans as an ASCII tenant does.
#[test]
fn escaped_surrogate_pair_tenant_decodes_and_plans_the_same() {
    let body = r#"{"Plan":{"tenant":"\ud83d\ude80","repeats":50,"kappa":1,"bid_levels":2}}"#;
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, body.as_bytes()).expect("write");
    let Request::Plan(req) = proto::read_message::<Request>(&mut &frame[..]).expect("decodes")
    else {
        panic!("expected a Plan request");
    };
    assert_eq!(req.tenant, "🚀");
    let ascii = PlanRequest {
        tenant: "rocket".into(),
        ..req.clone()
    };
    let market = market();
    assert_eq!(
        service::plan(&market, &req, &NullRecorder, None).expect("plans"),
        service::plan(&market, &ascii, &NullRecorder, None).expect("plans")
    );
}
