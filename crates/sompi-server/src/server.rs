//! The long-running planner daemon: socket accept loop, bounded
//! admission queue with load shedding, and a worker pool.
//!
//! Life of a request: the acceptor thread `accept()`s a connection,
//! assigns it a monotonically increasing id, and tries to enqueue it.
//! If the admission queue is at capacity the connection is *shed* — it
//! receives a typed [`Response::Overloaded`] frame and its request body
//! is discarded without ever being parsed, with a `RequestShed` trace
//! event emitted.
//! Otherwise the next free worker dequeues it, parses the request, and
//! dispatches it through [`crate::service`] — plan requests via the
//! shared single-flight [`SharedPlanCache`], so a burst of identical
//! requests performs exactly one search, whichever workers take them.
//!
//! Every stage is narrated into the server's trace recorder
//! (`RequestReceived` / `CacheHit` / `RequestCompleted` /
//! `RequestShed`), which is what `sompi trace summarize` renders as the
//! "server requests" section.

use crate::cache::{CacheOutcome, SharedPlanCache};
use crate::proto::{self, Request, Response, PROTOCOL_VERSION};
use crate::service;
use ec2_market::market::SpotMarket;
use sompi_obs::{emit, Event, Recorder, TraceLevel};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server`]. `Default` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads servicing requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed.
    pub queue_cap: usize,
    /// Completed entries the cross-tenant plan cache retains.
    pub cache_capacity: usize,
    /// Artificial per-request service delay, for tests and load drills
    /// (it makes shedding reproducible without a heavyweight workload).
    pub pause_ms: u64,
    /// Exit cleanly after accepting this many connections (shed ones
    /// included). `None` runs until [`ServerHandle::stop`].
    pub max_requests: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".into(),
            workers: 2,
            queue_cap: 32,
            cache_capacity: 128,
            pause_ms: 0,
            max_requests: None,
        }
    }
}

/// Totals from one [`Server::serve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted (serviced + shed).
    pub accepted: u64,
    /// Connections rejected with [`Response::Overloaded`].
    pub shed: u64,
}

/// One admitted connection waiting for a worker.
struct Job {
    id: u64,
    stream: TcpStream,
    enqueued: Instant,
}

/// Bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`. `try_push` fails
/// (shedding) instead of blocking the acceptor; `pop` blocks workers
/// until a job arrives or the queue closes.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admit a job, or return it with the observed depth when full.
    fn try_push(&self, job: Job) -> Result<(), (Job, usize)> {
        let mut s = self.state.lock().expect("queue lock");
        if s.jobs.len() >= self.cap {
            let depth = s.jobs.len();
            return Err((job, depth));
        }
        s.jobs.push_back(job);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a job is available; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// Remote control for a running [`Server`]: carries the bound address
/// and a stop switch usable from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop accepting and drain. Safe to call twice.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The planner daemon. Construct with [`Server::bind`], run with
/// [`Server::serve`] (blocking; spawn a thread to run it in-process).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    market: Arc<SpotMarket>,
    recorder: Arc<dyn Recorder + Send + Sync>,
    cache: Arc<SharedPlanCache>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listen socket and pre-warm the market's trace indexes so
    /// the first request doesn't pay the lazy index build.
    pub fn bind(
        market: Arc<SpotMarket>,
        recorder: Arc<dyn Recorder + Send + Sync>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        market.build_indexes();
        let cache = Arc::new(SharedPlanCache::new(config.cache_capacity));
        Ok(Self {
            listener,
            addr,
            market,
            recorder,
            cache,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// The shared plan cache (exposed for hit-count accounting in tests
    /// and for the post-run summary in `sompi serve`).
    pub fn cache(&self) -> Arc<SharedPlanCache> {
        Arc::clone(&self.cache)
    }

    /// Run the accept loop until [`ServerHandle::stop`] or the
    /// configured `max_requests`; drains the queue and joins all
    /// workers before returning.
    pub fn serve(&self) -> io::Result<ServeStats> {
        let queue = Arc::new(JobQueue::new(self.config.queue_cap));
        let mut workers = Vec::new();
        for _ in 0..self.config.workers.max(1) {
            let w = Worker {
                queue: Arc::clone(&queue),
                market: Arc::clone(&self.market),
                recorder: Arc::clone(&self.recorder),
                cache: Arc::clone(&self.cache),
                pause: Duration::from_millis(self.config.pause_ms),
            };
            workers.push(std::thread::spawn(move || w.run()));
        }

        let mut stats = ServeStats::default();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    queue.close();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(e);
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break; // the stop() poke itself
            }
            stats.accepted += 1;
            let id = stats.accepted;
            let job = Job {
                id,
                stream,
                enqueued: Instant::now(),
            };
            if let Err((job, depth)) = queue.try_push(job) {
                stats.shed += 1;
                self.shed(job, depth);
            }
            if let Some(max) = self.config.max_requests {
                if stats.accepted >= max {
                    break;
                }
            }
        }
        queue.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(stats)
    }

    /// Reject an over-capacity connection: typed `Overloaded` response,
    /// request body never parsed. Best-effort write — a client that
    /// already hung up loses nothing.
    ///
    /// After the response we half-close (FIN) and drain the socket to
    /// EOF before dropping it: closing with the client's unread request
    /// bytes still in the receive buffer would send an RST, which can
    /// destroy the in-flight `Overloaded` frame before the client reads
    /// it. The drain discards bytes without parsing and is bounded by
    /// the 1 s timeout, so a stalled client cannot hold the acceptor
    /// for long (well-behaved clients close right after reading the
    /// response, making the drain return in microseconds).
    fn shed(&self, job: Job, depth: usize) {
        emit(&*self.recorder, TraceLevel::Summary, || {
            Event::RequestShed {
                id: job.id,
                queue_depth: depth as u32,
                capacity: self.config.queue_cap as u32,
            }
        });
        let mut stream = job.stream;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        if proto::write_message(
            &mut stream,
            &Response::Overloaded {
                id: job.id,
                queue_depth: depth as u32,
                capacity: self.config.queue_cap as u32,
            },
        )
        .is_ok()
        {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut sink = [0u8; 1024];
            while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// Per-thread worker state.
struct Worker {
    queue: Arc<JobQueue>,
    market: Arc<SpotMarket>,
    recorder: Arc<dyn Recorder + Send + Sync>,
    cache: Arc<SharedPlanCache>,
    pause: Duration,
}

impl Worker {
    fn run(self) {
        while let Some(job) = self.queue.pop() {
            self.handle(job);
        }
    }

    fn handle(&self, mut job: Job) {
        let _ = job.stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = job.stream.set_write_timeout(Some(Duration::from_secs(10)));
        let request: Result<Request, io::Error> = proto::read_message(&mut job.stream);
        let queue_secs = job.enqueued.elapsed().as_secs_f64();
        if !self.pause.is_zero() {
            std::thread::sleep(self.pause);
        }
        let request = match request {
            Ok(req) => req,
            Err(e) => {
                // Unreadable frame: answer with a typed error if the
                // socket still works; no trace events, since no request
                // was ever parsed out of the connection.
                let _ = proto::write_message(
                    &mut job.stream,
                    &Response::Error {
                        id: job.id,
                        kind: proto::errkind::BAD_REQUEST.into(),
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let (tenant, kind) = match &request {
            Request::Ping => ("anon".to_string(), "ping"),
            Request::Plan(req) => (req.tenant.clone(), "plan"),
            Request::Replay(req) => (req.plan.tenant.clone(), "replay"),
        };
        emit(&*self.recorder, TraceLevel::Summary, || {
            Event::RequestReceived {
                id: job.id,
                tenant: tenant.clone(),
                kind: kind.into(),
            }
        });

        let started = Instant::now();
        let mut cache_label = "none";
        let response = match request {
            Request::Ping => Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Request::Plan(req) => {
                let key = service::plan_request_key(&self.market, &req);
                let recorder: &dyn Recorder = &*self.recorder;
                let (result, outcome) = self
                    .cache
                    .get_or_compute(key, || service::plan(&self.market, &req, recorder, None));
                cache_label = outcome.as_str();
                if outcome != CacheOutcome::Miss {
                    emit(recorder, TraceLevel::Summary, || Event::CacheHit {
                        key,
                        kind: "plan".into(),
                        coalesced: outcome == CacheOutcome::Coalesced,
                    });
                }
                match result {
                    Ok(report) => Response::Plan {
                        id: job.id,
                        cache: outcome.as_str().into(),
                        report: (*report).clone(),
                    },
                    Err(e) => Response::Error {
                        id: job.id,
                        kind: e.kind().into(),
                        message: e.to_string(),
                    },
                }
            }
            Request::Replay(req) => match service::replay(&self.market, &req, &*self.recorder) {
                Ok(report) => Response::Replay { id: job.id, report },
                Err(e) => Response::Error {
                    id: job.id,
                    kind: e.kind().into(),
                    message: e.to_string(),
                },
            },
        };
        let ok = !matches!(response, Response::Error { .. });
        let _ = proto::write_message(&mut job.stream, &response);
        let service_secs = started.elapsed().as_secs_f64();
        emit(&*self.recorder, TraceLevel::Summary, || {
            Event::RequestCompleted {
                id: job.id,
                tenant: tenant.clone(),
                kind: kind.into(),
                ok,
                cache: cache_label.into(),
                queue_secs,
                service_secs,
            }
        });
    }
}
