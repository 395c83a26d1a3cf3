//! Long-lived serving front-end: deadline-aware scheduling and load
//! shedding over the unified backend [`Router`].
//!
//! This module turns the batch-oriented engine into a persistent
//! service. [`PprServer`] listens on plain `std::net` TCP (scoped
//! threads, no async runtime), speaks the length-prefixed line protocol
//! of [`protocol`], and drives every query through the same
//! [`Router`]/[`QueryWorkspace`](crate::workspace::QueryWorkspace)
//! machinery the CLI uses — one shared [`Router`] reference, so serving
//! inherits backend calibration, the shared sub-graph cache, and pooled
//! workspaces for free.
//!
//! # Request lifecycle
//!
//! ```text
//!                connection reader thread                              worker pool
//! accept ── frame ──── parse ─────── admit ─────► DeadlineQueue ────► router.query
//!                        │             │                │                   │
//!                  PONG / STATS    REJECTED         REJECTED           OK / ERR /
//!                      / ERR      unmeetable       queue-full       deadline-exceeded
//!                        ▼             ▼                ▼                   ▼
//!                        └─────────────┴───────┬────────┴───────────────────┘
//!                                              ▼
//!                                     connection channel
//!                                              │
//! client ◄──── response frames ──── connection writer thread
//! ```
//!
//! Every request carries a **deadline** (client-supplied `deadline_ms`,
//! else the server default). Admission ([`scheduler`]) asks
//! [`Router::select`] whether any calibrated backend can finish inside
//! the *remaining* budget: late-risk queries automatically route to
//! cheaper backends or degraded (`memory_limited`) plans because their
//! tightened latency budget excludes the expensive routes. When even
//! the cheapest route cannot finish in time, admission walks the
//! request's **precision ladder** (`exact` → `f32` → `q16`; narrower
//! score arithmetic cheapens the staged diffusion estimate) before
//! giving up; queries no backend can serve at any rung are
//! **fast-failed** with a typed `deadline-unmeetable` rejection instead
//! of wasting queue capacity. `OK` responses report the rung each query
//! executed at, and `precision_degraded` in the telemetry counts
//! completions served below the requested rung.
//!
//! Admitted work enters a **bounded** MPMC [`DeadlineQueue`] drained by
//! a worker pool in earliest-deadline-first order. When the queue
//! saturates, the entry with the **latest** deadline is shed
//! (`queue-full`) — under overload the server keeps the requests with
//! the least slack and sheds the ones cheapest to retry. Workers
//! re-check the deadline at dequeue (queue waits consume budget) and
//! answer expired entries with `deadline-exceeded`.
//!
//! Because scheduling reorders requests, responses carry the client's
//! correlation `id` and may arrive out of order; clients may pipeline
//! freely. Each connection has two threads: a reader that parses and
//! admits frames, and a writer that is the only code touching the
//! socket's write side. Every reply, from the reader or from a worker,
//! goes through the connection's channel to the writer, which sends it
//! as soon as it is ready (batching whatever else is already waiting
//! into the same flush). No worker ever writes to a socket.
//!
//! [`ServerTelemetry`] tracks the serving health the roadmap asks for:
//! a recent-window latency reservoir (p50/p95/p99), queue depth
//! high-water, shed / unmeetable / deadline-missed / degraded counters,
//! and per-backend route counts. Snapshots are queryable over the
//! protocol (`STATS`) and rendered on shutdown.
//!
//! # Failure model
//!
//! The server assumes *every* dependency can fail mid-request and
//! answers each failure with a typed response instead of silence:
//!
//! * **Backend errors are retried, bounded.** A failed query attempt is
//!   re-routed via [`Router::query_with_failover`] to the next-cheapest
//!   backend that still fits the *remaining* deadline, at most
//!   `MAX_FAILOVERS` (2) times. Only `Err`
//!   attempts retry — a completed query is never re-run, so
//!   non-idempotent state (calibration EWMAs, cache admissions) is
//!   never double-counted. Repeated failures trip the backend's
//!   **circuit breaker** open; routing then avoids it until a cooldown
//!   elapses and a half-open probe succeeds. Breaker state rides along
//!   in `STATS` (`breakers=`) and the shutdown report.
//! * **Panics are isolated, not retried.** A worker wraps query
//!   execution in `catch_unwind`: the panicking query answers `ERR`
//!   with an internal-error message, `worker_panics` increments, and
//!   the worker survives to drain the queue. Panic-poisoned locks
//!   (workspace pool, cache shards, calibration, telemetry) all recover
//!   rather than cascade — a poisoned cache shard is cleared and
//!   counted, never trusted.
//! * **Client failures free server resources.** A peer that dies
//!   mid-frame (length prefix without payload), sends unframeable input,
//!   or vanishes so that a response write fails, is counted in
//!   `aborted_connections`. Its writer exits on the failed write, later
//!   completions drain into the closed channel, and its reader exits at
//!   EOF or, if paused, as soon as it sees the writer gone — workers and
//!   other connections never wait on it. A peer that pipelines without
//!   reading stops being read once it is owed more responses than
//!   `queue_capacity + workers` plus a small constant, so it cannot make
//!   the server hold an unbounded backlog of answers.
//! * **Overload sheds, deadline pressure degrades** (see the lifecycle
//!   above): `queue-full` / `deadline-unmeetable` / `deadline-exceeded`
//!   are typed rejections, and precision-ladder degradation is counted,
//!   not hidden.
//!
//! The `failpoints` feature (off by default, zero overhead when off)
//! injects deterministic faults at the seams named above — see
//! [`crate::failpoint`] and `tests/chaos.rs`, which drives a live
//! server through scripted fault schedules and asserts exactly this
//! model.

pub mod protocol;
pub mod queue;
pub mod scheduler;
pub mod telemetry;

pub use protocol::{
    write_frame, FrameEvent, FrameReader, QuerySpec, RejectReason, Request, Response,
    MAX_DEADLINE_MS, MAX_FRAME,
};
pub use queue::{DeadlineQueue, Enqueued};
pub use scheduler::{admit, Admission};
pub use telemetry::{ServerTelemetry, TelemetrySnapshot};

use std::io::{self, BufWriter, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::{ScopedJoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::backend::Router;
use crate::quantized::PrecisionClass;
use protocol::put_frame;

/// Responses a connection may owe beyond `queue_capacity + workers`
/// before its reader stops taking frames: one connection can still fill
/// the whole queue and every worker, with room left for its PING and
/// STATS replies.
const OWED_SLACK: usize = 8;

/// Tuning for a [`PprServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it shed the latest
    /// deadline (≥ 1).
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry `deadline_ms`,
    /// milliseconds (saturated to [`MAX_DEADLINE_MS`]).
    pub default_deadline_ms: f64,
    /// Completion latencies retained for quantile estimates.
    pub latency_reservoir: usize,
    /// Read-timeout tick for connection readers: how often a reader
    /// waiting on an idle (or throttled) client checks for shutdown.
    /// Responses never wait for it — each connection's writer thread
    /// sends them as soon as they are ready.
    pub poll_interval: Duration,
    /// Precision rung applied to `QUERY` frames that carry no
    /// `precision=` token (`None` keeps the `Exact64` default). Lets an
    /// operator run a whole deployment at `f32`/`q16` without touching
    /// clients; per-request tokens still win.
    pub default_precision: Option<PrecisionClass>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline_ms: 100.0,
            latency_reservoir: 4096,
            poll_interval: Duration::from_millis(5),
            default_precision: None,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    /// Correlation id echoed on the response.
    id: u64,
    /// The admission-tightened request (budget re-tightened at dequeue).
    req: crate::backend::QueryRequest,
    /// When the request was admitted.
    arrival: Instant,
    /// Absolute deadline.
    deadline: Instant,
    /// The score-arithmetic rung the client asked for (`Exact64` when
    /// the request carried none) — admission may execute below it.
    requested_precision: PrecisionClass,
    /// Where the response frame goes (the owning connection's channel).
    reply: mpsc::Sender<Response>,
}

/// A long-lived TCP serving front-end over a shared [`Router`].
///
/// The server borrows the router (and through it the graph), so the
/// usual pattern is: build and prepare a router, [`PprServer::bind`],
/// then [`PprServer::serve`] on the main thread while other threads (or
/// a signal handler) call [`PprServer::shutdown`]. `serve` returns once
/// every connection and worker has wound down; queued residents are
/// drained, not dropped.
pub struct PprServer<'r, 'g> {
    router: &'r Router<'g>,
    config: ServerConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    queue: DeadlineQueue<Job>,
    telemetry: ServerTelemetry,
    stop: AtomicBool,
}

impl<'r, 'g> PprServer<'r, 'g> {
    /// Binds a listener on `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral test port).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    ///
    /// # Panics
    ///
    /// If `config.workers` or `config.queue_capacity` is zero.
    pub fn bind<A: ToSocketAddrs>(
        router: &'r Router<'g>,
        config: ServerConfig,
        addr: A,
    ) -> io::Result<Self> {
        assert!(config.workers > 0, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(PprServer {
            router,
            queue: DeadlineQueue::bounded(config.queue_capacity),
            telemetry: ServerTelemetry::new(config.latency_reservoir),
            config,
            listener,
            local_addr,
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether [`PprServer::shutdown`] has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown from any thread: closes the queue to new work
    /// and wakes the blocking accept loop. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Wake the accept loop with a throwaway connection. A wildcard
        // bind (0.0.0.0 / [::]) is not a guaranteed-connectable
        // destination on every platform, so aim at the same-family
        // loopback with the bound port instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// A telemetry snapshot including live queue figures and the
    /// router's per-backend circuit-breaker states.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self
            .telemetry
            .snapshot(self.queue.len(), self.queue.high_water());
        snap.breakers = self
            .router
            .breaker_snapshots()
            .into_iter()
            .map(|b| (b.kind, b.state, b.trips))
            .collect();
        snap
    }

    /// Runs the accept loop and worker pool until [`PprServer::shutdown`].
    ///
    /// Blocks the calling thread. Per-connection I/O errors only drop
    /// that connection.
    ///
    /// # Errors
    ///
    /// Fatal listener errors.
    pub fn serve(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                scope.spawn(|| self.worker_loop());
            }
            let result = loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.is_shutdown() {
                            break Ok(()); // the shutdown wake-up connection
                        }
                        scope.spawn(move || {
                            let _ = self.handle_connection(stream);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) if self.is_shutdown() => break Ok(()),
                    Err(e) => {
                        // A fatal listener error must still wind down the
                        // workers, or the scope would never exit.
                        self.stop.store(true, Ordering::SeqCst);
                        break Err(e);
                    }
                }
            };
            self.queue.close();
            result
        })
    }

    /// Worker: drain the queue in deadline order until closed and empty.
    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            self.execute(job);
        }
    }

    /// Runs one admitted job, re-checking its deadline first.
    fn execute(&self, job: Job) {
        let now = Instant::now();
        let remaining = job.deadline.saturating_duration_since(now);
        // Re-admit against the post-queue-wait remainder: the wait may
        // have made the deadline unmeetable, and a shrunken budget may
        // re-route to a cheaper backend than admission predicted.
        let admission = match admit(self.router, &job.req, remaining) {
            Ok(admission) => admission,
            Err(e) => {
                self.telemetry.on_error();
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: e.to_string(),
                });
                return;
            }
        };
        let req = match admission {
            Admission::Admit { req, .. } => req,
            Admission::Reject { predicted_us } => {
                self.telemetry.on_queue_expiry();
                let _ = job.reply.send(Response::Rejected {
                    id: job.id,
                    reason: RejectReason::DeadlineExceeded,
                    predicted_us,
                    remaining_us: remaining.as_micros() as u64,
                });
                return;
            }
        };
        // A panicking backend must not take the worker (and with it the
        // whole drain) down: isolate the unwind, answer a typed internal
        // error, and keep serving. The shared state a panic can reach is
        // poison-recovering by construction (workspace pool, cache
        // shards, calibration, breakers, telemetry), so resuming after
        // the catch is sound — which is what makes the
        // `AssertUnwindSafe` honest.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.router.query_with_failover(&req)
        }));
        match attempt {
            Ok(Ok((route, outcome, failovers))) => {
                if failovers > 0 {
                    self.telemetry.on_failover(u64::from(failovers));
                }
                let completed_at = Instant::now();
                let latency = completed_at.duration_since(job.arrival);
                let missed = completed_at > job.deadline;
                let degraded = !route.fits_budget || outcome.stats.memory_limited;
                let precision = outcome.stats.precision_class;
                let precision_degraded = precision != job.requested_precision;
                self.telemetry.on_completion(
                    route.kind,
                    latency,
                    degraded,
                    precision_degraded,
                    missed,
                );
                let _ = job.reply.send(Response::Ranking {
                    id: job.id,
                    backend: route.kind,
                    latency_us: latency.as_micros() as u64,
                    degraded,
                    precision,
                    ranking: outcome.ranking,
                });
            }
            Ok(Err(e)) => {
                self.telemetry.on_error();
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: e.to_string(),
                });
            }
            Err(panic) => {
                self.telemetry.on_error();
                self.telemetry.on_worker_panic();
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let _ = job.reply.send(Response::Error {
                    id: job.id,
                    message: format!("internal error: query execution panicked: {reason}"),
                });
            }
        }
    }

    /// Serves one connection until EOF, shutdown or a dead peer. The
    /// calling thread reads, parses and admits frames; a scoped writer
    /// thread owns a clone of the socket and sends every reply — the
    /// reader's own PONG, STATS and ERR frames as well as the workers'
    /// completions — as soon as it is ready. Counts the connection as
    /// aborted when the peer dies mid-frame, sends unframeable input, or
    /// a response write fails.
    fn handle_connection(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(self.config.poll_interval))?;
        // Nagle's algorithm can hold small response frames hostage to the
        // peer's delayed ACK (tens of ms) — poison for a deadline-driven
        // protocol, so write eagerly.
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel::<Response>();
        let owed = AtomicUsize::new(0);
        let reader = std::thread::current();
        let (torn_frame, written) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut out = BufWriter::new(write_half);
                let written = write_responses(&mut out, rx, &owed, &reader);
                if written.is_err() {
                    // Close the connection as well: a reader blocked on it
                    // reads EOF at once and takes no more frames whose
                    // answers could never be sent.
                    let _ = out.get_ref().shutdown(Shutdown::Both);
                }
                reader.unpark();
                written
            });
            let torn_frame = self.read_requests(stream, tx, &owed, &writer);
            (torn_frame, writer.join())
        });
        // The client failed us (not the reverse) when it cut a frame
        // mid-payload or stopped taking its responses: count it. Its
        // stranded completions drain into the dropped receiver; workers
        // and other connections never notice.
        if torn_frame || !matches!(written, Ok(Ok(()))) {
            self.telemetry.on_aborted_connection();
        }
        Ok(())
    }

    /// The reader half of a connection: takes frames until EOF, a framing
    /// error, shutdown, or a dead writer, and returns whether the peer
    /// broke the framing contract. Dropping `tx` on return lets the writer
    /// finish once the connection's queued jobs have answered, so shutdown
    /// drains responses already owed rather than dropping them.
    ///
    /// Every frame is owed exactly one response. While more than
    /// `queue_capacity + workers + OWED_SLACK` are owed the reader takes
    /// no frame, so a peer that never reads leaves its frames in the
    /// socket instead of growing the writer's channel without bound.
    fn read_requests(
        &self,
        mut stream: TcpStream,
        tx: mpsc::Sender<Response>,
        owed: &AtomicUsize,
        writer: &ScopedJoinHandle<'_, io::Result<()>>,
    ) -> bool {
        let max_owed = self.config.queue_capacity + self.config.workers + OWED_SLACK;
        let mut reader = FrameReader::new();
        while !self.is_shutdown() {
            if owed.load(Ordering::SeqCst) > max_owed {
                // The writer unparks this thread after each flush and when
                // it exits; a writer that exited while we still hold a
                // sender has failed a write, so the peer is gone.
                if writer.is_finished() {
                    break;
                }
                std::thread::park_timeout(self.config.poll_interval);
                continue;
            }
            match reader.read_event(&mut stream) {
                Ok(FrameEvent::Frame(payload)) => {
                    owed.fetch_add(1, Ordering::SeqCst);
                    self.handle_frame(&payload, &tx);
                }
                Ok(FrameEvent::Idle) => {}
                // Bytes buffered past the last frame boundary mean the
                // peer died mid-frame.
                Ok(FrameEvent::Eof) => return reader.has_partial(),
                // Unframeable input (oversized length, invalid UTF-8,
                // transport error): the peer broke the framing contract.
                Err(_) => return true,
            }
        }
        false
    }

    /// Dispatches one parsed frame. Every reply goes through the
    /// connection's channel — a `QUERY`'s from admission or from the
    /// worker that serves it.
    fn handle_frame(&self, payload: &str, tx: &mpsc::Sender<Response>) {
        let request = match Request::parse(payload) {
            Ok(request) => request,
            Err(message) => {
                self.telemetry.on_error();
                let _ = tx.send(Response::Error { id: 0, message });
                return;
            }
        };
        match request {
            Request::Ping => {
                let _ = tx.send(Response::Pong);
            }
            Request::Stats => {
                let _ = tx.send(Response::Stats(self.telemetry().render_compact()));
            }
            Request::Shutdown => {
                // Answer with the final snapshot, then stop the world.
                let _ = tx.send(Response::Stats(self.telemetry().render_compact()));
                self.shutdown();
            }
            Request::Query(spec) => self.admit_query(spec, tx),
        }
    }

    /// Admission + enqueue for one `QUERY`. All rejections flow through
    /// the connection's response channel, like completions.
    fn admit_query(&self, spec: QuerySpec, tx: &mpsc::Sender<Response>) {
        let mut spec = spec;
        if spec.precision.is_none() {
            spec.precision = self.config.default_precision;
        }
        let arrival = Instant::now();
        let deadline_ms = spec.deadline_ms.unwrap_or(self.config.default_deadline_ms);
        // Parsed deadlines are range-checked at the protocol layer, so
        // only a misconfigured server default can reach here non-finite
        // or oversized — saturate rather than panic in a connection
        // thread (`max` maps NaN and negatives to zero, `try_from`
        // rejects infinities and overflow).
        let remaining = Duration::try_from_secs_f64((deadline_ms / 1e3).max(0.0))
            .unwrap_or_else(|_| Duration::from_secs_f64(MAX_DEADLINE_MS / 1e3));
        let deadline = arrival + remaining;
        let admission = match admit(self.router, &spec.to_query_request(), remaining) {
            Ok(admission) => admission,
            Err(e) => {
                self.telemetry.on_error();
                let _ = tx.send(Response::Error {
                    id: spec.id,
                    message: e.to_string(),
                });
                return;
            }
        };
        let req = match admission {
            Admission::Admit { req, .. } => req,
            Admission::Reject { predicted_us } => {
                self.telemetry.on_unmeetable();
                let _ = tx.send(Response::Rejected {
                    id: spec.id,
                    reason: RejectReason::DeadlineUnmeetable,
                    predicted_us,
                    remaining_us: remaining.as_micros() as u64,
                });
                return;
            }
        };
        let job = Job {
            id: spec.id,
            req,
            arrival,
            deadline,
            requested_precision: spec.precision.unwrap_or_default(),
            reply: tx.clone(),
        };
        match self.queue.push(job, deadline) {
            Enqueued::Admitted => self.telemetry.on_accept(),
            Enqueued::Displaced(shed) => {
                // The incoming request was admitted by evicting the
                // resident with the most slack; that resident may belong
                // to another connection — its rejection flows through its
                // own channel.
                self.telemetry.on_accept();
                self.reject_shed(shed);
            }
            Enqueued::Refused(shed) => self.reject_shed(shed),
        }
    }

    /// Answers a load-shed job with a typed `queue-full` rejection.
    fn reject_shed(&self, shed: Job) {
        self.telemetry.on_shed();
        let remaining = shed.deadline.saturating_duration_since(Instant::now());
        let _ = shed.reply.send(Response::Rejected {
            id: shed.id,
            reason: RejectReason::QueueFull,
            predicted_us: None,
            remaining_us: remaining.as_micros() as u64,
        });
    }
}

/// The writer half of a connection: blocks on the connection's channel,
/// encodes every response already waiting, and sends them with one flush.
/// Returns once every sender (the reader and the jobs it queued) is gone,
/// or with the first failed write.
fn write_responses(
    out: &mut BufWriter<TcpStream>,
    rx: mpsc::Receiver<Response>,
    owed: &AtomicUsize,
    reader: &Thread,
) -> io::Result<()> {
    while let Ok(first) = rx.recv() {
        let mut written = 0;
        for response in std::iter::once(first).chain(rx.try_iter()) {
            put_frame(out, &response.encode())?;
            written += 1;
        }
        out.flush()?;
        owed.fetch_sub(written, Ordering::SeqCst);
        reader.unpark();
    }
    Ok(())
}

impl std::fmt::Debug for PprServer<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PprServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.config.workers)
            .field("queue_capacity", &self.config.queue_capacity)
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}
