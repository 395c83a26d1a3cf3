//! Chaos tests: the loopback serving stack under scripted, deterministic
//! fault schedules (`meloppr::core::failpoint`, `--features failpoints`).
//!
//! Each scenario asserts the failure-model contract end to end: no
//! deadlock (every scope joins), every admitted request gets a typed
//! response, unfaulted queries stay bit-identical to clean execution,
//! circuit breakers trip and re-close, and the robustness counters
//! match the fault schedule *exactly* — not approximately.
//!
//! The failpoint registry is process-global, so every test serializes
//! on [`GATE`] and clears the failpoints it configured before
//! releasing it.

#![cfg(feature = "failpoints")]

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use meloppr::backend::{persist, Meloppr};
use meloppr::core::backend::{BackendCaps, BreakerState, CostEstimate};
use meloppr::core::failpoint::{self, FaultAction, FaultSpec};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::server::{write_frame, FrameEvent, FrameReader, QuerySpec, Request, Response};
use meloppr::{
    build_index, BackendKind, BallIndex, CacheBudget, ConcurrentSubgraphCache, CsrGraph,
    MelopprParams, PprBackend, PprParams, PprServer, PrecisionClass, QueryOutcome, QueryRequest,
    QueryStats, QueryWorkspace, Router, ServerConfig,
};

/// Serializes chaos tests: the failpoint registry (and its counters)
/// are process-global, so concurrent schedules would corrupt each
/// other's exact-count assertions.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    // A failed assertion in one scenario must not poison the others.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph() -> CsrGraph {
    PaperGraph::G2Cora.generate_scaled(0.3, 7).unwrap()
}

fn meloppr_params() -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 20).unwrap(),
        stages: vec![3, 3],
        ..MelopprParams::paper_defaults()
    }
}

/// Shuts the server down when dropped, so a failing assertion inside a
/// serving scope unwinds cleanly instead of deadlocking on the scope's
/// implicit join of the accept loop.
struct ShutdownOnDrop<'a, 'r, 'g>(&'a PprServer<'r, 'g>);

impl Drop for ShutdownOnDrop<'_, '_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A blocking protocol client for the tests.
struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            reader: FrameReader::new(),
        }
    }

    fn send(&mut self, request: &Request) {
        write_frame(&mut self.stream, &request.encode()).unwrap();
    }

    fn recv(&mut self) -> Response {
        loop {
            match self.reader.read_event(&mut self.stream).unwrap() {
                FrameEvent::Frame(payload) => return Response::parse(&payload).unwrap(),
                FrameEvent::Idle => continue,
                FrameEvent::Eof => panic!("server closed the connection mid-conversation"),
            }
        }
    }
}

/// A deterministic stub solver with configurable kind, estimate, and
/// precision — lets the breaker scenario pin routing on cost alone.
struct Stub {
    kind: BackendKind,
    estimate_ns: f64,
}

impl PprBackend for Stub {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: self.kind,
            exact: false,
            deterministic: true,
            accelerated: false,
            batch_aware: false,
        }
    }

    fn estimate(&self, _req: &QueryRequest) -> meloppr::core::Result<CostEstimate> {
        Ok(CostEstimate {
            latency_ns: self.estimate_ns,
            peak_memory_bytes: 1 << 10,
            expected_precision: 0.9,
        })
    }

    fn query_with(
        &self,
        req: &QueryRequest,
        _ws: &mut QueryWorkspace,
    ) -> meloppr::core::Result<QueryOutcome> {
        Ok(QueryOutcome {
            ranking: vec![(req.seed, 1.0)],
            stats: QueryStats {
                backend: self.kind,
                stages: Vec::new(),
                total_diffusions: 0,
                bfs_edges_scanned: 0,
                diffusion_edge_updates: 0,
                random_walk_steps: 0,
                nodes_touched: 0,
                peak_memory_bytes: 1 << 10,
                peak_task_memory_bytes: 1 << 10,
                aggregate_entries: 1,
                table_evictions: 0,
                memory_limited: false,
                precision_class: PrecisionClass::Exact64,
                latency_estimate_ns: None,
                host_latency_ns: None,
            },
        })
    }
}

fn serving_config(queue: usize) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: queue,
        default_deadline_ms: 30_000.0,
        ..ServerConfig::default()
    }
}

/// Cache-extraction failures mid-burst: every faulted query comes back
/// as a typed `ERR`, every unfaulted query is bit-identical to clean
/// execution, the error count matches the schedule exactly, the sole
/// backend's breaker trips once and re-closes, and shutdown drains
/// clean.
#[test]
fn extraction_failures_mid_burst_yield_exact_typed_errors() {
    let _gate = gate();
    const BURST: u64 = 12;
    const FAULTS: u64 = 3;

    let g = graph();
    let seed_of = |id: u64| (id * 13 % g.num_nodes() as u64) as u32;

    // Clean reference: the same seeds through an identical backend,
    // before any failpoint is armed.
    let reference_backend = Meloppr::new(&g, meloppr_params())
        .unwrap()
        .with_shared_cache(Arc::new(ConcurrentSubgraphCache::with_budget(
            CacheBudget::entries(256),
        )));
    let reference: Vec<Vec<(u32, f64)>> = (0..BURST)
        .map(|id| {
            reference_backend
                .query(&QueryRequest::new(seed_of(id)))
                .unwrap()
                .ranking
        })
        .collect();

    let backend = Meloppr::new(&g, meloppr_params())
        .unwrap()
        .with_shared_cache(Arc::new(ConcurrentSubgraphCache::with_budget(
            CacheBudget::entries(256),
        )));
    let router = Router::new().with_backend(Box::new(backend));
    let server = PprServer::bind(&router, serving_config(BURST as usize), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Schedule: let the first few extractions through, then fail the
    // next FAULTS shared-cache extractions mid-burst.
    failpoint::set_seed(42);
    failpoint::configure(
        "cache.extract",
        FaultSpec::new(FaultAction::Error).skip(4).times(FAULTS),
    );

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        for id in 0..BURST {
            conn.send(&Request::Query(QuerySpec::new(id, seed_of(id))));
        }
        let mut errors = 0u64;
        let mut rankings: Vec<Option<Vec<(u32, f64)>>> = vec![None; BURST as usize];
        for _ in 0..BURST {
            match conn.recv() {
                Response::Ranking { id, ranking, .. } => rankings[id as usize] = Some(ranking),
                Response::Error { message, .. } => {
                    assert!(
                        message.contains("cache.extract"),
                        "error is not the injected fault: {message:?}"
                    );
                    errors += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Counters match the schedule exactly: each fire kills exactly
        // one query (the error propagates immediately), no more fires
        // than the schedule allows.
        assert_eq!(errors, FAULTS, "typed errors != scheduled faults");
        assert_eq!(failpoint::fired("cache.extract"), FAULTS);
        // Every unfaulted query is bit-identical to clean execution.
        for (id, ranking) in rankings.into_iter().enumerate() {
            if let Some(ranking) = ranking {
                assert_eq!(ranking, reference[id], "query {id} diverged under chaos");
            }
        }
        conn.send(&Request::Shutdown);
        match conn.recv() {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        serve.join().unwrap().unwrap();
    });
    failpoint::clear("cache.extract");

    let snap = server.telemetry();
    assert_eq!(snap.errors, FAULTS);
    assert_eq!(snap.completed, BURST - FAULTS);
    assert_eq!(snap.worker_panics, 0);
    // A sole backend has nowhere to fail over to: errors surface.
    assert_eq!(snap.failovers, 0);
    // The three consecutive errors tripped the breaker exactly once
    // (EWMA 0 → 0.5 → 0.75 > 0.6); the forced-through successes after
    // the schedule ran dry re-closed it.
    assert_eq!(snap.breakers.len(), 1);
    let (kind, state, trips) = snap.breakers[0];
    assert_eq!(kind, BackendKind::Meloppr);
    assert_eq!(state, BreakerState::Closed, "breaker never re-closed");
    assert_eq!(trips, 1);
}

/// A panic storm in ball diffusion: `catch_unwind` isolates every
/// panic to its query (typed `ERR internal`, `worker_panics` counts
/// the schedule exactly), the worker pool and caches survive, panics
/// are never failed over or charged to the breaker, and unfaulted
/// queries stay bit-identical.
#[test]
fn panic_storm_is_isolated_and_counted_exactly() {
    let _gate = gate();
    const BURST: u64 = 10;
    const PANICS: u64 = 4;

    let g = graph();
    let seed_of = |id: u64| (id * 29 % g.num_nodes() as u64) as u32;

    let reference_backend = Meloppr::new(&g, meloppr_params()).unwrap();
    let reference: Vec<Vec<(u32, f64)>> = (0..BURST)
        .map(|id| {
            reference_backend
                .query(&QueryRequest::new(seed_of(id)))
                .unwrap()
                .ranking
        })
        .collect();

    let backend = Meloppr::new(&g, meloppr_params()).unwrap();
    let router = Router::new().with_backend(Box::new(backend));
    let server = PprServer::bind(&router, serving_config(BURST as usize), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    failpoint::set_seed(7);
    failpoint::configure(
        "ball.diffuse",
        FaultSpec::new(FaultAction::Panic).skip(3).times(PANICS),
    );
    // Keep the storm off stderr; restored before the gate is released.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        for id in 0..BURST {
            conn.send(&Request::Query(QuerySpec::new(id, seed_of(id))));
        }
        let mut panicked = 0u64;
        let mut rankings: Vec<Option<Vec<(u32, f64)>>> = vec![None; BURST as usize];
        for _ in 0..BURST {
            match conn.recv() {
                Response::Ranking { id, ranking, .. } => rankings[id as usize] = Some(ranking),
                Response::Error { message, .. } => {
                    assert!(
                        message.contains("panicked") && message.contains("ball.diffuse"),
                        "error is not the injected panic: {message:?}"
                    );
                    panicked += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(panicked, PANICS, "typed panic errors != scheduled panics");
        assert_eq!(failpoint::fired("ball.diffuse"), PANICS);
        for (id, ranking) in rankings.into_iter().enumerate() {
            if let Some(ranking) = ranking {
                assert_eq!(
                    ranking, reference[id],
                    "query {id} diverged after the panic storm"
                );
            }
        }
        // The pool survived the storm: the same connection keeps being
        // served, and shutdown still drains clean.
        conn.send(&Request::Ping);
        assert_eq!(conn.recv(), Response::Pong);
        conn.send(&Request::Shutdown);
        match conn.recv() {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        serve.join().unwrap().unwrap();
    });
    std::panic::set_hook(default_hook);
    failpoint::clear("ball.diffuse");

    let snap = server.telemetry();
    assert_eq!(snap.worker_panics, PANICS, "worker_panics != schedule");
    assert_eq!(snap.errors, PANICS);
    assert_eq!(snap.completed, BURST - PANICS);
    // Panics are a code bug, not backend weather: never retried on
    // another backend, never charged to the circuit breaker.
    assert_eq!(snap.failovers, 0);
    let (_, state, trips) = snap.breakers[0];
    assert_eq!(state, BreakerState::Closed);
    assert_eq!(trips, 0);
}

/// A persistently failing backend: the first errors fail over to the
/// healthy backend (bounded, counted), the error-rate EWMA trips the
/// breaker open so later queries route around the sick backend without
/// burning an attempt, the `STATS` frame carries the breaker state over
/// the wire, and once the fault clears a half-open probe re-closes it.
#[test]
fn tripped_backend_fails_over_then_probe_recloses() {
    let _gate = gate();
    const BURST: u64 = 6;
    const COOLDOWN: Duration = Duration::from_millis(300);

    // Equal precision, so selection is decided by cost alone: the
    // cheap (sick) backend wins while its breaker allows it.
    let router = Router::new()
        .with_backend(Box::new(Stub {
            kind: BackendKind::Meloppr,
            estimate_ns: 1e5,
        }))
        .with_backend(Box::new(Stub {
            kind: BackendKind::LocalPpr,
            estimate_ns: 1e6,
        }))
        .with_breaker_cooldown(COOLDOWN);
    let server = PprServer::bind(&router, serving_config(16), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    failpoint::set_seed(11);
    // Every query the sick backend executes fails, until cleared.
    failpoint::configure("backend.query.meloppr", FaultSpec::new(FaultAction::Error));

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        for id in 0..BURST {
            conn.send(&Request::Query(QuerySpec::new(id, id as u32)));
            // Despite the sick preferred backend, EVERY query succeeds:
            // failover while the breaker is closed, direct routing to
            // the healthy backend once it is open.
            match conn.recv() {
                Response::Ranking { backend, .. } => assert_eq!(backend, BackendKind::LocalPpr),
                other => panic!("unexpected {other:?}"),
            }
        }

        // The breaker state travels the wire: STATS reports the sick
        // backend open with exactly one trip.
        conn.send(&Request::Stats);
        let mid = match conn.recv() {
            Response::Stats(rendered) => {
                meloppr::server::TelemetrySnapshot::parse_compact(&rendered).unwrap()
            }
            other => panic!("unexpected {other:?}"),
        };
        let breaker_of = |snap: &meloppr::server::TelemetrySnapshot, kind: BackendKind| {
            snap.breakers
                .iter()
                .find(|(k, _, _)| *k == kind)
                .copied()
                .unwrap_or_else(|| panic!("no breaker for {kind} in {:?}", snap.breakers))
        };
        // Exactly the schedule: query 1 errors (EWMA 0.5) and fails
        // over; query 2 errors (EWMA 0.75 > 0.6), trips the breaker,
        // and fails over; queries 3.. route directly to the healthy
        // backend — two failovers total, one trip.
        assert_eq!(mid.failovers, 2, "failovers != schedule");
        let (_, state, trips) = breaker_of(&mid, BackendKind::Meloppr);
        assert_eq!(state, BreakerState::Open, "sick backend never tripped");
        assert_eq!(trips, 1);
        let (_, healthy_state, healthy_trips) = breaker_of(&mid, BackendKind::LocalPpr);
        assert_eq!(healthy_state, BreakerState::Closed);
        assert_eq!(healthy_trips, 0);

        // Heal the backend and wait out the cooldown: the next query is
        // the half-open probe, succeeds, and re-closes the breaker.
        failpoint::clear("backend.query.meloppr");
        std::thread::sleep(COOLDOWN + Duration::from_millis(50));
        conn.send(&Request::Query(QuerySpec::new(99, 3)));
        match conn.recv() {
            Response::Ranking { id, backend, .. } => {
                assert_eq!(id, 99);
                assert_eq!(
                    backend,
                    BackendKind::Meloppr,
                    "probe skipped the healed backend"
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        conn.send(&Request::Shutdown);
        match conn.recv() {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        serve.join().unwrap().unwrap();
    });

    let snap = server.telemetry();
    assert_eq!(snap.completed, BURST + 1);
    assert_eq!(snap.errors, 0, "a client saw an error despite failover");
    assert_eq!(snap.failovers, 2);
    let sick = snap
        .breakers
        .iter()
        .find(|(k, _, _)| *k == BackendKind::Meloppr)
        .copied()
        .unwrap();
    assert_eq!(sick.1, BreakerState::Closed, "probe never re-closed");
    assert_eq!(sick.2, 1, "breaker tripped more than the schedule");
}

/// Cold-tier read failures mid-burst: the ball index is an accelerator,
/// never a correctness dependency. A scripted `index.read` fault makes
/// the cold tier fail for a stretch of the burst — every affected
/// lookup silently falls back to live BFS, every ranking stays
/// bit-identical to clean execution, no query errors, and the
/// consumer's `cold_fallbacks` counter records at least the scheduled
/// fires (plus any lookups the index legitimately cannot serve).
#[test]
fn cold_tier_read_failures_fall_back_to_bfs_bit_identically() {
    let _gate = gate();
    const BURST: u64 = 16;
    const FAULTS: u64 = 5;

    let g = graph();
    let seed_of = |id: u64| (id * 31 % g.num_nodes() as u64) as u32;
    let path = std::env::temp_dir().join(format!("meloppr-chaos-ballidx-{}", std::process::id()));
    // Index depth matches the stage depth, so every RAM miss is
    // cold-servable and the fault schedule decides which ones fall back.
    build_index(&g, 3, &path).unwrap();

    // Clean reference: identical backend, RAM-only cache, no faults.
    let reference_backend = Meloppr::new(&g, meloppr_params())
        .unwrap()
        .with_shared_cache(Arc::new(ConcurrentSubgraphCache::with_budget(
            CacheBudget::entries(256),
        )));
    let reference: Vec<Vec<(u32, f64)>> = (0..BURST)
        .map(|id| {
            reference_backend
                .query(&QueryRequest::new(seed_of(id)))
                .unwrap()
                .ranking
        })
        .collect();

    let index = Arc::new(BallIndex::open(&path).unwrap());
    let backend = Meloppr::new(&g, meloppr_params())
        .unwrap()
        .with_shared_cache(Arc::new(
            ConcurrentSubgraphCache::with_budget(CacheBudget::entries(256)).with_cold_tier(index),
        ));

    // Let the first few cold reads through, then fail the next FAULTS.
    failpoint::set_seed(23);
    failpoint::configure(
        "index.read",
        FaultSpec::new(FaultAction::Error).skip(3).times(FAULTS),
    );

    for id in 0..BURST {
        let outcome = backend
            .query(&QueryRequest::new(seed_of(id)))
            .expect("a cold-tier fault must never surface as a query error");
        assert_eq!(
            outcome.ranking, reference[id as usize],
            "query {id} diverged under cold-tier faults"
        );
    }
    assert_eq!(failpoint::fired("index.read"), FAULTS, "schedule not spent");
    failpoint::clear("index.read");

    let stats = backend
        .cache_consumer()
        .expect("shared mode has a consumer")
        .stats();
    assert!(
        stats.cold_fallbacks >= FAULTS,
        "every scheduled fault must be a counted BFS fallback \
         (cold_fallbacks {} < {FAULTS})",
        stats.cold_fallbacks
    );
    assert!(
        stats.cold_hits > 0,
        "unfaulted cold reads must still serve from the index"
    );
    let _ = std::fs::remove_file(&path);
}

/// Calibration-state durability under truncation and injected I/O
/// faults: a truncated file warns and boots cold (never panics, never
/// blocks startup), and a scripted `persist.io` fault surfaces as a
/// typed `io::Error` from save.
#[test]
fn truncated_calibration_file_boots_cold() {
    let _gate = gate();
    let path = std::env::temp_dir().join(format!("meloppr-chaos-state-{}", std::process::id()));

    // A warm router with real calibration history.
    let warm = Router::new()
        .with_backend(Box::new(Stub {
            kind: BackendKind::LocalPpr,
            estimate_ns: 1e6,
        }))
        .with_self_calibration(true);
    for _ in 0..3 {
        warm.observe(0, 2_000.0, 1_000.0);
    }
    persist::save_state(&warm, &path).unwrap();

    // Round trip works while the file is intact.
    let intact = Router::new()
        .with_backend(Box::new(Stub {
            kind: BackendKind::LocalPpr,
            estimate_ns: 1e6,
        }))
        .with_self_calibration(true);
    assert!(persist::load_state(&intact, &path).unwrap());
    assert_eq!(intact.calibration_ratio(0).1, 3);

    // Truncate mid-record: the CRC/length footer catches it, load warns
    // and boots cold instead of applying garbage.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
    let cold = Router::new()
        .with_backend(Box::new(Stub {
            kind: BackendKind::LocalPpr,
            estimate_ns: 1e6,
        }))
        .with_self_calibration(true);
    assert!(
        !persist::load_state(&cold, &path).unwrap(),
        "truncated state file was applied"
    );
    assert_eq!(
        cold.calibration_ratio(0),
        (1.0, 0),
        "cold boot still absorbed state"
    );

    // A scripted fault at the state-file seam is a typed I/O error, for
    // both directions.
    failpoint::set_seed(3);
    failpoint::configure("persist.io", FaultSpec::new(FaultAction::Error).times(2));
    let save_err = persist::save_state(&warm, &path).unwrap_err();
    assert!(
        save_err.to_string().contains("persist.io"),
        "unexpected save error {save_err:?}"
    );
    let load_err = persist::load_state(&cold, &path).unwrap_err();
    assert!(
        load_err.to_string().contains("persist.io"),
        "unexpected load error {load_err:?}"
    );
    assert_eq!(failpoint::fired("persist.io"), 2);
    failpoint::clear("persist.io");

    std::fs::remove_file(&path).unwrap();
}

/// The two protocol-level seams. A `frame.parse` fault refuses the
/// frame as a typed `ERR` (id 0, the frame never became a request)
/// without poisoning the connection; a bare `backend.query` fault —
/// the kind-independent seam the router checks ahead of
/// `backend.query.<kind>` — fails exactly one routed attempt. The same
/// connection then completes a clean query end to end.
#[test]
fn frame_and_routing_seams_fire_then_recover() {
    let _gate = gate();

    let g = graph();
    let backend = Meloppr::new(&g, meloppr_params()).unwrap();
    let router = Router::new().with_backend(Box::new(backend));
    let server = PprServer::bind(&router, serving_config(8), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    failpoint::set_seed(11);
    failpoint::configure("frame.parse", FaultSpec::new(FaultAction::Error).times(1));
    failpoint::configure("backend.query", FaultSpec::new(FaultAction::Error).times(1));

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);

        // First frame dies at the parse seam: ERR with id 0 (no request
        // was ever decoded), connection survives.
        conn.send(&Request::Query(QuerySpec::new(7, 0)));
        match conn.recv() {
            Response::Error { id, message } => {
                assert_eq!(id, 0, "parse-refused frames answer with id 0");
                assert!(
                    message.contains("frame.parse"),
                    "error is not the injected fault: {message:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        // Second query reaches the router and dies at the bare seam.
        conn.send(&Request::Query(QuerySpec::new(8, 0)));
        match conn.recv() {
            Response::Error { id, message } => {
                assert_eq!(id, 8);
                assert!(
                    message.contains("backend.query"),
                    "error is not the injected fault: {message:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        // Both schedules are spent: a clean query completes on the same
        // connection.
        conn.send(&Request::Query(QuerySpec::new(9, 0)));
        match conn.recv() {
            Response::Ranking { id, ranking, .. } => {
                assert_eq!(id, 9);
                assert!(!ranking.is_empty(), "clean query returned no ranking");
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(failpoint::fired("frame.parse"), 1);
        assert_eq!(failpoint::fired("backend.query"), 1);

        conn.send(&Request::Shutdown);
        match conn.recv() {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        serve.join().unwrap().unwrap();
    });
    failpoint::clear("frame.parse");
    failpoint::clear("backend.query");

    let snap = server.telemetry();
    assert_eq!(snap.errors, 2, "one parse refusal + one routed failure");
    assert_eq!(snap.worker_panics, 0);
}
