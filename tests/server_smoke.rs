//! Serving front-end integration tests over loopback TCP: concurrent
//! clients get bit-identical results to direct execution, a saturated
//! bounded queue sheds with typed rejections (and shuts down without
//! deadlock), deadline scheduling routes late-risk queries to cheaper
//! backends or fails them fast, responses leave as soon as they are
//! ready, and a client that never reads is throttled without starving
//! others.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use meloppr::backend::LocalPpr;
use meloppr::core::backend::{BackendCaps, CostEstimate};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::server::{
    write_frame, FrameEvent, FrameReader, QuerySpec, RejectReason, Request, Response,
};
use meloppr::{
    BackendKind, BatchExecutor, CsrGraph, PprBackend, PprParams, PprServer, PrecisionClass,
    QueryOutcome, QueryRequest, QueryStats, QueryWorkspace, Router, ServerConfig,
};

fn graph() -> CsrGraph {
    PaperGraph::G2Cora.generate_scaled(0.3, 7).unwrap()
}

/// Shuts the server down when dropped, so a failing assertion inside a
/// serving scope unwinds cleanly instead of deadlocking on the scope's
/// implicit join of the accept loop.
struct ShutdownOnDrop<'a, 'r, 'g>(&'a meloppr::PprServer<'r, 'g>);

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
        // Without this, Nagle can hold a request frame hostage to the
        // server's delayed ACK, skewing the deadline-timing scenarios.
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

/// A stub solver with a configurable static estimate, actual service
/// time, and precision — the knobs deadline scheduling turns on — and
/// ranking length (nodes `seed..seed + entries`), which sizes its
/// response frames.
struct Stub {
    kind: BackendKind,
    precision: f64,
    estimate_ns: f64,
    work: Duration,
    entries: u32,
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
            expected_precision: self.precision,
        })
    }

    fn query_with(
        &self,
        req: &QueryRequest,
        _ws: &mut QueryWorkspace,
    ) -> meloppr::core::Result<QueryOutcome> {
        if !self.work.is_zero() {
            std::thread::sleep(self.work);
        }
        Ok(QueryOutcome {
            ranking: (0..self.entries).map(|i| (req.seed + i, 1.0)).collect(),
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

/// N concurrent pipelined clients against a deterministic backend: every
/// response must be bit-identical to direct `BatchExecutor` execution of
/// the same requests.
#[test]
fn loopback_clients_match_direct_batch_execution() {
    const CLIENTS: u32 = 4;
    const PER_CLIENT: u32 = 8;

    let g = graph();
    let ppr = PprParams::new(0.85, 4, 10).unwrap();
    let router = Router::new().with_backend(Box::new(LocalPpr::new(&g, ppr).unwrap()));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 3,
            queue_capacity: 64,
            default_deadline_ms: 10_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    // The reference: the same requests served directly through a batch
    // executor on an independent instance of the same backend.
    let seed_of = |client: u32, i: u32| (client * 131 + i * 17) % g.num_nodes() as u32;
    let direct = LocalPpr::new(&g, ppr).unwrap();
    let mut reference = Vec::new();
    for client in 0..CLIENTS {
        let reqs: Vec<QueryRequest> = (0..PER_CLIENT)
            .map(|i| QueryRequest::new(seed_of(client, i)))
            .collect();
        let batch = BatchExecutor::new(2).unwrap().run(&direct, &reqs).unwrap();
        reference.push(batch.outcomes);
    }

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let reference = &reference[client as usize];
                scope.spawn(move || {
                    let mut conn = Client::connect(addr);
                    // Pipeline the whole batch, then collect out-of-order
                    // responses by id.
                    for i in 0..PER_CLIENT {
                        conn.send(&Request::Query(QuerySpec::new(
                            u64::from(i),
                            seed_of(client, i),
                        )));
                    }
                    let mut got = vec![None; PER_CLIENT as usize];
                    for _ in 0..PER_CLIENT {
                        match conn.recv() {
                            Response::Ranking {
                                id,
                                backend,
                                ranking,
                                ..
                            } => {
                                assert_eq!(backend, BackendKind::LocalPpr);
                                got[id as usize] = Some(ranking);
                            }
                            other => panic!("client {client}: unexpected {other:?}"),
                        }
                    }
                    for (i, ranking) in got.into_iter().enumerate() {
                        // Scores survive the text protocol bit-identically
                        // (shortest-roundtrip f64 formatting).
                        assert_eq!(
                            ranking.unwrap(),
                            reference[i].ranking,
                            "client {client} query {i} diverged from direct execution"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        server.shutdown();
        serve.join().unwrap().unwrap();
    });

    let snapshot = server.telemetry();
    assert_eq!(snapshot.completed, u64::from(CLIENTS * PER_CLIENT));
    assert_eq!(snapshot.shed, 0);
    assert_eq!(snapshot.errors, 0);
}

/// A pipelined flood against a single slow worker: the bounded queue
/// hits its cap and never exceeds it, overflow is answered with typed
/// `queue-full` rejections, accepted work still meets its deadline, and
/// shutdown completes without deadlock.
#[test]
fn saturation_sheds_with_bounded_queue_and_clean_shutdown() {
    const QUEUE: usize = 4;
    const BURST: u64 = 60;
    const DEADLINE_MS: f64 = 5_000.0;

    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,               // claims 1 ms
        work: Duration::from_millis(3), // actually 3 ms
        entries: 1,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            queue_capacity: QUEUE,
            default_deadline_ms: DEADLINE_MS,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        for id in 0..BURST {
            conn.send(&Request::Query(QuerySpec::new(id, id as u32)));
        }
        let (mut served, mut shed) = (0u64, 0u64);
        for _ in 0..BURST {
            match conn.recv() {
                Response::Ranking { .. } => served += 1,
                Response::Rejected { reason, .. } => {
                    assert_eq!(reason, RejectReason::QueueFull);
                    shed += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(served + shed, BURST);
        assert!(
            shed > 0,
            "burst of {BURST} into a queue of {QUEUE} never shed"
        );
        assert!(served > 0, "everything was shed");

        // SHUTDOWN over the protocol answers with final stats and winds
        // the server down; serve() returning is the no-deadlock proof.
        conn.send(&Request::Shutdown);
        match conn.recv() {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        serve.join().unwrap().unwrap();
    });

    let snapshot = server.telemetry();
    assert_eq!(snapshot.shed, snapshot.shed.max(1));
    assert_eq!(snapshot.completed + snapshot.shed, BURST);
    // The queue really was bounded: its high-water mark sits exactly at
    // the configured cap, never beyond.
    assert_eq!(snapshot.queue_high_water, QUEUE);
    // Accepted requests stayed comfortably inside their deadline even at
    // p99 (bounded queue wait: at most QUEUE × service time).
    assert!(
        snapshot.p99_ms <= DEADLINE_MS,
        "p99 {} ms blew the {} ms deadline",
        snapshot.p99_ms,
        DEADLINE_MS
    );
    assert_eq!(snapshot.deadline_missed, 0);
}

/// Deadline scheduling: slack routes to the precise backend, late-risk
/// routes to the cheap one, hopeless fails fast (`deadline-unmeetable`),
/// and deadlines that expire in the queue come back `deadline-exceeded`.
#[test]
fn deadlines_route_degrade_and_fast_fail() {
    let router = Router::new()
        .with_backend(Box::new(Stub {
            kind: BackendKind::ExactPower,
            precision: 1.0,
            estimate_ns: 5e7, // 50 ms, precise
            work: Duration::from_millis(50),
            entries: 1,
        }))
        .with_backend(Box::new(Stub {
            kind: BackendKind::MonteCarlo,
            precision: 0.5,
            estimate_ns: 2e5, // 0.2 ms, cheap
            work: Duration::ZERO,
            entries: 1,
        }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            default_deadline_ms: 1_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);

        // Plenty of slack: precision wins, the expensive backend serves.
        conn.send(&Request::Query(
            QuerySpec::new(1, 7).with_deadline_ms(500.0),
        ));
        match conn.recv() {
            Response::Ranking { id, backend, .. } => {
                assert_eq!(id, 1);
                assert_eq!(backend, BackendKind::ExactPower);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Late risk: 5 ms of slack excludes the 50 ms backend, so the
        // query degrades to the cheaper backend instead of missing.
        conn.send(&Request::Query(QuerySpec::new(2, 7).with_deadline_ms(5.0)));
        match conn.recv() {
            Response::Ranking { id, backend, .. } => {
                assert_eq!(id, 2);
                assert_eq!(backend, BackendKind::MonteCarlo);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Hopeless: no backend predicts finishing in 150 µs — typed
        // fast-fail, carrying the cheapest estimate (unless the deadline
        // already lapsed before admission ran, where no estimate exists).
        conn.send(&Request::Query(QuerySpec::new(3, 7).with_deadline_ms(0.15)));
        match conn.recv() {
            Response::Rejected {
                id,
                reason,
                predicted_us,
                ..
            } => {
                assert_eq!(id, 3);
                assert_eq!(reason, RejectReason::DeadlineUnmeetable);
                assert!(
                    predicted_us.is_none() || predicted_us == Some(200),
                    "unexpected prediction {predicted_us:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }

        // Queue expiry: a 50 ms job occupies the single worker, so a
        // 10 ms-deadline request admitted behind it expires while queued
        // and is answered with a typed `deadline-exceeded`. The pause
        // ensures the long job is already executing (not still queued,
        // where EDF would serve the short-deadline request first).
        conn.send(&Request::Query(
            QuerySpec::new(4, 7).with_deadline_ms(900.0),
        ));
        std::thread::sleep(Duration::from_millis(20));
        conn.send(&Request::Query(QuerySpec::new(5, 7).with_deadline_ms(10.0)));
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..2 {
            match conn.recv() {
                Response::Ranking { id, backend, .. } => {
                    outcomes.insert(id, format!("ok:{backend}"));
                }
                Response::Rejected { id, reason, .. } => {
                    outcomes.insert(id, format!("rejected:{reason}"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(outcomes[&4], "ok:exact-power");
        assert_eq!(outcomes[&5], "rejected:deadline-exceeded");

        // Liveness and garbage handling while we're connected.
        conn.send(&Request::Ping);
        assert_eq!(conn.recv(), Response::Pong);
        write_frame(&mut conn.stream, "FROBNICATE the server").unwrap();
        match conn.recv() {
            Response::Error { id, .. } => assert_eq!(id, 0),
            other => panic!("unexpected {other:?}"),
        }
        // Hostile deadlines (inf / astronomical) must come back as typed
        // protocol errors — not a Duration panic in a connection thread.
        for hostile in ["deadline_ms=inf", "deadline_ms=1e25"] {
            write_frame(&mut conn.stream, &format!("QUERY seed=7 {hostile}")).unwrap();
            match conn.recv() {
                Response::Error { message, .. } => {
                    assert!(message.contains("out of range"), "unexpected {message:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        server.shutdown();
        serve.join().unwrap().unwrap();
    });

    let snapshot = server.telemetry();
    assert_eq!(snapshot.rejected_unmeetable, 1);
    assert!(snapshot.deadline_missed >= 1);
    assert_eq!(snapshot.errors, 3); // one garbage frame, two hostile deadlines
    let routed = |kind: BackendKind| {
        snapshot
            .routes
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    };
    assert_eq!(routed(BackendKind::ExactPower), 2);
    assert_eq!(routed(BackendKind::MonteCarlo), 1);
}

/// Shutdown while a pipelined burst is still queued: every admitted
/// request must still get its response before the connection closes —
/// queued residents are drained, not dropped.
#[test]
fn shutdown_drains_inflight_responses() {
    const BURST: u64 = 16;

    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::from_millis(2),
        entries: 1,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            queue_capacity: BURST as usize,
            default_deadline_ms: 5_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        // Pipeline the burst and immediately ask for shutdown: the
        // SHUTDOWN frame is processed while most of the burst is still
        // queued behind the slow single worker.
        for id in 0..BURST {
            conn.send(&Request::Query(QuerySpec::new(id, id as u32)));
        }
        conn.send(&Request::Shutdown);
        let (mut outcomes, mut stats) = (0u64, 0u64);
        for _ in 0..=BURST {
            match conn.recv() {
                Response::Ranking { .. } | Response::Rejected { .. } => outcomes += 1,
                Response::Stats(_) => stats += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(outcomes, BURST, "admitted requests lost their responses");
        assert_eq!(stats, 1);
        serve.join().unwrap().unwrap();
    });
}

/// Mid-connection client failures: a peer that vanishes with responses
/// still owed and a peer that dies mid-frame are both counted as
/// aborted connections, their workers come back, and the server keeps
/// serving everyone else.
#[test]
fn client_failures_free_workers_and_count_aborts() {
    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::from_millis(40),
        entries: 1,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            default_deadline_ms: 10_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);

        // Disconnect with responses owed: pipeline a burst at the slow
        // single worker, give the server time to admit it, vanish. The
        // slow worker spaces the response writes out, so at least one
        // lands after the peer's RST and exposes the dead connection.
        {
            let mut doomed = Client::connect(addr);
            for id in 0..4 {
                doomed.send(&Request::Query(QuerySpec::new(id, 7)));
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        // Die mid-frame: promise 64 payload bytes, deliver 10, close.
        {
            let mut torn = TcpStream::connect(addr).unwrap();
            torn.write_all(&64u32.to_be_bytes()).unwrap();
            torn.write_all(b"QUERY seed").unwrap();
            torn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }

        // Both aborts surface asynchronously on their connection
        // threads; wait for the counters rather than racing them.
        let patience = Instant::now() + Duration::from_secs(10);
        while server.telemetry().aborted_connections < 2 {
            assert!(
                Instant::now() < patience,
                "client failures never counted: {:?}",
                server.telemetry()
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The worker pool survived both failures: a healthy client is
        // still served, behind the doomed burst it has to queue after.
        let mut conn = Client::connect(addr);
        conn.send(&Request::Ping);
        assert_eq!(conn.recv(), Response::Pong);
        conn.send(&Request::Query(QuerySpec::new(99, 3)));
        match conn.recv() {
            Response::Ranking { id, .. } => assert_eq!(id, 99),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        serve.join().unwrap().unwrap();
    });

    let snapshot = server.telemetry();
    assert_eq!(snapshot.aborted_connections, 2);
    // Every admitted request of the vanished client still executed to
    // completion (into the void) — the worker was freed, not wedged.
    assert_eq!(snapshot.completed, 5);
    assert_eq!(snapshot.errors, 0);
}

/// A finished answer leaves as soon as it is ready, not when the
/// connection's reader next wakes: with a one-second read tick and no
/// further frame from the client, only a writer that does not wait for
/// the reader delivers a 20 ms query in well under that second.
#[test]
fn responses_do_not_wait_for_the_read_tick() {
    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::from_millis(20),
        entries: 1,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            poll_interval: Duration::from_secs(1),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        {
            let mut conn = Client::connect(addr);
            let sent = Instant::now();
            conn.send(&Request::Query(QuerySpec::new(1, 7)));
            match conn.recv() {
                Response::Ranking { id, .. } => assert_eq!(id, 1),
                other => panic!("unexpected {other:?}"),
            }
            let waited = sent.elapsed();
            assert!(
                waited < Duration::from_millis(500),
                "a 20 ms query took {waited:?} to come back"
            );
        } // closing lets the reader exit at EOF instead of at its next tick
        server.shutdown();
        serve.join().unwrap().unwrap();
    });
}

/// Backpressure: a client that pipelines queries and never reads is not
/// read without bound. Its large responses fill the socket, the server
/// stops taking its frames once too many responses are owed, and the
/// queries it took settle far below what it sent — while another client
/// is still answered, dropping the silent one counts exactly one aborted
/// connection, and shutdown still completes.
#[test]
fn a_client_that_never_reads_is_throttled_without_starving_others() {
    const SENT: u64 = 300;
    const PER_BATCH: u64 = 20;
    // About 160 KB per response frame.
    const ENTRIES: u32 = 20_000;

    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::ZERO,
        entries: ENTRIES,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            default_deadline_ms: 60_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    // Every query the server took was either accepted or shed.
    let taken = || {
        let snapshot = server.telemetry();
        snapshot.accepted + snapshot.shed
    };

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);

        let mut silent = Client::connect(addr);
        for batch in 0..SENT / PER_BATCH {
            for i in 0..PER_BATCH {
                let id = batch * PER_BATCH + i;
                silent.send(&Request::Query(QuerySpec::new(id, 7)));
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        // Settled: no query taken over a quarter of a second.
        let mut settled = taken();
        loop {
            std::thread::sleep(Duration::from_millis(250));
            let now = taken();
            if now == settled {
                break;
            }
            settled = now;
        }
        assert!(
            settled < SENT / 2,
            "the server took {settled} of {SENT} queries from a client that never reads"
        );

        // Another client is still served in the meantime.
        let mut other = Client::connect(addr);
        other.send(&Request::Ping);
        assert_eq!(other.recv(), Response::Pong);
        other.send(&Request::Query(QuerySpec::new(1, 3)));
        match other.recv() {
            Response::Ranking { id, ranking, .. } => {
                assert_eq!(id, 1);
                assert_eq!(ranking.len(), ENTRIES as usize);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(taken(), settled + 1, "the throttled client was read again");
        assert_eq!(server.telemetry().aborted_connections, 0);

        // Dropping the silent client fails its writer's blocked write and
        // frees its paused reader.
        drop(silent);
        let patience = Instant::now() + Duration::from_secs(10);
        while server.telemetry().aborted_connections == 0 {
            assert!(
                Instant::now() < patience,
                "the dropped client was never counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(other);
        server.shutdown();
        serve.join().unwrap().unwrap();
    });

    assert_eq!(server.telemetry().aborted_connections, 1);
}

/// A response too large to frame cannot be sent: its connection is
/// closed (the client reads EOF instead of waiting forever) and counted
/// as aborted, and the server keeps serving other clients.
#[test]
fn an_unframeable_response_closes_its_connection() {
    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::ZERO,
        // About 1.2 MB encoded, above the 1 MiB frame cap.
        entries: 150_000,
    }));
    let server = PprServer::bind(
        &router,
        ServerConfig {
            workers: 1,
            default_deadline_ms: 60_000.0,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let _guard = ShutdownOnDrop(&server);
        let mut conn = Client::connect(addr);
        conn.stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.send(&Request::Query(QuerySpec::new(1, 7)));
        match conn.reader.read_event(&mut conn.stream) {
            Ok(FrameEvent::Eof) | Err(_) => {}
            Ok(FrameEvent::Idle) => panic!("the connection stayed open"),
            Ok(FrameEvent::Frame(frame)) => panic!("unexpected {}-byte frame", frame.len()),
        }
        let patience = Instant::now() + Duration::from_secs(10);
        while server.telemetry().aborted_connections == 0 {
            assert!(
                Instant::now() < patience,
                "the connection was never counted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut other = Client::connect(addr);
        other.send(&Request::Ping);
        assert_eq!(other.recv(), Response::Pong);
        server.shutdown();
        serve.join().unwrap().unwrap();
    });

    assert_eq!(server.telemetry().aborted_connections, 1);
}

/// Shutdown must unblock the accept loop even for a wildcard bind,
/// where the self-connect wake-up targets the loopback address.
#[test]
fn shutdown_wakes_wildcard_binds() {
    let router = Router::new().with_backend(Box::new(Stub {
        kind: BackendKind::MonteCarlo,
        precision: 0.9,
        estimate_ns: 1e6,
        work: Duration::ZERO,
        entries: 1,
    }));
    let server = PprServer::bind(&router, ServerConfig::default(), "0.0.0.0:0").unwrap();
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        serve.join().unwrap().unwrap();
    });
}
