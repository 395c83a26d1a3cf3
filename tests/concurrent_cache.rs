//! Concurrent shared-cache suite: N worker threads hammering one
//! [`ConcurrentSubgraphCache`] must (a) never change query results
//! relative to the sequential uncached path, and (b) extract each hot
//! ball at most once (singleflight), asserted via the always-on
//! extraction counter.

use std::sync::Arc;

use proptest::prelude::*;

use meloppr::backend::{BatchExecutor, Meloppr, QueryRequest};
use meloppr::graph::generators;
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::{
    bfs_ball, AdmissionPolicy, CacheBudget, CacheConsumer, CachedBall, CompactBall,
    ConcurrentSubgraphCache, CsrGraph, ExtractScratch, MelopprEngine, MelopprParams, NodeId,
    PprBackend, PprParams, SelectionStrategy, Subgraph,
};

fn staged(selection: SelectionStrategy) -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 15).unwrap(),
        stages: vec![3, 3],
        selection,
        ..MelopprParams::paper_defaults()
    }
}

/// A demand lookup through throwaway scratch buffers. These caches have
/// no cold tier, so a miss serves the full extraction it made and a hit
/// the compact resident.
fn get(
    cache: &ConcurrentSubgraphCache,
    g: &CsrGraph,
    node: NodeId,
    depth: u32,
    consumer: &CacheConsumer,
) -> (CachedBall, usize) {
    cache
        .get_ball_with_as(
            g,
            node,
            depth,
            &mut ExtractScratch::new(),
            &mut Vec::new(),
            consumer,
        )
        .unwrap()
}

/// The compact form of a served ball (a miss serves it full).
fn compact(ball: &CachedBall) -> CompactBall {
    match ball {
        CachedBall::Full(sub) => CompactBall::from_subgraph(sub).unwrap(),
        CachedBall::Compact(ball) => (**ball).clone(),
    }
}

/// Tasks one staged outcome ran: its seed's, plus one per expanded
/// child — each is exactly one cache lookup.
fn tasks(outcome: &meloppr::QueryOutcome) -> u64 {
    1 + outcome
        .stats
        .stages
        .iter()
        .map(|s| s.expanded as u64)
        .sum::<u64>()
}

/// Raw cache stress: 8 threads × the same key set, started together.
/// Every thread must observe identical sub-graph content, and the cache
/// must have extracted each distinct key exactly once.
#[test]
fn stress_raw_cache_singleflight_and_consistency() {
    let g = PaperGraph::G2Cora.generate_scaled(0.25, 11).unwrap();
    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let keys: Vec<(NodeId, u32)> = (0..48u32)
        .filter(|&v| (v as usize) < g.num_nodes() && g.degree(v) > 0)
        .map(|v| (v, 1 + v % 3))
        .collect();
    let threads = 8;
    let rounds = 4;
    let consumer = CacheConsumer::default();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = &cache;
            let g = &g;
            let keys = &keys;
            let consumer = &consumer;
            scope.spawn(move || {
                // Each thread walks the keys from a different starting
                // offset so lookups interleave misses and hits.
                for round in 0..rounds {
                    for i in 0..keys.len() {
                        let (node, depth) = keys[(i + t * 7 + round) % keys.len()];
                        let (served, work) = get(cache, g, node, depth, consumer);
                        let ball = bfs_ball(g, node, depth).unwrap();
                        let fresh = Subgraph::extract(g, &ball).unwrap();
                        let served = compact(&served);
                        assert_eq!(served.to_global(served.seed_local()), node);
                        assert_eq!(served, CompactBall::from_subgraph(&fresh).unwrap());
                        // Work is charged only to the one extracting call.
                        assert!(work == 0 || work == ball.edges_scanned);
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let distinct = keys.len() as u64;
    assert_eq!(
        stats.lookups(),
        (threads * rounds * keys.len()) as u64,
        "every lookup accounted for"
    );
    // Singleflight: with capacity ample and no evictions, each distinct
    // key is extracted at most once no matter how many threads raced.
    assert_eq!(stats.evictions, 0);
    assert!(
        stats.extractions <= distinct,
        "duplicate extraction: {} extractions for {distinct} distinct keys",
        stats.extractions
    );
    assert_eq!(stats.extractions, cache.len() as u64);
    assert_eq!(stats.misses, stats.extractions);
}

/// Engine-level stress: 6 threads serving the same query list through one
/// shared-cache backend; every ranking must be bit-identical to the
/// sequential uncached path, and hot balls must be extracted once.
#[test]
fn stress_shared_backend_matches_sequential_uncached() {
    let g = PaperGraph::G1Citeseer.generate_scaled(0.25, 5).unwrap();
    let params = staged(SelectionStrategy::TopFraction(0.1));
    let uncached = Meloppr::new(&g, params.clone()).unwrap();
    let seeds: Vec<NodeId> = (0..12u32).collect();
    let expected: Vec<_> = seeds
        .iter()
        .map(|&s| uncached.query(&QueryRequest::new(s)).unwrap().ranking)
        .collect();

    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let shared = Meloppr::new(&g, params)
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));
    let threads = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = &shared;
            let seeds = &seeds;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..seeds.len() {
                        let idx = (i + t + round) % seeds.len();
                        let outcome = shared.query(&QueryRequest::new(seeds[idx])).unwrap();
                        assert_eq!(
                            outcome.ranking, expected[idx],
                            "shared-cache result diverged for seed {}",
                            seeds[idx]
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.evictions, 0);
    // Each distinct (node, depth) ball extracted at most once across all
    // threads and rounds; the other residents are stored stage results.
    assert_eq!(
        stats.extractions,
        (cache.len() - cache.resident_results()) as u64
    );
    // 6 threads x 3 rounds x 12 queries all re-request the same balls:
    // the overwhelming majority of lookups must be free.
    assert!(stats.hit_rate() > 0.9, "hit rate too low: {:?}", stats);
}

/// Batch-executor equivalence on a fixed workload, all worker counts.
#[test]
fn shared_cache_batch_equals_per_query_path() {
    let g = PaperGraph::G2Cora.generate_scaled(0.2, 17).unwrap();
    let params = staged(SelectionStrategy::TopFraction(0.1));
    let uncached = Meloppr::new(&g, params.clone()).unwrap();
    let reqs: Vec<QueryRequest> = (0..16).map(QueryRequest::new).collect();
    let expected: Vec<_> = reqs.iter().map(|r| uncached.query(r).unwrap()).collect();

    for workers in [1usize, 2, 4, 7] {
        let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
        let shared = Meloppr::new(&g, params.clone())
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        let batch = BatchExecutor::new(workers)
            .unwrap()
            .run(&shared, &reqs)
            .unwrap();
        for (got, want) in batch.outcomes.iter().zip(&expected) {
            assert_eq!(got.ranking, want.ranking, "workers = {workers}");
            // Every uncached task either diffused or was served by a
            // stored stage result, stage by stage; the cache never adds
            // BFS work.
            for (got, want) in got.stats.stages.iter().zip(&want.stats.stages) {
                assert_eq!(got.diffusions + got.reused, want.diffusions);
            }
            assert!(got.stats.bfs_edges_scanned <= want.stats.bfs_edges_scanned);
        }
        let cache_stats = batch.stats.cache.expect("cache stats reported");
        assert_eq!(
            cache_stats.lookups(),
            batch.outcomes.iter().map(tasks).sum::<u64>()
        );
        let reused: usize = batch
            .outcomes
            .iter()
            .flat_map(|o| &o.stats.stages)
            .map(|s| s.reused)
            .sum();
        assert_eq!(cache_stats.reuse_hits, reused as u64);
        assert_eq!(
            cache_stats.extractions,
            (cache.len() - cache.resident_results()) as u64
        );
    }
}

/// Per-consumer attribution under concurrency: two batch executors (each
/// driving its own shared-cache backend) plus a raw third consumer all
/// hammer **one** cache at the same time. Every `BatchStats::cache`
/// delta must sum to exactly that executor's own lookups (one per
/// stage task), and the raw consumer must see exactly its own — no
/// cross-attribution, which the old global-counter bracketing could not
/// guarantee.
#[test]
fn concurrent_executors_attribute_exactly_their_own_lookups() {
    let g = PaperGraph::G1Citeseer.generate_scaled(0.25, 5).unwrap();
    let params = staged(SelectionStrategy::TopFraction(0.1));
    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let backend_a = Meloppr::new(&g, params.clone())
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));
    let backend_b = Meloppr::new(&g, params.clone())
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));
    // Overlapping but distinct workloads so both hot and cold lookups
    // race across consumers.
    let reqs_a: Vec<QueryRequest> = (0..14).map(QueryRequest::new).collect();
    let reqs_b: Vec<QueryRequest> = (7..21).map(QueryRequest::new).collect();
    let raw_keys: Vec<NodeId> = (0..24u32).filter(|&v| g.degree(v) > 0).collect();
    let raw_consumer = CacheConsumer::new(64);

    let (batch_a, batch_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            BatchExecutor::new(3)
                .unwrap()
                .run(&backend_a, &reqs_a)
                .unwrap()
        });
        let b = scope.spawn(|| {
            BatchExecutor::new(2)
                .unwrap()
                .run(&backend_b, &reqs_b)
                .unwrap()
        });
        let raw = scope.spawn(|| {
            for _ in 0..2 {
                for &node in &raw_keys {
                    get(&cache, &g, node, 2, &raw_consumer);
                }
            }
        });
        raw.join().unwrap();
        (a.join().unwrap(), b.join().unwrap())
    });

    let task_lookups =
        |batch: &meloppr::BatchOutcome| -> u64 { batch.outcomes.iter().map(tasks).sum() };
    let delta_a = batch_a.stats.cache.expect("cache stats for executor A");
    let delta_b = batch_b.stats.cache.expect("cache stats for executor B");
    assert_eq!(
        delta_a.lookups(),
        task_lookups(&batch_a),
        "executor A's delta must count exactly its own lookups"
    );
    assert_eq!(
        delta_b.lookups(),
        task_lookups(&batch_b),
        "executor B's delta must count exactly its own lookups"
    );
    let raw_stats = raw_consumer.stats();
    assert_eq!(
        raw_stats.lookups(),
        (2 * raw_keys.len()) as u64,
        "the raw consumer must count exactly its own lookups"
    );
    // Nothing is lost or double-counted: the global counters are the sum
    // of the three consumers (no anonymous traffic in this test).
    let global = cache.stats();
    assert_eq!(
        global.lookups(),
        delta_a.lookups() + delta_b.lookups() + raw_stats.lookups()
    );
    assert_eq!(
        global.extractions,
        delta_a.extractions + delta_b.extractions + raw_stats.extractions
    );
}

/// Windowed-rate convergence after a synthetic traffic shift, at the
/// engine level: hot traffic fills the backend's consumer window with
/// hits; a burst of cold seeds must collapse the windowed rate within
/// one window while the cumulative rate stays stale.
#[test]
fn windowed_rate_converges_where_cumulative_stays_stale() {
    let g = PaperGraph::G2Cora.generate_scaled(0.25, 17).unwrap();
    let params = staged(SelectionStrategy::TopFraction(0.1));
    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let shared = Meloppr::new(&g, params)
        .unwrap()
        .with_cache_window(48)
        .with_shared_cache(Arc::clone(&cache));
    let consumer = shared.cache_consumer().expect("shared mode has a consumer");

    // Hot phase: a handful of seeds served repeatedly.
    let hot: Vec<QueryRequest> = (0..4).cycle().take(40).map(QueryRequest::new).collect();
    BatchExecutor::new(2).unwrap().run(&shared, &hot).unwrap();
    let warm_windowed = consumer.windowed_hit_rate();
    assert!(warm_windowed > 0.6, "hot phase must warm the window");

    // Shift: every subsequent query uses a never-seen seed. Keep going
    // until the shift itself has accumulated two windows of cold misses.
    let base_misses = consumer.stats().misses;
    let mut seed = 500u32;
    while consumer.stats().misses - base_misses < consumer.window_len() as u64 * 2 {
        shared.query(&QueryRequest::new(seed)).unwrap();
        seed += 1;
    }
    let windowed = consumer.windowed_hit_rate();
    let cumulative = consumer.stats().hit_rate();
    assert!(
        windowed < cumulative,
        "windowed {windowed} must fall below stale cumulative {cumulative}"
    );
    assert!(
        windowed < warm_windowed,
        "the window must forget the hot phase"
    );
}

/// Admission property: rejected balls never evict admitted ones. With a
/// `MaxNodes` gate, interleaving over-budget lookups with hot in-budget
/// traffic must cause zero evictions and zero residency change, and
/// every admitted key must keep hitting.
#[test]
fn rejected_balls_never_evict_admitted_ones() {
    let g = generators::path(256).unwrap();
    // Depth-1 path balls have ≤ 3 nodes; depth-40 balls have ~81.
    let cache = Arc::new(
        ConcurrentSubgraphCache::with_shards(8, 1).with_admission(AdmissionPolicy::MaxNodes(8)),
    );
    let consumer = CacheConsumer::new(32);
    let admitted: Vec<NodeId> = (40..48u32).collect();
    for &node in &admitted {
        get(&cache, &g, node, 1, &consumer);
    }
    assert_eq!(cache.len(), admitted.len());
    let resident_before = cache.len();

    // A storm of giant one-off balls, all over budget.
    for seed in [100u32, 120, 140, 160, 180] {
        let (ball, work) = get(&cache, &g, seed, 40, &consumer);
        assert!(ball.num_nodes() > 8);
        assert!(work > 0, "rejected balls are served fresh every time");
    }
    let stats = cache.stats();
    assert_eq!(stats.rejected_admissions, 5);
    assert_eq!(stats.evictions, 0, "rejected balls must not evict");
    assert_eq!(cache.len(), resident_before, "residency unchanged");
    // Every admitted ball still hits.
    for &node in &admitted {
        let (_, work) = get(&cache, &g, node, 1, &consumer);
        assert_eq!(work, 0, "admitted ball {node} was displaced");
    }
}

/// Regression for the per-shard capacity rounding: 16 entries striped
/// over 8 shards used to admit up to `capacity + shards - 1` residents
/// (each shard enforced `ceil(16/8)` locally). The global reservation
/// counter must hold the exact bound under concurrent inserts — a full
/// cache never exceeds its configured budget, not even transiently (the
/// CAS reservation makes overshoot impossible, so the post-join check
/// plus mid-run byte probes below cover it).
#[test]
fn full_cache_never_exceeds_entry_budget_under_concurrent_inserts() {
    let g = generators::path(4096).unwrap();
    let cache = Arc::new(ConcurrentSubgraphCache::with_shards(16, 8));
    let threads = 8;
    let consumer = CacheConsumer::default();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = &cache;
            let g = &g;
            let consumer = &consumer;
            scope.spawn(move || {
                for i in 0..64u32 {
                    let seed = (t as u32) * 64 + i;
                    get(cache, g, seed, 1, consumer);
                    // Mid-churn, the global bound must already hold.
                    assert!(
                        cache.resident_entries() <= 16,
                        "entry budget exceeded under concurrency"
                    );
                }
            });
        }
    });
    assert_eq!(cache.resident_entries(), 16, "a full cache fills exactly");
    assert!(cache.len() <= 16);
    assert_eq!(cache.resident_bytes(), cache.resident_bytes_exact());
    let stats = cache.stats();
    assert_eq!(stats.extractions, 8 * 64);
    assert_eq!(stats.evictions, 8 * 64 - 16);
}

/// Byte budgets hold under concurrent churn too: the resident-bytes
/// counter (which admission reserves against) never exceeds the bound
/// mid-run, and agrees with the recomputed published sum at quiesce.
#[test]
fn byte_budget_holds_under_concurrent_churn() {
    let g = generators::path(2048).unwrap();
    let probe = Subgraph::extract(&g, &bfs_ball(&g, 100, 1).unwrap()).unwrap();
    let budget = probe.memory_bytes().total() * 10; // room for ~10 small balls
    let cache = Arc::new(ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(
        budget,
    )));
    let consumer = CacheConsumer::default();
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let cache = &cache;
            let g = &g;
            let consumer = &consumer;
            scope.spawn(move || {
                for i in 0..96u32 {
                    // Mixed depths: ball sizes vary, so byte-aware
                    // eviction has to evict a varying number of victims
                    // per admission.
                    let seed = ((t as u32) * 313 + i * 7) % 2000;
                    let depth = 1 + (i % 3);
                    get(cache, g, seed, depth, consumer);
                    assert!(
                        cache.resident_bytes() <= budget,
                        "byte budget exceeded under concurrency"
                    );
                }
            });
        }
    });
    assert!(cache.resident_bytes() <= budget);
    assert_eq!(
        cache.resident_bytes(),
        cache.resident_bytes_exact(),
        "counter must equal the sum over published entries"
    );
    assert!(cache.stats().evictions > 0, "churn must evict");
}

/// Strategy: a connected-ish random simple graph (as `tests/properties.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (8usize..40, any::<u64>()).prop_map(|(n, seed)| {
        generators::locality_preferential(n, (n - 1) + n / 2, 0.5, n / 2 + 1, seed)
            .expect("valid generator parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random graphs, stage splits and selections, serving
    /// a batch through a shared-cache `BatchExecutor` returns exactly the
    /// rankings of the per-query uncached path.
    #[test]
    fn prop_shared_cache_batch_matches_per_query(
        g in arb_graph(),
        fraction in 0.05f64..0.5,
        workers in 1usize..5,
        capacity in 4usize..64,
    ) {
        let params = staged(SelectionStrategy::TopFraction(fraction));
        let uncached = Meloppr::new(&g, params.clone()).unwrap();
        let reqs: Vec<QueryRequest> =
            (0..g.num_nodes().min(10) as u32).map(QueryRequest::new).collect();
        let expected: Vec<_> = reqs.iter().map(|r| uncached.query(r).unwrap()).collect();

        // Small capacities force evictions mid-batch; results must hold.
        let cache = Arc::new(ConcurrentSubgraphCache::new(capacity));
        let shared = Meloppr::new(&g, params)
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        let batch = BatchExecutor::new(workers).unwrap().run(&shared, &reqs).unwrap();
        for (got, want) in batch.outcomes.iter().zip(&expected) {
            prop_assert_eq!(&got.ranking, &want.ranking);
        }
        let stats = batch.stats.cache.expect("cache stats");
        prop_assert_eq!(stats.lookups(), stats.hits + stats.shared + stats.misses);
        prop_assert!(cache.len() <= capacity + cache.shard_count());
    }

    /// Property: a `MaxNodes` admission gate never changes answers, every
    /// demand miss still extracts, and rejected balls never push the
    /// cache over budget or evict admitted residents.
    #[test]
    fn prop_admission_preserves_answers_and_counters(
        g in arb_graph(),
        fraction in 0.05f64..0.5,
        budget in 1usize..16,
        workers in 1usize..4,
    ) {
        let params = staged(SelectionStrategy::TopFraction(fraction));
        let uncached = Meloppr::new(&g, params.clone()).unwrap();
        let reqs: Vec<QueryRequest> =
            (0..g.num_nodes().min(8) as u32).map(QueryRequest::new).collect();
        let expected: Vec<_> = reqs.iter().map(|r| uncached.query(r).unwrap()).collect();

        // Ample for every ball and stage result of the batch (≤ 40
        // nodes, two stages).
        let cache = Arc::new(
            ConcurrentSubgraphCache::with_shards(256, 1)
                .with_admission(AdmissionPolicy::MaxNodes(budget)),
        );
        let shared = Meloppr::new(&g, params)
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        let batch = BatchExecutor::new(workers).unwrap().run(&shared, &reqs).unwrap();
        for (got, want) in batch.outcomes.iter().zip(&expected) {
            prop_assert_eq!(&got.ranking, &want.ranking);
        }
        let global = cache.stats();
        // Every demand miss extracted (no warming in this test)…
        prop_assert_eq!(global.misses, global.extractions);
        // …and with capacity ample, nothing rejected caused an eviction.
        prop_assert_eq!(global.evictions, 0);
        // Exactly the balls and the stage results of the tasks within
        // the node gate are resident. The cached batch runs the uncached
        // engine's task tree, so its traces name every task and ball.
        let engine = MelopprEngine::new(&g, staged(SelectionStrategy::TopFraction(fraction)))
            .unwrap();
        let traces: Vec<_> = reqs
            .iter()
            .map(|r| engine.query(r.seed).unwrap().stats.trace)
            .collect();
        let admitted: Vec<_> = traces
            .iter()
            .flatten()
            .filter(|rec| rec.ball_nodes <= budget)
            .collect();
        let balls: std::collections::BTreeSet<_> = admitted.iter().map(|rec| rec.node).collect();
        let results: std::collections::BTreeSet<_> =
            admitted.iter().map(|rec| (rec.node, rec.stage)).collect();
        prop_assert_eq!(cache.resident_results(), results.len());
        prop_assert_eq!(cache.len() - cache.resident_results(), balls.len());
    }

    /// Property: the resident-bytes counter always equals the sum of
    /// `memory_bytes().total()` over published entries, under random
    /// insert/evict/reject churn across threads — and never exceeds a
    /// configured byte budget.
    #[test]
    fn prop_resident_bytes_counter_matches_published_sum(
        g in arb_graph(),
        budget_balls in 2usize..12,
        max_nodes in 4usize..24,
        threads in 1usize..4,
        seed_stride in 1u32..7,
    ) {
        // Budget in bytes, derived from a probe ball so it scales with
        // the random graph; MaxNodes admission adds reject churn.
        let probe = Subgraph::extract(&g, &bfs_ball(&g, 0, 1).unwrap()).unwrap();
        let budget = probe.memory_bytes().total() * budget_balls;
        let cache = Arc::new(
            ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::bytes(budget), 4)
                .with_admission(AdmissionPolicy::MaxNodes(max_nodes)),
        );
        let n = g.num_nodes() as u32;
        let consumer = CacheConsumer::default();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let g = &g;
                let consumer = &consumer;
                scope.spawn(move || {
                    for i in 0..48u32 {
                        let seed = (t as u32 + i * seed_stride) % n;
                        let depth = i % 3;
                        get(cache, g, seed, depth, consumer);
                    }
                });
            }
        });
        prop_assert_eq!(cache.resident_bytes(), cache.resident_bytes_exact());
        prop_assert!(cache.resident_bytes() <= budget);
        // Nothing over the node gate ever became resident.
        let global = cache.stats();
        prop_assert!(global.misses == global.extractions);
    }
}
