//! Cache-effectiveness smoke test — run in release mode by CI alongside
//! the allocation smoke test.
//!
//! The shared sub-graph cache exists for one reason: under skewed real
//! traffic, most queries should skip ball extraction entirely. This test
//! pins that end to end with deterministic work counters (the bench host
//! has one core, so wall clock proves nothing):
//!
//! * a Zipf(1.0) batch of 256 queries over a corpus graph must report at
//!   least 2× fewer ball extractions than queries issued;
//! * `prepare()` warm-up extractions must **not** appear in the first
//!   batch's consumer-attributed miss delta (warming is not demand, so
//!   it must not deflate the hit rate `estimate()` feeds the router);
//! * re-serving the warmed batch must charge **zero** BFS work and run
//!   **zero** diffusions — every task is served by its stored stage
//!   result;
//! * shared-cache rankings must be bit-identical to the uncached
//!   sequential path, and every uncached task is either diffused or
//!   reused, stage by stage.

use std::sync::Arc;

use meloppr::backend::{BatchExecutor, Meloppr, QueryRequest};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::{ConcurrentSubgraphCache, MelopprParams, PprBackend, PprParams, SelectionStrategy};
use meloppr_bench::sample_zipf_queries;

#[test]
fn skewed_batch_extracts_less_than_half_its_queries() {
    let g = PaperGraph::G1Citeseer.generate_scaled(0.3, 42).unwrap();
    // Hot-hub traffic: 256 queries, Zipf(1.0) over the 16 hottest seeds.
    // TopCount(4) bounds the key space (each distinct seed contributes at
    // most 1 stage-one + 4 stage-two balls), making the extraction bound
    // provable rather than statistical.
    let params = MelopprParams {
        ppr: PprParams::new(0.85, 6, 20).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopCount(4),
        ..MelopprParams::paper_defaults()
    };
    let queries = 256usize;
    let mix = sample_zipf_queries(&g, queries, 16, 1.0, 42);
    assert_eq!(mix.len(), queries);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();

    // Ground truth: uncached sequential path.
    let uncached = Meloppr::new(&g, params.clone()).unwrap();
    let expected: Vec<_> = reqs.iter().map(|r| uncached.query(r).unwrap()).collect();

    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let mut shared = Meloppr::new(&g, params)
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));

    // Warm up through prepare(): probe-seed balls are extracted, but no
    // lookup is counted anywhere — the consumer's history stays empty.
    shared.prepare().unwrap();
    let warmed = cache.stats();
    assert!(warmed.extractions > 0, "prepare must pre-extract balls");
    assert_eq!(warmed.lookups(), 0, "warming must not count as lookups");
    let consumer = shared.cache_consumer().expect("shared mode has a consumer");
    assert_eq!(
        consumer.stats().lookups(),
        0,
        "warm-up extractions leaked into the consumer's lookup counters"
    );

    let batch = BatchExecutor::new(4).unwrap().run(&shared, &reqs).unwrap();

    // Bit-identical rankings; each uncached task either diffused or
    // was served by a stored stage result.
    for (got, want) in batch.outcomes.iter().zip(&expected) {
        assert_eq!(got.ranking, want.ranking);
        for (got, want) in got.stats.stages.iter().zip(&want.stats.stages) {
            assert_eq!(got.diffusions + got.reused, want.diffusions);
        }
    }

    // The headline: ≥2× fewer ball extractions than queries issued.
    let stats = batch.stats.cache.expect("shared cache attached");
    assert!(
        stats.extractions * 2 <= queries as u64,
        "cache ineffective: {} extractions for {queries} queries",
        stats.extractions
    );
    // The per-batch delta is consumer-attributed: it must cover exactly
    // this batch's lookups (one per task: the seed's, plus one per
    // expanded child), none of the warm-up extractions; its reuse hits
    // are exactly the tasks the outcomes report as reused.
    let task_lookups: usize = batch
        .outcomes
        .iter()
        .map(|o| 1 + o.stats.stages.iter().map(|s| s.expanded).sum::<usize>())
        .sum();
    assert_eq!(
        stats.lookups(),
        task_lookups as u64,
        "batch delta must count exactly its own lookups"
    );
    let reused: usize = batch
        .outcomes
        .iter()
        .flat_map(|o| &o.stats.stages)
        .map(|s| s.reused)
        .sum();
    assert_eq!(stats.reuse_hits, reused as u64);
    assert_eq!(
        stats.misses, stats.extractions,
        "warm-up extractions must not appear in the batch's miss delta"
    );
    assert_eq!(
        cache.stats().evictions,
        0,
        "capacity must hold the working set"
    );
    assert_eq!(
        cache.stats().extractions,
        (cache.len() - cache.resident_results()) as u64,
        "singleflight held (warm-ups included)"
    );

    // The warmed batch is served by stored stage results: it extracts
    // nothing, scans nothing and diffuses nothing.
    let again = BatchExecutor::new(4).unwrap().run(&shared, &reqs).unwrap();
    let delta = again.stats.cache.expect("shared cache attached");
    assert_eq!(delta.extractions, 0, "warm batch re-extracted a ball");
    assert_eq!(delta.misses, 0);
    assert_eq!(
        delta.reuse_hits,
        delta.lookups(),
        "a warm task missed its result"
    );
    assert_eq!(again.stats.bfs_edges_scanned, 0, "a hit charged BFS work");
    assert_eq!(again.stats.total_diffusions, 0, "a warm task diffused");
    for (got, want) in again.outcomes.iter().zip(&expected) {
        assert_eq!(got.ranking, want.ranking);
    }
}
