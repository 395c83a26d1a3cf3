//! Memory-budget smoke suite — run in release mode by CI next to the
//! allocation and cache smoke tests.
//!
//! Byte-denominated memory governance is an *enforced invariant*, not a
//! report, in two places:
//!
//! * **Cache byte budgets** ([`CacheBudget::bytes`]): a Zipf batch
//!   served through a byte-budgeted shared cache must stay within its
//!   budget (the resident-bytes counter is the authority admission
//!   reserves against), with rankings bit-identical to the unbudgeted
//!   run — cache pressure changes work accounting, never answers.
//! * **Query working-set budgets** (`QueryBudget::max_memory_bytes`): a
//!   staged query under a byte budget must never report
//!   `peak_memory_bytes` above it. Over-budget balls are *segmented* —
//!   diffused exactly in frontier-contiguous pieces at full effective
//!   length — so `memory_limited` is reserved for the depth-0 floor,
//!   the only degradation segmentation cannot absorb; budgets that are
//!   never hit leave results bit-identical to unbudgeted runs.

use std::sync::Arc;

use meloppr::backend::{BatchExecutor, Meloppr, QueryRequest};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::{
    CacheBudget, ConcurrentSubgraphCache, MelopprParams, PprBackend, PprParams, SelectionStrategy,
};
use meloppr_bench::sample_zipf_queries;

fn staged_params() -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 20).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopCount(4),
        ..MelopprParams::paper_defaults()
    }
}

/// The headline cache invariant: a Zipf batch under a tight byte budget
/// stays within budget — resident-bytes telemetry never exceeds the
/// configured bound, the counter agrees with the recomputed sum, and no
/// ranking moves relative to the unbudgeted run (no query budget was
/// set, so no degradation was triggered anywhere).
#[test]
fn zipf_batch_under_byte_budget_stays_within_budget_bit_identically() {
    let g = PaperGraph::G1Citeseer.generate_scaled(0.3, 42).unwrap();
    let queries = 192usize;
    let mix = sample_zipf_queries(&g, queries, 24, 1.0, 42);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();

    // Reference: an unbudgeted shared cache (same code path, no byte
    // bound) — also tells us how many bytes the working set wants.
    let unbounded = Arc::new(ConcurrentSubgraphCache::new(4096));
    let reference = Meloppr::new(&g, staged_params())
        .unwrap()
        .with_shared_cache(Arc::clone(&unbounded));
    let expected = BatchExecutor::new(4)
        .unwrap()
        .run(&reference, &reqs)
        .unwrap();
    let full_bytes = unbounded.resident_bytes();
    assert!(full_bytes > 0);

    // Budget: a third of the full working set — tight enough to force
    // byte-aware eviction mid-batch.
    let budget = (full_bytes / 3).max(1);
    let cache = Arc::new(ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(
        budget,
    )));
    let backend = Meloppr::new(&g, staged_params())
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));
    let batch = BatchExecutor::new(4).unwrap().run(&backend, &reqs).unwrap();

    // Within budget: the exact counter (what admission reserves against)
    // and the recomputed per-entry sum agree, and neither exceeds the
    // configured bound.
    assert!(
        cache.resident_bytes() <= budget,
        "resident {} exceeds the {budget}-byte budget",
        cache.resident_bytes()
    );
    assert_eq!(
        cache.resident_bytes(),
        cache.resident_bytes_exact(),
        "resident-bytes counter drifted from the published sum"
    );
    assert_eq!(
        batch.stats.cache_resident_bytes,
        Some(cache.resident_bytes()),
        "batch telemetry must carry the resident-bytes reading"
    );
    assert!(
        cache.stats().evictions > 0,
        "a third of the working set must force evictions"
    );

    // Bit-identical rankings: no degradation was triggered (no query
    // budget), so cache pressure must not change a single answer.
    assert_eq!(batch.stats.memory_limited_queries, 0);
    for (got, want) in batch.outcomes.iter().zip(&expected.outcomes) {
        assert_eq!(got.ranking, want.ranking);
        // Both runs serve the same tasks, stage by stage; each task
        // either diffused or reused a stored stage result.
        for (got, want) in got.stats.stages.iter().zip(&want.stats.stages) {
            assert_eq!(got.diffusions + got.reused, want.diffusions + want.reused);
        }
        assert!(!got.stats.memory_limited);
    }
}

/// The query-budget invariant: `max_memory_bytes` is enforced. Tight
/// budgets are absorbed by ball segmentation (extra piece diffusions at
/// full effective length, flag clear) — `memory_limited` is reserved
/// for the depth-0 floor, where the remaining length really does run on
/// a truncated ball.
#[test]
fn staged_query_never_reports_peak_above_its_budget() {
    let g = PaperGraph::G2Cora.generate_scaled(0.3, 9).unwrap();
    let backend = Meloppr::new(&g, staged_params()).unwrap();

    for seed in [0u32, 5, 17] {
        let unbudgeted = backend.query(&QueryRequest::new(seed)).unwrap();
        let full_peak = unbudgeted.stats.peak_memory_bytes;
        assert!(!unbudgeted.stats.memory_limited);

        // A generous budget is met without touching the schedule:
        // bit-identical result, flag clear.
        let generous = backend
            .query(&QueryRequest::new(seed).with_max_memory_bytes(full_peak * 4))
            .unwrap();
        assert_eq!(generous.ranking, unbudgeted.ranking);
        assert_eq!(generous.stats.peak_memory_bytes, full_peak);
        assert!(!generous.stats.memory_limited);

        // Tight budgets force the working set down. Segmentation keeps
        // the reported peak within the budget except at the depth-0
        // floor — the only case allowed to report `memory_limited`.
        let mut engaged = false;
        for divisor in [2usize, 3, 5] {
            let budget = (full_peak / divisor).max(1024);
            let limited = backend
                .query(&QueryRequest::new(seed).with_max_memory_bytes(budget))
                .unwrap();
            if !limited.stats.memory_limited {
                assert!(
                    limited.stats.peak_memory_bytes <= budget,
                    "seed {seed}: peak {} exceeds budget {budget} without the floor flag",
                    limited.stats.peak_memory_bytes
                );
            }
            // The budget must visibly engage: either extra segment-piece
            // diffusions ran, or the floor was hit and reported.
            engaged |= limited.stats.memory_limited
                || limited.stats.total_diffusions > unbudgeted.stats.total_diffusions;
            assert!(!limited.ranking.is_empty());
            // Deterministic degradation: the same budgeted request twice
            // is bit-identical.
            let again = backend
                .query(&QueryRequest::new(seed).with_max_memory_bytes(budget))
                .unwrap();
            assert_eq!(again.ranking, limited.ranking);
            assert_eq!(
                again.stats.peak_memory_bytes,
                limited.stats.peak_memory_bytes
            );
        }
        assert!(
            engaged,
            "seed {seed}: budgets down to a fifth of the peak never engaged \
             segmentation or the floor"
        );
    }
}

/// The estimate uses the same byte model as enforcement: under a
/// satisfiable byte budget the predicted peak also fits, so the router
/// and the runtime agree about what a budgeted staged query costs.
#[test]
fn estimate_agrees_with_enforced_budget() {
    let g = PaperGraph::G2Cora.generate_scaled(0.3, 9).unwrap();
    let backend = Meloppr::new(&g, staged_params()).unwrap();
    let unbudgeted = backend.estimate(&QueryRequest::new(5)).unwrap();
    assert!(unbudgeted.peak_memory_bytes > 0);

    let budget = unbudgeted.peak_memory_bytes / 2;
    let req = QueryRequest::new(5).with_max_memory_bytes(budget);
    let budgeted = backend.estimate(&req).unwrap();
    assert!(
        budgeted.peak_memory_bytes <= budget,
        "predicted peak {} must fit the {budget}-byte budget it models",
        budgeted.peak_memory_bytes
    );
    // Degradation trades precision, and the estimate says so.
    assert!(budgeted.expected_precision < unbudgeted.expected_precision);
    // The run the router would dispatch honours the same bound.
    let outcome = backend.query(&req).unwrap();
    assert!(outcome.stats.peak_memory_bytes <= budget);
}
