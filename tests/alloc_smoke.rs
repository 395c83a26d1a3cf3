//! Counting-allocator smoke test for the zero-allocation query path.
//!
//! Wraps the system allocator in an allocation counter and asserts that
//! steady-state `Meloppr::query` calls — after a warm-up pass has grown
//! every workspace buffer — perform at most a small constant number of
//! heap allocations, independent of ball size: only the returned
//! `QueryOutcome`'s own vectors (ranking, per-stage stats, trace) are
//! allocated per query; the hot path (BFS, sub-graph extraction,
//! diffusion, selection, aggregation) runs entirely out of the pooled
//! [`QueryWorkspace`]. A fresh-workspace query on the same seed must
//! allocate many times more, proving the reuse is real.
//!
//! This file contains exactly one test so no concurrent test thread
//! perturbs the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use meloppr::backend::Meloppr;
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::{
    ConcurrentSubgraphCache, MelopprParams, PprBackend, PprParams, PrecisionClass, QueryRequest,
    QueryWorkspace, SelectionStrategy,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is an allocator round trip; charge it.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn count_allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Steady-state queries may allocate at most this many times each —
/// enough for the returned outcome's own vectors plus slack, and far
/// below the thousands a cold query performs on this graph.
const STEADY_STATE_ALLOCS_PER_QUERY: usize = 64;

#[test]
fn steady_state_queries_allocate_approximately_nothing() {
    // The fault-injection seams (`cache.extract`, `ball.diffuse`, …) sit
    // on this exact hot path; a default build must compile them to
    // no-ops. The steady-state budget below then proves they cost zero
    // allocations — a single format!-built dynamic failpoint name per
    // query would blow it.
    #[cfg(not(feature = "failpoints"))]
    const {
        assert!(
            !meloppr::core::failpoint::ACTIVE,
            "failpoints must be compiled out of default builds"
        );
    }

    let g = PaperGraph::G2Cora.generate_scaled(0.3, 5).unwrap();
    let params = MelopprParams {
        ppr: PprParams::new(0.85, 6, 20).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.1),
        ..MelopprParams::paper_defaults()
    };
    let backend = Meloppr::new(&g, params).unwrap();
    let seeds = [0u32, 7, 19, 4];

    // Warm-up: two passes grow every pooled buffer to its steady size.
    for _ in 0..2 {
        for &s in &seeds {
            backend.query(&QueryRequest::new(s)).unwrap();
        }
    }

    // Steady state: the pooled workspace serves every query.
    const ROUNDS: usize = 5;
    let mut outcomes = Vec::new();
    let steady = count_allocations(|| {
        for _ in 0..ROUNDS {
            for &s in &seeds {
                outcomes.push(backend.query(&QueryRequest::new(s)).unwrap());
            }
        }
    });
    let queries = ROUNDS * seeds.len();
    let steady_per_query = steady / queries;

    // Cold reference: the same queries through fresh workspaces.
    let mut cold_outcomes = Vec::new();
    let cold = count_allocations(|| {
        for &s in &seeds {
            cold_outcomes.push(
                backend
                    .query_with(&QueryRequest::new(s), &mut QueryWorkspace::new())
                    .unwrap(),
            );
        }
    });
    let cold_per_query = cold / seeds.len();

    assert!(
        steady_per_query <= STEADY_STATE_ALLOCS_PER_QUERY,
        "steady-state query allocates too much: {steady_per_query} allocations/query \
         (budget {STEADY_STATE_ALLOCS_PER_QUERY}, cold path does {cold_per_query})"
    );
    assert!(
        cold_per_query >= 5 * steady_per_query.max(1),
        "workspace reuse is not paying off: cold {cold_per_query} vs steady {steady_per_query}"
    );

    // The allocation discipline must not change answers.
    for chunk in outcomes.chunks(seeds.len()) {
        assert_eq!(chunk, &cold_outcomes[..], "steady outcomes diverged");
    }

    // The quantized rungs share the discipline: each width's dense
    // scratch ([`QuantScratch`]) grows once during warm-up, after which
    // narrow queries obey the same per-query ceiling as exact ones.
    let classes = [PrecisionClass::Fast32, PrecisionClass::Fixed(16)];
    for _ in 0..2 {
        for &s in &seeds {
            for class in classes {
                backend
                    .query(&QueryRequest::new(s).with_precision(class))
                    .unwrap();
            }
        }
    }
    let mut quant_outcomes = Vec::new();
    let quant_steady = count_allocations(|| {
        for _ in 0..ROUNDS {
            for &s in &seeds {
                for class in classes {
                    quant_outcomes.push(
                        backend
                            .query(&QueryRequest::new(s).with_precision(class))
                            .unwrap(),
                    );
                }
            }
        }
    });
    let quant_per_query = quant_steady / (queries * classes.len());
    assert!(
        quant_per_query <= STEADY_STATE_ALLOCS_PER_QUERY,
        "steady-state quantized query allocates too much: {quant_per_query} \
         allocations/query (budget {STEADY_STATE_ALLOCS_PER_QUERY})"
    );
    // Every quantized outcome reports the rung it executed.
    for (i, outcome) in quant_outcomes.iter().enumerate() {
        assert_eq!(outcome.stats.precision_class, classes[i % classes.len()]);
    }

    // A warmed shared cache serves every task from its stored stage
    // result: merging a stored output into the workspace's table and
    // queue obeys the same per-query ceiling.
    let cached = Meloppr::new(&g, backend.params().clone())
        .unwrap()
        .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(1 << 16)));
    for _ in 0..2 {
        for &s in &seeds {
            cached.query(&QueryRequest::new(s)).unwrap();
        }
    }
    let consumer = cached.cache_consumer().unwrap();
    let before = consumer.stats();
    let mut reused_outcomes = Vec::new();
    let reused_steady = count_allocations(|| {
        for _ in 0..ROUNDS {
            for &s in &seeds {
                reused_outcomes.push(cached.query(&QueryRequest::new(s)).unwrap());
            }
        }
    });
    let delta = consumer.stats().delta_since(&before);
    assert_eq!(
        delta.reuse_hits,
        delta.lookups(),
        "every task must be reused"
    );
    let reused_per_query = reused_steady / queries;
    assert!(
        reused_per_query <= STEADY_STATE_ALLOCS_PER_QUERY,
        "steady-state reused query allocates too much: {reused_per_query} \
         allocations/query (budget {STEADY_STATE_ALLOCS_PER_QUERY})"
    );
    for (got, want) in reused_outcomes.iter().zip(outcomes.iter()) {
        assert_eq!(got.ranking, want.ranking);
        assert_eq!(got.stats.total_diffusions, 0);
    }
}
