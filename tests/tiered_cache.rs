//! Two-tier ball store suite — run in release mode by CI next to the
//! cache and memory-budget smokes.
//!
//! The tiered store's contract has four legs, each pinned here:
//!
//! * **Fidelity** — a ball served from the persisted index is the same
//!   ball a fresh BFS would extract: exhaustively at the record level,
//!   and end-to-end as bit-identical rankings across all five backends
//!   (only the staged backend consults the ball cache; the sweep pins
//!   that attaching a cold tier changes *no* backend's answers).
//! * **Residency** — a cold-served ball stays in the compact form it was
//!   decoded into, and the RAM tier charges it its compact bytes.
//! * **The beyond-RAM win** — under a byte budget capped at ¼ of the
//!   summed ball bytes, Zipf traffic served through the tiered store
//!   stays bit-identical to uncached sequential execution while doing
//!   ≥ 4× fewer BFS extractions than the RAM-only cache under the same
//!   budget (the ISSUE-10 acceptance criterion).
//! * **Segmentation** — a hub query whose working set exceeds the query
//!   byte budget completes at *full* effective depth in
//!   frontier-contiguous pieces: `memory_limited` stays clear and the
//!   ranking matches the unbudgeted run within decomposition rounding.
//!
//! A proptest round-trips the ball codec (extract → compact → wire →
//! compact) over random graphs.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use meloppr::backend::{BatchExecutor, ExactPower, LocalPpr, Meloppr, MonteCarlo};
use meloppr::core::ballindex::{decode_record, encode_record};
use meloppr::core::quantized::QuantView;
use meloppr::graph::generators::{self, corpus::PaperGraph};
use meloppr::{
    bfs_ball, build_index, BallIndex, CacheBudget, CacheConsumer, CachedBall, CompactBall,
    ConcurrentSubgraphCache, CsrGraph, ExtractScratch, FpgaHybrid, GraphView, HybridConfig,
    MelopprParams, NodeId, PprBackend, PprParams, QueryRequest, Ranking, SelectionStrategy,
    Subgraph,
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

/// A scratch index file under the OS temp dir, removed on drop so a
/// failing assertion does not leak files between runs.
struct TempIndex(PathBuf);

impl TempIndex {
    fn new(tag: &str) -> Self {
        TempIndex(std::env::temp_dir().join(format!("meloppr-tiered-{tag}-{}", std::process::id())))
    }
}

impl Drop for TempIndex {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Replicates `meloppr-core`'s test-only ranking-equivalence helper:
/// decomposed evaluation (Eq. 8) rounds differently from direct
/// evaluation, so exactly-tied nodes may swap at the k-th boundary.
/// Checks: same length, pairwise score profile within `tol`, and any
/// node present in only one ranking ties the other's boundary score.
fn assert_ranking_equiv(a: &Ranking, b: &Ranking, tol: f64) {
    assert_eq!(a.len(), b.len(), "ranking lengths differ: {a:?} vs {b:?}");
    for (i, (&(_, sa), &(_, sb))) in a.iter().zip(b).enumerate() {
        assert!(
            (sa - sb).abs() <= tol,
            "position {i}: score profile differs ({sa} vs {sb})"
        );
    }
    let a_ids: std::collections::HashSet<_> = a.iter().map(|&(v, _)| v).collect();
    let b_ids: std::collections::HashSet<_> = b.iter().map(|&(v, _)| v).collect();
    let a_boundary = a.last().map_or(0.0, |&(_, s)| s);
    let b_boundary = b.last().map_or(0.0, |&(_, s)| s);
    for &(v, s) in a {
        if !b_ids.contains(&v) {
            assert!(
                (s - b_boundary).abs() <= tol,
                "node {v} (score {s}) only in first ranking and not a boundary tie"
            );
        }
    }
    for &(v, s) in b {
        if !a_ids.contains(&v) {
            assert!(
                (s - a_boundary).abs() <= tol,
                "node {v} (score {s}) only in second ranking and not a boundary tie"
            );
        }
    }
}

/// Record-level fidelity, exhaustively: every ball the index holds must
/// decode to exactly the compact form of a fresh BFS extraction, and
/// every absent node must be one the builder reported skipped.
#[test]
fn every_index_record_matches_fresh_extraction() {
    let g = PaperGraph::G2Cora.generate_scaled(0.2, 11).unwrap();
    let depth = 3u32;
    let tmp = TempIndex::new("exhaustive");
    let report = build_index(&g, depth, &tmp.0).unwrap();
    assert_eq!(report.nodes_indexed + report.nodes_skipped, g.num_nodes());

    let index = BallIndex::open(&tmp.0).unwrap();
    assert_eq!(index.depth(), depth);
    assert_eq!(index.num_nodes(), g.num_nodes());

    let mut buf = Vec::new();
    let mut held = 0usize;
    for node in 0..g.num_nodes() as NodeId {
        let ball = bfs_ball(&g, node, depth).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        let fresh = CompactBall::from_subgraph(&sub);
        let from_disk = index.read_ball(node, depth, &mut buf).unwrap();
        match (fresh, from_disk) {
            (Some(fresh), Some(disk)) => {
                assert_eq!(disk, fresh, "node {node}: disk record diverged");
                held += 1;
            }
            (None, None) => {} // ball too large for u16 local ids: skipped
            (fresh, disk) => panic!(
                "node {node}: index holds {} but fresh extraction compresses {}",
                disk.is_some(),
                fresh.is_some()
            ),
        }
        // Wrong depth is always a miss, never an error.
        assert!(index
            .read_ball(node, depth + 1, &mut buf)
            .unwrap()
            .is_none());
    }
    assert_eq!(held, report.nodes_indexed);
}

/// End-to-end fidelity across all five backends: with the staged
/// backend's shared cache serving RAM misses from the cold tier, every
/// backend's rankings stay bit-identical to its cold-tier-free baseline.
/// Only MeLoPPR consults the ball cache — the four others pin that the
/// tier's presence in the serving topology is invisible to them.
#[test]
fn cold_tier_is_bit_identical_across_all_five_backends() {
    let g = PaperGraph::G2Cora.generate_scaled(0.2, 11).unwrap();
    let ppr = PprParams::new(0.85, 6, 15).unwrap();
    let staged = MelopprParams {
        ppr,
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.1),
        ..MelopprParams::paper_defaults()
    };
    let tmp = TempIndex::new("five-backends");
    build_index(&g, 3, &tmp.0).unwrap();
    let index = Arc::new(BallIndex::open(&tmp.0).unwrap());

    let cache = Arc::new(
        ConcurrentSubgraphCache::with_budget(CacheBudget::entries(512))
            .with_cold_tier(Arc::clone(&index)),
    );
    let tiered = Meloppr::new(&g, staged.clone())
        .unwrap()
        .with_shared_cache(Arc::clone(&cache));

    // (backend name, cold-tier-free baseline, same backend in the
    // cold-tier topology).
    type Sweep<'g> = Vec<(
        &'static str,
        Box<dyn PprBackend + 'g>,
        Box<dyn PprBackend + 'g>,
    )>;
    let seeds = [0u32, 1, 7, 42];
    let baselines: Sweep = vec![
        (
            "exact-power",
            Box::new(ExactPower::new(&g, ppr).unwrap()),
            Box::new(ExactPower::new(&g, ppr).unwrap()),
        ),
        (
            "local-ppr",
            Box::new(LocalPpr::new(&g, ppr).unwrap()),
            Box::new(LocalPpr::new(&g, ppr).unwrap()),
        ),
        (
            "monte-carlo",
            Box::new(MonteCarlo::new(&g, ppr, 3000, 42).unwrap()),
            Box::new(MonteCarlo::new(&g, ppr, 3000, 42).unwrap()),
        ),
        (
            "meloppr",
            Box::new(Meloppr::new(&g, staged.clone()).unwrap()),
            Box::new(tiered),
        ),
        (
            "fpga-hybrid",
            Box::new(FpgaHybrid::new(&g, staged.clone(), HybridConfig::default()).unwrap()),
            Box::new(FpgaHybrid::new(&g, staged, HybridConfig::default()).unwrap()),
        ),
    ];
    for (name, baseline, with_tier) in &baselines {
        for &seed in &seeds {
            let want = baseline.query(&QueryRequest::new(seed)).unwrap().ranking;
            let got = with_tier.query(&QueryRequest::new(seed)).unwrap().ranking;
            assert_eq!(
                got, want,
                "{name} seed {seed}: cold tier changed the answer"
            );
        }
    }

    // The staged backend really was served from disk: every RAM miss
    // became a cold hit (the index holds every depth-3 ball and
    // unbudgeted plans run at the stage depth), so no BFS ran at all.
    let stats = cache.stats();
    assert!(stats.cold_hits > 0, "no cold hits: the tier never engaged");
    assert!(stats.cold_bytes_read > 0);
    assert_eq!(stats.extractions, 0, "a RAM miss fell through to BFS");
    assert_eq!(stats.cold_fallbacks, 0);
}

/// The residency contract: a cold-served lookup returns the decoded
/// `CachedBall::Compact` (no BFS,
/// no inflation to a full sub-graph), a repeat lookup hits that same
/// resident, and an unbounded RAM tier holding N cold-served balls
/// charges exactly their summed compact bytes.
#[test]
fn cold_served_balls_stay_compact_and_are_charged_compact_bytes() {
    let g = PaperGraph::G2Cora.generate_scaled(0.2, 11).unwrap();
    let depth = 3u32;
    let tmp = TempIndex::new("residency");
    build_index(&g, depth, &tmp.0).unwrap();
    let index = Arc::new(BallIndex::open(&tmp.0).unwrap());
    let cache = ConcurrentSubgraphCache::with_budget(CacheBudget::unbounded())
        .with_cold_tier(Arc::clone(&index));

    let consumer = CacheConsumer::new(64);
    let mut scratch = ExtractScratch::new();
    let mut buf = Vec::new();
    let nodes: Vec<NodeId> = (0..48).filter(|&v| index.contains(v, depth)).collect();
    assert!(nodes.len() >= 32, "the index must hold the probed balls");
    let mut compact_bytes = 0usize;
    for &node in &nodes {
        let (served, work) = cache
            .get_ball_with_as(&g, node, depth, &mut scratch, &mut buf, &consumer)
            .unwrap();
        assert_eq!(work, 0, "node {node}: a cold hit runs no BFS");
        let CachedBall::Compact(ball) = served else {
            panic!("node {node}: the cold-served ball was inflated to a full sub-graph");
        };
        let fresh = Subgraph::extract(&g, &bfs_ball(&g, node, depth).unwrap()).unwrap();
        assert_eq!(*ball, CompactBall::from_subgraph(&fresh).unwrap());
        compact_bytes += ball.memory_bytes_total();

        let (again, _) = cache
            .get_ball_with_as(&g, node, depth, &mut scratch, &mut buf, &consumer)
            .unwrap();
        assert!(
            matches!(&again, CachedBall::Compact(hit) if Arc::ptr_eq(hit, &ball)),
            "node {node}: a repeat lookup must hit the compact resident"
        );
    }

    let stats = cache.stats();
    assert_eq!(stats.cold_hits, nodes.len() as u64);
    assert_eq!(stats.hits, nodes.len() as u64);
    assert_eq!(stats.extractions, 0);
    assert_eq!(cache.resident_entries(), nodes.len());
    assert_eq!(cache.resident_bytes(), compact_bytes);
    assert_eq!(cache.resident_bytes_exact(), compact_bytes);
}

/// The ISSUE-10 acceptance criterion: Zipf traffic under a cache byte
/// budget capped at ¼ of the summed ball bytes must (a) stay
/// bit-identical to uncached sequential execution and (b) do ≥ 4× fewer
/// BFS extractions than the RAM-only cache under the same budget.
#[test]
fn zipf_traffic_under_quarter_budget_cuts_extractions_four_fold() {
    let g = PaperGraph::G1Citeseer.generate_scaled(0.3, 42).unwrap();
    let tmp = TempIndex::new("zipf");
    let report = build_index(&g, 3, &tmp.0).unwrap();
    assert!(report.ball_bytes > 0);
    // ¼ of the summed *compact* ball bytes — at most ¼ of what the
    // resident (full) representations would occupy.
    let budget = (report.ball_bytes / 4).max(1);

    let queries = 192usize;
    let mix = sample_zipf_queries(&g, queries, 24, 1.0, 42);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();

    // Ground truth: the uncached sequential path.
    let uncached = Meloppr::new(&g, staged_params()).unwrap();
    let expected: Vec<_> = reqs.iter().map(|r| uncached.query(r).unwrap()).collect();

    // RAM-only cache under the byte budget: misses re-extract by BFS.
    let ram_cache = Arc::new(ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(
        budget,
    )));
    let ram_backend = Meloppr::new(&g, staged_params())
        .unwrap()
        .with_shared_cache(Arc::clone(&ram_cache));
    let ram_batch = BatchExecutor::new(4)
        .unwrap()
        .run(&ram_backend, &reqs)
        .unwrap();
    let ram_extractions = ram_cache.stats().extractions;
    assert!(
        ram_cache.stats().evictions > 0,
        "¼ of the ball bytes must force the RAM tier to evict"
    );

    // Tiered cache under the *same* byte budget: misses read the index.
    let index = Arc::new(BallIndex::open(&tmp.0).unwrap());
    let tiered_cache = Arc::new(
        ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(budget))
            .with_cold_tier(Arc::clone(&index)),
    );
    let tiered_backend = Meloppr::new(&g, staged_params())
        .unwrap()
        .with_shared_cache(Arc::clone(&tiered_cache));
    let tiered_batch = BatchExecutor::new(4)
        .unwrap()
        .run(&tiered_backend, &reqs)
        .unwrap();
    let tiered_stats = tiered_cache.stats();

    // (a) Bit-identical to uncached sequential execution — both tiers.
    for ((ram, tiered), want) in ram_batch
        .outcomes
        .iter()
        .zip(&tiered_batch.outcomes)
        .zip(&expected)
    {
        assert_eq!(ram.ranking, want.ranking);
        assert_eq!(tiered.ranking, want.ranking);
        // Every uncached task either diffused or reused a stored stage
        // result, stage by stage.
        for (got, want) in tiered.stats.stages.iter().zip(&want.stats.stages) {
            assert_eq!(got.diffusions + got.reused, want.diffusions);
        }
    }

    // (b) ≥ 4× fewer warm-traffic BFS extractions than RAM-only.
    assert!(tiered_stats.cold_hits > 0, "the cold tier never served");
    assert!(
        ram_extractions >= 4 * tiered_stats.extractions.max(1),
        "tiered store saved too little: {ram_extractions} RAM-only extractions \
         vs {} tiered",
        tiered_stats.extractions
    );
    // Both stores honoured the byte budget while doing it.
    assert!(ram_cache.resident_bytes() <= budget);
    assert!(tiered_cache.resident_bytes() <= budget);
}

/// Segmentation completes a hub query at full effective depth under a
/// byte budget that previously forced `memory_limited` depth shrinking:
/// the flag stays clear and the ranking matches the unbudgeted run
/// within decomposition rounding (`SelectionStrategy::All` makes the
/// equivalence provable — Eq. 8 with full handoff).
#[test]
fn segmented_hub_query_completes_full_depth_under_budget() {
    let g = PaperGraph::G2Cora.generate_scaled(0.3, 9).unwrap();
    let params = MelopprParams {
        ppr: PprParams::new(0.85, 6, 20).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::All,
        ..MelopprParams::paper_defaults()
    };
    let backend = Meloppr::new(&g, params).unwrap();
    // The hub: the highest-degree node has the fattest ball.
    let hub = (0..g.num_nodes() as NodeId)
        .max_by_key(|&v| g.degree(v))
        .unwrap();

    let unbudgeted = backend.query(&QueryRequest::new(hub)).unwrap();
    assert!(!unbudgeted.stats.memory_limited);
    let full_peak = unbudgeted.stats.peak_memory_bytes;
    assert!(full_peak > 0);

    let mut segmented = false;
    for divisor in [2usize, 3, 5] {
        let budget = (full_peak / divisor).max(1024);
        let limited = backend
            .query(&QueryRequest::new(hub).with_max_memory_bytes(budget))
            .unwrap();
        if limited.stats.memory_limited {
            continue; // the depth-0 floor: segmentation cannot absorb it
        }
        assert!(
            limited.stats.peak_memory_bytes <= budget,
            "divisor {divisor}: peak {} exceeds budget {budget}",
            limited.stats.peak_memory_bytes
        );
        if limited.stats.total_diffusions > unbudgeted.stats.total_diffusions {
            // Pieces ran: the ball really was split, yet the answer is
            // the full-depth one.
            segmented = true;
            assert_ranking_equiv(&limited.ranking, &unbudgeted.ranking, 1e-9);
        }
    }
    assert!(
        segmented,
        "budgets down to a fifth of the hub's peak never engaged segmentation"
    );
}

/// Strategy shared with `tests/properties.rs`: a connected-ish random
/// simple graph.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let extra = n;
        generators::locality_preferential(n, (n - 1) + extra / 2, 0.5, n / 2 + 1, seed)
            .expect("valid generator parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ball codec round-trips: extract → compact → wire bytes →
    /// compact, with every hop structure-preserving.
    #[test]
    fn ball_codec_roundtrips(
        g in arb_graph(),
        depth in 1u32..4,
        seed_idx in any::<prop::sample::Index>(),
    ) {
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let ball = bfs_ball(&g, seed, depth).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        let compact = CompactBall::from_subgraph(&sub).expect("<=65536 nodes");

        // Compact → wire → compact is exact.
        let mut wire = Vec::new();
        encode_record(&compact, &mut wire);
        let decoded = decode_record(&wire).unwrap();
        prop_assert_eq!(&decoded, &compact);

        // The decoded ball reproduces the original extraction.
        prop_assert_eq!(decoded.global_ids(), sub.global_ids());
        prop_assert_eq!(decoded.seed_local(), sub.seed_local());
        for u in 0..GraphView::num_nodes(&sub) as NodeId {
            let mut neighbors = Vec::new();
            decoded.for_each_neighbor(u, |v| neighbors.push(v));
            prop_assert_eq!(neighbors.as_slice(), GraphView::neighbors(&sub, u));
            prop_assert_eq!(
                QuantView::walk_degree(&decoded, u),
                GraphView::walk_degree(&sub, u)
            );
        }

        // Corrupt wire bytes produce typed errors, never panics.
        if !wire.is_empty() {
            let mut torn = wire.clone();
            torn.truncate(torn.len() - 1);
            prop_assert!(decode_record(&torn).is_err());
        }
    }
}
