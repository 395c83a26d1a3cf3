//! Reproducibility guarantees: every engine is bit-for-bit deterministic.

use meloppr::backend::Meloppr;
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::{
    HybridConfig, HybridMeloppr, MelopprEngine, MelopprParams, PprBackend, PprParams, QueryRequest,
    SelectionStrategy,
};

fn test_params() -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 30).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.08),
        ..MelopprParams::paper_defaults()
    }
}

#[test]
fn sequential_engine_is_deterministic() {
    let g = PaperGraph::G2Cora.generate_scaled(0.2, 13).unwrap();
    let engine = MelopprEngine::new(&g, test_params()).unwrap();
    let a = engine.query(5).unwrap();
    let b = engine.query(5).unwrap();
    assert_eq!(a.ranking, b.ranking);
    assert_eq!(a.stats.trace, b.stats.trace);
}

#[test]
fn graph_generation_is_deterministic_across_calls() {
    let a = PaperGraph::G3Pubmed.generate_scaled(0.05, 21).unwrap();
    let b = PaperGraph::G3Pubmed.generate_scaled(0.05, 21).unwrap();
    assert_eq!(a, b);
}

#[test]
fn hybrid_is_deterministic_and_parallelism_invariant() {
    let g = PaperGraph::G2Cora.generate_scaled(0.15, 19).unwrap();
    let params = test_params();
    let run = |p: usize| {
        let config = HybridConfig {
            accel: meloppr::AcceleratorConfig {
                parallelism: p,
                ..meloppr::AcceleratorConfig::default()
            },
            ..HybridConfig::default()
        };
        HybridMeloppr::new(&g, params.clone(), config)
            .unwrap()
            .query(7)
            .unwrap()
    };
    let a = run(4);
    let b = run(4);
    assert_eq!(a, b, "same configuration must reproduce exactly");
    // Parallelism changes timing but never the functional result.
    let c = run(16);
    assert_eq!(a.ranking_int, c.ranking_int);
    assert_eq!(a.stats.truncation_loss, c.stats.truncation_loss);
}

#[test]
fn distinct_seeds_give_distinct_answers() {
    // Sanity against accidentally global state: different query seeds must
    // produce different rankings on a non-trivial graph.
    let g = PaperGraph::G1Citeseer.generate_scaled(0.2, 23).unwrap();
    let engine = MelopprEngine::new(&g, test_params()).unwrap();
    let a = engine.query(3).unwrap().ranking;
    let b = engine.query(400).unwrap().ranking;
    assert_ne!(a, b);
    // The seed always appears in its own top-k (it may be outranked by a
    // hub that funnels its mass, but never absent).
    assert!(a.iter().any(|&(v, _)| v == 3));
    assert!(b.iter().any(|&(v, _)| v == 400));
}

#[test]
fn batch_queries_match_individual_queries() {
    // query_batch through the trait must be exactly the per-request loop.
    let g = PaperGraph::G2Cora.generate_scaled(0.15, 29).unwrap();
    let backend = Meloppr::new(&g, test_params()).unwrap();
    let reqs: Vec<QueryRequest> = [3u32, 9, 27]
        .iter()
        .map(|&s| QueryRequest::new(s))
        .collect();
    let batch = backend.query_batch(&reqs).unwrap();
    for (req, batched) in reqs.iter().zip(&batch) {
        let single = backend.query(req).unwrap();
        assert_eq!(&single, batched);
    }
}
