//! Backend-equivalence suite: for every backend, the trait-object path
//! (`Box<dyn PprBackend>`) must return **bit-identical** rankings to the
//! corresponding direct engine call, on the karate-club fixture and a
//! synthetic corpus graph.
//!
//! The direct engines ([`MelopprEngine`], [`HybridMeloppr`],
//! [`exact_top_k`]) and cross-mode agreement pin the API: the staged
//! backend's shared cache, over every cache configuration the binaries
//! can express, against its uncached mode.

use std::sync::Arc;

use meloppr::backend::{ExactPower, LocalPpr, Meloppr, MonteCarlo};
use meloppr::graph::generators::{self, corpus::PaperGraph};
use meloppr::{
    build_index, exact_top_k, BallIndex, CacheBudget, ConcurrentSubgraphCache, CsrGraph,
    FpgaHybrid, HybridConfig, HybridMeloppr, MelopprEngine, MelopprParams, PprBackend, PprParams,
    PrecisionClass, QueryRequest, Ranking, SelectionStrategy,
};

fn fixtures() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("karate", generators::karate_club()),
        (
            "cora-ish",
            PaperGraph::G2Cora.generate_scaled(0.2, 11).unwrap(),
        ),
    ]
}

fn seeds_for(g: &CsrGraph) -> Vec<u32> {
    [0u32, 1, 7]
        .into_iter()
        .filter(|&s| (s as usize) < g.num_nodes())
        .collect()
}

fn staged_params() -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 15).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.1),
        ..MelopprParams::paper_defaults()
    }
}

/// Runs `backend` as a trait object and returns the ranking — the shape
/// serving code will use.
fn query_boxed(backend: Box<dyn PprBackend + '_>, seed: u32) -> Ranking {
    backend.query(&QueryRequest::new(seed)).unwrap().ranking
}

#[test]
fn exact_power_backend_equals_exact_top_k() {
    for (name, g) in &fixtures() {
        let ppr = PprParams::new(0.85, 4, 10).unwrap();
        for seed in seeds_for(g) {
            let direct = exact_top_k(g, seed, &ppr).unwrap();
            let boxed = query_boxed(Box::new(ExactPower::new(g, ppr).unwrap()), seed);
            assert_eq!(boxed, direct, "{name} seed {seed}");
        }
    }
}

#[test]
fn local_ppr_backend_equals_single_stage_engine() {
    // A one-stage MeLoPPR with full selection runs exactly one diffusion
    // on the depth-L ball — the LocalPPR-CPU computation — so the two
    // must agree bit for bit.
    for (name, g) in &fixtures() {
        let ppr = PprParams::new(0.85, 5, 12).unwrap();
        let staged = MelopprParams {
            ppr,
            stages: vec![ppr.length],
            selection: SelectionStrategy::All,
            ..MelopprParams::paper_defaults()
        };
        let engine = MelopprEngine::new(g, staged).unwrap();
        for seed in seeds_for(g) {
            let direct = engine.query(seed).unwrap().ranking;
            let boxed = query_boxed(Box::new(LocalPpr::new(g, ppr).unwrap()), seed);
            assert_eq!(boxed, direct, "{name} seed {seed}");
        }
    }
}

#[test]
fn monte_carlo_backend_is_seed_deterministic() {
    for (name, g) in &fixtures() {
        let ppr = PprParams::new(0.85, 5, 8).unwrap();
        for seed in seeds_for(g) {
            // Two independently constructed backends with the same RNG
            // seed agree bit for bit; a different RNG seed diverges
            // (proving the seed is actually threaded through).
            let a = query_boxed(Box::new(MonteCarlo::new(g, ppr, 3000, 42).unwrap()), seed);
            let b = query_boxed(Box::new(MonteCarlo::new(g, ppr, 3000, 42).unwrap()), seed);
            assert_eq!(a, b, "{name} seed {seed}");
            let c = query_boxed(Box::new(MonteCarlo::new(g, ppr, 3000, 43).unwrap()), seed);
            assert_ne!(a, c, "{name} seed {seed}: rng seed ignored");
        }
    }
}

#[test]
fn meloppr_backend_equals_engine_query() {
    for (name, g) in &fixtures() {
        let params = staged_params();
        let engine = MelopprEngine::new(g, params.clone()).unwrap();
        for seed in seeds_for(g) {
            let direct = engine.query(seed).unwrap().ranking;
            let boxed = query_boxed(Box::new(Meloppr::new(g, params.clone()).unwrap()), seed);
            assert_eq!(boxed, direct, "{name} seed {seed}");
        }
    }
}

/// Every cache configuration the binaries can express serves exactly
/// the uncached staged backend's rankings (`==` on the scores): RAM-tier
/// budget × cold tier (a depth-3 index) × query byte budget (a third of
/// the unbudgeted peak) × precision rung, for two rounds so the second
/// round hits the warm cache. A request without a byte budget reuses
/// stored stage results: on an unbounded cache its second round is
/// served by them entirely. A budgeted request never reuses one.
#[test]
fn meloppr_cache_configuration_matrix_equals_uncached() {
    for (name, g) in &fixtures() {
        let params = staged_params();
        let uncached = Meloppr::new(g, params.clone()).unwrap();
        let mut requests = Vec::new();
        for seed in [0u32, 7, 33] {
            for rung in [PrecisionClass::Exact64, PrecisionClass::Fixed(16)] {
                let req = QueryRequest::new(seed).with_precision(rung);
                let peak = uncached.query(&req).unwrap().stats.peak_memory_bytes;
                requests.push(req.with_max_memory_bytes(peak / 3));
                requests.push(req);
            }
        }
        let expected: Vec<Ranking> = requests
            .iter()
            .map(|req| uncached.query(req).unwrap().ranking)
            .collect();

        let path = std::env::temp_dir().join(format!(
            "meloppr-equivalence-{name}-{}.ballindex",
            std::process::id()
        ));
        build_index(g, 3, &path).unwrap();
        let index = Arc::new(BallIndex::open(&path).unwrap());
        for budget in [CacheBudget::unbounded(), CacheBudget::entries(4)] {
            for cold in [false, true] {
                let mut cache = ConcurrentSubgraphCache::with_budget(budget);
                if cold {
                    cache = cache.with_cold_tier(Arc::clone(&index));
                }
                let cached = Meloppr::new(g, params.clone())
                    .unwrap()
                    .with_shared_cache(Arc::new(cache));
                let consumer = cached.cache_consumer().unwrap();
                for round in 0..2 {
                    for (req, want) in requests.iter().zip(&expected) {
                        let before = consumer.stats();
                        let got = cached.query(req).unwrap().ranking;
                        let what = format!("{name} {budget:?} cold tier {cold} round {round}");
                        assert_eq!(&got, want, "{what}: {req:?}");
                        let delta = consumer.stats().delta_since(&before);
                        if req.budget.max_memory_bytes.is_some() {
                            assert_eq!(delta.reuse_hits, 0, "{what}: budgeted {req:?}");
                        } else if round == 1 && budget == CacheBudget::unbounded() {
                            assert!(delta.reuse_hits > 0, "{what}: {req:?}");
                            assert_eq!(delta.reuse_hits, delta.lookups(), "{what}: {req:?}");
                        }
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Stored stage results are keyed by everything a task's output depends
/// on. Backends that differ only in selection, α, residual policy or
/// stage split share one cache, each queried at two precision rungs and
/// with α and length overrides, interleaved over two rounds: every
/// cached ranking must stay `==` its uncached twin's, even though the
/// tasks of different backends keep landing on the same nodes.
#[test]
fn shared_cache_isolates_stage_results_by_key() {
    use meloppr::ResidualPolicy;
    let base = staged_params();
    let variants = [
        ("base", base.clone()),
        (
            "selection",
            MelopprParams {
                selection: SelectionStrategy::TopFraction(0.3),
                ..base.clone()
            },
        ),
        (
            "alpha",
            MelopprParams {
                ppr: PprParams::new(0.8, 6, 15).unwrap(),
                ..base.clone()
            },
        ),
        (
            "policy",
            MelopprParams {
                residual_policy: ResidualPolicy::KeepUnexpanded,
                ..base.clone()
            },
        ),
        (
            "three stages",
            MelopprParams {
                stages: vec![2, 2, 2],
                ..base.clone()
            },
        ),
    ];
    for (name, g) in &fixtures() {
        let cache = Arc::new(ConcurrentSubgraphCache::with_budget(
            CacheBudget::unbounded(),
        ));
        let backends: Vec<(&str, Meloppr<'_, CsrGraph>, Meloppr<'_, CsrGraph>)> = variants
            .iter()
            .map(|(variant, params)| {
                let cached = Meloppr::new(g, params.clone())
                    .unwrap()
                    .with_shared_cache(Arc::clone(&cache));
                (*variant, cached, Meloppr::new(g, params.clone()).unwrap())
            })
            .collect();
        let mut requests = Vec::new();
        for seed in seeds_for(g) {
            for rung in [PrecisionClass::Exact64, PrecisionClass::Fixed(16)] {
                let req = QueryRequest::new(seed).with_precision(rung);
                requests.push(req);
                requests.push(req.with_alpha(0.9));
                // Length 4 splits into stages of 2: the same length as the
                // three-stage backend's, but the last stage sooner.
                requests.push(req.with_length(4));
            }
        }
        for round in 0..2 {
            for req in &requests {
                for (variant, cached, uncached) in &backends {
                    assert_eq!(
                        cached.query(req).unwrap().ranking,
                        uncached.query(req).unwrap().ranking,
                        "{name} {variant} round {round}: {req:?}"
                    );
                }
            }
        }
        assert!(cache.stats().reuse_hits > 0, "{name}: results were reused");
    }
}

#[test]
fn fpga_backend_equals_hybrid_query() {
    for (name, g) in &fixtures() {
        let params = staged_params();
        let direct_engine = HybridMeloppr::new(g, params.clone(), HybridConfig::default()).unwrap();
        for seed in seeds_for(g) {
            let direct = direct_engine.query(seed).unwrap().ranking;
            let boxed = query_boxed(
                Box::new(FpgaHybrid::new(g, params.clone(), HybridConfig::default()).unwrap()),
                seed,
            );
            assert_eq!(boxed, direct, "{name} seed {seed}");
        }
    }
}

#[test]
fn all_five_backends_serve_through_one_trait_object_collection() {
    // The redesign's point: heterogeneous solvers behind one vec.
    let g = generators::karate_club();
    let ppr = PprParams::new(0.85, 4, 5).unwrap();
    let staged = MelopprParams {
        ppr,
        stages: vec![2, 2],
        selection: SelectionStrategy::All,
        ..MelopprParams::paper_defaults()
    };
    let backends: Vec<Box<dyn PprBackend>> = vec![
        Box::new(ExactPower::new(&g, ppr).unwrap()),
        Box::new(LocalPpr::new(&g, ppr).unwrap()),
        Box::new(MonteCarlo::new(&g, ppr, 5000, 7).unwrap()),
        Box::new(Meloppr::new(&g, staged.clone()).unwrap()),
        Box::new(FpgaHybrid::new(&g, staged, HybridConfig::default()).unwrap()),
    ];
    let req = QueryRequest::new(0);
    let exact = exact_top_k(&g, 0, &ppr).unwrap();
    for backend in &backends {
        let outcome = backend.query(&req).unwrap();
        assert_eq!(outcome.ranking.len(), 5, "{}", backend.capabilities().kind);
        assert_eq!(outcome.stats.backend, backend.capabilities().kind);
        // Every solver agrees the seed dominates the karate club.
        assert_eq!(outcome.ranking[0].0, exact[0].0);
        // Estimates exist for every backend (the router's food).
        let est = backend.estimate(&req).unwrap();
        assert!(est.latency_ns >= 0.0);
        assert!(est.expected_precision > 0.0);
        // And batches agree with sequential queries through the same
        // trait object.
        let reqs = [QueryRequest::new(0), QueryRequest::new(1)];
        let batch = backend.query_batch(&reqs).unwrap();
        let loop_outcomes: Vec<_> = reqs.iter().map(|r| backend.query(r).unwrap()).collect();
        assert_eq!(batch, loop_outcomes, "{}", backend.capabilities().kind);
    }
}
