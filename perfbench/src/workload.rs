//! The three workloads: graph, router assembly, request classes and the
//! seeded traffic each one replays.
//!
//! Every workload serves corpus G4 (the com-amazon stand-in) at 5 % scale
//! with `meloppr-serve`'s default staged parameters (α 0.85, L 6, stages
//! 3+3, top-5 % selection, k 10). What differs is the router, the cache
//! configuration and the traffic, chosen so that each workload loads a
//! different set of layers (see `perfbench/WORKLOADS.md`).

use std::path::Path;
use std::sync::Arc;

use meloppr::backend::{ExactPower, LocalPpr, Meloppr, MonteCarlo, PprBackend};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::graph::{CsrGraph, NodeId};
use meloppr::server::QuerySpec;
use meloppr::{
    AcceleratorConfig, BallIndex, CacheBudget, ConcurrentSubgraphCache, FpgaHybrid, HybridConfig,
    MelopprParams, PprParams, PrecisionClass, Router, SelectionStrategy,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::timed::{Recorder, Timed};

/// The corpus graph every workload serves.
const GRAPH: PaperGraph = PaperGraph::G4ComAmazon;
/// Scale factor of the corpus stand-in (16,743 nodes).
const SCALE: f64 = 0.05;
/// Generator seed, as `meloppr-serve` uses for `corpus:` graphs.
const GRAPH_SEED: u64 = 42;
/// Ball depth of the offline cold-tier index (the staged stage depth).
pub const INDEX_DEPTH: u32 = 3;
/// `meloppr-serve`'s default ranking length.
pub const K: usize = 10;
/// `meloppr-serve`'s default Monte Carlo walk count.
const WALKS: usize = 10_000;
/// `meloppr-serve`'s default shared-cache capacity, in balls.
const SERVE_CACHE_BALLS: usize = 1024;

/// One request class: the per-request hints every frame of the class
/// carries.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// `max_memory=` on the frame.
    pub max_memory: Option<usize>,
    /// `min_precision=` on the frame.
    pub min_precision: Option<f64>,
    /// `precision=` on the frame.
    pub precision: Option<PrecisionClass>,
}

/// How the workload's router is assembled.
#[derive(Debug, Clone, Copy)]
pub enum Assembly {
    /// A router holding only the staged backend over a shared cache.
    Staged {
        /// The RAM tier's budget.
        budget: CacheBudget,
        /// Whether the offline ball index backs the cache as a cold tier.
        cold_tier: bool,
    },
    /// The five-backend self-calibrating router of `meloppr-serve`.
    FiveBackend,
}

/// A workload: router, traffic shape and fixed load parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in reports.
    pub name: &'static str,
    /// Router and cache assembly.
    pub assembly: Assembly,
    /// Seeds are drawn from `distinct` nodes in degree order, after
    /// skipping the `skip` highest-degree ones ...
    pub skip: usize,
    /// ... (the candidate count) ...
    pub distinct: usize,
    /// ... with Zipf exponent `zipf` over their degree rank.
    pub zipf: f64,
    /// Request classes and their traffic shares.
    pub classes: &'static [Class],
    /// Fixed open-loop arrival rate, requests per second. A constant, set
    /// to about a third of the workload's `max_qps` at the commit that
    /// introduced the benchmark; never derived from a run-time
    /// measurement.
    pub rate_qps: f64,
    /// Per-request deadline carried on every frame.
    pub deadline_ms: f64,
    /// Requests kept outstanding in the closed-loop (throughput) phase.
    pub window: usize,
    /// Distinct seeds queried directly during set-up (hottest first), so
    /// the serving phases start warm.
    pub warm_seeds: usize,
}

const PLAIN: &[Class] = &[Class {
    max_memory: None,
    min_precision: None,
    precision: None,
}];

/// Memory and precision estimates are static per solver (only latency is
/// calibrated), so each class below is routed by its hints alone, to one
/// solver, whatever the calibration state: the route is a function of the
/// request. Exact-power is the one solver no such class reaches: it ties
/// local-ppr at precision 1.0 and needs more memory, so only the
/// calibrated latency can pick it.
const MIX: &[Class] = &[
    // Exact answers in 1.5 MB: exact-power's 1.68 MB dense vectors do
    // not fit, local-ppr's 1.35 MB ball does.
    Class {
        max_memory: Some(1_500_000),
        min_precision: Some(1.0),
        precision: None,
    },
    // 0.9 in 1 MB: staged (0.905) outranks Monte Carlo (0.9). The budget
    // stays far above the 400 KB where staged segmentation explodes.
    Class {
        max_memory: Some(1_000_000),
        min_precision: Some(0.9),
        precision: None,
    },
    // 0.9 in 250 KB at q16: the rung cuts staged to 0.86, so Monte Carlo
    // (0.9, 240 KB) is the only solver that qualifies.
    Class {
        max_memory: Some(250_000),
        min_precision: Some(0.9),
        precision: Some(PrecisionClass::Fixed(16)),
    },
    // 0.85 in 80 KB: only the FPGA hybrid (0.885, 72 KB) qualifies.
    Class {
        max_memory: Some(80_000),
        min_precision: Some(0.85),
        precision: None,
    },
];

/// Every workload the benchmark knows, in report order.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hot_warm",
        assembly: Assembly::Staged {
            budget: CacheBudget {
                entries: None,
                bytes: None,
            },
            cold_tier: false,
        },
        skip: 0,
        distinct: 256,
        zipf: 1.0,
        classes: PLAIN,
        rate_qps: 170.0,
        deadline_ms: 1000.0,
        window: 16,
        warm_seeds: 256,
    },
    Workload {
        name: "cold_tiered",
        assembly: Assembly::Staged {
            budget: CacheBudget {
                entries: None,
                bytes: Some(8 << 20),
            },
            cold_tier: true,
        },
        skip: 0,
        distinct: 4096,
        zipf: 0.3,
        classes: PLAIN,
        rate_qps: 190.0,
        deadline_ms: 1000.0,
        window: 16,
        warm_seeds: 64,
    },
    Workload {
        name: "routed_mix",
        assembly: Assembly::FiveBackend,
        skip: 256,
        distinct: 1024,
        zipf: 0.5,
        classes: MIX,
        rate_qps: 120.0,
        deadline_ms: 1000.0,
        window: 16,
        warm_seeds: 32,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generates the served graph.
pub fn build_graph() -> CsrGraph {
    GRAPH
        .generate_scaled(SCALE, GRAPH_SEED)
        .expect("the fixed corpus parameters are valid")
}

/// `meloppr-serve`'s default staged parameters.
pub fn staged_params() -> MelopprParams {
    MelopprParams {
        ppr: ppr_params(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    }
}

/// `meloppr-serve`'s default PPR parameters.
pub fn ppr_params() -> PprParams {
    PprParams::new(0.85, 6, K).expect("the fixed PPR parameters are valid")
}

/// The backends of `workload`, each built exactly as the served router
/// registers it.
pub fn backends<'g>(
    workload: &Workload,
    g: &'g CsrGraph,
    index: Option<&Arc<BallIndex>>,
) -> Vec<Box<dyn PprBackend + Sync + 'g>> {
    let staged = staged_params();
    let shared = |budget: CacheBudget| {
        let cache = ConcurrentSubgraphCache::with_budget(budget);
        Arc::new(match index {
            Some(index) => cache.with_cold_tier(Arc::clone(index)),
            None => cache,
        })
    };
    let meloppr = |budget| {
        Meloppr::new(g, staged.clone())
            .expect("the fixed staged parameters are valid")
            .with_shared_cache(shared(budget))
    };
    match workload.assembly {
        Assembly::Staged { budget, .. } => vec![Box::new(meloppr(budget))],
        Assembly::FiveBackend => {
            let ppr = ppr_params();
            let hybrid = HybridConfig {
                accel: AcceleratorConfig {
                    parallelism: 16,
                    ..AcceleratorConfig::default()
                },
                ..HybridConfig::default()
            };
            vec![
                Box::new(ExactPower::new(g, ppr).expect("valid parameters")),
                Box::new(LocalPpr::new(g, ppr).expect("valid parameters")),
                Box::new(MonteCarlo::new(g, ppr, WALKS, 42).expect("valid parameters")),
                Box::new(meloppr(CacheBudget::entries(SERVE_CACHE_BALLS))),
                Box::new(FpgaHybrid::new(g, staged, hybrid).expect("valid parameters")),
            ]
        }
    }
}

/// Whether the workload's cache has the offline index as a cold tier.
pub fn uses_cold_tier(workload: &Workload) -> bool {
    matches!(
        workload.assembly,
        Assembly::Staged {
            cold_tier: true,
            ..
        }
    )
}

/// Loads the cold-tier index when the workload uses one.
pub fn load_index(workload: &Workload, path: &Path) -> Result<Option<Arc<BallIndex>>, String> {
    if !uses_cold_tier(workload) {
        return Ok(None);
    }
    match BallIndex::load(path) {
        Ok(Some(index)) => Ok(Some(Arc::new(index))),
        // `load` boots cold on a missing or corrupt file; this workload
        // has no meaning without its cold tier.
        Ok(None) => Err(format!("no usable ball index at {}", path.display())),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Assembles and prepares the served router; with `recorder`, every
/// backend sits behind the timing decorator.
pub fn build_router<'g>(
    workload: &Workload,
    g: &'g CsrGraph,
    index: Option<&Arc<BallIndex>>,
    recorder: Option<&Arc<Recorder>>,
) -> Router<'g> {
    let mut router = Router::new().with_self_calibration(true);
    for backend in backends(workload, g, index) {
        match recorder {
            Some(rec) => router.push(Box::new(Timed::new(backend, Arc::clone(rec)))),
            None => router.push(backend),
        }
    }
    router.prepare().expect("backend preparation succeeds");
    router
}

/// One scheduled request of a trace.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Seed node.
    pub seed: NodeId,
    /// Index into the workload's classes.
    pub class: usize,
    /// Offset of the scheduled send from the phase start, seconds.
    pub at_s: f64,
}

/// A 64-bit stream seed derived from the workload seed and a stream name
/// (FNV-1a over the name, mixed with SplitMix64), so each random stream
/// of a run is independent of the others.
fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = seed ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The open-loop trace: `count` requests whose seeds, classes and
/// inter-arrival gaps come from separate seeded streams, so changing the
/// rate never changes which seeds are asked.
pub fn trace(workload: &Workload, g: &CsrGraph, seed: u64, count: usize) -> Vec<Planned> {
    let mut seeds = SmallRng::seed_from_u64(stream_seed(seed, "seeds"));
    let mut classes = SmallRng::seed_from_u64(stream_seed(seed, "classes"));
    let mut gaps = SmallRng::seed_from_u64(stream_seed(seed, "gaps"));
    // Every class gets an equal share of the requests, in a seeded order.
    let mut class_of: Vec<usize> = (0..count).map(|i| i % workload.classes.len()).collect();
    class_of.shuffle(&mut classes);
    let mut at_s = 0.0;
    zipf_seeds(workload, g, count, &mut seeds)
        .into_iter()
        .zip(class_of)
        .map(|(seed, class)| {
            let planned = Planned { seed, class, at_s };
            // Gaps uniform in [0.5, 1.5) of the mean: random arrivals at
            // the fixed rate without the long bursts of a Poisson stream,
            // whose queueing made the tail swing from seed to seed.
            let u: f64 = gaps.gen::<f64>();
            at_s += (0.5 + u) / workload.rate_qps;
            planned
        })
        .collect()
}

/// A stratified Zipf sample of `count` seeds over the workload's
/// workload's candidates: rank `i` (probability `p_i`) appears
/// `floor(count * p_i)` times, the remaining requests are drawn from the
/// same distribution, and the sequence is shuffled. Every hot seed then
/// gets its expected share of the traffic, so the work mix does not swing
/// between runs with how often a plain sample happens to draw the few
/// seeds that dominate it.
fn zipf_seeds(workload: &Workload, g: &CsrGraph, count: usize, rng: &mut SmallRng) -> Vec<NodeId> {
    let candidates = candidates(g, workload, workload.distinct);
    let weights: Vec<f64> = (0..candidates.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(workload.zipf))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut seeds = Vec::with_capacity(count);
    for (&node, w) in candidates.iter().zip(&weights) {
        let quota = (count as f64 * w / total).floor() as usize;
        seeds.extend(std::iter::repeat_n(node, quota));
    }
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    while seeds.len() < count {
        let u = rng.gen::<f64>() * total;
        let rank = cumulative.partition_point(|&c| c <= u);
        seeds.push(candidates[rank.min(candidates.len() - 1)]);
    }
    seeds.shuffle(rng);
    seeds
}

/// The frame spec of a planned request.
pub fn spec(workload: &Workload, id: u64, planned: &Planned) -> QuerySpec {
    let class = &workload.classes[planned.class];
    let mut spec = QuerySpec::new(id, planned.seed).with_deadline_ms(workload.deadline_ms);
    spec.max_memory_bytes = class.max_memory;
    spec.min_precision = class.min_precision;
    spec.precision = class.precision;
    spec
}

/// The workload's `warm_seeds` hottest seeds, in rank order.
pub fn warm_set(workload: &Workload, g: &CsrGraph) -> Vec<NodeId> {
    candidates(g, workload, workload.warm_seeds.min(workload.distinct))
}

/// The first `n` of the workload's candidate seeds: nodes by descending
/// degree (ties by ascending id) after the `skip` highest-degree ones.
fn candidates(g: &CsrGraph, workload: &Workload, n: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&v| g.degree(v) > 0)
        .collect();
    nodes.sort_unstable_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
    nodes.drain(..workload.skip.min(nodes.len()));
    nodes.truncate(n);
    nodes
}
