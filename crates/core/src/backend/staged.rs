//! The staged MeLoPPR engine behind the unified API.

use std::sync::Arc;

use meloppr_graph::{GraphView, NodeId};

use super::{
    estimate_staged_work_with_depths, staged_precision_heuristic, BackendCaps, BackendKind,
    CostEstimate, LatencyModel, ParamOverrides, PprBackend, QueryOutcome, QueryRequest, QueryStats,
    WorkProfile,
};
use crate::cache::{CacheConsumer, ConcurrentSubgraphCache, ConsumerStats, DEFAULT_HIT_WINDOW};
use crate::error::Result;
use crate::meloppr::{staged_query_impl, MelopprOutcome, MemoryBudget};
use crate::memory::cpu_task_memory_width;
use crate::params::MelopprParams;
use crate::quantized::PrecisionClass;
use crate::selection::SelectionStrategy;
use crate::workspace::{QueryWorkspace, WorkspacePool};

/// Relative cost of serving a ball from the cold tier (one positioned
/// index read plus compact decode) versus extracting it with a live
/// BFS: strictly between a RAM hit (0.0, free) and a miss (1.0, the
/// full BFS charge). Feeds the `estimate()` BFS term so routing prices
/// a tiered cache between all-RAM and all-miss serving.
///
/// The value is `fig5_scalability`'s beyond-RAM probe
/// (`BENCH_tiered.json`: depth-3 balls of G1 at scale 1.0, page-cached
/// index, 2-vCPU x86-64 VM), which puts the median cold hit at 5.2 µs
/// and the median BFS miss at 147.2 µs, a ratio of 0.035.
const COLD_HIT_COST_FACTOR: f64 = 0.035;

/// Multi-stage MeLoPPR (§IV) as a backend.
///
/// Every query runs the stages one task at a time through one borrowed
/// [`QueryWorkspace`]; parallelism across queries belongs to the
/// [`BatchExecutor`](super::BatchExecutor) and the server's workers.
/// [`Meloppr::with_shared_cache`] attaches a sub-graph cache: an
/// `Arc<ConcurrentSubgraphCache>` reused across this backend's queries,
/// across batch workers, and (if desired) across several backends over
/// the same graph. Hot balls are extracted once (singleflight); every
/// other query reuses the cached ball zero-copy, and hits charge zero
/// BFS work.
///
/// Cached and uncached queries return identical rankings for identical
/// requests; they differ only in wall-clock and work accounting. Cache
/// hits charge zero BFS, and a cached query without `max_memory_bytes`
/// serves each stage task whose unweighted output is stored from that
/// stored result, with no diffusion (counted in `StageStats::reused`).
/// With a cache attached, [`Meloppr::estimate`] discounts the predicted
/// diffusion work of such requests by this backend's lifetime reuse
/// fraction, and the predicted BFS latency by the **windowed** hit rate
/// of recent lookups (`--cache-window` / [`Meloppr::with_cache_window`]),
/// so a budget-driven [`Router`](super::Router) learns that warmed
/// caches make staged queries cheaper — and un-learns it within one
/// window when traffic shifts to cold seeds.
///
/// With a cache attached the backend holds its own [`CacheConsumer`] handle:
/// its lookups are attributed to *this backend* even when several
/// backends or executors share the one cache, and warm-up extractions
/// ([`Meloppr::prepare`]) bypass lookup accounting entirely so they
/// never deflate the observed rate.
///
/// # Examples
///
/// ```
/// use meloppr_core::backend::{Meloppr, PprBackend, QueryRequest};
/// use meloppr_core::MelopprParams;
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let mut params = MelopprParams::paper_defaults();
/// params.ppr.k = 5;
/// let backend = Meloppr::new(&g, params)?;
/// let outcome = backend.query(&QueryRequest::new(0))?;
/// assert_eq!(outcome.ranking.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Meloppr<'g, G: GraphView + ?Sized> {
    graph: &'g G,
    params: MelopprParams,
    /// The sub-graph cache every ball extraction goes through, if any,
    /// with this backend's own consumer handle so its lookups are
    /// attributed to it and to nobody else.
    cache: Option<(Arc<ConcurrentSubgraphCache>, CacheConsumer)>,
    /// Sliding-window length for the hit rate feeding `estimate()`.
    cache_window: usize,
    profile: WorkProfile,
    latency: LatencyModel,
    pool: WorkspacePool,
}

impl<'g, G: GraphView + ?Sized> Meloppr<'g, G> {
    /// Creates a staged backend, validating `params` and probing ball
    /// growth for cost estimation.
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`](crate::PprError::InvalidParams)
    /// on invalid parameters.
    pub fn new(graph: &'g G, params: MelopprParams) -> Result<Self> {
        params.validate()?;
        let profile = WorkProfile::probe_default(graph, params.ppr.length as u32)?;
        Ok(Meloppr {
            graph,
            params,
            cache: None,
            cache_window: DEFAULT_HIT_WINDOW,
            profile,
            latency: LatencyModel::default(),
            pool: WorkspacePool::new(),
        })
    }

    /// Sets the sliding-window length (lookups) of the hit rate that
    /// [`Meloppr::estimate`] discounts BFS by (default
    /// [`DEFAULT_HIT_WINDOW`]). Applies to the cache that is (or later
    /// gets) attached; changing it resets the window's contents, so
    /// configure it before serving traffic.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_cache_window(mut self, window: usize) -> Self {
        assert!(window > 0, "cache window must be positive");
        self.cache_window = window;
        if let Some((_, consumer)) = &mut self.cache {
            *consumer = CacheConsumer::new(window);
        }
        self
    }

    /// Attaches a [`ConcurrentSubgraphCache`] shared across queries and
    /// batch workers: every ball extraction goes through `cache`, so hot
    /// balls recurring across a skewed batch are extracted once and
    /// served zero-copy everywhere else. Replaces any cache configured
    /// earlier.
    ///
    /// The backend registers its own [`CacheConsumer`] handle, so its
    /// lookups stay attributed to it even when other backends, routers
    /// or executors share the same `Arc` — read the per-backend counters
    /// via [`PprBackend::cache_consumer`](super::PprBackend::cache_consumer)
    /// or per batch from [`BatchStats::cache`](super::BatchStats::cache);
    /// the cache-global view stays available through
    /// [`ConcurrentSubgraphCache::stats`].
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<ConcurrentSubgraphCache>) -> Self {
        self.cache = Some((cache, CacheConsumer::new(self.cache_window)));
        self
    }

    /// The backend's configured base parameters.
    pub fn params(&self) -> &MelopprParams {
        &self.params
    }

    /// Fraction of the last [`Meloppr::with_cache_window`] cache lookups
    /// served without BFS work — 0.0 with no cache attached or before
    /// any lookup. Drives the BFS discount in [`Meloppr::estimate`];
    /// windowed (not lifetime) so the discount tracks traffic shifts.
    fn cache_hit_rate(&self) -> f64 {
        self.cache
            .as_ref()
            .map_or(0.0, |(_, consumer)| consumer.windowed_hit_rate())
    }

    /// Fraction of this backend's lifetime cache lookups served by the
    /// cold tier (a positioned index read instead of a BFS) — 0.0 with
    /// no cache attached, no cold tier configured, or before any lookup.
    /// Lifetime rather than windowed: the cold fraction tracks what
    /// share of the key space lives on disk, which shifts with the index
    /// contents, not with short-term traffic.
    fn cold_hit_fraction(&self) -> f64 {
        self.lifetime_fraction(|stats| stats.cold_hits)
    }

    /// Fraction of this backend's lifetime cache lookups served by a
    /// stored stage result (no ball, no diffusion) — 0.0 with no cache
    /// attached or before any lookup. Lifetime, like
    /// `cold_hit_fraction`: how much of the task space repeats is a
    /// property of the traffic's key set, not of the last window.
    fn reuse_fraction(&self) -> f64 {
        self.lifetime_fraction(|stats| stats.reuse_hits)
    }

    /// `part(stats) / lookups` over this backend's consumer counters,
    /// clamped to `[0, 1]`; 0.0 with no cache or no lookups yet.
    fn lifetime_fraction(&self, part: impl Fn(&ConsumerStats) -> u64) -> f64 {
        let Some((_, consumer)) = &self.cache else {
            return 0.0;
        };
        let stats = consumer.stats();
        let lookups = stats.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (part(&stats) as f64 / lookups as f64).clamp(0.0, 1.0)
    }

    /// The modelled working set of one stage task on the average
    /// depth-`depth` probe ball — the runtime budget gate's formula
    /// (`QueryAccumulator::working_set_bound`) evaluated with an empty
    /// table and queue, i.e. the bound the first task of a query faces.
    fn stage_working_set(
        &self,
        params: &MelopprParams,
        depth: usize,
        class: PrecisionClass,
    ) -> usize {
        let ball = self.profile.ball(depth);
        let table_entries = match params.table_factor.map(|c| c * params.ppr.k) {
            Some(cap) => ball.nodes.min(cap),
            None => ball.nodes,
        };
        crate::memory::meloppr_cpu_peak(
            cpu_task_memory_width(ball.nodes, ball.edges, class.score_width_bytes()),
            table_entries,
            params.selection.upper_bound(ball.nodes),
        )
    }

    /// Plans the starting ball depth per stage under a byte budget: the
    /// largest depth whose modelled working set fits, per the probe
    /// profile. Returns the full stage lengths (and `false`) without a
    /// budget. Shared by `estimate()` and the budgeted execution path
    /// (`run_staged`), so prediction and enforcement start from the same
    /// plan — execution then measures each concrete ball and can only
    /// shrink further.
    fn plan_ball_depths(
        &self,
        params: &MelopprParams,
        budget_bytes: Option<usize>,
        class: PrecisionClass,
    ) -> (Vec<usize>, bool) {
        let Some(limit) = budget_bytes else {
            return (params.stages.clone(), false);
        };
        let mut degraded = false;
        let depths = params
            .stages
            .iter()
            .map(|&l| {
                let mut depth = l;
                while depth > 0 && self.stage_working_set(params, depth, class) > limit {
                    depth -= 1;
                    degraded = true;
                }
                depth
            })
            .collect();
        (depths, degraded)
    }

    /// The precision ladder's **width-before-depth** rule under a byte
    /// budget: if the plan at `requested` would have to shrink any
    /// stage's ball depth, first step the precision rung down (halving
    /// the modelled score-vector width) and re-plan — a narrower rung
    /// often readmits the full depth, and a truncated diffusion loses
    /// strictly more ranking signal than half-width arithmetic does.
    /// Stops as soon as depth fits, or narrowing stops shrinking the
    /// working set (the `Fast32 → Fixed` step keeps the same width).
    /// Without a budget the requested rung passes through untouched.
    fn plan_precision(
        &self,
        params: &MelopprParams,
        budget_bytes: Option<usize>,
        requested: PrecisionClass,
    ) -> (PrecisionClass, Vec<usize>, bool) {
        let (mut depths, mut degraded) = self.plan_ball_depths(params, budget_bytes, requested);
        let mut class = requested;
        while degraded {
            let Some(next) = class.degraded() else { break };
            if next.score_width_bytes() >= class.score_width_bytes() {
                break;
            }
            let (next_depths, next_degraded) = self.plan_ball_depths(params, budget_bytes, next);
            class = next;
            depths = next_depths;
            degraded = next_degraded;
        }
        (class, depths, degraded)
    }

    /// The effective staged parameters for a request: overrides merged,
    /// and a `length` override redistributed over the configured stage
    /// count, front-loading depth as the planner does (stage-one output
    /// is exact, so deeper early stages help precision).
    fn effective_meloppr(&self, req: &QueryRequest) -> Result<MelopprParams> {
        let ppr = req.effective_params(&self.params.ppr)?;
        let stages = if ppr.length == self.params.ppr.length {
            self.params.stages.clone()
        } else {
            restage(self.params.stages.len(), ppr.length)
        };
        let params = MelopprParams {
            ppr,
            stages,
            ..self.params.clone()
        };
        params.validate()?;
        Ok(params)
    }
}

/// Distributes `length` over at most `parts` stages, all ≥ 1, larger
/// stages first.
///
/// Never panics: `length == 0` (a request override that fails parameter
/// validation downstream) yields `vec![0]`, which `MelopprParams::validate`
/// rejects with a proper error — `clamp(1, length)` would panic instead
/// (min > max), turning an invalid request into a crash.
fn restage(parts: usize, length: usize) -> Vec<usize> {
    let parts = parts.min(length.max(1)).max(1);
    let base = length / parts;
    let extra = length % parts;
    (0..parts)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

impl<G: GraphView + ?Sized> PprBackend for Meloppr<'_, G> {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::Meloppr,
            exact: matches!(self.params.selection, SelectionStrategy::All)
                && self.params.table_factor.is_none(),
            deterministic: true,
            accelerated: false,
            // Batches reuse pooled workspaces across queries (and scale
            // across BatchExecutor workers), beating a naive query loop.
            batch_aware: true,
        }
    }

    fn prepare(&mut self) -> Result<()> {
        // Re-probe with the current stage horizon (idempotent) and, when
        // caching, pre-extract the probe seeds' stage-one balls through
        // the non-counting warm path: warm-up is not demand, so it must
        // not register as misses that permanently deflate the hit rate
        // `estimate()` feeds the router.
        self.profile = WorkProfile::probe_default(self.graph, self.params.ppr.length as u32)?;
        let depth = self.params.stages[0] as u32;
        let n = self.graph.num_nodes();
        if let Some((cache, _)) = &self.cache {
            // Extract through a pooled workspace so the warm-up BFS
            // reuses the same scratch buffers as the serving path.
            let mut ws = self.pool.acquire();
            let result = super::model::default_probe_seeds(n)
                .into_iter()
                .try_for_each(|seed| cache.warm_with(self.graph, seed, depth, &mut ws.extract));
            self.pool.release(ws);
            result?;
        }
        Ok(())
    }

    fn estimate(&self, req: &QueryRequest) -> Result<CostEstimate> {
        let params = self.effective_meloppr(req)?;
        let requested = req.budget.precision.unwrap_or_default();
        requested.validate()?;
        // A memory budget is *enforced* at run time: the staged loop
        // starts every stage at the profile-planned precision rung and
        // ball depth below (the same `plan_precision` the runtime uses)
        // and shrinks further if a concrete ball still exceeds the
        // bound. The estimate therefore models the *identical* starting
        // plan with the identical byte model; the runtime can only
        // degrade further as the aggregation state grows, which the
        // outcome reports via `memory_limited`.
        let (class, ball_depths, degraded) =
            self.plan_precision(&params, req.budget.max_memory_bytes, requested);
        let work = estimate_staged_work_with_depths(&self.profile, &params, &ball_depths);
        let m = self.latency;
        // Cache hits skip ball extraction entirely, so only the expected
        // miss fraction of the BFS work is charged: a warmed cache makes
        // the budget router prefer this backend for repeat-heavy traffic.
        // The rate is *windowed* over this backend's own recent lookups
        // (not the lifetime average, which stays optimistic long after
        // traffic shifts to cold seeds; not the cache-global rate, which
        // mixes other consumers' traffic in). Warm-up extractions never
        // enter the window.
        let bfs_miss_fraction = 1.0 - self.cache_hit_rate();
        // A cold-tier hit avoids the BFS entirely (the window above
        // records it as a hit because no extraction ran) but still pays
        // a positioned index read and compact decode; charge the
        // observed cold fraction of lookups at a flat factor of the BFS
        // cost, so a tiered cache prices strictly between all-RAM hits
        // and all-misses. With no cold tier the fraction is 0 and the
        // pricing is unchanged.
        let bfs_miss_fraction =
            (bfs_miss_fraction + COLD_HIT_COST_FACTOR * self.cold_hit_fraction()).min(1.0);
        // Reduced-width rungs run the dense vectorizable diffusion
        // kernel; charge their per-edge cost at the class's documented
        // discount so a deadline router learns that narrower is faster.
        // Without a byte budget, a task whose stage result is stored
        // runs no diffusion at all: charge only the share of diffusion
        // work this backend's lookups have not been reusing. Budgeted
        // queries never reuse, so they pay the whole term.
        let reuse = match req.budget.max_memory_bytes {
            Some(_) => 0.0,
            None => self.reuse_fraction(),
        };
        let ns_per_diffusion_edge =
            m.ns_per_diffusion_edge * class.diffusion_cost_factor() * (1.0 - reuse);
        let compute_ns = work.bfs_edges * bfs_miss_fraction * m.ns_per_bfs_edge
            + work.diffusion_edges * ns_per_diffusion_edge
            + work.nodes_touched * m.ns_per_node;
        // Shrunk balls truncate the diffusion's reach: charge the lost
        // depth fraction against the precision heuristic (documented
        // heuristic, like the base curve itself).
        let mut precision = staged_precision_heuristic(&params);
        if degraded {
            let full: usize = params.stages.iter().sum::<usize>().max(1);
            let kept: usize = ball_depths.iter().sum();
            precision *= 0.7 + 0.3 * kept as f64 / full as f64;
        }
        // Reduced-precision arithmetic costs ranking fidelity; the
        // per-class penalty is deliberately conservative (never above
        // the measured precision@k floors — see the precision_ladder
        // test suite).
        precision *= class.precision_factor();
        // Predicted peak: the largest per-stage working set under the
        // same model the degradation loop (and the runtime gate) uses —
        // by construction ≤ the budget whenever degradation can achieve
        // it, so routing admits exactly the queries enforcement can
        // serve within bound.
        let peak_memory_bytes = ball_depths
            .iter()
            .map(|&depth| self.stage_working_set(&params, depth, class))
            .max()
            .unwrap_or(0);
        Ok(CostEstimate {
            latency_ns: m.fixed_overhead_ns + compute_ns,
            peak_memory_bytes,
            expected_precision: precision.clamp(0.0, 1.0),
        })
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool> {
        Some(&self.pool)
    }

    fn shared_cache(&self) -> Option<&ConcurrentSubgraphCache> {
        self.cache.as_ref().map(|(cache, _)| &**cache)
    }

    fn cache_consumer(&self) -> Option<&CacheConsumer> {
        self.cache.as_ref().map(|(_, consumer)| consumer)
    }

    fn query_with(&self, req: &QueryRequest, ws: &mut QueryWorkspace) -> Result<QueryOutcome> {
        let budget = req.budget.max_memory_bytes;
        let requested = req.budget.precision.unwrap_or_default();
        requested.validate()?;
        // The common no-override case borrows the configured parameters;
        // only overridden requests pay a parameter clone.
        let outcome = if req.k.is_none() && req.overrides == ParamOverrides::default() {
            self.run_staged(&self.params, req.seed, requested, budget, ws)?
        } else {
            let params = self.effective_meloppr(req)?;
            self.run_staged(&params, req.seed, requested, budget, ws)?
        };
        Ok(QueryOutcome {
            stats: QueryStats::from_meloppr(&outcome.stats),
            ranking: outcome.ranking,
        })
    }
}

impl<G: GraphView + ?Sized> Meloppr<'_, G> {
    fn run_staged(
        &self,
        params: &MelopprParams,
        seed: NodeId,
        requested: PrecisionClass,
        budget_bytes: Option<usize>,
        ws: &mut QueryWorkspace,
    ) -> Result<MelopprOutcome> {
        // Plan the starting precision rung and ball depths from the
        // probe profile (the same plan `estimate()` prices), so the
        // budget gate does not have to materialize predictably
        // over-budget balls only to discard them. Under a byte budget
        // the rung degrades *before* depth (`plan_precision`); the
        // executed class is reported in the outcome's stats.
        let (class, budget) = match budget_bytes {
            Some(limit) => {
                let (class, depths, _) = self.plan_precision(params, Some(limit), requested);
                let budget = MemoryBudget {
                    limit,
                    ball_depths: depths.iter().map(|&d| d as u32).collect(),
                };
                (class, Some(budget))
            }
            None => (requested, None),
        };
        let source = self
            .cache
            .as_ref()
            .map(|(cache, consumer)| (&**cache, consumer));
        staged_query_impl(self.graph, params, seed, class, source, budget.as_ref(), ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meloppr::MelopprEngine;
    use crate::params::PprParams;

    use meloppr_graph::generators;

    fn params() -> MelopprParams {
        MelopprParams {
            ppr: PprParams::new(0.85, 6, 20).unwrap(),
            stages: vec![3, 3],
            selection: SelectionStrategy::TopFraction(0.1),
            ..MelopprParams::paper_defaults()
        }
    }

    #[test]
    fn matches_direct_engine_bit_for_bit() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.2, 5)
            .unwrap();
        let backend = Meloppr::new(&g, params()).unwrap();
        let direct = MelopprEngine::new(&g, params()).unwrap().query(7).unwrap();
        let via_trait = backend.query(&QueryRequest::new(7)).unwrap();
        assert_eq!(via_trait.ranking, direct.ranking);
        assert_eq!(via_trait.stats.stages, direct.stats.stages);
        assert_eq!(
            via_trait.stats.peak_memory_bytes,
            direct.stats.peak_cpu_bytes
        );
    }

    #[test]
    fn all_execution_modes_agree() {
        let g = generators::corpus::PaperGraph::G1Citeseer
            .generate_scaled(0.2, 6)
            .unwrap();
        let sequential = Meloppr::new(&g, params()).unwrap();
        let cached = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(64)));
        let req = QueryRequest::new(3);
        let a = sequential.query(&req).unwrap();
        let c = cached.query(&req).unwrap();
        assert_eq!(a.ranking, c.ranking);
        // The cache changes only BFS accounting, never the answer; a
        // repeat query hits the cache and charges less BFS.
        let c2 = cached.query(&req).unwrap();
        assert_eq!(c2.ranking, c.ranking);
        assert!(c2.stats.bfs_edges_scanned < c.stats.bfs_edges_scanned);
    }

    #[test]
    fn shared_cache_mode_agrees_and_shares_extractions() {
        let g = generators::corpus::PaperGraph::G1Citeseer
            .generate_scaled(0.2, 6)
            .unwrap();
        let cache = Arc::new(ConcurrentSubgraphCache::new(256));
        let plain = Meloppr::new(&g, params()).unwrap();
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        assert!(shared.shared_cache().is_some());
        assert!(plain.shared_cache().is_none());

        let req = QueryRequest::new(3);
        let a = plain.query(&req).unwrap();
        let b = shared.query(&req).unwrap();
        assert_eq!(a.ranking, b.ranking);
        let cold_extractions = cache.stats().extractions;
        assert!(cold_extractions > 0);

        // A repeat query is served entirely from the cache: zero BFS,
        // zero new extractions.
        let c = shared.query(&req).unwrap();
        assert_eq!(c.ranking, a.ranking);
        assert_eq!(c.stats.bfs_edges_scanned, 0);
        assert_eq!(cache.stats().extractions, cold_extractions);
    }

    #[test]
    fn estimate_discounts_bfs_by_observed_hit_rate() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.2, 9)
            .unwrap();
        let cache = Arc::new(ConcurrentSubgraphCache::new(512));
        let plain = Meloppr::new(&g, params()).unwrap();
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        let req = QueryRequest::new(5);
        // Cold cache: no observations, no discount.
        assert_eq!(
            plain.estimate(&req).unwrap().latency_ns,
            shared.estimate(&req).unwrap().latency_ns
        );
        // Warm the cache until the hit rate is high, then the estimate
        // must drop below the uncached backend's.
        for _ in 0..4 {
            shared.query(&req).unwrap();
        }
        assert!(cache.stats().hit_rate() > 0.5);
        assert!(
            shared.estimate(&req).unwrap().latency_ns < plain.estimate(&req).unwrap().latency_ns
        );
    }

    #[test]
    fn estimate_prices_cold_hits_between_ram_hits_and_misses() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.2, 9)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("meloppr-staged-cold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("balls.idx");
        crate::ballindex::build_index(&g, 3, &path).unwrap();
        let index = Arc::new(crate::ballindex::BallIndex::open(&path).unwrap());
        let seeds: Vec<u32> = (0..24).collect();
        let window = 16;

        // All-miss reference: distinct cold seeds through a RAM-only
        // cache leave the window dominated by misses.
        let miss = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(window)
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(4096)));
        for &s in &seeds {
            miss.query(&QueryRequest::new(s)).unwrap();
        }

        // Cold tier: the same distinct seeds are first touches too, but
        // the index (built at the stage depth) serves them from disk —
        // windowed as hits, priced via the cold fraction.
        let cold = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(window)
            .with_shared_cache(Arc::new(
                ConcurrentSubgraphCache::new(4096).with_cold_tier(Arc::clone(&index)),
            ));
        for &s in &seeds {
            cold.query(&QueryRequest::new(s)).unwrap();
        }
        let cold_stats = cold.cache_consumer().unwrap().stats();
        assert!(cold_stats.cold_hits > 0, "the index must actually serve");

        // All-RAM reference: one seed repeated until the window holds
        // only resident hits.
        let ram = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(window)
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(4096)));
        for _ in 0..40 {
            ram.query(&QueryRequest::new(5)).unwrap();
        }

        let req = QueryRequest::new(5);
        let ram_ns = ram.estimate(&req).unwrap().latency_ns;
        let cold_ns = cold.estimate(&req).unwrap().latency_ns;
        let miss_ns = miss.estimate(&req).unwrap().latency_ns;
        assert!(
            ram_ns < cold_ns,
            "cold-tier serving must price above all-RAM hits: {ram_ns} vs {cold_ns}"
        );
        assert!(
            cold_ns < miss_ns,
            "cold-tier serving must price below all-miss BFS: {cold_ns} vs {miss_ns}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn length_override_restages() {
        let g = generators::karate_club();
        let backend = Meloppr::new(&g, params()).unwrap();
        let outcome = backend
            .query(&QueryRequest::new(0).with_length(4).with_k(5))
            .unwrap();
        assert_eq!(outcome.stats.stages.len(), 2); // 4 = 2 + 2
        assert_eq!(outcome.ranking.len(), 5);
    }

    #[test]
    fn restage_distributions() {
        assert_eq!(restage(2, 6), vec![3, 3]);
        assert_eq!(restage(2, 5), vec![3, 2]);
        assert_eq!(restage(3, 7), vec![3, 2, 2]);
        assert_eq!(restage(3, 2), vec![1, 1]); // clamped to length
        assert_eq!(restage(1, 4), vec![4]);
        // Regression: length 0 must not panic (`clamp(1, 0)` did); the
        // degenerate split is rejected by parameter validation instead.
        assert_eq!(restage(2, 0), vec![0]);
    }

    #[test]
    fn zero_length_override_errors_instead_of_panicking() {
        let g = generators::karate_club();
        let backend = Meloppr::new(&g, params()).unwrap();
        let req = QueryRequest::new(0).with_length(0);
        // Both the query and the routing estimate must surface the
        // validation error, never a clamp panic.
        assert!(backend.query(&req).is_err());
        assert!(backend.estimate(&req).is_err());
    }

    #[test]
    fn exactness_capability_tracks_selection() {
        let g = generators::karate_club();
        let approx = Meloppr::new(&g, params()).unwrap();
        assert!(!approx.capabilities().exact);
        let exact_params = MelopprParams {
            selection: SelectionStrategy::All,
            ..params()
        };
        let exact = Meloppr::new(&g, exact_params).unwrap();
        assert!(exact.capabilities().exact);
    }

    #[test]
    fn estimate_scales_with_selection() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.15, 9)
            .unwrap();
        let narrow = Meloppr::new(&g, params()).unwrap();
        let wide_params = MelopprParams {
            selection: SelectionStrategy::TopFraction(0.8),
            ..params()
        };
        let wide = Meloppr::new(&g, wide_params).unwrap();
        let req = QueryRequest::new(0);
        assert!(
            wide.estimate(&req).unwrap().latency_ns > narrow.estimate(&req).unwrap().latency_ns
        );
    }

    #[test]
    fn estimate_prices_reuse_for_unbudgeted_requests_only() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.2, 9)
            .unwrap();
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(8)
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(4096)));
        let consumer = shared.cache_consumer().unwrap();
        let seeds = [3u32, 5, 7];
        for &seed in &seeds {
            shared.query(&QueryRequest::new(seed)).unwrap();
        }
        // Fill the hit window with reuse hits, so the BFS discount is the
        // same before and after the second pass.
        while consumer.windowed_hit_rate() < 1.0 {
            shared.query(&QueryRequest::new(seeds[0])).unwrap();
        }
        let unbudgeted = QueryRequest::new(5);
        let budgeted = unbudgeted.with_max_memory_bytes(1 << 30);
        let before = shared.estimate(&unbudgeted).unwrap().latency_ns;
        let budgeted_before = shared.estimate(&budgeted).unwrap().latency_ns;
        let reused_before = consumer.stats().reuse_hits;

        // The second pass over the same seeds is served by stored stage
        // results: a larger lifetime reuse fraction, a cheaper estimate.
        for &seed in &seeds {
            shared.query(&QueryRequest::new(seed)).unwrap();
        }
        assert!(consumer.stats().reuse_hits > reused_before);
        assert_eq!(consumer.windowed_hit_rate(), 1.0);
        assert!(shared.estimate(&unbudgeted).unwrap().latency_ns < before);
        // A budgeted request never reuses, so its price does not move.
        assert_eq!(
            shared.estimate(&budgeted).unwrap().latency_ns,
            budgeted_before
        );
    }

    #[test]
    fn prepare_probes_and_warms() {
        let g = generators::karate_club();
        let mut backend = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(8)));
        backend.prepare().unwrap();
        backend.prepare().unwrap(); // idempotent
        assert!(backend.query(&QueryRequest::new(0)).is_ok());
    }

    #[test]
    fn prepare_warming_does_not_deflate_hit_rate() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.2, 9)
            .unwrap();
        let cache = Arc::new(ConcurrentSubgraphCache::new(512));
        let mut shared = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        shared.prepare().unwrap();
        assert!(cache.stats().extractions > 0, "prepare pre-extracts balls");
        let consumer = shared.cache_consumer().expect("shared mode has a consumer");
        assert_eq!(
            consumer.stats().lookups(),
            0,
            "warm-up must not count as this backend's lookups"
        );
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        // An estimate right after warming carries no discount yet (no
        // observed demand) and, crucially, no warm-up *deflation* either:
        // the first real queries hit the warmed balls and push the rate
        // up from a clean slate.
        let req = QueryRequest::new(5);
        for _ in 0..3 {
            shared.query(&req).unwrap();
        }
        assert!(consumer.windowed_hit_rate() > 0.5);
    }

    #[test]
    fn windowed_estimate_discount_decays_after_traffic_shift() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.25, 9)
            .unwrap();
        let cache = Arc::new(ConcurrentSubgraphCache::new(2048));
        // A small window so one burst of cold seeds flushes it.
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(32)
            .with_shared_cache(Arc::clone(&cache));
        let hot = QueryRequest::new(5);
        for _ in 0..8 {
            shared.query(&hot).unwrap();
        }
        let consumer = shared.cache_consumer().unwrap();
        assert!(consumer.windowed_hit_rate() > 0.5);
        let warmed_estimate = shared.estimate(&hot).unwrap().latency_ns;
        // Traffic shifts to never-seen seeds: ≥ one window of cold
        // lookups. The windowed rate collapses — and the estimate rises
        // back towards the undiscounted cost — while the cumulative
        // lifetime rate stays stale and optimistic.
        let base_misses = consumer.stats().misses;
        let mut seed = 100u32;
        while consumer.stats().misses - base_misses < consumer.window_len() as u64 * 2 {
            shared.query(&QueryRequest::new(seed)).unwrap();
            seed += 1;
        }
        let windowed = consumer.windowed_hit_rate();
        let cumulative = consumer.stats().hit_rate();
        assert!(
            windowed < cumulative,
            "windowed rate {windowed} must drop below the stale cumulative {cumulative}"
        );
        assert!(
            shared.estimate(&hot).unwrap().latency_ns > warmed_estimate,
            "the BFS discount must shrink once the window sees cold traffic"
        );
    }

    #[test]
    fn cache_window_builder_applies_in_either_order() {
        let g = generators::karate_club();
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(8)))
            .with_cache_window(7);
        assert_eq!(shared.cache_consumer().unwrap().window_len(), 7);
        // Order-independent: window-first works too.
        let shared = Meloppr::new(&g, params())
            .unwrap()
            .with_cache_window(9)
            .with_shared_cache(Arc::new(ConcurrentSubgraphCache::new(8)));
        assert_eq!(shared.cache_consumer().unwrap().window_len(), 9);
        // Without a cache the window has nothing to apply to.
        let uncached = Meloppr::new(&g, params()).unwrap().with_cache_window(5);
        assert!(uncached.cache_consumer().is_none());
        assert!(uncached.query(&QueryRequest::new(0)).is_ok());
    }
}
