//! The unified query API: one request/outcome model across every PPR
//! solver.
//!
//! The paper frames staged diffusion (§IV), the LocalPPR-CPU baseline
//! (Fig. 2(b)), Monte-Carlo walks (Fig. 2(a)) and the FPGA-hybrid
//! accelerator (§V) as interchangeable solvers for the same query `π_s`.
//! This module makes that interchangeability a first-class API:
//!
//! * [`PprBackend`] — the solver trait: `query_with` borrows every piece
//!   of per-query scratch from a [`QueryWorkspace`]; the provided
//!   `query` and `query_batch` reuse workspaces from the backend's
//!   [`WorkspacePool`], so steady-state serving performs no heap
//!   allocation (see the `alloc_smoke` test);
//! * [`QueryRequest`] — seed, top-`k`, per-query parameter overrides and
//!   a deadline/budget hint;
//! * [`QueryOutcome`] — the ranking plus a normalized [`QueryStats`]
//!   (per-stage breakdown, work counters, modelled memory footprint,
//!   backend-reported latency estimate);
//! * [`BatchExecutor`] — batched serving on a scoped worker pool, one
//!   workspace per worker, outcomes in request order, aggregate
//!   [`BatchStats`] per batch;
//! * the **shared-cache serving topology** — one
//!   [`ConcurrentSubgraphCache`] (sharded, lock-striped, singleflight)
//!   per graph, attached to the staged backend via
//!   [`Meloppr::with_shared_cache`] and hammered by every batch worker
//!   at once: hot balls recurring across a skewed batch are extracted
//!   once and served as zero-copy `Arc<Subgraph>` handles everywhere
//!   else. Each backend holds its own
//!   [`CacheConsumer`] handle, so when
//!   several backends or executors share one cache, every
//!   [`BatchStats::cache`] delta counts exactly that backend's own
//!   lookups (no cross-attribution), and the staged `estimate()`
//!   discounts BFS by that consumer's *windowed* hit rate — honest
//!   numbers for the budget router even under shifting traffic, with
//!   an [`AdmissionPolicy`](crate::cache::AdmissionPolicy) keeping
//!   giant one-off balls from evicting the hot residents;
//! * [`Router`] — per-request backend selection driven by
//!   [`BackendCaps`] and each backend's [`CostEstimate`] against the
//!   request's [`QueryBudget`], optionally self-calibrating its latency
//!   estimates from observed queries.
//!
//! Four backends live in this crate — [`ExactPower`], [`LocalPpr`],
//! [`MonteCarlo`] and the staged [`Meloppr`] (whose shared sub-graph
//! cache is a constructor option). The fifth, the FPGA-hybrid engine,
//! implements the same trait in `meloppr_fpga::FpgaHybrid`.
//!
//! # Example
//!
//! ```
//! use meloppr_core::backend::{LocalPpr, PprBackend, QueryRequest};
//! use meloppr_core::PprParams;
//! use meloppr_graph::generators;
//!
//! # fn main() -> Result<(), meloppr_core::PprError> {
//! let g = generators::karate_club();
//! let backend = LocalPpr::new(&g, PprParams::new(0.85, 4, 5)?)?;
//! let outcome = backend.query(&QueryRequest::new(0))?;
//! assert_eq!(outcome.ranking.len(), 5);
//! assert_eq!(outcome.stats.total_diffusions, 1);
//! # Ok(())
//! # }
//! ```

mod batch;
mod exact;
mod local;
mod model;
mod monte_carlo;
pub mod persist;
mod router;
mod staged;

pub use batch::{BatchExecutor, BatchOutcome, BatchStats};
pub use exact::ExactPower;
pub use local::LocalPpr;
pub use model::{
    default_probe_seeds, estimate_staged_work, estimate_staged_work_with_depths, expected_selected,
    staged_precision_heuristic, LatencyModel, StagedWorkEstimate, WorkProfile,
};
pub use monte_carlo::MonteCarlo;
pub use router::{BreakerSnapshot, BreakerState, CalibrationEntry, Route, Router};
pub use staged::Meloppr;

use meloppr_graph::NodeId;

use crate::cache::{CacheConsumer, ConcurrentSubgraphCache};
use crate::error::Result;
use crate::local_ppr::LocalPprStats;
use crate::meloppr::{MelopprStats, StageStats};
use crate::params::PprParams;
use crate::quantized::PrecisionClass;
use crate::score_vec::Ranking;
use crate::workspace::{QueryWorkspace, WorkspacePool};

/// Which solver produced an outcome (or is being described).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// Exact full-graph diffusion (ground truth, Eq. 2).
    ExactPower,
    /// Single-stage diffusion on the depth-`L` ball (`LocalPPR-CPU`).
    LocalPpr,
    /// α-decay random-walk estimation (Fig. 2(a)).
    MonteCarlo,
    /// Multi-stage MeLoPPR (§IV), with or without a shared cache.
    Meloppr,
    /// The simulated CPU+FPGA hybrid platform (§V).
    FpgaHybrid,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BackendKind::ExactPower => "exact-power",
            BackendKind::LocalPpr => "local-ppr",
            BackendKind::MonteCarlo => "monte-carlo",
            BackendKind::Meloppr => "meloppr",
            BackendKind::FpgaHybrid => "fpga-hybrid",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) names back — the
    /// persistence layer and wire protocol speak these strings.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "exact-power" => Ok(BackendKind::ExactPower),
            "local-ppr" => Ok(BackendKind::LocalPpr),
            "monte-carlo" => Ok(BackendKind::MonteCarlo),
            "meloppr" => Ok(BackendKind::Meloppr),
            "fpga-hybrid" => Ok(BackendKind::FpgaHybrid),
            other => Err(format!("unknown backend kind {other:?}")),
        }
    }
}

/// Per-query overrides of the backend's configured parameters.
///
/// `None` fields inherit the backend's configuration. Backends honour
/// overrides by re-deriving their effective parameters for the one query;
/// the staged engines redistribute a `length` override over their
/// configured stage count (front-loading depth, as the planner does).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParamOverrides {
    /// Override the decay factor α.
    pub alpha: Option<f64>,
    /// Override the total diffusion length `L`.
    pub length: Option<usize>,
}

/// A latency/memory/precision budget attached to a request — matched by
/// the [`Router`] against backend [`CostEstimate`]s, and (for the memory
/// bound) **enforced at run time** by the staged backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryBudget {
    /// Soft deadline for the query, in milliseconds (advisory: routing
    /// input only).
    pub max_latency_ms: Option<f64>,
    /// Peak working-set bound, in bytes (the paper's on-chip/edge-device
    /// constraint).
    ///
    /// This bound is **enforced, not advisory**, by the staged
    /// [`Meloppr`] backend: `query_with` models every task's working set
    /// (the extracted ball's [`cpu_task_memory`](crate::memory::cpu_task_memory)
    /// plus aggregation-table and task-queue bytes) and deterministically
    /// shrinks the ball's BFS depth until the task fits, reporting
    /// [`QueryStats::memory_limited`] whenever it had to degrade. A
    /// budgeted staged query therefore never reports
    /// [`QueryStats::peak_memory_bytes`] above this bound (unless even
    /// single-node balls cannot fit, the honest floor), and a query
    /// whose budget was never hit is bit-identical to an unbudgeted run.
    /// `estimate()` applies the same per-task byte model (evaluated at
    /// query start, before aggregation state accrues), so the router's
    /// predicted budgets agree with enforcement for the first task and
    /// are never *looser* than it — enforcement can only degrade
    /// further as the aggregation table and queue grow, which the
    /// outcome reports.
    pub max_memory_bytes: Option<usize>,
    /// Minimum acceptable expected top-`k` precision in `[0, 1]`
    /// (`Some(1.0)` demands an exact backend). Advisory: routing input
    /// only.
    pub min_precision: Option<f64>,
    /// Requested score-arithmetic precision rung for the staged host
    /// path (`None` inherits [`PrecisionClass::Exact64`]). Honoured by
    /// the staged [`Meloppr`] backend, which runs its diffusions at this
    /// width and reports the executed class in
    /// [`QueryStats::precision_class`]; the serving front-end's
    /// admission path may *degrade* this rung (before it shrinks ball
    /// depth) when a deadline or byte budget is tight.
    pub precision: Option<PrecisionClass>,
}

impl QueryBudget {
    /// A budget with no constraints (every backend is admissible).
    pub fn unconstrained() -> Self {
        QueryBudget::default()
    }

    /// Requests a score-arithmetic precision rung (see
    /// [`QueryBudget::precision`]).
    #[must_use]
    pub fn with_precision(mut self, class: PrecisionClass) -> Self {
        self.precision = Some(class);
        self
    }
}

/// One PPR query in the unified API: seed, optional top-`k` override,
/// parameter overrides and a budget hint.
///
/// # Examples
///
/// ```
/// use meloppr_core::backend::QueryRequest;
///
/// let req = QueryRequest::new(7)
///     .with_k(20)
///     .with_max_memory_bytes(64 << 10);
/// assert_eq!(req.seed, 7);
/// assert_eq!(req.k, Some(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryRequest {
    /// The personalization seed node.
    pub seed: NodeId,
    /// How many top-ranked nodes to return (`None` inherits the backend's
    /// configured `k`).
    pub k: Option<usize>,
    /// Per-query parameter overrides.
    pub overrides: ParamOverrides,
    /// Deadline/budget hint used by the [`Router`] (and available to
    /// backends).
    pub budget: QueryBudget,
}

impl QueryRequest {
    /// A request for `seed` inheriting every backend default.
    pub fn new(seed: NodeId) -> Self {
        QueryRequest {
            seed,
            ..QueryRequest::default()
        }
    }

    /// Overrides the result size `k`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Overrides the decay factor α for this query.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.overrides.alpha = Some(alpha);
        self
    }

    /// Overrides the diffusion length `L` for this query.
    #[must_use]
    pub fn with_length(mut self, length: usize) -> Self {
        self.overrides.length = Some(length);
        self
    }

    /// Attaches a complete budget hint.
    #[must_use]
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a latency deadline (milliseconds).
    #[must_use]
    pub fn with_max_latency_ms(mut self, ms: f64) -> Self {
        self.budget.max_latency_ms = Some(ms);
        self
    }

    /// Attaches a peak-memory bound (bytes).
    #[must_use]
    pub fn with_max_memory_bytes(mut self, bytes: usize) -> Self {
        self.budget.max_memory_bytes = Some(bytes);
        self
    }

    /// Attaches a minimum expected-precision floor.
    #[must_use]
    pub fn with_min_precision(mut self, precision: f64) -> Self {
        self.budget.min_precision = Some(precision);
        self
    }

    /// Requests a score-arithmetic precision rung for the staged host
    /// path (see [`QueryBudget::precision`]).
    #[must_use]
    pub fn with_precision(mut self, class: PrecisionClass) -> Self {
        self.budget.precision = Some(class);
        self
    }

    /// The effective `PprParams` for this request given a backend's
    /// configured base parameters.
    pub fn effective_params(&self, base: &PprParams) -> Result<PprParams> {
        let params = PprParams {
            alpha: self.overrides.alpha.unwrap_or(base.alpha),
            length: self.overrides.length.unwrap_or(base.length),
            k: self.k.unwrap_or(base.k),
        };
        params.validate()?;
        Ok(params)
    }
}

/// Normalized accounting shared by every backend.
///
/// Single-stage backends report exactly one [`StageStats`] entry;
/// Monte-Carlo reports none (its work is counted in
/// [`QueryStats::random_walk_steps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Which solver ran the query.
    pub backend: BackendKind,
    /// Per-stage breakdown, index = stage.
    pub stages: Vec<StageStats>,
    /// Total sub-graph diffusions executed.
    pub total_diffusions: usize,
    /// Adjacency entries scanned by extraction BFS.
    pub bfs_edges_scanned: usize,
    /// Adjacency entries processed by diffusion.
    pub diffusion_edge_updates: usize,
    /// Random-walk steps taken (Monte-Carlo only; each is an off-chip
    /// neighbour probe in the Fig. 2(a) cost model).
    pub random_walk_steps: usize,
    /// Ball nodes touched across all diffusions (allocation/bookkeeping
    /// cost driver).
    pub nodes_touched: usize,
    /// Modelled peak working set of the query, in bytes.
    pub peak_memory_bytes: usize,
    /// Modelled bytes of the largest *single task* (the paper's Table II
    /// working-set metric: one stage ball's sub-graph + score vectors,
    /// excluding persistent aggregation state).
    pub peak_task_memory_bytes: usize,
    /// Entries resident in the aggregation state at the end.
    pub aggregate_entries: usize,
    /// Evictions/rejections in bounded aggregation tables (0 when exact).
    pub table_evictions: usize,
    /// Whether a [`QueryBudget::max_memory_bytes`] bound forced the
    /// backend to degrade deterministically (staged backends shrink
    /// stage-ball depth until the modelled working set fits). `false`
    /// for unbudgeted queries and for budgets met without degradation —
    /// those results are bit-identical to unbudgeted runs.
    pub memory_limited: bool,
    /// Score-arithmetic precision rung the query actually executed at.
    /// [`PrecisionClass::Exact64`] for every backend except the staged
    /// [`Meloppr`] host path, which honours
    /// [`QueryBudget::precision`] (possibly degraded by the serving
    /// front-end's admission ladder) and reports the rung that ran here.
    pub precision_class: PrecisionClass,
    /// Backend-reported end-to-end latency estimate in nanoseconds
    /// (`Some` for the simulated FPGA platform, whose timing model is the
    /// measurement; `None` for native CPU backends, which are measured by
    /// wall clock or charged via cost models).
    pub latency_estimate_ns: Option<f64>,
    /// Host-side (extraction/driver) share of
    /// [`QueryStats::latency_estimate_ns`], when the backend models it —
    /// the numerator of Fig. 7's "BFS time percentage" bars.
    pub host_latency_ns: Option<f64>,
}

impl QueryStats {
    fn empty(backend: BackendKind) -> Self {
        QueryStats {
            backend,
            stages: Vec::new(),
            total_diffusions: 0,
            bfs_edges_scanned: 0,
            diffusion_edge_updates: 0,
            random_walk_steps: 0,
            nodes_touched: 0,
            peak_memory_bytes: 0,
            peak_task_memory_bytes: 0,
            aggregate_entries: 0,
            table_evictions: 0,
            memory_limited: false,
            precision_class: PrecisionClass::Exact64,
            latency_estimate_ns: None,
            host_latency_ns: None,
        }
    }

    /// Normalizes the staged engine's native stats.
    pub fn from_meloppr(stats: &MelopprStats) -> Self {
        QueryStats {
            backend: BackendKind::Meloppr,
            stages: stats.stages.clone(),
            total_diffusions: stats.total_diffusions,
            bfs_edges_scanned: stats.bfs_edges_scanned,
            diffusion_edge_updates: stats.diffusion_edge_updates,
            nodes_touched: stats.trace.iter().map(|t| t.ball_nodes).sum(),
            peak_memory_bytes: stats.peak_cpu_bytes,
            peak_task_memory_bytes: stats.peak_task_memory.total(),
            aggregate_entries: stats.aggregate_entries,
            table_evictions: stats.table_evictions,
            memory_limited: stats.memory_limited,
            precision_class: stats.precision_class,
            ..QueryStats::empty(BackendKind::Meloppr)
        }
    }

    /// Normalizes the single-stage baseline's native stats.
    pub fn from_local(stats: &LocalPprStats) -> Self {
        QueryStats {
            backend: BackendKind::LocalPpr,
            stages: vec![StageStats {
                diffusions: 1,
                reused: 0,
                candidates: 0,
                expanded: 0,
                bfs_edges_scanned: stats.bfs_edges_scanned,
                diffusion_edge_updates: stats.diffusion_edge_updates,
                max_ball_nodes: stats.ball_nodes,
                max_ball_edges: stats.ball_edges,
            }],
            total_diffusions: 1,
            bfs_edges_scanned: stats.bfs_edges_scanned,
            diffusion_edge_updates: stats.diffusion_edge_updates,
            nodes_touched: stats.ball_nodes,
            peak_memory_bytes: stats.memory.total(),
            peak_task_memory_bytes: stats.memory.total(),
            aggregate_entries: stats.ball_nodes,
            ..QueryStats::empty(BackendKind::LocalPpr)
        }
    }
}

/// Result of one unified-API query: the ranking plus normalized stats.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The top-`k` ranking `T̂(s, k)`, highest score first, ties broken by
    /// ascending node id.
    pub ranking: Ranking,
    /// Normalized accounting.
    pub stats: QueryStats,
}

/// What a backend can and cannot do — the static half of routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCaps {
    /// Which solver this is.
    pub kind: BackendKind,
    /// Whether results are exact (equal to full-graph diffusion) under
    /// the backend's current configuration.
    pub exact: bool,
    /// Whether repeated identical queries return bit-identical outcomes.
    pub deterministic: bool,
    /// Whether the backend models a hardware accelerator (its
    /// [`QueryStats::latency_estimate_ns`] is authoritative).
    pub accelerated: bool,
    /// Whether `query_batch` does better than looping `query`.
    pub batch_aware: bool,
}

/// A backend's prediction of one query's cost — the dynamic half of
/// routing, matched against [`QueryBudget`].
///
/// Estimates come from each backend's [`WorkProfile`] (probed average
/// ball growth) and [`LatencyModel`] constants; precision figures are
/// documented heuristics calibrated on the paper's Fig. 6/7 sweeps, not
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted end-to-end latency, nanoseconds.
    pub latency_ns: f64,
    /// Predicted peak working set, bytes.
    pub peak_memory_bytes: usize,
    /// Expected top-`k` precision in `[0, 1]` (1.0 = exact).
    pub expected_precision: f64,
}

impl CostEstimate {
    /// Whether this estimate satisfies every constraint `budget` sets.
    pub fn fits(&self, budget: &QueryBudget) -> bool {
        budget
            .max_latency_ms
            .is_none_or(|ms| self.latency_ns <= ms * 1e6)
            && budget
                .max_memory_bytes
                .is_none_or(|bytes| self.peak_memory_bytes <= bytes)
            && budget
                .min_precision
                .is_none_or(|p| self.expected_precision + 1e-12 >= p)
    }
}

/// A PPR solver behind the unified query API.
///
/// All five engines implement this trait, so serving code can hold a
/// `Vec<Box<dyn PprBackend>>` and treat solver choice as data. Rankings
/// returned through the trait are bit-identical to the corresponding
/// direct engine calls (asserted by the `backend_equivalence` test
/// suite).
///
/// # Workspaces
///
/// The required query entry point is [`PprBackend::query_with`], which
/// borrows a [`QueryWorkspace`] for all per-query scratch storage. The
/// provided [`PprBackend::query`] checks a workspace out of the backend's
/// [`WorkspacePool`] (every bundled backend keeps one), so repeated
/// queries reuse warm buffers; reusing a workspace never changes results
/// (asserted by the `workspace_reuse` test suite).
pub trait PprBackend {
    /// Static capabilities of this backend under its configuration.
    fn capabilities(&self) -> BackendCaps;

    /// One-time warm-up: probe the graph, derive formats, prime caches.
    /// Idempotent; calling `query` without `prepare` is always correct,
    /// just possibly colder.
    fn prepare(&mut self) -> Result<()> {
        Ok(())
    }

    /// Predicts the cost of `req` without running it (used by the
    /// [`Router`]).
    fn estimate(&self, req: &QueryRequest) -> Result<CostEstimate>;

    /// Runs one query, borrowing its scratch storage from `ws`.
    ///
    /// The workspace may be fresh or reused from any prior query on any
    /// backend; outcomes are identical either way.
    fn query_with(&self, req: &QueryRequest, ws: &mut QueryWorkspace) -> Result<QueryOutcome>;

    /// The backend's shared workspace pool, if it keeps one. Backends
    /// returning `Some` get allocation-free steady-state [`PprBackend::query`]
    /// and [`PprBackend::query_batch`] for free.
    fn workspace_pool(&self) -> Option<&WorkspacePool> {
        None
    }

    /// The concurrent sub-graph cache this backend extracts through, if
    /// any (see [`Meloppr::with_shared_cache`]). Exposes the
    /// cache-global view (capacity, residency, whole-cache counters).
    fn shared_cache(&self) -> Option<&ConcurrentSubgraphCache> {
        None
    }

    /// This backend's own [`CacheConsumer`] handle on its shared cache,
    /// if it keeps one. The [`BatchExecutor`] brackets each batch with
    /// snapshots of **this** consumer's counters and reports the delta in
    /// [`BatchStats::cache`], so a batch's cache accounting counts
    /// exactly the batch's own lookups even when other executors or
    /// backends hammer the same cache concurrently. Backends that
    /// return a `shared_cache` should return its consumer here too;
    /// otherwise the executor falls back to (cross-attributable)
    /// global-counter deltas.
    fn cache_consumer(&self) -> Option<&CacheConsumer> {
        None
    }

    /// Runs one query, reusing a pooled workspace when the backend has
    /// one.
    fn query(&self, req: &QueryRequest) -> Result<QueryOutcome> {
        match self.workspace_pool() {
            Some(pool) => {
                let mut ws = pool.acquire();
                let outcome = self.query_with(req, &mut ws);
                pool.release(ws);
                outcome
            }
            None => self.query_with(req, &mut QueryWorkspace::new()),
        }
    }

    /// Runs a batch of queries sequentially through **one** reused
    /// workspace, returning outcomes in request order. Fails fast on the
    /// first error.
    ///
    /// For multi-worker execution with one workspace per worker and
    /// aggregate accounting, drive the backend through a
    /// [`BatchExecutor`].
    fn query_batch(&self, reqs: &[QueryRequest]) -> Result<Vec<QueryOutcome>> {
        match self.workspace_pool() {
            Some(pool) => {
                let mut ws = pool.acquire();
                let outcomes = reqs
                    .iter()
                    .map(|req| self.query_with(req, &mut ws))
                    .collect();
                pool.release(ws);
                outcomes
            }
            None => {
                let mut ws = QueryWorkspace::new();
                reqs.iter()
                    .map(|req| self.query_with(req, &mut ws))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_composes() {
        let req = QueryRequest::new(3)
            .with_k(7)
            .with_alpha(0.5)
            .with_length(4)
            .with_max_latency_ms(2.0)
            .with_min_precision(0.9);
        assert_eq!(req.seed, 3);
        assert_eq!(req.k, Some(7));
        assert_eq!(req.overrides.alpha, Some(0.5));
        assert_eq!(req.overrides.length, Some(4));
        assert_eq!(req.budget.max_latency_ms, Some(2.0));
        assert_eq!(req.budget.min_precision, Some(0.9));
    }

    #[test]
    fn effective_params_merge_and_validate() {
        let base = PprParams::new(0.85, 6, 200).unwrap();
        let req = QueryRequest::new(0).with_k(10).with_length(4);
        let p = req.effective_params(&base).unwrap();
        assert_eq!((p.alpha, p.length, p.k), (0.85, 4, 10));
        // Invalid overrides are rejected, not silently clamped.
        assert!(QueryRequest::new(0)
            .with_alpha(1.5)
            .effective_params(&base)
            .is_err());
    }

    #[test]
    fn cost_estimate_budget_matching() {
        let est = CostEstimate {
            latency_ns: 5e6,
            peak_memory_bytes: 1000,
            expected_precision: 0.9,
        };
        assert!(est.fits(&QueryBudget::unconstrained()));
        assert!(est.fits(&QueryBudget {
            max_latency_ms: Some(10.0),
            max_memory_bytes: Some(2000),
            min_precision: Some(0.9),
            precision: None,
        }));
        assert!(!est.fits(&QueryBudget {
            max_latency_ms: Some(1.0),
            ..QueryBudget::default()
        }));
        assert!(!est.fits(&QueryBudget {
            max_memory_bytes: Some(999),
            ..QueryBudget::default()
        }));
        assert!(!est.fits(&QueryBudget {
            min_precision: Some(0.95),
            ..QueryBudget::default()
        }));
    }

    #[test]
    fn backend_kind_display_names() {
        assert_eq!(BackendKind::ExactPower.to_string(), "exact-power");
        assert_eq!(BackendKind::FpgaHybrid.to_string(), "fpga-hybrid");
    }
}
