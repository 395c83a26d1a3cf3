//! # MeLoPPR core — memory-efficient, low-latency Personalized PageRank
//!
//! This crate implements the algorithmic contribution of *"MeLoPPR:
//! Software/Hardware Co-design for Memory-efficient Low-latency
//! Personalized PageRank"* (DAC 2021): a multi-stage decomposition of the
//! graph-diffusion formulation of PPR that replaces one huge depth-`L` BFS
//! ball with a cascade of small per-stage balls, plus the sparsity-driven
//! next-stage selection that trades latency for precision.
//!
//! ## What's here
//!
//! * [`backend`] — **the unified query API**: the [`PprBackend`] trait,
//!   [`QueryRequest`]/[`QueryOutcome`], four of its five solvers
//!   ([`ExactPower`], [`LocalPpr`](backend::LocalPpr),
//!   [`MonteCarlo`](backend::MonteCarlo), staged
//!   [`Meloppr`](backend::Meloppr)), the self-calibrating budget-driven
//!   [`Router`], and the [`BatchExecutor`] worker pool;
//! * [`server`] — the long-lived serving front-end: [`PprServer`]
//!   speaks a length-prefixed TCP protocol and schedules every request
//!   under a deadline (EDF queue, latest-deadline load shedding,
//!   fast-fail admission), exporting latency/shed/route telemetry;
//!   [`backend::persist`] keeps router calibration and cache hit-rate
//!   state warm across restarts;
//! * [`QueryWorkspace`] — the reusable scratch arena behind the
//!   zero-allocation query path (one [`WorkspacePool`] per backend);
//! * [`cache`] — sub-graph caching on one core: the
//!   [`ConcurrentSubgraphCache`], a sharded, lock-striped, singleflight
//!   cache shared by all batch workers so hot balls in skewed traffic
//!   are extracted once and reused zero-copy, and a repeated stage task
//!   merges its stored result instead of diffusing again (attach with
//!   [`backend::Meloppr::with_shared_cache`]), governed by a
//!   byte-and/or-entry [`CacheBudget`] that is never exceeded;
//! * [`ballindex`] — the disk half of the two-tier ball store: an
//!   offline-built, CRC-checksummed per-node ball index
//!   ([`build_index`]) that the cache's cold tier
//!   ([`ConcurrentSubgraphCache::with_cold_tier`]) serves RAM misses
//!   from with one positioned read ([`BallIndex`]), serving the decoded
//!   compact ball as-is (it diffuses to the same bits as the
//!   BFS-extracted sub-graph) and falling back to live BFS only when the
//!   index lacks the node or its depth;
//! * [`diffusion`] — the `GD(l)` kernel producing accumulated (`πa`) and
//!   residual (`πr`) scores (Eq. 1, Fig. 3(b)), with
//!   [`diffuse_into`] computing into caller-owned scratch, over the full
//!   graph and either ball form;
//! * [`quantized`] — **the precision ladder**: [`PrecisionClass`]
//!   (`Exact64` / `Fast32` / `Fixed(q)`), the [`ScoreScalar`] abstraction
//!   over f32/Q-format score words, the dense branch-free
//!   [`diffuse_quantized`] kernel, and [`CompactBall`] — the half-width
//!   cached-ball representation that lets the same
//!   [`CacheBudget`] admit ~2× more residents. Queries pick a rung via
//!   [`QueryBudget::with_precision`]; the server's admission path degrades
//!   the rung (before ball depth) when a deadline or byte budget is tight
//!   and reports the executed class in [`QueryStats`] and telemetry;
//! * [`MelopprEngine`] — the multi-stage engine implementing stage
//!   decomposition (Eq. 6), linear decomposition (Eq. 7) and sparsity
//!   exploitation (Eq. 8, §IV-D);
//! * [`exact_top_k`] — ground truth `T(s, k)` and [`precision`] — the
//!   `Prec(s, k)` metric;
//! * [`monte_carlo`] — the Fig. 2(a) random-walk comparator;
//! * [`GlobalScoreTable`] — the bounded `c·k` aggregation table of §V-B;
//! * [`memory`] — the analytic CPU/FPGA memory models behind Table II;
//! * [`sparsity`] — score-distribution analysis behind Fig. 6;
//! * [`planner`] — budget-driven stage planning ("adaptive" extension).
//!
//! ## Quick start
//!
//! Every solver answers the same [`QueryRequest`] and returns the same
//! [`QueryOutcome`]. Per-query scratch (BFS frontiers, sub-graph
//! buffers, dense score vectors, the aggregation table) lives in a
//! [`QueryWorkspace`] that [`PprBackend::query`] silently reuses from
//! the backend's pool, so steady-state serving never touches the
//! allocator:
//!
//! ```
//! use meloppr_core::backend::{Meloppr, PprBackend, QueryRequest};
//! use meloppr_core::{exact_top_k, precision::precision_at_k};
//! use meloppr_core::{MelopprParams, PprParams, SelectionStrategy};
//! use meloppr_graph::generators;
//!
//! # fn main() -> Result<(), meloppr_core::PprError> {
//! let graph = generators::karate_club();
//!
//! // Two-stage MeLoPPR: L = 4 split as 2 + 2, expanding the top half of
//! // the next-stage candidates.
//! let params = MelopprParams::two_stage(
//!     PprParams::new(0.85, 4, 5)?,
//!     2,
//!     2,
//!     SelectionStrategy::TopFraction(0.5),
//! )?;
//! let backend = Meloppr::new(&graph, params)?;
//! let outcome = backend.query(&QueryRequest::new(0))?;
//!
//! // Compare against exact ground truth.
//! let exact = exact_top_k(&graph, 0, &backend.params().ppr)?;
//! let prec = precision_at_k(&outcome.ranking, &exact, 5);
//! assert!(prec >= 0.6);
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving batches
//!
//! [`BatchExecutor`] runs request batches on scoped worker threads, one
//! workspace per worker, returning outcomes in request order plus
//! aggregate [`BatchStats`]; results are bit-identical to a sequential
//! loop:
//!
//! ```
//! use meloppr_core::backend::{BatchExecutor, LocalPpr, QueryRequest};
//! use meloppr_core::PprParams;
//! use meloppr_graph::generators;
//!
//! # fn main() -> Result<(), meloppr_core::PprError> {
//! let graph = generators::karate_club();
//! let backend = LocalPpr::new(&graph, PprParams::new(0.85, 4, 5)?)?;
//! let reqs: Vec<QueryRequest> = (0..8).map(QueryRequest::new).collect();
//! let batch = BatchExecutor::new(4)?.run(&backend, &reqs)?;
//! assert_eq!(batch.outcomes.len(), 8);
//! assert!(batch.stats.throughput_qps() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Routing
//!
//! Or let the [`Router`] pick a solver per request from its budget hint
//! — optionally self-calibrating its latency estimates from served
//! queries ([`Router::with_self_calibration`]):
//!
//! ```
//! use meloppr_core::backend::{
//!     ExactPower, LocalPpr, MonteCarlo, QueryRequest, Router,
//! };
//! use meloppr_core::PprParams;
//! use meloppr_graph::generators;
//!
//! # fn main() -> Result<(), meloppr_core::PprError> {
//! let graph = generators::karate_club();
//! let params = PprParams::new(0.85, 4, 5)?;
//! let router = Router::new()
//!     .with_backend(Box::new(ExactPower::new(&graph, params)?))
//!     .with_backend(Box::new(LocalPpr::new(&graph, params)?))
//!     .with_backend(Box::new(MonteCarlo::new(&graph, params, 2000, 42)?))
//!     .with_self_calibration(true);
//!
//! // A tight deadline tolerating approximation routes differently than
//! // an exactness requirement.
//! let fast = QueryRequest::new(0).with_max_latency_ms(0.05);
//! let exact = QueryRequest::new(0).with_min_precision(1.0);
//! assert_eq!(router.query(&fast)?.ranking.len(), 5);
//! assert_eq!(router.query(&exact)?.ranking.len(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod ballindex;
pub mod cache;
pub mod diffusion;
mod error;
pub mod failpoint;
mod global_table;
mod ground_truth;
mod local_ppr;
mod meloppr;
pub mod memory;
pub mod monte_carlo;
mod params;
pub mod planner;
pub mod precision;
pub mod push;
pub mod quantized;
pub mod score_vec;
mod selection;
pub mod server;
pub mod sparsity;
#[cfg(test)]
pub(crate) mod test_util;
mod workspace;

pub use backend::{
    BackendCaps, BackendKind, BatchExecutor, BatchOutcome, BatchStats, CostEstimate, ExactPower,
    PprBackend, QueryBudget, QueryOutcome, QueryRequest, QueryStats, Route, Router,
};
pub use ballindex::{build_index, BallIndex, IndexBuildReport};
pub use cache::{
    AdmissionPolicy, CacheBudget, CacheConsumer, CacheStats, CachedBall, ConcurrentSubgraphCache,
    ConsumerStats,
};
pub use diffusion::{
    diffuse, diffuse_from_seed, diffuse_into, DiffusionConfig, DiffusionOutput, DiffusionScratch,
    DiffusionWork,
};
pub use error::{BackendError, PprError, Result};
pub use global_table::GlobalScoreTable;
pub use ground_truth::{exact_ppr, exact_top_k};
pub use local_ppr::{LocalPprResult, LocalPprStats};
pub use meloppr::{DiffusionRecord, MelopprEngine, MelopprOutcome, MelopprStats, StageStats};
pub use memory::{format_bytes, parse_byte_size};
pub use params::{MelopprParams, PprParams, ResidualPolicy};
pub use planner::{plan_stages, StagePlan};
pub use precision::{mean_precision, precision_at_k};
pub use push::{forward_push, PushResult};
pub use quantized::{
    diffuse_quantized, CompactBall, PrecisionClass, QCtx, Qu32, QuantScratch, ScoreScalar,
};
pub use score_vec::Ranking;
pub use selection::SelectionStrategy;
pub use server::{PprServer, ServerConfig, TelemetrySnapshot};
pub use workspace::{QueryWorkspace, WorkspacePool};
