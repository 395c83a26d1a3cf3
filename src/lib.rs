//! # MeLoPPR — memory-efficient, low-latency Personalized PageRank
//!
//! A from-scratch Rust reproduction of *"MeLoPPR: Software/Hardware
//! Co-design for Memory-efficient Low-latency Personalized PageRank"*
//! (Li, Chen, Zirnheld, Li, Hao — DAC 2021, arXiv:2104.09616).
//!
//! This facade crate re-exports the three library layers so applications
//! can depend on a single crate:
//!
//! * [`graph`] ([`meloppr_graph`]) — CSR graphs, BFS ball extraction,
//!   sub-graphs, generators (including synthetic stand-ins for the
//!   paper's six SNAP evaluation graphs) and SNAP edge-list I/O;
//! * [`core`] ([`meloppr_core`]) — the MeLoPPR algorithm: graph
//!   diffusion, stage/linear decomposition, sparsity-driven selection,
//!   baselines, precision and memory models, and the **unified query
//!   API** ([`PprBackend`], [`QueryRequest`], [`Router`]);
//! * [`fpga`] ([`meloppr_fpga`]) — the cycle-approximate CPU+FPGA
//!   accelerator simulator (fixed-point PEs, conflict scheduler, BRAM
//!   tables, KC705 resource model) and its [`FpgaHybrid`] backend.
//!
//! The most commonly used items are also re-exported at the crate root.
//!
//! ## Quick start
//!
//! Every solver answers the same [`QueryRequest`] through the
//! [`PprBackend`] trait:
//!
//! ```
//! use meloppr::backend::{Meloppr, PprBackend, QueryRequest};
//! use meloppr::graph::generators;
//! use meloppr::{MelopprParams, PprParams, SelectionStrategy};
//!
//! # fn main() -> Result<(), meloppr::core::PprError> {
//! // Who should node 0 of the karate club follow?
//! let g = generators::karate_club();
//! let params = MelopprParams::two_stage(
//!     PprParams::new(0.85, 4, 5)?,
//!     2,
//!     2,
//!     SelectionStrategy::TopFraction(0.3),
//! )?;
//! let backend = Meloppr::new(&g, params)?;
//! let outcome = backend.query(&QueryRequest::new(0))?;
//! for (node, score) in &outcome.ranking {
//!     println!("node {node}: {score:.4}");
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Choosing a backend
//!
//! Five interchangeable solvers implement [`PprBackend`]; hold them as
//! `Box<dyn PprBackend>` or let the [`Router`] pick one per request from
//! its budget hint:
//!
//! | Backend | Exact? | Memory profile | Reach for it when |
//! |---|---|---|---|
//! | [`backend::ExactPower`] | yes | dense vectors over the full graph | ground truth, small graphs, evaluation |
//! | [`backend::LocalPpr`] | yes | the whole depth-`L` ball `G_L(s)` | exactness required and the ball fits memory |
//! | [`backend::Meloppr`] | at 100 % selection | one stage ball at a time | the paper's sweet spot: tight memory, high precision; shared-cache option |
//! | [`backend::MonteCarlo`] | no | near-constant | very tight memory/latency, approximate answers fine |
//! | [`FpgaHybrid`] | no (fixed-point) | on-chip BRAM tables | lowest simulated latency; accelerator studies |
//!
//! ```
//! use meloppr::backend::{LocalPpr, Meloppr, MonteCarlo, QueryRequest, Router};
//! use meloppr::graph::generators;
//! use meloppr::{MelopprParams, PprParams};
//!
//! # fn main() -> Result<(), meloppr::core::PprError> {
//! let g = generators::karate_club();
//! let ppr = PprParams::new(0.85, 4, 5)?;
//! let mut staged = MelopprParams::paper_defaults();
//! staged.ppr = ppr;
//! staged.stages = vec![2, 2];
//!
//! let router = Router::new()
//!     .with_backend(Box::new(LocalPpr::new(&g, ppr)?))
//!     .with_backend(Box::new(Meloppr::new(&g, staged)?))
//!     .with_backend(Box::new(MonteCarlo::new(&g, ppr, 2000, 42)?));
//!
//! // Tight memory routes away from the depth-L ball; exactness routes
//! // toward it.
//! let tight = QueryRequest::new(0).with_max_memory_bytes(4 << 10);
//! let exact = QueryRequest::new(0).with_min_precision(1.0);
//! assert_eq!(router.query(&tight)?.ranking.len(), 5);
//! assert_eq!(router.query(&exact)?.ranking.len(), 5);
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving batches
//!
//! Every query borrows its scratch storage (BFS frontiers, sub-graph
//! buffers, dense score vectors) from a reusable [`QueryWorkspace`], so
//! steady-state serving does not touch the allocator. For whole batches,
//! [`BatchExecutor`] runs requests on a scoped worker pool with one
//! workspace per worker and returns outcomes in request order plus
//! aggregate [`BatchStats`]:
//!
//! ```
//! use meloppr::backend::{BatchExecutor, Meloppr, QueryRequest};
//! use meloppr::graph::generators;
//! use meloppr::{MelopprParams, PprParams, SelectionStrategy};
//!
//! # fn main() -> Result<(), meloppr::core::PprError> {
//! let g = generators::karate_club();
//! let params = MelopprParams::two_stage(
//!     PprParams::new(0.85, 4, 5)?,
//!     2,
//!     2,
//!     SelectionStrategy::TopFraction(0.3),
//! )?;
//! let backend = Meloppr::new(&g, params)?;
//! let reqs: Vec<QueryRequest> = (0..16).map(QueryRequest::new).collect();
//! let batch = BatchExecutor::new(4)?.run(&backend, &reqs)?;
//! assert_eq!(batch.outcomes.len(), 16);
//! println!("{:.0} queries/s", batch.stats.throughput_qps());
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable scenarios (recommender,
//! accelerated queries, precision sweeps, edge-device planning) and the
//! `meloppr-bench` crate for the experiment harness that regenerates
//! every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use meloppr_core as core;
pub use meloppr_fpga as fpga;
pub use meloppr_graph as graph;

/// The unified query API (re-export of [`meloppr_core::backend`]).
pub use meloppr_core::backend;

/// The deadline-aware serving front-end (re-export of
/// [`meloppr_core::server`]): [`PprServer`], the length-prefixed wire
/// protocol, the bounded EDF queue, and serving telemetry.
pub use meloppr_core::server;

pub use meloppr_core::{
    build_index, exact_ppr, exact_top_k, format_bytes, parse_byte_size, precision_at_k,
    AdmissionPolicy, BackendCaps, BackendError, BackendKind, BallIndex, BatchExecutor,
    BatchOutcome, BatchStats, CacheBudget, CacheConsumer, CacheStats, CachedBall, CompactBall,
    ConcurrentSubgraphCache, ConsumerStats, CostEstimate, IndexBuildReport, MelopprEngine,
    MelopprOutcome, MelopprParams, PprBackend, PprParams, PprServer, PrecisionClass, QueryBudget,
    QueryOutcome, QueryRequest, QueryStats, QueryWorkspace, Ranking, ResidualPolicy, Route, Router,
    SelectionStrategy, ServerConfig, TelemetrySnapshot, WorkspacePool,
};
pub use meloppr_fpga::{AcceleratorConfig, FpgaHybrid, HybridConfig, HybridMeloppr};
pub use meloppr_graph::{
    bfs_ball, CsrGraph, ExtractScratch, GraphBuilder, GraphView, NodeId, Subgraph,
};
