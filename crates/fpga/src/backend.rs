//! The CPU+FPGA hybrid engine behind the unified query API.
//!
//! [`FpgaHybrid`] adapts [`HybridMeloppr`] to
//! [`meloppr_core::backend::PprBackend`], so the accelerator simulator
//! participates in trait-object serving and budget routing alongside the
//! CPU solvers. Accelerator failures are folded into the core error
//! taxonomy: every [`FpgaError`] surfaces as
//! [`BackendError::Accelerator`](meloppr_core::BackendError::Accelerator)
//! (graph errors stay [`PprError::Graph`](meloppr_core::PprError::Graph)).

use meloppr_core::backend::{
    estimate_staged_work, staged_precision_heuristic, BackendCaps, BackendKind, CostEstimate,
    PprBackend, QueryOutcome, QueryRequest, QueryStats, WorkProfile,
};
use meloppr_core::memory::{fpga_bram_bytes, fpga_global_table_bytes};
use meloppr_core::{
    BackendError, MelopprParams, PprError, QueryWorkspace, StageStats, WorkspacePool,
};
use meloppr_graph::GraphView;

use crate::error::FpgaError;
use crate::host::{HybridConfig, HybridMeloppr, HybridOutcome};
use crate::latency::cycles_to_ns;

impl From<FpgaError> for PprError {
    fn from(err: FpgaError) -> Self {
        match err {
            FpgaError::Graph(g) => PprError::Graph(g),
            other => PprError::Backend(BackendError::Accelerator {
                reason: other.to_string(),
            }),
        }
    }
}

/// The simulated CPU+FPGA platform (§V) as a unified-API backend.
///
/// Rankings are bit-identical to calling [`HybridMeloppr::query`]
/// directly; [`QueryStats::latency_estimate_ns`] carries the simulator's
/// authoritative end-to-end latency model (the number Fig. 5/7 report).
///
/// # Examples
///
/// ```
/// use meloppr_core::backend::{PprBackend, QueryRequest};
/// use meloppr_core::MelopprParams;
/// use meloppr_fpga::{FpgaHybrid, HybridConfig};
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_fpga::FpgaError> {
/// let g = generators::karate_club();
/// let mut params = MelopprParams::paper_defaults();
/// params.ppr.k = 5;
/// let backend = FpgaHybrid::new(&g, params, HybridConfig::default())?;
/// let outcome = backend.query(&QueryRequest::new(0)).expect("query");
/// assert!(outcome.stats.latency_estimate_ns.unwrap() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FpgaHybrid<'g, G: GraphView + ?Sized> {
    graph: &'g G,
    params: MelopprParams,
    config: HybridConfig,
    engine: HybridMeloppr<'g, G>,
    profile: WorkProfile,
    pool: WorkspacePool,
}

impl<'g, G: GraphView + ?Sized> FpgaHybrid<'g, G> {
    /// Creates the backend: validates parameters/configuration, derives
    /// the fixed-point format and probes ball growth for cost estimates.
    ///
    /// # Errors
    ///
    /// As [`HybridMeloppr::new`].
    pub fn new(graph: &'g G, params: MelopprParams, config: HybridConfig) -> crate::Result<Self> {
        let engine = HybridMeloppr::new(graph, params.clone(), config)?;
        let profile = WorkProfile::probe_default(graph, params.ppr.length as u32)
            .map_err(|e| FpgaError::Ppr(e.to_string()))?;
        Ok(FpgaHybrid {
            graph,
            params,
            config,
            engine,
            profile,
            pool: WorkspacePool::new(),
        })
    }

    /// The backend's configured base parameters.
    pub fn params(&self) -> &MelopprParams {
        &self.params
    }

    /// The underlying simulator engine (format inspection etc.).
    pub fn engine(&self) -> &HybridMeloppr<'g, G> {
        &self.engine
    }

    fn effective_meloppr(&self, req: &QueryRequest) -> meloppr_core::Result<MelopprParams> {
        let ppr = req.effective_params(&self.params.ppr)?;
        if ppr.length != self.params.ppr.length {
            // Restaging plus re-deriving the fixed-point format per query
            // is not what the accelerator is for; refuse explicitly.
            return Err(BackendError::Unsupported {
                backend: "fpga-hybrid",
                reason: format!(
                    "per-query length override ({} -> {}) requires reconfiguring the \
                     accelerator; create a dedicated FpgaHybrid instead",
                    self.params.ppr.length, ppr.length
                ),
            }
            .into());
        }
        let params = MelopprParams {
            ppr,
            ..self.params.clone()
        };
        params.validate()?;
        Ok(params)
    }

    fn normalize(&self, outcome: HybridOutcome) -> QueryOutcome {
        let stats = &outcome.stats;
        let stages: Vec<StageStats> = stats
            .stage_diffusions
            .iter()
            .map(|&diffusions| StageStats {
                diffusions,
                reused: 0,
                ..StageStats::default()
            })
            .collect();
        QueryOutcome {
            stats: QueryStats {
                backend: BackendKind::FpgaHybrid,
                stages,
                total_diffusions: stats.diffusions,
                bfs_edges_scanned: 0, // host BFS cost is carried in ns below
                diffusion_edge_updates: 0,
                random_walk_steps: 0,
                nodes_touched: 0,
                peak_memory_bytes: stats.bram_peak_bytes,
                // The largest single task on chip: the peak ball's packed
                // sub-graph + score tables (Table II's FPGA column).
                peak_task_memory_bytes: fpga_bram_bytes(stats.max_ball_nodes, stats.max_ball_edges),
                aggregate_entries: outcome.ranking_int.len(),
                table_evictions: stats.table_evictions,
                memory_limited: false,
                // The accelerator always runs Q-format arithmetic; report
                // the derived fraction width as the executed rung.
                precision_class: meloppr_core::PrecisionClass::Fixed(self.engine.format().q() as u8),
                latency_estimate_ns: Some(outcome.latency.total_ns()),
                host_latency_ns: Some(outcome.latency.host_bfs_ns),
            },
            ranking: outcome.ranking,
        }
    }
}

impl<G: GraphView + ?Sized> PprBackend for FpgaHybrid<'_, G> {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::FpgaHybrid,
            exact: false, // fixed-point truncation is always in play
            deterministic: true,
            accelerated: true,
            batch_aware: true,
        }
    }

    fn estimate(&self, req: &QueryRequest) -> meloppr_core::Result<CostEstimate> {
        let params = self.effective_meloppr(req)?;
        let work = estimate_staged_work(&self.profile, &params);
        let accel = &self.config.accel;
        // Diffusion cycles: each PE processes its share of the ball's
        // adjacency per iteration; scheduling conflicts and transfers add
        // a constant-factor overhead the simulator measures precisely —
        // 2x is a routing-grade bound.
        let parallelism = accel.parallelism.max(1) as f64;
        let compute_cycles = 2.0 * (work.diffusion_edges / parallelism + work.nodes_touched);
        let host = &self.config.host;
        let host_ns = host.fixed_overhead_ns
            + work.bfs_edges * host.ns_per_bfs_edge
            + work.nodes_touched * host.ns_per_extract_node;
        let table_bytes = fpga_global_table_bytes(params.table_factor.unwrap_or(10), params.ppr.k);
        Ok(CostEstimate {
            latency_ns: host_ns + cycles_to_ns(compute_cycles as u64, accel.clock_mhz),
            peak_memory_bytes: fpga_bram_bytes(work.peak_ball.nodes, work.peak_ball.edges)
                + table_bytes,
            // Fixed-point quantization costs a couple of points on top of
            // the staged heuristic (§V-A: < 4 % at the lossiest scaling).
            expected_precision: (staged_precision_heuristic(&params) - 0.02).max(0.0),
        })
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool> {
        Some(&self.pool)
    }

    fn query_with(
        &self,
        req: &QueryRequest,
        ws: &mut QueryWorkspace,
    ) -> meloppr_core::Result<QueryOutcome> {
        let outcome = if req.k.is_none() && req.overrides == Default::default() {
            self.engine.query_with(req.seed, ws)?
        } else {
            let params = self.effective_meloppr(req)?;
            HybridMeloppr::new(self.graph, params, self.config)?.query_with(req.seed, ws)?
        };
        Ok(self.normalize(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meloppr_core::{PprParams, SelectionStrategy};
    use meloppr_graph::generators;

    fn params() -> MelopprParams {
        MelopprParams {
            ppr: PprParams::new(0.85, 4, 8).unwrap(),
            stages: vec![2, 2],
            selection: SelectionStrategy::All,
            ..MelopprParams::paper_defaults()
        }
    }

    #[test]
    fn matches_direct_engine_bit_for_bit() {
        let g = generators::karate_club();
        let backend = FpgaHybrid::new(&g, params(), HybridConfig::default()).unwrap();
        let direct = HybridMeloppr::new(&g, params(), HybridConfig::default())
            .unwrap()
            .query(0)
            .unwrap();
        let via_trait = backend.query(&QueryRequest::new(0)).unwrap();
        assert_eq!(via_trait.ranking, direct.ranking);
        assert_eq!(
            via_trait.stats.latency_estimate_ns,
            Some(direct.latency.total_ns())
        );
        assert_eq!(
            via_trait.stats.peak_memory_bytes,
            direct.stats.bram_peak_bytes
        );
    }

    #[test]
    fn k_override_serves_smaller_rankings() {
        let g = generators::karate_club();
        let backend = FpgaHybrid::new(&g, params(), HybridConfig::default()).unwrap();
        let outcome = backend.query(&QueryRequest::new(0).with_k(3)).unwrap();
        assert_eq!(outcome.ranking.len(), 3);
    }

    #[test]
    fn length_override_is_refused_with_taxonomy_error() {
        let g = generators::karate_club();
        let backend = FpgaHybrid::new(&g, params(), HybridConfig::default()).unwrap();
        let err = backend
            .query(&QueryRequest::new(0).with_length(2))
            .unwrap_err();
        assert!(matches!(
            err,
            PprError::Backend(BackendError::Unsupported {
                backend: "fpga-hybrid",
                ..
            })
        ));
    }

    #[test]
    fn accelerator_errors_fold_into_ppr_error() {
        let converted: PprError = FpgaError::CapacityExceeded {
            required: 10,
            available: 1,
        }
        .into();
        assert!(matches!(
            converted,
            PprError::Backend(BackendError::Accelerator { .. })
        ));
        let graph_err: PprError = FpgaError::Graph(meloppr_graph::GraphError::EmptyGraph).into();
        assert!(matches!(graph_err, PprError::Graph(_)));
    }

    #[test]
    fn estimate_reports_accelerated_costs() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.15, 4)
            .unwrap();
        let backend = FpgaHybrid::new(&g, params(), HybridConfig::default()).unwrap();
        let est = backend.estimate(&QueryRequest::new(0)).unwrap();
        assert!(est.latency_ns > 0.0);
        assert!(est.peak_memory_bytes > 0);
        assert!(est.expected_precision < 1.0);
        assert!(backend.capabilities().accelerated);
    }
}
