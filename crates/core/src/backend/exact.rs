//! The exact full-graph diffusion backend (ground truth as a service).

use meloppr_graph::{GraphView, NodeId};

use super::{
    BackendCaps, BackendKind, CostEstimate, LatencyModel, PprBackend, QueryOutcome, QueryRequest,
    QueryStats,
};
use crate::diffusion::{diffuse_into, DiffusionConfig};
use crate::error::Result;
use crate::meloppr::StageStats;
use crate::memory::cpu_task_memory;
use crate::params::PprParams;
use crate::score_vec::top_k_in_place;
use crate::workspace::{QueryWorkspace, WorkspacePool};

/// Exact power-iteration diffusion over the whole graph (Eq. 2's
/// `T(s, k)` behind the unified API).
///
/// Always exact and always the most memory-hungry choice: the full graph
/// and dense score vectors stay resident. The [`Router`](super::Router)
/// reaches for it when a request demands `min_precision = 1.0` and memory
/// allows.
///
/// # Examples
///
/// ```
/// use meloppr_core::backend::{ExactPower, PprBackend, QueryRequest};
/// use meloppr_core::PprParams;
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let backend = ExactPower::new(&g, PprParams::new(0.85, 4, 5)?)?;
/// let outcome = backend.query(&QueryRequest::new(0))?;
/// assert_eq!(outcome.ranking[0].0, 0); // the seed dominates
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExactPower<'g, G: GraphView + ?Sized> {
    graph: &'g G,
    params: PprParams,
    latency: LatencyModel,
    pool: WorkspacePool,
}

impl<'g, G: GraphView + ?Sized> ExactPower<'g, G> {
    /// Creates the backend, validating `params` eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`](crate::PprError::InvalidParams)
    /// on invalid parameters.
    pub fn new(graph: &'g G, params: PprParams) -> Result<Self> {
        params.validate()?;
        Ok(ExactPower {
            graph,
            params,
            latency: LatencyModel::default(),
            pool: WorkspacePool::new(),
        })
    }

    /// The backend's configured base parameters.
    pub fn params(&self) -> &PprParams {
        &self.params
    }
}

impl<G: GraphView + ?Sized> PprBackend for ExactPower<'_, G> {
    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::ExactPower,
            exact: true,
            deterministic: true,
            accelerated: false,
            batch_aware: true,
        }
    }

    fn estimate(&self, req: &QueryRequest) -> Result<CostEstimate> {
        let params = req.effective_params(&self.params)?;
        let n = self.graph.num_nodes();
        let directed = self.graph.num_directed_edges();
        let m = self.latency;
        Ok(CostEstimate {
            latency_ns: m.fixed_overhead_ns
                + params.length as f64 * directed as f64 * m.ns_per_diffusion_edge
                + n as f64 * m.ns_per_node,
            peak_memory_bytes: cpu_task_memory(n, directed / 2).total(),
            expected_precision: 1.0,
        })
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool> {
        Some(&self.pool)
    }

    fn query_with(&self, req: &QueryRequest, ws: &mut QueryWorkspace) -> Result<QueryOutcome> {
        let params = req.effective_params(&self.params)?;
        let QueryWorkspace {
            diffusion, sparse, ..
        } = ws;
        let config = DiffusionConfig::new(params.alpha, params.length)?;
        let work = diffuse_into(self.graph, &[(req.seed, 1.0)], config, diffusion)?;
        let accumulated = diffusion.accumulated();
        sparse.clear();
        sparse.extend(
            accumulated
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s > 0.0)
                .map(|(i, &s)| (i as NodeId, s)),
        );
        let nonzero = sparse.len();
        top_k_in_place(sparse, params.k);
        let ranking = sparse.clone();
        let n = self.graph.num_nodes();
        let stats = QueryStats {
            stages: vec![StageStats {
                diffusions: 1,
                reused: 0,
                candidates: 0,
                expanded: 0,
                bfs_edges_scanned: 0,
                diffusion_edge_updates: work.edge_updates,
                max_ball_nodes: n,
                max_ball_edges: self.graph.num_directed_edges() / 2,
            }],
            total_diffusions: 1,
            diffusion_edge_updates: work.edge_updates,
            nodes_touched: n,
            peak_memory_bytes: cpu_task_memory(n, self.graph.num_directed_edges() / 2).total(),
            peak_task_memory_bytes: cpu_task_memory(n, self.graph.num_directed_edges() / 2).total(),
            aggregate_entries: nonzero,
            ..QueryStats::empty(BackendKind::ExactPower)
        };
        Ok(QueryOutcome { ranking, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::exact_top_k;
    use meloppr_graph::generators;

    #[test]
    fn matches_direct_ground_truth() {
        let g = generators::karate_club();
        let params = PprParams::new(0.85, 4, 8).unwrap();
        let backend = ExactPower::new(&g, params).unwrap();
        for seed in [0u32, 11, 33] {
            let via_trait = backend.query(&QueryRequest::new(seed)).unwrap();
            let direct = exact_top_k(&g, seed, &params).unwrap();
            assert_eq!(via_trait.ranking, direct);
        }
    }

    #[test]
    fn overrides_change_effective_query() {
        let g = generators::karate_club();
        let backend = ExactPower::new(&g, PprParams::new(0.85, 4, 8).unwrap()).unwrap();
        let shorter = backend
            .query(&QueryRequest::new(0).with_length(1).with_k(3))
            .unwrap();
        assert_eq!(shorter.ranking.len(), 3);
        let direct = exact_top_k(&g, 0, &PprParams::new(0.85, 1, 3).unwrap()).unwrap();
        assert_eq!(shorter.ranking, direct);
    }

    #[test]
    fn estimate_is_exact_and_dense() {
        let g = generators::grid(8, 8).unwrap();
        let backend = ExactPower::new(&g, PprParams::new(0.85, 4, 8).unwrap()).unwrap();
        let est = backend.estimate(&QueryRequest::new(0)).unwrap();
        assert_eq!(est.expected_precision, 1.0);
        assert!(est.peak_memory_bytes > 0);
        assert!(est.latency_ns > 0.0);
    }

    #[test]
    fn bad_seed_is_rejected() {
        let g = generators::path(4).unwrap();
        let backend = ExactPower::new(&g, PprParams::new(0.85, 2, 2).unwrap()).unwrap();
        assert!(backend.query(&QueryRequest::new(99)).is_err());
    }
}
