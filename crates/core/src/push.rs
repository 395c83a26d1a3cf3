//! Forward-push local PPR — the index-free software baseline family.
//!
//! The paper's related work (§III) contrasts MeLoPPR with approximate
//! single-source PPR algorithms like FORA, whose local phase is the
//! classic *forward push* of Andersen–Chung–Lang: maintain an estimate
//! `p` and a residual `r` (initially all mass at the seed), and while any
//! node holds residual above `ε·deg(u)`, convert the `(1-α)` share to
//! estimate and push the `α` share to the neighbors. It terminates in
//! `O(1/((1-α)·ε))` pushes independent of graph size and computes the
//! *untruncated* (geometric-length) PPR up to an additive `ε·deg(v)`
//! error per node.
//!
//! Two caveats when comparing with MeLoPPR:
//!
//! * push approximates the `L → ∞` PPR, while the paper's formulation
//!   truncates at `L` — for `α = 0.85, L = 6`, the two rankings differ
//!   noticeably (α⁶ ≈ 38 % of walks outlive the truncation);
//! * push's working set is the *touched* node set, which, like MeLoPPR's,
//!   stays local — but it offers no staged memory bound and no
//!   hardware-friendly dataflow, which is the gap the paper fills.

use std::collections::VecDeque;

use meloppr_graph::{FastHashMap, GraphView, NodeId};

use crate::error::{PprError, Result};
use crate::score_vec::{top_k_sparse, Ranking};

/// Result of a forward-push computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PushResult {
    /// Top-`k` ranking by estimated PPR score.
    pub ranking: Ranking,
    /// All non-zero PPR estimates `p(v)` (unsorted).
    pub estimates: Vec<(NodeId, f64)>,
    /// Residual mass left unpushed (`Σ r(v)` at termination — bounds the
    /// total estimation error).
    pub residual_mass: f64,
    /// Number of push operations performed.
    pub pushes: usize,
    /// Adjacency entries touched (the off-chip access count in the
    /// Fig. 2 taxonomy).
    pub edges_touched: usize,
    /// Distinct nodes holding state at any point (the working-set size).
    pub touched_nodes: usize,
}

/// Runs forward push from `seed` with decay `alpha` and per-degree
/// tolerance `epsilon`.
///
/// Terminates when every node's residual is below `ε·max(deg, 1)`. The
/// returned estimates satisfy `|p(v) - ppr(v)| ≤ ε·deg(v)` for the
/// untruncated α-decay PPR.
///
/// # Errors
///
/// Returns [`PprError::InvalidParams`] if `alpha ∉ (0, 1)`, `epsilon <= 0`
/// or `k == 0`, and a graph error for an out-of-bounds seed.
///
/// # Examples
///
/// ```
/// use meloppr_core::push::forward_push;
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let result = forward_push(&g, 0, 0.85, 1e-6, 5)?;
/// assert_eq!(result.ranking.len(), 5);
/// assert!(result.residual_mass < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn forward_push<G: GraphView + ?Sized>(
    g: &G,
    seed: NodeId,
    alpha: f64,
    epsilon: f64,
    k: usize,
) -> Result<PushResult> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(PprError::InvalidParams {
            reason: format!("alpha must be in (0, 1), got {alpha}"),
        });
    }
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(PprError::InvalidParams {
            reason: format!("epsilon must be positive, got {epsilon}"),
        });
    }
    if k == 0 {
        return Err(PprError::InvalidParams {
            reason: "top-k size must be >= 1".into(),
        });
    }
    if seed as usize >= g.num_nodes() {
        return Err(PprError::Graph(
            meloppr_graph::GraphError::NodeOutOfBounds {
                node: seed,
                num_nodes: g.num_nodes(),
            },
        ));
    }

    let mut estimate: FastHashMap<NodeId, f64> = FastHashMap::default();
    let mut residual: FastHashMap<NodeId, f64> = FastHashMap::default();
    residual.insert(seed, 1.0);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(seed);
    let mut in_queue: FastHashMap<NodeId, bool> = FastHashMap::default();
    in_queue.insert(seed, true);

    // A push turns (1-α)·r into estimate and sends α·r onward.
    let c_keep = 1.0 - alpha;
    let threshold = |deg: u32| epsilon * deg.max(1) as f64;
    let mut pushes = 0usize;
    let mut edges_touched = 0usize;

    while let Some(u) = queue.pop_front() {
        in_queue.insert(u, false);
        let r = residual.get(&u).copied().unwrap_or_default();
        let deg = g.walk_degree(u);
        if r < threshold(deg) {
            continue;
        }
        pushes += 1;
        residual.insert(u, 0.0);
        let e = estimate.entry(u).or_default();
        *e += r * c_keep;
        if deg == 0 {
            // Isolated node: the walk stays here forever; all remaining
            // mass becomes estimate.
            let e = estimate.entry(u).or_default();
            *e += r * alpha;
            continue;
        }
        let share = r * alpha / deg as f64;
        let nbrs = g.neighbors(u);
        edges_touched += nbrs.len();
        for &v in nbrs {
            let rv = residual.entry(v).or_default();
            *rv += share;
            if *rv >= threshold(g.walk_degree(v)) && !in_queue.get(&v).copied().unwrap_or(false) {
                in_queue.insert(v, true);
                queue.push_back(v);
            }
        }
    }

    let residual_mass: f64 = residual.values().sum();
    let touched_nodes = residual.len().max(estimate.len());
    let mut estimates: Vec<(NodeId, f64)> =
        estimate.into_iter().filter(|&(_, p)| p > 0.0).collect();
    estimates.sort_unstable_by_key(|&(v, _)| v);
    let ranking = top_k_sparse(&estimates, k);
    Ok(PushResult {
        ranking,
        estimates,
        residual_mass,
        pushes,
        edges_touched,
        touched_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::{diffuse_from_seed, DiffusionConfig};
    use crate::precision::precision_at_k;
    use crate::score_vec::top_k_dense;
    use meloppr_graph::generators;

    #[test]
    fn estimates_converge_to_long_diffusion() {
        // Push computes the untruncated PPR; a length-200 diffusion is an
        // excellent proxy (alpha^200 ~ 0).
        let g = generators::karate_club();
        let push = forward_push(&g, 0, 0.85, 1e-9, 10).unwrap();
        let long = diffuse_from_seed(&g, 0, DiffusionConfig::new(0.85, 200).unwrap()).unwrap();
        for &(v, p) in &push.estimates {
            let truth = long.accumulated[v as usize];
            assert!(
                (p - truth).abs() < 1e-5,
                "node {v}: push {p} vs diffusion {truth}"
            );
        }
    }

    #[test]
    fn rankings_match_long_diffusion() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.15, 4)
            .unwrap();
        let push = forward_push(&g, 10, 0.85, 1e-8, 20).unwrap();
        let long = diffuse_from_seed(&g, 10, DiffusionConfig::new(0.85, 120).unwrap()).unwrap();
        let exact = top_k_dense(&long.accumulated, 20);
        let prec = precision_at_k(&push.ranking, &exact, 20);
        assert!(prec >= 0.9, "push ranking precision {prec}");
    }

    #[test]
    fn mass_accounting_is_conservative() {
        let g = generators::grid(6, 6).unwrap();
        let push = forward_push(&g, 0, 0.85, 1e-4, 10).unwrap();
        let estimated: f64 = push.estimates.iter().map(|&(_, p)| p).sum();
        // estimate + residual = 1 exactly (each push conserves mass).
        assert!((estimated + push.residual_mass - 1.0).abs() < 1e-12);
        assert!(push.residual_mass >= 0.0);
    }

    #[test]
    fn looser_epsilon_means_less_work() {
        let g = generators::corpus::PaperGraph::G1Citeseer
            .generate_scaled(0.2, 2)
            .unwrap();
        let tight = forward_push(&g, 5, 0.85, 1e-8, 10).unwrap();
        let loose = forward_push(&g, 5, 0.85, 1e-3, 10).unwrap();
        assert!(loose.pushes < tight.pushes);
        assert!(loose.edges_touched <= tight.edges_touched);
        assert!(loose.residual_mass >= tight.residual_mass);
    }

    #[test]
    fn isolated_seed_keeps_unit_mass() {
        let g = meloppr_graph::CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let push = forward_push(&g, 2, 0.85, 1e-6, 3).unwrap();
        assert_eq!(push.ranking, vec![(2, 1.0)]);
        assert_eq!(push.edges_touched, 0);
    }

    #[test]
    fn invalid_params_rejected() {
        let g = generators::path(3).unwrap();
        assert!(forward_push(&g, 0, 1.0, 1e-6, 5).is_err());
        assert!(forward_push(&g, 0, 0.85, 0.0, 5).is_err());
        assert!(forward_push(&g, 0, 0.85, 1e-6, 0).is_err());
        assert!(forward_push(&g, 9, 0.85, 1e-6, 5).is_err());
    }

    #[test]
    fn working_set_is_local() {
        // On a long path, push from one end must not touch the far end.
        let g = generators::path(1000).unwrap();
        let push = forward_push(&g, 0, 0.5, 1e-6, 10).unwrap();
        assert!(push.touched_nodes < 100, "touched {}", push.touched_nodes);
    }
}
