//! The graph-diffusion kernel `GD(l)` (Eq. 1, Fig. 3(b)).
//!
//! One diffusion of length `l` starting from an initial vector `S0`
//! computes
//!
//! ```text
//! S_l = (1 - α)·Σ_{k=0}^{l-1} αᵏ·Wᵏ·S0  +  α^l·W^l·S0
//! ```
//!
//! by iterating the propagation `p_{k+1} = W·p_k` once per step and folding
//! each power into the accumulator — exactly the dataflow of Fig. 3(b).
//! Alongside the **accumulated scores** `πa = S_l`, the kernel returns the
//! **residual scores** `πr = W^l·S0`, which MeLoPPR's linear decomposition
//! feeds into the next stage (§IV-C).
//!
//! The kernel is *frontier-sparse*: each step touches only nodes with
//! non-zero mass, so early iterations on large graphs cost `O(ball)` rather
//! than `O(|V|)`.
//!
//! It is the one `f64` kernel: generic over
//! [`QuantView`], it runs on the full graph, on a BFS-extracted
//! [`Subgraph`](meloppr_graph::Subgraph) and on the `u16`-adjacency
//! [`CompactBall`](crate::quantized::CompactBall) the cache's cold tier
//! and compact store serve. Neighbours are visited in adjacency order,
//! which both ball forms share, so a ball diffuses to the same bits in
//! either form. Reduced-precision rungs run the dense
//! [`diffuse_quantized`](crate::quantized::diffuse_quantized) instead.
//!
//! # Degree semantics and leakage
//!
//! The random-walk divisor is [`QuantView::walk_degree`], which for
//! [`Subgraph`](meloppr_graph::Subgraph)s is the *parent-graph* degree.
//! When a node propagates but some of its parent-graph neighbors are
//! missing from the view (a truncated frontier node), the missing share of
//! mass *leaks* out of the computation; [`DiffusionWork::leaked_mass`]
//! reports the total. Diffusing `l ≤ ball depth` iterations from the ball
//! seed never leaks — the ball-exactness property MeLoPPR relies on — and
//! the integration tests assert it.
//!
//! Nodes with `walk_degree == 0` (isolated nodes) retain their mass, which
//! keeps `W` stochastic and diffusion mass-conserving.

use meloppr_graph::NodeId;

use crate::error::{PprError, Result};
use crate::quantized::QuantView;

/// Configuration of one diffusion: the decay factor and iteration count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionConfig {
    /// Decay factor α ∈ (0, 1).
    pub alpha: f64,
    /// Number of propagation iterations `l` (0 is allowed: `GD(0)` is the
    /// identity).
    pub iterations: usize,
}

impl DiffusionConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`] if `alpha ∉ (0, 1)`.
    pub fn new(alpha: f64, iterations: usize) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(PprError::InvalidParams {
                reason: format!("alpha must be in (0, 1), got {alpha}"),
            });
        }
        Ok(DiffusionConfig { alpha, iterations })
    }
}

/// Work counters of one diffusion, consumed by the latency cost models.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffusionWork {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Adjacency entries processed across all iterations (the unit of
    /// diffusion work in both the CPU and FPGA cost models).
    pub edge_updates: usize,
    /// Mass lost through truncated frontier nodes (see module docs).
    pub leaked_mass: f64,
}

/// Result of one diffusion `GD(l)(S0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionOutput {
    /// Accumulated scores `πa = S_l` (dense over the view's local ids).
    pub accumulated: Vec<f64>,
    /// Residual scores `πr = W^l·S0` (dense over the view's local ids).
    pub residual: Vec<f64>,
    /// Work counters.
    pub work: DiffusionWork,
}

/// Reusable dense working memory for [`diffuse_into`]: the power/next
/// propagation buffers, the accumulator, and the frontier stacks.
///
/// One scratch serves diffusions over views of any size — buffers are
/// re-zeroed (not re-allocated) per call, so steady-state diffusion
/// performs no heap allocation once capacities have warmed up to the
/// largest view seen.
#[derive(Debug, Default)]
pub struct DiffusionScratch {
    /// `p_k = W^k·S0`; holds the residual `πr` after a diffusion.
    pub(crate) power: Vec<f64>,
    next: Vec<f64>,
    /// Holds the accumulated scores `πa` after a diffusion.
    pub(crate) accumulated: Vec<f64>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
}

impl DiffusionScratch {
    /// An empty scratch; capacities grow on first use and are retained.
    pub fn new() -> Self {
        DiffusionScratch::default()
    }

    /// Accumulated scores `πa` of the most recent [`diffuse_into`] call
    /// (dense over the view's local ids).
    pub fn accumulated(&self) -> &[f64] {
        &self.accumulated
    }

    /// Residual scores `πr = W^l·S0` of the most recent [`diffuse_into`]
    /// call (dense over the view's local ids).
    pub fn residual(&self) -> &[f64] {
        &self.power
    }

    /// Mutable accumulated scores alongside the (read-only) residual —
    /// the borrow split MeLoPPR's in-place Eq. 8 adjustment needs.
    pub(crate) fn accumulated_mut_residual(&mut self) -> (&mut [f64], &[f64]) {
        (&mut self.accumulated, &self.power)
    }
}

/// Runs `GD(l)` on any graph or ball view from a sparse initial vector.
///
/// `init` entries must reference nodes of `g` and should be non-negative;
/// duplicate node entries are summed.
///
/// # Errors
///
/// Returns [`PprError::InvalidParams`] for an invalid `config` (via
/// [`DiffusionConfig::new`]) and
/// [`PprError::Graph`] if an `init` node is out of bounds.
///
/// # Examples
///
/// ```
/// use meloppr_core::diffusion::{diffuse, DiffusionConfig};
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::star(4)?;
/// let config = DiffusionConfig::new(0.85, 2)?;
/// let out = diffuse(&g, &[(0, 1.0)], config)?;
/// // Mass is conserved.
/// let total: f64 = out.accumulated.iter().sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn diffuse<G: QuantView + ?Sized>(
    g: &G,
    init: &[(NodeId, f64)],
    config: DiffusionConfig,
) -> Result<DiffusionOutput> {
    let mut scratch = DiffusionScratch::new();
    let work = diffuse_into(g, init, config, &mut scratch)?;
    Ok(DiffusionOutput {
        accumulated: scratch.accumulated,
        residual: scratch.power,
        work,
    })
}

/// As [`diffuse`], but computes into caller-owned scratch storage instead
/// of allocating the dense output vectors.
///
/// On success the accumulated scores are in
/// [`DiffusionScratch::accumulated`] and the residual in
/// [`DiffusionScratch::residual`]; both are bit-identical to the vectors
/// [`diffuse`] would return.
///
/// # Errors
///
/// As [`diffuse`].
pub fn diffuse_into<G: QuantView + ?Sized>(
    g: &G,
    init: &[(NodeId, f64)],
    config: DiffusionConfig,
    s: &mut DiffusionScratch,
) -> Result<DiffusionWork> {
    let config = DiffusionConfig::new(config.alpha, config.iterations)?;
    let n = g.num_nodes();
    s.power.clear();
    s.power.resize(n, 0.0); // p_k = W^k S0
    s.next.clear();
    s.next.resize(n, 0.0);
    s.accumulated.clear();
    s.accumulated.resize(n, 0.0);
    s.frontier.clear();
    s.next_frontier.clear();
    let DiffusionScratch {
        power,
        next,
        accumulated,
        frontier,
        next_frontier,
    } = s;

    for &(v, mass) in init {
        if v as usize >= n {
            return Err(PprError::Graph(
                meloppr_graph::GraphError::NodeOutOfBounds {
                    node: v,
                    num_nodes: n,
                },
            ));
        }
        if power[v as usize] == 0.0 && mass != 0.0 {
            frontier.push(v);
        }
        power[v as usize] += mass;
    }

    let alpha = config.alpha;
    let l = config.iterations;
    let mut work = DiffusionWork::default();
    let mut alpha_k = 1.0f64; // α^k

    for _ in 0..l {
        // Fold (1 - α)·α^k·p_k into the accumulator.
        for &u in frontier.iter() {
            accumulated[u as usize] += (1.0 - alpha) * alpha_k * power[u as usize];
        }
        // Propagate: p_{k+1} = W·p_k over the frontier only.
        for &u in frontier.iter() {
            let mass = power[u as usize];
            let deg = g.walk_degree(u);
            if deg == 0 {
                // Isolated node: self-retain to keep W stochastic.
                if next[u as usize] == 0.0 {
                    next_frontier.push(u);
                }
                next[u as usize] += mass;
                continue;
            }
            let share = mass / deg as f64;
            let in_view = g.neighbors_len(u);
            work.edge_updates += in_view;
            g.for_each_neighbor(u, |v| {
                if next[v as usize] == 0.0 {
                    next_frontier.push(v);
                }
                next[v as usize] += share;
            });
            work.leaked_mass += share * (deg as usize - in_view) as f64;
        }
        // Swap buffers and clear the old one sparsely.
        for &u in frontier.iter() {
            power[u as usize] = 0.0;
        }
        std::mem::swap(power, next);
        std::mem::swap(frontier, next_frontier);
        next_frontier.clear();
        alpha_k *= alpha;
        work.iterations += 1;
    }

    // Final term: α^l·p_l. For l == 0 this makes GD(0) the identity.
    for &u in frontier.iter() {
        accumulated[u as usize] += alpha_k * power[u as usize];
    }

    Ok(work)
}

/// Convenience wrapper: runs `GD(l)` from a unit vector at `seed`.
///
/// # Errors
///
/// As [`diffuse`].
pub fn diffuse_from_seed<G: QuantView + ?Sized>(
    g: &G,
    seed: NodeId,
    config: DiffusionConfig,
) -> Result<DiffusionOutput> {
    diffuse(g, &[(seed, 1.0)], config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meloppr_graph::{generators, CsrGraph};

    const ALPHA: f64 = 0.85;

    fn cfg(l: usize) -> DiffusionConfig {
        DiffusionConfig::new(ALPHA, l).unwrap()
    }

    /// Naive dense reference: explicit S_l recursion of Eq. 1.
    fn reference_gd(g: &CsrGraph, init: &[f64], l: usize, alpha: f64) -> (Vec<f64>, Vec<f64>) {
        let n = g.num_nodes();
        let w_mul = |x: &[f64]| -> Vec<f64> {
            let mut y = vec![0.0; n];
            for u in 0..n as NodeId {
                let deg = g.degree(u);
                if deg == 0 {
                    y[u as usize] += x[u as usize];
                    continue;
                }
                let share = x[u as usize] / deg as f64;
                for &v in g.neighbors(u) {
                    y[v as usize] += share;
                }
            }
            y
        };
        let mut s = init.to_vec();
        let mut power = init.to_vec(); // W^k S0
        for _ in 0..l {
            power = w_mul(&power);
        }
        for _ in 0..l {
            let wp = w_mul(&s);
            for i in 0..n {
                s[i] = (1.0 - alpha) * init[i] + alpha * wp[i];
            }
        }
        (s, power)
    }

    #[test]
    fn matches_recursive_definition_on_cycle() {
        let g = generators::cycle(7).unwrap();
        let mut init = vec![0.0; 7];
        init[2] = 1.0;
        for l in 0..6 {
            let out = diffuse(&g, &[(2, 1.0)], cfg(l)).unwrap();
            let (s_ref, r_ref) = reference_gd(&g, &init, l, ALPHA);
            for i in 0..7 {
                assert!((out.accumulated[i] - s_ref[i]).abs() < 1e-12, "l={l} i={i}");
                assert!((out.residual[i] - r_ref[i]).abs() < 1e-12, "l={l} i={i}");
            }
        }
    }

    #[test]
    fn matches_recursive_definition_on_karate() {
        let g = generators::karate_club();
        let mut init = vec![0.0; 34];
        init[0] = 1.0;
        let out = diffuse(&g, &[(0, 1.0)], cfg(4)).unwrap();
        let (s_ref, r_ref) = reference_gd(&g, &init, 4, ALPHA);
        for i in 0..34 {
            assert!((out.accumulated[i] - s_ref[i]).abs() < 1e-12);
            assert!((out.residual[i] - r_ref[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gd_zero_is_identity() {
        let g = generators::path(5).unwrap();
        let out = diffuse(&g, &[(3, 0.7)], cfg(0)).unwrap();
        assert_eq!(out.accumulated[3], 0.7);
        assert_eq!(out.residual[3], 0.7);
        assert_eq!(out.work.iterations, 0);
        assert_eq!(out.work.edge_updates, 0);
    }

    #[test]
    fn mass_conservation_on_connected_graph() {
        let g = generators::karate_club();
        for l in [1, 3, 6] {
            let out = diffuse_from_seed(&g, 0, cfg(l)).unwrap();
            let acc: f64 = out.accumulated.iter().sum();
            let res: f64 = out.residual.iter().sum();
            assert!((acc - 1.0).abs() < 1e-12, "acc mass at l={l}: {acc}");
            assert!((res - 1.0).abs() < 1e-12, "res mass at l={l}: {res}");
            assert_eq!(out.work.leaked_mass, 0.0);
        }
    }

    #[test]
    fn isolated_seed_retains_everything() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let out = diffuse_from_seed(&g, 2, cfg(4)).unwrap();
        assert!((out.accumulated[2] - 1.0).abs() < 1e-12);
        assert!((out.residual[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linearity_of_gd() {
        let g = generators::grid(4, 4).unwrap();
        let (a, b) = (0.3, 0.7);
        let combined = diffuse(&g, &[(0, a), (5, b)], cfg(3)).unwrap();
        let x = diffuse(&g, &[(0, 1.0)], cfg(3)).unwrap();
        let y = diffuse(&g, &[(5, 1.0)], cfg(3)).unwrap();
        for i in 0..16 {
            let expect = a * x.accumulated[i] + b * y.accumulated[i];
            assert!((combined.accumulated[i] - expect).abs() < 1e-12);
            let expect_r = a * x.residual[i] + b * y.residual[i];
            assert!((combined.residual[i] - expect_r).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_init_entries_are_summed() {
        let g = generators::path(4).unwrap();
        let a = diffuse(&g, &[(1, 0.5), (1, 0.5)], cfg(2)).unwrap();
        let b = diffuse(&g, &[(1, 1.0)], cfg(2)).unwrap();
        assert_eq!(a.accumulated, b.accumulated);
    }

    #[test]
    fn out_of_bounds_init_rejected() {
        let g = generators::path(3).unwrap();
        assert!(diffuse(&g, &[(9, 1.0)], cfg(1)).is_err());
    }

    #[test]
    fn invalid_alpha_rejected() {
        let g = generators::path(3).unwrap();
        let bad = DiffusionConfig {
            alpha: 1.0,
            iterations: 1,
        };
        assert!(diffuse(&g, &[(0, 1.0)], bad).is_err());
    }

    #[test]
    fn edge_updates_counted() {
        let g = generators::star(5).unwrap();
        // Step 1 expands the center (deg 4); step 2 expands 4 leaves (deg 1
        // each).
        let out = diffuse_from_seed(&g, 0, cfg(2)).unwrap();
        assert_eq!(out.work.edge_updates, 4 + 4);
    }

    #[test]
    fn leakage_on_truncated_ball() {
        use meloppr_graph::{bfs_ball, Subgraph};
        let g = generators::path(10).unwrap();
        let ball = bfs_ball(&g, 0, 2).unwrap(); // nodes 0,1,2
        let sub = Subgraph::extract(&g, &ball).unwrap();
        // Within depth, no leak.
        let ok = diffuse_from_seed(&sub, sub.seed_local(), cfg(2)).unwrap();
        assert_eq!(ok.work.leaked_mass, 0.0);
        // One iteration beyond the ball depth leaks through node 2.
        let over = diffuse_from_seed(&sub, sub.seed_local(), cfg(3)).unwrap();
        assert!(over.work.leaked_mass > 0.0);
        let total: f64 = over.residual.iter().sum();
        assert!(total < 1.0);
    }

    #[test]
    fn diffuse_into_reuse_matches_fresh() {
        let g = generators::karate_club();
        let h = generators::grid(4, 4).unwrap(); // smaller view, same scratch
        let mut scratch = DiffusionScratch::new();
        for (l, seed) in [(4usize, 0u32), (2, 5), (6, 33)] {
            let fresh = diffuse_from_seed(&g, seed, cfg(l)).unwrap();
            let work = diffuse_into(&g, &[(seed, 1.0)], cfg(l), &mut scratch).unwrap();
            assert_eq!(scratch.accumulated(), &fresh.accumulated[..]);
            assert_eq!(scratch.residual(), &fresh.residual[..]);
            assert_eq!(work, fresh.work);
            // Interleave a diffusion on a smaller graph to exercise the
            // shrink-then-grow resize path.
            diffuse_into(&h, &[(3, 1.0)], cfg(2), &mut scratch).unwrap();
            assert_eq!(scratch.accumulated().len(), 16);
        }
    }

    #[test]
    fn residual_support_is_reachable_set() {
        let g = generators::path(8).unwrap();
        let out = diffuse_from_seed(&g, 0, cfg(3)).unwrap();
        // After 3 steps on a path, residual mass lives within distance 3.
        for (i, &r) in out.residual.iter().enumerate() {
            if i > 3 {
                assert_eq!(r, 0.0, "node {i} unexpectedly has residual {r}");
            }
        }
    }
}
