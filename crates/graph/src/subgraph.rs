//! Induced sub-graphs over BFS balls with local↔global id mapping.
//!
//! A [`Subgraph`] is the unit MeLoPPR actually diffuses on: the induced
//! graph over a [`BfsBall`](crate::BfsBall), re-labelled with dense local
//! ids so score tables can be flat arrays. Two representation choices
//! matter for correctness:
//!
//! 1. **Walk degrees come from the parent graph.** The transition matrix
//!    `W = A·D⁻¹` is defined on the full graph; an interior ball node has
//!    the same degree locally and globally, but a frontier node does not.
//!    Storing parent degrees keeps the diffusion exact for up to `depth`
//!    iterations (mass only leaves through frontier nodes that never need
//!    to propagate — see `meloppr-core`'s ball-exactness tests).
//! 2. **The seed is always local id 0**, because balls enumerate nodes in
//!    BFS order. Diffusion kernels rely on this for cheap initialization.

use crate::bfs::BfsBall;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::fast_hash::FastHashMap;
use crate::view::GraphView;
use crate::NodeId;

/// An induced sub-graph with dense local node ids.
///
/// Create one with [`Subgraph::extract`]. Local ids index every per-node
/// array (`0..num_nodes`); [`Subgraph::to_global`] maps back to parent ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    csr: CsrGraph,
    global_ids: Vec<NodeId>,
    global_to_local: FastHashMap<NodeId, NodeId>,
    walk_degrees: Vec<u32>,
    seed_local: NodeId,
}

/// The buffer set [`Subgraph::extract_reusing`] threads: CSR offsets,
/// packed neighbors, local→global ids, global→local map, walk degrees.
type ExtractBuffers = (
    Vec<u32>,
    Vec<NodeId>,
    Vec<NodeId>,
    FastHashMap<NodeId, NodeId>,
    Vec<u32>,
);

/// Cold-start buffer set for [`Subgraph::extract_reusing`], sized for a
/// ball of `n` nodes. Deliberately outside the hot path: this runs once
/// per workspace lifetime; steady-state extraction harvests the
/// previous sub-graph's buffers instead.
#[cold]
fn fresh_buffers(n: usize) -> ExtractBuffers {
    (
        Vec::with_capacity(n + 1),
        Vec::new(),
        Vec::with_capacity(n),
        FastHashMap::with_capacity_and_hasher(n, Default::default()),
        Vec::with_capacity(n),
    )
}

impl Subgraph {
    /// Extracts the induced sub-graph over a BFS ball of `parent`.
    ///
    /// Node `i` of the sub-graph corresponds to `ball.nodes[i]`; the seed
    /// therefore gets local id 0. Edges are those of `parent` with both
    /// endpoints inside the ball.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if the ball references nodes
    /// outside `parent` (i.e. the ball was computed on a different graph).
    pub fn extract<G: GraphView + ?Sized>(parent: &G, ball: &BfsBall) -> Result<Self> {
        Self::extract_reusing(parent, ball, None)
    }

    /// As [`Subgraph::extract`], but harvests the internal buffers of a
    /// previously extracted sub-graph instead of allocating fresh ones.
    ///
    /// In steady state (buffer capacities warmed up to the largest ball
    /// seen) extraction performs no heap allocation. The result is
    /// bit-identical to [`Subgraph::extract`].
    ///
    /// # Errors
    ///
    /// As [`Subgraph::extract`]. On error the reused buffers are dropped.
    pub fn extract_reusing<G: GraphView + ?Sized>(
        parent: &G,
        ball: &BfsBall,
        reuse: Option<Subgraph>,
    ) -> Result<Self> {
        let n = ball.nodes.len();
        let (mut offsets, mut neighbors, mut global_ids, mut global_to_local, mut walk_degrees) =
            match reuse {
                Some(prev) => {
                    let (offsets, neighbors) = prev.csr.into_parts();
                    (
                        offsets,
                        neighbors,
                        prev.global_ids,
                        prev.global_to_local,
                        prev.walk_degrees,
                    )
                }
                None => fresh_buffers(n),
            };
        offsets.clear();
        neighbors.clear();
        global_ids.clear();
        global_to_local.clear();
        walk_degrees.clear();

        for (local, &global) in ball.nodes.iter().enumerate() {
            if global as usize >= parent.num_nodes() {
                return Err(GraphError::NodeOutOfBounds {
                    node: global,
                    num_nodes: parent.num_nodes(),
                });
            }
            global_to_local.insert(global, local as NodeId);
        }

        offsets.push(0u32);
        for &global in &ball.nodes {
            let start = neighbors.len();
            for &nbr in parent.neighbors(global) {
                if let Some(&local_nbr) = global_to_local.get(&nbr) {
                    neighbors.push(local_nbr);
                }
            }
            neighbors[start..].sort_unstable();
            offsets.push(crate::csr::checked_offset(neighbors.len())?);
            walk_degrees.push(parent.walk_degree(global));
        }
        global_ids.extend_from_slice(&ball.nodes);

        let csr = CsrGraph::from_parts(offsets, neighbors)?;
        Ok(Subgraph {
            csr,
            global_ids,
            global_to_local,
            walk_degrees,
            seed_local: 0,
        })
    }

    /// The local id of the ball's seed node (always 0).
    pub fn seed_local(&self) -> NodeId {
        self.seed_local
    }

    /// Maps a local id back to the parent graph's id.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.global_ids[local as usize]
    }

    /// Maps a parent-graph id to its local id, if the node is in the
    /// sub-graph.
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.global_to_local.get(&global).copied()
    }

    /// The local→global id table (index = local id).
    pub fn global_ids(&self) -> &[NodeId] {
        &self.global_ids
    }

    /// Number of undirected edges induced inside the ball.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The underlying local-id CSR adjacency.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Degree of the node *in the parent graph* (the random-walk divisor).
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn parent_degree(&self, local: NodeId) -> u32 {
        self.walk_degrees[local as usize]
    }

    /// Heap bytes of the sub-graph representation, split by component.
    ///
    /// Feeds the CPU memory model (`meloppr-core::memory`): CSR arrays,
    /// the id-mapping tables and the walk-degree array are all charged.
    pub fn memory_bytes(&self) -> SubgraphBytes {
        let map_entry = std::mem::size_of::<(NodeId, NodeId)>() * 2; // conservative HashMap cost
        SubgraphBytes {
            csr: self.csr.csr_bytes(),
            id_maps: self.global_ids.len() * std::mem::size_of::<NodeId>()
                + self.global_to_local.len() * map_entry,
            degrees: self.walk_degrees.len() * std::mem::size_of::<u32>(),
        }
    }
}

impl GraphView for Subgraph {
    fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.csr.neighbors(u)
    }

    fn walk_degree(&self, u: NodeId) -> u32 {
        self.walk_degrees[u as usize]
    }

    fn num_directed_edges(&self) -> usize {
        self.csr.num_directed_edges()
    }
}

/// Byte accounting of a [`Subgraph`], returned by
/// [`Subgraph::memory_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgraphBytes {
    /// CSR offsets + neighbor arrays.
    pub csr: usize,
    /// local→global vector plus global→local hash map.
    pub id_maps: usize,
    /// Parent-degree array.
    pub degrees: usize,
}

impl SubgraphBytes {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.csr + self.id_maps + self.degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_ball;
    use crate::generators;

    #[test]
    fn extract_ball_from_grid() {
        let g = generators::grid(5, 5).unwrap();
        let ball = bfs_ball(&g, 12, 1).unwrap(); // center of 5x5 grid
        let sub = Subgraph::extract(&g, &ball).unwrap();
        assert_eq!(sub.num_nodes(), 5); // center + 4 neighbors
        assert_eq!(sub.seed_local(), 0);
        assert_eq!(sub.to_global(0), 12);
        // Only edges incident to the center exist inside this ball.
        assert_eq!(sub.num_edges(), 4);
    }

    #[test]
    fn interior_nodes_keep_parent_degree() {
        let g = generators::grid(5, 5).unwrap();
        let ball = bfs_ball(&g, 12, 2).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        // The seed is interior (distance 0 < 2): its local degree must match
        // the parent degree.
        assert_eq!(
            sub.neighbors(sub.seed_local()).len() as u32,
            sub.walk_degree(sub.seed_local())
        );
        // All walk degrees equal parent degrees.
        for local in 0..sub.num_nodes() as NodeId {
            let global = sub.to_global(local);
            assert_eq!(sub.walk_degree(local), g.degree(global));
        }
    }

    #[test]
    fn frontier_nodes_may_have_truncated_neighbors() {
        let g = generators::path(10).unwrap();
        let ball = bfs_ball(&g, 0, 2).unwrap(); // nodes 0,1,2
        let sub = Subgraph::extract(&g, &ball).unwrap();
        let frontier_local = sub.to_local(2).unwrap();
        // Node 2 has parent degree 2 but only one neighbor (node 1) in the
        // ball.
        assert_eq!(sub.walk_degree(frontier_local), 2);
        assert_eq!(sub.neighbors(frontier_local).len(), 1);
    }

    #[test]
    fn to_local_roundtrip() {
        let g = generators::cycle(8).unwrap();
        let ball = bfs_ball(&g, 3, 2).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        for local in 0..sub.num_nodes() as NodeId {
            assert_eq!(sub.to_local(sub.to_global(local)), Some(local));
        }
        assert_eq!(sub.to_local(999), None);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let g = generators::grid(6, 4).unwrap();
        let ball = bfs_ball(&g, 7, 3).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        for u in 0..sub.num_nodes() as NodeId {
            let nbrs = sub.neighbors(u);
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &v in nbrs {
                assert!(sub.neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn extract_whole_graph_preserves_structure() {
        let g = generators::complete(6).unwrap();
        let ball = bfs_ball(&g, 0, 1).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        assert_eq!(sub.num_nodes(), 6);
        assert_eq!(sub.num_edges(), 15);
    }

    #[test]
    fn memory_bytes_totals() {
        let g = generators::grid(5, 5).unwrap();
        let ball = bfs_ball(&g, 12, 2).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        let bytes = sub.memory_bytes();
        assert!(bytes.csr > 0);
        assert!(bytes.id_maps > 0);
        assert!(bytes.degrees > 0);
        assert_eq!(bytes.total(), bytes.csr + bytes.id_maps + bytes.degrees);
    }

    #[test]
    fn extract_reusing_matches_fresh_extraction() {
        let g = generators::grid(6, 4).unwrap();
        // Prime a reusable subgraph with a large ball, then re-extract
        // smaller and differently-shaped balls through its buffers.
        let mut reused = Some(Subgraph::extract(&g, &bfs_ball(&g, 7, 3).unwrap()).unwrap());
        for (seed, depth) in [(0u32, 1), (7, 2), (12, 3), (23, 0)] {
            let ball = bfs_ball(&g, seed, depth).unwrap();
            let fresh = Subgraph::extract(&g, &ball).unwrap();
            let recycled = Subgraph::extract_reusing(&g, &ball, reused.take()).unwrap();
            assert_eq!(recycled.num_nodes(), fresh.num_nodes());
            assert_eq!(recycled.num_edges(), fresh.num_edges());
            assert_eq!(recycled.global_ids(), fresh.global_ids());
            for local in 0..fresh.num_nodes() as NodeId {
                assert_eq!(recycled.neighbors(local), fresh.neighbors(local));
                assert_eq!(recycled.walk_degree(local), fresh.walk_degree(local));
                assert_eq!(recycled.to_global(local), fresh.to_global(local));
            }
            reused = Some(recycled);
        }
    }

    #[test]
    fn ball_from_wrong_graph_errors() {
        let big = generators::path(10).unwrap();
        let small = generators::path(3).unwrap();
        let ball = bfs_ball(&big, 9, 1).unwrap();
        assert!(Subgraph::extract(&small, &ball).is_err());
    }
}
