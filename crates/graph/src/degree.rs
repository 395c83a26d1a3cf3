//! Degree statistics.
//!
//! The fixed-point accelerator scales the seed score by a degree-derived
//! constant (`Max = d·|G_L(s)|` with `d` set to half the maximum degree,
//! §V-A), computed from [`degree_stats`].

use crate::view::GraphView;

/// Summary statistics over a graph's degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Mean degree (`2·|E| / |V|`).
    pub mean: f64,
    /// Median degree (lower median for even counts).
    pub median: u32,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

/// Computes [`DegreeStats`] for any graph view.
///
/// # Examples
///
/// ```
/// use meloppr_graph::{degree::degree_stats, generators};
///
/// # fn main() -> Result<(), meloppr_graph::GraphError> {
/// let g = generators::star(5)?;
/// let stats = degree_stats(&g);
/// assert_eq!(stats.max, 4);
/// assert_eq!(stats.median, 1);
/// # Ok(())
/// # }
/// ```
pub fn degree_stats<G: GraphView + ?Sized>(g: &G) -> DegreeStats {
    let n = g.num_nodes();
    let mut degrees: Vec<u32> = (0..n)
        .map(|u| g.neighbors(u as crate::NodeId).len() as u32)
        .collect();
    degrees.sort_unstable();
    let isolated = degrees.iter().take_while(|&&d| d == 0).count();
    let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
    DegreeStats {
        min: degrees.first().copied().unwrap_or(0),
        max: degrees.last().copied().unwrap_or(0),
        mean: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
        median: degrees.get((n.saturating_sub(1)) / 2).copied().unwrap_or(0),
        isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_on_star() {
        let g = generators::star(10).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.median, 1);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 1.8).abs() < 1e-12);
    }

    #[test]
    fn stats_counts_isolated() {
        let g = crate::CsrGraph::from_edges(5, &[(0, 1)]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.isolated, 3);
        assert_eq!(s.min, 0);
    }
}
