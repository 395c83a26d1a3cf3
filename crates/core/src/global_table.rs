//! The bounded global score table of §V-B.
//!
//! After every sub-graph diffusion the scores must be aggregated into the
//! global PPR vector. Keeping the full vector costs `O(G_L(s))` memory and
//! (on the accelerator) a transfer per diffusion, so MeLoPPR instead keeps
//! a fixed-capacity table of the `c·k` highest-scoring nodes seen so far
//! (the paper uses `c = 10`). The table is exact while fewer than `c·k`
//! distinct nodes are touched; beyond that, low scorers are evicted and any
//! mass they would later accumulate is lost — the source of the small
//! precision loss the paper reports for `c < 4`.
//!
//! [`GlobalScoreTable`] implements this with a hash map plus an ordered
//! index, giving `O(log n)` adds and exact minimum eviction. The
//! unbounded table (the exact CPU reference) instead aggregates into a
//! dense `f64` array indexed by node id plus a list of the nodes it
//! touched: an add is one array update, a reset clears only the touched
//! slots, and a ranking reads only the touched nodes. The array grows on
//! first use to the largest node id added, so a table that has served a
//! graph of `n` nodes holds up to `8·n` bytes (131 KiB for the
//! 16 743-node G4 graph at 5 % scale) for as long as it is reused.

use std::collections::BTreeSet;

use meloppr_graph::{FastHashMap, NodeId};

use crate::score_vec::Ranking;

/// Orders non-negative `f64` scores inside the [`BTreeSet`] index.
///
/// Positive IEEE-754 doubles compare correctly as their bit patterns, so
/// the key is just `to_bits` (scores in this crate are probabilities,
/// always `>= 0`).
fn score_key(score: f64) -> u64 {
    debug_assert!(score >= 0.0 && score.is_finite());
    score.to_bits()
}

/// A fixed-capacity accumulate-and-rank table (the FPGA's global score
/// table, §V-B).
///
/// # Examples
///
/// ```
/// use meloppr_core::GlobalScoreTable;
///
/// let mut table = GlobalScoreTable::bounded(2);
/// table.add(7, 0.5);
/// table.add(3, 0.2);
/// table.add(9, 0.4); // evicts node 3 (current minimum)
/// let top = table.ranking(2);
/// assert_eq!(top, vec![(7, 0.5), (9, 0.4)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalScoreTable {
    capacity: Option<usize>,
    /// Bounded mode: the resident scores.
    scores: FastHashMap<NodeId, f64>,
    /// Bounded mode: the eviction order.
    index: BTreeSet<(u64, NodeId)>,
    /// Unbounded mode: accumulated score per node id, 0.0 when the node
    /// is untouched (scores are positive, so a touched slot never is).
    dense: Vec<f64>,
    /// Unbounded mode: the touched nodes, in first-touch order.
    touched: Vec<NodeId>,
    evictions: usize,
    lost_mass: f64,
}

impl GlobalScoreTable {
    /// An unbounded table: exact aggregation, the CPU reference behaviour.
    pub fn unbounded() -> Self {
        GlobalScoreTable::default()
    }

    /// A table bounded to `capacity` entries (the paper's `c·k`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "table capacity must be positive");
        GlobalScoreTable {
            capacity: Some(capacity),
            ..GlobalScoreTable::default()
        }
    }

    /// Empties the table and reconfigures its capacity, retaining the
    /// underlying storage so a reused table allocates nothing in steady
    /// state. `None` means unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == Some(0)`.
    pub fn reset(&mut self, capacity: Option<usize>) {
        assert!(capacity != Some(0), "table capacity must be positive");
        self.capacity = capacity;
        self.scores.clear();
        self.index.clear();
        for &node in &self.touched {
            self.dense[node as usize] = 0.0;
        }
        self.touched.clear();
        self.evictions = 0;
        self.lost_mass = 0.0;
    }

    /// Adds `score` to the node's accumulated total, inserting or evicting
    /// as necessary.
    ///
    /// Non-positive scores are ignored (diffusion never produces them).
    /// The ordered index is only maintained in bounded mode (eviction
    /// needs the minimum); unbounded accumulation is one dense-array add,
    /// keeping the aggregation hot path cheap.
    pub fn add(&mut self, node: NodeId, score: f64) {
        if score <= 0.0 {
            return;
        }
        let Some(cap) = self.capacity else {
            let slot = node as usize;
            if slot >= self.dense.len() {
                self.dense.resize(slot + 1, 0.0);
            }
            if self.dense[slot] == 0.0 {
                self.touched.push(node);
            }
            self.dense[slot] += score;
            return;
        };
        if let Some(&old) = self.scores.get(&node) {
            self.index.remove(&(score_key(old), node));
            let new = old + score;
            self.scores.insert(node, new);
            self.index.insert((score_key(new), node));
            return;
        }
        if self.scores.len() >= cap {
            // Compete with the current minimum.
            let &(min_key, min_node) = self.index.iter().next().expect("non-empty at cap");
            let min_score = f64::from_bits(min_key);
            if score <= min_score {
                self.evictions += 1;
                self.lost_mass += score;
                return;
            }
            self.index.remove(&(min_key, min_node));
            self.scores.remove(&min_node);
            self.evictions += 1;
            self.lost_mass += min_score;
        }
        self.scores.insert(node, score);
        self.index.insert((score_key(score), node));
    }

    /// Current accumulated score of a node, if it is resident.
    pub fn get(&self, node: NodeId) -> Option<f64> {
        let dense = self.dense.get(node as usize).copied();
        dense
            .filter(|&s| s > 0.0)
            .or_else(|| self.scores.get(&node).copied())
    }

    /// Number of resident entries. (Each mode leaves the other's
    /// storage empty: only a reset switches modes, and it clears both.)
    pub fn len(&self) -> usize {
        self.touched.len() + self.scores.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of evictions (and rejected inserts) so far — a diagnostic for
    /// choosing `c`.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Total score mass dropped by evictions/rejections so far.
    pub fn lost_mass(&self) -> f64 {
        self.lost_mass
    }

    /// The top-`k` ranking currently held, ordered like
    /// [`top_k_dense`](crate::score_vec::top_k_dense).
    pub fn ranking(&self, k: usize) -> Ranking {
        self.ranking_with(k, &mut Vec::new())
    }

    /// As [`GlobalScoreTable::ranking`], but routes the unbounded-mode
    /// entry collection through a caller-owned scratch buffer so repeated
    /// rankings only allocate the returned `Ranking` itself.
    pub fn ranking_with(&self, k: usize, scratch: &mut Vec<(NodeId, f64)>) -> Ranking {
        if k == 0 {
            return Vec::new();
        }
        if self.capacity.is_none() {
            // Unbounded mode keeps no ordered index; select from the
            // touched nodes (`top_k_in_place` orders totally, so the
            // order they are listed in cannot show).
            scratch.clear();
            scratch.extend(self.entries());
            crate::score_vec::top_k_in_place(scratch, k);
            return scratch.clone();
        }
        // BTreeSet orders ascending by (score, id); reversed iteration
        // gives descending score but descending id on ties. Collect the top
        // k scores plus every entry tied with the k-th score, then re-sort
        // so ties break by ascending id.
        let mut out: Ranking = Vec::with_capacity(k);
        let mut boundary_key: Option<u64> = None;
        for &(key, node) in self.index.iter().rev() {
            if out.len() >= k && boundary_key != Some(key) {
                break;
            }
            out.push((node, f64::from_bits(key)));
            if out.len() == k {
                boundary_key = Some(key);
            }
        }
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// All resident entries in arbitrary order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let dense = self.touched.iter().map(|&v| (v, self.dense[v as usize]));
        dense.chain(self.scores.iter().map(|(&v, &s)| (v, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_accumulates_exactly() {
        let mut t = GlobalScoreTable::unbounded();
        t.add(1, 0.5);
        t.add(1, 0.25);
        t.add(2, 0.1);
        assert_eq!(t.get(1), Some(0.75));
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn bounded_evicts_minimum() {
        let mut t = GlobalScoreTable::bounded(2);
        t.add(1, 0.5);
        t.add(2, 0.3);
        t.add(3, 0.4); // evicts 2
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 1);
        assert!((t.lost_mass() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bounded_rejects_smaller_than_min() {
        let mut t = GlobalScoreTable::bounded(2);
        t.add(1, 0.5);
        t.add(2, 0.3);
        t.add(3, 0.1); // rejected
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(2), Some(0.3));
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn resident_nodes_can_always_accumulate() {
        let mut t = GlobalScoreTable::bounded(1);
        t.add(1, 0.5);
        t.add(1, 0.5);
        assert_eq!(t.get(1), Some(1.0));
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn ranking_orders_and_breaks_ties() {
        let mut t = GlobalScoreTable::unbounded();
        t.add(5, 0.3);
        t.add(1, 0.3);
        t.add(2, 0.9);
        assert_eq!(t.ranking(3), vec![(2, 0.9), (1, 0.3), (5, 0.3)]);
        assert_eq!(t.ranking(1), vec![(2, 0.9)]);
    }

    #[test]
    fn zero_and_negative_scores_ignored() {
        let mut t = GlobalScoreTable::unbounded();
        t.add(0, 0.0);
        t.add(1, -0.5);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = GlobalScoreTable::bounded(0);
    }

    #[test]
    fn accumulation_reorders_index() {
        let mut t = GlobalScoreTable::bounded(2);
        t.add(1, 0.2);
        t.add(2, 0.3);
        t.add(1, 0.5); // node 1 now 0.7, so node 2 is the minimum
        t.add(3, 0.4); // evicts 2, not 1
        assert_eq!(t.get(1), Some(0.7));
        assert_eq!(t.get(2), None);
        assert_eq!(t.get(3), Some(0.4));
    }

    #[test]
    fn reset_empties_and_reconfigures() {
        let mut t = GlobalScoreTable::bounded(2);
        t.add(1, 0.5);
        t.add(2, 0.3);
        t.add(3, 0.1);
        assert_eq!(t.evictions(), 1);
        t.reset(None);
        assert!(t.is_empty());
        assert_eq!(t.evictions(), 0);
        assert_eq!(t.lost_mass(), 0.0);
        // Now unbounded: nothing is evicted.
        for i in 0..10u32 {
            t.add(i, 0.1);
        }
        assert_eq!(t.len(), 10);
        t.reset(Some(1));
        t.add(1, 0.5);
        t.add(2, 0.9);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ranking_with_reuses_scratch() {
        let mut t = GlobalScoreTable::unbounded();
        t.add(5, 0.3);
        t.add(1, 0.3);
        t.add(2, 0.9);
        let mut scratch = Vec::new();
        assert_eq!(t.ranking_with(3, &mut scratch), t.ranking(3));
        assert_eq!(t.ranking_with(1, &mut scratch), t.ranking(1));
    }

    #[test]
    fn dense_table_resets_only_what_it_touched_and_ranks_like_a_map() {
        let mut t = GlobalScoreTable::unbounded();
        t.add(900, 0.25);
        t.add(3, 0.5);
        t.add(900, 0.125);
        assert_eq!(t.get(900), Some(0.375));
        assert_eq!(t.get(4), None);
        assert_eq!(t.get(100_000), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.ranking(5), vec![(3, 0.5), (900, 0.375)]);
        // A reset keeps the grown array but zeroes the touched slots.
        t.reset(None);
        assert!(t.is_empty());
        assert_eq!(t.get(900), None);
        t.add(900, 0.1);
        assert_eq!(t.get(900), Some(0.1));
        // Switching to bounded mode leaves no dense entry behind.
        t.reset(Some(2));
        assert!(t.is_empty());
        t.add(7, 0.2);
        assert_eq!(t.entries().collect::<Vec<_>>(), vec![(7, 0.2)]);
    }

    #[test]
    fn large_workload_consistency() {
        let mut bounded = GlobalScoreTable::bounded(50);
        let mut exact = GlobalScoreTable::unbounded();
        // Scores arriving in descending order never trigger wrong
        // evictions, so the two agree on the top 50.
        for i in 0..500u32 {
            let s = 1.0 / (1.0 + i as f64);
            bounded.add(i, s);
            exact.add(i, s);
        }
        assert_eq!(bounded.ranking(50), exact.ranking(50));
    }
}
