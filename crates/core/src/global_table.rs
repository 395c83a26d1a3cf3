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
//! touched: an add is one dense update, and a staged task merges all its
//! contributions in one loop that checks the table's mode once per task,
//! not once per entry. A reset clears only the touched slots, and a
//! ranking streams the touched nodes through the bounded selection of
//! `score_vec::top_k_into` into the caller's scratch, keeping at most
//! `max(2k, 64)` candidates. The array grows on first use to the largest
//! node id added, so a table that has served a graph of `n` nodes holds up
//! to `8·n` bytes (131 KiB for the 16 743-node G4 graph at 5 % scale) for
//! as long as it is reused.

use std::collections::BTreeSet;

use meloppr_graph::{FastHashMap, NodeId};

use crate::score_vec::{by_rank, top_k_into, Ranking};

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
    /// needs the minimum); unbounded accumulation is one dense-array
    /// update. This is `add_all` of one entry; a staged task merges
    /// through `add_all`, which checks the mode once per task.
    pub fn add(&mut self, node: NodeId, score: f64) {
        self.add_all([(node, score)]);
    }

    /// Adds every `(node, score)` of one task, in order: the same totals,
    /// evictions and lost mass as one [`add`](Self::add) per entry. The
    /// table's mode is checked once per call; unbounded, the whole task is
    /// one tight loop of dense updates (skip a non-positive score, grow
    /// the array to the node id, record a first touch, `+=`).
    pub(crate) fn add_all(&mut self, entries: impl IntoIterator<Item = (NodeId, f64)>) {
        let Some(cap) = self.capacity else {
            let (dense, touched) = (&mut self.dense, &mut self.touched);
            for (node, score) in entries {
                if score <= 0.0 {
                    continue;
                }
                let slot = node as usize;
                if slot >= dense.len() {
                    dense.resize(slot + 1, 0.0);
                }
                let total = &mut dense[slot];
                if *total == 0.0 {
                    touched.push(node);
                }
                *total += score;
            }
            return;
        };
        for (node, score) in entries {
            self.add_bounded(cap, node, score);
        }
    }

    /// One bounded-mode add: accumulate a resident node, or compete with
    /// the resident minimum once the table holds `cap` entries.
    fn add_bounded(&mut self, cap: usize, node: NodeId, score: f64) {
        if score <= 0.0 {
            return;
        }
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

    /// As [`GlobalScoreTable::ranking`], but selects through a
    /// caller-owned scratch buffer so repeated rankings only allocate the
    /// returned `Ranking` itself. Unbounded, the touched nodes stream
    /// through `score_vec::top_k_into`, which keeps at most `max(2k, 64)`
    /// candidates in `scratch` instead of copying every entry; the ranking
    /// is then a copy of the `k` it leaves there.
    pub fn ranking_with(&self, k: usize, scratch: &mut Vec<(NodeId, f64)>) -> Ranking {
        if k == 0 {
            return Vec::new();
        }
        if self.capacity.is_none() {
            // The selection orders totally, so the first-touch order of
            // `touched` cannot show.
            let entries = self.touched.iter().map(|&v| (v, self.dense[v as usize]));
            top_k_into(entries, k, scratch);
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
        out.sort_unstable_by(by_rank);
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
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

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

    /// Both tables of one mode after the same input: everything a caller
    /// can observe is `==`, scores compared as `f64`.
    fn assert_same_table(a: &GlobalScoreTable, b: &GlobalScoreTable, nodes: &[NodeId]) {
        for &v in nodes {
            assert_eq!(a.get(v), b.get(v), "node {v}");
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.evictions(), b.evictions());
        assert_eq!(a.lost_mass(), b.lost_mass());
        for k in 0..=a.len() + 2 {
            assert_eq!(a.ranking(k), b.ranking(k), "k = {k}");
        }
    }

    #[test]
    fn add_all_equals_repeated_add_in_both_modes() {
        // Zero and negative scores, repeated nodes, and ids far beyond the
        // dense array's current length (it has grown to 41 by then).
        let warm: Vec<(NodeId, f64)> = vec![(3, 0.5), (40, 0.25), (3, 0.125)];
        let mut stream: Vec<(NodeId, f64)> = vec![
            (7, 0.0),
            (9, -0.5),
            (3, 0.0625),
            (5_000, 0.3),
            (41, 0.2),
            (9, 0.1),
            (5_000, -0.1),
            (70_000, 0.05),
            (40, 0.0),
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let node = rng.gen_range(0..3_000u32);
            let score = match rng.gen_range(0..10u32) {
                0 => 0.0,
                1 => -rng.gen::<f64>(),
                2 => 0.25,
                _ => rng.gen::<f64>(),
            };
            stream.push((node, score));
        }
        let mut nodes: Vec<NodeId> = stream.iter().chain(&warm).map(|&(v, _)| v).collect();
        nodes.extend([0, 8, 4_999, 69_999, 100_000]);
        for capacity in [None, Some(1), Some(4), Some(64), Some(10_000)] {
            let mut each = GlobalScoreTable::unbounded();
            let mut all = GlobalScoreTable::unbounded();
            for t in [&mut each, &mut all] {
                t.reset(capacity);
                for &(v, s) in &warm {
                    t.add(v, s);
                }
            }
            for &(v, s) in &stream {
                each.add(v, s);
            }
            // One call per task-sized chunk, as the staged merges make.
            for chunk in stream.chunks(37) {
                all.add_all(chunk.iter().copied());
            }
            assert_same_table(&each, &all, &nodes);
            if capacity.is_some_and(|c| c < 1_000) {
                assert!(all.evictions() > 0, "capacity {capacity:?} never evicted");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn unbounded_ranking_with_equals_a_full_sort(
            streams in prop::collection::vec(
                (
                    prop::collection::vec((0u32..400, 0u8..4), 0..300),
                    0u32..12,
                ),
                1..3,
            ),
        ) {
            // One table and one scratch serve every stream and every k.
            let mut table = GlobalScoreTable::unbounded();
            let mut scratch = Vec::new();
            for (entries, tied) in &streams {
                table.reset(None);
                // Quarter-step scores sum exactly, so many totals tie;
                // `tied` more nodes all scoring 0.5 force ties at the
                // boundary for a range of k.
                let stream: Vec<(NodeId, f64)> = entries
                    .iter()
                    .map(|&(v, level)| (v, f64::from(level) * 0.25))
                    .chain((0..*tied).map(|i| (1_000 + i, 0.5)))
                    .collect();
                let mut totals = std::collections::BTreeMap::<NodeId, f64>::new();
                for &(v, s) in &stream {
                    table.add(v, s);
                    if s > 0.0 {
                        *totals.entry(v).or_insert(0.0) += s;
                    }
                }
                let mut reference: Vec<(NodeId, f64)> =
                    totals.into_iter().filter(|&(_, s)| s > 0.0).collect();
                reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                for k in 0..=table.len() + 2 {
                    let mut want = reference.clone();
                    want.truncate(k);
                    prop_assert_eq!(table.ranking_with(k, &mut scratch), want, "k = {}", k);
                }
            }
        }
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
