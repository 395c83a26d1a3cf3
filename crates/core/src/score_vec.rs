//! Score vectors and deterministic top-`k` extraction.
//!
//! PPR scores are probabilities, so every helper here assumes non-negative
//! entries. Ranking ties are broken by ascending node id to make every
//! result — and therefore every experiment — bit-for-bit reproducible.

use meloppr_graph::NodeId;

/// A ranked `(node, score)` list, highest score first.
pub type Ranking = Vec<(NodeId, f64)>;

/// Extracts the top-`k` entries of a dense score vector, sorted by
/// descending score with ties broken by ascending node id. Zero-score
/// entries are excluded, so the result may be shorter than `k`.
///
/// This is the paper's selection operator `R(S_L, k)` (Eq. 2).
///
/// # Examples
///
/// ```
/// use meloppr_core::score_vec::top_k_dense;
///
/// let scores = [0.1, 0.0, 0.5, 0.1];
/// assert_eq!(top_k_dense(&scores, 2), vec![(2, 0.5), (0, 0.1)]);
/// ```
pub fn top_k_dense(scores: &[f64], k: usize) -> Ranking {
    let entries = scores.iter().enumerate().map(|(i, &s)| (i as NodeId, s));
    top_k_from_iter(entries, k)
}

/// Extracts the top-`k` of a sparse `(node, score)` list with the same
/// ordering rules as [`top_k_dense`]. The input need not be sorted; nodes
/// must be unique.
pub fn top_k_sparse(scores: &[(NodeId, f64)], k: usize) -> Ranking {
    top_k_from_iter(scores.iter().copied(), k)
}

/// [`top_k_into`] into a fresh buffer: the allocating form behind
/// [`top_k_dense`] and [`top_k_sparse`].
fn top_k_from_iter(entries: impl IntoIterator<Item = (NodeId, f64)>, k: usize) -> Ranking {
    let mut buf = Vec::new();
    top_k_into(entries, k, &mut buf);
    buf
}

/// Ranking order: descending score, ties by ascending node id.
pub(crate) fn by_rank(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Streaming bounded selection of the top-`k` positive entries into a
/// caller-owned buffer, which it overwrites with the ranking (descending
/// score, ties by ascending node id). Nodes must be unique.
///
/// Instead of collecting and sorting every entry (O(n log n)), the buffer
/// holds at most `max(2k, 64)` candidates: when it fills,
/// `select_nth_unstable` prunes it to the `k` best, and from then on an
/// entry strictly below the current `k`-th score is dropped on arrival.
/// Ties at the boundary are never dropped (an equal score with a smaller
/// node id can still enter the top-`k`), so the result equals the full
/// sort's. Amortized O(n + k log k); a reused buffer allocates nothing.
pub(crate) fn top_k_into(
    entries: impl IntoIterator<Item = (NodeId, f64)>,
    k: usize,
    buf: &mut Vec<(NodeId, f64)>,
) {
    buf.clear();
    if k == 0 {
        return;
    }
    let cap = (2 * k).max(64);
    buf.reserve(cap);
    let mut kth_score = f64::NEG_INFINITY;
    for entry in entries {
        if !(entry.1 > 0.0 && entry.1 >= kth_score) {
            continue;
        }
        if buf.len() >= cap {
            buf.select_nth_unstable_by(k - 1, by_rank);
            buf.truncate(k);
            kth_score = buf[k - 1].1;
            if entry.1 < kth_score {
                continue;
            }
        }
        buf.push(entry);
    }
    top_k_in_place(buf, k);
}

/// Reduces a caller-owned `(node, score)` buffer to its top-`k` in place
/// — the zero-allocation form of [`top_k_sparse`]. Entries need not be
/// sorted; nodes must be unique. After the call the buffer holds the
/// ranking (descending score, ties by ascending node id).
pub fn top_k_in_place(entries: &mut Vec<(NodeId, f64)>, k: usize) {
    entries.retain(|&(_, s)| s > 0.0);
    if entries.len() > k && k > 0 {
        entries.select_nth_unstable_by(k - 1, by_rank);
        entries.truncate(k);
    }
    entries.sort_unstable_by(by_rank);
    entries.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_by_score_then_id() {
        let scores = [0.3, 0.5, 0.3, 0.1];
        let top = top_k_dense(&scores, 3);
        assert_eq!(top, vec![(1, 0.5), (0, 0.3), (2, 0.3)]);
    }

    #[test]
    fn top_k_excludes_zeros() {
        let scores = [0.0, 0.2, 0.0];
        let top = top_k_dense(&scores, 5);
        assert_eq!(top, vec![(1, 0.2)]);
    }

    #[test]
    fn top_k_zero_k_is_empty() {
        let scores = [1.0, 2.0];
        assert!(top_k_dense(&scores, 0).is_empty());
    }

    #[test]
    fn top_k_k_larger_than_input() {
        let scores = [0.5, 0.25];
        let top = top_k_dense(&scores, 10);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn top_k_sparse_matches_dense() {
        let dense = [0.1, 0.0, 0.7, 0.2, 0.0, 0.7];
        let sparse: Vec<(NodeId, f64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0.0)
            .map(|(i, &s)| (i as NodeId, s))
            .collect();
        for k in 0..=6 {
            assert_eq!(top_k_dense(&dense, k), top_k_sparse(&sparse, k), "k = {k}");
        }
    }

    #[test]
    fn top_k_selection_boundary_is_deterministic() {
        // Four tied scores, k = 2: the two smallest ids must win.
        let scores = [0.4, 0.4, 0.4, 0.4];
        let top = top_k_dense(&scores, 2);
        assert_eq!(top, vec![(0, 0.4), (1, 0.4)]);
    }

    #[test]
    fn streaming_prune_keeps_boundary_ties() {
        // Thousands of entries tied at the boundary score, with the
        // smallest ids arriving *last*: the streaming prune must not
        // drop boundary ties, so the smallest ids still win.
        let n = 5_000usize;
        let mut scores = vec![0.5f64; n];
        for (i, s) in scores.iter_mut().enumerate().take(10) {
            *s = 1.0 - i as f64 * 0.01; // ten clear winners at ids 0..10
        }
        let top = top_k_dense(&scores, 20);
        assert_eq!(top.len(), 20);
        for (rank, &(node, score)) in top.iter().take(10).enumerate() {
            assert_eq!(node as usize, rank);
            assert!((score - (1.0 - rank as f64 * 0.01)).abs() < 1e-12);
        }
        // The remaining ten slots: tied 0.5 scores, smallest ids 10..20.
        for (rank, &(node, score)) in top.iter().enumerate().skip(10) {
            assert_eq!(node as usize, rank);
            assert_eq!(score, 0.5);
        }
    }

    #[test]
    fn streaming_matches_full_sort_on_adversarial_order() {
        // Descending input means every entry beats the threshold; the
        // buffer must prune repeatedly and still match the exact result.
        let scores: Vec<f64> = (0..3_000).rev().map(|i| i as f64 + 0.5).collect();
        let sparse: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as NodeId, s))
            .collect();
        let mut exact = sparse.clone();
        exact.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        exact.truncate(100);
        assert_eq!(top_k_sparse(&sparse, 100), exact);
    }

    #[test]
    fn large_input_selection_is_correct() {
        let scores: Vec<f64> = (0..10_000).map(|i| (i % 997) as f64 / 997.0).collect();
        let top = top_k_dense(&scores, 10);
        assert_eq!(top.len(), 10);
        assert!(top
            .windows(2)
            .all(|w| { w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0) }));
        assert!((top[0].1 - 996.0 / 997.0).abs() < 1e-12);
    }
}
