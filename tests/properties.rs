//! Property-based tests over randomly generated graphs and parameters
//! (the invariants listed in `DESIGN.md` §4), and over the byte streams
//! the server's wire-frame decoder reads from untrusted peers.

use std::io::{self, Read};

use proptest::prelude::*;

use meloppr::core::diffusion::{diffuse, diffuse_from_seed, DiffusionConfig};
use meloppr::core::score_vec::{top_k_dense, top_k_sparse};
use meloppr::graph::generators;
use meloppr::server::{write_frame, FrameEvent, FrameReader, MAX_FRAME};
use meloppr::{
    bfs_ball, exact_ppr, GraphView, MelopprEngine, MelopprParams, NodeId, PprParams,
    SelectionStrategy, Subgraph,
};

/// Strategy: a connected-ish random simple graph (n, edge list).
fn arb_graph() -> impl Strategy<Value = meloppr::CsrGraph> {
    (5usize..60, any::<u64>()).prop_map(|(n, seed)| {
        // Spanning-tree-plus-extras keeps every node reachable.
        let extra = n; // n extra edges on top of the n-1 tree edges
        generators::locality_preferential(n, (n - 1) + extra / 2, 0.5, n / 2 + 1, seed)
            .expect("valid generator parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mass_is_conserved(g in arb_graph(), l in 0usize..7, seed_idx in any::<prop::sample::Index>()) {
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let config = DiffusionConfig::new(0.85, l).unwrap();
        let out = diffuse_from_seed(&g, seed, config).unwrap();
        let acc: f64 = out.accumulated.iter().sum();
        let res: f64 = out.residual.iter().sum();
        prop_assert!((acc - 1.0).abs() < 1e-9, "accumulated mass {acc}");
        prop_assert!((res - 1.0).abs() < 1e-9, "residual mass {res}");
        prop_assert!(out.accumulated.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn diffusion_is_linear(g in arb_graph(), a in 0.1f64..0.9, l in 1usize..5) {
        let n = g.num_nodes() as NodeId;
        let (u, v) = (0 as NodeId, n - 1);
        let config = DiffusionConfig::new(0.85, l).unwrap();
        let combined = diffuse(&g, &[(u, a), (v, 1.0 - a)], config).unwrap();
        let du = diffuse(&g, &[(u, 1.0)], config).unwrap();
        let dv = diffuse(&g, &[(v, 1.0)], config).unwrap();
        for i in 0..g.num_nodes() {
            let want = a * du.accumulated[i] + (1.0 - a) * dv.accumulated[i];
            prop_assert!((combined.accumulated[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn stage_decomposition_identity(
        g in arb_graph(),
        split in 1usize..4,
        total in 2usize..6,
        seed_idx in any::<prop::sample::Index>(),
    ) {
        // Eq. 8 with full selection must reproduce GD(L) exactly.
        prop_assume!(split < total);
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let ppr = PprParams::new(0.85, total, 10).unwrap();
        let params = MelopprParams {
            ppr,
            stages: vec![split, total - split],
            selection: SelectionStrategy::All,
            ..MelopprParams::paper_defaults()
        };
        let outcome = MelopprEngine::new(&g, params).unwrap().query(seed).unwrap();
        let exact = exact_ppr(&g, seed, &ppr).unwrap();
        for &(v, s) in &outcome.ranking {
            prop_assert!(
                (s - exact.accumulated[v as usize]).abs() < 1e-9,
                "node {v}: {s} vs {}", exact.accumulated[v as usize]
            );
        }
    }

    #[test]
    fn ball_diffusion_is_exact_within_depth(
        g in arb_graph(),
        depth in 1u32..5,
        seed_idx in any::<prop::sample::Index>(),
    ) {
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let ball = bfs_ball(&g, seed, depth).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        let config = DiffusionConfig::new(0.85, depth as usize).unwrap();
        let on_ball = diffuse_from_seed(&sub, sub.seed_local(), config).unwrap();
        let on_full = diffuse_from_seed(&g, seed, config).unwrap();
        prop_assert_eq!(on_ball.work.leaked_mass, 0.0);
        for local in 0..sub.num_nodes() {
            let global = sub.to_global(local as NodeId) as usize;
            prop_assert!(
                (on_ball.accumulated[local] - on_full.accumulated[global]).abs() < 1e-12
            );
        }
    }

    #[test]
    fn subgraph_extraction_invariants(
        g in arb_graph(),
        depth in 0u32..4,
        seed_idx in any::<prop::sample::Index>(),
    ) {
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let ball = bfs_ball(&g, seed, depth).unwrap();
        let sub = Subgraph::extract(&g, &ball).unwrap();
        prop_assert_eq!(sub.num_nodes(), ball.num_nodes());
        prop_assert_eq!(sub.to_global(sub.seed_local()), seed);
        for local in 0..sub.num_nodes() as NodeId {
            let global = sub.to_global(local);
            // Walk degree comes from the parent.
            prop_assert_eq!(sub.walk_degree(local), g.degree(global));
            // Local adjacency is a subset of the parent's.
            prop_assert!(sub.neighbors(local).len() <= g.degree(global) as usize);
            // Round-trip id mapping.
            prop_assert_eq!(sub.to_local(global), Some(local));
        }
    }

    #[test]
    fn top_k_agrees_between_dense_and_sparse(scores in prop::collection::vec(0.0f64..1.0, 1..50), k in 0usize..12) {
        let sparse: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as NodeId, s))
            .collect();
        prop_assert_eq!(top_k_dense(&scores, k), top_k_sparse(&sparse, k));
    }

    #[test]
    fn top_k_is_sorted_and_bounded(scores in prop::collection::vec(0.0f64..1.0, 0..80), k in 0usize..20) {
        let top = top_k_dense(&scores, k);
        prop_assert!(top.len() <= k);
        for w in top.windows(2) {
            prop_assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "ordering violated: {:?}", w
            );
        }
        // Every returned score is >= every excluded positive score? Only
        // when k entries were returned.
        if top.len() == k && k > 0 {
            let boundary = top.last().unwrap().1;
            let better = scores.iter().filter(|&&s| s > boundary).count();
            prop_assert!(better <= k);
        }
    }

    #[test]
    fn selection_strategies_return_sorted_prefixes(
        scores in prop::collection::vec(0.0f64..1.0, 0..40),
        frac in 0.0f64..1.0,
    ) {
        let candidates: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as NodeId, s))
            .collect();
        let all = SelectionStrategy::All.select(candidates.clone());
        let some = SelectionStrategy::TopFraction(frac).select(candidates);
        prop_assert!(some.len() <= all.len());
        // The fraction selection is a prefix of the full sorted order.
        prop_assert_eq!(&all[..some.len()], &some[..]);
    }

    #[test]
    fn precision_is_within_unit_interval(
        g in arb_graph(),
        frac in 0.0f64..1.0,
        seed_idx in any::<prop::sample::Index>(),
    ) {
        let seed = seed_idx.index(g.num_nodes()) as NodeId;
        let ppr = PprParams::new(0.85, 4, 5).unwrap();
        let params = MelopprParams {
            ppr,
            stages: vec![2, 2],
            selection: SelectionStrategy::TopFraction(frac),
            ..MelopprParams::paper_defaults()
        };
        let outcome = MelopprEngine::new(&g, params).unwrap().query(seed).unwrap();
        let exact = meloppr::exact_top_k(&g, seed, &ppr).unwrap();
        let p = meloppr::precision_at_k(&outcome.ranking, &exact, 5);
        prop_assert!((0.0..=1.0).contains(&p));
    }
}

/// A `Read` that hands `data` out in chunks of `sizes` (cycled), with a
/// `WouldBlock` before each chunk — a socket whose read timeout keeps
/// splitting frames at arbitrary boundaries.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.reads % 2 == 1 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let size = self.sizes[self.reads / 2 % self.sizes.len()];
        let n = size.min(buf.len()).min(self.data.len());
        let (chunk, rest) = self.data.split_at(n);
        buf[..n].copy_from_slice(chunk);
        self.data = rest;
        Ok(n)
    }
}

/// Decodes `stream` to its end: the frames, then `Ok(has_partial)` at
/// EOF or the kind of the error that stopped the decoder.
fn decode_all(stream: &mut impl Read) -> (Vec<String>, Result<bool, io::ErrorKind>) {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    loop {
        match reader.read_event(stream) {
            Ok(FrameEvent::Frame(frame)) => frames.push(frame),
            Ok(FrameEvent::Idle) => {}
            Ok(FrameEvent::Eof) => return (frames, Ok(reader.has_partial())),
            Err(e) => return (frames, Err(e.kind())),
        }
    }
}

/// Chunk sizes spread from single bytes to more than the decoder's
/// 4 KiB read buffer.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec((1usize..10, 0usize..4), 1..16).prop_map(|sizes| {
        sizes
            .into_iter()
            .map(|(digit, exp)| digit * 10usize.pow(exp as u32))
            .collect()
    })
}

/// A UTF-8 payload of up to a few dozen KiB (any scalar value, repeated).
fn arb_payload() -> impl Strategy<Value = String> {
    (prop::collection::vec(0u32..0x11_0000, 0..24), 0usize..4).prop_map(|(chars, reps)| {
        let unit: String = chars
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect();
        unit.repeat([1, 2, 40, 400][reps])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_survive_any_split(
        payloads in prop::collection::vec(arb_payload(), 0..10),
        sizes in arb_splits(),
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        let (frames, end) = decode_all(&mut Chunked { data: &wire, sizes, reads: 0 });
        prop_assert_eq!(frames, payloads);
        prop_assert_eq!(end, Ok(false), "a clean close left a partial frame");
    }

    #[test]
    fn arbitrary_bytes_decode_the_same_however_split(
        pieces in prop::collection::vec(
            (0u8..4, 0u8..4, 0u32..400, prop::collection::vec(0u16..256, 0..300)),
            0..8,
        ),
        noise in prop::collection::vec(0u16..256, 0..8),
        sizes in arb_splits(),
    ) {
        // Length-prefixed bodies, mostly ASCII under an honest prefix, then
        // a few raw bytes: well-formed, invalid UTF-8, torn and oversized
        // frames and clean closes all occur.
        let mut wire = Vec::new();
        for (binary, lying, len, body) in pieces {
            let len = if lying == 0 { len } else { body.len() as u32 };
            wire.extend_from_slice(&len.to_be_bytes());
            let mask = if binary == 0 { 0xff } else { 0x7f };
            wire.extend(body.into_iter().map(|b| b as u8 & mask));
        }
        wire.extend(noise.into_iter().map(|b| b as u8));
        let whole = decode_all(&mut wire.as_slice());
        let split = decode_all(&mut Chunked { data: &wire, sizes, reads: 0 });
        prop_assert!(split.0.iter().all(|frame| frame.len() <= MAX_FRAME));
        prop_assert_eq!(split, whole);
    }
}
