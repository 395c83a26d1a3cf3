//! Reduced-precision host-side arithmetic: the **precision ladder**.
//!
//! MeLoPPR's co-design claim (§V) is that low-precision fixed-point
//! arithmetic buys memory and latency without hurting top-k precision.
//! This module carries that claim to the host path: every score a staged
//! query crunches can be held in one of three widths, selected per query
//! by a [`PrecisionClass`]:
//!
//! * [`PrecisionClass::Exact64`] — the reference `f64` pipeline
//!   (bit-identical to the pre-ladder behaviour).
//! * [`PrecisionClass::Fast32`] — `f32` scores: half the memory traffic
//!   of the dense diffusion arrays, with precision loss far below the
//!   top-k resolution on the paper's workloads.
//! * [`PrecisionClass::Fixed`]`(q)` — `u32` fixed-point with `q`
//!   fractional bits, sharing its multiply-shift semantics with the FPGA
//!   simulator (`meloppr_fpga::fixed_point` delegates to the
//!   [`fixed_coeff`]/[`mul_shift`]/[`mul_shift_round`] core defined
//!   here), so host and accelerator quantization agree by construction.
//!
//! Three pieces live here:
//!
//! 1. The [`ScoreScalar`] abstraction and the reduced-width diffusion
//!    kernel [`diffuse_quantized`], which the `Fast32` and `Fixed(q)`
//!    rungs run. Where the exact kernel
//!    [`diffuse_into`](crate::diffusion::diffuse_into) is frontier-sparse
//!    (worth it on huge views), ball diffusion saturates its frontier
//!    within a step or two, so the quantized kernel drops all frontier
//!    bookkeeping: flat arrays, no branch in the hot propagate loop,
//!    `chunks_exact` accumulation that auto-vectorizes. Results are
//!    decoded back into the caller's [`DiffusionScratch`], so everything
//!    downstream of a diffusion (Eq. 8 adjustment, selection,
//!    aggregation) is width-agnostic. `Exact64` runs the sparse kernel
//!    on either ball form.
//! 2. [`CompactBall`] — a reduced-width ball representation (`u16` local
//!    adjacency, no global→local map) at roughly **half** the bytes of a
//!    full [`Subgraph`]: the form the cold tier decodes and serves, and
//!    the form the shared cache keeps every ball that fits `u16` local
//!    ids in, so a byte-budgeted cache admits ~2× more residents. Both forms feed
//!    every kernel through [`QuantView`].
//! 3. [`PrecisionClass`] itself: parseable from CLI/wire strings
//!    (`exact | f32 | qN`), with the conservative per-class precision
//!    and latency factors the staged `estimate()` and the router's
//!    admission ladder consume.

use meloppr_graph::{GraphView, NodeId, Subgraph};

use crate::diffusion::{DiffusionConfig, DiffusionScratch, DiffusionWork};
use crate::error::{PprError, Result};

// ---------------------------------------------------------------------------
// Shared Q-format core (host + FPGA)
// ---------------------------------------------------------------------------

/// Quantizes a coefficient `c ∈ [0, 1]` to `q` fractional bits:
/// `round(c · 2^q)`. This is the host-side twin of the FPGA's `alpha_p`
/// derivation; `meloppr_fpga::fixed_point` calls it so the two agree
/// by construction.
pub fn fixed_coeff(c: f64, q: u32) -> u64 {
    debug_assert!((0.0..=1.0).contains(&c), "coefficient out of [0,1]: {c}");
    (c * (1u64 << q) as f64).round() as u64
}

/// Truncating fixed-point multiply: `(x · m) >> q` — the FPGA datapath's
/// `mul_alpha` operation.
#[inline(always)]
pub fn mul_shift(x: u64, m: u64, q: u32) -> u64 {
    (x * m) >> q
}

/// Rounding fixed-point multiply: `(x · m + 2^(q-1)) >> q` — the FPGA
/// datapath's weighted-MAC rounding.
#[inline(always)]
pub fn mul_shift_round(x: u64, m: u64, q: u32) -> u64 {
    (x * m + (1u64 << (q - 1))) >> q
}

// ---------------------------------------------------------------------------
// PrecisionClass: the ladder
// ---------------------------------------------------------------------------

/// The fixed-point rung the admission ladder degrades to when no class
/// was requested: Q0.16 keeps `precision_at_k(200)` ≥ 0.95 on every
/// seed workload (asserted by the `precision_ladder` tests) while
/// halving score bytes.
pub const DEFAULT_FIXED_Q: u8 = 16;

/// A score-storage width for the host query path (the precision ladder).
///
/// Ordered from most to least precise: `Exact64 → Fast32 → Fixed(q)`.
/// Parse from CLI/wire strings via [`std::str::FromStr`]:
/// `"exact"`, `"f32"`, `"q16"` (any `q1..=q30`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionClass {
    /// Full `f64` scores — the reference pipeline.
    #[default]
    Exact64,
    /// `f32` scores: half the dense-array traffic.
    Fast32,
    /// `u32` fixed-point with this many fractional bits (1..=30),
    /// sharing multiply-shift semantics with the FPGA simulator.
    Fixed(u8),
}

impl PrecisionClass {
    /// Validates the class (fixed-point `q` must lie in `1..=30`).
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`] for an out-of-range `q`.
    pub fn validate(self) -> Result<()> {
        if let PrecisionClass::Fixed(q) = self {
            if q == 0 || q > 30 {
                return Err(PprError::InvalidParams {
                    reason: format!("fixed-point q must be in 1..=30, got {q}"),
                });
            }
        }
        Ok(())
    }

    /// Bytes per score at this width (the memory model's diffusion-array
    /// word size): 8 for `Exact64`, 4 for `Fast32`/`Fixed`.
    pub fn score_width_bytes(self) -> usize {
        match self {
            PrecisionClass::Exact64 => 8,
            PrecisionClass::Fast32 | PrecisionClass::Fixed(_) => 4,
        }
    }

    /// Conservative multiplicative precision penalty of this class,
    /// applied to `estimate().expected_precision`. These are deliberate
    /// *under*-estimates of the measured `precision_at_k` on the seed
    /// graphs (the `precision_ladder` tests assert measured ≥ predicted
    /// for every class), so the router's `min_precision` gate never
    /// admits optimistically.
    pub fn precision_factor(self) -> f64 {
        match self {
            PrecisionClass::Exact64 => 1.0,
            PrecisionClass::Fast32 => 0.99,
            PrecisionClass::Fixed(q) => match q {
                20.. => 0.99,
                14..=19 => 0.95,
                10..=13 => 0.85,
                // Below 10 fractional bits whole tails of the ranking
                // collapse into ties; promise very little so the
                // min_precision gate routes these rungs away from any
                // fidelity-sensitive query.
                6..=9 => 0.30,
                _ => 0.05,
            },
        }
    }

    /// Relative cost of one diffusion edge-update at this width (1.0 =
    /// `f64`). Reduced widths halve the dense-array traffic and drop the
    /// frontier bookkeeping, which the fig5 ladder section measures at
    /// ≥ 1.2× on diffusion-dominated balls; 0.8 keeps the estimate
    /// conservative (never promises more speedup than measured).
    pub fn diffusion_cost_factor(self) -> f64 {
        match self {
            PrecisionClass::Exact64 => 1.0,
            PrecisionClass::Fast32 | PrecisionClass::Fixed(_) => 0.8,
        }
    }

    /// The next-cheaper rung of the ladder (`Exact64 → Fast32 →
    /// Fixed(DEFAULT_FIXED_Q) → None`): what deadline-tight admission
    /// degrades to before rejecting, mirroring how the staged engine
    /// shrinks ball depth only after the width ladder is exhausted.
    pub fn degraded(self) -> Option<PrecisionClass> {
        match self {
            PrecisionClass::Exact64 => Some(PrecisionClass::Fast32),
            PrecisionClass::Fast32 => Some(PrecisionClass::Fixed(DEFAULT_FIXED_Q)),
            PrecisionClass::Fixed(_) => None,
        }
    }
}

impl std::fmt::Display for PrecisionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PrecisionClass::Exact64 => f.write_str("exact"),
            PrecisionClass::Fast32 => f.write_str("f32"),
            PrecisionClass::Fixed(q) => write!(f, "q{q}"),
        }
    }
}

impl std::str::FromStr for PrecisionClass {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if s.eq_ignore_ascii_case("exact") || s.eq_ignore_ascii_case("f64") {
            return Ok(PrecisionClass::Exact64);
        }
        if s.eq_ignore_ascii_case("f32") {
            return Ok(PrecisionClass::Fast32);
        }
        if let Some(q) = s.strip_prefix(['q', 'Q']) {
            let q: u8 = q
                .parse()
                .map_err(|e| format!("bad fixed-point q {q:?}: {e}"))?;
            let class = PrecisionClass::Fixed(q);
            class.validate().map_err(|e| e.to_string())?;
            return Ok(class);
        }
        Err(format!(
            "unknown precision class {s:?} (exact | f32 | qN with N in 1..=30)"
        ))
    }
}

// ---------------------------------------------------------------------------
// ScoreScalar
// ---------------------------------------------------------------------------

/// One reduced score-storage width: the arithmetic the quantized
/// diffusion kernel is generic over, implemented by `f32` (the `Fast32`
/// rung) and [`Qu32`] (the `Fixed(q)` rungs).
///
/// All masses live in `[0, 1]` (diffusions start from unit vectors), so
/// fixed-point implementations can use the full fractional range. The
/// `Exact64` rung never goes through this trait: it runs the sparse
/// [`diffuse_into`](crate::diffusion::diffuse_into).
pub trait ScoreScalar:
    Copy + Default + PartialEq + Send + Sync + std::fmt::Debug + 'static
{
    /// Quantization context (the fixed-point format; `()` for floats).
    type Ctx: Copy;
    /// A pre-quantized multiplicative coefficient in `[0, 1]`.
    type Coeff: Copy;

    /// Quantizes an `f64` mass into this width.
    fn encode(ctx: Self::Ctx, x: f64) -> Self;
    /// Dequantizes back to `f64`.
    fn decode(self, ctx: Self::Ctx) -> f64;
    /// Pre-quantizes a coefficient `c ∈ [0, 1]` for [`ScoreScalar::mul_coeff`].
    fn coeff(ctx: Self::Ctx, c: f64) -> Self::Coeff;
    /// `self · c`.
    fn mul_coeff(self, c: Self::Coeff) -> Self;
    /// `self / deg` (`deg ≥ 1`): the per-node propagation share.
    fn div_degree(self, deg: u32) -> Self;
    /// Saturating/exact addition.
    fn add(self, rhs: Self) -> Self;
    /// Whether this value carries no mass.
    fn is_zero(self) -> bool;
}

impl ScoreScalar for f32 {
    type Ctx = ();
    type Coeff = f32;

    #[inline(always)]
    fn encode(_: (), x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn decode(self, _: ()) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn coeff(_: (), c: f64) -> f32 {
        c as f32
    }
    #[inline(always)]
    fn mul_coeff(self, c: f32) -> f32 {
        self * c
    }
    #[inline(always)]
    fn div_degree(self, deg: u32) -> f32 {
        self / deg as f32
    }
    #[inline(always)]
    fn add(self, rhs: f32) -> f32 {
        self + rhs
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0.0
    }
}

/// The fixed-point quantization context: `q` fractional bits of a `u32`
/// score word (unit mass = `2^q`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QCtx {
    /// Fractional bits (1..=30).
    pub q: u32,
}

impl QCtx {
    /// Context for a validated [`PrecisionClass::Fixed`] rung.
    pub fn new(q: u8) -> Self {
        QCtx { q: q as u32 }
    }
}

/// A pre-quantized coefficient for [`Qu32`] multiply-shift.
#[derive(Debug, Clone, Copy)]
pub struct QCoeff {
    m: u64,
    q: u32,
}

/// A `u32` fixed-point score with runtime `q` (see [`QCtx`]). Unit mass
/// encodes to exactly `2^q`; arithmetic uses the shared
/// [`mul_shift_round`] core (the FPGA's rounding MAC semantics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Qu32(pub u32);

impl ScoreScalar for Qu32 {
    type Ctx = QCtx;
    type Coeff = QCoeff;

    #[inline(always)]
    fn encode(ctx: QCtx, x: f64) -> Qu32 {
        Qu32((x.max(0.0) * (1u64 << ctx.q) as f64).round() as u32)
    }
    #[inline(always)]
    fn decode(self, ctx: QCtx) -> f64 {
        self.0 as f64 / (1u64 << ctx.q) as f64
    }
    #[inline(always)]
    fn coeff(ctx: QCtx, c: f64) -> QCoeff {
        QCoeff {
            m: fixed_coeff(c, ctx.q),
            q: ctx.q,
        }
    }
    #[inline(always)]
    fn mul_coeff(self, c: QCoeff) -> Qu32 {
        Qu32(mul_shift_round(self.0 as u64, c.m, c.q) as u32)
    }
    #[inline(always)]
    fn div_degree(self, deg: u32) -> Qu32 {
        Qu32((self.0 + deg / 2) / deg)
    }
    #[inline(always)]
    fn add(self, rhs: Qu32) -> Qu32 {
        Qu32(self.0.saturating_add(rhs.0))
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        self.0 == 0
    }
}

// ---------------------------------------------------------------------------
// Views: every GraphView, and the CompactBall
// ---------------------------------------------------------------------------

/// The adjacency interface every diffusion kernel propagates over:
/// the exact [`diffuse_into`](crate::diffusion::diffuse_into) and the
/// reduced-width [`diffuse_quantized`]. Every [`GraphView`] (the full
/// graph, a [`Subgraph`]) implements it, and so does the reduced-width
/// [`CompactBall`], whose `u16` neighbor ids cannot meet
/// [`GraphView`]'s `&[u32]` contract.
pub trait QuantView {
    /// Nodes in the view (local ids `0..n`).
    fn num_nodes(&self) -> usize;
    /// The random-walk divisor (parent-graph degree for balls).
    fn walk_degree(&self, u: NodeId) -> u32;
    /// In-view neighbors of `u`.
    fn neighbors_len(&self, u: NodeId) -> usize;
    /// Visits every in-view neighbor of `u` in adjacency order.
    fn for_each_neighbor(&self, u: NodeId, f: impl FnMut(NodeId));
}

impl<G: GraphView + ?Sized> QuantView for G {
    #[inline]
    fn num_nodes(&self) -> usize {
        GraphView::num_nodes(self)
    }
    #[inline]
    fn walk_degree(&self, u: NodeId) -> u32 {
        GraphView::walk_degree(self, u)
    }
    #[inline]
    fn neighbors_len(&self, u: NodeId) -> usize {
        GraphView::neighbors(self, u).len()
    }
    #[inline]
    fn for_each_neighbor(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        for &v in GraphView::neighbors(self, u) {
            f(v);
        }
    }
}

/// A BFS ball stored at reduced width: `u16` local adjacency, no
/// global→local hash map. It keeps the node order, adjacency order and
/// parent degrees of the [`Subgraph`] it was built from, so every
/// kernel diffuses it to the same bits as that sub-graph, at roughly
/// **half** the resident bytes — which is exactly what lets a
/// byte-budgeted cache ([`CacheBudget::bytes`](crate::cache::CacheBudget))
/// hold ~2× more balls (asserted by the fig5 ladder section at ≥ 1.5×).
///
/// Only balls with ≤ 65 536 nodes compress (`u16` local ids); larger
/// balls stay full-width ([`CompactBall::from_subgraph`] returns `None`
/// and the cache falls back to the full representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactBall {
    global_ids: Vec<NodeId>,
    offsets: Vec<u32>,
    neighbors: Vec<u16>,
    walk_degrees: Vec<u32>,
}

impl CompactBall {
    /// Compresses a full ball; `None` when the ball has more nodes than
    /// `u16` local ids can address.
    pub fn from_subgraph(sub: &Subgraph) -> Option<Self> {
        let n = GraphView::num_nodes(sub);
        if n > u16::MAX as usize + 1 {
            return None;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(sub.csr().num_directed_edges());
        let mut walk_degrees = Vec::with_capacity(n);
        offsets.push(0u32);
        for u in 0..n as NodeId {
            for &v in GraphView::neighbors(sub, u) {
                neighbors.push(v as u16);
            }
            offsets.push(neighbors.len() as u32);
            walk_degrees.push(GraphView::walk_degree(sub, u));
        }
        Some(CompactBall {
            global_ids: sub.global_ids().to_vec(),
            offsets,
            neighbors,
            walk_degrees,
        })
    }

    /// Reassembles a ball from its four raw arrays — the decode half of
    /// the on-disk ball-index codec (`meloppr_core::ballindex`).
    ///
    /// Every structural invariant the in-memory accessors rely on is
    /// validated up front, so a corrupt or truncated index record can
    /// never cause an out-of-bounds panic downstream: the offsets array
    /// must be a monotone prefix-sum starting at 0 and ending at
    /// `neighbors.len()`, every local neighbor id must address a node,
    /// and the per-node arrays must agree on the node count (which must
    /// fit `u16` local ids, as for [`CompactBall::from_subgraph`]).
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`] describing the first violated
    /// invariant.
    pub fn from_raw_parts(
        global_ids: Vec<NodeId>,
        offsets: Vec<u32>,
        neighbors: Vec<u16>,
        walk_degrees: Vec<u32>,
    ) -> Result<Self> {
        let n = global_ids.len();
        let invalid = |reason: String| PprError::InvalidParams { reason };
        if n == 0 {
            return Err(invalid("compact ball must have at least one node".into()));
        }
        if n > u16::MAX as usize + 1 {
            return Err(invalid(format!(
                "compact ball has {n} nodes; u16 local ids address at most 65536"
            )));
        }
        if walk_degrees.len() != n {
            return Err(invalid(format!(
                "walk_degrees length {} != node count {n}",
                walk_degrees.len()
            )));
        }
        if offsets.len() != n + 1 {
            return Err(invalid(format!(
                "offsets length {} != node count + 1 ({})",
                offsets.len(),
                n + 1
            )));
        }
        if offsets[0] != 0 {
            return Err(invalid(format!(
                "offsets must start at 0, got {}",
                offsets[0]
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("offsets must be non-decreasing".into()));
        }
        if offsets[n] as usize != neighbors.len() {
            return Err(invalid(format!(
                "offsets end at {} but {} neighbors are stored",
                offsets[n],
                neighbors.len()
            )));
        }
        if neighbors.iter().any(|&v| v as usize >= n) {
            return Err(invalid(format!(
                "neighbor local id out of bounds for {n} nodes"
            )));
        }
        Ok(CompactBall {
            global_ids,
            offsets,
            neighbors,
            walk_degrees,
        })
    }

    /// The ball seed's local id (always 0, as for [`Subgraph`]).
    pub fn seed_local(&self) -> NodeId {
        0
    }

    /// Maps a local id back to the parent graph's id.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.global_ids[local as usize]
    }

    /// The local→global id table.
    pub fn global_ids(&self) -> &[NodeId] {
        &self.global_ids
    }

    /// Directed adjacency entries stored.
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The CSR offsets array (`n + 1` entries) — the encode half of the
    /// ball-index codec reads the raw arrays directly.
    pub(crate) fn offsets_raw(&self) -> &[u32] {
        &self.offsets
    }

    /// The packed `u16` local adjacency array.
    pub(crate) fn neighbors_raw(&self) -> &[u16] {
        &self.neighbors
    }

    /// The parent-graph walk-degree array (one entry per node).
    pub(crate) fn walk_degrees_raw(&self) -> &[u32] {
        &self.walk_degrees
    }

    /// Heap bytes of this representation — the number a byte-budgeted
    /// cache charges for a compact resident.
    pub fn memory_bytes_total(&self) -> usize {
        self.global_ids.len() * std::mem::size_of::<NodeId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<u16>()
            + self.walk_degrees.len() * std::mem::size_of::<u32>()
    }
}

impl QuantView for CompactBall {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.global_ids.len()
    }
    #[inline]
    fn walk_degree(&self, u: NodeId) -> u32 {
        self.walk_degrees[u as usize]
    }
    #[inline]
    fn neighbors_len(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }
    #[inline]
    fn for_each_neighbor(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        let (s, e) = (
            self.offsets[u as usize] as usize,
            self.offsets[u as usize + 1] as usize,
        );
        for &v in &self.neighbors[s..e] {
            f(v as NodeId);
        }
    }
}

// ---------------------------------------------------------------------------
// The quantized diffusion kernel
// ---------------------------------------------------------------------------

/// Reusable dense buffers of one [`diffuse_quantized`] width. Buffers
/// are re-zeroed, never re-allocated, so steady-state quantized
/// diffusion performs no heap allocation (covered by `alloc_smoke`).
#[derive(Debug, Default)]
pub struct QuantScratch<S: ScoreScalar> {
    power: Vec<S>,
    next: Vec<S>,
    accumulated: Vec<S>,
}

/// One scratch per reduced width, owned by the query workspace. Only the
/// widths a query actually uses ever grow; `Exact64` diffuses into the
/// caller's [`DiffusionScratch`] directly.
#[derive(Debug, Default)]
pub struct QuantScratchSet {
    /// `f32` dense scratch (Fast32).
    pub f32: QuantScratch<f32>,
    /// Fixed-point dense scratch (`Fixed(q)`).
    pub fx: QuantScratch<Qu32>,
}

/// Runs `GD(l)` at width `S` over any ball view, decoding the results
/// into the caller's `f64` [`DiffusionScratch`] (`out.accumulated()` /
/// `out.residual()`), so everything downstream of a diffusion is
/// width-agnostic.
///
/// The kernel is dense and branch-free in the hot propagate loop: the
/// accumulate step folds `(1-α)·α^k·p_k` over flat arrays with
/// `chunks_exact` (auto-vectorizes at every width), and the propagate
/// step visits every node's adjacency unconditionally — on BFS balls the
/// frontier saturates within a step or two, so the sparse kernel's
/// frontier bookkeeping (a branch plus a push per edge) costs more than
/// it saves. This is where the ladder's measured ≥ 1.2× diffusion
/// speedup comes from.
///
/// # Errors
///
/// As [`diffuse_into`](crate::diffusion::diffuse_into): invalid config
/// or an out-of-bounds init node.
pub fn diffuse_quantized<S: ScoreScalar, V: QuantView + ?Sized>(
    g: &V,
    init: &[(NodeId, f64)],
    config: DiffusionConfig,
    ctx: S::Ctx,
    qs: &mut QuantScratch<S>,
    out: &mut DiffusionScratch,
) -> Result<DiffusionWork> {
    let config = DiffusionConfig::new(config.alpha, config.iterations)?;
    let n = g.num_nodes();
    qs.power.clear();
    qs.power.resize(n, S::default());
    qs.next.clear();
    qs.next.resize(n, S::default());
    qs.accumulated.clear();
    qs.accumulated.resize(n, S::default());

    for &(v, mass) in init {
        if v as usize >= n {
            return Err(PprError::Graph(
                meloppr_graph::GraphError::NodeOutOfBounds {
                    node: v,
                    num_nodes: n,
                },
            ));
        }
        let prev = qs.power[v as usize];
        qs.power[v as usize] = prev.add(S::encode(ctx, mass));
    }

    let alpha = config.alpha;
    let l = config.iterations;
    let mut work = DiffusionWork::default();
    let mut alpha_k = 1.0f64; // α^k, folded into the accumulate coefficient

    for _ in 0..l {
        // Accumulate: πa += (1-α)·α^k·p_k, dense over flat arrays.
        // `chunks_exact` gives the optimizer fixed-width blocks to
        // vectorize; the remainder loop handles n % 8 tail lanes.
        let ck = S::coeff(ctx, (1.0 - alpha) * alpha_k);
        {
            let mut acc_chunks = qs.accumulated.chunks_exact_mut(8);
            let mut pow_chunks = qs.power.chunks_exact(8);
            for (acc, pow) in (&mut acc_chunks).zip(&mut pow_chunks) {
                for i in 0..8 {
                    acc[i] = acc[i].add(pow[i].mul_coeff(ck));
                }
            }
            for (acc, pow) in acc_chunks
                .into_remainder()
                .iter_mut()
                .zip(pow_chunks.remainder())
            {
                *acc = acc.add(pow.mul_coeff(ck));
            }
        }
        // Propagate: p_{k+1} = W·p_k, dense. The inner scatter loop has
        // no branch: share is 0 for massless nodes and adding 0 is a
        // no-op at every width.
        for u in 0..n as NodeId {
            let mass = qs.power[u as usize];
            if mass.is_zero() {
                continue;
            }
            let deg = g.walk_degree(u);
            if deg == 0 {
                // Isolated node: self-retain to keep W stochastic.
                let prev = qs.next[u as usize];
                qs.next[u as usize] = prev.add(mass);
                continue;
            }
            let share = mass.div_degree(deg);
            let in_view = g.neighbors_len(u);
            work.edge_updates += in_view;
            g.for_each_neighbor(u, |v| {
                let prev = qs.next[v as usize];
                qs.next[v as usize] = prev.add(share);
            });
            work.leaked_mass += share.decode(ctx) * (deg as usize - in_view) as f64;
        }
        std::mem::swap(&mut qs.power, &mut qs.next);
        for x in qs.next.iter_mut() {
            *x = S::default();
        }
        alpha_k *= alpha;
        work.iterations += 1;
    }

    // Final term: πa += α^l·p_l; then decode both outputs into the f64
    // scratch the staged engine post-processes.
    let cl = S::coeff(ctx, alpha_k);
    out.power.clear();
    out.power.resize(n, 0.0);
    out.accumulated.clear();
    out.accumulated.resize(n, 0.0);
    for i in 0..n {
        let acc = qs.accumulated[i].add(qs.power[i].mul_coeff(cl));
        out.accumulated[i] = acc.decode(ctx);
        out.power[i] = qs.power[i].decode(ctx);
    }
    Ok(work)
}

/// Dispatches one ball diffusion at the requested [`PrecisionClass`],
/// writing decoded results into `out`. `Exact64` runs the frontier-sparse
/// [`diffuse_into`](crate::diffusion::diffuse_into) on either ball form,
/// so a ball gives the same bits whether it was extracted by BFS or
/// decoded from the cold tier; the narrower rungs run the dense
/// quantized kernel.
pub(crate) fn diffuse_ball(
    ball: BallRef<'_>,
    init: &[(NodeId, f64)],
    config: DiffusionConfig,
    class: PrecisionClass,
    qs: &mut QuantScratchSet,
    out: &mut DiffusionScratch,
) -> Result<DiffusionWork> {
    match (ball, class) {
        (BallRef::Full(sub), PrecisionClass::Exact64) => {
            crate::diffusion::diffuse_into(sub, init, config, out)
        }
        (BallRef::Full(sub), PrecisionClass::Fast32) => {
            diffuse_quantized::<f32, _>(sub, init, config, (), &mut qs.f32, out)
        }
        (BallRef::Full(sub), PrecisionClass::Fixed(q)) => {
            diffuse_quantized::<Qu32, _>(sub, init, config, QCtx::new(q), &mut qs.fx, out)
        }
        (BallRef::Compact(b), PrecisionClass::Exact64) => {
            crate::diffusion::diffuse_into(b, init, config, out)
        }
        (BallRef::Compact(b), PrecisionClass::Fast32) => {
            diffuse_quantized::<f32, _>(b, init, config, (), &mut qs.f32, out)
        }
        (BallRef::Compact(b), PrecisionClass::Fixed(q)) => {
            diffuse_quantized::<Qu32, _>(b, init, config, QCtx::new(q), &mut qs.fx, out)
        }
    }
}

/// A borrowed ball in either representation — what the staged engine
/// hands to [`diffuse_ball`].
#[derive(Clone, Copy)]
pub(crate) enum BallRef<'a> {
    Full(&'a Subgraph),
    Compact(&'a CompactBall),
}

impl BallRef<'_> {
    /// Nodes in the ball.
    pub(crate) fn num_nodes(&self) -> usize {
        match *self {
            BallRef::Full(sub) => GraphView::num_nodes(sub),
            BallRef::Compact(ball) => ball.global_ids().len(),
        }
    }

    /// Undirected edges in the ball.
    pub(crate) fn num_edges(&self) -> usize {
        match *self {
            BallRef::Full(sub) => sub.num_edges(),
            BallRef::Compact(ball) => ball.num_directed_edges() / 2,
        }
    }

    /// The seed's local id (always 0 for BFS balls).
    pub(crate) fn seed_local(&self) -> NodeId {
        match *self {
            BallRef::Full(sub) => sub.seed_local(),
            BallRef::Compact(ball) => ball.seed_local(),
        }
    }

    /// Maps a local id back to the parent graph's id.
    pub(crate) fn to_global(self, local: NodeId) -> NodeId {
        match self {
            BallRef::Full(sub) => sub.to_global(local),
            BallRef::Compact(ball) => ball.to_global(local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::{diffuse_from_seed, DiffusionConfig};
    use meloppr_graph::generators::corpus::PaperGraph;
    use meloppr_graph::{bfs_ball, generators, ExtractScratch};

    fn cfg(l: usize) -> DiffusionConfig {
        DiffusionConfig::new(0.85, l).unwrap()
    }

    #[test]
    fn precision_class_roundtrip_strings() {
        for class in [
            PrecisionClass::Exact64,
            PrecisionClass::Fast32,
            PrecisionClass::Fixed(16),
            PrecisionClass::Fixed(8),
        ] {
            let s = class.to_string();
            assert_eq!(s.parse::<PrecisionClass>().unwrap(), class, "{s}");
        }
        assert!("q0".parse::<PrecisionClass>().is_err());
        assert!("q31".parse::<PrecisionClass>().is_err());
        assert!("banana".parse::<PrecisionClass>().is_err());
        assert_eq!(
            "f64".parse::<PrecisionClass>().unwrap(),
            PrecisionClass::Exact64
        );
    }

    #[test]
    fn ladder_degrades_width_first_then_stops() {
        assert_eq!(
            PrecisionClass::Exact64.degraded(),
            Some(PrecisionClass::Fast32)
        );
        assert_eq!(
            PrecisionClass::Fast32.degraded(),
            Some(PrecisionClass::Fixed(DEFAULT_FIXED_Q))
        );
        assert_eq!(PrecisionClass::Fixed(16).degraded(), None);
    }

    #[test]
    fn fixed_coeff_matches_fpga_alpha_p_semantics() {
        // round(0.85 * 2^15) = 27853, the FPGA's alpha_p at q=15.
        assert_eq!(fixed_coeff(0.85, 15), 27853);
        assert_eq!(mul_shift(1 << 15, fixed_coeff(0.85, 15), 15), 27853);
    }

    /// `Exact64` is one kernel on both ball forms: the compact and full
    /// forms of every depth-1..3 ball of G2 diffuse to the same bits and
    /// the same work.
    #[test]
    fn exact_ball_diffusion_is_bit_identical_on_both_forms() {
        let g = PaperGraph::G2Cora.generate_scaled(0.2, 11).unwrap();
        let mut extract = ExtractScratch::new();
        let mut qs = QuantScratchSet::default();
        let mut full = DiffusionScratch::new();
        let mut compact = DiffusionScratch::new();
        for depth in 1..=3u32 {
            for seed in 0..g.num_nodes() as NodeId {
                let (sub, _) = extract.extract(&g, seed, depth).unwrap();
                let ball = CompactBall::from_subgraph(sub).unwrap();
                let (init, config) = ([(0, 1.0)], cfg(depth as usize));
                let exact = PrecisionClass::Exact64;
                let full_work =
                    diffuse_ball(BallRef::Full(sub), &init, config, exact, &mut qs, &mut full)
                        .unwrap();
                let compact_work = diffuse_ball(
                    BallRef::Compact(&ball),
                    &init,
                    config,
                    exact,
                    &mut qs,
                    &mut compact,
                )
                .unwrap();
                assert_eq!(compact_work, full_work, "seed {seed} depth {depth}");
                assert_eq!(compact.accumulated(), full.accumulated(), "seed {seed}");
                assert_eq!(compact.residual(), full.residual(), "seed {seed}");
            }
        }
    }

    #[test]
    fn f32_and_fixed_stay_close_to_exact() {
        let g = generators::karate_club();
        let ball = bfs_ball(&g, 0, 4).unwrap();
        let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
        let exact = diffuse_from_seed(&sub, 0, cfg(4)).unwrap();
        let mut out = DiffusionScratch::new();

        let mut q32 = QuantScratch::<f32>::default();
        diffuse_quantized::<f32, _>(&sub, &[(0, 1.0)], cfg(4), (), &mut q32, &mut out).unwrap();
        for i in 0..exact.accumulated.len() {
            assert!((out.accumulated()[i] - exact.accumulated[i]).abs() < 1e-5);
        }

        let mut qfx = QuantScratch::<Qu32>::default();
        diffuse_quantized::<Qu32, _>(&sub, &[(0, 1.0)], cfg(4), QCtx::new(16), &mut qfx, &mut out)
            .unwrap();
        let total: f64 = out.accumulated().iter().sum();
        assert!((total - 1.0).abs() < 0.01, "q16 mass drifted: {total}");
        for i in 0..exact.accumulated.len() {
            assert!(
                (out.accumulated()[i] - exact.accumulated[i]).abs() < 2e-3,
                "i={i}: {} vs {}",
                out.accumulated()[i],
                exact.accumulated[i]
            );
        }
    }

    #[test]
    fn compact_ball_is_numerically_interchangeable() {
        let g = generators::grid(12, 12).unwrap();
        let ball = bfs_ball(&g, 40, 3).unwrap();
        let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
        let compact = CompactBall::from_subgraph(&sub).unwrap();
        assert_eq!(QuantView::num_nodes(&compact), GraphView::num_nodes(&sub));
        assert_eq!(compact.global_ids(), sub.global_ids());

        let mut qs = QuantScratch::<f32>::default();
        let mut out_full = DiffusionScratch::new();
        let mut out_compact = DiffusionScratch::new();
        diffuse_quantized::<f32, _>(&sub, &[(0, 1.0)], cfg(3), (), &mut qs, &mut out_full).unwrap();
        diffuse_quantized::<f32, _>(&compact, &[(0, 1.0)], cfg(3), (), &mut qs, &mut out_compact)
            .unwrap();
        assert_eq!(out_full.accumulated(), out_compact.accumulated());
        assert_eq!(out_full.residual(), out_compact.residual());
    }

    #[test]
    fn compact_ball_is_bit_identical_to_extraction() {
        let g = generators::grid(12, 12).unwrap();
        fn neighbor_list(view: &impl QuantView, u: NodeId) -> Vec<NodeId> {
            let mut out = Vec::new();
            view.for_each_neighbor(u, |v| out.push(v));
            out
        }
        for (seed, depth) in [(40, 3), (0, 2), (143, 4)] {
            let ball = bfs_ball(&g, seed, depth).unwrap();
            let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
            let compact = CompactBall::from_subgraph(&sub).unwrap();
            assert_eq!(compact.global_ids(), sub.global_ids());
            assert_eq!(compact.seed_local(), sub.seed_local());
            let n = GraphView::num_nodes(&sub) as NodeId;
            assert_eq!(QuantView::num_nodes(&compact) as NodeId, n);
            for u in 0..n {
                assert_eq!(neighbor_list(&compact, u), GraphView::neighbors(&sub, u));
                assert_eq!(
                    QuantView::walk_degree(&compact, u),
                    GraphView::walk_degree(&sub, u)
                );
            }
            // The f64 kernel over the compact ball must be bit-identical
            // to the same kernel over the original.
            let a = diffuse_from_seed(&sub, 0, cfg(depth as usize)).unwrap();
            let b = diffuse_from_seed(&compact, 0, cfg(depth as usize)).unwrap();
            assert_eq!(a.accumulated, b.accumulated);
            assert_eq!(a.residual, b.residual);
        }
    }

    #[test]
    fn compact_ball_halves_resident_bytes() {
        let g = generators::grid(20, 20).unwrap();
        let ball = bfs_ball(&g, 210, 4).unwrap();
        let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
        let compact = CompactBall::from_subgraph(&sub).unwrap();
        let full = sub.memory_bytes().total();
        let small = compact.memory_bytes_total();
        assert!(
            full as f64 / small as f64 >= 1.5,
            "compact ball saves too little: {full} vs {small}"
        );
    }

    #[test]
    fn oversized_balls_do_not_compress() {
        // A synthetic subgraph over 70k nodes cannot use u16 local ids.
        // (Construct via a path graph ball that covers everything.)
        let g = generators::path(70_000).unwrap();
        let ball = bfs_ball(&g, 0, 70_000).unwrap();
        let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
        assert!(CompactBall::from_subgraph(&sub).is_none());
    }

    #[test]
    fn quantized_rejects_bad_inputs() {
        let g = generators::karate_club();
        let ball = bfs_ball(&g, 0, 2).unwrap();
        let sub = meloppr_graph::Subgraph::extract(&g, &ball).unwrap();
        let mut qs = QuantScratch::<f32>::default();
        let mut out = DiffusionScratch::new();
        assert!(
            diffuse_quantized::<f32, _>(&sub, &[(9999, 1.0)], cfg(2), (), &mut qs, &mut out)
                .is_err()
        );
    }
}
