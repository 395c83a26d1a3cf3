//! The multi-stage MeLoPPR engine (§IV, Eq. 8).
//!
//! A query proceeds as a work queue of *diffusion tasks*. Stage one runs
//! `GD(l1)` on the small ball `G_{l1}(s)`; its residual vector `Sʳ_{l1}`
//! nominates next-stage nodes, the most promising of which (per the
//! [`SelectionStrategy`]) spawn stage-two tasks `GD(l2)(e_v)` on their own
//! balls `G_{l2}(v)`, scaled by `α^{l1}·Sʳ_{l1}[v]` (linear decomposition,
//! Eq. 7). With more than two stages the recursion continues. Scores are
//! aggregated in a [`GlobalScoreTable`] — unbounded for the exact CPU
//! implementation, bounded to `c·k` entries when modelling the FPGA's
//! global table (§V-B).
//!
//! # Exactness
//!
//! With [`SelectionStrategy::All`] the engine computes Eq. 8 exactly, so
//! its output equals single-stage `GD(L)` (verified by tests and property
//! tests). With partial selection, the [`ResidualPolicy`] decides what
//! happens to unexpanded residual mass; the default
//! ([`ResidualPolicy::ScaledKeep`]) retains its expected self-retention
//! share, which empirically dominates both keeping and dropping it and
//! matches the paper's high precision at small selection ratios (Fig. 6).

use meloppr_graph::{GraphView, NodeId, Subgraph};

use crate::cache::{CacheConsumer, CachedBall, ConcurrentSubgraphCache};
use crate::diffusion::{DiffusionConfig, DiffusionScratch};
use crate::error::Result;
use crate::global_table::GlobalScoreTable;
use crate::memory::{cpu_task_memory_width, meloppr_cpu_peak, meloppr_fpga_peak, CpuTaskMemory};
use crate::params::{MelopprParams, ResidualPolicy};
use crate::quantized::{diffuse_ball, BallRef, PrecisionClass, QuantScratchSet};
use crate::score_vec::Ranking;
use crate::selection::SelectionStrategy;
use crate::workspace::QueryWorkspace;

/// Default global-table factor used for FPGA memory estimates when the
/// query itself runs with exact (unbounded) aggregation.
const DEFAULT_TABLE_FACTOR: usize = 10;

/// One sub-graph diffusion executed during a query — the replayable trace
/// consumed by latency models and the FPGA host simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionRecord {
    /// Stage index (0-based).
    pub stage: usize,
    /// The node the diffusion started from (parent-graph id).
    pub node: NodeId,
    /// The weight `w` multiplying this diffusion's output (1.0 for stage
    /// one; `α^{l1}·Sʳ[v]`-products afterwards).
    pub weight: f64,
    /// Ball nodes.
    pub ball_nodes: usize,
    /// Ball edges (undirected).
    pub ball_edges: usize,
    /// Adjacency entries scanned by this task's BFS.
    pub bfs_edges_scanned: usize,
    /// Adjacency entries processed by this task's diffusion.
    pub diffusion_edge_updates: usize,
}

/// Aggregated per-stage counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageStats {
    /// Number of diffusions run in this stage.
    pub diffusions: usize,
    /// Tasks of this stage served by a stored stage result from the
    /// shared cache instead of a diffusion. `diffusions + reused` is the
    /// stage's task count; every other counter here except `candidates`
    /// and `expanded` counts only the diffusions that ran.
    pub reused: usize,
    /// Total next-stage candidates (non-zero residual entries) produced.
    pub candidates: usize,
    /// Candidates actually expanded into the next stage.
    pub expanded: usize,
    /// BFS work in this stage.
    pub bfs_edges_scanned: usize,
    /// Diffusion work in this stage.
    pub diffusion_edge_updates: usize,
    /// Largest ball (nodes) diffused in this stage.
    pub max_ball_nodes: usize,
    /// Largest ball (edges) diffused in this stage.
    pub max_ball_edges: usize,
}

/// Work, memory and trace accounting of one MeLoPPR query.
#[derive(Debug, Clone, PartialEq)]
pub struct MelopprStats {
    /// Per-stage aggregates (index = stage).
    pub stages: Vec<StageStats>,
    /// Total diffusions across stages.
    pub total_diffusions: usize,
    /// Total BFS work.
    pub bfs_edges_scanned: usize,
    /// Total diffusion work.
    pub diffusion_edge_updates: usize,
    /// Memory of the largest single task (the paper's peak working set).
    pub peak_task_memory: CpuTaskMemory,
    /// Modelled peak CPU bytes: the largest *instantaneous* working set
    /// observed over the query (current task + aggregation table + task
    /// queue at that moment), under the `memory` module's byte model.
    /// This is the number a `max_memory_bytes` budget bounds.
    pub peak_cpu_bytes: usize,
    /// Modelled peak FPGA BRAM bytes (largest ball's tables + global
    /// table).
    pub peak_fpga_bytes: usize,
    /// Entries resident in the aggregation table at the end.
    pub aggregate_entries: usize,
    /// Evictions/rejections in the bounded table (0 when unbounded).
    pub table_evictions: usize,
    /// Whether a `max_memory_bytes` budget forced deterministic
    /// degradation (stage-ball depth shrunk so the working set fits).
    /// `false` means the budget (if any) was met without touching the
    /// schedule — the result is bit-identical to an unbudgeted run.
    pub memory_limited: bool,
    /// The [`PrecisionClass`] this query's diffusions executed at — the
    /// ladder rung after any deadline- or memory-driven degradation
    /// (which the server reports to clients and telemetry).
    pub precision_class: PrecisionClass,
    /// The full diffusion trace, in execution order.
    pub trace: Vec<DiffusionRecord>,
}

/// Result of one MeLoPPR query.
#[derive(Debug, Clone, PartialEq)]
pub struct MelopprOutcome {
    /// The approximated top-`k` ranking `T̂(s, k)` in parent-graph ids.
    pub ranking: Ranking,
    /// Accounting and trace.
    pub stats: MelopprStats,
}

/// The multi-stage MeLoPPR query engine over a borrowed graph.
///
/// # Examples
///
/// ```
/// use meloppr_core::{MelopprEngine, MelopprParams, PprParams, SelectionStrategy};
/// use meloppr_graph::generators;
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let params = MelopprParams::two_stage(
///     PprParams::new(0.85, 4, 5)?,
///     2,
///     2,
///     SelectionStrategy::All,
/// )?;
/// let engine = MelopprEngine::new(&g, params)?;
/// let outcome = engine.query(0)?;
/// assert_eq!(outcome.ranking.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MelopprEngine<'g, G: GraphView + ?Sized> {
    graph: &'g G,
    params: MelopprParams,
}

/// A pending diffusion task of the staged loop's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskSpec {
    node: NodeId,
    weight: f64,
    stage: usize,
}

/// The key of a stored stage result: everything a stage task's
/// unweighted output depends on besides the graph. Two tasks with equal
/// keys diffuse the same ball from the same unit seed for the same
/// length, adjust and select identically, and so produce the same
/// output up to their weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ResultKey {
    pub(crate) node: NodeId,
    /// Diffusion length (= ball depth: result tasks never segment).
    len: u32,
    /// Whether the stage is the last (no selection, no children).
    last: bool,
    /// Precision rung: tag and fixed-point `q`.
    rung: (u8, u8),
    /// `α` as bits.
    alpha: u64,
    /// Selection strategy: tag and parameter bits.
    selection: (u8, u64),
    /// Residual policy tag.
    policy: u8,
}

impl ResultKey {
    /// The query-wide part of every task's key: rung, `α`, selection
    /// and residual policy (node, length and last-stage flag are set per
    /// task by [`ResultKey::for_task`]).
    fn for_query(params: &MelopprParams, class: PrecisionClass) -> Self {
        let rung = match class {
            PrecisionClass::Exact64 => (0, 0),
            PrecisionClass::Fast32 => (1, 0),
            PrecisionClass::Fixed(q) => (2, q),
        };
        let selection = match params.selection {
            SelectionStrategy::All => (0, 0),
            SelectionStrategy::TopFraction(f) => (1, f.to_bits()),
            SelectionStrategy::TopCount(n) => (2, n as u64),
            SelectionStrategy::RelativeThreshold(t) => (3, t.to_bits()),
        };
        let policy = match params.residual_policy {
            ResidualPolicy::KeepUnexpanded => 0,
            ResidualPolicy::DropUnexpanded => 1,
            ResidualPolicy::ScaledKeep => 2,
        };
        ResultKey {
            node: 0,
            len: 0,
            last: false,
            rung,
            alpha: params.ppr.alpha.to_bits(),
            selection,
            policy,
        }
    }

    /// This query's key for one stage task.
    fn for_task(self, params: &MelopprParams, task: &TaskSpec) -> Self {
        ResultKey {
            node: task.node,
            len: params.stages[task.stage] as u32,
            last: task.stage + 1 == params.stages.len(),
            ..self
        }
    }

    /// Every field but the node folded into 32 bits, for the cache's
    /// shard and sketch hashes.
    pub(crate) fn variant_hash(&self) -> u32 {
        let mut h = (self.len as u64) << 1 | self.last as u64;
        for word in [
            (self.rung.0 as u64) << 8 | self.rung.1 as u64,
            self.alpha,
            self.selection.0 as u64,
            self.selection.1,
            self.policy as u64,
        ] {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        (h >> 32) as u32
    }
}

/// A stage task's output before its weight is applied — the resident
/// form a stored stage result takes in the shared cache.
///
/// `values` holds the Eq. 8-adjusted scores `s` of the contributions
/// (in ball-local order, `s > 0` only), then the raw residuals `r` of
/// the selected children (in selection order); `nodes` holds their
/// global ids. A task of weight `w` reuses it as contributions
/// `w * s` and children of weight `w * α^l * r`: the same expressions,
/// in the same association, as a task that diffuses, so the bits match.
#[derive(Debug)]
pub(crate) struct StageResult {
    nodes: Box<[NodeId]>,
    values: Box<[f64]>,
    /// Where the children start in `nodes` / `values`.
    children_start: usize,
    /// Non-zero residual candidates seen before selection.
    candidates: usize,
}

impl StageResult {
    /// Captures a task's output right after it ran: the adjusted
    /// `accumulated` vector and the `selected` `(local, r)` children it
    /// left in the workspace, mapped to global ids through `ball`.
    fn capture(
        ball: BallRef<'_>,
        accumulated: &[f64],
        selected: &[(NodeId, f64)],
        candidates: usize,
    ) -> Self {
        let contributions = || {
            accumulated
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s > 0.0)
                .map(|(local, &s)| (local as NodeId, s))
        };
        // Sized exactly up front: one allocation per array, no growth.
        let children_start = contributions().count();
        let len = children_start + selected.len();
        let mut nodes = Vec::with_capacity(len);
        let mut values = Vec::with_capacity(len);
        for (local, value) in contributions().chain(selected.iter().copied()) {
            nodes.push(ball.to_global(local));
            values.push(value);
        }
        StageResult {
            nodes: nodes.into_boxed_slice(),
            values: values.into_boxed_slice(),
            children_start,
            candidates,
        }
    }

    /// Heap bytes of the two arrays — what the cache charges.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<NodeId>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// `(global node, unweighted score)` contributions.
    fn contributions(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let n = self.children_start;
        self.nodes[..n]
            .iter()
            .copied()
            .zip(self.values[..n].iter().copied())
    }

    /// `(global node, raw residual)` children, in selection order.
    fn children(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let n = self.children_start;
        self.nodes[n..]
            .iter()
            .copied()
            .zip(self.values[n..].iter().copied())
    }
}

/// The zero-allocation core of one diffusion task: diffusion into
/// `diffusion` scratch, the Eq. 8 contribution adjustment in place on the
/// accumulated vector, and selection in place on `candidates`.
///
/// On success `contributions` holds the weighted global-id contributions
/// and `children` the spawned next-stage tasks, both overwritten (not
/// appended). Returns the trace record and the pre-selection candidate
/// count.
///
/// `len` is the diffusion length to run — `params.stages[task.stage]`
/// for a whole stage task, or the *remaining* length when a
/// budget-segmented continuation piece finishes the stage (the child
/// weights and Eq. 8 adjustment then use `α^len`, which is exactly the
/// uneven-stage-split identity).
#[allow(clippy::too_many_arguments)] // the workspace split keeps borrows disjoint
fn execute_task_on_with(
    ball: BallRef<'_>,
    bfs_edges_scanned: usize,
    params: &MelopprParams,
    task: &TaskSpec,
    len: usize,
    class: PrecisionClass,
    diffusion: &mut DiffusionScratch,
    quant: &mut QuantScratchSet,
    candidates: &mut Vec<(NodeId, f64)>,
    contributions: &mut Vec<(NodeId, f64)>,
    children: &mut Vec<TaskSpec>,
) -> Result<(DiffusionRecord, usize)> {
    let num_stages = params.stages.len();
    let l = len;
    let config = DiffusionConfig::new(params.ppr.alpha, l)?;
    let work = diffuse_ball(
        ball,
        &[(ball.seed_local(), 1.0)],
        config,
        class,
        quant,
        diffusion,
    )?;

    let last_stage = task.stage + 1 == num_stages;
    let alpha_l = params.ppr.alpha.powi(l as i32);

    // Adjusted contribution of this task (Eq. 8): the accumulated scores,
    // minus α^l·residual for every node whose continuation is handled
    // elsewhere (expanded next-stage nodes always; unexpanded ones too
    // under DropUnexpanded). The adjustment happens in place on the
    // scratch's accumulated vector — it is not needed afterwards.
    candidates.clear();
    let mut candidates_count = 0usize;
    if !last_stage {
        let (contribution, residual) = diffusion.accumulated_mut_residual();
        candidates.extend(
            residual
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r > 0.0)
                .map(|(local, &r)| (local as NodeId, r)),
        );
        candidates_count = candidates.len();
        params.selection.select_in_place(candidates);
        let expanded: &[(NodeId, f64)] = candidates;

        match params.residual_policy {
            ResidualPolicy::KeepUnexpanded => {
                for &(local, r) in expanded {
                    contribution[local as usize] =
                        (contribution[local as usize] - alpha_l * r).max(0.0);
                }
            }
            ResidualPolicy::DropUnexpanded => {
                for (local, c) in contribution.iter_mut().enumerate() {
                    let r = residual[local];
                    if r > 0.0 {
                        *c = (*c - alpha_l * r).max(0.0);
                    }
                }
            }
            ResidualPolicy::ScaledKeep => {
                // Unexpanded nodes keep (1 - α)·α^l·r (the expected
                // self-retention of the skipped diffusion); expanded nodes
                // lose their residual entirely as usual.
                for (local, c) in contribution.iter_mut().enumerate() {
                    let r = residual[local];
                    if r > 0.0 {
                        *c = (*c - params.ppr.alpha * alpha_l * r).max(0.0);
                    }
                }
                for &(local, r) in expanded {
                    contribution[local as usize] = (contribution[local as usize]
                        - (1.0 - params.ppr.alpha) * alpha_l * r)
                        .max(0.0);
                }
            }
        }
    }

    contributions.clear();
    contributions.extend(
        diffusion
            .accumulated()
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0.0)
            .map(|(local, &s)| (ball.to_global(local as NodeId), task.weight * s)),
    );

    children.clear();
    children.extend(candidates.iter().map(|&(local, r)| TaskSpec {
        node: ball.to_global(local),
        weight: task.weight * alpha_l * r,
        stage: task.stage + 1,
    }));

    Ok((
        DiffusionRecord {
            stage: task.stage,
            node: task.node,
            weight: task.weight,
            ball_nodes: ball.num_nodes(),
            ball_edges: ball.num_edges(),
            bfs_edges_scanned,
            diffusion_edge_updates: work.edge_updates,
        },
        candidates_count,
    ))
}

/// One piece of a budget-segmented stage ball: a pending continuation
/// carrying the node it resumes from, the accumulated path weight, and
/// how much of the stage's diffusion length it still owes.
///
/// When a hub ball's working set exceeds the memory budget, the staged
/// loop no longer truncates the ball and runs the full stage length on
/// it (a localized approximation). Instead it runs an *exact* length-`d`
/// diffusion on the depth-`d` ball that does fit and hands the remaining
/// `remaining - d` steps off to one continuation piece per
/// positive-residual node — frontier-contiguous segments diffused
/// sequentially through the same workspace and merged in the aggregation
/// table ([`execute_segment_piece`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegmentPiece {
    pub(crate) node: NodeId,
    pub(crate) weight: f64,
    pub(crate) remaining: u32,
}

/// The budget-segmentation core: runs an **exact** length-`depth`
/// diffusion on a depth-`depth` ball (a length-`d` walk cannot escape a
/// depth-`d` ball, so no residual mass is lost to truncation), then
/// subtracts `α^d·r` from every positive-residual node's contribution
/// and pushes a continuation piece owing the remaining
/// `piece.remaining - depth` steps with weight `piece.weight·α^d·r`.
///
/// This is the linear-decomposition identity (Eq. 7) applied *within* a
/// stage: chaining the pieces reproduces the full-length `GD(remaining)`
/// of the unsegmented ball up to floating-point associativity — the same
/// guarantee `uneven_stage_splits_remain_exact` establishes across stage
/// boundaries. Because **every** positive-residual node hands off (no
/// selection mid-stage), the three [`ResidualPolicy`] variants coincide
/// here; the configured selection and residual policy apply only when a
/// piece finishes the stage (via [`execute_task_on_with`]).
#[allow(clippy::too_many_arguments)] // same workspace split as execute_task_on_with
fn execute_segment_piece(
    ball: BallRef<'_>,
    bfs_edges_scanned: usize,
    params: &MelopprParams,
    piece: &SegmentPiece,
    stage: usize,
    depth: u32,
    class: PrecisionClass,
    diffusion: &mut DiffusionScratch,
    quant: &mut QuantScratchSet,
    contributions: &mut Vec<(NodeId, f64)>,
    segments: &mut Vec<SegmentPiece>,
) -> Result<DiffusionRecord> {
    debug_assert!(depth >= 1 && depth < piece.remaining);
    let config = DiffusionConfig::new(params.ppr.alpha, depth as usize)?;
    let work = diffuse_ball(
        ball,
        &[(ball.seed_local(), 1.0)],
        config,
        class,
        quant,
        diffusion,
    )?;
    let alpha_d = params.ppr.alpha.powi(depth as i32);
    let remaining = piece.remaining - depth;
    let (contribution, residual) = diffusion.accumulated_mut_residual();
    for (local, &r) in residual.iter().enumerate() {
        if r > 0.0 {
            contribution[local] = (contribution[local] - alpha_d * r).max(0.0);
            segments.push(SegmentPiece {
                node: ball.to_global(local as NodeId),
                weight: piece.weight * alpha_d * r,
                remaining,
            });
        }
    }
    contributions.clear();
    contributions.extend(
        diffusion
            .accumulated()
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0.0)
            .map(|(local, &s)| (ball.to_global(local as NodeId), piece.weight * s)),
    );
    Ok(DiffusionRecord {
        stage,
        node: piece.node,
        weight: piece.weight,
        ball_nodes: ball.num_nodes(),
        ball_edges: ball.num_edges(),
        bfs_edges_scanned,
        diffusion_edge_updates: work.edge_updates,
    })
}

/// Mutable accounting of one staged query.
///
/// The aggregation table is borrowed (typically from a
/// [`QueryWorkspace`]) so its hash-map storage survives across queries;
/// [`QueryAccumulator::new`] resets it.
#[derive(Debug)]
struct QueryAccumulator<'t> {
    table: &'t mut GlobalScoreTable,
    stages: Vec<StageStats>,
    trace: Vec<DiffusionRecord>,
    /// Set when a `max_memory_bytes` budget forced ball-depth shrinking.
    memory_limited: bool,
    peak_task: CpuTaskMemory,
    peak_ball: (usize, usize),
    /// Largest instantaneous working set observed (task + table + queue
    /// under the byte model) — becomes `MelopprStats::peak_cpu_bytes`.
    peak_working_set: usize,
    table_factor: usize,
    bounded_capacity: Option<usize>,
    k: usize,
    /// The precision class this query executes at (reported in stats).
    class: PrecisionClass,
}

impl<'t> QueryAccumulator<'t> {
    fn new(params: &MelopprParams, table: &'t mut GlobalScoreTable, class: PrecisionClass) -> Self {
        let k = params.ppr.k;
        table.reset(params.table_factor.map(|c| c * k));
        QueryAccumulator {
            table,
            stages: vec![StageStats::default(); params.stages.len()],
            trace: Vec::new(),
            memory_limited: false,
            peak_task: CpuTaskMemory::default(),
            peak_ball: (0, 0),
            peak_working_set: 0,
            table_factor: params.table_factor.unwrap_or(DEFAULT_TABLE_FACTOR),
            bounded_capacity: params.table_factor.map(|c| c * k),
            k,
            class,
        }
    }

    /// Records the instantaneous working set right after a task's merge:
    /// the task's modelled bytes plus the aggregation table and pending
    /// queue as they stand *now*. The running maximum is the honest
    /// peak — unlike combining the largest-ever task with the final
    /// table size, which mixes maxima from different instants.
    fn observe_working_set(&mut self, rec: &DiffusionRecord, queue_len: usize) {
        let task = cpu_task_memory_width(
            rec.ball_nodes,
            rec.ball_edges,
            self.class.score_width_bytes(),
        );
        let snapshot = meloppr_cpu_peak(task, self.table.len(), queue_len);
        self.peak_working_set = self.peak_working_set.max(snapshot);
    }

    /// Conservative upper bound on the working set a candidate ball
    /// would produce if its task ran now: the ball's task bytes plus the
    /// table and queue each grown by the most entries this task could
    /// add (table: every ball node; queue: the selection's worst-case
    /// spawn count). Used by the budget gate *before* execution; the
    /// post-merge [`QueryAccumulator::observe_working_set`] snapshot is
    /// always ≤ this bound, so enforcing the bound enforces the reported
    /// peak.
    fn working_set_bound(
        &self,
        ball_nodes: usize,
        ball_edges: usize,
        queue_len: usize,
        selection: &crate::selection::SelectionStrategy,
    ) -> usize {
        let task = cpu_task_memory_width(ball_nodes, ball_edges, self.class.score_width_bytes());
        let spawn_bound = selection.upper_bound(ball_nodes);
        let table_bound = match self.bounded_capacity {
            Some(cap) => (self.table.len() + ball_nodes).min(cap),
            None => self.table.len() + ball_nodes,
        };
        meloppr_cpu_peak(task, table_bound, queue_len + spawn_bound)
    }

    /// Merges one diffusing task's output from the workspace buffers:
    /// its weighted contributions go into the table in one
    /// [`GlobalScoreTable::add_all`] call, and its work is counted.
    /// Called in task order, so results are bit-for-bit deterministic.
    fn merge_parts(
        &mut self,
        contributions: &[(NodeId, f64)],
        children: usize,
        rec: DiffusionRecord,
        candidates: usize,
    ) {
        self.table.add_all(contributions.iter().copied());
        let st = &mut self.stages[rec.stage];
        st.diffusions += 1;
        st.candidates += candidates;
        st.expanded += children;
        st.bfs_edges_scanned += rec.bfs_edges_scanned;
        st.diffusion_edge_updates += rec.diffusion_edge_updates;
        st.max_ball_nodes = st.max_ball_nodes.max(rec.ball_nodes);
        st.max_ball_edges = st.max_ball_edges.max(rec.ball_edges);

        let task_mem = cpu_task_memory_width(
            rec.ball_nodes,
            rec.ball_edges,
            self.class.score_width_bytes(),
        );
        if task_mem.total() > self.peak_task.total() {
            self.peak_task = task_mem;
            self.peak_ball = (rec.ball_nodes, rec.ball_edges);
        }
        self.trace.push(rec);
    }

    /// Merges a task served by a stored stage result at `weight`: its
    /// contributions `weight * s` go into the table in one
    /// [`GlobalScoreTable::add_all`] call, in stored order, exactly as
    /// the diffusing task's merge adds them, and the reuse, its
    /// candidates and its children are counted. No diffusion, ball work
    /// or trace record: none ran.
    fn merge_reused(&mut self, stage: usize, result: &StageResult, weight: f64) {
        self.table
            .add_all(result.contributions().map(|(node, s)| (node, weight * s)));
        let st = &mut self.stages[stage];
        st.reused += 1;
        st.candidates += result.candidates;
        st.expanded += result.nodes.len() - result.children_start;
    }

    /// Records the working set right after a reused task's merge: the
    /// table and the pending queue, with no ball or score vectors held.
    fn observe_reused(&mut self, queue_len: usize) {
        let snapshot = meloppr_cpu_peak(CpuTaskMemory::default(), self.table.len(), queue_len);
        self.peak_working_set = self.peak_working_set.max(snapshot);
    }

    fn finish(self, ranking_scratch: &mut Vec<(NodeId, f64)>) -> MelopprOutcome {
        let ranking = self.table.ranking_with(self.k, ranking_scratch);
        let aggregate_entries = self.table.len();
        let stats = MelopprStats {
            total_diffusions: self.trace.len(),
            bfs_edges_scanned: self.stages.iter().map(|s| s.bfs_edges_scanned).sum(),
            diffusion_edge_updates: self.stages.iter().map(|s| s.diffusion_edge_updates).sum(),
            peak_task_memory: self.peak_task,
            peak_cpu_bytes: self.peak_working_set,
            peak_fpga_bytes: meloppr_fpga_peak(
                self.peak_ball.0,
                self.peak_ball.1,
                self.table_factor,
                self.k,
            ),
            aggregate_entries,
            table_evictions: self.table.evictions(),
            memory_limited: self.memory_limited,
            precision_class: self.class,
            stages: self.stages,
            trace: self.trace,
        };
        MelopprOutcome { ranking, stats }
    }
}

impl<'g, G: GraphView + ?Sized> MelopprEngine<'g, G> {
    /// Creates an engine, validating the parameters eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`PprError::InvalidParams`](crate::PprError::InvalidParams)
    /// if `params` fail validation.
    pub fn new(graph: &'g G, params: MelopprParams) -> Result<Self> {
        params.validate()?;
        Ok(MelopprEngine { graph, params })
    }

    /// The engine's parameters.
    pub fn params(&self) -> &MelopprParams {
        &self.params
    }

    /// Runs one query from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`PprError::Graph`](crate::PprError::Graph) if `seed` is out
    /// of bounds.
    pub fn query(&self, seed: NodeId) -> Result<MelopprOutcome> {
        self.query_with(seed, &mut QueryWorkspace::new())
    }

    /// As [`MelopprEngine::query`], borrowing every per-stage buffer —
    /// BFS scratch, sub-graph storage, dense score vectors, the task queue
    /// and the aggregation table — from `ws` instead of allocating.
    ///
    /// One workspace serves the whole query across all of its stages and
    /// is left warm for the next query; results are bit-identical to
    /// [`MelopprEngine::query`].
    ///
    /// # Errors
    ///
    /// As [`MelopprEngine::query`].
    pub fn query_with(&self, seed: NodeId, ws: &mut QueryWorkspace) -> Result<MelopprOutcome> {
        staged_query_impl(
            self.graph,
            &self.params,
            seed,
            PrecisionClass::Exact64,
            None,
            None,
            ws,
        )
    }
}

/// A planned memory budget for one staged query: the enforced byte
/// limit plus the profile-predicted starting ball depth per stage (so
/// the loop does not have to materialize over-budget balls just to
/// measure them — it starts from the plan and only shrinks further when
/// a concrete ball still exceeds the bound).
pub(crate) struct MemoryBudget {
    pub(crate) limit: usize,
    /// Starting ball depth per stage, each ≤ the stage length.
    pub(crate) ball_depths: Vec<u32>,
}

/// Where the staged loop gets its sub-graph balls from — the one
/// extraction seam of the two execution modes (one loop, one budget
/// gate, two ball sources). `None` extracts every ball fresh into the
/// workspace scratch, borrowing it without allocating; `Some` serves
/// balls from (and populates) a cache shared across workers, attributing
/// every lookup to the consumer.
pub(crate) type BallSource<'c> = Option<(&'c ConcurrentSubgraphCache, &'c CacheConsumer)>;

/// A ball handed to one task: borrowed from the extraction scratch
/// (fresh mode) or shared zero-copy out of a cache — in either
/// representation (compact for a cache hit or a cold-tier read, full
/// for the BFS miss that just extracted it).
enum Ball<'a> {
    Borrowed(&'a Subgraph),
    Cached(CachedBall),
}

impl Ball<'_> {
    fn as_ref(&self) -> BallRef<'_> {
        match self {
            Ball::Borrowed(sub) => BallRef::Full(sub),
            Ball::Cached(CachedBall::Full(sub)) => BallRef::Full(sub),
            Ball::Cached(CachedBall::Compact(ball)) => BallRef::Compact(ball),
        }
    }

    fn num_nodes(&self) -> usize {
        self.as_ref().num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.as_ref().num_edges()
    }
}

/// The staged query loop over workspace-owned storage: the engine behind
/// [`MelopprEngine::query_with`] and both execution modes of
/// [`backend::Meloppr`](crate::backend::Meloppr) (the ball source is the
/// only difference between fresh and cached serving).
///
/// # Memory-budget enforcement
///
/// With `budget_bytes` set, the modelled working set of every task —
/// [`cpu_task_memory`] on the extracted ball plus the aggregation table,
/// the pending queue and pending segment pieces under the same byte
/// model — is bounded *before* the task runs: a ball whose conservative
/// working-set bound exceeds the budget is re-extracted at a smaller
/// depth (deterministically, one level at a time) until it fits. The
/// shrunken ball is then **segmented**, not truncated: the task runs an
/// exact length-`d` diffusion on the depth-`d` ball and hands the
/// stage's remaining steps off to continuation pieces
/// ([`execute_segment_piece`]), so the budgeted query still serves the
/// full-depth ranking (up to floating-point associativity) instead of a
/// localized approximation, and `memory_limited` stays `false`. Only
/// when even a depth-1 ball exceeds the budget does the loop fall back
/// to the pre-segmentation floor — the remaining length diffused on the
/// depth-0 ball, reported honestly with
/// [`MelopprStats::memory_limited`] set. A query whose budget is never
/// hit is bit-identical to an unbudgeted run, and
/// `MelopprStats::peak_cpu_bytes` never exceeds the budget except at
/// that floor.
///
/// # Stage-result reuse
///
/// With a cache and no budget, each task first looks up its stored
/// [`StageResult`] (keyed by [`ResultKey`]). A hit merges the stored
/// output at the task's weight and queues its children — the same
/// products a diffusing task computes, so the ranking is bit-identical —
/// and counts as the task's one cache lookup, a
/// [`StageStats::reused`] task and no diffusion. A miss runs the task as
/// above and then stores its result.
///
/// `params` must already be validated.
pub(crate) fn staged_query_impl<G: GraphView + ?Sized>(
    graph: &G,
    params: &MelopprParams,
    seed: NodeId,
    class: PrecisionClass,
    source: BallSource<'_>,
    budget: Option<&MemoryBudget>,
    ws: &mut QueryWorkspace,
) -> Result<MelopprOutcome> {
    let QueryWorkspace {
        extract,
        diffusion,
        quant,
        candidates,
        contributions,
        children,
        queue,
        table,
        sparse,
        cold_buf,
        segments,
        ..
    } = ws;
    let mut acc = QueryAccumulator::new(params, table, class);
    queue.clear();
    queue.push_back(TaskSpec {
        node: seed,
        weight: 1.0,
        stage: 0,
    });
    let budgeted = budget.is_some();
    // Stage results are stored and reused on the cached path without a
    // byte budget, where every task is one whole, unsegmented stage.
    let reuse = match source {
        Some((cache, consumer)) if !budgeted => {
            Some((cache, consumer, ResultKey::for_query(params, class)))
        }
        _ => None,
    };
    while let Some(task) = queue.pop_front() {
        let stage_depth = params.stages[task.stage] as u32;
        // A task whose result is stored merges it, reweighted, and
        // spawns its children without a ball or a diffusion.
        let reuse_task =
            reuse.map(|(cache, consumer, key)| (cache, consumer, key.for_task(params, &task)));
        if let Some((cache, consumer, key)) = reuse_task {
            if let Some(result) = cache.get_result(key, consumer) {
                acc.merge_reused(task.stage, &result, task.weight);
                let alpha_l = params.ppr.alpha.powi(stage_depth as i32);
                queue.extend(result.children().map(|(node, r)| TaskSpec {
                    node,
                    weight: task.weight * alpha_l * r,
                    stage: task.stage + 1,
                }));
                acc.observe_reused(queue.len());
                continue;
            }
        }
        let plan_depth = match budget {
            Some(plan) => plan
                .ball_depths
                .get(task.stage)
                .copied()
                .unwrap_or(stage_depth)
                .min(stage_depth),
            None => stage_depth,
        };
        // The stage task enters as one segment piece owing the whole
        // stage length; pieces that fit whole run as ordinary tasks, so
        // without a budget this loop body executes exactly once with the
        // pre-segmentation semantics.
        segments.clear();
        segments.push(SegmentPiece {
            node: task.node,
            weight: task.weight,
            remaining: stage_depth,
        });
        while let Some(piece) = segments.pop() {
            let mut depth = plan_depth.min(piece.remaining);
            // Set once the depth-0 floor is hit: the remaining length
            // then runs on the depth-0 ball (the pre-segmentation floor
            // semantics) instead of handing off a zero-progress piece.
            let mut floored = false;
            loop {
                // Under a budget, cached lookups are non-admitting
                // *probes*: a depth the gate discards must not make its
                // (over-budget) ball resident — probe balls would be the
                // biggest entries in the cache and would displace hot
                // residents. The depth that actually executes is
                // admitted explicitly below. Resident keys still hit for
                // free either way.
                let (sub, bfs_work): (Ball<'_>, usize) = match source {
                    None => {
                        let (sub, work) = extract.extract(graph, piece.node, depth)?;
                        (Ball::Borrowed(sub), work)
                    }
                    Some((cache, consumer)) => {
                        let (ball, work) = if budgeted {
                            cache.probe_ball_with_as(
                                graph, piece.node, depth, extract, cold_buf, consumer,
                            )?
                        } else {
                            cache.get_ball_with_as(
                                graph, piece.node, depth, extract, cold_buf, consumer,
                            )?
                        };
                        (Ball::Cached(ball), work)
                    }
                };
                if let Some(plan) = budget {
                    // A piece that will segment hands off every
                    // positive-residual node, so bound its spawn by the
                    // whole ball, not the configured selection.
                    let spawn_selection = if depth >= piece.remaining {
                        &params.selection
                    } else {
                        &crate::selection::SelectionStrategy::All
                    };
                    let bound = acc.working_set_bound(
                        sub.num_nodes(),
                        sub.num_edges(),
                        queue.len() + segments.len(),
                        spawn_selection,
                    );
                    if bound > plan.limit {
                        if depth > 0 {
                            // Deterministic degradation: shrink the ball
                            // one BFS level and re-extract; the stage's
                            // remaining length is preserved by
                            // segmentation, not lost.
                            depth -= 1;
                            continue;
                        }
                        // Even a depth-0 ball exceeds an unsatisfiable
                        // budget: run the floor anyway.
                        floored = true;
                    }
                }
                if budgeted {
                    if let (Some((cache, consumer)), Ball::Cached(ball)) = (source, &sub) {
                        cache.admit(piece.node, depth, ball, consumer);
                    }
                }
                // Chaos seam: a fault here models the diffusion stage
                // dying mid-query (after extraction, before
                // aggregation).
                crate::failpoint::check("ball.diffuse")?;
                let segmented = depth > 0 && depth < piece.remaining && !floored;
                let (record, candidates_count) = if segmented {
                    let record = execute_segment_piece(
                        sub.as_ref(),
                        bfs_work,
                        params,
                        &piece,
                        task.stage,
                        depth,
                        class,
                        diffusion,
                        quant,
                        contributions,
                        segments,
                    )?;
                    children.clear();
                    (record, 0)
                } else {
                    if depth < piece.remaining {
                        // The ball is shallower than the length it must
                        // diffuse (the floor, or a plan that starts at
                        // depth 0): a localized approximation — the only
                        // degradation segmentation cannot absorb.
                        acc.memory_limited = true;
                    }
                    let task_piece = TaskSpec {
                        node: piece.node,
                        weight: piece.weight,
                        stage: task.stage,
                    };
                    let ran = execute_task_on_with(
                        sub.as_ref(),
                        bfs_work,
                        params,
                        &task_piece,
                        piece.remaining as usize,
                        class,
                        diffusion,
                        quant,
                        candidates,
                        contributions,
                        children,
                    )?;
                    if let Some((cache, consumer, key)) = reuse_task {
                        let result = StageResult::capture(
                            sub.as_ref(),
                            diffusion.accumulated(),
                            candidates,
                            ran.1,
                        );
                        cache.admit_result(key, result, sub.num_nodes(), consumer);
                    }
                    ran
                };
                acc.merge_parts(contributions, children.len(), record, candidates_count);
                queue.extend(children.iter().copied());
                acc.observe_working_set(&record, queue.len() + segments.len());
                break;
            }
        }
    }
    Ok(acc.finish(sparse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::exact_top_k;
    use crate::params::PprParams;
    use crate::precision::precision_at_k;
    use crate::selection::SelectionStrategy;
    use meloppr_graph::generators;

    fn engine_params(
        length: usize,
        stages: Vec<usize>,
        selection: SelectionStrategy,
    ) -> MelopprParams {
        MelopprParams {
            ppr: PprParams::new(0.85, length, 10).unwrap(),
            stages,
            selection,
            residual_policy: ResidualPolicy::KeepUnexpanded,
            table_factor: None,
        }
    }

    use crate::test_util::assert_ranking_equiv;

    #[test]
    fn full_selection_equals_exact_topk_karate() {
        let g = generators::karate_club();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::All);
        let engine = MelopprEngine::new(&g, params).unwrap();
        for seed in [0u32, 11, 33] {
            let outcome = engine.query(seed).unwrap();
            let exact = exact_top_k(&g, seed, &engine.params().ppr).unwrap();
            assert_ranking_equiv(&outcome.ranking, &exact, 1e-9);
        }
    }

    #[test]
    fn full_selection_scores_match_exact_values() {
        // Stronger than ranking equality: the aggregated scores themselves
        // must reproduce GD(L) (Eq. 8 is an identity).
        let g = generators::grid(7, 7).unwrap();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::All);
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(24).unwrap();
        let exact = crate::ground_truth::exact_ppr(&g, 24, &engine.params().ppr).unwrap();
        for &(v, s) in &outcome.ranking {
            assert!(
                (s - exact.accumulated[v as usize]).abs() < 1e-9,
                "node {v}: {s} vs {}",
                exact.accumulated[v as usize]
            );
        }
    }

    #[test]
    fn three_stages_remain_exact_under_full_selection() {
        let g = generators::karate_club();
        let params = engine_params(6, vec![2, 2, 2], SelectionStrategy::All);
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(0).unwrap();
        let exact = exact_top_k(&g, 0, &engine.params().ppr).unwrap();
        assert_ranking_equiv(&outcome.ranking, &exact, 1e-9);
    }

    #[test]
    fn uneven_stage_splits_remain_exact() {
        let g = generators::grid(6, 6).unwrap();
        for stages in [vec![1, 3], vec![3, 1], vec![1, 1, 2]] {
            let params = engine_params(4, stages.clone(), SelectionStrategy::All);
            let engine = MelopprEngine::new(&g, params).unwrap();
            let outcome = engine.query(14).unwrap();
            let exact = exact_top_k(&g, 14, &engine.params().ppr).unwrap();
            assert_ranking_equiv(&outcome.ranking, &exact, 1e-9);
        }
    }

    #[test]
    fn partial_selection_degrades_gracefully() {
        let g = generators::corpus::PaperGraph::G1Citeseer
            .generate_scaled(0.2, 7)
            .unwrap();
        let exact_params = PprParams::new(0.85, 6, 20).unwrap();
        let exact = exact_top_k(&g, 10, &exact_params).unwrap();

        let mut last_precision = -1.0;
        for fraction in [0.01, 0.1, 1.0] {
            let params = MelopprParams {
                ppr: exact_params,
                stages: vec![3, 3],
                selection: SelectionStrategy::TopFraction(fraction),
                residual_policy: ResidualPolicy::KeepUnexpanded,
                table_factor: None,
            };
            let engine = MelopprEngine::new(&g, params).unwrap();
            let outcome = engine.query(10).unwrap();
            let prec = precision_at_k(&outcome.ranking, &exact, 20);
            assert!(
                prec >= last_precision - 0.15,
                "precision collapsed at fraction {fraction}: {prec} < {last_precision}"
            );
            last_precision = prec;
        }
        // Full selection is exact up to floating-point ties at the k-th
        // boundary.
        assert!(
            last_precision >= 0.95,
            "full selection precision {last_precision}"
        );
    }

    #[test]
    fn zero_selection_is_stage_one_only() {
        let g = generators::karate_club();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::TopFraction(0.0));
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(0).unwrap();
        assert_eq!(outcome.stats.total_diffusions, 1);
        assert_eq!(outcome.stats.stages[1].diffusions, 0);
        // Still a valid probability vector over the stage-one ball.
        assert!(!outcome.ranking.is_empty());
    }

    #[test]
    fn stats_trace_is_consistent() {
        let g = generators::karate_club();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::TopCount(3));
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(0).unwrap();
        let s = &outcome.stats;
        assert_eq!(s.total_diffusions, s.trace.len());
        assert_eq!(s.total_diffusions, 1 + 3);
        assert_eq!(s.stages[0].diffusions, 1);
        assert_eq!(s.stages[1].diffusions, 3);
        assert_eq!(s.stages[0].expanded, 3);
        let trace_bfs: usize = s.trace.iter().map(|t| t.bfs_edges_scanned).sum();
        assert_eq!(trace_bfs, s.bfs_edges_scanned);
        assert!(s.peak_cpu_bytes > 0);
        assert!(s.peak_fpga_bytes > 0);
        assert!(s.aggregate_entries > 0);
    }

    #[test]
    fn stage_one_weight_is_unity_and_children_scaled() {
        let g = generators::karate_club();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::TopCount(2));
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(0).unwrap();
        let trace = &outcome.stats.trace;
        assert_eq!(trace[0].weight, 1.0);
        for rec in &trace[1..] {
            assert!(rec.weight > 0.0 && rec.weight < 1.0);
            assert_eq!(rec.stage, 1);
        }
    }

    #[test]
    fn bounded_table_tracks_evictions() {
        let g = generators::corpus::PaperGraph::G2Cora
            .generate_scaled(0.25, 3)
            .unwrap();
        let mut params = engine_params(6, vec![3, 3], SelectionStrategy::TopFraction(0.3));
        params.table_factor = Some(1); // tiny table: k entries
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(5).unwrap();
        assert!(outcome.stats.table_evictions > 0);
        assert!(outcome.stats.aggregate_entries <= 10);
    }

    #[test]
    fn peak_memory_smaller_than_baseline_on_sparse_graph() {
        // MeLoPPR's whole point: the stage balls are much smaller than the
        // depth-L ball.
        let g = generators::corpus::PaperGraph::G3Pubmed
            .generate_scaled(0.1, 11)
            .unwrap();
        let ppr = PprParams::new(0.85, 6, 20).unwrap();
        let baseline = crate::local_ppr::local_ppr_impl(&g, 50, &ppr).unwrap();
        let params = MelopprParams {
            ppr,
            stages: vec![3, 3],
            selection: SelectionStrategy::TopFraction(0.02),
            residual_policy: ResidualPolicy::KeepUnexpanded,
            table_factor: Some(10),
        };
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(50).unwrap();
        assert!(
            outcome.stats.peak_task_memory.total() < baseline.stats.memory.total(),
            "{} vs {}",
            outcome.stats.peak_task_memory.total(),
            baseline.stats.memory.total()
        );
    }

    #[test]
    fn residual_drop_policy_loses_mass_but_runs() {
        let g = generators::karate_club();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::TopCount(1))
            .with_residual_policy(ResidualPolicy::DropUnexpanded);
        let engine = MelopprEngine::new(&g, params).unwrap();
        let outcome = engine.query(0).unwrap();
        assert!(!outcome.ranking.is_empty());
    }

    #[test]
    fn invalid_params_rejected_at_construction() {
        let g = generators::path(4).unwrap();
        let params = engine_params(4, vec![1, 2], SelectionStrategy::All);
        assert!(MelopprEngine::new(&g, params).is_err());
    }

    #[test]
    fn out_of_bounds_seed_rejected() {
        let g = generators::path(4).unwrap();
        let params = engine_params(4, vec![2, 2], SelectionStrategy::All);
        let engine = MelopprEngine::new(&g, params).unwrap();
        assert!(engine.query(77).is_err());
    }
}
