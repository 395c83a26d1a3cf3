//! `meloppr-cli` — run PPR queries from the command line.
//!
//! ```text
//! meloppr-cli info   <graph>
//! meloppr-cli index  <graph> --out F [--index-depth D]
//! meloppr-cli query  <graph> (--seed-node N | --batch-file F) [--k K] [--length L]
//!                    [--stages a,b,..] [--ratio R] [--alpha A]
//!                    [--backend auto|exact|local|mc|meloppr|fpga] [--fpga]
//!                    [--walks W] [--threads T]
//!                    [--cache-shared] [--cache-capacity N] [--cache-bytes SIZE]
//!                    [--cache-admission always|max-nodes:N|freq:N|tinylfu]
//!                    [--cache-window N] [--ball-index F]
//!                    [--max-latency-ms X] [--max-memory-kb X]
//!                    [--budget-memory SIZE] [--min-precision P]
//!                    [--precision exact|f32|qN] [--calibration-file F]
//! meloppr-cli exact  <graph> --seed-node N [--k K] [--length L] [--alpha A]
//! ```
//!
//! `<graph>` is either a SNAP-style edge-list file path, or
//! `corpus:<G1..G6>[:scale]` for the paper stand-ins
//! (e.g. `corpus:G3:0.1`). All randomness is seeded; runs are
//! reproducible.
//!
//! Queries go through the unified `PprBackend` API. `--backend auto`
//! (the default) registers every solver in a `Router` and lets the
//! budget flags decide; naming a backend pins it.
//!
//! `--batch-file F` reads whitespace-separated seed nodes (with `#`
//! comments) from `F` and serves the whole batch, printing aggregate
//! batch statistics. With a pinned backend the batch runs through the
//! `BatchExecutor` — `--threads` sets the worker count, one reusable
//! query workspace per worker. With `--backend auto` each request is
//! routed individually and sequentially. `--threads` has no other use.
//!
//! `--cache-shared` attaches a concurrent sub-graph cache to the staged
//! `meloppr` backend: all batch workers share one cache, hot balls are
//! extracted once, and the batch report includes the backend's
//! consumer-attributed hit/extraction counters (exactly this batch's
//! lookups, even if other consumers share the cache). The cache budget
//! is byte-denominated with `--cache-bytes 64MiB`-style suffixed sizes
//! (`KiB`/`MiB`/`GiB`, or decimal `KB`/`MB`/`GB`), entry-denominated
//! with `--cache-capacity N` (entries: balls and stored stage results
//! alike), or both at once; without either, the default is 1024
//! entries. `--cache-admission` sets the admission policy
//! (`always` | `max-nodes:N` | `freq:N` | `tinylfu`) so giant one-off
//! balls don't evict hot residents, and `--cache-window` sets the
//! sliding window (lookups) of the hit rate that routing estimates
//! discount BFS by.
//!
//! `meloppr-cli index` builds the **persisted ball index** offline: one
//! BFS ball per node at `--index-depth` (default 3, the default stage
//! depth), encoded in the compact cached-ball wire layout behind a
//! versioned, CRC-checksummed footer. `--ball-index F` then attaches
//! the file as the shared cache's cold tier: a RAM miss is served with
//! one positioned read and a compact decode instead of a live BFS
//! (falling back to BFS when the index lacks the node or depth). A
//! missing index file boots cold silently; a corrupt, truncated or
//! version-mismatched one, or one built over a graph with a different
//! node count, warns and boots cold, exactly like calibration state.
//!
//! `--budget-memory 256KiB` attaches an **enforced** per-query working
//! set budget (`QueryBudget::max_memory_bytes`): the staged backend
//! runs over-budget balls as frontier-contiguous segments at full
//! effective depth (shrinking depth only at the unsatisfiable floor),
//! and the report counts queries that had to degrade. `--max-memory-kb`
//! is the legacy spelling of the same bound.
//!
//! `--precision exact|f32|q16` requests a score-arithmetic rung of the
//! staged backend's precision ladder: `exact` (f64, the default), `f32`
//! (4-byte floats), or `qN` (Q-format fixed point with `N` fractional
//! bits, the accelerator's integer domain on the host). Narrower rungs
//! shrink the modelled working set — under `--budget-memory` the staged
//! planner degrades the rung *before* it shrinks ball depth — and the
//! report shows the class each query actually executed at.
//!
//! `--calibration-file F` (with `--backend auto`) makes the router's
//! learned state persistent: latency-calibration EWMAs and cache
//! hit-rate windows are loaded from `F` before serving and saved back
//! after, so a fresh process routes with the previous run's calibration
//! instead of re-learning from the analytic models. A missing file is a
//! silent first boot; a corrupt or version-mismatched file is ignored
//! with a warning.

#![forbid(unsafe_code)]
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use meloppr::backend::{persist, ExactPower, LocalPpr, Meloppr, MonteCarlo};
use meloppr::core::precision::precision_at_k;
use meloppr::graph::degree::degree_stats;
use meloppr::graph::edge_list::{read_edge_list_file, EdgeListOptions};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::graph::{components, CsrGraph};
use meloppr::{
    build_index, exact_top_k, format_bytes, parse_byte_size, AcceleratorConfig, BatchExecutor,
    BatchStats, FpgaHybrid, HybridConfig, MelopprParams, NodeId, PprBackend, PprParams,
    QueryRequest, Router, SelectionStrategy,
};
use meloppr::{AdmissionPolicy, BallIndex, CacheBudget, ConcurrentSubgraphCache, PrecisionClass};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  meloppr-cli info  <graph>
  meloppr-cli index <graph> --out F [--index-depth D]
  meloppr-cli query <graph> (--seed-node N | --batch-file F) [--k K] [--length L] \\
                    [--stages a,b,..] [--ratio R] [--alpha A] \\
                    [--backend auto|exact|local|mc|meloppr|fpga] [--fpga] \\
                    [--walks W] [--threads T] \\
                    [--cache-shared] [--cache-capacity N] [--cache-bytes SIZE] \\
                    [--cache-admission always|max-nodes:N|freq:N|tinylfu] \\
                    [--cache-window N] [--ball-index F] \\
                    [--max-latency-ms X] [--max-memory-kb X] \\
                    [--budget-memory SIZE] [--min-precision P] \\
                    [--precision exact|f32|qN] [--calibration-file F]
  meloppr-cli exact <graph> --seed-node N [--k K] [--length L] [--alpha A]

  <graph> = an edge-list file path, or corpus:<G1..G6>[:scale]
  --batch-file F = whitespace-separated seed nodes ('#' comments);
                   pinned backends batch with --threads workers (the
                   flag's only use), --backend auto routes each request
                   individually
  --cache-shared = share one concurrent sub-graph cache across all
                   workers of the staged meloppr backend
  --cache-capacity N / --cache-bytes SIZE = the shared cache's budget in
                   entries (balls and stored stage results) and/or
                   bytes (SIZE takes KiB/MiB/GiB or KB/MB/GB suffixes,
                   e.g. 64MiB); default 1024 entries
  --cache-admission = ball admission policy: always (default),
                   max-nodes:N (never admit balls over N nodes),
                   freq:N (admit over-budget balls on second sighting),
                   or tinylfu (admit only when the candidate's sketch
                   frequency beats the would-be eviction victim's)
  --cache-window = sliding window (lookups) for the hit rate that
                   routing estimates discount BFS by (default 256)
  --ball-index F = attach a persisted ball index (built with the index
                   command) as the shared cache's cold tier: RAM misses
                   are served by one positioned read instead of a BFS;
                   requires --cache-shared. Corrupt or mismatched files
                   warn and boot cold
  --out F / --index-depth D = (index command) write the ball index for
                   every node at depth D (default 3) to F
  --budget-memory SIZE = enforced per-query working-set budget (the
                   staged backend degrades deterministically to fit);
                   --max-memory-kb X is the same bound in KiB
  --precision = score-arithmetic rung for the staged backend: exact
                   (f64, default), f32, or qN (Q-format fixed point,
                   N fractional bits, e.g. q16); narrower rungs shrink
                   the working set before ball depth does
  --calibration-file F = persist the auto router's learned state (latency
                   EWMAs, cache hit-rate windows): loaded before serving,
                   saved after; corrupt files are ignored with a warning";

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err("missing command".into());
    }
    let command = args.remove(0);
    if args.is_empty() {
        return Err("missing graph specification".into());
    }
    let graph_spec = args.remove(0);
    let graph = load_graph(&graph_spec)?;

    match command.as_str() {
        "info" => info(&graph_spec, &graph),
        "index" => index(&graph_spec, &graph, &args),
        "query" => query(&graph, &args, false),
        "exact" => query(&graph, &args, true),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load_graph(spec: &str) -> Result<CsrGraph, String> {
    if let Some(rest) = spec.strip_prefix("corpus:") {
        let mut parts = rest.split(':');
        let id = parts.next().unwrap_or_default();
        let paper = PaperGraph::ALL
            .into_iter()
            .find(|p| p.id().eq_ignore_ascii_case(id))
            .ok_or_else(|| format!("unknown corpus graph {id:?} (use G1..G6)"))?;
        let scale: f64 = match parts.next() {
            Some(s) => s.parse().map_err(|e| format!("bad scale {s:?}: {e}"))?,
            None => 1.0,
        };
        let g = if (scale - 1.0).abs() < f64::EPSILON {
            paper.generate(42)
        } else {
            paper.generate_scaled(scale, 42)
        }
        .map_err(|e| e.to_string())?;
        Ok(g)
    } else {
        let parsed = read_edge_list_file(spec, EdgeListOptions::default())
            .map_err(|e| format!("reading {spec:?}: {e}"))?;
        // Files are a trust boundary: re-check the CSR invariants so a
        // malformed graph is rejected with the typed reason up front
        // instead of corrupting query results (or panicking) later.
        parsed
            .graph
            .validate()
            .map_err(|e| format!("rejecting {spec:?}: {}", meloppr::core::PprError::from(e)))?;
        Ok(parsed.graph)
    }
}

fn info(spec: &str, g: &CsrGraph) -> Result<(), String> {
    let stats = degree_stats(g);
    let (_, components) = components::connected_components(g);
    let (largest, _) = components::largest_component(g);
    println!("graph: {spec}");
    println!("  nodes:              {}", g.num_nodes());
    println!("  edges:              {}", g.num_edges());
    println!(
        "  degree min/med/max: {}/{}/{}",
        stats.min, stats.median, stats.max
    );
    println!("  mean degree:        {:.2}", stats.mean);
    println!("  isolated nodes:     {}", stats.isolated);
    println!("  components:         {components} (largest: {largest})");
    Ok(())
}

/// The `index` command: build the persisted ball index offline and
/// report what went to disk.
fn index(spec: &str, g: &CsrGraph, args: &[String]) -> Result<(), String> {
    let mut out_path: Option<String> = None;
    let mut depth: u32 = 3;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = Some(value("--out")?.clone()),
            "--index-depth" => {
                depth = value("--index-depth")?
                    .parse()
                    .map_err(|e| format!("--index-depth: {e}"))?;
                if depth == 0 {
                    return Err("--index-depth must be >= 1".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let out_path = out_path.ok_or("--out is required")?;

    let started = std::time::Instant::now();
    let report = build_index(g, depth, Path::new(&out_path))
        .map_err(|e| format!("writing {out_path:?}: {e}"))?;
    println!("ball index for {spec} at depth {depth} -> {out_path}");
    println!(
        "  nodes indexed:      {} ({} skipped)",
        report.nodes_indexed, report.nodes_skipped
    );
    println!("  ball bytes (RAM):   {}", format_bytes(report.ball_bytes));
    println!(
        "  file bytes:         {}",
        format_bytes(report.file_bytes as usize)
    );
    println!(
        "  build time:         {:.2} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    Auto,
    Exact,
    Local,
    MonteCarlo,
    Meloppr,
    Fpga,
}

struct QueryArgs {
    seed: NodeId,
    batch_file: Option<String>,
    k: usize,
    length: usize,
    alpha: f64,
    stages: Vec<usize>,
    ratio: f64,
    backend: BackendChoice,
    walks: usize,
    threads: usize,
    cache_shared: bool,
    cache_capacity: Option<usize>,
    cache_bytes: Option<usize>,
    cache_admission: AdmissionPolicy,
    cache_window: usize,
    ball_index: Option<String>,
    max_latency_ms: Option<f64>,
    max_memory_bytes: Option<usize>,
    min_precision: Option<f64>,
    precision: Option<PrecisionClass>,
    calibration_file: Option<String>,
}

impl QueryArgs {
    /// The shared cache's budget: entries and/or bytes as given, 1024
    /// balls when neither flag is set.
    fn cache_budget(&self) -> CacheBudget {
        match (self.cache_capacity, self.cache_bytes) {
            (None, None) => CacheBudget::entries(1024),
            (Some(entries), None) => CacheBudget::entries(entries),
            (None, Some(bytes)) => CacheBudget::bytes(bytes),
            (Some(entries), Some(bytes)) => CacheBudget::entries(entries).with_bytes(bytes),
        }
    }

    fn cache_budget_label(&self) -> String {
        let budget = self.cache_budget();
        match (budget.entries, budget.bytes) {
            (Some(entries), Some(bytes)) => {
                format!("{entries} entries / {}", format_bytes(bytes))
            }
            (None, Some(bytes)) => format_bytes(bytes),
            (Some(entries), None) => format!("{entries} entries"),
            (None, None) => "unbounded".into(),
        }
    }
}

fn parse_query_args(args: &[String]) -> Result<QueryArgs, String> {
    let mut out = QueryArgs {
        seed: u32::MAX,
        batch_file: None,
        k: 10,
        length: 6,
        alpha: 0.85,
        stages: vec![3, 3],
        ratio: 0.05,
        backend: BackendChoice::Auto,
        walks: 10_000,
        threads: 1,
        cache_shared: false,
        cache_capacity: None,
        cache_bytes: None,
        cache_admission: AdmissionPolicy::Always,
        cache_window: 256,
        ball_index: None,
        max_latency_ms: None,
        max_memory_bytes: None,
        min_precision: None,
        precision: None,
        calibration_file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed-node" => {
                out.seed = value("--seed-node")?
                    .parse()
                    .map_err(|e| format!("--seed-node: {e}"))?
            }
            "--batch-file" => out.batch_file = Some(value("--batch-file")?.clone()),
            "--k" => out.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--length" => {
                out.length = value("--length")?
                    .parse()
                    .map_err(|e| format!("--length: {e}"))?
            }
            "--alpha" => {
                out.alpha = value("--alpha")?
                    .parse()
                    .map_err(|e| format!("--alpha: {e}"))?
            }
            "--stages" => {
                out.stages = value("--stages")?
                    .split(',')
                    .map(|s| s.parse::<usize>().map_err(|e| format!("--stages: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--ratio" => {
                out.ratio = value("--ratio")?
                    .parse()
                    .map_err(|e| format!("--ratio: {e}"))?
            }
            "--backend" => {
                out.backend = match value("--backend")?.as_str() {
                    "auto" => BackendChoice::Auto,
                    "exact" => BackendChoice::Exact,
                    "local" => BackendChoice::Local,
                    "mc" | "monte-carlo" => BackendChoice::MonteCarlo,
                    "meloppr" => BackendChoice::Meloppr,
                    "fpga" => BackendChoice::Fpga,
                    other => {
                        return Err(format!(
                            "unknown backend {other:?} (auto|exact|local|mc|meloppr|fpga)"
                        ))
                    }
                }
            }
            "--fpga" => out.backend = BackendChoice::Fpga,
            "--walks" => {
                out.walks = value("--walks")?
                    .parse()
                    .map_err(|e| format!("--walks: {e}"))?
            }
            "--threads" => {
                out.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--cache-shared" => out.cache_shared = true,
            "--cache-capacity" => {
                let capacity: usize = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?;
                if capacity == 0 {
                    return Err("--cache-capacity must be >= 1".into());
                }
                out.cache_capacity = Some(capacity);
            }
            "--cache-bytes" => {
                out.cache_bytes = Some(
                    parse_byte_size(value("--cache-bytes")?)
                        .map_err(|e| format!("--cache-bytes: {e}"))?,
                )
            }
            "--cache-admission" => {
                out.cache_admission = value("--cache-admission")?
                    .parse()
                    .map_err(|e| format!("--cache-admission: {e}"))?
            }
            "--cache-window" => {
                out.cache_window = value("--cache-window")?
                    .parse()
                    .map_err(|e| format!("--cache-window: {e}"))?;
                if out.cache_window == 0 {
                    return Err("--cache-window must be >= 1".into());
                }
            }
            "--ball-index" => out.ball_index = Some(value("--ball-index")?.clone()),
            "--max-latency-ms" => {
                out.max_latency_ms = Some(
                    value("--max-latency-ms")?
                        .parse()
                        .map_err(|e| format!("--max-latency-ms: {e}"))?,
                )
            }
            "--max-memory-kb" => {
                let kb: usize = value("--max-memory-kb")?
                    .parse()
                    .map_err(|e| format!("--max-memory-kb: {e}"))?;
                out.max_memory_bytes = Some(kb << 10);
            }
            "--budget-memory" => {
                out.max_memory_bytes = Some(
                    parse_byte_size(value("--budget-memory")?)
                        .map_err(|e| format!("--budget-memory: {e}"))?,
                )
            }
            "--min-precision" => {
                out.min_precision = Some(
                    value("--min-precision")?
                        .parse()
                        .map_err(|e| format!("--min-precision: {e}"))?,
                )
            }
            "--precision" => {
                let class: PrecisionClass = value("--precision")?
                    .parse()
                    .map_err(|e| format!("--precision: {e}"))?;
                class.validate().map_err(|e| format!("--precision: {e}"))?;
                out.precision = Some(class);
            }
            "--calibration-file" => {
                out.calibration_file = Some(value("--calibration-file")?.clone())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.seed == u32::MAX && out.batch_file.is_none() {
        return Err("--seed-node or --batch-file is required".into());
    }
    if out.calibration_file.is_some() && out.backend != BackendChoice::Auto {
        return Err(
            "--calibration-file persists the router's learned state: it requires \
             --backend auto"
                .into(),
        );
    }
    if out.cache_shared && !matches!(out.backend, BackendChoice::Meloppr | BackendChoice::Auto) {
        return Err(
            "--cache-shared applies to the staged solver: use --backend meloppr \
             (reports per-batch cache stats) or --backend auto (attaches to the \
             router's meloppr backend)"
                .into(),
        );
    }
    if out.ball_index.is_some() && !out.cache_shared {
        return Err(
            "--ball-index is the shared cache's cold tier: it requires --cache-shared".into(),
        );
    }
    Ok(out)
}

/// Parses a batch file: whitespace-separated node ids, `#` to end of
/// line is a comment.
fn read_batch_seeds(path: &str) -> Result<Vec<NodeId>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or_default();
        for token in line.split_whitespace() {
            seeds.push(
                token
                    .parse::<NodeId>()
                    .map_err(|e| format!("{path}: bad seed {token:?}: {e}"))?,
            );
        }
    }
    if seeds.is_empty() {
        return Err(format!("{path}: no seeds found"));
    }
    Ok(seeds)
}

fn query(g: &CsrGraph, args: &[String], exact_only: bool) -> Result<(), String> {
    let qa = parse_query_args(args)?;
    let ppr = PprParams::new(qa.alpha, qa.length, qa.k).map_err(|e| e.to_string())?;

    if exact_only {
        if qa.batch_file.is_some() || qa.seed == u32::MAX {
            return Err("the exact command takes --seed-node, not --batch-file".into());
        }
        let ranking = exact_top_k(g, qa.seed, &ppr).map_err(|e| e.to_string())?;
        println!(
            "exact top-{} from node {} (L = {}):",
            qa.k, qa.seed, qa.length
        );
        for (rank, (node, score)) in ranking.iter().enumerate() {
            println!("  {:>3}. node {node:>8}  score {score:.6}", rank + 1);
        }
        return Ok(());
    }

    let staged = MelopprParams {
        ppr,
        stages: qa.stages.clone(),
        selection: SelectionStrategy::TopFraction(qa.ratio),
        ..MelopprParams::paper_defaults()
    };
    staged.validate().map_err(|e| e.to_string())?;
    let hybrid_config = HybridConfig {
        accel: AcceleratorConfig {
            parallelism: 16,
            ..AcceleratorConfig::default()
        },
        ..HybridConfig::default()
    };

    // One request. Latency/precision budgets steer --backend auto
    // routing; the memory budget is additionally *enforced* by the
    // staged backend at run time.
    let mut req = QueryRequest::new(qa.seed);
    if let Some(ms) = qa.max_latency_ms {
        req = req.with_max_latency_ms(ms);
    }
    if let Some(bytes) = qa.max_memory_bytes {
        req = req.with_max_memory_bytes(bytes);
    }
    if let Some(p) = qa.min_precision {
        req = req.with_min_precision(p);
    }
    if let Some(class) = qa.precision {
        req = req.with_precision(class);
    }

    let err = |e: meloppr::core::PprError| e.to_string();

    // Batch mode: read seeds, serve the whole batch through the batch
    // executor (pinned backend) or the router (auto), print aggregates.
    if let Some(path) = &qa.batch_file {
        let seeds = read_batch_seeds(path)?;
        let reqs: Vec<QueryRequest> = seeds
            .iter()
            .map(|&s| QueryRequest { seed: s, ..req })
            .collect();
        let workers = qa.threads.max(1);

        let (outcomes, stats, served_by) = if qa.backend == BackendChoice::Auto {
            let router = build_router(g, ppr, staged, hybrid_config, &qa)?;
            load_calibration(&router, &qa)?;
            let started = std::time::Instant::now();
            let outcomes = router.query_batch(&reqs).map_err(err)?;
            let stats = BatchStats::aggregate(&outcomes, started.elapsed());
            save_calibration(&router, &qa)?;
            (outcomes, stats, "router (per-request)".to_string())
        } else {
            let (backend, label) = build_pinned(g, ppr, staged, hybrid_config, &qa)?;
            let batch = BatchExecutor::new(workers)
                .map_err(err)?
                .run(backend.as_ref(), &reqs)
                .map_err(err)?;
            (
                batch.outcomes,
                batch.stats,
                format!("{label}, {workers} batch workers"),
            )
        };

        println!(
            "batch of {} queries from {path} via {served_by}:",
            outcomes.len()
        );
        for (seed, outcome) in seeds.iter().zip(&outcomes).take(5) {
            let (top, score) = outcome.ranking.first().copied().unwrap_or((0, 0.0));
            println!("  seed {seed:>8} -> top node {top:>8}  score {score:.6}");
        }
        if outcomes.len() > 5 {
            println!("  ... ({} more)", outcomes.len() - 5);
        }
        println!(
            "wall clock: {:.2} ms   throughput: {:.0} queries/s   mean latency: {:.3} ms",
            stats.wall_clock.as_secs_f64() * 1e3,
            stats.throughput_qps(),
            stats.mean_latency_ms()
        );
        print!(
            "diffusions: {}   bfs edges: {}   peak memory: {} ({} peak task)",
            stats.total_diffusions,
            stats.bfs_edges_scanned,
            format_bytes(stats.peak_memory_bytes),
            format_bytes(stats.peak_task_memory_bytes),
        );
        if stats.random_walk_steps > 0 {
            print!("   walk steps: {}", stats.random_walk_steps);
        }
        println!();
        if qa.max_memory_bytes.is_some() {
            println!(
                "memory budget {}: {} of {} queries degraded to fit (memory_limited)",
                format_bytes(qa.max_memory_bytes.unwrap_or(0)),
                stats.memory_limited_queries,
                stats.queries
            );
        }
        if let Some(cache) = &stats.cache {
            let resident = stats
                .cache_resident_bytes
                .map(format_bytes)
                .unwrap_or_else(|| "?".into());
            println!(
                "shared cache (this batch's own lookups): {} lookups, {} hits ({} reuse \
                 hits) + {} shared, {} extractions, {} admissions rejected ({:.0}% served \
                 without BFS); resident {resident} of budget {}",
                cache.lookups(),
                cache.hits,
                cache.reuse_hits,
                cache.shared,
                cache.extractions,
                cache.rejected_admissions,
                cache.hit_rate() * 100.0,
                qa.cache_budget_label(),
            );
            if qa.ball_index.is_some() {
                println!(
                    "cold tier: {} cold hits ({} read), {} fallbacks to BFS",
                    cache.cold_hits,
                    format_bytes(cache.cold_bytes_read as usize),
                    cache.cold_fallbacks,
                );
            }
        } else if qa.cache_shared {
            println!(
                "shared cache: attached to the router's meloppr backend \
                 (per-batch cache stats are reported only with --backend meloppr)"
            );
        }
        let mix: Vec<String> = stats
            .by_backend
            .iter()
            .map(|(kind, count)| format!("{kind}: {count}"))
            .collect();
        println!("backend mix: {}", mix.join(", "));
        return Ok(());
    }

    let (outcome, served_by) = if qa.backend == BackendChoice::Auto {
        let router = build_router(g, ppr, staged, hybrid_config, &qa)?;
        load_calibration(&router, &qa)?;
        let route = router.select(&req).map_err(err)?;
        let outcome = router.query(&req).map_err(err)?;
        save_calibration(&router, &qa)?;
        (
            outcome,
            format!(
                "{} (routed{})",
                route.kind,
                if route.fits_budget {
                    ""
                } else {
                    ", best effort"
                }
            ),
        )
    } else {
        let (backend, label) = build_pinned(g, ppr, staged, hybrid_config, &qa)?;
        (backend.query(&req).map_err(err)?, label)
    };

    println!("top-{} from node {} via {served_by}:", qa.k, qa.seed);
    for (rank, (node, score)) in outcome.ranking.iter().enumerate() {
        println!("  {:>3}. node {node:>8}  score {score:.6}", rank + 1);
    }
    let exact = exact_top_k(g, qa.seed, &ppr).map_err(err)?;
    let stats = &outcome.stats;
    print!(
        "precision vs exact: {:.1}%   diffusions: {}   peak memory: {} bytes",
        precision_at_k(&outcome.ranking, &exact, qa.k) * 100.0,
        stats.total_diffusions,
        stats.peak_memory_bytes
    );
    if stats.memory_limited {
        print!("   [memory-limited: degraded to fit the budget]");
    }
    if qa.precision.is_some() || stats.precision_class != PrecisionClass::Exact64 {
        print!("   precision class: {}", stats.precision_class);
    }
    if stats.random_walk_steps > 0 {
        print!("   walk steps: {}", stats.random_walk_steps);
    }
    if let Some(ns) = stats.latency_estimate_ns {
        print!("   simulated latency: {:.3} ms", ns / 1e6);
    }
    println!();
    Ok(())
}

/// Loads persisted router state from `--calibration-file`, if given. A
/// missing file is a silent first boot; corrupt files warn and proceed.
fn load_calibration(router: &Router<'_>, qa: &QueryArgs) -> Result<(), String> {
    let Some(path) = &qa.calibration_file else {
        return Ok(());
    };
    match persist::load_state(router, Path::new(path)) {
        Ok(true) => {
            println!("calibration: restored from {path}");
            Ok(())
        }
        Ok(false) => Ok(()),
        Err(e) => Err(format!("reading calibration file {path:?}: {e}")),
    }
}

/// Saves the router's learned state back to `--calibration-file`, if
/// given.
fn save_calibration(router: &Router<'_>, qa: &QueryArgs) -> Result<(), String> {
    let Some(path) = &qa.calibration_file else {
        return Ok(());
    };
    persist::save_state(router, Path::new(path))
        .map_err(|e| format!("writing calibration file {path:?}: {e}"))
}

/// Builds the shared cache per the cache flags, attaching the
/// `--ball-index` cold tier when one is given. A missing index file
/// boots cold silently; a corrupt or version-mismatched one, or one
/// built over a graph of another size, warns (via
/// `BallIndex::load_for`) and boots cold.
fn build_shared_cache(
    g: &CsrGraph,
    qa: &QueryArgs,
) -> Result<Arc<ConcurrentSubgraphCache>, String> {
    let mut cache =
        ConcurrentSubgraphCache::with_budget(qa.cache_budget()).with_admission(qa.cache_admission);
    if let Some(path) = &qa.ball_index {
        match BallIndex::load_for(Path::new(path), g.num_nodes()) {
            Ok(Some(index)) => {
                println!(
                    "ball index: cold tier attached from {path} (depth {}, {} nodes)",
                    index.depth(),
                    index.num_nodes()
                );
                cache = cache.with_cold_tier(Arc::new(index));
            }
            // `load_for` already warned on stderr for corrupt or
            // mismatched files; a missing file is a silent cold boot.
            Ok(None) => {}
            Err(e) => return Err(format!("reading ball index {path:?}: {e}")),
        }
    }
    Ok(Arc::new(cache))
}

/// Builds the pinned (non-auto) backend named by `--backend` as a
/// `Sync` trait object ready for sequential or batched serving.
fn build_pinned<'g>(
    g: &'g CsrGraph,
    ppr: PprParams,
    staged: MelopprParams,
    hybrid_config: HybridConfig,
    qa: &QueryArgs,
) -> Result<(Box<dyn PprBackend + Sync + 'g>, String), String> {
    let err = |e: meloppr::core::PprError| e.to_string();
    Ok(match qa.backend {
        BackendChoice::Exact => (
            Box::new(ExactPower::new(g, ppr).map_err(err)?) as Box<dyn PprBackend + Sync>,
            "exact-power".to_string(),
        ),
        BackendChoice::Local => (
            Box::new(LocalPpr::new(g, ppr).map_err(err)?),
            "local-ppr".to_string(),
        ),
        BackendChoice::MonteCarlo => (
            Box::new(MonteCarlo::new(g, ppr, qa.walks, 42).map_err(err)?),
            format!("monte-carlo ({} walks)", qa.walks),
        ),
        BackendChoice::Meloppr => {
            let backend = Meloppr::new(g, staged)
                .map_err(err)?
                .with_cache_window(qa.cache_window);
            if qa.cache_shared {
                let cache = build_shared_cache(g, qa)?;
                (
                    Box::new(backend.with_shared_cache(cache)) as Box<dyn PprBackend + Sync>,
                    format!(
                        "meloppr (stages {:?}, ratio {}, shared cache budget {}, \
                         admission {})",
                        qa.stages,
                        qa.ratio,
                        qa.cache_budget_label(),
                        qa.cache_admission
                    ),
                )
            } else {
                (
                    Box::new(backend) as Box<dyn PprBackend + Sync>,
                    format!("meloppr (stages {:?}, ratio {})", qa.stages, qa.ratio),
                )
            }
        }
        BackendChoice::Fpga => (
            Box::new(FpgaHybrid::new(g, staged, hybrid_config).map_err(|e| e.to_string())?),
            "fpga-hybrid (P = 16)".to_string(),
        ),
        BackendChoice::Auto => unreachable!("auto is routed, not pinned"),
    })
}

/// Builds the five-backend router for `--backend auto`.
fn build_router<'g>(
    g: &'g CsrGraph,
    ppr: PprParams,
    staged: MelopprParams,
    hybrid_config: HybridConfig,
    qa: &QueryArgs,
) -> Result<Router<'g>, String> {
    let err = |e: meloppr::core::PprError| e.to_string();
    let mut meloppr_backend = Meloppr::new(g, staged.clone())
        .map_err(err)?
        .with_cache_window(qa.cache_window);
    if qa.cache_shared {
        // The router's staged backend shares one cache across all the
        // requests it routes there; its estimates discount BFS by the
        // backend consumer's windowed hit rate (and with self-calibration
        // also learn residual latency error).
        meloppr_backend = meloppr_backend.with_shared_cache(build_shared_cache(g, qa)?);
    }
    Ok(Router::new()
        .with_backend(Box::new(ExactPower::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(LocalPpr::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(
            MonteCarlo::new(g, ppr, qa.walks, 42).map_err(err)?,
        ))
        .with_backend(Box::new(meloppr_backend))
        .with_backend(Box::new(
            FpgaHybrid::new(g, staged, hybrid_config).map_err(|e| e.to_string())?,
        ))
        .with_self_calibration(true))
}
