//! `meloppr-serve` — a long-lived PPR serving daemon.
//!
//! This binary holds the workspace's only `unsafe` (the raw POSIX
//! `signal(2)` declaration in its `signals` module); `deny` rather than
//! `forbid` so that one module can opt back in with a reviewed `allow`.
//!
//! ```text
//! meloppr-serve <graph> [--listen ADDR] [--workers N] [--queue N]
//!               [--deadline-ms X] [--k K] [--length L] [--alpha A]
//!               [--stages a,b,..] [--ratio R] [--walks W]
//!               [--cache-capacity N] [--ball-index F]
//!               [--precision exact|f32|qN] [--calibration-file F]
//! ```
//!
//! `<graph>` is an edge-list file path or `corpus:<G1..G6>[:scale]`,
//! exactly as in `meloppr-cli`. The daemon builds the five-backend
//! self-calibrating `Router` (with a shared sub-graph cache on the
//! staged backend), binds a TCP listener, and serves the length-prefixed
//! line protocol of `meloppr::server` until `SIGTERM`/`SIGINT` or a
//! `SHUTDOWN` request.
//!
//! Every request is scheduled under a deadline (`--deadline-ms` default
//! for requests that do not carry their own): late-risk queries route to
//! cheaper backends or degraded plans, unmeetable ones fail fast with a
//! typed rejection, and when the bounded queue (depth `--queue`)
//! saturates, the request with the most deadline slack is shed. Before
//! rejecting, admission walks the precision ladder (`exact` → `f32` →
//! `q16`): a deadline the staged backend cannot make at 8-byte scores
//! may still be met with narrower arithmetic, and the `OK` frame
//! reports the rung each query executed at. `--precision` sets the
//! deployment-wide default rung for requests that carry none.
//!
//! `--ball-index F` attaches a persisted ball index (built offline with
//! `meloppr-cli index`) as the shared cache's cold tier: a RAM miss is
//! served with one positioned read and a compact decode instead of a
//! live BFS over the graph, falling back to BFS when the index lacks
//! the node or depth. A missing file boots cold silently; a corrupt,
//! truncated or version-mismatched one, or one built over a graph with
//! a different node count, warns and boots cold — the daemon never
//! refuses to start over cold-tier state, exactly like calibration.
//!
//! `--calibration-file F` makes the router's learned state persistent:
//! loaded at startup (missing file = silent first boot; corrupt file =
//! warn and continue) and saved back at shutdown, so a restarted daemon
//! routes its very first requests with the previous run's calibrated
//! latency EWMAs and warm cache hit-rate estimates.
//!
//! On shutdown the final telemetry snapshot (latency p50/p95/p99, queue
//! high-water, shed/degraded/deadline-missed counters, per-backend route
//! counts) is printed to stderr.

#![deny(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use meloppr::backend::{persist, ExactPower, LocalPpr, Meloppr, MonteCarlo};
use meloppr::graph::edge_list::{read_edge_list_file, EdgeListOptions};
use meloppr::graph::generators::corpus::PaperGraph;
use meloppr::graph::CsrGraph;
use meloppr::server::{PprServer, ServerConfig};
use meloppr::{
    AcceleratorConfig, BallIndex, CacheBudget, ConcurrentSubgraphCache, FpgaHybrid, HybridConfig,
    MelopprParams, PprParams, PrecisionClass, Router, SelectionStrategy,
};

const USAGE: &str = "usage:
  meloppr-serve <graph> [--listen ADDR] [--workers N] [--queue N] \\
                [--deadline-ms X] [--k K] [--length L] [--alpha A] \\
                [--stages a,b,..] [--ratio R] [--walks W] \\
                [--cache-capacity N] [--ball-index F] \\
                [--precision exact|f32|qN] [--calibration-file F]

  <graph> = an edge-list file path, or corpus:<G1..G6>[:scale]
  --listen ADDR   = bind address (default 127.0.0.1:7737; port 0 picks one)
  --workers N     = queue-draining worker threads (default 2)
  --queue N       = bounded request-queue depth; beyond it the request
                    with the most deadline slack is shed (default 64)
  --deadline-ms X = default per-request deadline for QUERY frames that
                    carry no deadline_ms (default 100)
  --cache-capacity N = shared cache budget in entries: balls and stored
                    stage results together (default 1024)
  --ball-index F  = persisted ball index (meloppr-cli index) attached as
                    the shared cache's cold tier: RAM misses are served
                    by one positioned read instead of a BFS; corrupt or
                    mismatched files warn and boot cold
  --precision     = default score-arithmetic rung for QUERY frames that
                    carry no precision= token: exact (f64, the default),
                    f32, or qN (Q-format fixed point, e.g. q16)
  --calibration-file F = load learned router state at startup, save at
                    shutdown (corrupt files are ignored with a warning)";

/// Set by the signal handler; polled by the monitor thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

// The one `unsafe` in the workspace lives in this module (every lib
// crate carries `#![forbid(unsafe_code)]`); the binary denies it so any
// new site needs an explicit, reviewed `allow`.
#[cfg(unix)]
#[allow(unsafe_code)]
mod signals {
    use super::SIGNALLED;

    // The container has no libc crate; declare the tiny slice of POSIX
    // we need directly.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: one relaxed store.
        SIGNALLED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Routes SIGINT/SIGTERM to the `SIGNALLED` flag.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `signal(2)` is called with a valid signal number and a
        // handler that is a proper `extern "C" fn(i32)` (the cast chain
        // only reinterprets the fn pointer as the usize ABI expects).
        // The handler body is async-signal-safe — a single relaxed
        // atomic store, no allocation, no locks. `signal`'s return value
        // (the previous handler) is deliberately discarded; we never
        // restore it because the flag stays armed for process lifetime.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
}

struct ServeArgs {
    graph_spec: String,
    listen: String,
    workers: usize,
    queue: usize,
    deadline_ms: f64,
    k: usize,
    length: usize,
    alpha: f64,
    stages: Vec<usize>,
    ratio: f64,
    walks: usize,
    cache_capacity: usize,
    ball_index: Option<String>,
    precision: Option<PrecisionClass>,
    calibration_file: Option<String>,
}

fn parse_args(mut args: Vec<String>) -> Result<ServeArgs, String> {
    if args.is_empty() {
        return Err("missing graph specification".into());
    }
    let mut out = ServeArgs {
        graph_spec: args.remove(0),
        listen: "127.0.0.1:7737".into(),
        workers: 2,
        queue: 64,
        deadline_ms: 100.0,
        k: 10,
        length: 6,
        alpha: 0.85,
        stages: vec![3, 3],
        ratio: 0.05,
        walks: 10_000,
        cache_capacity: 1024,
        ball_index: None,
        precision: None,
        calibration_file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        macro_rules! parse {
            ($flag:literal) => {
                value($flag)?
                    .parse()
                    .map_err(|e| format!(concat!($flag, ": {}"), e))?
            };
        }
        match arg.as_str() {
            "--listen" => out.listen = value("--listen")?.clone(),
            "--workers" => out.workers = parse!("--workers"),
            "--queue" => out.queue = parse!("--queue"),
            "--deadline-ms" => out.deadline_ms = parse!("--deadline-ms"),
            "--k" => out.k = parse!("--k"),
            "--length" => out.length = parse!("--length"),
            "--alpha" => out.alpha = parse!("--alpha"),
            "--ratio" => out.ratio = parse!("--ratio"),
            "--walks" => out.walks = parse!("--walks"),
            "--cache-capacity" => out.cache_capacity = parse!("--cache-capacity"),
            "--ball-index" => out.ball_index = Some(value("--ball-index")?.clone()),
            "--precision" => {
                let class: PrecisionClass = parse!("--precision");
                class.validate().map_err(|e| format!("--precision: {e}"))?;
                out.precision = Some(class);
            }
            "--stages" => {
                out.stages = value("--stages")?
                    .split(',')
                    .map(|s| s.parse::<usize>().map_err(|e| format!("--stages: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--calibration-file" => {
                out.calibration_file = Some(value("--calibration-file")?.clone())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    if out.queue == 0 {
        return Err("--queue must be >= 1".into());
    }
    if out.cache_capacity == 0 {
        return Err("--cache-capacity must be >= 1".into());
    }
    Ok(out)
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
        if (scale - 1.0).abs() < f64::EPSILON {
            paper.generate(42)
        } else {
            paper.generate_scaled(scale, 42)
        }
        .map_err(|e| e.to_string())
    } else {
        let graph = read_edge_list_file(spec, EdgeListOptions::default())
            .map(|parsed| parsed.graph)
            .map_err(|e| format!("reading {spec:?}: {e}"))?;
        // A daemon must not serve queries over a structurally broken
        // graph (the zero-allocation hot paths index it unchecked):
        // re-check the CSR invariants at this trust boundary and refuse
        // to boot with the typed reason.
        graph
            .validate()
            .map_err(|e| format!("rejecting {spec:?}: {}", meloppr::core::PprError::from(e)))?;
        Ok(graph)
    }
}

/// The daemon's five-backend self-calibrating router, shared cache on
/// the staged backend.
fn build_router<'g>(g: &'g CsrGraph, args: &ServeArgs) -> Result<Router<'g>, String> {
    let err = |e: meloppr::core::PprError| e.to_string();
    let ppr = PprParams::new(args.alpha, args.length, args.k).map_err(err)?;
    let staged = MelopprParams {
        ppr,
        stages: args.stages.clone(),
        selection: SelectionStrategy::TopFraction(args.ratio),
        ..MelopprParams::paper_defaults()
    };
    staged.validate().map_err(err)?;
    let hybrid_config = HybridConfig {
        accel: AcceleratorConfig {
            parallelism: 16,
            ..AcceleratorConfig::default()
        },
        ..HybridConfig::default()
    };
    let mut cache = ConcurrentSubgraphCache::with_budget(CacheBudget::entries(args.cache_capacity));
    if let Some(path) = &args.ball_index {
        match BallIndex::load_for(Path::new(path), g.num_nodes()) {
            Ok(Some(index)) => {
                eprintln!(
                    "meloppr-serve: ball index cold tier attached from {path} \
                     (depth {}, {} nodes)",
                    index.depth(),
                    index.num_nodes()
                );
                cache = cache.with_cold_tier(Arc::new(index));
            }
            // `load_for` already warned for corrupt files and for an
            // index of another graph; a missing file is a silent cold
            // boot. The daemon always starts — cold-tier state is never
            // worth refusing to serve.
            Ok(None) => {}
            Err(e) => return Err(format!("reading ball index {path:?}: {e}")),
        }
    }
    let meloppr_backend = Meloppr::new(g, staged.clone())
        .map_err(err)?
        .with_shared_cache(Arc::new(cache));
    let mut router = Router::new()
        .with_backend(Box::new(ExactPower::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(LocalPpr::new(g, ppr).map_err(err)?))
        .with_backend(Box::new(
            MonteCarlo::new(g, ppr, args.walks, 42).map_err(err)?,
        ))
        .with_backend(Box::new(meloppr_backend))
        .with_backend(Box::new(
            FpgaHybrid::new(g, staged, hybrid_config).map_err(|e| e.to_string())?,
        ))
        .with_self_calibration(true);
    router.prepare().map_err(err)?;
    Ok(router)
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1).collect())?;
    let graph = load_graph(&args.graph_spec)?;
    eprintln!(
        "meloppr-serve: graph {} ({} nodes, {} edges)",
        args.graph_spec,
        graph.num_nodes(),
        graph.num_edges()
    );

    let router = build_router(&graph, &args)?;
    if let Some(path) = &args.calibration_file {
        match persist::load_state(&router, Path::new(path)) {
            Ok(true) => eprintln!("meloppr-serve: calibration restored from {path}"),
            Ok(false) => {}
            Err(e) => return Err(format!("reading calibration file {path:?}: {e}")),
        }
    }

    let config = ServerConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        default_deadline_ms: args.deadline_ms,
        default_precision: args.precision,
        ..ServerConfig::default()
    };
    let server =
        PprServer::bind(&router, config, args.listen.as_str()).map_err(|e| e.to_string())?;
    eprintln!(
        "meloppr-serve: listening on {} ({} workers, queue {}, default deadline {} ms, \
         default precision {})",
        server.local_addr(),
        args.workers,
        args.queue,
        args.deadline_ms,
        args.precision.unwrap_or_default()
    );

    signals::install();
    std::thread::scope(|scope| {
        // Signal monitor: turn SIGTERM/SIGINT into a clean shutdown. The
        // thread also exits when the server stops for any other reason
        // (e.g. a SHUTDOWN request), so the scope never hangs.
        scope.spawn(|| {
            while !SIGNALLED.load(Ordering::Relaxed) && !server.is_shutdown() {
                std::thread::sleep(Duration::from_millis(50));
            }
            server.shutdown();
        });
        server.serve().map_err(|e| e.to_string())
    })?;

    let snapshot = server.telemetry();
    eprintln!("{snapshot}");
    if let Some(path) = &args.calibration_file {
        persist::save_state(&router, Path::new(path))
            .map_err(|e| format!("writing calibration file {path:?}: {e}"))?;
        eprintln!("meloppr-serve: calibration saved to {path}");
    }
    Ok(())
}

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
