//! `perfbench` — the serving benchmark's workload process.
//!
//! ```text
//! perfbench build-index --out FILE
//! perfbench setup --workload NAME --index FILE
//! perfbench serve --workload NAME --seed N --seconds S --traced 0|1
//!                 --index FILE --truth FILE
//! ```
//!
//! `build-index` writes the offline cold-tier ball index (timed, with its
//! fsync) and prints its build time and size. `setup` boots one workload
//! until it could serve and prints how long that took from process start.
//! `serve` runs one workload in this process: set-up, an open-loop phase
//! at the workload's fixed rate, a closed-loop throughput phase, further
//! set-ups in fresh `setup` processes, then the correctness checks, the
//! ground truth and, when traced, the per-layer replays.
//!
//! The last stdout line of `serve` is one JSON object: the end-to-end
//! metrics under their final names (and, when traced, the per-layer
//! metrics), the ungated `p90_ms`, the counters that must agree between
//! an untraced and a traced run of one seed, and the check verdict. A per-phase account
//! goes to stderr. The exit code is non-zero when any check fails.

#![forbid(unsafe_code)]

mod check;
mod load;
mod replay;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use meloppr::backend::BackendKind;
use meloppr::graph::{CsrGraph, NodeId};
use meloppr::server::{RejectReason, Request, Response, TelemetrySnapshot};
use meloppr::{
    BallIndex, CacheStats, ConcurrentSubgraphCache, PprServer, PrecisionClass, Router, ServerConfig,
};

use check::Answer;
use load::PhaseLog;
use timed::Recorder;
use workload::{Planned, Workload};

/// Set-ups per untraced run, each in a fresh process; the median is
/// reported.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop phase.
const OPEN_SHARE: f64 = 0.7;
/// The open-loop phase is cut into equal windows of scheduled send time,
/// about this many requests each (at least three windows); each latency
/// quantile is reported as the median of the windows' quantiles, so a
/// stall of the machine that spans a few seconds moves a window, not the
/// figure.
const REQUESTS_PER_WINDOW: usize = 150;
/// The closed-loop throughput is the median over windows of this length,
/// the first (ramp-up) window excluded.
const CLOSED_WINDOW_S: f64 = 1.5;
/// Distinct trace seeds the per-layer replays run over.
const REPLAY_SEEDS: usize = 128;
const MIB: f64 = 1024.0 * 1024.0;
/// Backend kinds in report order.
const KINDS: [BackendKind; 5] = [
    BackendKind::ExactPower,
    BackendKind::LocalPpr,
    BackendKind::MonteCarlo,
    BackendKind::Meloppr,
    BackendKind::FpgaHybrid,
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// A JSON object rendered from `(key, JSON text)` cells in insertion
/// order.
fn json_object<'a>(cells: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let cells: Vec<String> = cells
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// Named metrics with their units and, where the figure summarises
/// samples, the sample count.
#[derive(Default)]
struct Metrics {
    rows: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit, None));
    }

    fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows.push((name.into(), value, unit, Some(samples)));
    }

    fn render(&self) -> String {
        json_object(self.rows.iter().map(|(name, value, unit, n)| {
            let mut cells = vec![("value", json_num(*value)), ("unit", json_string(unit))];
            if let Some(n) = n {
                cells.push(("samples", n.to_string()));
            }
            (name.as_str(), json_object(cells))
        }))
    }
}

/// Nearest-rank quantile of `values` (sorted in place); `NaN` if empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// `value`, or 0 where a layer saw no samples (a solver that served
/// nothing, a workload without a cold tier).
fn or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn per(count: u64, queries: usize) -> f64 {
    count as f64 / queries.max(1) as f64
}

/// User + system CPU seconds of this process (all threads).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `--flag value` pairs.
struct Flags<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(flag.as_str(), value.as_str());
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Result<&'a str, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("--workload")?;
        workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

struct ServeArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    index: PathBuf,
    truth: PathBuf,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let flags = Flags::parse(args)?;
    Ok(ServeArgs {
        workload: flags.workload()?,
        seed: flags
            .get("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flags
            .get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        traced: flags.get("--traced")? == "1",
        index: PathBuf::from(flags.get("--index")?),
        truth: PathBuf::from(flags.get("--truth")?),
    })
}

/// Everything before the server is bound: the cold-tier index, the
/// router with `prepare`, and a warm-up pass of direct queries over the
/// workload's hottest seeds.
fn set_up<'g>(
    w: &Workload,
    g: &'g CsrGraph,
    index_path: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(Router<'g>, Option<Arc<BallIndex>>), String> {
    let index = workload::load_index(w, index_path)?;
    let router = workload::build_router(w, g, index.as_ref(), recorder);
    for seed in workload::warm_set(w, g) {
        for class in 0..w.classes.len() {
            let planned = Planned {
                seed,
                class,
                at_s: 0.0,
            };
            router
                .query(&workload::spec(w, 0, &planned).to_query_request())
                .map_err(|e| format!("warm-up query of seed {seed}: {e}"))?;
        }
    }
    Ok((router, index))
}

/// Binds the server on loopback as `meloppr-serve` runs it: 2 workers,
/// otherwise `ServerConfig::default()`.
fn bind<'r, 'g>(router: &'r Router<'g>) -> Result<PprServer<'r, 'g>, String> {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    PprServer::bind(router, config, "127.0.0.1:0").map_err(|e| format!("binding the server: {e}"))
}

/// Runs `perfbench setup` in a fresh process and returns the set-up time
/// it measured from its own start, so every sample pays the first-touch
/// page faults and one-time initialisation that a fresh boot pays.
fn fresh_setup(w: &Workload, index: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["setup", "--workload", w.name, "--index"])
        .arg(index)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the set-up process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("the set-up process printed {text:?}: {e}"))
}

fn setup_cmd(args: &[String], process_start: Instant) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let w = flags.workload()?;
    let g = workload::build_graph();
    let (router, _index) = set_up(w, &g, Path::new(flags.get("--index")?), None)?;
    let _server = bind(&router)?;
    Ok(format!("{}", process_start.elapsed().as_secs_f64()))
}

fn shared_cache<'r>(router: &'r Router<'_>) -> Option<&'r ConcurrentSubgraphCache> {
    router.backends().iter().find_map(|b| b.shared_cache())
}

fn shared_cache_stats(router: &Router<'_>) -> CacheStats {
    shared_cache(router).map(|c| c.stats()).unwrap_or_default()
}

/// Response counts of one phase.
#[derive(Default)]
struct Tally {
    sent: usize,
    ok: usize,
    queue_full: usize,
    unmeetable: usize,
    expired: usize,
    errors: usize,
    missing: usize,
}

impl Tally {
    fn of(log: &PhaseLog) -> Tally {
        let mut t = Tally::default();
        for (sent, reply) in log.sent_s.iter().zip(&log.replies) {
            if sent.is_none() {
                continue;
            }
            t.sent += 1;
            match reply.as_ref().map(|r| &r.response) {
                Some(Response::Ranking { .. }) => t.ok += 1,
                Some(Response::Rejected { reason, .. }) => match reason {
                    RejectReason::QueueFull => t.queue_full += 1,
                    RejectReason::DeadlineUnmeetable => t.unmeetable += 1,
                    RejectReason::DeadlineExceeded => t.expired += 1,
                },
                Some(_) => t.errors += 1,
                None => t.missing += 1,
            }
        }
        t
    }

    fn describe(&self) -> String {
        format!(
            "sent {} ok {} rejected queue-full {} unmeetable {} expired {} errors {} missing {}",
            self.sent,
            self.ok,
            self.queue_full,
            self.unmeetable,
            self.expired,
            self.errors,
            self.missing
        )
    }
}

fn answers_of(log: &PhaseLog, plan: impl Fn(usize) -> Planned) -> Vec<Answer> {
    log.replies
        .iter()
        .enumerate()
        .filter_map(|(id, reply)| match reply.as_ref().map(|r| &r.response) {
            Some(Response::Ranking {
                backend,
                precision,
                ranking,
                ..
            }) => {
                let p = plan(id);
                Some(Answer {
                    seed: p.seed,
                    class: p.class,
                    backend: *backend,
                    precision: *precision,
                    ranking: ranking.clone(),
                })
            }
            _ => None,
        })
        .collect()
}

/// What the open-loop phase measured, request by request.
#[derive(Default)]
struct OpenLoop {
    /// Per window of scheduled send time: client latency from the
    /// scheduled send, infinite for a request not answered OK.
    windows: Vec<Vec<f64>>,
    /// Actual minus scheduled send, per request sent.
    lateness_ms: Vec<f64>,
    /// Client latency from the actual send minus the frame's
    /// `latency_us`, per OK answer.
    writeback_ms: Vec<f64>,
    /// The frames' `latency_us`, per OK answer.
    server_ms: Vec<f64>,
    /// OK answers that arrived within the deadline.
    ok_in_deadline: usize,
    /// OK answers per solver and per rung.
    routes: BTreeMap<String, usize>,
    rungs: BTreeMap<String, usize>,
    /// The OK frames and their payload sizes.
    ok_frames: Vec<Response>,
    ok_bytes: Vec<f64>,
}

impl OpenLoop {
    fn of(w: &Workload, trace: &[Planned], log: &PhaseLog, open_s: f64) -> OpenLoop {
        let window_count = (trace.len() / REQUESTS_PER_WINDOW).max(3);
        let mut o = OpenLoop {
            windows: vec![Vec::new(); window_count],
            ..OpenLoop::default()
        };
        for (p, (reply, sent)) in trace.iter().zip(log.replies.iter().zip(&log.sent_s)) {
            let window = ((p.at_s / open_s * window_count as f64) as usize).min(window_count - 1);
            let mut ms = f64::INFINITY;
            if let Some(sent) = *sent {
                o.lateness_ms.push((sent - p.at_s) * 1e3);
                if let Some(
                    reply @ load::Reply {
                        response:
                            resp @ Response::Ranking {
                                latency_us,
                                backend,
                                precision,
                                ..
                            },
                        ..
                    },
                ) = reply
                {
                    ms = (reply.arrived_s - p.at_s) * 1e3;
                    if ms <= w.deadline_ms {
                        o.ok_in_deadline += 1;
                    }
                    let in_server_ms = *latency_us as f64 / 1e3;
                    o.server_ms.push(in_server_ms);
                    o.writeback_ms
                        .push((reply.arrived_s - sent) * 1e3 - in_server_ms);
                    *o.routes.entry(backend.to_string()).or_default() += 1;
                    *o.rungs.entry(precision.to_string()).or_default() += 1;
                    o.ok_frames.push(resp.clone());
                    o.ok_bytes.push(reply.frame_bytes as f64);
                }
            }
            o.windows[window].push(ms);
        }
        o
    }

    /// The median over windows of each window's `q` quantile (the
    /// windowed figure that `p50_ms` reports).
    fn windowed(&mut self, q: f64) -> f64 {
        let mut per_window: Vec<f64> = self.windows.iter_mut().map(|w| quantile(w, q)).collect();
        quantile(&mut per_window, 0.5)
    }
}

/// Closed-loop throughput: the median over windows (the first, ramp-up
/// window excluded) of each window's OK completions over the span they
/// cover, which keeps the figure's resolution finer than one completion
/// per window. Returns it with the OK completions it counts.
fn closed_loop_qps(log: &PhaseLog, closed_s: f64) -> (f64, usize) {
    let slots = ((closed_s / CLOSED_WINDOW_S) as usize).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); slots];
    for reply in log.replies.iter().flatten() {
        let slot = (reply.arrived_s / CLOSED_WINDOW_S) as usize;
        if matches!(reply.response, Response::Ranking { .. }) && slot < slots {
            per_window[slot].push(reply.arrived_s);
        }
    }
    let counted = per_window.iter().map(Vec::len).sum();
    let mut rates: Vec<f64> = per_window
        .iter()
        .skip(usize::from(slots > 1))
        .filter_map(|arrivals| {
            let (first, last) = (arrivals.first()?, arrivals.last()?);
            (last > first).then(|| (arrivals.len() - 1) as f64 / (last - first))
        })
        .collect();
    (quantile(&mut rates, 0.5), counted)
}

fn serve(args: &ServeArgs, process_start: Instant) -> Result<(String, bool), String> {
    let w = args.workload;
    let recorder = args.traced.then(|| Arc::new(Recorder::new()));

    // Set-up, timed from process start.
    let g = workload::build_graph();
    let (router, index) = set_up(w, &g, &args.index, recorder.as_ref())?;
    let server = bind(&router)?;
    let addr = server.local_addr();
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];

    // The open-loop trace and its frames.
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let count = (w.rate_qps * open_s).ceil().max(1.0) as usize;
    let trace = workload::trace(w, &g, args.seed, count);
    let frames: Vec<String> = trace
        .iter()
        .enumerate()
        .map(|(id, p)| Request::Query(workload::spec(w, id as u64, p)).encode())
        .collect();
    let schedule: Vec<f64> = trace.iter().map(|p| p.at_s).collect();
    let grace = Duration::from_secs_f64(w.deadline_ms / 1e3 + 2.0);

    let mut cache_delta = CacheStats::default();
    let mut cpu_s = 0.0;
    let mut telemetry = None;
    let (phases, served) = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve());
        let phases = (|| {
            let cache_before = shared_cache_stats(&router);
            let cpu_before = cpu_seconds();
            if let Some(rec) = &recorder {
                rec.set_recording(true);
            }
            let open = load::open_loop(addr, &frames, &schedule, grace);
            if let Some(rec) = &recorder {
                rec.set_recording(false);
            }
            cpu_s = cpu_seconds() - cpu_before;
            cache_delta = shared_cache_stats(&router).delta_since(&cache_before);
            telemetry = Some(server.telemetry());
            let open = open?;
            // The closed loop replays the open-loop trace from its start,
            // so both phases ask from the same seed distribution.
            let closed_frame = |i: usize| {
                let p = &trace[i % trace.len()];
                Request::Query(workload::spec(w, i as u64, p)).encode()
            };
            let closed = load::closed_loop(
                addr,
                &closed_frame,
                w.window,
                Duration::from_secs_f64(closed_s),
                grace,
            )?;
            Ok::<_, std::io::Error>((open, closed))
        })();
        server.shutdown();
        (
            phases,
            serving.join().expect("the server thread does not panic"),
        )
    });
    served.map_err(|e| format!("serving: {e}"))?;
    let (open, closed) = phases.map_err(|e| format!("load generator: {e}"))?;
    let peak_rss = peak_rss_mib();
    let telemetry = telemetry.expect("the open-loop phase took a snapshot");
    // Cumulative since the cache was built: warm-up and both phases.
    let cold_fallbacks = shared_cache_stats(&router).cold_fallbacks;

    // Everything below runs after VmHWM was read and outside every timed
    // phase.
    if !args.traced {
        for _ in 1..SETUP_REPS {
            setup_s.push(fresh_setup(w, &args.index)?);
        }
    }
    let open_tally = Tally::of(&open);
    let closed_tally = Tally::of(&closed);
    let mut o = OpenLoop::of(w, &trace, &open, open_s);
    let (max_qps, closed_counted) = closed_loop_qps(&closed, closed_s);
    let label = format!(
        "{} {} seed {} ({} CPUs)",
        w.name,
        if args.traced { "traced" } else { "untraced" },
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!(
        "{label}: set-ups {:?} s (each a fresh process); open loop {}; generator lateness \
         p99 {:.2} ms, max {:.2} ms; write-back p50 {:.2} ms next to p50 {:.2} ms",
        setup_s,
        open_tally.describe(),
        quantile(&mut o.lateness_ms, 0.99),
        quantile(&mut o.lateness_ms, 1.0),
        quantile(&mut o.writeback_ms, 0.5),
        o.windowed(0.5)
    );
    eprintln!(
        "{label}: closed loop {}; cache lookups in the open loop: hits {} shared {} misses {} \
         extractions {} cold hits {}",
        closed_tally.describe(),
        cache_delta.hits,
        cache_delta.shared,
        cache_delta.misses,
        cache_delta.extractions,
        cache_delta.cold_hits
    );

    let mut per_layer = Metrics::default();
    if let Some(rec) = &recorder {
        per_layer = traced_metrics(
            rec,
            &g,
            index.as_deref(),
            &trace,
            &frames,
            &mut o,
            &cache_delta,
            &telemetry,
            shared_cache(&router).map_or(0, |c| c.resident_bytes()),
        );
    }
    drop(server);
    drop(router);

    let open_answers = answers_of(&open, |id| trace[id]);
    let mut answers = open_answers.clone();
    answers.extend(answers_of(&closed, |id| trace[id % trace.len()]));
    let verdict = check::check_answers(w, &g, index.as_ref(), &answers);
    let truth = check::ground_truth(&g, open_answers.iter().map(|a| a.seed), &args.truth)
        .map_err(|e| format!("ground truth cache {}: {e}", args.truth.display()))?;
    let mut failures = verdict.failures.clone();
    let mut failed_checks = verdict.failed;
    let errors = open_tally.errors + closed_tally.errors;
    if errors > 0 {
        failed_checks += errors;
        failures.push(format!("{errors} error frames"));
    }
    if workload::uses_cold_tier(w) && cold_fallbacks > 0 {
        failed_checks += 1;
        failures.push(format!("{cold_fallbacks} cold-tier fallbacks to BFS"));
    }
    eprintln!(
        "{label}: checked {} answers against {} direct queries; {failed_checks} failed",
        verdict.answers, verdict.direct_queries
    );
    for failure in &failures {
        eprintln!("{label}: check failed: {failure}");
    }

    // Requests the generator never sent count as misses.
    let n = trace.len();
    let mut e2e = Metrics::default();
    e2e.put_n("setup_s", quantile(&mut setup_s, 0.5), "s", setup_s.len());
    e2e.put_n("p50_ms", o.windowed(0.5), "ms", n);
    e2e.put_n(
        "ok_ratio",
        o.ok_in_deadline as f64 / n.max(1) as f64,
        "fraction",
        n,
    );
    e2e.put_n("max_qps", max_qps, "1/s", closed_counted);
    e2e.put_n(
        "cpu_ms_per_query",
        cpu_s * 1e3 / open_tally.ok.max(1) as f64,
        "ms",
        open_tally.ok,
    );
    e2e.put_n("peak_rss_mib", peak_rss, "MiB", 1);
    e2e.put_n(
        "precision_at_10",
        check::mean_precision(&open_answers, &truth),
        "fraction",
        open_answers.len(),
    );

    // Printed with the end-to-end metrics but not gated: its spread
    // between runs exceeds the largest bound a metric may have (see
    // WORKLOADS.md).
    let mut reported = Metrics::default();
    reported.put_n("p90_ms", quantile(&mut o.windows.concat(), 0.9), "ms", n);

    // Counters that the traced run of the same seed must reproduce.
    let mut same = vec![
        ("open.sent".to_string(), n),
        ("open.ok".to_string(), open_tally.ok),
    ];
    for kind in KINDS {
        let k = kind.to_string();
        let served = o.routes.get(&k).copied().unwrap_or(0);
        same.push((format!("route.{k}"), served));
    }
    for (rung, count) in &o.rungs {
        same.push((format!("rung.{rung}"), *count));
    }
    let c = &cache_delta;
    let cache = [
        ("hits", c.hits),
        ("shared", c.shared),
        ("misses", c.misses),
        ("cold_hits", c.cold_hits),
        ("extractions", c.extractions),
    ];

    let attempted = open_tally.sent + closed_tally.sent;
    let failed = attempted - open_tally.ok - closed_tally.ok + failed_checks;
    let line = json_object([
        ("workload", json_string(w.name)),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("correct", (failed_checks == 0).to_string()),
        ("end_to_end", e2e.render()),
        ("reported", reported.render()),
        ("per_layer", per_layer.render()),
        (
            "same",
            json_object(same.iter().map(|(k, v)| (k.as_str(), v.to_string()))),
        ),
        (
            "cache",
            json_object(cache.iter().map(|(k, v)| (*k, v.to_string()))),
        ),
    ]);
    Ok((line, failed_checks == 0))
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    rec: &Recorder,
    g: &CsrGraph,
    index: Option<&BallIndex>,
    trace: &[Planned],
    frames: &[String],
    o: &mut OpenLoop,
    cache: &CacheStats,
    t: &TelemetrySnapshot,
    resident_bytes: usize,
) -> Metrics {
    let mut m = Metrics::default();
    let queries = trace.len();
    let services = rec.services();
    let service_ms = |kind: BackendKind| -> Vec<f64> {
        services
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ns as f64 / 1e6)
            .collect()
    };

    m.put(
        "server.writeback_ms_p50",
        quantile(&mut o.writeback_ms, 0.5),
        "ms",
    );
    m.put(
        "server.writeback_ms_p90",
        quantile(&mut o.writeback_ms, 0.9),
        "ms",
    );
    m.put(
        "server.queue_ms_mean",
        mean(o.server_ms.iter().copied()) - mean(services.iter().map(|s| s.ns as f64 / 1e6)),
        "ms",
    );
    m.put(
        "server.rejected",
        (t.shed + t.rejected_unmeetable + t.deadline_missed + t.errors) as f64,
        "count",
    );
    m.put(
        "server.queue_high_water",
        t.queue_high_water as f64,
        "count",
    );

    let ok_frames: Vec<&Response> = o.ok_frames.iter().collect();
    m.put("protocol.parse_us", replay::parse_us(frames), "us");
    m.put("protocol.encode_us", replay::encode_us(&ok_frames), "us");
    m.put(
        "protocol.response_bytes",
        mean(o.ok_bytes.iter().copied()),
        "bytes",
    );

    let (calls, ns) = rec.estimates();
    m.put(
        "router.estimate_calls_per_query",
        per(calls, queries),
        "count",
    );
    m.put("router.estimate_us_per_query", per(ns, queries) / 1e3, "us");
    let routed: u64 = t.routes.iter().map(|(_, n)| n).sum();
    for kind in KINDS {
        let served = t
            .routes
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n);
        m.put(
            format!("router.route_share.{kind}"),
            per(served, routed as usize),
            "fraction",
        );
    }
    m.put("router.failovers", t.failovers as f64, "count");

    let mut staged_ms = service_ms(BackendKind::Meloppr);
    m.put(
        "staged.service_ms_p50",
        or_zero(quantile(&mut staged_ms, 0.5)),
        "ms",
    );
    m.put(
        "staged.service_ms_p90",
        or_zero(quantile(&mut staged_ms, 0.9)),
        "ms",
    );
    let staged: Vec<_> = services
        .iter()
        .filter(|s| s.kind == BackendKind::Meloppr)
        .collect();
    let staged_mean =
        |f: &dyn Fn(&timed::Service) -> f64| or_zero(mean(staged.iter().map(|s| f(s))));
    m.put(
        "staged.diffusions_per_query",
        staged_mean(&|s| s.diffusions as f64),
        "count",
    );
    m.put(
        "staged.diffusion_edges_per_query",
        staged_mean(&|s| s.diffusion_edges as f64),
        "count",
    );
    m.put(
        "staged.bfs_edges_per_query",
        staged_mean(&|s| s.bfs_edges as f64),
        "count",
    );
    m.put(
        "staged.narrow_rung_share",
        staged_mean(&|s| f64::from(u8::from(s.precision != PrecisionClass::Exact64))),
        "fraction",
    );
    m.put(
        "staged.memory_limited_share",
        staged_mean(&|s| f64::from(u8::from(s.memory_limited))),
        "fraction",
    );
    m.put(
        "staged.peak_task_kib_max",
        staged
            .iter()
            .map(|s| s.peak_task_bytes as f64 / 1024.0)
            .fold(0.0, f64::max),
        "KiB",
    );

    // Distinct seeds in first-seen order.
    let mut seen = std::collections::BTreeSet::new();
    let seeds: Vec<NodeId> = trace
        .iter()
        .map(|p| p.seed)
        .filter(|s| seen.insert(*s))
        .take(REPLAY_SEEDS)
        .collect();
    let k = replay::kernels(g, &seeds, workload::ppr_params().alpha);
    m.put("diffusion.exact_ns_per_edge", k.exact_ns_per_edge, "ns");
    m.put("diffusion.f32_ns_per_edge", k.f32_ns_per_edge, "ns");
    m.put("diffusion.q16_ns_per_edge", k.q16_ns_per_edge, "ns");
    m.put("graph.extract_ns_per_edge", k.extract_ns_per_edge, "ns");

    let lookups = cache.hits + cache.shared + cache.misses;
    m.put(
        "cache.hit_ratio",
        per(cache.hits + cache.shared, lookups as usize),
        "fraction",
    );
    m.put(
        "cache.extractions_per_query",
        per(cache.extractions, queries),
        "count",
    );
    m.put(
        "cache.evictions_per_query",
        per(cache.evictions, queries),
        "count",
    );
    m.put(
        "cache.rejected_admissions_per_query",
        per(cache.rejected_admissions, queries),
        "count",
    );
    m.put("cache.resident_mib", resident_bytes as f64 / MIB, "MiB");
    m.put(
        "ballindex.cold_hits_per_query",
        per(cache.cold_hits, queries),
        "count",
    );
    m.put(
        "ballindex.cold_kib_per_query",
        per(cache.cold_bytes_read, queries) / 1024.0,
        "KiB",
    );
    m.put(
        "ballindex.cold_fallbacks",
        cache.cold_fallbacks as f64,
        "count",
    );
    m.put(
        "ballindex.read_us_per_ball",
        index.map_or(0.0, |index| replay::read_us_per_ball(index, &seeds)),
        "us",
    );

    m.put(
        "backend.exact-power.service_ms_p50",
        replay::exact_power_ms(g, &seeds),
        "ms",
    );
    for kind in [
        BackendKind::LocalPpr,
        BackendKind::MonteCarlo,
        BackendKind::FpgaHybrid,
    ] {
        m.put(
            format!("backend.{kind}.service_ms_p50"),
            or_zero(quantile(&mut service_ms(kind), 0.5)),
            "ms",
        );
    }
    m.put(
        "load.lateness_ms_p99",
        quantile(&mut o.lateness_ms, 0.99),
        "ms",
    );
    m.put(
        "load.lateness_ms_max",
        quantile(&mut o.lateness_ms, 1.0),
        "ms",
    );
    m
}

fn build_index_cmd(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args)?;
    let out = PathBuf::from(flags.get("--out")?);
    let g = workload::build_graph();
    let started = Instant::now();
    let report = meloppr::build_index(&g, workload::INDEX_DEPTH, &out)
        .map_err(|e| format!("building {}: {e}", out.display()))?;
    let mut m = Metrics::default();
    m.put("ballindex.build_s", started.elapsed().as_secs_f64(), "s");
    m.put("ballindex.file_mib", report.file_bytes as f64 / MIB, "MiB");
    Ok(m.render())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("build-index") => build_index_cmd(rest).map(|line| (line, true)),
        Some("setup") => setup_cmd(rest, process_start).map(|line| (line, true)),
        Some("serve") => parse_serve(rest).and_then(|a| serve(&a, process_start)),
        _ => Err(
            "usage: perfbench build-index --out FILE | perfbench setup ... | perfbench serve ..."
                .into(),
        ),
    };
    match result {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
