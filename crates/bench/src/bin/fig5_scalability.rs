//! **Experiment E1 — Fig. 5**: FPGA scalability with parallelism
//! `P ∈ {1, 2, 4, 8, 16}` on G1 (citeseer), 100 MHz.
//!
//! Fig. 5 benchmarks a single *graph diffusion operation* (stage-one, on
//! the depth-`l1` ball): the CPU bar is the NetworkX-class software
//! diffusion; the FPGA bars split into scheduling stalls, ideal diffusion
//! cycles, and host↔device data movement. Paper shapes: > 10× latency
//! reduction scaling P 1 → 16; scheduling < 20 % at P = 2 and < 40 %
//! beyond.
//!
//! Usage: `cargo run --release -p meloppr-bench --bin fig5_scalability
//! [--full] [--seeds N] [--scale F]`

use std::sync::Arc;
use std::time::Instant;

use meloppr_bench::table::TextTable;
use meloppr_bench::workload::{sample_hub_seeds, sample_zipf_queries, sample_zipf_queries_offset};
use meloppr_bench::{measure_batch_throughput, CorpusGraph, CpuCostModel, ExperimentScale};
use meloppr_core::backend::{BatchExecutor, Meloppr, QueryRequest};
use meloppr_core::diffusion::{diffuse_from_seed, diffuse_into, DiffusionConfig, DiffusionScratch};
use meloppr_core::{build_index, BallIndex, CacheConsumer, ConsumerStats, IndexBuildReport};
use meloppr_core::{diffuse_quantized, precision_at_k, CompactBall, QCtx, Qu32, QuantScratch};
use meloppr_core::{format_bytes, CacheBudget, ConcurrentSubgraphCache, PrecisionClass};
use meloppr_core::{MelopprParams, PprBackend, PprParams, SelectionStrategy};
use meloppr_fpga::{
    cycles_to_ns, AcceleratorConfig, CycleBreakdown, FixedPointFormat, FpgaAccelerator,
};
use meloppr_graph::generators::barabasi_albert;
use meloppr_graph::generators::corpus::PaperGraph;
use meloppr_graph::{bfs_ball, GraphView, Subgraph};

const L1: usize = 3; // stage-one depth (L = 6 = 3 + 3)

fn main() {
    let scale = ExperimentScale::from_args(std::env::args().skip(1), 5);
    let paper = PaperGraph::G1Citeseer;
    let corpus = CorpusGraph::generate(paper, scale.scale_for(paper), 42);
    let g = &corpus.graph;
    // Hub seeds: the scalability study needs diffusion-bound sub-graphs.
    let seeds = sample_hub_seeds(g, scale.seeds);
    let cost = CpuCostModel::default();

    println!("== Fig. 5: FPGA scalability for one graph diffusion (stage one, l1 = 3) ==");
    println!(
        "graph: {}  |V|={} |E|={}  hub seeds: {:?}\n",
        corpus.label(),
        g.num_nodes(),
        g.num_edges(),
        seeds
    );

    // Extract stage-one balls once; they are shared by every P.
    let subs: Vec<Subgraph> = seeds
        .iter()
        .map(|&s| {
            let ball = bfs_ball(g, s, L1 as u32).expect("bfs");
            Subgraph::extract(g, &ball).expect("extract")
        })
        .collect();
    let avg_nodes: f64 =
        subs.iter().map(|s| s.num_nodes() as f64).sum::<f64>() / subs.len().max(1) as f64;
    let avg_edges: f64 =
        subs.iter().map(|s| s.num_edges() as f64).sum::<f64>() / subs.len().max(1) as f64;
    println!("stage-one balls: avg {avg_nodes:.0} nodes, {avg_edges:.0} edges");

    // CPU bar: NetworkX-class diffusion cost over the same balls.
    let alpha = 0.85;
    let config = DiffusionConfig::new(alpha, L1).expect("config");
    let mut cpu_ns = 0.0;
    for sub in &subs {
        let out = diffuse_from_seed(sub, sub.seed_local(), config).expect("diffusion");
        cpu_ns += out.work.edge_updates as f64 * cost.ns_per_diffusion_edge
            + sub.num_nodes() as f64 * L1 as f64 * cost.ns_per_node_touch;
    }
    let cpu_ms = cpu_ns / subs.len().max(1) as f64 / 1e6;
    println!("CPU (modelled, NetworkX-class): {cpu_ms:.3} ms  (paper bar: ~9 ms)\n");

    let mut table = TextTable::new(vec![
        "P",
        "total ms",
        "sched ms",
        "diff ms",
        "datamove ms",
        "sched %",
        "speedup vs P=1",
        "diff speedup",
        "speedup vs CPU",
    ]);
    let mut p1_total: Option<f64> = None;
    let mut p1_diff: Option<f64> = None;
    // (P, total ms, scheduling ms, diffusion ms, data-movement ms) for
    // the machine-readable report.
    let mut fpga_rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    for p in [1usize, 2, 4, 8, 16] {
        let accel = FpgaAccelerator::new(AcceleratorConfig {
            parallelism: p,
            ..AcceleratorConfig::default()
        })
        .expect("accel");
        let clock = accel.config().clock_mhz;
        let mut cycles = CycleBreakdown::default();
        for sub in &subs {
            let fmt =
                FixedPointFormat::for_graph(g, alpha, 10, Default::default()).expect("format");
            cycles.data_movement += accel.stream_in_cycles(sub);
            let result = accel
                .run_diffusion(sub, fmt.max_value(), L1, &fmt)
                .expect("fpga diffusion");
            cycles.diffusion += result.cycles.diffusion;
            cycles.scheduling += result.cycles.scheduling;
        }
        let n = subs.len().max(1) as f64;
        let total_ms = cycles_to_ns(cycles.total(), clock) / n / 1e6;
        let diff_ms = cycles_to_ns(cycles.diffusion, clock) / n / 1e6;
        let p1 = *p1_total.get_or_insert(total_ms);
        let p1d = *p1_diff.get_or_insert(diff_ms);
        let fpga_work = cycles.diffusion + cycles.scheduling;
        let sched_pct = if fpga_work > 0 {
            cycles.scheduling as f64 / fpga_work as f64 * 100.0
        } else {
            0.0
        };
        fpga_rows.push((
            p,
            total_ms,
            cycles_to_ns(cycles.scheduling, clock) / n / 1e6,
            cycles_to_ns(cycles.diffusion, clock) / n / 1e6,
            cycles_to_ns(cycles.data_movement, clock) / n / 1e6,
        ));
        table.row(vec![
            p.to_string(),
            format!("{total_ms:.4}"),
            format!("{:.4}", cycles_to_ns(cycles.scheduling, clock) / n / 1e6),
            format!("{:.4}", cycles_to_ns(cycles.diffusion, clock) / n / 1e6),
            format!("{:.4}", cycles_to_ns(cycles.data_movement, clock) / n / 1e6),
            format!("{sched_pct:.1}%"),
            format!("{:.2}x", p1 / total_ms),
            format!("{:.2}x", p1d / diff_ms),
            format!("{:.1}x", cpu_ms / total_ms),
        ]);
    }
    table.print();
    println!();
    println!("paper reference: >10x diffusion-latency reduction P=1 -> P=16;");
    println!("scheduling overhead < 20% at P=2, < 40% for P>2 (of FPGA-side work).");

    // Serving-side scalability: the batched executor (one workspace per
    // worker) over full staged queries on the same hub seeds.
    println!();
    println!("== batched serving: query_batch workers vs sequential query ==");
    let staged = MelopprParams {
        ppr: PprParams::new(alpha, 6, 20).expect("params"),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let backend = Meloppr::new(g, staged).expect("backend");
    let mut batch_table = TextTable::new(vec![
        "workers",
        "sequential ms",
        "batch ms",
        "speedup",
        "batch qps",
    ]);
    for workers in [1usize, 2, 4, 8] {
        let t = measure_batch_throughput(&backend, &seeds, workers);
        batch_table.row(vec![
            workers.to_string(),
            format!("{:.2}", t.sequential_ms),
            format!("{:.2}", t.batch_ms),
            format!("{:.2}x", t.speedup),
            format!("{:.0}", t.batch_qps),
        ]);
    }
    batch_table.print();
    println!(
        "(wall-clock speedup needs real cores; this host reports {})",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    // Shared-cache serving under skewed (Zipf) traffic: the same staged
    // backend with and without a ConcurrentSubgraphCache shared by all
    // batch workers. The win is counted in deterministic work units (ball
    // extractions and BFS edge scans), not wall clock, so it shows even
    // on a 1-core host.
    println!();
    println!("== shared sub-graph cache: Zipf(1.0) traffic, extractions vs queries ==");
    let staged = MelopprParams {
        ppr: PprParams::new(alpha, 6, 20).expect("params"),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let queries = 256.max(scale.seeds * 16);
    let mix = sample_zipf_queries(g, queries, 64, 1.0, 42);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();
    let executor = BatchExecutor::new(4).expect("executor");

    let uncached = Meloppr::new(g, staged.clone()).expect("backend");
    let cold = executor.run(&uncached, &reqs).expect("uncached batch");

    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let cached_backend = Meloppr::new(g, staged)
        .expect("backend")
        .with_shared_cache(Arc::clone(&cache));
    let warm = executor.run(&cached_backend, &reqs).expect("cached batch");
    assert_eq!(
        cold.outcomes.iter().map(|o| &o.ranking).collect::<Vec<_>>(),
        warm.outcomes.iter().map(|o| &o.ranking).collect::<Vec<_>>(),
        "shared cache must not change rankings"
    );

    let cache_stats = warm.stats.cache.expect("cache stats (consumer-attributed)");
    let mut cache_table = TextTable::new(vec![
        "mode",
        "queries",
        "ball extractions",
        "bfs edges",
        "wall ms",
    ]);
    cache_table.row(vec![
        "uncached".into(),
        cold.stats.queries.to_string(),
        cold.stats.total_diffusions.to_string(),
        cold.stats.bfs_edges_scanned.to_string(),
        format!("{:.2}", cold.stats.wall_clock.as_secs_f64() * 1e3),
    ]);
    cache_table.row(vec![
        "shared cache".into(),
        warm.stats.queries.to_string(),
        cache_stats.extractions.to_string(),
        warm.stats.bfs_edges_scanned.to_string(),
        format!("{:.2}", warm.stats.wall_clock.as_secs_f64() * 1e3),
    ]);
    cache_table.print();
    println!(
        "cache: {} ball lookups, {:.0}% served without BFS, {} singleflight shares, \
         {:.1}x fewer extractions than lookups",
        cache_stats.lookups(),
        cache_stats.hit_rate() * 100.0,
        cache_stats.shared,
        cache_stats.lookups() as f64 / cache_stats.extractions.max(1) as f64,
    );

    // Traffic shift: yesterday's hot seed set goes cold and a disjoint
    // set heats up (Zipf seed-set rotation mid-run). The backend's
    // consumer tracks two hit rates over its own lookups: the cumulative
    // lifetime average — which stays anchored to the warm phase and
    // over-promises — and the exact sliding-window rate that estimate()
    // actually discounts BFS by, which converges to the new regime
    // within one window. This is the honesty property the budget router
    // depends on: the rows below show the cumulative rate staying stale
    // while the windowed rate collapses and then re-warms.
    println!();
    println!("== traffic shift: Zipf seed-set rotation, windowed vs cumulative hit rate ==");
    let staged = MelopprParams {
        ppr: PprParams::new(alpha, 6, 20).expect("params"),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let window = 128usize;
    let cache = Arc::new(ConcurrentSubgraphCache::new(4096));
    let backend = Meloppr::new(g, staged)
        .expect("backend")
        .with_cache_window(window)
        .with_shared_cache(Arc::clone(&cache));
    let consumer = backend
        .cache_consumer()
        .expect("shared mode has a consumer");
    let mut shift_table = TextTable::new(vec![
        "phase",
        "queries",
        "windowed rate",
        "cumulative rate",
        "batch extractions",
    ]);
    let mut run_phase = |label: &str, queries: usize, offset: usize, rng: u64| -> (f64, f64) {
        let mix = sample_zipf_queries_offset(g, queries, 16, offset, 1.0, rng);
        let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();
        let batch = executor.run(&backend, &reqs).expect("shift batch");
        let delta = batch.stats.cache.expect("cache stats");
        let rates = (consumer.windowed_hit_rate(), consumer.stats().hit_rate());
        shift_table.row(vec![
            label.into(),
            reqs.len().to_string(),
            format!("{:.0}%", rates.0 * 100.0),
            format!("{:.0}%", rates.1 * 100.0),
            delta.extractions.to_string(),
        ]);
        rates
    };
    run_phase("warm-up (ranks 0..16)", 96, 0, 42);
    run_phase("steady hot", 96, 0, 43);
    // A small first post-rotation batch (~one window of lookups): the
    // moment the honest and the stale rate disagree most.
    let (windowed, cumulative) = run_phase("ROTATE (ranks 64..80)", 12, 64, 44);
    run_phase("rotated, re-warmed", 96, 64, 45);
    shift_table.print();
    println!(
        "one window after rotation: windowed {:.0}% vs cumulative {:.0}% — estimate() \
         follows the windowed rate, so routing re-learns the cache within one window",
        windowed * 100.0,
        cumulative * 100.0,
    );
    assert!(
        windowed < cumulative,
        "the windowed rate ({windowed:.2}) must converge to the cold rotated traffic \
         while the cumulative rate ({cumulative:.2}) stays stale"
    );

    // Memory pressure: the same Zipf traffic under a fixed byte budget,
    // with the budget denominated two ways. An entry-count cache treats
    // a 5-node leaf ball and a hub ball as the same slot, so sizing its
    // capacity from the average ball blows straight through the byte
    // budget once the hot set skews big; the byte-budgeted cache
    // reserves measured bytes before admitting and *cannot* exceed the
    // bound — eviction is "evict LRU until the candidate fits".
    println!();
    println!("== memory pressure: fixed byte budget, entries- vs bytes-denominated eviction ==");
    let staged = MelopprParams {
        ppr: PprParams::new(alpha, 6, 20).expect("params"),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let mix = sample_zipf_queries(g, queries, 64, 1.0, 46);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();

    // Probe the full working set with an unbounded cache.
    let unbounded = Arc::new(ConcurrentSubgraphCache::new(1 << 20));
    let probe_backend = Meloppr::new(g, staged.clone())
        .expect("backend")
        .with_shared_cache(Arc::clone(&unbounded));
    executor.run(&probe_backend, &reqs).expect("probe batch");
    let full_bytes = unbounded.resident_bytes();
    let full_entries = unbounded.resident_entries();
    let byte_budget = (full_bytes / 3).max(1);
    // The entries-denominated "equivalent": the same fraction of the
    // entry count (balls and stored stage results), i.e. a capacity
    // sized from the average resident.
    let entry_budget = (full_entries / 3).max(1);
    println!(
        "full working set: {} residents (balls and stage results), {} — budget {} \
         ({} avg-resident slots)",
        full_entries,
        format_bytes(full_bytes),
        format_bytes(byte_budget),
        entry_budget,
    );

    let mut pressure_table = TextTable::new(vec![
        "denomination",
        "resident",
        "vs budget",
        "residents",
        "evictions",
        "hit rate",
        "extractions",
    ]);
    let mut run_budget = |label: &str, budget: CacheBudget| -> usize {
        let cache = Arc::new(ConcurrentSubgraphCache::with_budget(budget));
        let backend = Meloppr::new(g, staged.clone())
            .expect("backend")
            .with_shared_cache(Arc::clone(&cache));
        let batch = executor.run(&backend, &reqs).expect("pressure batch");
        let delta = batch.stats.cache.expect("cache stats");
        let resident = cache.resident_bytes();
        pressure_table.row(vec![
            label.into(),
            format_bytes(resident),
            format!(
                "{:+.0}%",
                (resident as f64 / byte_budget as f64 - 1.0) * 100.0
            ),
            cache.resident_entries().to_string(),
            cache.stats().evictions.to_string(),
            format!("{:.0}%", delta.hit_rate() * 100.0),
            delta.extractions.to_string(),
        ]);
        resident
    };
    run_budget(
        "entries (avg-resident sizing)",
        CacheBudget::entries(entry_budget),
    );
    let byte_resident = run_budget("bytes (enforced)", CacheBudget::bytes(byte_budget));
    pressure_table.print();
    assert!(
        byte_resident <= byte_budget,
        "byte-budgeted cache exceeded its budget: {byte_resident} > {byte_budget}"
    );
    println!(
        "the byte-budgeted cache stays within {} by construction (reservation before \
         admission); the entry-count cache keeps whatever {} residents are hot, \
         whatever they weigh",
        format_bytes(byte_budget),
        entry_budget,
    );

    // The precision ladder on the host path: the same Zipf
    // diffusion-dominated workload, scored at each rung. Three measured
    // claims, each recorded in BENCH_fig5.json:
    //   1. a narrower rung (f32 or q16) runs the per-ball diffusion
    //      >= 1.2x faster than the exact f64 pipeline;
    //   2. the compact form the cache keeps takes >= 1.5x fewer bytes
    //      than the full sub-graphs of the same balls;
    //   3. quantized end-to-end rankings keep precision@200 >= 0.95
    //      against the exact-f64 staged baseline.
    println!();
    println!("== precision ladder: quantized diffusion on Zipf-seeded diffusion-bound balls ==");
    // Score width only matters once the dense score arrays outgrow the
    // fast caches — citeseer's 3.3k-node balls fit in L1 at any width,
    // so the rung timing uses a scale-free graph whose stage-one balls
    // are genuinely diffusion-bound (tens of thousands of nodes, within
    // the compact store's u16 local-id cap), seeded Zipf like the cache
    // sections above.
    let ladder_g = barabasi_albert(60_000, 8, 47).expect("ladder graph");
    let mut zipf_seeds = sample_zipf_queries(&ladder_g, 8, 64, 1.0, 47);
    zipf_seeds.sort_unstable();
    zipf_seeds.dedup();
    let ladder_subs: Vec<Subgraph> = zipf_seeds
        .iter()
        .map(|&s| {
            let ball = bfs_ball(&ladder_g, s, L1 as u32).expect("bfs");
            Subgraph::extract(&ladder_g, &ball).expect("extract")
        })
        .collect();
    let ladder_nodes: f64 = ladder_subs
        .iter()
        .map(|s| s.num_nodes() as f64)
        .sum::<f64>()
        / ladder_subs.len().max(1) as f64;
    println!(
        "ladder working set: {} Zipf balls, avg {ladder_nodes:.0} nodes each \
         (scale-free |V|=60k, m=8, depth {L1})",
        ladder_subs.len()
    );
    // The cached ladder executes over the reduced-width resident form;
    // every ball here fits the u16 local-id space (<= 65 536 nodes).
    let compacts: Vec<CompactBall> = ladder_subs
        .iter()
        .map(|sub| CompactBall::from_subgraph(sub).expect("compact ball"))
        .collect();
    let config = DiffusionConfig::new(alpha, L1).expect("config");
    let rounds = 8usize;
    let diffusions = (rounds * ladder_subs.len()) as f64;

    let mut out = DiffusionScratch::new();
    // Ball-major timing: each ball gets its rounds back-to-back, the
    // way Zipf traffic re-diffuses a hot resident ball (the shared
    // cache above serves ~90 % of lookups without a BFS). The first,
    // untimed visit per ball sizes scratch and faults the adjacency in.
    // Best-of-3 trials filters scheduler noise out of the floor check.
    let mut time_rung = |run: &mut dyn FnMut(usize, &mut DiffusionScratch)| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut total = 0.0f64;
            for i in 0..ladder_subs.len() {
                run(i, &mut out);
                let started = Instant::now();
                for _ in 0..rounds {
                    run(i, &mut out);
                }
                total += started.elapsed().as_secs_f64();
            }
            best = best.min(total * 1e9 / diffusions);
        }
        best
    };
    // The pre-ladder baseline: the legacy frontier-sparse f64 kernel on
    // the full Subgraph (what uncached Exact64 executes).
    let sparse_ns = time_rung(&mut |i, out| {
        let sub = &ladder_subs[i];
        diffuse_into(sub, &[(sub.seed_local(), 1.0)], config, out).expect("diffusion");
    });
    // The ladder rungs, all over the compact resident form: Exact64 runs
    // the same sparse kernel as above (bit-identical on either ball
    // form), the narrow rungs the dense quantized kernel.
    let compact_ns = time_rung(&mut |i, out| {
        let b = &compacts[i];
        diffuse_into(b, &[(b.seed_local(), 1.0)], config, out).expect("diffusion");
    });
    let mut qs32 = QuantScratch::<f32>::default();
    let f32_ns = time_rung(&mut |i, out| {
        let b = &compacts[i];
        diffuse_quantized::<f32, _>(b, &[(b.seed_local(), 1.0)], config, (), &mut qs32, out)
            .expect("diffusion");
    });
    let mut qsfx = QuantScratch::<Qu32>::default();
    let q16_ns = time_rung(&mut |i, out| {
        let b = &compacts[i];
        diffuse_quantized::<Qu32, _>(
            b,
            &[(b.seed_local(), 1.0)],
            config,
            QCtx::new(16),
            &mut qsfx,
            out,
        )
        .expect("diffusion");
    });
    // Four rows: `exact/sparse` is Exact64 on a full-store ball and
    // `exact/compact` the same kernel on the compact form (a cold-tier or
    // compact-store resident), isolating the storage change; `f32` and
    // `q16` are the narrow rungs the router degrades to.
    let ladder_ns = [
        ("exact/sparse", sparse_ns),
        ("exact/compact", compact_ns),
        ("f32", f32_ns),
        ("q16", q16_ns),
    ];
    let mut ladder_table = TextTable::new(vec!["rung", "ns/diffusion", "speedup vs exact"]);
    for (label, ns) in ladder_ns {
        ladder_table.row(vec![
            label.into(),
            format!("{ns:.0}"),
            format!("{:.2}x", sparse_ns / ns),
        ]);
    }
    ladder_table.print();
    let best_speedup = (sparse_ns / f32_ns).max(sparse_ns / q16_ns);
    println!(
        "best narrow rung: {:.2}x the exact-f64 pipeline over {} Zipf balls x {} rounds \
         (the router's actual trade: full-store sparse f64 vs compact-store narrow scores)",
        best_speedup,
        ladder_subs.len(),
        rounds,
    );
    // Wall-clock claims only hold with optimizations; debug builds run
    // the section for coverage without enforcing the floors.
    #[cfg(not(debug_assertions))]
    {
        assert!(
            best_speedup >= 1.2,
            "precision ladder speedup regressed: best narrow rung is {best_speedup:.2}x \
             (need >= 1.2x vs the exact-f64 pipeline)"
        );
        // On the same compact balls, the best narrow rung may not run
        // slower than the exact rung either (2 % tolerance for
        // scheduler noise).
        let narrow_ns = f32_ns.min(q16_ns);
        assert!(
            narrow_ns <= compact_ns * 1.02,
            "narrow scores regressed vs the exact rung on the same balls: \
             {narrow_ns:.0} ns vs {compact_ns:.0} ns"
        );
    }

    // Claim 2: density of the compact form the cache keeps, against
    // the full sub-graphs of the same balls — how many more balls one
    // byte budget holds.
    let full_bytes: usize = ladder_subs
        .iter()
        .map(|sub| sub.memory_bytes().total())
        .sum();
    let compact_bytes: usize = compacts.iter().map(CompactBall::memory_bytes_total).sum();
    let density = full_bytes as f64 / compact_bytes.max(1) as f64;
    println!(
        "ball density over the same {} balls: full {}, compact {} ({:.2}x)",
        ladder_subs.len(),
        format_bytes(full_bytes),
        format_bytes(compact_bytes),
        density,
    );
    assert!(
        density >= 1.5,
        "compact ball form regressed: {compact_bytes} bytes vs {full_bytes} full \
         ({density:.2}x, need >= 1.5x over the same balls)"
    );

    // Claim 3: end-to-end quantized rankings against the exact-f64
    // staged baseline, top-200.
    let ppr200 = PprParams::new(alpha, 6, 200).expect("params");
    let staged200 = MelopprParams {
        ppr: ppr200,
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let floor_backend = Meloppr::new(g, staged200).expect("backend");
    let floor_seeds = sample_hub_seeds(g, 3);
    let mut floors = [
        ("f32", PrecisionClass::Fast32, 1.0f64),
        ("q16", PrecisionClass::Fixed(16), 1.0f64),
    ];
    for &seed in &floor_seeds {
        let exact = floor_backend
            .query(&QueryRequest::new(seed))
            .expect("exact query")
            .ranking;
        for (_, class, worst) in floors.iter_mut() {
            let outcome = floor_backend
                .query(&QueryRequest::new(seed).with_precision(*class))
                .expect("quantized query");
            assert_eq!(outcome.stats.precision_class, *class);
            let p = precision_at_k(&outcome.ranking, &exact, 200);
            *worst = worst.min(p);
        }
    }
    for (label, _, worst) in &floors {
        println!(
            "precision@200 floor ({label} vs exact, {} hub seeds): {worst:.4}",
            floor_seeds.len()
        );
        assert!(
            *worst >= 0.95,
            "{label} rung dropped below the precision floor: {worst:.4} < 0.95"
        );
    }

    // Machine-readable mirror of everything above.
    let json = render_json(
        &corpus.label(),
        g.num_nodes(),
        g.num_edges(),
        cpu_ms,
        &fpga_rows,
        &ladder_ns,
        ladder_subs.len(),
        full_bytes,
        compact_bytes,
        &floors,
    );
    const REPORT: &str = "BENCH_fig5.json";
    std::fs::write(REPORT, json).expect("write BENCH_fig5.json");
    println!();
    println!("machine-readable report written to {REPORT}");

    // Beyond-RAM scale: the persisted ball index as a cold tier below a
    // byte-budgeted cache capped at ¼ of the summed ball bytes. The same
    // Zipf traffic is served twice under the *same* budget — RAM-only
    // (misses re-extract by BFS) and tiered (misses read the index) —
    // and the win is counted in deterministic BFS extractions. A
    // latency probe then places the three serving paths: a cold hit
    // must sit strictly between a RAM hit and a BFS miss.
    println!();
    println!("== beyond-RAM: persisted ball index under a quarter-budget cache, Zipf traffic ==");
    let tiered_params = MelopprParams {
        ppr: PprParams::new(alpha, 6, 20).expect("params"),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.05),
        ..MelopprParams::paper_defaults()
    };
    let index_path =
        std::env::temp_dir().join(format!("meloppr-fig5-{}.ballidx", std::process::id()));
    let build_started = Instant::now();
    let report = build_index(g, L1 as u32, &index_path).expect("build ball index");
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    let quarter_budget = (report.ball_bytes / 4).max(1);
    println!(
        "index: {} balls ({} skipped) at depth {L1}, {} ball bytes, {} on disk, \
         built in {build_ms:.0} ms",
        report.nodes_indexed,
        report.nodes_skipped,
        format_bytes(report.ball_bytes),
        format_bytes(report.file_bytes as usize),
    );
    println!(
        "cache byte budget: {} (¼ of the summed ball bytes)",
        format_bytes(quarter_budget)
    );

    let mix = sample_zipf_queries(g, queries, 64, 1.0, 48);
    let reqs: Vec<QueryRequest> = mix.iter().map(|&s| QueryRequest::new(s)).collect();

    let ram_cache = Arc::new(ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(
        quarter_budget,
    )));
    let ram_backend = Meloppr::new(g, tiered_params.clone())
        .expect("backend")
        .with_shared_cache(Arc::clone(&ram_cache));
    let ram_batch = executor.run(&ram_backend, &reqs).expect("ram-only batch");
    let ram_delta = ram_batch.stats.cache.expect("cache stats");

    let index = Arc::new(BallIndex::open(&index_path).expect("open ball index"));
    let tiered_cache = Arc::new(
        ConcurrentSubgraphCache::with_budget(CacheBudget::bytes(quarter_budget))
            .with_cold_tier(Arc::clone(&index)),
    );
    let tiered_backend = Meloppr::new(g, tiered_params)
        .expect("backend")
        .with_shared_cache(Arc::clone(&tiered_cache));
    let tiered_batch = executor.run(&tiered_backend, &reqs).expect("tiered batch");
    let tiered_delta = tiered_batch.stats.cache.expect("cache stats");
    assert_eq!(
        ram_batch
            .outcomes
            .iter()
            .map(|o| &o.ranking)
            .collect::<Vec<_>>(),
        tiered_batch
            .outcomes
            .iter()
            .map(|o| &o.ranking)
            .collect::<Vec<_>>(),
        "the cold tier must not change rankings"
    );

    let mut tier_table = TextTable::new(vec![
        "store",
        "bfs extractions",
        "cold hits",
        "cold read",
        "fallbacks",
        "hit rate",
    ]);
    tier_table.row(vec![
        "RAM-only".into(),
        ram_delta.extractions.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.0}%", ram_delta.hit_rate() * 100.0),
    ]);
    tier_table.row(vec![
        "tiered".into(),
        tiered_delta.extractions.to_string(),
        tiered_delta.cold_hits.to_string(),
        format_bytes(tiered_delta.cold_bytes_read as usize),
        tiered_delta.cold_fallbacks.to_string(),
        format!("{:.0}%", tiered_delta.hit_rate() * 100.0),
    ]);
    tier_table.print();
    let extraction_drop = ram_delta.extractions as f64 / tiered_delta.extractions.max(1) as f64;
    println!(
        "warm-traffic BFS extractions: {} RAM-only vs {} tiered ({extraction_drop:.1}x fewer)",
        ram_delta.extractions, tiered_delta.extractions,
    );
    // Deterministic work counters, not wall clock: enforced in every
    // build profile.
    assert!(
        ram_delta.extractions >= 4 * tiered_delta.extractions.max(1),
        "tiered store saved too little: {} RAM-only extractions vs {} tiered \
         (need >= 4x fewer)",
        ram_delta.extractions,
        tiered_delta.extractions,
    );

    // Latency probe: median ns per serving path over the hot seeds.
    // RAM hit — a resident ball through the cache's lookup; cold hit —
    // one positioned read + decode (what a tiered miss costs: the
    // decoded compact ball is what the cache serves); BFS miss — live
    // extraction from the full graph.
    let probe_nodes: Vec<u32> = mix.iter().take(16).copied().collect();
    let reps = 32usize;
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut scratch = meloppr_graph::ExtractScratch::default();
    let mut cold_buf = Vec::new();
    let probe_cache = ConcurrentSubgraphCache::new(probe_nodes.len() * 2);
    let probe_consumer = CacheConsumer::new(64);
    for &node in &probe_nodes {
        probe_cache
            .warm_with(g, node, L1 as u32, &mut scratch)
            .expect("warm probe ball");
    }
    let mut ram_ns = Vec::new();
    let mut cold_ns = Vec::new();
    let mut bfs_ns = Vec::new();
    for _ in 0..reps {
        for &node in &probe_nodes {
            let started = Instant::now();
            probe_cache
                .get_ball_with_as(
                    g,
                    node,
                    L1 as u32,
                    &mut scratch,
                    &mut cold_buf,
                    &probe_consumer,
                )
                .expect("ram hit");
            ram_ns.push(started.elapsed().as_secs_f64() * 1e9);

            let started = Instant::now();
            let ball = index
                .read_ball(node, L1 as u32, &mut cold_buf)
                .expect("cold read")
                .expect("indexed ball");
            cold_ns.push(started.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(ball);

            let started = Instant::now();
            let ball = bfs_ball(g, node, L1 as u32).expect("bfs");
            let sub = Subgraph::extract(g, &ball).expect("extract");
            bfs_ns.push(started.elapsed().as_secs_f64() * 1e9);
            std::hint::black_box(sub);
        }
    }
    let (ram_hit_ns, cold_hit_ns, bfs_miss_ns) = (median(ram_ns), median(cold_ns), median(bfs_ns));
    println!(
        "serving latency (median over {} probes x {reps}): RAM hit {ram_hit_ns:.0} ns, \
         cold hit {cold_hit_ns:.0} ns, BFS miss {bfs_miss_ns:.0} ns",
        probe_nodes.len()
    );
    // Wall-clock ordering only holds with optimizations; debug builds
    // run the probe for coverage without enforcing it.
    #[cfg(not(debug_assertions))]
    assert!(
        ram_hit_ns < cold_hit_ns && cold_hit_ns < bfs_miss_ns,
        "cold-hit latency must sit strictly between a RAM hit and a BFS miss: \
         {ram_hit_ns:.0} / {cold_hit_ns:.0} / {bfs_miss_ns:.0} ns"
    );

    let tiered_json = render_tiered_json(
        &corpus.label(),
        g.num_nodes(),
        g.num_edges(),
        &report,
        build_ms,
        quarter_budget,
        reqs.len(),
        (ram_delta.extractions, ram_delta.hit_rate()),
        &tiered_delta,
        (ram_hit_ns, cold_hit_ns, bfs_miss_ns),
    );
    const TIERED_REPORT: &str = "BENCH_tiered.json";
    std::fs::write(TIERED_REPORT, tiered_json).expect("write BENCH_tiered.json");
    println!("machine-readable report written to {TIERED_REPORT}");
    let _ = std::fs::remove_file(&index_path);
}

/// Renders the figure's machine-readable report. Hand-rolled writer —
/// the workspace deliberately carries no serde; every value is a plain
/// number or an ASCII label, so escaping is a non-issue.
#[allow(clippy::too_many_arguments)]
fn render_json(
    graph_label: &str,
    nodes: usize,
    edges: usize,
    cpu_ms: f64,
    fpga_rows: &[(usize, f64, f64, f64, f64)],
    ladder_ns: &[(&str, f64)],
    balls: usize,
    full_bytes: usize,
    compact_bytes: usize,
    floors: &[(&str, PrecisionClass, f64)],
) -> String {
    // Speedups are relative to the pre-ladder exact pipeline (sparse
    // f64 over full-store balls — what Exact64 executes).
    let exact_ns = ladder_ns
        .iter()
        .find(|(label, _)| *label == "exact/sparse")
        .map(|&(_, ns)| ns)
        .unwrap_or(f64::NAN);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"fig5_scalability\",\n");
    out.push_str(&format!(
        "  \"graph\": {{\"label\": \"{graph_label}\", \"nodes\": {nodes}, \"edges\": {edges}}},\n"
    ));
    out.push_str(&format!("  \"cpu_diffusion_ms\": {cpu_ms:.6},\n"));
    out.push_str("  \"fpga_scalability\": [\n");
    for (i, (p, total, sched, diff, dm)) in fpga_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"parallelism\": {p}, \"total_ms\": {total:.6}, \"scheduling_ms\": \
             {sched:.6}, \"diffusion_ms\": {diff:.6}, \"data_movement_ms\": {dm:.6}}}{}\n",
            if i + 1 < fpga_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"precision_ladder\": {\n");
    out.push_str("    \"diffusion\": [\n");
    for (i, (label, ns)) in ladder_ns.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"class\": \"{label}\", \"ns_per_diffusion\": {ns:.1}, \
             \"speedup_vs_exact\": {:.4}}}{}\n",
            exact_ns / ns,
            if i + 1 < ladder_ns.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"ball_density\": {{\"balls\": {balls}, \"full_bytes\": {full_bytes}, \
         \"compact_bytes\": {compact_bytes}, \"ratio\": {:.4}}},\n",
        full_bytes as f64 / compact_bytes.max(1) as f64
    ));
    out.push_str("    \"precision_at_200_floors\": [\n");
    for (i, (label, _, worst)) in floors.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"class\": \"{label}\", \"min_precision_at_200\": {worst:.6}}}{}\n",
            if i + 1 < floors.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Renders the beyond-RAM section's machine-readable report
/// (`BENCH_tiered.json`). Same hand-rolled writer as [`render_json`].
#[allow(clippy::too_many_arguments)]
fn render_tiered_json(
    graph_label: &str,
    nodes: usize,
    edges: usize,
    report: &IndexBuildReport,
    build_ms: f64,
    byte_budget: usize,
    queries: usize,
    ram_only: (u64, f64),
    tiered: &ConsumerStats,
    latency_ns: (f64, f64, f64),
) -> String {
    let (ram_extractions, ram_hit_rate) = ram_only;
    let (ram_hit_ns, cold_hit_ns, bfs_miss_ns) = latency_ns;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"fig5_tiered_ball_store\",\n");
    out.push_str(&format!(
        "  \"graph\": {{\"label\": \"{graph_label}\", \"nodes\": {nodes}, \"edges\": {edges}}},\n"
    ));
    out.push_str(&format!(
        "  \"index\": {{\"depth\": {L1}, \"nodes_indexed\": {}, \"nodes_skipped\": {}, \
         \"ball_bytes\": {}, \"file_bytes\": {}, \"build_ms\": {build_ms:.3}}},\n",
        report.nodes_indexed, report.nodes_skipped, report.ball_bytes, report.file_bytes,
    ));
    out.push_str(&format!(
        "  \"cache_byte_budget\": {byte_budget},\n  \"zipf_queries\": {queries},\n"
    ));
    out.push_str(&format!(
        "  \"ram_only\": {{\"bfs_extractions\": {ram_extractions}, \"hit_rate\": \
         {ram_hit_rate:.4}}},\n"
    ));
    out.push_str(&format!(
        "  \"tiered\": {{\"bfs_extractions\": {}, \"cold_hits\": {}, \"cold_bytes_read\": {}, \
         \"cold_fallbacks\": {}, \"hit_rate\": {:.4}}},\n",
        tiered.extractions,
        tiered.cold_hits,
        tiered.cold_bytes_read,
        tiered.cold_fallbacks,
        tiered.hit_rate(),
    ));
    out.push_str(&format!(
        "  \"extraction_drop\": {:.4},\n",
        ram_extractions as f64 / tiered.extractions.max(1) as f64
    ));
    out.push_str(&format!(
        "  \"latency_ns\": {{\"ram_hit\": {ram_hit_ns:.1}, \"cold_hit\": {cold_hit_ns:.1}, \
         \"bfs_miss\": {bfs_miss_ns:.1}}}\n"
    ));
    out.push_str("}\n");
    out
}
