//! Criterion end-to-end query benchmarks: baseline vs MeLoPPR vs the
//! simulated hybrid platform, native Rust wall-clock, all driven through
//! the unified `PprBackend` API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use meloppr_bench::sample_seeds;
use meloppr_core::backend::{LocalPpr, Meloppr, PprBackend, QueryRequest};
use meloppr_core::{MelopprParams, PprParams, SelectionStrategy};
use meloppr_fpga::{FpgaHybrid, HybridConfig};
use meloppr_graph::generators::corpus::PaperGraph;

fn params() -> MelopprParams {
    MelopprParams {
        ppr: PprParams::new(0.85, 6, 200).unwrap(),
        stages: vec![3, 3],
        selection: SelectionStrategy::TopFraction(0.02),
        ..MelopprParams::paper_defaults()
    }
}

fn bench_query_engines(c: &mut Criterion) {
    let g = PaperGraph::G2Cora.generate(42).unwrap();
    let seed = sample_seeds(&g, 1, 3)[0];
    let p = params();
    let req = QueryRequest::new(seed);

    let mut group = c.benchmark_group("query_cora");
    group.sample_size(30);
    let baseline = LocalPpr::new(&g, p.ppr).unwrap();
    group.bench_function("local_ppr_baseline", |b| {
        b.iter(|| baseline.query(black_box(&req)).unwrap());
    });
    let engine = Meloppr::new(&g, p.clone()).unwrap();
    group.bench_function("meloppr_sequential", |b| {
        b.iter(|| engine.query(black_box(&req)).unwrap());
    });
    let hybrid = FpgaHybrid::new(&g, p.clone(), HybridConfig::default()).unwrap();
    group.bench_function("hybrid_fpga_sim", |b| {
        b.iter(|| hybrid.query(black_box(&req)).unwrap());
    });
    group.finish();
}

fn bench_selection_ratios(c: &mut Criterion) {
    let g = PaperGraph::G1Citeseer.generate(42).unwrap();
    let seed = sample_seeds(&g, 1, 5)[0];
    let req = QueryRequest::new(seed);
    let mut group = c.benchmark_group("meloppr_vs_ratio");
    group.sample_size(20);
    for ratio in [0.01f64, 0.05, 0.2] {
        let p = params().with_selection(SelectionStrategy::TopFraction(ratio));
        let backend = Meloppr::new(&g, p).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}pct", (ratio * 100.0) as u32)),
            &backend,
            |b, backend| {
                b.iter(|| backend.query(black_box(&req)).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_query_engines, bench_selection_ratios);
criterion_main!(benches);
