//! Per-layer replays of the traced run.
//!
//! They run after serving has stopped, outside every timed phase, and
//! call each layer's public functions directly on inputs the run itself
//! produced: its request and response frames, the trace's distinct seeds
//! and their stage-1 balls.

use std::hint::black_box;
use std::time::Instant;

use meloppr::backend::{ExactPower, PprBackend, QueryRequest};
use meloppr::core::diffusion::{diffuse_into, DiffusionConfig, DiffusionScratch};
use meloppr::core::quantized::{diffuse_quantized, QCtx, Qu32, QuantScratch};
use meloppr::graph::{bfs_ball, CsrGraph, NodeId, Subgraph};
use meloppr::server::{Request, Response};
use meloppr::BallIndex;

use crate::workload::{ppr_params, INDEX_DEPTH};

/// Passes over the frames, so the protocol figures time milliseconds of
/// work rather than a few microseconds.
const PROTOCOL_PASSES: usize = 20;
/// Passes over the balls for the kernel and extraction figures.
const BALL_PASSES: usize = 3;

/// One diffusion kernel over a ball and its seed mass; returns the edge
/// updates it performed.
type Kernel<'a> = dyn FnMut(&Subgraph, &[(NodeId, f64)]) -> usize + 'a;

/// Mean microseconds per [`Request::parse`] over the run's request
/// frames.
pub fn parse_us(frames: &[String]) -> f64 {
    let started = Instant::now();
    for _ in 0..PROTOCOL_PASSES {
        for frame in frames {
            black_box(Request::parse(black_box(frame)).is_ok());
        }
    }
    per_item_us(started, frames.len())
}

/// Mean microseconds per [`Response::encode`] over the run's OK frames.
pub fn encode_us(responses: &[&Response]) -> f64 {
    let started = Instant::now();
    for _ in 0..PROTOCOL_PASSES {
        for response in responses {
            black_box(black_box(response).encode());
        }
    }
    per_item_us(started, responses.len())
}

fn per_item_us(started: Instant, items: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / (PROTOCOL_PASSES * items).max(1) as f64
}

/// Nanoseconds per unit of work for each replayed kernel.
#[derive(Debug, Default)]
pub struct Kernels {
    /// `bfs_ball` + `Subgraph::extract`, per adjacency entry scanned.
    pub extract_ns_per_edge: f64,
    /// Sparse `f64` `diffuse_into`, per edge update.
    pub exact_ns_per_edge: f64,
    /// Dense `f32` `diffuse_quantized`, per edge update.
    pub f32_ns_per_edge: f64,
    /// Dense Q16 `diffuse_quantized`, per edge update.
    pub q16_ns_per_edge: f64,
}

/// Replays extraction and the three diffusion kernels over the depth-3
/// (stage-1) balls around `seeds`.
pub fn kernels(g: &CsrGraph, seeds: &[NodeId], alpha: f64) -> Kernels {
    let config = DiffusionConfig {
        alpha,
        iterations: INDEX_DEPTH as usize,
    };
    let (mut extract_ns, mut scanned) = (0u128, 0usize);
    let mut balls = Vec::with_capacity(seeds.len());
    for pass in 0..BALL_PASSES {
        for &seed in seeds {
            let started = Instant::now();
            let ball = bfs_ball(g, seed, INDEX_DEPTH).expect("seeds are graph nodes");
            let sub = Subgraph::extract(g, &ball).expect("a BFS ball extracts");
            extract_ns += started.elapsed().as_nanos();
            scanned += ball.edges_scanned;
            if pass == 0 {
                balls.push(sub);
            } else {
                black_box(sub);
            }
        }
    }
    let mut out = DiffusionScratch::new();
    let mut f32s = QuantScratch::<f32>::default();
    let mut q16s = QuantScratch::<Qu32>::default();
    let q16 = QCtx::new(16);
    let time = |run: &mut Kernel| {
        let (mut ns, mut edges) = (0u128, 0usize);
        for _ in 0..BALL_PASSES {
            for sub in &balls {
                let init = [(sub.seed_local(), 1.0)];
                let started = Instant::now();
                edges += run(sub, &init);
                ns += started.elapsed().as_nanos();
            }
        }
        ns as f64 / edges.max(1) as f64
    };
    let exact = time(&mut |sub, init| {
        let work = diffuse_into(sub, init, config, &mut out).expect("valid diffusion");
        black_box(out.accumulated());
        work.edge_updates
    });
    let f32_ns = time(&mut |sub, init| {
        let work = diffuse_quantized::<f32, _>(sub, init, config, (), &mut f32s, &mut out)
            .expect("valid diffusion");
        black_box(out.accumulated());
        work.edge_updates
    });
    let q16_ns = time(&mut |sub, init| {
        let work = diffuse_quantized::<Qu32, _>(sub, init, config, q16, &mut q16s, &mut out)
            .expect("valid diffusion");
        black_box(out.accumulated());
        work.edge_updates
    });
    Kernels {
        extract_ns_per_edge: extract_ns as f64 / scanned.max(1) as f64,
        exact_ns_per_edge: exact,
        f32_ns_per_edge: f32_ns,
        q16_ns_per_edge: q16_ns,
    }
}

/// Median milliseconds per [`ExactPower`] query (`PprBackend::query`,
/// which reuses the backend's pooled workspace as the server does) over
/// `seeds`, on a backend built as `meloppr-serve` registers it. No
/// workload's traffic reaches this solver: it ties local-ppr at
/// precision 1.0 and needs more memory, so only calibrated latency
/// could route to it, and a route chosen by timing would differ between
/// the untraced and the traced run.
pub fn exact_power_ms(g: &CsrGraph, seeds: &[NodeId]) -> f64 {
    let backend = ExactPower::new(g, ppr_params()).expect("the fixed PPR parameters are valid");
    let mut ms = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let req = QueryRequest::new(seed);
        let started = Instant::now();
        black_box(backend.query(&req).expect("seeds are graph nodes"));
        ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    crate::quantile(&mut ms, 0.5)
}

/// Mean microseconds per [`BallIndex::read_ball`] (one positioned read
/// plus decode) over the depth-3 balls around `seeds`.
pub fn read_us_per_ball(index: &BallIndex, seeds: &[NodeId]) -> f64 {
    let mut buf = Vec::new();
    let mut reads = 0usize;
    let started = Instant::now();
    for _ in 0..BALL_PASSES {
        for &seed in seeds {
            if let Ok(Some(ball)) = index.read_ball(seed, INDEX_DEPTH, &mut buf) {
                black_box(ball);
                reads += 1;
            }
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / reads.max(1) as f64
}
