//! The traced run's timing decorator.
//!
//! [`Timed`] wraps a registered backend and implements the public
//! [`PprBackend`] trait by forwarding every method, so pooled
//! workspaces, the shared cache and cache-consumer attribution are the
//! wrapped backend's own. It times `estimate` and `query_with` and keeps
//! each served query's duration and work counts in storage allocated
//! before serving starts. Only the traced run registers it; the
//! untraced run that yields the end-to-end metrics serves the bare
//! backends.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use meloppr::backend::{
    BackendCaps, BackendKind, CostEstimate, PprBackend, QueryOutcome, QueryRequest,
};
use meloppr::core::Result;
use meloppr::{
    CacheConsumer, ConcurrentSubgraphCache, PrecisionClass, QueryWorkspace, WorkspacePool,
};

/// Service records kept per run; more than any phase serves.
const SERVICE_SLOTS: usize = 1 << 17;

/// One served query as the decorator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    /// Which solver served it.
    pub kind: BackendKind,
    /// Time inside `query_with`, nanoseconds.
    pub ns: u64,
    /// Diffusions run.
    pub diffusions: usize,
    /// Diffusion edge updates.
    pub diffusion_edges: usize,
    /// BFS adjacency entries scanned.
    pub bfs_edges: usize,
    /// The rung the query executed at.
    pub precision: PrecisionClass,
    /// Whether the plan had to shrink below full depth.
    pub memory_limited: bool,
    /// Largest single-task working set, bytes.
    pub peak_task_bytes: usize,
}

/// Where the decorators of one router record. Recording is off until
/// [`Recorder::set_recording`] turns it on, so set-up and warm-up
/// queries stay out of the figures.
#[derive(Debug)]
pub struct Recorder {
    recording: AtomicBool,
    estimate_calls: AtomicU64,
    estimate_ns: AtomicU64,
    services: Mutex<Vec<Service>>,
}

impl Recorder {
    /// An idle recorder with its service storage preallocated.
    pub fn new() -> Self {
        Recorder {
            recording: AtomicBool::new(false),
            estimate_calls: AtomicU64::new(0),
            estimate_ns: AtomicU64::new(0),
            services: Mutex::new(Vec::with_capacity(SERVICE_SLOTS)),
        }
    }

    /// Starts or stops recording.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// `estimate` calls recorded and the nanoseconds spent in them.
    pub fn estimates(&self) -> (u64, u64) {
        (
            self.estimate_calls.load(Ordering::Relaxed),
            self.estimate_ns.load(Ordering::Relaxed),
        )
    }

    /// The recorded services, in completion order.
    pub fn services(&self) -> Vec<Service> {
        self.services
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A backend behind the timing decorator.
pub struct Timed<'g> {
    inner: Box<dyn PprBackend + Sync + 'g>,
    rec: std::sync::Arc<Recorder>,
}

impl<'g> Timed<'g> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn PprBackend + Sync + 'g>, rec: std::sync::Arc<Recorder>) -> Self {
        Timed { inner, rec }
    }
}

impl PprBackend for Timed<'_> {
    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn prepare(&mut self) -> Result<()> {
        self.inner.prepare()
    }

    fn estimate(&self, req: &QueryRequest) -> Result<CostEstimate> {
        let started = Instant::now();
        let estimate = self.inner.estimate(req);
        if self.rec.recording() {
            let ns = started.elapsed().as_nanos() as u64;
            self.rec.estimate_calls.fetch_add(1, Ordering::Relaxed);
            self.rec.estimate_ns.fetch_add(ns, Ordering::Relaxed);
        }
        estimate
    }

    fn query_with(&self, req: &QueryRequest, ws: &mut QueryWorkspace) -> Result<QueryOutcome> {
        let started = Instant::now();
        let outcome = self.inner.query_with(req, ws);
        let ns = started.elapsed().as_nanos() as u64;
        if let (true, Ok(out)) = (self.rec.recording(), &outcome) {
            let s = &out.stats;
            let service = Service {
                kind: s.backend,
                ns,
                diffusions: s.total_diffusions,
                diffusion_edges: s.diffusion_edge_updates,
                bfs_edges: s.bfs_edges_scanned,
                precision: s.precision_class,
                memory_limited: s.memory_limited,
                peak_task_bytes: s.peak_task_memory_bytes,
            };
            let mut services = self
                .rec
                .services
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Never grow past the preallocation: recording must not
            // allocate on the serving path.
            if services.len() < services.capacity() {
                services.push(service);
            }
        }
        outcome
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool> {
        self.inner.workspace_pool()
    }

    fn shared_cache(&self) -> Option<&ConcurrentSubgraphCache> {
        self.inner.shared_cache()
    }

    fn cache_consumer(&self) -> Option<&CacheConsumer> {
        self.inner.cache_consumer()
    }
}
