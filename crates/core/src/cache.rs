//! Sub-graph caching for repeated queries ("adaptively loading only the
//! necessary sub-graphs", §IV-A) — one concurrent core, governed by
//! **byte-denominated budgets**.
//!
//! A PPR server answers many queries against the same graph, and popular
//! next-stage nodes (hubs) recur across queries. Re-running BFS + induced
//! extraction for them is the dominant host cost (Fig. 7's light-blue
//! bars). Under skewed real traffic the *same* hub balls recur across
//! concurrent queries too, so extracted state is most valuable when it is
//! shared by every worker serving the batch. One cache lives here:
//! [`ConcurrentSubgraphCache`], a sharded, lock-striped map designed for
//! N batch workers hammering it at once. Every cached staged query goes
//! through it, whether one engine serves queries sequentially or a
//! worker pool shares it.
//!
//! # Two resident forms: balls and stage results
//!
//! **Balls.** A [`CachedBall`] keyed by `(node, depth)`: the BFS ball a
//! stage task diffuses on. Every ball that fits `u16` local ids is kept
//! as a [`CachedBall::Compact`] (`u16` local adjacency, no global→local
//! map, roughly half the bytes of the full [`Subgraph`]); only balls
//! over 65 536 nodes stay [`CachedBall::Full`]. The kernels diffuse
//! both forms to the same bits at every precision rung, so the form
//! never shows in an answer. A BFS miss still serves its caller the
//! full extraction it just made; the compact copy is what stays.
//!
//! **Stage results.** By the linear decomposition (Eq. 7) a stage task's
//! output is a fixed vector for its node, scaled by the task's weight
//! only afterwards. The staged engine therefore stores each task's
//! *unweighted* output (the Eq. 8-adjusted scores and the selected
//! children's raw residuals) keyed by everything that output depends
//! on: node, diffusion length, whether the stage is the last, precision
//! rung, and α / selection / residual policy. A later task with the same
//! key merges the stored output reweighted by its own weight instead of
//! loading a ball and diffusing it. This is the path of every cached
//! query without a byte budget; budgeted queries (whose balls may be
//! segmented) always diffuse. A result hit counts as one cache hit
//! ([`CacheStats::reuse_hits`] is the subset of hits served this way), so
//! a task costs one lookup whichever form answers it.
//!
//! Both forms share one key space, one [`CacheBudget`], one LRU order
//! and one [`AdmissionPolicy`], and each is charged its measured bytes.
//!
//! # Byte-denominated capacity
//!
//! MELOPPR's claim is *memory*-efficient PPR, so capacity is governed in
//! bytes, not entry counts: a 50k-node hub ball and a 12-node leaf ball
//! are not the same cost. A [`CacheBudget`] bounds resident entries
//! and/or resident bytes (each ball is charged the measured bytes of its
//! resident form, [`CachedBall::memory_bytes_total`], at admission time);
//! both bounds are maintained by **global atomic counters with CAS
//! reservation**, so the cache never exceeds a configured budget — not
//! per shard, not transiently, not under concurrent inserts. (The
//! previous design split the entry budget `ceil(capacity / shards)` per
//! shard, over-admitting by up to `shards - 1` entries; the global
//! counters close that hole.) Admission reserves budget *before* an entry
//! becomes resident, evicting the least-recently-used published entries —
//! across all shards — until the candidate fits; a candidate larger than
//! the whole byte budget is rejected outright (served, never resident).
//!
//! # Concurrent design
//!
//! **Sharding / lock striping.** Entries are spread over independent
//! shards by a multiplicative hash of the key, so workers touching
//! different balls never contend on the same lock. Each shard guards its
//! map with an `RwLock`: the hit path takes only the *shared* read lock,
//! so concurrent hits proceed in parallel; the exclusive write lock is
//! held only to insert a placeholder, publish, or evict — never across an
//! extraction.
//!
//! **Singleflight extraction.** On a miss the first worker installs a
//! pending entry and performs the BFS + induced-CSR extraction *outside
//! any shard lock*; other workers missing on the same key find the
//! placeholder and block on its condvar instead of duplicating the work.
//! When the winner publishes the ball, every waiter receives the same
//! zero-copy [`CachedBall`] (counted as [`CacheStats::shared`]). A hot
//! ball is therefore extracted **once** no matter how many workers race
//! for it — asserted by the concurrent-cache stress tests via the
//! extraction counter.
//!
//! **Approximate recency via per-entry atomics.** Touching an entry
//! stores a global clock stamp into its `AtomicU64` — a CLOCK-style
//! relaxed write that needs no exclusive lock, so the hit path never
//! serializes on recency bookkeeping.
//!
//! **A lazily repaired LRU heap.** A budgeted cache keeps one
//! `(stamp, key)` min-heap under a mutex, with one item per published
//! resident, pushed when the resident is published (after its shard
//! lock is released; the heap mutex is never taken while a shard lock
//! is held). A hit does not touch the heap: it only moves the entry's
//! stamp forward, so an item's stamp may be older than its entry's.
//! Eviction pops the minimum and repairs it lazily: an item whose entry
//! is no longer resident is dropped, an item whose entry carries a newer
//! stamp is pushed back with that stamp, and otherwise the entry is the
//! least recently used resident and is evicted. Every item's stamp is at
//! most its entry's, so the first item that survives the check is the
//! true minimum: eviction keeps the exact `(stamp, key)` order a full
//! scan would give, at `O(log R)` per victim for `R` residents instead
//! of `O(R)` per admission. One global clock orders all shards, so a
//! single-threaded run evicts in strict LRU order whatever the shard
//! count; under concurrency the stamps are approximate, which is exactly
//! the CLOCK trade: cheap hits, near-LRU victims. An unbounded cache
//! never evicts and keeps no heap.
//!
//! # Telemetry: consumers, windows, admission
//!
//! **Global counters.** Hits, shared waits, misses, extractions,
//! evictions and rejected admissions are relaxed atomic increments —
//! cheap enough to leave on in production. They describe the *cache as a
//! whole* and are the right numbers for capacity planning.
//!
//! **Per-consumer attribution.** One cache is typically shared by several
//! independent consumers — two `BatchExecutor`s, a router's staged
//! backend plus a warming job, several backends over the same graph.
//! Global counter deltas cannot tell their traffic apart, so every
//! demand-lookup path also takes a [`CacheConsumer`] handle: a bundle of
//! per-consumer atomic hit/shared/miss/extraction counters
//! ([`ConsumerStats`]) plus two *recency-weighted* hit rates — an EWMA
//! over recent lookups ([`CacheConsumer::decayed_hit_rate`]) and an exact
//! fixed-size sliding window ([`CacheConsumer::windowed_hit_rate`]).
//! The batch executor brackets each batch with *its backend's consumer*
//! delta, so two executors hammering one cache report exactly their own
//! lookups, and the staged backend's `estimate()` discounts predicted
//! BFS by the windowed rate — which tracks traffic shifts within one
//! window instead of staying optimistic on the lifetime average.
//!
//! **Warming.** [`ConcurrentSubgraphCache::warm_with`] pre-extracts a ball
//! without counting a hit or a miss anywhere (only the physical
//! `extractions` counter ticks), so cache warm-up never deflates any
//! consumer's observed hit rate. Warming respects a size-based
//! [`AdmissionPolicy`] budget but bypasses its frequency gate (an
//! explicit warm *is* the admission decision).
//!
//! **Admission control.** A giant one-off ball can evict the hot hub
//! balls that make the cache worthwhile. [`AdmissionPolicy`] decides,
//! after extraction, whether the ball becomes resident: `Always`,
//! `MaxNodes(n)` (never admit balls over `n` nodes), `FrequencyGated(n)`
//! (admit over-budget balls only once their key has been seen at least
//! twice), or the TinyLFU-style `FrequencyVsVictim` (when admission
//! requires an eviction, admit only if the candidate's sketch frequency
//! beats the would-be victim's — following Einziger et al.'s
//! frequency-vs-victim rule, so a cold ball can never displace a hotter
//! resident). Rejected balls are still returned to the caller (and
//! shared with any singleflight waiters) — they just never enter the
//! map, so they can never evict an admitted entry. Rejections are
//! counted in [`CacheStats::rejected_admissions`] and per consumer.
//!
//! # The cold tier: a persisted ball index below RAM
//!
//! A byte-budgeted cache eventually faces graphs whose hot ball set does
//! not fit in RAM at all. Attaching a persisted [`BallIndex`] via
//! [`ConcurrentSubgraphCache::with_cold_tier`] adds a disk tier below the
//! RAM tier: a RAM miss whose `(node, depth)` ball is in the index is
//! served by **one positioned read** (`read_exact_at` into a pooled,
//! caller-owned buffer — no mmap, no `unsafe`), decoded from the compact
//! wire form, served and kept in that form as a [`CachedBall::Compact`]
//! (the kernels diffuse a compact ball to the same bits as the full
//! [`Subgraph`], so disk-served answers stay **bit-identical** to
//! BFS-served ones) and admitted through the same
//! [`AdmissionPolicy`]/[`CacheBudget`] gates as a fresh extraction,
//! charged its compact bytes. Live BFS remains the fallback whenever the
//! index lacks the node or depth, or the read/decode fails — the cold
//! tier is an accelerator, never a correctness dependency. Cold traffic
//! is counted separately ([`CacheStats::cold_hits`],
//! [`CacheStats::cold_bytes_read`], [`CacheStats::cold_fallbacks`], and
//! per consumer) so the staged backend's `estimate()` can price a cold
//! hit between a RAM hit and a BFS miss. The on-disk file format is
//! documented in [`ballindex`](crate::ballindex).
//!
//! Every resident is a [`CachedBall`] behind an [`Arc`], so readers share
//! entries without copying, and hits charge **zero BFS work** — the whole
//! point of caching (the work a lookup reports is the adjacency entries
//! its own BFS scanned: 0 on hits, singleflight shares and cold reads).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

use meloppr_graph::{ExtractScratch, FastHashMap, GraphView, NodeId, Subgraph};

use crate::ballindex::BallIndex;
use crate::error::Result;
use crate::meloppr::{ResultKey, StageResult};
use crate::quantized::CompactBall;

/// Fibonacci multiplier of the shard and sketch hashes.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cache key: what a resident answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CacheKey {
    /// The BFS ball around a seed node at a depth.
    Ball(NodeId, u32),
    /// One stage task's unweighted output.
    Result(ResultKey),
}

impl From<(NodeId, u32)> for CacheKey {
    fn from((node, depth): (NodeId, u32)) -> Self {
        CacheKey::Ball(node, depth)
    }
}

impl CacheKey {
    /// The key's pre-multiply hash word. A ball's is `node << 32 |
    /// depth`; a result folds its remaining fields into the low half.
    fn word(&self) -> u64 {
        match *self {
            CacheKey::Ball(node, depth) => (node as u64) << 32 | depth as u64,
            CacheKey::Result(key) => (key.node as u64) << 32 | key.variant_hash() as u64,
        }
    }
}

/// A resident ball, compact whenever it fits `u16` local ids.
#[derive(Debug, Clone)]
pub enum CachedBall {
    /// The full extracted sub-graph: what a BFS miss serves its caller,
    /// and the resident form of balls over 65 536 nodes.
    Full(Arc<Subgraph>),
    /// The reduced-width representation (see [`CompactBall`]).
    Compact(Arc<CompactBall>),
}

/// What one cache entry holds.
#[derive(Debug)]
enum Resident {
    Ball(CachedBall),
    Result(Arc<StageResult>),
}

impl From<CachedBall> for Resident {
    fn from(ball: CachedBall) -> Self {
        Resident::Ball(ball)
    }
}

impl Resident {
    fn memory_bytes_total(&self) -> usize {
        match self {
            Resident::Ball(ball) => ball.memory_bytes_total(),
            Resident::Result(result) => result.memory_bytes(),
        }
    }
}

impl CachedBall {
    /// Nodes in the ball.
    pub fn num_nodes(&self) -> usize {
        match self {
            CachedBall::Full(sub) => sub.num_nodes(),
            CachedBall::Compact(ball) => ball.global_ids().len(),
        }
    }

    /// Measured heap bytes of this representation — what a byte-budgeted
    /// cache charges the resident.
    pub fn memory_bytes_total(&self) -> usize {
        match self {
            CachedBall::Full(sub) => sub.memory_bytes().total(),
            CachedBall::Compact(ball) => ball.memory_bytes_total(),
        }
    }
}

/// Resident-capacity bounds of a sub-graph cache, denominated in entries
/// and/or **bytes**.
///
/// Every bound set is enforced globally (one atomic counter per bound,
/// reserved before an entry becomes resident), so a budgeted cache never
/// holds more than `entries` residents (balls and stage results
/// together) nor more than `bytes` measured bytes of them — even under
/// concurrent inserts across shards. `None` leaves a dimension
/// unbounded; both `None` is a fully unbounded cache.
///
/// # Examples
///
/// ```
/// use meloppr_core::cache::CacheBudget;
///
/// let b = CacheBudget::bytes(64 << 20).with_entries(4096);
/// assert_eq!(b.bytes, Some(64 << 20));
/// assert_eq!(b.entries, Some(4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Maximum resident entries, `None` = unbounded. The bound counts
    /// balls and stage results together: a stored stage result is one
    /// entry, like a ball.
    pub entries: Option<usize>,
    /// Maximum resident bytes (sum of each resident ball's
    /// [`CachedBall::memory_bytes_total`] — the compact size for compact
    /// residents — and of each stored stage result's arrays), `None` =
    /// unbounded.
    pub bytes: Option<usize>,
}

impl CacheBudget {
    /// A budget with no bounds at all.
    pub fn unbounded() -> Self {
        CacheBudget::default()
    }

    /// An entry-count budget (the legacy denomination).
    pub fn entries(entries: usize) -> Self {
        CacheBudget {
            entries: Some(entries),
            bytes: None,
        }
    }

    /// A byte budget (the paper-faithful denomination).
    pub fn bytes(bytes: usize) -> Self {
        CacheBudget {
            entries: None,
            bytes: Some(bytes),
        }
    }

    /// Adds/overrides the entry bound (builder style).
    #[must_use]
    pub fn with_entries(mut self, entries: usize) -> Self {
        self.entries = Some(entries);
        self
    }

    /// Adds/overrides the byte bound (builder style).
    #[must_use]
    pub fn with_bytes(mut self, bytes: usize) -> Self {
        self.bytes = Some(bytes);
        self
    }
}

/// Snapshot of a [`ConcurrentSubgraphCache`]'s always-on **global**
/// counters.
///
/// Obtained from [`ConcurrentSubgraphCache::stats`]. These describe the
/// cache as a whole; when several consumers share one cache, use each
/// consumer's [`ConsumerStats`] (via [`CacheConsumer::stats`]) for
/// attribution — a global delta mixes every consumer's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served instantly from a resident entry.
    pub hits: u64,
    /// Stage tasks served by a stored stage result instead of a ball and
    /// a diffusion. A subset of `hits`: each is that task's one lookup.
    pub reuse_hits: u64,
    /// Lookups that waited on another worker's in-flight extraction and
    /// shared its result (singleflight losers — no BFS work performed).
    pub shared: u64,
    /// Lookups that performed the extraction themselves.
    pub misses: u64,
    /// Ball extractions actually executed (BFS + induced CSR), including
    /// warm-ups. Equals `misses` in steady state without warming; the
    /// headline number for the "hot balls extracted once" guarantee.
    pub extractions: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Extracted balls the [`AdmissionPolicy`] refused to make resident
    /// (served to the caller, never inserted).
    pub rejected_admissions: u64,
    /// RAM misses served from the cold tier (one positioned index read,
    /// no BFS). A subset of `misses`: every cold hit is still a RAM miss.
    pub cold_hits: u64,
    /// Bytes read from the cold-tier index by those cold hits.
    pub cold_bytes_read: u64,
    /// RAM misses that consulted a configured cold tier and fell back to
    /// live BFS (index lacked the node/depth, or the read/decode failed).
    pub cold_fallbacks: u64,
}

impl CacheStats {
    /// Total lookups observed (warm-ups are not lookups).
    pub fn lookups(&self) -> u64 {
        self.hits + self.shared + self.misses
    }

    /// Fraction of lookups that performed **no** BFS work (hits plus
    /// singleflight shares); 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.shared) as f64 / lookups as f64
    }

    /// Counter deltas accumulated since an `earlier` snapshot.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            reuse_hits: self.reuse_hits.saturating_sub(earlier.reuse_hits),
            shared: self.shared.saturating_sub(earlier.shared),
            misses: self.misses.saturating_sub(earlier.misses),
            extractions: self.extractions.saturating_sub(earlier.extractions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            rejected_admissions: self
                .rejected_admissions
                .saturating_sub(earlier.rejected_admissions),
            cold_hits: self.cold_hits.saturating_sub(earlier.cold_hits),
            cold_bytes_read: self.cold_bytes_read.saturating_sub(earlier.cold_bytes_read),
            cold_fallbacks: self.cold_fallbacks.saturating_sub(earlier.cold_fallbacks),
        }
    }
}

/// Snapshot of one [`CacheConsumer`]'s counters: the lookups *this*
/// consumer issued against a shared cache, and nothing else.
///
/// Two snapshots bracket a batch via [`ConsumerStats::delta_since`] (the
/// batch executor does this automatically for the backend's consumer and
/// reports the delta in its `BatchStats::cache`). Unlike [`CacheStats`],
/// there is no eviction counter — eviction is a cache-global event that
/// cannot be attributed to one consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConsumerStats {
    /// Lookups served instantly from a resident entry.
    pub hits: u64,
    /// This consumer's stage tasks served by a stored stage result (a
    /// subset of `hits`).
    pub reuse_hits: u64,
    /// Lookups that shared another worker's in-flight extraction.
    pub shared: u64,
    /// Lookups that performed the extraction themselves.
    pub misses: u64,
    /// Ball extractions this consumer's lookups executed.
    pub extractions: u64,
    /// Extractions whose ball the [`AdmissionPolicy`] refused to admit.
    pub rejected_admissions: u64,
    /// This consumer's RAM misses served from the cold tier (a subset of
    /// `misses` — no BFS ran, one positioned index read did).
    pub cold_hits: u64,
    /// Bytes this consumer's cold hits read from the index.
    pub cold_bytes_read: u64,
    /// This consumer's RAM misses that consulted the cold tier and fell
    /// back to live BFS.
    pub cold_fallbacks: u64,
}

impl ConsumerStats {
    /// Total lookups this consumer issued.
    pub fn lookups(&self) -> u64 {
        self.hits + self.shared + self.misses
    }

    /// Fraction of this consumer's lookups served without BFS work
    /// (cumulative lifetime average; 0.0 before any lookup). For routing
    /// decisions prefer [`CacheConsumer::windowed_hit_rate`], which
    /// tracks traffic shifts.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.shared) as f64 / lookups as f64
    }

    /// Counter deltas accumulated since an `earlier` snapshot.
    pub fn delta_since(&self, earlier: &ConsumerStats) -> ConsumerStats {
        ConsumerStats {
            hits: self.hits.saturating_sub(earlier.hits),
            reuse_hits: self.reuse_hits.saturating_sub(earlier.reuse_hits),
            shared: self.shared.saturating_sub(earlier.shared),
            misses: self.misses.saturating_sub(earlier.misses),
            extractions: self.extractions.saturating_sub(earlier.extractions),
            rejected_admissions: self
                .rejected_admissions
                .saturating_sub(earlier.rejected_admissions),
            cold_hits: self.cold_hits.saturating_sub(earlier.cold_hits),
            cold_bytes_read: self.cold_bytes_read.saturating_sub(earlier.cold_bytes_read),
            cold_fallbacks: self.cold_fallbacks.saturating_sub(earlier.cold_fallbacks),
        }
    }
}

impl From<CacheStats> for ConsumerStats {
    /// Reinterprets a **global** counter snapshot as consumer-shaped
    /// stats (dropping the eviction counter). Used only as the batch
    /// executor's fallback for backends that expose a shared cache but no
    /// consumer handle — such deltas mix every consumer's traffic.
    fn from(stats: CacheStats) -> Self {
        ConsumerStats {
            hits: stats.hits,
            reuse_hits: stats.reuse_hits,
            shared: stats.shared,
            misses: stats.misses,
            extractions: stats.extractions,
            rejected_admissions: stats.rejected_admissions,
            cold_hits: stats.cold_hits,
            cold_bytes_read: stats.cold_bytes_read,
            cold_fallbacks: stats.cold_fallbacks,
        }
    }
}

/// A [`CacheConsumer`]'s complete persistable state: cumulative
/// attribution counters, the EWMA hit rate, and the sliding window's
/// recent lookup outcomes (oldest first, `true` = served without BFS).
///
/// Exported with [`CacheConsumer::export_state`] and re-applied with
/// [`CacheConsumer::restore_state`], this is what lets a restarted
/// serving process begin with *warm* hit-rate estimates — the staged
/// backend's `estimate()` discounts BFS by the windowed rate, so a cold
/// window makes the router pessimistic about cached backends for a full
/// window after every restart. The on-disk encoding lives in
/// [`backend::persist`](crate::backend::persist).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConsumerState {
    /// Cumulative attribution counters.
    pub stats: ConsumerStats,
    /// The decayed (EWMA) hit rate, `None` before any lookup.
    pub ewma: Option<f64>,
    /// Window outcomes, oldest first (`true` = hit or shared).
    pub window: Vec<bool>,
}

/// Default sliding-window length (lookups) for windowed hit rates.
pub const DEFAULT_HIT_WINDOW: usize = 256;

/// Ring-buffer slot sentinel: no lookup recorded yet.
const WINDOW_EMPTY: u8 = 2;
/// Ring-buffer slot: lookup served without BFS work (hit or share).
const WINDOW_FREE: u8 = 1;
/// Ring-buffer slot: lookup paid for the extraction (miss).
const WINDOW_MISS: u8 = 0;

/// EWMA sentinel bit pattern: no sample yet (a NaN no update produces).
const EWMA_UNSET: u64 = u64::MAX;

/// One consumer's identity on a shared [`ConcurrentSubgraphCache`]:
/// attribution counters plus recency-weighted hit rates.
///
/// Create one per logical consumer (per backend, per executor, per
/// warming job) and pass it to
/// [`ConcurrentSubgraphCache::get_ball_with_as`]; the cache
/// updates the consumer's counters alongside its own global ones. All
/// state is atomic, so one consumer handle may be shared by the worker
/// threads serving that consumer (e.g. every worker of one batch
/// executor) — *that* traffic is one consumer by definition.
///
/// Two rates are maintained over this consumer's lookups:
///
/// * [`CacheConsumer::windowed_hit_rate`] — exact over the last `window`
///   lookups (a ring buffer). Converges within one window after a
///   traffic shift; the staged backend's `estimate()` uses this.
/// * [`CacheConsumer::decayed_hit_rate`] — an EWMA with time constant
///   `window` (`λ = 1/window`), smoother and cheaper to read under
///   heavy concurrency.
///
/// Under concurrent lookups the window counters are maintained with
/// relaxed atomics: reads are approximate while lookups are in flight
/// and exact once they quiesce (same contract as the cache's global
/// counters).
///
/// # Examples
///
/// ```
/// use meloppr_core::cache::{CacheConsumer, ConcurrentSubgraphCache};
/// use meloppr_graph::{generators, ExtractScratch};
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let cache = ConcurrentSubgraphCache::new(16);
/// let consumer = CacheConsumer::new(64);
/// let (mut scratch, mut cold_buf) = (ExtractScratch::new(), Vec::new());
/// for _ in 0..2 {
///     cache.get_ball_with_as(&g, 0, 2, &mut scratch, &mut cold_buf, &consumer)?;
/// }
/// assert_eq!(consumer.stats().hits, 1);
/// assert_eq!(consumer.stats().misses, 1);
/// assert!((consumer.windowed_hit_rate() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub struct CacheConsumer {
    hits: AtomicU64,
    reuse_hits: AtomicU64,
    shared: AtomicU64,
    misses: AtomicU64,
    extractions: AtomicU64,
    rejected: AtomicU64,
    cold_hits: AtomicU64,
    cold_bytes: AtomicU64,
    cold_fallbacks: AtomicU64,
    /// EWMA of lookup outcomes (1.0 = free), stored as `f64` bits;
    /// `EWMA_UNSET` before the first sample.
    ewma_bits: AtomicU64,
    /// Ring buffer of recent outcomes (`WINDOW_*` values).
    window: Box<[AtomicU8]>,
    cursor: AtomicUsize,
    /// Slots written at least once (saturates at the window length).
    filled: AtomicUsize,
    /// Free (hit/share) outcomes currently in the window. Signed because
    /// concurrent swap deltas may transiently interleave; clamped at 0
    /// when read.
    window_free: AtomicI64,
}

impl std::fmt::Debug for CacheConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheConsumer")
            .field("stats", &self.stats())
            .field("window", &self.window.len())
            .field("windowed_hit_rate", &self.windowed_hit_rate())
            .finish()
    }
}

impl Default for CacheConsumer {
    /// A consumer with the [`DEFAULT_HIT_WINDOW`]-lookup window.
    fn default() -> Self {
        CacheConsumer::new(DEFAULT_HIT_WINDOW)
    }
}

impl CacheConsumer {
    /// Creates a consumer whose windowed hit rate spans the last
    /// `window` lookups (also the EWMA time constant).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "hit-rate window must be positive");
        CacheConsumer {
            hits: AtomicU64::new(0),
            reuse_hits: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extractions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
            cold_bytes: AtomicU64::new(0),
            cold_fallbacks: AtomicU64::new(0),
            ewma_bits: AtomicU64::new(EWMA_UNSET),
            window: (0..window).map(|_| AtomicU8::new(WINDOW_EMPTY)).collect(),
            cursor: AtomicUsize::new(0),
            filled: AtomicUsize::new(0),
            window_free: AtomicI64::new(0),
        }
    }

    /// The window length in lookups.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Snapshot of this consumer's attribution counters (relaxed loads;
    /// exact once its lookups have quiesced).
    pub fn stats(&self) -> ConsumerStats {
        ConsumerStats {
            hits: self.hits.load(Ordering::Relaxed),
            reuse_hits: self.reuse_hits.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            extractions: self.extractions.load(Ordering::Relaxed),
            rejected_admissions: self.rejected.load(Ordering::Relaxed),
            cold_hits: self.cold_hits.load(Ordering::Relaxed),
            cold_bytes_read: self.cold_bytes.load(Ordering::Relaxed),
            cold_fallbacks: self.cold_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Exact hit fraction of this consumer's last `window` lookups
    /// (0.0 before any lookup). This is the rate the staged backend's
    /// `estimate()` discounts BFS by: after a traffic shift it converges
    /// to the new regime within one window, where the cumulative
    /// [`ConsumerStats::hit_rate`] stays anchored to stale history.
    pub fn windowed_hit_rate(&self) -> f64 {
        let filled = self.filled.load(Ordering::Relaxed).min(self.window.len());
        if filled == 0 {
            return 0.0;
        }
        let free = self.window_free.load(Ordering::Relaxed).max(0) as f64;
        (free / filled as f64).min(1.0)
    }

    /// EWMA of lookup outcomes with `λ = 1/window` (0.0 before any
    /// lookup): smoother than the exact window, never forgets entirely.
    pub fn decayed_hit_rate(&self) -> f64 {
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        if bits == EWMA_UNSET {
            return 0.0;
        }
        f64::from_bits(bits)
    }

    /// Records one lookup outcome (`free` = served without BFS work).
    fn record(&self, free: bool) {
        // Exact sliding window: claim a slot, swap the outcome in, and
        // settle the free-count by the observed delta.
        let slot = &self.window[self.cursor.fetch_add(1, Ordering::Relaxed) % self.window.len()];
        let new = if free { WINDOW_FREE } else { WINDOW_MISS };
        let old = slot.swap(new, Ordering::Relaxed);
        if old == WINDOW_EMPTY {
            self.filled.fetch_add(1, Ordering::Relaxed);
        }
        let delta = (new == WINDOW_FREE) as i64 - (old == WINDOW_FREE) as i64;
        if delta != 0 {
            self.window_free.fetch_add(delta, Ordering::Relaxed);
        }
        // EWMA: CAS loop (first sample seeds the average directly).
        let outcome = free as u8 as f64;
        let lambda = 1.0 / self.window.len() as f64;
        let mut current = self.ewma_bits.load(Ordering::Relaxed);
        loop {
            let next = if current == EWMA_UNSET {
                outcome
            } else {
                let avg = f64::from_bits(current);
                avg + lambda * (outcome - avg)
            };
            match self.ewma_bits.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    fn on_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.record(true);
    }

    /// A stage task served by a stored result: one hit, and a reuse.
    fn on_reuse_hit(&self) {
        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
        self.on_hit();
    }

    fn on_shared(&self) {
        self.shared.fetch_add(1, Ordering::Relaxed);
        self.record(true);
    }

    fn on_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.record(false);
    }

    /// A RAM miss served by the cold tier: still a miss in the lookup
    /// taxonomy (`cold_hits` is a subset of `misses`), but the windowed
    /// rate — which exists to discount predicted **BFS** — counts it as
    /// free, because no BFS ran; `estimate()` prices the disk read
    /// separately from the cold fraction.
    fn on_cold_hit(&self, bytes: usize) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cold_hits.fetch_add(1, Ordering::Relaxed);
        self.cold_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.record(true);
    }

    /// Snapshot of this consumer's complete persistable state — counters,
    /// EWMA and the window's outcomes oldest-first. Relaxed loads: call
    /// after lookups have quiesced (e.g. at server shutdown).
    pub fn export_state(&self) -> ConsumerState {
        let len = self.window.len();
        let cursor = self.cursor.load(Ordering::Relaxed);
        let filled = self.filled.load(Ordering::Relaxed).min(len);
        // When the ring has wrapped, the oldest outcome sits at the
        // cursor's current slot; before the first wrap the slots fill in
        // order from 0.
        let start = if filled == len { cursor % len } else { 0 };
        let window = (0..filled)
            .filter_map(
                |i| match self.window[(start + i) % len].load(Ordering::Relaxed) {
                    WINDOW_FREE => Some(true),
                    WINDOW_MISS => Some(false),
                    _ => None,
                },
            )
            .collect();
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        ConsumerState {
            stats: self.stats(),
            ewma: (bits != EWMA_UNSET).then(|| f64::from_bits(bits)),
            window,
        }
    }

    /// Re-applies a previously exported state: cumulative counters are
    /// overwritten, the window is replayed oldest-first (truncated to the
    /// newest `window_len()` outcomes when the persisted window is
    /// longer), and the EWMA is restored exactly. Call before serving —
    /// concurrent lookups during restore interleave arbitrarily.
    pub fn restore_state(&self, state: &ConsumerState) {
        self.hits.store(state.stats.hits, Ordering::Relaxed);
        self.reuse_hits
            .store(state.stats.reuse_hits, Ordering::Relaxed);
        self.shared.store(state.stats.shared, Ordering::Relaxed);
        self.misses.store(state.stats.misses, Ordering::Relaxed);
        self.extractions
            .store(state.stats.extractions, Ordering::Relaxed);
        self.rejected
            .store(state.stats.rejected_admissions, Ordering::Relaxed);
        self.cold_hits
            .store(state.stats.cold_hits, Ordering::Relaxed);
        self.cold_bytes
            .store(state.stats.cold_bytes_read, Ordering::Relaxed);
        self.cold_fallbacks
            .store(state.stats.cold_fallbacks, Ordering::Relaxed);
        // Reset the ring, then replay the newest window_len() outcomes.
        for slot in self.window.iter() {
            slot.store(WINDOW_EMPTY, Ordering::Relaxed);
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.filled.store(0, Ordering::Relaxed);
        self.window_free.store(0, Ordering::Relaxed);
        self.ewma_bits.store(EWMA_UNSET, Ordering::Relaxed);
        let skip = state.window.len().saturating_sub(self.window.len());
        for &free in &state.window[skip..] {
            self.record(free);
        }
        // The replay rebuilt an EWMA from window outcomes only; the
        // persisted EWMA carries the full lifetime decay, so it wins.
        match state.ewma {
            Some(ewma) => self.ewma_bits.store(ewma.to_bits(), Ordering::Relaxed),
            None => self.ewma_bits.store(EWMA_UNSET, Ordering::Relaxed),
        }
    }
}

/// Whether an extracted ball may become resident in a
/// [`ConcurrentSubgraphCache`].
///
/// Admission is decided **after** extraction (the ball's size is not
/// known before BFS) and never affects the answer: a rejected ball is
/// returned to the caller — and zero-copy-shared with any singleflight
/// waiters — it just never enters the map, so a giant one-off ball can
/// never evict the hot hub balls the cache exists for. Rejections are
/// counted ([`CacheStats::rejected_admissions`], per consumer too).
///
/// Parse from CLI-style strings via [`std::str::FromStr`]:
/// `"always"`, `"max-nodes:N"`, `"freq:N"`, `"tinylfu"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every extracted ball (the pre-admission behaviour).
    #[default]
    Always,
    /// Never admit balls with more than this many nodes.
    MaxNodes(usize),
    /// Admit balls within the node budget immediately; admit over-budget
    /// balls only once their key has been seen at least twice (tracked
    /// by a fixed-size counting sketch — hash collisions can only admit
    /// *early*, never reject a deserving ball). The second miss on a hot
    /// big ball admits it; true one-offs never displace anything.
    FrequencyGated(usize),
    /// TinyLFU-style frequency-vs-victim admission (Einziger et al.):
    /// while the [`CacheBudget`] has room, every ball is admitted; once
    /// admission would require an eviction, the candidate is admitted
    /// only if its sketch frequency **strictly beats** the would-be
    /// (least-recently-used) victim's. A one-off ball can therefore
    /// never displace a resident that has been demanded at least as
    /// often, while a ball hotter than the coldest resident always gets
    /// in. Sketch collisions over-count, which can only admit early.
    FrequencyVsVictim,
}

impl AdmissionPolicy {
    /// The size gate: whether a ball of `nodes` nodes passes this
    /// policy's pre-admission check, given whether its key was seen
    /// before this lookup. Budget reservation (and the
    /// [`AdmissionPolicy::FrequencyVsVictim`] victim comparison) happens
    /// afterwards.
    fn size_gate(&self, nodes: usize, seen_before: bool) -> bool {
        match *self {
            AdmissionPolicy::Always | AdmissionPolicy::FrequencyVsVictim => true,
            AdmissionPolicy::MaxNodes(limit) => nodes <= limit,
            AdmissionPolicy::FrequencyGated(limit) => nodes <= limit || seen_before,
        }
    }

    /// Whether this policy ever consults the seen-key sketch.
    fn needs_seen_tracking(&self) -> bool {
        matches!(
            self,
            AdmissionPolicy::FrequencyGated(_) | AdmissionPolicy::FrequencyVsVictim
        )
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AdmissionPolicy::Always => f.write_str("always"),
            AdmissionPolicy::MaxNodes(n) => write!(f, "max-nodes:{n}"),
            AdmissionPolicy::FrequencyGated(n) => write!(f, "freq:{n}"),
            AdmissionPolicy::FrequencyVsVictim => f.write_str("tinylfu"),
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if s.eq_ignore_ascii_case("always") {
            return Ok(AdmissionPolicy::Always);
        }
        if s.eq_ignore_ascii_case("tinylfu") || s.eq_ignore_ascii_case("freq-vs-victim") {
            return Ok(AdmissionPolicy::FrequencyVsVictim);
        }
        let parse = |value: &str, what: &str| -> std::result::Result<usize, String> {
            let n: usize = value
                .parse()
                .map_err(|e| format!("bad {what} budget {value:?}: {e}"))?;
            if n == 0 {
                return Err(format!("{what} budget must be >= 1"));
            }
            Ok(n)
        };
        if let Some(v) = s.strip_prefix("max-nodes:") {
            return Ok(AdmissionPolicy::MaxNodes(parse(v, "max-nodes")?));
        }
        if let Some(v) = s.strip_prefix("freq:") {
            return Ok(AdmissionPolicy::FrequencyGated(parse(v, "freq")?));
        }
        Err(format!(
            "unknown admission policy {s:?} (always | max-nodes:N | freq:N | tinylfu)"
        ))
    }
}

/// State of one cached key: pending while the winning extractor runs,
/// ready once published, failed if extraction errored (waiters then fall
/// back to extracting themselves so the error surfaces deterministically).
enum EntryState {
    Pending,
    Ready,
    Failed,
}

/// One cache slot: the singleflight rendezvous plus the CLOCK recency
/// stamp.
///
/// The published sub-graph lives in a write-once `OnceLock` so the hit
/// path is `shard read lock -> OnceLock::get -> relaxed stamp store` —
/// no exclusive lock anywhere, so concurrent hits on one hot ball never
/// serialize. The `Mutex`/`Condvar` pair is touched only by singleflight
/// losers waiting out an in-flight extraction (state `Pending`).
struct Entry {
    published: OnceLock<Resident>,
    state: Mutex<EntryState>,
    ready: Condvar,
    last_used: AtomicU64,
    /// The clock stamp the entry was created at: unique per entry, so
    /// an LRU heap item names the entry it was pushed for, not just its
    /// key (a key evicted and admitted again is a new entry).
    id: u64,
    /// Bytes this entry charged against the global resident-bytes
    /// counter (0 while pending or when it was never made resident).
    /// Written under the shard write lock before publication, so under a
    /// shard lock an in-map published entry is always exactly charged.
    charged_bytes: AtomicUsize,
}

impl Entry {
    fn pending(stamp: u64) -> Arc<Self> {
        Arc::new(Entry {
            published: OnceLock::new(),
            state: Mutex::new(EntryState::Pending),
            ready: Condvar::new(),
            last_used: AtomicU64::new(stamp),
            id: stamp,
            charged_bytes: AtomicUsize::new(0),
        })
    }

    /// The published ball of a ball-keyed entry.
    fn ball(&self) -> Option<&CachedBall> {
        match self.published.get()? {
            Resident::Ball(ball) => Some(ball),
            Resident::Result(_) => None,
        }
    }
}

/// One LRU heap item: the stamp the entry had when the item was pushed,
/// its key, and the entry's id.
type LruItem = Reverse<(u64, CacheKey, u64)>;

struct Shard {
    map: RwLock<FastHashMap<CacheKey, Arc<Entry>>>,
}

/// What a lookup's extraction closure produced on a RAM miss: a ball
/// decoded from the cold tier (one positioned read, no BFS), or a live
/// BFS extraction.
enum ExtractedBall {
    /// Decoded from the cold-tier index; `bytes` is the record length
    /// read from disk.
    Cold { ball: CompactBall, bytes: usize },
    /// A live BFS extraction (`work` = adjacency entries scanned).
    /// `fallback` is set when a configured cold tier was consulted first
    /// and could not serve the ball.
    Fresh {
        sub: Subgraph,
        work: usize,
        fallback: bool,
    },
}

/// The cold-capable extraction body shared by the ball-representation
/// lookups: try one positioned index read first, fall back to live BFS
/// when the index lacks the ball or the read/decode fails — the cold
/// tier is an accelerator, never a correctness dependency.
fn read_cold_or_extract<G: GraphView + ?Sized>(
    g: &G,
    cold: Option<&BallIndex>,
    node: NodeId,
    depth: u32,
    scratch: &mut ExtractScratch,
    buf: &mut Vec<u8>,
) -> Result<ExtractedBall> {
    if let Some(index) = cold {
        if let Ok(Some(ball)) = index.read_ball(node, depth, buf) {
            return Ok(ExtractedBall::Cold {
                bytes: buf.len(),
                ball,
            });
        }
        let (sub, work) = scratch.extract_owned(g, node, depth)?;
        return Ok(ExtractedBall::Fresh {
            sub,
            work,
            fallback: true,
        });
    }
    let (sub, work) = scratch.extract_owned(g, node, depth)?;
    Ok(ExtractedBall::Fresh {
        sub,
        work,
        fallback: false,
    })
}

/// What a lookup found after consulting (and possibly updating) a shard.
enum Found {
    /// The entry existed; wait for / read its state.
    Existing(Arc<Entry>),
    /// We installed the pending placeholder; we extract.
    Winner(Arc<Entry>),
}

/// Arms the winner's extraction against unwinds: if `extract` (or an
/// injected failpoint) panics after the pending entry became
/// map-visible, the entry would otherwise stay `Pending` forever and
/// every singleflight waiter would deadlock on its condvar. Dropping
/// while still armed performs the same cleanup an extraction `Err`
/// gets: fail the entry, wake the waiters, purge the key.
struct FailPendingOnUnwind<'a> {
    cache: &'a ConcurrentSubgraphCache,
    shard: &'a Shard,
    key: CacheKey,
    entry: &'a Arc<Entry>,
    armed: bool,
}

impl FailPendingOnUnwind<'_> {
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for FailPendingOnUnwind<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        {
            let mut state = self.cache.entry_state(self.entry);
            *state = EntryState::Failed;
        }
        self.entry.ready.notify_all();
        let mut map = self.cache.shard_write(self.shard);
        if let Some(current) = map.get(&self.key) {
            if Arc::ptr_eq(current, self.entry) {
                map.remove(&self.key);
            }
        }
    }
}

/// How a lookup participates in accounting and admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookupMode {
    /// A serving lookup: counted (globally and per consumer), extracted
    /// balls admitted per the [`AdmissionPolicy`] and [`CacheBudget`].
    Demand,
    /// Warm-up: no lookup accounting at all (only physical extractions
    /// tick), admission bypasses the frequency gates, resident entries'
    /// recency is not refreshed.
    Warming,
    /// A budget probe: counted exactly like demand (the work is real),
    /// but an extracted ball is **never** admitted — served to the
    /// caller and to singleflight waiters only. The staged engine's
    /// memory-budget gate probes shrinking ball depths this way so
    /// over-budget balls it will not execute never displace residents;
    /// the depth it settles on is admitted explicitly via
    /// [`ConcurrentSubgraphCache::admit`].
    Probe,
}

/// A sharded, lock-striped cache of extracted BFS-ball sub-graphs shared
/// by concurrent batch workers (see the module docs for the design).
///
/// All methods take `&self`; the cache is meant to live in an
/// [`Arc`] shared by every worker serving a graph. Hot balls are
/// extracted **once** (singleflight); hits and shares return the same
/// [`CachedBall`] (an `Arc` clone, never a copy) with zero BFS work.
///
/// Two public lookups exist: the demand lookup
/// [`ConcurrentSubgraphCache::get_ball_with_as`] and the uncounted
/// warm-up [`ConcurrentSubgraphCache::warm_with`]. Stage results are
/// looked up and admitted by the staged engine itself.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use meloppr_core::cache::{CacheConsumer, CachedBall, ConcurrentSubgraphCache};
/// use meloppr_graph::{generators, ExtractScratch};
///
/// # fn main() -> Result<(), meloppr_core::PprError> {
/// let g = generators::karate_club();
/// let cache = Arc::new(ConcurrentSubgraphCache::new(64));
/// let consumer = CacheConsumer::default();
/// let (mut scratch, mut cold_buf) = (ExtractScratch::new(), Vec::new());
/// let mut lookup = || cache.get_ball_with_as(&g, 0, 2, &mut scratch, &mut cold_buf, &consumer);
/// // A miss serves the full extraction it made; the cache keeps the
/// // ball compact, and every hit shares that one resident.
/// let (CachedBall::Full(_), work_a) = lookup()? else { unreachable!() };
/// let (CachedBall::Compact(b), work_b) = lookup()? else { unreachable!() };
/// let (CachedBall::Compact(c), _) = lookup()? else { unreachable!() };
/// assert!(Arc::ptr_eq(&b, &c)); // zero-copy reuse
/// assert!(work_a > 0);
/// assert_eq!(work_b, 0); // hits charge no BFS
/// assert_eq!(cache.stats().extractions, 1);
/// # Ok(())
/// # }
/// ```
pub struct ConcurrentSubgraphCache {
    shards: Box<[Shard]>,
    budget: CacheBudget,
    admission: AdmissionPolicy,
    /// Optional cold tier: a persisted ball index consulted by the
    /// ball-representation lookups on a RAM miss before falling back to
    /// live BFS.
    cold: Option<Arc<BallIndex>>,
    /// The lazily repaired LRU heap over published residents (see the
    /// module docs); `None` for an unbounded cache, which never evicts.
    /// Never locked while a shard lock is held.
    lru: Option<Mutex<BinaryHeap<LruItem>>>,
    /// Counting sketch of key sightings for the frequency-aware
    /// admission policies; empty for other policies. Collisions
    /// over-count, which can only admit early.
    seen: Box<[AtomicU32]>,
    clock: AtomicU64,
    /// Global resident-entry count — the *only* entry-budget authority
    /// (per-shard splits over-admit; see the module docs). Reserved via
    /// CAS before an entry is published, released on eviction/clear.
    resident_entries: AtomicUsize,
    /// Global resident bytes: sum of `charged_bytes` over resident
    /// entries, reserved/released in lockstep with `resident_entries`.
    resident_bytes: AtomicUsize,
    hits: AtomicU64,
    reuse_hits: AtomicU64,
    shared: AtomicU64,
    misses: AtomicU64,
    extractions: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    cold_hits: AtomicU64,
    cold_bytes_read: AtomicU64,
    cold_fallbacks: AtomicU64,
    /// Times a poisoned shard, entry or LRU-heap lock was recovered
    /// instead of cascading the panic.
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for ConcurrentSubgraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentSubgraphCache")
            .field("budget", &self.budget)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("resident_bytes", &self.resident_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default shard count: enough stripes that a typical worker pool
/// (≤ 16 threads) rarely collides, without fragmenting small capacities.
const DEFAULT_SHARDS: usize = 16;

/// Slots in the frequency-gate counting sketch (16 KiB of `AtomicU32`).
const SEEN_SLOTS: usize = 4096;

impl ConcurrentSubgraphCache {
    /// Creates a cache budgeted for `capacity` sub-graphs, striped over
    /// the default shard count (clamped to `capacity`).
    ///
    /// The budget is a **global** bound maintained by an atomic resident
    /// counter: total residency never exceeds `capacity`, regardless of
    /// how keys hash across shards or how many workers insert
    /// concurrently. For byte-denominated budgets use
    /// [`ConcurrentSubgraphCache::with_budget`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS.min(capacity.max(1)))
    }

    /// As [`ConcurrentSubgraphCache::new`] with an explicit shard count
    /// (lock stripes). More shards mean less contention; the budget
    /// stays a single global bound either way.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Self::with_budget_and_shards(CacheBudget::entries(capacity), shards)
    }

    /// A cache governed by an arbitrary [`CacheBudget`] (entries and/or
    /// bytes), striped over the default shard count.
    ///
    /// # Panics
    ///
    /// Panics if a configured budget bound is zero.
    pub fn with_budget(budget: CacheBudget) -> Self {
        let shards = match budget.entries {
            Some(entries) => DEFAULT_SHARDS.min(entries.max(1)),
            None => DEFAULT_SHARDS,
        };
        Self::with_budget_and_shards(budget, shards)
    }

    /// As [`ConcurrentSubgraphCache::with_budget`] with an explicit
    /// shard count.
    ///
    /// # Panics
    ///
    /// Panics if a configured budget bound or `shards` is zero.
    pub fn with_budget_and_shards(budget: CacheBudget, shards: usize) -> Self {
        assert!(budget.entries != Some(0), "cache capacity must be positive");
        assert!(
            budget.bytes != Some(0),
            "cache byte budget must be positive"
        );
        assert!(shards > 0, "shard count must be positive");
        let shards: Box<[Shard]> = (0..shards)
            .map(|_| Shard {
                map: RwLock::new(FastHashMap::default()),
            })
            .collect();
        let bounded = budget.entries.is_some() || budget.bytes.is_some();
        ConcurrentSubgraphCache {
            shards,
            budget,
            admission: AdmissionPolicy::Always,
            cold: None,
            lru: bounded.then(|| Mutex::new(BinaryHeap::new())),
            seen: Box::new([]),
            clock: AtomicU64::new(0),
            resident_entries: AtomicUsize::new(0),
            resident_bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            reuse_hits: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extractions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
            cold_bytes_read: AtomicU64::new(0),
            cold_fallbacks: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Sets the [`AdmissionPolicy`] deciding which extracted balls become
    /// resident (builder style; default [`AdmissionPolicy::Always`]).
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self.seen = if policy.needs_seen_tracking() {
            (0..SEEN_SLOTS).map(|_| AtomicU32::new(0)).collect()
        } else {
            Box::new([])
        };
        self
    }

    /// The configured admission policy.
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Attaches a persisted [`BallIndex`] as this cache's **cold tier**
    /// (builder style): a RAM miss whose `(node, depth)` ball the index
    /// holds is served by one positioned read and decoded into a
    /// [`CachedBall::Compact`] (disk-served answers stay bit-identical
    /// to BFS-served ones, because the kernels diffuse both forms alike)
    /// and admitted through the normal
    /// [`AdmissionPolicy`]/[`CacheBudget`] gates at its compact bytes;
    /// live BFS remains the fallback when the index lacks the ball or
    /// the read fails. Demand lookups and budget probes consult the cold
    /// tier; warm-up ([`ConcurrentSubgraphCache::warm_with`]) is a BFS
    /// path and never reads it.
    #[must_use]
    pub fn with_cold_tier(mut self, index: Arc<BallIndex>) -> Self {
        self.cold = Some(index);
        self
    }

    /// The form an extracted ball is kept in: compact when it fits `u16`
    /// local ids, full otherwise.
    fn store_ball(sub: &Arc<Subgraph>) -> CachedBall {
        match CompactBall::from_subgraph(sub) {
            Some(compact) => CachedBall::Compact(Arc::new(compact)),
            None => CachedBall::Full(Arc::clone(sub)),
        }
    }

    /// Read-locks a shard's map, recovering a poisoned lock by clearing
    /// the shard ([`ConcurrentSubgraphCache::recover_shard`]) and
    /// continuing — a cache must survive a co-tenant's panic, it only
    /// costs re-extraction.
    fn shard_read<'s>(
        &self,
        shard: &'s Shard,
    ) -> std::sync::RwLockReadGuard<'s, FastHashMap<CacheKey, Arc<Entry>>> {
        match shard.map.read() {
            Ok(guard) => guard,
            Err(poisoned) => {
                drop(poisoned);
                self.recover_shard(shard);
                shard
                    .map
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        }
    }

    /// Write-locks a shard's map, recovering a poisoned lock like
    /// [`ConcurrentSubgraphCache::shard_read`].
    fn shard_write<'s>(
        &self,
        shard: &'s Shard,
    ) -> std::sync::RwLockWriteGuard<'s, FastHashMap<CacheKey, Arc<Entry>>> {
        match shard.map.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                drop(poisoned);
                self.recover_shard(shard);
                shard
                    .map
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        }
    }

    /// Clear-and-continue recovery for a poisoned shard: a panic while
    /// the shard lock was held may have interrupted a map/accounting
    /// update mid-flight, so rather than trusting the half-written
    /// state, drop every entry in the shard (releasing charged budget,
    /// waking singleflight waiters of pending entries as `Failed` so
    /// nobody deadlocks) and carry on with an empty — but provably
    /// consistent — shard. Counted in
    /// [`ConcurrentSubgraphCache::poison_recoveries`].
    fn recover_shard(&self, shard: &Shard) {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
        let mut map = shard
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, entry) in map.drain() {
            let bytes = entry.charged_bytes.swap(0, Ordering::Relaxed);
            if bytes > 0 {
                self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
            }
            let mut state = self.entry_state(&entry);
            if matches!(*state, EntryState::Pending) {
                *state = EntryState::Failed;
                drop(state);
                entry.ready.notify_all();
            }
        }
        shard.map.clear_poison();
    }

    /// Locks an entry's state, recovering from poisoning: the state
    /// enum is plain data, valid at every instant, so a panic that
    /// poisoned it left nothing to repair.
    fn entry_state<'e>(&self, entry: &'e Entry) -> std::sync::MutexGuard<'e, EntryState> {
        entry.state.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            entry.state.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Times a poisoned cache lock was recovered instead of letting the
    /// panic cascade (0 in a healthy process; see
    /// `ConcurrentSubgraphCache::recover_shard`).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Records one sighting of `key` in the frequency sketch, returning
    /// the updated sighting count. Collisions over-count (early
    /// admission only). Saturates at `u32::MAX` when the policy keeps no
    /// sketch.
    fn note_seen(&self, key: CacheKey) -> u32 {
        if self.seen.is_empty() {
            return u32::MAX;
        }
        self.seen_slot(key).fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current sketch frequency of `key` (how often it has been
    /// demanded), `u32::MAX` without a sketch.
    fn sketch_frequency(&self, key: CacheKey) -> u32 {
        if self.seen.is_empty() {
            return u32::MAX;
        }
        self.seen_slot(key).load(Ordering::Relaxed)
    }

    fn seen_slot(&self, key: CacheKey) -> &AtomicU32 {
        let mixed = key.word().wrapping_mul(FIB);
        // Take the *top* bits: the node id sits in the high half of the
        // pre-multiply key, so low product bits depend only on the depth
        // (the old `>> 13` slot collapsed every same-depth key into one
        // slot, blinding the frequency sketch).
        &self.seen[(mixed >> 52) as usize % self.seen.len()]
    }

    /// The configured [`CacheBudget`].
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Resident (published) entries, from the global budget counter.
    pub fn resident_entries(&self) -> usize {
        self.resident_entries.load(Ordering::Relaxed)
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_for(&self, key: impl Into<CacheKey>) -> &Shard {
        let key = key.into();
        // Fibonacci multiplicative hash of the key word; the high bits
        // decide the stripe so nearby node ids spread out.
        let mixed = key.word().wrapping_mul(FIB);
        &self.shards[(mixed >> 40) as usize % self.shards.len()]
    }

    /// The demand lookup: returns the ball around `(node, depth)` in
    /// **whichever representation the cache keeps** (a compact resident
    /// is served as-is — the diffusion kernels consume either form and
    /// give the same bits), extracting it exactly once across all
    /// concurrent callers on a miss, and attributing the lookup to
    /// `consumer`: its hit/shared/miss/extraction counters and windowed
    /// hit rates move alongside the global counters, so several
    /// consumers sharing this cache each observe exactly their own
    /// traffic. The reported work is the BFS adjacency entries scanned by
    /// **this call** — 0 on hits, singleflight shares and cold reads.
    ///
    /// A miss extracts through `scratch`, so the BFS visited map, queue
    /// and ball arrays are reused across misses. With a
    /// [`ConcurrentSubgraphCache::with_cold_tier`] index attached, a RAM
    /// miss first tries one positioned read into `cold_buf` (a
    /// caller-pooled buffer — the workspace owns it on the serving path,
    /// so steady state stays allocation-free) before falling back to
    /// live BFS.
    ///
    /// # Errors
    ///
    /// Propagates graph errors from extraction on misses.
    pub fn get_ball_with_as<G: GraphView + ?Sized>(
        &self,
        g: &G,
        node: NodeId,
        depth: u32,
        scratch: &mut ExtractScratch,
        cold_buf: &mut Vec<u8>,
        consumer: &CacheConsumer,
    ) -> Result<(CachedBall, usize)> {
        self.lookup(
            g,
            node,
            depth,
            Some(consumer),
            LookupMode::Demand,
            |g, cold| read_cold_or_extract(g, cold, node, depth, scratch, cold_buf),
        )
    }

    /// The budget probe: as [`ConcurrentSubgraphCache::get_ball_with_as`]
    /// (counted like demand, cold-tier-aware, resident keys hit for
    /// free), but an extracted ball is **never admitted** — it is served
    /// to the caller and any singleflight waiters, then forgotten. The
    /// staged engine's memory-budget gate probes shrinking ball depths
    /// this way, so a depth it decides *not* to execute never displaces
    /// residents or charges the byte budget; the depth it settles on is
    /// admitted explicitly via [`ConcurrentSubgraphCache::admit`].
    pub(crate) fn probe_ball_with_as<G: GraphView + ?Sized>(
        &self,
        g: &G,
        node: NodeId,
        depth: u32,
        scratch: &mut ExtractScratch,
        cold_buf: &mut Vec<u8>,
        consumer: &CacheConsumer,
    ) -> Result<(CachedBall, usize)> {
        self.lookup(
            g,
            node,
            depth,
            Some(consumer),
            LookupMode::Probe,
            |g, cold| read_cold_or_extract(g, cold, node, depth, scratch, cold_buf),
        )
    }

    /// Makes a probed ball resident (if the policy and budget admit it):
    /// the admission half of a
    /// [`probe_ball_with_as`](ConcurrentSubgraphCache::probe_ball_with_as)
    /// that settled on this depth. A BFS-extracted [`CachedBall::Full`]
    /// is kept compact when it fits `u16` local ids; a ball the cold
    /// tier served is kept in its decoded compact form. No hit/miss is
    /// counted and no BFS runs, but this **is** the executed ball's one
    /// demand sighting: the frequency sketch is bumped here (probes never
    /// touch it), and the full [`AdmissionPolicy`] applies — size gates,
    /// the frequency gate's second-sighting rule and the TinyLFU victim
    /// comparison behave exactly as they would for an unbudgeted demand
    /// miss, so a memory budget never weakens admission control.
    /// Policy/budget refusals count as `rejected_admissions` (globally
    /// and for `consumer`). A no-op when the key is already resident or
    /// in flight.
    pub(crate) fn admit(
        &self,
        node: NodeId,
        depth: u32,
        ball: &CachedBall,
        consumer: &CacheConsumer,
    ) {
        self.admit_resident(
            CacheKey::Ball(node, depth),
            ball.num_nodes(),
            || {
                match ball {
                    CachedBall::Full(sub) => Self::store_ball(sub),
                    CachedBall::Compact(_) => ball.clone(),
                }
                .into()
            },
            consumer,
        );
    }

    /// The stored output of the stage task `key` names, if resident: a
    /// hit counts as the task's one lookup (a hit, and a reuse hit, for
    /// the cache and for `consumer`) and refreshes the entry's recency.
    /// A miss counts nothing; the task's ball lookup that follows does.
    pub(crate) fn get_result(
        &self,
        key: ResultKey,
        consumer: &CacheConsumer,
    ) -> Option<Arc<StageResult>> {
        let key = CacheKey::Result(key);
        let result = {
            let map = self.shard_read(self.shard_for(key));
            let entry = map.get(&key)?;
            let Some(Resident::Result(result)) = entry.published.get() else {
                return None;
            };
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            entry.last_used.store(stamp, Ordering::Relaxed);
            Arc::clone(result)
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
        consumer.on_reuse_hit();
        Some(result)
    }

    /// Stores a stage task's output after the task ran, through the same
    /// gates as a ball: `nodes` is the node count of the ball it was
    /// diffused on (what a size gate compares), the sketch counts this
    /// as the key's demand sighting, and the result is charged its
    /// measured bytes. Refusals count as `rejected_admissions`; a no-op
    /// when the key is already resident.
    pub(crate) fn admit_result(
        &self,
        key: ResultKey,
        result: StageResult,
        nodes: usize,
        consumer: &CacheConsumer,
    ) {
        self.admit_resident(
            CacheKey::Result(key),
            nodes,
            || Resident::Result(Arc::new(result)),
            consumer,
        );
    }

    /// The admission core of [`ConcurrentSubgraphCache::admit`] and
    /// [`ConcurrentSubgraphCache::admit_result`]: builds the resident
    /// only when the key is absent, applies the policy and budget, and
    /// publishes it.
    fn admit_resident(
        &self,
        key: CacheKey,
        nodes: usize,
        resident: impl FnOnce() -> Resident,
        consumer: &CacheConsumer,
    ) {
        if self.shard_read(self.shard_for(key)).contains_key(&key) {
            return;
        }
        let stored = resident();
        let (seen_before, candidate_freq) = if !self.admission.needs_seen_tracking() {
            (true, u32::MAX)
        } else {
            let count = self.note_seen(key);
            (count > 1, count)
        };
        let bytes = stored.memory_bytes_total();
        let admitted = self.admission.size_gate(nodes, seen_before)
            && self.reserve_residency(bytes, candidate_freq);
        if !admitted {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            consumer.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Entry::pending(stamp);
        {
            let shard = self.shard_for(key);
            let mut map = self.shard_write(shard);
            if map.contains_key(&key) {
                // Raced with a concurrent installer: release the
                // reservation.
                self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
                return;
            }
            // Charge and publish before the entry becomes map-visible
            // (all under the shard write lock), preserving the invariant
            // that an in-map published entry is exactly charged. No
            // waiter can exist before insertion, so no notify is needed.
            entry.charged_bytes.store(bytes, Ordering::Relaxed);
            entry
                .published
                .set(stored)
                .unwrap_or_else(|_| unreachable!("entry is freshly created"));
            *self.entry_state(&entry) = EntryState::Ready;
            map.insert(key, Arc::clone(&entry));
        }
        self.lru_push(key, &entry);
    }

    /// Pre-extracts the ball around `(node, depth)` through `scratch`
    /// **without counting a lookup**: no hit, no miss, no consumer
    /// attribution — only the physical `extractions` counter ticks when
    /// a BFS actually runs. Warm-up therefore never deflates any observed
    /// hit rate (the bug this method exists to fix: routing decisions fed
    /// by a rate that warming had permanently dragged down). Warming is
    /// a BFS path: it never reads the cold tier.
    ///
    /// Warming respects a size budget in the [`AdmissionPolicy`] but
    /// bypasses the frequency gate — an explicit warm *is* the admission
    /// decision. Already-resident and in-flight keys are left alone
    /// (their recency is not bumped — warming is not demand).
    ///
    /// # Errors
    ///
    /// Propagates graph errors from extraction.
    pub fn warm_with<G: GraphView + ?Sized>(
        &self,
        g: &G,
        node: NodeId,
        depth: u32,
        scratch: &mut ExtractScratch,
    ) -> Result<()> {
        self.lookup(g, node, depth, None, LookupMode::Warming, |g, _| {
            let (sub, work) = scratch.extract_owned(g, node, depth)?;
            Ok(ExtractedBall::Fresh {
                sub,
                work,
                fallback: false,
            })
        })
        .map(|_| ())
    }

    /// The shared lookup core: fast-path read, singleflight install on
    /// miss, condvar wait for in-flight extractions, post-extraction
    /// admission. `extract` runs at most once per call and **never under
    /// a shard lock**; it receives the cache's cold tier (if any) so
    /// cold-capable callers can try one index read before BFS — only the
    /// singleflight winner ever touches the disk. [`LookupMode::Warming`]
    /// suppresses all lookup accounting (only physical extraction work is
    /// counted) and bypasses the frequency gate; [`LookupMode::Probe`]
    /// counts like demand but never admits the extracted ball.
    fn lookup<G, F>(
        &self,
        g: &G,
        node: NodeId,
        depth: u32,
        consumer: Option<&CacheConsumer>,
        mode: LookupMode,
        extract: F,
    ) -> Result<(CachedBall, usize)>
    where
        G: GraphView + ?Sized,
        F: FnOnce(&G, Option<&BallIndex>) -> Result<ExtractedBall>,
    {
        let key = CacheKey::Ball(node, depth);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = self.shard_for(key);

        // Fast path: shared read lock only.
        let found = {
            let map = self.shard_read(shard);
            map.get(&key).cloned()
        };
        let found = match found {
            Some(entry) => Found::Existing(entry),
            None => {
                let mut map = self.shard_write(shard);
                match map.get(&key) {
                    // Raced with another installer between the locks.
                    Some(entry) => Found::Existing(Arc::clone(entry)),
                    None => {
                        let entry = Entry::pending(stamp);
                        map.insert(key, Arc::clone(&entry));
                        Found::Winner(entry)
                    }
                }
            }
        };

        match found {
            Found::Existing(entry) => {
                // Warming is not demand: it must not refresh recency, or
                // repeated warm-ups of never-queried probe balls would
                // out-compete genuinely hot entries at eviction time.
                if mode != LookupMode::Warming {
                    entry.last_used.store(stamp, Ordering::Relaxed);
                }
                // Hit fast path: a published entry is read without any
                // exclusive lock (OnceLock::get is a lock-free load once
                // set), so concurrent hits on one hot ball never
                // serialize.
                if let Some(ball) = entry.ball() {
                    if mode != LookupMode::Warming {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(c) = consumer {
                            c.on_hit();
                        }
                    }
                    return Ok((ball.clone(), 0));
                }
                let mut state = self.entry_state(&entry);
                loop {
                    match &*state {
                        EntryState::Ready => {
                            if mode != LookupMode::Warming {
                                self.shared.fetch_add(1, Ordering::Relaxed);
                                if let Some(c) = consumer {
                                    c.on_shared();
                                }
                            }
                            let ball = entry.ball().expect("ready ball entry published");
                            return Ok((ball.clone(), 0));
                        }
                        EntryState::Pending => {
                            state = entry.ready.wait(state).unwrap_or_else(|poisoned| {
                                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                                poisoned.into_inner()
                            });
                        }
                        EntryState::Failed => {
                            // The winner's extraction errored (and it
                            // removed the entry). Reproduce the error —
                            // extraction failures are deterministic
                            // (out-of-bounds seeds), so this surfaces the
                            // same error without retry loops.
                            drop(state);
                            if mode != LookupMode::Warming {
                                self.misses.fetch_add(1, Ordering::Relaxed);
                            }
                            let extracted = crate::failpoint::check("cache.extract")
                                .map_err(crate::error::PprError::from)
                                .and_then(|()| extract(g, self.cold.as_deref()));
                            let extracted = match extracted {
                                Ok(extracted) => extracted,
                                Err(err) => {
                                    if mode != LookupMode::Warming {
                                        if let Some(c) = consumer {
                                            c.on_miss();
                                        }
                                    }
                                    return Err(err);
                                }
                            };
                            // Deterministic failures cannot reach here, but
                            // a success is still a valid answer: serve it
                            // without touching the map (the key was purged).
                            return match extracted {
                                ExtractedBall::Cold { ball, bytes } => {
                                    self.count_cold_hit(consumer, mode, bytes);
                                    Ok((CachedBall::Compact(Arc::new(ball)), 0))
                                }
                                ExtractedBall::Fresh {
                                    sub,
                                    work,
                                    fallback,
                                } => {
                                    if fallback {
                                        self.count_cold_fallback(consumer, mode);
                                    }
                                    if mode != LookupMode::Warming {
                                        if let Some(c) = consumer {
                                            c.on_miss();
                                        }
                                    }
                                    self.count_extraction(consumer, mode);
                                    Ok((CachedBall::Full(Arc::new(sub)), work))
                                }
                            };
                        }
                    }
                }
            }
            Found::Winner(entry) => {
                if mode != LookupMode::Warming {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    // The consumer's miss/cold-hit attribution is
                    // deferred until the extraction resolves: a cold hit
                    // records a *free* window outcome (no BFS ran), which
                    // is only known afterwards.
                }
                // The frequency sketch counts demand sightings; a warm-up
                // is treated as already-seen and maximally hot (warming
                // *is* the admission decision).
                let (seen_before, candidate_freq) =
                    if mode != LookupMode::Demand || !self.admission.needs_seen_tracking() {
                        (true, u32::MAX)
                    } else {
                        let count = self.note_seen(key);
                        (count > 1, count)
                    };
                let mut unwind_guard = FailPendingOnUnwind {
                    cache: self,
                    shard,
                    key,
                    entry: &entry,
                    armed: true,
                };
                match crate::failpoint::check("cache.extract")
                    .map_err(crate::error::PprError::from)
                    .and_then(|()| extract(g, self.cold.as_deref()))
                {
                    Ok(extracted) => {
                        unwind_guard.disarm();
                        // Resolve the extraction into the resident
                        // representation (`stored`), what this caller is
                        // served, and the cold/BFS accounting. A fresh
                        // BFS serves the caller the full extraction it
                        // just performed; a cold hit serves and stores
                        // the decoded compact ball as-is, with no BFS to
                        // charge.
                        let (stored, served, nodes, work) = match extracted {
                            ExtractedBall::Cold { ball, bytes } => {
                                self.count_cold_hit(consumer, mode, bytes);
                                let nodes = ball.global_ids().len();
                                let stored = CachedBall::Compact(Arc::new(ball));
                                (stored.clone(), stored, nodes, 0)
                            }
                            ExtractedBall::Fresh {
                                sub,
                                work,
                                fallback,
                            } => {
                                if fallback {
                                    self.count_cold_fallback(consumer, mode);
                                }
                                if mode != LookupMode::Warming {
                                    if let Some(c) = consumer {
                                        c.on_miss();
                                    }
                                }
                                self.count_extraction(consumer, mode);
                                let sub = Arc::new(sub);
                                let nodes = sub.num_nodes();
                                let stored = Self::store_ball(&sub);
                                (stored, CachedBall::Full(sub), nodes, work)
                            }
                        };
                        let bytes = stored.memory_bytes_total();
                        // Admission is two gates: the policy's size gate,
                        // then budget reservation (which plans and evicts
                        // LRU victims until the candidate fits, applying
                        // the TinyLFU frequency-vs-victim comparison when
                        // configured). Probes never admit.
                        let admitted = mode != LookupMode::Probe
                            && self.admission.size_gate(nodes, seen_before)
                            && self.reserve_residency(bytes, candidate_freq);
                        if !admitted {
                            // Rejected: remove the entry from the map
                            // BEFORE publishing, so a rejected ball is
                            // never map-visible as a published resident —
                            // a concurrent admitter's eviction scan would
                            // otherwise count it and could evict an
                            // admitted entry in its place. Singleflight
                            // waiters hold the `Arc<Entry>` directly and
                            // are still served zero-copy below.
                            // A probe's non-admission is by design, not
                            // a policy rejection — only real rejections
                            // count.
                            if mode != LookupMode::Probe {
                                self.rejected.fetch_add(1, Ordering::Relaxed);
                                if let (Some(c), LookupMode::Demand) = (consumer, mode) {
                                    c.rejected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            let mut map = self.shard_write(shard);
                            if let Some(current) = map.get(&key) {
                                if Arc::ptr_eq(current, &entry) {
                                    map.remove(&key);
                                }
                            }
                            entry
                                .published
                                .set(served.clone().into())
                                .unwrap_or_else(|_| unreachable!("only the winner publishes"));
                        } else {
                            // Publish under the shard write lock so the
                            // charge and the publication are atomic with
                            // respect to eviction/clear scans: under any
                            // shard lock, an in-map published entry is
                            // exactly charged. If the cache was cleared
                            // while we extracted (our pending entry is
                            // gone), release the reservation — the ball
                            // is still served, it is just not resident.
                            let map = self.shard_write(shard);
                            let still_resident = map
                                .get(&key)
                                .is_some_and(|current| Arc::ptr_eq(current, &entry));
                            if still_resident {
                                entry.charged_bytes.store(bytes, Ordering::Relaxed);
                            } else {
                                self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                                self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
                            }
                            entry
                                .published
                                .set(stored.into())
                                .unwrap_or_else(|_| unreachable!("only the winner publishes"));
                            drop(map);
                            if still_resident {
                                self.lru_push(key, &entry);
                            }
                        }
                        {
                            let mut state = self.entry_state(&entry);
                            *state = EntryState::Ready;
                        }
                        entry.ready.notify_all();
                        Ok((served, work))
                    }
                    // The still-armed guard's drop performs the
                    // Failed/notify/purge cleanup — the same path an
                    // unwinding panic takes.
                    Err(err) => {
                        if mode != LookupMode::Warming {
                            if let Some(c) = consumer {
                                c.on_miss();
                            }
                        }
                        Err(err)
                    }
                }
            }
        }
    }

    /// Counts one physical ball extraction (globally, and for the
    /// demanding consumer when the lookup is attributed).
    fn count_extraction(&self, consumer: Option<&CacheConsumer>, mode: LookupMode) {
        self.extractions.fetch_add(1, Ordering::Relaxed);
        if mode == LookupMode::Warming {
            return;
        }
        if let Some(c) = consumer {
            c.extractions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one RAM miss served from the cold tier (`bytes` read from
    /// the index, no BFS). The `extractions` counter deliberately does
    /// **not** move — it is the headline "BFS avoided" number the
    /// beyond-RAM benchmarks assert on.
    fn count_cold_hit(&self, consumer: Option<&CacheConsumer>, mode: LookupMode, bytes: usize) {
        self.cold_hits.fetch_add(1, Ordering::Relaxed);
        self.cold_bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if mode == LookupMode::Warming {
            return;
        }
        if let Some(c) = consumer {
            c.on_cold_hit(bytes);
        }
    }

    /// Counts one RAM miss that consulted the cold tier and fell back to
    /// live BFS (the extraction itself is counted separately).
    fn count_cold_fallback(&self, consumer: Option<&CacheConsumer>, mode: LookupMode) {
        self.cold_fallbacks.fetch_add(1, Ordering::Relaxed);
        if mode == LookupMode::Warming {
            return;
        }
        if let Some(c) = consumer {
            c.cold_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reserves budget room for a `bytes`-sized candidate, evicting the
    /// globally least-recently-used published entries until it fits.
    /// Returns `false` (no reservation held, **nothing evicted**) when
    /// the candidate cannot or should not become resident:
    ///
    /// * it is larger than the whole byte budget;
    /// * nothing evictable remains and the budget is still full (every
    ///   other entry is pending/in-flight);
    /// * the [`AdmissionPolicy::FrequencyVsVictim`] comparison finds
    ///   *any* of the would-be victims at least as frequently demanded
    ///   as the candidate (`candidate_freq` is the candidate's sketch
    ///   count; `u32::MAX` bypasses the comparison). The whole victim
    ///   set is planned and frequency-checked **before** the first
    ///   eviction, so a rejected candidate never costs a resident its
    ///   slot.
    ///
    /// On `true`, both global counters have been advanced via CAS while
    /// their bound held, so a configured budget is **never** exceeded —
    /// not even transiently under concurrent inserts.
    fn reserve_residency(&self, bytes: usize, candidate_freq: u32) -> bool {
        if self.budget.bytes.is_some_and(|cap| bytes > cap) {
            return false;
        }
        let Some(lru) = &self.lru else {
            // Unbounded: nothing to evict, and the reservation fits.
            return self.try_reserve(bytes);
        };
        let victim_gate = matches!(self.admission, AdmissionPolicy::FrequencyVsVictim);
        loop {
            if self.try_reserve(bytes) {
                return true;
            }
            let mut heap = self.lru_heap(lru);
            // Plan the complete victim set (LRU-first) before evicting
            // anything, so the frequency gate can veto the whole plan.
            let Some(victims) = self.plan_victims(&mut heap, bytes) else {
                return false;
            };
            if victims.is_empty() {
                // Counters moved between the failed reservation and the
                // plan (another thread freed room): just retry.
                continue;
            }
            let vetoed = victim_gate
                && victims.iter().any(|&Reverse((_, victim, _))| {
                    self.sketch_frequency(victim) >= candidate_freq
                });
            if vetoed {
                heap.extend(victims);
                return false;
            }
            // Evicted entries are dropped (their storage freed) after
            // the heap lock is released.
            let evicted: Vec<Arc<Entry>> = victims
                .into_iter()
                .filter_map(|Reverse((_, victim, id))| self.try_evict(victim, id))
                .collect();
            drop(heap);
            drop(evicted);
        }
    }

    /// Locks the LRU heap. The heap holds plain `(stamp, key, id)`
    /// items and every repair is local, so a panic that poisoned the
    /// lock left nothing half-written: recover and count it.
    fn lru_heap<'h>(
        &self,
        lru: &'h Mutex<BinaryHeap<LruItem>>,
    ) -> std::sync::MutexGuard<'h, BinaryHeap<LruItem>> {
        lru.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            lru.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Pushes a just-published entry's heap item. Called after the
    /// shard lock that published it is released.
    fn lru_push(&self, key: CacheKey, entry: &Entry) {
        if let Some(lru) = &self.lru {
            let stamp = entry.last_used.load(Ordering::Relaxed);
            self.lru_heap(lru).push(Reverse((stamp, key, entry.id)));
        }
    }

    /// One attempt to reserve `bytes` + one entry against the budget
    /// counters. Fails (without side effects) when a bound would be
    /// exceeded; CAS races retry internally.
    fn try_reserve(&self, bytes: usize) -> bool {
        loop {
            let entries = self.resident_entries.load(Ordering::Relaxed);
            let resident = self.resident_bytes.load(Ordering::Relaxed);
            let entries_fit = self.budget.entries.is_none_or(|cap| entries < cap);
            let bytes_fit = self.budget.bytes.is_none_or(|cap| resident + bytes <= cap);
            if !(entries_fit && bytes_fit) {
                return false;
            }
            if self
                .resident_entries
                .compare_exchange(entries, entries + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            match self.resident_bytes.compare_exchange(
                resident,
                resident + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
    }

    /// Pops, in eviction order, the least-recently-stamped published
    /// entries whose eviction would let a `bytes`-sized candidate fit,
    /// repairing the heap lazily on the way: an item whose entry is gone
    /// is dropped, and an item whose entry was touched since it was
    /// pushed goes back with the entry's current stamp. The popped
    /// victims are returned (and are out of the heap); the caller evicts
    /// them or pushes them back. Returns `None`, with the heap restored,
    /// when even evicting every resident cannot make room (admission
    /// should reject); an empty plan means the budget already fits.
    ///
    /// Each item's stamp is at most its entry's, so an item whose stamp
    /// is current is the true `(stamp, key)` minimum among residents:
    /// the order equals a full sort's, at `O(log R)` per pop.
    fn plan_victims(&self, heap: &mut BinaryHeap<LruItem>, bytes: usize) -> Option<Vec<LruItem>> {
        let mut entries_left = self.resident_entries.load(Ordering::Relaxed);
        let mut bytes_left = self.resident_bytes.load(Ordering::Relaxed);
        let mut plan = Vec::new();
        loop {
            let entries_fit = self.budget.entries.is_none_or(|cap| entries_left < cap);
            let bytes_fit = self
                .budget
                .bytes
                .is_none_or(|cap| bytes_left + bytes <= cap);
            if entries_fit && bytes_fit {
                return Some(plan);
            }
            let Some(Reverse((pushed, key, id))) = heap.pop() else {
                heap.extend(plan);
                return None;
            };
            let current = {
                let map = self.shard_read(self.shard_for(key));
                map.get(&key)
                    .filter(|entry| entry.id == id && entry.published.get().is_some())
                    .map(|entry| {
                        (
                            entry.last_used.load(Ordering::Relaxed),
                            entry.charged_bytes.load(Ordering::Relaxed),
                        )
                    })
            };
            match current {
                // Evicted or cleared since it was pushed: drop the item.
                None => {}
                Some((stamp, _)) if stamp > pushed => heap.push(Reverse((stamp, key, id))),
                Some((_, charged)) => {
                    plan.push(Reverse((pushed, key, id)));
                    entries_left = entries_left.saturating_sub(1);
                    bytes_left = bytes_left.saturating_sub(charged);
                }
            }
        }
    }

    /// Evicts the entry `id` under `key` if it is still a published
    /// resident, releasing its budget reservation. Returns the evicted
    /// entry (`None` if it was gone), for the caller to drop once its
    /// locks are released.
    fn try_evict(&self, key: CacheKey, id: u64) -> Option<Arc<Entry>> {
        let shard = self.shard_for(key);
        let mut map = self.shard_write(shard);
        let is_resident = map
            .get(&key)
            .is_some_and(|entry| entry.id == id && entry.published.get().is_some());
        if !is_resident {
            return None;
        }
        let entry = map.remove(&key)?;
        let bytes = entry.charged_bytes.swap(0, Ordering::Relaxed);
        self.resident_entries.fetch_sub(1, Ordering::Relaxed);
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// A consistent-enough snapshot of the always-on counters (relaxed
    /// loads; exact once concurrent lookups have quiesced).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            reuse_hits: self.reuse_hits.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            extractions: self.extractions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected_admissions: self.rejected.load(Ordering::Relaxed),
            cold_hits: self.cold_hits.load(Ordering::Relaxed),
            cold_bytes_read: self.cold_bytes_read.load(Ordering::Relaxed),
            cold_fallbacks: self.cold_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resident entries across all shards (ready and in-flight), balls
    /// and stage results together.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.shard_read(s).len()).sum()
    }

    /// Resident stage results (a subset of
    /// [`ConcurrentSubgraphCache::len`]; O(residents), takes every shard
    /// read lock). `len() - resident_results()` is the resident balls.
    pub fn resident_results(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                self.shard_read(s)
                    .keys()
                    .filter(|key| matches!(key, CacheKey::Result(_)))
                    .count()
            })
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes: the exact global budget counter (O(1) relaxed
    /// load). This is the number admission reserves against; a
    /// configured [`CacheBudget::bytes`] bound is an invariant of this
    /// counter.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Resident bytes recomputed by summing every published entry's
    /// measured bytes ([`CachedBall::memory_bytes_total`] for a ball)
    /// (O(residents), takes every shard read lock). Once lookups quiesce this equals
    /// [`ConcurrentSubgraphCache::resident_bytes`] — asserted by the
    /// accounting property tests.
    pub fn resident_bytes_exact(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                self.shard_read(s)
                    .values()
                    .filter_map(|entry| entry.published.get())
                    .map(Resident::memory_bytes_total)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Drops every resident entry (statistics are kept). In-flight
    /// extractions complete normally; their waiters are still served.
    pub fn clear(&self) {
        // Hold the LRU heap across the whole clear (heap before shard
        // locks, the one order): an entry published meanwhile is either
        // cleared here or pushed after the heap is emptied.
        let mut heap = self.lru.as_ref().map(|lru| self.lru_heap(lru));
        if let Some(heap) = heap.as_mut() {
            heap.clear();
        }
        for shard in self.shards.iter() {
            let mut map = self.shard_write(shard);
            for entry in map.values() {
                // Only charged residents release budget; pending entries
                // (whose winner validates membership at publish time)
                // never charged anything.
                let bytes = entry.charged_bytes.swap(0, Ordering::Relaxed);
                if bytes > 0 {
                    self.resident_entries.fetch_sub(1, Ordering::Relaxed);
                    self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
                }
            }
            map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meloppr_graph::generators;

    /// Ball keys as these tests name them: `(node, depth)`.
    type CacheKey = (NodeId, u32);

    /// A demand lookup through throwaway scratch buffers. No cache in
    /// these tests has a cold tier, so a miss serves the full extraction
    /// it made and a hit the compact resident.
    pub(super) fn get<G: GraphView + ?Sized>(
        cache: &ConcurrentSubgraphCache,
        g: &G,
        node: NodeId,
        depth: u32,
        consumer: &CacheConsumer,
    ) -> Result<(CachedBall, usize)> {
        cache.get_ball_with_as(
            g,
            node,
            depth,
            &mut ExtractScratch::new(),
            &mut Vec::new(),
            consumer,
        )
    }

    /// As [`get`], attributed to a throwaway consumer (the tests that use
    /// it read only the global counters).
    pub(super) fn demand<G: GraphView + ?Sized>(
        cache: &ConcurrentSubgraphCache,
        g: &G,
        node: NodeId,
        depth: u32,
    ) -> Result<(CachedBall, usize)> {
        get(cache, g, node, depth, &CacheConsumer::default())
    }

    /// Whether two served balls are the same resident (`Arc` identity).
    pub(super) fn same(a: &CachedBall, b: &CachedBall) -> bool {
        match (a, b) {
            (CachedBall::Full(a), CachedBall::Full(b)) => Arc::ptr_eq(a, b),
            (CachedBall::Compact(a), CachedBall::Compact(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The full sub-graph a miss served.
    pub(super) fn full(ball: &CachedBall) -> &Subgraph {
        match ball {
            CachedBall::Full(sub) => sub,
            CachedBall::Compact(_) => panic!("a BFS miss serves the full extraction"),
        }
    }

    /// The compact bytes the cache charges for the BFS ball `(node, depth)`.
    pub(super) fn compact_bytes<G: GraphView + ?Sized>(g: &G, node: NodeId, depth: u32) -> usize {
        let sub = Subgraph::extract(g, &meloppr_graph::bfs_ball(g, node, depth).unwrap()).unwrap();
        CompactBall::from_subgraph(&sub)
            .unwrap()
            .memory_bytes_total()
    }

    #[test]
    fn hit_returns_shared_arc() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(4);
        let consumer = CacheConsumer::default();
        let (a, work_a) = get(&cache, &g, 0, 2, &consumer).unwrap();
        let (b, work_b) = get(&cache, &g, 0, 2, &consumer).unwrap();
        let (c, _) = get(&cache, &g, 0, 2, &consumer).unwrap();
        // The miss serves its full extraction; hits share the compact
        // resident.
        assert!(matches!(a, CachedBall::Full(_)));
        assert!(matches!(b, CachedBall::Compact(_)));
        assert!(same(&b, &c));
        assert!(work_a > 0);
        assert_eq!(work_b, 0);
        let stats = consumer.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn different_depths_are_distinct_entries() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(4);
        demand(&cache, &g, 0, 1).unwrap();
        demand(&cache, &g, 0, 2).unwrap();
        let (a, _) = demand(&cache, &g, 0, 1).unwrap();
        let (b, _) = demand(&cache, &g, 0, 2).unwrap();
        assert!(!same(&a, &b));
        assert!(a.num_nodes() < b.num_nodes());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recent() {
        let g = generators::path(32).unwrap();
        let cache = ConcurrentSubgraphCache::new(2);
        let consumer = CacheConsumer::default();
        get(&cache, &g, 0, 1, &consumer).unwrap();
        get(&cache, &g, 1, 1, &consumer).unwrap();
        // Touch node 0 so node 1 becomes the LRU victim.
        get(&cache, &g, 0, 1, &consumer).unwrap();
        get(&cache, &g, 2, 1, &consumer).unwrap(); // evicts (1, 1)
        assert_eq!(cache.len(), 2);
        let before = consumer.stats().misses;
        get(&cache, &g, 0, 1, &consumer).unwrap(); // still cached
        assert_eq!(consumer.stats().misses, before);
        get(&cache, &g, 1, 1, &consumer).unwrap(); // was evicted
        assert_eq!(consumer.stats().misses, before + 1);
    }

    /// The published keys resident in any shard, read without touching
    /// recency.
    fn resident_keys(cache: &ConcurrentSubgraphCache) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = cache
            .shards
            .iter()
            .flat_map(|shard| {
                cache
                    .shard_read(shard)
                    .iter()
                    .filter_map(|(&key, entry)| match key {
                        super::CacheKey::Ball(node, depth) if entry.published.get().is_some() => {
                            Some((node, depth))
                        }
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn single_threaded_eviction_is_strict_lru_across_shards() {
        // One global clock stamps the entries of every shard, and
        // eviction pops one LRU heap over the residents of all shards,
        // so a single thread sees strict LRU order even when the
        // residents live in different shards.
        let g = generators::path(64).unwrap();
        let cache = ConcurrentSubgraphCache::with_shards(4, 16);
        assert_eq!(cache.shard_count(), 16);
        let residents = [10u32, 11, 12, 13];
        let shards: std::collections::BTreeSet<usize> = residents
            .iter()
            .filter_map(|&node| {
                let shard = cache.shard_for((node, 1));
                cache.shards.iter().position(|s| std::ptr::eq(s, shard))
            })
            .collect();
        assert!(
            shards.len() >= 3,
            "residents must spread over shards: {shards:?}"
        );
        for node in residents {
            demand(&cache, &g, node, 1).unwrap();
        }
        // Re-touch two residents: LRU order is now 12, 13, 11, 10.
        demand(&cache, &g, 11, 1).unwrap();
        demand(&cache, &g, 10, 1).unwrap();
        let mut evicted = Vec::new();
        for node in [20u32, 21, 22, 23] {
            let before = resident_keys(&cache);
            demand(&cache, &g, node, 1).unwrap();
            let after = resident_keys(&cache);
            let gone: Vec<CacheKey> = before.into_iter().filter(|k| !after.contains(k)).collect();
            assert_eq!(gone.len(), 1, "one admission evicts one resident");
            evicted.push(gone[0].0);
        }
        assert_eq!(evicted, vec![12, 13, 11, 10]);
        assert_eq!(cache.stats().evictions, 4);
        assert_eq!(
            resident_keys(&cache),
            vec![(20, 1), (21, 1), (22, 1), (23, 1)]
        );
    }

    #[test]
    fn resident_bytes_and_clear() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(8);
        let consumer = CacheConsumer::default();
        get(&cache, &g, 0, 2, &consumer).unwrap();
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(consumer.stats().misses, 1); // stats survive clear
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ConcurrentSubgraphCache::with_budget(CacheBudget::entries(0));
    }

    #[test]
    fn errors_propagate() {
        let g = generators::path(3).unwrap();
        let cache = ConcurrentSubgraphCache::new(2);
        assert!(demand(&cache, &g, 99, 1).is_err());
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::tests::{compact_bytes, demand, full, get, same};
    use super::*;
    use meloppr_graph::{bfs_ball, generators};

    #[test]
    fn concurrent_hits_share_one_extraction() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(16);
        let (_, work_a) = demand(&cache, &g, 0, 2).unwrap();
        let (b, work_b) = demand(&cache, &g, 0, 2).unwrap();
        let (c, _) = demand(&cache, &g, 0, 2).unwrap();
        assert!(same(&b, &c));
        assert!(work_a > 0);
        assert_eq!(work_b, 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.extractions), (2, 1, 1));
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn matches_fresh_extraction_bit_for_bit() {
        let g = generators::grid(7, 5).unwrap();
        let cache = ConcurrentSubgraphCache::new(8);
        for (seed, depth) in [(0u32, 2), (17, 3), (34, 1), (5, 0)] {
            let (cached, _) = demand(&cache, &g, seed, depth).unwrap();
            let cached = full(&cached);
            let ball = bfs_ball(&g, seed, depth).unwrap();
            let fresh = Subgraph::extract(&g, &ball).unwrap();
            assert_eq!(cached.global_ids(), fresh.global_ids());
            assert_eq!(cached.num_edges(), fresh.num_edges());
            for local in 0..fresh.num_nodes() as NodeId {
                assert_eq!(cached.neighbors(local), fresh.neighbors(local));
                assert_eq!(cached.walk_degree(local), fresh.walk_degree(local));
            }
        }
    }

    #[test]
    fn scratch_extraction_matches_plain() {
        // One reused scratch against a fresh scratch per lookup: the same
        // balls, the same BFS work as a plain `bfs_ball`, the same counters.
        let g = generators::grid(6, 6).unwrap();
        let plain = ConcurrentSubgraphCache::new(8);
        let scratched = ConcurrentSubgraphCache::new(8);
        let consumer = CacheConsumer::default();
        let mut scratch = ExtractScratch::new();
        let mut cold_buf = Vec::new();
        for (seed, depth) in [(14u32, 2), (0, 1), (35, 3)] {
            let (a, wa) = demand(&plain, &g, seed, depth).unwrap();
            let a = full(&a);
            let (CachedBall::Full(b), wb) = scratched
                .get_ball_with_as(&g, seed, depth, &mut scratch, &mut cold_buf, &consumer)
                .unwrap()
            else {
                panic!("a BFS miss serves the full extraction");
            };
            assert_eq!(wa, wb);
            assert_eq!(wa, bfs_ball(&g, seed, depth).unwrap().edges_scanned);
            assert_eq!(a.global_ids(), b.global_ids());
            assert_eq!(a.num_edges(), b.num_edges());
        }
        assert_eq!(plain.stats(), scratched.stats());
    }

    #[test]
    fn eviction_respects_capacity_and_counts() {
        let g = generators::path(64).unwrap();
        // One shard so the capacity bound is exact.
        let cache = ConcurrentSubgraphCache::with_shards(4, 1);
        for seed in 0..8u32 {
            demand(&cache, &g, seed, 1).unwrap();
        }
        assert!(cache.len() <= 4);
        let stats = cache.stats();
        assert_eq!(stats.extractions, 8);
        assert_eq!(stats.evictions, 4);
        // The most recent entry survived.
        demand(&cache, &g, 7, 1).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn errors_propagate_and_leave_no_residue() {
        let g = generators::path(3).unwrap();
        let cache = ConcurrentSubgraphCache::new(4);
        assert!(demand(&cache, &g, 99, 1).is_err());
        assert!(cache.is_empty());
        // The failed key is re-attempted (and fails again) rather than
        // poisoning the cache.
        assert!(demand(&cache, &g, 99, 1).is_err());
        let ok = demand(&cache, &g, 1, 1);
        assert!(ok.is_ok());
    }

    #[test]
    fn clear_keeps_stats_and_stays_usable() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(8);
        demand(&cache, &g, 0, 2).unwrap();
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().extractions, 1);
        demand(&cache, &g, 0, 2).unwrap();
        assert_eq!(cache.stats().extractions, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ConcurrentSubgraphCache::new(0);
    }

    #[test]
    fn shard_count_clamped_and_reported() {
        let cache = ConcurrentSubgraphCache::new(4);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.budget().entries, Some(4));
        let wide = ConcurrentSubgraphCache::with_shards(1024, 32);
        assert_eq!(wide.shard_count(), 32);
        assert!(format!("{wide:?}").contains("ConcurrentSubgraphCache"));
    }

    #[test]
    fn consumers_attribute_their_own_lookups() {
        let g = generators::path(32).unwrap();
        let cache = ConcurrentSubgraphCache::new(64);
        let a = CacheConsumer::new(16);
        let b = CacheConsumer::new(16);
        // Consumer A: 4 distinct misses + 4 repeat hits.
        for seed in 0..4u32 {
            get(&cache, &g, seed, 1, &a).unwrap();
        }
        for seed in 0..4u32 {
            get(&cache, &g, seed, 1, &a).unwrap();
        }
        // Consumer B: 2 hits on A's entries + 2 fresh misses.
        for seed in 0..2u32 {
            get(&cache, &g, seed, 1, &b).unwrap();
        }
        for seed in 10..12u32 {
            get(&cache, &g, seed, 1, &b).unwrap();
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.hits, sa.misses, sa.extractions), (4, 4, 4));
        assert_eq!((sb.hits, sb.misses, sb.extractions), (2, 2, 2));
        assert_eq!(sa.lookups() + sb.lookups(), cache.stats().lookups());
        assert!((sa.hit_rate() - 0.5).abs() < 1e-12);
        // The global view sums both consumers.
        assert_eq!(cache.stats().extractions, 6);
    }

    #[test]
    fn windowed_rate_converges_after_traffic_shift() {
        let g = generators::path(512).unwrap();
        let cache = ConcurrentSubgraphCache::new(1024);
        let consumer = CacheConsumer::new(16);
        // Warm phase: one hot key looked up far beyond the window, so the
        // cumulative rate climbs towards 1.
        for _ in 0..64 {
            get(&cache, &g, 0, 1, &consumer).unwrap();
        }
        let stale_cumulative = consumer.stats().hit_rate();
        assert!(stale_cumulative > 0.9);
        assert!(consumer.windowed_hit_rate() > 0.9);
        // Shift: 16 (= one window) never-seen seeds, all misses. The
        // window must converge to the new all-miss regime within one
        // window while the cumulative rate stays stale.
        for seed in 100..116u32 {
            get(&cache, &g, seed, 1, &consumer).unwrap();
        }
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        assert!(consumer.stats().hit_rate() > 0.7, "cumulative stays stale");
        assert!(consumer.decayed_hit_rate() < stale_cumulative);
        assert!(consumer.windowed_hit_rate() < consumer.stats().hit_rate());
    }

    #[test]
    fn ewma_tracks_window_direction() {
        let consumer = CacheConsumer::new(8);
        assert_eq!(consumer.decayed_hit_rate(), 0.0);
        consumer.record(true);
        assert!((consumer.decayed_hit_rate() - 1.0).abs() < 1e-12);
        for _ in 0..8 {
            consumer.record(false);
        }
        assert!(consumer.decayed_hit_rate() < 0.5);
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
    }

    #[test]
    fn consumer_state_roundtrips_through_export_restore() {
        let consumer = CacheConsumer::new(8);
        // 3 misses then 5 frees, plus raw counter traffic.
        for _ in 0..3 {
            consumer.on_miss();
        }
        for _ in 0..4 {
            consumer.on_hit();
        }
        consumer.on_shared();
        consumer.extractions.store(3, Ordering::Relaxed);
        let state = consumer.export_state();
        assert_eq!(
            state.window,
            vec![false, false, false, true, true, true, true, true]
        );
        assert_eq!(state.stats.hits, 4);
        assert_eq!(state.stats.shared, 1);
        assert_eq!(state.stats.misses, 3);
        assert!(state.ewma.is_some());

        // Restore into a fresh consumer of the same window length: the
        // windowed and decayed rates are identical to the original's.
        let restored = CacheConsumer::new(8);
        restored.restore_state(&state);
        assert_eq!(restored.stats(), consumer.stats());
        assert_eq!(restored.windowed_hit_rate(), consumer.windowed_hit_rate());
        assert_eq!(restored.decayed_hit_rate(), consumer.decayed_hit_rate());
        assert_eq!(restored.export_state(), state);

        // A shorter window keeps the newest outcomes (all frees here).
        let short = CacheConsumer::new(4);
        short.restore_state(&state);
        assert_eq!(short.windowed_hit_rate(), 1.0);
        assert_eq!(short.export_state().window, vec![true, true, true, true]);

        // A wrapped ring exports oldest-first: overwrite the 8-slot ring
        // with 12 outcomes ending in 4 misses.
        for _ in 0..4 {
            consumer.on_miss();
        }
        let wrapped = consumer.export_state();
        assert_eq!(
            wrapped.window,
            vec![true, true, true, true, false, false, false, false]
        );
        // Restoring an empty/default state resets everything.
        consumer.restore_state(&ConsumerState::default());
        assert_eq!(consumer.stats(), ConsumerStats::default());
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        assert_eq!(consumer.decayed_hit_rate(), 0.0);
    }

    #[test]
    fn warming_counts_no_lookups_and_serves_hits() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(16);
        let consumer = CacheConsumer::new(8);
        let mut scratch = ExtractScratch::new();
        cache.warm_with(&g, 0, 2, &mut scratch).unwrap();
        cache.warm_with(&g, 0, 2, &mut scratch).unwrap(); // idempotent, no second extraction
        let warmed = cache.stats();
        assert_eq!(warmed.extractions, 1);
        assert_eq!(warmed.lookups(), 0);
        // The first demand lookup is a hit — warming did its job without
        // polluting the hit rate.
        let (_, work) = get(&cache, &g, 0, 2, &consumer).unwrap();
        assert_eq!(work, 0);
        assert_eq!(consumer.stats().hits, 1);
        assert_eq!(consumer.stats().misses, 0);
        assert!((consumer.windowed_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warm_does_not_refresh_recency_of_resident_entries() {
        let g = generators::path(32).unwrap();
        let cache = ConcurrentSubgraphCache::with_shards(2, 1);
        demand(&cache, &g, 0, 1).unwrap(); // A (oldest demand)
        demand(&cache, &g, 1, 1).unwrap(); // B
                                           // Re-warming A is not demand: it must NOT refresh A's recency.
        cache
            .warm_with(&g, 0, 1, &mut ExtractScratch::new())
            .unwrap();
        demand(&cache, &g, 2, 1).unwrap(); // evicts A, not B
        let before = cache.stats().misses;
        demand(&cache, &g, 1, 1).unwrap(); // B survived
        assert_eq!(cache.stats().misses, before);
        demand(&cache, &g, 0, 1).unwrap(); // A was the victim
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn max_nodes_admission_rejects_but_serves() {
        let g = generators::grid(8, 8).unwrap();
        // A depth-0 ball is 1 node; depth-3 balls are much larger.
        let cache =
            ConcurrentSubgraphCache::with_shards(8, 1).with_admission(AdmissionPolicy::MaxNodes(4));
        assert_eq!(cache.admission(), AdmissionPolicy::MaxNodes(4));
        let consumer = CacheConsumer::new(8);
        let small = get(&cache, &g, 0, 0, &consumer).unwrap();
        assert_eq!(small.0.num_nodes(), 1);
        let big = get(&cache, &g, 27, 3, &consumer).unwrap();
        assert!(big.0.num_nodes() > 4, "grid ball should exceed the budget");
        assert!(big.1 > 0, "rejected balls are still served (and paid for)");
        // Only the small ball is resident; the big one was rejected.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().rejected_admissions, 1);
        assert_eq!(consumer.stats().rejected_admissions, 1);
        // The big ball misses again; the small one still hits (the
        // rejected ball evicted nothing).
        get(&cache, &g, 27, 3, &consumer).unwrap();
        get(&cache, &g, 0, 0, &consumer).unwrap();
        let stats = consumer.stats();
        assert_eq!(stats.misses, 3); // small, big, big-again
        assert_eq!(stats.hits, 1); // small-again
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn frequency_gate_admits_on_second_sighting() {
        let g = generators::grid(8, 8).unwrap();
        let cache = ConcurrentSubgraphCache::with_shards(8, 1)
            .with_admission(AdmissionPolicy::FrequencyGated(4));
        let consumer = CacheConsumer::new(8);
        // First sighting of a big ball: extracted, served, rejected.
        get(&cache, &g, 27, 3, &consumer).unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected_admissions, 1);
        // Second sighting: the key has proven demand, so it is admitted.
        let (_, work) = get(&cache, &g, 27, 3, &consumer).unwrap();
        assert!(work > 0);
        assert_eq!(cache.len(), 1);
        // Third lookup is a hit.
        let (_, work) = get(&cache, &g, 27, 3, &consumer).unwrap();
        assert_eq!(work, 0);
        assert_eq!(consumer.stats().hits, 1);
        // Small balls are admitted immediately regardless of frequency.
        get(&cache, &g, 0, 0, &consumer).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn admission_policy_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(
            AdmissionPolicy::from_str("always").unwrap(),
            AdmissionPolicy::Always
        );
        assert_eq!(
            AdmissionPolicy::from_str("max-nodes:128").unwrap(),
            AdmissionPolicy::MaxNodes(128)
        );
        assert_eq!(
            AdmissionPolicy::from_str("freq:64").unwrap(),
            AdmissionPolicy::FrequencyGated(64)
        );
        assert_eq!(
            AdmissionPolicy::from_str("tinylfu").unwrap(),
            AdmissionPolicy::FrequencyVsVictim
        );
        assert_eq!(
            AdmissionPolicy::from_str("freq-vs-victim").unwrap(),
            AdmissionPolicy::FrequencyVsVictim
        );
        assert!(AdmissionPolicy::from_str("max-nodes:0").is_err());
        assert!(AdmissionPolicy::from_str("freq:x").is_err());
        assert!(AdmissionPolicy::from_str("lfu").is_err());
        for policy in [
            AdmissionPolicy::Always,
            AdmissionPolicy::MaxNodes(7),
            AdmissionPolicy::FrequencyGated(9),
            AdmissionPolicy::FrequencyVsVictim,
        ] {
            assert_eq!(
                AdmissionPolicy::from_str(&policy.to_string()).unwrap(),
                policy
            );
        }
    }

    #[test]
    fn byte_budget_evicts_until_candidate_fits() {
        let g = generators::path(64).unwrap();
        // A depth-1 path ball (≤ 3 nodes) costs a fixed number of
        // compact bytes; budget exactly two of them.
        let one = compact_bytes(&g, 10, 1);
        let cache = ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::bytes(2 * one), 1);
        assert_eq!(cache.budget(), CacheBudget::bytes(2 * one));
        demand(&cache, &g, 10, 1).unwrap();
        demand(&cache, &g, 20, 1).unwrap();
        assert_eq!(cache.resident_bytes(), 2 * one);
        assert_eq!(cache.stats().evictions, 0);
        // The third ball fits only after evicting the LRU first.
        demand(&cache, &g, 30, 1).unwrap();
        assert_eq!(cache.resident_bytes(), 2 * one);
        assert_eq!(cache.resident_bytes_exact(), 2 * one);
        assert_eq!(cache.stats().evictions, 1);
        // Key 10 was the victim; 20 and 30 still hit.
        let misses = cache.stats().misses;
        demand(&cache, &g, 20, 1).unwrap();
        demand(&cache, &g, 30, 1).unwrap();
        assert_eq!(cache.stats().misses, misses);
        demand(&cache, &g, 10, 1).unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
    }

    #[test]
    fn ball_larger_than_whole_byte_budget_is_rejected_but_served() {
        let g = generators::grid(8, 8).unwrap();
        // Budget far below any depth-2 grid ball.
        let cache = ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::bytes(64), 1);
        let (sub, work) = demand(&cache, &g, 27, 2).unwrap();
        assert!(sub.num_nodes() > 1);
        assert!(work > 0, "rejected balls are still served");
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().rejected_admissions, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn entry_and_byte_budgets_compose() {
        let g = generators::path(64).unwrap();
        let one = compact_bytes(&g, 10, 1);
        // Bytes would allow 4 balls; entries cap at 2 — the tighter
        // bound governs.
        let cache = ConcurrentSubgraphCache::with_budget_and_shards(
            CacheBudget::bytes(4 * one).with_entries(2),
            1,
        );
        for seed in [10u32, 20, 30, 40] {
            demand(&cache, &g, seed, 1).unwrap();
        }
        assert_eq!(cache.resident_entries(), 2);
        assert_eq!(cache.resident_bytes(), 2 * one);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn tinylfu_admits_only_when_candidate_beats_victim() {
        let g = generators::path(256).unwrap();
        let cache = ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::entries(2), 1)
            .with_admission(AdmissionPolicy::FrequencyVsVictim);
        // While under budget, everything is admitted.
        demand(&cache, &g, 10, 1).unwrap(); // freq(10) = 1
        demand(&cache, &g, 20, 1).unwrap(); // freq(20) = 1
        demand(&cache, &g, 20, 1).unwrap(); // hit, freq unchanged
        assert_eq!(cache.len(), 2);
        // A cold candidate (freq 1) does not beat the LRU victim
        // (key 10, freq 1): rejected, nothing evicted.
        demand(&cache, &g, 30, 1).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().rejected_admissions, 1);
        assert_eq!(cache.stats().evictions, 0);
        let misses = cache.stats().misses;
        demand(&cache, &g, 10, 1).unwrap(); // still resident
        assert_eq!(cache.stats().misses, misses);
        // The second sighting of key 30 (sketch count 2) beats the LRU
        // victim (key 20 — demanded once; hits are not sketch
        // sightings, so its count stayed 1): admitted, 20 evicted.
        demand(&cache, &g, 30, 1).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        let misses = cache.stats().misses;
        demand(&cache, &g, 30, 1).unwrap();
        assert_eq!(cache.stats().misses, misses, "admitted ball must hit");
    }

    #[test]
    fn tinylfu_rejection_never_evicts_even_when_multiple_victims_were_needed() {
        let g = generators::path(64).unwrap();
        let small = compact_bytes(&g, 10, 1);
        let big = compact_bytes(&g, 50, 2);
        // The candidate must need BOTH residents evicted to fit.
        assert!(small < big && big <= 2 * small, "setup: S < big <= 2S");
        let cache =
            ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::bytes(2 * small), 1)
                .with_admission(AdmissionPolicy::FrequencyVsVictim);
        // Sketch frequencies survive clear(): demand the hot key twice
        // (with a clear between, so both demands are misses), the cold
        // key once. Residents afterwards: cold (LRU, freq 1), hot
        // (freq 2); the byte budget is exactly full.
        demand(&cache, &g, 30, 1).unwrap(); // hot, freq 1
        cache.clear();
        demand(&cache, &g, 10, 1).unwrap(); // cold, freq 1
        demand(&cache, &g, 30, 1).unwrap(); // hot again, freq 2
        assert_eq!(cache.resident_bytes(), 2 * small);

        // First sighting of the big candidate (freq 1): the LRU victim
        // (cold, freq 1) already ties it — rejected, nothing evicted.
        demand(&cache, &g, 50, 2).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().rejected_admissions, 1);
        // Second sighting (freq 2): the victim PLAN is [cold, hot]; the
        // cold victim (freq 1) loses to the candidate, but the hot one
        // (freq 2) does not. The whole plan must be vetoed BEFORE any
        // eviction — the old incremental loop evicted the cold resident
        // first and then rejected, costing an admitted entry for
        // nothing.
        demand(&cache, &g, 50, 2).unwrap();
        assert_eq!(cache.stats().evictions, 0, "rejection must evict nothing");
        assert_eq!(cache.resident_bytes(), 2 * small);
        let misses = cache.stats().misses;
        demand(&cache, &g, 10, 1).unwrap(); // cold resident intact
        demand(&cache, &g, 30, 1).unwrap(); // hot resident intact
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn budget_probe_serves_without_admitting_and_admit_publishes() {
        let g = generators::path(64).unwrap();
        let cache = ConcurrentSubgraphCache::with_shards(8, 1);
        let consumer = CacheConsumer::new(8);
        let mut scratch = ExtractScratch::new();
        let mut cold_buf = Vec::new();
        // A probe miss extracts and counts, but nothing becomes resident.
        let (ball, work) = cache
            .probe_ball_with_as(&g, 10, 2, &mut scratch, &mut cold_buf, &consumer)
            .unwrap();
        let CachedBall::Full(sub) = &ball else {
            panic!("a BFS-served ball is full");
        };
        assert!(work > 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(consumer.stats().misses, 1);
        assert_eq!(consumer.stats().extractions, 1);
        assert_eq!(cache.stats().rejected_admissions, 0, "not a rejection");
        // Explicit admission makes it resident (compact) without a
        // lookup or BFS.
        cache.admit(10, 2, &ball, &consumer);
        assert_eq!(cache.len(), 1);
        let compact = CompactBall::from_subgraph(sub).unwrap();
        assert_eq!(cache.resident_bytes(), compact.memory_bytes_total());
        assert_eq!(cache.stats().extractions, 1);
        // The admitted ball now hits — for probes and demand alike.
        let (again, work) = cache
            .probe_ball_with_as(&g, 10, 2, &mut scratch, &mut cold_buf, &consumer)
            .unwrap();
        let CachedBall::Compact(again) = again else {
            panic!("the resident is compact");
        };
        assert_eq!(*again, compact);
        assert_eq!(work, 0);
        assert_eq!(consumer.stats().hits, 1);
        // Re-admitting is a no-op.
        cache.admit(10, 2, &ball, &consumer);
        assert_eq!(cache.len(), 1);
    }

    /// The LRU heap's lazy repair: a hit between admissions leaves the
    /// entry's heap item stale, and the eviction that pops it pushes it
    /// back at its new stamp instead of evicting it. A TinyLFU veto puts
    /// every planned victim back: nothing is evicted and the heap keeps
    /// one item per resident.
    #[test]
    fn lazy_heap_repairs_hits_and_vetoes_restore_victims() {
        let g = generators::path(64).unwrap();
        let cache = ConcurrentSubgraphCache::with_budget_and_shards(CacheBudget::entries(3), 2)
            .with_admission(AdmissionPolicy::FrequencyVsVictim);
        let heap_len =
            |cache: &ConcurrentSubgraphCache| cache.lru_heap(cache.lru.as_ref().unwrap()).len();
        for node in [10u32, 20, 30] {
            demand(&cache, &g, node, 1).unwrap();
        }
        demand(&cache, &g, 10, 1).unwrap(); // a hit: 10's item is stale
        assert_eq!(heap_len(&cache), 3);
        // First sighting of 40 ties the LRU victim (20, not the re-hit
        // 10): vetoed, nothing evicted, the victim back in the heap.
        demand(&cache, &g, 40, 1).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().rejected_admissions, 1);
        assert_eq!(heap_len(&cache), 3);
        // Second sighting beats it: 20 goes, the repaired 10 stays.
        demand(&cache, &g, 40, 1).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let hits = cache.stats().hits;
        for node in [10u32, 30, 40] {
            demand(&cache, &g, node, 1).unwrap();
        }
        assert_eq!(cache.stats().hits, hits + 3, "10, 30 and 40 stay resident");
        assert_eq!(heap_len(&cache), 3, "one heap item per resident");
        // A clear empties the heap with the shards.
        cache.clear();
        assert_eq!(heap_len(&cache), 0);
        assert!(ConcurrentSubgraphCache::new(4).lru.is_some());
        assert!(
            ConcurrentSubgraphCache::with_budget(CacheBudget::unbounded())
                .lru
                .is_none()
        );
    }

    #[test]
    fn global_entry_budget_is_exact_across_shards() {
        // The per-shard rounding regression: 16 entries over 8 shards
        // used to admit up to ceil(16/8) per shard = 16 + 7 extra under
        // unlucky hashing. The global counter holds the bound exactly.
        let g = generators::path(512).unwrap();
        let cache = ConcurrentSubgraphCache::with_shards(16, 8);
        for seed in 0..128u32 {
            demand(&cache, &g, seed, 1).unwrap();
        }
        assert_eq!(cache.resident_entries(), 16);
        assert!(cache.len() <= 16);
        assert_eq!(cache.stats().evictions, 128 - 16);
        assert_eq!(cache.resident_bytes(), cache.resident_bytes_exact());
    }

    #[test]
    fn consumer_window_and_warm() {
        let g = generators::path(32).unwrap();
        let cache = ConcurrentSubgraphCache::new(8);
        let consumer = CacheConsumer::new(4);
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        cache
            .warm_with(&g, 0, 1, &mut ExtractScratch::new())
            .unwrap();
        assert_eq!((consumer.stats().hits, consumer.stats().misses), (0, 0));
        assert_eq!(cache.len(), 1);
        get(&cache, &g, 0, 1, &consumer).unwrap(); // hit on the warmed ball
        assert_eq!(consumer.stats().hits, 1);
        assert!((consumer.windowed_hit_rate() - 1.0).abs() < 1e-12);
        // Four misses roll the hit out of the 4-lookup window.
        for seed in 10..14u32 {
            get(&cache, &g, seed, 1, &consumer).unwrap();
        }
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        // A new window (what `Meloppr::with_cache_window` installs)
        // starts empty and fills from the next lookup.
        let consumer = CacheConsumer::new(2);
        assert_eq!(consumer.windowed_hit_rate(), 0.0);
        get(&cache, &g, 13, 1, &consumer).unwrap();
        assert!((consumer.windowed_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisoned_shard_recovers_clear_and_continue() {
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(8);
        demand(&cache, &g, 0, 2).unwrap();
        let (first, work) = demand(&cache, &g, 0, 2).unwrap();
        assert_eq!(work, 0);
        // Poison the shard holding (0, 2) by panicking while its write
        // lock is held — the worst-case co-tenant failure.
        let shard = cache.shard_for((0, 2));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.map.write().unwrap();
            panic!("injected poison");
        }));
        assert!(unwound.is_err());
        assert!(shard.map.is_poisoned());
        // The next lookup recovers clear-and-continue: the shard's
        // residents were dropped (budget released), the lookup
        // re-extracts, and the recovery is counted.
        let (_, work) = demand(&cache, &g, 0, 2).unwrap();
        assert!(work > 0, "cleared shard must re-extract");
        assert_eq!(cache.poison_recoveries(), 1);
        assert!(!shard.map.is_poisoned());
        // Accounting stayed exact through the clear.
        assert_eq!(cache.resident_bytes(), cache.resident_bytes_exact());
        // And the cache keeps serving: a re-hit shares the new resident,
        // not the one the recovery dropped.
        let (second, work) = demand(&cache, &g, 0, 2).unwrap();
        let (third, _) = demand(&cache, &g, 0, 2).unwrap();
        assert!(same(&second, &third));
        assert!(!same(&first, &second));
        assert_eq!(work, 0);
    }

    #[test]
    fn panicking_extraction_fails_pending_entry_instead_of_deadlocking() {
        // A panic inside the winner's `extract` (e.g. an injected
        // `cache.extract` panic fault) must not strand the pending
        // entry: waiters would block on its condvar forever. The unwind
        // guard fails and purges it, so a later lookup re-extracts.
        let g = generators::karate_club();
        let cache = ConcurrentSubgraphCache::new(8);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache
                .lookup(&g, 7, 2, None, LookupMode::Demand, |_, _| {
                    panic!("extraction blew up")
                })
                .map(|_| ())
        }));
        assert!(unwound.is_err());
        // No deadlock and no stranded entry: the key extracts fresh.
        let (ball, work) = demand(&cache, &g, 7, 2).unwrap();
        assert!(work > 0);
        assert!(ball.num_nodes() > 0);
        assert_eq!(cache.resident_bytes(), cache.resident_bytes_exact());
    }
}

#[cfg(test)]
mod engine_integration_tests {
    use super::*;
    use crate::meloppr::staged_query_impl;
    use crate::quantized::PrecisionClass;
    use crate::{MelopprEngine, MelopprParams, PprParams, QueryWorkspace, SelectionStrategy};
    use meloppr_graph::generators::corpus::PaperGraph;

    #[test]
    fn cached_query_matches_uncached_and_saves_bfs() {
        let g = PaperGraph::G2Cora.generate_scaled(0.2, 3).unwrap();
        let params = MelopprParams {
            ppr: PprParams::new(0.85, 6, 30).unwrap(),
            stages: vec![3, 3],
            selection: SelectionStrategy::TopFraction(0.1),
            ..MelopprParams::paper_defaults()
        };
        let engine = MelopprEngine::new(&g, params.clone()).unwrap();
        let cache = ConcurrentSubgraphCache::new(512);
        let consumer = CacheConsumer::default();
        let cached = |seed| {
            staged_query_impl(
                &g,
                &params,
                seed,
                PrecisionClass::Exact64,
                Some((&cache, &consumer)),
                None,
                &mut QueryWorkspace::new(),
            )
            .unwrap()
        };

        let plain = engine.query(7).unwrap();
        let first = cached(7);
        assert_eq!(first.ranking, plain.ranking);
        assert_eq!(first.stats.bfs_edges_scanned, plain.stats.bfs_edges_scanned);

        // Second identical query: all sub-graphs served from cache.
        let second = cached(7);
        assert_eq!(second.ranking, plain.ranking);
        assert_eq!(second.stats.bfs_edges_scanned, 0);
        assert!(consumer.stats().hits as usize >= plain.stats.total_diffusions);

        // A nearby query shares hub sub-graphs: strictly less BFS work.
        let third = cached(8);
        let fresh = engine.query(8).unwrap();
        assert_eq!(third.ranking, fresh.ranking);
        assert!(third.stats.bfs_edges_scanned <= fresh.stats.bfs_edges_scanned);
    }
}
