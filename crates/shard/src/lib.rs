//! # quasii-shard
//!
//! Sharded QUASII: a multi-instance shard router that splits one dataset
//! across `K` independent [`Quasii`] engines and fans queries out to the
//! shards whose key ranges they overlap — the scale-out layer on top of the
//! paper's single-array incremental index.
//!
//! ## Design
//!
//! * **Planning** — one upfront pass samples record assignment keys along
//!   the first cracked dimension (dimension 0, the same key every engine
//!   cracks first) and picks `K − 1` equi-depth boundary fences via the
//!   [`KeyFences`] machinery shared with the intra-engine batch partitioner.
//!   Each shard owns the records whose key falls in its fence range; its
//!   *interior* stays adaptively cracked per the paper — only the shard
//!   boundaries come from a static sort-then-partition planning pass.
//! * **Routing** — a query visits exactly the shards whose fence ranges
//!   intersect its extension-adjusted span on dimension 0 (the same §5.2
//!   query-extension rule the engine itself applies, using the *global*
//!   maximum object extent so no shard holding a qualifying record is ever
//!   skipped).
//! * **Two-level parallelism, one thread budget** — a batch runs its shards
//!   as jobs on the process-wide [`quasii::exec`] executor, up to
//!   [`ShardConfig::shard_threads`] at a time, and each shard runs its
//!   assigned sub-batch through [`Quasii::execute_batch`], which itself
//!   cracks disjoint top-level partitions as executor jobs, up to
//!   [`QuasiiConfig::threads`] at a time. Both levels hire from the same
//!   parked workers, so total concurrency never exceeds
//!   [`quasii::exec::budget`] (the host's parallelism), whatever the two
//!   knobs say.
//!
//! ## Determinism
//!
//! Per-shard state (data permutation, hierarchy, stats) is **bit-for-bit
//! identical for every shard-thread count, engine-thread count and batch
//! size**: routing depends only on the fences and the global extent (both
//! fixed at construction), so each shard always sees the same query
//! subsequence in the same order, and the engine's batch path is itself
//! deterministic (see `quasii::Quasii::execute_batch`).
//!
//! ## Persistence
//!
//! A deployment snapshots as **one buffer per shard** (each an independent
//! engine snapshot, see `quasii`'s `persist` module) plus a small
//! checksummed **manifest** binding them together: fences, router extension,
//! router counters, and a per-shard `(record count, length, checksum)`
//! table. [`ShardedQuasii::write_snapshot_parts`] /
//! [`ShardedQuasii::from_snapshot_parts`] expose the parts individually —
//! the migration seam (shard buffers can live on different nodes) — and
//! [`ShardedQuasii::write_snapshot`] / [`ShardedQuasii::from_snapshot`]
//! pack manifest + buffers into a single file-friendly byte vector. A
//! reloaded deployment answers every query byte-identically to the writer.
//!
//! Result vectors are returned in **canonical (ascending id) order**. The
//! single-instance engine emits hits in physical data order, which depends
//! on its private crack permutation; a sharded deployment cannot reproduce
//! that order (a query spanning a fence interleaves records the fence
//! separated), and a service layer must not leak its internal layout
//! anyway. Canonicalizing makes every query's result vector byte-identical
//! across **every** (shard count, thread count, batch size) configuration
//! — and equal to the sorted single-instance answer, which is exactly the
//! brute-force ground truth's format. `tests/shard.rs` and the `repro
//! sharding` experiment assert all three equalities byte-for-byte.
//!
//! ```
//! use quasii_shard::{ShardConfig, ShardedQuasii};
//! use quasii_common::geom::{Aabb, Record};
//! use quasii_common::index::SpatialIndex;
//!
//! let data: Vec<Record<2>> = (0..5_000)
//!     .map(|i| {
//!         let v = i as f64 / 10.0;
//!         Record::new(i, Aabb::new([v; 2], [v + 2.0; 2]))
//!     })
//!     .collect();
//! let mut index = ShardedQuasii::new(data, ShardConfig::default().with_shards(4));
//! let hits = index.query_collect(&Aabb::new([100.0; 2], [120.0; 2]));
//! assert!(!hits.is_empty());
//! assert!(hits.windows(2).all(|w| w[0] < w[1]), "canonical id order");
//! assert_eq!(index.snapshots().len(), 4);
//! ```

#![warn(missing_docs)]

mod merge;
pub mod recovery;

pub use merge::{sort_canonical, RADIX_MIN};
pub use recovery::{Coverage, DegradedQuasii, Recovery, RecoveryReport, ShardHealth, ShardStatus};

use quasii::crack::key_of;
use quasii::snapshot::{fnv1a, SnapshotError};
use quasii::{
    exec, AssignBy, EnginePoisoned, KeyFences, Quasii, QuasiiConfig, QuasiiStats, RepairOutcome,
};
use quasii_common::fsx::{self, SnapshotStore};
use quasii_common::geom::{Aabb, Record};
use quasii_common::index::SpatialIndex;
use quasii_obs as obs;
use std::path::{Path, PathBuf};

/// First 8 bytes of every shard-deployment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"QSIISHRD";
/// The one manifest format version this build writes and accepts (bumped on
/// **any** layout change, mirroring the engine snapshot's policy).
/// Version 2 added the snapshot **generation** counter and the inner engine
/// configuration, so durable multi-file commits can name their part files
/// and degraded-mode recovery can rebuild shards with zero healthy engines.
pub const MANIFEST_VERSION: u32 = 2;

/// Tuning knobs of [`ShardedQuasii`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards `K` the planner splits the dataset into (`0` and
    /// `1` both mean a single shard). Degenerate key distributions collapse
    /// tied boundary quantiles, so the planner may produce *fewer* shards
    /// than requested (never more) — every planned shard owns a
    /// non-degenerate key range instead of sitting permanently empty.
    pub shards: usize,
    /// Most shards [`ShardedQuasii::execute_batch`] runs at once: `0` (the
    /// default) resolves to [`std::thread::available_parallelism`], `1`
    /// executes shards sequentially in shard order. The executor's thread
    /// budget caps it further (see the crate docs). Results are identical
    /// for every value.
    pub shard_threads: usize,
    /// Upper bound on the number of keys the boundary planner samples
    /// (stride-subsampled deterministically, no RNG).
    pub sample_cap: usize,
    /// Configuration handed to every per-shard engine; its
    /// [`threads`](QuasiiConfig::threads) field is the *inner* level of the
    /// two-level parallelism.
    pub inner: QuasiiConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            shard_threads: 0,
            sample_cap: 4096,
            inner: QuasiiConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Returns `self` with the shard count set (chainable).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns `self` with the shard-worker count set (chainable).
    pub fn with_shard_threads(mut self, shard_threads: usize) -> Self {
        self.shard_threads = shard_threads;
        self
    }

    /// Returns `self` with the per-shard engine configuration set
    /// (chainable).
    pub fn with_inner(mut self, inner: QuasiiConfig) -> Self {
        self.inner = inner;
        self
    }
}

/// Point-in-time view of one shard — record count, refinement progress and
/// work counters. This is the introspection seam a future service layer
/// serves over the network (per-shard health, balance and convergence
/// without touching the engines).
#[derive(Clone, Debug)]
pub struct ShardSnapshot<const D: usize> {
    /// Shard index (ascending key ranges).
    pub shard: usize,
    /// Lower fence (inclusive) of the owned key range on dimension 0.
    pub key_lo: f64,
    /// Upper fence (exclusive) of the owned key range on dimension 0.
    pub key_hi: f64,
    /// Records owned by the shard.
    pub records: usize,
    /// Slices currently in the shard's hierarchy (crack progress; 0 until
    /// the shard's first query).
    pub slices: usize,
    /// Slices per hierarchy level (crack depth profile).
    pub level_profile: [usize; D],
    /// The shard engine's cumulative work counters.
    pub stats: QuasiiStats,
    /// Approximate heap bytes of the shard's index structure.
    pub index_bytes: usize,
    /// Fraction of the shard's records covered by sealed read-path arenas
    /// (see `quasii::Quasii::sealed_fraction`) — the convergence signal a
    /// rebalancer reads: a shard stuck near `0.0` while its siblings sit at
    /// `1.0` is still paying crack costs and a candidate for splitting.
    pub sealed_fraction: f64,
    /// Heap bytes of the shard's sealed arenas (included in
    /// [`index_bytes`](Self::index_bytes)).
    pub seal_bytes: usize,
}

/// Router-level counters (the engines keep their own [`QuasiiStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries accepted by the router.
    pub queries: u64,
    /// Total shard executions dispatched (one query may visit several
    /// shards; `shard_visits / queries` is the mean fan-out).
    pub shard_visits: u64,
}

impl RouterStats {
    /// Cell order inside the router's [`obs::CounterGroup`] backing store
    /// (the snapshot/merge idiom shared with the engine's seal counters).
    pub(crate) const QUERIES: usize = 0;
    pub(crate) const SHARD_VISITS: usize = 1;
    pub(crate) const CELLS: usize = 2;

    /// One consistent snapshot of the router's counter group.
    pub(crate) fn from_group(g: &obs::CounterGroup<{ Self::CELLS }>) -> Self {
        let [queries, shard_visits] = g.snapshot();
        Self {
            queries,
            shard_visits,
        }
    }

    /// Cells in group order, for seeding a group from a decoded manifest.
    pub(crate) fn cells(&self) -> [u64; Self::CELLS] {
        [self.queries, self.shard_visits]
    }
}

/// A sharded QUASII deployment: `K` independent engines behind one
/// [`SpatialIndex`] facade.
pub struct ShardedQuasii<const D: usize> {
    shards: Vec<Quasii<D>>,
    fences: KeyFences,
    cfg: ShardConfig,
    /// Router-side query extension on dimension 0, derived from the global
    /// maximum object extent and the assignment mode (mirrors the engine's
    /// §5.2 extension so routing is conservative).
    ext_low0: f64,
    ext_high0: f64,
    /// Router counters ([`RouterStats`] cells) in the shared registry
    /// group type — one snapshot/merge idiom across the whole suite.
    router: obs::CounterGroup<{ RouterStats::CELLS }>,
    /// Snapshot generation: `0` until first persisted, then the generation
    /// of the last durable commit (see
    /// [`write_snapshot_files`](Self::write_snapshot_files)).
    generation: u64,
    /// First worker-panic detail, set when a shard engine poisons itself
    /// mid-batch; the deployment refuses queries until
    /// [`repair`](Self::repair).
    poisoned: Option<String>,
}

/// One unit of shard work inside a batch: the target engine, the batch
/// indices routed to it, and the hits it produced.
struct Task<'a, const D: usize> {
    shard: usize,
    engine: &'a mut Quasii<D>,
    queries: Vec<usize>,
    hits: Vec<Vec<u64>>,
    /// Worker-panic detail: set when the shard's engine poisoned itself (or
    /// the routing glue itself panicked, caught by the executor) while
    /// running this task.
    error: Option<String>,
}

impl<const D: usize> ShardedQuasii<D> {
    /// Plans shard boundaries and splits `data` into `cfg.shards` owned
    /// partitions, each backed by its own [`Quasii`] engine.
    ///
    /// Unlike [`Quasii::new`] this is **O(n)**: the planner builds the
    /// dimension-0 **assignment-key column** (one `key_of` per record —
    /// needed anyway to route records to shards), plans equi-depth fences
    /// from a deterministic stride sample of that column
    /// ([`KeyFences::equi_depth_sampled`]), measures the global dimension-0
    /// extent (needed before the first query can be routed) and physically
    /// partitions records *and keys* in lockstep. Each shard engine adopts
    /// its sub-column via [`Quasii::with_precomputed_keys`], so no shard
    /// ever recomputes a key the router already paid for. Records keep
    /// their relative order within each shard, so a single-shard deployment
    /// is byte-identical to the plain engine.
    pub fn new(data: Vec<Record<D>>, cfg: ShardConfig) -> Self {
        let mode = cfg.inner.assign_by;
        let mut ext0 = 0.0f64;
        for r in &data {
            ext0 = ext0.max(r.mbb.hi[0] - r.mbb.lo[0]);
        }
        let (ext_low0, ext_high0) = match mode {
            AssignBy::Lower => (ext0, 0.0),
            AssignBy::Center => (ext0 * 0.5, ext0 * 0.5),
            AssignBy::Upper => (0.0, ext0),
        };
        // The whole dataset's dimension-0 key column: routing consumes it
        // here, and each shard inherits its slice of it below.
        let all_keys: Vec<f64> = data.iter().map(|r| key_of(r, 0, mode)).collect();
        let fences = if cfg.shards <= 1 {
            KeyFences::single()
        } else {
            KeyFences::equi_depth_sampled(&all_keys, cfg.shards, cfg.sample_cap)
        };
        let mut parts: Vec<Vec<Record<D>>> = Vec::with_capacity(fences.parts());
        parts.resize_with(fences.parts(), Vec::new);
        let mut part_keys: Vec<Vec<f64>> = Vec::with_capacity(fences.parts());
        part_keys.resize_with(fences.parts(), Vec::new);
        for (r, k) in data.into_iter().zip(all_keys) {
            let owner = fences.owner_of(k);
            parts[owner].push(r);
            part_keys[owner].push(k);
        }
        let shards = parts
            .into_iter()
            .zip(part_keys)
            .map(|(p, k)| Quasii::with_precomputed_keys(p, k, cfg.inner.clone()))
            .collect();
        Self {
            shards,
            fences,
            cfg,
            ext_low0,
            ext_high0,
            router: obs::CounterGroup::new(),
            generation: 0,
            poisoned: None,
        }
    }

    /// Number of shards (planned fence ranges; may be fewer than requested
    /// on degenerate key distributions — see [`ShardConfig::shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The planned key fences (shard `k` owns dimension-0 assignment keys
    /// in `fences().range(k)`).
    pub fn fences(&self) -> &KeyFences {
        &self.fences
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Read access to the per-shard engines, in shard order.
    pub fn engines(&self) -> &[Quasii<D>] {
        &self.shards
    }

    /// Router-level counters (queries accepted, shard executions).
    pub fn router_stats(&self) -> RouterStats {
        RouterStats::from_group(&self.router)
    }

    /// Engine work counters folded across all shards. `queries` counts
    /// per-shard executions (a query visiting two shards counts twice);
    /// [`router_stats`](Self::router_stats) has the user-facing count.
    pub fn stats(&self) -> QuasiiStats {
        let mut total = QuasiiStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Point-in-time snapshot of every shard, in shard order — the seam a
    /// service layer exposes for balance/convergence monitoring.
    pub fn snapshots(&self) -> Vec<ShardSnapshot<D>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let (key_lo, key_hi) = self.fences.range(k);
                ShardSnapshot {
                    shard: k,
                    key_lo,
                    key_hi,
                    records: s.data().len(),
                    slices: s.slice_count(),
                    level_profile: s.level_profile(),
                    stats: s.stats(),
                    index_bytes: s.index_bytes(),
                    sealed_fraction: s.sealed_fraction(),
                    seal_bytes: s.seal_bytes(),
                }
            })
            .collect()
    }

    /// The most shard jobs [`execute_batch`](Self::execute_batch) asks
    /// the executor to run at once: the
    /// [`shard_threads`](ShardConfig::shard_threads) knob, with `0`
    /// resolved to [`std::thread::available_parallelism`] (the executor's
    /// thread budget may grant fewer).
    pub fn effective_shard_threads(&self) -> usize {
        match self.cfg.shard_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Completes the incremental build of every shard (see
    /// [`Quasii::finalize`]).
    pub fn finalize(&mut self) {
        for s in &mut self.shards {
            s.finalize();
        }
    }

    /// Seals every shard's converged top-level slices (see
    /// [`Quasii::seal`]): after a warm-up — or [`finalize`](Self::finalize)
    /// — this moves every shard onto the shared-read path up front instead
    /// of at its next query.
    pub fn seal(&mut self) {
        for s in &mut self.shards {
            s.seal();
        }
    }

    /// Record-weighted fraction of the whole deployment answered through
    /// sealed read paths (`0.0` when empty) — the aggregate convergence
    /// signal; [`snapshots`](Self::snapshots) has the per-shard breakdown.
    pub fn sealed_fraction(&self) -> f64 {
        let total: usize = self.shards.iter().map(|s| s.data().len()).sum();
        if total == 0 {
            return 0.0;
        }
        let sealed: usize = self.shards.iter().map(Quasii::sealed_records).sum();
        sealed as f64 / total as f64
    }

    /// Checks every shard's structural invariants plus the router's
    /// ownership invariant (each record's key inside its shard's fence
    /// range); returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.fences.validate().map_err(|e| format!("fences: {e}"))?;
        if self.fences.parts() != self.shards.len() {
            return Err(format!(
                "{} fence ranges vs {} shard engines",
                self.fences.parts(),
                self.shards.len()
            ));
        }
        let mode = self.cfg.inner.assign_by;
        for (k, s) in self.shards.iter().enumerate() {
            s.validate().map_err(|e| format!("shard {k}: {e}"))?;
            let (lo, hi) = self.fences.range(k);
            for r in s.data() {
                let key = key_of(r, 0, mode);
                if !(lo <= key && key < hi) {
                    return Err(format!(
                        "shard {k}: record {} key {key} outside owned range [{lo}, {hi})",
                        r.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// `true` once a worker panic poisoned the deployment — every query
    /// entry point refuses (structured error or panic) until
    /// [`repair`](Self::repair).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The poison marker as a structured error, if set.
    pub fn poison_error(&self) -> Option<EnginePoisoned> {
        self.poisoned
            .clone()
            .map(|detail| EnginePoisoned { detail })
    }

    /// Clears a worker-panic poison marker by repairing every poisoned
    /// shard engine (see [`Quasii::repair`]): each engine either
    /// re-validates in place (its adaptive state survives) or rebuilds
    /// itself by re-cracking from its record multiset — the paper's
    /// recovery posture. Returns the *worst* per-shard outcome.
    pub fn repair(&mut self) -> RepairOutcome {
        if self.poisoned.is_none() && self.shards.iter().all(|s| !s.is_poisoned()) {
            return RepairOutcome::Clean;
        }
        let mut worst = RepairOutcome::Revalidated;
        for s in &mut self.shards {
            if let RepairOutcome::Rebuilt = s.repair() {
                worst = RepairOutcome::Rebuilt;
            }
        }
        self.poisoned = None;
        worst
    }

    /// Snapshot generation of the last durable commit (`0` before the
    /// first [`write_snapshot_files`](Self::write_snapshot_files); restored
    /// from the manifest on load).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Test seam: arms a one-shot panic inside shard `shard`'s engine that
    /// fires on the `query_index`-th query of its **next sub-batch** (the
    /// shard-local index, not the batch-global one). See
    /// `Quasii::inject_panic_at`.
    #[doc(hidden)]
    pub fn inject_panic_at(&mut self, shard: usize, query_index: usize) {
        self.shards[shard].inject_panic_at(query_index);
    }

    /// Serializes the deployment as a **manifest** plus **one buffer per
    /// shard** — the migration seam: each shard buffer is a self-contained
    /// engine snapshot that can be shipped to (and verified on) a different
    /// node, while the manifest pins the pieces together (fences, router
    /// extension/counters, and a per-shard record-count/length/checksum
    /// table).
    ///
    /// Like the engine's `write_snapshot`, this sweeps pending seal work
    /// first, so a snapshot captures the post-sweep state.
    pub fn write_snapshot_parts(&mut self) -> Result<(Vec<u8>, Vec<Vec<u8>>), SnapshotError> {
        if self.is_poisoned() {
            return Err(SnapshotError::Unsupported(
                "a poisoned sharded deployment (a worker panicked mid-batch; call repair() first)",
            ));
        }
        let mut shard_bufs = Vec::with_capacity(self.shards.len());
        for s in &mut self.shards {
            shard_bufs.push(s.write_snapshot()?);
        }
        let mut m = Vec::new();
        m.extend_from_slice(&MANIFEST_MAGIC);
        m.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        m.extend_from_slice(&(D as u32).to_le_bytes());
        m.extend_from_slice(&[0u8; 16]); // checksum + total, patched below
        for v in [
            self.generation,
            self.shards.len() as u64,
            self.cfg.shards as u64,
            self.cfg.shard_threads as u64,
            self.cfg.sample_cap as u64,
            self.cfg.inner.tau as u64,
            assign_code(self.cfg.inner.assign_by),
            self.cfg.inner.max_artificial_depth as u64,
            self.cfg.inner.threads as u64,
            self.cfg.inner.seal as u64,
        ] {
            m.extend_from_slice(&v.to_le_bytes());
        }
        m.extend_from_slice(&self.ext_low0.to_le_bytes());
        m.extend_from_slice(&self.ext_high0.to_le_bytes());
        let router = self.router_stats();
        m.extend_from_slice(&router.queries.to_le_bytes());
        m.extend_from_slice(&router.shard_visits.to_le_bytes());
        let inner = self.fences.inner_bounds();
        m.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        for b in inner {
            m.extend_from_slice(&b.to_le_bytes());
        }
        for (s, buf) in self.shards.iter().zip(&shard_bufs) {
            m.extend_from_slice(&(s.data().len() as u64).to_le_bytes());
            m.extend_from_slice(&(buf.len() as u64).to_le_bytes());
            m.extend_from_slice(&fnv1a(buf).to_le_bytes());
        }
        let total = m.len() as u64;
        m[24..32].copy_from_slice(&total.to_le_bytes());
        let sum = fnv1a(&m[24..]);
        m[16..24].copy_from_slice(&sum.to_le_bytes());
        Ok((m, shard_bufs))
    }

    /// Revives a deployment from [`Self::write_snapshot_parts`] output. Every
    /// shard buffer is verified against the manifest's length/checksum
    /// table (buffers must arrive in shard order), then loaded through the
    /// engine's own validated snapshot path; the reloaded deployment
    /// answers every query byte-identically to the writer. Never panics on
    /// malformed input.
    pub fn from_snapshot_parts(
        manifest: &[u8],
        shards: Vec<Vec<u8>>,
    ) -> Result<Self, SnapshotError> {
        let m = parse_manifest::<D>(manifest)?;
        if m.total != manifest.len() {
            return Err(corrupt(format!(
                "manifest claims {} bytes, got {}",
                m.total,
                manifest.len()
            )));
        }
        Self::assemble(m, shards)
    }

    /// Serializes the whole deployment into **one buffer**: the manifest of
    /// [`write_snapshot_parts`](Self::write_snapshot_parts) followed by the
    /// shard buffers back-to-back — the single-file transport.
    pub fn write_snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let (manifest, shard_bufs) = self.write_snapshot_parts()?;
        let mut out = manifest;
        for b in &shard_bufs {
            out.extend_from_slice(b);
        }
        Ok(out)
    }

    /// Revives a deployment from a packed [`write_snapshot`]
    /// (manifest + shard buffers) byte vector. Never panics on malformed
    /// input.
    ///
    /// [`write_snapshot`]: Self::write_snapshot
    pub fn from_snapshot(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let m = parse_manifest::<D>(&bytes)?;
        let mut off = m.total;
        let mut bufs = Vec::with_capacity(m.shards.len());
        for (k, &(_, len, _)) in m.shards.iter().enumerate() {
            let end = off
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| corrupt(format!("shard {k} buffer overruns the packed snapshot")))?;
            bufs.push(bytes[off..end].to_vec());
            off = end;
        }
        if off != bytes.len() {
            return Err(corrupt(format!(
                "packed snapshot holds {} bytes, sections account for {off}",
                bytes.len()
            )));
        }
        Self::assemble(m, bufs)
    }

    /// Shared tail of both load paths: verify each shard buffer against the
    /// manifest table, revive the engines — **in parallel**, one executor
    /// job per shard — and rebuild the router around them. Per-shard
    /// failures are collected and the first one *in shard order* is
    /// returned, so the error is deterministic for every worker count.
    fn assemble(m: Manifest, shard_bufs: Vec<Vec<u8>>) -> Result<Self, SnapshotError> {
        if shard_bufs.len() != m.shards.len() {
            return Err(corrupt(format!(
                "manifest lists {} shards, got {} buffers",
                m.shards.len(),
                shard_bufs.len()
            )));
        }
        let fences = KeyFences::from_inner(m.inner_bounds.clone());
        fences
            .validate()
            .map_err(|e| corrupt(format!("fences: {e}")))?;
        struct LoadJob<const D: usize> {
            entry: (usize, usize, u64),
            buf: Vec<u8>,
            loaded: Option<Result<Quasii<D>, SnapshotError>>,
        }
        let mut jobs: Vec<LoadJob<D>> = m
            .shards
            .iter()
            .zip(shard_bufs)
            .map(|(&entry, buf)| LoadJob {
                entry,
                buf,
                loaded: None,
            })
            .collect();
        let outcome = exec::for_each_mut(exec::budget(), &mut jobs, |k, job| {
            job.loaded = Some(load_shard(k, job.entry, std::mem::take(&mut job.buf)));
        });
        if let Err(p) = outcome {
            return Err(corrupt(format!(
                "shard {}: loader panicked: {}",
                p.index, p.message
            )));
        }
        let loaded = jobs
            .into_iter()
            .map(|j| j.loaded.expect("every load job ran"));
        let mut engines: Vec<Quasii<D>> = Vec::with_capacity(m.shards.len());
        for r in loaded {
            engines.push(r?);
        }
        Ok(Self::from_parts_raw(engines, fences, m))
    }

    /// Raw constructor shared by [`assemble`](Self::assemble) and the
    /// recovery path: trusts that `engines` already passed per-shard
    /// verification and match `fences` one-to-one.
    pub(crate) fn from_parts_raw(engines: Vec<Quasii<D>>, fences: KeyFences, m: Manifest) -> Self {
        Self {
            shards: engines,
            fences,
            cfg: ShardConfig {
                shards: m.requested_shards,
                shard_threads: m.shard_threads,
                sample_cap: m.sample_cap,
                inner: m.inner,
            },
            ext_low0: m.ext_low0,
            ext_high0: m.ext_high0,
            router: obs::CounterGroup::from_snapshot(m.router.cells()),
            generation: m.generation,
            poisoned: None,
        }
    }

    /// Durably commits the deployment to `path` as a **new generation** of
    /// part files plus a manifest, through `store`'s atomic-replace
    /// protocol (see `quasii_common::fsx`):
    ///
    /// 1. every shard buffer is written atomically to its own
    ///    generation-stamped part file (`<path>.g<G>.part<k>`, `G` = old
    ///    generation + 1) — new parts never overwrite the committed ones;
    /// 2. the checksummed manifest (carrying `G`) is written atomically to
    ///    `path` **last** — its rename is the single commit point: a crash
    ///    anywhere earlier leaves the old manifest naming the old parts,
    ///    both intact;
    /// 3. the superseded generation's part files are removed best-effort
    ///    (failures ignored — stale parts are garbage, not corruption).
    ///
    /// Returns the committed generation.
    pub fn write_snapshot_files<S: SnapshotStore + ?Sized>(
        &mut self,
        store: &S,
        path: &Path,
    ) -> Result<u64, SnapshotError> {
        // The previous commit (if any) tells us which generation to
        // supersede and how many stale parts to sweep afterwards. The read
        // retries transient errors so a flaky store cannot silently reset
        // the generation counter.
        let prev = fsx::RetryPolicy::default()
            .run(|| store.read_file(path))
            .ok()
            .and_then(|b| parse_manifest_any(&b).ok())
            .map(|(_, m)| (m.generation, m.shards.len()));
        self.generation = prev.map_or(0, |(g, _)| g).max(self.generation) + 1;
        let (manifest, shard_bufs) = self.write_snapshot_parts()?;
        for (k, buf) in shard_bufs.iter().enumerate() {
            fsx::write_atomic(store, &part_path(path, self.generation, k), buf)?;
        }
        fsx::write_atomic(store, path, &manifest)?;
        if let Some((old_gen, old_count)) = prev {
            for k in 0..old_count {
                let _ = store.remove_file(&part_path(path, old_gen, k));
            }
        }
        Ok(self.generation)
    }

    /// Revives a deployment committed by
    /// [`write_snapshot_files`](Self::write_snapshot_files): reads the
    /// manifest at `path`, then the generation-stamped part files it names.
    /// Also accepts a **packed** single-file snapshot at `path` (the
    /// manifest's `total` tells the two layouts apart), so one loader
    /// serves both transports. Never panics on malformed input; any
    /// missing or corrupt part yields `Err` — use
    /// [`Recovery`](crate::recovery::Recovery) to load what survives
    /// instead.
    pub fn from_snapshot_files<S: SnapshotStore + ?Sized>(
        store: &S,
        path: &Path,
    ) -> Result<Self, SnapshotError> {
        let bytes = store.read_file(path)?;
        let m = parse_manifest::<D>(&bytes)?;
        if bytes.len() > m.total {
            return Self::from_snapshot(bytes);
        }
        let mut bufs = Vec::with_capacity(m.shards.len());
        for k in 0..m.shards.len() {
            bufs.push(store.read_file(&part_path(path, m.generation, k))?);
        }
        Self::assemble(m, bufs)
    }

    /// The extension-adjusted routing span of `query` on dimension 0.
    fn extended_span(&self, query: &Aabb<D>) -> (f64, f64) {
        (query.lo[0] - self.ext_low0, query.hi[0] + self.ext_high0)
    }

    /// Executes a batch of range queries across the shards — shards as
    /// executor jobs, each shard's sub-batch through the engine's own
    /// batch-parallel path — and returns one id vector per query (in
    /// `queries` order, each in canonical ascending-id order).
    ///
    /// Results are byte-identical for every (shard count, shard-thread
    /// count, engine-thread count, batch size) combination, and equal to
    /// the canonicalized single-instance answer (see the module docs).
    pub fn execute_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        match self.try_execute_batch(queries) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`execute_batch`](Self::execute_batch) with worker panics surfaced
    /// as a structured error instead of a propagated panic: if any shard
    /// engine poisons itself mid-batch the whole deployment poisons (first
    /// failing shard wins, deterministically) and returns
    /// Books a batch's routing decision into the global registry: one
    /// fan-out histogram observation per query, one [`ShardRoute`] trace
    /// event per visited shard. `assigned` is the router's per-shard query
    /// lists. Pure side channel — routing itself never reads the registry.
    ///
    /// [`ShardRoute`]: obs::trace::TraceEvent::ShardRoute
    fn observe_routing(&self, query_count: usize, assigned: &[Vec<usize>]) {
        if obs::enabled() {
            obs::registry::SHARD_BATCHES_TOTAL.inc();
            let mut fanout = vec![0u64; query_count];
            for per_shard in assigned {
                for &j in per_shard {
                    fanout[j] += 1;
                }
            }
            for f in fanout {
                obs::registry::SHARD_FANOUT.observe(f);
            }
        }
        if obs::trace::on() {
            for (k, per_shard) in assigned.iter().enumerate() {
                if !per_shard.is_empty() {
                    obs::trace::record(|| obs::trace::TraceEvent::ShardRoute {
                        shard: k as u64,
                        queries: per_shard.len() as u64,
                    });
                }
            }
        }
    }

    /// Refreshes the per-shard balance gauges (`shard_records`,
    /// `shard_sealed_fraction`) after a batch. Metrics-gated: the gauge
    /// map takes a Mutex, so the disabled path must not touch it.
    fn publish_shard_gauges(&self) {
        if !obs::enabled() {
            return;
        }
        for (k, engine) in self.shards.iter().enumerate() {
            let label = k.to_string();
            obs::registry::SHARD_RECORDS.set(&label, engine.len() as f64);
            obs::registry::SHARD_SEALED_FRACTION.set(&label, engine.sealed_fraction());
        }
    }

    /// [`EnginePoisoned`]; call [`repair`](Self::repair) to recover. The
    /// deployment **never** silently returns partial results.
    pub fn try_execute_batch(
        &mut self,
        queries: &[Aabb<D>],
    ) -> Result<Vec<Vec<u64>>, EnginePoisoned> {
        if let Some(e) = self.poison_error() {
            return Err(e);
        }
        self.router.add(RouterStats::QUERIES, queries.len() as u64);
        let mut results: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
        results.resize_with(queries.len(), Vec::new);
        if queries.is_empty() {
            return Ok(results);
        }
        let assigned = self
            .fences
            .assign(queries.iter().map(|q| self.extended_span(q)));
        self.router.add(
            RouterStats::SHARD_VISITS,
            assigned.iter().map(|a| a.len() as u64).sum::<u64>(),
        );
        self.observe_routing(queries.len(), &assigned);
        let workers_cap = self.effective_shard_threads();

        let mut tasks: Vec<Task<'_, D>> = Vec::new();
        for ((shard, engine), queries) in self.shards.iter_mut().enumerate().zip(assigned) {
            if !queries.is_empty() {
                tasks.push(Task {
                    shard,
                    engine,
                    queries,
                    hits: Vec::new(),
                    error: None,
                });
            }
        }

        // Shard jobs on the executor; every shard engine is an independent
        // `&mut`. The engine reports its own worker panics as `Err`; a panic
        // in this glue is caught by the executor and booked on its task.
        let outcome = exec::for_each_mut(workers_cap, &mut tasks, |_, t| {
            let sub: Vec<Aabb<D>> = t.queries.iter().map(|&j| queries[j]).collect();
            match t.engine.try_execute_batch(&sub) {
                Ok(hits) => t.hits = hits,
                Err(e) => t.error = Some(e.detail),
            }
        });
        if let Err(p) = outcome {
            tasks[p.index].error.get_or_insert(p.message);
        }

        // A worker panic anywhere poisons the whole deployment: partial
        // results would be silently wrong. `tasks` is in shard order, so
        // the reported failure is the first failing shard regardless of
        // which worker hit it first.
        if let Some(t) = tasks.iter().find(|t| t.error.is_some()) {
            let detail = format!(
                "shard {}: {}",
                t.shard,
                t.error.as_deref().unwrap_or("worker panic")
            );
            if self.poisoned.is_none() {
                self.poisoned = Some(detail.clone());
            }
            return Err(EnginePoisoned { detail });
        }

        // Merge hits per query in shard order (deterministic), then
        // canonicalize: shards are disjoint, so this is a duplicate-free
        // union sorted by id.
        for t in tasks {
            for (&j, hits) in t.queries.iter().zip(t.hits) {
                if results[j].is_empty() {
                    results[j] = hits;
                } else {
                    results[j].extend(hits);
                }
            }
        }
        let mut scratch = Vec::new();
        for r in &mut results {
            sort_canonical(r, &mut scratch);
        }
        self.publish_shard_gauges();
        Ok(results)
    }

    /// The admission-batching seam (`crates/server`): executes several
    /// independent query groups as **one** engine batch and demultiplexes
    /// the answers back per group. Each group gets exactly the vectors
    /// [`try_execute_batch`](Self::try_execute_batch) would have returned
    /// for it alone — batching is invisible in the results (the engine's
    /// established determinism contract), which is what lets a service
    /// layer coalesce concurrently arriving requests without changing any
    /// answer byte.
    ///
    /// On [`EnginePoisoned`] the whole call fails; no group receives a
    /// partial answer.
    pub fn try_execute_grouped(
        &mut self,
        groups: &[&[Aabb<D>]],
    ) -> Result<Vec<Vec<Vec<u64>>>, EnginePoisoned> {
        let flat: Vec<Aabb<D>> = groups.iter().flat_map(|g| g.iter().copied()).collect();
        let mut all = self.try_execute_batch(&flat)?.into_iter();
        Ok(groups
            .iter()
            .map(|g| all.by_ref().take(g.len()).collect())
            .collect())
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// The part-file path for shard `shard` of snapshot generation
/// `generation`, as named by a manifest committed at `path`:
/// `<path>.g<G>.part<k>`, a sibling of the manifest.
pub fn part_path(path: &Path, generation: u64, shard: usize) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "shards".to_string());
    path.with_file_name(format!("{name}.g{generation}.part{shard}"))
}

/// What [`manifest_summary`] reports about a shard-deployment manifest
/// without loading any engine.
#[derive(Clone, Debug)]
pub struct ManifestSummary {
    /// Dimensionality declared in the header.
    pub dims: u32,
    /// Snapshot generation (names the part files of a multi-file commit).
    pub generation: u64,
    /// Manifest byte length; a packed snapshot's shard buffers start here.
    pub total: usize,
    /// Per-shard `(record count, buffer length, buffer checksum)` table.
    pub shards: Vec<(usize, usize, u64)>,
    /// Records across all shards.
    pub records: usize,
    /// Bytes across all shard buffers (excluding the manifest).
    pub shard_bytes: usize,
}

/// Parses and verifies a manifest **header** (magic, version, checksum,
/// body accounting) of any dimensionality and returns its shard table —
/// the CLI `verify` seam: no engine is constructed, no part file read.
pub fn manifest_summary(bytes: &[u8]) -> Result<ManifestSummary, SnapshotError> {
    let (dims, m) = parse_manifest_any(bytes)?;
    Ok(ManifestSummary {
        dims,
        generation: m.generation,
        total: m.total,
        records: m.shards.iter().map(|&(r, _, _)| r).sum(),
        shard_bytes: m.shards.iter().map(|&(_, l, _)| l).sum(),
        shards: m.shards,
    })
}

/// Manifest encoding of [`AssignBy`] (mirrors the engine snapshot's).
fn assign_code(mode: AssignBy) -> u64 {
    match mode {
        AssignBy::Lower => 0,
        AssignBy::Center => 1,
        AssignBy::Upper => 2,
    }
}

fn assign_from_code(v: u64) -> Result<AssignBy, SnapshotError> {
    match v {
        0 => Ok(AssignBy::Lower),
        1 => Ok(AssignBy::Center),
        2 => Ok(AssignBy::Upper),
        other => Err(corrupt(format!("unknown assignment mode {other}"))),
    }
}

/// Verifies one shard buffer against its manifest entry
/// `(record count, length, checksum)` and revives its engine — the
/// per-shard unit of work the parallel load path fans out.
fn load_shard<const D: usize>(
    k: usize,
    (records, len, sum): (usize, usize, u64),
    buf: Vec<u8>,
) -> Result<Quasii<D>, SnapshotError> {
    if buf.len() != len {
        return Err(corrupt(format!(
            "shard {k} buffer is {} bytes, manifest says {len}",
            buf.len()
        )));
    }
    if fnv1a(&buf) != sum {
        return Err(corrupt(format!("shard {k} buffer checksum mismatch")));
    }
    let engine = Quasii::from_snapshot(buf).map_err(|e| match e {
        SnapshotError::Corrupt(msg) => corrupt(format!("shard {k}: {msg}")),
        other => other,
    })?;
    if engine.data().len() != records {
        return Err(corrupt(format!(
            "shard {k} holds {} records, manifest says {records}",
            engine.data().len()
        )));
    }
    Ok(engine)
}

/// Decoded manifest: everything the router needs besides the engines
/// themselves, plus the per-shard verification table
/// `(record count, buffer length, buffer checksum)`.
pub(crate) struct Manifest {
    pub(crate) total: usize,
    pub(crate) generation: u64,
    pub(crate) requested_shards: usize,
    pub(crate) shard_threads: usize,
    pub(crate) sample_cap: usize,
    pub(crate) inner: QuasiiConfig,
    pub(crate) ext_low0: f64,
    pub(crate) ext_high0: f64,
    pub(crate) router: RouterStats,
    pub(crate) inner_bounds: Vec<f64>,
    pub(crate) shards: Vec<(usize, usize, u64)>,
}

/// Sequential little-endian reader over the manifest body; every read is
/// bounds-checked so a short or hostile buffer yields `Err`, never a panic.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| corrupt(format!("manifest truncated at offset {}", self.pos)))?;
        let v = u64::from_le_bytes(self.b[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn index(&mut self, what: &str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt(format!("{what} exceeds usize")))
    }

    /// Checks that `count` entries of `entry_bytes` each fit in the bytes
    /// remaining — the pre-allocation guard against forged huge counts.
    fn fits(&self, count: usize, entry_bytes: usize, what: &str) -> Result<(), SnapshotError> {
        let need = count
            .checked_mul(entry_bytes)
            .ok_or_else(|| corrupt(format!("{what} count overflows")))?;
        if need > self.b.len() - self.pos {
            return Err(corrupt(format!(
                "{count} {what} need {need} bytes, only {} remain",
                self.b.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Parses and verifies a manifest prefix for dimensionality `D` (see
/// [`parse_manifest_any`] for the runtime-dims variant).
pub(crate) fn parse_manifest<const D: usize>(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let (dims, m) = parse_manifest_any(bytes)?;
    if dims as usize != D {
        return Err(SnapshotError::WrongDims {
            found: dims,
            expected: D as u32,
        });
    }
    Ok(m)
}

/// Parses and verifies a manifest prefix (magic, version, checksum, exact
/// body accounting) without pinning the dimensionality — the CLI `verify`
/// path inspects manifests of any `D`. `bytes` may extend past the
/// manifest — the packed single-buffer form appends the shard buffers
/// right after it — so callers decide what `total` must equal.
///
/// Every count read from the body is validated against the bytes that
/// remain *before* any allocation sized by it, so a forged manifest with a
/// colliding checksum and huge counts yields `Err`, never an OOM abort.
pub(crate) fn parse_manifest_any(bytes: &[u8]) -> Result<(u32, Manifest), SnapshotError> {
    if bytes.len() < 32 {
        return Err(corrupt(format!(
            "{} bytes is shorter than the 32-byte manifest prefix",
            bytes.len()
        )));
    }
    if bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic (not a QUASII shard manifest)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return Err(SnapshotError::WrongVersion {
            found: version,
            expected: MANIFEST_VERSION,
        });
    }
    let dims = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let total = usize::try_from(u64::from_le_bytes(bytes[24..32].try_into().unwrap()))
        .map_err(|_| corrupt("manifest length exceeds usize"))?;
    if total < 32 || total > bytes.len() {
        return Err(corrupt(format!(
            "manifest claims {total} bytes, buffer holds {}",
            bytes.len()
        )));
    }
    let actual = fnv1a(&bytes[24..total]);
    if actual != checksum {
        return Err(corrupt(format!(
            "manifest checksum mismatch: header {checksum:#018x}, computed {actual:#018x}"
        )));
    }

    let mut r = Reader {
        b: &bytes[..total],
        pos: 32,
    };
    let generation = r.u64()?;
    let shard_count = r.index("shard count")?;
    if shard_count == 0 {
        return Err(corrupt("manifest lists zero shards"));
    }
    let requested_shards = r.index("requested shard count")?;
    let shard_threads = r.index("shard threads")?;
    let sample_cap = r.index("sample cap")?;
    let inner = QuasiiConfig {
        tau: r.index("tau")?,
        assign_by: assign_from_code(r.u64()?)?,
        max_artificial_depth: r.index("max artificial depth")?,
        threads: r.index("inner threads")?,
        seal: match r.u64()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("seal flag is {other}, expected 0 or 1"))),
        },
        // SIMD dispatch is a host property, never persisted: re-resolve on
        // the loading host (see `quasii::simd`).
        simd: quasii::SimdPolicy::default(),
    };
    let ext_low0 = r.f64()?;
    let ext_high0 = r.f64()?;
    let router = RouterStats {
        queries: r.u64()?,
        shard_visits: r.u64()?,
    };
    let bound_count = r.index("inner-bound count")?;
    if bound_count != shard_count - 1 {
        return Err(corrupt(format!(
            "{bound_count} inner fence bounds for {shard_count} shards"
        )));
    }
    // Guard every count-sized allocation against the bytes that actually
    // remain: a forged (checksum-colliding) manifest must not OOM us.
    r.fits(bound_count, 8, "inner fence bounds")?;
    let mut inner_bounds = Vec::with_capacity(bound_count);
    for _ in 0..bound_count {
        inner_bounds.push(r.f64()?);
    }
    r.fits(shard_count, 24, "shard table entries")?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let records = r.index("shard record count")?;
        let len = r.index("shard buffer length")?;
        let sum = r.u64()?;
        shards.push((records, len, sum));
    }
    if r.pos != total {
        return Err(corrupt(format!(
            "manifest body ends at {}, header claims {total}",
            r.pos
        )));
    }
    Ok((
        dims,
        Manifest {
            total,
            generation,
            requested_shards,
            shard_threads,
            sample_cap,
            inner,
            ext_low0,
            ext_high0,
            router,
            inner_bounds,
            shards,
        },
    ))
}

impl<const D: usize> SpatialIndex<D> for ShardedQuasii<D> {
    fn name(&self) -> &'static str {
        "QUASII-sharded"
    }

    fn query(&mut self, query: &Aabb<D>, out: &mut Vec<u64>) {
        if let Some(e) = self.poison_error() {
            panic!("{e}");
        }
        self.router.inc(RouterStats::QUERIES);
        let (lo, hi) = self.extended_span(query);
        let range = self.fences.overlapping(lo, hi);
        self.router
            .add(RouterStats::SHARD_VISITS, range.len() as u64);
        if obs::enabled() {
            obs::registry::SHARD_FANOUT.observe(range.len() as u64);
        }
        for k in range.clone() {
            obs::trace::record(|| obs::trace::TraceEvent::ShardRoute {
                shard: k as u64,
                queries: 1,
            });
        }
        let mut hits = Vec::new();
        for k in range {
            self.shards[k].query(query, &mut hits);
        }
        sort_canonical(&mut hits, &mut Vec::new());
        out.extend(hits);
    }

    fn query_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        self.execute_batch(queries)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.data().len()).sum()
    }

    fn index_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index_bytes()).sum()
    }

    fn seal(&mut self) {
        ShardedQuasii::seal(self);
    }

    fn sealed_fraction(&self) -> f64 {
        ShardedQuasii::sealed_fraction(self)
    }

    fn write_snapshot(&mut self) -> Result<Vec<u8>, SnapshotError> {
        ShardedQuasii::write_snapshot(self)
    }

    fn from_snapshot(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        ShardedQuasii::from_snapshot(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::fault::MemStore;
    use quasii_common::index::{assert_matches_brute_force, brute_force, canonical_results};
    use quasii_common::workload;

    /// Canonical reference: single-instance sequential execution with each
    /// query's hits sorted.
    fn canonical_reference<const D: usize>(
        data: &[Record<D>],
        queries: &[Aabb<D>],
        cfg: &QuasiiConfig,
    ) -> Vec<Vec<u64>> {
        let mut idx = Quasii::new(data.to_vec(), cfg.clone().with_threads(1));
        canonical_results(&mut idx, queries)
    }

    #[test]
    fn matches_single_instance_across_shard_counts() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 101);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 50, 1e-3, 102).queries;
        let inner = QuasiiConfig::with_tau(16);
        let reference = canonical_reference(&data, &queries, &inner);
        for shards in [1usize, 2, 3, 7] {
            let cfg = ShardConfig::default()
                .with_shards(shards)
                .with_inner(inner.clone());
            let mut idx = ShardedQuasii::new(data.clone(), cfg);
            assert_eq!(idx.shard_count(), shards.max(1));
            let got = idx.execute_batch(&queries);
            assert_eq!(got, reference, "shards = {shards}");
            idx.validate()
                .unwrap_or_else(|e| panic!("shards = {shards}: {e}"));
        }
    }

    #[test]
    fn grouped_execution_is_invisible_in_the_results() {
        let data = uniform_boxes_in::<3>(3_000, 600.0, 111);
        let u = Aabb::new([0.0; 3], [600.0; 3]);
        let queries = workload::uniform(&u, 40, 1e-3, 112).queries;
        let inner = QuasiiConfig::with_tau(16);
        // Reference: every group executed alone, on its own fresh engine
        // state sequence — i.e. one engine fed the groups one at a time.
        let cfg = || {
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(16))
        };
        for cuts in [vec![0usize, 1, 5, 5, 40], vec![0, 40], vec![13, 27, 40]] {
            let mut bounds = vec![0usize];
            bounds.extend(&cuts);
            let groups: Vec<&[Aabb<3>]> = bounds
                .windows(2)
                .map(|w| &queries[w[0].min(w[1])..w[1]])
                .collect();

            let mut solo = ShardedQuasii::new(data.clone(), cfg());
            let expect: Vec<Vec<Vec<u64>>> = groups
                .iter()
                .map(|g| solo.try_execute_batch(g).unwrap())
                .collect();

            let mut grouped = ShardedQuasii::new(data.clone(), cfg());
            let got = grouped.try_execute_grouped(&groups).unwrap();
            assert_eq!(got, expect, "cuts = {cuts:?}");
            // And both equal the canonical single-instance answer.
            let flat_got: Vec<Vec<u64>> = got.into_iter().flatten().collect();
            let flat_queries: Vec<Aabb<3>> =
                groups.iter().flat_map(|g| g.iter().copied()).collect();
            assert_eq!(
                flat_got,
                canonical_reference(&data, &flat_queries, &inner),
                "cuts = {cuts:?}"
            );
        }
        // Empty input: no groups, no work, no error.
        let mut idx = ShardedQuasii::new(data, cfg());
        assert!(idx.try_execute_grouped(&[]).unwrap().is_empty());
    }

    /// Observable state of one run: results, per-shard id orders, stats.
    type RunState = (Vec<Vec<u64>>, Vec<Vec<u64>>, QuasiiStats);

    #[test]
    fn two_level_parallelism_is_deterministic() {
        let data = uniform_boxes_in::<3>(3_000, 800.0, 103);
        let u = Aabb::new([0.0; 3], [800.0; 3]);
        let queries = workload::clustered(&u, 3, 12, 1e-3, 104).queries;
        let mut baseline: Option<RunState> = None;
        for shard_threads in [1usize, 2, 4] {
            for inner_threads in [1usize, 3] {
                let cfg = ShardConfig::default()
                    .with_shards(3)
                    .with_shard_threads(shard_threads)
                    .with_inner(QuasiiConfig::with_tau(12).with_threads(inner_threads));
                let mut idx = ShardedQuasii::new(data.clone(), cfg);
                let got = idx.execute_batch(&queries);
                let orders: Vec<Vec<u64>> = idx
                    .engines()
                    .iter()
                    .map(|s| s.data().iter().map(|r| r.id).collect())
                    .collect();
                let stats = idx.stats();
                match &baseline {
                    None => baseline = Some((got, orders, stats)),
                    Some((r, o, st)) => {
                        assert_eq!(&got, r, "results at {shard_threads}x{inner_threads}");
                        assert_eq!(&orders, o, "permutation at {shard_threads}x{inner_threads}");
                        assert_eq!(&stats, st, "stats at {shard_threads}x{inner_threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn chained_batches_and_single_queries_agree() {
        let data = uniform_boxes_in::<2>(2_000, 400.0, 105);
        let u = Aabb::new([0.0; 2], [400.0; 2]);
        let queries = workload::uniform(&u, 30, 1e-3, 106).queries;
        let cfg = ShardConfig::default()
            .with_shards(4)
            .with_inner(QuasiiConfig::with_tau(10));

        let mut whole = ShardedQuasii::new(data.clone(), cfg.clone());
        let expect = whole.execute_batch(&queries);

        let mut chunked = ShardedQuasii::new(data.clone(), cfg.clone());
        let mut got = Vec::new();
        for chunk in queries.chunks(7) {
            got.extend(chunked.execute_batch(chunk));
        }
        assert_eq!(got, expect);
        assert_eq!(chunked.stats(), whole.stats());

        let mut one_by_one = ShardedQuasii::new(data, cfg);
        let singles: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| one_by_one.query_collect(q))
            .collect();
        assert_eq!(singles, expect);
        assert_eq!(one_by_one.stats(), whole.stats());
        assert_eq!(one_by_one.router_stats(), whole.router_stats());
    }

    #[test]
    fn degenerate_keys_collapse_into_one_shard() {
        let data = degenerate::identical::<2>(600);
        let mut cfg = ShardConfig::default()
            .with_shards(5)
            .with_inner(QuasiiConfig::with_tau(8));
        cfg.inner.max_artificial_depth = 16;
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        assert_eq!(
            idx.shard_count(),
            1,
            "tied boundary quantiles collapse to a single shard"
        );
        let snaps = idx.snapshots();
        let populated: Vec<usize> = snaps
            .iter()
            .filter(|s| s.records > 0)
            .map(|s| s.shard)
            .collect();
        assert_eq!(populated, vec![0], "all identical keys in the one shard");
        let q = Aabb::new([5.5; 2], [5.8; 2]);
        let got = idx.query_collect(&q);
        assert_eq!(got.len(), 600);
        assert_matches_brute_force(&data, &q, &got);
        idx.validate().unwrap();
    }

    #[test]
    fn router_never_misses_straddling_objects() {
        // A huge object whose key sits far left of the query must still be
        // found: the router's extension uses the global max extent.
        let mut data = uniform_boxes_in::<2>(1_000, 1_000.0, 107);
        data.push(Record::new(1_000, Aabb::new([0.0, 0.0], [900.0, 5.0])));
        let cfg = ShardConfig::default().with_shards(4);
        let mut idx = ShardedQuasii::new(data.clone(), cfg);
        let q = Aabb::new([880.0, 0.0], [890.0, 4.0]);
        let got = idx.query_collect(&q);
        assert!(got.contains(&1_000));
        assert_matches_brute_force(&data, &q, &got);
    }

    #[test]
    fn empty_dataset_and_empty_batch() {
        let mut idx = ShardedQuasii::<3>::new(Vec::new(), ShardConfig::default().with_shards(3));
        assert!(idx.is_empty());
        assert_eq!(idx.shard_count(), 1, "empty data plans a single shard");
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([0.0; 3], [1.0; 3]);
        assert_eq!(idx.execute_batch(&[q]), vec![Vec::<u64>::new()]);
        idx.validate().unwrap();

        let data = uniform_boxes_in::<3>(400, 100.0, 108);
        let mut idx = ShardedQuasii::new(data.clone(), ShardConfig::default().with_shards(2));
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = idx.execute_batch(&[q]);
        assert_eq!(got[0], brute_force(&data, &q));
    }

    #[test]
    fn snapshots_cover_partition_and_progress() {
        let data = uniform_boxes_in::<3>(3_000, 500.0, 109);
        let cfg = ShardConfig::default().with_shards(4);
        let mut idx = ShardedQuasii::new(data, cfg);
        let before = idx.snapshots();
        assert_eq!(before.len(), 4);
        assert_eq!(before.iter().map(|s| s.records).sum::<usize>(), 3_000);
        // Equi-depth planning: no shard owns more than half the data.
        assert!(before.iter().all(|s| s.records < 1_500), "{before:?}");
        assert!(before.iter().all(|s| s.slices == 0), "lazy engines");
        assert!(before.windows(2).all(|w| w[0].key_hi == w[1].key_lo));

        idx.query_collect(&Aabb::new([0.0; 3], [500.0; 3]));
        let after = idx.snapshots();
        assert!(after.iter().any(|s| s.slices > 0));
        assert!(after.iter().any(|s| s.stats.did_work()));
        assert_eq!(idx.router_stats().queries, 1);
        assert!(idx.router_stats().shard_visits >= 1);
        assert!(idx.index_bytes() > 0);
        assert_eq!(idx.name(), "QUASII-sharded");
    }

    #[test]
    fn finalize_freezes_every_shard() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 110);
        let mut idx = ShardedQuasii::new(
            data.clone(),
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(32)),
        );
        idx.finalize();
        idx.validate().unwrap();
        let cracks = idx.stats().cracks;
        assert!(cracks > 0);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        for q in &workload::uniform(&u, 20, 1e-3, 111).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        assert_eq!(
            idx.stats().cracks,
            cracks,
            "no reorganization after finalize"
        );
    }

    #[test]
    fn sealing_reports_convergence_per_shard() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 112);
        let mut idx = ShardedQuasii::new(
            data.clone(),
            ShardConfig::default()
                .with_shards(3)
                .with_inner(QuasiiConfig::with_tau(16)),
        );
        assert_eq!(idx.sealed_fraction(), 0.0, "nothing sealed before queries");
        idx.finalize();
        idx.seal();
        assert_eq!(idx.sealed_fraction(), 1.0, "finalized shards seal fully");
        let snaps = idx.snapshots();
        assert!(snaps
            .iter()
            .all(|s| s.records == 0 || s.sealed_fraction == 1.0));
        assert!(snaps.iter().any(|s| s.seal_bytes > 0));
        assert!(snaps
            .iter()
            .all(|s| s.seal_bytes == 0 || s.index_bytes > s.seal_bytes));
        // Steady-state queries run through the sealed read path and stay
        // byte-identical to brute force.
        let cracks = idx.stats().cracks;
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        for q in &workload::uniform(&u, 10, 1e-3, 113).queries {
            assert_matches_brute_force(&data, q, &idx.query_collect(q));
        }
        assert_eq!(idx.stats().cracks, cracks, "pure reads after sealing");
        idx.validate().unwrap();
    }

    /// A warmed 3-shard deployment for the snapshot tests.
    fn warmed_deployment() -> (ShardedQuasii<3>, Vec<Aabb<3>>) {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let u = Aabb::new([0.0; 3], [600.0; 3]);
        let queries = workload::uniform(&u, 40, 1e-3, 121).queries;
        let cfg = ShardConfig::default()
            .with_shards(3)
            .with_inner(QuasiiConfig::with_tau(16));
        let mut idx = ShardedQuasii::new(data, cfg);
        idx.execute_batch(&queries[..20]);
        (idx, queries)
    }

    #[test]
    fn snapshot_parts_roundtrip_is_byte_identical() {
        let (mut idx, queries) = warmed_deployment();
        let (manifest, shard_bufs) = idx.write_snapshot_parts().expect("write parts");
        assert_eq!(shard_bufs.len(), idx.shard_count());
        let mut re =
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, shard_bufs).expect("load parts");
        assert_eq!(re.fences(), idx.fences());
        assert_eq!(re.router_stats(), idx.router_stats());
        assert_eq!(re.stats(), idx.stats());
        assert_eq!(re.config().shards, idx.config().shards);
        assert_eq!(re.config().sample_cap, idx.config().sample_cap);
        for (a, b) in re.engines().iter().zip(idx.engines()) {
            assert_eq!(a.data(), b.data(), "per-shard permutation");
        }
        re.validate().expect("reloaded invariants");
        assert_eq!(
            re.execute_batch(&queries),
            idx.execute_batch(&queries),
            "reloaded deployment answers byte-identically"
        );
        assert_eq!(re.stats(), idx.stats(), "work counters track in lockstep");
        assert_eq!(re.router_stats(), idx.router_stats());
    }

    #[test]
    fn packed_snapshot_roundtrips_through_the_trait() {
        let (mut idx, queries) = warmed_deployment();
        let packed = SpatialIndex::write_snapshot(&mut idx).expect("write packed");
        let mut re =
            <ShardedQuasii<3> as SpatialIndex<3>>::from_snapshot(packed).expect("load packed");
        assert_eq!(re.execute_batch(&queries), idx.execute_batch(&queries));
        assert_eq!(re.stats(), idx.stats());
    }

    #[test]
    fn corrupted_shard_snapshots_are_rejected() {
        let (mut idx, _) = warmed_deployment();
        let (manifest, shard_bufs) = idx.write_snapshot_parts().expect("write parts");
        let packed = idx.write_snapshot().expect("write packed");

        let mut bad = manifest.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs.clone()),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut bad = manifest.clone();
        bad[8] = 99;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs.clone()),
            Err(SnapshotError::WrongVersion { found: 99, .. })
        ));

        assert!(matches!(
            ShardedQuasii::<2>::from_snapshot(packed.clone()),
            Err(SnapshotError::WrongDims {
                found: 3,
                expected: 2
            })
        ));

        // Shard buffers swapped out of manifest order: checksums catch it.
        let mut swapped = shard_bufs.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, swapped),
            Err(SnapshotError::Corrupt(_))
        ));

        // A bit flip inside one shard buffer: its engine checksum catches it.
        let mut flipped = shard_bufs.clone();
        let at = flipped[1].len() / 2;
        flipped[1][at] ^= 0x01;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&manifest, flipped),
            Err(SnapshotError::Corrupt(_))
        ));

        // Missing buffer.
        let mut short = shard_bufs.clone();
        short.pop();
        assert!(ShardedQuasii::<3>::from_snapshot_parts(&manifest, short).is_err());

        // Truncations of the packed form never panic.
        for cut in [0, 16, 31, 32, manifest.len(), packed.len() - 1] {
            assert!(ShardedQuasii::<3>::from_snapshot(packed[..cut].to_vec()).is_err());
        }

        // A manifest-body bit flip fails the manifest checksum.
        let mut bad = manifest.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot_parts(&bad, shard_bufs),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_files_commit_generations_and_roundtrip() {
        let (mut idx, queries) = warmed_deployment();
        let store = MemStore::new();
        let path = Path::new("/deploy/shards.manifest");
        assert_eq!(idx.generation(), 0);
        assert_eq!(idx.write_snapshot_files(&store, path).unwrap(), 1);
        let mut re = ShardedQuasii::<3>::from_snapshot_files(&store, path).unwrap();
        assert_eq!(re.generation(), 1);
        let expect = idx.execute_batch(&queries);
        assert_eq!(re.execute_batch(&queries), expect);
        assert_eq!(re.config().inner.tau, idx.config().inner.tau);

        // A second commit bumps the generation and sweeps the old parts.
        assert_eq!(idx.write_snapshot_files(&store, path).unwrap(), 2);
        let files = store.files();
        assert!(files.contains_key(&part_path(path, 2, 0)));
        assert!(
            !files
                .keys()
                .any(|p| p.to_string_lossy().contains(".g1.part")),
            "superseded generation swept: {files:?}",
            files = files.keys().collect::<Vec<_>>()
        );
        let summary = manifest_summary(files.get(Path::new("/deploy/shards.manifest")).unwrap())
            .expect("committed manifest verifies");
        assert_eq!(summary.dims, 3);
        assert_eq!(summary.generation, 2);
        assert_eq!(summary.records, 2_500);
        assert_eq!(summary.shards.len(), idx.shard_count());

        // A packed single file loads through the same entry point.
        let packed = idx.write_snapshot().unwrap();
        let p2 = Path::new("/deploy/packed.bin");
        fsx::write_atomic(&store, p2, &packed).unwrap();
        let mut re2 = ShardedQuasii::<3>::from_snapshot_files(&store, p2).unwrap();
        assert_eq!(re2.execute_batch(&queries), idx.execute_batch(&queries));
    }

    #[test]
    fn forged_huge_counts_error_instead_of_allocating() {
        // A hostile manifest with a *valid* checksum but an absurd shard
        // count must fail cleanly before any count-sized allocation.
        let huge: u64 = 1 << 40;
        let mut m = Vec::new();
        m.extend_from_slice(&MANIFEST_MAGIC);
        m.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        m.extend_from_slice(&3u32.to_le_bytes());
        m.extend_from_slice(&[0u8; 16]); // checksum + total, patched below
        for v in [
            1u64,     // generation
            huge,     // shard count
            huge,     // requested shards
            1,        // shard threads
            4096,     // sample cap
            60,       // tau
            0,        // assign mode
            64,       // max artificial depth
            0,        // inner threads
            1,        // seal
            0,        // ext_low0
            0,        // ext_high0
            0,        // router queries
            0,        // router visits
            huge - 1, // inner-bound count
        ] {
            m.extend_from_slice(&v.to_le_bytes());
        }
        let total = m.len() as u64;
        m[24..32].copy_from_slice(&total.to_le_bytes());
        let sum = fnv1a(&m[24..]);
        m[16..24].copy_from_slice(&sum.to_le_bytes());
        match manifest_summary(&m) {
            Err(SnapshotError::Corrupt(why)) => {
                assert!(why.contains("remain"), "unexpected reason: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(matches!(
            ShardedQuasii::<3>::from_snapshot(m),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn worker_panic_poisons_the_deployment_and_repair_recovers() {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let (mut idx, queries) = warmed_deployment();
        idx.inject_panic_at(0, 0);
        let err = idx.try_execute_batch(&queries).expect_err("injected panic");
        assert!(err.detail.contains("shard 0"), "detail: {}", err.detail);
        assert!(idx.is_poisoned());
        assert!(idx.poison_error().is_some());

        // Every entry point refuses loudly while poisoned.
        let again = idx.try_execute_batch(&queries).expect_err("still poisoned");
        assert_eq!(again.detail, err.detail);
        let q = queries[0];
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.query_collect(&q);
        }));
        assert!(p.is_err(), "single-query path must refuse while poisoned");
        assert!(matches!(
            idx.write_snapshot_parts(),
            Err(SnapshotError::Unsupported(_))
        ));

        // Repair re-validates or rebuilds, and answers match a cold-cracked
        // deployment byte-for-byte afterwards (results are canonical).
        let outcome = idx.repair();
        assert_ne!(outcome, RepairOutcome::Clean);
        assert!(!idx.is_poisoned());
        idx.validate().expect("repaired deployment validates");
        let mut oracle = ShardedQuasii::new(data, idx.config().clone());
        assert_eq!(idx.execute_batch(&queries), oracle.execute_batch(&queries));
        assert_eq!(idx.repair(), RepairOutcome::Clean, "repair is idempotent");
    }

    #[test]
    fn recovery_quarantines_rebuilds_and_serves_degraded() {
        let data = uniform_boxes_in::<3>(2_500, 600.0, 120);
        let (mut idx, queries) = warmed_deployment();
        let store = MemStore::new();
        let path = Path::new("/deploy/shards.manifest");
        idx.write_snapshot_files(&store, path).unwrap();

        // Tear one part file in half: the strict loader refuses outright.
        let torn = part_path(path, 1, 1);
        let cur = store.files().remove(&torn).expect("part exists");
        store.write_file(&torn, &cur[..cur.len() / 2]).unwrap();
        assert!(ShardedQuasii::<3>::from_snapshot_files(&store, path).is_err());

        // Recovery quarantines exactly the torn shard.
        let rec = Recovery::<3>::load(&store, path).expect("manifest intact");
        assert_eq!(rec.report().quarantined(), vec![1]);
        assert!(!rec.report().is_complete());
        let cov = rec.report().coverage_fraction();
        assert!(0.0 < cov && cov < 1.0, "coverage {cov}");
        assert!(
            rec.into_full().is_err(),
            "into_full refuses while shards are quarantined"
        );

        // Degraded mode serves the healthy subset and labels partial
        // answers per query.
        let mut deg = Recovery::<3>::load(&store, path).unwrap().into_degraded();
        let mut any_partial = false;
        let mut any_exact = false;
        for q in &queries {
            let (hits, coverage) = deg.query_partial(q);
            let truth = brute_force(&data, q);
            if coverage.is_complete() {
                any_exact = true;
                assert_eq!(hits, truth, "complete-coverage answers are exact");
            } else {
                any_partial = true;
                assert_eq!(coverage.missing, vec![1]);
                assert!(hits.iter().all(|id| truth.contains(id)));
            }
        }
        assert!(any_partial && any_exact, "workload exercises both labels");

        // Rebuild from source records restores full byte-identity with a
        // cold-cracked deployment.
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        assert_eq!(rec.rebuild(&data).expect("rebuild"), 1);
        assert!(rec.report().is_complete());
        let mut full = rec.into_full().expect("complete after rebuild");
        full.validate().unwrap();
        let mut oracle = ShardedQuasii::new(data.clone(), idx.config().clone());
        assert_eq!(full.execute_batch(&queries), oracle.execute_batch(&queries));

        // Rebuilding from the *wrong* dataset is rejected, not absorbed.
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        let wrong = uniform_boxes_in::<3>(2_500, 600.0, 121);
        assert!(rec.rebuild(&wrong).is_err());
        let short = &data[..2_000];
        let mut rec = Recovery::<3>::load(&store, path).unwrap();
        assert!(rec.rebuild(short).is_err());
    }

    #[test]
    fn effective_shard_threads_resolves_zero() {
        let idx = ShardedQuasii::<2>::new(Vec::new(), ShardConfig::default());
        assert!(idx.effective_shard_threads() >= 1);
        let idx = ShardedQuasii::<2>::new(Vec::new(), ShardConfig::default().with_shard_threads(5));
        assert_eq!(idx.effective_shard_threads(), 5);
    }
}
