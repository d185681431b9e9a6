//! Batch-parallel query execution.
//!
//! [`Quasii::execute_batch`] runs every batch in **two phases**:
//!
//! 1. **Shared-read phase** — queries whose whole §5.2 candidate window is
//!    covered by sealed arenas (see [`crate::seal`]) are pure reads: they
//!    run as `&self` jobs on the process-wide [`crate::exec`] executor with
//!    *no* disjoint-partition constraint. In the converged regime this
//!    phase is the entire batch.
//! 2. **Crack phase** — everything else falls back to the adaptive `&mut`
//!    machinery below. Seals stay in place: a crack-phase query that spans
//!    a sealed root slice walks its converged subtree without modifying it,
//!    so the only seal bookkeeping is marking the query's window dirty for
//!    the next sweep (which may seal slices the query just converged).
//!
//! The crack phase exploits exactly the structure the paper builds:
//! QUASII's top-level slice list contiguously partitions the data array, and
//! every crack a query triggers stays inside the top-level slice it refines
//! (`refine` only touches `data[s.begin..s.end]`). `execute_batch`
//! splits the data array
//! along top-level slice boundaries into disjoint `&mut [Record]` windows
//! (a `split_at_mut` chain — safe because sibling slices never share array
//! ranges), hands each worker the matching disjoint window of the
//! assignment-key column (see [`crate::keys`]; cracks keep both in
//! lockstep), assigns each query of the batch to the partitions the sequential
//! engine would visit for it, and runs the partitions as executor jobs.
//!
//! Splitting a batch into the two phases is result- and state-transparent:
//! sealed regions are immutable (a converged subtree never reorganizes), so
//! the reads commute with the cracks, and the sealed traversal reproduces
//! the engine's own visit order operation for operation.
//!
//! # Determinism
//!
//! Results are **bit-for-bit identical for every thread count**, including
//! the sequential `threads = 1` path, because:
//!
//! * a partition runs its assigned queries in ascending batch order — the
//!   same order the sequential loop applies them to those slices;
//! * the root-level search restricted to a partition visits exactly the
//!   slices the sequential extended binary search (§5.2) would visit there.
//!   The assignment predicate reproduces its "step one back" rule through
//!   the partitions' key boundaries (shared [`KeyFences`] machinery, also
//!   used by the `quasii-shard` router): partition `k` holds assignment
//!   keys in `[bounds[k], bounds[k+1])`, and those boundaries are stable
//!   for the whole batch — cracks only permute records within a partition,
//!   and the front sub-slice always keeps the minimum key;
//! * per-query hits are concatenated in partition order, which is ascending
//!   data-array order — the order the sequential loop appends them in;
//! * worker counters are folded back with order-independent sums.
//!
//! Every slice therefore sees the same sequence of refine/descend operations
//! it would see under sequential execution, so the final hierarchy, data
//! permutation, result vectors and stats are all independent of the thread
//! count *and* of how queries are split into batches.

use crate::engine;
use crate::exec;
use crate::fence::KeyFences;
use crate::slice::Slice;
use crate::stats::QuasiiStats;
use crate::{EnginePoisoned, Quasii};
use quasii_common::geom::{Aabb, Record};
use quasii_obs as obs;
use std::ops::Range;

/// Closes a batch-phase span: feeds the phase histogram (metrics on) and
/// emits a [`obs::trace::TraceEvent::BatchPhase`] (tracing on). `t` comes
/// from [`obs::start_span`], so a disabled site costs two relaxed loads.
fn finish_phase(t: Option<std::time::Instant>, phase: obs::Phase, queries: u64) {
    let Some(start) = t else { return };
    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    if obs::enabled() {
        obs::registry::batch_phase(phase).observe(nanos);
    }
    obs::trace::record(|| obs::trace::TraceEvent::BatchPhase {
        phase,
        queries,
        nanos,
    });
}

/// The one-shot test trap: panics when the worker reaches the trapped
/// query index (see `Quasii::inject_panic_at`).
fn trap_check(trap: Option<usize>, j: usize) {
    if trap == Some(j) {
        panic!("injected worker panic at query {j} (test fault)");
    }
}

/// Partitions per worker thread, so stragglers (a partition that happens
/// to hold the hot slices) rebalance onto idle workers instead of
/// serializing the batch.
const CHUNKS_PER_WORKER: usize = 4;

/// One shared-read job: a query whose candidate window is wholly sealed,
/// and what answering it through the arenas produced.
struct SealedJob {
    /// Index of the query in the batch.
    j: usize,
    /// Its root-slice candidate window.
    cand: Range<usize>,
    out: Vec<u64>,
    /// Objects tested at the bottom level.
    tested: u64,
}

/// One unit of work: a contiguous run of top-level slices, the matching
/// disjoint window of the data array, and the batch queries that reach it.
struct Partition<'a, const D: usize> {
    /// Offset of `data[0]` within the full array (slices are rebased by
    /// this amount while the partition is detached).
    offset: usize,
    /// This partition's window of the data array.
    data: &'a mut [Record<D>],
    /// The matching disjoint window of the assignment-key column (kept in
    /// lockstep with `data` by the crack kernels).
    keys: &'a mut [f64],
    /// The matching disjoint window of the upper-bound column.
    his: &'a mut [f64],
    /// This partition's run of the top-level slice list, rebased to local
    /// indices.
    slices: Vec<Slice<D>>,
    /// Indices (into the batch) of the queries assigned here, ascending.
    queries: Vec<usize>,
    /// Ids found per assigned query (aligned with `queries`).
    hits: Vec<Vec<u64>>,
    /// Work counters accumulated by whichever thread ran this partition.
    stats: QuasiiStats,
}

/// Rebases a slice subtree from absolute data indices to partition-local
/// ones (`sub`) or back (`add`).
fn shift<const D: usize>(s: &mut Slice<D>, offset: usize, add: bool) {
    if add {
        s.begin += offset;
        s.end += offset;
    } else {
        s.begin -= offset;
        s.end -= offset;
    }
    for c in &mut s.children {
        shift(c, offset, add);
    }
}

impl<const D: usize> Quasii<D> {
    /// The most jobs [`execute_batch`](Self::execute_batch) asks the
    /// executor to run at once: the [`threads`](crate::QuasiiConfig::threads)
    /// knob, with `0` resolved to [`std::thread::available_parallelism`]
    /// (the executor's thread budget may grant fewer).
    pub fn effective_threads(&self) -> usize {
        match self.cfg.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Executes a batch of range queries, cracking disjoint top-level
    /// partitions of the data array in parallel, and returns one id vector
    /// per query (in `queries` order).
    ///
    /// Results, the final hierarchy and the stats counters are bit-for-bit
    /// identical to running the queries one by one through
    /// [`quasii_common::index::SpatialIndex::query`], for every thread
    /// count (see the module documentation for why).
    ///
    /// # Panics
    ///
    /// A panic on a worker thread (a bug — the engine itself never panics
    /// on valid inputs) is caught under `catch_unwind`, the hierarchy is
    /// reassembled, the engine is **poisoned**, and this infallible entry
    /// point re-panics with the structured [`EnginePoisoned`] message.
    /// Callers that want to handle the fault (and
    /// [`repair`](Self::repair) the engine) should use
    /// [`try_execute_batch`](Self::try_execute_batch) instead.
    ///
    /// ```
    /// use quasii::{Quasii, QuasiiConfig};
    /// use quasii_common::geom::{Aabb, Record};
    ///
    /// let data: Vec<Record<2>> = (0..5_000)
    ///     .map(|i| {
    ///         let v = i as f64 / 10.0;
    ///         Record::new(i, Aabb::new([v; 2], [v + 2.0; 2]))
    ///     })
    ///     .collect();
    /// let mut index = Quasii::new(data, QuasiiConfig::default().with_threads(2));
    /// let batch = [
    ///     Aabb::new([10.0; 2], [30.0; 2]),
    ///     Aabb::new([200.0; 2], [220.0; 2]),
    /// ];
    /// let results = index.execute_batch(&batch);
    /// assert_eq!(results.len(), 2);
    /// assert!(!results[0].is_empty() && !results[1].is_empty());
    /// ```
    pub fn execute_batch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<u64>> {
        match self.try_execute_batch(queries) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`execute_batch`](Self::execute_batch): identical
    /// semantics, but a worker panic (caught under `catch_unwind`) or an
    /// already-poisoned engine returns the structured [`EnginePoisoned`]
    /// error instead of panicking. On `Err` the engine stays poisoned —
    /// and keeps refusing queries — until [`repair`](Self::repair).
    pub fn try_execute_batch(
        &mut self,
        queries: &[Aabb<D>],
    ) -> Result<Vec<Vec<u64>>, EnginePoisoned> {
        let before = self.rt.stats;
        if obs::enabled() && !queries.is_empty() {
            obs::registry::BATCHES_TOTAL.inc();
        }
        let r = self.try_execute_batch_inner(queries);
        self.publish_work_deltas(&before);
        r
    }

    /// Publishes this call's deterministic work-counter deltas into the
    /// global registry. The registry *mirrors* the engine-local counters —
    /// it never feeds back into them — so results, permutation and
    /// [`QuasiiStats`] are byte-identical with metrics on or off.
    pub(crate) fn publish_work_deltas(&self, before: &QuasiiStats) {
        if !obs::enabled() {
            return;
        }
        let now = &self.rt.stats;
        obs::registry::QUERIES_TOTAL.add(now.queries - before.queries);
        obs::registry::CRACKS_TOTAL.add(now.cracks - before.cracks);
        obs::registry::RECORDS_CRACKED_TOTAL.add(now.records_cracked - before.records_cracked);
    }

    /// The batch body, split out so the public wrapper can publish metric
    /// deltas on every return path.
    fn try_execute_batch_inner(
        &mut self,
        queries: &[Aabb<D>],
    ) -> Result<Vec<Vec<u64>>, EnginePoisoned> {
        if let Some(e) = self.poison_error() {
            return Err(e);
        }
        let trap = self.panic_trap.take();
        self.ensure_init();
        self.try_seal();
        let mut results: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
        results.resize_with(queries.len(), Vec::new);
        if queries.is_empty() {
            return Ok(results);
        }
        let threads = self.effective_threads();
        let extended: Vec<Aabb<D>> = queries.iter().map(|q| self.extend_query(q)).collect();

        // Sealing disabled: skip classification outright (there is nothing
        // to classify against) and run the crack machinery directly — the
        // `--seal false` reference configuration must not pay any sealed-
        // path bookkeeping.
        if !self.cfg.seal {
            let span = obs::start_span();
            let mut next = 0;
            while next < queries.len() && (threads <= 1 || self.root.len() < 2) {
                self.run_one_caught(
                    next,
                    trap,
                    &queries[next],
                    &extended[next],
                    &mut results[next],
                )?;
                next += 1;
            }
            if next < queries.len() {
                let local_trap = trap.filter(|&t| t >= next).map(|t| t - next);
                self.run_partitioned(&queries[next..], &mut results[next..], threads, local_trap);
            }
            finish_phase(span, obs::Phase::Crack, queries.len() as u64);
            return match self.poison_error() {
                Some(e) => Err(e),
                None => Ok(results),
            };
        }

        // Classify each query by the root slices its §5.2 candidate window
        // covers: entirely sealed → the shared-read phase; anything else →
        // the crack phase. Classification is stable across the whole batch
        // because the sealed phase mutates nothing and the crack phase runs
        // after it (cracks only ever split *unsealed* slices, so a sealed
        // query's window can never gain an unsealed candidate mid-batch).
        let span = obs::start_span();
        let mut sealed_jobs: Vec<SealedJob> = Vec::new();
        let mut crack_jobs: Vec<usize> = Vec::new();
        let mut crack_windows: Vec<Range<usize>> = Vec::new();
        for j in 0..queries.len() {
            let cand = self.root_candidates(&extended[j]);
            if !self.root.is_empty() && self.all_sealed(cand.clone()) {
                sealed_jobs.push(SealedJob {
                    j,
                    cand,
                    out: Vec::new(),
                    tested: 0,
                });
            } else {
                crack_jobs.push(j);
                crack_windows.push(cand);
            }
        }
        finish_phase(span, obs::Phase::Classify, queries.len() as u64);

        // Phase 1 — shared-read execution over the sealed arenas: arbitrary
        // queries as `&self` executor jobs, no disjoint-partition
        // constraint. Reads commute with the crack phase below: sealed
        // regions are immutable and crack queries never modify them.
        if !sealed_jobs.is_empty() {
            let span = obs::start_span();
            let count = sealed_jobs.len() as u64;
            self.run_sealed_batch(queries, &extended, sealed_jobs, &mut results, threads, trap);
            finish_phase(span, obs::Phase::SealedRead, count);
            if let Some(e) = self.poison_error() {
                return Err(e);
            }
        }

        // Phase 2 — the adaptive `&mut` path for everything else. Its
        // windows are marked dirty for the next seal sweep (root indices
        // are still those of classification time: phase 1 did not touch
        // the tree); the seals themselves stay.
        for cand in crack_windows {
            self.mark_window_dirty(cand);
        }
        if crack_jobs.is_empty() {
            return Ok(results);
        }
        let span = obs::start_span();
        // Sequential prefix: the whole remainder with one worker; otherwise
        // only until the top level has cracked open far enough to split (a
        // fresh index starts as a single whole-dataset slice).
        let mut next = 0;
        while next < crack_jobs.len() && (threads <= 1 || self.root.len() < 2) {
            let j = crack_jobs[next];
            let mut out = std::mem::take(&mut results[j]);
            self.run_one_caught(j, trap, &queries[j], &extended[j], &mut out)?;
            results[j] = out;
            next += 1;
        }
        if next < crack_jobs.len() {
            let rest = &crack_jobs[next..];
            let sub_queries: Vec<Aabb<D>> = rest.iter().map(|&j| queries[j]).collect();
            let mut sub_results: Vec<Vec<u64>> = Vec::with_capacity(rest.len());
            sub_results.resize_with(rest.len(), Vec::new);
            let local_trap = trap.and_then(|t| rest.iter().position(|&j| j == t));
            self.run_partitioned(&sub_queries, &mut sub_results, threads, local_trap);
            for (&j, hits) in rest.iter().zip(sub_results) {
                results[j] = hits;
            }
        }
        finish_phase(span, obs::Phase::Crack, crack_jobs.len() as u64);
        match self.poison_error() {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }

    /// Runs one crack-path query on the calling thread under
    /// `catch_unwind`; a panic poisons the engine and surfaces as `Err`.
    fn run_one_caught(
        &mut self,
        j: usize,
        trap: Option<usize>,
        q: &Aabb<D>,
        qe: &Aabb<D>,
        out: &mut Vec<u64>,
    ) -> Result<(), EnginePoisoned> {
        let r = exec::catch(|| {
            trap_check(trap, j);
            self.query_unsealed(q, qe, out);
        });
        if let Err(msg) = r {
            self.poison(format!("panic during crack query {j}: {msg}"));
            return Err(self.poison_error().expect("poison just set"));
        }
        Ok(())
    }

    /// Phase-1 executor: answers `jobs` entirely through the sealed
    /// arenas, as `&self` executor jobs. Each query's result vector is
    /// computed independently of scheduling, so results are byte-identical
    /// for every thread count.
    fn run_sealed_batch(
        &mut self,
        queries: &[Aabb<D>],
        extended: &[Aabb<D>],
        mut jobs: Vec<SealedJob>,
        results: &mut [Vec<u64>],
        threads: usize,
        trap: Option<usize>,
    ) {
        let this: &Quasii<D> = self;
        let outcome = exec::for_each_mut(threads, &mut jobs, |_, job| {
            trap_check(trap, job.j);
            job.tested = this.run_sealed_query(
                &queries[job.j],
                &extended[job.j],
                job.cand.clone(),
                &mut job.out,
            );
        });
        let count = jobs.len() as u64;
        let mut tested_total = 0u64;
        for job in jobs {
            results[job.j] = job.out;
            tested_total += job.tested;
        }
        self.rt.stats.queries += count;
        self.rt.stats.objects_tested += tested_total;
        self.seal_stats.add(crate::SealStats::SEALED_QUERIES, count);
        if obs::enabled() {
            obs::registry::SEALED_QUERIES_TOTAL.add(count);
        }
        if let Err(p) = outcome {
            // The sealed phase mutates nothing, so the structure is intact
            // — but the batch's results are incomplete, so the engine still
            // refuses to pretend it answered (repair() will revalidate).
            self.poison(format!(
                "worker panic during sealed batch phase: {}",
                p.message
            ));
        }
    }

    /// Parallel remainder of a batch: requires `root.len() >= 2` and
    /// `threads >= 2`. A worker panic is caught by the executor; every
    /// partition (run, interrupted or never started) still holds its
    /// slices, so the hierarchy reassembles completely, and the engine is
    /// poisoned.
    fn run_partitioned(
        &mut self,
        queries: &[Aabb<D>],
        results: &mut [Vec<u64>],
        threads: usize,
        trap: Option<usize>,
    ) {
        let extended: Vec<Aabb<D>> = queries.iter().map(|q| self.extend_query(q)).collect();

        // Group the top-level slices into contiguous runs of roughly equal
        // record counts. More runs than workers, so the executor's cursor
        // balances load.
        let target_parts = (threads * CHUNKS_PER_WORKER).min(self.root.len());
        let per_part = self.data.len().div_ceil(target_parts).max(1);
        let roots = std::mem::take(&mut self.root);
        let mut groups: Vec<Vec<Slice<D>>> = Vec::with_capacity(target_parts);
        let mut cur: Vec<Slice<D>> = Vec::new();
        let mut cur_records = 0usize;
        for s in roots {
            cur_records += s.len();
            cur.push(s);
            if cur_records >= per_part && groups.len() + 1 < target_parts {
                groups.push(std::mem::take(&mut cur));
                cur_records = 0;
            }
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
        let m = groups.len();

        // Key boundaries between partitions: partition k owns assignment
        // keys in [fences.range(k)). The inner fence before partition k is
        // the key_lo of its first slice, which make_sub measured exactly; it
        // stays the partition's true minimum for the whole batch because
        // cracks never move records across partitions and the front
        // sub-slice of any refinement keeps the minimum-key record.
        let fences = KeyFences::from_inner(groups[1..].iter().map(|g| g[0].key_lo).collect());

        // Detach the disjoint data windows (split_at_mut chain) and rebase
        // each group's slices onto its window; the key column is split
        // along the exact same boundaries so each worker cracks its
        // (keys, data) pair in lockstep.
        let mut parts: Vec<Partition<'_, D>> = Vec::with_capacity(m);
        let mut rest: &mut [Record<D>] = &mut self.data;
        let (mut rest_keys, mut rest_his) = self.keys.as_mut_slices();
        let mut consumed = 0usize;
        for mut slices in groups {
            let begin = slices[0].begin;
            let end = slices.last().expect("groups are non-empty").end;
            debug_assert_eq!(begin, consumed, "top-level slices must be contiguous");
            let (window, tail) = rest.split_at_mut(end - consumed);
            let (key_window, key_tail) = rest_keys.split_at_mut(end - consumed);
            let (hi_window, hi_tail) = rest_his.split_at_mut(end - consumed);
            rest = tail;
            rest_keys = key_tail;
            rest_his = hi_tail;
            consumed = end;
            for s in &mut slices {
                shift(s, begin, false);
            }
            parts.push(Partition {
                offset: begin,
                data: window,
                keys: key_window,
                his: hi_window,
                slices,
                queries: Vec::new(),
                hits: Vec::new(),
                stats: QuasiiStats::default(),
            });
        }

        // Assign each query to exactly the partitions the sequential root
        // search would visit: the candidate range [qe.lo, qe.hi] on the
        // root dimension; `KeyFences::overlapping`'s closed lower edge
        // admits the partition holding the "step one back" slice.
        let assigned = fences.assign(extended.iter().map(|qe| (qe.lo[0], qe.hi[0])));
        for (p, queries) in parts.iter_mut().zip(assigned) {
            p.queries = queries;
        }

        // One executor job per partition. A panic mid-crack may leave that
        // partition's subtree inconsistent, but the partition object (and
        // its slices) survives, so repair() can inspect it.
        let env = &self.env;
        let outcome = exec::for_each_mut(threads, &mut parts, |_, p| {
            let mut rt = engine::Runtime::<D>::new();
            for &j in &p.queries {
                trap_check(trap, j);
                let mut out = Vec::new();
                engine::query_level(
                    p.data,
                    p.keys,
                    p.his,
                    &mut p.slices,
                    &queries[j],
                    &extended[j],
                    env,
                    &mut rt,
                    &mut out,
                );
                p.hits.push(out);
            }
            p.stats = rt.stats;
        });

        // Reassemble: partitions back in data order, slices rebased to
        // absolute indices, hits concatenated per query in partition order
        // (= ascending data order, the sequential append order), counters
        // summed. After a panic, unstarted partitions reattach too, so the
        // top level is always a complete partition of the data array.
        let span = obs::start_span();
        self.rt.stats.queries += queries.len() as u64;
        for p in &mut parts {
            self.rt.stats.merge(&p.stats);
            for s in &mut p.slices {
                shift(s, p.offset, true);
            }
            self.root.append(&mut p.slices);
            for (&j, hits) in p.queries.iter().zip(p.hits.drain(..)) {
                results[j].extend(hits);
            }
        }
        finish_phase(span, obs::Phase::Merge, queries.len() as u64);
        if let Err(p) = outcome {
            self.poison(format!(
                "worker panic during partitioned crack phase: {}",
                p.message
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Quasii, QuasiiConfig};
    use quasii_common::dataset::{degenerate, uniform_boxes_in};
    use quasii_common::geom::{Aabb, Record};
    use quasii_common::index::{assert_matches_brute_force, SpatialIndex};
    use quasii_common::workload;

    /// The sequential ground truth: a fresh index answering one query at a
    /// time, plus its final observable state.
    fn sequential_reference<const D: usize>(
        data: &[Record<D>],
        queries: &[Aabb<D>],
        cfg: &QuasiiConfig,
    ) -> (Vec<Vec<u64>>, Quasii<D>) {
        let mut idx = Quasii::new(data.to_vec(), cfg.clone().with_threads(1));
        let results = queries.iter().map(|q| idx.query_collect(q)).collect();
        (results, idx)
    }

    fn ids<const D: usize>(data: &[Record<D>]) -> Vec<u64> {
        data.iter().map(|r| r.id).collect()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit_across_thread_counts() {
        let data = uniform_boxes_in::<3>(4_000, 1_000.0, 71);
        let u = Aabb::new([0.0; 3], [1_000.0; 3]);
        let queries = workload::uniform(&u, 60, 1e-3, 72).queries;
        let cfg = QuasiiConfig::with_tau(16);
        let (reference, seq) = sequential_reference(&data, &queries, &cfg);
        for threads in [1, 2, 4, 8] {
            let mut idx = Quasii::new(data.clone(), cfg.clone().with_threads(threads));
            let got = idx.execute_batch(&queries);
            assert_eq!(got, reference, "results diverged at threads={threads}");
            idx.validate()
                .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
            assert_eq!(
                idx.stats(),
                seq.stats(),
                "work counters diverged at threads={threads}"
            );
            assert_eq!(
                ids(idx.data()),
                ids(seq.data()),
                "data permutation diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn batch_agrees_with_brute_force() {
        let data = uniform_boxes_in::<3>(2_500, 500.0, 73);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::clustered(&u, 4, 10, 1e-3, 74).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12).with_threads(4));
        let got = idx.execute_batch(&queries);
        for (q, hits) in queries.iter().zip(&got) {
            assert_matches_brute_force(&data, q, hits);
        }
        idx.validate().unwrap();
    }

    #[test]
    fn batching_is_transparent_to_later_queries() {
        // A batch run, then individual queries, must behave exactly like a
        // purely sequential history (the hierarchy converged identically).
        let data = uniform_boxes_in::<3>(3_000, 800.0, 75);
        let u = Aabb::new([0.0; 3], [800.0; 3]);
        let w = workload::uniform(&u, 40, 1e-3, 76).queries;
        let (batch, later) = w.split_at(25);
        let cfg = QuasiiConfig::with_tau(20);

        let (mut expect, mut seq) = sequential_reference(&data, batch, &cfg);
        for q in later {
            expect.push(seq.query_collect(q));
        }

        let mut idx = Quasii::new(data, cfg.with_threads(3));
        let mut got = idx.execute_batch(batch);
        for q in later {
            got.push(idx.query_collect(q));
        }
        assert_eq!(got, expect);
        assert_eq!(idx.stats(), seq.stats());
    }

    #[test]
    fn chained_batches_equal_one_big_batch() {
        let data = uniform_boxes_in::<2>(2_000, 400.0, 77);
        let u = Aabb::new([0.0; 2], [400.0; 2]);
        let queries = workload::uniform(&u, 48, 1e-3, 78).queries;
        let cfg = QuasiiConfig::with_tau(10).with_threads(4);

        let mut one = Quasii::new(data.clone(), cfg.clone());
        let whole = one.execute_batch(&queries);

        let mut chunked = Quasii::new(data, cfg);
        let mut got = Vec::new();
        for chunk in queries.chunks(7) {
            got.extend(chunked.execute_batch(chunk));
        }
        assert_eq!(got, whole);
        assert_eq!(chunked.stats(), one.stats());
    }

    #[test]
    fn empty_batch_empty_dataset_and_single_query() {
        let mut empty = Quasii::<3>::new(Vec::new(), QuasiiConfig::default().with_threads(4));
        assert!(empty.execute_batch(&[]).is_empty());
        let q = Aabb::new([0.0; 3], [1.0; 3]);
        assert_eq!(empty.execute_batch(&[q]), vec![Vec::<u64>::new()]);
        empty.validate().unwrap();

        let data = uniform_boxes_in::<3>(500, 100.0, 79);
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default().with_threads(4));
        assert!(idx.execute_batch(&[]).is_empty());
        let q = Aabb::new([10.0; 3], [40.0; 3]);
        let got = idx.execute_batch(&[q]);
        assert_matches_brute_force(&data, &q, &got[0]);
    }

    #[test]
    fn degenerate_datasets_survive_parallel_batches() {
        for data in [
            degenerate::identical::<2>(600),
            degenerate::shared_lower::<2>(600),
        ] {
            let mut cfg = QuasiiConfig::with_tau(8).with_threads(4);
            cfg.max_artificial_depth = 16;
            let queries = [
                Aabb::new([0.0; 2], [700.0; 2]),
                Aabb::new([5.0; 2], [6.0; 2]),
                Aabb::new([2.0; 2], [80.0; 2]),
            ];
            let (reference, _) = sequential_reference(&data, &queries, &cfg);
            let mut idx = Quasii::new(data.clone(), cfg);
            assert_eq!(idx.execute_batch(&queries), reference);
            idx.validate().unwrap();
        }
    }

    #[test]
    fn query_batch_trait_method_routes_to_execute_batch() {
        let data = uniform_boxes_in::<3>(1_000, 200.0, 80);
        let queries = vec![Aabb::new([0.0; 3], [50.0; 3]); 3];
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::default().with_threads(2));
        let got = idx.query_batch(&queries);
        assert_eq!(got.len(), 3);
        for (q, hits) in queries.iter().zip(&got) {
            assert_matches_brute_force(&data, q, hits);
        }
    }

    #[test]
    fn worker_panic_poisons_then_repair_restores_correct_answers() {
        let data = uniform_boxes_in::<3>(2_000, 500.0, 81);
        let u = Aabb::new([0.0; 3], [500.0; 3]);
        let queries = workload::uniform(&u, 20, 1e-3, 82).queries;
        let mut idx = Quasii::new(data.clone(), QuasiiConfig::with_tau(12).with_threads(4));
        idx.execute_batch(&queries[..8]); // warm up: top level cracked open

        idx.inject_panic_at(3);
        let err = idx
            .try_execute_batch(&queries[8..])
            .expect_err("injected panic must fail the batch");
        assert!(err.detail.contains("injected worker panic"), "{err}");
        assert!(idx.is_poisoned());
        // Still poisoned: no silent wrong answers from any entry point.
        assert!(idx.try_execute_batch(&queries[..2]).is_err());
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.query_collect(&queries[0])
        }));
        assert!(panic.is_err(), "query on a poisoned engine must panic");

        let outcome = idx.repair();
        assert_ne!(outcome, crate::RepairOutcome::Clean);
        assert!(!idx.is_poisoned());
        idx.validate()
            .expect("repaired engine is structurally sound");
        for q in &queries {
            let mut got = idx.query_collect(q);
            got.sort_unstable();
            assert_matches_brute_force(&data, q, &got);
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_parallelism() {
        let idx = Quasii::<2>::new(Vec::new(), QuasiiConfig::default());
        assert!(idx.effective_threads() >= 1);
        let idx = Quasii::<2>::new(Vec::new(), QuasiiConfig::default().with_threads(7));
        assert_eq!(idx.effective_threads(), 7);
    }
}
