//! The process-wide executor (`quasii::exec`) under the sharded router:
//! independent deployments sharing it from several threads, shard jobs that
//! nest engine-level partition jobs, and the panic → poison → repair path
//! reusing the same parked workers afterwards.
//!
//! Each scenario runs on a watchdog thread, so a deadlock fails the test
//! instead of hanging the suite.

use quasii_common::index::canonical_results;
use quasii_suite::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Runs `f` on its own thread and fails if it does not finish in time.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("executor run deadlocked or panicked")
}

fn workload() -> (Vec<Record<3>>, Vec<Aabb<3>>) {
    let data = dataset::uniform_boxes_in::<3>(6_000, 1_000.0, 301);
    let universe = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::uniform(&universe, 160, 1e-3, 302).queries;
    (data, queries)
}

/// The single-thread, single-engine answers in canonical order.
fn reference(data: &[Record<3>], queries: &[Aabb<3>]) -> Vec<Vec<u64>> {
    let mut idx = Quasii::new(data.to_vec(), QuasiiConfig::with_tau(12).with_threads(1));
    canonical_results(&mut idx, queries)
}

fn deployment(shards: usize, threads: usize) -> ShardConfig {
    ShardConfig::default()
        .with_shards(shards)
        .with_shard_threads(threads)
        .with_inner(QuasiiConfig::with_tau(12).with_threads(threads))
}

fn run_batches(idx: &mut ShardedQuasii<3>, queries: &[Aabb<3>], batch: usize) -> Vec<Vec<u64>> {
    queries
        .chunks(batch)
        .flat_map(|b| idx.try_execute_batch(b).expect("no worker panic"))
        .collect()
}

/// Several threads, each driving its own deployment, share the executor
/// at once and still get byte-identical answers.
#[test]
fn independent_deployments_share_the_executor() {
    let (data, queries) = workload();
    let want = reference(&data, &queries);
    let callers = 4;
    let start = Arc::new(Barrier::new(callers));
    let answers = within(120, move || {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let (data, queries, start) = (data.clone(), queries.clone(), start.clone());
                std::thread::spawn(move || {
                    let mut idx = ShardedQuasii::new(data, deployment(2 + c % 2, 2));
                    start.wait();
                    run_batches(&mut idx, &queries, 8 + c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect::<Vec<_>>()
    });
    for (c, got) in answers.iter().enumerate() {
        assert_eq!(got, &want, "caller {c} diverged");
    }
}

/// Shard jobs whose engines split their batches into partition jobs: the
/// nested calls draw from the same budget and never deadlock.
#[test]
fn shard_jobs_running_partitions_do_not_deadlock() {
    let (data, queries) = workload();
    let want = reference(&data, &queries);
    let got = within(120, move || {
        let mut idx = ShardedQuasii::new(data, deployment(3, 4));
        // Crack every shard's top level open first, so later batches take
        // the partitioned path inside each shard job.
        idx.execute_batch(&[Aabb::new([0.0; 3], [1_000.0; 3])]);
        assert!(idx.engines().iter().all(|e| e.slice_count() > 1));
        run_batches(&mut idx, &queries, 24)
    });
    assert_eq!(got, want);
}

/// A worker panic poisons the deployment, `repair()` recovers it, and the
/// same parked workers serve the next batch.
#[test]
fn injected_panic_poisons_and_repair_reuses_the_executor() {
    let (data, queries) = workload();
    let want = reference(&data, &queries);
    within(120, move || {
        // Starts the pool; its workers name themselves as they come up.
        let budget = quasii::exec::budget();
        let mut workers_before = executor_workers();
        for _ in 0..1_000 {
            if workers_before.len() + 1 >= budget {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            workers_before = executor_workers();
        }
        let mut idx = ShardedQuasii::new(data, deployment(2, 2));
        let warm = run_batches(&mut idx, &queries[..40], 20);
        assert_eq!(warm, want[..40]);

        idx.inject_panic_at(1, 0);
        let wide = [Aabb::new([0.0; 3], [1_000.0; 3]), queries[40]];
        let err = idx
            .try_execute_batch(&wide)
            .expect_err("the trapped shard fails the batch");
        assert!(err.detail.contains("injected worker panic"), "{err}");
        assert!(idx.is_poisoned());
        assert!(idx.try_execute_batch(&queries[..1]).is_err());

        idx.repair();
        assert!(!idx.is_poisoned());
        idx.validate().expect("repaired deployment is sound");
        let rest = run_batches(&mut idx, &queries[40..], 20);
        assert_eq!(rest, want[40..]);
        assert_eq!(
            executor_workers(),
            workers_before,
            "the panic must not cost the pool a worker"
        );
    });
}

/// Task ids of the executor's started worker threads, from
/// `/proc/self/task` (empty where procfs is missing).
fn executor_workers() -> Vec<u64> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<u64> = dir
        .flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|c| c.starts_with("quasii-exec"))
        })
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    tids
}
