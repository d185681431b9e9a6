//! No per-batch thread creation: after the executor's workers are up, 200
//! batches on a 2-shard deployment leave the process's thread count
//! (`Threads:` in `/proc/self/status`) unchanged, and a sampler watching
//! `/proc/self/task` throughout sees no thread it did not see before.
//!
//! The only test in its binary: the test harness runs tests of one binary
//! on parallel threads, which would move the count.

use quasii_suite::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

fn task_ids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Started executor workers (they name themselves `quasii-exec-N`).
fn exec_workers() -> usize {
    task_ids()
        .iter()
        .filter(|tid| {
            std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|c| c.starts_with("quasii-exec"))
        })
        .count()
}

#[test]
fn batches_spawn_no_threads() {
    let Some(_) = thread_count() else {
        return; // no procfs: nothing to observe
    };
    let data = dataset::uniform_boxes_in::<3>(20_000, 1_000.0, 401);
    let universe = Aabb::new([0.0; 3], [1_000.0; 3]);
    let queries = workload::uniform(&universe, 200 * 32, 1e-3, 402).queries;
    let mut idx = ShardedQuasii::new(
        data,
        ShardConfig::default()
            .with_shards(2)
            .with_shard_threads(2)
            .with_inner(QuasiiConfig::default().with_threads(2)),
    );
    // Start the executor and let every worker come up.
    let budget = quasii::exec::budget();
    idx.execute_batch(&queries[..32]);

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut seen = BTreeSet::new();
            while !stop.load(Ordering::Relaxed) {
                seen.extend(task_ids());
            }
            seen
        })
    };
    // Worker threads name themselves as they start; wait until they have.
    for _ in 0..1_000 {
        if exec_workers() + 1 >= budget {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let before = thread_count();
    let baseline = task_ids();

    let mut two_shard_batches = 0;
    for batch in queries.chunks(32) {
        let ran = |idx: &ShardedQuasii<3>| -> Vec<u64> {
            idx.engines().iter().map(|e| e.stats().queries).collect()
        };
        let prior = ran(&idx);
        idx.execute_batch(batch);
        two_shard_batches += usize::from(ran(&idx).iter().zip(&prior).all(|(a, b)| a > b));
    }
    let after = thread_count();
    stop.store(true, Ordering::Relaxed);
    let seen = sampler.join().expect("sampler");

    assert!(
        two_shard_batches > 100,
        "batches must fan out to both shards"
    );
    assert_eq!(after, before, "Threads: moved");
    let extra: Vec<&u64> = seen.difference(&baseline).collect();
    assert!(
        extra.is_empty(),
        "threads appeared during batches: {extra:?}"
    );
}
