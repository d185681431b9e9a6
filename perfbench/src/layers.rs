//! Per-layer readings taken from outside the program: engine counters,
//! the `quasii-obs` registry, and timed calls into the persistence, shard
//! and HTTP layers.

use crate::common::{median, ratio, Metrics, Spans, WorkDir, MIB};
use minihttp::{read_request, Limits};
use quasii::snapshot::fnv1a;
use quasii_common::fsx::FsStore;
use quasii_common::geom::{Aabb, Record};
use quasii_obs::{self as obs, Phase};
use quasii_shard::{manifest_summary, part_path, ShardedQuasii};
use std::path::Path;
use std::time::Instant;

/// Work counters summed over the shards and the router.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub records_cracked: u64,
    pub cracks: u64,
    pub records_rekeyed: u64,
    pub objects_tested: u64,
    pub engine_queries: u64,
    pub seals: u64,
    pub unseals: u64,
    pub sealed_queries: u64,
    pub router_queries: u64,
    pub shard_visits: u64,
}

impl Counters {
    pub fn of(engine: &ShardedQuasii<3>) -> Self {
        let s = engine.stats();
        let r = engine.router_stats();
        let mut c = Self {
            records_cracked: s.records_cracked,
            cracks: s.cracks,
            records_rekeyed: s.records_rekeyed,
            objects_tested: s.objects_tested,
            engine_queries: s.queries,
            router_queries: r.queries,
            shard_visits: r.shard_visits,
            ..Self::default()
        };
        for e in engine.engines() {
            let ss = e.seal_stats();
            c.seals += ss.seals;
            c.unseals += ss.unseals;
            c.sealed_queries += ss.sealed_queries;
        }
        c
    }

    pub fn minus(self, b: Self) -> Self {
        Self {
            records_cracked: self.records_cracked - b.records_cracked,
            cracks: self.cracks - b.cracks,
            records_rekeyed: self.records_rekeyed - b.records_rekeyed,
            objects_tested: self.objects_tested - b.objects_tested,
            engine_queries: self.engine_queries - b.engine_queries,
            seals: self.seals - b.seals,
            unseals: self.unseals - b.unseals,
            sealed_queries: self.sealed_queries - b.sealed_queries,
            router_queries: self.router_queries - b.router_queries,
            shard_visits: self.shard_visits - b.shard_visits,
        }
    }
}

/// Cumulative registry sums in seconds: the four batch phases, then the
/// seal sweeps.
pub fn registry_sums() -> [f64; 5] {
    let s = |h: &obs::Histogram| h.snapshot().sum as f64 / 1e9;
    [
        s(obs::registry::batch_phase(Phase::Classify)),
        s(obs::registry::batch_phase(Phase::SealedRead)),
        s(obs::registry::batch_phase(Phase::Crack)),
        s(obs::registry::batch_phase(Phase::Merge)),
        s(&obs::registry::SEAL_SWEEP_SECONDS),
    ]
}

pub const PHASE_METRICS: [&str; 4] = [
    "core.batch.classify_s",
    "core.batch.sealed_read_s",
    "core.batch.crack_s",
    "core.batch.merge_s",
];

/// Adds counter deltas to `m` (summed over several traced streams).
pub fn add_counters(m: &mut Metrics, d: Counters, results: u64) {
    for (name, v) in [
        ("core.crack.records_cracked", d.records_cracked),
        ("core.crack.cracks", d.cracks),
        ("core.keys.records_rekeyed", d.records_rekeyed),
        ("core.seal.seals", d.seals),
        ("core.seal.unseals", d.unseals),
        ("acc.objects_tested", d.objects_tested),
        ("acc.results", results),
        ("acc.engine_queries", d.engine_queries),
        ("acc.sealed_queries", d.sealed_queries),
        ("acc.router_queries", d.router_queries),
        ("acc.shard_visits", d.shard_visits),
    ] {
        *m.entry(name).or_default() += v as f64;
    }
}

/// Adds a registry delta (`after - before` of [`registry_sums`]).
pub fn add_registry(m: &mut Metrics, before: [f64; 5], after: [f64; 5]) {
    for (k, name) in PHASE_METRICS.iter().enumerate() {
        *m.entry(name).or_default() += after[k] - before[k];
    }
    *m.entry("core.seal.sweep_s").or_default() += after[4] - before[4];
}

/// Turns the accumulated sums into the reported ratios, and checks that
/// the four phases plus `other_s` add up to the worker-seconds of the
/// benchmark's `try_execute_batch` spans.
pub fn derive(m: &mut Metrics) {
    let g = |m: &Metrics, k: &str| m.get(k).copied().unwrap_or(0.0);
    m.insert(
        "core.crack.ns_per_record",
        ratio(
            g(m, "core.batch.crack_s") * 1e9,
            g(m, "core.crack.records_cracked"),
        ),
    );
    m.insert(
        "core.scan.tested_per_result",
        ratio(g(m, "acc.objects_tested"), g(m, "acc.results")),
    );
    m.insert(
        "core.seal.sealed_query_frac",
        ratio(g(m, "acc.sealed_queries"), g(m, "acc.engine_queries")),
    );
    m.insert(
        "shard.fanout",
        ratio(g(m, "acc.shard_visits"), g(m, "acc.router_queries")),
    );
    if let Some(&worker) = m.get("core.batch.worker_s") {
        let phases: f64 = PHASE_METRICS.iter().map(|k| g(m, k)).sum();
        let other = worker - phases;
        m.insert("core.batch.other_s", other);
        eprintln!(
            "  additivity: classify {:.6} + sealed_read {:.6} + crack {:.6} + merge {:.6} + \
             other {:.6} = {:.6} s; try_execute_batch spans {:.6} worker-s ({:.6} s wall){}",
            g(m, PHASE_METRICS[0]),
            g(m, PHASE_METRICS[1]),
            g(m, PHASE_METRICS[2]),
            g(m, PHASE_METRICS[3]),
            other,
            phases + other,
            worker,
            g(m, "core.batch.span_s"),
            if other < 0.0 {
                "  FAILED: phases exceed the calls' worker time"
            } else {
                "  ok"
            }
        );
    }
}

/// Memory by layer of a live deployment.
pub fn memory(m: &mut Metrics, engine: &ShardedQuasii<3>) {
    let snaps = engine.snapshots();
    let records: usize = snaps.iter().map(|s| s.records).sum();
    m.insert(
        "mem.data_mb",
        (records * std::mem::size_of::<Record<3>>()) as f64 / MIB,
    );
    m.insert(
        "mem.index_mb",
        snaps.iter().map(|s| s.index_bytes).sum::<usize>() as f64 / MIB,
    );
    m.insert(
        "mem.arena_mb",
        snaps.iter().map(|s| s.seal_bytes).sum::<usize>() as f64 / MIB,
    );
}

/// Commits `engine` as a snapshot under `work` and returns the manifest
/// path. The engine is dropped afterwards by the caller.
pub fn write_snapshot(
    engine: &mut ShardedQuasii<3>,
    work: &WorkDir,
    spans: &mut Spans,
) -> Result<std::path::PathBuf, String> {
    let path = work.0.join("deployment.qsnap");
    let id = spans.open("snapshot.write", 0);
    engine
        .write_snapshot_files(&FsStore, &path)
        .map_err(|e| format!("write snapshot: {e}"))?;
    spans.close(id);
    Ok(path)
}

/// Times the warm-start path on the snapshot at `path`: read, checksum,
/// and the whole `from_snapshot_files` load. Returns the loaded copy.
pub fn warm_start(
    path: &Path,
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<ShardedQuasii<3>, String> {
    let parent = spans.open("warm_start", 0);
    let id = spans.open("snapshot.read", parent);
    let t = Instant::now();
    let manifest = std::fs::read(path).map_err(|e| format!("read manifest: {e}"))?;
    let summary = manifest_summary(&manifest).map_err(|e| format!("manifest: {e}"))?;
    let mut bufs = vec![manifest];
    for k in 0..summary.shards.len() {
        let part = part_path(path, summary.generation, k);
        bufs.push(std::fs::read(&part).map_err(|e| format!("read {}: {e}", part.display()))?);
    }
    let read_s = t.elapsed().as_secs_f64();
    spans.close(id);
    let id = spans.open("snapshot.checksum", parent);
    let t = Instant::now();
    let sum = bufs
        .iter()
        .fold(0u64, |a, b| a ^ fnv1a(std::hint::black_box(b)));
    std::hint::black_box(sum);
    let checksum_s = t.elapsed().as_secs_f64();
    spans.close(id);
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    drop(bufs);
    let id = spans.open("snapshot.load", parent);
    let t = Instant::now();
    let copy = ShardedQuasii::<3>::from_snapshot_files(&FsStore, path)
        .map_err(|e| format!("load snapshot: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    spans.close(id);
    spans.close(parent);
    m.insert("persist.read_s", read_s);
    m.insert("persist.checksum_s", checksum_s);
    m.insert("persist.load_s", load_s);
    m.insert("persist.decode_s", load_s - read_s - checksum_s);
    m.insert("persist.snapshot_mb", bytes as f64 / MIB);
    Ok(copy)
}

/// Calls in the single-call probe.
const PROBE_CALLS: usize = 2_000;

/// Median single-query `try_execute_grouped` call on a warm-started copy
/// of the deployment, with the registry on as in a server.
pub fn single_call_probe(
    copy: &mut ShardedQuasii<3>,
    queries: &[Aabb<3>],
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<(), String> {
    let was = obs::enabled();
    obs::set_enabled(true);
    let parent = spans.open("probe", 0);
    let mut lat = Vec::with_capacity(PROBE_CALLS);
    for q in queries.iter().cycle().take(PROBE_CALLS) {
        let t = Instant::now();
        let r = copy.try_execute_grouped(&[std::slice::from_ref(q)]);
        let end = Instant::now();
        std::hint::black_box(r.map_err(|e| format!("single-call probe: {e}"))?);
        spans.add("probe.call", parent, t, end);
        lat.push((end - t).as_secs_f64());
    }
    spans.close(parent);
    obs::set_enabled(was);
    m.insert("shard.single_call_us", median(&lat) * 1e6);
    Ok(())
}

/// `minihttp::read_request` over a canonical in-memory `GET /query`:
/// median nanoseconds per parse over several repetitions.
pub fn http_parse_ns(q: &Aabb<3>) -> f64 {
    let raw = format!(
        "GET /query?lo={},{},{}&hi={},{},{} HTTP/1.1\r\nHost: quasii\r\n\r\n",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    );
    let limits = Limits::default();
    const PER_REP: usize = 20_000;
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PER_REP {
                let mut r = std::io::Cursor::new(std::hint::black_box(raw.as_bytes()));
                let req = read_request(&mut r, &limits).expect("canonical request parses");
                std::hint::black_box(req);
            }
            t.elapsed().as_secs_f64() * 1e9 / PER_REP as f64
        })
        .collect();
    median(&reps)
}
