//! What the workloads share: their definitions, the deployment, the
//! answer reference, statistics, `/proc` readings, spans and the result
//! line.

use quasii::QuasiiConfig;
use quasii_common::geom::{mbb_of, Aabb, Record};
use quasii_common::index::{brute_force, canonical_results};
use quasii_common::{dataset, workload};
use quasii_shard::ShardConfig;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Records in every dataset.
pub const RECORDS: usize = 1_000_000;
/// Query volume of every timed stream, as a fraction of the universe.
pub const QVOL: f64 = 1e-4;
/// `cold_neuro`: clusters of 100 queries in one cold episode.
pub const COLD_CLUSTERS: usize = 1_000;
/// `steady_uniform`: queries in the fixed stream the timed window cycles.
pub const STEADY_QUERIES: usize = 16_384;
/// Warm-up queries (uniform, qvol 1e-3) before `finalize` and `seal`.
pub const WARMUP_QUERIES: usize = 2_048;
/// Queries per `try_execute_batch` call during the warm-up.
pub const WARMUP_BATCH: usize = 256;
/// Answers compared against `brute_force` in every run.
pub const SAMPLES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdNeuro,
    SteadyUniform,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cold_neuro" => Some(Self::ColdNeuro),
            "steady_uniform" => Some(Self::SteadyUniform),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdNeuro => "cold_neuro",
            Self::SteadyUniform => "steady_uniform",
        }
    }

    /// One-line description of the inputs, printed with every run.
    pub fn describe(self) -> String {
        match self {
            Self::ColdNeuro => format!(
                "neuro_like n={RECORDS}; clustered {COLD_CLUSTERS}x100 qvol={QVOL} per \
                 episode; batch=64; fresh engine per episode"
            ),
            Self::SteadyUniform => format!(
                "uniform_boxes n={RECORDS}; warm-up {WARMUP_QUERIES} uniform qvol=1e-3 + \
                 finalize + seal; uniform {STEADY_QUERIES} qvol={QVOL} cycled; batch=256"
            ),
        }
    }

    pub fn data(self, seed: u64) -> Vec<Record<3>> {
        match self {
            Self::ColdNeuro => dataset::neuro_like(RECORDS, seed),
            Self::SteadyUniform => dataset::uniform_boxes(RECORDS, seed),
        }
    }

    /// The fixed query stream of a seed; the reference answers every query
    /// of it.
    pub fn queries(self, data: &[Record<3>], seed: u64) -> Vec<Aabb<3>> {
        let universe = mbb_of(data);
        let universe = &universe;
        let seed = seed ^ 0x9e37_79b9;
        match self {
            Self::ColdNeuro => {
                workload::clustered(universe, COLD_CLUSTERS, 100, QVOL, seed).queries
            }
            Self::SteadyUniform => workload::uniform(universe, STEADY_QUERIES, QVOL, seed).queries,
        }
    }

    /// Queries per operation: one `try_execute_batch` call, or one request.
    pub fn batch(self) -> usize {
        match self {
            Self::ColdNeuro => 64,
            Self::SteadyUniform => 256,
        }
    }
}

/// The warm-up stream that converges `steady_uniform`.
pub fn warmup_queries(universe: &Aabb<3>, seed: u64) -> Vec<Aabb<3>> {
    workload::uniform(universe, WARMUP_QUERIES, 1e-3, seed ^ 0x7f4a_7c15).queries
}

/// The deployment every workload runs: two shards on two shard workers,
/// one engine thread each, every other setting at its default.
pub fn deployment(seal: bool) -> ShardConfig {
    ShardConfig::default()
        .with_shards(2)
        .with_shard_threads(2)
        .with_inner(QuasiiConfig::default().with_threads(1).with_seal(seal))
}

/// Hash of one canonical (id-sorted) answer.
pub fn answer_hash(ids: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ ids.len() as u64;
    for &id in ids {
        h = (h ^ id).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive digest of a stream of answer hashes.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0x8422_2325_cbf2_9ce4u64, |d, h| {
        (d ^ h).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
    })
}

/// The canonical answers of one seed's fixed stream, computed by an
/// unsealed, single-shard, single-thread engine, plus a fixed sample of
/// answers computed by brute force.
pub struct Reference {
    pub hashes: Vec<u64>,
    pub digest: u64,
    /// `sample[i]` is the brute-force answer of query `i`, for the sampled
    /// queries.
    pub samples: BTreeMap<usize, Vec<u64>>,
}

/// Query indices whose answers are checked against brute force.
fn sample_indices(n: usize) -> impl Iterator<Item = usize> {
    (0..SAMPLES).map(move |k| k * n / SAMPLES + k % 7)
}

/// Body of the `reference` subcommand: prints the reference of `wl` at
/// `seed` to stdout. It runs in its own process, so the index process's
/// peak RSS never includes the reference's copies of the data.
pub fn print_reference(wl: Workload, seed: u64) {
    let data = wl.data(seed);
    let queries = wl.queries(&data, seed);
    let mut engine = quasii::Quasii::new(
        data.clone(),
        QuasiiConfig::default().with_threads(1).with_seal(false),
    );
    let answers = canonical_results(&mut engine, &queries);
    drop(engine);
    let hashes: Vec<u64> = answers.iter().map(|a| answer_hash(a)).collect();
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(
        out,
        "ref {} {:x}",
        hashes.len(),
        digest(hashes.iter().copied())
    );
    for h in &hashes {
        let _ = writeln!(out, "h {h:x}");
    }
    for i in sample_indices(queries.len()) {
        let ids: Vec<String> = brute_force(&data, &queries[i])
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(out, "s {i} {}", ids.join(","));
    }
    let _ = out.flush();
}

/// Runs the `reference` subcommand in a child process and parses it.
pub fn reference(wl: Workload, seed: u64) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "reference",
            "--workload",
            wl.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn reference: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let parsed = parse_reference(BufReader::new(stdout));
    let status = child.wait().map_err(|e| format!("wait reference: {e}"))?;
    if !status.success() {
        return Err(format!("reference process failed: {status}"));
    }
    parsed
}

fn parse_reference(r: impl BufRead) -> Result<Reference, String> {
    let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("reference: {e}"));
    let mut reference = Reference {
        hashes: Vec::new(),
        digest: 0,
        samples: BTreeMap::new(),
    };
    let mut expect = 0;
    for line in r.lines() {
        let line = line.map_err(|e| format!("reference: {e}"))?;
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("ref"), Some(n), Some(d)) => {
                expect = n.parse().map_err(|_| "reference: bad count".to_string())?;
                reference.digest = hex(d)?;
            }
            (Some("h"), Some(h), None) => reference.hashes.push(hex(h)?),
            (Some("s"), Some(i), ids) => {
                let i = i.parse().map_err(|_| "reference: bad index".to_string())?;
                let ids = ids
                    .unwrap_or("")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| "reference: bad id".to_string()))
                    .collect::<Result<Vec<u64>, String>>()?;
                reference.samples.insert(i, ids);
            }
            _ => return Err(format!("reference: unexpected line '{line}'")),
        }
    }
    if expect == 0 || reference.hashes.len() != expect || reference.samples.len() != SAMPLES {
        return Err("reference output is incomplete".to_string());
    }
    Ok(reference)
}

/// Tallies answer checks against a [`Reference`].
#[derive(Default)]
pub struct Checker {
    pub checked: u64,
    pub mismatches: u64,
    /// Answer hashes of the first pass, for the digest check.
    pub first_pass: Vec<Option<u64>>,
    pub samples_checked: usize,
}

impl Checker {
    pub fn new(n: usize) -> Self {
        Self {
            first_pass: vec![None; n],
            ..Self::default()
        }
    }

    /// Checks the answer of query `i` of the fixed stream.
    pub fn check(&mut self, reference: &Reference, i: usize, ids: &[u64]) {
        let h = answer_hash(ids);
        self.checked += 1;
        if h != reference.hashes[i] {
            if self.mismatches == 0 {
                eprintln!("perfbench: answer of query {i} differs from the reference");
            }
            self.mismatches += 1;
        }
        if self.first_pass[i].is_none() {
            self.first_pass[i] = Some(h);
            if let Some(expected) = reference.samples.get(&i) {
                self.samples_checked += 1;
                if expected.as_slice() != ids {
                    eprintln!("perfbench: answer of query {i} differs from brute force");
                    self.mismatches += 1;
                }
            }
        }
    }

    /// Whether every check passed, the digest of a full first pass
    /// included. A stream too slow to finish one pass is still checked
    /// answer by answer.
    pub fn passed(&self, reference: &Reference) -> bool {
        let mut ok = self.mismatches == 0 && self.checked > 0;
        if self.first_pass.iter().all(Option::is_some) {
            let d = digest(self.first_pass.iter().map(|h| h.expect("all present")));
            if d != reference.digest {
                eprintln!("perfbench: answer digest differs from the reference");
                ok = false;
            }
        }
        ok
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// CPU seconds (user + system) process `pid` has used so far, to the
/// 10 ms the kernel reports. Time the host stole is not in it.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// CPU seconds all threads of this process have used so far, to the
/// nanosecond (`CLOCK_PROCESS_CPUTIME_ID`). Time the host stole is not in
/// it, so it measures work where wall time measures the host.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Fixes glibc's mmap threshold at its start value (128 KiB), which also
/// turns off its dynamic adjustment: every large allocation gets fresh
/// pages from the kernel and returns them when freed, as in a new process.
/// With the adjustment on, whether a set-up reuses pages an earlier one
/// freed depends on the allocator's history: `ShardedQuasii::new` on 1 M
/// records took 33 ms of CPU with no page faults and 85 ms with 20 k of
/// them, in the same run.
pub fn fix_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only changes a tuning parameter of the
        // process's own allocator; it is called once, before any thread
        // starts.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Host steal ticks so far: the `steal` column of `/proc/stat`, CPU time
/// the hypervisor gave to other guests while this machine's virtual CPUs
/// wanted to run.
fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0)
}

/// Host steal from its start to [`frac`](Self::frac): one `/proc/stat`
/// reading at each end. It is reported next to the wall-clock figures,
/// which it slows, so a reader can tell a slow host from a slow program.
pub struct StealMeter {
    t0: Instant,
    ticks0: f64,
}

impl StealMeter {
    pub fn start() -> Self {
        Self {
            t0: Instant::now(),
            ticks0: steal_ticks(),
        }
    }

    /// Share of the machine's CPU time stolen since the start.
    pub fn frac(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let secs = self.t0.elapsed().as_secs_f64().max(1e-9);
        (steal_ticks() - self.ticks0) / 100.0 / (secs * cpus)
    }
}

/// One set-up: CPU seconds the program spent on it and wall seconds to
/// ready.
#[derive(Clone, Copy)]
pub struct Setup {
    pub cpu_s: f64,
    pub ready_s: f64,
}

/// `setup_s` (median CPU seconds over the set-ups) and the wall-clock
/// set-up figures: median seconds to ready, and median seconds from the
/// start of a set-up to its first answer (`first_s`).
pub fn setup_metrics(m: &mut Metrics, setups: &[Setup], first_s: &[f64]) {
    let cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    m.insert("setup_s", median(&cpu));
    m.insert(
        "wall.setup_s",
        median(&setups.iter().map(|s| s.ready_s).collect::<Vec<_>>()),
    );
    m.insert("wall.first_answer_ms", median(first_s) * 1e3);
    let cpu = sorted(cpu);
    eprintln!(
        "  set-up CPU seconds over {} set-ups: min {:.4}, median {:.4}, max {:.4}",
        cpu.len(),
        cpu[0],
        m["setup_s"],
        cpu[cpu.len() - 1]
    );
}

/// Wall-clock throughput and per-operation latency over the untraced
/// timed streams, and the host steal over the run. Reported, not gated:
/// on a shared host they move with the steal (see `NOTES.md`).
pub fn wall_metrics(m: &mut Metrics, queries: u64, wall_s: f64, lat_us: Vec<f64>, steal: f64) {
    let lat = sorted(lat_us);
    m.insert("wall.qps", ratio(queries as f64, wall_s));
    m.insert("wall.p50_us", quantile(&lat, 0.5));
    m.insert("wall.p90_us", quantile(&lat, 0.9));
    m.insert("wall.p99_us", quantile(&lat, 0.99));
    m.insert("host.steal_frac", steal);
    eprintln!(
        "  wall clock (host steal {:.1}%): {:.0} q/s; latency per operation p50 {:.1} us, \
         p90 {:.1} us, p99 {:.1} us over {} samples",
        steal * 100.0,
        m["wall.qps"],
        m["wall.p50_us"],
        m["wall.p90_us"],
        m["wall.p99_us"],
        lat.len()
    );
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One span around a call into the program.
pub struct Span {
    pub name: &'static str,
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans get ids `1..`; parent `0` is the run.
/// A disabled recorder records nothing and hands out id 0.
pub struct Spans {
    pub on: bool,
    epoch: Instant,
    run: String,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, run: String) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            run,
            list: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        self.add(name, parent, Instant::now(), self.epoch)
    }

    pub fn close(&mut self, id: usize) {
        if id > 0 {
            self.list[id - 1].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span measured elsewhere (`end` before `start` leaves it
    /// open, for [`close`](Self::close)).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.list.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.list.len()
    }

    /// Per span name: count, total seconds, and self seconds (duration
    /// minus the part of it that child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.list.len() + 1];
        for s in &self.list {
            children[s.parent].push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.list.iter().enumerate() {
            let kids = &mut children[i + 1];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Writes the spans as JSON lines under `.perfbench/`.
    pub fn write(&self, file: &str) -> Result<PathBuf, String> {
        let path = Path::new(".perfbench").join(file);
        let mut text = String::with_capacity(self.list.len() * 96);
        for (i, s) in self.list.iter().enumerate() {
            text.push_str(&format!(
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                self.run,
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        std::fs::create_dir_all(".perfbench").map_err(|e| format!("create .perfbench: {e}"))?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Prints the self-time table to stderr.
    pub fn report(&self) {
        eprintln!(
            "  {:<20} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, total, own)) in self.self_times() {
            eprintln!("  {name:<20} {n:>8} {total:>12.6} {own:>12.6}");
        }
    }
}

/// The metrics of one run, in the order `BENCHMARK.json` lists them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_query", "us"),
    ("rss_mb", "MiB"),
    ("answered_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A metric a workload has
/// no layer for reads 0 there (see `perfbench/NOTES.md`).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("wall.setup_s", "s"),
    ("wall.first_answer_ms", "ms"),
    ("wall.qps", "1/s"),
    ("wall.p50_us", "us"),
    ("wall.p90_us", "us"),
    ("wall.p99_us", "us"),
    ("host.steal_frac", "ratio"),
    ("core.crack.records_cracked", "count"),
    ("core.crack.cracks", "count"),
    ("core.keys.records_rekeyed", "count"),
    ("core.crack.ns_per_record", "ns"),
    ("core.batch.classify_s", "s"),
    ("core.batch.sealed_read_s", "s"),
    ("core.batch.crack_s", "s"),
    ("core.batch.merge_s", "s"),
    ("core.batch.other_s", "s"),
    ("core.batch.span_s", "s"),
    ("core.batch.worker_s", "s"),
    ("core.scan.tested_per_result", "ratio"),
    ("core.seal.seals", "count"),
    ("core.seal.unseals", "count"),
    ("core.seal.sweep_s", "s"),
    ("core.seal.sealed_query_frac", "ratio"),
    ("core.converge_s", "s"),
    ("shard.new_s", "s"),
    ("shard.fanout", "ratio"),
    ("shard.single_call_us", "us"),
    ("persist.read_s", "s"),
    ("persist.checksum_s", "s"),
    ("persist.load_s", "s"),
    ("persist.decode_s", "s"),
    ("persist.snapshot_mb", "MiB"),
    ("server.request_p50_us", "us"),
    ("server.group_size_mean", "count"),
    ("server.rejected", "count"),
    ("net.client_us", "us"),
    ("http.parse_ns", "ns"),
    ("client.cpu_frac", "ratio"),
    ("client.p50_us", "us"),
    ("client.p90_us", "us"),
    ("served.setup_s", "s"),
    ("served.setup_cpu_s", "s"),
    ("served.qps", "1/s"),
    ("served.cpu_us_per_query", "us"),
    ("served.rss_mb", "MiB"),
    ("served.answered_frac", "ratio"),
    ("mem.data_mb", "MiB"),
    ("mem.index_mb", "MiB"),
    ("mem.arena_mb", "MiB"),
    ("trace.qps_untraced", "1/s"),
    ("trace.qps_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("bench.stream_self_s", "s"),
];

/// The outcome of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Prints the result line: every metric of the set the run reports.
    pub fn print(&self, trace: bool) {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
