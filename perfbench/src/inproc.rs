//! `cold_neuro` and `steady_uniform`: the engine runs in this process and
//! every operation is one `ShardedQuasii::try_execute_batch` call.

use crate::common::{
    deployment, median, process_cpu_s, ratio, setup_metrics, vm_hwm_mib, wall_metrics,
    warmup_queries, Checker, Metrics, Outcome, Reference, Setup, Spans, StealMeter, WorkDir,
    WARMUP_BATCH,
};
use crate::layers::{self, Counters};
use crate::{served, Args};
use quasii_common::geom::{mbb_of, Aabb};
use quasii_obs as obs;
use quasii_shard::ShardedQuasii;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per `steady_uniform` run; `setup_s` is their median.
const STEADY_SETUPS: usize = 5;
/// Extra `ShardedQuasii::new` timings per `cold_neuro` run, after the
/// timed window, so `setup_s` is a median over many set-ups.
const COLD_EXTRA_SETUPS: usize = 12;
/// Fewest cold episodes per run (untraced ones, in a traced run).
const MIN_EPISODES: usize = 3;

/// What one pass over (part of) a query stream did.
#[derive(Default)]
struct Stream {
    ops: u64,
    failed: u64,
    queries: u64,
    results: u64,
    wall_s: f64,
    /// CPU seconds of the process over the stream.
    cpu_s: f64,
    /// Latency of every operation, in microseconds.
    lat_us: Vec<f64>,
    /// End of the first operation.
    first_end: Option<Instant>,
    /// Sum of the `try_execute_batch` spans, wall and worker-weighted.
    span_s: f64,
    worker_s: f64,
}

impl Stream {
    fn qps(&self) -> f64 {
        ratio(self.queries as f64, self.wall_s)
    }
}

/// Runs `queries` through `engine` in batches of `batch`: one pass, or
/// cycling until `until` passes.
#[allow(clippy::too_many_arguments)]
fn stream(
    engine: &mut ShardedQuasii<3>,
    queries: &[Aabb<3>],
    batch: usize,
    until: Option<Instant>,
    reference: &Reference,
    checker: &mut Checker,
    spans: &mut Spans,
    parent: usize,
) -> Stream {
    let n = queries.len();
    let threads = engine.effective_shard_threads();
    let mut s = Stream::default();
    let start = Instant::now();
    let cpu0 = process_cpu_s();
    let mut pos = 0usize;
    loop {
        let i0 = pos % n;
        let chunk = &queries[i0..(i0 + batch).min(n)];
        let visited: Vec<u64> = if spans.on {
            engine.engines().iter().map(|e| e.stats().queries).collect()
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let r = engine.try_execute_batch(chunk);
        let end = Instant::now();
        let dt = (end - t).as_secs_f64();
        s.ops += 1;
        s.queries += chunk.len() as u64;
        s.lat_us.push(dt * 1e6);
        s.first_end.get_or_insert(end);
        match r {
            Ok(answers) => {
                for (k, a) in answers.iter().enumerate() {
                    checker.check(reference, i0 + k, a);
                    s.results += a.len() as u64;
                }
            }
            Err(e) => {
                if s.failed == 0 {
                    eprintln!("perfbench: {e}");
                }
                s.failed += 1;
            }
        }
        if spans.on {
            spans.add("try_execute_batch", parent, t, end);
            // Shards that ran this batch: with more than one, that many
            // scoped workers held a core for the whole call.
            let ran = engine
                .engines()
                .iter()
                .zip(&visited)
                .filter(|(e, &q)| e.stats().queries > q)
                .count();
            s.span_s += dt;
            s.worker_s += dt * ran.clamp(1, threads) as f64;
        }
        pos += chunk.len();
        let done = match until {
            None => pos >= n,
            Some(deadline) => end >= deadline,
        };
        if done {
            break;
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s.cpu_s = process_cpu_s() - cpu0;
    s
}

/// Enables or disables the registry and the span recorder together.
fn set_traced(spans: &mut Spans, on: bool) {
    obs::set_enabled(on);
    spans.on = on;
}

/// Accumulates one traced stream into the per-layer sums.
fn add_traced(m: &mut Metrics, s: &Stream, d: Counters, reg: ([f64; 5], [f64; 5])) {
    layers::add_counters(m, d, s.results);
    layers::add_registry(m, reg.0, reg.1);
    *m.entry("core.batch.span_s").or_default() += s.span_s;
    *m.entry("core.batch.worker_s").or_default() += s.worker_s;
}

/// Persistence, single-call and HTTP-parse readings on the final engine
/// of a traced run. Returns the scratch directory holding the engine's
/// snapshot and the snapshot's path.
fn trace_extras(
    mut engine: ShardedQuasii<3>,
    queries: &[Aabb<3>],
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<(WorkDir, PathBuf), String> {
    let work = WorkDir::create()?;
    let path = layers::write_snapshot(&mut engine, &work, spans)?;
    drop(engine);
    let mut copy = layers::warm_start(&path, m, spans)?;
    layers::single_call_probe(&mut copy, queries, m, spans)?;
    m.insert("http.parse_ns", layers::http_parse_ns(&queries[0]));
    Ok((work, path))
}

/// `cold_neuro`: fresh engines, each answering the whole clustered stream
/// from its first crack. A traced run alternates untraced and traced
/// episodes.
pub fn cold(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let wl = args.workload;
    let mut data = Some(wl.data(args.seed));
    let queries = wl.queries(data.as_ref().expect("generated"), args.seed);
    let mut checker = Checker::new(queries.len());
    let mut spans = Spans::new(false, format!("{}-{}", wl.name(), args.seed));
    let steal = StealMeter::start();
    let mut m = Metrics::new();
    // Untraced episodes give the end-to-end figures.
    let (mut setups, mut first_s, mut lat_us) = (vec![], vec![], vec![]);
    let (mut cpu_s, mut wall_s, mut plain_queries) = (0.0, 0.0, 0u64);
    let (mut traced_qps, mut new_s) = (vec![], vec![]);
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut rss = None;
    let mut last_traced = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for episode in 0.. {
        let traced = args.trace && episode % 2 == 1;
        let data = data.take().unwrap_or_else(|| wl.data(args.seed));
        set_traced(&mut spans, traced);
        let setup_span = spans.open("setup", 0);
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let mut engine = ShardedQuasii::new(data, deployment(args.seal));
        let (built, setup_cpu) = (Instant::now(), process_cpu_s() - cpu0);
        spans.add("shard.new", setup_span, t0, built);
        spans.close(setup_span);
        let (c0, r0) = (Counters::of(&engine), layers::registry_sums());
        let stream_span = spans.open("stream", 0);
        let s = stream(
            &mut engine,
            &queries,
            wl.batch(),
            None,
            reference,
            &mut checker,
            &mut spans,
            stream_span,
        );
        spans.close(stream_span);
        ops += s.ops;
        failed += s.failed;
        if traced {
            add_traced(
                &mut m,
                &s,
                Counters::of(&engine).minus(c0),
                (r0, layers::registry_sums()),
            );
            new_s.push((built - t0).as_secs_f64());
            traced_qps.push(s.qps());
            layers::memory(&mut m, &engine);
            last_traced = Some(engine);
        } else {
            setups.push(Setup {
                cpu_s: setup_cpu,
                ready_s: (built - t0).as_secs_f64(),
            });
            first_s.push((s.first_end.expect("one batch ran") - t0).as_secs_f64());
            cpu_s += s.cpu_s;
            wall_s += s.wall_s;
            plain_queries += s.queries;
            lat_us.extend_from_slice(&s.lat_us);
            drop(engine);
            // Later episodes repeat the same allocations; their peak only
            // adds allocator fragmentation that varies with timing.
            if rss.is_none() {
                rss = Some(vm_hwm_mib("self")?);
            }
        }
        set_traced(&mut spans, false);
        let enough = setups.len() >= MIN_EPISODES && (!args.trace || !traced_qps.is_empty());
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let episodes = setups.len() + traced_qps.len();
    // The set-up alone, timed again on copies of the data: one sample per
    // episode is too few for a steady median.
    let data = wl.data(args.seed);
    for _ in 0..COLD_EXTRA_SETUPS {
        let copy = data.clone();
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let engine = ShardedQuasii::new(copy, deployment(args.seal));
        setups.push(Setup {
            cpu_s: process_cpu_s() - cpu0,
            ready_s: t0.elapsed().as_secs_f64(),
        });
        drop(engine);
    }
    drop(data);
    eprintln!(
        "  {episodes} episodes of {} queries; {} answers checked, {} against brute force",
        queries.len(),
        checker.checked,
        checker.samples_checked
    );
    setup_metrics(&mut m, &setups, &first_s);
    wall_metrics(&mut m, plain_queries, wall_s, lat_us, steal.frac());
    m.insert("cpu_us_per_query", ratio(cpu_s, plain_queries as f64) * 1e6);
    m.insert("rss_mb", rss.expect("an untraced episode ran"));
    m.insert("answered_frac", 1.0 - ratio(failed as f64, ops as f64));
    if args.trace {
        let mut engine = last_traced.expect("a traced episode ran");
        set_traced(&mut spans, true);
        let id = spans.open("converge", 0);
        let t = Instant::now();
        engine.finalize();
        engine.seal();
        m.insert("core.converge_s", t.elapsed().as_secs_f64());
        spans.close(id);
        m.insert("shard.new_s", median(&new_s));
        m.insert("trace.qps_untraced", m["wall.qps"]);
        m.insert("trace.qps_traced", median(&traced_qps));
        trace_extras(engine, &queries, &mut m, &mut spans)?;
        finish_trace(&mut m, &spans, args);
    }
    Ok(Outcome {
        correct: checker.passed(reference),
        attempted: ops,
        failed,
        metrics: m,
    })
}

/// `steady_uniform`: converge, then cycle the uniform stream on the
/// sealed read path until the time is up.
pub fn steady(args: &Args, reference: &Reference) -> Result<Outcome, String> {
    let wl = args.workload;
    let data = wl.data(args.seed);
    let queries = wl.queries(&data, args.seed);
    let warm = warmup_queries(&mbb_of(&data), args.seed);
    let mut data = Some(data);
    let mut checker = Checker::new(queries.len());
    let mut spans = Spans::new(false, format!("{}-{}", wl.name(), args.seed));
    set_traced(&mut spans, args.trace);
    let steal = StealMeter::start();
    let mut m = Metrics::new();
    let (mut setups, mut first_s) = (vec![], vec![]);
    let (mut new_s, mut converge_s) = (vec![], vec![]);
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut rss = None;
    let mut engine = None;
    for _ in 0..STEADY_SETUPS {
        drop(engine.take());
        let data = data.take().unwrap_or_else(|| wl.data(args.seed));
        let setup_span = spans.open("setup", 0);
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let mut e = ShardedQuasii::new(data, deployment(args.seal));
        let built = Instant::now();
        spans.add("shard.new", setup_span, t0, built);
        let id = spans.open("warmup", setup_span);
        for chunk in warm.chunks(WARMUP_BATCH) {
            e.try_execute_batch(chunk)
                .map_err(|err| format!("warm-up: {err}"))?;
        }
        spans.close(id);
        let id = spans.open("finalize", setup_span);
        e.finalize();
        spans.close(id);
        let id = spans.open("seal", setup_span);
        e.seal();
        spans.close(id);
        spans.close(setup_span);
        let (ready, setup_cpu) = (Instant::now(), process_cpu_s() - cpu0);
        new_s.push((built - t0).as_secs_f64());
        converge_s.push((ready - built).as_secs_f64());
        // The first answer after set-up: one batch of the timed stream.
        let s = stream(
            &mut e,
            &queries[..wl.batch()],
            wl.batch(),
            None,
            reference,
            &mut checker,
            &mut spans,
            setup_span,
        );
        ops += s.ops;
        failed += s.failed;
        setups.push(Setup {
            cpu_s: setup_cpu,
            ready_s: (ready - t0).as_secs_f64(),
        });
        first_s.push((s.first_end.expect("one batch ran") - t0).as_secs_f64());
        // Later set-ups repeat the same allocations; their peak only adds
        // allocator fragmentation that varies with timing.
        if rss.is_none() {
            rss = Some(vm_hwm_mib("self")?);
        }
        engine = Some(e);
    }
    let mut engine = engine.expect("set up at least once");
    set_traced(&mut spans, false);
    let start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let run = |engine: &mut ShardedQuasii<3>,
               spans: &mut Spans,
               checker: &mut Checker,
               until: Duration,
               parent| {
        stream(
            engine,
            &queries,
            wl.batch(),
            Some(start + until),
            reference,
            checker,
            spans,
            parent,
        )
    };
    // Untraced throughout, or an untraced quarter, a traced half and an
    // untraced quarter: a drift over the run affects both sides of the
    // overhead comparison alike.
    let mut plain = Vec::new();
    if args.trace {
        plain.push(run(&mut engine, &mut spans, &mut checker, window / 4, 0));
        set_traced(&mut spans, true);
        let (c0, r0) = (Counters::of(&engine), layers::registry_sums());
        let stream_span = spans.open("stream", 0);
        let traced = run(
            &mut engine,
            &mut spans,
            &mut checker,
            window * 3 / 4,
            stream_span,
        );
        spans.close(stream_span);
        add_traced(
            &mut m,
            &traced,
            Counters::of(&engine).minus(c0),
            (r0, layers::registry_sums()),
        );
        layers::memory(&mut m, &engine);
        set_traced(&mut spans, false);
        plain.push(run(&mut engine, &mut spans, &mut checker, window, 0));
        m.insert("trace.qps_traced", traced.qps());
        ops += traced.ops;
        failed += traced.failed;
    } else {
        plain.push(run(&mut engine, &mut spans, &mut checker, window, 0));
    }
    for s in &plain {
        ops += s.ops;
        failed += s.failed;
    }
    let queries_run: u64 = plain.iter().map(|s| s.queries).sum();
    let wall_s: f64 = plain.iter().map(|s| s.wall_s).sum();
    let lat_us = plain
        .iter()
        .flat_map(|s| s.lat_us.iter().copied())
        .collect();
    setup_metrics(&mut m, &setups, &first_s);
    wall_metrics(&mut m, queries_run, wall_s, lat_us, steal.frac());
    let cpu_s: f64 = plain.iter().map(|s| s.cpu_s).sum();
    m.insert("cpu_us_per_query", ratio(cpu_s, queries_run as f64) * 1e6);
    m.insert("rss_mb", rss.expect("set up at least once"));
    m.insert("answered_frac", 1.0 - ratio(failed as f64, ops as f64));
    if args.trace {
        m.insert("shard.new_s", median(&new_s));
        m.insert("core.converge_s", median(&converge_s));
        m.insert("trace.qps_untraced", m["wall.qps"]);
        let (_work, snapshot) = trace_extras(engine, &queries, &mut m, &mut spans)?;
        served::probe(
            &args.quasii,
            &snapshot,
            &queries,
            reference,
            &mut checker,
            &mut m,
            &mut spans,
        )?;
        finish_trace(&mut m, &spans, args);
    }
    // Last, so the served probe's checks count too.
    eprintln!(
        "  {} set-ups; {} answers checked, {} against brute force",
        setups.len(),
        checker.checked,
        checker.samples_checked
    );
    Ok(Outcome {
        correct: checker.passed(reference),
        attempted: ops,
        failed,
        metrics: m,
    })
}

/// Shared tail of a traced run: derived ratios, overhead, self times, and
/// the span file.
pub fn finish_trace(m: &mut Metrics, spans: &Spans, args: &Args) {
    layers::derive(m);
    let (traced, plain) = (m["trace.qps_traced"], m["trace.qps_untraced"]);
    let overhead = 1.0 - ratio(traced, plain);
    m.insert("trace.overhead_frac", overhead);
    if let Some(&(_, _, own)) = spans.self_times().get("stream") {
        m.insert("bench.stream_self_s", own);
    }
    eprintln!(
        "  tracing overhead: {traced:.0} q/s traced vs {plain:.0} q/s untraced ({:+.2}%)",
        -overhead * 100.0
    );
    spans.report();
    match spans.write(&format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    )) {
        Ok(path) => eprintln!("  {} spans written to {}", spans.list.len(), path.display()),
        Err(e) => eprintln!("perfbench: {e}"),
    }
}
