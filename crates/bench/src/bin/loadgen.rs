//! `loadgen` — HTTP load generator for the QUASII query service.
//!
//! ```text
//! loadgen --addr HOST:PORT [--mode closed|open] [--connections N]
//!         [--queries N] [--rate QPS] [--pattern uniform|skewed]
//!         [--volume FRAC] [--seed S] [--batch N]
//! ```
//!
//! Fetches the served dataset's universe from `GET /snapshots`, builds a
//! seeded workload with the suite's generators (the same distributions
//! every experiment uses), and drives the service over `--connections`
//! keep-alive connections:
//!
//! * **closed** loop (default): each connection fires its next request as
//!   soon as the previous answer arrives — the steady-state throughput
//!   mode the `service` experiment measures;
//! * **open** loop: requests are released on a fixed global schedule of
//!   `--rate` queries/second — request `i` is due at `i / rate` (counting
//!   queries, so a client batch of N takes N slots) — and connection `c`
//!   of `C` sends requests `c, c + C, …`, so every connection carries its
//!   share of the schedule at once. Each latency is measured from the
//!   request's *scheduled* send time, so queueing delay is charged to the
//!   server (no coordinated omission).
//!
//! `--batch N > 1` ships queries as `POST /batch` client batches of N
//! instead of single `GET /query` requests. The run reports achieved QPS
//! and p50/p90/p99 latency, and exits nonzero if any request failed.

use quasii_common::geom::Aabb;
use quasii_common::workload;
use quasii_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    mode: String,
    connections: usize,
    queries: usize,
    rate: f64,
    pattern: String,
    volume: f64,
    seed: u64,
    batch: usize,
}

fn usage() -> ! {
    println!(
        "usage: loadgen --addr HOST:PORT [--mode closed|open] [--connections N] \
         [--queries N] [--rate QPS] [--pattern uniform|skewed] [--volume FRAC] \
         [--seed S] [--batch N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        addr: String::new(),
        mode: "closed".into(),
        connections: 4,
        queries: 2_000,
        rate: 1_000.0,
        pattern: "skewed".into(),
        volume: 1e-3,
        seed: 1,
        batch: 0,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            usage();
        }
        i += 1;
        let Some(v) = argv.get(i) else {
            eprintln!("{flag} needs a value");
            usage();
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T
        where
            T::Err: std::fmt::Display,
        {
            v.parse().unwrap_or_else(|e| {
                eprintln!("{flag}: cannot parse '{v}': {e}");
                std::process::exit(2);
            })
        }
        match flag {
            "--addr" => args.addr = v.clone(),
            "--mode" => args.mode = v.clone(),
            "--connections" => args.connections = num(flag, v),
            "--queries" => args.queries = num(flag, v),
            "--rate" => args.rate = num(flag, v),
            "--pattern" => args.pattern = v.clone(),
            "--volume" => args.volume = num(flag, v),
            "--seed" => args.seed = num(flag, v),
            "--batch" => args.batch = num(flag, v),
            other => {
                eprintln!("unknown option '{other}'");
                usage();
            }
        }
        i += 1;
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        usage();
    }
    if args.connections == 0 || args.queries == 0 {
        eprintln!("--connections and --queries must be >= 1");
        std::process::exit(2);
    }
    if args.mode == "open" && args.rate <= 0.0 {
        eprintln!("--mode open needs --rate > 0");
        std::process::exit(2);
    }
    args
}

/// Extracts the 3 numbers of `"KEY":[a,b,c]` from `s`.
fn parse_triple_field(s: &str, key: &str) -> Result<[f64; 3], String> {
    let pat = format!("\"{key}\":[");
    let start = s
        .find(&pat)
        .ok_or_else(|| format!("no '{key}' array in /snapshots payload"))?
        + pat.len();
    let end = s[start..]
        .find(']')
        .ok_or_else(|| format!("unterminated '{key}' array"))?
        + start;
    let parts: Vec<&str> = s[start..end].split(',').collect();
    if parts.len() != 3 {
        return Err(format!("'{key}' holds {} values, expected 3", parts.len()));
    }
    let mut out = [0.0f64; 3];
    for (d, p) in parts.iter().enumerate() {
        out[d] = p
            .trim()
            .parse()
            .map_err(|_| format!("'{key}': cannot parse '{p}' (empty dataset served?)"))?;
    }
    Ok(out)
}

/// Asks the service for the dataset universe (the workload generators'
/// sampling domain).
fn fetch_universe(addr: &str) -> Result<Aabb<3>, String> {
    let mut client = minihttp::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .get("/snapshots")
        .map_err(|e| format!("GET /snapshots: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /snapshots answered {}", resp.status));
    }
    let body = resp.text();
    let lo = parse_triple_field(&body, "lo")?;
    let hi = parse_triple_field(&body, "hi")?;
    Ok(Aabb::new(lo, hi))
}

fn target_of(q: &Aabb<3>) -> String {
    format!(
        "/query?lo={},{},{}&hi={},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

fn batch_body_of(queries: &[Aabb<3>]) -> String {
    let mut body = String::new();
    for q in queries {
        body.push_str(&format!(
            "{},{},{},{},{},{}\n",
            q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
        ));
    }
    body
}

/// The requests connection `c` of `connections` sends, as ranges of query
/// indices: consecutive runs of `step` queries dealt round-robin over the
/// connections. On the open-loop schedule a request is due at
/// `range.start / rate` seconds.
fn schedule(
    c: usize,
    connections: usize,
    queries: usize,
    step: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    (c * step..queries)
        .step_by(connections * step)
        .map(move |start| start..(start + step).min(queries))
}

fn main() {
    let args = parse_args();
    let universe = fetch_universe(&args.addr).unwrap_or_else(|e| {
        eprintln!("cannot size the workload: {e}");
        std::process::exit(1);
    });
    let queries = match args.pattern.as_str() {
        "uniform" => workload::uniform(&universe, args.queries, args.volume, args.seed),
        "skewed" => workload::skewed(&universe, 8, args.queries, args.volume, 1.1, args.seed),
        other => {
            eprintln!("unknown --pattern '{other}' (uniform|skewed)");
            std::process::exit(2);
        }
    }
    .queries;
    eprintln!(
        "[loadgen] {} {} queries (volume {:.1e}, seed {}) against http://{} — {} loop, \
         {} connections{}",
        queries.len(),
        args.pattern,
        args.volume,
        args.seed,
        args.addr,
        args.mode,
        args.connections,
        if args.batch > 1 {
            format!(", client batches of {}", args.batch)
        } else {
            String::new()
        }
    );

    let lat = Histogram::new();
    let failures = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let open = match args.mode.as_str() {
        "closed" => false,
        "open" => true,
        other => {
            eprintln!("unknown --mode '{other}' (closed|open)");
            std::process::exit(2);
        }
    };
    let interval = Duration::from_secs_f64(1.0 / args.rate.max(1e-9));
    let step = args.batch.max(1);
    let connections = args.connections.min(queries.len().div_ceil(step));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..connections {
            let (lat, failures, completed, queries) = (&lat, &failures, &completed, &queries);
            let (addr, batch) = (args.addr.clone(), args.batch);
            scope.spawn(move || {
                let mine = || schedule(c, connections, queries.len(), step);
                let Ok(mut client) = minihttp::Client::connect(&addr) else {
                    let n: usize = mine().map(|r| r.len()).sum();
                    failures.fetch_add(n as u64, Ordering::Relaxed);
                    return;
                };
                for range in mine() {
                    let group = &queries[range.clone()];
                    // Open loop: release on the global schedule; latency is
                    // measured from the scheduled time so server queueing
                    // delay is charged, not hidden (coordinated omission).
                    let t = if open {
                        let scheduled = started + interval.mul_f64(range.start as f64);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        scheduled
                    } else {
                        Instant::now()
                    };
                    let resp = if batch > 1 {
                        client.post("/batch", "text/plain", batch_body_of(group).as_bytes())
                    } else {
                        client.get(&target_of(&group[0]))
                    };
                    match resp {
                        Ok(r) if r.status == 200 => {
                            lat.observe(t.elapsed().as_micros().min(u64::MAX as u128) as u64);
                            completed.fetch_add(group.len() as u64, Ordering::Relaxed);
                        }
                        Ok(r) => {
                            eprintln!("[loadgen] HTTP {}: {}", r.status, r.text());
                            failures.fetch_add(group.len() as u64, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("[loadgen] transport error: {e}");
                            failures.fetch_add(group.len() as u64, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    let total = started.elapsed().as_secs_f64();
    let done = completed.load(Ordering::Relaxed);
    let failed = failures.load(Ordering::Relaxed);
    let s = lat.snapshot();
    println!(
        "queries {done} ok, {failed} failed in {total:.3}s — {:.0} q/s; per-request latency \
         p50 {}us p90 {}us p99 {}us max {}us",
        done as f64 / total.max(1e-12),
        s.quantile(0.5),
        s.quantile(0.9),
        s.quantile(0.99),
        s.max,
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::schedule;

    #[test]
    fn open_schedule_interleaves_connections() {
        let due: Vec<Vec<usize>> = (0..3)
            .map(|c| schedule(c, 3, 10, 1).map(|r| r.start).collect())
            .collect();
        assert_eq!(due, vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);

        // Client batches: consecutive runs of `step`, dealt round-robin,
        // every query exactly once, the last run short.
        let runs: Vec<Vec<std::ops::Range<usize>>> =
            (0..2).map(|c| schedule(c, 2, 11, 3).collect()).collect();
        assert_eq!(runs, vec![vec![0..3, 6..9], vec![3..6, 9..11]]);
    }
}
