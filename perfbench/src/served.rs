//! The served probe: the deployed `quasii serve --warm-start` binary,
//! driven by this benchmark's own closed loop of single `GET /query`
//! requests. Every operation is one request.

use crate::common::{
    cpu_seconds, process_cpu_s, quantile, ratio, sorted, vm_hwm_mib, Checker, Metrics, Reference,
    Spans,
};
use minihttp::{Client, ClientResponse};
use quasii::snapshot::fnv1a;
use quasii_common::geom::Aabb;
use quasii_obs::registry::{parse_prometheus, Exposition};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keep-alive connections of the closed loop, one client thread each
/// (no more than the two cores the deployment is sized for).
const CONNECTIONS: usize = 2;

/// A running `quasii serve` process. Dropping it kills the process if it
/// is still running and waits for it.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server on `snapshot` and waits for its first 200 from
    /// `/healthz`. Returns the server, the seconds from spawn to that
    /// answer, and the server's CPU seconds by then.
    fn start(quasii: &Path, snapshot: &Path) -> Result<(Self, f64, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(quasii)
            .arg("serve")
            .arg("--warm-start")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", quasii.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Self {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            if out
                .read_line(&mut line)
                .map_err(|e| format!("server stdout: {e}"))?
                == 0
            {
                return Err("the server exited before it was serving".to_string());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
            }
        }
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        }));
        let mut client = server.client()?;
        let mut tries = 0;
        while client.get("/healthz").map(|r| r.status).ok() != Some(200) {
            tries += 1;
            if tries > 10_000 {
                return Err("/healthz never answered 200".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
            client = server.client()?;
        }
        let ready = t0.elapsed().as_secs_f64();
        let ready_cpu = cpu_seconds(&server.child.id().to_string());
        Ok((server, ready, ready_cpu))
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn get(&self, target: &str) -> Result<ClientResponse, String> {
        let r = self
            .client()?
            .get(target)
            .map_err(|e| format!("GET {target}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {target} answered {}", r.status));
        }
        Ok(r)
    }

    /// Graceful shutdown through `POST /admin/shutdown`.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self
            .client()?
            .post("/admin/shutdown", "text/plain", b"")
            .map_err(|e| format!("shutdown: {e}"))?;
        for _ in 0..3_000 {
            if let Some(status) = self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not stop within 30 s of /admin/shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Requests(usize),
}

/// One request of the closed loop.
struct Rec {
    idx: u32,
    /// HTTP status; 0 for a transport error.
    status: u16,
    hash: u64,
    start: Instant,
    lat_us: f64,
}

#[derive(Default)]
struct Conn {
    recs: Vec<Rec>,
    /// The first 200 body of each query index this connection saw first.
    bodies: Vec<(u32, Vec<u8>)>,
}

/// One connection's closed loop: the next request goes out as soon as the
/// previous answer is in. Bodies are hashed, not parsed, so the client
/// leaves the cores to the server; the first body per query is kept.
fn connection(
    addr: &str,
    targets: &[String],
    next: &AtomicUsize,
    seen: &[AtomicBool],
    until: Until,
) -> Conn {
    let mut conn = Conn::default();
    let mut client = Client::connect(addr).ok();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let done = match until {
            Until::Deadline(d) => Instant::now() >= d,
            Until::Requests(n) => i >= n,
        };
        if done {
            break;
        }
        let i = i % targets.len();
        let start = Instant::now();
        let r = match client.as_mut() {
            Some(c) => c.get(&targets[i]).ok(),
            None => None,
        };
        let lat_us = start.elapsed().as_secs_f64() * 1e6;
        let (status, hash) = match r {
            Some(resp) => {
                let hash = fnv1a(&resp.body);
                if resp.status == 200 && !seen[i].swap(true, Ordering::Relaxed) {
                    conn.bodies.push((i as u32, resp.body));
                }
                (resp.status, hash)
            }
            None => {
                client = Client::connect(addr).ok();
                if client.is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                (0, 0)
            }
        };
        conn.recs.push(Rec {
            idx: i as u32,
            status,
            hash,
            start,
            lat_us,
        });
    }
    conn
}

/// What one timed window did.
struct Window {
    conns: Vec<Conn>,
    wall_s: f64,
    /// CPU seconds of this process (the client) and of the server.
    cpu_s: f64,
    server_cpu_s: f64,
}

impl Window {
    fn recs(&self) -> impl Iterator<Item = &Rec> {
        self.conns.iter().flat_map(|c| c.recs.iter())
    }

    fn ok(&self) -> u64 {
        self.recs().filter(|r| r.status == 200).count() as u64
    }

    fn qps(&self) -> f64 {
        ratio(self.ok() as f64, self.wall_s)
    }

    fn latencies(&self) -> Vec<f64> {
        sorted(self.recs().map(|r| r.lat_us).collect())
    }
}

/// Runs the closed loop until `secs` have passed, or, with `secs = None`,
/// for one pass over the targets.
fn window(server: &Server, targets: &[String], seen: &[AtomicBool], secs: Option<f64>) -> Window {
    let next = AtomicUsize::new(0);
    let cpu0 = process_cpu_s();
    let server_cpu0 = cpu_seconds(&server.child.id().to_string());
    let t0 = Instant::now();
    let until = match secs {
        Some(s) => Until::Deadline(t0 + Duration::from_secs_f64(s)),
        None => Until::Requests(targets.len()),
    };
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| connection(&server.addr, targets, &next, seen, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        conns,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        server_cpu_s: cpu_seconds(&server.child.id().to_string()) - server_cpu0,
    }
}

/// Parses a `{"ids":[…]}` answer body.
fn parse_ids(body: &[u8]) -> Option<Vec<u64>> {
    let text = std::str::from_utf8(body).ok()?;
    let inner = text.strip_prefix("{\"ids\":[")?.strip_suffix("]}")?;
    inner
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect()
}

/// Checks every answer of the windows: each kept body against the
/// reference, and every other 200 body against the kept body of its
/// query by hash.
fn check(windows: &[Window], reference: &Reference, checker: &mut Checker) {
    let n = reference.hashes.len();
    let mut expected: Vec<Option<u64>> = vec![None; n];
    for w in windows {
        for (i, body) in w.conns.iter().flat_map(|c| c.bodies.iter()) {
            let i = *i as usize;
            expected[i] = Some(fnv1a(body));
            match parse_ids(body) {
                Some(ids) => checker.check(reference, i, &ids),
                None => {
                    eprintln!("perfbench: malformed answer body for query {i}");
                    checker.mismatches += 1;
                }
            }
        }
    }
    for r in windows.iter().flat_map(|w| w.recs()) {
        if r.status == 200 {
            checker.checked += 1;
            if expected[r.idx as usize] != Some(r.hash) {
                checker.mismatches += 1;
            }
        }
    }
}

/// `GET /query` target of one query; `{}` prints the shortest string that
/// parses back to the same `f64`.
fn target(q: &Aabb<3>) -> String {
    format!(
        "/query?lo={},{},{}&hi={},{},{}",
        q.lo[0], q.lo[1], q.lo[2], q.hi[0], q.hi[1], q.hi[2]
    )
}

/// Quantile `q` of the observations a histogram received between two
/// scrapes, interpolated inside its (sparse, cumulative) buckets.
fn hist_quantile(a: &Exposition, b: &Exposition, family: &str, label: (&str, &str), q: f64) -> f64 {
    let buckets = |e: &Exposition| -> Vec<(f64, f64)> {
        e.samples
            .iter()
            .filter(|s| {
                s.name == format!("{family}_bucket")
                    && s.labels.iter().any(|(k, v)| k == label.0 && v == label.1)
            })
            .filter_map(|s| {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")?
                    .1
                    .parse::<f64>()
                    .ok()?;
                le.is_finite().then_some((le, s.value))
            })
            .collect()
    };
    let (ba, bb) = (buckets(a), buckets(b));
    // A bucket absent from the sparse exposition holds the cumulative
    // count of the nearest lower bucket.
    let cum = |v: &[(f64, f64)], le: f64| {
        v.iter()
            .filter(|(l, _)| *l <= le)
            .map(|&(_, c)| c)
            .fold(0.0, f64::max)
    };
    let mut les: Vec<f64> = ba.iter().chain(&bb).map(|&(l, _)| l).collect();
    les.sort_by(f64::total_cmp);
    les.dedup();
    let count = |e: &Exposition| e.value(&format!("{family}_count"), &[label]).unwrap_or(0.0);
    let target = q * (count(b) - count(a));
    let (mut prev_le, mut prev_d) = (0.0, 0.0);
    for le in les {
        let d = cum(&bb, le) - cum(&ba, le);
        if d >= target && d > prev_d {
            return prev_le + (le - prev_le) * (target - prev_d) / (d - prev_d);
        }
        (prev_le, prev_d) = (le, d);
    }
    prev_le
}

/// Per-layer readings of the server between two scrapes.
fn server_layers(m: &mut Metrics, a: &Exposition, b: &Exposition) {
    let d = |name: &str| b.value(name, &[]).unwrap_or(0.0) - a.value(name, &[]).unwrap_or(0.0);
    let request = ("endpoint", "query");
    let p50 = hist_quantile(a, b, "quasii_server_request_seconds", request, 0.5);
    m.insert("server.request_p50_us", p50 * 1e6);
    m.insert(
        "server.group_size_mean",
        ratio(
            d("quasii_server_batch_size_sum"),
            d("quasii_server_batch_size_count"),
        ),
    );
    m.insert("server.rejected", d("quasii_server_rejected_total"));
}

/// Seconds of the served probe's timed window.
const PROBE_SECONDS: f64 = 4.0;

/// The served probe of a traced `steady_uniform` run: the deployed binary,
/// `quasii serve --warm-start` on the run's converged snapshot, answers
/// the run's query stream as single `GET /query` requests in a closed loop
/// on two keep-alive connections. Its figures are per-layer only: the
/// server's CPU per request and its wall figures move with the host (see
/// `NOTES.md`), too much to gate.
pub fn probe(
    quasii: &Path,
    snapshot: &Path,
    queries: &[Aabb<3>],
    reference: &Reference,
    checker: &mut Checker,
    m: &mut Metrics,
    spans: &mut Spans,
) -> Result<(), String> {
    if !quasii.is_file() {
        return Err(format!(
            "the served probe needs the quasii binary (--quasii '{}')",
            quasii.display()
        ));
    }
    let targets: Vec<String> = queries.iter().map(target).collect();
    let t = Instant::now();
    let (server, ready, ready_cpu) = Server::start(quasii, snapshot)?;
    spans.add("server.spawn", 0, t, t + Duration::from_secs_f64(ready));
    m.insert("served.setup_s", ready);
    m.insert("served.setup_cpu_s", ready_cpu);
    let seen: Vec<AtomicBool> = (0..queries.len()).map(|_| AtomicBool::new(false)).collect();
    // One untimed pass first: the server's first seconds after a warm
    // start run slower (first touch of the adopted snapshot, admission gap
    // still adapting), which users of a long-running server do not see.
    let first_pass = window(&server, &targets, &seen, None);
    let before = parse_prometheus(&server.get("/metrics")?.text())?;
    let stream_span = spans.open("served", 0);
    let timed = window(&server, &targets, &seen, Some(PROBE_SECONDS));
    spans.close(stream_span);
    let after = parse_prometheus(&server.get("/metrics")?.text())?;
    let rss = vm_hwm_mib(&server.child.id().to_string())?;
    server.shutdown()?;
    for r in timed.recs() {
        let end = r.start + Duration::from_secs_f64(r.lat_us / 1e6);
        spans.add("http.request", stream_span, r.start, end);
    }
    let windows = [first_pass, timed];
    check(&windows, reference, checker);
    let timed = &windows[1];
    let lat = timed.latencies();
    server_layers(m, &before, &after);
    m.insert("served.qps", timed.qps());
    m.insert(
        "served.cpu_us_per_query",
        ratio(timed.server_cpu_s, timed.ok() as f64) * 1e6,
    );
    m.insert("served.rss_mb", rss);
    m.insert("client.p50_us", quantile(&lat, 0.5));
    m.insert("client.p90_us", quantile(&lat, 0.9));
    m.insert(
        "net.client_us",
        quantile(&lat, 0.5) - m["server.request_p50_us"],
    );
    m.insert("client.cpu_frac", ratio(timed.cpu_s, timed.wall_s));
    let attempted: usize = windows.iter().map(|w| w.recs().count()).sum();
    let ok: u64 = windows.iter().map(|w| w.ok()).sum();
    m.insert("served.answered_frac", ratio(ok as f64, attempted as f64));
    eprintln!(
        "  served probe: {attempted} requests, {ok} answered 200; {:.0} q/s; client p50 {:.1} us \
         = server p50 {:.1} us + network and client {:.1} us; in-process single call {:.1} us",
        m["served.qps"],
        m["client.p50_us"],
        m["server.request_p50_us"],
        m["net.client_us"],
        m.get("shard.single_call_us").copied().unwrap_or(0.0),
    );
    Ok(())
}
