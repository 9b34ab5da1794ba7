//! Booting `remi-serve` in-process, the closed loop, and the output
//! checks that run outside the timed window.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use remi_kb::{CompactionPolicy, KnowledgeBase, LiveKb};
use remi_serve::{describe_body, query_body, serve, summarize_body, ServeConfig, ServerHandle};

use crate::check::{self, Digests, Tally};
use crate::client::{Client, Response};
use crate::gen::{Plan, QuerySpec, Request, Workload, INVERSE_FRACTION, QUERY_LIMIT, SUMMARIZE_K};

/// Keep-alive client connections of the closed loop (one per CPU of the
/// 2-CPU reference host).
pub const CLIENTS: usize = 2;

/// `ingest_mixed` compaction trigger: low enough that several background
/// folds run in every run.
pub const MIXED_COMPACT_MIN_DELTA: usize = 400;

/// Library bodies by cache key, with whether each matched its committed
/// digest.
pub type Expected = HashMap<String, (String, bool)>;

/// Runs `f` over `items` on `threads` scoped threads (dynamic work
/// distribution: mining times are heavy-tailed), results in input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    // lint:allow(raw-thread-primitive): the load generator stays off the pool it measures, so the server's workers (and their allocator arenas) are first used by the server
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// What the library renders for a (non-ingest) request: exactly the body
/// the server answers on a cache miss. Rendering errors become an error
/// body, which no 200 answer can equal.
pub fn library_body(kb: &KnowledgeBase, req: &Request, queries: &[QuerySpec]) -> String {
    let rendered = match req {
        Request::Describe(e) => describe_body(kb, e, 1, 1),
        Request::Summarize(e) => summarize_body(kb, e, SUMMARIZE_K, "faces", None),
        Request::Query(q) => query_body(kb, &queries[*q].patterns, QUERY_LIMIT, None),
        Request::Ingest(_) => return String::new(),
    };
    rendered.unwrap_or_else(|e| remi_serve::error_body(&e.message))
}

/// Library bodies for `reqs`, keyed by cache key, with digest verdicts.
pub fn expected_bodies(
    kb: &KnowledgeBase,
    reqs: &[Request],
    queries: &[QuerySpec],
    digests: &Digests,
) -> Expected {
    let bodies = par_map(reqs, CLIENTS, |r| library_body(kb, r, queries));
    reqs.iter()
        .zip(bodies)
        .filter_map(|(r, body)| {
            let key = r.cache_key(queries)?;
            let ok = digests.matches(&key, &body);
            Some((key, (body, ok)))
        })
        .collect()
}

/// A booted server with its connected clients.
pub struct Server {
    /// Held for its `Drop`, which shuts the server down.
    _server: ServerHandle,
    /// The closed loop's connections.
    pub clients: Vec<Client>,
    /// KB file load → `serve()` → warm-up, in seconds.
    pub setup_s: f64,
    /// The `load_path` part of it, in milliseconds.
    pub load_ms: f64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One set-up: loads the KB file, boots the server, connects the
/// clients, and warms up (see [`Plan::warmup`]). Warm-up answers are
/// checked into `tally`.
pub fn boot(
    path: &Path,
    plan: &Plan,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<Server, String> {
    let t0 = Instant::now();
    let kb = remi_kb::load_path(path, INVERSE_FRACTION)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        threads: 1,
        compact_min_delta: match plan.workload {
            Workload::IngestMixed => MIXED_COMPACT_MIN_DELTA,
            _ => defaults.compact_min_delta,
        },
        ..defaults
    };
    let handle = serve(kb, config).map_err(io_err("serve"))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(handle.addr()))
        .collect::<std::io::Result<Vec<Client>>>()
        .map_err(io_err("connect"))?;
    let warm = plan.warmup();
    for t in on_clients(&mut clients, |c, client| {
        let mut t = Tally::default();
        t.record(client.get("/v1/healthz").is_ok_and(|r| r.status == 200));
        for req in warm.iter().skip(c).step_by(CLIENTS) {
            let ok = match client.send(&req.wire_bytes(&plan.queries)) {
                Ok(resp) => check_known(&resp, req, &plan.queries, expected),
                Err(_) => false,
            };
            t.record(ok);
        }
        t
    }) {
        tally.merge(t);
    }
    Ok(Server {
        _server: handle,
        clients,
        setup_s: t0.elapsed().as_secs_f64(),
        load_ms,
    })
}

/// Runs `f(index, client)` on one scoped thread per client; results in
/// client order.
fn on_clients<R: Send>(
    clients: &mut [Client],
    f: impl Fn(usize, &mut Client) -> R + Sync,
) -> Vec<R> {
    // lint:allow(raw-thread-primitive): blocking clients must not run on the pool under test — they would hold the workers the server's connection tasks need
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || f(c, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Checks a response against the precomputed library body of its key.
fn check_known(resp: &Response, req: &Request, queries: &[QuerySpec], expected: &Expected) -> bool {
    match req.cache_key(queries).and_then(|k| expected.get(&k)) {
        Some((library, digest_ok)) => check::exact(resp.status, &resp.body, library, *digest_ok),
        None => false,
    }
}

/// One timed request, packed into 8 bytes (the load generator's own
/// memory is part of the process's peak RSS, so it is kept small and
/// subtracted): stream index in the high 28 bits, round trip in
/// nanoseconds in the low 36 (up to 68 s; the client times out at 60 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Sample(u64);

impl Sample {
    const NANOS_BITS: u32 = 36;

    fn new(idx: u64, nanos: u64) -> Sample {
        Sample(idx << Self::NANOS_BITS | nanos.min((1 << Self::NANOS_BITS) - 1))
    }

    /// Index in the request stream.
    pub fn idx(self) -> u64 {
        self.0 >> Self::NANOS_BITS
    }

    /// Round trip in nanoseconds.
    pub fn nanos(self) -> u64 {
        self.0 & ((1 << Self::NANOS_BITS) - 1)
    }
}

/// An acknowledged ingest.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Index in the request stream.
    pub idx: u64,
    /// The epoch the server published the batch at.
    pub epoch: u64,
    /// The `appended` count it answered.
    pub appended: u64,
}

/// Everything the timed window produced.
#[derive(Default)]
pub struct Timed {
    /// Every request sent, sorted by stream index.
    pub samples: Vec<Sample>,
    /// First send to last completion, in seconds.
    pub window_s: f64,
    /// Peak RSS of the process up to the end of the window, less the
    /// samples' own bytes, in MiB.
    pub peak_rss_mb: f64,
    /// Checks made inside the loop.
    pub tally: Tally,
    /// `mine_cold`: `(index, status, body digest)` for the post-run check.
    pub bodies: Vec<(u64, u16, u64)>,
    /// `ingest_mixed`: acknowledged ingests.
    pub acks: Vec<Ack>,
}

/// The closed loop: every client sends its next request as soon as its
/// previous answer arrived, until `seconds` have passed (the requests in
/// flight then complete) or the stream is exhausted.
///
/// Workloads of microsecond requests run in segments of [`SEGMENT_S`]:
/// between segments every client thread is joined and every connection
/// replaced, so a run averages over several placements of client and
/// server threads on the CPUs instead of inheriting one at random.
pub fn drive(server: &mut Server, plan: &Plan, seconds: f64, expected: &Expected) -> Timed {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let segment = match plan.workload {
        Workload::MineCold => Duration::from_secs_f64(seconds),
        _ => Duration::from_secs_f64(SEGMENT_S),
    };
    let last_end = AtomicU64::new(0);
    let mut parts: Vec<Timed> = server
        .clients
        .iter()
        .map(|_| Timed {
            samples: Vec::with_capacity(SAMPLE_RESERVE),
            ..Timed::default()
        })
        .collect();
    // Client `c` sends stream indices c, c + CLIENTS, c + 2·CLIENTS, …: each
    // connection works through its own fixed sequence, so which requests
    // run side by side does not depend on timing.
    let clients = server.clients.len() as u64;
    let mut next: Vec<u64> = (0..clients).collect();
    loop {
        let until = deadline.min(Instant::now() + segment);
        // lint:allow(raw-thread-primitive): blocking clients must not run on the pool under test — they would hold the workers the server's connection tasks need
        std::thread::scope(|s| {
            let lanes = server
                .clients
                .iter_mut()
                .zip(parts.iter_mut())
                .zip(next.iter_mut());
            for ((client, out), idx) in lanes {
                let last_end = &last_end;
                s.spawn(move || {
                    while Instant::now() < until && *idx < plan.limit() {
                        let idx = std::mem::replace(idx, *idx + clients);
                        let req = plan.request(idx);
                        let wire = req.wire_bytes(&plan.queries);
                        let start = Instant::now();
                        let answer = client.send(&wire);
                        let end = Instant::now();
                        out.samples
                            .push(Sample::new(idx, (end - start).as_nanos() as u64));
                        last_end.fetch_max((end - t0).as_nanos() as u64, Ordering::Relaxed);
                        match answer {
                            Ok(resp) => record(plan, expected, idx, &req, resp, out),
                            Err(_) => {
                                out.tally.record(false);
                                if client.reconnect().is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        if Instant::now() >= deadline || next.iter().all(|&i| i >= plan.limit()) {
            break;
        }
        for (client, out) in server.clients.iter_mut().zip(parts.iter_mut()) {
            if client.reconnect().is_err() {
                out.tally.record(false);
            }
        }
    }
    let sample_bytes: usize = parts.iter().map(|p| p.samples.len() * 8).sum();
    let mut timed = Timed {
        window_s: last_end.load(Ordering::Relaxed) as f64 / 1e9,
        peak_rss_mb: peak_rss_mb() - sample_bytes as f64 / MIB,
        ..Timed::default()
    };
    for part in parts {
        timed.samples.extend(part.samples);
        timed.tally.merge(part.tally);
        timed.bodies.extend(part.bodies);
        timed.acks.extend(part.acks);
    }
    timed.samples.sort_unstable();
    timed
}

/// Checks one answer inside the loop, or keeps what the post-run check
/// needs.
fn record(
    plan: &Plan,
    expected: &Expected,
    idx: u64,
    req: &Request,
    resp: Response,
    out: &mut Timed,
) {
    match (plan.workload, req) {
        (Workload::MineCold, _) => out
            .bodies
            .push((idx, resp.status, check::digest64(&resp.body))),
        (Workload::ReadHot, _) => {
            out.tally
                .record(check_known(&resp, req, &plan.queries, expected))
        }
        (Workload::IngestMixed, Request::Describe(e)) => {
            let prefix = format!(
                "{{\"entity\":{},\"k\":1,\"status\":\"",
                remi_serve::json::escape(e)
            );
            out.tally
                .record(check::shaped(resp.status, &resp.body, &prefix));
        }
        (Workload::IngestMixed, Request::Ingest(_)) => {
            let appended = check::json_u64(&resp.body, "appended");
            let epoch = check::json_u64(&resp.body, "epoch");
            let ok = resp.status == 200 && appended.is_some_and(|a| a > 0);
            out.tally.record(ok);
            if let (true, Some(appended), Some(epoch)) = (ok, appended, epoch) {
                out.acks.push(Ack {
                    idx,
                    epoch,
                    appended,
                });
            }
        }
        (Workload::IngestMixed, _) => {
            out.tally
                .record(check::shaped(resp.status, &resp.body, "{\"vars\":["))
        }
    }
}

/// `mine_cold` post-run check: every answer equals the library body of
/// its entity (by 64-bit digest: answers are not kept whole) and that
/// body's committed digest.
pub fn check_bodies(
    timed: &Timed,
    plan: &Plan,
    library: &HashMap<u64, String>,
    digests: &Digests,
) -> Tally {
    let mut tally = Tally::default();
    for (idx, status, body) in &timed.bodies {
        let req = plan.request(*idx);
        let ok = match (library.get(idx), req.cache_key(&plan.queries)) {
            (Some(lib), Some(key)) => {
                *status == 200 && check::digest64(lib) == *body && digests.matches(&key, lib)
            }
            _ => false,
        };
        tally.record(ok);
    }
    tally
}

/// Library describe bodies for every `mine_cold` answer, keyed by stream
/// index (computed after the run, on a freshly loaded KB).
pub fn library_for_bodies(
    timed: &Timed,
    plan: &Plan,
    path: &Path,
) -> Result<HashMap<u64, String>, String> {
    let kb = remi_kb::load_path(path, INVERSE_FRACTION)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    let idxs: Vec<u64> = timed.bodies.iter().map(|(i, _, _)| *i).collect();
    let bodies = par_map(&idxs, CLIENTS, |&i| {
        library_body(&kb, &plan.request(i), &plan.queries)
    });
    Ok(idxs.into_iter().zip(bodies).collect())
}

/// `ingest_mixed` post-run check. A replica fed the acknowledged batches
/// in epoch order must report the same `appended` count for each, and the
/// server's answer for every hot key must equal the library's answer on
/// the replica.
pub fn check_live(
    server: &mut Server,
    plan: &Plan,
    timed: &Timed,
    path: &Path,
) -> Result<Tally, String> {
    let kb = remi_kb::load_path(path, INVERSE_FRACTION)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    let replica = LiveKb::with_policy(kb, CompactionPolicy::default());
    let mut acks = timed.acks.clone();
    acks.sort_by_key(|a| a.epoch);
    let mut tally = Tally::default();
    for ack in &acks {
        let Request::Ingest(batch) = plan.request(ack.idx) else {
            tally.record(false);
            continue;
        };
        let ok = replica
            .append_ntriples(&batch)
            .is_ok_and(|out| out.appended as u64 == ack.appended);
        tally.record(ok);
    }
    let snap = replica.snapshot();
    let keys = plan.hot_keys();
    for t in on_clients(&mut server.clients, |c, client| {
        let mut t = Tally::default();
        for req in keys.iter().skip(c).step_by(CLIENTS) {
            let library = library_body(&snap.kb, req, &plan.queries);
            let ok = client
                .send(&req.wire_bytes(&plan.queries))
                .is_ok_and(|r| check::exact(r.status, &r.body, &library, true));
            t.record(ok);
        }
        t
    }) {
        tally.merge(t);
    }
    Ok(tally)
}

/// Cache and compaction counters from `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Response-cache hits.
    pub hits: u64,
    /// Response-cache misses.
    pub misses: u64,
    /// Entries purged by fingerprint rotation.
    pub purged: u64,
}

/// Reads the server's cache counters.
pub fn server_stats(client: &mut Client) -> Result<ServerStats, String> {
    let resp = client.get("/v1/stats").map_err(io_err("/v1/stats"))?;
    let doc =
        remi_serve::json::parse(resp.body.as_bytes()).map_err(|e| format!("/v1/stats: {e}"))?;
    let field = |name: &str| {
        doc.get("cache")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_usize())
            .map(|v| v as u64)
            .ok_or_else(|| format!("/v1/stats: no cache.{name}"))
    };
    Ok(ServerStats {
        hits: field("hits")?,
        misses: field("misses")?,
        purged: field("purged")?,
    })
}

/// The shared pool's scheduling counters `[steals, parks, revives,
/// help_drains]`.
pub fn pool_counters() -> [u64; 4] {
    let m = remi_pool::global().metrics();
    [
        m.steals.get(),
        m.parks.get(),
        m.revives.get(),
        m.help_drains.get(),
    ]
}

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// `clear_refs` 5). Without it the peak covers the whole process life.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

const MIB: f64 = 1024.0 * 1024.0;

/// Segment length of the microsecond-request workloads (see [`drive`]).
const SEGMENT_S: f64 = 1.0;

/// Samples reserved per client (address space only: untouched capacity
/// is not resident).
const SAMPLE_RESERVE: usize = 1 << 23;

/// Host CPU time so far as `(stolen, total)` clock ticks, from the first
/// line of `/proc/stat`. Stolen time is time a virtual CPU was ready but
/// the hypervisor ran something else. On a shared host it is one cause of
/// run-to-run drift, so runs report it next to their metrics.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already part of user time.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Peak resident memory since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// Host facts stamped on every result.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "nproc={nproc} rustc=\"{}\" git={}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    )
}
