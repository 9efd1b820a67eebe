//! The served mix: an in-process `qp-serve` server with one worker and a
//! fresh state directory, driven by closed-loop clients over a seeded
//! request stream. Every served result is checked against a direct
//! `qp_serve::run_job` of the same request, bit for bit.

use crate::inputs::{translated, RequestSpec, RequestStream, SERVE_TEMPLATES};
use crate::stats::median;
use crate::trace::Tracer;
use qp_bench::workloads::{bench_dfpt_options, bench_scf_options};
use qp_serve::json::Json;
use qp_serve::{Client, EngineOutcome, JobRequest, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where run-local state (server state dirs, span files) lives, relative to
/// the working directory.
pub const STATE_ROOT: &str = ".bench_state";

/// A fresh, unique server state directory under [`STATE_ROOT`].
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(STATE_ROOT).join(format!("serve-{}-{n}", std::process::id()))
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The request for `spec`: the template geometry moved by the spec's
/// translation, sent as XYZ, at the bench-grade settings of
/// `qp_bench::workloads` (coarse grid at 8 × 6, smeared Pulay SCF).
pub fn request_json(spec: &RequestSpec, tenant: &str, threads: usize) -> Json {
    let name = SERVE_TEMPLATES[spec.template];
    let base = match name.split_once(':') {
        Some((_, n)) => qp_chem::structures::polyethylene(n.parse().expect("chain length")),
        None => qp_chem::structures::water(),
    };
    let xyz = qp_chem::io::write_xyz(&translated(&base, spec.translation), name);
    let scf = bench_scf_options();
    let dfpt = bench_dfpt_options();
    obj(vec![
        ("tenant", Json::Str(tenant.to_string())),
        ("molecule", obj(vec![("xyz", Json::Str(xyz))])),
        (
            "grid",
            obj(vec![
                ("preset", Json::Str("coarse".to_string())),
                ("n_radial", num(8.0)),
                ("max_angular", num(6.0)),
                ("min_angular", num(6.0)),
            ]),
        ),
        (
            "scf",
            obj(vec![
                ("max_iter", num(scf.max_iter as f64)),
                ("tol", num(scf.tol)),
                ("mixing", num(scf.mixing)),
                ("smearing", num(scf.smearing.expect("bench SCF is smeared"))),
                (
                    "pulay",
                    num(scf.pulay.expect("bench SCF uses Pulay") as f64),
                ),
            ]),
        ),
        (
            "dfpt",
            obj(vec![
                ("max_iter", num(dfpt.max_iter as f64)),
                ("tol", num(dfpt.tol)),
                ("mixing", num(dfpt.mixing)),
            ]),
        ),
        ("threads", num(threads as f64)),
    ])
}

/// The tenant every client submits as. With one tenant the fair-share
/// scheduler never preempts: with one tenant per client, preemption made
/// cold latency depend on arrival timing (its spread across seeds was
/// about 30 % of the median, wider than any bound the benchmark can set).
pub const TENANT: &str = "mixed";

/// Threads each served job may use: one core stays free for the connection
/// handlers, so busy threads stay within `nproc`.
pub fn job_threads() -> usize {
    crate::host::nproc().saturating_sub(1).max(1)
}

/// The canonical result bytes of a direct `run_job` of `request`.
pub fn direct_result(request: &Json) -> Result<String, String> {
    let req = JobRequest::from_json(request).map_err(|e| e.to_string())?;
    match qp_serve::run_job(&req, None, None, &AtomicBool::new(false), &mut |_| {}) {
        Ok(EngineOutcome::Done(r)) => Ok(r.to_json().to_string()),
        Ok(EngineOutcome::Preempted(_)) => Err("direct job preempted".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn start(state_dir: &Path) -> Result<qp_serve::ServerHandle, String> {
    qp_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: Some(state_dir.to_path_buf()),
        workers: 1,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Copies of each template's job in a restart's state.
pub const RESTART_COPIES: u64 = 40;

/// Jobs a restart recovers: [`RESTART_COPIES`] of one finished job per
/// template. The count and the template mix are fixed, so neither the seed
/// nor how fast the session served its jobs changes the restart's work.
pub const RESTART_JOBS: u64 = SERVE_TEMPLATES.len() as u64 * RESTART_COPIES;

/// A fresh state dir holding [`RESTART_JOBS`] jobs: for each template, the
/// state files of client 0's first cold job of it in the session's state
/// dir `from`, copied [`RESTART_COPIES`] times under new ids.
fn restart_dir(from: &Path, served: &[Served], pool: &[RequestSpec]) -> Result<PathBuf, String> {
    let sources = (0..SERVE_TEMPLATES.len())
        .map(|t| {
            served
                .iter()
                .find(|s| s.client == 0 && !s.cached && pool[s.idx].template == t)
                .and_then(|s| s.job)
                .ok_or_else(|| format!("client 0 finished no {} job", SERVE_TEMPLATES[t]))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let to = fresh_dir();
    std::fs::create_dir_all(&to).map_err(|e| format!("{}: {e}", to.display()))?;
    let mut new_id = 0;
    let mut copy = |id: u64| -> Result<(), String> {
        new_id += 1;
        for ext in ["meta.json", "qpck"] {
            let src = from.join(format!("job_{id}.{ext}"));
            if ext == "meta.json" || src.exists() {
                std::fs::copy(&src, to.join(format!("job_{new_id}.{ext}")))
                    .map_err(|e| format!("{}: {e}", src.display()))?;
            }
        }
        Ok(())
    };
    let copied = (0..RESTART_COPIES).try_for_each(|_| sources.iter().try_for_each(|&id| copy(id)));
    if copied.is_err() {
        let _ = std::fs::remove_dir_all(&to);
    }
    copied.map(|()| to)
}

/// Server start on `state_dir` until it accepts a connection, s. The start
/// recovers every job persisted in the directory first.
fn start_latency(state_dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let handle = start(state_dir)?;
    let client = Client::connect(&handle.addr().to_string()).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    drop(client);
    handle.shutdown();
    handle.join();
    Ok(secs)
}

/// One served request as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Client that sent it.
    pub client: usize,
    /// Index into that client's request pool.
    pub idx: usize,
    /// Submit → result, s.
    pub latency: f64,
    /// Served from the result cache.
    pub cached: bool,
    /// Server job id, or `None` if the request failed.
    pub job: Option<u64>,
    /// Canonical result bytes, or `None` if the request failed.
    pub result: Option<String>,
}

/// Everything a served session produced.
pub struct Session {
    /// Requests in completion order per client.
    pub served: Vec<Served>,
    /// Distinct requests per client.
    pub pools: Vec<Vec<RequestSpec>>,
    /// First request sent → last result received, s.
    pub wall_s: f64,
    /// Server cache hits (`stats`).
    pub hits: f64,
    /// Server cache misses (`stats`).
    pub misses: f64,
    /// Server preemptions (`stats`).
    pub preemptions: f64,
    /// State-dir bytes after shutdown.
    pub state_bytes: u64,
    /// Requests whose served result differs from a direct run.
    pub failed: usize,
    /// Peak resident set when the clients finished, MiB.
    pub peak_window: f64,
    /// Restarts on [`RESTART_JOBS`] jobs made from the session's (see
    /// [`restart_dir`]), each until it accepts a connection, s.
    pub restarts: Vec<f64>,
}

impl Session {
    /// Latencies of every request.
    pub fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|s| s.latency).collect()
    }

    /// Latencies of cache hits (`true`) or misses (`false`).
    pub fn latencies_where(&self, cached: bool) -> Vec<f64> {
        self.served
            .iter()
            .filter(|s| s.cached == cached)
            .map(|s| s.latency)
            .collect()
    }

    /// Cache hit rate from the server's own counters.
    pub fn hit_rate(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }
}

/// How each client decides when to stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Closed loop until the deadline passes.
    After(Duration),
    /// One new request, then this many repeats of it.
    Repeats(usize),
}

/// One client's distinct requests and what it was served.
type ClientRun = Result<(Vec<RequestSpec>, Vec<Served>), String>;

/// Run one session: start a server on a fresh state dir, drive `clients`
/// closed-loop clients over their seeded streams, read `stats`, shut down,
/// restart the server `restarts` times on [`RESTART_JOBS`] jobs made from
/// the session's, then check every result against a direct run of its
/// request.
pub fn session(
    seed: u64,
    clients: usize,
    stop: Stop,
    restarts: usize,
    tracer: &Tracer,
) -> Result<Session, String> {
    let dir = fresh_dir();
    let handle = start(&dir)?;
    let addr = handle.addr().to_string();
    let threads = job_threads();
    let t0 = Instant::now();
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
                    let mut stream = RequestStream::new(seed, c as u64);
                    let mut served = Vec::new();
                    loop {
                        let (idx, _) = match stop {
                            Stop::After(d) if t0.elapsed() >= d => break,
                            Stop::Repeats(n) if served.len() > n => break,
                            Stop::Repeats(_) if !served.is_empty() => (0, false),
                            _ => stream.next_request(),
                        };
                        let request = request_json(&stream.pool[idx], TENANT, threads);
                        let id = ((c as u64) << 32) | served.len() as u64;
                        let t = Instant::now();
                        let out = tracer.span("serve.request", id, || {
                            client.submit(request, true, false, |_| {})
                        });
                        let latency = t.elapsed().as_secs_f64();
                        let (cached, job, result) = match &out {
                            Ok(o) => (
                                o.cached,
                                Some(o.job),
                                o.result.as_ref().map(|r| r.to_json().to_string()),
                            ),
                            Err(_) => (false, None, None),
                        };
                        served.push(Served {
                            client: c,
                            idx,
                            latency,
                            cached,
                            job,
                            result,
                        });
                        // A broken connection fails every later request
                        // too: count this one and stop the client.
                        if out.is_err() {
                            break;
                        }
                    }
                    Ok((stream.pool, served))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_window = crate::host::peak_rss_mib();
    let stats = Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))?;
    handle.shutdown();
    handle.join();
    let state_bytes = dir_bytes(&dir);
    let mut pools = Vec::new();
    let mut served = Vec::new();
    let clients_ok = per_client.into_iter().try_for_each(|r| {
        let (pool, s) = r?;
        pools.push(pool);
        served.extend(s);
        Ok::<(), String>(())
    });
    let restarts = clients_ok.and_then(|()| {
        if restarts == 0 {
            return Ok(Vec::new());
        }
        let rdir = restart_dir(&dir, &served, &pools[0])?;
        let times = (0..restarts).map(|_| start_latency(&rdir)).collect();
        let _ = std::fs::remove_dir_all(&rdir);
        times
    });
    let _ = std::fs::remove_dir_all(&dir);
    let restarts = restarts?;

    let read = |path: &[&str]| {
        let mut v = &stats;
        for k in path {
            v = v.get(k).unwrap_or(&Json::Null);
        }
        v.as_f64().unwrap_or(0.0)
    };
    // Each distinct request: its first served bytes must equal a direct
    // run, and every later serving of it must equal the first.
    let mut failed = 0;
    for (c, pool) in pools.iter().enumerate() {
        for (idx, spec) in pool.iter().enumerate() {
            let mine: Vec<&Served> = served
                .iter()
                .filter(|s| s.client == c && s.idx == idx)
                .collect();
            let direct = direct_result(&request_json(spec, TENANT, threads)).ok();
            let cold = mine.first().and_then(|s| s.result.clone());
            let cold_ok = cold.is_some() && cold == direct;
            failed += mine.iter().filter(|s| !cold_ok || s.result != cold).count();
        }
    }
    Ok(Session {
        served,
        pools,
        wall_s,
        hits: read(&["cache", "hits"]),
        misses: read(&["cache", "misses"]),
        preemptions: read(&["preemptions"]),
        state_bytes,
        failed,
        peak_window,
        restarts,
    })
}

/// Per-layer serve numbers of a session.
pub fn layer_metrics(s: &Session) -> [(&'static str, f64, &'static str); 5] {
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    [
        ("serve.hit_s", med(s.latencies_where(true)), "s"),
        ("serve.miss_s", med(s.latencies_where(false)), "s"),
        ("serve.preemptions", s.preemptions, "count"),
        ("serve.state_bytes", s.state_bytes as f64, "B"),
        ("serve.cache_hit_rate", s.hit_rate(), "ratio"),
    ]
}
