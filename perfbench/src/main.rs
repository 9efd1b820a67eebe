//! Geometry-to-α benchmark.
//!
//! `qp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload cold for about `--seconds`, checks every operation's
//! output, and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` a separate traced run reports the
//! per-layer ones. See `README.md` in this directory.

mod alpha;
mod host;
mod inputs;
mod reference;
mod serve;
mod stats;
mod trace;

use alpha::{Driver, Job, Molecule};
use reference::HostSpeed;
use stats::{median, tail, Tail};
use std::time::Duration;
use trace::Tracer;

/// The workloads, in the order the README describes them.
const WORKLOADS: [&str; 4] = [
    "polymer98_alpha",
    "ligand49_alpha",
    "ligand49_ranks2",
    "serve_mixed",
];

/// Set-up samples a run takes at least (their median is `setup_s`).
const MIN_SETUPS: usize = 9;

/// Server restarts per serve run, each recovering `serve::RESTART_JOBS`
/// jobs made from its session's (their median is `setup_s`).
const SERVE_SETUPS: usize = 15;

/// Closed-loop clients of the served mix.
const SERVE_CLIENTS: usize = 2;

/// Probed layers and the phase span the serial DFPT driver records around
/// the same call in each iteration.
const DFPT_PHASE_SPANS: [(&str, &str); 4] = [
    ("sumup", "sumup.n1"),
    ("rho", "rho.v1"),
    ("h", "h1.integrate"),
    ("sternheimer", "sternheimer"),
];

/// Cache hits the serve probe of an α workload's traced run issues.
const PROBE_HITS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: qp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = get("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds > 0.0 && seconds <= 3600.0) {
        usage();
    }
    Args {
        workload,
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds,
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    }
}

/// What a run prints: metrics, operation counts and context lines.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<24} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; a non-finite value is a bug here.
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("qp-perfbench: {msg}");
    std::process::exit(1)
}

/// Abort without a result: the context gathered so far goes to stderr.
fn fail_with(r: &Report, msg: &str) -> ! {
    for n in &r.notes {
        eprintln!("{n}");
    }
    fail(msg)
}

/// Check one job's α: the serial driver against the pinned reference; each
/// SPMD direction against the serial α of the same ground state. Returns
/// (operations, failed).
fn check_job(job: &Job, molecule: Molecule, driver: Driver, r: &mut Report) -> (usize, usize) {
    match driver {
        Driver::Serial => {
            let ok = alpha::alpha_matches(
                job.alpha_diag(),
                molecule.alpha_reference(),
                alpha::ALPHA_REL_TOL,
            );
            if !ok {
                r.notes.push(format!(
                    "{{\"alpha_mismatch\": {{\"got\": {:?}, \"reference\": {:?}}}}}",
                    job.alpha_diag(),
                    molecule.alpha_reference()
                ));
            }
            (1, usize::from(!ok))
        }
        Driver::Spmd => {
            let serial = match alpha::serial_alpha(job) {
                Ok(a) => a,
                Err(e) => {
                    r.notes.push(format!("{{\"error\": \"{e}\"}}"));
                    return (3, 3);
                }
            };
            let serial_diag = [0, 1, 2].map(|d| serial[d][d]);
            if !alpha::alpha_matches(
                serial_diag,
                molecule.alpha_reference(),
                alpha::ALPHA_REL_TOL,
            ) {
                r.notes.push(format!(
                    "{{\"serial_alpha_mismatch\": {{\"got\": {serial_diag:?}, \"reference\": {:?}}}}}",
                    molecule.alpha_reference()
                ));
                return (3, 3);
            }
            let bad = (0..3)
                .filter(|&d| !alpha::column_matches(&job.alpha, &serial, d))
                .count();
            if bad > 0 {
                r.notes.push(format!(
                    "{{\"spmd_alpha_mismatch\": {{\"spmd_diag\": {:?}, \"serial_diag\": {serial_diag:?}, \"failed_directions\": {bad}}}}}",
                    job.alpha_diag()
                ));
            }
            (3, bad)
        }
    }
}

fn ops_per_job(driver: Driver) -> usize {
    match driver {
        Driver::Serial => 1,
        Driver::Spmd => 3,
    }
}

/// Run and check one job; a job that errors counts all its operations as
/// failed.
fn checked_job(
    molecule: Molecule,
    driver: Driver,
    t: [f64; 3],
    tracer: &Tracer,
    id: u64,
    stage_peaks: bool,
    r: &mut Report,
) -> Option<Job> {
    match alpha::run_job(molecule, driver, t, tracer, id, stage_peaks) {
        Ok(job) => {
            let (n, bad) = check_job(&job, molecule, driver, r);
            r.ops(n, bad);
            Some(job)
        }
        Err(e) => {
            r.notes.push(format!("{{\"error\": \"job {id}: {e}\"}}"));
            let n = ops_per_job(driver);
            r.ops(n, n);
            None
        }
    }
}

/// Served-request latency of a session, wall time: the median, the tail
/// and the completion rate in 1/s.
fn serve_latency(s: &serve::Session) -> (f64, Tail, f64) {
    let latencies = s.latencies();
    (
        median(&latencies),
        tail(&latencies),
        s.served.len() as f64 / s.wall_s,
    )
}

/// [`serve_latency`] as metrics, with the tail's percentile and sample count
/// on a context line.
fn latency_metrics(r: &mut Report, s: &serve::Session) {
    let (p50, t, per_s) = serve_latency(s);
    r.notes.push(format!(
        "{{\"serve_tail\": {{\"percentile\": {:.2}, \"beyond\": {}, \"samples\": {}}}}}",
        t.percentile, t.beyond, t.count
    ));
    r.metric("serve_p50_s", p50, "s");
    r.metric("serve_tail_s", t.value, "s");
    r.metric("serve_req_per_s", per_s, "1/s");
}

/// Wall time of one job on the 2-core reference host the benchmark was
/// tuned on. A run is `--seconds` over this many jobs, a count fixed per
/// workload, so every run takes the same samples however fast the host is
/// at the moment (the first job of a process is the slowest).
fn nominal_job_s(molecule: Molecule, driver: Driver) -> f64 {
    match (molecule, driver) {
        (Molecule::Polymer98, _) => 11.0,
        (Molecule::Ligand49, Driver::Serial) => 3.2,
        (Molecule::Ligand49, Driver::Spmd) => 5.0,
        (Molecule::Polymer26, _) => 0.5,
    }
}

/// Untraced α run: a fixed number of cold jobs, then extra set-ups until
/// there are [`MIN_SETUPS`] samples. The host's speed is read before the
/// first job, after every job and after the extra set-ups; the bounded
/// times are in reference-host seconds, and the measured ones go to a
/// context line.
fn alpha_run(molecule: Molecule, driver: Driver, seed: u64, seconds: f64, r: &mut Report) {
    let off = Tracer::new(false);
    let jobs = (seconds / nominal_job_s(molecule, driver)).round().max(1.0) as u64;
    let mut speed = HostSpeed::new();
    let (mut totals, mut setups) = (Vec::new(), Vec::new());
    speed.read();
    for k in 0..jobs {
        let t = inputs::job_translation(seed, k);
        if let Some(job) = checked_job(molecule, driver, t, &off, k, false, r) {
            totals.push(job.total_s);
            setups.push(job.setup.total());
        }
        speed.read();
    }
    if totals.is_empty() {
        fail_with(r, "no job completed");
    }
    for k in 0..MIN_SETUPS.saturating_sub(setups.len()) {
        let t = inputs::job_translation(seed, 1_000 + k as u64);
        let (system, times) = alpha::setup(inputs::translated(&molecule.structure(), t), &off, 0);
        drop(system);
        setups.push(times.total());
    }
    speed.read();
    let (alpha_s, setup_s) = (median(&totals), median(&setups));
    r.notes.push(format!(
        "{{\"jobs\": {}, \"setups\": {}, \"wall\": {{\"alpha_s\": {alpha_s:?}, \"setup_s\": {setup_s:?}}}}}",
        totals.len(),
        setups.len(),
    ));
    r.notes.push(speed.describe());
    r.metric("alpha_ref_s", speed.to_reference(alpha_s), "s");
    r.metric("setup_s", speed.to_reference(setup_s), "s");
    r.metric("peak_rss_mb", speed.peak_rss_mib(), "MiB");
}

/// Sum of one qp-linalg roofline counter over every phase label.
fn gemm_counter(name: &str) -> u64 {
    qp_trace::global_metrics()
        .snapshot()
        .iter()
        .filter(|s| s.key.name == name)
        .map(|s| match s.value {
            qp_trace::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Traced α section: a first job (checked only), a traced job with stage
/// peaks, qp-par telemetry and GEMM counters, layer probes on its converged
/// state, one SPMD direction (serial driver), an untraced job (the tracing
/// baseline) and the same job at one qp-par thread.
fn alpha_traced(molecule: Molecule, driver: Driver, seed: u64, tracer: &Tracer, r: &mut Report) {
    let off = Tracer::new(false);
    // The process's first job pays its cold start (pool threads, heap
    // growth); the comparisons below use only later jobs.
    if checked_job(
        molecule,
        driver,
        inputs::job_translation(seed, 0),
        &off,
        0,
        false,
        r,
    )
    .is_none()
    {
        fail_with(r, "first job failed");
    }

    qp_trace::set_enabled(true);
    qp_par::telemetry::set_enabled(true);
    let _ = qp_par::telemetry::take_records();
    let _ = qp_trace::span::take_events();
    let cache0 = qp_core::basis_cache::cache_counters();
    let (flops0, bytes0) = (
        gemm_counter("linalg.gemm.flops"),
        gemm_counter("linalg.gemm.bytes"),
    );
    let traced = checked_job(
        molecule,
        driver,
        inputs::job_translation(seed, 1),
        tracer,
        1,
        true,
        r,
    );
    let records = qp_par::telemetry::take_records();
    let cache1 = qp_core::basis_cache::cache_counters();
    let (flops1, bytes1) = (
        gemm_counter("linalg.gemm.flops"),
        gemm_counter("linalg.gemm.bytes"),
    );
    qp_par::telemetry::set_enabled(false);
    qp_trace::set_enabled(false);
    let program_spans = qp_trace::span::take_events();
    let Some(job) = traced else {
        fail_with(r, "traced job failed");
    };
    r.notes.push(format!(
        "{{\"program_spans_read\": {}}}",
        program_spans.len()
    ));

    let peaks = job.peaks.expect("traced job records stage peaks");
    r.metric("system.build_s", job.setup.build, "s");
    r.metric("system.tables_s", job.setup.tables, "s");
    r.metric("system.hartree_plan_s", job.setup.hartree_plan, "s");
    r.metric("system.farfield_tree_s", job.setup.farfield_tree, "s");
    let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    r.metric(
        "basis_cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.metric("scf.s", job.scf_s, "s");
    r.metric("scf.iterations", job.scf_iterations as f64, "count");
    r.metric("dfpt.s", job.dfpt_s, "s");
    r.metric(
        "dfpt.iterations",
        job.dfpt_iterations.iter().sum::<usize>() as f64,
        "count",
    );
    r.metric("setup.peak_rss_mb", peaks.setup, "MiB");
    r.metric("scf.peak_rss_mb", peaks.scf, "MiB");
    r.metric("dfpt.peak_rss_mb", peaks.dfpt, "MiB");

    let probes = alpha::layer_probes(&job, tracer, 1);
    let mut explained = 0.0;
    for (name, p) in alpha::LAYERS.iter().zip(&probes) {
        r.metric(&format!("{name}.call_s"), p.call_s, "s");
        r.metric(&format!("{name}.calls"), p.calls as f64, "count");
        explained += p.call_s * p.calls as f64;
    }
    r.metric(
        "layers.explained_frac",
        explained / (job.scf_s + job.dfpt_s),
        "ratio",
    );
    // The DFPT driver's own phase spans of the traced job: the program's
    // measurement of the layers the probes call from outside. A probe far
    // from its span means the probe no longer times what the driver runs.
    let mut ratios = Vec::new();
    for (layer, span) in DFPT_PHASE_SPANS {
        let durs: Vec<f64> = program_spans
            .iter()
            .filter(|e| e.name == span)
            .map(|e| e.dur_us / 1e6)
            .collect();
        if durs.is_empty() {
            continue;
        }
        let span_s = median(&durs);
        r.metric(&format!("{layer}.span_s"), span_s, "s");
        let probe = alpha::LAYERS
            .iter()
            .position(|l| *l == layer)
            .map(|i| probes[i].call_s)
            .expect("a probed layer");
        ratios.push(format!("\"{layer}\": {:.3}", probe / span_s));
    }
    r.notes.push(format!(
        "{{\"probe_over_span\": {{{}}}}}",
        ratios.join(", ")
    ));

    r.metric("gemm.flops", (flops1 - flops0) as f64, "flop");
    r.metric("gemm.bytes", (bytes1 - bytes0) as f64, "B");
    r.metric(
        "gemm.gflops",
        alpha::gemm_gflops(&job, tracer, 1),
        "GFLOP/s",
    );

    let top: Vec<&qp_par::RegionRecord> = records.iter().filter(|x| !x.inline).collect();
    let busy: u64 = top
        .iter()
        .filter(|x| !x.nested)
        .map(|x| x.total_busy_ns())
        .sum();
    let avail: u64 = top
        .iter()
        .filter(|x| !x.nested)
        .map(|x| x.wall_ns * x.threads as u64)
        .sum();
    r.metric("par.regions", records.len() as f64, "count");
    r.metric(
        "par.inline_regions",
        (records.len() - top.len()) as f64,
        "count",
    );
    r.metric(
        "par.queue_wait_s",
        top.iter().map(|x| x.queue_wait_ns).sum::<u64>() as f64 / 1e9,
        "s",
    );
    r.metric("par.busy_frac", busy as f64 / avail.max(1) as f64, "ratio");

    // The SPMD layer: the job's own directions, or one probe direction.
    let dirs = if job.spmd.is_empty() {
        let dips: Vec<_> = (0..3)
            .map(|d| qp_core::operators::dipole_matrix(&job.system, d))
            .collect();
        let dir = tracer.span("probe.spmd", 1, || {
            alpha::spmd_direction(
                &job.system,
                &job.ground,
                &dips,
                0,
                &qp_bench::workloads::bench_dfpt_options(),
            )
        });
        vec![dir]
    } else {
        job.spmd.clone()
    };
    let n = dirs.len() as f64;
    r.metric(
        "spmd.direction_s",
        dirs.iter().map(|d| d.secs).sum::<f64>() / n,
        "s",
    );
    r.metric(
        "spmd.iterations",
        dirs.iter().map(|d| d.iterations).sum::<usize>() as f64 / n,
        "count",
    );
    r.metric(
        "mpi.collectives",
        dirs.iter().map(|d| d.collectives).sum::<usize>() as f64 / n,
        "count",
    );
    r.metric(
        "mpi.bytes",
        dirs.iter().map(|d| d.bytes).sum::<u64>() as f64 / n,
        "B",
    );
    r.metric(
        "mapping.imbalance",
        dirs.iter().map(|d| d.imbalance).fold(0.0, f64::max),
        "ratio",
    );
    // How far the SPMD α column lands from the serial one (the serial α of
    // the same ground state is the job's own α on the serial driver).
    let serial = match driver {
        Driver::Serial => Ok(job.alpha),
        Driver::Spmd => alpha::serial_alpha(&job),
    };
    let rel_err = match serial {
        Ok(serial) => dirs
            .iter()
            .enumerate()
            .map(|(d, dir)| match dir.alpha_col {
                Some(col) => (0..3)
                    .map(|i| (col[i] - serial[i][d]).abs() / serial[d][d].abs())
                    .fold(0.0, f64::max),
                None => 1.0,
            })
            .fold(0.0, f64::max),
        Err(_) => 1.0,
    };
    r.metric("spmd.alpha_rel_err", rel_err, "ratio");

    let traced_total = job.total_s;
    drop(job);
    let Some(base) = checked_job(
        molecule,
        driver,
        inputs::job_translation(seed, 2),
        &off,
        2,
        false,
        r,
    ) else {
        fail_with(r, "untraced job failed");
    };
    drop((base.system, base.ground));
    let one = alpha::PoolThreads::exactly(1);
    let single = checked_job(
        molecule,
        driver,
        inputs::job_translation(seed, 3),
        &off,
        3,
        false,
        r,
    );
    drop(one);
    let Some(single) = single else {
        fail_with(r, "single-thread job failed");
    };
    r.metric("alpha_s", base.total_s, "s");
    r.metric("par.speedup", single.total_s / base.total_s, "ratio");
    r.metric("trace.overhead_s", traced_total - base.total_s, "s");
    r.notes.push(format!(
        "{{\"tracing\": {{\"untraced_alpha_s\": {:?}, \"traced_alpha_s\": {traced_total:?}, \"probes_excluded\": true}}}}",
        base.total_s
    ));
}

/// Write the spans of a traced run to the state dir and note the per-name
/// self times.
fn write_spans(tracer: &Tracer, workload: &str, seed: u64, r: &mut Report) {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let mut by_name: std::collections::BTreeMap<&str, f64> = Default::default();
    for (s, ns) in spans.iter().zip(&selfs) {
        *by_name.entry(s.name).or_default() += *ns as f64 / 1e9;
    }
    let body: Vec<String> = by_name
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.6}"))
        .collect();
    r.notes
        .push(format!("{{\"self_time_s\": {{{}}}}}", body.join(", ")));
    let path =
        std::path::Path::new(serve::STATE_ROOT).join(format!("spans-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(serve::STATE_ROOT)
        .and_then(|_| std::fs::write(&path, trace::to_json(&spans)));
    match written {
        Ok(()) => r.notes.push(format!(
            "{{\"spans_file\": \"{}\", \"spans\": {}}}",
            path.display(),
            spans.len()
        )),
        Err(e) => fail(&format!("writing {}: {e}", path.display())),
    }
}

fn serve_session(
    seed: u64,
    stop: serve::Stop,
    tracer: &Tracer,
    clients: usize,
    restarts: usize,
    r: &mut Report,
) -> serve::Session {
    let s =
        serve::session(seed, clients, stop, restarts, tracer).unwrap_or_else(|e| fail_with(r, &e));
    r.ops(s.served.len(), s.failed);
    s
}

fn serve_run(seed: u64, seconds: f64, tracer: &Tracer, r: &mut Report) -> serve::Session {
    let clients = SERVE_CLIENTS.min(host::nproc());
    let s = serve_session(
        seed,
        serve::Stop::After(Duration::from_secs_f64(seconds)),
        tracer,
        clients,
        SERVE_SETUPS,
        r,
    );
    let misses = s.latencies_where(false);
    if misses.is_empty() {
        fail_with(r, "no cold request completed");
    }
    r.notes.push(format!(
        "{{\"serve\": {{\"clients\": {clients}, \"requests\": {}, \"cold\": {}, \"distinct\": {}, \"job_threads\": {}, \"preemptions\": {}, \"peak_window\": {}}}}}",
        s.served.len(),
        misses.len(),
        s.pools.iter().map(Vec::len).sum::<usize>(),
        serve::job_threads(),
        s.preemptions,
        s.peak_window
    ));
    s
}

fn main() {
    let args = parse_args();
    if let Err(e) = host::reset_peak_rss() {
        fail(&format!("cannot reset the peak resident set: {e}"));
    }
    let ticks = host::cpu_ticks();
    let mut r = Report::default();
    r.notes.push(host::describe());
    let tracer = Tracer::new(args.trace);
    let alpha_kind = match args.workload.as_str() {
        "polymer98_alpha" => Some((Molecule::Polymer98, Driver::Serial)),
        "ligand49_alpha" => Some((Molecule::Ligand49, Driver::Serial)),
        "ligand49_ranks2" => Some((Molecule::Ligand49, Driver::Spmd)),
        _ => None,
    };
    match (alpha_kind, args.trace) {
        (Some((m, d)), false) => alpha_run(m, d, args.seed, args.seconds, &mut r),
        (Some((m, d)), true) => {
            alpha_traced(m, d, args.seed, &tracer, &mut r);
            let s = serve_session(
                args.seed,
                serve::Stop::Repeats(PROBE_HITS),
                &tracer,
                1,
                0,
                &mut r,
            );
            latency_metrics(&mut r, &s);
            for (name, v, unit) in serve::layer_metrics(&s) {
                r.metric(name, v, unit);
            }
        }
        (None, false) => {
            let mut speed = HostSpeed::new();
            speed.read();
            let s = serve_run(args.seed, args.seconds, &tracer, &mut r);
            speed.read();
            // Wall time per cold job: the window over the cache misses it
            // completed, so the hits' serving time is in it. (The median
            // miss latency depends on which templates happen to queue
            // behind each other; its spread across seeds was about 30 % of
            // the median.)
            let alpha_s = s.wall_s / s.latencies_where(false).len() as f64;
            let setup_s = median(&s.restarts);
            let (p50, t, per_s) = serve_latency(&s);
            r.notes.push(format!(
                "{{\"server_restarts\": {{\"samples\": {}, \"jobs_recovered\": {}}}}}",
                s.restarts.len(),
                serve::RESTART_JOBS
            ));
            r.notes.push(format!(
                "{{\"wall\": {{\"alpha_s\": {alpha_s:?}, \"setup_s\": {setup_s:?}, \"serve_p50_s\": {p50:?}, \"serve_tail_s\": {:?}, \"serve_tail_percentile\": {:.2}, \"serve_req_per_s\": {per_s:?}}}}}",
                t.value,
                t.percentile,
            ));
            r.notes.push(speed.describe());
            r.metric("alpha_ref_s", speed.to_reference(alpha_s), "s");
            r.metric("setup_s", speed.to_reference(setup_s), "s");
            r.metric("peak_rss_mb", s.peak_window, "MiB");
        }
        (None, true) => {
            let s = serve_run(args.seed, args.seconds, &tracer, &mut r);
            // The α layers, on the largest molecule of the mix.
            alpha_traced(
                Molecule::Polymer26,
                Driver::Serial,
                args.seed,
                &tracer,
                &mut r,
            );
            latency_metrics(&mut r, &s);
            for (name, v, unit) in serve::layer_metrics(&s) {
                r.metric(name, v, unit);
            }
        }
    }
    if args.trace {
        write_spans(&tracer, &args.workload, args.seed, &mut r);
    }
    if let Some(share) = host::steal_share(ticks, host::cpu_ticks()) {
        r.notes.push(format!("{{\"cpu_steal_share\": {share:.4}}}"));
    }
    r.print();
}
