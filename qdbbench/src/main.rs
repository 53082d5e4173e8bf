//! The QDB session benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qdbbench/Cargo.toml -- \
//!     --workload <paper_mix|dense_gates|dense_amps|noisy_tree> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload end to end for `--seconds`
//! and prints the end-to-end metrics; with `--trace 1` it measures a
//! third of the time untraced and the rest traced, and prints the
//! per-layer split. Every metric is printed as `name = value unit`; the
//! last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only when every session reached
//! its pinned exact verdicts and, when tracing, the traced run
//! reproduced the untraced run bit for bit.

mod decompose;
mod host;
mod loadgen;
mod microbench;
mod session;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use qdb_core::EnsembleRunner;
use qdb_server::{Server, ServerConfig};

use host::Provenance;
use session::{digest, open_loop, run_direct, SessionResult, Window};
use trace::Tracer;
use workloads::{Generator, Workload};

/// Offered `paper_mix` load per server worker, sessions per second:
/// about an eighth of what a worker drains of this mix. Nearer
/// saturation, pile-ups of long sessions make the tail latency vary by
/// more than its bound from run to run (see `qdbbench/README.md`).
const MIX_RATE_PER_WORKER: f64 = 40.0;

/// An untraced run sets the workload up at least `SETUP_MIN_REPEATS`
/// times and until `SETUP_MIN_SECONDS` have passed (at most
/// `SETUP_MAX_REPEATS` times); `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 31;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// A named, unit-carrying measurement.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {}", flags["--workload"]))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Server workers for `paper_mix`: one per available core.
fn mix_workers() -> usize {
    host::available_parallelism()
}

/// A workload ready to measure: its generator and, for `paper_mix`,
/// the running server.
struct Ready {
    generator: Generator,
    server: Option<Server>,
}

impl Drop for Ready {
    fn drop(&mut self) {
        if let Some(server) = &self.server {
            server.shutdown();
        }
    }
}

/// Program generation, server start and the first session. Returns the
/// set-up and its duration in seconds.
fn set_up(workload: Workload, seed: u64) -> Result<(Ready, f64), String> {
    let start = Instant::now();
    let generator = Generator::new(workload, seed);
    let warm = generator.warm_up();
    let server = (workload == Workload::PaperMix).then(|| {
        Server::start(
            ServerConfig::default()
                .with_workers(mix_workers())
                .with_queue_capacity(1 << 16),
        )
    });
    let result = match &server {
        Some(server) => {
            let id = server
                .submit((*warm.program).clone(), warm.config.clone())
                .map_err(|e| format!("warm-up submit: {e}"))?;
            let outcome = server.wait(id).map_err(|e| format!("warm-up: {e}"))?;
            session::verify(&warm, outcome.reports().unwrap_or_default())
        }
        None => {
            let r = run_direct(0, &warm);
            r.error.map_or(Ok(()), Err)
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    let ready = Ready { generator, server };
    result.map(|()| (ready, elapsed))
}

fn measure(ready: &Ready, seed: u64, seconds: f64) -> Window {
    match &ready.server {
        Some(server) => open_loop(
            server,
            mix_workers(),
            &ready.generator,
            seed,
            MIX_RATE_PER_WORKER * mix_workers() as f64,
            seconds,
        ),
        None => session::closed_loop(&ready.generator, seconds),
    }
}

/// Latencies in session order.
fn latencies_ms(sessions: &[SessionResult]) -> Vec<f64> {
    let mut by_index: Vec<&SessionResult> = sessions.iter().collect();
    by_index.sort_by_key(|s| s.index);
    by_index
        .iter()
        .map(|s| s.latency_s * 1e3)
        .filter(|v| v.is_finite())
        .collect()
}

fn end_to_end(window: &Window, setups: &[f64]) -> Vec<Metric> {
    let lat = latencies_ms(&window.sessions);
    let p50 = stats::quiet_window(&lat, stats::median, |m| *m);
    let tail = stats::quiet_window(&lat, stats::tail, |t| t.value);
    let windowed = if lat.len() > stats::WINDOW {
        format!(
            "the 10th-percentile window of {} sessions, n={}",
            stats::WINDOW,
            lat.len()
        )
    } else {
        format!("n={}", lat.len())
    };
    let attempted = window.sessions.len().max(1) as f64;
    let ok = window.ok() as f64;
    let mut out = vec![
        Metric {
            note: format!("median of {} set-ups", setups.len()),
            ..metric("setup_s", stats::median(setups), "s")
        },
        Metric {
            note: format!("{} sessions in {:.3} s", window.ok(), window.wall_s),
            ..metric("sessions_per_s", ok / window.wall_s, "1/s")
        },
        Metric {
            note: format!("{windowed}; whole run {:.3}", stats::median(&lat)),
            ..metric("latency_p50_ms", p50, "ms")
        },
        Metric {
            note: format!(
                "p{:.2} with {} samples beyond, {windowed}; whole run: \
                 p90 {:.3}, p99 {:.3}, max {:.3}",
                tail.percentile,
                tail.beyond,
                stats::percentile(&lat, 90.0),
                stats::percentile(&lat, 99.0),
                stats::percentile(&lat, 100.0)
            ),
            ..metric("latency_tail_ms", tail.value, "ms")
        },
        metric("cpu_ms_per_session", window.cpu_ms / attempted, "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric {
            note: format!("failed_share = {}", 1.0 - ok / attempted),
            ..metric("ok_share", ok / attempted, "share")
        },
    ];
    let mut slowest: Vec<&SessionResult> = window.sessions.iter().collect();
    slowest.sort_by(|a, b| b.latency_s.total_cmp(&a.latency_s));
    let slowest: Vec<String> = slowest
        .iter()
        .take(stats::TAIL_BEYOND)
        .map(|s| format!("{}#{} {:.1}", s.kind, s.index, s.latency_s * 1e3))
        .collect();
    out[3]
        .note
        .push_str(&format!("; slowest: {}", slowest.join(", ")));
    if !window.late_ms.is_empty() {
        out.push(metric(
            "loadgen.late_ms_p99",
            stats::percentile(&window.late_ms, 99.0),
            "ms",
        ));
    }
    out
}

/// Metrics printed for a reader but left out of the JSON line: each is
/// defined on one workload only.
const PRINT_ONLY: [&str; 3] = [
    "loadgen.late_ms_p99",
    "tree.overhead_ms",
    "server.queue_wait_ms",
];

/// The JSON line's metrics without tracing, as `BENCHMARK.json` lists
/// them under `end_to_end`.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "sessions_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "cpu_ms_per_session",
    "peak_rss_mb",
    "ok_share",
];

/// The JSON line's metrics with tracing, as `BENCHMARK.json` lists them
/// under `per_layer`.
const PER_LAYER: [&str; 30] = [
    "sim.walk_ms",
    "sim.gate_ops",
    "sim.index_ops",
    "sim.index_ops_per_us",
    "sim.bytes_moved_mb_computed",
    "sim.sample_ms",
    "rayon.dispatch_us",
    "rayon.join_us",
    "rayon.chunks_per_session",
    "rayon.speedup",
    "tree.unique_trajectories",
    "tree.fault_free_share",
    "tree.frontier_ops",
    "tree.replayed_ops",
    "tree.work_ratio",
    "tree.states_allocated",
    "tree.packed_lanes",
    "circuit.compile_ms",
    "stats.check_us",
    "stats.exact_ms",
    "stats.exact_disagree_share",
    "server.queue_depth_p90",
    "server.plan_cache_hit_rate",
    "server.oracle_cache_hit_rate",
    "server.retries",
    "server.degradations",
    "core.session_ms",
    "core.self_ms",
    "core.coverage",
    "trace.overhead_pct",
];

struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    digest_line: String,
    spans: Option<Tracer>,
}

fn errors_of(window: &Window) -> Vec<String> {
    window
        .sessions
        .iter()
        .filter_map(|s| s.error.clone())
        .collect()
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    while setups.len() + 1 < SETUP_MIN_REPEATS
        || (setups.len() + 1 < SETUP_MAX_REPEATS && setups.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        // Each discarded set-up shuts its server down before the next.
        let (_, secs) = set_up(args.workload, args.seed)?;
        setups.push(secs);
    }
    let (ready, secs) = set_up(args.workload, args.seed)?;
    setups.push(secs);
    let window = measure(&ready, args.seed, args.seconds);
    drop(ready);
    let errors = errors_of(&window);
    Ok(Outcome {
        metrics: end_to_end(&window, &setups),
        attempted: window.sessions.len(),
        failed: errors.len(),
        digest_line: format!(
            "digest = {:016x} over {} sessions",
            digest(&window.sessions),
            window.sessions.len()
        ),
        errors,
        spans: None,
    })
}

/// The span ids of one decomposed session.
struct SessionSpans {
    root: usize,
    alt: usize,
    /// `true` when the alternate run was the serial one.
    alt_serial: bool,
    walk: usize,
    counters: decompose::WalkCounters,
    noisy: bool,
    tree: Option<qdb_core::NoisySessionStats>,
    reference_ops: u64,
    /// Server latency minus solo service time (`paper_mix`).
    queue_wait_ms: Option<f64>,
}

/// Time the same session with the other `parallel` setting, and check
/// it reproduces the reports bit for bit.
fn alternate(
    tracer: &mut Tracer,
    index: u64,
    job: &workloads::Job,
    reports: &[qdb_core::AssertionReport],
    errors: &mut Vec<String>,
) -> usize {
    let config = job.config.with_parallel(!job.config.parallel);
    let (alt, id) = tracer.time(index, "rayon.alt", None, || {
        EnsembleRunner::new(config).check_program(&job.program)
    });
    match alt {
        Ok(r) if session::report_hash(&r) == session::report_hash(reports) => {}
        Ok(_) => errors.push(format!(
            "{}: session {index} changed bits with parallel={}",
            job.kind, !job.config.parallel
        )),
        Err(e) => errors.push(format!("{}: alternate run: {e}", job.kind)),
    }
    id
}

/// Split session `index` of `job` (timed as `root`) into child spans.
fn split_session(
    tracer: &mut Tracer,
    index: u64,
    root: usize,
    job: &workloads::Job,
    result: &SessionResult,
    errors: &mut Vec<String>,
) -> Option<SessionSpans> {
    if result.error.is_some() {
        return None;
    }
    let alt = alternate(tracer, index, job, &result.reports, errors);
    match decompose::split(tracer, index, root, job, &result.reports) {
        Ok(split) => {
            errors.extend(split.mismatches);
            Some(SessionSpans {
                root,
                alt,
                alt_serial: job.config.parallel,
                walk: split.walk_span,
                counters: split.counters,
                noisy: job.config.noise.is_some(),
                reference_ops: result
                    .tree
                    .as_ref()
                    .map_or(0, |t| t.reference_ops(&job.program)),
                tree: result.tree.clone(),
                queue_wait_ms: None,
            })
        }
        Err(e) => {
            errors.push(format!("{}: decomposition: {e}", job.kind));
            None
        }
    }
}

/// Summed latency of the same sessions with and without tracing.
#[derive(Default)]
struct Overhead {
    traced_ms: f64,
    untraced_ms: f64,
    sessions: usize,
}

/// Run session `index` as the `core.session` span, and once more as a
/// plain direct call for the tracing overhead; which of the two runs
/// first alternates, so neither always finds the caches warm. Returns
/// the span and the traced call's result.
fn traced_call(
    tracer: &mut Tracer,
    index: u64,
    job: &workloads::Job,
    overhead: &mut Overhead,
) -> (usize, SessionResult) {
    let plain = index.is_multiple_of(2).then(|| run_direct(index, job));
    let root = tracer.open(index, "core.session", None);
    let result = run_direct(index, job);
    let traced_ns = tracer.close(root);
    let plain = plain.unwrap_or_else(|| run_direct(index, job));
    overhead.traced_ms += traced_ns as f64 / 1e6;
    overhead.untraced_ms += plain.latency_s * 1e3;
    overhead.sessions += 1;
    (root, result)
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let third = args.seconds / 3.0;
    let untraced = {
        let (ready, _) = set_up(args.workload, args.seed)?;
        measure(&ready, args.seed, third)
    };
    let mut errors = errors_of(&untraced);
    // A fresh set-up, so the traced pass starts from the same cold
    // server caches as the untraced one.
    let (ready, _) = set_up(args.workload, args.seed)?;

    let mut tracer = Tracer::new();
    let dispatch = microbench::measure();
    let mut decomposed = Vec::new();
    let mut overhead = Overhead::default();
    let traced: Window;
    let start = Instant::now();
    match &ready.server {
        Some(server) => {
            traced = open_loop(
                server,
                mix_workers(),
                &ready.generator,
                args.seed,
                MIX_RATE_PER_WORKER * mix_workers() as f64,
                third,
            );
            for &(index, s, e) in &traced.submits {
                tracer.record(index, "server.submit", None, s, e);
            }
            let mut by_index: Vec<&SessionResult> = traced.sessions.iter().collect();
            by_index.sort_by_key(|s| s.index);
            for result in &by_index {
                let due = traced.due[result.index as usize];
                if result.latency_s.is_finite() {
                    let end = due + std::time::Duration::from_secs_f64(result.latency_s);
                    tracer.record(result.index, "server.session", None, due, end);
                }
            }
            // Solo service time of each streamed session, then its split.
            let budget = Instant::now();
            for result in by_index {
                if budget.elapsed().as_secs_f64() >= third {
                    break;
                }
                let job = ready.generator.job(result.index);
                let (root, solo) = traced_call(&mut tracer, result.index, &job, &mut overhead);
                let solo_ms = tracer.spans()[root].duration_ns() as f64 / 1e6;
                if solo.hash() != result.hash() {
                    errors.push(format!(
                        "{}: session {} differs between server and direct call",
                        job.kind, result.index
                    ));
                }
                if let Some(mut spans) =
                    split_session(&mut tracer, result.index, root, &job, result, &mut errors)
                {
                    spans.queue_wait_ms = Some(result.latency_s * 1e3 - solo_ms);
                    decomposed.push(spans);
                }
            }
        }
        None => {
            let mut sessions = Vec::new();
            let mut index = 0;
            while start.elapsed().as_secs_f64() < 2.0 * third {
                let job = ready.generator.job(index);
                let (root, result) = traced_call(&mut tracer, index, &job, &mut overhead);
                if let Some(spans) =
                    split_session(&mut tracer, index, root, &job, &result, &mut errors)
                {
                    decomposed.push(spans);
                }
                sessions.push(result);
                index += 1;
            }
            traced = Window {
                sessions,
                ..Window::default()
            };
        }
    }
    drop(ready);
    errors.extend(errors_of(&traced));

    // The traced run must reproduce the untraced one bit for bit.
    let common = untraced.sessions.len().min(traced.sessions.len()) as u64;
    let prefix = |w: &Window| -> Vec<SessionResult> {
        w.sessions
            .iter()
            .filter(|s| s.index < common)
            .cloned()
            .collect()
    };
    let (a, b) = (digest(&prefix(&untraced)), digest(&prefix(&traced)));
    if a != b {
        errors.push(format!(
            "traced digest {b:016x} != untraced digest {a:016x} over {common} sessions"
        ));
    }
    let metrics = per_layer(&tracer, &decomposed, &dispatch, &overhead, &traced);
    let attempted = untraced.sessions.len() + traced.sessions.len();
    Ok(Outcome {
        metrics,
        attempted,
        failed: errors.len().min(attempted),
        digest_line: format!(
            "digest = {a:016x} untraced, {b:016x} traced, over the first {common} sessions"
        ),
        errors,
        spans: Some(tracer),
    })
}

fn per_layer(
    tracer: &Tracer,
    sessions: &[SessionSpans],
    dispatch: &[microbench::DispatchRow],
    overhead: &Overhead,
    traced: &Window,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let n = sessions.len().max(1) as f64;
    let children = |parent: usize, name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(trace::Span::duration_ns)
            .sum()
    };
    let total = |f: &dyn Fn(&SessionSpans) -> f64| sessions.iter().map(f).sum::<f64>();
    let dur = |id: usize| spans[id].duration_ns();

    let session_ns = total(&|s| dur(s.root) as f64);
    let compile_ns = total(&|s| children(s.root, "circuit.compile") as f64);
    let walk_total_ns = total(&|s| dur(s.walk) as f64);
    let walk_self_ns = total(&|s| tracer.self_time_ns(s.walk) as f64);
    let sample_ns = total(&|s| children(s.walk, "sim.sample") as f64);
    let check_ns = total(&|s| children(s.walk, "stats.check") as f64);
    let exact_ns = total(&|s| children(s.walk, "stats.exact") as f64);
    let root_self_ns = total(&|s| tracer.self_time_ns(s.root) as f64);
    let gate_ops = total(&|s| s.counters.gate_ops as f64);
    let index_ops = total(&|s| s.counters.index_ops as f64);
    let chunks = total(&|s| s.counters.par_chunks as f64);
    let (serial_ns, parallel_ns) = sessions.iter().fold((0.0, 0.0), |(se, pa), s| {
        let (root, alt) = (dur(s.root) as f64, dur(s.alt) as f64);
        if s.alt_serial {
            (se + alt, pa + root)
        } else {
            (se + root, pa + alt)
        }
    });

    let noisy: Vec<&SessionSpans> = sessions.iter().filter(|s| s.noisy).collect();
    let nn = noisy.len().max(1) as f64;
    let tree = |f: &dyn Fn(&qdb_core::NoisySessionStats) -> f64| {
        noisy
            .iter()
            .filter_map(|s| s.tree.as_ref())
            .map(f)
            .sum::<f64>()
    };
    let unique = tree(&|t| {
        t.per_breakpoint
            .iter()
            .map(|b| b.unique_trajectories)
            .sum::<usize>() as f64
    });
    let shots = tree(&|t| t.per_breakpoint.iter().map(|b| b.shots).sum::<usize>() as f64);
    let fault_free = tree(&|t| {
        t.per_breakpoint
            .iter()
            .map(|b| b.fault_free_shots)
            .sum::<usize>() as f64
    });
    let tree_ops = tree(&|t| t.total_ops() as f64);
    let reference_ops: f64 = noisy.iter().map(|s| s.reference_ops as f64).sum();
    let overhead_ns: f64 = noisy
        .iter()
        .map(|s| dur(s.root) as f64 - dur(s.walk) as f64)
        .sum();

    let reports: Vec<&qdb_core::AssertionReport> = traced
        .sessions
        .iter()
        .flat_map(|s| s.reports.iter())
        .collect();
    let disagree = reports.iter().filter(|r| r.disagrees_with_exact()).count() as f64
        / reports.len().max(1) as f64;

    let (hit_rate, oracle_rate, retries, degradations) = match traced.server {
        Some((a, b)) => {
            let rate = |h: u64, m: u64| h as f64 / ((h + m) as f64).max(1.0);
            (
                rate(
                    b.plan_cache_hits - a.plan_cache_hits,
                    b.plan_cache_misses - a.plan_cache_misses,
                ),
                rate(
                    b.oracle_cache_hits - a.oracle_cache_hits,
                    b.oracle_cache_misses - a.oracle_cache_misses,
                ),
                (b.retries - a.retries) as f64,
                (b.degradations - a.degradations) as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let waits: Vec<f64> = sessions.iter().filter_map(|s| s.queue_wait_ms).collect();
    let Overhead {
        traced_ms,
        untraced_ms,
        sessions: paired,
    } = overhead;
    let zero = dispatch[0];

    let dispatch_note = dispatch
        .iter()
        .map(|r| {
            format!(
                "len {}: dispatch {:.2} us, join {:.2} us, serial {:.2} us",
                r.len, r.dispatch_us, r.join_us, r.serial_us
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    let walk_us = walk_self_ns / 1e3;
    vec![
        Metric {
            note: "walk self time, per session".into(),
            ..metric("sim.walk_ms", walk_self_ns / 1e6 / n, "ms")
        },
        metric("sim.gate_ops", gate_ops / n, "count"),
        metric("sim.index_ops", index_ops / n, "count"),
        metric(
            "sim.index_ops_per_us",
            if walk_us > 0.0 { index_ops / walk_us } else { 0.0 },
            "1/us",
        ),
        Metric {
            note: "computed: index_ops x 64 B (an amplitude pair read and written)".into(),
            ..metric("sim.bytes_moved_mb_computed", index_ops * 64.0 / 1e6 / n, "MB")
        },
        metric("sim.sample_ms", sample_ns / 1e6 / n, "ms"),
        Metric {
            note: format!("{} workers; {dispatch_note}", rayon::current_num_threads()),
            ..metric("rayon.dispatch_us", zero.dispatch_us, "us")
        },
        metric("rayon.join_us", zero.join_us, "us"),
        metric("rayon.chunks_per_session", chunks / n, "count"),
        Metric {
            note: format!(
                "serial {:.3} ms / parallel {:.3} ms per session",
                serial_ns / 1e6 / n,
                parallel_ns / 1e6 / n
            ),
            ..metric(
                "rayon.speedup",
                if parallel_ns > 0.0 { serial_ns / parallel_ns } else { 0.0 },
                "x",
            )
        },
        Metric {
            note: format!("over {} noisy sessions", noisy.len()),
            ..metric("tree.unique_trajectories", unique / nn, "count")
        },
        metric(
            "tree.fault_free_share",
            if shots > 0.0 { fault_free / shots } else { 0.0 },
            "share",
        ),
        metric("tree.frontier_ops", tree(&|t| t.frontier_ops as f64) / nn, "count"),
        metric(
            "tree.replayed_ops",
            tree(&|t| t.per_breakpoint.iter().map(|b| b.replayed_ops).sum::<u64>() as f64) / nn,
            "count",
        ),
        metric(
            "tree.work_ratio",
            if reference_ops > 0.0 { tree_ops / reference_ops } else { 0.0 },
            "ratio",
        ),
        metric("tree.states_allocated", tree(&|t| t.states_allocated as f64) / nn, "count"),
        metric("tree.packed_lanes", tree(&|t| t.packed_lanes as f64) / nn, "count"),
        Metric {
            note: "noisy session minus its ideal walk".into(),
            ..metric("tree.overhead_ms", overhead_ns / 1e6 / nn, "ms")
        },
        metric("circuit.compile_ms", compile_ns / 1e6 / n, "ms"),
        metric("stats.check_us", check_ns / 1e3 / n, "us"),
        metric("stats.exact_ms", exact_ns / 1e6 / n, "ms"),
        Metric {
            note: format!("over {} reports", reports.len()),
            ..metric("stats.exact_disagree_share", disagree, "share")
        },
        Metric {
            note: format!("over {} sessions", waits.len()),
            ..metric(
                "server.queue_wait_ms",
                if waits.is_empty() { 0.0 } else { waits.iter().sum::<f64>() / waits.len() as f64 },
                "ms",
            )
        },
        metric(
            "server.queue_depth_p90",
            if traced.queue_depths.is_empty() {
                0.0
            } else {
                stats::percentile(&traced.queue_depths, 90.0)
            },
            "count",
        ),
        metric("server.plan_cache_hit_rate", hit_rate, "share"),
        metric("server.oracle_cache_hit_rate", oracle_rate, "share"),
        metric("server.retries", retries, "count"),
        metric("server.degradations", degradations, "count"),
        Metric {
            note: format!("over {} decomposed sessions", sessions.len()),
            ..metric("core.session_ms", session_ns / 1e6 / n, "ms")
        },
        metric("core.self_ms", root_self_ns / 1e6 / n, "ms"),
        Metric {
            note: format!(
                "compile {:.3} + walk {:.3} (of which sample {:.3}, check {:.3}, exact {:.3}) ms per session",
                compile_ns / 1e6 / n,
                walk_total_ns / 1e6 / n,
                sample_ns / 1e6 / n,
                check_ns / 1e6 / n,
                exact_ns / 1e6 / n
            ),
            ..metric(
                "core.coverage",
                if session_ns > 0.0 { (compile_ns + walk_total_ns) / session_ns } else { 0.0 },
                "share",
            )
        },
        Metric {
            note: format!(
                "latency summed over {paired} sessions, each run as a span and as a plain \
                 direct call: traced {traced_ms:.3} ms, untraced {untraced_ms:.3} ms"
            ),
            ..metric(
                "trace.overhead_pct",
                (traced_ms - untraced_ms) / untraced_ms * 100.0,
                "%",
            )
        },
    ]
    .into_iter()
    .chain(
        (!traced.late_ms.is_empty())
            .then(|| metric("loadgen.late_ms_p99", stats::percentile(&traced.late_ms, 99.0), "ms")),
    )
    .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for m in metrics.iter().filter(|m| !PRINT_ONLY.contains(&m.name)) {
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            m.value + 0.0,
            m.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qdbbench: {e}");
            eprintln!(
                "usage: qdbbench --workload <paper_mix|dense_gates|dense_amps|noisy_tree> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::gather(args.seed);
    println!(
        "# qdbbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", provenance.line());
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qdbbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{} = {} {}{note}", m.name, m.value + 0.0, m.unit);
    }
    println!("{}", outcome.digest_line);
    let mut errors = outcome.errors;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not a finite number", m.name));
    }
    let emitted: Vec<&str> = outcome
        .metrics
        .iter()
        .map(|m| m.name)
        .filter(|n| !PRINT_ONLY.contains(n))
        .collect();
    let listed: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if emitted != listed {
        errors.push(format!(
            "emitted metrics {emitted:?} differ from {listed:?}"
        ));
    }
    for e in errors.iter().take(20) {
        println!("error: {e}");
    }
    let correct = errors.is_empty();

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"provenance\":{},\"digest\":\"{}\",\"result\":{}}}\n",
        provenance.json(),
        outcome.digest_line,
        json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("run-{stem}.json")), record))
        .and_then(|()| match &outcome.spans {
            Some(t) => std::fs::write(dir.join(format!("spans-{stem}.jsonl")), t.to_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("qdbbench: could not write {}: {e}", dir.display());
    }

    println!(
        "{}",
        json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let end = section.find(']').expect("array closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_emits() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn json_line_skips_print_only_metrics_and_negative_zero() {
        let metrics = [
            metric("setup_s", 0.5, "s"),
            metric("loadgen.late_ms_p99", 1.0, "ms"),
            metric("core.self_ms", -0.0, "ms"),
        ];
        assert_eq!(
            json_line(true, 3, 0, &metrics),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":\
             {\"value\":0.5,\"unit\":\"s\"},\"core.self_ms\":{\"value\":0,\"unit\":\"ms\"}}}"
        );
    }
}
