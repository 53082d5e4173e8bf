//! Running sessions: closed loops of direct calls, the open-loop server
//! stream, and the checks every completed session must pass.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qdb_core::trajectory::NoisySessionStats;
use qdb_core::{AssertionReport, EnsembleRunner, Verdict};
use qdb_server::{Server, ServerMetrics, SessionState};

use crate::host::cpu_time_ms;
use crate::loadgen::{mix, poisson_schedule};
use crate::workloads::{Generator, Job};

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Session index within the workload.
    pub index: u64,
    /// Session kind.
    pub kind: &'static str,
    /// Due time (open loop) or call (closed loop) to verdict, seconds.
    pub latency_s: f64,
    /// `None` when the session completed with the pinned verdicts.
    pub error: Option<String>,
    /// Reports (empty when the session failed outright).
    pub reports: Vec<AssertionReport>,
    /// Trajectory-tree census, for noisy sessions.
    pub tree: Option<NoisySessionStats>,
}

impl SessionResult {
    /// Hash of the reports' verdict and statistic bits.
    #[must_use]
    pub fn hash(&self) -> u64 {
        report_hash(&self.reports)
    }
}

/// FNV-1a over each report's `(verdict, p-value bits, statistic bits,
/// exact verdict)`.
#[must_use]
pub fn report_hash(reports: &[AssertionReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let code = |v: Option<Verdict>| match v {
        None => 0,
        Some(Verdict::Pass) => 1,
        Some(Verdict::Fail) => 2,
        Some(Verdict::Unevaluated) => 3,
    };
    for r in reports {
        eat(code(Some(r.verdict)));
        eat(r.p_value.to_bits());
        eat(r.statistic.to_bits());
        eat(code(r.exact));
    }
    h
}

/// Digest of a run: every session's report hash, folded in index order.
#[must_use]
pub fn digest(sessions: &[SessionResult]) -> u64 {
    let mut sorted: Vec<&SessionResult> = sessions.iter().collect();
    sorted.sort_by_key(|s| s.index);
    sorted
        .iter()
        .fold(0u64, |acc, s| mix(acc ^ s.hash(), s.index))
}

/// Compare a session's exact verdicts with the pinned vector.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn verify(job: &Job, reports: &[AssertionReport]) -> Result<(), String> {
    if reports.len() != job.expected.len() {
        return Err(format!(
            "{}: {} reports, expected {}",
            job.kind,
            reports.len(),
            job.expected.len()
        ));
    }
    for (r, want) in reports.iter().zip(job.expected.iter()) {
        if r.exact != Some(*want) {
            return Err(format!(
                "{}: breakpoint {} `{}` exact verdict {:?}, pinned {:?}",
                job.kind, r.index, r.label, r.exact, want
            ));
        }
    }
    Ok(())
}

/// Run one session directly through `EnsembleRunner::check_program_stats`.
#[must_use]
pub fn run_direct(index: u64, job: &Job) -> SessionResult {
    let start = Instant::now();
    let result = EnsembleRunner::new(job.config.clone()).check_program_stats(&job.program);
    let latency_s = start.elapsed().as_secs_f64();
    match result {
        Ok((reports, tree)) => SessionResult {
            index,
            kind: job.kind,
            latency_s,
            error: verify(job, &reports).err(),
            reports,
            tree,
        },
        Err(e) => SessionResult {
            index,
            kind: job.kind,
            latency_s,
            error: Some(format!("{}: {e}", job.kind)),
            reports: Vec::new(),
            tree: None,
        },
    }
}

/// Sessions and resources of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every session attempted, in completion order.
    pub sessions: Vec<SessionResult>,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the window, milliseconds.
    pub cpu_ms: f64,
    /// How late the generator submitted each arrival, ms (open loop).
    pub late_ms: Vec<f64>,
    /// Queue depth seen at each submission (open loop).
    pub queue_depths: Vec<f64>,
    /// Server counters over the window (open loop).
    pub server: Option<(ServerMetrics, ServerMetrics)>,
    /// Submission call intervals (open loop): index, start, end.
    pub submits: Vec<(u64, Instant, Instant)>,
    /// Due instants of each arrival (open loop), by index.
    pub due: Vec<Instant>,
}

impl Window {
    /// Sessions that completed with the pinned verdicts.
    #[must_use]
    pub fn ok(&self) -> usize {
        self.sessions.iter().filter(|s| s.error.is_none()).count()
    }
}

/// One client calling sessions back to back for `seconds`.
#[must_use]
pub fn closed_loop(generator: &Generator, seconds: f64) -> Window {
    let cpu0 = cpu_time_ms();
    let start = Instant::now();
    let mut sessions = Vec::new();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        sessions.push(run_direct(index, &generator.job(index)));
        index += 1;
    }
    Window {
        sessions,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_ms: cpu_time_ms() - cpu0,
        ..Window::default()
    }
}

struct Pending {
    index: u64,
    id: qdb_server::SessionId,
    due: Instant,
    job: Job,
}

/// Waiter threads beyond the worker count. The server runs sessions in
/// submission order, so the sessions that can settle next are always
/// among the `workers` oldest unsettled ones; waiters take sessions in
/// submission order, so `workers + WAITERS_SPARE` of them always hold
/// every running session and see each settle as it happens. Every
/// settle wakes every waiter, so more would only add contention.
const WAITERS_SPARE: usize = 1;

/// Submit a seeded Poisson stream of `generator` sessions at
/// `rate_per_s` to `server` for `seconds`, from this thread, and wait
/// for every one to settle. Latency runs from each session's due time.
#[must_use]
pub fn open_loop(
    server: &Server,
    workers: usize,
    generator: &Generator,
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
) -> Window {
    let schedule = poisson_schedule(mix(seed, 0x00A1_14A1), rate_per_s, seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let rx = Mutex::new(rx);
    let settled: Mutex<Vec<SessionResult>> = Mutex::new(Vec::new());
    let mut window = Window::default();
    let before = server.metrics();
    let cpu0 = cpu_time_ms();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) + WAITERS_SPARE {
            scope.spawn(|| loop {
                let next = rx.lock().expect("waiter channel lock poisoned").recv();
                let Ok(p) = next else { break };
                let outcome = server.wait(p.id);
                let latency_s = p.due.elapsed().as_secs_f64();
                let result = match outcome {
                    Ok(o) if o.state == SessionState::Completed => {
                        let reports = o.reports.unwrap_or_default();
                        SessionResult {
                            index: p.index,
                            kind: p.job.kind,
                            latency_s,
                            error: verify(&p.job, &reports).err(),
                            reports,
                            tree: o.stats,
                        }
                    }
                    Ok(o) => SessionResult {
                        index: p.index,
                        kind: p.job.kind,
                        latency_s,
                        error: Some(format!("{}: session ended {:?}", p.job.kind, o.state)),
                        reports: Vec::new(),
                        tree: None,
                    },
                    Err(e) => SessionResult {
                        index: p.index,
                        kind: p.job.kind,
                        latency_s,
                        error: Some(format!("{}: {e}", p.job.kind)),
                        reports: Vec::new(),
                        tree: None,
                    },
                };
                settled.lock().expect("results lock poisoned").push(result);
            });
        }
        for (k, &offset) in schedule.iter().enumerate() {
            let index = k as u64;
            let job = generator.job(index);
            let program = (*job.program).clone();
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            window.queue_depths.push(server.queue_depth() as f64);
            let submit_start = Instant::now();
            let submitted = server.submit(program, job.config.clone());
            let submit_end = Instant::now();
            window
                .late_ms
                .push(submit_start.duration_since(due).as_secs_f64() * 1e3);
            window.submits.push((index, submit_start, submit_end));
            window.due.push(due);
            match submitted {
                Ok(id) => tx
                    .send(Pending {
                        index,
                        id,
                        due,
                        job,
                    })
                    .expect("waiters outlive the generator"),
                Err(e) => settled
                    .lock()
                    .expect("results lock poisoned")
                    .push(SessionResult {
                        index,
                        kind: job.kind,
                        latency_s: f64::NAN,
                        error: Some(format!("{}: submit refused: {e}", job.kind)),
                        reports: Vec::new(),
                        tree: None,
                    }),
            }
        }
        drop(tx);
    });
    window.wall_s = start.elapsed().as_secs_f64();
    window.cpu_ms = cpu_time_ms() - cpu0;
    window.server = Some((before, server.metrics()));
    window.sessions = settled.into_inner().expect("results lock poisoned");
    window
}
