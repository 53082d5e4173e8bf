//! What the host is, and what this process has used of it.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`: Linux reports them in `USER_HZ`, which is 100 on
/// every architecture the kernel exports to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all threads, live and
/// exited), in milliseconds.
#[must_use]
pub fn cpu_time_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) * 1000.0 / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |kib| kib / 1024.0)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The facts a reader needs to reproduce or compare a run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Online CPUs (`processor` lines of `/proc/cpuinfo`).
    pub nproc_online: usize,
    /// `std::thread::available_parallelism` (affinity and cgroup aware).
    pub available_parallelism: usize,
    /// The `RAYON_NUM_THREADS` override, if set.
    pub rayon_num_threads: Option<String>,
    /// Worker count the rayon shim resolves to.
    pub rayon_workers: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// The `target-cpu` in the checkout's `.cargo/config.toml`, if any.
    pub target_cpu: String,
    /// Vector extensions compiled in.
    pub target_features: Vec<&'static str>,
    /// Per-level cache sizes of CPU 0, e.g. `L2=4096K`.
    pub caches: Vec<String>,
    /// Commit of the checkout, when it is a git repository.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Gather provenance from the running host.
    #[must_use]
    pub fn gather(seed: u64) -> Self {
        let nproc_online = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Self {
            nproc_online,
            available_parallelism: available_parallelism(),
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS").ok(),
            rayon_workers: rayon::current_num_threads(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            target_cpu: configured_target_cpu().unwrap_or_else(|| "default".into()),
            target_features: target_features(),
            caches: cache_sizes(),
            commit: commit().unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// One `key=value` line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "provenance: nproc={} available_parallelism={} RAYON_NUM_THREADS={} rayon_workers={} \
             rustc=\"{}\" target_cpu={} target_features={} caches={} commit={} seed={}",
            self.nproc_online,
            self.available_parallelism,
            self.rayon_num_threads.as_deref().unwrap_or("unset"),
            self.rayon_workers,
            self.rustc,
            self.target_cpu,
            self.target_features.join(","),
            self.caches.join(","),
            self.commit,
            self.seed
        )
    }

    /// The same facts as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let list = |items: Vec<String>| {
            items
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"RAYON_NUM_THREADS\":{},\
             \"rayon_workers\":{},\"rustc\":\"{}\",\"target_cpu\":\"{}\",\
             \"target_features\":[{}],\"caches\":[{}],\"commit\":\"{}\",\"seed\":{}}}",
            self.nproc_online,
            self.available_parallelism,
            self.rayon_num_threads
                .as_ref()
                .map_or_else(|| "null".into(), |v| format!("\"{v}\"")),
            self.rayon_workers,
            self.rustc,
            self.target_cpu,
            list(
                self.target_features
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect()
            ),
            list(self.caches.clone()),
            self.commit,
            self.seed
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn configured_target_cpu() -> Option<String> {
    let config = std::fs::read_to_string(".cargo/config.toml").ok()?;
    let line = config
        .lines()
        .find(|l| !l.trim_start().starts_with('#') && l.contains("target-cpu="))?;
    let at = line.find("target-cpu=")? + "target-cpu=".len();
    let value: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    Some(value)
}

fn target_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        out.push("sse4.2");
    }
    if cfg!(target_feature = "avx2") {
        out.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        out.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        out.push("avx512f");
    }
    if out.is_empty() {
        out.push("baseline");
    }
    out
}

fn cache_sizes() -> Vec<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind != "Instruction" {
            out.push(format!("L{level}={size}"));
        }
    }
    if out.is_empty() {
        out.push("unknown".into());
    }
    out
}

fn commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}
