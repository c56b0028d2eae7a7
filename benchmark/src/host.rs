//! The host a result was taken on, and pinning. Thread-per-rank baton
//! handoffs become cross-core futex wakes when the scheduler may migrate
//! threads, which makes unpinned runs slower and bimodal (README.md), so
//! every workload runs in a child pinned with `taskset`.

use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

use smpi_obs::json::JsonBuf;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-3,6`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The last `count` allowed CPUs as a `taskset -c` list: CPU 0 takes most
/// of a small host's interrupts, so pin away from it.
pub fn pin_list(count: usize) -> String {
    let cpus = allowed_cpus();
    let chosen = &cpus[cpus.len().saturating_sub(count)..];
    chosen
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Whether `taskset` can be run here.
pub fn have_taskset() -> bool {
    Command::new("taskset")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host record stored beside every full-suite result.
pub fn record_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("nproc").uint_val(allowed_cpus().len() as u64);
    j.key("cpu_model").str_val(model);
    j.key("governor").str_val(
        &read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_or_else(|| "unreadable".into()),
    );
    j.key("loadavg_at_start")
        .str_val(&read_trimmed("/proc/loadavg").unwrap_or_else(|| "unreadable".into()));
    j.key("taskset").bool_val(have_taskset());
    j.key("rustc")
        .str_val(&command_line("rustc", &["--version"]));
    j.key("commit")
        .str_val(&command_line("git", &["rev-parse", "HEAD"]));
    j.end_obj();
    j.finish()
}

/// What [`speed_probe_s`] takes on the host the suite was sized on while
/// that host is quiet: the "reference speed" every reported time is
/// converted to.
pub const REFERENCE_PROBE_S: f64 = 0.0008;

/// Converts what the wall clock read into reference-speed seconds: a speed
/// probe runs after every measured section, and a section is scaled by the
/// mean of the probes on either side of it.
pub struct ReferenceClock {
    last_probe_s: f64,
    last_probe_at: Instant,
    /// Every probe taken, for the result's `host_slowdown`.
    pub probes_s: Vec<f64>,
}

impl ReferenceClock {
    pub fn start() -> Self {
        let probe = speed_probe_s();
        ReferenceClock {
            last_probe_s: probe,
            last_probe_at: Instant::now(),
            probes_s: vec![probe],
        }
    }

    /// `raw_s` of a section that ran since the previous call (or since
    /// `start`), in reference-speed seconds.
    pub fn reference_s(&mut self, raw_s: f64) -> f64 {
        let before = self.last_probe_s;
        // The host's speed changes over hundreds of milliseconds at the
        // fastest, so sections of microseconds share one probe.
        if self.last_probe_at.elapsed().as_secs_f64() > 0.05 {
            self.last_probe_s = speed_probe_s();
            self.last_probe_at = Instant::now();
            self.probes_s.push(self.last_probe_s);
        }
        raw_s * REFERENCE_PROBE_S / ((before + self.last_probe_s) / 2.0)
    }
}

/// Host-speed probe: seconds a fixed throughput-bound loop over 800 KB
/// takes right now (median of 9 runs of about 0.8 ms, so a scheduling
/// spike is ignored). On a shared host the same code runs up to 1.7 times
/// slower for seconds at a stretch while a neighbour is busy; a
/// dependent-chain ALU loop does not see that, this loop does, and the
/// workloads' rep times follow it (README.md, "Why times are normalised").
/// It shares no code with the simulator, so no change to the simulator
/// can move it.
pub fn speed_probe_s() -> f64 {
    static STREAM: OnceLock<Vec<u64>> = OnceLock::new();
    let stream = STREAM.get_or_init(|| (0..100_000).collect());
    let mut samples = [0.0; 9];
    for sample in &mut samples {
        let t = Instant::now();
        let mut acc = 0u64;
        for round in 0..15u64 {
            for x in stream {
                acc ^= x.wrapping_mul(6364136223846793005).wrapping_add(round);
            }
        }
        std::hint::black_box(acc);
        *sample = t.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    samples[4]
}
