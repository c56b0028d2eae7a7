//! One pinned, repeated, seed-driven performance suite for the SMPI-rs
//! workspace. See README.md for the workloads, the metrics and how the
//! bounds were sized.
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--quick] [--out FILE]   whole suite
//! run.sh --workload W --seed N --seconds S --trace 0|1     one workload, one JSON line
//! run.sh --compare A.json B.json                           regression verdicts
//! ```

mod compare;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use smpi_diff::JsonValue;
use smpi_obs::json::JsonBuf;

use metrics::{Layers, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use stats::summarize;
use workloads::{Cx, Rep, Workload, SIM_TIME_BITS};

/// Seed of a suite run when none is given.
const DEFAULT_SEED: u64 = 1977;
/// Seconds of timed reps per workload when none is given; equals
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Timed reps never go below this, however short `--seconds` is.
const MIN_REPS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: this process is the pinned child of a leader, running on
    /// this many CPUs.
    child_workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        compare: None,
        child_workers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--child-workers" => {
                args.child_workers = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--child-workers: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Ops attempted and failed so far. One op is one rep.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts `rep`; it fails when its own output check failed or when it
    /// does not reproduce every value of `exact` (the warm-up rep's).
    fn judge<'a>(
        &mut self,
        rep: &Rep,
        exact: impl IntoIterator<Item = &'a (&'static str, u64)>,
        what: &str,
    ) {
        self.attempted += 1;
        let drift = exact
            .into_iter()
            .find(|want| !rep.exact.contains(want))
            .map(|want| format!("{} changed between reps of one seed", want.0));
        if let Some(why) = rep.failure.clone().or(drift) {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// Everything one child measured.
struct Measured {
    tally: Tally,
    /// Reference-speed seconds (see `host::ReferenceClock`).
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// What the clock read, and every speed probe taken.
    setup_raw_s: Vec<f64>,
    wall_raw_s: Vec<f64>,
    probes_s: Vec<f64>,
    peak_rss_mib: f64,
    fidelity_max_err_pct: f64,
    /// The per-layer account, when the run was traced.
    layers: Option<Layers>,
}

/// Runs one workload in this (already pinned) process: set-up (repeated,
/// median reported), one warm-up rep, timed reps with all observability off
/// until `seconds` have passed, then — when tracing — one traced rep and
/// the direct probes.
fn measure<W: Workload>(name: &str, cx: &Cx, seconds: f64, trace: bool) -> Measured {
    // Set-up takes microseconds for some workloads, so one sample would be
    // noise: repeat it (at least 5 times, then until half a second has gone
    // into it or 1 000 times) and report the median.
    let mut clock = host::ReferenceClock::start();
    let (mut setup_raw_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut workload = None;
    while setup_raw_s.len() < 5
        || (setup_raw_s.iter().sum::<f64>() < 0.5 && setup_raw_s.len() < 1000)
    {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(cx));
        setup_raw_s.push(t.elapsed().as_secs_f64());
        setup_s.push(clock.reference_s(setup_raw_s[setup_raw_s.len() - 1]));
        if cx.quick {
            break;
        }
    }
    let mut workload = workload.expect("set up at least once");

    let mut tally = Tally::default();
    let warmup = workload.rep();
    tally.judge(&warmup, &warmup.exact, "warm-up rep");
    // Not a sample; keeps the clock's last probe next to the first rep.
    clock.reference_s(warmup.wall_s);

    let min_reps = if cx.quick { 2 } else { MIN_REPS };
    let (mut wall_raw_s, mut wall_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while wall_s.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let rep = workload.rep();
        tally.judge(&rep, &warmup.exact, "timed rep");
        wall_raw_s.push(rep.wall_s);
        wall_s.push(clock.reference_s(rep.wall_s));
    }
    let peak_rss_mib = host::peak_rss_mib();
    let fidelity_max_err_pct = workload.fidelity();

    let layers = trace.then(|| {
        let mut layers = Layers::new();
        let mut spans = Spans::new();
        let typical = Rep {
            wall_s: stats::median(&wall_raw_s),
            failure: None,
            exact: warmup.exact.clone(),
        };
        let rep = spans.scope("traced_rep", |spans| {
            workload.traced(&typical, spans, &mut layers)
        });
        // Observability adds region simcalls, so of the exact values only
        // simulated time must survive tracing.
        let sim_time = warmup.exact.iter().filter(|e| e.0 == SIM_TIME_BITS);
        tally.judge(&rep, sim_time, "traced rep");
        let path = results_dir().join(format!("spans-{name}.json"));
        if let Err(e) = std::fs::write(&path, spans.to_json(name)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        layers
    });

    Measured {
        tally,
        setup_s,
        wall_s,
        setup_raw_s,
        wall_raw_s,
        probes_s: clock.probes_s,
        peak_rss_mib,
        fidelity_max_err_pct,
        layers,
    }
}

/// The child's result document, one line of JSON.
fn document(name: &str, cx: &Cx, m: &Measured) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("workload").str_val(name);
    j.key("seed").uint_val(cx.seed);
    j.key("quick").bool_val(cx.quick);
    j.key("workers").uint_val(cx.workers as u64);
    j.key("ops_attempted").uint_val(m.tally.attempted);
    j.key("ops_failed").uint_val(m.tally.failed);
    j.key("failures").begin_arr();
    for f in &m.tally.failures {
        j.str_val(f);
    }
    j.end_arr();
    // Not metrics: what the clock read before conversion, and how much
    // slower than the reference the host ran (1 = reference speed).
    j.key("raw").begin_obj();
    j.key("wall_s").num_val(stats::median(&m.wall_raw_s));
    j.key("setup_s").num_val(stats::median(&m.setup_raw_s));
    j.key("host_slowdown")
        .num_val(stats::median(&m.probes_s) / host::REFERENCE_PROBE_S);
    j.end_obj();
    j.key("end_to_end").begin_obj();
    let samples: [&[f64]; 4] = [
        &m.wall_s,
        &m.setup_s,
        &[m.peak_rss_mib],
        &[m.fidelity_max_err_pct],
    ];
    for (metric, samples) in END_TO_END.iter().zip(samples) {
        let s = summarize(samples);
        j.key(metric.name).begin_obj();
        j.key("unit").str_val(metric.unit);
        j.key("median").num_val(s.median);
        j.key("q1").num_val(s.q1);
        j.key("q3").num_val(s.q3);
        j.key("n").uint_val(s.n as u64);
        j.end_obj();
    }
    j.end_obj();
    if let Some(layers) = &m.layers {
        j.key("per_layer").begin_obj();
        for (metric, unit) in PER_LAYER {
            j.key(metric).begin_obj();
            j.key("unit").str_val(unit);
            j.key("value").num_val(layers.get(metric));
            j.end_obj();
        }
        j.end_obj();
    }
    j.end_obj();
    j.finish()
}

fn run_workload<W: Workload>(name: &str, cx: &Cx, seconds: f64, trace: bool) -> String {
    document(name, cx, &measure::<W>(name, cx, seconds, trace))
}

/// The pinned child: runs the workload and prints its document as the
/// last line of stdout.
fn child(args: &Args, workers: usize) -> ExitCode {
    let name = args.workload.as_deref().expect("a child has a workload");
    let tmp = results_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    let cx = Cx {
        seed: args.seed,
        quick: args.quick,
        workers,
        tmp: tmp.clone(),
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.0 } else { DEFAULT_SECONDS });
    let doc = match name {
        "halo_p2p" => run_workload::<workloads::halo::HaloP2p>(name, &cx, seconds, args.trace),
        "coll_scale" => run_workload::<workloads::coll::CollScale>(name, &cx, seconds, args.trace),
        "dt_fidelity" => run_workload::<workloads::dt::DtFidelity>(name, &cx, seconds, args.trace),
        "kernel_churn" => {
            run_workload::<workloads::kernel::KernelChurn>(name, &cx, seconds, args.trace)
        }
        "kernel_coupled" => {
            run_workload::<workloads::kernel::KernelCoupled>(name, &cx, seconds, args.trace)
        }
        "replay_halo" => {
            run_workload::<workloads::replay::ReplayHalo>(name, &cx, seconds, args.trace)
        }
        "sweep_grid" => run_workload::<workloads::sweep::SweepGrid>(name, &cx, seconds, args.trace),
        other => unreachable!("parse_args rejected {other}"),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    println!("{doc}");
    ExitCode::SUCCESS
}

/// A child's document, parsed, with where it ran.
struct ChildDoc {
    raw: String,
    json: JsonValue,
    pinned: bool,
    cpus: String,
}

/// Spawns one workload as a child of its own, pinned with `taskset` to one
/// allowed CPU (`sweep_grid`: up to four, and as many workers), and waits
/// for it. Without `taskset` the child runs unpinned and says so.
fn spawn_child(args: &Args, workload: &str, trace: bool) -> Result<ChildDoc, String> {
    let workers = if workload == "sweep_grid" {
        host::allowed_cpus().len().clamp(1, 4)
    } else {
        1
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let cpus = host::pin_list(workers);
    let pinned = host::have_taskset() && !cpus.is_empty();
    let mut cmd = if pinned {
        let mut c = Command::new("taskset");
        c.arg("-c").arg(&cpus).arg(exe);
        c
    } else {
        Command::new(exe)
    };
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--child-workers", &workers.to_string()]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    std::fs::create_dir_all(results_dir()).map_err(|e| format!("create results/: {e}"))?;
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} child ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let raw = stdout
        .lines()
        .last()
        .ok_or(format!("the {workload} child printed nothing"))?
        .to_string();
    let json = JsonValue::parse(&raw).map_err(|e| format!("{workload} child output: {e}"))?;
    Ok(ChildDoc {
        raw,
        json,
        pinned,
        cpus: if pinned { cpus } else { "unpinned".into() },
    })
}

fn count(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
}

fn print_failures(doc: &JsonValue) {
    if let Some(JsonValue::Arr(failures)) = doc.get("failures") {
        for f in failures {
            if let JsonValue::Str(f) = f {
                eprintln!("  failed: {f}");
            }
        }
    }
}

/// `--workload W`: one workload, and as the last line of stdout one JSON
/// object — end-to-end metrics with `--trace 0`, per-layer with `1`.
fn single(args: &Args, workload: &str) -> ExitCode {
    let doc = match spawn_child(args, workload, args.trace) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print_failures(&doc.json);
    let (section, field) = if args.trace {
        ("per_layer", "value")
    } else {
        ("end_to_end", "median")
    };
    let Some(JsonValue::Obj(metrics)) = doc.json.get(section) else {
        eprintln!("the {workload} child reported no {section} metrics");
        return ExitCode::FAILURE;
    };
    let failed = count(&doc.json, "ops_failed");
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("correct").bool_val(failed == 0);
    j.key("attempted")
        .uint_val(count(&doc.json, "ops_attempted"));
    j.key("failed").uint_val(failed);
    j.key("metrics").begin_obj();
    for (name, m) in metrics {
        let (Some(value), Some(JsonValue::Str(unit))) =
            (m.get(field).and_then(JsonValue::as_f64), m.get("unit"))
        else {
            eprintln!("metric {name} of {workload} is malformed");
            return ExitCode::FAILURE;
        };
        j.key(name).begin_obj();
        j.key("value").num_val(value);
        j.key("unit").str_val(unit);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    println!("{}", j.finish());
    ExitCode::SUCCESS
}

/// No `--workload`: every workload in its own pinned child (timed reps,
/// then the traced rep), every metric printed by name, the result written
/// to `--out` (default `results/result-seed<N>.json`).
fn suite(args: &Args) -> ExitCode {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("schema").uint_val(1);
    j.key("seed").uint_val(args.seed);
    j.key("quick").bool_val(args.quick);
    j.key("host").raw_val(&host::record_json());
    j.key("workloads").begin_obj();
    let mut failed = 0;
    for workload in WORKLOADS {
        eprintln!("== {workload}");
        let doc = match spawn_child(args, workload, true) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        failed += count(&doc.json, "ops_failed");
        println!(
            "\n{workload}  (cpus {}, ops {} attempted / {} failed)",
            doc.cpus,
            count(&doc.json, "ops_attempted"),
            count(&doc.json, "ops_failed"),
        );
        print_failures(&doc.json);
        print_metrics(&doc.json);
        j.key(workload).begin_obj();
        j.key("pinned").bool_val(doc.pinned);
        j.key("cpus").str_val(&doc.cpus);
        j.key("result").raw_val(&doc.raw);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("result-seed{}.json", args.seed)));
    if let Err(e) = std::fs::write(&out, j.finish() + "\n") {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", out.display());
    if failed > 0 {
        eprintln!("{failed} op(s) failed their output check");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_metrics(doc: &JsonValue) {
    let num = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    let unit = |m: &JsonValue| match m.get("unit") {
        Some(JsonValue::Str(u)) => u.clone(),
        _ => String::new(),
    };
    println!(
        "  {:<34} {:>8} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &END_TO_END {
        if let Some(v) = doc.get("end_to_end").and_then(|e| e.get(m.name)) {
            println!(
                "  {:<34} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name,
                unit(v),
                num(v, "median"),
                num(v, "q1"),
                num(v, "q3"),
                num(v, "n"),
            );
        }
    }
    // A per-layer metric this workload does not exercise reads 0 in the
    // result; the table leaves it out.
    for (name, _) in PER_LAYER {
        if let Some(v) = doc.get("per_layer").and_then(|p| p.get(name)) {
            if num(v, "value") != 0.0 {
                println!("  {:<34} {:>8} {:>14.6}", name, unit(v), num(v, "value"));
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    match (&args.workload, args.child_workers) {
        (_, Some(workers)) => child(&args, workers),
        (Some(workload), None) => single(&args, workload),
        (None, None) => suite(&args),
    }
}
