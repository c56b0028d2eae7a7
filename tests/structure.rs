//! Structural rules of the source tree, checked in tier-1 with std alone:
//! each test reads files, not the simulator.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root (the suite package sits there).
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `#[cfg(test)]` items outside test modules: `#[cfg(test)]` attribute
/// lines under `crates/*/src` or `src` whose next line does not declare a
/// `mod`.
fn cfg_test_items() -> Vec<String> {
    let mut items = Vec::new();
    for src in std::iter::once("src".to_string()).chain(crate_sources()) {
        for (rel, text) in files_under(&src) {
            if !rel.ends_with(".rs") {
                continue;
            }
            let lines: Vec<&str> = text.lines().collect();
            for (i, pair) in lines.windows(2).enumerate() {
                let next = pair[1].trim_start();
                let declares_mod = ["mod ", "pub mod ", "pub(crate) mod ", "pub(super) mod "]
                    .iter()
                    .any(|p| next.starts_with(p));
                if pair[0].trim() == "#[cfg(test)]" && !declares_mod {
                    items.push(format!("{rel}:{}: {next}", i + 1));
                }
            }
        }
    }
    items
}

/// Code whose only caller is a test is deleted, or kept as a named test
/// oracle (ROADMAP item 16). A helper parked under `#[cfg(test)]` inside a
/// production file hides that: nothing ships it, and its tests test
/// nothing that ships. The count went from 36 to 24 when the sweep's
/// on-line programs and the parked helpers went (CHANGES.md lists each
/// kept item with its test); a new one must replace one of them, or its
/// test must use a shipped entry point instead.
#[test]
fn parked_test_helpers_do_not_grow() {
    const PINNED: usize = 24;
    let items = cfg_test_items();
    assert!(
        items.len() <= PINNED,
        "{} `#[cfg(test)]` items outside test modules, more than {PINNED}:\n{}",
        items.len(),
        items.join("\n")
    );
}

/// File extensions that mark a backticked span as a file path.
const FILE_EXTENSIONS: [&str; 8] = [
    ".rs", ".md", ".toml", ".xml", ".json", ".sh", ".yml", ".tit",
];

/// Top-level directories that mark a backticked span as a repo path.
const REPO_DIRS: [&str; 7] = [
    "crates/",
    "tests/",
    "src/",
    "examples/",
    "benchmark/",
    "platforms/",
    "shims/",
];

/// Backticked repo paths of a Markdown document (fenced code blocks
/// aside), each with the `fn` it names after a `::`, if any.
fn backticked_paths(text: &str) -> Vec<(&str, Option<&str>)> {
    let mut fenced = false;
    let mut paths = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let (path, item) = match span.split_once("::") {
                Some((path, item)) => (path, Some(item)),
                None => (span, None),
            };
            let is_path = !path.contains(char::is_whitespace)
                && path.contains('/')
                && (FILE_EXTENSIONS.iter().any(|x| path.ends_with(x))
                    || REPO_DIRS.iter().any(|d| path.starts_with(d)));
            if is_path {
                paths.push((path, item));
            }
        }
    }
    paths
}

/// Docs that name a file that is gone mislead every reader after it
/// (ROADMAP item 18): a path DESIGN or README puts in backticks must exist,
/// given from the repository root (a crate-relative path such as
/// `engine/classes.rs` is ambiguous, so DESIGN writes it out in full), and
/// a `path::name` citation must name a `fn` in that file.
#[test]
fn doc_paths_exist() {
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(root().join(doc)).unwrap();
        for (path, item) in backticked_paths(&text) {
            let file = root().join(path);
            if !file.exists() {
                missing.push(format!("{doc}: `{path}` does not exist"));
            } else if let Some(name) = item {
                let source = fs::read_to_string(&file).unwrap_or_default();
                if !source.contains(&format!("fn {name}(")) {
                    missing.push(format!("{doc}: `{path}` has no `fn {name}`"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

/// This file, which names every needle below and is not searched for them.
const THIS_FILE: &str = "tests/structure.rs";

/// Every file at or under `path` (repository-relative, which must exist),
/// recursively, in sorted order, with its repository-relative path and its
/// text. `target` directories hold build and test output and are skipped.
fn files_under(path: &str) -> Vec<(String, String)> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) {
        if !path.is_dir() {
            return out.push(path.to_path_buf());
        }
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|e| e.unwrap().path())
            .filter(|p| !(p.is_dir() && p.ends_with("target")))
            .collect();
        entries.sort();
        for entry in entries {
            walk(&entry, out);
        }
    }
    let start = root().join(path);
    assert!(start.exists(), "`{path}` does not exist");
    let mut paths = Vec::new();
    walk(&start, &mut paths);
    paths
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(root()).unwrap().display().to_string();
            (rel, fs::read_to_string(&file).unwrap_or_default())
        })
        .collect()
}

/// The `path:line: text` of every line for which `hit` holds, in the files
/// at or under `paths` whose repository-relative path `searched` admits.
fn lines_where(
    paths: &[&str],
    searched: impl Fn(&str) -> bool,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut hits = Vec::new();
    for path in paths {
        for (path, text) in files_under(path) {
            if !searched(&path) {
                continue;
            }
            for (i, line) in text.lines().enumerate() {
                if hit(line) {
                    hits.push(format!("{path}:{}: {line}", i + 1));
                }
            }
        }
    }
    hits
}

/// The `path:line: text` of every line at or under `path` that contains
/// one of `needles`, outside the files in `except`.
fn lines_with(path: &str, needles: &[&str], except: &[&str]) -> Vec<String> {
    lines_where(
        &[path],
        |file| !except.contains(&file),
        |line| needles.iter().any(|n| line.contains(n)),
    )
}

/// Fails with every hit, one a line.
#[track_caller]
fn assert_no_hits(hits: Vec<String>) {
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}

/// `src` of every crate under `crates/`, in sorted order (a shell's
/// `crates/*/src`).
fn crate_sources() -> Vec<String> {
    let mut srcs: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .map(|name| format!("crates/{name}/src"))
        .filter(|src| root().join(src).is_dir())
        .collect();
    srcs.sort();
    srcs
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` contains `word` where no word character precedes it
/// (a regex `\bword`) and `then` holds for the text after it.
fn word_then(line: &str, word: &str, then: impl Fn(&str) -> bool) -> bool {
    line.match_indices(word)
        .any(|(i, _)| !line[..i].ends_with(is_word_char) && then(&line[i + word.len()..]))
}

/// Whether `rest`, the text after a match, starts at a word boundary (the
/// regex `\b` after a word character).
fn ends_word(rest: &str) -> bool {
    !rest.starts_with(is_word_char)
}

/// "The max-min system stays live". The shipped reshare writes route
/// classes into the simulation's own `lmm::Workspace`; the owned
/// `MaxMinProblem` belongs to the full-rebuild oracle
/// (`engine/oracle_tests.rs`, a `#[cfg(test)]` module) and to tests. The
/// completion calendar is addressable: nothing validates, skips or
/// compacts stale entries any more. Set when the reshare started to walk
/// live route classes (commit 30416a9).
#[test]
fn the_max_min_system_stays_live() {
    let engine = fs::read_to_string(root().join("crates/surf/src/engine.rs")).unwrap();
    assert_no_hits(lines_with(
        "crates/surf/src/engine.rs",
        &["MaxMinProblem"],
        &[],
    ));
    let lines: Vec<&str> = engine.lines().collect();
    let at = lines
        .iter()
        .position(|&l| l == "mod oracle_tests;")
        .expect("engine.rs declares `mod oracle_tests;`");
    assert_eq!(at.checked_sub(1).map(|i| lines[i]), Some("#[cfg(test)]"));
    let stale = ["compact_heap", "entry_valid", "heap_orphans +="];
    assert_no_hits(lines_with("crates/surf/src", &stale, &[]));
}

/// "The solver takes no weights". Every flow counts as one: a solver
/// variable is a flow or a folded class of them, and a constraint's member
/// count is an integer. No per-variable weight, weight sum or snap-to-zero
/// comes back. Set when the solver went over to counted unit flows
/// (commit 54d4faf).
#[test]
fn the_solver_takes_no_weights() {
    let needles = ["add_weighted_variable", "weights", "wsum_init"];
    assert_no_hits(lines_with("crates/surf/src", &needles, &[]));
}

/// "The solver fills only contended components", its source half (the
/// step's `lmm_props` and `work_ledger` runs are tier-1 tests already). A
/// one-class component is rated by `lmm::rate_alone`, and a problem no
/// constraint can saturate returns its bounds, both pinned bitwise against
/// the filling; that holds only while the λ arithmetic lives in `lmm.rs`
/// alone, so the engine computes none of its own. Set when the solver
/// stopped filling what contention does not decide (commit 7a94061).
#[test]
fn the_solver_fills_only_contended_components() {
    assert_no_hits(lines_with(
        "crates/surf/src",
        &["max(0.0) /"],
        &["crates/surf/src/lmm.rs"],
    ));
}

/// "One door for a captured trace". Only the capture modules know the
/// `TITRACE2` magic: the format sniff lives in `smpi::TraceSource::open`
/// and nowhere else, so every entry point opens a trace the same way. Set
/// when `TraceSource` replaced each caller's own trace input (commit
/// f150ee3).
#[test]
fn one_door_for_a_captured_trace() {
    assert_no_hits(lines_where(
        &["crates", "src", "examples"],
        |f| {
            f.ends_with(".rs")
                && !f.starts_with("crates/core/src/capture")
                && !f.contains("/tests/")
        },
        |l| l.contains("TIT2_MAGIC"),
    ));
}

/// "The maestro's tables are dense". `smpi::ReqId` is (rank, post index)
/// and nothing translates it. Every table keyed by an id the maestro
/// issues (request, message, fabric token, actor) is indexed, not hashed,
/// and replay keeps no map. Set when a request got one name (commit
/// b44f655) and widened to every maestro table (commit 76408d4).
#[test]
fn the_maestros_tables_are_dense() {
    let keyed_by_id = |l: &str| {
        ["HashMap<", "FastMap<", "BTreeMap<"].iter().any(|map| {
            l.match_indices(map).any(|(i, _)| {
                let key = l[i + map.len()..].trim_start();
                ["ReqId", "MsgId", "FabricToken", "ActorId"]
                    .iter()
                    .any(|id| key.strip_prefix(id).is_some_and(ends_word))
            })
        })
    };
    assert_no_hits(lines_where(&["crates/core/src"], |_| true, keyed_by_id));
    assert_no_hits(lines_with("crates/replay/src/lib.rs", &["HashMap"], &[]));
}

/// "A message body is packed once". One representation of a message body,
/// `smpi::Payload`: nothing in the core stages bytes in a `Box<[u8]>`, the
/// element-wise byte codec is called only by the module that defines
/// `Payload` (its fallback for a receive of another element type), NAS DT
/// shares its node buffers (`SharedSlice::share`) instead of cloning or
/// packing them, and scatter forwards slices of the body it received
/// instead of staging its subtree. Set when `Payload` replaced the boxed
/// byte bodies (commit aeb239c).
#[test]
fn a_message_body_is_packed_once() {
    assert_no_hits(lines_with("crates/core/src", &["Box<[u8]>"], &[]));
    let codec_call = |l: &str| {
        ["to_bytes", "from_bytes"]
            .iter()
            .any(|w| word_then(l, w, |rest| rest.starts_with('(')))
    };
    let mut paths = crate_sources();
    paths.extend(["src".into(), "examples".into()]);
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    assert_no_hits(lines_where(
        &paths,
        |f| f != "crates/core/src/datatype.rs",
        codec_call,
    ));
    let dt = "crates/workloads/src/dt.rs";
    assert_no_hits(lines_with(dt, &[".lock().clone()", "Payload::pack"], &[]));
    // Gather, the reverse, still assembles its subtree: scatter alone, from
    // its signature to gather's, may not.
    let gather = fs::read_to_string(root().join("crates/core/src/coll/gather.rs")).unwrap();
    let lines: Vec<&str> = gather.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains("pub fn scatter<"))
        .expect("gather.rs defines `pub fn scatter<`");
    let end = lines[start..]
        .iter()
        .position(|l| l.contains("pub fn gather<"))
        .map_or(lines.len(), |n| start + n + 1);
    let staged: Vec<&str> = lines[start..end]
        .iter()
        .copied()
        .filter(|l| l.contains("vec![T::default(); span * chunk]"))
        .collect();
    assert!(staged.is_empty(), "scatter stages its subtree: {staged:?}");
}

/// "Calibration carries no bytes", its source half (the step's packetnet
/// oracle and sized ping-pong runs stay in CI, in release). The SKaMPI
/// ping-pong exchanges sizes, since a transfer's timing reads only its
/// byte count, and packetnet's frame loop neither hashes nor allocates per
/// frame: a channel's flows are (transfer, hop) pairs whose frames wait in
/// the transfer, and the per-channel `HashMap` engine is the
/// `#[cfg(test)]` oracle. Set when the ping-pong stopped sending buffers
/// (commit 16de828).
#[test]
fn calibration_carries_no_bytes() {
    assert_no_hits(lines_with(
        "crates/calibration/src/pingpong.rs",
        &["vec![0u8"],
        &[],
    ));
    assert_no_hits(lines_with(
        "crates/packetnet/src/net.rs",
        &["HashMap<u32, VecDeque"],
        &[],
    ));
}

/// "One calendar for both kernels", its source half (the step's calendar
/// tests stay in CI, in release). `surf_sim::calendar` is the workspace's
/// one addressable event calendar: the flow kernel keys it per action
/// slot, packetnet per channel stream. The global (time, seq) tuple heap
/// lives only in packetnet's `#[cfg(test)]` oracle. Set when packetnet's
/// channel events moved onto the shared calendar (commit df1e191).
#[test]
fn one_calendar_for_both_kernels() {
    assert!(
        !root().join("crates/surf/src/engine/heap.rs").exists(),
        "crates/surf/src/engine/heap.rs is back"
    );
    assert_no_hits(lines_with(
        "crates/packetnet/src/net.rs",
        &["(SimTime, u64, Event)"],
        &[],
    ));
}

/// "One JSON layer". `smpi_obs::json` is the workspace's only JSON reader
/// and writer (smpi-diff re-exports its `JsonValue`), and `crates/bench`
/// regenerates the paper and nothing else: no showcase demos, no replay
/// dependency (the demos' assertions live in `crates/diff/tests/fleet.rs`
/// and the obs and replay tests). Set when the parser joined the writer
/// (commit 522ba8e).
#[test]
fn one_json_layer() {
    assert_no_hits(lines_where(
        &["crates", "src", "examples", "tests"],
        |f| f.ends_with(".rs") && !f.starts_with("crates/obs/src/") && f != THIS_FILE,
        |l| l.contains("enum JsonValue") || l.contains("struct Parser"),
    ));
    let demos: Vec<String> = files_under("crates/bench/src")
        .into_iter()
        .map(|(path, _)| path)
        .filter(|p| {
            p.strip_prefix("crates/bench/src/")
                .is_some_and(|name| !name.contains('/') && name.ends_with("_demo.rs"))
        })
        .collect();
    assert!(demos.is_empty(), "showcase demos: {demos:?}");
    assert_no_hits(lines_with("crates/bench/Cargo.toml", &["smpi-replay"], &[]));
}

/// "One platform translation". `smpi_platform::PlatformImage` is the one
/// translation of a platform into network resources, read by both
/// backends: resources and their names, routes and the perturbed
/// parameters. Routing builds one next-hop row per node on first use, and
/// the image keeps the one route store: a lock-free per-pair `Arc`, in a
/// per-source row, that both backends read. No per-run handle, no channel
/// table or route cache of packetnet's own, no per-run route map in the
/// surf fabric, no lock in the image, and perturbation factors are applied
/// only in `crates/platform/src`. Set when both backends started reading
/// one image (commit fafc8fd).
#[test]
fn one_platform_translation() {
    let sources = ["crates", "src", "examples", "tests", "benchmark"];
    assert_no_hits(lines_where(
        &sources,
        |f| f.ends_with(".rs") && f != THIS_FILE,
        |l| l.contains("Materialized"),
    ));
    assert_no_hits(lines_where(
        &["DESIGN.md", "README.md", "EXPERIMENTS.md"],
        |_| true,
        |l| l.contains("Materialized"),
    ));
    assert_no_hits(lines_with(
        "crates/packetnet/src",
        &["route_cache", "channel_of", "shared_dirs"],
        &[],
    ));
    assert_no_hits(lines_with(
        "crates/core/src/fabric.rs",
        &["FastMap<u64, Arc<[LinkId]>>"],
        &[],
    ));
    assert_no_hits(lines_with(
        "crates/platform/src/surf_bridge.rs",
        &["Mutex"],
        &[],
    ));
    let factors = ["bandwidth_factor(", "latency_factor(", "host_factor("];
    assert_no_hits(lines_where(
        &sources[..4],
        |f| f.ends_with(".rs") && !f.starts_with("crates/platform/src/") && f != THIS_FILE,
        |l| factors.iter().any(|n| l.contains(n)),
    ));
}

/// "A run's shared state is single-threaded". One simulation runs on one
/// thread (its ranks are fibers), so what its ranks share is
/// `Cell`/`RefCell` behind an `Rc`, and simix asks no `Send` of its
/// actors. Threads exist only in the sweep, one whole simulation per
/// worker, claiming scenarios from one atomic cursor. A replay's first
/// source failure is kept in an `Rc<RefCell<_>>`. Set when a run's shared
/// state moved onto its one thread (commit 74472ea).
#[test]
fn a_runs_shared_state_is_single_threaded() {
    let shared = [
        "crates/core/src/state.rs",
        "crates/core/src/sampling.rs",
        "crates/core/src/shared_mem.rs",
        "crates/core/src/comm.rs",
        "crates/obs/src/recorder.rs",
    ];
    let sync = ["Mutex", "Atomic"];
    assert_no_hits(lines_where(
        &shared,
        |_| true,
        |l| sync.iter().any(|n| l.contains(n)),
    ));
    assert_no_hits(lines_with(
        "crates/replay/src/lib.rs",
        &["mpsc", "Mutex", "Atomic"],
        &[],
    ));
    assert_no_hits(lines_with(
        "crates/simix/src/lib.rs",
        &["+ Send", ": Send"],
        &[],
    ));
    assert!(
        !root().join("crates/sweep/src/pool.rs").exists(),
        "crates/sweep/src/pool.rs is back"
    );
}

/// "Every capability has a caller". A path that nothing but its own tests
/// calls is deleted, and its names stay out of the tree: the time-series
/// sampler, the replay collective hook and the tuned / adaptive `Ctx`
/// extensions; the custom actor stack size, the replay cross-validation
/// and file-save helpers, the v2-to-v1 trace downgrade, the hop count, the
/// geometric mean and the solver's constraint count; the `TITRACE2`
/// reader's cross-cursor block cache; the sweep's on-line programs,
/// `RunReport`'s in-memory `chrome_trace` and the smpi-metrics `mod stats`
/// that only its own tests used; and the max-min solver's λ heap finder,
/// its switch price and its forcing hook and table, which paid on no
/// problem a run makes. `World::try_run` appears in the replay crate once,
/// in the stackful oracle (`replay_on_fibers`) that `tests/replay_e2e.rs`
/// compares the production path against. Set with the first of these
/// deletions (commit bfa133a) and extended with each one since.
#[test]
fn every_capability_has_a_caller() {
    let gone = [
        "TimeSeries",
        "TsInstant",
        "timeseries_tick",
        "solver_wall_ns",
        "channel_utilizations",
        "coll_hook",
        "CollSite",
        "ReplayOptions",
        "bcast_tuned",
        "scatter_tuned",
        "sample_auto",
        "with_stack_size",
        "cross_validate",
        "CrossValidation",
        "save_trace",
        "downgraded",
        "hop_count",
        "geomean",
        "num_constraints",
        "cache_hits",
        "Workload::Online",
        "Program::online",
        "fn chrome_trace(",
        "solve_heap_from",
        "HEAP_REKEY",
        "heap_round",
        "switch_round_table",
    ];
    assert_no_hits(lines_where(
        &["crates", "src", "examples", "tests"],
        |f| f != THIS_FILE,
        |l| {
            gone.iter().any(|n| l.contains(n))
                || l.match_indices("mod stats")
                    .any(|(i, _)| ends_word(&l[i + 9..]))
        },
    ));
    let replay = fs::read_to_string(root().join("crates/replay/src/lib.rs")).unwrap();
    let try_runs = replay.lines().filter(|l| l.contains("try_run(")).count();
    assert_eq!(
        try_runs, 1,
        "lines of crates/replay/src/lib.rs calling `try_run(`"
    );
}

/// "The exports re-pair nothing". The runtime records each message's
/// cross-rank edges when they happen: a `Delivered` event names its
/// `TransferStarted` and its flow record, a `TransferStarted` the late
/// receive that released it. Paje and the critical path read those
/// indices; neither keeps queues that guess the pairing FIFO per
/// (src, dst). Set when a delivery started to name its own transfer
/// (commit 09d1572).
#[test]
fn the_exports_re_pair_nothing() {
    assert_no_hits(lines_with(
        "crates/core/src/obs_export.rs",
        &["VecDeque", "flow_queues", "in_flight"],
        &[],
    ));
    assert_no_hits(lines_with(
        "crates/core/src/runtime.rs",
        &["FIFO-pairable"],
        &[],
    ));
}

/// "One unsafe file". `crates/simix/src/fiber.rs` is the workspace's only
/// unsafe code: the context switch, the stack mappings and the huge-page
/// advice behind `simix::advise_huge_pages`. The test-only counting
/// allocator (`tests/alloc/mod.rs`) is not searched. smpi stays
/// `forbid(unsafe_code)`. Set when the huge-page advice joined the fiber
/// file (commit 8cfd21d).
#[test]
fn one_unsafe_file() {
    let mut paths = crate_sources();
    paths.extend(["src".into(), "shims".into()]);
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    let unsafe_code = |l: &str| {
        word_then(l, "unsafe", |rest| {
            let rest = rest.trim_start();
            ["{", "fn", "impl", "extern"]
                .iter()
                .any(|t| rest.starts_with(t))
        })
    };
    assert_no_hits(lines_where(
        &paths,
        |f| f != "crates/simix/src/fiber.rs",
        unsafe_code,
    ));
    let core = fs::read_to_string(root().join("crates/core/src/lib.rs")).unwrap();
    assert!(
        core.lines().any(|l| l == "#![forbid(unsafe_code)]"),
        "crates/core/src/lib.rs lost `#![forbid(unsafe_code)]`"
    );
}
