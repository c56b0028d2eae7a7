//! Structural rules of the source tree, checked in tier-1 with std alone:
//! each test reads files, not the simulator.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root (the suite package sits there).
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `#[cfg(test)]` items outside test modules: `#[cfg(test)]` attribute
/// lines under `crates/*/src` or `src` whose next line does not declare a
/// `mod`.
fn cfg_test_items() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        rust_files(&src, &mut files);
    }
    let mut items = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, pair) in lines.windows(2).enumerate() {
            let next = pair[1].trim_start();
            let declares_mod = ["mod ", "pub mod ", "pub(crate) mod ", "pub(super) mod "]
                .iter()
                .any(|p| next.starts_with(p));
            if pair[0].trim() == "#[cfg(test)]" && !declares_mod {
                let rel = file.strip_prefix(root()).unwrap().display();
                items.push(format!("{rel}:{}: {next}", i + 1));
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

/// Every file at or under `path` (repository-relative), recursively, in
/// sorted order, with its text and repository-relative path.
fn files_under(path: &str) -> Vec<(String, String)> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) {
        if !path.is_dir() {
            return out.push(path.to_path_buf());
        }
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for entry in entries {
            walk(&entry, out);
        }
    }
    let mut paths = Vec::new();
    walk(&root().join(path), &mut paths);
    paths
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(root()).unwrap().display().to_string();
            (rel, fs::read_to_string(&file).unwrap_or_default())
        })
        .collect()
}

/// The `path:line: text` of every line at or under `path` that contains
/// one of `needles`, outside the files in `except`.
fn lines_with(path: &str, needles: &[&str], except: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in files_under(path) {
        if except.contains(&path.as_str()) {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n)) {
                hits.push(format!("{path}:{}: {line}", i + 1));
            }
        }
    }
    hits
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
    let uses = lines_with("crates/surf/src/engine.rs", &["MaxMinProblem"], &[]);
    assert!(uses.is_empty(), "{}", uses.join("\n"));
    let lines: Vec<&str> = engine.lines().collect();
    let at = lines
        .iter()
        .position(|&l| l == "mod oracle_tests;")
        .expect("engine.rs declares `mod oracle_tests;`");
    assert_eq!(at.checked_sub(1).map(|i| lines[i]), Some("#[cfg(test)]"));
    let stale = ["compact_heap", "entry_valid", "heap_orphans +="];
    let hits = lines_with("crates/surf/src", &stale, &[]);
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}

/// "The solver takes no weights". Every flow counts as one: a solver
/// variable is a flow or a folded class of them, and a constraint's member
/// count is an integer. No per-variable weight, weight sum or snap-to-zero
/// comes back. Set when the solver went over to counted unit flows
/// (commit 54d4faf).
#[test]
fn the_solver_takes_no_weights() {
    let needles = ["add_weighted_variable", "weights", "wsum_init"];
    let hits = lines_with("crates/surf/src", &needles, &[]);
    assert!(hits.is_empty(), "{}", hits.join("\n"));
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
    let hits = lines_with(
        "crates/surf/src",
        &["max(0.0) /"],
        &["crates/surf/src/lmm.rs"],
    );
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}
