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
