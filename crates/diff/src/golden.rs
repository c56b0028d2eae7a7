//! Divergence-aware golden-text assertions.
//!
//! The workspace pins its e2e reports to committed golden files. A raw
//! `assert_eq!` on two multi-kilobyte strings reports "bytes differ" and
//! leaves diagnosis to the reader; [`assert_golden`] instead aligns the
//! two texts line by line with [`crate::align`], prints the first
//! divergent line with context, and writes the full divergence JSON to
//! `target/diff/<name>.divergence.json` so CI can upload it as an
//! artifact.

use crate::align::{align_streams, AlignConfig, DivergeKind};
use smpi_obs::json::JsonBuf;

/// Line-level divergence report between an actual and a golden text.
#[derive(Debug, Clone)]
pub(crate) struct GoldenDiff {
    /// Identifier used for the artifact file name.
    pub name: String,
    /// Matched lines.
    pub matched: u64,
    /// Aligned-but-different line pairs.
    pub mutated: u64,
    /// Lines only in the actual text.
    pub added: u64,
    /// Lines only in the golden text.
    pub removed: u64,
    /// First divergent line: `(golden_line, actual_line)` 0-based indices.
    pub first: Option<(u64, u64)>,
    /// Matched context before the divergence.
    pub context: Vec<String>,
    /// Golden lines from the divergence point.
    pub want: Vec<String>,
    /// Actual lines from the divergence point.
    pub got: Vec<String>,
}

impl GoldenDiff {
    /// `true` when the texts are line-for-line identical.
    pub(crate) fn is_identical(&self) -> bool {
        self.first.is_none()
    }

    /// Deterministic JSON artifact.
    pub(crate) fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("kind").str_val("golden_diff");
        j.key("name").str_val(&self.name);
        j.key("identical").bool_val(self.is_identical());
        j.key("matched").uint_val(self.matched);
        j.key("mutated").uint_val(self.mutated);
        j.key("added").uint_val(self.added);
        j.key("removed").uint_val(self.removed);
        if let Some((iw, ig)) = self.first {
            j.key("first").begin_obj();
            j.key("golden_line").uint_val(iw);
            j.key("actual_line").uint_val(ig);
            let arr = |j: &mut JsonBuf, key: &str, items: &[String]| {
                j.key(key).begin_arr();
                for it in items {
                    j.str_val(it);
                }
                j.end_arr();
            };
            arr(&mut j, "context", &self.context);
            arr(&mut j, "golden", &self.want);
            arr(&mut j, "actual", &self.got);
            j.end_obj();
        }
        j.end_obj();
        j.finish()
    }

    /// Human-readable divergence report (what the failing assert prints).
    pub(crate) fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "golden {:?} diverged: {} matched, {} mutated, {} added, {} removed lines",
            self.name, self.matched, self.mutated, self.added, self.removed
        );
        if let Some((iw, ig)) = self.first {
            let _ = writeln!(
                out,
                "first divergence at golden line {} / actual line {}:",
                iw + 1,
                ig + 1
            );
            for l in &self.context {
                let _ = writeln!(out, "       = {l}");
            }
            for l in &self.want {
                let _ = writeln!(out, "  want > {l}");
            }
            if self.want.is_empty() {
                let _ = writeln!(out, "  want > (end of golden)");
            }
            for l in &self.got {
                let _ = writeln!(out, "   got > {l}");
            }
            if self.got.is_empty() {
                let _ = writeln!(out, "   got > (end of actual)");
            }
        }
        out
    }
}

/// Aligns `got` against the golden `want` line by line.
pub(crate) fn diff_golden(name: &str, want: &str, got: &str) -> GoldenDiff {
    let cfg = AlignConfig {
        context: 2,
        ..AlignConfig::default()
    };
    let d = align_streams(
        want.lines().map(str::to_string),
        got.lines().map(str::to_string),
        &cfg,
        |_, _, _| {},
    );
    GoldenDiff {
        name: name.to_string(),
        matched: d.matched,
        mutated: d.mutated,
        added: d.added,
        removed: d.removed,
        first: d.first.as_ref().map(|f| (f.index_a, f.index_b)),
        context: d
            .first
            .as_ref()
            .map(|f| f.context.clone())
            .unwrap_or_default(),
        want: d
            .first
            .as_ref()
            .filter(|f| f.kind != DivergeKind::TailB)
            .map(|f| f.a.clone())
            .unwrap_or_default(),
        got: d
            .first
            .as_ref()
            .filter(|f| f.kind != DivergeKind::TailA)
            .map(|f| f.b.clone())
            .unwrap_or_default(),
    }
}

/// Compares `got` against the golden `want`. On divergence, writes
/// `target/diff/<name>.divergence.json` and panics with the line-level
/// divergence report instead of a raw byte mismatch. An exact match (the
/// entire strings, not just their lines) passes silently.
pub fn assert_golden(name: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    let d = diff_golden(name, want, got);
    let dir = std::path::Path::new("target/diff");
    let artifact = dir.join(format!("{name}.divergence.json"));
    let wrote = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&artifact, d.to_json()))
        .is_ok();
    let mut msg = d.render();
    if d.is_identical() {
        // Same lines, different bytes: only line terminators can differ.
        msg.push_str("texts differ only in line endings / trailing newline\n");
    }
    if wrote {
        msg.push_str(&format!("full report: {}\n", artifact.display()));
    }
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_passes() {
        assert_golden("same", "a\nb\n", "a\nb\n");
    }

    #[test]
    fn divergence_names_the_first_line() {
        let d = diff_golden("t", "a\nb\nc\n", "a\nX\nc\n");
        assert!(!d.is_identical());
        assert_eq!(d.first, Some((1, 1)));
        assert_eq!(d.mutated, 1);
        let r = d.render();
        assert!(r.contains("first divergence at golden line 2 / actual line 2"));
        assert!(r.contains("want > b"));
        assert!(r.contains("got > X"));
        crate::JsonValue::parse(&d.to_json()).expect("valid JSON");
    }

    #[test]
    #[should_panic(expected = "first divergence at golden line 2")]
    fn assert_panics_with_line_report() {
        assert_golden("panic_case", "a\nb\n", "a\nB\n");
    }
}
