//! Structural diff of two time-independent traces.
//!
//! Aligns the per-rank op streams of two TITRACE captures (v1 text or v2
//! binary, in any combination) with the bounded-memory aligner from
//! [`crate::align`] and reports *where* they part ways: the first
//! divergent op per rank with surrounding context rendered in TITRACE op
//! syntax (via [`TiOp::line`], the format's single source of truth), plus
//! a whole-run edit summary broken down by op kind. Both sides are
//! [`TraceSource`]s, so `TITRACE2` inputs are streamed through block
//! cursors: diffing two multi-gigabyte captures holds only `O(window)` ops
//! per rank pair in memory, and a block found corrupt mid-stream is a
//! typed error.

use std::cell::RefCell;
use std::path::Path;

use smpi::{TiOp, TiTrace, TraceIoError, TraceSource};
use smpi_obs::json::JsonBuf;

use crate::align::{align_streams, AlignConfig, DivergeKind, Edit};

/// Short classifier for an op, used by the per-kind edit summary.
pub(crate) fn op_kind(op: &TiOp) -> &'static str {
    match op {
        TiOp::Compute { .. } => "compute",
        TiOp::Sleep { .. } => "sleep",
        TiOp::Send { .. } => "send",
        TiOp::Recv { .. } => "recv",
        TiOp::Wait { .. } => "wait",
        TiOp::Region { .. } => "region",
        TiOp::Coll { .. } => "coll",
    }
}

/// Per-kind edit counts (matched ops are counted too, so the summary
/// doubles as a composition profile of the compared streams).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Ops of this kind present and equal in both traces.
    pub matched: u64,
    /// Aligned-but-different op pairs (counted under trace A's kind).
    pub mutated: u64,
    /// Ops of this kind present only in trace B.
    pub added: u64,
    /// Ops of this kind present only in trace A.
    pub removed: u64,
}

impl KindCounts {
    fn edits(&self) -> u64 {
        self.mutated + self.added + self.removed
    }
}

/// The first divergent op of one rank, rendered in TITRACE op syntax.
#[derive(Debug, Clone)]
pub struct FirstDivergence {
    /// Op index (0-based) of the divergence in trace A's rank stream.
    pub index_a: u64,
    /// Op index of the divergence in trace B's rank stream.
    pub index_b: u64,
    /// `"mismatch"` when both sides have an op at the divergence point,
    /// `"tail_a"` / `"tail_b"` when one stream simply ran longer.
    pub kind: &'static str,
    /// The last matched ops before the divergence (oldest first).
    pub context: Vec<String>,
    /// Trace A's ops from the divergence point (bounded lookahead).
    pub a: Vec<String>,
    /// Trace B's ops from the divergence point.
    pub b: Vec<String>,
}

/// Alignment result for one rank pair.
#[derive(Debug, Clone)]
pub struct RankDiff {
    /// World rank.
    pub rank: usize,
    /// Ops equal in both streams.
    pub matched: u64,
    /// Aligned-but-different op pairs.
    pub mutated: u64,
    /// Ops only in B.
    pub added: u64,
    /// Ops only in A.
    pub removed: u64,
    /// Total ops in A's stream.
    pub len_a: u64,
    /// Total ops in B's stream.
    pub len_b: u64,
    /// Successful windowed resyncs.
    pub resyncs: u64,
    /// `true` when the rank's divergence exceeded the resync window.
    pub window_exhausted: bool,
    /// First divergence (`None` when the rank streams are identical).
    pub first: Option<FirstDivergence>,
}

impl RankDiff {
    /// `true` when this rank's op streams are identical.
    pub fn is_identical(&self) -> bool {
        self.first.is_none()
    }
}

/// Whole-trace diff: per-rank alignments plus aggregate edit summary.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Rank count of trace A.
    pub ranks_a: usize,
    /// Rank count of trace B.
    pub ranks_b: usize,
    /// Per-rank results, every rank of `0..max(ranks_a, ranks_b)` (a rank
    /// missing from one trace diffs against an empty stream).
    pub ranks: Vec<RankDiff>,
    /// Aggregate per-kind edit counts over all ranks, sorted by kind name.
    pub by_kind: Vec<(&'static str, KindCounts)>,
}

impl TraceDiff {
    /// `true` when both traces carry identical op streams for every rank.
    pub fn is_identical(&self) -> bool {
        self.ranks_a == self.ranks_b && self.ranks.iter().all(RankDiff::is_identical)
    }

    /// Aggregate counts over all ranks:
    /// `(matched, mutated, added, removed, resyncs)`.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0);
        for r in &self.ranks {
            t.0 += r.matched;
            t.1 += r.mutated;
            t.2 += r.added;
            t.3 += r.removed;
            t.4 += r.resyncs;
        }
        t
    }

    /// Deterministic JSON document (schema in EXPERIMENTS.md). Identical
    /// inputs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let (matched, mutated, added, removed, resyncs) = self.totals();
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("kind").str_val("trace_diff");
        j.key("identical").bool_val(self.is_identical());
        j.key("ranks_a").uint_val(self.ranks_a as u64);
        j.key("ranks_b").uint_val(self.ranks_b as u64);
        j.key("total").begin_obj();
        j.key("matched").uint_val(matched);
        j.key("mutated").uint_val(mutated);
        j.key("added").uint_val(added);
        j.key("removed").uint_val(removed);
        j.key("resyncs").uint_val(resyncs);
        j.key("window_exhausted")
            .bool_val(self.ranks.iter().any(|r| r.window_exhausted));
        j.end_obj();
        j.key("by_kind").begin_arr();
        for (kind, c) in &self.by_kind {
            if c.edits() == 0 {
                continue;
            }
            j.begin_obj();
            j.key("op").str_val(kind);
            j.key("mutated").uint_val(c.mutated);
            j.key("added").uint_val(c.added);
            j.key("removed").uint_val(c.removed);
            j.end_obj();
        }
        j.end_arr();
        j.key("ranks").begin_arr();
        for r in self.ranks.iter().filter(|r| !r.is_identical()) {
            j.begin_obj();
            j.key("rank").uint_val(r.rank as u64);
            j.key("matched").uint_val(r.matched);
            j.key("mutated").uint_val(r.mutated);
            j.key("added").uint_val(r.added);
            j.key("removed").uint_val(r.removed);
            j.key("len_a").uint_val(r.len_a);
            j.key("len_b").uint_val(r.len_b);
            j.key("resyncs").uint_val(r.resyncs);
            j.key("window_exhausted").bool_val(r.window_exhausted);
            if let Some(f) = &r.first {
                j.key("first").begin_obj();
                j.key("index_a").uint_val(f.index_a);
                j.key("index_b").uint_val(f.index_b);
                j.key("kind").str_val(f.kind);
                let arr = |j: &mut JsonBuf, key: &str, items: &[String]| {
                    j.key(key).begin_arr();
                    for it in items {
                        j.str_val(it);
                    }
                    j.end_arr();
                };
                arr(&mut j, "context", &f.context);
                arr(&mut j, "a", &f.a);
                arr(&mut j, "b", &f.b);
                j.end_obj();
            }
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Human-readable rendering: edit summary, per-kind breakdown, and the
    /// first divergent op per rank with context in TITRACE op syntax.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let (matched, mutated, added, removed, resyncs) = self.totals();
        let mut out = String::new();
        if self.is_identical() {
            let _ = writeln!(
                out,
                "trace diff: identical ({matched} ops over {} ranks)",
                self.ranks_a
            );
            return out;
        }
        let _ = writeln!(
            out,
            "trace diff: A {} ranks / {} ops, B {} ranks / {} ops",
            self.ranks_a,
            self.ranks.iter().map(|r| r.len_a).sum::<u64>(),
            self.ranks_b,
            self.ranks.iter().map(|r| r.len_b).sum::<u64>(),
        );
        let _ = writeln!(
            out,
            "edit summary: {matched} matched, {mutated} mutated, {added} added (B-only), \
             {removed} removed (A-only), {resyncs} resyncs"
        );
        for (kind, c) in self.by_kind.iter().filter(|(_, c)| c.edits() > 0) {
            let _ = writeln!(
                out,
                "  {kind:<8} {:>6} mutated {:>6} added {:>6} removed",
                c.mutated, c.added, c.removed
            );
        }
        for r in self.ranks.iter().filter(|r| !r.is_identical()) {
            let f = r.first.as_ref().expect("non-identical rank diverges");
            let _ = writeln!(
                out,
                "rank {}: first divergence at op {} (A) / op {} (B) [{}]{}",
                r.rank,
                f.index_a,
                f.index_b,
                f.kind,
                if r.window_exhausted {
                    " — resync window exhausted, streams look unrelated"
                } else {
                    ""
                }
            );
            for line in &f.context {
                let _ = writeln!(out, "      = {line}");
            }
            for line in &f.a {
                let _ = writeln!(out, "    A > {line}");
            }
            if f.a.is_empty() {
                let _ = writeln!(out, "    A > (end of stream)");
            }
            for line in &f.b {
                let _ = writeln!(out, "    B > {line}");
            }
            if f.b.is_empty() {
                let _ = writeln!(out, "    B > (end of stream)");
            }
        }
        out
    }
}

/// Diffs one rank pair, accumulating per-kind counts into `by_kind`.
fn diff_rank<IA, IB>(
    rank: usize,
    ia: IA,
    ib: IB,
    cfg: &AlignConfig,
    by_kind: &mut std::collections::BTreeMap<&'static str, KindCounts>,
) -> RankDiff
where
    IA: Iterator<Item = TiOp>,
    IB: Iterator<Item = TiOp>,
{
    let d = align_streams(ia, ib, cfg, |edit, a, b| {
        // Mutations are filed under A's kind (B's kind may differ; the
        // first-divergence rendering shows both sides verbatim).
        let kind = match (edit, a, b) {
            (Edit::InsertB, _, Some(op)) => op_kind(op),
            (_, Some(op), _) => op_kind(op),
            _ => unreachable!("every edit carries at least one op"),
        };
        let c = by_kind.entry(kind).or_default();
        match edit {
            Edit::Match => c.matched += 1,
            Edit::Mutate => c.mutated += 1,
            Edit::InsertB => c.added += 1,
            Edit::DeleteA => c.removed += 1,
        }
    });
    RankDiff {
        rank,
        matched: d.matched,
        mutated: d.mutated,
        added: d.added,
        removed: d.removed,
        len_a: d.len_a,
        len_b: d.len_b,
        resyncs: d.resyncs,
        window_exhausted: d.window_exhausted,
        first: d.first.map(|f| FirstDivergence {
            index_a: f.index_a,
            index_b: f.index_b,
            kind: match f.kind {
                DivergeKind::Mismatch => "mismatch",
                DivergeKind::TailA => "tail_a",
                DivergeKind::TailB => "tail_b",
            },
            context: f.context.iter().map(TiOp::line).collect(),
            a: f.a.iter().map(TiOp::line).collect(),
            b: f.b.iter().map(TiOp::line).collect(),
        }),
    }
}

/// The one rank loop: aligns `ops_a(rank)` with `ops_b(rank)` for every
/// rank of either side. A rank present on one side only meets an empty
/// stream (pure additions/removals).
fn diff_ranks<A, B>(
    ranks_a: usize,
    ranks_b: usize,
    mut ops_a: impl FnMut(usize) -> A,
    mut ops_b: impl FnMut(usize) -> B,
    cfg: &AlignConfig,
) -> TraceDiff
where
    A: Iterator<Item = TiOp>,
    B: Iterator<Item = TiOp>,
{
    let mut by_kind = std::collections::BTreeMap::new();
    let ranks = (0..ranks_a.max(ranks_b))
        .map(|rank| diff_rank(rank, ops_a(rank), ops_b(rank), cfg, &mut by_kind))
        .collect();
    TraceDiff {
        ranks_a,
        ranks_b,
        ranks,
        by_kind: by_kind.into_iter().collect(),
    }
}

/// Diffs two traces, wherever they live, rank by rank. Stops at the first
/// op a source fails to deliver (a `TITRACE2` block found corrupt
/// mid-stream) and returns that error.
pub(crate) fn diff_sources(
    a: &TraceSource,
    b: &TraceSource,
    cfg: &AlignConfig,
) -> Result<TraceDiff, TraceIoError> {
    // The aligner pulls plain ops: the first cursor to fail parks its error
    // here, and from then on every stream is at its end.
    let failed = RefCell::new(None);
    let ops = |source: &TraceSource, rank: usize| {
        let mut cursor = (rank < source.num_ranks()).then(|| source.rank_ops(rank));
        let failed = &failed;
        std::iter::from_fn(move || {
            if failed.borrow().is_some() {
                return None;
            }
            cursor.as_mut()?.try_next().unwrap_or_else(|e| {
                *failed.borrow_mut() = Some(e);
                None
            })
        })
    };
    let diff = diff_ranks(
        a.num_ranks(),
        b.num_ranks(),
        |r| ops(a, r),
        |r| ops(b, r),
        cfg,
    );
    failed.into_inner().map_or(Ok(diff), Err)
}

/// Diffs two materialized traces in place (no copy into a [`TraceSource`]).
pub fn diff_traces(a: &TiTrace, b: &TiTrace, cfg: &AlignConfig) -> TraceDiff {
    fn ops(t: &TiTrace, rank: usize) -> impl Iterator<Item = TiOp> + '_ {
        t.ranks
            .get(rank)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .cloned()
    }
    diff_ranks(
        a.num_ranks(),
        b.num_ranks(),
        |r| ops(a, r),
        |r| ops(b, r),
        cfg,
    )
}

/// Diffs two trace files (TITRACE v1 or v2, in any combination).
pub fn diff_trace_files(
    a: impl AsRef<Path>,
    b: impl AsRef<Path>,
    cfg: &AlignConfig,
) -> Result<TraceDiff, TraceIoError> {
    diff_sources(&TraceSource::open(a)?, &TraceSource::open(b)?, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi::WaitMode;

    fn trace() -> TiTrace {
        let rank = |r: u32| {
            vec![
                TiOp::Compute {
                    flops: 500.0 + f64::from(r),
                },
                TiOp::Send {
                    dst: (r + 1) % 3,
                    cid: 0,
                    tag: 1,
                    bytes: 1024,
                },
                TiOp::Recv {
                    src: ((r + 2) % 3) as i32,
                    cid: 0,
                    tag: 1,
                    max_bytes: 1024,
                },
                TiOp::Wait {
                    reqs: vec![0, 1],
                    mode: WaitMode::All,
                },
                TiOp::Compute { flops: 99.0 },
            ]
        };
        TiTrace {
            ranks: (0..3).map(rank).collect(),
        }
    }

    #[test]
    fn identical_traces_diff_empty() {
        let t = trace();
        let d = diff_traces(&t, &t, &AlignConfig::default());
        assert!(d.is_identical());
        assert_eq!(d.totals().0, 15);
        assert!(d.render().contains("identical"));
    }

    #[test]
    fn mutation_is_localized_and_rendered_in_op_syntax() {
        let a = trace();
        let mut b = trace();
        b.ranks[1][2] = TiOp::Recv {
            src: 0,
            cid: 0,
            tag: 9,
            max_bytes: 2048,
        };
        let d = diff_traces(&a, &b, &AlignConfig::default());
        assert!(!d.is_identical());
        assert_eq!(d.totals().1, 1, "one mutation");
        let rd = &d.ranks[1];
        let f = rd.first.as_ref().expect("rank 1 diverges");
        assert_eq!((f.index_a, f.index_b), (2, 2));
        assert!(d.ranks[0].is_identical() && d.ranks[2].is_identical());
        // Context and both sides come out in TITRACE op syntax.
        assert_eq!(f.a[0], a.ranks[1][2].line());
        assert_eq!(f.b[0], "recv 0 0 9 2048");
        let kinds: Vec<_> = d.by_kind.iter().filter(|(_, c)| c.edits() > 0).collect();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].0, "recv");
        let text = d.render();
        assert!(text.contains("rank 1: first divergence at op 2 (A) / op 2 (B)"));
        assert!(text.contains("B > recv 0 0 9 2048"));
    }

    #[test]
    fn missing_rank_diffs_against_empty_stream() {
        let a = trace();
        let b = TiTrace {
            ranks: a.ranks[..2].to_vec(),
        };
        let d = diff_traces(&a, &b, &AlignConfig::default());
        assert_eq!((d.ranks_a, d.ranks_b), (3, 2));
        assert!(!d.is_identical());
        assert_eq!(d.ranks[2].removed, 5);
        assert_eq!(d.ranks[2].first.as_ref().unwrap().kind, "tail_a");
    }

    #[test]
    fn json_is_deterministic() {
        let a = trace();
        let mut b = trace();
        b.ranks[0].insert(1, TiOp::Sleep { secs: 2.5e-6 });
        let d1 = diff_traces(&a, &b, &AlignConfig::default());
        let d2 = diff_traces(&a, &b, &AlignConfig::default());
        assert_eq!(d1.to_json(), d2.to_json());
        assert!(d1.to_json().contains("\"added\":1"));
        // Valid JSON by the workspace's parser.
        crate::JsonValue::parse(&d1.to_json()).expect("valid JSON");
    }

    #[test]
    fn file_diff_handles_mixed_v1_and_v2() {
        let t = trace();
        let dir = std::env::temp_dir().join(format!("smpi_diff_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("a.tit");
        let p2 = dir.join("b.tit2");
        std::fs::write(&p1, t.encode()).unwrap();
        std::fs::write(&p2, smpi::encode_v2(&t)).unwrap();
        let d = diff_trace_files(&p1, &p2, &AlignConfig::default()).unwrap();
        // v1 downgrades Coll ops; this trace has none, so the round trips
        // agree exactly.
        assert!(d.is_identical(), "{}", d.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_block_mid_stream_is_a_typed_error() {
        // A `TITRACE2` file whose footer is intact (it opens) but whose
        // second block carries an unknown compression tag.
        let t = trace();
        // Where rank 1's block starts: the end of the blocks of a file
        // holding rank 0's alone (same header, same first block).
        let mut w = smpi::TiV2Writer::new(Vec::new(), t.num_ranks());
        w.write_block(0, &t.ranks[0]).unwrap();
        let (one, _) = w.finish().unwrap();
        let footer_len = u64::from_le_bytes(one[one.len() - 16..one.len() - 8].try_into().unwrap());
        let second_block = one.len() - 16 - footer_len as usize;
        let mut bytes = smpi::capture_v2::encode_v2_blocks(&t, t.ranks[0].len());
        // Block header: varint(rank) varint(nops) u8(comp) ...
        bytes[second_block + 2] ^= 0xff;
        let dir = std::env::temp_dir().join(format!("smpi_diff_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.tit");
        let flipped = dir.join("flipped.tit2");
        std::fs::write(&good, t.encode()).unwrap();
        std::fs::write(&flipped, &bytes).unwrap();
        let err = diff_trace_files(&good, &flipped, &AlignConfig::default()).unwrap_err();
        assert!(matches!(err, TraceIoError::V2(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
