//! Bounded-memory alignment of two item streams.
//!
//! The engine behind every diff layer in this crate: trace diffs align
//! per-rank [`smpi::TiOp`] streams, golden-text diffs align report lines.
//! Both sides are plain iterators, so a stream can come from a
//! materialized `Vec`, a [`smpi::TiV2Reader`] block cursor, or a line
//! splitter — the aligner never holds more than `2 × window + run`
//! items at once.
//!
//! The algorithm is a windowed resync: while the streams agree, items are
//! consumed pairwise (the exact-match fast path — O(1) memory, no
//! buffering beyond one item per side). On the first disagreement the
//! aligner buffers up to [`AlignConfig::window`] items per side and
//! searches for the *cheapest* realignment — the offset pair `(da, db)`
//! minimizing `da + db` such that [`AlignConfig::run`] consecutive items
//! match again. The skipped prefix is classified deterministically:
//! `min(da, db)` pairs become mutations, the excess becomes insertions
//! (present only in `b`) or deletions (present only in `a`). If no
//! realignment exists inside the window the aligner degrades to pairwise
//! draining and reports [`StreamDiff::window_exhausted`], so callers can
//! distinguish "small local edit" from "the streams are unrelated".
//!
//! Everything is deterministic: same inputs, same configuration — same
//! edits, same counts, byte-identical downstream JSON.

use std::collections::VecDeque;

/// Tuning for `align_streams`.
#[derive(Debug, Clone)]
pub struct AlignConfig {
    /// Maximum items buffered per side while searching for a resync point.
    pub window: usize,
    /// Consecutive matches required to declare the streams realigned.
    pub run: usize,
    /// Matched items of leading context kept for the first divergence, and
    /// lookahead items reported from each side at the divergence point.
    pub context: usize,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            window: 64,
            run: 3,
            context: 3,
        }
    }
}

/// Classification of one aligned item (or item pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edit {
    /// Present and equal in both streams.
    Match,
    /// Present in both streams at aligned positions, but different.
    Mutate,
    /// Present only in stream `b` (inserted).
    InsertB,
    /// Present only in stream `a` (deleted).
    DeleteA,
}

/// How the first divergence between the streams presented itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DivergeKind {
    /// Both streams had an item at the divergence point, and they differ.
    Mismatch,
    /// Stream `a` ended while `b` still had items.
    TailB,
    /// Stream `b` ended while `a` still had items.
    TailA,
}

/// The first point where the two streams stopped agreeing, with context.
#[derive(Debug, Clone)]
pub(crate) struct Divergence<T> {
    /// 0-based index of the diverging item in stream `a`.
    pub index_a: u64,
    /// 0-based index of the diverging item in stream `b`.
    pub index_b: u64,
    /// What shape the divergence took.
    pub kind: DivergeKind,
    /// The last matched items before the divergence (oldest first).
    pub context: Vec<T>,
    /// Up to [`AlignConfig::context`] items of stream `a` from the
    /// divergence point (empty for `DivergeKind::TailB`).
    pub a: Vec<T>,
    /// Up to [`AlignConfig::context`] items of stream `b` from the
    /// divergence point (empty for `DivergeKind::TailA`).
    pub b: Vec<T>,
}

/// Aggregate result of aligning two streams.
#[derive(Debug, Clone)]
pub(crate) struct StreamDiff<T> {
    /// First divergence, `None` when the streams are identical.
    pub first: Option<Divergence<T>>,
    /// Items present and equal in both streams.
    pub matched: u64,
    /// Aligned-but-different item pairs.
    pub mutated: u64,
    /// Items present only in stream `b`.
    pub added: u64,
    /// Items present only in stream `a`.
    pub removed: u64,
    /// Total items consumed from stream `a`.
    pub len_a: u64,
    /// Total items consumed from stream `b`.
    pub len_b: u64,
    /// Number of successful windowed resyncs after a divergence.
    pub resyncs: u64,
    /// `true` when some divergence exceeded the resync window and the
    /// aligner fell back to pairwise draining (edit counts are then an
    /// upper bound, not a minimal edit script).
    pub window_exhausted: bool,
}

impl<T> Default for StreamDiff<T> {
    fn default() -> Self {
        StreamDiff {
            first: None,
            matched: 0,
            mutated: 0,
            added: 0,
            removed: 0,
            len_a: 0,
            len_b: 0,
            resyncs: 0,
            window_exhausted: false,
        }
    }
}

/// One stream side: a lookahead buffer over an iterator, counting consumed
/// items so divergence indices are exact even deep into the stream.
struct Feed<T, I: Iterator<Item = T>> {
    buf: VecDeque<T>,
    it: I,
    done: bool,
    consumed: u64,
}

impl<T, I: Iterator<Item = T>> Feed<T, I> {
    fn new(it: I) -> Self {
        Feed {
            buf: VecDeque::new(),
            it,
            done: false,
            consumed: 0,
        }
    }

    /// Ensures up to `n` items are buffered (fewer if the stream ends).
    fn fill(&mut self, n: usize) {
        while self.buf.len() < n && !self.done {
            match self.it.next() {
                Some(x) => self.buf.push_back(x),
                None => self.done = true,
            }
        }
    }

    fn next(&mut self) -> Option<T> {
        self.fill(1);
        let x = self.buf.pop_front();
        if x.is_some() {
            self.consumed += 1;
        }
        x
    }

    fn peek(&mut self) -> Option<&T> {
        self.fill(1);
        self.buf.front()
    }
}

/// Aligns two streams, classifying every item through `sink` and returning
/// the aggregate [`StreamDiff`]. `sink` receives, in stream order, each
/// edit with the participating item from each side ([`Edit::Match`] and
/// [`Edit::Mutate`] carry both; insertions/deletions carry one).
pub(crate) fn align_streams<T, IA, IB, S>(
    a: IA,
    b: IB,
    cfg: &AlignConfig,
    mut sink: S,
) -> StreamDiff<T>
where
    T: PartialEq + Clone,
    IA: Iterator<Item = T>,
    IB: Iterator<Item = T>,
    S: FnMut(Edit, Option<&T>, Option<&T>),
{
    let mut fa = Feed::new(a);
    let mut fb = Feed::new(b);
    let mut out = StreamDiff::default();
    let mut ctx: VecDeque<T> = VecDeque::new();

    loop {
        match (fa.peek().is_some(), fb.peek().is_some()) {
            (false, false) => break,
            (true, false) => {
                // Stream b ended: everything left in a is a deletion.
                if out.first.is_none() {
                    out.first = Some(capture_divergence(
                        &mut fa,
                        &mut fb,
                        DivergeKind::TailA,
                        &ctx,
                        cfg,
                    ));
                }
                while let Some(x) = fa.next() {
                    sink(Edit::DeleteA, Some(&x), None);
                    out.removed += 1;
                }
                break;
            }
            (false, true) => {
                if out.first.is_none() {
                    out.first = Some(capture_divergence(
                        &mut fa,
                        &mut fb,
                        DivergeKind::TailB,
                        &ctx,
                        cfg,
                    ));
                }
                while let Some(y) = fb.next() {
                    sink(Edit::InsertB, None, Some(&y));
                    out.added += 1;
                }
                break;
            }
            (true, true) => {
                if fa.peek() == fb.peek() {
                    let x = fa.next().expect("peeked");
                    let y = fb.next().expect("peeked");
                    sink(Edit::Match, Some(&x), Some(&y));
                    out.matched += 1;
                    if cfg.context > 0 {
                        if ctx.len() == cfg.context {
                            ctx.pop_front();
                        }
                        ctx.push_back(x);
                    }
                } else {
                    if out.first.is_none() {
                        out.first = Some(capture_divergence(
                            &mut fa,
                            &mut fb,
                            DivergeKind::Mismatch,
                            &ctx,
                            cfg,
                        ));
                    }
                    resync(&mut fa, &mut fb, cfg, &mut out, &mut sink);
                    if out.window_exhausted {
                        // resync() already drained both streams.
                        break;
                    }
                }
            }
        }
    }

    out.len_a = fa.consumed;
    out.len_b = fb.consumed;
    out
}

/// Snapshots the divergence point: indices, trailing matched context and a
/// bounded lookahead from each side.
fn capture_divergence<T, IA, IB>(
    fa: &mut Feed<T, IA>,
    fb: &mut Feed<T, IB>,
    kind: DivergeKind,
    ctx: &VecDeque<T>,
    cfg: &AlignConfig,
) -> Divergence<T>
where
    T: PartialEq + Clone,
    IA: Iterator<Item = T>,
    IB: Iterator<Item = T>,
{
    fa.fill(cfg.context);
    fb.fill(cfg.context);
    Divergence {
        index_a: fa.consumed,
        index_b: fb.consumed,
        kind,
        context: ctx.iter().cloned().collect(),
        a: fa.buf.iter().take(cfg.context).cloned().collect(),
        b: fb.buf.iter().take(cfg.context).cloned().collect(),
    }
}

/// Windowed resync after a mismatch. On success, classifies the skipped
/// prefixes and returns with the matching run still unconsumed (the main
/// loop's fast path eats it). On window exhaustion, drains both streams
/// pairwise and sets [`StreamDiff::window_exhausted`].
fn resync<T, IA, IB, S>(
    fa: &mut Feed<T, IA>,
    fb: &mut Feed<T, IB>,
    cfg: &AlignConfig,
    out: &mut StreamDiff<T>,
    sink: &mut S,
) where
    T: PartialEq + Clone,
    IA: Iterator<Item = T>,
    IB: Iterator<Item = T>,
    S: FnMut(Edit, Option<&T>, Option<&T>),
{
    fa.fill(cfg.window);
    fb.fill(cfg.window);
    let la = fa.buf.len();
    let lb = fb.buf.len();

    // Does skipping `da` items of a and `db` of b realign the streams?
    // Requires `run` consecutive matches (clamped at stream ends); an
    // empty remainder on both sides also counts, but only when both
    // streams are really exhausted (buffer shorter than the window).
    let check = |fa: &Feed<T, IA>, fb: &Feed<T, IB>, da: usize, db: usize| -> bool {
        let ra = la - da;
        let rb = lb - db;
        let need = cfg.run.min(ra).min(rb);
        if need == 0 {
            return ra == 0 && rb == 0 && fa.done && fb.done;
        }
        (0..need).all(|i| fa.buf[da + i] == fb.buf[db + i])
    };

    let mut found: Option<(usize, usize)> = None;
    'search: for s in 1..=(la + lb) {
        // da descending would also be deterministic; ascending prefers
        // classifying the edit as an insertion in b on exact ties.
        for da in 0..=s.min(la) {
            let db = s - da;
            if db > lb {
                continue;
            }
            if check(fa, fb, da, db) {
                found = Some((da, db));
                break 'search;
            }
        }
    }

    match found {
        Some((da, db)) => {
            let paired = da.min(db);
            for _ in 0..paired {
                let x = fa.next().expect("buffered");
                let y = fb.next().expect("buffered");
                sink(Edit::Mutate, Some(&x), Some(&y));
                out.mutated += 1;
            }
            for _ in 0..da - paired {
                let x = fa.next().expect("buffered");
                sink(Edit::DeleteA, Some(&x), None);
                out.removed += 1;
            }
            for _ in 0..db - paired {
                let y = fb.next().expect("buffered");
                sink(Edit::InsertB, None, Some(&y));
                out.added += 1;
            }
            out.resyncs += 1;
        }
        None => {
            out.window_exhausted = true;
            loop {
                match (fa.next(), fb.next()) {
                    (Some(x), Some(y)) => {
                        if x == y {
                            sink(Edit::Match, Some(&x), Some(&y));
                            out.matched += 1;
                        } else {
                            sink(Edit::Mutate, Some(&x), Some(&y));
                            out.mutated += 1;
                        }
                    }
                    (Some(x), None) => {
                        sink(Edit::DeleteA, Some(&x), None);
                        out.removed += 1;
                    }
                    (None, Some(y)) => {
                        sink(Edit::InsertB, None, Some(&y));
                        out.added += 1;
                    }
                    (None, None) => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(a: &[&str], b: &[&str]) -> StreamDiff<String> {
        align_streams(
            a.iter().map(|s| s.to_string()),
            b.iter().map(|s| s.to_string()),
            &AlignConfig::default(),
            |_, _, _| {},
        )
    }

    #[test]
    fn identical_streams_are_identical() {
        let d = diff(&["x", "y", "z"], &["x", "y", "z"]);
        assert!(d.first.is_none());
        assert_eq!((d.matched, d.mutated, d.added, d.removed), (3, 0, 0, 0));
    }

    #[test]
    fn empty_streams_are_identical() {
        let d = diff(&[], &[]);
        assert!(d.first.is_none());
        assert_eq!((d.matched, d.mutated, d.added, d.removed), (0, 0, 0, 0));
        assert_eq!((d.len_a, d.len_b), (0, 0));
    }

    #[test]
    fn single_mutation_is_one_mutate() {
        let d = diff(&["a", "b", "c", "d", "e"], &["a", "b", "X", "d", "e"]);
        assert_eq!((d.matched, d.mutated, d.added, d.removed), (4, 1, 0, 0));
        let f = d.first.expect("diverged");
        assert_eq!((f.index_a, f.index_b), (2, 2));
        assert_eq!(f.kind, DivergeKind::Mismatch);
        assert_eq!(f.context, vec!["a", "b"]);
        assert_eq!(f.a, vec!["c", "d", "e"]);
        assert_eq!(f.b, vec!["X", "d", "e"]);
    }

    #[test]
    fn single_insertion_is_one_insert() {
        let d = diff(&["a", "b", "c", "d"], &["a", "X", "b", "c", "d"]);
        assert_eq!((d.matched, d.mutated, d.added, d.removed), (4, 0, 1, 0));
        assert_eq!(d.first.expect("diverged").index_a, 1);
    }

    #[test]
    fn single_deletion_is_one_delete() {
        let d = diff(&["a", "b", "c", "d"], &["a", "c", "d"]);
        assert_eq!((d.matched, d.mutated, d.added, d.removed), (3, 0, 0, 1));
        assert_eq!(d.first.expect("diverged").index_a, 1);
    }

    #[test]
    fn tail_extension_is_counted_as_added() {
        let d = diff(&["a"], &["a", "b", "c"]);
        assert_eq!((d.matched, d.added), (1, 2));
        let f = d.first.expect("diverged");
        assert_eq!(f.kind, DivergeKind::TailB);
        assert_eq!((f.index_a, f.index_b), (1, 1));
    }

    #[test]
    fn length_accounting_always_balances() {
        let cases: &[(&[&str], &[&str])] = &[
            (&["a", "b", "c"], &["a", "q", "c", "d"]),
            (&["a", "b"], &["c", "d"]),
            (&[], &["x"]),
            (&["x", "y", "z"], &[]),
        ];
        for (a, b) in cases {
            let d = diff(a, b);
            assert_eq!(d.matched + d.mutated + d.removed, d.len_a);
            assert_eq!(d.matched + d.mutated + d.added, d.len_b);
            assert_eq!(d.len_a, a.len() as u64);
            assert_eq!(d.len_b, b.len() as u64);
        }
    }

    #[test]
    fn unrelated_streams_exhaust_the_window() {
        let a: Vec<String> = (0..200).map(|i| format!("a{i}")).collect();
        let b: Vec<String> = (0..180).map(|i| format!("b{i}")).collect();
        let d = align_streams(
            a.into_iter(),
            b.into_iter(),
            &AlignConfig::default(),
            |_, _, _| {},
        );
        assert!(d.window_exhausted);
        assert_eq!(d.mutated, 180);
        assert_eq!(d.removed, 20);
        assert_eq!(d.matched + d.mutated + d.removed, 200);
    }

    #[test]
    fn sink_sees_every_item_in_order() {
        let mut log = Vec::new();
        align_streams(
            ["a", "b", "c"].into_iter(),
            ["a", "x", "c"].into_iter(),
            &AlignConfig::default(),
            |e, x, y| log.push((e, x.copied(), y.copied())),
        );
        assert_eq!(
            log,
            vec![
                (Edit::Match, Some("a"), Some("a")),
                (Edit::Mutate, Some("b"), Some("x")),
                (Edit::Match, Some("c"), Some("c")),
            ]
        );
    }
}
