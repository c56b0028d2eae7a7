//! One door for a captured trace.
//!
//! A capture reaches its consumers (replay, sweeps, diffs) either fully
//! decoded in memory — the `ti_trace` of a run report, or a `TITRACE v1`
//! text file — or on disk behind the `TITRACE2` block decoder.
//! [`TraceSource`] is that choice, made once: [`TraceSource::open`] is the
//! only code that sniffs a file's magic, and [`TraceCursor`] is the one
//! per-rank op cursor every consumer steps.

use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

use crate::capture::{TiOp, TiTrace, TraceIoError};
use crate::capture_v2::{TiOpIter, TiV2Reader, TIT2_MAGIC};

/// A captured time-independent trace, wherever it lives. Cheap to clone:
/// many replays share one trace.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Fully decoded, in memory.
    Mem(Arc<TiTrace>),
    /// A `TITRACE2` file behind its block-streaming reader: ops are decoded
    /// block by block as cursors advance, each cursor owning the block it
    /// is in, so memory is bounded by block size, not trace length.
    File(Arc<TiV2Reader>),
}

impl TraceSource {
    /// Opens a trace file, sniffing the format from the leading magic:
    /// `TITRACE2` containers stay on disk ([`TraceSource::File`]),
    /// `TITRACE v1` text is decoded ([`TraceSource::Mem`]). Both formats
    /// open here forever. Short reads, truncation and corruption are typed
    /// [`TraceIoError`]s, never panics.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceSource, TraceIoError> {
        let path = path.as_ref();
        let mut text = std::io::BufReader::new(std::fs::File::open(path)?);
        if text.fill_buf()?.starts_with(TIT2_MAGIC) {
            Ok(TraceSource::File(Arc::new(TiV2Reader::open(path)?)))
        } else {
            Ok(TraceSource::Mem(Arc::new(TiTrace::decode_from(text)?)))
        }
    }

    /// Number of ranks the trace describes.
    pub fn num_ranks(&self) -> usize {
        match self {
            TraceSource::Mem(trace) => trace.num_ranks(),
            TraceSource::File(reader) => reader.num_ranks(),
        }
    }

    /// An owning cursor over rank `rank`'s ops, in capture order.
    pub fn rank_ops(&self, rank: usize) -> TraceCursor {
        assert!(rank < self.num_ranks(), "rank {rank} out of range");
        TraceCursor(match self {
            TraceSource::Mem(trace) => Cursor::Mem {
                trace: Arc::clone(trace),
                rank,
                next: 0,
            },
            TraceSource::File(reader) => Cursor::File(reader.rank_iter(rank)),
        })
    }

    /// The whole trace in memory (a checked decode for a file).
    pub fn materialize(self) -> Result<TiTrace, TraceIoError> {
        match self {
            TraceSource::Mem(trace) => Ok(Arc::unwrap_or_clone(trace)),
            TraceSource::File(reader) => reader.materialize(),
        }
    }
}

impl From<Arc<TiTrace>> for TraceSource {
    fn from(trace: Arc<TiTrace>) -> Self {
        TraceSource::Mem(trace)
    }
}

impl From<Arc<TiV2Reader>> for TraceSource {
    fn from(reader: Arc<TiV2Reader>) -> Self {
        TraceSource::File(reader)
    }
}

/// Deep-copies the trace; share an `Arc` to avoid that.
impl From<&TiTrace> for TraceSource {
    fn from(trace: &TiTrace) -> Self {
        TraceSource::Mem(Arc::new(trace.clone()))
    }
}

/// One rank's op cursor (see [`TraceSource::rank_ops`]). A file-backed
/// cursor can fail mid-stream (i/o, block corruption): [`try_next`]
/// returns that, the [`Iterator`] impl panics on it.
///
/// [`try_next`]: TraceCursor::try_next
pub struct TraceCursor(Cursor);

enum Cursor {
    Mem {
        trace: Arc<TiTrace>,
        rank: usize,
        next: usize,
    },
    File(TiOpIter),
}

impl TraceCursor {
    /// The next op, or the failure met while fetching it.
    pub fn try_next(&mut self) -> Result<Option<TiOp>, TraceIoError> {
        match &mut self.0 {
            Cursor::Mem { trace, rank, next } => {
                let op = trace.ranks[*rank].get(*next).cloned();
                *next += usize::from(op.is_some());
                Ok(op)
            }
            Cursor::File(ops) => ops.try_next(),
        }
    }
}

/// Panics where [`TraceCursor::try_next`] returns an error.
impl Iterator for TraceCursor {
    type Item = TiOp;

    fn next(&mut self) -> Option<TiOp> {
        self.try_next()
            .unwrap_or_else(|e| panic!("trace stream failed: {e}"))
    }
}
