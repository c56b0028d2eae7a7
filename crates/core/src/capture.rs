//! Time-independent trace capture (the input format of `smpi-replay`).
//!
//! An on-line run executes the application for real; a *time-independent*
//! trace strips everything timing-related from what it did, leaving only
//! the per-rank sequence of simulation-relevant actions: compute bursts
//! (flops), point-to-point posts (ranks, tags, byte counts) and the wait
//! operations that order them. No timestamps are recorded — timestamps are
//! precisely what replaying against a *different* platform or network
//! model must be free to change. This is the trace-replay methodology of
//! the off-line simulators surveyed in §2 of the paper, driven here by the
//! on-line runtime: execute once, re-simulate cheaply forever.
//!
//! The format is captured at the simcall boundary, so it is exact by
//! construction: whatever stream of events the maestro timed on-line is
//! what the replay engine re-issues off-line. Requests are identified by
//! their per-rank post index — the runtime's own name for a request
//! ([`crate::runtime::ReqId::post`]), so a wait arrives here already
//! carrying the indices it is written with — which the replayer reproduces
//! by re-posting in the same order.
//!
//! [`TiTrace::encode`]/[`TiTrace::decode`] implement a versioned,
//! line-oriented text codec (`TITRACE v1`). Floating-point values are
//! written with Rust's shortest-round-trip formatting, so
//! encode → decode → encode is byte-identical.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::runtime::WaitMode;

/// One time-independent action of a rank.
#[derive(Debug, Clone, PartialEq)]
pub enum TiOp {
    /// A compute burst of `flops` on the rank's host.
    Compute {
        /// Amount of work.
        flops: f64,
    },
    /// A pure simulated delay (e.g. a replayed `SMPI_SAMPLE` mean).
    Sleep {
        /// Seconds of simulated delay.
        secs: f64,
    },
    /// A posted send. The payload is dropped — only its size matters for
    /// timing, exactly as in §3.2's data-less messages.
    Send {
        /// Destination world rank.
        dst: u32,
        /// Context id of the communicator.
        cid: u32,
        /// Message tag.
        tag: i32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A posted receive.
    Recv {
        /// Source world rank, or [`crate::runtime::ANY_SOURCE`].
        src: i32,
        /// Context id.
        cid: u32,
        /// Tag, or [`crate::runtime::ANY_TAG`].
        tag: i32,
        /// Receive buffer capacity in bytes.
        max_bytes: u64,
    },
    /// A wait/test over previously posted requests, identified by their
    /// 0-based per-rank post index.
    Wait {
        /// Post indices of the waited requests, in application order.
        reqs: Vec<u32>,
        /// Blocking behaviour.
        mode: WaitMode,
    },
    /// Entry/exit of a named observability region (collective algorithm
    /// annotations). Zero simulated cost; kept so replayed runs carry the
    /// same region timelines as on-line runs.
    Region {
        /// Region name (no whitespace).
        name: String,
        /// `true` on entry, `false` on exit.
        enter: bool,
    },
    /// A collective operation recorded as a *logical* op. The capture layer
    /// synthesizes one from each outermost collective region: the `span`
    /// ops that follow (through the matching region exit) are the traffic
    /// the on-line run's algorithm choice produced, and `algo` names that
    /// choice. The replayer plays the span faithfully; `span` and `posts`
    /// delimit it, so a trace records where each collective's traffic
    /// starts and ends.
    Coll {
        /// Collective name (`allreduce`, `bcast`, ...).
        name: String,
        /// Algorithm variant chosen on-line (empty when unannotated).
        algo: String,
        /// Number of following ops, up to and including the closing
        /// region exit, that implement this collective.
        span: u32,
        /// Send/recv posts among those ops.
        posts: u32,
    },
}

impl TiOp {
    /// Renders the op as its `TITRACE v1` body line (no trailing newline).
    /// This is the single source of truth for op syntax: the trace encoder
    /// and the flight recorder's postmortem rendering both go through it.
    pub fn line(&self) -> String {
        match self {
            TiOp::Compute { flops } => format!("compute {flops}"),
            TiOp::Sleep { secs } => format!("sleep {secs}"),
            TiOp::Send {
                dst,
                cid,
                tag,
                bytes,
            } => format!("send {dst} {cid} {tag} {bytes}"),
            TiOp::Recv {
                src,
                cid,
                tag,
                max_bytes,
            } => format!("recv {src} {cid} {tag} {max_bytes}"),
            TiOp::Wait { reqs, mode } => {
                let mut out = format!("wait {}", mode_name(*mode));
                for i in reqs {
                    let _ = write!(out, " {i}");
                }
                out
            }
            TiOp::Region { name, enter } => {
                assert!(
                    !name.is_empty() && !name.contains(char::is_whitespace),
                    "region names must be non-empty and whitespace-free: {name:?}"
                );
                format!("region {} {name}", if *enter { "+" } else { "-" })
            }
            TiOp::Coll {
                name,
                algo,
                span,
                posts,
            } => {
                let algo = if algo.is_empty() { "-" } else { algo };
                format!("coll {name} {algo} {span} {posts}")
            }
        }
    }

    /// Renders the op for the `TITRACE v1` text format. Identical to
    /// [`line`](Self::line) except that logical collectives degrade to their
    /// v1 spelling (`region + <name>`): v1 predates [`TiOp::Coll`], and a
    /// trace captured today must still encode byte-identically to the v1
    /// goldens. The annotation survives only in the v2 binary format.
    pub(crate) fn v1_line(&self) -> String {
        match self {
            TiOp::Coll { name, .. } => TiOp::Region {
                name: name.clone(),
                enter: true,
            }
            .line(),
            other => other.line(),
        }
    }
}

/// A captured time-independent trace: one op sequence per world rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TiTrace {
    /// `ranks[r]` is rank r's action sequence.
    pub ranks: Vec<Vec<TiOp>>,
}

/// Aggregate numbers over a trace (for reports and sanity checks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TiSummary {
    /// Total ops across all ranks.
    pub ops: usize,
    /// Number of send posts.
    pub sends: usize,
    /// Total bytes posted by sends.
    pub send_bytes: u64,
    /// Number of receive posts.
    pub recvs: usize,
    /// Number of wait/test ops.
    pub waits: usize,
    /// Total flops of compute bursts.
    pub flops: f64,
}

/// Decode failure: the line (1-based) and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct TiDecodeError {
    /// 1-based line number of the offending line (0 for truncation).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TiDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace decode error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TiDecodeError {}

pub(crate) fn mode_name(mode: WaitMode) -> &'static str {
    match mode {
        WaitMode::All => "all",
        WaitMode::Any => "any",
        WaitMode::Some => "some",
        WaitMode::Poll => "poll",
    }
}

fn mode_parse(s: &str) -> Option<WaitMode> {
    match s {
        "all" => Some(WaitMode::All),
        "any" => Some(WaitMode::Any),
        "some" => Some(WaitMode::Some),
        "poll" => Some(WaitMode::Poll),
        _ => None,
    }
}

impl TiTrace {
    /// Number of ranks in the trace.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Estimated bytes the decoded ops occupy in memory, with the per-op
    /// cost the `TITRACE2` reader's residency counter charges a block.
    pub fn decoded_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|op| op_cost(op) as u64)
            .sum()
    }

    /// Aggregate statistics over every rank's op sequence.
    pub fn summary(&self) -> TiSummary {
        let mut s = TiSummary::default();
        for ops in &self.ranks {
            s.ops += ops.len();
            for op in ops {
                match op {
                    TiOp::Send { bytes, .. } => {
                        s.sends += 1;
                        s.send_bytes += bytes;
                    }
                    TiOp::Recv { .. } => s.recvs += 1,
                    TiOp::Wait { .. } => s.waits += 1,
                    TiOp::Compute { flops } => s.flops += flops,
                    _ => {}
                }
            }
        }
        s
    }

    /// Serializes the trace in the versioned `TITRACE v1` text format.
    ///
    /// Floats use Rust's shortest-round-trip `Display`, so the codec is
    /// lossless and re-encoding a decoded trace reproduces the input
    /// byte for byte. Logical collectives are written in their v1 spelling
    /// (see `TiOp::v1_line`), so v1 output is stable across the v2
    /// capture changes.
    pub fn encode(&self) -> String {
        let mut buf = Vec::new();
        self.encode_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("TITRACE v1 is ASCII")
    }

    /// Streams the `TITRACE v1` text format into `w` without building the
    /// whole document in memory. Wrap files in a
    /// [`std::io::BufWriter`] — the encoder issues one write per line.
    pub(crate) fn encode_to(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "TITRACE v1")?;
        writeln!(w, "ranks {}", self.ranks.len())?;
        for (r, ops) in self.ranks.iter().enumerate() {
            writeln!(w, "rank {r} {}", ops.len())?;
            for op in ops {
                writeln!(w, "{}", op.v1_line())?;
            }
            writeln!(w, "end")?;
        }
        Ok(())
    }

    /// Parses a `TITRACE v1` document produced by [`encode`](Self::encode).
    pub fn decode(text: &str) -> Result<TiTrace, TiDecodeError> {
        TiTrace::decode_from(std::io::Cursor::new(text)).map_err(|e| match e {
            TraceIoError::Format(e) => e,
            TraceIoError::Io(e) => TiDecodeError {
                line: 0,
                message: format!("i/o error reading in-memory text: {e}"),
            },
            TraceIoError::V2(e) => TiDecodeError {
                line: 0,
                message: format!("unexpected v2 error: {e}"),
            },
        })
    }

    /// Streams a `TITRACE v1` document out of a [`std::io::BufRead`],
    /// decoding line by line (no whole-file string). Short reads and
    /// malformed lines surface as typed [`TraceIoError`]s, never panics.
    pub(crate) fn decode_from(r: impl std::io::BufRead) -> Result<TiTrace, TraceIoError> {
        let err =
            |line: usize, message: String| TraceIoError::Format(TiDecodeError { line, message });
        let mut lines = r.lines().enumerate();
        let mut next = || -> Result<Option<(usize, String)>, TraceIoError> {
            match lines.next() {
                None => Ok(None),
                Some((i, Ok(l))) => Ok(Some((i + 1, l))),
                Some((_, Err(e))) => Err(TraceIoError::Io(e)),
            }
        };

        let (ln, header) = next()?.ok_or_else(|| err(0, "empty document".into()))?;
        if header.trim_end() != "TITRACE v1" {
            return Err(err(
                ln,
                format!("bad header {header:?} (expected \"TITRACE v1\")"),
            ));
        }
        let (ln, ranks_line) = next()?.ok_or_else(|| err(0, "missing ranks line".into()))?;
        let nranks: usize = ranks_line
            .strip_prefix("ranks ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| err(ln, format!("bad ranks line {ranks_line:?}")))?;

        // Capacity hints are clamped: a corrupted count must yield a decode
        // error further down, not an absurd up-front allocation.
        let mut ranks = Vec::with_capacity(nranks.min(1 << 16));
        for r in 0..nranks {
            let (ln, rank_line) = next()?.ok_or_else(|| err(0, format!("missing rank {r}")))?;
            let mut head = rank_line.split_whitespace();
            let (kw, idx, nops) = (head.next(), head.next(), head.next());
            if kw != Some("rank") || idx != Some(&r.to_string()) {
                return Err(err(
                    ln,
                    format!("expected \"rank {r} <nops>\", got {rank_line:?}"),
                ));
            }
            let nops: usize = nops
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(ln, format!("bad op count in {rank_line:?}")))?;
            let mut ops = Vec::with_capacity(nops.min(1 << 20));
            for _ in 0..nops {
                let (ln, line) = next()?.ok_or_else(|| err(0, format!("rank {r} truncated")))?;
                ops.push(decode_op(&line).map_err(|m| err(ln, m))?);
            }
            let (ln, end) = next()?.ok_or_else(|| err(0, format!("rank {r} missing end")))?;
            if end.trim_end() != "end" {
                return Err(err(ln, format!("expected \"end\", got {end:?}")));
            }
            ranks.push(ops);
        }
        if let Some((ln, extra)) = next()? {
            return Err(err(ln, format!("trailing content {extra:?}")));
        }
        Ok(TiTrace { ranks })
    }
}

/// Unified error for streaming trace i/o: an underlying [`std::io::Error`],
/// a `TITRACE v1` format error, or a `TITRACE2` format error. This is what
/// [`crate::TraceSource::open`] and every trace cursor return — a typed
/// error for short reads and corruption instead of a panic.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The bytes parsed as `TITRACE v1` but were malformed.
    Format(TiDecodeError),
    /// The bytes parsed as `TITRACE2` but were malformed.
    V2(crate::capture_v2::TiV2Error),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Format(e) => write!(f, "{e}"),
            TraceIoError::V2(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(e) => Some(e),
            TraceIoError::V2(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<TiDecodeError> for TraceIoError {
    fn from(e: TiDecodeError) -> Self {
        TraceIoError::Format(e)
    }
}

impl From<crate::capture_v2::TiV2Error> for TraceIoError {
    fn from(e: crate::capture_v2::TiV2Error) -> Self {
        TraceIoError::V2(e)
    }
}

fn decode_op(line: &str) -> Result<TiOp, String> {
    let mut parts = line.split_whitespace();
    let kw = parts.next().ok_or_else(|| "blank line".to_string())?;
    let mut field = |what: &str| -> Result<&str, String> {
        parts.next().ok_or_else(|| format!("{kw}: missing {what}"))
    };
    fn num<T: std::str::FromStr>(kw: &str, what: &str, s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{kw}: bad {what} {s:?}"))
    }
    let op = match kw {
        "compute" => TiOp::Compute {
            flops: num(kw, "flops", field("flops")?)?,
        },
        "sleep" => TiOp::Sleep {
            secs: num(kw, "secs", field("secs")?)?,
        },
        "send" => TiOp::Send {
            dst: num(kw, "dst", field("dst")?)?,
            cid: num(kw, "cid", field("cid")?)?,
            tag: num(kw, "tag", field("tag")?)?,
            bytes: num(kw, "bytes", field("bytes")?)?,
        },
        "recv" => TiOp::Recv {
            src: num(kw, "src", field("src")?)?,
            cid: num(kw, "cid", field("cid")?)?,
            tag: num(kw, "tag", field("tag")?)?,
            max_bytes: num(kw, "max_bytes", field("max_bytes")?)?,
        },
        "wait" => {
            let mode = mode_parse(field("mode")?)
                .ok_or_else(|| format!("wait: unknown mode in {line:?}"))?;
            let reqs: Result<Vec<u32>, String> = parts
                .by_ref()
                .map(|s| num("wait", "request index", s))
                .collect();
            return Ok(TiOp::Wait { reqs: reqs?, mode });
        }
        "region" => {
            let dir = field("direction")?;
            let enter = match dir {
                "+" => true,
                "-" => false,
                _ => return Err(format!("region: bad direction {dir:?}")),
            };
            TiOp::Region {
                name: field("name")?.to_string(),
                enter,
            }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("{kw}: trailing field {extra:?}"));
    }
    Ok(op)
}

/// Interns a region name as a `&'static str` (the runtime's region simcall
/// wants static names). Each distinct name is leaked exactly once,
/// process-wide.
pub fn intern_region(name: &str) -> &'static str {
    static CACHE: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    let mut guard = CACHE.lock().unwrap();
    let cache = guard.get_or_insert_with(HashSet::new);
    if let Some(&s) = cache.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    cache.insert(leaked);
    leaked
}

/// An outermost collective region still open on a rank: where its
/// synthesized [`TiOp::Coll`] sits in the staging buffer, and how many
/// posts it has covered so far. While one of these is open the rank's
/// staging buffer cannot flush past `ix` — the `span`/`posts`/`algo`
/// fields are patched in place when the region closes.
#[derive(Debug, Clone, Copy)]
struct OpenColl {
    /// Index of the `Coll` op in the rank's *staging* buffer.
    ix: usize,
    /// Posts recorded since the collective opened.
    posts: u32,
}

/// Streaming sink configuration + state (present when the run streams its
/// capture to disk instead of materializing a [`TiTrace`]).
pub(crate) struct StreamSink {
    writer: crate::capture_v2::TiV2Writer<Box<dyn std::io::Write + Send>>,
    /// Ops per sealed block (v2 blocks are self-contained, so this bounds
    /// both writer staging and replay residency).
    block_ops: usize,
    /// Global staging budget across all ranks, bytes (approximate, via
    /// [`op_cost`]). Exceeding it force-flushes partial blocks.
    budget_bytes: usize,
    /// Current staged bytes across all ranks.
    staged_bytes: usize,
    /// High-water mark of `staged_bytes`.
    peak_staged_bytes: usize,
    /// First write error, if any (sticky; surfaced by `finish`).
    err: Option<std::io::Error>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("block_ops", &self.block_ops)
            .field("budget_bytes", &self.budget_bytes)
            .field("staged_bytes", &self.staged_bytes)
            .field("peak_staged_bytes", &self.peak_staged_bytes)
            .finish_non_exhaustive()
    }
}

/// Approximate in-memory size of a staged op (budget accounting only —
/// deterministic, so identical runs flush at identical points).
pub(crate) fn op_cost(op: &TiOp) -> usize {
    let heap = match op {
        TiOp::Wait { reqs, .. } => reqs.len() * 4,
        TiOp::Region { name, .. } => name.len(),
        TiOp::Coll { name, algo, .. } => name.len() + algo.len(),
        _ => 0,
    };
    std::mem::size_of::<TiOp>() + heap
}

/// Maestro-side capture state (lives in [`crate::runtime::Runtime`]).
///
/// Two jobs happen here, both at the simcall boundary:
///
/// * **Collective synthesis.** The runtime reports collectives as plain
///   observability regions. The capture layer turns each *outermost*
///   region entry into a logical [`TiOp::Coll`], annotates it with the
///   first nested region's name (the algorithm variant the collective
///   dispatched to), and patches its `span`/`posts` when the region
///   closes. Inner region entries/exits are kept verbatim, so a faithful
///   replay carries the same region timeline as the on-line run.
/// * **Streaming (optional).** With a [`StreamSink`] attached, sealed
///   blocks of ops are handed to the `TITRACE2` writer as they fill, and
///   the staging buffers stay within a fixed byte budget no matter how
///   long the run is. The only flush barrier is an open collective: its
///   `Coll` op cannot leave staging until the closing exit patches it.
#[derive(Debug)]
pub(crate) struct Capture {
    /// Per-rank op sequences under construction (the whole trace when not
    /// streaming; a bounded staging window when streaming).
    pub(crate) ops: Vec<Vec<TiOp>>,
    /// Per-rank region nesting depth (for outermost-region detection).
    depth: Vec<u32>,
    /// Per-rank open outermost collective, if any.
    open: Vec<Option<OpenColl>>,
    /// Streaming sink, when capture goes straight to disk.
    stream: Option<StreamSink>,
}

impl Capture {
    pub(crate) fn new(nranks: usize) -> Self {
        Capture {
            ops: vec![Vec::new(); nranks],
            depth: vec![0; nranks],
            open: vec![None; nranks],
            stream: None,
        }
    }

    /// Attaches a streaming sink: ops are encoded to `out` as `TITRACE2`
    /// blocks of `block_ops`, keeping staged memory near `budget_bytes`.
    pub(crate) fn new_streaming(
        nranks: usize,
        out: Box<dyn std::io::Write + Send>,
        block_ops: usize,
        budget_bytes: usize,
    ) -> Self {
        let mut cap = Capture::new(nranks);
        cap.stream = Some(StreamSink {
            writer: crate::capture_v2::TiV2Writer::new(out, nranks),
            block_ops: block_ops.max(1),
            budget_bytes,
            staged_bytes: 0,
            peak_staged_bytes: 0,
            err: None,
        });
        cap
    }

    /// Records one op of `rank`, synthesizing logical collectives from
    /// outermost region entries and counting the posts they cover.
    pub(crate) fn on_op(&mut self, rank: u32, op: TiOp) {
        let r = rank as usize;
        match op {
            TiOp::Send { .. } | TiOp::Recv { .. } => {
                if let Some(open) = &mut self.open[r] {
                    open.posts += 1;
                }
                self.push(r, op);
            }
            TiOp::Region { name, enter: true } => {
                let depth = self.depth[r];
                self.depth[r] += 1;
                if depth == 0 {
                    // Outermost entry: becomes a logical collective whose
                    // span/posts are patched at the matching exit. Pin the
                    // flush floor *before* pushing — a budget-pressure
                    // flush inside `push` must not carry the unpatched
                    // `Coll` away.
                    self.open[r] = Some(OpenColl {
                        ix: self.ops[r].len(),
                        posts: 0,
                    });
                    self.push(
                        r,
                        TiOp::Coll {
                            name,
                            algo: String::new(),
                            span: 0,
                            posts: 0,
                        },
                    );
                } else {
                    // First nested entry names the algorithm variant the
                    // collective dispatched to.
                    if depth == 1 {
                        if let Some(open) = self.open[r] {
                            if let TiOp::Coll { algo, .. } = &mut self.ops[r][open.ix] {
                                if algo.is_empty() {
                                    algo.push_str(&name);
                                    if let Some(s) = &mut self.stream {
                                        s.staged_bytes += name.len();
                                    }
                                }
                            }
                        }
                    }
                    self.push(r, TiOp::Region { name, enter: true });
                }
            }
            TiOp::Region { name, enter: false } => {
                self.depth[r] = self.depth[r].saturating_sub(1);
                if self.depth[r] == 0 && self.open[r].is_some() {
                    // Push while the collective is still pinned (the exit
                    // op belongs to its span), then patch and unpin.
                    self.push(r, TiOp::Region { name, enter: false });
                    let open = self.open[r].take().expect("checked above");
                    let end = self.ops[r].len() - 1;
                    if let TiOp::Coll { span, posts: p, .. } = &mut self.ops[r][open.ix] {
                        *span = (end - open.ix) as u32;
                        *p = open.posts;
                    }
                    // The barrier is gone — staged ops may flush now.
                    self.maybe_flush(r);
                    return;
                }
                self.push(r, TiOp::Region { name, enter: false });
            }
            other => self.push(r, other),
        }
    }

    fn push(&mut self, r: usize, op: TiOp) {
        if let Some(s) = &mut self.stream {
            let cost = op_cost(&op);
            s.staged_bytes += cost;
            s.peak_staged_bytes = s.peak_staged_bytes.max(s.staged_bytes);
        }
        self.ops[r].push(op);
        self.maybe_flush(r);
    }

    /// How many staged ops of rank `r` are free to leave the buffer: all of
    /// them, unless an open collective pins the tail starting at its `Coll`.
    fn flush_floor(&self, r: usize) -> usize {
        self.open[r].map_or(self.ops[r].len(), |o| o.ix)
    }

    /// Flushes full blocks of rank `r`, then — if the global budget is
    /// still exceeded — force-flushes every rank's flushable tail, partial
    /// blocks included, in rank order.
    fn maybe_flush(&mut self, r: usize) {
        let Some(s) = &self.stream else { return };
        let (block_ops, budget) = (s.block_ops, s.budget_bytes);
        while self.flush_floor(r) >= block_ops {
            self.seal(r, block_ops);
        }
        if self.stream.as_ref().unwrap().staged_bytes <= budget {
            return;
        }
        // Over budget: drain every rank's flushable tail (partial blocks
        // included). Anything still staged afterwards is pinned by open
        // collectives, which are bounded by the widest single collective.
        for rr in 0..self.ops.len() {
            let n = self.flush_floor(rr);
            if n > 0 {
                self.seal(rr, n);
            }
        }
    }

    /// Seals `n` staged ops of rank `r` into one v2 block.
    fn seal(&mut self, r: usize, n: usize) {
        let s = self.stream.as_mut().expect("seal requires a stream");
        let drained: Vec<TiOp> = self.ops[r].drain(..n).collect();
        let freed: usize = drained.iter().map(op_cost).sum();
        s.staged_bytes -= freed.min(s.staged_bytes);
        if let Some(open) = &mut self.open[r] {
            debug_assert!(open.ix >= n, "flush crossed an open collective");
            open.ix -= n;
        }
        if s.err.is_none() {
            if let Err(e) = s.writer.write_block(r as u32, &drained) {
                s.err = Some(e);
            }
        }
    }

    /// Finishes an in-memory capture. Must not be called on a streaming
    /// capture (ops have already left the building).
    pub(crate) fn into_trace(self) -> TiTrace {
        assert!(
            self.stream.is_none(),
            "into_trace on a streaming capture; use finish_stream"
        );
        TiTrace { ranks: self.ops }
    }

    pub(crate) fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// Flushes everything and finalizes the `TITRACE2` file, returning the
    /// codec counters. Any write error observed during the run or while
    /// writing the footer surfaces here.
    pub(crate) fn finish_stream(mut self) -> std::io::Result<smpi_obs::CodecStats> {
        for r in 0..self.ops.len() {
            // A still-open collective at end of run means the app stopped
            // inside one; flush it unpatched rather than lose the tail.
            self.open[r] = None;
            let n = self.ops[r].len();
            if n > 0 {
                self.seal(r, n);
            }
        }
        let mut s = self.stream.take().expect("finish_stream requires a stream");
        if let Some(e) = s.err.take() {
            return Err(e);
        }
        let (_out, mut stats) = s.writer.finish()?;
        stats.writer_peak_staged_bytes = s.peak_staged_bytes as u64;
        stats.writer_budget_bytes = s.budget_bytes as u64;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TiTrace {
        TiTrace {
            ranks: vec![
                vec![
                    TiOp::Compute { flops: 2.5e6 },
                    TiOp::Send {
                        dst: 1,
                        cid: 0,
                        tag: 5,
                        bytes: 8192,
                    },
                    TiOp::Recv {
                        src: -1,
                        cid: 0,
                        tag: -1,
                        max_bytes: 8192,
                    },
                    TiOp::Wait {
                        reqs: vec![0, 1],
                        mode: WaitMode::All,
                    },
                    TiOp::Region {
                        name: "allreduce".into(),
                        enter: true,
                    },
                    TiOp::Region {
                        name: "allreduce".into(),
                        enter: false,
                    },
                ],
                vec![
                    TiOp::Sleep { secs: 1.5e-6 },
                    TiOp::Wait {
                        reqs: vec![],
                        mode: WaitMode::Poll,
                    },
                ],
            ],
        }
    }

    #[test]
    fn roundtrip_is_lossless_and_stable() {
        let t = sample();
        let enc = t.encode();
        let dec = TiTrace::decode(&enc).unwrap();
        assert_eq!(dec, t);
        assert_eq!(dec.encode(), enc);
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(TiTrace::decode("").is_err());
        assert!(TiTrace::decode("TITRACE v2\nranks 0\n").is_err());
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 1\nfrobnicate 3\nend\n").is_err());
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 2\ncompute 1\nend\n").is_err());
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 0\nend\nextra\n").is_err());
        // Truncated wait mode, bad region direction, trailing fields.
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 1\nwait never 0\nend\n").is_err());
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 1\nregion ? x\nend\n").is_err());
        assert!(TiTrace::decode("TITRACE v1\nranks 1\nrank 0 1\ncompute 1 2\nend\n").is_err());
    }

    #[test]
    fn float_formatting_roundtrips_extremes() {
        let t = TiTrace {
            ranks: vec![vec![
                TiOp::Compute { flops: 0.1 + 0.2 },
                TiOp::Compute {
                    flops: f64::MIN_POSITIVE,
                },
                TiOp::Compute { flops: 1e300 },
                TiOp::Sleep {
                    secs: std::f64::consts::PI,
                },
            ]],
        };
        assert_eq!(TiTrace::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn summary_aggregates() {
        let s = sample().summary();
        assert_eq!(s.ops, 8);
        assert_eq!(s.sends, 1);
        assert_eq!(s.send_bytes, 8192);
        assert_eq!(s.recvs, 1);
        assert_eq!(s.waits, 2);
        assert_eq!(s.flops, 2.5e6);
    }

    #[test]
    fn intern_returns_same_pointer() {
        let a = intern_region("reduce_binomial");
        let b = intern_region("reduce_binomial");
        assert!(std::ptr::eq(a, b));
    }
}
