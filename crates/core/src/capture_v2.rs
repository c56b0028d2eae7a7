//! `TITRACE2`: the binary, delta-encoded, block-structured trace codec.
//!
//! TITRACE v1 (see [`crate::capture`]) is a line-oriented text format that
//! holds the whole trace in memory on both ends. That is fine for the
//! paper's NAS-class runs and unbeatable for debugging, but it is the
//! wrong shape for capture→replay at large rank counts: a 16k-rank run
//! emits millions of ops, and both the capture side (one growing `Vec`
//! per rank) and the replay side (decode everything, then iterate) scale
//! their memory with trace length. TITRACE2 fixes the *shape*:
//!
//! * **Per-rank delta streams.** Op arguments are encoded as zigzag
//!   varint deltas against the previous op of the same kind: request
//!   indices against the previous wait's last index, send/recv fields
//!   against the previous post, floats as XOR of the previous value's
//!   bits (byte-swapped so the entropy lands in the varint's low bytes).
//!   MPI traces are overwhelmingly regular — ranks talk to the same
//!   neighbours with the same tags and sizes — so most fields collapse
//!   to one byte.
//! * **Dictionaries.** Region/collective names live once in a shared
//!   string dictionary (footer); repeated (peer, cid, tag) route triples
//!   are referenced by a per-block route index after first use.
//! * **Self-contained blocks.** Ops are grouped into blocks of
//!   `DEFAULT_BLOCK_OPS` (4 096) ops; every delta context resets at a block
//!   boundary, so any block can be decoded knowing only the dictionary.
//!   That is what makes *streaming* work on both ends: the capture
//!   writer seals and forgets blocks as the run progresses (bounded
//!   staging memory), and the replay reader ([`TiV2Reader`]) decodes
//!   block-by-block behind an iterator ([`TiOpIter`]) — replay residency
//!   is bounded by block size, not trace length.
//! * **Intra-block LZ.** Sealed payloads run through a small
//!   deterministic LZSS pass (byte-oriented, 4 KiB window); whole-op
//!   patterns that repeat verbatim (steady-state iteration loops)
//!   collapse to back-references. A block keeps whichever of raw/LZ is
//!   smaller.
//!
//! The container is versioned by magic: v1 files start with `TITRACE v1`,
//! v2 files with `TITRACE2`. One entry point sniffs the first bytes
//! ([`crate::TraceSource::open`]), so both formats stay readable forever.
//! A footer (dictionary + block index +
//! trailer magic) makes files seekable from the end without scanning.
//!
//! Layout (all integers are LEB128 varints unless noted):
//!
//! ```text
//! header:  "TITRACE2"  varint(nranks)
//! block*:  varint(rank) varint(nops) u8(comp) varint(raw_len)
//!          varint(stored_len) stored_len bytes of payload
//! footer:  varint(ndict) ndict × { varint(len) utf8 bytes }
//!          varint(nblocks) nblocks × { varint(rank) varint(nops)
//!                                      varint(offset_delta) }
//!          varint(total_ops)
//! tail:    u64-LE(footer_len)  "TIT2END\n"
//! ```

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::capture::{TiOp, TiTrace, TraceIoError};
use crate::runtime::WaitMode;
use smpi_obs::CodecStats;

/// Leading magic of a `TITRACE2` file.
pub(crate) const TIT2_MAGIC: &[u8; 8] = b"TITRACE2";
/// Trailing magic (lets a reader validate the file end before seeking).
pub(crate) const TIT2_TRAILER: &[u8; 8] = b"TIT2END\n";
/// Default ops per sealed block. Blocks are the unit of capture flushing
/// and replay residency; 4096 ops keep both in the tens of kilobytes.
pub(crate) const DEFAULT_BLOCK_OPS: usize = 4096;
/// Default global staging budget for the streaming capture writer.
pub(crate) const DEFAULT_WRITER_BUDGET: usize = 4 << 20;

// Sanity caps applied while decoding untrusted bytes: a corrupted count
// must produce a typed error, not a giant allocation.
const MAX_RANKS: u64 = 1 << 22;
const MAX_DICT: u64 = 1 << 20;
const MAX_NAME: u64 = 1 << 16;
const MAX_BLOCKS: u64 = 1 << 26;
const MAX_BLOCK_OPS: u64 = 1 << 24;
const MAX_RAW_LEN: u64 = 1 << 28;

/// Typed `TITRACE2` decode failure (corruption, truncation, bad magic).
#[derive(Debug, Clone, PartialEq)]
pub struct TiV2Error {
    /// What was being decoded when it went wrong.
    pub context: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl TiV2Error {
    pub(crate) fn new(context: &'static str, message: impl Into<String>) -> Self {
        TiV2Error {
            context,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TiV2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TITRACE2 decode error in {}: {}",
            self.context, self.message
        )
    }
}

impl std::error::Error for TiV2Error {}

/// Primitive wire encodings: LEB128 varints, zigzag, float XOR-deltas.
/// Public so the property tests can hammer the primitives directly.
pub mod wire {
    use super::TiV2Error;

    /// Appends `v` as an LEB128 varint (1–10 bytes).
    pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(b);
                return;
            }
            buf.push(b | 0x80);
        }
    }

    /// Reads an LEB128 varint at `*pos`, advancing it. Truncated or
    /// overlong encodings are typed errors.
    pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, TiV2Error> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| TiV2Error::new("varint", "truncated varint"))?;
            *pos += 1;
            if shift == 9 && b > 1 {
                return Err(TiV2Error::new("varint", "varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << (7 * shift);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TiV2Error::new("varint", "varint longer than 10 bytes"))
    }

    /// Zigzag-maps a signed delta to unsigned (small magnitudes stay small).
    /// Encoded size of `v` as an unsigned varint, without encoding it.
    pub fn uvarint_len(mut v: u64) -> usize {
        let mut n = 1;
        while v >= 0x80 {
            v >>= 7;
            n += 1;
        }
        n
    }

    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Appends a signed value as a zigzag varint.
    pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
        put_uvarint(buf, zigzag(v));
    }

    /// Reads a zigzag varint.
    pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64, TiV2Error> {
        Ok(unzigzag(get_uvarint(buf, pos)?))
    }

    /// Delta-encodes a float against the previous one in its stream:
    /// XOR of the bit patterns, byte-swapped so that the high (sign /
    /// exponent / leading-mantissa) bytes — the ones that actually change —
    /// land in the varint's low bytes. A repeated value costs one byte.
    pub fn f64_delta(prev: f64, cur: f64) -> u64 {
        (prev.to_bits() ^ cur.to_bits()).swap_bytes()
    }

    /// Inverse of [`f64_delta`].
    pub fn f64_undelta(prev: f64, delta: u64) -> f64 {
        f64::from_bits(prev.to_bits() ^ delta.swap_bytes())
    }
}

/// Byte-oriented LZSS over sealed block payloads: greedy matcher, 4 KiB
/// window, 3..=18-byte matches, one control byte per 8 tokens. Chosen for
/// determinism and zero dependencies rather than ratio — the delta layer
/// above it has already removed most entropy, and steady-state loops leave
/// long verbatim repeats that back-references fold cheaply.
pub mod lz {
    use super::TiV2Error;

    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = 18;
    const WINDOW: usize = 4096;

    fn hash3(b: &[u8]) -> usize {
        let v = u32::from(b[0]) << 16 | u32::from(b[1]) << 8 | u32::from(b[2]);
        (v.wrapping_mul(2654435761) >> 20) as usize
    }

    /// Compresses `src`. Deterministic: same input, same output, always.
    pub fn compress(src: &[u8]) -> Vec<u8> {
        compress_with_dict(&[], src)
    }

    /// Compresses `src` with `dict` as a preset window: back-references may
    /// reach into `dict` as if it preceded `src`. Blocks of one trace are
    /// near-clones of each other (same program on every rank), so using the
    /// file's first block as the shared dictionary folds that cross-block
    /// redundancy without giving up per-block random access.
    pub fn compress_with_dict(dict: &[u8], src: &[u8]) -> Vec<u8> {
        let all = [dict, src].concat();
        let n = all.len();
        let start = dict.len();
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        let mut table = vec![u32::MAX; 4096];
        for j in 0..start.saturating_sub(MIN_MATCH - 1) {
            table[hash3(&all[j..])] = j as u32;
        }
        let src = &all[..];
        let mut ctrl_pos = 0usize;
        let mut ctrl_bit = 8u32;
        let mut i = start;
        while i < n {
            if ctrl_bit == 8 {
                ctrl_pos = out.len();
                out.push(0);
                ctrl_bit = 0;
            }
            let mut matched = false;
            if i + MIN_MATCH <= n {
                let h = hash3(&src[i..]);
                let cand = table[h];
                table[h] = i as u32;
                if cand != u32::MAX {
                    let cand = cand as usize;
                    if cand < i
                        && i - cand <= WINDOW
                        && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH]
                    {
                        let max_l = MAX_MATCH.min(n - i);
                        let mut l = MIN_MATCH;
                        while l < max_l && src[cand + l] == src[i + l] {
                            l += 1;
                        }
                        let off = i - cand - 1; // 0..=4095
                        out[ctrl_pos] |= 1 << ctrl_bit;
                        out.push((off >> 4) as u8);
                        out.push((((off & 0xf) as u8) << 4) | (l - MIN_MATCH) as u8);
                        // Seed the table with the positions the match
                        // covers so later data can reference them too.
                        for j in (i + 1)..(i + l).min(n.saturating_sub(MIN_MATCH - 1)) {
                            table[hash3(&src[j..])] = j as u32;
                        }
                        i += l;
                        matched = true;
                    }
                }
            }
            if !matched {
                out.push(src[i]);
                i += 1;
            }
            ctrl_bit += 1;
        }
        out
    }

    /// Decompresses exactly `raw_len` bytes; anything short, long, or
    /// referencing before the start of output is a typed error.
    pub fn decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, TiV2Error> {
        decompress_with_dict(&[], src, raw_len)
    }

    /// [`decompress`] with a preset dictionary: offsets may reach back into
    /// `dict`, which logically precedes the output.
    pub fn decompress_with_dict(
        dict: &[u8],
        src: &[u8],
        raw_len: usize,
    ) -> Result<Vec<u8>, TiV2Error> {
        let err = |m: &str| TiV2Error::new("lz block", m.to_string());
        let mut out = Vec::with_capacity(raw_len.min(1 << 24));
        let mut i = 0usize;
        while out.len() < raw_len {
            let ctrl = *src.get(i).ok_or_else(|| err("truncated control byte"))?;
            i += 1;
            let mut bit = 0;
            while bit < 8 && out.len() < raw_len {
                if ctrl >> bit & 1 == 1 {
                    let b0 = *src.get(i).ok_or_else(|| err("truncated match"))?;
                    let b1 = *src.get(i + 1).ok_or_else(|| err("truncated match"))?;
                    i += 2;
                    let off = ((usize::from(b0) << 4) | usize::from(b1 >> 4)) + 1;
                    let l = usize::from(b1 & 0xf) + MIN_MATCH;
                    if off > dict.len() + out.len() {
                        return Err(err("match offset before start of block"));
                    }
                    if out.len() + l > raw_len {
                        return Err(err("match overruns declared length"));
                    }
                    for _ in 0..l {
                        let from = dict.len() + out.len() - off;
                        let b = if from < dict.len() {
                            dict[from]
                        } else {
                            out[from - dict.len()]
                        };
                        out.push(b);
                    }
                } else {
                    let b = *src.get(i).ok_or_else(|| err("truncated literal"))?;
                    i += 1;
                    out.push(b);
                }
                bit += 1;
            }
        }
        if i != src.len() {
            return Err(err("trailing bytes after declared length"));
        }
        Ok(out)
    }
}

// Op codes of the block payload.
const OP_COMPUTE: u8 = 0;
const OP_SLEEP: u8 = 1;
const OP_SEND_NEW: u8 = 2;
const OP_SEND_ROUTE: u8 = 3;
const OP_RECV_NEW: u8 = 4;
const OP_RECV_ROUTE: u8 = 5;
const OP_WAIT_BASE: u8 = 6; // +0 all, +1 any, +2 some, +3 poll
const OP_REGION_ENTER: u8 = 10;
const OP_REGION_EXIT: u8 = 11;
const OP_COLL: u8 = 12;
/// Waitall of exactly one request, the one after the previous wait's last —
/// the ubiquitous post/wait lockstep. One byte total.
const OP_WAIT_NEXT: u8 = 13;
/// Compute whose flop count is a non-negative integer, stored as an
/// absolute uvarint (cheaper than the xor-delta for the first compute of a
/// block, and exact: integers below 2^53 round-trip through f64).
const OP_COMPUTE_INT: u8 = 14;
/// Route-opening send/recv that differs from the previous post of the same
/// direction only in the peer — constant tag/cid/size neighbor exchanges.
const OP_SEND_NEW_SAME: u8 = 15;
const OP_RECV_NEW_SAME: u8 = 16;

fn mode_code(mode: WaitMode) -> u8 {
    match mode {
        WaitMode::All => 0,
        WaitMode::Any => 1,
        WaitMode::Some => 2,
        WaitMode::Poll => 3,
    }
}

fn code_mode(code: u8) -> Option<WaitMode> {
    match code {
        0 => Some(WaitMode::All),
        1 => Some(WaitMode::Any),
        2 => Some(WaitMode::Some),
        3 => Some(WaitMode::Poll),
        _ => None,
    }
}

/// Delta context of one block. Reset at every block boundary — that reset
/// is the self-containment invariant the streaming reader relies on.
struct BlockCtx {
    prev_compute: f64,
    prev_sleep: f64,
    // Previous post fields (wrapping deltas; all-zero at block start).
    last_send: (u32, u32, i32, u64),
    last_recv: (i32, u32, i32, u64),
    // Route tables: (peer, cid, tag) triples in first-use order, with the
    // last byte count sent/received over that route.
    send_routes: Vec<(u32, u32, i32, u64)>,
    recv_routes: Vec<(i32, u32, i32, u64)>,
    prev_wait_last: u32,
}

impl Default for BlockCtx {
    fn default() -> Self {
        BlockCtx {
            prev_compute: 0.0,
            prev_sleep: 0.0,
            last_send: (0, 0, 0, 0),
            last_recv: (0, 0, 0, 0),
            send_routes: Vec::new(),
            recv_routes: Vec::new(),
            // MAX, not 0, so the very first request of a block (index 0)
            // is "the one after the previous wait's last" and takes the
            // one-byte OP_WAIT_NEXT path.
            prev_wait_last: u32::MAX,
        }
    }
}

/// Encode-side route lookup (the decode side only needs the Vec order).
#[derive(Default)]
struct BlockEncCtx {
    ctx: BlockCtx,
    send_ix: HashMap<(u32, u32, i32), u32>,
    recv_ix: HashMap<(i32, u32, i32), u32>,
}

fn encode_ops(ops: &[TiOp], mut intern: impl FnMut(&str) -> u32, buf: &mut Vec<u8>) {
    use wire::*;
    let mut e = BlockEncCtx::default();
    for op in ops {
        match op {
            TiOp::Compute { flops } => {
                let d = f64_delta(e.ctx.prev_compute, *flops);
                // Sign-positive excludes -0.0: it compares == 0.0 but has
                // a different bit pattern, and this path must stay
                // bit-exact for encode -> decode -> encode byte stability.
                let integral = flops.is_sign_positive()
                    && flops.fract() == 0.0
                    && *flops <= 9_007_199_254_740_992.0; // 2^53: exact in f64
                if integral && uvarint_len(*flops as u64) < uvarint_len(d) {
                    buf.push(OP_COMPUTE_INT);
                    put_uvarint(buf, *flops as u64);
                } else {
                    buf.push(OP_COMPUTE);
                    put_uvarint(buf, d);
                }
                e.ctx.prev_compute = *flops;
            }
            TiOp::Sleep { secs } => {
                buf.push(OP_SLEEP);
                put_uvarint(buf, f64_delta(e.ctx.prev_sleep, *secs));
                e.ctx.prev_sleep = *secs;
            }
            TiOp::Send {
                dst,
                cid,
                tag,
                bytes,
            } => {
                let key = (*dst, *cid, *tag);
                if let Some(&ix) = e.send_ix.get(&key) {
                    buf.push(OP_SEND_ROUTE);
                    put_uvarint(buf, u64::from(ix));
                    let route = &mut e.ctx.send_routes[ix as usize];
                    put_ivarint(buf, bytes.wrapping_sub(route.3) as i64);
                    route.3 = *bytes;
                } else {
                    let l = e.ctx.last_send;
                    if *cid == l.1 && *tag == l.2 && *bytes == l.3 {
                        buf.push(OP_SEND_NEW_SAME);
                        put_ivarint(buf, i64::from(dst.wrapping_sub(l.0) as i32));
                    } else {
                        buf.push(OP_SEND_NEW);
                        put_ivarint(buf, i64::from(dst.wrapping_sub(l.0) as i32));
                        put_ivarint(buf, i64::from(cid.wrapping_sub(l.1) as i32));
                        put_ivarint(buf, i64::from(tag.wrapping_sub(l.2)));
                        put_ivarint(buf, bytes.wrapping_sub(l.3) as i64);
                    }
                    e.send_ix.insert(key, e.ctx.send_routes.len() as u32);
                    e.ctx.send_routes.push((*dst, *cid, *tag, *bytes));
                }
                e.ctx.last_send = (*dst, *cid, *tag, *bytes);
            }
            TiOp::Recv {
                src,
                cid,
                tag,
                max_bytes,
            } => {
                let key = (*src, *cid, *tag);
                if let Some(&ix) = e.recv_ix.get(&key) {
                    buf.push(OP_RECV_ROUTE);
                    put_uvarint(buf, u64::from(ix));
                    let route = &mut e.ctx.recv_routes[ix as usize];
                    put_ivarint(buf, max_bytes.wrapping_sub(route.3) as i64);
                    route.3 = *max_bytes;
                } else {
                    let l = e.ctx.last_recv;
                    if *cid == l.1 && *tag == l.2 && *max_bytes == l.3 {
                        buf.push(OP_RECV_NEW_SAME);
                        put_ivarint(buf, i64::from(src.wrapping_sub(l.0)));
                    } else {
                        buf.push(OP_RECV_NEW);
                        put_ivarint(buf, i64::from(src.wrapping_sub(l.0)));
                        put_ivarint(buf, i64::from(cid.wrapping_sub(l.1) as i32));
                        put_ivarint(buf, i64::from(tag.wrapping_sub(l.2)));
                        put_ivarint(buf, max_bytes.wrapping_sub(l.3) as i64);
                    }
                    e.recv_ix.insert(key, e.ctx.recv_routes.len() as u32);
                    e.ctx.recv_routes.push((*src, *cid, *tag, *max_bytes));
                }
                e.ctx.last_recv = (*src, *cid, *tag, *max_bytes);
            }
            TiOp::Wait { reqs, mode } => {
                if *mode == WaitMode::All
                    && reqs.len() == 1
                    && reqs[0] == e.ctx.prev_wait_last.wrapping_add(1)
                {
                    buf.push(OP_WAIT_NEXT);
                    e.ctx.prev_wait_last = reqs[0];
                    continue;
                }
                buf.push(OP_WAIT_BASE + mode_code(*mode));
                put_uvarint(buf, reqs.len() as u64);
                let mut prev = e.ctx.prev_wait_last;
                for (i, &req) in reqs.iter().enumerate() {
                    // First index is relative to the previous wait's last;
                    // the rest are gap-1 deltas (consecutive indices, the
                    // common waitall pattern, cost one byte each).
                    let base = if i == 0 { prev } else { prev.wrapping_add(1) };
                    put_ivarint(buf, i64::from(req.wrapping_sub(base) as i32));
                    prev = req;
                }
                if !reqs.is_empty() {
                    e.ctx.prev_wait_last = prev;
                }
            }
            TiOp::Region { name, enter } => {
                buf.push(if *enter {
                    OP_REGION_ENTER
                } else {
                    OP_REGION_EXIT
                });
                put_uvarint(buf, u64::from(intern(name)));
            }
            TiOp::Coll {
                name,
                algo,
                span,
                posts,
            } => {
                buf.push(OP_COLL);
                put_uvarint(buf, u64::from(intern(name)));
                let algo_plus1 = if algo.is_empty() {
                    0
                } else {
                    u64::from(intern(algo)) + 1
                };
                put_uvarint(buf, algo_plus1);
                put_uvarint(buf, u64::from(*span));
                put_uvarint(buf, u64::from(*posts));
            }
        }
    }
}

fn decode_ops(buf: &[u8], nops: usize, dict: &[String]) -> Result<Vec<TiOp>, TiV2Error> {
    use wire::*;
    let err = |m: String| TiV2Error::new("block payload", m);
    let name_of = |id: u64| -> Result<String, TiV2Error> {
        dict.get(id as usize)
            .cloned()
            .ok_or_else(|| err(format!("dictionary id {id} out of range ({})", dict.len())))
    };
    let mut c = BlockCtx::default();
    let mut ops = Vec::with_capacity(nops.min(MAX_BLOCK_OPS as usize));
    let mut pos = 0usize;
    for _ in 0..nops {
        let code = *buf
            .get(pos)
            .ok_or_else(|| err("truncated op code".into()))?;
        pos += 1;
        let op = match code {
            OP_COMPUTE => {
                let d = get_uvarint(buf, &mut pos)?;
                let flops = f64_undelta(c.prev_compute, d);
                c.prev_compute = flops;
                TiOp::Compute { flops }
            }
            OP_SLEEP => {
                let d = get_uvarint(buf, &mut pos)?;
                let secs = f64_undelta(c.prev_sleep, d);
                c.prev_sleep = secs;
                TiOp::Sleep { secs }
            }
            OP_SEND_NEW => {
                let l = c.last_send;
                let dst = l.0.wrapping_add(get_ivarint(buf, &mut pos)? as u32);
                let cid = l.1.wrapping_add(get_ivarint(buf, &mut pos)? as u32);
                let tag = l.2.wrapping_add(get_ivarint(buf, &mut pos)? as i32);
                let bytes = l.3.wrapping_add(get_ivarint(buf, &mut pos)? as u64);
                c.send_routes.push((dst, cid, tag, bytes));
                c.last_send = (dst, cid, tag, bytes);
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                }
            }
            OP_SEND_ROUTE => {
                let ix = get_uvarint(buf, &mut pos)? as usize;
                let d = get_ivarint(buf, &mut pos)?;
                let route = c
                    .send_routes
                    .get_mut(ix)
                    .ok_or_else(|| err(format!("send route {ix} not yet defined")))?;
                route.3 = route.3.wrapping_add(d as u64);
                let (dst, cid, tag, bytes) = *route;
                c.last_send = (dst, cid, tag, bytes);
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                }
            }
            OP_RECV_NEW => {
                let l = c.last_recv;
                let src = l.0.wrapping_add(get_ivarint(buf, &mut pos)? as i32);
                let cid = l.1.wrapping_add(get_ivarint(buf, &mut pos)? as u32);
                let tag = l.2.wrapping_add(get_ivarint(buf, &mut pos)? as i32);
                let max_bytes = l.3.wrapping_add(get_ivarint(buf, &mut pos)? as u64);
                c.recv_routes.push((src, cid, tag, max_bytes));
                c.last_recv = (src, cid, tag, max_bytes);
                TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                }
            }
            OP_RECV_ROUTE => {
                let ix = get_uvarint(buf, &mut pos)? as usize;
                let d = get_ivarint(buf, &mut pos)?;
                let route = c
                    .recv_routes
                    .get_mut(ix)
                    .ok_or_else(|| err(format!("recv route {ix} not yet defined")))?;
                route.3 = route.3.wrapping_add(d as u64);
                let (src, cid, tag, max_bytes) = *route;
                c.last_recv = (src, cid, tag, max_bytes);
                TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                }
            }
            OP_COMPUTE_INT => {
                let flops = get_uvarint(buf, &mut pos)? as f64;
                c.prev_compute = flops;
                TiOp::Compute { flops }
            }
            OP_WAIT_NEXT => {
                let req = c.prev_wait_last.wrapping_add(1);
                c.prev_wait_last = req;
                TiOp::Wait {
                    reqs: vec![req],
                    mode: WaitMode::All,
                }
            }
            OP_SEND_NEW_SAME => {
                let l = c.last_send;
                let dst = l.0.wrapping_add(get_ivarint(buf, &mut pos)? as u32);
                let (cid, tag, bytes) = (l.1, l.2, l.3);
                c.send_routes.push((dst, cid, tag, bytes));
                c.last_send = (dst, cid, tag, bytes);
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                }
            }
            OP_RECV_NEW_SAME => {
                let l = c.last_recv;
                let src = l.0.wrapping_add(get_ivarint(buf, &mut pos)? as i32);
                let (cid, tag, max_bytes) = (l.1, l.2, l.3);
                c.recv_routes.push((src, cid, tag, max_bytes));
                c.last_recv = (src, cid, tag, max_bytes);
                TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                }
            }
            code if (OP_WAIT_BASE..OP_WAIT_BASE + 4).contains(&code) => {
                let mode = code_mode(code - OP_WAIT_BASE).expect("range-checked");
                let n = get_uvarint(buf, &mut pos)? as usize;
                // Each request index costs at least one byte, so a count
                // beyond the remaining payload is corruption.
                if n > buf.len() - pos {
                    return Err(err(format!("wait count {n} exceeds remaining payload")));
                }
                let mut reqs = Vec::with_capacity(n);
                let mut prev = c.prev_wait_last;
                for i in 0..n {
                    let base = if i == 0 { prev } else { prev.wrapping_add(1) };
                    let req = base.wrapping_add(get_ivarint(buf, &mut pos)? as u32);
                    reqs.push(req);
                    prev = req;
                }
                if !reqs.is_empty() {
                    c.prev_wait_last = prev;
                }
                TiOp::Wait { reqs, mode }
            }
            OP_REGION_ENTER | OP_REGION_EXIT => {
                let name = name_of(get_uvarint(buf, &mut pos)?)?;
                TiOp::Region {
                    name,
                    enter: code == OP_REGION_ENTER,
                }
            }
            OP_COLL => {
                let name = name_of(get_uvarint(buf, &mut pos)?)?;
                let algo_plus1 = get_uvarint(buf, &mut pos)?;
                let algo = if algo_plus1 == 0 {
                    String::new()
                } else {
                    name_of(algo_plus1 - 1)?
                };
                let span = get_uvarint(buf, &mut pos)?;
                let posts = get_uvarint(buf, &mut pos)?;
                if span > u64::from(u32::MAX) || posts > u64::from(u32::MAX) {
                    return Err(err("coll span/posts out of u32 range".into()));
                }
                TiOp::Coll {
                    name,
                    algo,
                    span: span as u32,
                    posts: posts as u32,
                }
            }
            other => return Err(err(format!("unknown op code {other}"))),
        };
        ops.push(op);
    }
    if pos != buf.len() {
        return Err(err(format!(
            "{} trailing bytes after {} ops",
            buf.len() - pos,
            nops
        )));
    }
    Ok(ops)
}

/// Location + shape of one sealed block (mirrored in the footer index).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockMeta {
    rank: u32,
    nops: u64,
    /// Absolute file offset of the block header.
    offset: u64,
    /// Total encoded length of the block (header + stored payload).
    /// Derived from offset deltas when parsing the footer.
    len: u64,
}

/// Streaming `TITRACE2` encoder. Feed it sealed runs of ops per rank in
/// capture order ([`write_block`](Self::write_block)); it writes them out
/// immediately and keeps only the dictionary and the block index. Call
/// [`finish`](Self::finish) to append the footer.
pub struct TiV2Writer<W: Write> {
    out: W,
    pos: u64,
    nranks: usize,
    header_written: bool,
    dict: Vec<String>,
    dict_ix: HashMap<String, u32>,
    blocks: Vec<BlockMeta>,
    total_ops: u64,
    bytes_raw: u64,
    blocks_compressed: u64,
    /// Raw payload of the first block, kept as the shared LZ dictionary
    /// for every later block (bounded by one block's payload size).
    anchor: Option<Vec<u8>>,
}

impl<W: Write> TiV2Writer<W> {
    /// A writer for an `nranks`-rank trace, encoding into `out`.
    pub fn new(out: W, nranks: usize) -> Self {
        TiV2Writer {
            out,
            pos: 0,
            nranks,
            header_written: false,
            dict: Vec::new(),
            dict_ix: HashMap::new(),
            blocks: Vec::new(),
            total_ops: 0,
            bytes_raw: 0,
            blocks_compressed: 0,
            anchor: None,
        }
    }

    fn ensure_header(&mut self) -> std::io::Result<()> {
        if self.header_written {
            return Ok(());
        }
        self.header_written = true;
        let mut head = Vec::with_capacity(16);
        head.extend_from_slice(TIT2_MAGIC);
        wire::put_uvarint(&mut head, self.nranks as u64);
        self.out.write_all(&head)?;
        self.pos += head.len() as u64;
        Ok(())
    }

    /// Encodes `ops` as one self-contained block of rank `rank` and writes
    /// it through. Blocks of the same rank must arrive in op order.
    pub fn write_block(&mut self, rank: u32, ops: &[TiOp]) -> std::io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.ensure_header()?;
        assert!((rank as usize) < self.nranks, "block rank out of range");
        let mut payload = Vec::with_capacity(ops.len() * 4);
        // Borrow-splitting: hand encode_ops an interner over our fields.
        let (dict, dict_ix) = (&mut self.dict, &mut self.dict_ix);
        encode_ops(
            ops,
            |name| {
                if let Some(&ix) = dict_ix.get(name) {
                    return ix;
                }
                let ix = dict.len() as u32;
                dict.push(name.to_string());
                dict_ix.insert(name.to_string(), ix);
                ix
            },
            &mut payload,
        );
        let packed = lz::compress(&payload);
        let mut comp: u8 = if packed.len() < payload.len() { 1 } else { 0 };
        let mut stored: &[u8] = if comp == 1 { &packed } else { &payload };
        // Every rank runs the same program, so blocks are near-clones of
        // the file's first block — compressing against it as a preset
        // dictionary folds that cross-rank redundancy while each block
        // stays decodable from (itself + the anchor).
        let dict_packed = self
            .anchor
            .as_deref()
            .map(|a| lz::compress_with_dict(a, &payload));
        if let Some(dp) = &dict_packed {
            if dp.len() < stored.len() {
                comp = 2;
                stored = dp;
            }
        }
        let mut head = Vec::with_capacity(16);
        wire::put_uvarint(&mut head, u64::from(rank));
        wire::put_uvarint(&mut head, ops.len() as u64);
        head.push(comp);
        wire::put_uvarint(&mut head, payload.len() as u64);
        wire::put_uvarint(&mut head, stored.len() as u64);
        self.out.write_all(&head)?;
        self.out.write_all(stored)?;
        let len = head.len() as u64 + stored.len() as u64;
        self.blocks.push(BlockMeta {
            rank,
            nops: ops.len() as u64,
            offset: self.pos,
            len,
        });
        self.pos += len;
        self.total_ops += ops.len() as u64;
        self.bytes_raw += payload.len() as u64;
        self.blocks_compressed += u64::from(comp != 0);
        if self.anchor.is_none() {
            self.anchor = Some(payload);
        }
        Ok(())
    }

    /// Appends the footer + trailer, flushes, and returns the sink along
    /// with the codec counters (writer staging fields left zero — the
    /// capture layer owns those).
    pub fn finish(mut self) -> std::io::Result<(W, CodecStats)> {
        self.ensure_header()?;
        let mut foot = Vec::with_capacity(64 + self.dict.len() * 16 + self.blocks.len() * 6);
        wire::put_uvarint(&mut foot, self.dict.len() as u64);
        for name in &self.dict {
            wire::put_uvarint(&mut foot, name.len() as u64);
            foot.extend_from_slice(name.as_bytes());
        }
        wire::put_uvarint(&mut foot, self.blocks.len() as u64);
        let mut prev = 0u64;
        for b in &self.blocks {
            wire::put_uvarint(&mut foot, u64::from(b.rank));
            wire::put_uvarint(&mut foot, b.nops);
            wire::put_uvarint(&mut foot, b.offset - prev);
            prev = b.offset;
        }
        wire::put_uvarint(&mut foot, self.total_ops);
        self.out.write_all(&foot)?;
        self.out.write_all(&(foot.len() as u64).to_le_bytes())?;
        self.out.write_all(TIT2_TRAILER)?;
        self.out.flush()?;
        self.pos += foot.len() as u64 + 16;
        let stats = CodecStats {
            ops: self.total_ops,
            blocks: self.blocks.len() as u64,
            blocks_compressed: self.blocks_compressed,
            dict_entries: self.dict.len() as u64,
            bytes_raw: self.bytes_raw,
            bytes_written: self.pos,
            writer_peak_staged_bytes: 0,
            writer_budget_bytes: 0,
        };
        Ok((self.out, stats))
    }
}

/// Encodes a whole in-memory trace to `TITRACE2` bytes, chunking each rank
/// into blocks of `DEFAULT_BLOCK_OPS` (4 096) ops. Deterministic, and stable
/// under round-trips: `encode_v2(&decode_v2(&b)?) == b`.
pub fn encode_v2(trace: &TiTrace) -> Vec<u8> {
    encode_v2_blocks(trace, DEFAULT_BLOCK_OPS)
}

/// [`encode_v2`] with an explicit block size (tests exercise odd sizes).
pub fn encode_v2_blocks(trace: &TiTrace, block_ops: usize) -> Vec<u8> {
    let block_ops = block_ops.max(1);
    let mut w = TiV2Writer::new(Vec::new(), trace.num_ranks());
    for (r, ops) in trace.ranks.iter().enumerate() {
        for chunk in ops.chunks(block_ops) {
            w.write_block(r as u32, chunk)
                .expect("writing to a Vec cannot fail");
        }
    }
    let (bytes, _) = w.finish().expect("writing to a Vec cannot fail");
    bytes
}

/// Parsed footer + header of a v2 container.
struct Layout {
    nranks: usize,
    dict: Vec<String>,
    blocks: Vec<BlockMeta>,
    total_ops: u64,
}

fn parse_layout(header: &[u8], footer: &[u8], file_len: u64) -> Result<Layout, TiV2Error> {
    let err = |c: &'static str, m: String| TiV2Error::new(c, m);
    if header.len() < TIT2_MAGIC.len() || &header[..TIT2_MAGIC.len()] != TIT2_MAGIC {
        return Err(err("header", "bad magic (not a TITRACE2 file)".into()));
    }
    let mut hpos = TIT2_MAGIC.len();
    let nranks = wire::get_uvarint(header, &mut hpos)?;
    if nranks > MAX_RANKS {
        return Err(err("header", format!("implausible rank count {nranks}")));
    }
    let header_len = hpos as u64;

    let mut pos = 0usize;
    let ndict = wire::get_uvarint(footer, &mut pos)?;
    if ndict > MAX_DICT {
        return Err(err(
            "footer",
            format!("implausible dictionary size {ndict}"),
        ));
    }
    let mut dict = Vec::with_capacity(ndict as usize);
    for _ in 0..ndict {
        let len = wire::get_uvarint(footer, &mut pos)? as usize;
        if len as u64 > MAX_NAME || pos + len > footer.len() {
            return Err(err("footer", "dictionary entry overruns footer".into()));
        }
        let s = std::str::from_utf8(&footer[pos..pos + len])
            .map_err(|_| err("footer", "dictionary entry is not UTF-8".into()))?;
        dict.push(s.to_string());
        pos += len;
    }
    let nblocks = wire::get_uvarint(footer, &mut pos)?;
    if nblocks > MAX_BLOCKS {
        return Err(err("footer", format!("implausible block count {nblocks}")));
    }
    let footer_start = file_len - 16 - footer.len() as u64;
    let mut blocks = Vec::with_capacity(nblocks as usize);
    let mut prev_offset = 0u64;
    for i in 0..nblocks {
        let rank = wire::get_uvarint(footer, &mut pos)?;
        let nops = wire::get_uvarint(footer, &mut pos)?;
        let delta = wire::get_uvarint(footer, &mut pos)?;
        if rank >= nranks {
            return Err(err("footer", format!("block {i} rank {rank} out of range")));
        }
        if nops > MAX_BLOCK_OPS {
            return Err(err(
                "footer",
                format!("block {i} op count {nops} implausible"),
            ));
        }
        let offset = if i == 0 { delta } else { prev_offset + delta };
        if offset < header_len || offset >= footer_start {
            return Err(err(
                "footer",
                format!("block {i} offset {offset} out of range"),
            ));
        }
        if i > 0 {
            let prev: &mut BlockMeta = blocks.last_mut().expect("i > 0");
            prev.len = offset - prev.offset;
        }
        blocks.push(BlockMeta {
            rank: rank as u32,
            nops,
            offset,
            len: footer_start - offset, // fixed up by the next iteration
        });
        prev_offset = offset;
    }
    let total_ops = wire::get_uvarint(footer, &mut pos)?;
    if pos != footer.len() {
        return Err(err("footer", "trailing bytes in footer".into()));
    }
    if total_ops != blocks.iter().map(|b| b.nops).sum::<u64>() {
        return Err(err("footer", "total_ops does not match block index".into()));
    }
    Ok(Layout {
        nranks: nranks as usize,
        dict,
        blocks,
        total_ops,
    })
}

/// Parses one block (header + payload) out of its exact byte extent.
/// Validates a block's header against the footer index and returns its raw
/// (decompressed) payload. `anchor` is the raw payload of the file's first
/// block, required for dictionary-compressed blocks (`comp == 2`); the
/// first block itself never uses that mode, so `None` is correct for it.
fn block_raw(buf: &[u8], meta: &BlockMeta, anchor: Option<&[u8]>) -> Result<Vec<u8>, TiV2Error> {
    let err = |m: String| TiV2Error::new("block header", m);
    let mut pos = 0usize;
    let rank = wire::get_uvarint(buf, &mut pos)?;
    let nops = wire::get_uvarint(buf, &mut pos)?;
    if rank != u64::from(meta.rank) || nops != meta.nops {
        return Err(err(format!(
            "block header (rank {rank}, {nops} ops) disagrees with footer index (rank {}, {} ops)",
            meta.rank, meta.nops
        )));
    }
    let comp = *buf.get(pos).ok_or_else(|| err("truncated block".into()))?;
    pos += 1;
    let raw_len = wire::get_uvarint(buf, &mut pos)?;
    let stored_len = wire::get_uvarint(buf, &mut pos)? as usize;
    if raw_len > MAX_RAW_LEN {
        return Err(err(format!("implausible raw length {raw_len}")));
    }
    if pos + stored_len != buf.len() {
        return Err(err(format!(
            "stored length {stored_len} does not fill block extent {}",
            buf.len() - pos
        )));
    }
    let stored = &buf[pos..];
    match comp {
        0 => {
            if stored.len() as u64 != raw_len {
                return Err(err("raw block length mismatch".into()));
            }
            Ok(stored.to_vec())
        }
        1 => lz::decompress(stored, raw_len as usize),
        2 => {
            let dict = anchor
                .ok_or_else(|| err("dictionary-compressed block before the anchor block".into()))?;
            lz::decompress_with_dict(dict, stored, raw_len as usize)
        }
        other => Err(err(format!("unknown compression tag {other}"))),
    }
}

fn parse_block(
    buf: &[u8],
    meta: &BlockMeta,
    dict: &[String],
    anchor: Option<&[u8]>,
) -> Result<Vec<TiOp>, TiV2Error> {
    let payload = block_raw(buf, meta, anchor)?;
    decode_ops(&payload, meta.nops as usize, dict)
}

/// Splits a byte buffer into (header, footer, file_len) and parses the
/// layout. Shared by [`decode_v2`] and [`TiV2Reader::open`].
fn layout_of_bytes(bytes: &[u8]) -> Result<Layout, TiV2Error> {
    let err = |m: &str| TiV2Error::new("container", m.to_string());
    if bytes.len() < TIT2_MAGIC.len() + 16 {
        return Err(err("file too short for a TITRACE2 container"));
    }
    let n = bytes.len();
    if &bytes[n - 8..] != TIT2_TRAILER {
        return Err(err("bad trailer magic (truncated file?)"));
    }
    let footer_len = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().expect("8 bytes"));
    let footer_start = (n as u64)
        .checked_sub(16 + footer_len)
        .filter(|&s| s >= TIT2_MAGIC.len() as u64)
        .ok_or_else(|| err("footer length exceeds file size"))?;
    let footer = &bytes[footer_start as usize..n - 16];
    parse_layout(bytes, footer, n as u64)
}

/// Decodes a complete `TITRACE2` byte buffer into an in-memory trace.
pub fn decode_v2(bytes: &[u8]) -> Result<TiTrace, TiV2Error> {
    let layout = layout_of_bytes(bytes)?;
    let mut ranks = vec![Vec::new(); layout.nranks];
    let mut anchor: Option<Vec<u8>> = None;
    for meta in &layout.blocks {
        let (start, end) = (meta.offset as usize, (meta.offset + meta.len) as usize);
        let raw = block_raw(&bytes[start..end], meta, anchor.as_deref())?;
        let ops = decode_ops(&raw, meta.nops as usize, &layout.dict)?;
        if anchor.is_none() {
            anchor = Some(raw);
        }
        ranks[meta.rank as usize].extend(ops);
    }
    Ok(TiTrace { ranks })
}

/// Shared residency accounting across everything a reader has decoded.
#[derive(Default)]
struct Resident {
    bytes: AtomicU64,
    peak: AtomicU64,
}

/// One decoded block, shared by every iterator currently inside it. Drop
/// of the last reference returns its bytes to the residency counter —
/// that counter (see [`ReaderStats::resident_peak_bytes`]) is how the
/// benches *prove* replay memory is bounded by block size, not trace
/// length.
pub(crate) struct DecodedBlock {
    /// The block's ops, in capture order.
    pub ops: Vec<TiOp>,
    cost: u64,
    resident: Arc<Resident>,
}

impl Drop for DecodedBlock {
    fn drop(&mut self) {
        self.resident.bytes.fetch_sub(self.cost, Ordering::Relaxed);
    }
}

/// Decode-side counters of a [`TiV2Reader`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReaderStats {
    /// Blocks decoded from disk.
    pub blocks_decoded: u64,
    /// Block requests served from the shared in-flight cache.
    pub cache_hits: u64,
    /// Estimated bytes of decoded blocks currently alive.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the reader's lifetime.
    pub resident_peak_bytes: u64,
}

/// A seekable, shared, block-streaming `TITRACE2` reader.
///
/// `open` reads only the header and footer (dictionary + block index);
/// ops are decoded lazily, one block at a time, as [`TiOpIter`]s pull
/// them. Blocks alive in any iterator are shared through a `Weak` cache,
/// so N replay workers sweeping the same region of the trace decode each
/// block once — stream once, replay many — while blocks nobody holds are
/// freed immediately. Residency is therefore bounded by (blocks in
/// flight) × (block size), independent of trace length.
pub struct TiV2Reader {
    file: Mutex<std::fs::File>,
    nranks: usize,
    dict: Vec<String>,
    blocks: Vec<BlockMeta>,
    /// Per-rank block ids, in op order.
    rank_blocks: Vec<Vec<usize>>,
    total_ops: u64,
    cache: Vec<Mutex<Weak<DecodedBlock>>>,
    /// Raw payload of the first block (the shared LZ dictionary), cached.
    anchor: std::sync::OnceLock<Vec<u8>>,
    resident: Arc<Resident>,
    blocks_decoded: AtomicU64,
    cache_hits: AtomicU64,
}

impl std::fmt::Debug for TiV2Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TiV2Reader")
            .field("nranks", &self.nranks)
            .field("blocks", &self.blocks.len())
            .field("total_ops", &self.total_ops)
            .finish_non_exhaustive()
    }
}

impl TiV2Reader {
    /// Opens a `TITRACE2` file: validates the trailer, loads the footer
    /// (dictionary + block index), and leaves every block on disk.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<TiV2Reader, TraceIoError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.seek(SeekFrom::End(0))?;
        let verr = |m: &str| TraceIoError::V2(TiV2Error::new("container", m.to_string()));
        if file_len < (TIT2_MAGIC.len() + 16) as u64 {
            return Err(verr("file too short for a TITRACE2 container"));
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::End(-16))?;
        file.read_exact(&mut tail)?;
        if &tail[8..] != TIT2_TRAILER {
            return Err(verr("bad trailer magic (truncated file?)"));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        if footer_len > file_len.saturating_sub(16 + TIT2_MAGIC.len() as u64) {
            return Err(verr("footer length exceeds file size"));
        }
        let footer_start = file_len - 16 - footer_len;
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_start))?;
        file.read_exact(&mut footer)?;
        let mut header = [0u8; 24];
        file.seek(SeekFrom::Start(0))?;
        let head_n = (file_len.min(24)) as usize;
        file.read_exact(&mut header[..head_n])?;
        let layout = parse_layout(&header[..head_n], &footer, file_len)?;

        let mut rank_blocks = vec![Vec::new(); layout.nranks];
        for (i, b) in layout.blocks.iter().enumerate() {
            rank_blocks[b.rank as usize].push(i);
        }
        let cache = (0..layout.blocks.len())
            .map(|_| Mutex::new(Weak::new()))
            .collect();
        Ok(TiV2Reader {
            file: Mutex::new(file),
            nranks: layout.nranks,
            dict: layout.dict,
            blocks: layout.blocks,
            rank_blocks,
            total_ops: layout.total_ops,
            cache,
            anchor: std::sync::OnceLock::new(),
            resident: Arc::new(Resident::default()),
            blocks_decoded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        })
    }

    /// Raw payload of the file's first block — the shared LZ dictionary
    /// for `comp == 2` blocks. Read and decompressed once, then cached for
    /// the reader's lifetime (bounded by one block's payload).
    fn anchor_raw(&self) -> Result<&[u8], TraceIoError> {
        if let Some(a) = self.anchor.get() {
            return Ok(a);
        }
        let meta = self.blocks[0];
        let mut buf = vec![0u8; meta.len as usize];
        {
            let mut file = self.file.lock().expect("trace file poisoned");
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut buf)?;
        }
        let raw = block_raw(&buf, &meta, None)?;
        Ok(self.anchor.get_or_init(|| raw))
    }

    /// Number of ranks in the trace.
    pub fn num_ranks(&self) -> usize {
        self.nranks
    }

    /// Total ops across all ranks (from the footer, without decoding).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Decode-side counters (cache behaviour, residency high-water mark).
    pub fn stats(&self) -> ReaderStats {
        ReaderStats {
            blocks_decoded: self.blocks_decoded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            resident_bytes: self.resident.bytes.load(Ordering::Relaxed),
            resident_peak_bytes: self.resident.peak.load(Ordering::Relaxed),
        }
    }

    /// Fetches block `id`, decoding it from disk unless some iterator
    /// already holds it (shared `Weak` cache).
    fn block(&self, id: usize) -> Result<Arc<DecodedBlock>, TraceIoError> {
        let slot = self.cache[id].lock().expect("block cache poisoned");
        if let Some(blk) = slot.upgrade() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(blk);
        }
        // Keep the slot locked while decoding so concurrent iterators
        // landing on the same block decode it exactly once.
        let meta = self.blocks[id];
        let mut buf = vec![0u8; meta.len as usize];
        {
            let mut file = self.file.lock().expect("trace file poisoned");
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut buf)?;
        }
        let anchor = if id == 0 {
            None
        } else {
            Some(self.anchor_raw()?)
        };
        let ops = parse_block(&buf, &meta, &self.dict, anchor)?;
        let cost: u64 = ops
            .iter()
            .map(|op| crate::capture::op_cost(op) as u64)
            .sum();
        let now = self.resident.bytes.fetch_add(cost, Ordering::Relaxed) + cost;
        self.resident.peak.fetch_max(now, Ordering::Relaxed);
        self.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        let blk = Arc::new(DecodedBlock {
            ops,
            cost,
            resident: Arc::clone(&self.resident),
        });
        let mut slot = slot;
        *slot = Arc::downgrade(&blk);
        Ok(blk)
    }

    /// A streaming iterator over rank `rank`'s ops. Decodes block-by-block;
    /// holds at most one decoded block at a time.
    ///
    /// As an [`Iterator`] it panics on i/o failure or block corruption
    /// discovered mid-stream; `TiOpIter::try_next` returns them instead
    /// (and [`materialize`](Self::materialize) is a fully checked decode).
    pub fn rank_iter(self: &Arc<Self>, rank: usize) -> TiOpIter {
        assert!(rank < self.nranks, "rank {rank} out of range");
        TiOpIter {
            reader: Arc::clone(self),
            rank,
            next_block: 0,
            cur: None,
        }
    }

    /// Decodes the whole container into an in-memory [`TiTrace`] (checked:
    /// errors are returned, not panicked).
    pub fn materialize(&self) -> Result<TiTrace, TraceIoError> {
        let mut ranks = vec![Vec::new(); self.nranks];
        for (ops, blocks) in ranks.iter_mut().zip(&self.rank_blocks) {
            for &id in blocks {
                let blk = self.block(id)?;
                ops.extend(blk.ops.iter().cloned());
            }
        }
        Ok(TiTrace { ranks })
    }
}

/// Block-streaming op iterator of one rank (see [`TiV2Reader::rank_iter`]).
pub struct TiOpIter {
    reader: Arc<TiV2Reader>,
    rank: usize,
    next_block: usize,
    cur: Option<(Arc<DecodedBlock>, usize)>,
}

impl TiOpIter {
    /// The next op, or the i/o failure or block corruption met while
    /// fetching it (`open` validates the container shape, not every block).
    pub(crate) fn try_next(&mut self) -> Result<Option<TiOp>, TraceIoError> {
        loop {
            if let Some((blk, ix)) = &mut self.cur {
                if *ix < blk.ops.len() {
                    let op = blk.ops[*ix].clone();
                    *ix += 1;
                    return Ok(Some(op));
                }
                self.cur = None; // drop the block before fetching the next
            }
            let ids = &self.reader.rank_blocks[self.rank];
            if self.next_block >= ids.len() {
                return Ok(None);
            }
            let id = ids[self.next_block];
            self.next_block += 1;
            self.cur = Some((self.reader.block(id)?, 0));
        }
    }
}

/// Panics where `TiOpIter::try_next` returns an error.
impl Iterator for TiOpIter {
    type Item = TiOp;

    fn next(&mut self) -> Option<TiOp> {
        self.try_next()
            .unwrap_or_else(|e| panic!("TITRACE2 stream failed on rank {}: {e}", self.rank))
    }
}
