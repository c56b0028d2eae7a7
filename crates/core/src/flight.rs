//! Always-on flight recorder and the deadlock/stall postmortem it feeds.
//!
//! Every rank keeps a short ring of its most recent simcalls and request
//! completions, encoded as the same [`TiOp`] lines the capture layer uses
//! (`TITRACE v1` syntax — one vocabulary for traces and diagnostics). The
//! ring is always on: its cost is one `VecDeque` push per simcall, plus,
//! for a wait, the `Vec` of post indices its [`TiOp::Wait`] carries, which
//! the runtime allocates for every wait before `Runtime::log` hands it
//! over (an allocation-site sample put it at 11 % of the `sweep_grid`
//! benchmark's allocations and 15 % of `coll_scale`'s). The recorder is a
//! sink: the runtime hands it finished ops whose waits already carry
//! per-rank post indices ([`crate::runtime::ReqId::post`]), so `[post N]`
//! here, in a [`PendingReq`] and in a captured trace is one number.
//!
//! When the maestro detects that the simulation cannot make progress
//! ([`crate::error::SimError`]), it snapshots the rings and the matching
//! stores into a [`Postmortem`]: for every blocked rank, its wait mode, its
//! last ops, and each pending request's specification — plus the *nearest
//! matching counterpart* found on the peer (an unmatched send with a
//! different tag, a posted receive naming a different source, …), which is
//! usually the bug.

use std::collections::VecDeque;

use smpi_obs::json::JsonBuf;

use crate::capture::TiOp;

/// Ring depth per rank: the acceptance bar is "last ≥ 8 ops"; 16 leaves
/// room for the completions interleaved between them.
pub const FLIGHT_DEPTH: usize = 16;

/// One ring entry: an op the rank issued, or a completion it observed.
#[derive(Debug, Clone)]
enum FlightEntry {
    /// A simcall, in `TITRACE v1` vocabulary.
    Op(TiOp),
    /// A request of this rank completed.
    Done {
        post: u32,
        kind: &'static str,
        peer: u32,
        tag: i32,
        bytes: u64,
    },
}

impl FlightEntry {
    fn line(&self) -> String {
        match self {
            FlightEntry::Op(op) => op.line(),
            FlightEntry::Done {
                post,
                kind,
                peer,
                tag,
                bytes,
            } => format!("done {kind} [post {post}] peer {peer} tag {tag} {bytes}"),
        }
    }
}

/// Per-rank rings of recent activity (lives in [`crate::runtime::Runtime`]).
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    rings: Vec<VecDeque<FlightEntry>>,
}

impl FlightRecorder {
    pub(crate) fn new(nranks: usize) -> Self {
        FlightRecorder {
            // Not `vec![ring; n]`: a `VecDeque` clone is sized to its
            // length, so every ring but the last would start empty.
            rings: (0..nranks)
                .map(|_| VecDeque::with_capacity(FLIGHT_DEPTH))
                .collect(),
        }
    }

    fn push(&mut self, rank: u32, entry: FlightEntry) {
        let ring = &mut self.rings[rank as usize];
        if ring.len() == FLIGHT_DEPTH {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Records a simcall of `rank`.
    pub(crate) fn on_op(&mut self, rank: u32, op: TiOp) {
        self.push(rank, FlightEntry::Op(op));
    }

    /// Records the completion of `rank`'s request number `post`.
    pub(crate) fn on_done(
        &mut self,
        rank: u32,
        post: u32,
        kind: &'static str,
        peer: u32,
        tag: i32,
        bytes: u64,
    ) {
        self.push(
            rank,
            FlightEntry::Done {
                post,
                kind,
                peer,
                tag,
                bytes,
            },
        );
    }

    /// The rank's recent history, oldest first, rendered as text lines.
    pub(crate) fn last_ops(&self, rank: u32) -> Vec<String> {
        self.rings[rank as usize]
            .iter()
            .map(FlightEntry::line)
            .collect()
    }
}

/// One pending (incomplete) request of a blocked rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PendingReq {
    /// The request's per-rank post index (aligned with captured traces),
    /// when known.
    pub post: Option<u32>,
    /// Human/machine-readable specification, e.g.
    /// `send dst 1 cid 0 tag 7 (131072 B, rendezvous, unmatched)`.
    pub spec: String,
    /// The nearest matching counterpart on the peer side and why it does
    /// not match, when one exists.
    pub counterpart: Option<String>,
}

/// One blocked rank's snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankPostmortem {
    /// World rank.
    pub rank: u32,
    /// Wait mode the rank is blocked in (`all`, `any`, `some`), when it is
    /// blocked in a wait at all.
    pub wait_mode: Option<&'static str>,
    /// Incomplete requests of the wait set, in post order.
    pub pending: Vec<PendingReq>,
    /// The rank's last ops and completions, oldest first, in `TITRACE v1`
    /// vocabulary (`done …` lines for completions).
    pub last_ops: Vec<String>,
}

/// Flight-recorder snapshot attached to a [`crate::error::SimError`]:
/// everything needed to diagnose why the simulation stopped making
/// progress, without re-running under a debugger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Postmortem {
    /// One entry per blocked rank, ascending by rank.
    pub ranks: Vec<RankPostmortem>,
}

impl Postmortem {
    /// Human-readable multi-line diagnosis (used by `SimError`'s
    /// `Display`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "postmortem: {} blocked rank(s)\n",
            self.ranks.len()
        ));
        for r in &self.ranks {
            match r.wait_mode {
                Some(mode) => out.push_str(&format!(
                    "  rank {} blocked in wait({mode}) on {} pending request(s):\n",
                    r.rank,
                    r.pending.len()
                )),
                None => out.push_str(&format!("  rank {} blocked:\n", r.rank)),
            }
            for p in &r.pending {
                let post = p.post.map_or_else(|| "?".to_string(), |ix| ix.to_string());
                out.push_str(&format!("    [post {post}] {}\n", p.spec));
                if let Some(c) = &p.counterpart {
                    out.push_str(&format!("      nearest match: {c}\n"));
                }
            }
            if !r.last_ops.is_empty() {
                out.push_str("    last ops:\n");
                for op in &r.last_ops {
                    out.push_str(&format!("      {op}\n"));
                }
            }
        }
        out
    }

    /// JSON object (the postmortem golden format).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("blocked").begin_arr();
        for r in &self.ranks {
            j.uint_val(r.rank as u64);
        }
        j.end_arr();
        j.key("ranks").begin_arr();
        for r in &self.ranks {
            j.begin_obj();
            j.key("rank").uint_val(r.rank as u64);
            j.key("wait_mode");
            match r.wait_mode {
                Some(m) => j.str_val(m),
                None => j.raw_val("null"),
            };
            j.key("pending").begin_arr();
            for p in &r.pending {
                j.begin_obj();
                j.key("post");
                match p.post {
                    Some(ix) => j.uint_val(ix as u64),
                    None => j.raw_val("null"),
                };
                j.key("spec").str_val(&p.spec);
                j.key("counterpart");
                match &p.counterpart {
                    Some(c) => j.str_val(c),
                    None => j.raw_val("null"),
                };
                j.end_obj();
            }
            j.end_arr();
            j.key("last_ops").begin_arr();
            for op in &r.last_ops {
                j.str_val(op);
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ring_is_allocated_at_full_depth() {
        let f = FlightRecorder::new(4);
        for ring in &f.rings {
            assert!(ring.capacity() >= FLIGHT_DEPTH, "{}", ring.capacity());
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut f = FlightRecorder::new(1);
        for i in 0..(FLIGHT_DEPTH as u64 + 5) {
            f.on_op(0, TiOp::Compute { flops: i as f64 });
        }
        let ops = f.last_ops(0);
        assert_eq!(ops.len(), FLIGHT_DEPTH);
        assert_eq!(
            ops.last().unwrap(),
            &format!("compute {}", FLIGHT_DEPTH + 4)
        );
        assert_eq!(ops.first().unwrap(), "compute 5");
    }

    #[test]
    fn postmortem_renders_and_serializes() {
        let pm = Postmortem {
            ranks: vec![RankPostmortem {
                rank: 3,
                wait_mode: Some("all"),
                pending: vec![PendingReq {
                    post: Some(12),
                    spec: "send dst 1 cid 0 tag 7 (64 B, eager, unmatched)".into(),
                    counterpart: Some("rank 1 waits on tag 9 — tag mismatch".into()),
                }],
                last_ops: vec!["send 1 0 7 64".into(), "wait all 12".into()],
            }],
        };
        let text = pm.render();
        assert!(text.contains("rank 3 blocked in wait(all)"));
        assert!(text.contains("[post 12] send dst 1"));
        assert!(text.contains("nearest match: rank 1 waits on tag 9"));
        let json = pm.to_json();
        assert!(json.starts_with("{\"blocked\":[3],"));
        assert!(json.contains("\"wait_mode\":\"all\""));
        assert!(json.contains("\"counterpart\":\"rank 1 waits on tag 9"));
    }
}
