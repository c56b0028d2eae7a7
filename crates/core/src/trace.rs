//! Communication tracing.
//!
//! SimGrid ships a Paje-compatible tracing subsystem; simulation is only
//! half the value of a simulator — the other half is *seeing* what the
//! application did. When enabled on the [`crate::world::World`], the
//! runtime records a timestamped event for every protocol transition, and
//! the run report carries the full trace.
//!
//! Events deliberately mirror the off-line simulators' log format described
//! in §2 of the paper ("time-stamp, source, destination, data size"), so a
//! recorded trace could drive a trace-replay tool.
//!
//! The log is self-describing: the runtime records each message's
//! cross-rank edges as they happen. `Delivered::{wire, flow}` name its
//! `TransferStarted` and flow record, `TransferStarted::recv` the late
//! `RecvPosted` that released it, as indices into the same report's `trace`
//! and `contention.flows`; the exports only read them.

/// One timestamped simulation event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event, seconds.
    pub time: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A rank posted a send.
    SendPosted {
        /// Sender world rank.
        src: u32,
        /// Destination world rank.
        dst: u32,
        /// Message tag.
        tag: i32,
        /// Payload size in bytes.
        bytes: u64,
        /// Eager or rendezvous protocol.
        eager: bool,
    },
    /// A rank posted a receive.
    RecvPosted {
        /// Receiver world rank.
        dst: u32,
        /// Requested source (-1 for any).
        src: i32,
        /// Requested tag (-1 for any).
        tag: i32,
    },
    /// A message's wire transfer started.
    TransferStarted {
        /// Sender world rank.
        src: u32,
        /// Destination world rank.
        dst: u32,
        /// Bytes on the wire.
        bytes: u64,
        /// Trace index of the `RecvPosted` that released this rendezvous, if
        /// its receive was posted after the send.
        recv: Option<u32>,
    },
    /// A message fully arrived at its receiver.
    Delivered {
        /// Sender world rank.
        src: u32,
        /// Destination world rank.
        dst: u32,
        /// Message tag.
        tag: i32,
        /// Payload size in bytes.
        bytes: u64,
        /// Trace index of the same message's `TransferStarted`; `None` for a
        /// self-message, which never touches the wire.
        wire: Option<u32>,
        /// Index of its record in the report's `contention.flows`; `None`
        /// without contention attribution or for a self-message.
        flow: Option<u32>,
    },
    /// A rank started a compute burst.
    ExecStarted {
        /// The computing rank.
        rank: u32,
        /// Amount of work.
        flops: f64,
    },
    /// A rank finished (its body returned).
    RankFinished {
        /// The rank.
        rank: u32,
    },
}

/// Renders a trace as aligned text, one event per line.
pub fn render(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for e in events {
        out.push_str(&format!("{:>14.9}  ", e.time));
        match &e.kind {
            TraceKind::SendPosted {
                src,
                dst,
                tag,
                bytes,
                eager,
            } => out.push_str(&format!(
                "send-post   {src} -> {dst}  tag={tag} bytes={bytes} ({})",
                if *eager { "eager" } else { "rendezvous" }
            )),
            TraceKind::RecvPosted { dst, src, tag } => {
                out.push_str(&format!("recv-post   {dst} <- {src}  tag={tag}"))
            }
            TraceKind::TransferStarted {
                src, dst, bytes, ..
            } => out.push_str(&format!("wire-start  {src} -> {dst}  bytes={bytes}")),
            TraceKind::Delivered {
                src,
                dst,
                tag,
                bytes,
                ..
            } => out.push_str(&format!(
                "delivered   {src} -> {dst}  tag={tag} bytes={bytes}"
            )),
            TraceKind::ExecStarted { rank, flops } => {
                out.push_str(&format!("exec        rank {rank}  flops={flops}"))
            }
            TraceKind::RankFinished { rank } => out.push_str(&format!("finished    rank {rank}")),
        }
        out.push('\n');
    }
    out
}

/// Simple aggregate statistics over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Number of messages posted.
    pub sends: usize,
    /// Number of sends that used the eager protocol.
    pub eager_sends: usize,
    /// Number of receives posted.
    pub recvs: usize,
    /// Number of wire transfers started.
    pub transfers: usize,
    /// Total bytes put on the wire (post-efficiency volume; differs from
    /// `bytes_delivered` by the profile's `wire_efficiency` and by
    /// self-messages, which never touch the wire).
    pub wire_bytes: u64,
    /// Number of messages delivered.
    pub delivered: usize,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Number of compute bursts.
    pub execs: usize,
    /// Total flops burned.
    pub flops: f64,
    /// Number of ranks that finished.
    pub finished: usize,
}

/// Computes aggregate statistics.
pub fn stats(events: &[TraceEvent]) -> TraceStats {
    let mut s = TraceStats::default();
    for e in events {
        match &e.kind {
            TraceKind::SendPosted { eager, .. } => {
                s.sends += 1;
                if *eager {
                    s.eager_sends += 1;
                }
            }
            TraceKind::RecvPosted { .. } => s.recvs += 1,
            TraceKind::TransferStarted { bytes, .. } => {
                s.transfers += 1;
                s.wire_bytes += bytes;
            }
            TraceKind::Delivered { bytes, .. } => {
                s.delivered += 1;
                s.bytes_delivered += bytes;
            }
            TraceKind::ExecStarted { flops, .. } => {
                s.execs += 1;
                s.flops += flops;
            }
            TraceKind::RankFinished { .. } => s.finished += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every [`TraceKind`] variant.
    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                time: 0.0,
                kind: TraceKind::SendPosted {
                    src: 0,
                    dst: 1,
                    tag: 5,
                    bytes: 100,
                    eager: true,
                },
            },
            TraceEvent {
                time: 0.0,
                kind: TraceKind::RecvPosted {
                    dst: 1,
                    src: 0,
                    tag: 5,
                },
            },
            TraceEvent {
                time: 1e-5,
                kind: TraceKind::TransferStarted {
                    src: 0,
                    dst: 1,
                    bytes: 104,
                    recv: None,
                },
            },
            TraceEvent {
                time: 5e-5,
                kind: TraceKind::ExecStarted {
                    rank: 1,
                    flops: 2.5e6,
                },
            },
            TraceEvent {
                time: 1.5e-4,
                kind: TraceKind::Delivered {
                    src: 0,
                    dst: 1,
                    tag: 5,
                    bytes: 100,
                    wire: Some(2),
                    flow: None,
                },
            },
            TraceEvent {
                time: 2e-4,
                kind: TraceKind::RankFinished { rank: 1 },
            },
        ]
    }

    #[test]
    fn render_is_line_per_event() {
        let text = render(&sample());
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("send-post   0 -> 1"));
        assert!(text.contains("eager"));
        assert!(text.contains("wire-start  0 -> 1"));
        assert!(text.contains("exec        rank 1"));
        assert!(text.contains("delivered"));
        assert!(text.contains("finished    rank 1"));
    }

    #[test]
    fn stats_aggregate_every_variant() {
        let s = stats(&sample());
        assert_eq!(s.sends, 1);
        assert_eq!(s.eager_sends, 1);
        assert_eq!(s.recvs, 1);
        assert_eq!(s.transfers, 1);
        assert_eq!(s.wire_bytes, 104);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.bytes_delivered, 100);
        assert_eq!(s.execs, 1);
        assert_eq!(s.flops, 2.5e6);
        assert_eq!(s.finished, 1);
    }

    #[test]
    fn stats_distinguish_rendezvous_sends() {
        let events = vec![
            TraceEvent {
                time: 0.0,
                kind: TraceKind::SendPosted {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    bytes: 1 << 20,
                    eager: false,
                },
            },
            TraceEvent {
                time: 0.0,
                kind: TraceKind::SendPosted {
                    src: 1,
                    dst: 0,
                    tag: 0,
                    bytes: 8,
                    eager: true,
                },
            },
        ];
        let s = stats(&events);
        assert_eq!(s.sends, 2);
        assert_eq!(s.eager_sends, 1);
    }

    #[test]
    fn stats_accumulate_across_events() {
        let mut events = sample();
        events.extend(sample());
        let s = stats(&events);
        assert_eq!(s.sends, 2);
        assert_eq!(s.wire_bytes, 208);
        assert_eq!(s.flops, 5e6);
        assert_eq!(s.finished, 2);
    }
}
