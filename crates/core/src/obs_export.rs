//! Exporting a run's observability data: Paje traces, JSON dumps and
//! critical-path analysis.
//!
//! [`crate::world::RunReport`] carries the raw material (event trace,
//! metrics snapshot, self-profile); this module turns it into artifacts:
//!
//! * [`RunReport::paje`] — a Paje trace (the format SimGrid's own tracing
//!   subsystem emits) with one container per rank carrying its state
//!   timeline, one container per network link carrying its utilization
//!   variable, and an arrow per wire transfer — routed hop by hop through
//!   the link containers of its route when contention attribution is
//!   available;
//! * [`RunReport::to_json`] — a single JSON object with the timings,
//!   trace statistics, metrics, contention attribution and self-profile;
//!   [`RunReport::write_json`] is
//!   the streaming variant that writes the same bytes section by section
//!   to any [`std::io::Write`] sink without building the whole report in
//!   memory first;
//! * `RunReport::chrome_trace` — a Chrome Trace Event Format export
//!   (load in `chrome://tracing` or Perfetto): one complete ("X") event
//!   per rank-state interval from the metrics timelines;
//!   [`RunReport::write_chrome_trace`] streams the same bytes to any
//!   sink, so large runs never materialize the export in memory;
//! * [`RunReport::critical_path`] — the longest dependency chain through
//!   the trace, attributing each segment to a rank or — when contention
//!   attribution names a bottleneck — to a specific network link.
//!
//! The exports pair no events themselves: they read the cross-rank edges
//! the runtime recorded in the trace (see [`crate::trace`]), so an arrow or
//! a message edge is the runtime's own, overtaking messages included.

use std::collections::HashMap;
use std::io;

use smpi_obs::json::{num, JsonBuf};
use smpi_obs::paje::PajeWriter;

use crate::trace::{self, TraceKind};
use crate::world::RunReport;

/// Fixed palette for rank-state entity values (cycled when states outnumber
/// entries); indices are assigned in order of first appearance.
const PALETTE: &[&str] = &[
    "0.2 0.6 0.2", // running: green
    "0.9 0.5 0.1", // computing: orange
    "0.8 0.1 0.1", // blocked_in_recv: red
    "0.6 0.1 0.6", // blocked_in_send: purple
    "0.3 0.3 0.9", // collectives: blue
    "0.5 0.5 0.5", // sleeping / finished: grey
    "0.1 0.7 0.7",
    "0.7 0.7 0.1",
];

/// One timed line of the Paje body, buffered so events from different
/// sources (timelines, gauges, trace arrows) can be merged in time order.
enum PajeEvent {
    SetState(u32, &'static str),
    PushState(u32, &'static str),
    PopState(u32),
    SetVariable(String, f64),
    /// Arrow endpoints carry the endpoint container's alias (a rank or a
    /// link container, once arrows are routed through their links).
    StartLink(String, u64),
    EndLink(String, u64),
}

/// Parses a link index out of a `surf.link.{ix}.util` gauge key.
fn link_util_index(key: &str) -> Option<usize> {
    key.strip_prefix("surf.link.")?
        .strip_suffix(".util")?
        .parse()
        .ok()
}

impl<R> RunReport<R> {
    /// Renders the run as a Paje trace. Rank state timelines come from the
    /// metrics snapshot (needs [`crate::world::World::metrics`]); message
    /// arrows come from the event trace (needs
    /// [`crate::world::World::tracing`]). Either half may be absent; the
    /// header and rank containers are always emitted.
    pub fn paje(&self) -> String {
        let mut w = PajeWriter::new();
        let nranks = self.finish_times.len();
        let end = self.sim_time;

        w.define_container_type("CT_sim", "0", "Simulation");
        w.define_container_type("CT_rank", "CT_sim", "MPIRank");
        w.define_container_type("CT_link", "CT_sim", "NetworkLink");
        w.define_state_type("ST_rank", "CT_rank", "rank state");
        w.define_variable_type("VT_util", "CT_link", "utilization");
        w.define_link_type("LT_msg", "CT_sim", "CT_rank", "CT_rank", "message");

        // Entity values for every distinct rank state, first-seen order.
        let mut states: Vec<&'static str> = Vec::new();
        if let Some(m) = &self.metrics {
            for tl in m.timelines_of("rank") {
                for ev in &tl.events {
                    let s = match ev.op {
                        smpi_obs::StateOp::Push(s) | smpi_obs::StateOp::Set(s) => s,
                        smpi_obs::StateOp::Pop => continue,
                    };
                    if !states.contains(&s) {
                        states.push(s);
                    }
                }
            }
        }
        for (i, s) in states.iter().enumerate() {
            w.define_entity_value(s, "ST_rank", s, PALETTE[i % PALETTE.len()]);
        }

        w.create_container(0.0, "sim", "CT_sim", "0", "simulation");
        for r in 0..nranks {
            w.create_container(
                0.0,
                &format!("rank{r}"),
                "CT_rank",
                "sim",
                &format!("rank {r}"),
            );
        }
        let mut links: Vec<usize> = self
            .metrics
            .iter()
            .flat_map(|m| m.gauges.iter())
            .filter_map(|(k, _)| link_util_index(k))
            .collect();
        // Arrows are routed through every link a flow crossed; each such
        // link needs a container even without a utilization gauge (e.g. the
        // packet backend's channels).
        if let Some(c) = &self.contention {
            links.extend(
                c.flows
                    .iter()
                    .flat_map(|f| f.attr.route.iter().map(|&l| l as usize)),
            );
        }
        links.sort_unstable();
        links.dedup();
        for &l in &links {
            let name = match &self.contention {
                Some(c) => c.link_name(l as u32),
                None => format!("link {l}"),
            };
            w.create_container(0.0, &format!("link{l}"), "CT_link", "sim", &name);
        }

        // Merge every timed event source, then emit in time order. The
        // sequence number keeps the sort stable across equal timestamps.
        let mut body: Vec<(f64, usize, PajeEvent)> = Vec::new();
        let mut seq = 0usize;
        let mut push = |body: &mut Vec<(f64, usize, PajeEvent)>, t: f64, ev: PajeEvent| {
            body.push((t, seq, ev));
            seq += 1;
        };

        if let Some(m) = &self.metrics {
            for tl in m.timelines_of("rank") {
                for ev in &tl.events {
                    let pe = match ev.op {
                        smpi_obs::StateOp::Set(s) => PajeEvent::SetState(tl.id, s),
                        smpi_obs::StateOp::Push(s) => PajeEvent::PushState(tl.id, s),
                        smpi_obs::StateOp::Pop => PajeEvent::PopState(tl.id),
                    };
                    push(&mut body, ev.time, pe);
                }
            }
            for (key, series) in &m.gauges {
                if let Some(l) = link_util_index(key) {
                    for &(t, v) in series {
                        push(&mut body, t, PajeEvent::SetVariable(format!("link{l}"), v));
                    }
                }
            }
        }

        // One arrow per delivery that crossed the wire, from its own
        // transfer start. With contention attribution it is routed hop by
        // hop through its flow's link containers (the transfer window split
        // evenly across the hops); without it, one rank-to-rank arrow.
        let mut next_key = 0u64;
        for e in &self.trace {
            let TraceKind::Delivered {
                src,
                dst,
                wire: Some(wire),
                flow,
                ..
            } = e.kind
            else {
                continue;
            };
            let start = self.trace[wire as usize].time;
            let route: &[u32] = match (&self.contention, flow) {
                (Some(c), Some(f)) => &c.flows[f as usize].attr.route,
                _ => &[],
            };
            let mut stops = Vec::with_capacity(route.len() + 2);
            stops.push(format!("rank{src}"));
            stops.extend(route.iter().map(|l| format!("link{l}")));
            stops.push(format!("rank{dst}"));
            let dt = (e.time - start) / (stops.len() - 1) as f64;
            for (hop, pair) in stops.windows(2).enumerate() {
                let key = next_key;
                next_key += 1;
                let t0 = start + dt * hop as f64;
                // The last hop lands exactly on the delivery time.
                let t1 = if hop + 2 == stops.len() {
                    e.time
                } else {
                    start + dt * (hop + 1) as f64
                };
                push(&mut body, t0, PajeEvent::StartLink(pair[0].clone(), key));
                push(&mut body, t1, PajeEvent::EndLink(pair[1].clone(), key));
            }
        }

        body.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (t, _, ev) in body {
            match ev {
                PajeEvent::SetState(r, s) => w.set_state(t, "ST_rank", &format!("rank{r}"), s),
                PajeEvent::PushState(r, s) => w.push_state(t, "ST_rank", &format!("rank{r}"), s),
                PajeEvent::PopState(r) => w.pop_state(t, "ST_rank", &format!("rank{r}")),
                PajeEvent::SetVariable(c, v) => w.set_variable(t, "VT_util", &c, v),
                PajeEvent::StartLink(c, k) => w.start_link(t, "LT_msg", "sim", "msg", &c, k),
                PajeEvent::EndLink(c, k) => w.end_link(t, "LT_msg", "sim", "msg", &c, k),
            }
        }

        for &l in &links {
            w.destroy_container(end, "CT_link", &format!("link{l}"));
        }
        for r in 0..nranks {
            w.destroy_container(end, "CT_rank", &format!("rank{r}"));
        }
        w.destroy_container(end, "CT_sim", "sim");
        w.into_string()
    }

    /// Serializes the whole report (timings, trace statistics, metrics,
    /// contention, self-profile) as one JSON object.
    /// Rank results are not included — they are application data of
    /// arbitrary type. Delegates to [`write_json`](Self::write_json), so
    /// the two produce identical bytes by construction.
    pub fn to_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf)
            .expect("in-memory JSON write cannot fail");
        String::from_utf8(buf).expect("JSON output is UTF-8")
    }

    /// Streams the report JSON to `out` section by section: each top-level
    /// section (trace stats, metrics, contention, profile) is rendered and
    /// written independently, so the peak allocation is one section rather
    /// than the whole report. The bytes are identical to
    /// [`to_json`](Self::to_json).
    pub fn write_json<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        write!(out, "{{\"sim_time\":{}", num(self.sim_time))?;
        write!(out, ",\"wall_seconds\":{}", num(self.wall.as_secs_f64()))?;
        {
            let mut j = JsonBuf::new();
            j.begin_arr();
            for &t in &self.finish_times {
                j.num_val(t);
            }
            j.end_arr();
            write!(out, ",\"finish_times\":{}", j.finish())?;
        }
        {
            let stats = trace::stats(&self.trace);
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("sends").uint_val(stats.sends as u64);
            j.key("eager_sends").uint_val(stats.eager_sends as u64);
            j.key("recvs").uint_val(stats.recvs as u64);
            j.key("transfers").uint_val(stats.transfers as u64);
            j.key("wire_bytes").uint_val(stats.wire_bytes);
            j.key("delivered").uint_val(stats.delivered as u64);
            j.key("bytes_delivered").uint_val(stats.bytes_delivered);
            j.key("execs").uint_val(stats.execs as u64);
            j.key("flops").num_val(stats.flops);
            j.key("finished").uint_val(stats.finished as u64);
            j.end_obj();
            write!(out, ",\"trace_stats\":{}", j.finish())?;
        }
        match &self.metrics {
            Some(m) => write!(out, ",\"metrics\":{}", m.to_json())?,
            None => out.write_all(b",\"metrics\":null")?,
        }
        match &self.contention {
            Some(c) => write!(out, ",\"contention\":{}", c.to_json())?,
            None => out.write_all(b",\"contention\":null")?,
        }
        write!(out, ",\"profile\":{}", self.profile.to_json())?;
        out.write_all(b"}")
    }

    /// Renders the run as a Chrome Trace Event Format JSON object (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Rank-state
    /// intervals from the metrics timelines (needs
    /// [`crate::world::World::metrics`]) become complete (`"X"`) events on
    /// one thread row per rank. Timestamps are simulated microseconds. The
    /// metadata header is always emitted, with or without metrics.
    #[cfg(test)]
    pub(crate) fn chrome_trace(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_trace(&mut buf)
            .expect("in-memory chrome-trace write cannot fail");
        String::from_utf8(buf).expect("chrome trace is UTF-8")
    }

    /// Streaming variant of `RunReport::chrome_trace`: writes the same
    /// bytes event by event to any [`io::Write`] sink. A long run's
    /// rank-state intervals never have to be materialized as one giant
    /// string — mirror of [`RunReport::write_json`].
    pub fn write_chrome_trace<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        use smpi_obs::json::escape;
        let us = |t: f64| t * 1e6;
        write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        // Metadata: name the process and one thread per rank.
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{{\"name\":\"smpi simulation\"}}}}"
        )?;
        for r in 0..self.finish_times.len() {
            write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\
                 \"args\":{{\"name\":\"rank {r}\"}}}}"
            )?;
        }
        // Rank-state intervals: walk each rank's push/pop/set stack; every
        // closed (or end-of-run truncated) state becomes an "X" event.
        if let Some(m) = &self.metrics {
            let emit = |out: &mut W, rank: u32, state: &str, t0: f64, t1: f64| {
                write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"rank\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{rank}}}",
                    escape(state),
                    num(us(t0)),
                    num(us(t1 - t0)),
                )
            };
            for tl in m.timelines_of("rank") {
                let mut stack: Vec<(&str, f64)> = Vec::new();
                for ev in &tl.events {
                    match ev.op {
                        smpi_obs::StateOp::Push(s) => stack.push((s, ev.time)),
                        smpi_obs::StateOp::Pop => {
                            if let Some((s, t0)) = stack.pop() {
                                emit(out, tl.id, s, t0, ev.time)?;
                            }
                        }
                        smpi_obs::StateOp::Set(s) => {
                            if let Some((prev, t0)) = stack.pop() {
                                emit(out, tl.id, prev, t0, ev.time)?;
                            }
                            stack.push((s, ev.time));
                        }
                    }
                }
                // States still open at the end of the run.
                while let Some((s, t0)) = stack.pop() {
                    emit(out, tl.id, s, t0, self.sim_time)?;
                }
            }
        }
        write!(out, "]}}")
    }

    /// Longest dependency chain through the event trace (`None` when
    /// tracing was off or the trace is empty). Local program order chains
    /// events of the same rank; a delivery additionally depends on its own
    /// wire-transfer start, and a rendezvous transfer on the late receive
    /// that released it. Each segment of the winning chain is attributed to
    /// the rank that was waiting through it; a message edge goes to
    /// `link:<name>` — the dominant bottleneck of that flow's contention
    /// attribution — when available, and to the anonymous `network` bucket
    /// otherwise, as does a release edge (the handshake). The time before
    /// the chain's first event goes to that event's rank, so the segments
    /// sum to `total`.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let rank_of = |k: &TraceKind| -> usize {
            (match *k {
                TraceKind::SendPosted { src, .. } => src,
                TraceKind::RecvPosted { dst, .. } => dst,
                TraceKind::TransferStarted { src, .. } => src,
                TraceKind::Delivered { dst, .. } => dst,
                TraceKind::ExecStarted { rank, .. } => rank,
                TraceKind::RankFinished { rank } => rank,
            }) as usize
        };

        // Predecessor: the later of the rank's previous event and the
        // cross-rank edge the runtime recorded on the event.
        let n = self.trace.len();
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut last_of_rank: Vec<Option<usize>> = vec![None; self.finish_times.len()];
        for (i, e) in self.trace.iter().enumerate() {
            let r = rank_of(&e.kind);
            let cross = match e.kind {
                TraceKind::TransferStarted { recv, .. } => recv.map(|q| q as usize),
                TraceKind::Delivered { wire, .. } => wire.map(|w| w as usize),
                _ => None,
            };
            pred[i] = match (last_of_rank[r], cross) {
                (Some(p), Some(q)) if self.trace[p].time > self.trace[q].time => Some(p),
                (p, q) => q.or(p),
            };
            last_of_rank[r] = Some(i);
        }

        // Walk back from the last event (ties broken by trace order). A
        // cross-rank predecessor is the event's own `wire` or `recv`.
        let mut cur = (0..n).max_by(|&a, &b| {
            self.trace[a]
                .time
                .total_cmp(&self.trace[b].time)
                .then(a.cmp(&b))
        })?;
        let total = self.trace[cur].time;
        let mut acc: HashMap<String, f64> = HashMap::new();
        let mut steps = 0usize;
        let mut message_hops = 0usize;
        while let Some(p) = pred[cur] {
            let edge = Some(p as u32);
            let who = match self.trace[cur].kind {
                TraceKind::Delivered { wire, flow, .. } if wire == edge => {
                    message_hops += 1;
                    let link = self.contention.as_ref().and_then(|c| {
                        let l = c.flows[flow? as usize].attr.dominant_bottleneck()?;
                        Some(format!("link:{}", c.link_name(l)))
                    });
                    link.unwrap_or_else(|| "network".to_string())
                }
                TraceKind::TransferStarted { recv, .. } if recv == edge => "network".to_string(),
                ref k => format!("rank{}", rank_of(k)),
            };
            *acc.entry(who).or_default() += self.trace[cur].time - self.trace[p].time;
            steps += 1;
            cur = p;
        }
        // Untraced time (a sleep) before the chain's first event.
        let start = self.trace[cur].time;
        if start > 0.0 {
            *acc.entry(format!("rank{}", rank_of(&self.trace[cur].kind)))
                .or_default() += start;
        }
        let mut segments: Vec<(String, f64)> = acc.into_iter().collect();
        segments.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Some(CriticalPath {
            total,
            segments,
            steps,
            message_hops,
        })
    }
}

impl<R> smpi_obs::Deterministic for RunReport<R> {
    /// Strips every host-dependent field of the report tree: the
    /// wall-clock duration and the self-profile's timing half. Two reports
    /// of identical simulated runs compare — and serialize —
    /// byte-identically afterwards.
    fn strip_nondeterminism(&mut self) {
        self.wall = std::time::Duration::ZERO;
        self.profile.strip_nondeterminism();
    }
}

/// The longest dependency chain through a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Simulated time at the chain's last event (= trace makespan).
    pub total: f64,
    /// Seconds of the chain attributed per participant (`rank{r}`,
    /// `link:<name>` for message edges with a known bottleneck, or
    /// `"network"` for anonymous ones and rendezvous releases), largest
    /// first; they sum to `total`.
    pub segments: Vec<(String, f64)>,
    /// Number of edges on the chain.
    pub steps: usize,
    /// How many of those edges are cross-rank message deliveries.
    pub message_hops: usize,
}

impl CriticalPath {
    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path: {:.6} s over {} steps ({} message hops)\n",
            self.total, self.steps, self.message_hops
        );
        for (who, secs) in &self.segments {
            let pct = if self.total > 0.0 {
                100.0 * secs / self.total
            } else {
                0.0
            };
            out.push_str(&format!("  {who:<10} {:>12.6} s ({pct:>4.1}%)\n", secs));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn link_util_keys_parse() {
        assert_eq!(link_util_index("surf.link.3.util"), Some(3));
        assert_eq!(link_util_index("surf.link.12.util"), Some(12));
        assert_eq!(link_util_index("surf.link.3.bytes"), None);
        assert_eq!(link_util_index("packetnet.chan.3.util"), None);
    }

    #[test]
    fn critical_path_attributes_message_edges_to_network() {
        // rank0 computes 0..2, sends; wire 2..5; rank1 finishes at 5.
        let trace = vec![
            TraceEvent {
                time: 0.0,
                kind: TraceKind::ExecStarted {
                    rank: 0,
                    flops: 1e9,
                },
            },
            TraceEvent {
                time: 2.0,
                kind: TraceKind::TransferStarted {
                    src: 0,
                    dst: 1,
                    bytes: 1000,
                    recv: None,
                },
            },
            TraceEvent {
                time: 5.0,
                kind: TraceKind::Delivered {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    bytes: 1000,
                    wire: Some(1),
                    flow: None,
                },
            },
            TraceEvent {
                time: 5.0,
                kind: TraceKind::RankFinished { rank: 1 },
            },
        ];
        let report = RunReport::<()> {
            sim_time: 5.0,
            wall: std::time::Duration::from_millis(1),
            finish_times: vec![2.0, 5.0],
            results: vec![],
            memory: Default::default(),
            metrics: None,
            profile: Default::default(),
            trace,
            ti_trace: None,
            contention: None,
        };
        let cp = report.critical_path().unwrap();
        assert_eq!(cp.total, 5.0);
        assert_eq!(cp.message_hops, 1);
        // network carries the 3 s wire edge, rank0 the 2 s compute edge.
        let get = |who: &str| {
            cp.segments
                .iter()
                .find(|(w, _)| w == who)
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        };
        assert!((get("network") - 3.0).abs() < 1e-12);
        assert!((get("rank0") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_critical_path() {
        let report = RunReport::<()> {
            sim_time: 0.0,
            wall: std::time::Duration::ZERO,
            finish_times: vec![],
            results: vec![],
            memory: Default::default(),
            metrics: None,
            profile: Default::default(),
            trace: vec![],
            ti_trace: None,
            contention: None,
        };
        assert!(report.critical_path().is_none());
        // The JSON export still works without metrics or trace.
        let json = report.to_json();
        assert!(json.contains("\"metrics\":null"));
        assert!(json.contains("\"contention\":null"));
        assert!(json.contains("\"trace_stats\":"));
    }

    #[test]
    fn write_json_streams_the_same_bytes() {
        let report = RunReport::<()> {
            sim_time: 1e-6,
            wall: std::time::Duration::from_millis(1),
            finish_times: vec![1e-6],
            results: vec![],
            memory: Default::default(),
            metrics: None,
            profile: Default::default(),
            trace: vec![],
            ti_trace: None,
            contention: None,
        };
        let mut buf = Vec::new();
        report.write_json(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), report.to_json());
    }

    #[test]
    fn chrome_trace_has_metadata() {
        let report = RunReport::<()> {
            sim_time: 1e-6,
            wall: std::time::Duration::from_millis(1),
            finish_times: vec![1e-6, 1e-6],
            results: vec![],
            memory: Default::default(),
            metrics: None,
            profile: Default::default(),
            trace: vec![],
            ti_trace: None,
            contention: None,
        };
        let ct = report.chrome_trace();
        // Without metrics the trace is the metadata header alone: the
        // process and one named thread per rank.
        assert_eq!(
            ct,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"smpi simulation\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"rank 0\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\
             \"args\":{\"name\":\"rank 1\"}}]}"
        );
        let mut buf = Vec::new();
        report.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), ct);
    }

    #[test]
    fn chrome_trace_streams_rank_state_intervals() {
        use smpi_obs::{MetricsReport, StateEvent, StateOp, TimelineSnapshot};
        let mut m = MetricsReport::default();
        m.timelines.push(TimelineSnapshot {
            kind: "rank",
            id: 1,
            events: vec![
                StateEvent {
                    time: 0.0,
                    op: StateOp::Push("compute"),
                },
                StateEvent {
                    time: 2.0,
                    op: StateOp::Set("wait"),
                },
            ],
        });
        let report = RunReport::<()> {
            sim_time: 5.0,
            wall: std::time::Duration::ZERO,
            finish_times: vec![5.0, 5.0],
            results: vec![],
            memory: Default::default(),
            metrics: Some(m),
            profile: Default::default(),
            trace: vec![],
            ti_trace: None,
            contention: None,
        };
        let ct = report.chrome_trace();
        // Closed interval (compute, 0 -> 2 s) and the end-of-run
        // truncated one (wait, 2 -> 5 s), both on tid 1.
        assert!(ct.contains(
            "{\"name\":\"compute\",\"cat\":\"rank\",\"ph\":\"X\",\"ts\":0,\
             \"dur\":2000000,\"pid\":0,\"tid\":1}"
        ));
        assert!(ct.contains(
            "{\"name\":\"wait\",\"cat\":\"rank\",\"ph\":\"X\",\"ts\":2000000,\
             \"dur\":3000000,\"pid\":0,\"tid\":1}"
        ));
        let mut buf = Vec::new();
        report.write_chrome_trace(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), ct);
    }

    #[test]
    fn critical_path_names_the_bottleneck_link() {
        use smpi_obs::{ContentionReport, FlowAttribution};
        let trace = vec![
            TraceEvent {
                time: 0.0,
                kind: TraceKind::TransferStarted {
                    src: 0,
                    dst: 1,
                    bytes: 1000,
                    recv: None,
                },
            },
            TraceEvent {
                time: 4.0,
                kind: TraceKind::Delivered {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    bytes: 1000,
                    wire: Some(0),
                    flow: Some(0),
                },
            },
        ];
        let mut attr = FlowAttribution::new(vec![0, 1]);
        attr.share_bytes = 1000.0;
        attr.add_bottleneck(1, 4.0);
        let contention = ContentionReport {
            link_names: vec!["uplink".into(), "spine".into()],
            flows: vec![smpi_obs::FlowRecord {
                src: 0,
                dst: 1,
                bytes: 1000,
                attr,
            }],
        };
        let report = RunReport::<()> {
            sim_time: 4.0,
            wall: std::time::Duration::from_millis(1),
            finish_times: vec![0.0, 4.0],
            results: vec![],
            memory: Default::default(),
            metrics: None,
            profile: Default::default(),
            trace,
            ti_trace: None,
            contention: Some(contention),
        };
        let cp = report.critical_path().unwrap();
        assert_eq!(cp.message_hops, 1);
        assert_eq!(cp.segments[0], ("link:spine".to_string(), 4.0));
        // The Paje export routes the arrow through both link containers:
        // rank0 -> link0 -> link1 -> rank1 is three start/end pairs.
        let paje = report.paje();
        assert_eq!(paje.matches("\n11 ").count(), 3, "got:\n{paje}");
        assert_eq!(paje.matches("\n12 ").count(), 3, "got:\n{paje}");
        assert!(paje.contains("spine"), "got:\n{paje}");
    }
}
