//! Workspace-wide observability layer.
//!
//! Every simulation layer (the surf flow kernel, the packet-level network,
//! and the SMPI core runtime) emits into the same lightweight [`Rec`]
//! handle. When observability is off the handle is `None` and every emit
//! is a single branch — the hot paths pay nothing else. When on, events
//! accumulate in a [`MemoryRecorder`] and are snapshotted into a
//! [`MetricsReport`] at the end of the run.
//!
//! The crate also provides:
//!
//! * [`paje::PajeWriter`] — a low-level writer for the Paje trace format
//!   understood by Vite / pj_dump, mirroring SimGrid's tracing output;
//! * [`SelfProfile`] — simulator self-profiling (wall-clock per phase,
//!   events processed, events per second), with an always-on
//!   [`KernelProfile`] section for the flow kernel's solver machinery;
//! * [`FlowAttribution`] / [`ContentionReport`] — per-flow contention
//!   attribution (which link bottlenecked which flow, for how long),
//!   filled by the network backends and aggregated by the runtime;
//! * [`json`] — the workspace's one JSON format: the dependency-free
//!   writer the exports use and the parser that reads them back;
//! * [`Deterministic`] — the byte-stability discipline as a trait: one
//!   call strips every host-dependent field from a report tree, leaving
//!   only exactly-reproducible simulated quantities.

#![forbid(unsafe_code)]

mod attribution;
mod deterministic;
mod json_in;
mod json_mod;
mod paje_mod;
mod profile;
mod recorder;
mod report;
mod sweep_stats;

pub use attribution::{ContentionReport, FlowAttribution, FlowRecord, LinkRollup};
pub use deterministic::Deterministic;
pub use profile::{CodecStats, KernelProfile, SelfProfile};
pub use recorder::{MemoryRecorder, Rec, StateEvent, StateOp};
pub use report::{Histogram, MetricsReport, TimelineSnapshot};
pub use sweep_stats::{SweepStats, WorkerStats};

pub mod json {
    //! Minimal JSON writer ([`JsonBuf`], [`escape`], [`num`]) and parser
    //! ([`JsonValue`]), no external deps.
    pub use crate::json_in::*;
    pub use crate::json_mod::*;
}

pub mod paje {
    //! Paje trace-format writer.
    pub use crate::paje_mod::*;
}
