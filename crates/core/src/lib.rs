//! # smpi — single-node on-line simulation of MPI applications
//!
//! Rust reproduction of *"Single Node On-Line Simulation of MPI Applications
//! with SMPI"* (Clauss, Stillwell, Genaud, Suter, Casanova, Quinson — IPDPS
//! 2011). Applications are real Rust closures making MPI calls against a
//! [`ctx::Ctx`]; every call is intercepted and timed by a simulation
//! backend, while the application's data and control flow execute for real
//! (**on-line** simulation).
//!
//! ```
//! use smpi::{World, MpiProfile};
//! use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
//! use surf_sim::TransferModel;
//! use std::sync::Arc;
//!
//! let rp = Arc::new(RoutedPlatform::new(flat_cluster("c", 4, &ClusterConfig::default())));
//! let world = World::smpi(rp, TransferModel::default_affine());
//! let report = world.run(4, |ctx| {
//!     let mine = [ctx.rank() as f64];
//!     let sum = ctx.allreduce(&mine, &smpi::op::sum::<f64>(), &ctx.world());
//!     sum[0]
//! });
//! assert!(report.results.iter().all(|&s| s == 6.0)); // 0+1+2+3
//! assert!(report.sim_time > 0.0);
//! ```
//!
//! The same application runs unchanged on the packet-level ground-truth
//! backend (`World::testbed`), which is how the reproduction regenerates the
//! paper's accuracy figures.

#![forbid(unsafe_code)]

pub mod capture;
pub mod capture_source;
pub mod capture_v2;
pub mod coll;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod error;
pub mod ext;
pub mod fabric;
pub mod flight;
pub mod group;
pub mod matching;
pub mod obs_export;
pub mod op;
pub mod runtime;
pub mod sampling;
pub mod shared_mem;
pub mod state;
pub mod trace;
pub mod window;
pub mod world;

pub use capture::{TiDecodeError, TiOp, TiSummary, TiTrace, TraceIoError};
pub use capture_source::{TraceCursor, TraceSource};
pub use capture_v2::{
    decode_v2, encode_v2, ReaderStats, TiOpIter, TiV2Error, TiV2Reader, TiV2Writer,
    DEFAULT_BLOCK_OPS, DEFAULT_WRITER_BUDGET,
};
pub use coll::alltoall::pairwise_peers;
pub use coll::tree;
pub use comm::Comm;
pub use ctx::{AnyRequest, Ctx, RecvRequest, SendRequest, SizedRecvRequest, Status};
pub use datatype::{Datatype, Payload};
pub use error::SimError;
pub use ext::UNDEFINED_COLOR;
pub use fabric::{Fabric, MpiProfile, PacketFabric, SurfFabric};
pub use flight::{PendingReq, Postmortem, RankPostmortem, FLIGHT_DEPTH};
pub use group::Group;
pub use obs_export::CriticalPath;
pub use op::Op;
pub use runtime::{Completion, ReqId, SimResp, Simcall, WaitMode, ANY_SOURCE, ANY_TAG};
pub use shared_mem::{MemoryReport, SharedGuard, SharedSlice};
pub use trace::{TraceEvent, TraceKind};
pub use window::PostWindow;
pub use world::{Backend, RunReport, World};
