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
//!
//! ## Test seams
//!
//! Some `pub` items have no caller outside tests and the benchmark suite,
//! and stay public on purpose:
//!
//! * [`capture_v2::encode_v2_blocks`] encodes with an explicit block size,
//!   so tests can cut ranks across many small blocks; the `wire` and `lz`
//!   modules of [`capture_v2`] are public for the codec's property tests.
//! * [`World::capture_tuning`] sets the streaming capture's block size and
//!   staging budget. Without it the budget flush needs more than 4 MiB of
//!   staged ops while each rank stages fewer than one 4 096-op block, which
//!   no small test run reaches.
//! * The v1 text codec ([`TiTrace::encode`], [`TiTrace::decode`]) is read
//!   by the benchmark's codec probes and pins the v1 goldens.
//! * [`matching`]'s FIFOs and `env_matches` are driven directly by the
//!   benchmark's matching probe and by `tests/matching_diff.rs`.

#![forbid(unsafe_code)]

pub mod capture;
pub(crate) mod capture_source;
pub mod capture_v2;
pub mod coll;
pub(crate) mod comm;
pub mod ctx;
pub(crate) mod datatype;
pub(crate) mod error;
pub(crate) mod ext;
pub(crate) mod fabric;
pub(crate) mod flight;
pub(crate) mod group;
pub mod matching;
pub(crate) mod obs_export;
pub mod op;
pub(crate) mod runtime;
pub(crate) mod sampling;
pub(crate) mod shared_mem;
pub(crate) mod state;
pub mod trace;
pub(crate) mod window;
pub(crate) mod world;

pub use capture::{TiDecodeError, TiOp, TiTrace, TraceIoError};
pub use capture_source::{TraceCursor, TraceSource};
pub use capture_v2::{decode_v2, encode_v2, TiV2Error, TiV2Reader, TiV2Writer};
pub use coll::alltoall::pairwise_peers;
pub use coll::tree;
pub use comm::Comm;
pub use ctx::{AnyRequest, Ctx, RecvRequest, SendRequest, SizedRecvRequest, Status};
pub use datatype::{Datatype, Payload};
pub use error::SimError;
pub use ext::UNDEFINED_COLOR;
pub use fabric::{Fabric, FabricToken, MpiProfile};
pub use flight::{PendingReq, Postmortem, RankPostmortem, FLIGHT_DEPTH};
pub use group::Group;
pub use obs_export::CriticalPath;
pub use op::Op;
pub use runtime::{Completion, ReqId, SimResp, Simcall, WaitMode, ANY_SOURCE, ANY_TAG};
pub use shared_mem::{MemoryReport, SharedGuard, SharedSlice};
pub use window::PostWindow;
pub use world::{Backend, RunReport, World};
