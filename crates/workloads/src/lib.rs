//! # smpi-workloads — the applications of the paper's evaluation
//!
//! * [`dt`] — the NAS Data Traffic benchmark (BH/WH/SH graphs, Figs. 13–16);
//! * [`ep`] — the NAS Embarrassingly Parallel benchmark (Fig. 18);
//! * [`kernels`] — the manual binomial scatter and pairwise all-to-all
//!   drivers (Figs. 7–12, 17).
//!
//! All workloads are written against the public `smpi` API exactly as a
//! user application would be; they run unchanged on the flow-level SMPI
//! backend and on the packet-level testbed backend.

#![forbid(unsafe_code)]

pub mod dt;
pub mod ep;
pub mod kernels;

pub use dt::{build_graph, dt_rank, DtClass, DtGraph, TaskGraph};
pub use ep::{ep_block, ep_rank, EpConfig, EpPartial, EpResult};
pub use kernels::{timed_alltoall, timed_scatter, timed_scatter_folded};
