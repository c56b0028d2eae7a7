//! # surf-sim — the SMPI-rs simulation kernel
//!
//! Rust reimplementation of the SURF layer of SimGrid as described in
//! *"Single Node On-Line Simulation of MPI Applications with SMPI"*
//! (Clauss et al., IPDPS 2011), §4 and §5.1.
//!
//! The kernel is a **sequential discrete-event simulator** whose network
//! model is *flow-level* rather than packet-level: contention is resolved
//! analytically by a max-min fairness solver ([`lmm`]), and
//! point-to-point performance follows a **piece-wise linear** model
//! ([`model::TransferModel`]) whose segments capture IP framing and the MPI
//! eager/rendezvous protocol switch.
//!
//! ```
//! use surf_sim::{Simulation, TransferModel};
//!
//! let mut sim = Simulation::new();
//! let link = sim.add_link(125e6, 50e-6); // 1 GbE, 50 µs
//! sim.start_transfer(&[link], 1_000_000.0, &TransferModel::ideal());
//! let (t, done) = sim.advance_to_next().unwrap();
//! assert_eq!(done.len(), 1);
//! assert!((t.as_secs() - (50e-6 + 1e6 / 125e6)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod calendar;
pub mod engine;
pub mod hash;
pub mod ids;
pub mod lmm;
pub mod model;
pub mod slab;
pub mod time;

pub use engine::{EngineConfig, Simulation, StallError, StuckAction};
pub use ids::{ActionId, HostId, LinkId};
pub use lmm::{CnstId, MaxMinProblem, VarId};
pub use model::{Segment, TransferModel};
pub use slab::Slab;
pub use time::SimTime;
