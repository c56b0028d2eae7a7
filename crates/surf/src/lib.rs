//! # surf-sim — the SMPI-rs simulation kernel
//!
//! Rust reimplementation of the SURF layer of SimGrid as described in
//! *"Single Node On-Line Simulation of MPI Applications with SMPI"*
//! (Clauss et al., IPDPS 2011), §4 and §5.1.
//!
//! The kernel is a **sequential discrete-event simulator** whose network
//! model is *flow-level* rather than packet-level: contention is resolved
//! analytically by a max-min fairness solver ([`MaxMinProblem`]), and
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
//!
//! ## Test seams
//!
//! A few `pub` items have no caller outside tests and the benchmark suite,
//! and stay public on purpose. [`MaxMinProblem`] (with
//! [`add_variable_class`](MaxMinProblem::add_variable_class) and
//! [`CnstId`]) is the solver driven directly, by the benchmark's solver
//! probe and by this crate's `tests/lmm_props.rs`.
//! [`solve_reference`](MaxMinProblem::solve_reference),
//! [`solve_reference_with_bottlenecks`](MaxMinProblem::solve_reference_with_bottlenecks)
//! and [`solve_heap_from`](MaxMinProblem::solve_heap_from) are the
//! from-scratch oracle and the forced finders those properties pin the
//! production solver against. [`EngineConfig::tcp_window`] is the only way
//! a test can make a rate-0 flow (every bandwidth and `bw_factor` is
//! asserted positive), so without it the stall path would go untested.
//!
//! The rest of the kernel's test surface is `#[cfg(test)]` and never
//! ships. The simulation's full-rebuild oracle (its `oracle_route` /
//! `oracle_host` action fields, the `full_rebuild_oracle` switch and the
//! branch that takes it in `flush_reshare`) is what the differential tests
//! in `engine/oracle_tests.rs` compare the one shipped reshare path
//! against. `CnstId::index`, `Simulation::{is_done, action_rate,
//! next_event_time}` and `Slab::get_tagged` are that oracle's read side.
//! `Simulation::{running_actions, peak_actions}`, `Slab::capacity_slots`
//! and the class table's `len` are the footprint checks of the engine's
//! and the slab's unit tests (slots recycle, nothing leaks at drain).

#![forbid(unsafe_code)]

pub mod calendar;
pub(crate) mod engine;
pub mod hash;
pub(crate) mod ids;
pub(crate) mod lmm;
pub(crate) mod model;
pub(crate) mod slab;
pub(crate) mod time;

pub use engine::{EngineConfig, Simulation, StallError, StuckAction};
pub use ids::{ActionId, HostId, LinkId};
pub use lmm::{CnstId, MaxMinProblem, VarId};
pub use model::{Segment, TransferModel};
pub use slab::Slab;
pub use time::SimTime;
