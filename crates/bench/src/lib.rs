//! # smpi-bench — the figure-regeneration harness
//!
//! One module per paper figure (see DESIGN.md's experiment index) plus
//! ablations and the `dt` / `ep` end-to-end reports; nothing else. What the
//! observability, replay and diff layers show is asserted by their tests
//! (`crates/core/tests/obs.rs`, `tests/replay_e2e.rs`,
//! `crates/diff/tests/fleet.rs`). The `repro` binary drives the figures:
//!
//! ```text
//! cargo run --release -p smpi-bench --bin repro -- all
//! cargo run --release -p smpi-bench --bin repro -- fig3 fig7
//! ```
//!
//! Setting `REPRO_FAST=1` shrinks sweeps for smoke tests.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod e2e;
pub mod fig_alltoall;
pub mod fig_dt;
pub mod fig_pingpong;
pub mod fig_scatter;
pub mod fig_schemes;
pub mod fig_speed;
