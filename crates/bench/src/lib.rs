//! # smpi-bench — the figure-regeneration harness
//!
//! One module per paper figure (see DESIGN.md's experiment index) plus
//! ablations. The `repro` binary drives them:
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
pub mod contention_demo;
pub mod diff_demo;
pub mod e2e;
pub mod fig_alltoall;
pub mod fig_dt;
pub mod fig_pingpong;
pub mod fig_scatter;
pub mod fig_schemes;
pub mod fig_speed;
pub mod obs_demo;
pub mod replay_demo;
