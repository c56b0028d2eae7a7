//! Umbrella crate for the SMPI-rs workspace.
//!
//! Re-exports every workspace crate so that integration tests under `tests/`
//! and runnable examples under `examples/` can reach the whole system through
//! a single dependency.

#![forbid(unsafe_code)]

pub use packetnet;
pub use simix;
pub use smpi;
pub use smpi_calibrate as calibrate;
pub use smpi_metrics as metrics;
pub use smpi_obs as obs;
pub use smpi_platform as platform;
pub use smpi_replay as replay;
pub use smpi_sweep as sweep;
pub use smpi_workloads as workloads;
pub use surf_sim as surf;
