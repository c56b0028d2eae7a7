//! # smpi-metrics — error metrics and model fitting
//!
//! The quantitative toolkit of the reproduction: the logarithmic error
//! metric of §7.1 ([`ErrorSummary`]) and the segmented regression that
//! instantiates the piece-wise linear network model of §4.1
//! ([`segmented`]).

#![forbid(unsafe_code)]

pub(crate) mod logerr;
pub(crate) mod regress;
pub mod segmented;

pub use logerr::ErrorSummary;
pub use regress::LinearFit;

#[cfg(test)]
mod stats;
