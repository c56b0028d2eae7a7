//! # smpi-metrics — error metrics and model fitting
//!
//! The quantitative toolkit of the reproduction: the logarithmic error
//! metric of §7.1 ([`logerr`]), summary statistics ([`stats`]), ordinary
//! least squares ([`regress`]) and the segmented regression that instantiates
//! the piece-wise linear network model of §4.1 ([`segmented`]).

#![forbid(unsafe_code)]

pub mod logerr;
pub mod regress;
pub mod segmented;
pub mod stats;

pub use logerr::{log_error, max_log_error, mean_log_error, to_fraction, ErrorSummary};
pub use regress::{fit, LinearFit};
pub use segmented::{fit_segment_sweep, fit_segments, FittedSegment, SegmentedFit};
