//! # smpi-calibrate — platform instantiation from measurements
//!
//! Implements §6 of the SMPI paper: run a SKaMPI-style ping-pong on a
//! (simulated) real cluster, then automatically fit the piece-wise linear
//! point-to-point model — plus the two affine baselines the evaluation
//! compares against.

#![forbid(unsafe_code)]

pub mod model;
pub mod pingpong;

pub use model::{
    fit_best_affine, fit_default_affine, fit_piecewise, model_axis, predict, RouteRef,
};
pub use pingpong::{default_sizes, pingpong, Sample};
