//! # packetnet — packet-level ground truth for the SMPI reproduction
//!
//! The paper validates SMPI against real executions on Grid'5000 clusters.
//! Without that hardware, this crate provides the closest synthetic
//! equivalent: a packet-level (MTU-framed, store-and-forward, FIFO-queued)
//! discrete-event network simulator, the same class of simulator (GTNetS)
//! that the SimGrid flow model was originally validated against.
//!
//! Everything that produces the paper's measured *shapes* is mechanistic
//! here rather than assumed:
//!
//! * per-frame wire overhead → small messages behave differently from the
//!   asymptotic rate (the first segment of the piece-wise model);
//! * store-and-forward pipelining → per-hop cost visible at small sizes;
//! * round-robin fair queuing at link channels → contention at shared switch
//!   ports (what the "SMPI with contention" bars of Figs. 7/11 track);
//! * full-duplex channels on `SplitDuplex` links → bidirectional exchange
//!   patterns (pairwise all-to-all) run at full rate each way.
//!
//! The channels, their parameters under a perturbation overlay, their names
//! and the routes across them all come from the platform's one translation
//! into network resources, `smpi_platform::PlatformImage`, which the flow
//! kernel reads too.

#![forbid(unsafe_code)]

pub mod config;
pub mod net;

pub use config::PacketConfig;
pub use net::{PacketActionId, PacketNet};
