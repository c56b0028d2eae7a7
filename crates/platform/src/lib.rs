//! # smpi-platform — target platform descriptions
//!
//! Implements §6 of the SMPI paper: hosts, switches, links, routes, cluster
//! builders for the paper's griffon and gdx testbeds, and a SimGrid-style
//! XML platform format. The same description feeds both the flow-level SURF
//! kernel and the packet-level ground-truth simulator through one translation
//! into network resources ([`PlatformImage`], in [`surf_bridge`]), so accuracy
//! comparisons always run on identical hardware models.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod perturb;
pub mod routing;
pub mod spec;
pub mod surf_bridge;
pub mod units;
pub mod xml;

pub use cluster::{flat_cluster, gdx, griffon, hierarchical_cluster, ClusterConfig};
pub use perturb::PlatformPerturbation;
pub use routing::{RoutedPlatform, Routes};
pub use spec::{Edge, HostIx, Link, LinkIx, Node, NodeIx, NodeKind, Platform, SharingPolicy};
pub use surf_bridge::PlatformImage;
pub use xml::{from_xml, to_xml, XmlError};
