//! # smpi-platform — target platform descriptions
//!
//! Implements §6 of the SMPI paper: hosts, switches, links, routes, cluster
//! builders for the paper's griffon and gdx testbeds, and a SimGrid-style
//! XML platform format. The same description feeds both the flow-level SURF
//! kernel and the packet-level ground-truth simulator through one translation
//! into network resources (`PlatformImage`, in `surf_bridge`), so accuracy
//! comparisons always run on identical hardware models.

#![forbid(unsafe_code)]

pub(crate) mod cluster;
pub(crate) mod perturb;
pub(crate) mod routing;
pub(crate) mod spec;
pub(crate) mod surf_bridge;
pub(crate) mod units;
pub(crate) mod xml;

pub use cluster::{flat_cluster, gdx, griffon, ClusterConfig};
pub use perturb::PlatformPerturbation;
pub use routing::RoutedPlatform;
pub use spec::{Dir, Hop, HostIx, Link, LinkIx, Node, NodeIx, NodeKind, Platform, SharingPolicy};
pub use surf_bridge::PlatformImage;
pub use xml::{from_xml, to_xml, XmlError};
