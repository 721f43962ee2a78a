//! # clusterd — hierarchical multi-node power arbitration
//!
//! The paper delivers per-application power on **one socket**: a
//! `powerd` daemon splits a package budget across the apps pinned to
//! one chip. This crate is the layer above — the subsystem that turns
//! N independent daemons into one power-delivery fabric:
//!
//! * [`allocator`] — the hierarchical budget allocator: cluster cap →
//!   per-node caps via the same share-proportional water-fill and
//!   min-funding revocation (`powerd::policy::minfund`) the node
//!   daemons use one level down, rebalanced periodically from per-node
//!   telemetry ([`pap_telemetry::rollup::ClusterRollup`]); when nodes
//!   run the online learned translation, their published capacity
//!   predictions clamp claim ceilings so budget a chip cannot
//!   physically spend flows to nodes that can use it;
//! * [`admission`] — dynamic admission and placement: apps arrive with
//!   `(priority, shares, demand class)`, land on the least-saturated
//!   node, spill to the next node when a chip's cores are full, and are
//!   rejected with a typed [`ClusterError`] when the cluster is full;
//!   departures return their budget to the pool at the next rebalance;
//! * [`node`] — one simulated machine: a [`pap_simcpu::chip::Chip`],
//!   its `powerd` [`powerd::daemon::Daemon`], and the apps running on
//!   it, advanced one control interval at a time;
//! * [`cluster`] — the cluster itself: admission, departures, the
//!   serial reference engine, and rebalancing.
//!
//! The parallel engine lives one crate up: `pap_scale::run_sharded`
//! drives the same nodes on a pool of shard workers through
//! [`EngineSeam`], bit-identical to [`Cluster::run`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod allocator;
pub mod cluster;
pub mod node;

pub use admission::{AppRequest, DemandClass, Placement};
pub use allocator::{BudgetAllocator, NodeClaim};
pub use cluster::{Cluster, ClusterConfig, ClusterError, EngineSeam, RequeueOutcome};
pub use node::Node;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::admission::{AppRequest, DemandClass, Placement};
    pub use crate::allocator::{BudgetAllocator, NodeClaim};
    pub use crate::cluster::{
        AppReport, Cluster, ClusterConfig, ClusterError, EngineSeam, RequeueOutcome,
    };
    pub use crate::node::Node;
}
