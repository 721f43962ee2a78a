//! # pap-scale — sharded, event-driven cluster control plane
//!
//! The paper delivers per-application power on one socket; `clusterd`
//! lifts that to a handful of machines; this crate is the layer that
//! makes the story hold at datacenter scale (ROADMAP item 1, and the
//! regime FastCap targets): 1000+ nodes under one budget, millions of
//! tenant arrivals and departures per simulated day, without giving up
//! the property the whole stack is built on — every engine is
//! **bit-identical to the serial reference**.
//!
//! * [`engine`] — the sharded epoch engine and the workspace's only
//!   parallel cluster engine: nodes partitioned in place into chunks
//!   (disjoint borrowed slices of the cluster's own node vector, so no
//!   node is moved), a pool of `std` scoped workers claiming chunks
//!   from an atomic cursor, and a lightweight epoch commit (run by
//!   whichever worker finishes last) instead of global barriers.
//!   Telemetry aggregation is incremental
//!   ([`pap_telemetry::rollup::DeltaRollup`]); at `epsilon = 0` the
//!   whole run is bit-identical to [`clusterd::Cluster::run`], at
//!   `epsilon > 0` settled nodes are skipped entirely.
//! * [`load`] — cluster-scale churn: a `pap-tenants` arrival trace
//!   drives the resident app population, batched per epoch for
//!   `Cluster::admit_batch`/`depart_batch`.
//! * [`sweep`] — the parallel experiment sweep engine (moved here from
//!   `pap-bench`, which re-exports it): `std` scoped workers pulling
//!   jobs from one mutexed iterator, input-ordered collection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod load;
pub mod sweep;

pub use engine::{run_sharded, ScaleConfig, ScaleStats};
pub use load::{ChurnBatch, ChurnLoad};

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::engine::{run_sharded, ScaleConfig, ScaleStats};
    pub use crate::load::{ChurnBatch, ChurnLoad};
    pub use crate::sweep::Threads;
}
