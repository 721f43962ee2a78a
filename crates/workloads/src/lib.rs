//! # pap-workloads — synthetic workloads for the power-delivery study
//!
//! The substrate that stands in for the paper's benchmark programs:
//!
//! * [`profile`] / [`spec`] — analytic SPEC CPU2017 workload models with
//!   calibrated frequency sensitivity, power demand and AVX usage;
//! * [`phases`] — deterministic program-phase perturbation;
//! * [`engine`] — the per-tick execution engine that drives a
//!   [`pap_simcpu::chip::Chip`];
//! * [`latency`] — a closed-loop queueing model of CloudSuite *websearch*;
//! * [`openloop`] — an open-loop (Poisson-arrival) serving model with a
//!   bounded queue, for production-shaped multi-tenant traffic; both
//!   models drive the one FCFS server in [`latency`];
//! * [`burn`] — the `cpuburn` power virus;
//! * [`generator`] — Table 3 sets and seeded random mixes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod burn;
pub mod engine;
pub mod gaming;
pub mod generator;
pub mod latency;
pub mod multithread;
pub mod openloop;
pub mod phases;
pub mod profile;
pub mod spec;
pub mod traces;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::burn::{cpuburn, CPUBURN};
    pub use crate::engine::{RunningApp, StepOutcome};
    pub use crate::latency::{ClosedLoopService, DemandShape, ServiceConfig};
    pub use crate::openloop::{OpenLoopConfig, OpenLoopService};
    pub use crate::phases::PhasedProfile;
    pub use crate::profile::{Demand, WorkloadProfile};
    pub use crate::spec::spec2017;
}
