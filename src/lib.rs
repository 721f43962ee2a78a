//! # per-app-power
//!
//! Umbrella crate for the *Per-Application Power Delivery* (EuroSys '19)
//! reproduction. It re-exports five member crates under stable paths
//! so applications can depend on a single crate:
//!
//! * [`simcpu`] — the multi-core processor power/performance simulator
//!   (per-core DVFS, turbo/XFR, AVX caps, C-states, RAPL);
//! * [`workloads`] — synthetic SPEC CPU2017-like workloads, the websearch
//!   closed-loop service and the cpuburn power virus;
//! * [`telemetry`] — turbostat-like sampling, traces and statistics;
//! * [`powerd`] — the paper's contribution: priority and proportional-
//!   share (power / frequency / performance) power-delivery policies and
//!   the control daemon;
//! * [`tenants`] — multi-tenant serving scenarios with SLO-aware share
//!   control and per-tenant scorecards, layered above the daemon.
//!
//! See `examples/quickstart.rs` for a complete end-to-end run and
//! `DESIGN.md` for the experiment index.

#![forbid(unsafe_code)]

pub use pap_simcpu as simcpu;
pub use pap_telemetry as telemetry;
pub use pap_tenants as tenants;
pub use pap_workloads as workloads;
pub use powerd;

/// One-stop prelude: the types most programs need.
pub mod prelude {
    pub use pap_simcpu::prelude::*;
    pub use pap_telemetry::prelude::*;
    pub use pap_workloads::prelude::*;
    pub use powerd::prelude::*;
}
