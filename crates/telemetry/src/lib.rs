//! # pap-telemetry — turbostat-like telemetry for the simulated chip
//!
//! The paper collects package power, per-core power (Ryzen), retired
//! instruction counts and active frequency once per second with a modified
//! `turbostat` (§3.1). This crate provides the equivalent over
//! [`pap_simcpu::chip::Chip`]:
//!
//! * [`counters`] — delta/rate arithmetic over wrapping hardware counters;
//! * [`energy`] — per-entity Wh/cost accounting at a configurable tariff;
//! * [`health`] — per-sensor health tracking with hysteresis;
//! * [`sampler`] — the stateful 1 Hz sampler;
//! * [`trace`] — time-series recording and CSV export;
//! * [`stats`] — means, percentiles, the box-plot five-number summary
//!   and the Jain fairness index;
//! * [`histogram`] — log-bucketed latency histograms;
//! * [`metrics`] — lock-free counters/histograms with Prometheus-style
//!   exposition for the control plane;
//! * [`slo`] — SLO targets and windowed attainment tracking for
//!   multi-tenant scoring;
//! * [`rollup`] — multi-node aggregation for cluster-level arbitration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod energy;
pub mod health;
pub mod histogram;
pub mod metrics;
pub mod rollup;
pub mod sampler;
pub mod slo;
pub mod stats;
pub mod trace;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::counters::{core_rates, power_from_energy, power_from_energy_uj, CoreRates};
    pub use crate::energy::{EnergyAccount, EnergyLedger, Tariff};
    pub use crate::health::{HealthEvent, HealthTracker, SensorHealth, SensorId, SensorState};
    pub use crate::histogram::LogHistogram;
    pub use crate::metrics::{AtomicLogHistogram, ControlMetrics, Counter};
    pub use crate::rollup::{ClusterRollup, NodeTelemetry};
    pub use crate::sampler::{CoreSample, Sample, Sampler};
    pub use crate::slo::{SloTarget, SloTracker};
    pub use crate::stats::BoxStats;
    pub use crate::trace::Trace;
}
