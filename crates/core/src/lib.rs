//! # powerd — per-application power delivery
//!
//! The core library of the *Per-Application Power Delivery* (EuroSys '19)
//! reproduction: policies and a userspace control daemon that deliver
//! **different** amounts of power to applications co-located on one
//! socket, using per-core DVFS.
//!
//! ## Policies
//!
//! * [`policy::priority`] — strict two-level priorities: high-priority
//!   apps run at the maximum P-state under the limit; low-priority apps
//!   get residual power and may be starved.
//! * [`policy::power_shares`] — per-core power proportional to shares
//!   (needs per-core power telemetry; Ryzen only).
//! * [`policy::frequency_shares`] — frequency proportional to shares
//!   (needs only package power and per-core DVFS).
//! * [`policy::performance_shares`] — normalized IPS proportional to
//!   shares (needs per-app performance feedback).
//!
//! Each share policy implements the paper's three functions: initial
//! distribution, redistribution with min-funding revocation
//! ([`policy::minfund`]), and translation via the naïve α model
//! ([`alpha`]). On Ryzen the daemon additionally clusters targets into
//! the chip's three shared P-state slots ([`quantize`]).
//!
//! The translation step is pluggable: selecting
//! [`config::TranslationKind::Online`] swaps the naïve α formula for the
//! `pap_model` online learned power/performance model, which falls back
//! to naïve α bit-for-bit whenever its fits are not yet trustworthy.
//!
//! When telemetry can fail, [`resilience::ResilientDaemon`] wraps the
//! daemon in a hysteretic degradation ladder (power shares → frequency
//! shares → uniform last-good cap) driven by per-sensor health; the
//! fault-injection harness in `pap_faults` exercises it.
//!
//! Every control layer can additionally emit an off-path decision trace
//! ([`obs`]): per-interval [`obs::DecisionRecord`]s with JSONL and
//! Prometheus-style metric sinks, for post-morteming chaos runs and
//! cluster rebalances without re-running with printlns.
//!
//! ## Quick start
//!
//! ```
//! use pap_simcpu::platform::PlatformSpec;
//! use pap_simcpu::units::{Seconds, Watts};
//! use pap_workloads::spec;
//! use powerd::config::{PolicyKind, Priority};
//! use powerd::runner::Experiment;
//!
//! let result = Experiment::new(
//!     PlatformSpec::skylake(),
//!     PolicyKind::FrequencyShares,
//!     Watts(28.0), // tight enough that the share ratio binds
//! )
//! .app("cactusBSSN", spec::CACTUS_BSSN, Priority::High, 70)
//! .app("leela", spec::LEELA, Priority::High, 30)
//! .duration(Seconds(20.0))
//! .run()
//! .unwrap();
//! assert!(result.apps[0].mean_freq_mhz > result.apps[1].mean_freq_mhz);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alpha;
pub mod cli;
pub mod config;
pub mod daemon;
pub mod governor;
pub mod hw;
pub mod hwp;
pub mod obs;
pub mod policy;
pub mod quantize;
pub mod report;
pub mod resilience;
pub mod runner;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
    pub use crate::daemon::{ControlAction, Daemon};
    pub use crate::obs::{AppDecision, DecisionEvent, DecisionRecord, DecisionTrace};
    pub use crate::policy::{Policy, PolicyCtx, PolicyInput, PolicyOutput};
    pub use crate::resilience::{
        CoreObservation, DegradationLevel, LadderEvent, Observation, ResilienceConfig,
        ResilientDaemon, RetryPolicy,
    };
    pub use crate::runner::{
        standalone_freq, AppResult, Experiment, ExperimentResult, LatencyExperiment, LatencyResult,
    };
    pub use pap_model::{ModelConfig, ModelSnapshot, TranslationModel};
}
