//! # pap-simcpu — a multi-core processor power/performance simulator
//!
//! This crate is the hardware substrate for the *Per-Application Power
//! Delivery* (EuroSys '19) reproduction. It models the two testbed
//! processors of the paper — an Intel Xeon SP 4114 ("Skylake") and an AMD
//! Ryzen 1700X — at the level of abstraction the paper's policies interact
//! with:
//!
//! * per-core DVFS with platform-specific frequency grids and
//!   voltage/frequency curves ([`freq`], [`volt`]);
//! * the CMOS power law `P = C_eff · V² · f` with per-workload effective
//!   capacitance, leakage, idle floors and uncore power ([`power`]);
//! * opportunistic scaling (TurboBoost / XFR) and AVX frequency caps
//!   ([`turbo`]);
//! * C-state idling ([`cstate`]);
//! * RAPL energy counters and the policy-free RAPL limit controller that
//!   throttles the fastest cores first ([`rapl`]);
//! * Ryzen's three shared, redefinable P-state slots
//!   ([`platform::PlatformSpec::shared_pstate_slots`], enforced by
//!   [`chip::Chip`]);
//! * MSR- and sysfs-shaped access paths so control software written
//!   against this simulator ports to real hardware ([`msr`], [`sysfs`]);
//! * single-core proportional time sharing ([`timeshare`]).
//!
//! The entry point is [`chip::Chip`], created from a
//! [`platform::PlatformSpec`]:
//!
//! ```
//! use pap_simcpu::prelude::*;
//!
//! let mut chip = Chip::new(PlatformSpec::skylake());
//! chip.set_requested_freq(0, KiloHertz::from_mhz(2200)).unwrap();
//! chip.set_load(0, LoadDescriptor::nominal()).unwrap();
//! chip.set_rapl_limit(Some(Watts(50.0))).unwrap();
//! for _ in 0..1000 {
//!     chip.tick(Seconds::from_millis(1.0));
//! }
//! assert!(chip.package_power().value() < 55.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chip;
pub mod chiplike;
pub mod clock;
pub mod core;
pub mod cstate;
pub mod error;
pub mod freq;
pub mod idle;
pub mod msr;
pub mod platform;
pub mod power;
pub mod rapl;
pub mod sysfs;
pub mod thermal;
pub mod timeshare;
pub mod turbo;
pub mod units;
pub mod volt;
pub mod widechip;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::chip::Chip;
    pub use crate::chiplike::ChipLike;
    pub use crate::error::{Result, SimError};
    pub use crate::freq::{FreqGrid, KiloHertz};
    pub use crate::platform::{PlatformSpec, Vendor};
    pub use crate::power::{LoadDescriptor, PowerModel};
    pub use crate::units::{Joules, Seconds, Volts, Watts};
    pub use crate::widechip::WideChip;
}
