//! Daemon configuration: applications, priorities, shares and policy
//! selection.

use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};

pub use pap_model::TranslationKind;

use crate::quantize::SlotSelector;

/// A configuration rejected by [`DaemonConfig::validate`] /
/// [`DaemonConfig::validate_on`], with enough structure for callers
/// (admission control, cluster placement) to react programmatically.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The power limit is non-positive or non-finite.
    InvalidPowerLimit {
        /// The rejected limit.
        limit: Watts,
    },
    /// The power limit cannot be programmed into the platform's RAPL
    /// range (hardware clamps or ignores out-of-range limits; failing
    /// loudly beats silently enforcing a different budget).
    PowerLimitOutsideRaplRange {
        /// The rejected limit.
        limit: Watts,
        /// The platform's programmable RAPL range.
        range: (Watts, Watts),
    },
    /// The control interval is non-positive.
    InvalidControlInterval {
        /// The rejected interval.
        interval: Seconds,
    },
    /// An app is pinned to a core the chip does not have.
    CoreOutOfRange {
        /// The app's display name.
        app: String,
        /// The requested core.
        core: usize,
        /// The chip's core count.
        num_cores: usize,
    },
    /// Two apps are pinned to the same core (space sharing requires one
    /// app per core).
    DuplicateCorePin {
        /// The doubly-assigned core.
        core: usize,
    },
    /// An app has zero proportional shares.
    ZeroShares {
        /// The app's display name.
        app: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidPowerLimit { limit } => {
                write!(f, "invalid power limit {limit}")
            }
            ConfigError::PowerLimitOutsideRaplRange { limit, range } => write!(
                f,
                "power limit {limit} outside the platform RAPL range [{}, {}]",
                range.0, range.1
            ),
            ConfigError::InvalidControlInterval { interval } => {
                write!(f, "control interval must be positive, got {interval}")
            }
            ConfigError::CoreOutOfRange {
                app,
                core,
                num_cores,
            } => write!(
                f,
                "app '{app}' pinned to core {core} on a {num_cores}-core chip"
            ),
            ConfigError::DuplicateCorePin { core } => write!(
                f,
                "core {core} assigned to multiple apps (space sharing requires one app per core)"
            ),
            ConfigError::ZeroShares { app } => write!(f, "app '{app}' has zero shares"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Two-level priority (§4.1). Strict: low-priority applications receive
/// only residual power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Foreground / latency-sensitive.
    High,
    /// Background / batch.
    Low,
}

/// One application under daemon control, pinned to a core (§5: "the
/// daemon takes a list of programs as input with their priority and
/// shares" and pins applications to cores).
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// The core the application is pinned to.
    pub core: usize,
    /// Priority class (used by the priority policy).
    pub priority: Priority,
    /// Proportional shares (used by share policies). Must be positive.
    pub shares: u32,
    /// Offline-measured baseline: instructions per second running alone at
    /// maximum frequency (§5.2, performance shares). Ignored by policies
    /// that do not use performance feedback.
    pub baseline_ips: f64,
}

impl AppSpec {
    /// Convenience constructor with equal default shares and a baseline to
    /// be filled by the runner.
    pub fn new(name: impl Into<String>, core: usize) -> AppSpec {
        AppSpec {
            name: name.into(),
            core,
            priority: Priority::High,
            shares: 100,
            baseline_ips: 0.0,
        }
    }

    /// Set the priority class.
    pub fn with_priority(mut self, p: Priority) -> AppSpec {
        self.priority = p;
        self
    }

    /// Set proportional shares.
    pub fn with_shares(mut self, shares: u32) -> AppSpec {
        self.shares = shares;
        self
    }

    /// Set the offline IPS baseline.
    pub fn with_baseline_ips(mut self, ips: f64) -> AppSpec {
        self.baseline_ips = ips;
        self
    }
}

/// Which policy the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No daemon control: hardware RAPL alone (the paper's baseline).
    RaplNative,
    /// Strict two-level priority (§4.1/§5.1).
    Priority,
    /// Proportional shares of per-core power (§5.2, Ryzen only).
    PowerShares,
    /// Proportional shares of frequency (§5.2).
    FrequencyShares,
    /// Proportional shares of normalized performance (§5.2).
    PerformanceShares,
    /// FastCap-style global optimization: water-fill on marginal
    /// fair-speedup per watt, falling back to [`PolicyKind::FrequencyShares`]
    /// while the translation model's package fit is unconfident
    /// (`policy::fastcap`).
    FastCap,
}

impl PolicyKind {
    /// Whether the policy requires per-core power telemetry.
    pub fn needs_per_core_power(self) -> bool {
        matches!(self, PolicyKind::PowerShares)
    }

    /// Whether the policy requires per-application performance feedback.
    pub fn needs_performance_feedback(self) -> bool {
        matches!(self, PolicyKind::PerformanceShares | PolicyKind::FastCap)
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RaplNative => "rapl",
            PolicyKind::Priority => "priority",
            PolicyKind::PowerShares => "power-shares",
            PolicyKind::FrequencyShares => "freq-shares",
            PolicyKind::PerformanceShares => "perf-shares",
            PolicyKind::FastCap => "fastcap",
        }
    }
}

/// Controller tuning knobs. The defaults reproduce the paper's daemon;
/// the alternatives exist for the ablation studies (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerTuning {
    /// Damping applied to the α-model correction (1.0 = the paper's raw
    /// formula).
    pub damping: f64,
    /// Control deadband in watts.
    pub deadband_watts: f64,
    /// Shared P-state slot selection algorithm (Ryzen).
    pub slot_selector: SlotSelector,
    /// Redistribute with the paper's literal incremental-delta scheme
    /// instead of the share-proportional water-fill. The incremental
    /// scheme drifts under saturation (see `policy::minfund`).
    pub incremental_redistribution: bool,
}

impl Default for ControllerTuning {
    fn default() -> ControllerTuning {
        ControllerTuning {
            damping: 0.6,
            deadband_watts: 0.5,
            slot_selector: SlotSelector::DpMean,
            incremental_redistribution: false,
        }
    }
}

/// Full daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Policy to run.
    pub policy: PolicyKind,
    /// The package power limit the daemon enforces.
    pub power_limit: Watts,
    /// Control-loop cadence (the paper uses 1 second).
    pub control_interval: Seconds,
    /// The applications under control.
    pub apps: Vec<AppSpec>,
    /// Priority-policy variant (§4.1): if true, all cores are floored at
    /// the minimum P-state before HP applications get extra power; if
    /// false (the paper's choice), LP applications are starved when the
    /// budget is tight.
    pub floor_low_priority: bool,
    /// §4.4 extension: cap each app at its *highest useful* frequency
    /// (beyond which measured performance saturates) instead of the
    /// highest possible frequency.
    pub saturation_aware: bool,
    /// Controller tuning (damping, deadband, slot selection).
    pub tuning: ControllerTuning,
    /// Which budget-to-frequency translation the policies use: the
    /// paper's naïve α model, or the online learned model (which itself
    /// falls back to naïve α until its fits are trustworthy).
    pub translation: TranslationKind,
}

impl DaemonConfig {
    /// A configuration with the paper's defaults (1 s control loop,
    /// starving LP variant, no saturation awareness).
    pub fn new(policy: PolicyKind, power_limit: Watts, apps: Vec<AppSpec>) -> DaemonConfig {
        DaemonConfig {
            policy,
            power_limit,
            control_interval: Seconds(1.0),
            apps,
            floor_low_priority: false,
            saturation_aware: true,
            tuning: ControllerTuning::default(),
            translation: TranslationKind::Naive,
        }
    }

    /// Validate internal consistency against a core count. An empty app
    /// set is valid: it describes an idle node (all cores parked), which
    /// cluster admission relies on.
    pub fn validate(&self, num_cores: usize) -> Result<(), ConfigError> {
        check_positive_limit(self.power_limit)?;
        if self.control_interval.value() <= 0.0 {
            return Err(ConfigError::InvalidControlInterval {
                interval: self.control_interval,
            });
        }
        let mut seen = vec![false; num_cores];
        for app in &self.apps {
            check_app(app, num_cores, || {
                std::mem::replace(&mut seen[app.core], true)
            })?;
        }
        Ok(())
    }

    /// Validate against a concrete platform: everything [`validate`]
    /// checks, plus that the power limit can actually be programmed into
    /// the platform's RAPL range when it has one.
    ///
    /// [`validate`]: DaemonConfig::validate
    pub fn validate_on(&self, platform: &PlatformSpec) -> Result<(), ConfigError> {
        self.validate(platform.num_cores)?;
        check_rapl_range(self.power_limit, platform)
    }

    /// What [`validate`] reports for this valid config with `app`
    /// appended, checking only `app`: no copy of the config and no
    /// per-core scratch.
    ///
    /// [`validate`]: DaemonConfig::validate
    pub(crate) fn check_new_app(&self, app: &AppSpec, num_cores: usize) -> Result<(), ConfigError> {
        check_app(app, num_cores, || {
            self.apps.iter().any(|a| a.core == app.core)
        })
    }
}

/// What [`DaemonConfig::validate_on`] reports for a valid config with
/// `limit` in place of its power limit, checking only the limit.
pub(crate) fn check_limit_on(limit: Watts, platform: &PlatformSpec) -> Result<(), ConfigError> {
    check_positive_limit(limit)?;
    check_rapl_range(limit, platform)
}

fn check_positive_limit(limit: Watts) -> Result<(), ConfigError> {
    if !limit.is_valid() || limit.value() <= 0.0 {
        return Err(ConfigError::InvalidPowerLimit { limit });
    }
    Ok(())
}

fn check_rapl_range(limit: Watts, platform: &PlatformSpec) -> Result<(), ConfigError> {
    if let Some(rapl) = &platform.rapl {
        let (lo, hi) = rapl.limit_range;
        if limit < lo || limit > hi {
            return Err(ConfigError::PowerLimitOutsideRaplRange {
                limit,
                range: (lo, hi),
            });
        }
    }
    Ok(())
}

/// One app's checks, in [`DaemonConfig::validate`]'s order; `pinned`
/// answers, once the core is known to be in range, whether an earlier
/// app holds the same core.
fn check_app(
    app: &AppSpec,
    num_cores: usize,
    pinned: impl FnOnce() -> bool,
) -> Result<(), ConfigError> {
    if app.core >= num_cores {
        return Err(ConfigError::CoreOutOfRange {
            app: app.name.clone(),
            core: app.core,
            num_cores,
        });
    }
    if pinned() {
        return Err(ConfigError::DuplicateCorePin { core: app.core });
    }
    if app.shares == 0 {
        return Err(ConfigError::ZeroShares {
            app: app.name.clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> Vec<AppSpec> {
        vec![
            AppSpec::new("a", 0).with_shares(90),
            AppSpec::new("b", 1)
                .with_priority(Priority::Low)
                .with_shares(10),
        ]
    }

    #[test]
    fn builder_chain() {
        let a = AppSpec::new("x", 3)
            .with_priority(Priority::Low)
            .with_shares(25)
            .with_baseline_ips(1e9);
        assert_eq!(a.core, 3);
        assert_eq!(a.priority, Priority::Low);
        assert_eq!(a.shares, 25);
        assert_eq!(a.baseline_ips, 1e9);
    }

    #[test]
    fn valid_config_passes() {
        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), apps());
        assert!(c.validate(10).is_ok());
        assert_eq!(c.control_interval, Seconds(1.0));
    }

    #[test]
    fn empty_app_set_is_an_idle_node() {
        let c = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), vec![]);
        assert!(c.validate(10).is_ok(), "empty config = all cores parked");
    }

    #[test]
    fn rejects_bad_configs() {
        let mut a = apps();
        a[1].core = 0; // duplicate pin
        let c = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), a);
        assert_eq!(
            c.validate(10),
            Err(ConfigError::DuplicateCorePin { core: 0 })
        );

        let mut a = apps();
        a[0].core = 99;
        let c = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), a);
        assert_eq!(
            c.validate(10),
            Err(ConfigError::CoreOutOfRange {
                app: "a".into(),
                core: 99,
                num_cores: 10
            })
        );

        let mut a = apps();
        a[0].shares = 0;
        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), a);
        assert_eq!(
            c.validate(10),
            Err(ConfigError::ZeroShares { app: "a".into() })
        );

        let c = DaemonConfig::new(PolicyKind::Priority, Watts(-5.0), apps());
        assert_eq!(
            c.validate(10),
            Err(ConfigError::InvalidPowerLimit { limit: Watts(-5.0) })
        );

        let mut c = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), apps());
        c.control_interval = Seconds(0.0);
        assert!(matches!(
            c.validate(10),
            Err(ConfigError::InvalidControlInterval { .. })
        ));

        let mut c = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), apps());
        c.control_interval = Seconds(-1.0);
        assert!(matches!(
            c.validate(10),
            Err(ConfigError::InvalidControlInterval { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_power_limits() {
        // A NaN or infinite limit must be caught here, not propagate into
        // the controller arithmetic (NaN poisons every budget it touches).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            let c = DaemonConfig::new(PolicyKind::Priority, Watts(bad), apps());
            match c.validate(10) {
                // NaN != NaN, so match structurally instead of assert_eq.
                Err(ConfigError::InvalidPowerLimit { limit }) => {
                    assert!(limit.value().is_nan() || limit == Watts(bad));
                }
                other => panic!("limit {bad} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn config_error_messages_name_the_offender() {
        // Every variant's Display output carries enough context to act on
        // without a debugger: the app, the core, the limit, the range.
        let cases: Vec<(ConfigError, &[&str])> = vec![
            (
                ConfigError::InvalidPowerLimit { limit: Watts(-5.0) },
                &["invalid power limit", "-5"],
            ),
            (
                ConfigError::PowerLimitOutsideRaplRange {
                    limit: Watts(10.0),
                    range: (Watts(20.0), Watts(85.0)),
                },
                &["RAPL range", "10", "20", "85"],
            ),
            (
                ConfigError::InvalidControlInterval {
                    interval: Seconds(0.0),
                },
                &["control interval", "positive"],
            ),
            (
                ConfigError::CoreOutOfRange {
                    app: "web".into(),
                    core: 9,
                    num_cores: 4,
                },
                &["'web'", "core 9", "4-core"],
            ),
            (
                ConfigError::DuplicateCorePin { core: 2 },
                &["core 2", "multiple apps"],
            ),
            (
                ConfigError::ZeroShares { app: "bg".into() },
                &["'bg'", "zero shares"],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
            }
        }
    }

    #[test]
    fn validate_on_enforces_rapl_range() {
        // Skylake RAPL range is [20, 85] W.
        let sky = PlatformSpec::skylake();
        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), apps());
        assert!(c.validate_on(&sky).is_ok());

        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(10.0), apps());
        match c.validate_on(&sky) {
            Err(ConfigError::PowerLimitOutsideRaplRange { limit, range }) => {
                assert_eq!(limit, Watts(10.0));
                assert_eq!(range, (Watts(20.0), Watts(85.0)));
            }
            other => panic!("expected RAPL range rejection, got {other:?}"),
        }

        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(200.0), apps());
        assert!(matches!(
            c.validate_on(&sky),
            Err(ConfigError::PowerLimitOutsideRaplRange { .. })
        ));

        // Ryzen has no RAPL; any positive limit is programmable.
        let c = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(10.0), apps());
        assert!(c.validate_on(&PlatformSpec::ryzen()).is_ok());
    }

    #[test]
    fn policy_capability_requirements() {
        assert!(PolicyKind::PowerShares.needs_per_core_power());
        assert!(!PolicyKind::FrequencyShares.needs_per_core_power());
        assert!(PolicyKind::PerformanceShares.needs_performance_feedback());
        assert!(!PolicyKind::Priority.needs_performance_feedback());
        assert_eq!(PolicyKind::RaplNative.name(), "rapl");
    }
}
