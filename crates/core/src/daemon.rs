//! The userspace control daemon (§5).
//!
//! The daemon runs a monitoring loop at a fixed cadence (1 s in the
//! paper). Each interval it reads processor statistics — package power,
//! per-core power where available, retired instructions, actual
//! frequency — and may change P-states for a subset of cores: raising
//! frequency where an application uses less of its resource than
//! allocated, or redistributing the resource otherwise.
//!
//! [`Daemon`] is a pure controller: it consumes a telemetry
//! [`Sample`](pap_telemetry::sampler::Sample) and emits a
//! [`ControlAction`]; the experiment runner (or a hardware backend)
//! applies the action. This keeps every policy testable without a chip.

use pap_model::{
    ModelConfig, ModelSnapshot, NaiveAlpha, OnlineModel, TranslationKind, TranslationModel,
};
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_telemetry::energy::EnergyLedger;
use pap_telemetry::sampler::Sample;

use crate::config::{check_limit_on, AppSpec, ConfigError, DaemonConfig, PolicyKind};
use crate::obs::{AppDecision, DecisionEvent, DecisionRecord, DecisionTrace};
use crate::policy::fastcap::FastCapAlloc;
use crate::policy::frequency_shares::FrequencyShares;
use crate::policy::performance_shares::PerformanceShares;
use crate::policy::power_shares::PowerShares;
use crate::policy::priority::PriorityPolicy;
use crate::policy::{
    useful_max, AppView, Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch,
};
use crate::quantize::SlotScratch;
use pap_simcpu::units::{Seconds, Watts};

/// Why a daemon could not be built or reconfigured. Wraps
/// [`ConfigError`] for static config problems and adds the
/// platform-capability and runtime-reconfiguration failures.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonError {
    /// The configuration itself is invalid.
    Config(ConfigError),
    /// The policy needs per-core power telemetry the platform lacks.
    NeedsPerCorePower {
        /// Policy short name.
        policy: &'static str,
        /// Platform name.
        platform: &'static str,
    },
    /// The RAPL-native baseline needs hardware RAPL enforcement.
    NeedsRapl {
        /// Platform name.
        platform: &'static str,
    },
    /// Performance shares need an offline IPS baseline for every app.
    MissingBaseline {
        /// The app without a baseline.
        app: String,
    },
    /// A reconfiguration referenced an app the daemon does not run.
    UnknownApp {
        /// The requested app name.
        app: String,
    },
    /// A telemetry sample carried fewer cores than an app's pin
    /// (malformed telemetry, fault injection, cluster replay).
    ShortSample {
        /// Minimum core count the configured app set needs.
        expected: usize,
        /// Core count the sample actually carried.
        got: usize,
    },
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Config(e) => e.fmt(f),
            DaemonError::NeedsPerCorePower { policy, platform } => write!(
                f,
                "policy '{policy}' requires per-core power telemetry, which {platform} does not provide"
            ),
            DaemonError::NeedsRapl { platform } => {
                write!(f, "{platform} does not implement RAPL limit enforcement")
            }
            DaemonError::MissingBaseline { app } => write!(
                f,
                "performance shares need an offline IPS baseline for app '{app}'"
            ),
            DaemonError::UnknownApp { app } => write!(f, "no app named '{app}' under control"),
            DaemonError::ShortSample { expected, got } => write!(
                f,
                "telemetry sample carries {got} cores but the app set needs at least {expected}"
            ),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for DaemonError {
    fn from(e: ConfigError) -> DaemonError {
        DaemonError::Config(e)
    }
}

impl From<DaemonError> for String {
    fn from(e: DaemonError) -> String {
        e.to_string()
    }
}

/// A complete per-core decision for one control interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAction {
    /// Requested frequency for every core (length = chip core count).
    pub freqs: Vec<KiloHertz>,
    /// Park flag for every core.
    pub parked: Vec<bool>,
}

impl ControlAction {
    /// Borrowed view of this action.
    pub fn view(&self) -> ActionView<'_> {
        ActionView {
            freqs: &self.freqs,
            parked: &self.parked,
        }
    }
}

/// Borrowed view of one control interval's decision, pointing into the
/// daemon's reusable scratch buffers (DESIGN.md §11). This is what the
/// allocation-free hot path ([`Daemon::step_view`]) hands out; sinks
/// that need to retain the decision past the next step call
/// [`ActionView::to_owned`] — that copy is the *only* per-interval
/// allocation, and it is the caller's explicit choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionView<'a> {
    /// Requested frequency for every core (length = chip core count).
    pub freqs: &'a [KiloHertz],
    /// Park flag for every core.
    pub parked: &'a [bool],
}

impl ActionView<'_> {
    /// Copy the borrowed decision into an owned [`ControlAction`].
    pub fn to_owned(&self) -> ControlAction {
        ControlAction {
            freqs: self.freqs.to_vec(),
            parked: self.parked.to_vec(),
        }
    }
}

/// Reusable per-interval buffers owned by the daemon: app views, the
/// policy output, policy/quantizer scratch, and the per-core action.
/// The policy output takes its size from the first initial
/// distribution, which runs before any step; the rest is pre-sized at
/// construction. Either way the steady-state control step performs zero
/// heap allocations.
#[derive(Debug)]
struct StepScratch {
    views: Vec<AppView>,
    out: PolicyOutput,
    policy: PolicyScratch,
    slots: SlotScratch,
    action_freqs: Vec<KiloHertz>,
    action_parked: Vec<bool>,
}

impl StepScratch {
    fn new(napps: usize, ncores: usize, slots: Option<usize>) -> StepScratch {
        StepScratch {
            views: Vec::with_capacity(napps),
            out: PolicyOutput::default(),
            policy: PolicyScratch::with_capacity(napps),
            slots: SlotScratch::with_capacity(ncores, slots.unwrap_or(0)),
            action_freqs: Vec::with_capacity(ncores),
            action_parked: Vec::with_capacity(ncores),
        }
    }
}

#[derive(Debug)]
enum Engine {
    RaplNative,
    Priority(PriorityPolicy),
    Power(PowerShares),
    Freq(FrequencyShares),
    Perf(PerformanceShares),
    FastCap(FastCapAlloc),
}

impl Engine {
    fn as_policy(&mut self) -> Option<&mut dyn Policy> {
        match self {
            Engine::RaplNative => None,
            Engine::Priority(p) => Some(p),
            Engine::Power(p) => Some(p),
            Engine::Freq(p) => Some(p),
            Engine::Perf(p) => Some(p),
            Engine::FastCap(p) => Some(p),
        }
    }
}

/// Counters of the deleted decision memo. Uninhabited: no value
/// exists, so [`Daemon::memo_stats`] can only answer `None`. Delete with
/// the benchmark change that drops `powerd.memo.hit_frac`.
pub enum MemoStats {}

impl MemoStats {
    /// Fraction of intervals replayed; unreachable, as no value exists.
    pub fn hit_rate(&self) -> f64 {
        match *self {}
    }
}

/// The control daemon.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    ctx: PolicyCtx,
    engine: Engine,
    platform: PlatformSpec,
    num_cores: usize,
    shared_slots: Option<usize>,
    initialized: bool,
    /// Last programmed per-app frequency targets (policy state input).
    current: Vec<KiloHertz>,
    /// Last programmed per-app park flags, so a degraded hold on a
    /// malformed sample re-emits the full previous operating point.
    current_parked: Vec<bool>,
    /// Online power/performance model. Always fed from telemetry (so a
    /// mid-run switch to [`TranslationKind::Online`] starts from warm
    /// fits); only consulted for translation when the config selects it.
    model: OnlineModel,
    /// Decision-trace observer. `None` (the default) keeps observability
    /// strictly off-path: no record building, no timing.
    observer: Option<DecisionTrace>,
    /// Events raised between control intervals (share retargets, churn)
    /// to be attached to the next record. Only populated while an
    /// observer is attached.
    pending_events: Vec<DecisionEvent>,
    /// Per-app energy/cost accounting. `None` (the default) keeps
    /// accounting strictly off-path, like the observer: attaching a
    /// ledger must not change a single control decision.
    energy: Option<EnergyLedger>,
    /// Ledger account per configured app, in config order; rebuilt
    /// lazily after membership changes. Steady state performs no
    /// allocation (account lookup is by stored index).
    energy_idx: Vec<usize>,
    /// Reusable per-interval buffers (DESIGN.md §11).
    scratch: StepScratch,
}

/// Platform-capability checks shared by construction and runtime
/// reconfiguration.
fn check_capabilities(config: &DaemonConfig, platform: &PlatformSpec) -> Result<(), DaemonError> {
    config.validate_on(platform)?;
    if config.policy.needs_per_core_power() && !platform.per_core_power {
        return Err(DaemonError::NeedsPerCorePower {
            policy: config.policy.name(),
            platform: platform.name,
        });
    }
    for app in &config.apps {
        check_baseline(config.policy, app)?;
    }
    if config.policy == PolicyKind::RaplNative && platform.rapl.is_none() {
        return Err(DaemonError::NeedsRapl {
            platform: platform.name,
        });
    }
    Ok(())
}

/// Performance feedback needs an offline IPS baseline for `app`.
fn check_baseline(policy: PolicyKind, app: &AppSpec) -> Result<(), DaemonError> {
    if policy.needs_performance_feedback() && app.baseline_ips <= 0.0 {
        return Err(DaemonError::MissingBaseline {
            app: app.name.clone(),
        });
    }
    Ok(())
}

impl Daemon {
    /// Build a daemon for `config` against a platform. Fails when the
    /// policy needs telemetry the platform does not provide (the paper
    /// runs power shares only on Ryzen for exactly this reason) or the
    /// config is inconsistent.
    pub fn new(config: DaemonConfig, platform: &PlatformSpec) -> Result<Daemon, DaemonError> {
        check_capabilities(&config, platform)?;

        let engine = match config.policy {
            PolicyKind::RaplNative => Engine::RaplNative,
            PolicyKind::Priority => {
                let mut p = if config.floor_low_priority {
                    PriorityPolicy::flooring()
                } else {
                    PriorityPolicy::new()
                };
                p.floor_low_priority = config.floor_low_priority;
                Engine::Priority(p)
            }
            PolicyKind::PowerShares => Engine::Power(PowerShares::new()),
            PolicyKind::FrequencyShares => {
                let mut p = FrequencyShares::new();
                p.saturation_aware = config.saturation_aware;
                p.incremental = config.tuning.incremental_redistribution;
                Engine::Freq(p)
            }
            PolicyKind::PerformanceShares => Engine::Perf(PerformanceShares::new()),
            PolicyKind::FastCap => Engine::FastCap(FastCapAlloc::new()),
        };

        let mut ctx = PolicyCtx::new(platform.grid, platform.tdp, config.power_limit);
        ctx.damping = config.tuning.damping;
        ctx.deadband = Watts(config.tuning.deadband_watts);
        let n_apps = config.apps.len();
        Ok(Daemon {
            config,
            ctx,
            engine,
            platform: platform.clone(),
            num_cores: platform.num_cores,
            shared_slots: platform.shared_pstate_slots,
            initialized: false,
            current: vec![KiloHertz::ZERO; n_apps],
            current_parked: vec![false; n_apps],
            model: OnlineModel::new(ModelConfig::default()),
            observer: None,
            pending_events: Vec::new(),
            energy: None,
            energy_idx: Vec::new(),
            scratch: StepScratch::new(n_apps, platform.num_cores, platform.shared_pstate_slots),
        })
    }

    /// Always `None`: the daemon runs its policy every interval. Delete
    /// with the benchmark change that drops `powerd.memo.hit_frac`.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        None
    }

    /// Attach a decision-trace observer; subsequent control intervals
    /// append one [`DecisionRecord`] each. Replaces any previous observer.
    pub fn attach_observer(&mut self, trace: DecisionTrace) {
        self.observer = Some(trace);
    }

    /// The attached decision trace, if any.
    pub fn observer(&self) -> Option<&DecisionTrace> {
        self.observer.as_ref()
    }

    /// Detach and return the decision trace (e.g. at end of run).
    pub fn take_observer(&mut self) -> Option<DecisionTrace> {
        self.observer.take()
    }

    /// Attach an energy ledger; every subsequent control interval
    /// accumulates per-app and package energy from the telemetry sample.
    /// Strictly off-path: control actions are bit-identical with or
    /// without a ledger attached (enforced by `tests/energy_offpath.rs`).
    ///
    /// Attribution follows the scorecard's rule: measured per-core power
    /// when every app core reports it (Ryzen-style), otherwise the
    /// app's activity share (C0 residency × active frequency) of package
    /// energy.
    pub fn attach_energy(&mut self, ledger: EnergyLedger) {
        self.energy = Some(ledger);
        self.energy_idx.clear();
    }

    /// The attached energy ledger, if any.
    pub fn energy(&self) -> Option<&EnergyLedger> {
        self.energy.as_ref()
    }

    /// Detach and return the energy ledger (e.g. at end of run).
    pub fn take_energy(&mut self) -> Option<EnergyLedger> {
        self.energy.take()
    }

    /// The configuration the daemon runs.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Switch the budget-to-frequency translation mid-run. Safe in both
    /// directions: the online model keeps learning regardless of which
    /// translation is selected, so a switch to `Online` starts from warm
    /// fits, and a switch back to `Naive` is exactly the seed controller.
    pub fn set_translation(&mut self, kind: TranslationKind) {
        self.config.translation = kind;
    }

    /// The translation currently selected.
    pub fn translation(&self) -> TranslationKind {
        self.config.translation
    }

    /// Freeze (`false`) or resume (`true`) model learning. The resilience
    /// layer freezes learning while power/counter telemetry is unhealthy
    /// so backfilled or poisoned samples cannot corrupt the fits.
    pub fn set_learning(&mut self, learning: bool) {
        self.model.set_learning(learning);
    }

    /// Replace the model configuration, resetting all fits. Benchmarks
    /// use this to pin the model into its never-confident (pure fallback)
    /// regime.
    pub fn set_model_config(&mut self, cfg: ModelConfig) {
        self.model = OnlineModel::new(cfg);
    }

    /// Snapshot of the learned model state for reports.
    pub fn model_snapshot(&self) -> ModelSnapshot {
        self.model.snapshot()
    }

    /// Learned package power draw with every managed core at maximum
    /// frequency — the node capacity estimate the cluster water-fill can
    /// use in place of the static TDP. `None` until the package fit is
    /// confident.
    pub fn predicted_capacity(&self) -> Option<Watts> {
        self.model
            .predicted_capacity(self.config.apps.len(), self.ctx.grid.max())
    }

    /// Admit an application mid-run. The candidate configuration is
    /// validated atomically — on error nothing changes. On success the
    /// next control interval re-runs the initial distribution over the
    /// new app set (§5.2 function (i)), exactly as at daemon start.
    pub fn add_app(&mut self, app: AppSpec) -> Result<(), DaemonError> {
        // The running config passed `check_capabilities`, so only the new
        // app can fail it: check that app alone, in the same order, and
        // push it only once it passes.
        self.config.check_new_app(&app, self.num_cores)?;
        check_baseline(self.config.policy, &app)?;
        self.config.apps.push(app);
        self.reset_distribution();
        Ok(())
    }

    /// Remove an application by name, returning its spec so callers
    /// (e.g. cluster admission) can re-place it. The freed core parks at
    /// the next control interval.
    pub fn remove_app(&mut self, name: &str) -> Result<AppSpec, DaemonError> {
        let idx = self
            .config
            .apps
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| DaemonError::UnknownApp { app: name.into() })?;
        let removed = self.config.apps.remove(idx);
        self.model.forget_app(removed.core);
        self.reset_distribution();
        Ok(removed)
    }

    /// Change an application's shares mid-run, returning the previous
    /// value. Unlike membership changes this needs no distribution
    /// reset: shares are read from the config on every control interval,
    /// so the next step simply divides the budget under the new weights.
    /// Zero shares are rejected (a zero-weight app would be starved out
    /// of every share-based division), as is an unknown app; on error
    /// nothing changes.
    pub fn retarget_shares(&mut self, name: &str, shares: u32) -> Result<u32, DaemonError> {
        if shares == 0 {
            return Err(ConfigError::ZeroShares { app: name.into() }.into());
        }
        let app = self
            .config
            .apps
            .iter_mut()
            .find(|a| a.name == name)
            .ok_or_else(|| DaemonError::UnknownApp { app: name.into() })?;
        let core = app.core;
        let previous = std::mem::replace(&mut app.shares, shares);
        if self.observer.is_some() && previous != shares {
            self.pending_events.push(DecisionEvent::ShareRetarget {
                core,
                from: previous,
                to: shares,
            });
        }
        Ok(previous)
    }

    /// Change the enforced package power budget mid-run (the cluster
    /// allocator retargets node budgets every rebalance). Validated
    /// against the platform's RAPL range; on error nothing changes.
    pub fn retarget_budget(&mut self, limit: Watts) -> Result<(), DaemonError> {
        // The rest of the running config is valid, so only the limit is
        // re-checked on this per-rebalance path.
        check_limit_on(limit, &self.platform)?;
        self.config.power_limit = limit;
        self.ctx.limit = limit;
        Ok(())
    }

    /// After a membership change, restart from the initial distribution:
    /// per-app policy state (previous targets, per-app limits) is sized
    /// for the old app set and must be rebuilt.
    fn reset_distribution(&mut self) {
        self.current.clear();
        self.current.resize(self.config.apps.len(), KiloHertz::ZERO);
        self.current_parked.clear();
        self.current_parked.resize(self.config.apps.len(), false);
        self.initialized = false;
        // Account indices are per-app-set; rebuild on the next sample.
        self.energy_idx.clear();
    }

    /// Accumulate one sample into the attached ledger (no-op without
    /// one). Pure observation: reads the sample, never the control
    /// state, and writes nothing the policy path reads.
    fn account_energy(&mut self, sample: &Sample) {
        let Daemon {
            ref config,
            ref mut energy,
            ref mut energy_idx,
            ..
        } = *self;
        let Some(ledger) = energy.as_mut() else {
            return;
        };
        let dt = sample.interval.value();
        if dt <= 0.0 {
            return;
        }
        if energy_idx.len() != config.apps.len() {
            energy_idx.clear();
            energy_idx.extend(config.apps.iter().map(|a| ledger.register(&a.name)));
        }
        let pkg_j = sample.package_power.value() * dt;
        ledger.add_package(pkg_j, dt);

        // Measured per-core power is only trusted when every app core
        // reports it — mixing measured watts with package attribution
        // would double-count.
        let mut weight = 0.0;
        let mut all_measured = true;
        for app in &config.apps {
            let Some(cs) = sample.cores.get(app.core) else {
                continue;
            };
            all_measured &= cs.power.is_some();
            weight += cs.rates.c0_residency * cs.rates.active_freq.hz();
        }
        for (i, app) in config.apps.iter().enumerate() {
            let Some(cs) = sample.cores.get(app.core) else {
                continue;
            };
            let joules = match cs.power {
                Some(p) if all_measured => p.value() * dt,
                _ if weight > 0.0 => {
                    pkg_j * cs.rates.c0_residency * cs.rates.active_freq.hz() / weight
                }
                _ => pkg_j / config.apps.len() as f64,
            };
            ledger.add(energy_idx[i], joules);
        }
    }

    /// Build app views from a telemetry sample into the scratch arena.
    /// Fails (instead of panicking) when the sample carries fewer cores
    /// than an app's pin.
    fn views_compute(&mut self, sample: &Sample) -> Result<(), DaemonError> {
        let Daemon {
            ref config,
            ref mut scratch,
            ..
        } = *self;
        scratch.views.clear();
        for app in &config.apps {
            let cs = sample.cores.get(app.core).ok_or(DaemonError::ShortSample {
                expected: app.core + 1,
                got: sample.cores.len(),
            })?;
            scratch.views.push(AppView {
                core: app.core,
                shares: app.shares as f64,
                priority: app.priority,
                active_freq: cs.rates.active_freq,
                power: cs.power,
                ips: cs.rates.ips,
                baseline_ips: app.baseline_ips,
            });
        }
        Ok(())
    }

    /// Expand the per-app policy output in `scratch.out` into the
    /// per-core action buffers, quantizing and (on Ryzen) clustering to
    /// the shared P-state slots. Allocation-free.
    fn expand_compute(&mut self) {
        let Daemon {
            ref config,
            ref ctx,
            num_cores,
            shared_slots,
            ref mut scratch,
            ..
        } = *self;
        let StepScratch {
            ref out,
            ref mut slots,
            ref mut action_freqs,
            ref mut action_parked,
            ..
        } = *scratch;
        action_freqs.clear();
        action_freqs.resize(num_cores, ctx.grid.min());
        action_parked.clear();
        action_parked.resize(num_cores, true); // unmanaged cores sleep
        for (i, app) in config.apps.iter().enumerate() {
            // Config validation pins every app below the platform core
            // count, but a defensive get keeps a stale config from
            // panicking the control loop.
            let (Some(fslot), Some(pslot)) = (
                action_freqs.get_mut(app.core),
                action_parked.get_mut(app.core),
            ) else {
                continue;
            };
            *fslot = ctx.grid.round(out.freqs[i]);
            *pslot = out.parked[i];
        }
        if let Some(n) = shared_slots {
            config
                .tuning
                .slot_selector
                .select_in_place(action_freqs, n, &ctx.grid, slots);
        }
    }

    /// Borrowed view of the most recently computed action (the daemon's
    /// scratch buffers).
    fn action_view(&self) -> ActionView<'_> {
        ActionView {
            freqs: &self.scratch.action_freqs,
            parked: &self.scratch.action_parked,
        }
    }

    /// The initial distribution (§5.2 function (i)): called once before
    /// the applications start. No telemetry is needed.
    pub fn initial(&mut self) -> ControlAction {
        self.initial_compute();
        self.action_view().to_owned()
    }

    /// Core of [`Daemon::initial`], re-run by the first step after every
    /// membership change: runs the policy's initial distribution into
    /// the scratch buffers, allocation-free once they have capacity.
    fn initial_compute(&mut self) {
        self.initialized = true;
        {
            let Daemon {
                ref config,
                ref ctx,
                ref mut engine,
                ref mut scratch,
                ..
            } = *self;
            match engine.as_policy() {
                None => {
                    scratch.out.freqs.clear();
                    scratch.out.freqs.resize(config.apps.len(), ctx.grid.max());
                    scratch.out.parked.clear();
                    scratch.out.parked.resize(config.apps.len(), false);
                }
                Some(p) => {
                    // Initial views carry only static configuration.
                    scratch.views.clear();
                    scratch.views.extend(config.apps.iter().map(|app| AppView {
                        core: app.core,
                        shares: app.shares as f64,
                        priority: app.priority,
                        active_freq: KiloHertz::ZERO,
                        power: None,
                        ips: 0.0,
                        baseline_ips: app.baseline_ips,
                    }));
                    p.initial_into(ctx, &scratch.views, &mut scratch.out);
                }
            }
        }
        self.current.clear();
        self.current.extend_from_slice(&self.scratch.out.freqs);
        self.current_parked.clear();
        self.current_parked
            .extend_from_slice(&self.scratch.out.parked);
        self.expand_compute();
    }

    /// Seed the controller's per-app targets from per-core frequencies
    /// that are already programmed into the hardware, instead of
    /// re-running the initial distribution. The resilience layer uses
    /// this when it swaps policies mid-run (degradation-ladder moves):
    /// the replacement daemon must redistribute *from the running
    /// operating point*, because re-running the initial distribution
    /// would briefly command the top-share app to the maximum P-state
    /// and could overshoot the budget. Call after [`Daemon::initial`]
    /// so per-policy internal state exists.
    pub fn resume_from(&mut self, core_freqs: &[KiloHertz]) {
        // `round` both clamps into [min, max] and snaps to the P-state
        // grid: a firmware-clamped (off-grid) operating point must not
        // poison `self.current` with a frequency the hardware cannot
        // hold.
        let Daemon {
            ref config,
            ref ctx,
            ref mut current,
            ref mut current_parked,
            ..
        } = *self;
        current.clear();
        current.extend(config.apps.iter().map(|app| {
            ctx.grid
                .round(core_freqs.get(app.core).copied().unwrap_or(KiloHertz::ZERO))
        }));
        current_parked.clear();
        current_parked.resize(config.apps.len(), false);
        self.initialized = true;
    }

    /// Last programmed per-app frequency targets (one per configured
    /// app, in config order).
    pub fn current_targets(&self) -> &[KiloHertz] {
        &self.current
    }

    /// Whether the online model's package fit is currently confident.
    pub fn model_confident(&self) -> bool {
        self.model.package_confident()
    }

    /// One control interval: redistribution + translation (§5.2 functions
    /// (ii) and (iii)) from a fresh telemetry sample.
    ///
    /// A malformed sample (fewer cores than an app's pin) no longer
    /// panics: the daemon holds the previous operating point, traces the
    /// error when an observer is attached, and recovers on the next
    /// healthy sample. Use [`Daemon::try_step`] to see the error itself.
    pub fn step(&mut self, sample: &Sample) -> ControlAction {
        self.step_view(sample).to_owned()
    }

    /// Fallible variant of [`Daemon::step`]: returns the typed error a
    /// malformed sample produces instead of degrading silently. Daemon
    /// state (policy, model) is untouched on error.
    pub fn try_step(&mut self, sample: &Sample) -> Result<ControlAction, DaemonError> {
        self.step_compute(sample)?;
        Ok(self.action_view().to_owned())
    }

    /// Allocation-free variant of [`Daemon::step`]: the returned
    /// [`ActionView`] borrows the daemon's scratch buffers and is valid
    /// until the next control call. Steady state performs zero heap
    /// allocations (observer detached); sinks that must retain the
    /// decision call [`ActionView::to_owned`].
    pub fn step_view(&mut self, sample: &Sample) -> ActionView<'_> {
        if let Err(err) = self.step_compute(sample) {
            self.hold_compute(sample, &err);
        }
        self.action_view()
    }

    /// One control interval computed into the scratch buffers.
    fn step_compute(&mut self, sample: &Sample) -> Result<(), DaemonError> {
        self.account_energy(sample);
        if !self.initialized {
            self.initial_compute();
            return Ok(());
        }
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        self.views_compute(sample)?;

        // Feed the online model before the policy acts on the sample.
        // Learning happens regardless of the selected translation so a
        // mid-run switch to `Online` has warm fits to draw on.
        self.model.observe_sample(sample);
        for view in &self.scratch.views {
            if view.baseline_ips > 0.0 && view.ips > 0.0 && view.active_freq > KiloHertz::ZERO {
                self.model
                    .observe_app(view.core, view.active_freq, view.ips / view.baseline_ips);
            }
        }

        let Daemon {
            ref config,
            ref ctx,
            ref mut engine,
            ref current,
            ref model,
            ref mut scratch,
            ..
        } = *self;
        let StepScratch {
            ref views,
            ref mut out,
            ref mut policy,
            ..
        } = *scratch;
        let translation: &dyn TranslationModel = match config.translation {
            TranslationKind::Naive => &NaiveAlpha,
            TranslationKind::Online => model,
        };
        match engine.as_policy() {
            None => {
                out.freqs.clear();
                out.freqs.resize(config.apps.len(), ctx.grid.max());
                out.parked.clear();
                out.parked.resize(config.apps.len(), false);
            }
            Some(p) => p.step_into(
                ctx,
                &PolicyInput {
                    package_power: sample.package_power,
                    apps: views,
                    current,
                },
                translation,
                policy,
                out,
            ),
        }

        // Saturation detection compares the *previous* interval's targets
        // with what the cores achieved; observer-only, so it must run
        // before `current` is overwritten.
        let events = if self.observer.is_some() {
            let mut events = std::mem::take(&mut self.pending_events);
            events.extend(self.saturation_events(&self.scratch.views));
            events
        } else {
            Vec::new()
        };

        self.current.clear();
        self.current.extend_from_slice(&self.scratch.out.freqs);
        self.current_parked.clear();
        self.current_parked
            .extend_from_slice(&self.scratch.out.parked);
        self.expand_compute();
        if self.observer.is_some() {
            let record = self.build_record(
                sample.time,
                Some(sample.package_power),
                &self.scratch.out,
                self.action_view(),
                events,
                started,
            );
            if let Some(obs) = self.observer.as_mut() {
                obs.push(record);
            }
        }
        Ok(())
    }

    /// Hold the previous operating point when a sample is malformed: the
    /// chip keeps its last-programmed targets, the error becomes a trace
    /// event, and the loop survives to the next healthy sample.
    fn hold_compute(&mut self, sample: &Sample, err: &DaemonError) {
        self.scratch.out.freqs.clear();
        self.scratch.out.freqs.extend_from_slice(&self.current);
        self.scratch.out.parked.clear();
        self.scratch
            .out
            .parked
            .extend_from_slice(&self.current_parked);
        self.expand_compute();
        if self.observer.is_some() {
            let mut events = Vec::new();
            if let DaemonError::ShortSample { expected, got } = *err {
                events.push(DecisionEvent::ShortSample { expected, got });
            }
            events.push(DecisionEvent::Held {
                reason: "malformed sample",
            });
            let record = self.build_record(
                sample.time,
                Some(sample.package_power),
                &self.scratch.out,
                self.action_view(),
                events,
                None,
            );
            if let Some(obs) = self.observer.as_mut() {
                obs.push(record);
            }
        }
    }

    /// Cores whose achieved frequency saturated below the previous
    /// interval's target — the paper's "useful max" ceiling. Called only
    /// when an observer is attached.
    fn saturation_events(&self, views: &[AppView]) -> Vec<DecisionEvent> {
        views
            .iter()
            .zip(&self.current)
            .filter(|(view, &target)| {
                target > KiloHertz::ZERO
                    && view.active_freq > KiloHertz::ZERO
                    && useful_max(&self.ctx.grid, target, view.active_freq) < target
            })
            .map(|(view, &target)| DecisionEvent::Saturated {
                core: view.core,
                target,
                achieved: view.active_freq,
            })
            .collect()
    }

    /// Assemble one [`DecisionRecord`] for the interval. Only called when
    /// an observer is attached.
    fn build_record(
        &self,
        time: Seconds,
        measured: Option<Watts>,
        out: &PolicyOutput,
        action: ActionView<'_>,
        events: Vec<DecisionEvent>,
        started: Option<std::time::Instant>,
    ) -> DecisionRecord {
        let apps = self
            .config
            .apps
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let requested = out.freqs.get(i).copied().unwrap_or(KiloHertz::ZERO);
                AppDecision {
                    core: app.core,
                    requested,
                    quantized: self.ctx.grid.round(requested),
                    granted: action
                        .freqs
                        .get(app.core)
                        .copied()
                        .unwrap_or(KiloHertz::ZERO),
                    parked: out.parked.get(i).copied().unwrap_or(false),
                }
            })
            .collect();
        DecisionRecord {
            time,
            source: "daemon",
            policy: self.config.policy.name(),
            level: None,
            budget: self.config.power_limit,
            measured,
            translation: self.config.translation.name(),
            model_confident: self.model.package_confident(),
            apps,
            events,
            latency: Seconds(started.map_or(0.0, |s| s.elapsed().as_secs_f64())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, Priority};
    use pap_simcpu::units::{Seconds, Watts};
    use pap_telemetry::counters::CoreRates;
    use pap_telemetry::sampler::CoreSample;

    fn skylake_apps() -> Vec<AppSpec> {
        vec![
            AppSpec::new("hd", 0).with_shares(70).with_baseline_ips(2e9),
            AppSpec::new("ld", 1)
                .with_priority(Priority::Low)
                .with_shares(30)
                .with_baseline_ips(2e9),
        ]
    }

    fn sample(pkg: f64, freqs_mhz: &[u64], ncores: usize) -> Sample {
        let cores = (0..ncores)
            .map(|i| CoreSample {
                rates: CoreRates {
                    active_freq: KiloHertz::from_mhz(*freqs_mhz.get(i).unwrap_or(&0)),
                    c0_residency: 1.0,
                    ips: 1e9,
                },
                power: None,
                requested_freq: KiloHertz::from_mhz(*freqs_mhz.get(i).unwrap_or(&0)),
            })
            .collect();
        Sample {
            time: Seconds(1.0),
            interval: Seconds(1.0),
            package_power: Watts(pkg),
            cores_power: Watts(pkg - 12.0),
            cores,
        }
    }

    #[test]
    fn rejects_power_shares_on_skylake() {
        let cfg = DaemonConfig::new(PolicyKind::PowerShares, Watts(50.0), skylake_apps());
        let err = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap_err();
        assert!(
            matches!(err, DaemonError::NeedsPerCorePower { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("per-core power"), "{err}");
    }

    #[test]
    fn rejects_rapl_native_on_ryzen() {
        let mut apps = skylake_apps();
        apps.truncate(2);
        let cfg = DaemonConfig::new(PolicyKind::RaplNative, Watts(50.0), apps);
        let err = Daemon::new(cfg, &PlatformSpec::ryzen()).unwrap_err();
        assert!(matches!(err, DaemonError::NeedsRapl { .. }), "{err}");
        assert!(err.to_string().contains("RAPL"), "{err}");
    }

    #[test]
    fn rejects_perf_shares_without_baseline() {
        let apps = vec![AppSpec::new("x", 0).with_shares(50)];
        let cfg = DaemonConfig::new(PolicyKind::PerformanceShares, Watts(50.0), apps);
        let err = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap_err();
        assert!(matches!(err, DaemonError::MissingBaseline { .. }), "{err}");
        assert!(err.to_string().contains("baseline"), "{err}");
    }

    #[test]
    fn add_app_reruns_initial_distribution() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        d.initial();
        d.add_app(
            AppSpec::new("late", 5)
                .with_shares(70)
                .with_baseline_ips(2e9),
        )
        .unwrap();
        assert_eq!(d.config().apps.len(), 3);
        // next step bootstraps the full initial distribution again
        let a = d.step(&sample(45.0, &[2000, 1000, 0, 0, 0, 0], 10));
        assert!(!a.parked[5], "admitted app's core runs");
        assert_eq!(
            a.freqs[5],
            KiloHertz::from_mhz(3000),
            "top-share app at max"
        );
    }

    #[test]
    fn add_app_rejects_conflicts_atomically() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let err = d.add_app(AppSpec::new("dup", 0)).unwrap_err();
        assert!(
            matches!(
                err,
                DaemonError::Config(ConfigError::DuplicateCorePin { core: 0 })
            ),
            "{err}"
        );
        let err = d
            .add_app(AppSpec::new("zero", 5).with_shares(0))
            .unwrap_err();
        assert!(
            matches!(err, DaemonError::Config(ConfigError::ZeroShares { .. })),
            "{err}"
        );
        assert_eq!(d.config().apps.len(), 2, "failed admissions change nothing");
    }

    #[test]
    fn remove_app_returns_spec_and_parks_core() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        d.initial();
        let spec = d.remove_app("ld").unwrap();
        assert_eq!(spec.core, 1);
        let a = d.step(&sample(40.0, &[2000, 0], 10));
        assert!(a.parked[1], "departed app's core parks");
        assert!(!a.parked[0]);
        assert!(matches!(
            d.remove_app("nope").unwrap_err(),
            DaemonError::UnknownApp { .. }
        ));
    }

    #[test]
    fn retarget_shares_shifts_the_division() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        d.initial();
        let s = sample(55.0, &[3000, 3000], 10);
        let before = d.step(&s);
        // Flip the weighting toward the second app; the very next step
        // divides under the new weights — no reset, no re-init.
        assert_eq!(d.retarget_shares("ld", 90).unwrap(), 30);
        assert_eq!(d.retarget_shares("hd", 10).unwrap(), 70);
        let after = d.step(&s);
        assert!(
            after.freqs[1] >= before.freqs[1] && after.freqs[0] <= before.freqs[0],
            "boosted app must not lose frequency: {:?} -> {:?}",
            before.freqs,
            after.freqs
        );

        assert!(matches!(
            d.retarget_shares("nope", 50).unwrap_err(),
            DaemonError::UnknownApp { .. }
        ));
        assert!(matches!(
            d.retarget_shares("hd", 0).unwrap_err(),
            DaemonError::Config(ConfigError::ZeroShares { .. })
        ));
        assert_eq!(d.config().apps[0].shares, 10, "failed calls change nothing");
    }

    #[test]
    fn retarget_budget_validates_rapl_range() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        d.retarget_budget(Watts(30.0)).unwrap();
        assert_eq!(d.config().power_limit, Watts(30.0));

        let err = d.retarget_budget(Watts(5.0)).unwrap_err();
        assert!(
            matches!(
                err,
                DaemonError::Config(ConfigError::PowerLimitOutsideRaplRange { .. })
            ),
            "{err}"
        );
        assert_eq!(
            d.config().power_limit,
            Watts(30.0),
            "failed retarget changes nothing"
        );
    }

    #[test]
    fn retarget_budget_steers_the_controller() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(80.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let init = d.initial();
        // Under the old 80 W budget a 65 W sample is under budget; after
        // retargeting to 40 W the same sample is over budget and the
        // daemon must throttle.
        d.retarget_budget(Watts(40.0)).unwrap();
        let a = d.step(&sample(65.0, &[3000, 1300], 10));
        assert!(a.freqs[0] < init.freqs[0], "tightened budget throttles");
    }

    #[test]
    fn initial_action_covers_all_cores() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let a = d.initial();
        assert_eq!(a.freqs.len(), 10);
        assert_eq!(a.parked.len(), 10);
        // managed cores run, unmanaged cores sleep
        assert!(!a.parked[0] && !a.parked[1]);
        assert!(a.parked[2..].iter().all(|&p| p));
        // highest-share app at max
        assert_eq!(a.freqs[0], KiloHertz::from_mhz(3000));
    }

    #[test]
    fn step_before_initial_bootstraps() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let a = d.step(&sample(60.0, &[3000, 1300], 10));
        assert_eq!(a.freqs.len(), 10);
    }

    #[test]
    fn over_budget_step_reduces_frequencies() {
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(40.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let init = d.initial();
        let a = d.step(&sample(65.0, &[3000, 1300], 10));
        assert!(a.freqs[0] < init.freqs[0]);
    }

    #[test]
    fn rapl_native_requests_max_everywhere_managed() {
        let cfg = DaemonConfig::new(PolicyKind::RaplNative, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let a = d.initial();
        assert_eq!(a.freqs[0], KiloHertz::from_mhz(3000));
        assert_eq!(a.freqs[1], KiloHertz::from_mhz(3000));
        let a = d.step(&sample(80.0, &[2400, 2400], 10));
        assert_eq!(
            a.freqs[0],
            KiloHertz::from_mhz(3000),
            "daemon stays hands-off"
        );
    }

    #[test]
    fn ryzen_actions_respect_shared_slots() {
        let apps: Vec<AppSpec> = (0..8)
            .map(|i| {
                AppSpec::new(format!("a{i}"), i)
                    .with_shares(10 + 10 * i as u32)
                    .with_baseline_ips(2e9)
            })
            .collect();
        let cfg = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(45.0), apps);
        let mut d = Daemon::new(cfg, &PlatformSpec::ryzen()).unwrap();
        // One reusable buffer dedups in place for both checks.
        let mut buf = Vec::new();
        let a = d.initial();
        assert!(
            crate::quantize::distinct_levels_with(&a.freqs, &mut buf) <= 3,
            "8 share levels must cluster into 3 slots, got {buf:?}"
        );

        // and after a step too
        let s = sample(60.0, &[3400, 3000, 2500, 2200, 2000, 1500, 1000, 800], 8);
        let a = d.step(&s);
        assert!(crate::quantize::distinct_levels_with(&a.freqs, &mut buf) <= 3);
    }

    #[test]
    fn priority_daemon_parks_lp_cores() {
        let cfg = DaemonConfig::new(PolicyKind::Priority, Watts(50.0), skylake_apps());
        let mut d = Daemon::new(cfg, &PlatformSpec::skylake()).unwrap();
        let a = d.initial();
        assert!(!a.parked[0], "HP core runs");
        assert!(a.parked[1], "LP core starts parked");
    }
}
