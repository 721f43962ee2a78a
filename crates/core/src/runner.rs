//! Experiment runner: wires a simulated chip, workloads, telemetry and the
//! daemon into a complete run and reduces the trace to per-application
//! results.
//!
//! Two runners cover the paper's two experiment shapes:
//!
//! * [`Experiment`] — batch workloads pinned one per core (the SPEC-style
//!   priority, share and random experiments);
//! * [`LatencyExperiment`] — a closed-loop service spanning several cores,
//!   optionally co-located with a power virus (the websearch experiments).

use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::trace::Trace;
use pap_workloads::engine::RunningApp;
use pap_workloads::latency::{ClosedLoopService, ServiceConfig};
use pap_workloads::phases::PhasedProfile;
use pap_workloads::profile::WorkloadProfile;

use pap_model::{ModelSnapshot, TranslationKind};

use std::sync::Arc;

use pap_telemetry::metrics::ControlMetrics;

use crate::config::{AppSpec, ControllerTuning, DaemonConfig, PolicyKind, Priority};
use crate::daemon::Daemon;
use crate::hw::{ControlLoop, SimBackend};
use crate::obs::DecisionTrace;

/// The standalone frequency the paper normalizes against: the app running
/// alone at 85 W, i.e. at its single-active-core opportunistic limit
/// (respecting AVX caps).
pub fn standalone_freq(platform: &PlatformSpec, profile: &WorkloadProfile) -> KiloHertz {
    platform.turbo.cap_for(1, profile.avx)
}

/// Per-application outcome of a batch experiment.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub name: String,
    /// Pinned core.
    pub core: usize,
    /// Mean active frequency over the measurement window (MHz), counting
    /// only awake samples.
    pub mean_freq_mhz: f64,
    /// Mean IPS over the window (parked intervals count as zero).
    pub mean_ips: f64,
    /// Mean per-core power, where the platform provides it.
    pub mean_power: Option<Watts>,
    /// Performance normalized to standalone execution at 85 W.
    pub norm_perf: f64,
    /// Fraction of samples during which the app was starved (no cycles).
    pub starved_fraction: f64,
}

/// Outcome of a batch experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-app outcomes, in configuration order.
    pub apps: Vec<AppResult>,
    /// Mean package power over the measurement window.
    pub mean_package_power: Watts,
    /// The full telemetry trace (warm-up already trimmed).
    pub trace: Trace,
    /// Final state of the daemon's online learned model (fed regardless
    /// of which translation the run selected).
    pub model: ModelSnapshot,
    /// Per-interval decision trace with aggregated control metrics —
    /// `Some` only when the experiment was built with
    /// [`observe(true)`](Experiment::observe).
    pub decisions: Option<DecisionTrace>,
}

struct Entry {
    spec: AppSpec,
    profile: WorkloadProfile,
}

/// Builder for batch experiments (one app per core).
pub struct Experiment {
    platform: PlatformSpec,
    policy: PolicyKind,
    limit: Watts,
    duration: Seconds,
    tick: Seconds,
    warmup_samples: usize,
    floor_low_priority: bool,
    saturation_aware: bool,
    control_interval: Seconds,
    tuning: ControllerTuning,
    translation: TranslationKind,
    phase_amplitude: f64,
    seed: u64,
    observe: bool,
    entries: Vec<Entry>,
}

/// Default phase seed, kept for reproducibility with historical runs.
const DEFAULT_PHASE_SEED: u64 = 0xC0FFEE;

impl Experiment {
    /// Start building an experiment.
    pub fn new(platform: PlatformSpec, policy: PolicyKind, limit: Watts) -> Experiment {
        Experiment {
            platform,
            policy,
            limit,
            duration: Seconds(90.0),
            tick: Seconds(0.002),
            warmup_samples: 15,
            floor_low_priority: false,
            saturation_aware: true,
            control_interval: Seconds(1.0),
            tuning: ControllerTuning::default(),
            translation: TranslationKind::Naive,
            phase_amplitude: 0.1,
            seed: DEFAULT_PHASE_SEED,
            observe: false,
            entries: Vec::new(),
        }
    }

    /// Add an application on the next free core. Workloads loop for the
    /// whole run (steady-state measurement, as in the paper's share
    /// experiments).
    pub fn app(
        mut self,
        name: impl Into<String>,
        profile: WorkloadProfile,
        priority: Priority,
        shares: u32,
    ) -> Experiment {
        let core = self.entries.len();
        let baseline = profile.ips(standalone_freq(&self.platform, &profile));
        self.entries.push(Entry {
            spec: AppSpec::new(name, core)
                .with_priority(priority)
                .with_shares(shares)
                .with_baseline_ips(baseline),
            profile,
        });
        self
    }

    /// Set the measured duration (excluding warm-up trimming).
    pub fn duration(mut self, d: Seconds) -> Experiment {
        self.duration = d;
        self
    }

    /// Set the simulation tick.
    pub fn tick(mut self, t: Seconds) -> Experiment {
        self.tick = t;
        self
    }

    /// Number of 1 s samples discarded as warm-up.
    pub fn warmup(mut self, samples: usize) -> Experiment {
        self.warmup_samples = samples;
        self
    }

    /// Use the flooring priority variant (§4.1 alternative).
    pub fn floor_low_priority(mut self, on: bool) -> Experiment {
        self.floor_low_priority = on;
        self
    }

    /// Enable/disable saturation-aware allocation (§4.4 extension; on by
    /// default).
    pub fn saturation_aware(mut self, on: bool) -> Experiment {
        self.saturation_aware = on;
        self
    }

    /// Override the daemon control interval (the paper uses 1 s).
    pub fn control_interval(mut self, i: Seconds) -> Experiment {
        self.control_interval = i;
        self
    }

    /// Override the controller tuning (ablation studies).
    pub fn tuning(mut self, t: ControllerTuning) -> Experiment {
        self.tuning = t;
        self
    }

    /// Select the budget-to-frequency translation (naïve α by default).
    pub fn translation(mut self, kind: TranslationKind) -> Experiment {
        self.translation = kind;
        self
    }

    /// Program-phase amplitude applied to every workload (±fractional
    /// swing of CPI/stall/capacitance, deterministic per app). Defaults to
    /// 0.1 — the mild wobble real SPEC benchmarks exhibit, which is what
    /// destabilizes IPS-based control in the paper's Figure 10. Pass 0.0
    /// for perfectly steady workloads.
    pub fn phases(mut self, amplitude: f64) -> Experiment {
        assert!((0.0..1.0).contains(&amplitude));
        self.phase_amplitude = amplitude;
        self
    }

    /// Seed for the per-app phase generators (each app derives its own
    /// stream from this). Two runs with the same seed and configuration
    /// are identical; the default reproduces historical runs.
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.seed = seed;
        self
    }

    /// Record a per-interval [`DecisionTrace`] (with aggregated
    /// [`ControlMetrics`]) during the run. Off by default; when off the
    /// daemon takes no timestamps and the control output is bit-identical
    /// to a run without observability compiled in at all.
    pub fn observe(mut self, on: bool) -> Experiment {
        self.observe = on;
        self
    }

    /// Run to completion.
    pub fn run(self) -> Result<ExperimentResult, String> {
        let mut config = DaemonConfig::new(
            self.policy,
            self.limit,
            self.entries.iter().map(|e| e.spec.clone()).collect(),
        );
        config.floor_low_priority = self.floor_low_priority;
        config.saturation_aware = self.saturation_aware;
        config.control_interval = self.control_interval;
        config.tuning = self.tuning;
        config.translation = self.translation;

        let mut chip = Chip::new(self.platform.clone());
        if self.policy == PolicyKind::RaplNative {
            chip.set_rapl_limit(Some(self.limit))
                .map_err(|e| e.to_string())?;
        }
        let mut daemon = Daemon::new(config, &self.platform)?;
        if self.observe {
            daemon.attach_observer(DecisionTrace::with_metrics(Arc::new(ControlMetrics::new())));
        }
        let mut apps: Vec<RunningApp> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                if self.phase_amplitude > 0.0 {
                    RunningApp::from_phased(
                        PhasedProfile::with_generated_phases(
                            e.profile,
                            self.seed ^ (i as u64) << 8,
                            self.phase_amplitude,
                        ),
                        true,
                    )
                } else {
                    RunningApp::looping(e.profile)
                }
            })
            .collect();

        let mut backend = SimBackend::new(chip);
        let mut lp = ControlLoop::start(&mut backend, &mut daemon)?;
        let mut trace = Trace::new();
        let interval = daemon.config().control_interval;
        let total = self.duration.value() + self.warmup_samples as f64 * interval.value();
        while lp.elapsed().value() < total {
            for (i, app) in apps.iter_mut().enumerate() {
                let core = self.entries[i].spec.core;
                if !lp.action().parked[core] {
                    app.tick_on(backend.chip_mut(), core, self.tick)
                        .map_err(|e| e.to_string())?;
                }
            }
            if let Some(sample) = lp.tick(&mut backend, &mut daemon, self.tick)? {
                trace.push(sample);
            }
        }

        trace.trim_warmup(self.warmup_samples);
        let results = self
            .entries
            .iter()
            .map(|e| {
                let core = e.spec.core;
                let mean_ips = trace.mean_ips(core);
                let starved = trace
                    .samples()
                    .iter()
                    .filter(|s| s.cores[core].rates.ips <= 0.0)
                    .count() as f64
                    / trace.len().max(1) as f64;
                AppResult {
                    name: e.spec.name.clone(),
                    core,
                    mean_freq_mhz: trace.mean_active_freq_mhz(core),
                    mean_ips,
                    mean_power: trace.mean_core_power(core),
                    norm_perf: mean_ips / e.spec.baseline_ips,
                    starved_fraction: starved,
                }
            })
            .collect();

        Ok(ExperimentResult {
            apps: results,
            mean_package_power: trace.mean_package_power(),
            trace,
            model: daemon.model_snapshot(),
            decisions: daemon.take_observer(),
        })
    }
}

/// Outcome of a latency experiment.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// 90th percentile latency (ms) over the measurement window.
    pub p90_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Mean package power.
    pub mean_package_power: Watts,
    /// Mean active frequency of the service cores (MHz).
    pub service_freq_mhz: f64,
    /// Mean active frequency of the co-located core (MHz), if present.
    pub colocated_freq_mhz: Option<f64>,
    /// The post-warmup telemetry trace.
    pub trace: Trace,
}

/// Builder for the websearch-style latency experiments (§3.2, §6.4).
pub struct LatencyExperiment {
    platform: PlatformSpec,
    policy: PolicyKind,
    limit: Watts,
    service: ServiceConfig,
    service_cores: usize,
    colocated: Option<WorkloadProfile>,
    service_shares: u32,
    colocated_shares: u32,
    duration: Seconds,
    warmup: Seconds,
    tick: Seconds,
    tuning: ControllerTuning,
    control_interval: Seconds,
}

impl LatencyExperiment {
    /// The paper's setup: websearch on all but one core, with the given
    /// policy and limit.
    pub fn new(platform: PlatformSpec, policy: PolicyKind, limit: Watts) -> LatencyExperiment {
        let service_cores = platform.num_cores - 1;
        LatencyExperiment {
            platform,
            policy,
            limit,
            service: ServiceConfig::websearch(),
            service_cores,
            colocated: None,
            service_shares: 90,
            colocated_shares: 10,
            duration: Seconds(120.0),
            warmup: Seconds(20.0),
            tick: Seconds(0.001),
            tuning: ControllerTuning::default(),
            control_interval: Seconds(1.0),
        }
    }

    /// Co-locate a workload (cpuburn in the paper) on the last core.
    pub fn colocate(mut self, profile: WorkloadProfile) -> LatencyExperiment {
        self.colocated = Some(profile);
        self
    }

    /// Share ratio between each service core and the co-located core
    /// (the paper reports 90/10).
    pub fn shares(mut self, service: u32, colocated: u32) -> LatencyExperiment {
        self.service_shares = service;
        self.colocated_shares = colocated;
        self
    }

    /// Service configuration (users, think time, demand).
    pub fn service(mut self, cfg: ServiceConfig) -> LatencyExperiment {
        self.service = cfg;
        self
    }

    /// Measured duration after warm-up.
    pub fn duration(mut self, d: Seconds) -> LatencyExperiment {
        self.duration = d;
        self
    }

    /// Warm-up period whose latencies are discarded.
    pub fn warmup(mut self, w: Seconds) -> LatencyExperiment {
        self.warmup = w;
        self
    }

    /// Override the controller tuning (ablation studies).
    pub fn tuning(mut self, t: ControllerTuning) -> LatencyExperiment {
        self.tuning = t;
        self
    }

    /// Override the daemon control interval (the paper uses 1 s).
    pub fn control_interval(mut self, i: Seconds) -> LatencyExperiment {
        self.control_interval = i;
        self
    }

    /// Run to completion.
    pub fn run(self) -> Result<LatencyResult, String> {
        let n = self.service_cores;
        let service_baseline = {
            // one "instruction" = one cycle of service demand
            standalone_freq(&self.platform, &pap_workloads::burn::CPUBURN).hz()
        };
        let mut apps: Vec<AppSpec> = (0..n)
            .map(|c| {
                AppSpec::new(format!("websearch/{c}"), c)
                    .with_priority(Priority::High)
                    .with_shares(self.service_shares)
                    .with_baseline_ips(service_baseline)
            })
            .collect();
        if let Some(profile) = &self.colocated {
            let core = self.platform.num_cores - 1;
            apps.push(
                AppSpec::new(profile.name, core)
                    .with_priority(Priority::Low)
                    .with_shares(self.colocated_shares)
                    .with_baseline_ips(profile.ips(standalone_freq(&self.platform, profile))),
            );
        }
        let mut config = DaemonConfig::new(self.policy, self.limit, apps);
        config.tuning = self.tuning;
        config.control_interval = self.control_interval;

        let mut chip = Chip::new(self.platform.clone());
        if self.policy == PolicyKind::RaplNative {
            chip.set_rapl_limit(Some(self.limit))
                .map_err(|e| e.to_string())?;
        }
        let mut daemon = Daemon::new(config, &self.platform)?;
        let mut service = ClosedLoopService::new(self.service.clone(), n);
        let mut burn = self.colocated.map(RunningApp::looping);
        let burn_core = self.platform.num_cores - 1;

        let mut backend = SimBackend::new(chip);
        let mut lp = ControlLoop::start(&mut backend, &mut daemon)?;
        let mut trace = Trace::new();
        let total = self.warmup.value() + self.duration.value();
        let mut stats_reset = false;

        while lp.elapsed().value() < total {
            let parked = &lp.action().parked;
            let chip = backend.chip_mut();
            // Service cores: only unparked cores serve.
            let freqs: Vec<KiloHertz> = (0..n)
                .map(|c| {
                    if parked[c] {
                        KiloHertz(1) // effectively no service capacity
                    } else {
                        chip.effective_freq(c)
                    }
                })
                .collect();
            let loads = service.advance(self.tick, &freqs);
            for (c, load) in loads.into_iter().enumerate() {
                if parked[c] {
                    continue;
                }
                // Credit one instruction per busy cycle so IPS-based
                // policies see the service's activity.
                let instr = (load.utilization * freqs[c].hz() * self.tick.value()) as u64;
                chip.set_load(c, load).map_err(|e| e.to_string())?;
                chip.add_instructions(c, instr).map_err(|e| e.to_string())?;
            }
            if let Some(b) = burn.as_mut() {
                if !parked[burn_core] {
                    b.tick_on(chip, burn_core, self.tick)
                        .map_err(|e| e.to_string())?;
                }
            }
            let sample = lp.tick(&mut backend, &mut daemon, self.tick)?;
            if !stats_reset && lp.elapsed() >= self.warmup {
                service.reset_stats();
                stats_reset = true;
            }
            if let Some(sample) = sample.filter(|_| stats_reset) {
                trace.push(sample);
            }
        }

        let service_freq = (0..n).map(|c| trace.mean_active_freq_mhz(c)).sum::<f64>() / n as f64;
        Ok(LatencyResult {
            p90_ms: service.p90_ms(),
            p50_ms: service.percentile_ms(50.0),
            p99_ms: service.percentile_ms(99.0),
            throughput: service.throughput(),
            mean_package_power: trace.mean_package_power(),
            service_freq_mhz: service_freq,
            colocated_freq_mhz: self
                .colocated
                .as_ref()
                .map(|_| trace.mean_active_freq_mhz(burn_core)),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_workloads::spec;

    #[test]
    fn standalone_freq_respects_avx() {
        let p = PlatformSpec::skylake();
        assert_eq!(standalone_freq(&p, &spec::GCC), KiloHertz::from_mhz(3000));
        assert_eq!(standalone_freq(&p, &spec::CAM4), KiloHertz::from_mhz(1900));
    }

    #[test]
    fn rapl_experiment_respects_limit() {
        let r = Experiment::new(PlatformSpec::skylake(), PolicyKind::RaplNative, Watts(50.0))
            .app("gcc-0", spec::GCC, Priority::High, 100)
            .app("gcc-1", spec::GCC, Priority::High, 100)
            .app("cam4-0", spec::CAM4, Priority::High, 100)
            .app("cam4-1", spec::CAM4, Priority::High, 100)
            .duration(Seconds(30.0))
            .warmup(5)
            .run()
            .unwrap();
        assert!(
            (r.mean_package_power.value() - 50.0).abs() < 5.0
                || r.mean_package_power.value() < 50.0,
            "package power {} should be at/below the 50 W limit",
            r.mean_package_power
        );
        for app in &r.apps {
            assert!(app.norm_perf > 0.0 && app.norm_perf <= 1.2, "{app:?}");
        }
    }

    #[test]
    fn frequency_shares_converges_to_limit() {
        let r = Experiment::new(
            PlatformSpec::skylake(),
            PolicyKind::FrequencyShares,
            Watts(45.0),
        )
        .app("cactus", spec::CACTUS_BSSN, Priority::High, 70)
        .app("leela", spec::LEELA, Priority::High, 30)
        .app("cactus2", spec::CACTUS_BSSN, Priority::High, 70)
        .app("leela2", spec::LEELA, Priority::High, 30)
        .duration(Seconds(40.0))
        .warmup(10)
        .run()
        .unwrap();
        assert!(
            (r.mean_package_power.value() - 45.0).abs() < 3.0,
            "power {} should track the 45 W limit",
            r.mean_package_power
        );
        // share proportionality: 70-share apps run faster than 30-share
        assert!(
            r.apps[0].mean_freq_mhz > r.apps[1].mean_freq_mhz + 100.0,
            "{} vs {}",
            r.apps[0].mean_freq_mhz,
            r.apps[1].mean_freq_mhz
        );
    }

    #[test]
    fn priority_starves_lp_under_tight_limit() {
        let mut e = Experiment::new(PlatformSpec::skylake(), PolicyKind::Priority, Watts(40.0));
        for i in 0..5 {
            e = e.app(format!("hp{i}"), spec::CACTUS_BSSN, Priority::High, 100);
        }
        for i in 0..5 {
            e = e.app(format!("lp{i}"), spec::LEELA, Priority::Low, 100);
        }
        let r = e.duration(Seconds(40.0)).warmup(10).run().unwrap();
        let hp_perf = r.apps[0].norm_perf;
        let lp_perf = r.apps[5].norm_perf;
        assert!(hp_perf > 0.3, "HP perf {hp_perf}");
        assert!(
            lp_perf < hp_perf * 0.5,
            "LP ({lp_perf}) must be starved or heavily throttled vs HP ({hp_perf})"
        );
    }

    #[test]
    fn seeded_runs_reproduce_and_differ_across_seeds() {
        let run = |seed: u64| {
            Experiment::new(
                PlatformSpec::skylake(),
                PolicyKind::FrequencyShares,
                Watts(45.0),
            )
            .app("cactus", spec::CACTUS_BSSN, Priority::High, 70)
            .app("leela", spec::LEELA, Priority::High, 30)
            .duration(Seconds(10.0))
            .warmup(2)
            .seed(seed)
            .run()
            .unwrap()
        };
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(
            a.mean_package_power, b.mean_package_power,
            "same seed, same run"
        );
        assert_eq!(a.apps[0].mean_ips, b.apps[0].mean_ips);
        assert_ne!(
            a.apps[0].mean_ips, c.apps[0].mean_ips,
            "different seed shifts the phase streams"
        );
    }

    #[test]
    fn latency_experiment_runs() {
        let r = LatencyExperiment::new(
            PlatformSpec::skylake(),
            PolicyKind::FrequencyShares,
            Watts(50.0),
        )
        .colocate(pap_workloads::burn::CPUBURN)
        .duration(Seconds(30.0))
        .warmup(Seconds(10.0))
        .run()
        .unwrap();
        assert!(r.p90_ms > 0.0 && r.p90_ms < 1000.0, "p90 {}", r.p90_ms);
        assert!(r.throughput > 100.0, "throughput {}", r.throughput);
        assert!(r.colocated_freq_mhz.is_some());
    }
}
