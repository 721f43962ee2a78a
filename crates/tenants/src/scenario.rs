//! Scenario composition and the multi-tenant run loop.
//!
//! A [`Scenario`] composes [`TenantSpec`]s — latency-sensitive services
//! with heavy-tailed demand, batch soakers, diurnal + flash-crowd
//! arrival traces, churn windows — onto one simulated socket driven by
//! `powerd::Daemon`, and runs it under one of three [`ControlMode`]s:
//! the SLO-aware share controller, static shares, or native RAPL. The
//! run is fully deterministic for a fixed scenario seed (per-tenant RNG
//! streams are derived from it), which is what lets the `ext_tenants`
//! bench demand byte-identical output across sweep thread counts.
//!
//! The loop mirrors the calibrated `ext_diurnal` setup: 1 ms workload
//! ticks, a 1 s control interval, warm-up excluded from scoring. Churn
//! and share retargets happen at control boundaries, exactly where a
//! production daemon would apply them.

use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::metrics::ControlMetrics;
use pap_telemetry::sampler::Sampler;
use pap_telemetry::slo::{SloTarget, SloTracker};
use pap_telemetry::stats;
use pap_workloads::engine::RunningApp;
use pap_workloads::latency::DemandShape;
use pap_workloads::openloop::{OpenLoopConfig, OpenLoopService};
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::obs::DecisionTrace;

use crate::arrival::{ArrivalTrace, FlashCrowd};
use crate::scorecard::{SloScorecard, TenantScore};
use crate::slo::{ShareView, SloController, SloControllerConfig};
use crate::tenant::{TenantLoad, TenantSpec};

/// How shares are governed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Frequency shares with the SLO-aware controller retargeting them.
    SloAware,
    /// Frequency shares frozen at the configured weights.
    StaticShares,
    /// Native RAPL: no per-app policy, the package limit throttles
    /// every core uniformly.
    RaplNative,
}

impl ControlMode {
    /// All modes, in report order.
    pub const ALL: [ControlMode; 3] = [
        ControlMode::SloAware,
        ControlMode::StaticShares,
        ControlMode::RaplNative,
    ];

    /// Short name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ControlMode::SloAware => "slo-aware",
            ControlMode::StaticShares => "static-shares",
            ControlMode::RaplNative => "rapl",
        }
    }
}

/// A complete multi-tenant scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (the `--scenario` CLI key).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Package power budget.
    pub limit: Watts,
    /// Measured duration (after warm-up).
    pub duration: Seconds,
    /// Warm-up excluded from scoring.
    pub warmup: Seconds,
    /// The tenants; core blocks are assigned contiguously in order.
    pub tenants: Vec<TenantSpec>,
    /// Master seed; every tenant RNG stream derives from it.
    pub seed: u64,
    /// SLO-controller thresholds used in [`ControlMode::SloAware`].
    pub controller: SloControllerConfig,
    /// Electricity tariff in USD per kWh. Cost accounting is pure
    /// derivation from energy the run already tracks, so setting this
    /// never perturbs control; it only adds cost fields to the
    /// scorecard exports.
    pub tariff: Option<f64>,
}

impl Scenario {
    /// Price the run's energy at `usd_per_kwh`.
    pub fn with_tariff(mut self, usd_per_kwh: f64) -> Self {
        self.tariff = Some(usd_per_kwh);
        self
    }
}

/// The library of named scenarios.
pub fn names() -> &'static [&'static str] {
    &["diurnal-flash", "churn", "tail-heavy"]
}

/// Look up a library scenario by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    match name {
        "diurnal-flash" => Some(diurnal_flash()),
        "churn" => Some(churn()),
        "tail-heavy" => Some(tail_heavy()),
        _ => None,
    }
}

/// Two latency-sensitive tenants — a diurnal web frontend and a
/// flat-load API that takes a flash crowd — colocated with a batch
/// soaker under one binding budget.
pub fn diurnal_flash() -> Scenario {
    Scenario {
        name: "diurnal-flash",
        description: "diurnal web + flash-crowd API + batch soaker under 45 W",
        limit: Watts(45.0),
        duration: Seconds(60.0),
        warmup: Seconds(10.0),
        seed: 0x7E4A_1701,
        controller: SloControllerConfig::default(),
        tariff: None,
        tenants: vec![
            TenantSpec::service(
                "web",
                4,
                60,
                800.0,
                DemandShape::LogNormal { sigma: 1.1 },
                SloTarget::p99(60.0),
                ArrivalTrace::diurnal(0.65, 0.35, Seconds(40.0)),
            ),
            TenantSpec::service(
                "api",
                2,
                60,
                380.0,
                DemandShape::Pareto { alpha: 1.6 },
                SloTarget::p90(25.0),
                ArrivalTrace::flat(0.55).with_crowd(FlashCrowd {
                    start: Seconds(30.0),
                    ramp: Seconds(3.0),
                    hold: Seconds(12.0),
                    decay: Seconds(8.0),
                    boost: 0.45,
                }),
            ),
            TenantSpec::batch("bg", 4, 40, spec::CACTUS_BSSN),
        ],
    }
}

/// Tenant churn: a burst tenant arrives mid-run on a reserved core
/// block and departs before the end, while a diurnal service and batch
/// work run throughout.
pub fn churn() -> Scenario {
    Scenario {
        name: "churn",
        description: "mid-run tenant arrival/departure next to a diurnal service",
        limit: Watts(42.0),
        duration: Seconds(60.0),
        warmup: Seconds(10.0),
        seed: 0xC0DE_CAFE,
        controller: SloControllerConfig::default(),
        tariff: None,
        tenants: vec![
            TenantSpec::service(
                "web",
                3,
                60,
                600.0,
                DemandShape::LogNormal { sigma: 1.0 },
                SloTarget::p99(60.0),
                ArrivalTrace::diurnal(0.6, 0.3, Seconds(35.0)),
            ),
            TenantSpec::service(
                "burst",
                2,
                60,
                360.0,
                DemandShape::Pareto { alpha: 1.8 },
                SloTarget::p90(25.0),
                ArrivalTrace::flat(0.8),
            )
            .with_window(Seconds(25.0), Some(Seconds(55.0))),
            TenantSpec::batch("bg", 5, 40, spec::CACTUS_BSSN),
        ],
    }
}

/// One very heavy-tailed service against a large batch class — the
/// stress case for tail-aware share control.
pub fn tail_heavy() -> Scenario {
    Scenario {
        name: "tail-heavy",
        description: "Pareto-tailed service vs large batch class under 40 W",
        limit: Watts(40.0),
        duration: Seconds(60.0),
        warmup: Seconds(10.0),
        seed: 0x7A11_0001,
        controller: SloControllerConfig::default(),
        tariff: None,
        tenants: vec![
            TenantSpec::service(
                "svc",
                5,
                55,
                900.0,
                DemandShape::Pareto { alpha: 1.4 },
                SloTarget::p90(40.0),
                ArrivalTrace::flat(0.7),
            ),
            TenantSpec::batch("bg", 5, 45, spec::CACTUS_BSSN),
        ],
    }
}

const TICK: Seconds = Seconds(0.001);
const CONTROL: f64 = 1.0;
/// Nominal instruction rate handed to the daemon for every tenant app;
/// the online model refines it from samples.
const BASELINE_IPS: f64 = 3.0e9;

enum EngineKind {
    Service(OpenLoopService),
    Batch(Vec<RunningApp>),
}

struct Runtime {
    spec: TenantSpec,
    first_core: usize,
    app_names: Vec<String>,
    shares: Vec<u32>,
    engine: EngineKind,
    tracker: Option<SloTracker>,
    active: bool,
    // post-warm-up accumulators
    energy_j: f64,
    completed: u64,
    dropped: u64,
    instructions: u64,
    tail_marks: Vec<f64>,
    share_acc: f64,
    share_windows: u64,
}

impl Runtime {
    fn build_engine(spec: &TenantSpec, seed: u64) -> EngineKind {
        match &spec.load {
            TenantLoad::Service {
                peak_rps,
                mean_service_cycles,
                demand,
                ..
            } => EngineKind::Service(OpenLoopService::new(
                OpenLoopConfig {
                    peak_rps: *peak_rps,
                    mean_service_cycles: *mean_service_cycles,
                    demand: *demand,
                    capacitance: 0.6,
                    queue_cap: 2_000,
                    seed,
                },
                spec.cores,
            )),
            TenantLoad::Batch { profile } => EngineKind::Batch(
                (0..spec.cores)
                    .map(|_| RunningApp::looping(*profile))
                    .collect(),
            ),
        }
    }

    fn slo(&self) -> Option<SloTarget> {
        match &self.spec.load {
            TenantLoad::Service { slo, .. } => Some(*slo),
            TenantLoad::Batch { .. } => None,
        }
    }
}

impl Scenario {
    /// Total cores the scenario needs (every tenant's block is reserved
    /// for the whole run so churn can reuse it).
    pub fn total_cores(&self) -> usize {
        self.tenants.iter().map(|t| t.cores).sum()
    }

    /// Derived per-tenant RNG seed: deterministic, well-spread.
    fn tenant_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run under `mode` with no observability attached (the fast path
    /// for sweeps; nothing is recorded off the control loop).
    pub fn run(&self, mode: ControlMode) -> SloScorecard {
        self.run_inner::<WideChip>(mode, false, None).0
    }

    /// Run under `mode`, optionally bumping a shared metrics registry;
    /// returns the scorecard and the daemon's decision trace (always
    /// attached on this path, so share retargets and churn show up in
    /// the JSONL sink).
    pub fn run_observed(
        &self,
        mode: ControlMode,
        metrics: Option<Arc<ControlMetrics>>,
    ) -> (SloScorecard, Option<DecisionTrace>) {
        self.run_inner::<WideChip>(mode, true, metrics)
    }

    /// Generic over the chip backend so the scalar-`Chip` reference and
    /// the `WideChip` fast path (the default both public entry points
    /// select) run the very same scenario loop.
    fn run_inner<C: ChipLike>(
        &self,
        mode: ControlMode,
        observe: bool,
        metrics: Option<Arc<ControlMetrics>>,
    ) -> (SloScorecard, Option<DecisionTrace>) {
        let platform = PlatformSpec::skylake();
        assert!(
            self.total_cores() <= platform.num_cores,
            "scenario '{}' needs {} cores, platform has {}",
            self.name,
            self.total_cores(),
            platform.num_cores
        );
        let mut chip = C::shared(Arc::new(platform.clone()));
        if mode == ControlMode::RaplNative {
            chip.set_rapl_limit(Some(self.limit)).unwrap();
        }

        // Assign contiguous core blocks and build runtimes.
        let mut runtimes: Vec<Runtime> = Vec::with_capacity(self.tenants.len());
        let mut next_core = 0usize;
        for (i, spec) in self.tenants.iter().enumerate() {
            let first_core = next_core;
            next_core += spec.cores;
            let app_names = (first_core..next_core)
                .map(|c| format!("{}/{c}", spec.name))
                .collect();
            runtimes.push(Runtime {
                first_core,
                app_names,
                shares: vec![spec.shares; spec.cores],
                engine: Runtime::build_engine(spec, self.tenant_seed(i)),
                tracker: spec_slo(spec).map(SloTracker::new),
                active: false,
                energy_j: 0.0,
                completed: 0,
                dropped: 0,
                instructions: 0,
                tail_marks: Vec::new(),
                share_acc: 0.0,
                share_windows: 0,
                spec: spec.clone(),
            });
        }

        // Daemon over the initially active tenants.
        let policy = match mode {
            ControlMode::RaplNative => PolicyKind::RaplNative,
            _ => PolicyKind::FrequencyShares,
        };
        let mut initial_apps = Vec::new();
        for rt in &mut runtimes {
            if rt.spec.active_at(Seconds(0.0)) {
                rt.active = true;
                for (i, name) in rt.app_names.iter().enumerate() {
                    initial_apps.push(
                        AppSpec::new(name.clone(), rt.first_core + i)
                            .with_priority(rt.spec.priority)
                            .with_shares(rt.shares[i])
                            .with_baseline_ips(BASELINE_IPS),
                    );
                }
            }
        }
        let config = DaemonConfig::new(policy, self.limit, initial_apps);
        let mut daemon = Daemon::new(config, &platform).expect("scenario daemon config");
        if observe {
            daemon.attach_observer(match metrics {
                Some(m) => DecisionTrace::with_metrics(m),
                None => DecisionTrace::new(),
            });
        }
        let controller = SloController::new(self.controller);

        let action = daemon.initial();
        chip.set_all_requested(&action.freqs).unwrap();
        let mut parked = action.parked.clone();
        for (core, &p) in parked.iter().enumerate() {
            chip.set_forced_idle(core, p).unwrap();
        }

        let mut sampler = Sampler::new(&chip);
        let total = self.warmup.value() + self.duration.value();
        let mut t = 0.0;
        let mut next_control = CONTROL;
        let mut warmed = false;
        let mut pkg_energy = 0.0;
        let mut measured_ticks = 0u64;
        let mut load_buf: Vec<LoadDescriptor> = Vec::new();
        let mut freq_buf: Vec<KiloHertz> = Vec::new();
        let mut activity: Vec<f64> = vec![0.0; runtimes.len()];

        while t < total {
            // --- workload ticks ---
            for a in activity.iter_mut() {
                *a = 0.0;
            }
            for (ti, rt) in runtimes.iter_mut().enumerate() {
                if !rt.active {
                    continue;
                }
                let block = rt.first_core..rt.first_core + rt.spec.cores;
                match &mut rt.engine {
                    EngineKind::Service(svc) => {
                        svc.set_rate_scale(rt.spec.trace.intensity(Seconds(t)));
                        freq_buf.clear();
                        freq_buf.extend(block.clone().map(|c| {
                            if parked[c] {
                                KiloHertz(1)
                            } else {
                                chip.effective_freq(c)
                            }
                        }));
                        svc.advance_into(TICK, &freq_buf, &mut load_buf);
                        for (i, c) in block.enumerate() {
                            if parked[c] {
                                continue;
                            }
                            let load = load_buf[i];
                            let hz = freq_buf[i].hz();
                            let instr = (load.utilization * hz * TICK.value()) as u64;
                            chip.set_load(c, load).unwrap();
                            chip.add_instructions(c, instr).unwrap();
                            activity[ti] += load.utilization * hz;
                        }
                    }
                    EngineKind::Batch(apps) => {
                        for (i, c) in block.enumerate() {
                            if parked[c] {
                                continue;
                            }
                            let out = apps[i].tick_on(&mut chip, c, TICK).unwrap();
                            activity[ti] += out.load.utilization * chip.effective_freq(c).hz();
                            if warmed {
                                rt.instructions += out.instructions;
                            }
                        }
                    }
                }
            }
            chip.tick(TICK);
            if warmed {
                let pkg_w = chip.package_power().value();
                pkg_energy += pkg_w * TICK.value();
                measured_ticks += 1;
                let total_activity: f64 = activity.iter().sum();
                if total_activity > 0.0 {
                    for (rt, &a) in runtimes.iter_mut().zip(&activity) {
                        rt.energy_j += pkg_w * TICK.value() * a / total_activity;
                    }
                }
            }
            t += TICK.value();

            // --- control boundary ---
            if t + 1e-9 < next_control {
                continue;
            }
            next_control += CONTROL;

            // Churn first: arrivals and departures apply at boundaries.
            for rt in runtimes.iter_mut() {
                let should = rt.spec.active_at(Seconds(t));
                if should && !rt.active {
                    for (i, name) in rt.app_names.iter().enumerate() {
                        daemon
                            .add_app(
                                AppSpec::new(name.clone(), rt.first_core + i)
                                    .with_priority(rt.spec.priority)
                                    .with_shares(rt.shares[i])
                                    .with_baseline_ips(BASELINE_IPS),
                            )
                            .expect("tenant admission");
                    }
                    rt.active = true;
                } else if !should && rt.active {
                    for name in &rt.app_names {
                        daemon.remove_app(name).expect("tenant departure");
                    }
                    for c in rt.first_core..rt.first_core + rt.spec.cores {
                        chip.set_load(c, LoadDescriptor::IDLE).unwrap();
                    }
                    rt.active = false;
                }
            }

            // Per-tenant window stats feed the trackers.
            for rt in runtimes.iter_mut() {
                if !rt.active {
                    continue;
                }
                if let EngineKind::Service(svc) = &mut rt.engine {
                    let slo = rt.tracker.as_ref().expect("service has tracker").target();
                    let tail = if svc.completed() > 0 {
                        svc.percentile_ms(slo.percentile)
                    } else {
                        0.0
                    };
                    if let Some(tr) = &mut rt.tracker {
                        tr.observe(tail);
                    }
                    if warmed {
                        rt.tail_marks.push(tail);
                        rt.completed += svc.completed();
                        rt.dropped += svc.dropped();
                    }
                    svc.reset_stats();
                }
                if warmed {
                    let mean: f64 =
                        rt.shares.iter().map(|&s| s as f64).sum::<f64>() / rt.shares.len() as f64;
                    rt.share_acc += mean;
                    rt.share_windows += 1;
                }
            }

            // Crossing the warm-up boundary: restart every measurement
            // window (after the trackers saw the warm-up windows — the
            // controller needs pressure history, scoring does not).
            if !warmed && t + 1e-9 >= self.warmup.value() {
                warmed = true;
                for rt in runtimes.iter_mut() {
                    if let EngineKind::Service(svc) = &mut rt.engine {
                        svc.reset_stats();
                    }
                    if let Some(tr) = &mut rt.tracker {
                        tr.reset();
                    }
                }
            }

            // SLO-aware share market.
            if mode == ControlMode::SloAware {
                let mut views = Vec::new();
                let mut index = Vec::new();
                for (ti, rt) in runtimes.iter().enumerate() {
                    if !rt.active {
                        continue;
                    }
                    let batch = rt.spec.load.is_batch();
                    let pressure = rt.tracker.as_ref().map_or(0.0, |tr| tr.last_pressure());
                    for (i, &shares) in rt.shares.iter().enumerate() {
                        views.push(ShareView {
                            id: index.len(),
                            shares,
                            pressure,
                            batch,
                        });
                        index.push((ti, i));
                    }
                }
                for change in controller.plan(&views) {
                    let (ti, i) = index[change.id];
                    let rt = &mut runtimes[ti];
                    daemon
                        .retarget_shares(&rt.app_names[i], change.to)
                        .expect("retarget planned app");
                    rt.shares[i] = change.to;
                }
            }

            // Daemon control interval.
            if let Some(sample) = sampler.sample(&chip) {
                let action = daemon.step(&sample);
                chip.set_all_requested(&action.freqs).unwrap();
                for (core, &p) in action.parked.iter().enumerate() {
                    chip.set_forced_idle(core, p).unwrap();
                }
                parked = action.parked.clone();
            }
        }

        let duration = measured_ticks as f64 * TICK.value();
        let tenants = runtimes
            .iter()
            .map(|rt| {
                let (attainment, tail_ms, target_ms, percentile) = match (&rt.tracker, rt.slo()) {
                    (Some(tr), Some(slo)) => (
                        tr.attainment(),
                        stats::percentile(&rt.tail_marks, 50.0),
                        slo.latency_ms,
                        slo.percentile,
                    ),
                    _ => (1.0, 0.0, 0.0, 0.0),
                };
                let batch = rt.spec.load.is_batch();
                let goodput = if duration <= 0.0 {
                    0.0
                } else if batch {
                    rt.instructions as f64 / duration / 1e9
                } else {
                    rt.completed as f64 / duration
                };
                TenantScore {
                    name: rt.spec.name,
                    batch,
                    attainment,
                    tail_ms,
                    target_ms,
                    percentile,
                    completed: rt.completed,
                    dropped: rt.dropped,
                    goodput,
                    mean_power_w: if duration > 0.0 {
                        rt.energy_j / duration
                    } else {
                        0.0
                    },
                    energy_wh: rt.energy_j / 3600.0,
                    mean_shares: if rt.share_windows > 0 {
                        rt.share_acc / rt.share_windows as f64
                    } else {
                        rt.spec.shares as f64
                    },
                }
            })
            .collect();

        let card = SloScorecard {
            scenario: self.name,
            mode: mode.name(),
            duration_s: duration,
            mean_package_w: if duration > 0.0 {
                pkg_energy / duration
            } else {
                0.0
            },
            budget_w: self.limit.value(),
            tariff_usd_per_kwh: self.tariff,
            tenants,
        };
        (card, daemon.take_observer())
    }
}

fn spec_slo(spec: &TenantSpec) -> Option<SloTarget> {
    match &spec.load {
        TenantLoad::Service { slo, .. } => Some(*slo),
        TenantLoad::Batch { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_lookup() {
        for name in names() {
            let s = by_name(name).expect("library scenario");
            assert_eq!(s.name, *name);
            assert!(s.total_cores() <= 10, "{name} oversubscribes the socket");
            assert!(!s.tenants.is_empty());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut s = tail_heavy();
        // Shrink to keep the test fast; determinism is what matters.
        s.duration = Seconds(8.0);
        s.warmup = Seconds(3.0);
        let a = s.run(ControlMode::SloAware);
        let b = s.run(ControlMode::SloAware);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "same seed, same bytes");
        assert_eq!(a.prometheus(), b.prometheus());
    }

    #[test]
    fn churn_scenario_admits_and_departs() {
        let mut s = churn();
        s.duration = Seconds(40.0);
        s.warmup = Seconds(5.0);
        // Shift the window inside the shortened run.
        s.tenants[1] = s.tenants[1]
            .clone()
            .with_window(Seconds(10.0), Some(Seconds(30.0)));
        let (card, trace) = s.run_observed(ControlMode::StaticShares, None);
        let burst = card.tenants.iter().find(|t| t.name == "burst").unwrap();
        assert!(
            burst.completed > 0,
            "burst tenant must serve while present: {card:?}"
        );
        let trace = trace.expect("observer attached");
        assert!(!trace.is_empty(), "decision records recorded");
    }

    #[test]
    fn slo_aware_moves_shares_toward_pressured_service() {
        let mut s = tail_heavy();
        s.duration = Seconds(20.0);
        s.warmup = Seconds(5.0);
        let card = s.run(ControlMode::SloAware);
        let svc = card.tenants.iter().find(|t| !t.batch).unwrap();
        let bg = card.tenants.iter().find(|t| t.batch).unwrap();
        assert!(
            svc.mean_shares > 55.0 && bg.mean_shares < 45.0,
            "controller must shift weight to the pressured service: \
             svc {:.1}, bg {:.1}",
            svc.mean_shares,
            bg.mean_shares
        );
    }
}
