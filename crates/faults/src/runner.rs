//! The chaos experiment: daemon vs fault plan, scored on ground truth.
//!
//! [`ChaosExperiment`] runs the same workload mix, fault schedule and
//! package budget through one of two controller stacks:
//!
//! * **resilient** — [`ResilientDaemon`] fed by a [`FaultObserver`]
//!   with retries, health tracking and the degradation ladder;
//! * **baseline** — the plain [`Daemon`] driven the way naïve tooling
//!   actually behaves when reads fail: the last value is silently
//!   reused ("stale fill"), writes are fire-and-forget, nothing is
//!   retried or read back.
//!
//! The scoreboard ([`ChaosResult`]) is computed from the *inner* chip's
//! ground-truth power, not from the (possibly corrupted) telemetry the
//! controllers saw: per-interval cap violations, the worst sustained
//! violation run, Jain fairness over share-normalized throughput, and
//! starvation. The baseline's signature failure is blind budget raising:
//! during a package-telemetry outage the stale reading sits below the
//! limit forever, so the controller keeps granting frequency while true
//! power climbs unchecked. The resilient stack demotes to a uniform
//! last-good cap instead and keeps the budget enforced.

use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use pap_telemetry::stats::jain;
use pap_workloads::engine::RunningApp;
use pap_workloads::phases::PhasedProfile;
use pap_workloads::profile::WorkloadProfile;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
use powerd::daemon::{ControlAction, Daemon};
use powerd::resilience::{
    LadderEvent, Observation, ResilienceConfig, ResilientDaemon, RetryPolicy,
};

use crate::chip::{FaultError, FaultyChip, InjectionStats};
use crate::observe::FaultObserver;
use crate::plan::FaultPlan;

/// Per-application outcome of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosAppResult {
    /// Application name.
    pub name: String,
    /// Pinned core.
    pub core: usize,
    /// Configured shares.
    pub shares: u32,
    /// Total instructions retired over the run.
    pub retired: u64,
    /// Share-normalized throughput (retired / shares), the quantity
    /// Jain fairness is computed over.
    pub normalized: f64,
}

/// Scoreboard of one chaos run, computed from ground truth.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Control intervals scored (after warm-up).
    pub intervals: usize,
    /// Intervals where true package power exceeded limit + slack.
    pub violations: usize,
    /// Number of violation runs at least `grace` intervals long. This is
    /// the cap-violation verdict: a 1 Hz controller cannot undo a single
    /// interval of overshoot, but nothing excuses a sustained one.
    pub sustained_violations: usize,
    /// Longest consecutive violation run.
    pub longest_violation_run: usize,
    /// Worst overshoot above the limit (W) across scored intervals.
    pub worst_over_watts: f64,
    /// Mean true package power over scored intervals.
    pub mean_power: Watts,
    /// Jain fairness index over share-normalized throughput.
    pub jain: f64,
    /// Apps whose share-normalized throughput fell below 2 % of the best
    /// (starved by the controller, not by the budget).
    pub starved: usize,
    /// Ladder moves (empty for the baseline).
    pub transitions: Vec<LadderEvent>,
    /// What the harness injected.
    pub injected: InjectionStats,
    /// Per-app outcomes, in configuration order.
    pub apps: Vec<ChaosAppResult>,
    /// Ground-truth mean package power per scored interval (post-warmup,
    /// in scoring order) — the raw series behind the violation counts,
    /// kept for post-mortems of failed chaos runs.
    pub interval_powers: Vec<f64>,
}

struct Entry {
    spec: AppSpec,
    profile: WorkloadProfile,
}

/// Builder for chaos runs. Defaults: the per-core-DVFS server platform
/// from [`crate::chaos_platform`], power shares (the most
/// telemetry-hungry policy, so the whole ladder is reachable), a 1 s
/// control interval and a 2 ms simulation tick.
pub struct ChaosExperiment {
    platform: PlatformSpec,
    policy: PolicyKind,
    limit: Watts,
    duration: Seconds,
    tick: Seconds,
    plan: FaultPlan,
    seed: u64,
    resilience: bool,
    translation: TranslationKind,
    warmup_intervals: usize,
    slack: Watts,
    grace: usize,
    entries: Vec<Entry>,
}

impl ChaosExperiment {
    /// Start building a chaos run.
    pub fn new(platform: PlatformSpec, policy: PolicyKind, limit: Watts) -> ChaosExperiment {
        ChaosExperiment {
            platform,
            policy,
            limit,
            duration: Seconds(120.0),
            tick: Seconds(0.002),
            plan: FaultPlan::new(),
            seed: 42,
            resilience: true,
            translation: TranslationKind::Naive,
            warmup_intervals: 5,
            slack: Watts(2.0),
            grace: 5,
            entries: Vec::new(),
        }
    }

    /// Add an application on the next free core.
    pub fn app(mut self, name: impl Into<String>, profile: WorkloadProfile, shares: u32) -> Self {
        let core = self.entries.len();
        let baseline = profile.ips(powerd::runner::standalone_freq(&self.platform, &profile));
        self.entries.push(Entry {
            spec: AppSpec::new(name, core)
                .with_priority(Priority::High)
                .with_shares(shares)
                .with_baseline_ips(baseline),
            profile,
        });
        self
    }

    /// Set the run duration.
    pub fn duration(mut self, d: Seconds) -> Self {
        self.duration = d;
        self
    }

    /// Set the simulation tick.
    pub fn tick(mut self, t: Seconds) -> Self {
        self.tick = t;
        self
    }

    /// Install the fault schedule.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Seed for workload phases and injected noise (the fault *schedule*
    /// is fixed by the plan; see [`FaultPlan::chaos`] for seeding that).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run with (`true`) or without (`false`) the resilience layer.
    pub fn resilience(mut self, on: bool) -> Self {
        self.resilience = on;
        self
    }

    /// Select the budget-to-frequency translation (naïve α by default).
    pub fn translation(mut self, kind: TranslationKind) -> Self {
        self.translation = kind;
        self
    }

    /// Run to completion on the default [`WideChip`] ground truth.
    pub fn run(self) -> Result<ChaosResult, String> {
        self.run_on::<WideChip>()
    }

    /// Run to completion with an explicit chip backend. The chaos
    /// regression in `tests/chaos.rs` drives the same schedule through
    /// both backends and asserts identical verdicts.
    pub fn run_on<C: ChipLike>(self) -> Result<ChaosResult, String> {
        let mut config = DaemonConfig::new(
            self.policy,
            self.limit,
            self.entries.iter().map(|e| e.spec.clone()).collect(),
        );
        config.translation = self.translation;
        let num_cores = self.platform.num_cores;
        let interval = config.control_interval;

        let mut fchip = FaultyChip::new(
            C::shared(Arc::new(self.platform.clone())),
            self.plan.clone(),
            self.seed ^ 0x5EED_F00D,
        );
        let mut apps: Vec<RunningApp> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                RunningApp::from_phased(
                    PhasedProfile::with_generated_phases(
                        e.profile,
                        self.seed ^ ((i as u64) << 8),
                        0.1,
                    ),
                    true,
                )
            })
            .collect();

        enum Ctl {
            Resilient(Box<ResilientDaemon>),
            Baseline(Box<Daemon>, StaleFill),
        }
        let mut ctl = if self.resilience {
            Ctl::Resilient(Box::new(
                ResilientDaemon::new(config, &self.platform, ResilienceConfig::default())
                    .map_err(|e| e.to_string())?,
            ))
        } else {
            Ctl::Baseline(
                Box::new(Daemon::new(config, &self.platform).map_err(|e| e.to_string())?),
                StaleFill::new(num_cores, self.limit),
            )
        };
        let retry = if self.resilience {
            ResilienceConfig::default().retry
        } else {
            RetryPolicy::none()
        };
        let mut observer = FaultObserver::new(&mut fchip, retry);

        let initial = match &mut ctl {
            Ctl::Resilient(rd) => rd.initial(),
            Ctl::Baseline(d, _) => d.initial(),
        };
        let mut parked = initial.parked.clone();
        apply(&mut fchip, &initial, |core| {
            if let Ctl::Resilient(rd) = &mut ctl {
                rd.report_write_error(core);
            }
        })?;

        let mut t = 0.0;
        let mut next_control = interval.value();
        let mut energy_acc = 0.0;
        let mut interval_powers: Vec<f64> = Vec::new();
        while t < self.duration.value() {
            for (i, app) in apps.iter_mut().enumerate() {
                let core = self.entries[i].spec.core;
                if parked[core] {
                    continue;
                }
                app.tick_on(&mut fchip, core, self.tick)
                    .map_err(|e| e.to_string())?;
            }
            fchip.tick(self.tick);
            energy_acc += fchip.true_package_power().value() * self.tick.value();
            t += self.tick.value();

            if t + 1e-9 >= next_control {
                next_control += interval.value();
                interval_powers.push(energy_acc / interval.value());
                energy_acc = 0.0;

                let obs = observer.observe(&mut fchip);
                let action = match &mut ctl {
                    Ctl::Resilient(rd) => rd.step(&obs),
                    Ctl::Baseline(d, fill) => d.step(&fill.backfill(&obs)),
                };
                parked = action.parked.clone();
                apply(&mut fchip, &action, |core| {
                    if let Ctl::Resilient(rd) = &mut ctl {
                        rd.report_write_error(core);
                    }
                })?;
            }
        }

        // Score on ground truth.
        let scored = interval_powers
            .iter()
            .skip(self.warmup_intervals)
            .copied()
            .collect::<Vec<f64>>();
        let threshold = self.limit.value() + self.slack.value();
        let mut violations = 0;
        let mut sustained = 0;
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut worst: f64 = 0.0;
        for &p in &scored {
            if p > threshold {
                violations += 1;
                run += 1;
                if run == self.grace {
                    sustained += 1;
                }
                longest = longest.max(run);
                worst = worst.max(p - self.limit.value());
            } else {
                run = 0;
            }
        }
        let mean_power = Watts(scored.iter().sum::<f64>() / scored.len().max(1) as f64);

        let app_results: Vec<ChaosAppResult> = self
            .entries
            .iter()
            .zip(&apps)
            .map(|(e, app)| {
                let retired = app.total_retired();
                ChaosAppResult {
                    name: e.spec.name.clone(),
                    core: e.spec.core,
                    shares: e.spec.shares,
                    retired,
                    normalized: retired as f64 / e.spec.shares as f64,
                }
            })
            .collect();
        let normalized: Vec<f64> = app_results.iter().map(|a| a.normalized).collect();
        let best = normalized.iter().cloned().fold(0.0, f64::max);
        let starved = normalized
            .iter()
            .filter(|&&n| best > 0.0 && n < best * 0.02)
            .count();

        Ok(ChaosResult {
            intervals: scored.len(),
            violations,
            sustained_violations: sustained,
            longest_violation_run: longest,
            worst_over_watts: worst,
            mean_power,
            jain: jain(&normalized),
            starved,
            transitions: match &ctl {
                Ctl::Resilient(rd) => rd.transitions().to_vec(),
                Ctl::Baseline(..) => Vec::new(),
            },
            injected: fchip.stats(),
            apps: app_results,
            interval_powers: scored,
        })
    }
}

/// Write an action to the faulty chip. Injected write failures go to
/// `on_write_error` (the resilient stack forwards them to the daemon;
/// the baseline ignores them); simulator errors are caller bugs and
/// abort the run.
fn apply<C: ChipLike>(
    fchip: &mut FaultyChip<C>,
    action: &ControlAction,
    mut on_write_error: impl FnMut(usize),
) -> Result<(), String> {
    for core in 0..action.freqs.len() {
        match fchip.write_requested(core, action.freqs[core]) {
            Ok(()) => {}
            Err(FaultError::Sim(e)) => return Err(e.to_string()),
            Err(_) => on_write_error(core),
        }
        fchip
            .set_parked(core, action.parked[core])
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The baseline's observation handling: silently reuse the last value
/// for anything unreadable — no retries, no health, no read-back.
struct StaleFill {
    last_pkg: Watts,
    last_rates: Vec<CoreRates>,
    last_power: Vec<Option<Watts>>,
    last_requested: Vec<KiloHertz>,
}

impl StaleFill {
    fn new(num_cores: usize, limit: Watts) -> StaleFill {
        StaleFill {
            // Until the first real reading, assume we are exactly at
            // budget (the charitable choice for the baseline).
            last_pkg: limit,
            last_rates: vec![
                CoreRates {
                    active_freq: KiloHertz::ZERO,
                    c0_residency: 0.0,
                    ips: 0.0,
                };
                num_cores
            ],
            last_power: vec![None; num_cores],
            last_requested: vec![KiloHertz::ZERO; num_cores],
        }
    }

    fn backfill(&mut self, obs: &Observation) -> Sample {
        if let Some(p) = obs.package_power {
            self.last_pkg = p;
        }
        let cores = obs
            .cores
            .iter()
            .enumerate()
            .map(|(c, co)| {
                if let Some(r) = co.rates {
                    self.last_rates[c] = r;
                }
                if let Some(p) = co.power {
                    self.last_power[c] = Some(p);
                }
                if let Some(f) = co.requested {
                    self.last_requested[c] = f;
                }
                CoreSample {
                    rates: self.last_rates[c],
                    power: self.last_power[c],
                    requested_freq: self.last_requested[c],
                }
            })
            .collect();
        Sample {
            time: obs.time,
            interval: obs.interval,
            package_power: self.last_pkg,
            cores_power: self.last_pkg,
            cores,
        }
    }
}

#[cfg(test)]
mod tests {
    // The heavyweight end-to-end assertions live in tests/faults_e2e.rs
    // and the ext_faults bench; here we only prove the harness runs and
    // scores a clean plan as clean.
    use super::*;
    use crate::chaos_platform;
    use pap_workloads::spec;

    #[test]
    fn clean_run_has_no_violations_and_high_fairness() {
        let r = ChaosExperiment::new(chaos_platform(), PolicyKind::PowerShares, Watts(30.0))
            .app("cactus", spec::CACTUS_BSSN, 70)
            .app("leela", spec::LEELA, 30)
            .app("gcc", spec::GCC, 50)
            .duration(Seconds(30.0))
            .run()
            .unwrap();
        assert_eq!(r.sustained_violations, 0, "{r:?}");
        assert_eq!(r.starved, 0);
        assert!(r.jain > 0.6, "jain {}", r.jain);
        assert!(r.transitions.is_empty(), "no faults, no ladder moves");
        assert_eq!(r.injected, InjectionStats::default());
    }
}
