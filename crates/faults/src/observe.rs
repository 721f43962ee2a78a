//! Fallible telemetry collection over a [`FaultyChip`].
//!
//! [`FaultObserver`] is the failure-aware twin of
//! [`pap_telemetry::sampler::Sampler`]: it keeps a previous snapshot
//! *per sensor* (each with its own timestamp, because a sensor that was
//! dark for two intervals must derive power over the span it actually
//! missed) and emits a [`powerd::resilience::Observation`] in which every
//! reading is optional. Reads go through the daemon's
//! [`RetryPolicy`]; retries that rescued a read are reported in
//! [`Observation::retries`] so the health tracker can count the cost.
//!
//! Derived values also pass a plausibility screen: a package power above
//! five times TDP (the signature of an energy-counter glitch or spurious
//! rollover) or a per-core power above twice TDP is reported as a failed
//! reading rather than handed to the controller. The snapshot still
//! advances, so a one-shot glitch costs exactly one interval of
//! observability instead of poisoning every interval after it.

use pap_simcpu::core::CoreCounters;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::{core_rates, power_from_energy};
use pap_telemetry::health::SensorId;
use powerd::resilience::{CoreObservation, Observation, RetryPolicy};

use pap_simcpu::chiplike::ChipLike;

use crate::chip::FaultyChip;

/// A previous raw-counter snapshot with the time it was taken.
#[derive(Debug, Clone, Copy)]
struct Snap<T> {
    value: T,
    time: Seconds,
}

/// Failure-aware sampler over a [`FaultyChip`].
#[derive(Debug, Clone)]
pub struct FaultObserver {
    retry: RetryPolicy,
    last_observation: Seconds,
    pkg: Option<Snap<u32>>,
    core_energy: Vec<Option<Snap<u32>>>,
    counters: Vec<Option<Snap<CoreCounters>>>,
    /// Package readings above this are rejected as implausible.
    pkg_bound: Watts,
    /// Per-core readings above this are rejected as implausible.
    core_bound: Watts,
}

impl FaultObserver {
    /// Build an observer and prime its snapshots with a best-effort read
    /// (failed primes simply mean the first interval for that sensor is
    /// unobservable, exactly as on real hardware).
    pub fn new<C: ChipLike>(chip: &mut FaultyChip<C>, retry: RetryPolicy) -> FaultObserver {
        let n = chip.num_cores();
        let tdp = chip.spec().tdp;
        let mut o = FaultObserver {
            retry,
            last_observation: chip.now(),
            pkg: None,
            core_energy: vec![None; n],
            counters: vec![None; n],
            pkg_bound: Watts(tdp.value() * 5.0),
            core_bound: Watts(tdp.value() * 2.0),
        };
        o.prime(chip);
        o
    }

    fn prime<C: ChipLike>(&mut self, chip: &mut FaultyChip<C>) {
        let now = chip.now();
        if let (Ok(raw), _) = self.retry.run(|| chip.read_package_energy()) {
            self.pkg = Some(Snap {
                value: raw,
                time: now,
            });
        }
        for c in 0..chip.num_cores() {
            if chip.spec().per_core_power {
                if let (Ok(raw), _) = self.retry.run(|| chip.read_core_energy(c)) {
                    self.core_energy[c] = Some(Snap {
                        value: raw,
                        time: now,
                    });
                }
            }
            if let (Ok(ctr), _) = self.retry.run(|| chip.read_counters(c)) {
                self.counters[c] = Some(Snap {
                    value: ctr,
                    time: now,
                });
            }
        }
    }

    /// Collect one observation covering the interval since the last call.
    pub fn observe<C: ChipLike>(&mut self, chip: &mut FaultyChip<C>) -> Observation {
        let now = chip.now();
        let interval = now - self.last_observation;
        self.last_observation = now;
        let retry = self.retry;
        let mut retries: Vec<(SensorId, u64)> = Vec::new();
        let mut note_retries = |sensor: SensorId, attempts: u32| {
            if attempts > 1 {
                retries.push((sensor, (attempts - 1) as u64));
            }
        };

        // Package power from the package energy counter.
        let (res, attempts) = retry.run(|| chip.read_package_energy());
        note_retries(SensorId::PackagePower, attempts);
        let package_power = match res {
            Ok(raw) => {
                let p = self.pkg.and_then(|prev| {
                    let dt = now - prev.time;
                    (dt.value() > 0.0).then(|| power_from_energy(prev.value, raw, dt))
                });
                self.pkg = Some(Snap {
                    value: raw,
                    time: now,
                });
                p.filter(|p| *p <= self.pkg_bound)
            }
            Err(_) => None,
        };

        let base = chip.spec().base_freq;
        let per_core_power = chip.spec().per_core_power;
        let mut cores = Vec::with_capacity(chip.num_cores());
        for c in 0..chip.num_cores() {
            // Per-core power.
            let power = if per_core_power {
                let (res, attempts) = retry.run(|| chip.read_core_energy(c));
                note_retries(SensorId::CorePower(c), attempts);
                match res {
                    Ok(raw) => {
                        let p = self.core_energy[c].and_then(|prev| {
                            let dt = now - prev.time;
                            (dt.value() > 0.0).then(|| power_from_energy(prev.value, raw, dt))
                        });
                        self.core_energy[c] = Some(Snap {
                            value: raw,
                            time: now,
                        });
                        p.filter(|p| *p <= self.core_bound)
                    }
                    Err(_) => None,
                }
            } else {
                None
            };

            // Fixed-counter rates.
            let (res, attempts) = retry.run(|| chip.read_counters(c));
            note_retries(SensorId::CoreCounters(c), attempts);
            let rates = match res {
                Ok(ctr) => {
                    let r = self.counters[c].and_then(|prev| {
                        let dt = now - prev.time;
                        (dt.value() > 0.0).then(|| core_rates(prev.value, ctr, dt, base))
                    });
                    self.counters[c] = Some(Snap {
                        value: ctr,
                        time: now,
                    });
                    r
                }
                Err(_) => None,
            };

            // Frequency-request read-back (stuck-write detection).
            let (res, attempts) = retry.run(|| chip.read_requested(c));
            note_retries(SensorId::FreqActuator(c), attempts);
            let requested = res.ok();

            cores.push(CoreObservation {
                rates,
                power,
                requested,
            });
        }

        Observation {
            time: now,
            interval,
            package_power,
            cores,
            retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos_platform;
    use crate::plan::{FaultKind, FaultPlan};
    use pap_simcpu::chip::Chip;
    use pap_simcpu::power::LoadDescriptor;
    use pap_workloads::engine::TickTarget;

    fn run_for(chip: &mut FaultyChip<Chip>, secs: f64) {
        let dt = Seconds(0.001);
        let steps = (secs / dt.value()).round() as usize;
        for _ in 0..steps {
            chip.tick(dt);
        }
    }

    fn busy_harness(plan: FaultPlan) -> FaultyChip<Chip> {
        let mut fc = FaultyChip::new(Chip::new(chaos_platform()), plan, 5);
        fc.set_load(0, LoadDescriptor::nominal()).unwrap();
        fc
    }

    #[test]
    fn healthy_chip_full_observation() {
        let mut fc = busy_harness(FaultPlan::new());
        let mut obs = FaultObserver::new(&mut fc, RetryPolicy::default());
        run_for(&mut fc, 1.0);
        let o = obs.observe(&mut fc);
        assert!((o.interval.value() - 1.0).abs() < 1e-9);
        let p = o.package_power.expect("healthy package");
        assert!(p.value() > 1.0, "busy chip draws real power, got {p}");
        assert!(
            o.cores[0].power.is_some(),
            "per-core power on this platform"
        );
        assert!(o.cores[0].rates.is_some());
        assert!(o.cores[0].requested.is_some());
        assert!(o.retries.is_empty());
    }

    #[test]
    fn read_failure_blanks_only_the_failed_sensor() {
        let plan = FaultPlan::new().with(
            FaultKind::CoreEnergyReadError { core: 0 },
            Seconds(0.5),
            Some(Seconds(10.0)),
        );
        let mut fc = busy_harness(plan);
        let mut obs = FaultObserver::new(&mut fc, RetryPolicy::default());
        run_for(&mut fc, 1.0);
        let o = obs.observe(&mut fc);
        assert!(o.cores[0].power.is_none(), "injected failure");
        assert!(o.package_power.is_some(), "package unaffected");
        assert!(o.cores[1].power.is_some(), "other cores unaffected");
    }

    #[test]
    fn snapshot_spans_the_dark_period() {
        // Core 0 energy is dark for interval 2; interval 3's reading must
        // derive power over the 2 s the snapshot actually covers, not 1 s
        // (which would halve the value).
        let plan = FaultPlan::new().with(
            FaultKind::CoreEnergyReadError { core: 0 },
            Seconds(1.2),
            Some(Seconds(1.0)),
        );
        let mut fc = busy_harness(plan);
        let mut obs = FaultObserver::new(&mut fc, RetryPolicy::default());
        run_for(&mut fc, 1.0);
        let o1 = obs.observe(&mut fc);
        let p1 = o1.cores[0].power.unwrap();
        run_for(&mut fc, 1.0);
        let o2 = obs.observe(&mut fc);
        assert!(o2.cores[0].power.is_none(), "dark interval");
        run_for(&mut fc, 1.0);
        let o3 = obs.observe(&mut fc);
        let p3 = o3.cores[0].power.unwrap();
        assert!(
            (p3.value() - p1.value()).abs() < p1.value() * 0.3,
            "power derived over the true 2 s span: {p1} vs {p3}"
        );
    }

    #[test]
    fn glitch_rejected_as_implausible_then_recovers() {
        let plan = FaultPlan::new().with(
            FaultKind::EnergyGlitch {
                delta_units: 1 << 25, // 2048 J mid-interval: absurd power
            },
            Seconds(0.5),
            None,
        );
        let mut fc = busy_harness(plan);
        let mut obs = FaultObserver::new(&mut fc, RetryPolicy::default());
        run_for(&mut fc, 1.0);
        let o1 = obs.observe(&mut fc);
        assert!(
            o1.package_power.is_none(),
            "glitched interval rejected, got {:?}",
            o1.package_power
        );
        run_for(&mut fc, 1.0);
        let o2 = obs.observe(&mut fc);
        let p = o2.package_power.expect("one interval of cost, then clean");
        assert!(p <= Watts(fc.spec().tdp.value()), "sane again: {p}");
    }

    #[test]
    fn retries_rescue_flaky_reads() {
        let plan =
            FaultPlan::new().with(FaultKind::PkgEnergyFlaky { prob: 0.5 }, Seconds(0.0), None);
        let mut fc = busy_harness(plan);
        let retry = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        let mut obs = FaultObserver::new(&mut fc, retry);
        let mut ok = 0;
        let mut retried = 0;
        for _ in 0..20 {
            run_for(&mut fc, 1.0);
            let o = obs.observe(&mut fc);
            if o.package_power.is_some() {
                ok += 1;
            }
            retried += o
                .retries
                .iter()
                .filter(|(s, _)| *s == SensorId::PackagePower)
                .map(|(_, n)| *n)
                .sum::<u64>();
        }
        assert!(ok >= 18, "8 attempts beat a 50% flake: {ok}/20 rescued");
        assert!(retried > 0, "the rescues cost retries, which are reported");
    }

    #[test]
    fn retries_rescue_and_are_reported() {
        // Impossible to rescue: the whole interval errors. But with a
        // clean plan and max_attempts=1 nothing is reported either.
        let mut fc = busy_harness(FaultPlan::new());
        let mut obs = FaultObserver::new(&mut fc, RetryPolicy::none());
        run_for(&mut fc, 1.0);
        let o = obs.observe(&mut fc);
        assert!(o.retries.is_empty());
        assert!(o.package_power.is_some());
    }
}
