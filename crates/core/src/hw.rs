//! Hardware backend abstraction.
//!
//! The daemon itself is a pure controller (telemetry in, frequency
//! targets out); a [`PowerBackend`] is the thing that actually touches
//! hardware. Two simulator implementations ship:
//!
//! * [`SimBackend`] — direct access to a simulated chip, generic over
//!   [`ChipLike`] so the per-core [`Chip`] and the batch-stepped
//!   `WideChip` plug in alike (what the experiment runners use);
//! * [`MsrSysfsBackend`] — drives the *same* chip exclusively through
//!   the emulated MSR bus and cpufreq sysfs tree, i.e. through the exact
//!   interfaces a real Linux host exposes (`/dev/cpu/*/msr`,
//!   `/sys/devices/system/cpu/*/cpufreq/...`). Control software that
//!   works against this backend ports to real hardware by swapping the
//!   file I/O in.
//!
//! [`ControlLoop`] is the §5 monitoring loop over any backend: once per
//! control interval it samples telemetry, steps the daemon and programs
//! the resulting action. Callers own the tick loop, so they can drive
//! their workloads (through `RunningApp::tick_on`), retarget the budget
//! or record what they need between ticks. [`run_daemon`] wraps it for
//! callers with nothing to do between ticks but drive workloads.

use pap_simcpu::chip::Chip;
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::msr::{addr, MsrBus};
use pap_simcpu::platform::{PlatformSpec, Vendor};
use pap_simcpu::sysfs::SysfsTree;
use pap_simcpu::units::Seconds;
use pap_telemetry::counters::{core_rates, power_from_energy};
use pap_telemetry::sampler::{CoreSample, Sample, Sampler};

use crate::daemon::{ControlAction, Daemon};

/// The hardware access surface the daemon's host loop needs.
pub trait PowerBackend {
    /// The platform being controlled.
    fn platform(&self) -> &PlatformSpec;

    /// Collect one telemetry sample covering the interval since the last
    /// call.
    fn sample(&mut self) -> Option<Sample>;

    /// Program a control action (frequencies + parking).
    fn apply(&mut self, action: &ControlAction) -> Result<(), String>;

    /// Advance simulated time (no-op on real hardware, where wall time
    /// passes by itself).
    fn advance(&mut self, dt: Seconds);
}

/// Direct-chip backend over any [`ChipLike`] simulator.
pub struct SimBackend<C: ChipLike = Chip> {
    chip: C,
    sampler: Sampler,
}

impl<C: ChipLike> SimBackend<C> {
    /// Wrap a chip.
    pub fn new(chip: C) -> SimBackend<C> {
        let sampler = Sampler::new(&chip);
        SimBackend { chip, sampler }
    }

    /// Access the chip (e.g. for workload driving).
    pub fn chip_mut(&mut self) -> &mut C {
        &mut self.chip
    }

    /// Read-only chip access.
    pub fn chip(&self) -> &C {
        &self.chip
    }
}

impl<C: ChipLike> PowerBackend for SimBackend<C> {
    fn platform(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    fn sample(&mut self) -> Option<Sample> {
        self.sampler.sample(&self.chip)
    }

    fn apply(&mut self, action: &ControlAction) -> Result<(), String> {
        self.chip
            .set_all_requested(&action.freqs)
            .map_err(|e| e.to_string())?;
        for (core, &p) in action.parked.iter().enumerate() {
            self.chip
                .set_forced_idle(core, p)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn advance(&mut self, dt: Seconds) {
        self.chip.tick(dt);
    }
}

/// Backend that reaches the chip only through the emulated MSR and sysfs
/// interfaces — the portability proof.
pub struct MsrSysfsBackend {
    chip: Chip,
    prev_time: Seconds,
    prev: Vec<PrevCounters>,
    prev_pkg_energy: u32,
}

#[derive(Clone, Copy, Default)]
struct PrevCounters {
    aperf: u64,
    mperf: u64,
    tsc: u64,
    instructions: u64,
    core_energy: u32,
}

impl MsrSysfsBackend {
    /// Wrap a chip; all subsequent access goes through MSRs/sysfs.
    pub fn new(chip: Chip) -> MsrSysfsBackend {
        let n = chip.num_cores();
        let mut b = MsrSysfsBackend {
            chip,
            prev_time: Seconds(0.0),
            prev: vec![PrevCounters::default(); n],
            prev_pkg_energy: 0,
        };
        b.snapshot();
        b
    }

    /// Access the chip for workload driving (the workloads are not part
    /// of the hardware interface).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    fn pkg_energy_msr(&self) -> u32 {
        match self.chip.spec().vendor {
            Vendor::Intel => addr::PKG_ENERGY_STATUS,
            Vendor::Amd => addr::AMD_PKG_ENERGY,
        }
    }

    fn snapshot(&mut self) {
        self.prev_time = self.chip.now();
        let per_core_power = self.chip.spec().per_core_power;
        let pkg_msr = self.pkg_energy_msr();
        let bus = MsrBus::new(&mut self.chip);
        let n = self.prev.len();
        for c in 0..n {
            self.prev[c] = PrevCounters {
                aperf: bus.read(c, addr::APERF).expect("aperf"),
                mperf: bus.read(c, addr::MPERF).expect("mperf"),
                tsc: bus.read(c, addr::TSC).expect("tsc"),
                instructions: bus.read(c, addr::FIXED_CTR0).expect("instr"),
                core_energy: if per_core_power {
                    bus.read(c, addr::AMD_CORE_ENERGY).expect("core energy") as u32
                } else {
                    0
                },
            };
        }
        self.prev_pkg_energy = bus.read(0, pkg_msr).expect("pkg energy") as u32;
    }
}

impl PowerBackend for MsrSysfsBackend {
    fn platform(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    fn sample(&mut self) -> Option<Sample> {
        let now = self.chip.now();
        let dt = now - self.prev_time;
        if dt.value() <= 0.0 {
            return None;
        }
        let base = self.chip.spec().base_freq;
        let per_core_power = self.chip.spec().per_core_power;
        let pkg_msr = self.pkg_energy_msr();
        let n = self.prev.len();

        let mut cores = Vec::with_capacity(n);
        let mut requested = Vec::with_capacity(n);
        {
            let fs = SysfsTree::new(&mut self.chip);
            for c in 0..n {
                let khz: u64 = fs
                    .read(&format!(
                        "/sys/devices/system/cpu/cpu{c}/cpufreq/scaling_setspeed"
                    ))
                    .expect("setspeed readable")
                    .parse()
                    .expect("kHz");
                requested.push(KiloHertz(khz));
            }
        }
        let bus = MsrBus::new(&mut self.chip);
        let mut pkg_raw = 0u32;
        #[allow(clippy::needless_range_loop)] // `c` is the MSR core index
        for c in 0..n {
            let now_c = pap_simcpu::core::CoreCounters {
                aperf: bus.read(c, addr::APERF).expect("aperf"),
                mperf: bus.read(c, addr::MPERF).expect("mperf"),
                tsc: bus.read(c, addr::TSC).expect("tsc"),
                instructions: bus.read(c, addr::FIXED_CTR0).expect("instr"),
            };
            let prev_c = pap_simcpu::core::CoreCounters {
                aperf: self.prev[c].aperf,
                mperf: self.prev[c].mperf,
                tsc: self.prev[c].tsc,
                instructions: self.prev[c].instructions,
            };
            let rates = core_rates(prev_c, now_c, dt, base);
            let power = if per_core_power {
                let raw = bus.read(c, addr::AMD_CORE_ENERGY).expect("core energy") as u32;
                Some(power_from_energy(self.prev[c].core_energy, raw, dt))
            } else {
                None
            };
            cores.push(CoreSample {
                rates,
                power,
                requested_freq: requested[c],
            });
            if c == 0 {
                pkg_raw = bus.read(0, pkg_msr).expect("pkg energy") as u32;
            }
        }
        let package_power = power_from_energy(self.prev_pkg_energy, pkg_raw, dt);
        #[allow(clippy::drop_non_drop)] // ends the &mut Chip borrow
        drop(bus);
        self.snapshot();

        Some(Sample {
            time: now,
            interval: dt,
            package_power,
            // the PP0 counter is Intel-only; approximate with package for
            // the backend's purposes (no policy consumes cores_power)
            cores_power: package_power,
            cores,
        })
    }

    fn apply(&mut self, action: &ControlAction) -> Result<(), String> {
        {
            let mut fs = SysfsTree::new(&mut self.chip);
            for (c, f) in action.freqs.iter().enumerate() {
                fs.write(
                    &format!("/sys/devices/system/cpu/cpu{c}/cpufreq/scaling_setspeed"),
                    &f.khz().to_string(),
                )
                .map_err(|e| e.to_string())?;
            }
        }
        // Core parking has no sysfs file in our emulation; it maps to the
        // cpu online/offline interface on real hardware. Apply directly.
        for (core, &p) in action.parked.iter().enumerate() {
            self.chip
                .set_forced_idle(core, p)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn advance(&mut self, dt: Seconds) {
        self.chip.tick(dt);
    }
}

/// The §5 monitoring loop, one tick at a time.
///
/// [`start`](ControlLoop::start) programs the daemon's initial action;
/// each [`tick`](ControlLoop::tick) advances the backend and, at every
/// control-interval boundary, samples telemetry, steps the daemon and
/// programs the action it returns. The daemon is passed to every call
/// rather than owned, so callers may retarget its budget or swap its
/// translation between ticks.
#[derive(Debug)]
pub struct ControlLoop {
    action: ControlAction,
    interval: f64,
    elapsed: f64,
    next: f64,
}

impl ControlLoop {
    /// Program `daemon.initial()` on the backend and start the clock at
    /// zero. The control interval is read from the daemon's config once.
    pub fn start<B: PowerBackend>(
        backend: &mut B,
        daemon: &mut Daemon,
    ) -> Result<ControlLoop, String> {
        let action = daemon.initial();
        backend.apply(&action)?;
        let interval = daemon.config().control_interval.value();
        Ok(ControlLoop {
            action,
            interval,
            elapsed: 0.0,
            next: interval,
        })
    }

    /// Advance the backend by `dt`. At a control-interval boundary, step
    /// the daemon on a fresh sample, program its action, and return the
    /// sample it consumed; otherwise return `None`.
    pub fn tick<B: PowerBackend>(
        &mut self,
        backend: &mut B,
        daemon: &mut Daemon,
        dt: Seconds,
    ) -> Result<Option<Sample>, String> {
        backend.advance(dt);
        self.elapsed += dt.value();
        if self.elapsed + 1e-9 < self.next {
            return Ok(None);
        }
        self.next += self.interval;
        let Some(sample) = backend.sample() else {
            return Ok(None);
        };
        self.action = daemon.step(&sample);
        backend.apply(&self.action)?;
        Ok(Some(sample))
    }

    /// The action currently programmed (its `parked` flags say which
    /// cores the workloads must leave alone).
    pub fn action(&self) -> &ControlAction {
        &self.action
    }

    /// Simulated time since [`start`](ControlLoop::start).
    pub fn elapsed(&self) -> Seconds {
        Seconds(self.elapsed)
    }
}

/// Drive a daemon over a backend for `duration`, invoking `drive` each
/// tick so the caller can advance its workloads.
pub fn run_daemon<B: PowerBackend>(
    backend: &mut B,
    daemon: &mut Daemon,
    duration: Seconds,
    tick: Seconds,
    mut drive: impl FnMut(&mut B, &ControlAction),
) -> Result<(), String> {
    let mut lp = ControlLoop::start(backend, daemon)?;
    while lp.elapsed() < duration {
        drive(backend, lp.action());
        lp.tick(backend, daemon, tick)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, DaemonConfig, PolicyKind};
    use pap_simcpu::units::Watts;
    use pap_workloads::engine::RunningApp;
    use pap_workloads::spec;

    fn daemon(platform: &PlatformSpec, limit: f64) -> Daemon {
        let apps = vec![
            AppSpec::new("cactusBSSN", 0)
                .with_shares(70)
                .with_baseline_ips(3e9),
            AppSpec::new("leela", 1)
                .with_shares(30)
                .with_baseline_ips(3e9),
        ];
        Daemon::new(
            DaemonConfig::new(PolicyKind::FrequencyShares, Watts(limit), apps),
            platform,
        )
        .expect("valid daemon")
    }

    /// Run the 26 W two-app daemon for 20 s over `backend`, driving the
    /// apps on the chip `chip` reaches.
    fn run_two_apps<B: PowerBackend>(backend: &mut B, chip: fn(&mut B) -> &mut Chip) {
        let mut d = daemon(&PlatformSpec::skylake(), 26.0);
        let mut apps = [
            RunningApp::looping(spec::CACTUS_BSSN),
            RunningApp::looping(spec::LEELA),
        ];
        let tick = Seconds(0.002);
        run_daemon(backend, &mut d, Seconds(20.0), tick, |b, action| {
            for (c, app) in apps.iter_mut().enumerate() {
                if !action.parked[c] {
                    app.tick_on(chip(b), c, tick).unwrap();
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn sim_backend_converges() {
        let mut backend = SimBackend::new(Chip::new(PlatformSpec::skylake()));
        run_two_apps(&mut backend, SimBackend::chip_mut);
        let p = backend.chip().package_power().value();
        assert!((p - 26.0).abs() < 3.0, "package {p:.1} vs 26 W");
    }

    #[test]
    fn msr_sysfs_backend_matches_direct_backend() {
        // The same daemon run through the file/MSR surface must land at
        // the same operating point as direct chip access.
        let mut direct = SimBackend::new(Chip::new(PlatformSpec::skylake()));
        run_two_apps(&mut direct, SimBackend::chip_mut);
        let mut msr = MsrSysfsBackend::new(Chip::new(PlatformSpec::skylake()));
        run_two_apps(&mut msr, MsrSysfsBackend::chip_mut);
        let (direct, msr) = (direct.chip(), msr.chip_mut());
        let (p_direct, p_msr) = (direct.package_power().value(), msr.package_power().value());
        assert!(
            (p_direct - p_msr).abs() < 1.0,
            "package power {p_direct:.1} vs {p_msr:.1}"
        );
        for c in 0..2 {
            assert_eq!(
                direct.effective_freq(c),
                msr.effective_freq(c),
                "core {c} frequency must match exactly"
            );
        }
    }

    #[test]
    fn msr_sysfs_backend_on_ryzen_reads_core_power() {
        let platform = PlatformSpec::ryzen();
        let mut b = MsrSysfsBackend::new(Chip::new(platform.clone()));
        b.chip_mut()
            .set_load(0, pap_simcpu::power::LoadDescriptor::nominal())
            .unwrap();
        for _ in 0..1000 {
            b.advance(Seconds(0.001));
        }
        let s = b.sample().expect("time passed");
        let p = s.cores[0].power.expect("per-core power over MSR");
        assert!(p.value() > 1.0, "busy Ryzen core power {p}");
        assert!(s.cores[7].power.unwrap().value() < 0.2);
    }
}
