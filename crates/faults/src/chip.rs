//! The fault-injecting chip wrapper.
//!
//! [`FaultyChip`] sits between a consumer (sampler/daemon backend) and a
//! [`Chip`], exposing the *fallible* interface real MSR access has:
//! every sensor read and frequency write returns a `Result`, and a
//! [`FaultPlan`] decides which operations fail, jitter or get dropped at
//! any given simulated time. The wrapped chip keeps simulating ground
//! truth, which stays available to harnesses via [`FaultyChip::inner`] —
//! that is how a chaos bench can check the *true* package power against
//! the cap while the daemon only sees the corrupted view.
//!
//! Fault semantics worth spelling out:
//!
//! * **Stuck writes** return `Ok(())` but change nothing — the request
//!   register keeps its old value, so only a read-back
//!   ([`FaultyChip::read_requested`]) reveals the write was dropped.
//! * **Thermal emergencies** clamp every core to the minimum P-state.
//!   Software writes during the emergency are latched into the request
//!   register (and read back faithfully — real parts do the same: the
//!   clamp shows up in the *effective* frequency, not in `PERF_CTL`) and
//!   take effect when the emergency lifts.
//! * **Glitches/rollovers** are one-shot offsets applied to the package
//!   energy counter; they fire at the first read at/after their start
//!   time and persist (a counter cannot un-jump).

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters;
use pap_simcpu::error::SimError;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{FaultKind, FaultPlan};

/// Raw energy-counter units per joule (the counter LSB is 2⁻¹⁴ J).
const UNITS_PER_JOULE: f64 = 16384.0;

/// Why a chip operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// An injected read failure (transient or persistent per the plan).
    InjectedRead(&'static str),
    /// An injected write failure.
    InjectedWrite(&'static str),
    /// A real simulator error (bad core index, off-grid frequency) —
    /// these indicate a caller bug, not an injected fault.
    Sim(SimError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InjectedRead(what) => write!(f, "injected read error: {what}"),
            FaultError::InjectedWrite(what) => write!(f, "injected write error: {what}"),
            FaultError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> FaultError {
        FaultError::Sim(e)
    }
}

/// Counters of what the harness actually injected, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InjectionStats {
    /// Sensor reads that returned an injected error.
    pub failed_reads: u64,
    /// Frequency writes that returned an injected error.
    pub failed_writes: u64,
    /// Frequency writes silently dropped.
    pub stuck_writes: u64,
    /// Reads perturbed by energy-counter noise.
    pub noisy_reads: u64,
    /// One-shot glitches/rollovers fired.
    pub glitches_fired: u32,
    /// Thermal emergencies entered.
    pub thermal_events: u32,
}

/// A chip backend behind a fault-injection layer. Generic over the
/// [`ChipLike`] seam — the chaos regression in `tests/chaos.rs` proves a
/// fault schedule produces identical verdicts whether the ground truth
/// is the scalar `Chip` or the batch-stepped default [`WideChip`]. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct FaultyChip<C: ChipLike = WideChip> {
    chip: C,
    plan: FaultPlan,
    rng: StdRng,
    /// One-shot bookkeeping, indexed like `plan.faults`.
    fired: Vec<bool>,
    /// Accumulated one-shot offset on the package energy counter.
    glitch_offset: u32,
    /// The frequency-request "registers" as software sees them. Differs
    /// from the inner chip only while a stuck-write or thermal fault is
    /// in effect.
    shadow: Vec<KiloHertz>,
    in_emergency: bool,
    stats: InjectionStats,
}

impl<C: ChipLike> FaultyChip<C> {
    /// Wrap `chip` with a fault plan. `seed` drives only the noise
    /// faults; the schedule itself lives in the plan.
    pub fn new(chip: C, plan: FaultPlan, seed: u64) -> FaultyChip<C> {
        let shadow = (0..chip.num_cores())
            .map(|c| chip.requested_freq(c))
            .collect();
        let fired = vec![false; plan.faults.len()];
        FaultyChip {
            chip,
            plan,
            rng: StdRng::seed_from_u64(seed),
            fired,
            glitch_offset: 0,
            shadow,
            in_emergency: false,
            stats: InjectionStats::default(),
        }
    }

    /// Ground truth: the wrapped chip. Harnesses use this to score runs;
    /// a daemon backend must not.
    pub fn inner(&self) -> &C {
        &self.chip
    }

    /// The platform being simulated.
    pub fn spec(&self) -> &PlatformSpec {
        self.chip.spec()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.chip.num_cores()
    }

    /// Current simulated time.
    pub fn now(&self) -> Seconds {
        self.chip.now()
    }

    /// True package power during the last tick (ground truth, not
    /// subject to injection).
    pub fn true_package_power(&self) -> Watts {
        self.chip.package_power()
    }

    /// What the harness injected so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// Whether a firmware thermal emergency is clamping the chip now.
    pub fn in_thermal_emergency(&self) -> bool {
        self.in_emergency
    }

    fn read_fault<F: Fn(&FaultKind) -> bool>(&self, pred: F) -> bool {
        self.plan.active_at(self.now()).any(|f| pred(&f.kind))
    }

    /// Read the package energy counter. One-shot glitches scheduled at
    /// or before now fire here (they corrupt the counter, so they are
    /// visible — or not — exactly like the real artifact).
    pub fn read_package_energy(&mut self) -> Result<u32, FaultError> {
        let now = self.now();
        for (i, f) in self.plan.faults.iter().enumerate() {
            if self.fired[i] || now < f.start {
                continue;
            }
            let delta = match f.kind {
                FaultKind::EnergyGlitch { delta_units } => delta_units,
                // A spurious half-range jump: the classic mid-interval
                // wraparound artifact.
                FaultKind::EnergyRollover => u32::MAX / 2 + 1,
                _ => continue,
            };
            self.fired[i] = true;
            self.glitch_offset = self.glitch_offset.wrapping_add(delta);
            self.stats.glitches_fired += 1;
        }
        if self.read_fault(|k| matches!(k, FaultKind::PkgEnergyReadError)) {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("package energy MSR"));
        }
        let flaky = self.plan.active_at(now).find_map(|f| match f.kind {
            FaultKind::PkgEnergyFlaky { prob } => Some(prob),
            _ => None,
        });
        if let Some(prob) = flaky {
            if self.rng.gen_bool(prob) {
                self.stats.failed_reads += 1;
                return Err(FaultError::InjectedRead("package energy MSR (flaky)"));
            }
        }
        Ok(self
            .chip
            .package_energy_raw()
            .wrapping_add(self.glitch_offset))
    }

    /// Read one core's energy counter (per-core-power platforms only).
    pub fn read_core_energy(&mut self, core: usize) -> Result<u32, FaultError> {
        let raw = self.chip.core_energy_raw(core)?;
        if self
            .read_fault(|k| matches!(k, FaultKind::CoreEnergyReadError { core: c } if *c == core))
        {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("core energy MSR"));
        }
        let flaky = self.plan.active_at(self.now()).find_map(|f| match f.kind {
            FaultKind::CoreEnergyFlaky { core: c, prob } if c == core => Some(prob),
            _ => None,
        });
        if let Some(prob) = flaky {
            if self.rng.gen_bool(prob) {
                self.stats.failed_reads += 1;
                return Err(FaultError::InjectedRead("core energy MSR (flaky)"));
            }
        }
        let amp = self.plan.active_at(self.now()).find_map(|f| match f.kind {
            FaultKind::CoreEnergyNoise { core: c, amp_watts } if c == core => Some(amp_watts),
            _ => None,
        });
        if let Some(amp) = amp {
            self.stats.noisy_reads += 1;
            let jitter_units = (self.rng.gen_range(-amp..amp) * UNITS_PER_JOULE) as i64;
            return Ok(raw.wrapping_add(jitter_units as u32));
        }
        Ok(raw)
    }

    /// Read one core's fixed counters.
    pub fn read_counters(&mut self, core: usize) -> Result<CoreCounters, FaultError> {
        if core >= self.num_cores() {
            return Err(FaultError::Sim(SimError::NoSuchCore {
                core,
                num_cores: self.num_cores(),
            }));
        }
        if self.read_fault(|k| matches!(k, FaultKind::CounterReadError { core: c } if *c == core)) {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("fixed counters"));
        }
        Ok(self.chip.counters(core))
    }

    /// Read back one core's frequency-request register (the stuck-write
    /// detector). Shares the fixed-counter read path, so a
    /// [`FaultKind::CounterReadError`] takes it out too.
    pub fn read_requested(&mut self, core: usize) -> Result<KiloHertz, FaultError> {
        if core >= self.num_cores() {
            return Err(FaultError::Sim(SimError::NoSuchCore {
                core,
                num_cores: self.num_cores(),
            }));
        }
        if self.read_fault(|k| matches!(k, FaultKind::CounterReadError { core: c } if *c == core)) {
            self.stats.failed_reads += 1;
            return Err(FaultError::InjectedRead("frequency request register"));
        }
        Ok(self.shadow[core])
    }

    /// Request a frequency for one core. May error (injected), silently
    /// do nothing (stuck), or be latched-but-clamped (thermal).
    pub fn write_requested(&mut self, core: usize, f: KiloHertz) -> Result<(), FaultError> {
        if core >= self.num_cores() {
            return Err(FaultError::Sim(SimError::NoSuchCore {
                core,
                num_cores: self.num_cores(),
            }));
        }
        let grid = self.chip.spec().grid;
        if f < grid.min() || f > grid.max() {
            return Err(FaultError::Sim(SimError::FrequencyOutOfRange {
                requested: f,
                min: grid.min(),
                max: grid.max(),
            }));
        }
        let now = self.now();
        if self
            .plan
            .active_at(now)
            .any(|s| matches!(s.kind, FaultKind::FreqWriteError { core: c } if c == core))
        {
            self.stats.failed_writes += 1;
            return Err(FaultError::InjectedWrite("frequency request register"));
        }
        if self
            .plan
            .active_at(now)
            .any(|s| matches!(s.kind, FaultKind::FreqWriteStuck { core: c } if c == core))
        {
            self.stats.stuck_writes += 1;
            return Ok(()); // accepted, dropped: register unchanged
        }
        let snapped = grid.round(f);
        self.shadow[core] = snapped;
        if !self.in_emergency {
            self.chip.set_requested_freq(core, snapped)?;
        }
        Ok(())
    }

    /// Park or release a core. The C-state request path is modeled as
    /// reliable (it goes through MWAIT, not the MSR the plan breaks).
    pub fn set_parked(&mut self, core: usize, parked: bool) -> Result<(), FaultError> {
        self.chip.set_forced_idle(core, parked)?;
        Ok(())
    }

    /// Advance simulated time, handling thermal-emergency entry/exit.
    /// The emergency state is evaluated at the *post-tick* time, so a
    /// window opening mid-tick clamps from the next tick on (firmware
    /// reacts after the fact, exactly like the real PROCHOT path).
    pub fn tick(&mut self, dt: Seconds) {
        self.chip.tick(dt);
        let emergency = self
            .plan
            .active_at(self.now())
            .any(|f| matches!(f.kind, FaultKind::ThermalEmergency));
        if emergency && !self.in_emergency {
            self.in_emergency = true;
            self.stats.thermal_events += 1;
            let min = self.chip.spec().grid.min();
            for c in 0..self.num_cores() {
                self.chip
                    .set_requested_freq(c, min)
                    .expect("grid minimum is always writable");
            }
        } else if !emergency && self.in_emergency {
            self.in_emergency = false;
            for c in 0..self.num_cores() {
                let f = self.shadow[c];
                self.chip
                    .set_requested_freq(c, f)
                    .expect("shadow values were grid-snapped on write");
            }
        }
    }
}

/// The workload engine's side of the chip: the per-tick protocol
/// ([`RunningApp::tick_on`]) runs on a faulty chip as on any other. These
/// paths are reliable — the effective frequency is the simulation
/// contract, not an MSR, and loads and retired instructions are what
/// the workload does, not a register the plan breaks — so only a caller
/// bug (a bad core index) fails them, as [`FaultError::Sim`].
///
/// [`RunningApp::tick_on`]: pap_workloads::engine::RunningApp::tick_on
impl<C: ChipLike> pap_workloads::engine::TickTarget for FaultyChip<C> {
    type Error = FaultError;

    fn effective_freq(&self, core: usize) -> KiloHertz {
        self.chip.effective_freq(core)
    }

    fn set_load(
        &mut self,
        core: usize,
        load: pap_simcpu::power::LoadDescriptor,
    ) -> Result<(), FaultError> {
        self.chip.set_load(core, load)?;
        Ok(())
    }

    fn add_instructions(&mut self, core: usize, n: u64) -> Result<(), FaultError> {
        self.chip.add_instructions(core, n)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos_platform;
    use pap_simcpu::chip::Chip;
    use pap_simcpu::units::Seconds;
    use pap_workloads::engine::TickTarget;

    const MS: Seconds = Seconds(0.001);

    fn harness(plan: FaultPlan) -> FaultyChip<Chip> {
        FaultyChip::new(Chip::new(chaos_platform()), plan, 99)
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let mut fc = harness(FaultPlan::new());
        fc.write_requested(0, KiloHertz::from_mhz(2500)).unwrap();
        fc.tick(MS);
        assert_eq!(fc.read_requested(0).unwrap(), KiloHertz::from_mhz(2500));
        assert!(fc.read_package_energy().is_ok());
        assert!(fc.read_core_energy(0).is_ok());
        assert!(fc.read_counters(0).is_ok());
        assert_eq!(fc.stats(), InjectionStats::default());
    }

    #[test]
    fn read_errors_follow_the_window() {
        let plan = FaultPlan::new().with(
            FaultKind::PkgEnergyReadError,
            Seconds(0.01),
            Some(Seconds(0.02)),
        );
        let mut fc = harness(plan);
        assert!(fc.read_package_energy().is_ok(), "before the window");
        fc.tick(Seconds(0.015));
        assert!(fc.read_package_energy().is_err(), "inside the window");
        fc.tick(Seconds(0.05));
        assert!(fc.read_package_energy().is_ok(), "after the window");
        assert_eq!(fc.stats().failed_reads, 1);
    }

    #[test]
    fn stuck_write_returns_ok_but_readback_disagrees() {
        let plan = FaultPlan::new().with(
            FaultKind::FreqWriteStuck { core: 2 },
            Seconds(0.0),
            Some(Seconds(1.0)),
        );
        let mut fc = harness(plan);
        let before = fc.read_requested(2).unwrap();
        fc.write_requested(2, KiloHertz::from_mhz(3400)).unwrap(); // "succeeds"
        assert_eq!(fc.read_requested(2).unwrap(), before, "write was dropped");
        assert_eq!(fc.stats().stuck_writes, 1);

        // Other cores are unaffected.
        fc.write_requested(0, KiloHertz::from_mhz(3400)).unwrap();
        assert_eq!(fc.read_requested(0).unwrap(), KiloHertz::from_mhz(3400));

        // After the window the write takes.
        fc.tick(Seconds(1.5));
        fc.write_requested(2, KiloHertz::from_mhz(3400)).unwrap();
        assert_eq!(fc.read_requested(2).unwrap(), KiloHertz::from_mhz(3400));
    }

    #[test]
    fn glitch_fires_once_and_persists() {
        let plan = FaultPlan::new().with(
            FaultKind::EnergyGlitch {
                delta_units: 1 << 22,
            },
            Seconds(0.0),
            None,
        );
        let mut fc = harness(plan);
        let base = fc.inner().package_energy_raw();
        let glitched = fc.read_package_energy().unwrap();
        assert_eq!(glitched, base.wrapping_add(1 << 22));
        // Firing again does not double-apply.
        let again = fc.read_package_energy().unwrap();
        assert_eq!(again, glitched);
        assert_eq!(fc.stats().glitches_fired, 1);
    }

    #[test]
    fn thermal_emergency_clamps_then_restores() {
        let plan = FaultPlan::new().with(
            FaultKind::ThermalEmergency,
            Seconds(0.01),
            Some(Seconds(0.05)),
        );
        let mut fc = harness(plan);
        let min = fc.spec().grid.min();
        fc.write_requested(0, KiloHertz::from_mhz(3400)).unwrap();
        fc.tick(Seconds(0.02)); // enters the emergency
        assert!(fc.in_thermal_emergency());
        assert_eq!(fc.inner().requested_freq(0), min, "chip clamped");
        assert_eq!(
            fc.read_requested(0).unwrap(),
            KiloHertz::from_mhz(3400),
            "register read-back shows the software request"
        );
        // A write during the emergency is latched, not applied.
        fc.write_requested(0, KiloHertz::from_mhz(2500)).unwrap();
        assert_eq!(fc.inner().requested_freq(0), min);
        fc.tick(Seconds(0.1)); // emergency over
        assert!(!fc.in_thermal_emergency());
        assert_eq!(
            fc.inner().requested_freq(0),
            KiloHertz::from_mhz(2500),
            "latched request applies when the clamp lifts"
        );
        assert_eq!(fc.stats().thermal_events, 1);
    }

    #[test]
    fn noise_perturbs_but_errors_do_not_accumulate() {
        let plan = FaultPlan::new().with(
            FaultKind::CoreEnergyNoise {
                core: 0,
                amp_watts: 0.5,
            },
            Seconds(0.0),
            None,
        );
        let mut fc = harness(plan);
        fc.set_load(0, pap_simcpu::power::LoadDescriptor::nominal())
            .unwrap();
        for _ in 0..1000 {
            fc.tick(MS);
        }
        let truth = fc.inner().core_energy_raw(0).unwrap();
        let noisy = fc.read_core_energy(0).unwrap();
        let delta = (noisy.wrapping_sub(truth) as i32).unsigned_abs() as f64;
        assert!(
            delta <= 0.5 * UNITS_PER_JOULE + 1.0,
            "jitter bounded by the amplitude, got {delta} units"
        );
        assert!(fc.stats().noisy_reads > 0);
    }

    #[test]
    fn out_of_range_writes_are_caller_bugs_not_faults() {
        let mut fc = harness(FaultPlan::new());
        assert!(matches!(
            fc.write_requested(0, KiloHertz::from_mhz(9000)),
            Err(FaultError::Sim(SimError::FrequencyOutOfRange { .. }))
        ));
        assert!(matches!(
            fc.write_requested(99, KiloHertz::from_mhz(2000)),
            Err(FaultError::Sim(SimError::NoSuchCore { .. }))
        ));
    }
}
