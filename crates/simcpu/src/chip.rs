//! The simulated multi-core chip.
//!
//! [`Chip`] ties the platform model together: per-core frequency requests
//! are resolved against turbo limits, AVX caps and the RAPL frequency cap;
//! the power model integrates energy; counters advance; and the RAPL
//! controller observes package power. Time advances only through
//! [`Chip::tick`], typically at 1–10 ms.
//!
//! The workload engine drives the chip with a simple per-tick protocol,
//! implemented once as `pap_workloads::engine::RunningApp::tick_on`:
//!
//! ```text
//! loop {
//!     f = chip.effective_freq(core);         // frequency the core runs at
//!     (instr, load) = workload.advance(dt, f);
//!     chip.set_load(core, load);
//!     chip.add_instructions(core, instr);
//!     chip.tick(dt);
//! }
//! ```

use std::sync::Arc;

use crate::clock::SimClock;
use crate::core::{CoreCounters, SimCore};
use crate::error::{Result, SimError};
use crate::freq::KiloHertz;
use crate::platform::PlatformSpec;
use crate::power::LoadDescriptor;
use crate::rapl::{EnergyCounter, RaplController};
use crate::units::{Seconds, Watts};

/// A simulated multi-core processor.
#[derive(Debug, Clone)]
pub struct Chip {
    spec: Arc<PlatformSpec>,
    cores: Vec<SimCore>,
    clock: SimClock,
    rapl: Option<RaplController>,
    pkg_energy: EnergyCounter,
    cores_energy: EnergyCounter,
    last_package_power: Watts,
    last_cores_power: Watts,
}

impl Chip {
    /// Instantiate a chip from a platform spec.
    ///
    /// # Panics
    /// Panics if the spec fails validation (these are programmer errors in
    /// platform definitions, not runtime conditions).
    pub fn new(spec: PlatformSpec) -> Chip {
        Chip::shared(Arc::new(spec))
    }

    /// Instantiate a chip from a shared platform spec: a fleet of nodes
    /// holds one spec behind `Arc` pointers instead of deep clones.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn shared(spec: Arc<PlatformSpec>) -> Chip {
        if let Err(e) = spec.validate() {
            panic!("invalid platform spec: {e}");
        }
        let cores = (0..spec.num_cores)
            .map(|_| SimCore::new(spec.base_freq))
            .collect();
        let rapl = spec
            .rapl
            .clone()
            .map(|cfg| RaplController::new(cfg, spec.grid));
        Chip {
            spec,
            cores,
            clock: SimClock::new(),
            rapl,
            pkg_energy: EnergyCounter::default(),
            cores_energy: EnergyCounter::default(),
            last_package_power: Watts::ZERO,
            last_cores_power: Watts::ZERO,
        }
    }

    /// The platform this chip models.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.spec.num_cores
    }

    /// Current simulated time.
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    fn check_core(&self, core: usize) -> Result<()> {
        if core >= self.cores.len() {
            Err(SimError::NoSuchCore {
                core,
                num_cores: self.cores.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Request a frequency for one core. The value is snapped to the
    /// platform grid; out-of-range values error. On platforms with shared
    /// P-state slots (Ryzen), a request that would need more distinct
    /// concurrent frequencies than the hardware supports is rejected.
    pub fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()> {
        self.check_core(core)?;
        if f < self.spec.grid.min() || f > self.spec.grid.max() {
            return Err(SimError::FrequencyOutOfRange {
                requested: f,
                min: self.spec.grid.min(),
                max: self.spec.grid.max(),
            });
        }
        let snapped = self.spec.grid.round(f);
        if let Some(slots) = self.spec.shared_pstate_slots {
            let mut freqs: Vec<KiloHertz> = self.cores.iter().map(|c| c.requested()).collect();
            freqs[core] = snapped;
            let mut distinct: Vec<KiloHertz> = Vec::with_capacity(slots + 1);
            for fr in freqs {
                if !distinct.contains(&fr) {
                    distinct.push(fr);
                }
            }
            if distinct.len() > slots {
                return Err(SimError::Unsupported(
                    "more concurrent frequencies than shared P-state slots",
                ));
            }
        }
        self.cores[core].set_requested(snapped);
        Ok(())
    }

    /// Atomically set all cores' requested frequencies. Used by the daemon
    /// so that a Ryzen slot-count check applies to the whole new
    /// configuration rather than each intermediate state.
    pub fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()> {
        if freqs.len() != self.cores.len() {
            return Err(SimError::NoSuchCore {
                core: freqs.len(),
                num_cores: self.cores.len(),
            });
        }
        let mut snapped = Vec::with_capacity(freqs.len());
        for &f in freqs {
            if f < self.spec.grid.min() || f > self.spec.grid.max() {
                return Err(SimError::FrequencyOutOfRange {
                    requested: f,
                    min: self.spec.grid.min(),
                    max: self.spec.grid.max(),
                });
            }
            snapped.push(self.spec.grid.round(f));
        }
        if let Some(slots) = self.spec.shared_pstate_slots {
            let mut distinct: Vec<KiloHertz> = Vec::with_capacity(slots + 1);
            for &fr in &snapped {
                if !distinct.contains(&fr) {
                    distinct.push(fr);
                }
            }
            if distinct.len() > slots {
                return Err(SimError::Unsupported(
                    "more concurrent frequencies than shared P-state slots",
                ));
            }
        }
        for (c, f) in self.cores.iter_mut().zip(snapped) {
            c.set_requested(f);
        }
        Ok(())
    }

    /// The frequency software requested for `core`.
    pub fn requested_freq(&self, core: usize) -> KiloHertz {
        self.cores[core].requested()
    }

    /// The frequency `core` actually ran at during the last tick.
    pub fn effective_freq(&self, core: usize) -> KiloHertz {
        self.cores[core].effective()
    }

    /// Install the load descriptor for `core` for the upcoming tick.
    pub fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<()> {
        self.check_core(core)?;
        self.cores[core].set_load(load);
        Ok(())
    }

    /// Park (`true`) or release (`false`) a core.
    pub fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()> {
        self.check_core(core)?;
        self.cores[core].set_forced_idle(idle);
        Ok(())
    }

    /// Select the C-state a core rests in while it has no work (deep C6
    /// by default; an idle governor may choose shallower states to trade
    /// power for wake latency).
    pub fn set_idle_state(&mut self, core: usize, state: crate::cstate::CState) -> Result<()> {
        self.check_core(core)?;
        self.cores[core].set_idle_state(state);
        Ok(())
    }

    /// Credit retired instructions to a core (from the workload engine).
    pub fn add_instructions(&mut self, core: usize, n: u64) -> Result<()> {
        self.check_core(core)?;
        self.cores[core].add_instructions(n);
        Ok(())
    }

    /// Program a RAPL package power limit; errors on platforms without
    /// RAPL enforcement (Ryzen).
    pub fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()> {
        match self.rapl.as_mut() {
            Some(r) => {
                r.set_limit(limit);
                Ok(())
            }
            None => Err(SimError::Unsupported("RAPL power limiting")),
        }
    }

    /// The global frequency cap RAPL currently imposes, if enforcement is
    /// supported and active.
    pub fn rapl_cap(&self) -> Option<KiloHertz> {
        self.rapl.as_ref().map(|r| r.cap())
    }

    /// The programmed RAPL limit, if any.
    pub fn rapl_limit(&self) -> Option<Watts> {
        self.rapl.as_ref().and_then(|r| r.limit())
    }

    /// The RAPL controller, on platforms with RAPL enforcement.
    pub fn rapl_mut(&mut self) -> Option<&mut RaplController> {
        self.rapl.as_mut()
    }

    /// Read-only access to a core's state.
    pub fn core(&self, core: usize) -> &SimCore {
        &self.cores[core]
    }

    /// Fixed-counter snapshot for a core.
    pub fn counters(&self, core: usize) -> CoreCounters {
        self.cores[core].counters()
    }

    /// Package power during the last tick.
    pub fn package_power(&self) -> Watts {
        self.last_package_power
    }

    /// Core-domain (PP0) power during the last tick.
    pub fn cores_power(&self) -> Watts {
        self.last_cores_power
    }

    /// Power of one core during the last tick. On platforms without
    /// per-core telemetry this is still available to *tests* via
    /// [`Chip::core`]; this accessor models the architectural interface
    /// and errors where the real part gives no answer.
    pub fn core_power(&self, core: usize) -> Result<Watts> {
        self.check_core(core)?;
        if !self.spec.per_core_power {
            return Err(SimError::Unsupported("per-core power telemetry"));
        }
        Ok(self.cores[core].last_power())
    }

    /// Raw (wrapping) package energy counter.
    pub fn package_energy_raw(&self) -> u32 {
        self.pkg_energy.read_raw()
    }

    /// Raw (wrapping) core-domain energy counter.
    pub fn cores_energy_raw(&self) -> u32 {
        self.cores_energy.read_raw()
    }

    /// Raw per-core energy counter; errors on platforms without per-core
    /// power telemetry.
    pub fn core_energy_raw(&self, core: usize) -> Result<u32> {
        self.check_core(core)?;
        if !self.spec.per_core_power {
            return Err(SimError::Unsupported("per-core power telemetry"));
        }
        Ok(self.cores[core].energy().read_raw())
    }

    /// Number of cores that will execute this tick.
    pub fn active_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.is_active()).count()
    }

    /// Resolve the effective frequency of one core given the current
    /// active count and caps (pure; does not mutate state).
    fn resolve_freq(&self, core: &SimCore, active: usize) -> KiloHertz {
        let mut f = core.requested();
        f = f.min(self.spec.turbo.cap_for(active, core.load().avx));
        if let Some(r) = &self.rapl {
            f = f.min(r.cap());
        }
        f.max(self.spec.grid.min())
    }

    /// Advance the chip by `dt`: resolve frequencies, integrate power and
    /// counters, and let the RAPL controller react.
    pub fn tick(&mut self, dt: Seconds) {
        let active = self.active_cores();

        // Resolve effective frequencies under the current caps.
        let resolved: Vec<KiloHertz> = self
            .cores
            .iter()
            .map(|c| self.resolve_freq(c, active))
            .collect();

        let mut cores_power = Watts::ZERO;
        let mut active_freq_sum = KiloHertz::ZERO;
        let mut max_active_freq = KiloHertz::ZERO;
        for (core, &f) in self.cores.iter_mut().zip(&resolved) {
            core.set_effective(f);
            let p = if core.is_active() {
                self.spec.power.core_power(f, &core.load())
            } else {
                // resting cores draw their selected C-state's floor
                self.spec.power.idle_power(core.idle_state())
            };
            cores_power += p;
            if core.is_active() {
                active_freq_sum += f.scale(core.load().utilization);
                max_active_freq = max_active_freq.max(f);
            }
            core.integrate(dt, self.spec.base_freq, p);
        }

        let uncore = self
            .spec
            .power
            .uncore_power_at(active_freq_sum, max_active_freq);
        let package = cores_power + uncore;

        self.cores_energy.add(cores_power * dt);
        self.pkg_energy.add(package * dt);
        self.last_cores_power = cores_power;
        self.last_package_power = package;

        if let Some(r) = self.rapl.as_mut() {
            r.observe(package, dt);
        }
        self.clock.advance(dt);
    }

    /// Run `n` ticks of `dt` each; convenience for settling the chip.
    pub fn run_ticks(&mut self, n: usize, dt: Seconds) {
        for _ in 0..n {
            self.tick(dt);
        }
    }

    /// Always false: the scalar reference recomputes every tick from
    /// scratch and deliberately never advertises steadiness, so generic
    /// drivers keep their simple per-tick loop on this backend (see
    /// [`crate::widechip::WideChip::steady_tick`] for the fast path).
    pub fn steady_tick(&self, _dt: Seconds) -> bool {
        false
    }

    /// Package energy, core-domain energy and the RAPL running average,
    /// to the bit (white-box access for the `WideChip` equivalence
    /// tests, which the wrapped raw counters are too coarse for).
    #[cfg(test)]
    pub(crate) fn accumulators(&self) -> (f64, f64, Option<f64>) {
        (
            self.pkg_energy.total().value(),
            self.cores_energy.total().value(),
            self.rapl.as_ref().map(|r| r.running_average().value()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;

    const MS: Seconds = Seconds(0.001);

    fn busy(chip: &mut Chip, core: usize, cap: f64, avx: bool) {
        chip.set_load(
            core,
            LoadDescriptor {
                capacitance: cap,
                utilization: 1.0,
                avx,
            },
        )
        .unwrap();
    }

    #[test]
    fn idle_chip_draws_uncore_plus_idle_floor() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.tick(MS);
        let p = chip.package_power().value();
        // 10 idle cores at 0.05 W + 11.3 W uncore base
        assert!((p - 11.8).abs() < 0.1, "idle power {p}");
        assert_eq!(chip.active_cores(), 0);
    }

    #[test]
    fn single_core_turbo_resolution() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.set_requested_freq(0, KiloHertz::from_mhz(3000))
            .unwrap();
        busy(&mut chip, 0, 1.0, false);
        chip.tick(MS);
        // One active core gets the full 3.0 GHz boost.
        assert_eq!(chip.effective_freq(0), KiloHertz::from_mhz(3000));
    }

    #[test]
    fn all_core_turbo_limit_applies() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(3000))
                .unwrap();
            busy(&mut chip, c, 1.0, false);
        }
        chip.tick(MS);
        chip.tick(MS); // second tick sees active==10 from the first
        assert_eq!(chip.effective_freq(0), KiloHertz::from_mhz(2400));
    }

    #[test]
    fn avx_cap_applies_only_to_avx_cores() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(3000))
                .unwrap();
            busy(&mut chip, c, 1.0, c >= 5);
        }
        chip.run_ticks(2, MS);
        assert_eq!(chip.effective_freq(0), KiloHertz::from_mhz(2400));
        assert_eq!(chip.effective_freq(9), KiloHertz::from_mhz(1700));
    }

    #[test]
    fn rapl_throttles_fastest_cores_first() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(2400))
                .unwrap();
            // half high-demand AVX, half low-demand scalar (Figure 1 mix)
            busy(&mut chip, c, if c >= 5 { 1.9 } else { 1.0 }, c >= 5);
        }
        chip.set_rapl_limit(Some(Watts(50.0))).unwrap();
        chip.run_ticks(3000, MS);
        let f_gcc = chip.effective_freq(0);
        let f_cam = chip.effective_freq(9);
        assert!(
            chip.package_power().value() < 53.0,
            "power {}",
            chip.package_power()
        );
        // the scalar cores (which could run 2.4) are throttled harder in
        // *relative* terms than the AVX cores already capped at 1.7
        let loss_gcc = 1.0 - f_gcc.ghz() / 2.4;
        let loss_cam = 1.0 - f_cam.ghz() / 1.7;
        assert!(
            loss_gcc > loss_cam,
            "gcc loss {loss_gcc:.2} should exceed cam4 loss {loss_cam:.2} (f_gcc={f_gcc}, f_cam={f_cam})"
        );
    }

    #[test]
    fn rapl_40w_throttles_to_equal_low_frequency() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(2400))
                .unwrap();
            busy(&mut chip, c, if c >= 5 { 1.9 } else { 1.0 }, c >= 5);
        }
        chip.set_rapl_limit(Some(Watts(40.0))).unwrap();
        chip.run_ticks(5000, MS);
        let f_gcc = chip.effective_freq(0);
        let f_cam = chip.effective_freq(9);
        assert_eq!(f_gcc, f_cam, "both throttled to the RAPL cap");
        assert!(
            f_gcc < KiloHertz::from_mhz(1700),
            "cap should fall below the AVX limit at 40 W, got {f_gcc}"
        );
        assert!((chip.package_power().value() - 40.0).abs() < 3.0);
    }

    #[test]
    fn forced_idle_frees_power() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(2400))
                .unwrap();
            busy(&mut chip, c, 1.9, false);
        }
        chip.set_rapl_limit(Some(Watts(50.0))).unwrap();
        chip.run_ticks(3000, MS);
        let f_before = chip.effective_freq(0);
        // Park half the cores; survivors should speed back up.
        for c in 5..10 {
            chip.set_forced_idle(c, true).unwrap();
        }
        chip.run_ticks(5000, MS);
        let f_after = chip.effective_freq(0);
        assert!(
            f_after > f_before,
            "parking cores must free power: {f_before} -> {f_after}"
        );
    }

    #[test]
    fn energy_counters_advance() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        busy(&mut chip, 0, 1.0, false);
        let e0 = chip.package_energy_raw();
        chip.run_ticks(1000, MS);
        let e1 = chip.package_energy_raw();
        let joules = crate::rapl::EnergyCounter::delta_joules(e0, e1);
        // ~1 s at ~15-20 W
        assert!(joules.value() > 5.0 && joules.value() < 40.0, "{joules}");
    }

    #[test]
    fn per_core_energy_only_on_ryzen() {
        let sky = Chip::new(PlatformSpec::skylake());
        assert!(matches!(
            sky.core_energy_raw(0),
            Err(SimError::Unsupported(_))
        ));
        assert!(matches!(sky.core_power(0), Err(SimError::Unsupported(_))));

        let ryz = Chip::new(PlatformSpec::ryzen());
        assert!(ryz.core_energy_raw(0).is_ok());
        assert!(ryz.core_power(0).is_ok());
    }

    #[test]
    fn ryzen_rejects_rapl_limit() {
        let mut chip = Chip::new(PlatformSpec::ryzen());
        assert!(matches!(
            chip.set_rapl_limit(Some(Watts(50.0))),
            Err(SimError::Unsupported(_))
        ));
        assert_eq!(chip.rapl_cap(), None);
    }

    #[test]
    fn ryzen_shared_slot_limit_enforced() {
        let mut chip = Chip::new(PlatformSpec::ryzen());
        // Three distinct frequencies are fine...
        chip.set_requested_freq(0, KiloHertz::from_mhz(3400))
            .unwrap();
        chip.set_requested_freq(1, KiloHertz::from_mhz(2500))
            .unwrap();
        chip.set_requested_freq(2, KiloHertz::from_mhz(1200))
            .unwrap();
        // ...a fourth distinct one is not.
        assert!(matches!(
            chip.set_requested_freq(3, KiloHertz::from_mhz(800)),
            Err(SimError::Unsupported(_))
        ));
        // but reusing an existing slot works
        chip.set_requested_freq(3, KiloHertz::from_mhz(2500))
            .unwrap();
    }

    #[test]
    fn set_all_requested_atomic_slot_check() {
        let mut chip = Chip::new(PlatformSpec::ryzen());
        let bad: Vec<KiloHertz> = (0..8)
            .map(|i| KiloHertz::from_mhz(1000 + 100 * i))
            .collect();
        assert!(chip.set_all_requested(&bad).is_err());
        let good = vec![
            KiloHertz::from_mhz(3400),
            KiloHertz::from_mhz(3400),
            KiloHertz::from_mhz(2500),
            KiloHertz::from_mhz(2500),
            KiloHertz::from_mhz(1200),
            KiloHertz::from_mhz(1200),
            KiloHertz::from_mhz(1200),
            KiloHertz::from_mhz(1200),
        ];
        chip.set_all_requested(&good).unwrap();
        assert_eq!(chip.requested_freq(0), KiloHertz::from_mhz(3400));
        assert_eq!(chip.requested_freq(7), KiloHertz::from_mhz(1200));
    }

    #[test]
    fn out_of_range_frequency_rejected() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        assert!(matches!(
            chip.set_requested_freq(0, KiloHertz::from_mhz(5000)),
            Err(SimError::FrequencyOutOfRange { .. })
        ));
        assert!(matches!(
            chip.set_requested_freq(0, KiloHertz::from_mhz(100)),
            Err(SimError::FrequencyOutOfRange { .. })
        ));
        assert!(matches!(
            chip.set_requested_freq(99, KiloHertz::from_mhz(1000)),
            Err(SimError::NoSuchCore { .. })
        ));
    }

    #[test]
    fn frequency_snapped_to_grid() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.set_requested_freq(0, KiloHertz(1_234_000)).unwrap();
        assert_eq!(chip.requested_freq(0), KiloHertz::from_mhz(1200));
    }

    #[test]
    fn idle_state_selection_changes_floor_power() {
        use crate::cstate::CState;
        let mut deep = Chip::new(PlatformSpec::skylake());
        let mut shallow = Chip::new(PlatformSpec::skylake());
        for c in 0..10 {
            shallow.set_idle_state(c, CState::C1).unwrap();
        }
        deep.tick(MS);
        shallow.tick(MS);
        let d = deep.package_power().value();
        let s = shallow.package_power().value();
        assert!(
            s > d + 5.0,
            "ten C1 cores ({s:.1} W) must out-draw ten C6 cores ({d:.1} W)"
        );
        // and residency accounting attributes the idle time to the state
        assert!(shallow.core(0).residency().in_state(CState::C1).value() > 0.0);
        assert!(deep.core(0).residency().in_state(CState::C6).value() > 0.0);
    }

    #[test]
    fn clock_advances_with_ticks() {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.run_ticks(250, MS);
        assert!((chip.now().value() - 0.25).abs() < 1e-9);
    }
}
