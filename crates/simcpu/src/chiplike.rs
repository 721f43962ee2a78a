//! The chip seam: one trait over both simulator backends.
//!
//! [`ChipLike`] abstracts the per-tick protocol every chip consumer
//! drives — frequency programming, load and idle control, counter and
//! energy reads, the RAPL limit, and time — so the telemetry sampler,
//! cluster nodes, tenant scenarios, and the chaos harness can run on
//! either the per-core [`Chip`] or the batch-stepped [`WideChip`]
//! without knowing which. Both implementations forward to their
//! inherent methods, and `WideChip` is bit-identical to `Chip` on
//! platforms without shared P-state slots (`widechip` module tests), so
//! swapping the backend under a generic consumer cannot change a single
//! observable number.
//!
//! The platform model is shared through [`Arc`]: a fleet of a thousand
//! nodes holds a thousand pointers to one spec instead of a thousand
//! deep clones of the grid, turbo table, and power model.

use std::sync::Arc;

use crate::chip::Chip;
use crate::core::CoreCounters;
use crate::cstate::CState;
use crate::error::Result;
use crate::freq::KiloHertz;
use crate::platform::PlatformSpec;
use crate::power::LoadDescriptor;
use crate::rapl::RaplController;
use crate::units::{Seconds, Watts};
use crate::widechip::WideChip;

/// A simulated processor that can be driven by the standard per-tick
/// protocol. See the module docs for the equivalence contract.
pub trait ChipLike {
    /// Instantiate from a shared platform spec.
    ///
    /// # Panics
    /// Panics if the spec fails validation, or (for [`WideChip`]) if it
    /// declares shared P-state slots.
    fn shared(spec: Arc<PlatformSpec>) -> Self
    where
        Self: Sized;

    /// The platform this chip models.
    fn spec(&self) -> &PlatformSpec;

    /// Number of cores.
    fn num_cores(&self) -> usize;

    /// Current simulated time.
    fn now(&self) -> Seconds;

    /// Request a frequency for one core (snapped to the platform grid).
    fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()>;

    /// Program every core's requested frequency atomically.
    fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()>;

    /// The frequency currently requested for a core.
    fn requested_freq(&self, core: usize) -> KiloHertz;

    /// The frequency a core would run at this tick.
    fn effective_freq(&self, core: usize) -> KiloHertz;

    /// Describe the work running on a core.
    fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<()>;

    /// Park or unpark a core.
    fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()>;

    /// Select the C-state an idle core sleeps in.
    fn set_idle_state(&mut self, core: usize, state: CState) -> Result<()>;

    /// Credit retired instructions to a core.
    fn add_instructions(&mut self, core: usize, n: u64) -> Result<()>;

    /// Program (or clear) the package RAPL limit.
    fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()>;

    /// The RAPL controller's current frequency cap, if one is active.
    fn rapl_cap(&self) -> Option<KiloHertz>;

    /// The programmed RAPL limit, if any.
    fn rapl_limit(&self) -> Option<Watts>;

    /// The RAPL controller, on platforms with RAPL enforcement (for
    /// [`crate::rapl::settle_all`] and bit-level reads of its average).
    fn rapl_mut(&mut self) -> Option<&mut RaplController>;

    /// Fixed-counter snapshot for a core.
    fn counters(&self, core: usize) -> CoreCounters;

    /// Package power during the last tick.
    fn package_power(&self) -> Watts;

    /// Core-domain (PP0) power during the last tick.
    fn cores_power(&self) -> Watts;

    /// Power of one core during the last tick; errors on platforms
    /// without per-core power telemetry.
    fn core_power(&self, core: usize) -> Result<Watts>;

    /// Raw (wrapping) package energy counter.
    fn package_energy_raw(&self) -> u32;

    /// Raw (wrapping) core-domain energy counter.
    fn cores_energy_raw(&self) -> u32;

    /// Raw per-core energy counter; errors on platforms without
    /// per-core power telemetry.
    fn core_energy_raw(&self, core: usize) -> Result<u32>;

    /// Number of cores that will execute this tick.
    fn active_cores(&self) -> usize;

    /// Advance simulated time by `dt`.
    fn tick(&mut self, dt: Seconds);

    /// Advance `n` ticks of `dt` each.
    fn run_ticks(&mut self, n: usize, dt: Seconds);

    /// Whether the next tick of `dt` (and every one after it, until an
    /// input moves) is a pure replay of cached per-tick increments.
    /// Backends without an increment cache return false.
    fn steady_tick(&self, dt: Seconds) -> bool;
}

macro_rules! forward_chiplike {
    ($ty:ty) => {
        impl ChipLike for $ty {
            fn shared(spec: Arc<PlatformSpec>) -> Self {
                <$ty>::shared(spec)
            }
            fn spec(&self) -> &PlatformSpec {
                <$ty>::spec(self)
            }
            fn num_cores(&self) -> usize {
                <$ty>::num_cores(self)
            }
            fn now(&self) -> Seconds {
                <$ty>::now(self)
            }
            fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()> {
                <$ty>::set_requested_freq(self, core, f)
            }
            fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()> {
                <$ty>::set_all_requested(self, freqs)
            }
            fn requested_freq(&self, core: usize) -> KiloHertz {
                <$ty>::requested_freq(self, core)
            }
            fn effective_freq(&self, core: usize) -> KiloHertz {
                <$ty>::effective_freq(self, core)
            }
            fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<()> {
                <$ty>::set_load(self, core, load)
            }
            fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()> {
                <$ty>::set_forced_idle(self, core, idle)
            }
            fn set_idle_state(&mut self, core: usize, state: CState) -> Result<()> {
                <$ty>::set_idle_state(self, core, state)
            }
            fn add_instructions(&mut self, core: usize, n: u64) -> Result<()> {
                <$ty>::add_instructions(self, core, n)
            }
            fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()> {
                <$ty>::set_rapl_limit(self, limit)
            }
            fn rapl_cap(&self) -> Option<KiloHertz> {
                <$ty>::rapl_cap(self)
            }
            fn rapl_limit(&self) -> Option<Watts> {
                <$ty>::rapl_limit(self)
            }
            fn rapl_mut(&mut self) -> Option<&mut RaplController> {
                <$ty>::rapl_mut(self)
            }
            fn counters(&self, core: usize) -> CoreCounters {
                <$ty>::counters(self, core)
            }
            fn package_power(&self) -> Watts {
                <$ty>::package_power(self)
            }
            fn cores_power(&self) -> Watts {
                <$ty>::cores_power(self)
            }
            fn core_power(&self, core: usize) -> Result<Watts> {
                <$ty>::core_power(self, core)
            }
            fn package_energy_raw(&self) -> u32 {
                <$ty>::package_energy_raw(self)
            }
            fn cores_energy_raw(&self) -> u32 {
                <$ty>::cores_energy_raw(self)
            }
            fn core_energy_raw(&self, core: usize) -> Result<u32> {
                <$ty>::core_energy_raw(self, core)
            }
            fn active_cores(&self) -> usize {
                <$ty>::active_cores(self)
            }
            fn tick(&mut self, dt: Seconds) {
                <$ty>::tick(self, dt)
            }
            fn run_ticks(&mut self, n: usize, dt: Seconds) {
                <$ty>::run_ticks(self, n, dt)
            }
            fn steady_tick(&self, dt: Seconds) -> bool {
                <$ty>::steady_tick(self, dt)
            }
        }
    };
}

forward_chiplike!(Chip);
forward_chiplike!(WideChip);

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive either backend through the trait only.
    fn drive<C: ChipLike>(spec: Arc<PlatformSpec>) -> (u64, u64, u32) {
        let mut chip = C::shared(spec);
        let f = chip.spec().grid.max();
        chip.set_requested_freq(0, f).unwrap();
        chip.set_load(0, LoadDescriptor::nominal()).unwrap();
        for _ in 0..50 {
            let eff = chip.effective_freq(0);
            chip.add_instructions(0, (eff.hz() * 1e-3) as u64).unwrap();
            chip.tick(Seconds(0.001));
        }
        let c = chip.counters(0);
        (c.aperf, c.instructions, chip.package_energy_raw())
    }

    #[test]
    fn both_backends_agree_through_the_seam() {
        let spec = Arc::new(PlatformSpec::skylake());
        let a = drive::<Chip>(spec.clone());
        let b = drive::<WideChip>(spec);
        assert_eq!(a, b, "Chip and WideChip diverged through ChipLike");
    }

    #[test]
    fn shared_spec_is_not_cloned() {
        let spec = Arc::new(PlatformSpec::skylake());
        let chip = <Chip as ChipLike>::shared(spec.clone());
        let wide = <WideChip as ChipLike>::shared(spec.clone());
        assert_eq!(Arc::strong_count(&spec), 3);
        assert_eq!(chip.spec().name, wide.spec().name);
    }
}
