//! Running Average Power Limit (RAPL): energy counters and the hardware
//! limit controller.
//!
//! RAPL (§2.2) gives software (a) energy accounting per power domain via
//! wrapping counters in fixed energy units, and (b) enforcement: the part
//! continuously adjusts frequencies to keep the running average power of a
//! domain under a programmed limit. The stock enforcement policy has no
//! notion of application priority — it maintains one global frequency cap,
//! which throttles the *fastest* (most power-hungry) cores first. That
//! policy-free behavior is what the paper's Figures 1, 4 and 5 demonstrate
//! and what the per-application policies replace.

use crate::freq::{FreqGrid, KiloHertz};
use crate::units::{repeat_add, Joules, Seconds, Watts};

/// Energy accounting unit used by the emulated counters: 2⁻¹⁴ J ≈ 61 µJ,
/// the default RAPL energy status unit on Intel parts.
pub const ENERGY_UNIT: Joules = Joules(1.0 / 16384.0);

/// A wrapping 32-bit energy counter in [`ENERGY_UNIT`] units, as exposed by
/// the `MSR_*_ENERGY_STATUS` registers. Readers must handle wraparound
/// (≈ 262 kJ, under an hour at package TDP).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounter {
    /// Total accumulated energy (not wrapped); internal bookkeeping.
    total: Joules,
}

impl EnergyCounter {
    /// Accumulate `e` joules.
    pub fn add(&mut self, e: Joules) {
        debug_assert!(e.value() >= 0.0, "negative energy {e:?}");
        self.total += e;
    }

    /// Accumulate `k` increments of `e` joules, bit-identical to `k`
    /// calls of [`EnergyCounter::add`] (see [`repeat_add`]).
    #[inline]
    pub fn add_repeated(&mut self, e: Joules, k: usize) {
        debug_assert!(e.value() >= 0.0, "negative energy {e:?}");
        self.total = Joules(repeat_add(self.total.value(), [e.value()], k));
    }

    /// The register value software reads: total energy in
    /// [`ENERGY_UNIT`]s, wrapped to 32 bits.
    pub fn read_raw(&self) -> u32 {
        let units = (self.total.value() / ENERGY_UNIT.value()) as u64;
        units as u32
    }

    /// Full (non-wrapping) total, for white-box tests and internal use.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Convert a raw-counter delta (new minus old, wrapping) to joules.
    pub fn delta_joules(prev_raw: u32, now_raw: u32) -> Joules {
        let d = now_raw.wrapping_sub(prev_raw);
        Joules(d as f64 * ENERGY_UNIT.value())
    }
}

/// Configuration for the RAPL limit controller.
#[derive(Debug, Clone, PartialEq)]
pub struct RaplConfig {
    /// Supported programmable limit window.
    pub limit_range: (Watts, Watts),
    /// Averaging time constant of the running power average.
    pub window: Seconds,
    /// How often the controller adjusts the frequency cap. Real RAPL
    /// reacts on sub-millisecond scales; 1 ms keeps the simulation cheap
    /// while still settling well within the daemon's 1 s samples.
    pub control_period: Seconds,
    /// Proportional gain: kHz of cap movement per watt of error.
    pub gain_khz_per_watt: f64,
    /// Error deadband; inside it the cap is left alone (W).
    pub deadband: Watts,
}

impl RaplConfig {
    /// A reasonable default for a server part with the given limit window.
    pub fn server_default(limit_range: (Watts, Watts)) -> RaplConfig {
        RaplConfig {
            limit_range,
            window: Seconds::from_millis(100.0),
            control_period: Seconds::from_millis(1.0),
            gain_khz_per_watt: 12_000.0,
            deadband: Watts(0.4),
        }
    }
}

/// The RAPL enforcement controller: a proportional controller on a global
/// frequency cap, driven by an exponentially-weighted running average of
/// package power.
#[derive(Debug, Clone)]
pub struct RaplController {
    config: RaplConfig,
    grid: FreqGrid,
    limit: Option<Watts>,
    avg_power: Watts,
    /// Unquantized internal cap; the applied cap is `grid.round` of this.
    cap_khz: f64,
    since_control: Seconds,
}

impl RaplController {
    /// Create a controller over the chip's programmable frequency grid
    /// extended to its opportunistic peak (`cap_max`).
    pub fn new(config: RaplConfig, grid: FreqGrid) -> RaplController {
        let cap = grid.max().khz() as f64;
        RaplController {
            config,
            grid,
            limit: None,
            avg_power: Watts::ZERO,
            cap_khz: cap,
            since_control: Seconds(0.0),
        }
    }

    /// Program a power limit, or `None` to disable enforcement.
    /// Out-of-window limits are clamped, mirroring hardware behavior.
    pub fn set_limit(&mut self, limit: Option<Watts>) {
        self.limit = limit.map(|l| l.clamp(self.config.limit_range.0, self.config.limit_range.1));
        if self.limit.is_none() {
            self.cap_khz = self.grid.max().khz() as f64;
        }
    }

    /// The currently programmed limit.
    pub fn limit(&self) -> Option<Watts> {
        self.limit
    }

    /// The running average power the controller is acting on.
    pub fn running_average(&self) -> Watts {
        self.avg_power
    }

    /// The global frequency cap RAPL currently imposes on every core.
    pub fn cap(&self) -> KiloHertz {
        self.grid.round(KiloHertz(self.cap_khz as u64))
    }

    /// Feed one tick of measured package power; adjusts the cap when a
    /// control period has elapsed.
    pub fn observe(&mut self, package_power: Watts, dt: Seconds) {
        // EWMA with time constant `window`.
        let alpha = (dt.value() / self.config.window.value()).min(1.0);
        self.avg_power = self.avg_power + (package_power - self.avg_power) * alpha;

        let Some(limit) = self.limit else {
            return;
        };

        self.since_control += dt;
        if self.since_control < self.config.control_period {
            return;
        }
        self.since_control = Seconds(0.0);

        let error = self.avg_power - limit;
        if error.abs() <= self.config.deadband {
            return;
        }
        self.cap_khz -= error.value() * self.config.gain_khz_per_watt;
        self.cap_khz = self
            .cap_khz
            .clamp(self.grid.min().khz() as f64, self.grid.max().khz() as f64);
    }

    /// Reset the controller state (average and cap), keeping the limit.
    pub fn reset(&mut self) {
        self.avg_power = Watts::ZERO;
        self.cap_khz = self.grid.max().khz() as f64;
        self.since_control = Seconds(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> FreqGrid {
        FreqGrid::new(
            KiloHertz::from_mhz(800),
            KiloHertz::from_mhz(3000),
            KiloHertz::from_mhz(100),
        )
    }

    fn controller() -> RaplController {
        RaplController::new(
            RaplConfig::server_default((Watts(20.0), Watts(85.0))),
            grid(),
        )
    }

    #[test]
    fn counter_accumulates_and_wraps() {
        let mut c = EnergyCounter::default();
        c.add(Joules(1.0));
        let raw1 = c.read_raw();
        assert_eq!(raw1, 16384);
        // Push near the 32-bit boundary: 2^32 units = 262144 J
        c.add(Joules(262_140.0));
        let before_wrap = c.read_raw();
        c.add(Joules(5.0));
        let after_wrap = c.read_raw();
        assert!(after_wrap < before_wrap, "counter should wrap");
        // Delta across the wrap is still correct.
        let d = EnergyCounter::delta_joules(before_wrap, after_wrap);
        assert!((d.value() - 5.0).abs() < 1e-3, "delta {d}");
    }

    #[test]
    fn delta_without_wrap() {
        let d = EnergyCounter::delta_joules(1000, 17384);
        assert!((d.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_limit_means_max_cap() {
        let mut r = controller();
        for _ in 0..1000 {
            r.observe(Watts(200.0), Seconds::from_millis(1.0));
        }
        assert_eq!(r.cap(), KiloHertz::from_mhz(3000));
    }

    #[test]
    fn cap_drops_under_limit_violation() {
        let mut r = controller();
        r.set_limit(Some(Watts(50.0)));
        for _ in 0..500 {
            r.observe(Watts(80.0), Seconds::from_millis(1.0));
        }
        assert!(r.cap() < KiloHertz::from_mhz(3000), "cap={}", r.cap());
        assert!(r.running_average().value() > 70.0);
    }

    #[test]
    fn cap_recovers_when_power_falls() {
        let mut r = controller();
        r.set_limit(Some(Watts(50.0)));
        for _ in 0..500 {
            r.observe(Watts(80.0), Seconds::from_millis(1.0));
        }
        let low = r.cap();
        for _ in 0..2000 {
            r.observe(Watts(30.0), Seconds::from_millis(1.0));
        }
        assert!(r.cap() > low, "cap should recover: {} -> {}", low, r.cap());
    }

    #[test]
    fn limit_clamped_to_window() {
        let mut r = controller();
        r.set_limit(Some(Watts(500.0)));
        assert_eq!(r.limit(), Some(Watts(85.0)));
        r.set_limit(Some(Watts(1.0)));
        assert_eq!(r.limit(), Some(Watts(20.0)));
        r.set_limit(None);
        assert_eq!(r.limit(), None);
        assert_eq!(r.cap(), KiloHertz::from_mhz(3000));
    }

    #[test]
    fn deadband_freezes_cap() {
        let mut r = controller();
        r.set_limit(Some(Watts(50.0)));
        // Converge the EWMA to exactly the limit; cap must stop moving.
        for _ in 0..2000 {
            r.observe(Watts(50.0), Seconds::from_millis(1.0));
        }
        let c1 = r.cap();
        for _ in 0..1000 {
            r.observe(Watts(50.2), Seconds::from_millis(1.0));
        }
        assert_eq!(r.cap(), c1, "inside deadband the cap must hold");
    }

    #[test]
    fn reset_restores_cap() {
        let mut r = controller();
        r.set_limit(Some(Watts(30.0)));
        for _ in 0..1000 {
            r.observe(Watts(90.0), Seconds::from_millis(1.0));
        }
        assert!(r.cap() < KiloHertz::from_mhz(3000));
        r.reset();
        assert_eq!(r.cap(), KiloHertz::from_mhz(3000));
        assert_eq!(r.limit(), Some(Watts(30.0)));
    }
}
