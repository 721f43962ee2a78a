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
//!
//! The running average is an exponentially weighted moving average
//! (EWMA): one dependent subtract, multiply and add per tick. A steady
//! replay of `k` ticks at one package power with no limit programmed
//! cannot move the cap, so [`RaplController::observe_steady`] only
//! records the run, `(power, α, k)`, and owes its `k` steps. Whoever
//! reads the average next settles the run first, one step at a time:
//! [`RaplController::observe`] before its own step,
//! [`RaplController::running_average`] on a copy. A caller that holds
//! many chips settles them together with [`settle_all`] instead, which
//! runs 16 controllers' chains side by side in fixed-size arrays, so the
//! steps of different chains overlap instead of waiting on each other.
//! Every lane computes `observe`'s `avg + (p − avg)·α` on the same
//! operands in the same order, so a deferred run lands on the bits of
//! `k` per-tick calls, and `observe` stays the per-tick oracle the tests
//! compare against. Consecutive runs are never merged: a run costs its
//! `k` steps whenever it is folded, and a merged run would let a driver
//! that never settles skip steps it still owes.

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

/// Controllers [`settle_all`] folds side by side, one chain per slot of
/// a fixed-size `f64` array. Folding 32 chains of 499 ticks took 0.26 ns
/// per chain-tick at 16 lanes, against 3.25 ns one chain at a time,
/// 0.47 ns at 8 lanes and 0.21 ns at 32 (best of 200, 2-vCPU x86-64
/// host with AVX-512, built for the default x86-64 target). 32 lanes
/// would leave three quarters of every group idle in the shard engine's
/// default 8-node chunks.
const LANES: usize = 16;

/// A steady run whose EWMA steps are owed: `ticks` steps toward `power`
/// with smoothing factor `alpha`.
#[derive(Debug, Clone, Copy, Default)]
struct Deferred {
    power: f64,
    alpha: f64,
    ticks: usize,
}

impl Deferred {
    /// `avg` after the run's steps, one at a time.
    fn fold(self, mut avg: f64) -> f64 {
        for _ in 0..self.ticks {
            avg = ewma(avg, self.power, self.alpha);
        }
        avg
    }
}

/// One EWMA step on raw `f64`s: the operations [`RaplController::observe`]
/// applies to its `Watts`, in the same order.
#[inline(always)]
fn ewma(avg: f64, power: f64, alpha: f64) -> f64 {
    avg + (power - avg) * alpha
}

/// The RAPL enforcement controller: a proportional controller on a global
/// frequency cap, driven by an exponentially-weighted running average of
/// package power.
#[derive(Debug, Clone)]
pub struct RaplController {
    config: RaplConfig,
    grid: FreqGrid,
    limit: Option<Watts>,
    /// The running average before the deferred run's steps.
    avg_power: Watts,
    /// The steady run [`RaplController::observe_steady`] recorded and
    /// nothing has folded yet (`ticks == 0` when none is owed).
    deferred: Deferred,
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
            deferred: Deferred::default(),
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

    /// The running average power the controller is acting on, any
    /// deferred run folded in (on a copy: the run stays owed).
    pub fn running_average(&self) -> Watts {
        Watts(self.deferred.fold(self.avg_power.value()))
    }

    /// The global frequency cap RAPL currently imposes on every core.
    pub fn cap(&self) -> KiloHertz {
        self.grid.round(KiloHertz(self.cap_khz as u64))
    }

    /// Smoothing factor of one tick of `dt`: an EWMA with time constant
    /// `window`.
    fn alpha(&self, dt: Seconds) -> f64 {
        (dt.value() / self.config.window.value()).min(1.0)
    }

    /// Feed one tick of measured package power; adjusts the cap when a
    /// control period has elapsed. Settles a deferred run first.
    pub fn observe(&mut self, package_power: Watts, dt: Seconds) {
        self.settle();
        let alpha = self.alpha(dt);
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

    /// Feed `k` ticks of one steady package power, deferring their EWMA
    /// steps: the average after the next settle is bit-identical to `k`
    /// calls of [`RaplController::observe`]. Settles any earlier run
    /// first, so runs are never merged.
    ///
    /// # Panics
    /// Panics if a limit is programmed: then `observe` may move the cap
    /// mid-run, which a deferred run cannot.
    pub fn observe_steady(&mut self, package_power: Watts, dt: Seconds, k: usize) {
        assert!(
            self.limit.is_none(),
            "a deferred run cannot move the cap: clear the limit first"
        );
        self.settle();
        self.deferred = Deferred {
            power: package_power.value(),
            alpha: self.alpha(dt),
            ticks: k,
        };
    }

    /// Fold the deferred run, if any, one step at a time.
    #[inline]
    fn settle(&mut self) {
        if self.deferred.ticks > 0 {
            self.avg_power = Watts(self.deferred.fold(self.avg_power.value()));
            self.deferred.ticks = 0;
        }
    }

    /// Reset the controller state (average and cap), keeping the limit.
    /// A deferred run is dropped with the average it would have moved.
    pub fn reset(&mut self) {
        self.avg_power = Watts::ZERO;
        self.deferred = Deferred::default();
        self.cap_khz = self.grid.max().khz() as f64;
        self.since_control = Seconds(0.0);
    }
}

/// Settle every controller's deferred run, 16 chains at a time:
/// each lane holds one controller's average in a fixed-size array, every
/// lane takes the group's shortest run in lockstep, and the longer runs
/// then finish one lane at a time. Controllers with nothing deferred are
/// skipped. Bit-identical to settling each controller on its own.
pub fn settle_all<'a>(controllers: impl IntoIterator<Item = &'a mut RaplController>) {
    let mut group: [Option<&'a mut RaplController>; LANES] = Default::default();
    let mut len = 0;
    for r in controllers {
        if r.deferred.ticks == 0 {
            continue;
        }
        group[len] = Some(r);
        len += 1;
        if len == LANES {
            settle_group(&mut group);
            len = 0;
        }
    }
    settle_group(&mut group[..len]);
}

/// Fold one group of at most `LANES` deferred runs side by side.
fn settle_group(group: &mut [Option<&mut RaplController>]) {
    let Some(shortest) = group.iter().flatten().map(|r| r.deferred.ticks).min() else {
        return;
    };
    // Unused lanes step 0 toward 0 at α = 0 and stay 0.
    let mut avg = [0.0; LANES];
    let mut power = [0.0; LANES];
    let mut alpha = [0.0; LANES];
    for (l, r) in group.iter().flatten().enumerate() {
        avg[l] = r.avg_power.value();
        power[l] = r.deferred.power;
        alpha[l] = r.deferred.alpha;
    }
    for _ in 0..shortest {
        for l in 0..LANES {
            avg[l] = ewma(avg[l], power[l], alpha[l]);
        }
    }
    for (l, r) in group.iter_mut().flatten().enumerate() {
        let tail = Deferred {
            ticks: r.deferred.ticks - shortest,
            ..r.deferred
        };
        r.avg_power = Watts(tail.fold(avg[l]));
        r.deferred.ticks = 0;
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

    const MS: Seconds = Seconds(0.001);

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

    /// Deferred-run lengths the fold tests cycle through: empty, one and
    /// two ticks, a short run, a fleet interval and a run long enough to
    /// converge.
    const RUNS: [usize; 6] = [0, 1, 2, 7, 499, 100_000];

    /// Tick lengths the fold tests cycle through (α from 0.0025 to 0.025).
    const DTS: [Seconds; 4] = [
        Seconds(0.001),
        Seconds(0.0025),
        Seconds(0.00025),
        Seconds(0.002),
    ];

    /// Controller `i`'s package power, deferred run length and tick
    /// length in `round`. Rounds 0 and 1 mix every length in [`RUNS`], so
    /// most steps fall in the one-lane tails; round 2 runs 499–505 ticks
    /// everywhere, so most fall in the lockstep lanes.
    fn run_of(i: usize, round: usize) -> (Watts, usize, Seconds) {
        let ticks = match round {
            2 => 499 + i % 7,
            _ => RUNS[(i + round) % RUNS.len()],
        };
        (
            Watts(21.5 + 3.7 * ((i + 5 * round) % 17) as f64),
            ticks,
            DTS[(i + 3 * round) % DTS.len()],
        )
    }

    #[test]
    fn settle_all_is_bit_identical_to_per_tick_observe() {
        for n in [0, 1, LANES - 1, LANES, 2 * LANES + 1] {
            let mut deferred: Vec<RaplController> = (0..n)
                .map(|i| {
                    let mut r = controller();
                    // A distinct starting average per controller.
                    for t in 0..i {
                        r.observe(Watts(30.0 + t as f64), DTS[t % DTS.len()]);
                    }
                    r
                })
                .collect();
            let mut oracle = deferred.clone();
            // Each round folds from the averages the one before settled,
            // with the lengths in different lanes.
            for round in 0..3 {
                for (i, (d, o)) in deferred.iter_mut().zip(&mut oracle).enumerate() {
                    let (power, k, dt) = run_of(i, round);
                    d.observe_steady(power, dt, k);
                    for _ in 0..k {
                        o.observe(power, dt);
                    }
                }
                settle_all(deferred.iter_mut());
                for (i, (d, o)) in deferred.iter().zip(&oracle).enumerate() {
                    assert_eq!(d.deferred.ticks, 0, "{n} controllers: {i} settled");
                    assert_eq!(
                        d.avg_power.value().to_bits(),
                        o.running_average().value().to_bits(),
                        "{n} controllers, round {round}: controller {i} (run {:?})",
                        run_of(i, round)
                    );
                }
            }
            // One ulp off would move the throttling: program a biting
            // limit on both sides and compare what the controller does.
            for (i, (d, o)) in deferred.iter_mut().zip(&mut oracle).enumerate() {
                let limit = Watts(o.running_average().value() * 0.8);
                d.set_limit(Some(limit));
                o.set_limit(Some(limit));
                for t in 0..50 {
                    let power = Watts(60.0 + (t % 5) as f64);
                    d.observe(power, MS);
                    o.observe(power, MS);
                    assert_eq!(d.cap(), o.cap(), "{n} controllers: {i} cap at tick {t}");
                    assert_eq!(
                        d.running_average().value().to_bits(),
                        o.running_average().value().to_bits(),
                        "{n} controllers: {i} average at tick {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_deferred_run_settles_lazily_on_every_read() {
        let mut deferred = controller();
        let mut oracle = controller();
        for r in [&mut deferred, &mut oracle] {
            r.observe(Watts(35.0), MS);
        }
        deferred.observe_steady(Watts(70.0), MS, 499);
        for _ in 0..499 {
            oracle.observe(Watts(70.0), MS);
        }
        let bits = |r: &RaplController| r.running_average().value().to_bits();
        // Reading folds on a copy: the run stays owed, the bits agree.
        assert_eq!(bits(&deferred), bits(&oracle));
        assert_eq!(deferred.deferred.ticks, 499);
        // The next run settles this one first instead of merging.
        deferred.observe_steady(Watts(70.0), DTS[1], 7);
        assert_eq!(deferred.deferred.ticks, 7);
        for _ in 0..7 {
            oracle.observe(Watts(70.0), DTS[1]);
        }
        // `observe` settles before its own step.
        deferred.observe(Watts(40.0), MS);
        oracle.observe(Watts(40.0), MS);
        assert_eq!(deferred.deferred.ticks, 0);
        assert_eq!(bits(&deferred), bits(&oracle));
        // `reset` drops an owed run with the average it would move.
        deferred.observe_steady(Watts(80.0), MS, 100);
        deferred.reset();
        assert_eq!(deferred.running_average(), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot move the cap")]
    fn a_deferred_run_needs_no_limit() {
        let mut r = controller();
        r.set_limit(Some(Watts(50.0)));
        r.observe_steady(Watts(60.0), MS, 10);
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
