//! Batch-stepped wide-chip simulation (128–1024 cores).
//!
//! [`crate::chip::Chip`] keeps each core in its own struct and allocates
//! a scratch vector every tick — fine at the paper's 8–10 cores, but the
//! FastCap-style optimizing allocator only becomes interesting at two to
//! three orders of magnitude more cores, where that layout dominates the
//! simulation cost. [`WideChip`] is the same physical model in
//! struct-of-arrays form:
//!
//! * every per-core variable lives in its own flat vector, so the tick
//!   loop streams over contiguous memory instead of hopping across
//!   200-byte core structs; the one exception is the load descriptor,
//!   kept as one packed slot per core because the per-tick protocol
//!   writes it a whole descriptor at a time
//!   ([`WideChip::set_load`]);
//! * the turbo/RAPL caps are hoisted out of the per-core loop (they
//!   depend only on the active-core count, not on which core asks), and
//!   the active count itself is maintained incrementally by the setters
//!   instead of being recounted every tick;
//! * the whole per-core tick increment is memoized, not just the power
//!   model: the CMOS evaluation (a piecewise-linear voltage lookup plus
//!   the `C·V²·f` polynomial), the effective-frequency min-chain, and
//!   every float product a tick folds into the counters (`Δmperf`,
//!   `Δaperf`, residency seconds, joules) are pure in (frequency, load,
//!   idle state, `dt`), so they are computed once when one of those
//!   inputs moves and replayed as plain adds until the next change;
//! * the chip-wide totals a tick folds while walking its cores — core
//!   power, the active-frequency sum and maximum, and the uncore and
//!   package power derived from them — are just as invariant between
//!   input changes, so they are computed once per cache rebuild, in the
//!   rebuild pass, by the same expressions in the same core order;
//! * [`WideChip::tick`] allocates nothing, extending the zero-alloc
//!   `StepScratch`/`*_into` discipline of the control hot path into the
//!   simulator itself.
//!
//! All ticks go through one replay kernel, `replay(k, dt)`. A tick that
//! [`WideChip::steady_tick`] admits is not replayed at once: `tick` only
//! counts it as pending, and the pending ticks fold through one replay
//! the first time anything needs them — the next tick that rebuilds a
//! cache, the end of a [`WideChip::run_ticks`] batch, or a RAPL access
//! ([`WideChip::rapl_mut`], [`WideChip::set_rapl_limit`]). Any other
//! tick settles the pending ones, rebuilds whatever moved and replays
//! itself; `run_ticks` ticks until `steady_tick` holds, adds the rest to
//! the pending ticks and settles them in one call. The fold is exact
//! because `replay` reads only the cached increments and totals, the
//! last package power and the clock, which no setter writes: setters
//! only flag inputs dirty or moved, and every rebuild settles first, so
//! pending ticks always fold with the increments they were taken under.
//! The `&self` readers (counters, clock, energy, C0 fraction) return
//! what they would after the fold, computed on copies. The kernel treats
//! each kind of accumulator differently:
//!
//! * the u64 counters (tsc, mperf, aperf) advance by one
//!   `wrapping_mul(k)` of their cached increment — exact, because
//!   wrapping u64 addition is associative and commutative;
//! * every plain f64 accumulator (per-core residency and energy, package
//!   and core-domain energy, the clock) fast-forwards its k adds through
//!   [`repeat_add`]: float addition is not associative, so `k·x` would
//!   round differently, but inside one binade each add lands a fixed
//!   whole number of ulps further on, so the ticks that stay in the
//!   binade collapse into one integer add on the bit pattern — the same
//!   bits the k adds produce, in O(binades crossed) steps;
//! * the RAPL running average is an EWMA, not a plain add: a batch
//!   hands its `k` steps to [`RaplController::observe_steady`], which
//!   defers them until the controller is next read, and a caller holding
//!   many chips folds the deferred runs side by side through
//!   [`crate::rapl::settle_all`] ([`WideChip::rapl_mut`] is the handle).
//!   A single replayed tick still calls the per-tick `observe`.
//!
//! Every result is bit-for-bit what `Chip::tick`/`SimCore::integrate`
//! compute with the *same IEEE-754 operations in the same order*, so a
//! `WideChip` and a `Chip` driven identically produce bit-identical
//! counters, energy and power — enforced by the equivalence tests at the
//! bottom of this module (batched `run_ticks` included, up to
//! 100 000-tick batches, and deferred single ticks interleaved with
//! every setter) and gated in CI by `ext_hotpath` (which also gates the
//! ≥4× speedup at 1024 cores that justifies the second implementation,
//! and that 1000 steady `tick` calls cost at most 2× one 1000-tick
//! batch).

use std::sync::Arc;

use crate::clock::SimClock;
use crate::core::CoreCounters;
use crate::cstate::CState;
use crate::error::{Result, SimError};
use crate::freq::KiloHertz;
use crate::platform::PlatformSpec;
use crate::power::LoadDescriptor;
use crate::rapl::{EnergyCounter, RaplController};
use crate::units::{repeat_add, Joules, Seconds, Watts};

/// Index of a [`CState`] in [`CState::ALL`], precomputed so the tick loop
/// never searches the array.
#[inline]
fn cstate_index(s: CState) -> usize {
    match s {
        CState::C0 => 0,
        CState::C1 => 1,
        CState::C3 => 2,
        CState::C6 => 3,
    }
}

/// `CStateResidency::record` repeated `k` times on one core's residency
/// slots: `c0` active seconds and `idle` seconds in slot `idle_idx` per
/// tick. Idling "in C0" is a second add on the C0 slot. Works on a local
/// copy of the C0 slot, so at `k = 1` the per-core loop stays in
/// registers.
#[inline(always)]
fn record_repeated(r: &mut [f64; 4], c0: f64, idle: f64, idle_idx: u8, k: usize) {
    let mut active = r[0];
    match idle_idx as usize & 3 {
        0 => active = repeat_add(active, [c0, idle], k),
        idx => {
            active = repeat_add(active, [c0], k);
            r[idx] = repeat_add(r[idx], [idle], k);
        }
    }
    r[0] = active;
}

/// A batch-stepped multi-core processor with struct-of-arrays core state.
///
/// Functionally equivalent to [`crate::chip::Chip`] on platforms without
/// shared P-state slots; built for core counts where the per-core-struct
/// layout is too slow.
#[derive(Debug, Clone)]
pub struct WideChip {
    spec: Arc<PlatformSpec>,
    clock: SimClock,
    rapl: Option<RaplController>,
    pkg_energy: EnergyCounter,
    cores_energy: EnergyCounter,
    /// Package and core-domain power of every tick since the last cache
    /// rebuild (which computes them), and so of the last tick.
    last_package_power: Watts,
    last_cores_power: Watts,

    // --- struct-of-arrays per-core state ---
    requested: Vec<KiloHertz>,
    effective: Vec<KiloHertz>,
    /// The load each core presents, one packed slot per core, so
    /// [`WideChip::set_load`] does one bounds check on one slot.
    load: Vec<LoadDescriptor>,
    forced_idle: Vec<bool>,
    idle_state: Vec<CState>,
    tsc: Vec<u64>,
    mperf: Vec<u64>,
    aperf: Vec<u64>,
    instructions: Vec<u64>,
    energy: Vec<EnergyCounter>,
    /// Seconds per C-state, [`CState::ALL`] order (C0 first).
    residency: Vec<[f64; 4]>,
    last_power: Vec<Watts>,
    /// True when a core's power inputs (load, park, idle state) changed
    /// since its memoized tick increments were computed; forces a model
    /// re-evaluation and cache rebuild for that core on the next tick.
    cache_dirty: Vec<bool>,
    /// Any `cache_dirty` bit set — lets a clean tick skip the scan.
    any_dirty: bool,
    /// A requested frequency moved: every core must re-run the
    /// effective-frequency min-chain (power is re-evaluated only for
    /// cores whose resolved frequency actually changed).
    freq_moved: bool,
    /// Idle-floor power per C-state, precomputed from the model.
    idle_power_by_state: [Watts; 4],

    // --- memoized per-core tick increments -------------------------
    // Everything a tick folds into a core's counters is pure in
    // (effective freq, load, idle state, dt). These caches hold the
    // exact values `Chip::tick`/`SimCore::integrate` would compute,
    // produced by the same expressions, and are rebuilt only when an
    // input moves — so replaying them is bit-identical to recomputing.
    /// `SimCore::is_active`, maintained incrementally by the setters.
    active_flag: Vec<bool>,
    /// Count of set bits in `active_flag` (Chip recounts per tick).
    active_count: usize,
    /// `(base_freq.hz() * dt * active_fraction) as u64`.
    mperf_inc: Vec<u64>,
    /// `(effective.hz() * dt * active_fraction) as u64`.
    aperf_inc: Vec<u64>,
    /// `dt * active_fraction` seconds of C0 residency.
    c0_inc: Vec<f64>,
    /// `dt * (1 - active_fraction)` seconds in the idle state.
    idle_inc: Vec<f64>,
    /// `cstate_index(idle_state)`, so the loop never matches on CState.
    idle_idx: Vec<u8>,
    /// `last_power * dt` joules per tick.
    energy_inc: Vec<Joules>,
    /// `effective.scale(utilization)` for active cores, zero otherwise.
    freq_weight: Vec<KiloHertz>,
    /// `(base_freq.hz() * dt) as u64`, the tsc increment of every core.
    tsc_inc: u64,
    /// `last_cores_power * dt` and `last_package_power * dt` joules.
    cores_energy_inc: Joules,
    pkg_energy_inc: Joules,
    /// `dt` the caches were built for (NaN before the first tick).
    last_dt: f64,
    /// (scalar turbo cap, AVX turbo cap, RAPL cap) the caches were
    /// built under; any movement re-resolves every core's frequency.
    last_caps: (KiloHertz, KiloHertz, Option<KiloHertz>),
    /// Steady ticks of `last_dt` taken but not yet folded into the
    /// accumulators (see [`WideChip::tick`]).
    pending: usize,
}

impl WideChip {
    /// Instantiate a wide chip from a platform spec.
    ///
    /// # Panics
    /// Panics if the spec fails validation or declares shared P-state
    /// slots (Ryzen-style slot clustering is a small-chip concern; use
    /// [`crate::chip::Chip`] there).
    pub fn new(spec: PlatformSpec) -> WideChip {
        WideChip::shared(Arc::new(spec))
    }

    /// Instantiate a wide chip from a shared platform spec (see
    /// [`crate::chip::Chip::shared`]).
    ///
    /// # Panics
    /// Panics under the same conditions as [`WideChip::new`].
    pub fn shared(spec: Arc<PlatformSpec>) -> WideChip {
        if let Err(e) = spec.validate() {
            panic!("invalid platform spec: {e}");
        }
        assert!(
            spec.shared_pstate_slots.is_none(),
            "WideChip does not model shared P-state slots"
        );
        let n = spec.num_cores;
        let rapl = spec
            .rapl
            .clone()
            .map(|cfg| RaplController::new(cfg, spec.grid));
        let mut idle_power_by_state = [Watts::ZERO; 4];
        for s in CState::ALL {
            idle_power_by_state[cstate_index(s)] = spec.power.idle_power(s);
        }
        WideChip {
            clock: SimClock::new(),
            rapl,
            pkg_energy: EnergyCounter::default(),
            cores_energy: EnergyCounter::default(),
            last_package_power: Watts::ZERO,
            last_cores_power: Watts::ZERO,
            requested: vec![spec.base_freq; n],
            effective: vec![spec.base_freq; n],
            load: vec![LoadDescriptor::IDLE; n],
            forced_idle: vec![false; n],
            idle_state: vec![CState::C6; n],
            tsc: vec![0; n],
            mperf: vec![0; n],
            aperf: vec![0; n],
            instructions: vec![0; n],
            energy: vec![EnergyCounter::default(); n],
            residency: vec![[0.0; 4]; n],
            last_power: vec![Watts::ZERO; n],
            cache_dirty: vec![true; n],
            any_dirty: true,
            freq_moved: true,
            idle_power_by_state,
            active_flag: vec![false; n],
            active_count: 0,
            mperf_inc: vec![0; n],
            aperf_inc: vec![0; n],
            c0_inc: vec![0.0; n],
            idle_inc: vec![0.0; n],
            idle_idx: vec![cstate_index(CState::C6) as u8; n],
            energy_inc: vec![Joules::ZERO; n],
            freq_weight: vec![KiloHertz::ZERO; n],
            tsc_inc: 0,
            cores_energy_inc: Joules::ZERO,
            pkg_energy_inc: Joules::ZERO,
            last_dt: f64::NAN,
            last_caps: (KiloHertz::ZERO, KiloHertz::ZERO, None),
            pending: 0,
            spec,
        }
    }

    /// Re-derive one core's `is_active` bit and the running count after
    /// a setter touched its load or park state.
    #[inline]
    fn refresh_active(&mut self, core: usize) {
        let now = self.is_active(core);
        if now != self.active_flag[core] {
            self.active_flag[core] = now;
            if now {
                self.active_count += 1;
            } else {
                self.active_count -= 1;
            }
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

    /// Current simulated time, pending ticks included.
    pub fn now(&self) -> Seconds {
        if self.pending == 0 {
            return self.clock.now();
        }
        let mut clock = self.clock;
        clock.advance_repeated(Seconds(self.last_dt), self.pending);
        clock.now()
    }

    fn check_core(&self, core: usize) -> Result<()> {
        if core >= self.requested.len() {
            Err(SimError::NoSuchCore {
                core,
                num_cores: self.requested.len(),
            })
        } else {
            Ok(())
        }
    }

    fn check_freq(&self, f: KiloHertz) -> Result<()> {
        if f < self.spec.grid.min() || f > self.spec.grid.max() {
            Err(SimError::FrequencyOutOfRange {
                requested: f,
                min: self.spec.grid.min(),
                max: self.spec.grid.max(),
            })
        } else {
            Ok(())
        }
    }

    /// Request a frequency for one core, snapped to the platform grid.
    pub fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()> {
        self.check_core(core)?;
        self.check_freq(f)?;
        let f = self.spec.grid.round(f);
        if self.requested[core] != f {
            self.requested[core] = f;
            self.freq_moved = true;
        }
        Ok(())
    }

    /// Atomically set all cores' requested frequencies (the batch path
    /// the daemon and benches drive).
    pub fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()> {
        if freqs.len() != self.requested.len() {
            return Err(SimError::NoSuchCore {
                core: freqs.len(),
                num_cores: self.requested.len(),
            });
        }
        for &f in freqs {
            self.check_freq(f)?;
        }
        for (slot, &f) in self.requested.iter_mut().zip(freqs) {
            let f = self.spec.grid.round(f);
            if *slot != f {
                *slot = f;
                self.freq_moved = true;
            }
        }
        Ok(())
    }

    /// The frequency software requested for `core`.
    pub fn requested_freq(&self, core: usize) -> KiloHertz {
        self.requested[core]
    }

    /// The frequency `core` actually ran at during the last tick.
    #[inline]
    pub fn effective_freq(&self, core: usize) -> KiloHertz {
        self.effective[core]
    }

    /// Install the load descriptor for `core` for the upcoming tick.
    ///
    /// Re-installing a bitwise-identical descriptor is a no-op: the
    /// cached tick increments are pure functions of the inputs, so a
    /// rebuild would reproduce them bit-for-bit — and a per-tick loop
    /// re-installs every app's load each tick, which would otherwise
    /// force a rebuild on every tick of a steady stretch. That no-op is
    /// one bounds check on the core's packed load slot (its miss is the
    /// `NoSuchCore` error) and one compare.
    #[inline]
    pub fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<()> {
        let num_cores = self.load.len();
        let Some(slot) = self.load.get_mut(core) else {
            return Err(SimError::NoSuchCore { core, num_cores });
        };
        debug_assert!(load.is_valid());
        if slot.capacitance.to_bits() == load.capacitance.to_bits()
            && slot.utilization.to_bits() == load.utilization.to_bits()
            && slot.avx == load.avx
        {
            return Ok(());
        }
        *slot = load;
        self.cache_dirty[core] = true;
        self.any_dirty = true;
        self.refresh_active(core);
        Ok(())
    }

    /// Park (`true`) or release (`false`) a core. Redundant calls skip
    /// the cache invalidation (see [`WideChip::set_load`]).
    pub fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()> {
        self.check_core(core)?;
        if self.forced_idle[core] == idle {
            return Ok(());
        }
        self.forced_idle[core] = idle;
        self.cache_dirty[core] = true;
        self.any_dirty = true;
        self.refresh_active(core);
        Ok(())
    }

    /// Select the C-state a core rests in while it has no work.
    /// Redundant calls skip the cache invalidation (see
    /// [`WideChip::set_load`]).
    pub fn set_idle_state(&mut self, core: usize, state: CState) -> Result<()> {
        self.check_core(core)?;
        if self.idle_state[core] == state {
            return Ok(());
        }
        self.idle_state[core] = state;
        self.cache_dirty[core] = true;
        self.any_dirty = true;
        Ok(())
    }

    /// Credit retired instructions to a core: one bounds check, whose
    /// miss is the `NoSuchCore` error.
    #[inline]
    pub fn add_instructions(&mut self, core: usize, n: u64) -> Result<()> {
        let num_cores = self.instructions.len();
        match self.instructions.get_mut(core) {
            Some(count) => {
                *count = count.wrapping_add(n);
                Ok(())
            }
            None => Err(SimError::NoSuchCore { core, num_cores }),
        }
    }

    /// Program a RAPL package power limit; errors on platforms without
    /// RAPL enforcement. Settles the pending ticks first: they were
    /// taken with no limit, and a limit changes what their `observe`
    /// steps do.
    pub fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()> {
        self.settle();
        match self.rapl.as_mut() {
            Some(r) => {
                r.set_limit(limit);
                Ok(())
            }
            None => Err(SimError::Unsupported("RAPL power limiting")),
        }
    }

    /// The global frequency cap RAPL currently imposes, if any.
    pub fn rapl_cap(&self) -> Option<KiloHertz> {
        self.rapl.as_ref().map(|r| r.cap())
    }

    /// The programmed RAPL limit, if any.
    pub fn rapl_limit(&self) -> Option<Watts> {
        self.rapl.as_ref().and_then(|r| r.limit())
    }

    /// The RAPL controller, on platforms with RAPL enforcement: the
    /// handle [`crate::rapl::settle_all`] folds deferred averages through.
    /// Settles the pending ticks first, so the controller has seen every
    /// tick taken.
    pub fn rapl_mut(&mut self) -> Option<&mut RaplController> {
        self.settle();
        self.rapl.as_mut()
    }

    /// Fixed-counter snapshot for a core, pending ticks included (one
    /// `wrapping_mul` per counter, exact for any count).
    pub fn counters(&self, core: usize) -> CoreCounters {
        let k = self.pending as u64;
        CoreCounters {
            aperf: self.aperf[core].wrapping_add(self.aperf_inc[core].wrapping_mul(k)),
            mperf: self.mperf[core].wrapping_add(self.mperf_inc[core].wrapping_mul(k)),
            tsc: self.tsc[core].wrapping_add(self.tsc_inc.wrapping_mul(k)),
            instructions: self.instructions[core],
        }
    }

    /// Package power during the last tick.
    pub fn package_power(&self) -> Watts {
        self.last_package_power
    }

    /// Core-domain (PP0) power during the last tick.
    pub fn cores_power(&self) -> Watts {
        self.last_cores_power
    }

    /// Power of one core during the last tick (test/telemetry access,
    /// mirroring [`crate::chip::Chip::core_power`] gating).
    pub fn core_power(&self, core: usize) -> Result<Watts> {
        self.check_core(core)?;
        if !self.spec.per_core_power {
            return Err(SimError::Unsupported("per-core power telemetry"));
        }
        Ok(self.last_power[core])
    }

    /// `counter` after the pending ticks' adds of `inc`, on a copy.
    #[inline]
    fn folded(&self, mut counter: EnergyCounter, inc: Joules) -> EnergyCounter {
        if self.pending > 0 {
            counter.add_repeated(inc, self.pending);
        }
        counter
    }

    /// Per-core accumulated energy, pending ticks included (white-box
    /// access for the equivalence tests; architecturally gated like
    /// [`WideChip::core_power`] via the raw counter below).
    pub fn core_energy_total(&self, core: usize) -> Joules {
        self.folded(self.energy[core], self.energy_inc[core])
            .total()
    }

    /// Raw (wrapping) package energy counter, pending ticks included.
    pub fn package_energy_raw(&self) -> u32 {
        self.folded(self.pkg_energy, self.pkg_energy_inc).read_raw()
    }

    /// Raw (wrapping) core-domain energy counter, pending ticks included.
    pub fn cores_energy_raw(&self) -> u32 {
        self.folded(self.cores_energy, self.cores_energy_inc)
            .read_raw()
    }

    /// Raw per-core energy counter, pending ticks included; errors on
    /// platforms without per-core power telemetry (same gating as
    /// [`crate::chip::Chip::core_energy_raw`]).
    pub fn core_energy_raw(&self, core: usize) -> Result<u32> {
        self.check_core(core)?;
        if !self.spec.per_core_power {
            return Err(SimError::Unsupported("per-core power telemetry"));
        }
        Ok(self
            .folded(self.energy[core], self.energy_inc[core])
            .read_raw())
    }

    /// Fraction of accounted time core `core` spent active (C0),
    /// pending ticks included.
    pub fn c0_fraction(&self, core: usize) -> f64 {
        let mut r = self.residency[core];
        if self.pending > 0 {
            record_repeated(
                &mut r,
                self.c0_inc[core],
                self.idle_inc[core],
                self.idle_idx[core],
                self.pending,
            );
        }
        let total: f64 = r.iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            r[0] / total
        }
    }

    /// Whether `core` will execute this tick (same predicate as
    /// `SimCore::is_active`).
    #[inline]
    fn is_active(&self, core: usize) -> bool {
        let load = &self.load[core];
        !self.forced_idle[core] && load.utilization > 0.0 && load.capacitance > 0.0
    }

    /// Number of cores that will execute this tick.
    pub fn active_cores(&self) -> usize {
        self.active_count
    }

    /// Rebuild the memoized tick increments for every core whose inputs
    /// moved (every core when `all`), and the chip-wide totals in the
    /// same pass. The expressions are verbatim the per-tick arithmetic of
    /// `Chip::tick`/`SimCore::integrate`, so replaying the cached values
    /// is bit-identical to recomputing them each tick.
    fn rebuild_caches(
        &mut self,
        dt: Seconds,
        all: bool,
        caps: (KiloHertz, KiloHertz, Option<KiloHertz>),
    ) {
        let (cap_scalar, cap_avx, rapl_cap) = caps;
        let grid_min = self.spec.grid.min();
        let mperf_base = self.spec.base_freq.hz() * dt.value();
        // Chip-wide totals: the sums Chip::tick folds while walking its
        // cores, by the same expressions in the same core order. They
        // move only when a cache does, so every tick until the next
        // rebuild replays them.
        let mut cores_power = Watts::ZERO;
        let mut active_freq_sum = KiloHertz::ZERO;
        let mut max_active_freq = KiloHertz::ZERO;
        for c in 0..self.requested.len() {
            let is_active = self.active_flag[c];
            if all || self.cache_dirty[c] {
                let load = self.load[c];
                // Same min-chain as Chip::resolve_freq.
                let mut f = self.requested[c];
                f = f.min(if load.avx { cap_avx } else { cap_scalar });
                if let Some(rc) = rapl_cap {
                    f = f.min(rc);
                }
                let f = f.max(grid_min);

                // Memoized power: the CMOS model is pure in (freq, load,
                // active, idle state); recompute only when one of them
                // moved.
                if self.cache_dirty[c] || f != self.effective[c] {
                    self.last_power[c] = if is_active {
                        self.spec.power.core_power(f, &load)
                    } else {
                        self.idle_power_by_state[cstate_index(self.idle_state[c])]
                    };
                }
                self.effective[c] = f;

                // SimCore::integrate's per-tick products, computed once.
                let active_fraction = if is_active { load.utilization } else { 0.0 };
                self.mperf_inc[c] = (mperf_base * active_fraction) as u64;
                self.aperf_inc[c] = (f.hz() * dt.value() * active_fraction) as u64;
                self.c0_inc[c] = dt.value() * active_fraction;
                self.idle_inc[c] = dt.value() * (1.0 - active_fraction);
                self.idle_idx[c] = cstate_index(self.idle_state[c]) as u8;
                self.energy_inc[c] = self.last_power[c] * dt;
                self.freq_weight[c] = if is_active {
                    f.scale(load.utilization)
                } else {
                    KiloHertz::ZERO
                };
                self.cache_dirty[c] = false;
            }
            cores_power += self.last_power[c];
            if is_active {
                active_freq_sum += self.freq_weight[c];
                max_active_freq = max_active_freq.max(self.effective[c]);
            }
        }
        let uncore = self
            .spec
            .power
            .uncore_power_at(active_freq_sum, max_active_freq);
        let package = cores_power + uncore;
        self.last_cores_power = cores_power;
        self.last_package_power = package;
        self.cores_energy_inc = cores_power * dt;
        self.pkg_energy_inc = package * dt;
        self.tsc_inc = (self.spec.base_freq.hz() * dt.value()) as u64;

        self.any_dirty = false;
        self.freq_moved = false;
        self.last_dt = dt.value();
        self.last_caps = caps;
    }

    /// Advance the chip by `dt`: resolve frequencies, integrate power and
    /// counters, and let the RAPL controller react. Allocation-free.
    ///
    /// A tick [`WideChip::steady_tick`] admits only counts itself as
    /// pending: it would replay the cached increments, and the pending
    /// ticks fold through one replay when something needs them (module
    /// docs). Any other tick settles the pending ones first, then
    /// rebuilds whatever moved and replays itself.
    pub fn tick(&mut self, dt: Seconds) {
        debug_assert_eq!(
            self.active_count,
            (0..self.requested.len())
                .filter(|&c| self.is_active(c))
                .count()
        );
        if self.steady_tick(dt) {
            self.pending += 1;
            return;
        }
        self.settle();

        // Caps depend only on the active count — hoist them out of the
        // per-core loop (Chip re-derives them per core).
        let cap_scalar = self.spec.turbo.cap_for(self.active_count, false);
        let cap_avx = self.spec.turbo.cap_for(self.active_count, true);
        let rapl_cap = self.rapl.as_ref().map(|r| r.cap());
        let caps = (cap_scalar, cap_avx, rapl_cap);

        // Re-resolve frequencies only when something that feeds the
        // min-chain moved; refresh per-core increments only for cores
        // whose power inputs moved. A steady-state tick skips both.
        // `last_dt` starts as NaN, which compares unequal and forces the
        // first tick down the rebuild path.
        let resolve_all = caps != self.last_caps || dt.value() != self.last_dt || self.freq_moved;
        if resolve_all || self.any_dirty {
            self.rebuild_caches(dt, resolve_all, caps);
        }
        self.replay(1, dt);
    }

    /// Run `n` ticks of `dt` each: tick until the next tick is a pure
    /// replay ([`WideChip::steady_tick`]), then add all the rest to the
    /// pending ticks and fold them in one replay before returning, so a
    /// batch leaves nothing pending. Bit-identical to `n` calls of
    /// [`WideChip::tick`] (which would each check steadiness again).
    pub fn run_ticks(&mut self, n: usize, dt: Seconds) {
        let mut left = n;
        while left > 0 && !self.steady_tick(dt) {
            self.tick(dt);
            left -= 1;
        }
        debug_assert!(left == 0 || self.steady_tick(dt));
        self.pending += left;
        self.settle();
    }

    /// Fold the pending ticks into the accumulators: one replay at the
    /// tick length they were taken at. The inputs may have moved since
    /// (setters only flag them), but no cache has: every rebuild
    /// settles first.
    fn settle(&mut self) {
        if self.pending > 0 {
            let k = std::mem::take(&mut self.pending);
            self.replay(k, Seconds(self.last_dt));
        }
    }

    /// The one tick kernel: fold `k` ticks of the cached increments and
    /// totals into the accumulators. u64 counters take one wrapping
    /// `k`-fold add (exact); each f64 accumulator fast-forwards through
    /// [`repeat_add`], bit-identical to its `k` adds in per-tick order;
    /// and a `k > 1` batch defers the RAPL running average's `k` EWMA
    /// steps ([`RaplController::observe_steady`]), which land on the bits
    /// of `k` calls of `Chip::tick` whenever they are folded. Only sound
    /// for `k > 1` ticks that [`WideChip::steady_tick`] admitted when they
    /// were taken (`tick` and `run_ticks` check it before deferring) —
    /// no cache may move and no RAPL limit may move the cap mid-batch.
    /// Always inlined, so a rebuilding `tick`'s `k = 1` is the plain
    /// per-tick adds and one `observe`.
    #[inline(always)]
    fn replay(&mut self, k: usize, dt: Seconds) {
        let n = self.requested.len();
        let k64 = k as u64;
        let tsc_step = self.tsc_inc.wrapping_mul(k64);

        // Slices pinned to length n so the indexing below elides bounds
        // checks.
        let mperf_inc = &self.mperf_inc[..n];
        let aperf_inc = &self.aperf_inc[..n];
        let c0_inc = &self.c0_inc[..n];
        let idle_inc = &self.idle_inc[..n];
        let idle_idx = &self.idle_idx[..n];
        let energy_inc = &self.energy_inc[..n];
        let tsc = &mut self.tsc[..n];
        let mperf = &mut self.mperf[..n];
        let aperf = &mut self.aperf[..n];
        let residency = &mut self.residency[..n];
        let energy = &mut self.energy[..n];

        for c in 0..n {
            tsc[c] = tsc[c].wrapping_add(tsc_step);
            mperf[c] = mperf[c].wrapping_add(mperf_inc[c].wrapping_mul(k64));
            aperf[c] = aperf[c].wrapping_add(aperf_inc[c].wrapping_mul(k64));
            record_repeated(&mut residency[c], c0_inc[c], idle_inc[c], idle_idx[c], k);
            energy[c].add_repeated(energy_inc[c], k);
        }

        self.cores_energy.add_repeated(self.cores_energy_inc, k);
        self.pkg_energy.add_repeated(self.pkg_energy_inc, k);
        let package = self.last_package_power;
        if let Some(r) = self.rapl.as_mut() {
            // An EWMA, not a plain add: a batch defers its k steps to
            // whoever settles the controller next.
            match k {
                0 => {}
                1 => r.observe(package, dt),
                _ => r.observe_steady(package, dt, k),
            }
        }
        self.clock.advance_repeated(dt, k);
    }

    /// Whether the next tick of `dt` takes the pure replay path: no
    /// dirty cores, no requested-frequency movement, the same tick
    /// length, unchanged frequency caps, and no RAPL limit that could
    /// move the cap mid-stream. Replay ticks mutate only accumulators
    /// (and the RAPL running average, which without a limit never moves
    /// the cap), so steadiness is self-preserving: once true it stays
    /// true until an input moves. [`WideChip::tick`] defers such a tick
    /// instead of replaying it, [`WideChip::run_ticks`] folds the rest of
    /// its batch in one replay from here, and callers may batch app-major
    /// loops against frozen effective frequencies (see
    /// `Node::advance_interval` in `clusterd`).
    pub fn steady_tick(&self, dt: Seconds) -> bool {
        if self.any_dirty || self.freq_moved || self.last_dt.to_bits() != dt.value().to_bits() {
            return false;
        }
        if self.rapl.as_ref().is_some_and(|r| r.limit().is_some()) {
            return false;
        }
        let caps = (
            self.spec.turbo.cap_for(self.active_count, false),
            self.spec.turbo.cap_for(self.active_count, true),
            self.rapl.as_ref().map(|r| r.cap()),
        );
        caps == self.last_caps
    }

    /// See `Chip::accumulators`; pending ticks are folded on a copy.
    #[cfg(test)]
    fn accumulators(&self) -> (f64, f64, Option<f64>) {
        let mut settled = self.clone();
        settled.settle();
        (
            settled.pkg_energy.total().value(),
            settled.cores_energy.total().value(),
            settled.rapl.as_ref().map(|r| r.running_average().value()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::chiplike::ChipLike;
    use crate::rapl::settle_all;

    const MS: Seconds = Seconds(0.001);

    /// Mixed workload over `n` cores: deterministic spread of frequencies,
    /// capacitances, utilizations and AVX flags, plus some parked and
    /// shallow-idle cores.
    fn drive_pair(n: usize, ticks: usize) -> (Chip, WideChip) {
        let spec = PlatformSpec::wide(n);
        let mut chip = Chip::new(spec.clone());
        let mut wide = WideChip::new(spec.clone());
        let span = (spec.grid.max().khz() - spec.grid.min().khz()) / spec.grid.step().khz();
        for c in 0..n {
            let f = KiloHertz(
                spec.grid.min().khz() + (c as u64 * 7 % (span + 1)) * spec.grid.step().khz(),
            );
            chip.set_requested_freq(c, f).unwrap();
            wide.set_requested_freq(c, f).unwrap();
            let load = match c % 5 {
                0 => LoadDescriptor::nominal(),
                1 => LoadDescriptor {
                    capacitance: 1.9,
                    utilization: 1.0,
                    avx: true,
                },
                2 => LoadDescriptor {
                    capacitance: 1.2,
                    utilization: 0.6,
                    avx: false,
                },
                3 => LoadDescriptor::IDLE,
                _ => LoadDescriptor {
                    capacitance: 0.8,
                    utilization: 0.9,
                    avx: false,
                },
            };
            chip.set_load(c, load).unwrap();
            wide.set_load(c, load).unwrap();
            if c % 7 == 3 {
                chip.set_forced_idle(c, true).unwrap();
                wide.set_forced_idle(c, true).unwrap();
            }
            if c % 4 == 1 {
                chip.set_idle_state(c, CState::C1).unwrap();
                wide.set_idle_state(c, CState::C1).unwrap();
            }
            chip.add_instructions(c, 1000 + c as u64).unwrap();
            wide.add_instructions(c, 1000 + c as u64).unwrap();
        }
        let limit = Watts(4.0 * n as f64);
        chip.set_rapl_limit(Some(limit)).unwrap();
        wide.set_rapl_limit(Some(limit)).unwrap();
        for t in 0..ticks {
            // retarget mid-run so the caches see real frequency movement
            if t == ticks / 2 {
                for c in (0..n).step_by(3) {
                    let f = spec.grid.round(KiloHertz(
                        spec.grid.min().khz()
                            + (c as u64 * 11 % (span + 1)) * spec.grid.step().khz(),
                    ));
                    chip.set_requested_freq(c, f).unwrap();
                    wide.set_requested_freq(c, f).unwrap();
                }
            }
            chip.tick(MS);
            wide.tick(MS);
        }
        (chip, wide)
    }

    #[test]
    fn bit_identical_to_chip_at_16_cores() {
        let (chip, wide) = drive_pair(16, 600);
        assert_bit_identical(&chip, &wide, "16 cores");
    }

    #[test]
    fn bit_identical_on_the_skylake_testbed() {
        // The equivalence is not special to the wide descriptors: the
        // paper's Skylake part (ramped turbo, RAPL) agrees too.
        let spec = PlatformSpec::skylake();
        let mut chip = Chip::new(spec.clone());
        let mut wide = WideChip::new(spec);
        for c in 0..10 {
            let f = KiloHertz::from_mhz(1000 + 200 * c as u64);
            chip.set_requested_freq(c, f).unwrap();
            wide.set_requested_freq(c, f).unwrap();
            let load = LoadDescriptor {
                capacitance: if c % 2 == 0 { 1.0 } else { 1.9 },
                utilization: 1.0,
                avx: c % 2 == 1,
            };
            chip.set_load(c, load).unwrap();
            wide.set_load(c, load).unwrap();
        }
        chip.set_rapl_limit(Some(Watts(50.0))).unwrap();
        wide.set_rapl_limit(Some(Watts(50.0))).unwrap();
        for _ in 0..2000 {
            chip.tick(MS);
            wide.tick(MS);
        }
        assert_bit_identical(&chip, &wide, "Skylake");
    }

    /// Every observable the replay kernel must reproduce, compared to the
    /// bit against the scalar oracle.
    fn assert_bit_identical(chip: &Chip, wide: &WideChip, what: &str) {
        let bits = |w: Watts| w.value().to_bits();
        assert_eq!(
            chip.now().value().to_bits(),
            wide.now().value().to_bits(),
            "{what}: clock"
        );
        assert_eq!(
            bits(chip.package_power()),
            bits(wide.package_power()),
            "{what}: package power"
        );
        assert_eq!(
            bits(chip.cores_power()),
            bits(wide.cores_power()),
            "{what}: core-domain power"
        );
        assert_eq!(
            chip.package_energy_raw(),
            wide.package_energy_raw(),
            "{what}: package energy"
        );
        assert_eq!(
            chip.cores_energy_raw(),
            wide.cores_energy_raw(),
            "{what}: core-domain energy"
        );
        let (pkg, cores, avg) = chip.accumulators();
        let (wide_pkg, wide_cores, wide_avg) = wide.accumulators();
        assert_eq!(pkg.to_bits(), wide_pkg.to_bits(), "{what}: package joules");
        assert_eq!(cores.to_bits(), wide_cores.to_bits(), "{what}: core joules");
        assert_eq!(
            avg.map(f64::to_bits),
            wide_avg.map(f64::to_bits),
            "{what}: RAPL running average"
        );
        assert_eq!(chip.rapl_cap(), wide.rapl_cap(), "{what}: RAPL cap");
        for c in 0..chip.num_cores() {
            let core = chip.core(c);
            assert_eq!(
                chip.effective_freq(c),
                wide.effective_freq(c),
                "{what}: core {c} frequency"
            );
            assert_eq!(chip.counters(c), wide.counters(c), "{what}: core {c}");
            assert_eq!(
                bits(core.last_power()),
                bits(wide.last_power[c]),
                "{what}: core {c} power"
            );
            assert_eq!(
                core.energy().total().value().to_bits(),
                wide.core_energy_total(c).value().to_bits(),
                "{what}: core {c} energy"
            );
            assert_eq!(
                core.residency().c0_fraction().to_bits(),
                wide.c0_fraction(c).to_bits(),
                "{what}: core {c} C0 fraction"
            );
            for s in CState::ALL {
                assert_eq!(
                    core.residency().in_state(s).value().to_bits(),
                    wide.residency[c][cstate_index(s)].to_bits(),
                    "{what}: core {c} seconds in {s:?}"
                );
            }
        }
    }

    /// Mixed loads, parked cores and every idle state (C0 included, whose
    /// idle time is a second add on the C0 slot), with no RAPL limit, so
    /// `run_ticks` reaches the batched replay.
    fn configure_mixed<C: ChipLike>(chip: &mut C) {
        for c in 0..chip.num_cores() {
            let f = KiloHertz::from_mhz(1000 + 100 * (c as u64 * 5 % 20));
            let load = match c % 3 {
                0 => LoadDescriptor::nominal(),
                1 => LoadDescriptor {
                    capacitance: 1.4,
                    utilization: 0.55,
                    avx: c % 2 == 0,
                },
                _ => LoadDescriptor::IDLE,
            };
            chip.set_requested_freq(c, f).unwrap();
            chip.set_load(c, load).unwrap();
            chip.set_idle_state(c, CState::ALL[c % 4]).unwrap();
            chip.set_forced_idle(c, c % 7 == 5).unwrap();
        }
    }

    #[test]
    fn run_ticks_replay_is_bit_identical_to_the_scalar_oracle() {
        const BATCHES: [usize; 6] = [0, 1, 2, 7, 499, 100_000];
        let n = 16;
        let spec = PlatformSpec::wide(n);
        let mut chip = Chip::new(spec.clone());
        // The first wide chip leaves each batch's deferred RAPL run to
        // its next read; the second folds it through `settle_all` after
        // every batch.
        let mut wides = [WideChip::new(spec.clone()), WideChip::new(spec.clone())];
        configure_mixed(&mut chip);
        wides.iter_mut().for_each(configure_mixed);
        let run = |chip: &mut Chip, wides: &mut [WideChip; 2], dt: Seconds, stage: &str| {
            for k in BATCHES {
                chip.run_ticks(k, dt);
                for wide in wides.iter_mut() {
                    wide.run_ticks(k, dt);
                }
                settle_all(wides[1].rapl_mut());
                for (wide, settle) in wides.iter().zip(["lazily", "by settle_all"]) {
                    assert_bit_identical(
                        chip,
                        wide,
                        &format!("{stage}, batch of {k}, settled {settle}"),
                    );
                }
            }
        };

        run(&mut chip, &mut wides, MS, "first batches");
        assert!(
            wides.iter().all(|w| w.steady_tick(MS)),
            "the batches above took the replay path"
        );

        // A dt change between batches rebuilds every cache at the new
        // length, and a retarget moves the per-core increments.
        run(&mut chip, &mut wides, Seconds(0.0025), "after a dt change");
        for c in (0..n).step_by(3) {
            let f = KiloHertz::from_mhz(2000 + 100 * (c as u64 % 7));
            chip.set_requested_freq(c, f).unwrap();
            for wide in &mut wides {
                wide.set_requested_freq(c, f).unwrap();
            }
        }
        run(&mut chip, &mut wides, MS, "after a retarget");

        // A RAPL limit programmed after steady batches: the controller's
        // first decisions act on the running average the batches built,
        // so it is compared through the caps it produces.
        let limit = Watts(chip.package_power().value() * 0.8);
        chip.set_rapl_limit(Some(limit)).unwrap();
        for wide in &mut wides {
            wide.set_rapl_limit(Some(limit)).unwrap();
            assert!(!wide.steady_tick(MS), "a RAPL limit disables batching");
        }
        run(&mut chip, &mut wides, MS, "under a RAPL limit");
        assert!(
            chip.rapl_cap().unwrap() < spec.grid.max(),
            "the limit must bite for the cap comparison to mean anything"
        );
    }

    /// Every reader's bits against the scalar oracle, through the public
    /// readers only. The `&self` readers are read twice: a read must not
    /// consume the pending ticks. The RAPL average is read through
    /// `rapl_mut` on a copy, which settles the copy's pending ticks and
    /// leaves the original's for the setters that follow.
    fn assert_readers_match(chip: &Chip, wide: &WideChip, what: &str) {
        for read in ["first read", "second read"] {
            let what = format!("{what}, {read}");
            assert_eq!(
                chip.now().value().to_bits(),
                wide.now().value().to_bits(),
                "{what}: clock"
            );
            assert_eq!(
                chip.package_energy_raw(),
                wide.package_energy_raw(),
                "{what}: package energy"
            );
            assert_eq!(
                chip.cores_energy_raw(),
                wide.cores_energy_raw(),
                "{what}: core-domain energy"
            );
            for c in 0..chip.num_cores() {
                let core = chip.core(c);
                assert_eq!(chip.counters(c), wide.counters(c), "{what}: core {c}");
                assert_eq!(
                    chip.core_energy_raw(c).unwrap(),
                    wide.core_energy_raw(c).unwrap(),
                    "{what}: core {c} raw energy"
                );
                assert_eq!(
                    core.energy().total().value().to_bits(),
                    wide.core_energy_total(c).value().to_bits(),
                    "{what}: core {c} energy"
                );
                assert_eq!(
                    core.residency().c0_fraction().to_bits(),
                    wide.c0_fraction(c).to_bits(),
                    "{what}: core {c} C0 fraction"
                );
            }
        }
        let average = |r: Option<&mut RaplController>| r.map(|r| r.running_average().value());
        assert_eq!(
            average(chip.clone().rapl_mut()).map(f64::to_bits),
            average(wide.clone().rapl_mut()).map(f64::to_bits),
            "{what}: RAPL running average"
        );
    }

    #[test]
    fn deferred_ticks_match_the_scalar_oracle_through_every_setter() {
        let n = 16;
        let mut spec = PlatformSpec::wide(n);
        // Exposes the per-core energy readers.
        spec.per_core_power = true;
        let mut chip = Chip::new(spec.clone());
        let mut wide = WideChip::new(spec.clone());
        configure_mixed(&mut chip);
        configure_mixed(&mut wide);

        // Single ticks on both chips; a settled wide chip defers all but
        // the first, which rebuilds whatever the setters moved.
        let stretch = |chip: &mut Chip, wide: &mut WideChip, dt: Seconds, what: &str| {
            for _ in 0..40 {
                chip.tick(dt);
                wide.tick(dt);
            }
            assert_readers_match(chip, wide, what);
        };
        // Setters applied to both chips between stretches, each while the
        // wide chip holds pending ticks, and whether the chip stays
        // steady after it.
        type Setter = dyn Fn(&mut dyn ChipLike);
        let retarget = |chip: &mut dyn ChipLike| {
            let freqs: Vec<_> = (0..chip.num_cores())
                .map(|c| KiloHertz::from_mhz(1200 + 100 * (c as u64 % 9)))
                .collect();
            chip.set_all_requested(&freqs).unwrap();
        };
        let steps: [(&str, &Setter, bool); 6] = [
            (
                "an identical set_load",
                &|chip| chip.set_load(0, LoadDescriptor::nominal()).unwrap(),
                true,
            ),
            (
                "a set_load that moves the load",
                &|chip| {
                    chip.set_load(
                        0,
                        LoadDescriptor {
                            capacitance: 1.7,
                            utilization: 0.8,
                            avx: true,
                        },
                    )
                    .unwrap()
                },
                false,
            ),
            (
                "set_forced_idle",
                &|chip| chip.set_forced_idle(3, true).unwrap(),
                false,
            ),
            (
                "set_idle_state",
                &|chip| chip.set_idle_state(2, CState::C0).unwrap(),
                false,
            ),
            (
                "set_requested_freq",
                &|chip| {
                    chip.set_requested_freq(1, KiloHertz::from_mhz(2400))
                        .unwrap()
                },
                false,
            ),
            ("set_all_requested", &retarget, false),
        ];

        stretch(&mut chip, &mut wide, MS, "settled");
        for (what, set, stays_steady) in steps {
            let owed = wide.pending;
            assert!(owed > 1, "{what}: the setter must meet pending ticks");
            set(&mut chip);
            set(&mut wide);
            assert_eq!(wide.pending, owed, "{what}: a setter folds nothing");
            assert_eq!(wide.steady_tick(MS), stays_steady, "{what}");
            stretch(&mut chip, &mut wide, MS, &format!("after {what}"));
        }

        // A RAPL limit settles the pending ticks first: they were taken
        // without one. Under it nothing defers, and the cap must bite.
        assert!(wide.pending > 1);
        let limit = Watts(chip.package_power().value() * 0.8);
        chip.set_rapl_limit(Some(limit)).unwrap();
        wide.set_rapl_limit(Some(limit)).unwrap();
        assert_eq!(wide.pending, 0, "set_rapl_limit settles");
        stretch(&mut chip, &mut wide, MS, "under a RAPL limit");
        assert_eq!(wide.pending, 0, "a RAPL limit disables deferral");
        assert!(chip.rapl_cap().unwrap() < spec.grid.max(), "the cap bites");
        chip.set_rapl_limit(None).unwrap();
        wide.set_rapl_limit(None).unwrap();
        stretch(&mut chip, &mut wide, MS, "after clearing the limit");

        // A dt change settles the pending ticks at the length they were
        // taken at, then rebuilds at the new one.
        let dt = Seconds(0.0025);
        assert!(wide.pending > 1);
        stretch(&mut chip, &mut wide, dt, "after a dt change");

        // A batch folds the ticks owed before it together with its own.
        assert!(wide.pending > 1);
        chip.run_ticks(499, dt);
        wide.run_ticks(499, dt);
        assert_eq!(wide.pending, 0, "run_ticks leaves nothing pending");
        assert_readers_match(&chip, &wide, "after run_ticks");
        stretch(&mut chip, &mut wide, dt, "after run_ticks and more ticks");

        // Settling through the handle lands on the oracle's bits too.
        settle_all(wide.rapl_mut());
        assert_eq!(wide.pending, 0, "rapl_mut settles");
        assert_readers_match(&chip, &wide, "after rapl_mut");
        assert_bit_identical(&chip, &wide, "settled at the end");
    }

    #[test]
    fn batch_setters_validate() {
        let mut wide = WideChip::new(PlatformSpec::wide(16));
        assert!(matches!(
            wide.set_requested_freq(99, KiloHertz::from_mhz(1000)),
            Err(SimError::NoSuchCore { .. })
        ));
        assert!(matches!(
            wide.set_requested_freq(0, KiloHertz::from_mhz(5000)),
            Err(SimError::FrequencyOutOfRange { .. })
        ));
        assert!(wide
            .set_all_requested(&[KiloHertz::from_mhz(1200); 16])
            .is_ok());
        assert_eq!(wide.requested_freq(7), KiloHertz::from_mhz(1200));
        assert!(wide
            .set_all_requested(&[KiloHertz::from_mhz(1200); 3])
            .is_err());
        // snapping matches the grid
        wide.set_requested_freq(0, KiloHertz(1_234_000)).unwrap();
        assert_eq!(wide.requested_freq(0), KiloHertz::from_mhz(1200));
    }

    #[test]
    fn rapl_holds_the_cap_at_width() {
        let n = 128;
        let spec = PlatformSpec::wide(n);
        let mut wide = WideChip::new(spec.clone());
        for c in 0..n {
            wide.set_requested_freq(c, spec.grid.max()).unwrap();
            wide.set_load(c, LoadDescriptor::nominal()).unwrap();
        }
        let limit = Watts(4.0 * n as f64);
        wide.set_rapl_limit(Some(limit)).unwrap();
        wide.run_ticks(5000, MS);
        assert!(
            wide.package_power().value() < limit.value() * 1.1,
            "RAPL failed to hold {limit} at {n} cores: {}",
            wide.package_power()
        );
        assert_eq!(wide.active_cores(), n);
    }

    #[test]
    #[should_panic(expected = "shared P-state slots")]
    fn rejects_shared_slot_platforms() {
        let _ = WideChip::new(PlatformSpec::ryzen());
    }
}
