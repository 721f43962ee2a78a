//! The workload execution engine.
//!
//! A [`RunningApp`] advances a (possibly phased) workload profile through
//! simulated time at whatever frequency the chip resolved for its core,
//! retiring instructions and producing the [`LoadDescriptor`] the power
//! model consumes. [`RunningApp::tick_on`] is the per-tick protocol
//! documented on [`pap_simcpu::chip::Chip`]; its chip side is the narrow
//! [`TickTarget`] trait, which every [`ChipLike`] chip meets.
//!
//! # Deferred ticks
//!
//! A steady app does not add per tick. Once a single-phase app has hit
//! its tick memo twice in a row at one `(freq, dt)` key with no
//! [`RunningApp::advance_steady`] batch in between, it computes a
//! *horizon*: how many more ticks at that key provably do not end the
//! run, by the exact last-tick test `advance_steady` uses. Until the
//! horizon runs out or the key moves, [`RunningApp::advance`] only counts
//! the tick as pending and returns the memo's outcome — one compare and
//! one increment on the app's first 64 bytes. The pending ticks fold into
//! the run position, the total retired and the active time through
//! [`repeat_add`] when something next changes the app: an `advance` that
//! does real work, or an `advance_steady` batch, which settles before it
//! looks at the position. The `&self` readers fold them on local copies,
//! so every read is exact, allocation-free and consumes nothing.
//!
//! The fold is exact for the reason a batch is: a pending tick is a memo
//! hit that does not end the run, i.e. the same three adds (`n` to the
//! position and the total, `dt` to the active time) every tick, and
//! `repeat_add` lands on the bits of those adds. Phased apps never defer
//! (their memo key includes the phase, which moves with the position),
//! and neither does an app whose per-tick `n` is not positive and
//! finite. The per-tick arithmetic — memo miss, run end, idle after the
//! end — is the one implementation, and the oracle the deferral is
//! tested against.

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::error::SimError;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{repeat_add, Seconds};

use crate::phases::{PhaseParams, PhasedProfile};
use crate::profile::WorkloadProfile;

/// Result of advancing an app by one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Instructions retired during the tick.
    pub instructions: u64,
    /// The load the app presented to the core during the tick.
    pub load: LoadDescriptor,
    /// True if a complete run finished during this tick.
    pub finished_run: bool,
}

/// The chip side of the per-tick protocol: the three calls
/// [`RunningApp::tick_on`] makes on one core. Every [`ChipLike`] chip
/// provides them, failing with its [`SimError`]; a wrapper that is not a
/// chip, such as a fault injector, implements this alone with its own
/// error type.
pub trait TickTarget {
    /// What a failed call reports.
    type Error;

    /// The frequency `core` ran at during the chip's last tick.
    fn effective_freq(&self, core: usize) -> KiloHertz;

    /// Install the load `core` presents for the upcoming tick.
    fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<(), Self::Error>;

    /// Credit retired instructions to `core`.
    fn add_instructions(&mut self, core: usize, n: u64) -> Result<(), Self::Error>;
}

impl<C: ChipLike + ?Sized> TickTarget for C {
    type Error = SimError;

    #[inline]
    fn effective_freq(&self, core: usize) -> KiloHertz {
        ChipLike::effective_freq(self, core)
    }

    #[inline]
    fn set_load(&mut self, core: usize, load: LoadDescriptor) -> Result<(), SimError> {
        ChipLike::set_load(self, core, load)
    }

    #[inline]
    fn add_instructions(&mut self, core: usize, n: u64) -> Result<(), SimError> {
        ChipLike::add_instructions(self, core, n)
    }
}

/// Most ticks one horizon may defer. It keeps the pending count in a
/// `u32` and bounds the rounding drift the horizon's estimate has to
/// absorb; a longer stretch takes one per-tick step every `2^24` ticks.
const HORIZON_CAP: usize = 1 << 24;

/// An application executing on one core.
///
/// `repr(C)` keeps the declaration order. The first 64 bytes are all a
/// deferred tick touches: the tick memo's key, the outcome it returns
/// and the two counts. The next 64 are what a settle or an
/// [`RunningApp::advance_steady`] batch reads and writes. The memo —
/// everything [`RunningApp::advance`] derives purely from `(freq, dt,
/// phase params)`, cached so the steady state (same frequency, same
/// tick, same phase for millions of consecutive ticks) pays the divisions
/// once — lives in those two groups rather than in a struct of its own:
/// its key leads the first, its load is `last_out.load`, and its `n`,
/// `ips` and params follow. A replayed hit is bit-identical to
/// recomputation because the expressions are pure.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct RunningApp {
    /// The frequency the memo was computed at.
    memo_freq: KiloHertz,
    /// The bits of the `dt` the memo was computed for.
    memo_dt_bits: u64,
    /// What the last tick returned. Once the memo is filled and until
    /// the app is done, its `load` is the memo's load; whenever ticks
    /// defer (`pending < left`) it is the memo's whole outcome for a tick
    /// that does not end the run, so a deferred tick returns it as is.
    last_out: StepOutcome,
    /// Ticks deferred at the memo key and not yet folded in.
    pending: u32,
    /// Ticks at the memo key, counted from the folded position, that
    /// provably do not end the run: `advance` defers while
    /// `pending < left`. Zero while the app does not defer.
    left: u32,

    /// Instructions one tick at the memo key retires (before run-end
    /// clamping).
    memo_n: f64,
    /// `memo_n / dt`.
    memo_ips: f64,
    /// Instructions retired in the current run (may exceed one run when
    /// looping; see [`RunningApp::total_retired`] for the grand total).
    retired_in_run: f64,
    total_retired: f64,
    active_time: Seconds,
    last_ips: f64,
    /// Instructions in one run, as the `f64` the run-end test compares.
    run_len: f64,
    looping: bool,
    done: bool,
    /// Single-phase profile: the phase params never change, so the memo
    /// is keyed on `(freq, dt)` alone and the app may defer.
    uniform: bool,
    memo_filled: bool,
    /// Per-tick memo hits in a row at the memo key since the last miss
    /// or batch; the horizon is computed from the second one on.
    hits: u8,

    completed_runs: u64,
    /// The phase params the memo was computed under. A single-phase
    /// app's are set at construction and never change.
    memo_params: PhaseParams,
    profile: PhasedProfile,
}

impl RunningApp {
    /// Run the profile once to completion, then idle.
    pub fn once(profile: WorkloadProfile) -> RunningApp {
        Self::from_phased(PhasedProfile::uniform(profile), false)
    }

    /// Run the profile in a loop forever (steady-state experiments).
    pub fn looping(profile: WorkloadProfile) -> RunningApp {
        Self::from_phased(PhasedProfile::uniform(profile), true)
    }

    /// Full control over phasing and looping.
    pub fn from_phased(profile: PhasedProfile, looping: bool) -> RunningApp {
        RunningApp {
            memo_freq: KiloHertz::ZERO,
            memo_dt_bits: 0,
            last_out: StepOutcome {
                instructions: 0,
                load: LoadDescriptor::IDLE,
                finished_run: false,
            },
            pending: 0,
            left: 0,
            memo_n: 0.0,
            memo_ips: 0.0,
            retired_in_run: 0.0,
            total_retired: 0.0,
            active_time: Seconds(0.0),
            last_ips: 0.0,
            run_len: profile.base().total_instructions as f64,
            looping,
            done: false,
            uniform: profile.is_uniform(),
            memo_filled: false,
            hits: 0,
            completed_runs: 0,
            memo_params: profile.params_at(0),
            profile,
        }
    }

    /// The base profile.
    pub fn profile(&self) -> &WorkloadProfile {
        self.profile.base()
    }

    /// Advance by `dt` at core frequency `freq`. A single-phase app's
    /// memo hit test is [`RunningApp::steady_at`]'s `(freq, dt)` key; a
    /// phased app's also compares the phase params at the run position.
    ///
    /// Inside a horizon (module docs) a hit at the memo key only counts
    /// itself as pending and returns the memo's outcome. Any other call
    /// settles the pending ticks at the memo's `n` and `dt`, runs the
    /// per-tick arithmetic, and re-derives the horizon. Both paths return
    /// the one `last_out` the slow path writes.
    #[inline]
    pub fn advance(&mut self, dt: Seconds, freq: KiloHertz) -> StepOutcome {
        if self.pending < self.left
            && self.memo_freq == freq
            && self.memo_dt_bits == dt.value().to_bits()
        {
            self.pending += 1;
        } else {
            self.step(dt, freq);
        }
        self.last_out
    }

    /// The per-tick arithmetic behind [`RunningApp::advance`]: settle,
    /// advance one tick, write `last_out`, and set the horizon.
    #[inline(never)]
    fn step(&mut self, dt: Seconds, freq: KiloHertz) {
        self.settle();
        if self.done {
            self.last_ips = 0.0;
            self.last_out = StepOutcome {
                instructions: 0,
                load: LoadDescriptor::IDLE,
                finished_run: false,
            };
            return;
        }
        debug_assert!(freq.khz() > 0, "cannot execute at zero frequency");

        let params = if self.uniform {
            self.memo_params
        } else {
            self.profile.params_at(self.retired_in_run as u64)
        };
        let dt_bits = dt.value().to_bits();
        let hit = self.memo_filled
            && self.memo_freq == freq
            && self.memo_dt_bits == dt_bits
            && (self.uniform || self.memo_params == params);
        if hit {
            self.hits = self.hits.saturating_add(1);
        } else {
            let spi = params.cpi / freq.hz() + params.mem_stall_ns * 1e-9;
            let n = dt.value() / spi;
            // Load descriptor with phase-adjusted capacitance, derated
            // toward 45% while memory-stalled (matching
            // WorkloadProfile::load_at).
            let compute = params.cpi / freq.hz();
            let cf = compute / (compute + params.mem_stall_ns * 1e-9);
            self.memo_freq = freq;
            self.memo_dt_bits = dt_bits;
            self.memo_params = params;
            self.memo_n = n;
            self.memo_ips = n / dt.value();
            self.last_out.load = LoadDescriptor {
                capacitance: params.capacitance * (0.45 + 0.55 * cf),
                utilization: 1.0,
                avx: self.profile.base().avx,
            };
            self.memo_filled = true;
            self.hits = 0;
        }
        let (mut n, mut ips) = (self.memo_n, self.memo_ips);
        let mut instructions = n.round() as u64;

        let mut finished = false;
        let remaining = self.run_len - self.retired_in_run;
        if n >= remaining {
            // The run completes inside this tick.
            n = remaining;
            instructions = n.round() as u64;
            ips = n / dt.value();
            finished = true;
            self.completed_runs += 1;
            self.retired_in_run = 0.0;
            if !self.looping {
                self.done = true;
            }
        } else {
            self.retired_in_run += n;
        }
        self.total_retired += n;
        self.active_time += dt;
        self.last_ips = ips;
        self.last_out.instructions = instructions;
        self.last_out.finished_run = finished;
        self.left = if self.uniform && !finished && self.hits >= 2 {
            self.horizon()
        } else {
            0
        };
    }

    /// How many ticks at the memo key, from the current position, provably
    /// do not end the run: an estimate from `(run_len − x)/n` less one
    /// tick of margin, capped at [`HORIZON_CAP`], and kept only if the
    /// exact last-tick test of [`RunningApp::advance_steady`] confirms
    /// its last tick (positions only grow, so no earlier tick can end the
    /// run either). Zero when `n` is not positive and finite.
    fn horizon(&self) -> u32 {
        let n = self.memo_n;
        if !(n > 0.0 && n.is_finite()) {
            return 0;
        }
        let estimate = ((self.run_len - self.retired_in_run) / n).floor() - 1.0;
        // `as` saturates: an estimate below one tick, or NaN, is none.
        let ticks = (estimate as usize).min(HORIZON_CAP);
        if ticks == 0 {
            return 0;
        }
        let last = repeat_add(self.retired_in_run, [n], ticks - 1);
        if n < self.run_len - last {
            ticks as u32
        } else {
            0
        }
    }

    /// Fold the pending ticks into the accumulators: `pending` repeats of
    /// a memo hit that does not end the run, at the memo's `n` and `dt`
    /// (not those of whatever call settles them).
    #[inline]
    fn settle(&mut self) {
        if self.pending > 0 {
            let k = self.pending as usize;
            self.retired_in_run = repeat_add(self.retired_in_run, [self.memo_n], k);
            self.total_retired = repeat_add(self.total_retired, [self.memo_n], k);
            self.active_time = Seconds(repeat_add(
                self.active_time.value(),
                [f64::from_bits(self.memo_dt_bits)],
                k,
            ));
            self.last_ips = self.memo_ips;
            self.left -= self.pending;
            self.pending = 0;
        }
    }

    /// `x` after the pending ticks' adds of `a`, on a copy.
    #[inline]
    fn folded(&self, x: f64, a: f64) -> f64 {
        if self.pending == 0 {
            x
        } else {
            repeat_add(x, [a], self.pending as usize)
        }
    }

    /// Run one tick of the per-tick protocol on `core`: advance by `dt`
    /// at the frequency the core ran at during the chip's last tick,
    /// install the resulting load and credit the retired instructions.
    /// The caller ticks the chip afterwards.
    pub fn tick_on<C: TickTarget + ?Sized>(
        &mut self,
        chip: &mut C,
        core: usize,
        dt: Seconds,
    ) -> Result<StepOutcome, C::Error> {
        let out = self.advance(dt, chip.effective_freq(core));
        chip.set_load(core, out.load)?;
        chip.add_instructions(core, out.instructions)?;
        Ok(out)
    }

    /// Whether every following `advance(dt, freq)` call is a pure memo
    /// replay whose load descriptor provably equals the one the previous
    /// call returned: single-phase looping profile, and the memo keyed on
    /// the same `(freq, dt)` (the key `advance` itself tests for a
    /// single-phase app). Run wrap-around does not break this — a
    /// single-phase looping app presents the same load across the
    /// boundary. A `once` app never qualifies: on its last tick it turns
    /// IDLE, a load change a batch would miss. Pending ticks do not
    /// matter: they never move the key. Callers use it to elide
    /// redundant `set_load` calls and batch steady intervals
    /// ([`RunningApp::advance_steady`]).
    pub fn steady_at(&self, dt: Seconds, freq: KiloHertz) -> bool {
        // Looping apps never finish, so `done` needs no separate check.
        self.looping
            && self.uniform
            && self.memo_filled
            && self.memo_freq == freq
            && self.memo_dt_bits == dt.value().to_bits()
    }

    /// Advance `k` ticks of `dt` at `freq` and return the instructions
    /// retired, summed with wrapping adds. Bit-identical to `k`
    /// [`RunningApp::advance`] calls. It settles the pending ticks first
    /// and ends any run of per-tick hits, so a caller that alternates
    /// single ticks and batches (a cluster node's interval) never pays
    /// for a horizon. While [`RunningApp::steady_at`] holds and no tick
    /// of the batch completes the run, the memo is checked once and the
    /// run position, total retired and active time fast-forward through
    /// [`repeat_add`] instead of taking one add per tick; the horizon
    /// shrinks by `k`. A tick completes the run when `n >= total − x`,
    /// with `x` the position it starts from; for `n >= 0` positions only
    /// grow, so the batch's last tick is the only one to test. A batch
    /// that completes the run (or a negative or NaN `n`) drops the
    /// horizon and falls back to the per-tick calls.
    pub fn advance_steady(&mut self, k: usize, dt: Seconds, freq: KiloHertz) -> u64 {
        self.settle();
        self.hits = 0;
        if k > 0 && self.steady_at(dt, freq) {
            let n = self.memo_n;
            let last = repeat_add(self.retired_in_run, [n], k - 1);
            if n >= 0.0 && n < self.run_len - last {
                self.retired_in_run = last + n;
                self.total_retired = repeat_add(self.total_retired, [n], k);
                self.active_time = Seconds(repeat_add(self.active_time.value(), [dt.value()], k));
                self.last_ips = self.memo_ips;
                self.left = (self.left as usize).saturating_sub(k) as u32;
                return (n.round() as u64).wrapping_mul(k as u64);
            }
        }
        self.left = 0;
        let mut credit = 0u64;
        for _ in 0..k {
            credit = credit.wrapping_add(self.advance(dt, freq).instructions);
        }
        credit
    }

    /// Fraction of the current run completed (0..1); 1.0 once done.
    /// Pending ticks are folded on a copy.
    pub fn progress(&self) -> f64 {
        if self.done {
            return 1.0;
        }
        self.folded(self.retired_in_run, self.memo_n) / self.run_len
    }

    /// Whether the app has finished (never true for looping apps).
    /// Pending ticks never end a run.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Total instructions retired across all runs, pending ticks
    /// included (folded on a copy).
    pub fn total_retired(&self) -> u64 {
        self.folded(self.total_retired, self.memo_n) as u64
    }

    /// Completed run count. Pending ticks never end a run, so there is
    /// nothing to fold.
    pub fn completed_runs(&self) -> u64 {
        self.completed_runs
    }

    /// Total time the app has been executing, pending ticks included
    /// (folded on a copy).
    pub fn active_time(&self) -> Seconds {
        Seconds(self.folded(self.active_time.value(), f64::from_bits(self.memo_dt_bits)))
    }

    /// IPS during the most recent tick: the memo's while ticks are
    /// pending.
    pub fn last_ips(&self) -> f64 {
        if self.pending > 0 {
            self.memo_ips
        } else {
            self.last_ips
        }
    }

    /// Offline baseline: IPS of the base profile running alone at `freq`
    /// (what the performance-share policy normalizes against, §5.2).
    pub fn baseline_ips(&self, freq: KiloHertz) -> f64 {
        self.profile.base().ips(freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::Phase;
    use crate::spec;

    const DT: Seconds = Seconds(0.01);

    #[test]
    fn advances_and_retires() {
        let mut app = RunningApp::once(spec::GCC);
        let out = app.advance(DT, KiloHertz::from_mhz(2200));
        assert!(out.instructions > 0);
        assert!(!out.finished_run);
        assert!(app.progress() > 0.0 && app.progress() < 1.0);
        assert!(app.last_ips() > 0.0);
        assert_eq!(out.load.utilization, 1.0);
    }

    #[test]
    fn ips_matches_profile_model() {
        let mut app = RunningApp::once(spec::LEELA);
        let f = KiloHertz::from_mhz(2200);
        app.advance(DT, f);
        let expected = spec::LEELA.ips(f);
        assert!(
            (app.last_ips() / expected - 1.0).abs() < 1e-9,
            "engine IPS {} vs model {}",
            app.last_ips(),
            expected
        );
    }

    #[test]
    fn completes_in_expected_time() {
        let mut app = RunningApp::once(spec::OMNETPP);
        let f = KiloHertz::from_mhz(2200);
        let expected = spec::OMNETPP.runtime(f);
        let mut t = 0.0;
        let dt = Seconds(0.1);
        while !app.is_done() {
            app.advance(dt, f);
            t += dt.value();
            assert!(t < expected * 2.0, "runaway run");
        }
        assert!(
            (t - expected).abs() <= 0.2 + expected * 0.01,
            "finished in {t:.1}s, model says {expected:.1}s"
        );
        assert_eq!(app.completed_runs(), 1);
        assert_eq!(app.progress(), 1.0);
    }

    #[test]
    fn done_app_goes_idle() {
        let mut app = RunningApp::once(spec::GCC);
        let f = KiloHertz::from_mhz(3000);
        while !app.is_done() {
            app.advance(Seconds(1.0), f);
        }
        let out = app.advance(DT, f);
        assert_eq!(out.instructions, 0);
        assert_eq!(out.load, LoadDescriptor::IDLE);
        assert_eq!(app.last_ips(), 0.0);
    }

    #[test]
    fn looping_app_never_finishes() {
        let mut app = RunningApp::looping(spec::GCC);
        let f = KiloHertz::from_mhz(3000);
        let mut finishes = 0;
        // long enough for several complete runs at 10x time steps
        for _ in 0..5000 {
            if app.advance(Seconds(0.1), f).finished_run {
                finishes += 1;
            }
        }
        assert!(finishes >= 2, "only {finishes} completed runs");
        assert!(!app.is_done());
        assert_eq!(app.completed_runs(), finishes);
    }

    #[test]
    fn slower_frequency_retires_fewer_instructions() {
        let mut fast = RunningApp::once(spec::EXCHANGE2);
        let mut slow = RunningApp::once(spec::EXCHANGE2);
        let a = fast.advance(DT, KiloHertz::from_mhz(3000));
        let b = slow.advance(DT, KiloHertz::from_mhz(800));
        let ratio = a.instructions as f64 / b.instructions as f64;
        // exchange2 is compute-bound: ratio close to frequency ratio 3.75
        assert!(ratio > 3.4 && ratio < 3.8, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_load_derated() {
        let mut mem = RunningApp::once(spec::OMNETPP);
        let mut cpu = RunningApp::once(spec::EXCHANGE2);
        let f = KiloHertz::from_mhz(3000);
        let lm = mem.advance(DT, f).load;
        let lc = cpu.advance(DT, f).load;
        let mem_derate = lm.capacitance / spec::OMNETPP.capacitance;
        let cpu_derate = lc.capacitance / spec::EXCHANGE2.capacitance;
        assert!(mem_derate < cpu_derate);
        assert!(cpu_derate > 0.95);
    }

    #[test]
    fn baseline_ips_uses_base_profile() {
        let app = RunningApp::once(spec::CAM4);
        let f = KiloHertz::from_mhz(1700);
        assert_eq!(app.baseline_ips(f), spec::CAM4.ips(f));
    }

    /// `gcc` cut to a run of about seven 1 ms ticks at 2 GHz, so batches
    /// cross run boundaries.
    const SHORT_GCC: WorkloadProfile = WorkloadProfile {
        total_instructions: 10_000_000,
        ..spec::GCC
    };

    /// `gcc` cut to a run of about 67 1 ms ticks at 2 GHz: long enough
    /// for a horizon to defer dozens of ticks, short enough to end runs.
    const MID_GCC: WorkloadProfile = WorkloadProfile {
        total_instructions: 100_000_000,
        ..spec::GCC
    };

    /// `app` with its pending ticks folded in, on a copy.
    fn settled(app: &RunningApp) -> RunningApp {
        let mut app = app.clone();
        app.settle();
        app
    }

    /// Drop the tick memo, so the next `advance` recomputes everything:
    /// an app treated this way before every tick is the memo-free oracle.
    fn forget_memo(app: &mut RunningApp) {
        app.settle();
        app.memo_filled = false;
    }

    fn assert_same_state(a: &RunningApp, b: &RunningApp, what: &str) {
        let (a, b) = (settled(a), settled(b));
        assert_eq!(
            a.retired_in_run.to_bits(),
            b.retired_in_run.to_bits(),
            "{what}: run position"
        );
        assert_eq!(
            a.total_retired.to_bits(),
            b.total_retired.to_bits(),
            "{what}: total retired"
        );
        assert_eq!(
            a.active_time.value().to_bits(),
            b.active_time.value().to_bits(),
            "{what}: active time"
        );
        assert_eq!(a.last_ips.to_bits(), b.last_ips.to_bits(), "{what}: IPS");
        assert_eq!(a.completed_runs, b.completed_runs, "{what}: runs");
        assert_eq!(a.done, b.done, "{what}: done");
    }

    /// Every public reader's bits, read twice (a read must not consume
    /// the pending ticks), then the settled state.
    fn assert_readers_match(app: &RunningApp, oracle: &RunningApp, what: &str) {
        for read in ["first read", "second read"] {
            let what = format!("{what}, {read}");
            assert_eq!(
                app.progress().to_bits(),
                oracle.progress().to_bits(),
                "{what}: progress"
            );
            assert_eq!(
                app.total_retired(),
                oracle.total_retired(),
                "{what}: total retired"
            );
            assert_eq!(
                app.active_time().value().to_bits(),
                oracle.active_time().value().to_bits(),
                "{what}: active time"
            );
            assert_eq!(
                app.last_ips().to_bits(),
                oracle.last_ips().to_bits(),
                "{what}: IPS"
            );
            assert_eq!(
                app.completed_runs(),
                oracle.completed_runs(),
                "{what}: runs"
            );
            assert_eq!(app.is_done(), oracle.is_done(), "{what}: done");
        }
        assert_same_state(app, oracle, what);
    }

    #[test]
    fn advance_steady_matches_per_tick_advance_across_run_wraps() {
        let (dt, f) = (Seconds(0.001), KiloHertz::from_mhz(2000));
        // A SHORT_GCC run ends inside every batch of seven ticks or more,
        // so those take the per-tick calls; a CAM4 run (~168k ticks)
        // outlasts all the batches, so each one fast-forwards. The
        // per-tick side defers most of its ticks.
        for (profile, wraps) in [(SHORT_GCC, true), (spec::CAM4, false)] {
            let mut batched = RunningApp::looping(profile);
            batched.advance(dt, f);
            let mut stepped = batched.clone();
            assert!(batched.steady_at(dt, f));
            for k in [0, 1, 2, 7, 499, 100_000] {
                let credit = batched.advance_steady(k, dt, f);
                let expected = (0..k).fold(0u64, |sum, _| {
                    sum.wrapping_add(stepped.advance(dt, f).instructions)
                });
                let what = format!("{}, batch of {k}", profile.name);
                assert_eq!(credit, expected, "{what}: instructions");
                assert_readers_match(&batched, &stepped, &what);
            }
            if wraps {
                assert!(
                    batched.completed_runs() > 50,
                    "the batches must cross run boundaries"
                );
            } else {
                assert_eq!(batched.completed_runs(), 0, "no batch may end the run");
            }
        }
    }

    #[test]
    fn once_app_is_not_steady_on_its_last_tick() {
        let (dt, f) = (Seconds(0.001), KiloHertz::from_mhz(2000));
        let mut app = RunningApp::once(SHORT_GCC);
        while !app.clone().advance(dt, f).finished_run {
            app.advance(dt, f);
        }
        // The memo still matches, but this tick ends the run and the app
        // turns IDLE: a batch that replayed its busy load would miss that.
        assert!(!app.steady_at(dt, f));
        let mut batched = app.clone();
        let last = app.advance(dt, f);
        assert!(last.finished_run);
        let after = app.advance(dt, f);
        assert_eq!(after.load, LoadDescriptor::IDLE);
        // advance_steady falls back to per-tick calls and follows it.
        assert_eq!(
            batched.advance_steady(2, dt, f),
            last.instructions + after.instructions
        );
        assert_readers_match(&batched, &app, "once app past its end");
    }

    #[test]
    fn phased_app_rekeys_its_memo_at_a_phase_boundary() {
        let (dt, f) = (Seconds(0.001), KiloHertz::from_mhz(2000));
        let phase = |fraction, mult| Phase {
            fraction,
            cpi_mult: mult,
            stall_mult: 1.0,
            cap_mult: mult,
        };
        let profile = PhasedProfile::with_phases(SHORT_GCC, vec![phase(0.5, 1.0), phase(0.5, 1.5)]);
        let mut memoized = RunningApp::from_phased(profile, true);
        let mut fresh = memoized.clone();
        let mut capacitances = Vec::new();
        // One frequency and one tick throughout: only the phase moves, so
        // only the params compare can tell the memo it is stale.
        for t in 0..40 {
            let out = memoized.advance(dt, f);
            forget_memo(&mut fresh);
            let expected = fresh.advance(dt, f);
            assert_eq!(out, expected, "tick {t}: outcome");
            assert_same_state(&memoized, &fresh, &format!("tick {t}"));
            if !capacitances.contains(&out.load.capacitance) {
                capacitances.push(out.load.capacitance);
            }
        }
        assert_eq!(
            capacitances.len(),
            2,
            "the ticks must cross phase boundaries"
        );
        assert!(memoized.completed_runs() > 2, "and run boundaries");
    }

    /// One stretch of a deferral script.
    #[derive(Clone, Copy, Debug)]
    enum Drive {
        /// `n` per-tick `advance` calls.
        Ticks(usize, Seconds, KiloHertz),
        /// One `advance_steady` batch of `k` ticks.
        Batch(usize, Seconds, KiloHertz),
        /// One `advance_steady` batch that ends exactly on the tick that
        /// completes the run.
        BatchToRunEnd(Seconds, KiloHertz),
    }

    /// What a scripted drive saw of the deferral.
    #[derive(Default)]
    struct Seen {
        /// Most ticks held pending at a stretch's end.
        most_pending: u32,
        /// For each batch in script order: the ticks pending when it
        /// began, and the horizon left after it.
        batches: Vec<(u32, u32)>,
    }

    /// Drive `app` through `script` beside a memo-free copy (its memo
    /// dropped before every tick) and compare every outcome, every
    /// batch's credit and, after every stretch, every reader.
    fn check_against_oracle(app: RunningApp, script: &[Drive], what: &str) -> Seen {
        fn oracle_tick(oracle: &mut RunningApp, dt: Seconds, f: KiloHertz) -> StepOutcome {
            forget_memo(oracle);
            oracle.advance(dt, f)
        }
        let mut app = app;
        let mut oracle = app.clone();
        let mut seen = Seen::default();
        for (i, &stretch) in script.iter().enumerate() {
            let what = format!("{what}, stretch {i} ({stretch:?})");
            match stretch {
                Drive::Ticks(n, dt, f) => {
                    for t in 0..n {
                        let out = app.advance(dt, f);
                        assert_eq!(out, oracle_tick(&mut oracle, dt, f), "{what}: tick {t}");
                    }
                }
                Drive::Batch(k, dt, f) => {
                    let pending = app.pending;
                    let credit = app.advance_steady(k, dt, f);
                    seen.batches.push((pending, app.left));
                    let expected = (0..k).fold(0u64, |sum, _| {
                        sum.wrapping_add(oracle_tick(&mut oracle, dt, f).instructions)
                    });
                    assert_eq!(credit, expected, "{what}: credit");
                }
                Drive::BatchToRunEnd(dt, f) => {
                    let pending = app.pending;
                    let mut credit = 0u64;
                    let mut k = 0;
                    loop {
                        let out = oracle_tick(&mut oracle, dt, f);
                        credit = credit.wrapping_add(out.instructions);
                        k += 1;
                        if out.finished_run {
                            break;
                        }
                    }
                    assert_eq!(app.advance_steady(k, dt, f), credit, "{what}: credit");
                    seen.batches.push((pending, app.left));
                }
            }
            seen.most_pending = seen.most_pending.max(app.pending);
            assert_readers_match(&app, &oracle, &what);
        }
        seen
    }

    #[test]
    fn deferred_ticks_match_the_memo_free_oracle() {
        let ms = Seconds(0.001);
        let (f, g) = (KiloHertz::from_mhz(2000), KiloHertz::from_mhz(2600));
        let dt2 = Seconds(0.0025);
        let looping = [
            // Settle into a horizon, then a frequency change and back.
            Drive::Ticks(20, ms, f),
            Drive::Ticks(20, ms, g),
            Drive::Ticks(10, ms, f),
            // A dt change meets pending ticks: they settle at their own dt.
            Drive::Ticks(20, dt2, f),
            Drive::Ticks(10, ms, f),
            // A batch meets pending ticks inside a horizon; the ticks
            // after it defer in what is left of it, through a run end.
            Drive::Batch(5, ms, f),
            Drive::Ticks(100, ms, f),
            // A batch whose last tick ends the run only counting the
            // pending ticks.
            Drive::BatchToRunEnd(ms, f),
            Drive::Ticks(12, ms, f),
            Drive::Batch(3, ms, g),
            Drive::Ticks(12, ms, f),
            // Ticks through many run ends.
            Drive::Ticks(300, ms, f),
            Drive::Batch(150, ms, f),
            Drive::Ticks(75, ms, f),
        ];
        let short = check_against_oracle(RunningApp::looping(SHORT_GCC), &looping, "short");
        let mid = check_against_oracle(RunningApp::looping(MID_GCC), &looping, "mid");
        assert!(
            short.most_pending > 1 && mid.most_pending > 1,
            "the apps must defer"
        );
        // Only a run long enough for a horizon meets the first two
        // batches with ticks pending, and keeps a horizon past the first.
        let (first, run_end) = (mid.batches[0], mid.batches[1]);
        assert!(first.0 > 1 && first.1 > 0, "first batch {first:?}");
        assert!(run_end.0 > 1, "run-end batch {run_end:?}");
        // A `once` app runs through its end, then idles.
        let once = [
            Drive::Ticks(30, ms, f),
            Drive::Batch(10, ms, f),
            Drive::Ticks(15, ms, f),
            Drive::Ticks(60, ms, f),
            Drive::Batch(10, ms, f),
            Drive::Ticks(10, ms, f),
        ];
        let seen = check_against_oracle(RunningApp::once(MID_GCC), &once, "once");
        assert!(seen.most_pending > 1, "a once app defers until its end");
        // A phased app re-derives its params every tick and never defers.
        let phase = |fraction, mult| Phase {
            fraction,
            cpi_mult: mult,
            stall_mult: 1.0,
            cap_mult: mult,
        };
        let phased = PhasedProfile::with_phases(MID_GCC, vec![phase(0.5, 1.0), phase(0.5, 1.5)]);
        let script = [
            Drive::Ticks(200, ms, f),
            Drive::Batch(20, ms, f),
            Drive::Ticks(50, ms, g),
        ];
        let seen = check_against_oracle(RunningApp::from_phased(phased, true), &script, "phased");
        assert_eq!(seen.most_pending, 0, "a phased app never defers");
    }

    /// Ticks from `app`'s position until the tick that completes its run,
    /// by the per-tick test on positions fast-forwarded through
    /// `repeat_add` (binary search: positions only grow).
    fn ticks_to_run_end(app: &RunningApp) -> usize {
        let (x, n) = (app.retired_in_run, app.memo_n);
        let ends = |t: usize| n >= app.run_len - repeat_add(x, [n], t - 1);
        let (mut lo, mut hi) = (1usize, 1usize);
        while !ends(hi) {
            lo = hi + 1;
            hi *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ends(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn horizon_ends_runs_on_the_oracles_tick() {
        let f = KiloHertz::from_mhz(2000);
        // About 100.3 instructions a tick. In the last binades of a
        // 2^60-instruction run every such add lands a whole 128-ulp step
        // further on, so positions run ~28% ahead of `n` per tick and
        // the horizon's estimate overshoots: only its verification keeps
        // the run end on the per-tick path.
        let coarse = WorkloadProfile {
            total_instructions: 1 << 60,
            ..spec::GCC
        };
        let coarse_dt = Seconds(100.3 * spec::GCC.seconds_per_instruction(f));
        for (profile, dt) in [(spec::CAM4, Seconds(0.001)), (coarse, coarse_dt)] {
            for before in [1, 2, 3, 5, 8, 20, 200] {
                let what = format!("{}, {before} ticks before the end", profile.name);
                let mut app = RunningApp::looping(profile);
                app.advance(dt, f);
                app.advance_steady(ticks_to_run_end(&app) - before, dt, f);
                let mut oracle = app.clone();
                let mut finished = Vec::new();
                for t in 0..before + 10 {
                    let out = app.advance(dt, f);
                    forget_memo(&mut oracle);
                    assert_eq!(out, oracle.advance(dt, f), "{what}: tick {t}");
                    if out.finished_run {
                        finished.push(t);
                    }
                }
                assert_eq!(finished, [before - 1], "{what}: the run end");
                assert_readers_match(&app, &oracle, &what);
            }
        }
    }

    #[test]
    fn a_settled_app_defers_every_tick_of_its_horizon() {
        let (dt, f) = (Seconds(0.01), KiloHertz::from_mhz(2000));
        let mut app = RunningApp::looping(spec::GCC);
        for _ in 0..3 {
            app.advance(dt, f);
        }
        let horizon = app.left;
        assert!(
            horizon > 10_000,
            "a gcc run is ~16k ticks, horizon {horizon}"
        );
        for _ in 0..horizon {
            app.advance(dt, f);
        }
        assert_eq!(app.pending, horizon, "every tick of the horizon defers");
        // The layout the fast path relies on: key, outcome and counts in
        // the first 64 bytes, the whole app within today's four lines.
        assert!(std::mem::offset_of!(RunningApp, left) + 4 <= 64);
        assert!(std::mem::size_of::<RunningApp>() <= 256);
    }

    #[test]
    fn active_time_accumulates() {
        let mut app = RunningApp::once(spec::GCC);
        for _ in 0..10 {
            app.advance(DT, KiloHertz::from_mhz(2000));
        }
        assert!((app.active_time().value() - 0.1).abs() < 1e-9);
    }
}
