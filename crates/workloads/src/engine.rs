//! The workload execution engine.
//!
//! A [`RunningApp`] advances a (possibly phased) workload profile through
//! simulated time at whatever frequency the chip resolved for its core,
//! retiring instructions and producing the [`LoadDescriptor`] the power
//! model consumes. [`RunningApp::tick_on`] is the per-tick protocol
//! documented on [`pap_simcpu::chip::Chip`].

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::error::Result;
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

/// Memoized per-tick arithmetic: everything [`RunningApp::advance`]
/// derives purely from `(freq, dt, phase params)`, cached so the fleet
/// steady state (same frequency, same tick, same phase for millions of
/// consecutive ticks) pays the divisions once. A replayed hit is
/// bit-identical to recomputation because the expressions are pure. A
/// single-phase app's params never change, so its hit test compares
/// `(freq, dt)` alone; a phased app's also compares `params`.
#[derive(Debug, Clone, Copy)]
struct TickMemo {
    freq: KiloHertz,
    dt_bits: u64,
    params: PhaseParams,
    /// Instructions the tick retires (before run-boundary clamping).
    n: f64,
    /// `n.round()`, the reported integer retirement.
    instructions: u64,
    /// `n / dt`.
    ips: f64,
    load: LoadDescriptor,
}

/// An application executing on one core.
#[derive(Debug, Clone)]
pub struct RunningApp {
    profile: PhasedProfile,
    /// Instructions retired in the current run (may exceed one run when
    /// looping; see [`RunningApp::total_retired`] for the grand total).
    retired_in_run: f64,
    total_retired: f64,
    active_time: Seconds,
    completed_runs: u64,
    looping: bool,
    done: bool,
    last_ips: f64,
    memo: Option<TickMemo>,
    /// Phase parameters of a single-phase profile, fixed for the app's
    /// lifetime; `None` for phased profiles, which re-derive them per
    /// tick from run position.
    steady_params: Option<PhaseParams>,
    /// Instructions in one run, as the `f64` the run-end test compares.
    run_len: f64,
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
        let steady_params = profile.is_uniform().then(|| profile.params_at(0));
        RunningApp {
            run_len: profile.base().total_instructions as f64,
            profile,
            steady_params,
            retired_in_run: 0.0,
            total_retired: 0.0,
            active_time: Seconds(0.0),
            completed_runs: 0,
            looping,
            done: false,
            last_ips: 0.0,
            memo: None,
        }
    }

    /// The base profile.
    pub fn profile(&self) -> &WorkloadProfile {
        self.profile.base()
    }

    /// Advance by `dt` at core frequency `freq`. A single-phase app's
    /// memo hit test is [`RunningApp::steady_at`]'s `(freq, dt)` key; a
    /// phased app's also compares the phase params at the run position.
    #[inline]
    pub fn advance(&mut self, dt: Seconds, freq: KiloHertz) -> StepOutcome {
        if self.done {
            self.last_ips = 0.0;
            return StepOutcome {
                instructions: 0,
                load: LoadDescriptor::IDLE,
                finished_run: false,
            };
        }
        debug_assert!(freq.khz() > 0, "cannot execute at zero frequency");

        let params = match self.steady_params {
            Some(p) => p,
            None => self.profile.params_at(self.retired_in_run as u64),
        };
        let hit = self.memo.as_ref().is_some_and(|m| {
            m.freq == freq
                && m.dt_bits == dt.value().to_bits()
                && (self.steady_params.is_some() || m.params == params)
        });
        if !hit {
            let spi = params.cpi / freq.hz() + params.mem_stall_ns * 1e-9;
            let n = dt.value() / spi;
            // Load descriptor with phase-adjusted capacitance, derated
            // toward 45% while memory-stalled (matching
            // WorkloadProfile::load_at).
            let compute = params.cpi / freq.hz();
            let cf = compute / (compute + params.mem_stall_ns * 1e-9);
            self.memo = Some(TickMemo {
                freq,
                dt_bits: dt.value().to_bits(),
                params,
                n,
                instructions: n.round() as u64,
                ips: n / dt.value(),
                load: LoadDescriptor {
                    capacitance: params.capacitance * (0.45 + 0.55 * cf),
                    utilization: 1.0,
                    avx: self.profile.base().avx,
                },
            });
        }
        let m = self.memo.as_ref().expect("memo was just (re)filled");
        let load = m.load;
        let (mut n, mut instructions, mut ips) = (m.n, m.instructions, m.ips);

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

        StepOutcome {
            instructions,
            load,
            finished_run: finished,
        }
    }

    /// Run one tick of the per-tick protocol on `core`: advance by `dt`
    /// at the frequency the core ran at during the chip's last tick,
    /// install the resulting load and credit the retired instructions.
    /// The caller ticks the chip afterwards.
    pub fn tick_on<C: ChipLike>(
        &mut self,
        chip: &mut C,
        core: usize,
        dt: Seconds,
    ) -> Result<StepOutcome> {
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
    /// IDLE, a load change a batch would miss. Drivers use it to elide
    /// redundant `set_load` calls and batch steady intervals
    /// ([`RunningApp::advance_steady`]).
    pub fn steady_at(&self, dt: Seconds, freq: KiloHertz) -> bool {
        // Looping apps never finish, so `done` needs no separate check.
        self.looping
            && self.steady_params.is_some()
            && self
                .memo
                .as_ref()
                .is_some_and(|m| m.freq == freq && m.dt_bits == dt.value().to_bits())
    }

    /// Advance `k` ticks of `dt` at `freq` and return the instructions
    /// retired, summed with wrapping adds. Bit-identical to `k`
    /// [`RunningApp::advance`] calls. While [`RunningApp::steady_at`]
    /// holds and no tick of the batch completes the run, the memo is
    /// checked once and the run position, total retired and active time
    /// fast-forward through [`repeat_add`] instead of taking one add per
    /// tick. A tick completes the run when `n >= total − x`, with `x` the
    /// position it starts from; for `n >= 0` positions only grow, so the
    /// batch's last tick is the only one to test. A batch that completes
    /// the run (or a negative or NaN `n`) falls back to the per-tick
    /// calls.
    pub fn advance_steady(&mut self, k: usize, dt: Seconds, freq: KiloHertz) -> u64 {
        if k > 0 && self.steady_at(dt, freq) {
            let m = self.memo.expect("steady_at checked the memo");
            let last = repeat_add(self.retired_in_run, [m.n], k - 1);
            if m.n >= 0.0 && m.n < self.run_len - last {
                self.retired_in_run = last + m.n;
                self.total_retired = repeat_add(self.total_retired, [m.n], k);
                self.active_time = Seconds(repeat_add(self.active_time.value(), [dt.value()], k));
                self.last_ips = m.ips;
                return m.instructions.wrapping_mul(k as u64);
            }
        }
        let mut credit = 0u64;
        for _ in 0..k {
            credit = credit.wrapping_add(self.advance(dt, freq).instructions);
        }
        credit
    }

    /// Fraction of the current run completed (0..1); 1.0 once done.
    pub fn progress(&self) -> f64 {
        if self.done {
            return 1.0;
        }
        self.retired_in_run / self.run_len
    }

    /// Whether the app has finished (never true for looping apps).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Total instructions retired across all runs.
    pub fn total_retired(&self) -> u64 {
        self.total_retired as u64
    }

    /// Completed run count.
    pub fn completed_runs(&self) -> u64 {
        self.completed_runs
    }

    /// Total time the app has been executing.
    pub fn active_time(&self) -> Seconds {
        self.active_time
    }

    /// IPS during the most recent tick.
    pub fn last_ips(&self) -> f64 {
        self.last_ips
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

    fn assert_same_state(a: &RunningApp, b: &RunningApp, what: &str) {
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

    #[test]
    fn advance_steady_matches_per_tick_advance_across_run_wraps() {
        let (dt, f) = (Seconds(0.001), KiloHertz::from_mhz(2000));
        // A SHORT_GCC run ends inside every batch of seven ticks or more,
        // so those take the per-tick calls; a CAM4 run (~168k ticks)
        // outlasts all the batches, so each one fast-forwards.
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
                assert_same_state(&batched, &stepped, &what);
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
        app.advance(dt, f);
        let per_tick = app.memo.expect("memo filled").n;
        while app.retired_in_run + per_tick < SHORT_GCC.total_instructions as f64 {
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
        assert_same_state(&batched, &app, "once app past its end");
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
            fresh.memo = None;
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

    #[test]
    fn active_time_accumulates() {
        let mut app = RunningApp::once(spec::GCC);
        for _ in 0..10 {
            app.advance(DT, KiloHertz::from_mhz(2000));
        }
        assert!((app.active_time().value() - 0.1).abs() < 1e-9);
    }
}
