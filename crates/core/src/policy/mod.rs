//! Differential power-delivery policies (§4, §5).
//!
//! Every policy consumes the same telemetry view and produces per-app
//! frequency targets (plus park decisions for the priority policy). Share
//! policies follow the paper's three-function structure:
//!
//! 1. an **initial distribution** run when applications start,
//! 2. a **redistribution** run when measured power deviates from the
//!    limit, applying min-funding revocation over saturated apps,
//! 3. a **translation** from resource units to programmable frequencies.
//!
//! [`Policy::initial_into`] is (1); [`Policy::step_into`] is (2)+(3).

pub mod fastcap;
pub mod frequency_shares;
pub mod minfund;
pub mod performance_shares;
pub mod power_shares;
pub mod priority;
pub mod single_core;

use pap_model::{NaiveAlpha, TranslationModel};
use pap_simcpu::freq::{FreqGrid, KiloHertz};
use pap_simcpu::units::Watts;

use crate::config::Priority;
use crate::policy::minfund::Claim;

/// Telemetry view of one application, refreshed every control interval.
#[derive(Debug, Clone, PartialEq)]
pub struct AppView {
    /// Core the app is pinned to.
    pub core: usize,
    /// Proportional shares.
    pub shares: f64,
    /// Priority class.
    pub priority: Priority,
    /// Measured active frequency over the last interval (zero if the core
    /// slept through it).
    pub active_freq: KiloHertz,
    /// Measured per-core power, where the platform provides it.
    pub power: Option<Watts>,
    /// Measured instructions per second.
    pub ips: f64,
    /// Offline baseline IPS at maximum standalone frequency.
    pub baseline_ips: f64,
}

impl AppView {
    /// Normalized performance: measured IPS over the offline baseline.
    pub fn normalized_perf(&self) -> f64 {
        if self.baseline_ips <= 0.0 {
            0.0
        } else {
            self.ips / self.baseline_ips
        }
    }
}

/// Static context shared by all policies.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCtx {
    /// The platform's programmable frequency grid.
    pub grid: FreqGrid,
    /// `MaxPower` in the paper's α model; we use the platform TDP.
    pub max_power: Watts,
    /// The power limit to enforce.
    pub limit: Watts,
    /// Control deadband: inside `limit ± deadband` no redistribution runs.
    pub deadband: Watts,
    /// Damping on the α-model correction (1.0 = paper's raw formula; lower
    /// trades settling time for stability).
    pub damping: f64,
}

impl PolicyCtx {
    /// Context with default controller tuning.
    pub fn new(grid: FreqGrid, max_power: Watts, limit: Watts) -> PolicyCtx {
        PolicyCtx {
            grid,
            max_power,
            limit,
            deadband: Watts(0.5),
            damping: 0.6,
        }
    }
}

/// Per-interval input to a policy step.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyInput<'a> {
    /// Measured package power over the last interval.
    pub package_power: Watts,
    /// Telemetry per app.
    pub apps: &'a [AppView],
    /// The frequency targets the daemon currently has programmed, one per
    /// app in the same order.
    pub current: &'a [KiloHertz],
}

/// A policy decision: one frequency target and park flag per app, in app
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyOutput {
    /// Frequency targets (ignored for parked apps).
    pub freqs: Vec<KiloHertz>,
    /// Apps whose cores should be put to sleep (priority starvation).
    pub parked: Vec<bool>,
}

impl PolicyOutput {
    /// All apps running at the given frequencies, none parked.
    pub fn running(freqs: Vec<KiloHertz>) -> PolicyOutput {
        let n = freqs.len();
        PolicyOutput {
            freqs,
            parked: vec![false; n],
        }
    }

    /// Refill in place as "all running": frequencies from the iterator,
    /// nothing parked. Reuses the existing buffers (no allocation once
    /// capacity is established).
    pub fn set_running<I: IntoIterator<Item = KiloHertz>>(&mut self, freqs: I) {
        self.freqs.clear();
        self.freqs.extend(freqs);
        self.parked.clear();
        self.parked.resize(self.freqs.len(), false);
    }
}

/// Reusable buffers for [`Policy::step_into`] (DESIGN.md §11): claim,
/// allocation, and saturation vectors whose capacity survives across
/// control intervals so the steady-state step allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    /// Claim list for min-funding revocation.
    pub claims: Vec<Claim>,
    /// Allocation output for [`minfund::distribute_into`] /
    /// [`minfund::proportional_fill_into`].
    pub alloc: Vec<f64>,
    /// Saturation flags for [`minfund::distribute_into`].
    pub saturated: Vec<bool>,
}

impl PolicyScratch {
    /// Scratch pre-sized for `napps` applications.
    pub fn with_capacity(napps: usize) -> PolicyScratch {
        PolicyScratch {
            claims: Vec::with_capacity(napps),
            alloc: Vec::with_capacity(napps),
            saturated: Vec::with_capacity(napps),
        }
    }
}

/// A differential power-delivery policy.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Initial distribution when applications start, written into
    /// `out`. The daemon re-runs it after every membership change, so
    /// implementations refill `out` and their own per-app state in place:
    /// once capacity is established, a re-run allocates nothing.
    fn initial_into(&mut self, ctx: &PolicyCtx, apps: &[AppView], out: &mut PolicyOutput);

    /// Initial distribution when applications start. Convenience wrapper
    /// over [`Policy::initial_into`] with a fresh buffer.
    fn initial(&mut self, ctx: &PolicyCtx, apps: &[AppView]) -> PolicyOutput {
        let mut out = PolicyOutput::default();
        self.initial_into(ctx, apps, &mut out);
        out
    }

    /// Redistribution + translation for one control interval, written
    /// into `out` using `scratch` for intermediates. This is the hot
    /// path: implementations must not allocate once `scratch`/`out` (and
    /// any internal state) have reached steady-state capacity.
    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    );

    /// Redistribution + translation for one control interval, with the
    /// budget-to-frequency translation answered by `model`. Convenience
    /// wrapper over [`Policy::step_into`] with fresh buffers.
    fn step_with(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
    ) -> PolicyOutput {
        let mut scratch = PolicyScratch::default();
        let mut out = PolicyOutput::default();
        self.step_into(ctx, input, model, &mut scratch, &mut out);
        out
    }

    /// Redistribution + translation under the paper's naïve α
    /// translation (seed behaviour).
    fn step(&mut self, ctx: &PolicyCtx, input: &PolicyInput<'_>) -> PolicyOutput {
        self.step_with(ctx, input, &NaiveAlpha)
    }
}

/// The share-proportional initial split (§5.2): the highest-share app
/// gets `max_value` and every other app its share's proportion of it,
/// floored at `min_value` (the paper's low dynamic range: extreme ratios
/// are unachievable).
fn initial_split(
    apps: &[AppView],
    max_value: f64,
    min_value: f64,
) -> impl Iterator<Item = f64> + '_ {
    debug_assert!(apps.iter().all(|a| a.shares > 0.0));
    let top = apps.iter().map(|a| a.shares).fold(0.0_f64, f64::max);
    apps.iter().map(move |a| {
        if top <= 0.0 {
            min_value
        } else {
            (max_value * a.shares / top).max(min_value).min(max_value)
        }
    })
}

/// Saturation-aware upper bound for raising an app's frequency: if the
/// measured frequency lags the programmed target by more than two grid
/// steps the core is capped by something the daemon does not control
/// (AVX license, turbo budget, RAPL), so granting it more frequency would
/// waste the resource. The bound is then just above what it measurably
/// achieves ("identifying saturation", §5).
pub fn useful_max(grid: &FreqGrid, requested: KiloHertz, measured: KiloHertz) -> KiloHertz {
    let two_steps = KiloHertz(grid.step().khz() * 2);
    if measured > KiloHertz::ZERO && requested > measured + two_steps {
        grid.round(measured + grid.step())
    } else {
        grid.max()
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

    #[test]
    fn normalized_perf() {
        let mut v = AppView {
            core: 0,
            shares: 50.0,
            priority: Priority::High,
            active_freq: KiloHertz::from_mhz(2000),
            power: None,
            ips: 1.5e9,
            baseline_ips: 3.0e9,
        };
        assert!((v.normalized_perf() - 0.5).abs() < 1e-12);
        v.baseline_ips = 0.0;
        assert_eq!(v.normalized_perf(), 0.0);
    }

    #[test]
    fn useful_max_detects_hardware_caps() {
        let g = grid();
        // AVX app: asked for 2.4 GHz but measures 1.7 GHz -> cap near 1.8
        let m = useful_max(&g, KiloHertz::from_mhz(2400), KiloHertz::from_mhz(1700));
        assert_eq!(m, KiloHertz::from_mhz(1800));
        // tracking fine -> full headroom
        let m = useful_max(&g, KiloHertz::from_mhz(2400), KiloHertz::from_mhz(2400));
        assert_eq!(m, g.max());
        let m = useful_max(&g, KiloHertz::from_mhz(2400), KiloHertz::from_mhz(2300));
        assert_eq!(m, g.max());
        // idle core (zero measured) is not treated as saturated
        let m = useful_max(&g, KiloHertz::from_mhz(2400), KiloHertz::ZERO);
        assert_eq!(m, g.max());
    }

    #[test]
    fn initial_split_tops_highest_share() {
        let apps = |shares: [f64; 2]| {
            shares.map(|shares| AppView {
                core: 0,
                shares,
                priority: Priority::High,
                active_freq: KiloHertz::ZERO,
                power: None,
                ips: 0.0,
                baseline_ips: 0.0,
            })
        };
        let v: Vec<f64> = initial_split(&apps([90.0, 10.0]), 3000.0, 800.0).collect();
        assert!((v[0] - 3000.0).abs() < 1e-9);
        // 10/90 of 3000 = 333 -> floored at 800 (the paper's low dynamic
        // range observation: extreme ratios are unachievable)
        assert!((v[1] - 800.0).abs() < 1e-9);
        let v: Vec<f64> = initial_split(&apps([70.0, 30.0]), 3000.0, 800.0).collect();
        assert!((v[1] - 3000.0 * 30.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn output_running_helper() {
        let o = PolicyOutput::running(vec![KiloHertz::from_mhz(1000); 3]);
        assert_eq!(o.parked, vec![false; 3]);
    }
}
