//! The budget-to-frequency translation seam.
//!
//! The paper's controllers all share one step: turn a package power
//! error (watts) into a frequency or performance delta. The seed does
//! this with the deliberately naïve linear model `α = ΔP/P_max` —
//! "wrong in general (power is super-linear in frequency)" — and lets
//! the closed loop absorb the error over several intervals.
//! [`TranslationModel`] makes that step pluggable:
//!
//! * [`NaiveAlpha`] reproduces the paper's formula bit-for-bit (the
//!   same IEEE-754 operations in the same order as
//!   `powerd::alpha`), so selecting it is behaviourally identical to
//!   the seed;
//! * [`OnlineModel`] answers from curves learned out of the very
//!   telemetry the daemon already samples — an exact inversion of a
//!   fitted package power curve, and per-app performance
//!   scalability — and *hard-falls-back* to [`NaiveAlpha`]'s exact
//!   arithmetic whenever any needed fit fails its confidence gate, so
//!   behaviour is never worse than the seed.

use std::cell::Cell;
use std::collections::BTreeMap;

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::units::Watts;
use pap_telemetry::sampler::Sample;

use crate::power::{CurveSnapshot, EstimatorConfig, PowerCurveEstimator};
use crate::scalability::{ScalabilityConfig, ScalabilityEstimator, ScalabilitySnapshot};

/// Which translation model a daemon uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationKind {
    /// The paper's naïve `α = ΔP/P_max` linear translation (seed
    /// behaviour).
    #[default]
    Naive,
    /// The learned translation with hard fallback to naïve α while
    /// unconfident.
    Online,
}

impl TranslationKind {
    /// Short name, as accepted by `powerd-sim --model`.
    pub fn name(self) -> &'static str {
        match self {
            TranslationKind::Naive => "naive",
            TranslationKind::Online => "online",
        }
    }

    /// Parse a `--model` argument.
    pub fn parse(s: &str) -> Option<TranslationKind> {
        match s {
            "naive" => Some(TranslationKind::Naive),
            "online" => Some(TranslationKind::Online),
            _ => None,
        }
    }
}

/// Everything a policy knows at the translation step.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationQuery<'a> {
    /// Signed power error to absorb (positive = raise frequencies).
    pub power_error: Watts,
    /// The platform's maximum package power (the paper's `P_max`).
    pub max_power: Watts,
    /// The grid's maximum frequency (the paper's `MaxFrequency`).
    pub max_freq: KiloHertz,
    /// Cores with headroom in the direction of the error (the paper's
    /// `NumAvailableCores`).
    pub available: usize,
    /// The paper's `MaxPerformance` (1.0 in normalized units).
    pub max_performance: f64,
    /// Current per-core operating frequencies of the managed cores,
    /// for evaluating local slopes.
    pub current: &'a [KiloHertz],
}

/// A pluggable budget-to-frequency/performance translation.
pub trait TranslationModel {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Total frequency delta (kHz, across all available cores) that
    /// should absorb `power_error`. The caller applies damping and
    /// distributes the delta over cores.
    fn frequency_delta_khz(&self, q: &TranslationQuery<'_>) -> f64;

    /// Total performance delta (normalized units, across all available
    /// cores) that should absorb `power_error`.
    fn performance_delta(&self, q: &TranslationQuery<'_>) -> f64;

    /// Learned actuation gain for one core (kHz of frequency per watt
    /// of power), if a trusted per-core power curve exists. `None`
    /// means the caller should use its configured static gain.
    fn khz_per_watt(&self, _core: usize, _freq: KiloHertz) -> Option<f64> {
        None
    }

    /// Whether the model trusts its package power fit enough for global
    /// optimization policies (FastCap) to build allocations on its
    /// answers. The default is `false`: a model with no learned state
    /// forces optimizers down their share-based fallback, so behaviour
    /// can never be worse than the seed.
    fn package_confident(&self) -> bool {
        false
    }
}

/// The naïve translation arithmetic, shared verbatim by [`NaiveAlpha`]
/// and [`OnlineModel`]'s fallback path. Degenerate inputs yield a zero
/// delta (never NaN/inf), mirroring the hardened `powerd::alpha`.
fn naive_frequency_delta_khz(q: &TranslationQuery<'_>) -> f64 {
    if !q.power_error.value().is_finite()
        || !q.max_power.value().is_finite()
        || q.max_power.value() <= 0.0
        || q.available == 0
    {
        return 0.0;
    }
    let alpha = q.power_error.value() / q.max_power.value();
    alpha * q.max_freq.khz() as f64 * q.available as f64
}

/// Performance-delta counterpart of [`naive_frequency_delta_khz`].
fn naive_performance_delta(q: &TranslationQuery<'_>) -> f64 {
    if !q.power_error.value().is_finite()
        || !q.max_power.value().is_finite()
        || q.max_power.value() <= 0.0
        || !q.max_performance.is_finite()
        || q.available == 0
    {
        return 0.0;
    }
    let alpha = q.power_error.value() / q.max_power.value();
    alpha * q.max_performance * q.available as f64
}

/// The paper's naïve α translation as a [`TranslationModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveAlpha;

impl TranslationModel for NaiveAlpha {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn frequency_delta_khz(&self, q: &TranslationQuery<'_>) -> f64 {
        naive_frequency_delta_khz(q)
    }

    fn performance_delta(&self, q: &TranslationQuery<'_>) -> f64 {
        naive_performance_delta(q)
    }
}

/// Tunables for the whole online model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelConfig {
    /// Power-curve estimator tunables (package and per-core fits).
    pub power: EstimatorConfig,
    /// Per-app scalability estimator tunables.
    pub scalability: ScalabilityConfig,
}

impl ModelConfig {
    /// Confidence gates that can never pass: the model keeps learning
    /// but answers every query through the naïve fallback. Used to
    /// prove fallback bit-identicality.
    pub fn never_confident() -> ModelConfig {
        ModelConfig {
            power: EstimatorConfig::never_confident(),
            scalability: ScalabilityConfig::never_confident(),
        }
    }
}

/// One per-app scalability entry in a [`ModelSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppFitSnapshot {
    /// The core the app is pinned to.
    pub core: usize,
    /// The fit state.
    pub fit: ScalabilitySnapshot,
}

/// Reportable state of an [`OnlineModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Whether learning was enabled at snapshot time (the resilience
    /// layer gates this off during telemetry outages).
    pub learning: bool,
    /// The package power-vs-total-effective-GHz fit.
    pub package: CurveSnapshot,
    /// Per-core power fits, for platforms with per-core energy.
    /// Indexed by core; cores never observed are absent.
    pub cores: Vec<(usize, CurveSnapshot)>,
    /// Per-app scalability fits.
    pub apps: Vec<AppFitSnapshot>,
    /// Translation queries answered since construction.
    pub queries: u64,
    /// Queries answered through the naïve fallback.
    pub fallbacks: u64,
    /// RMS of the package-power prediction error (watts) over the
    /// intervals where the fit was already confident; `None` until the
    /// fit first becomes confident.
    pub prediction_rms_watts: Option<f64>,
}

impl ModelSnapshot {
    /// Fraction of translation queries that fell back to naïve α.
    pub fn fallback_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.queries as f64
        }
    }
}

/// Online power/performance model: learned package and per-core power
/// curves plus per-app scalability fits, with confidence-gated use and
/// hard fallback to [`NaiveAlpha`].
#[derive(Debug, Clone)]
pub struct OnlineModel {
    cfg: ModelConfig,
    package: PowerCurveEstimator,
    cores: BTreeMap<usize, PowerCurveEstimator>,
    apps: BTreeMap<usize, ScalabilityEstimator>,
    learning: bool,
    queries: Cell<u64>,
    fallbacks: Cell<u64>,
    pred_n: u64,
    pred_sum_sq: f64,
}

impl OnlineModel {
    /// A fresh model with the given tunables.
    pub fn new(cfg: ModelConfig) -> OnlineModel {
        OnlineModel {
            package: PowerCurveEstimator::new(cfg.power),
            cores: BTreeMap::new(),
            apps: BTreeMap::new(),
            cfg,
            learning: true,
            queries: Cell::new(0),
            fallbacks: Cell::new(0),
            pred_n: 0,
            pred_sum_sq: 0.0,
        }
    }

    /// Enable or disable learning. Queries still work while learning
    /// is off (the resilience layer turns it off when telemetry is
    /// unhealthy, so poisoned backfill never reaches the fits).
    pub fn set_learning(&mut self, on: bool) {
        self.learning = on;
    }

    /// Whether the package power fit has enough spread to be trusted —
    /// the gate [`TranslationModel`] queries use before preferring the
    /// learned curve over the naïve fallback. Cheap enough to sample
    /// every interval for decision tracing.
    pub fn package_confident(&self) -> bool {
        self.package.confident()
    }

    /// Whether observations are currently folded into the fits.
    pub fn learning(&self) -> bool {
        self.learning
    }

    /// The configured tunables.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Fold one telemetry sample into the package fit (power vs. total
    /// effective GHz) and, where per-core power exists, the per-core
    /// fits. Rejected and learning-disabled samples leave the fits
    /// untouched.
    pub fn observe_sample(&mut self, sample: &Sample) {
        if !self.learning {
            return;
        }
        let total_ghz: f64 = sample
            .cores
            .iter()
            .map(|c| c.rates.active_freq.ghz() * c.rates.c0_residency.clamp(0.0, 1.0))
            .sum();
        let was_confident = self.package.confident();
        if let Some(resid) = self
            .package
            .observe(total_ghz, sample.package_power.value())
        {
            if was_confident {
                self.pred_n += 1;
                self.pred_sum_sq += resid * resid;
            }
        }
        for (c, core) in sample.cores.iter().enumerate() {
            if let Some(p) = core.power {
                let eff_ghz =
                    core.rates.active_freq.ghz() * core.rates.c0_residency.clamp(0.0, 1.0);
                self.cores
                    .entry(c)
                    .or_insert_with(|| PowerCurveEstimator::new(self.cfg.power))
                    .observe(eff_ghz, p.value());
            }
        }
    }

    /// Fold one app observation (normalized performance at an active
    /// frequency) into that app's scalability fit.
    pub fn observe_app(&mut self, core: usize, active_freq: KiloHertz, normalized_perf: f64) {
        if !self.learning {
            return;
        }
        self.apps
            .entry(core)
            .or_insert_with(|| ScalabilityEstimator::new(self.cfg.scalability))
            .observe(active_freq.ghz(), normalized_perf);
    }

    /// Drop the scalability fit for a departed app's core.
    pub fn forget_app(&mut self, core: usize) {
        self.apps.remove(&core);
    }

    /// Predicted package draw (watts) with all of `cores` cores busy at
    /// `freq`, if the package fit is trusted. This is the learned
    /// capacity curve `clusterd` feeds into its water-fill.
    pub fn predicted_capacity(&self, cores: usize, freq: KiloHertz) -> Option<Watts> {
        if !self.package.confident() || cores == 0 {
            return None;
        }
        let w = self.package.predict(freq.ghz() * cores as f64);
        if w.is_finite() && w > 0.0 {
            Some(Watts(w))
        } else {
            None
        }
    }

    /// Reportable state.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot {
            learning: self.learning,
            package: self.package.snapshot(),
            cores: self.cores.iter().map(|(c, e)| (*c, e.snapshot())).collect(),
            apps: self
                .apps
                .iter()
                .map(|(c, e)| AppFitSnapshot {
                    core: *c,
                    fit: e.snapshot(),
                })
                .collect(),
            queries: self.queries.get(),
            fallbacks: self.fallbacks.get(),
            prediction_rms_watts: if self.pred_n > 0 {
                Some((self.pred_sum_sq / self.pred_n as f64).sqrt())
            } else {
                None
            },
        }
    }

    fn fall_back(&self) {
        self.fallbacks.set(self.fallbacks.get() + 1);
    }

    /// The learned total frequency delta, or `None` when the package
    /// fit (or the query) does not support a trusted answer.
    fn learned_frequency_delta_khz(&self, q: &TranslationQuery<'_>) -> Option<f64> {
        if !self.package.confident() || q.available == 0 || !q.power_error.value().is_finite() {
            return None;
        }
        let total_ghz: f64 = q.current.iter().map(|f| f.ghz()).sum();
        let slope = self.package.slope_at_clamped(total_ghz);
        if !slope.is_finite() || slope < self.cfg.power.min_slope_w_per_ghz {
            return None;
        }
        // Invert the fitted curve exactly; fall back to a one-step
        // linearization at the (already trusted) local slope when the
        // target power is off the parabola.
        let delta_ghz = self
            .package
            .delta_ghz_for_watts(total_ghz, q.power_error.value())
            .unwrap_or(q.power_error.value() / slope);
        let delta_khz = delta_ghz * 1e6;
        // Never command more than moving every available core across
        // the whole grid; a wild extrapolation must not escape.
        let cap = q.max_freq.khz() as f64 * q.available as f64;
        Some(delta_khz.clamp(-cap, cap))
    }

    /// Mean scalability slope over apps with trusted fits.
    fn trusted_perf_slope(&self) -> Option<f64> {
        // Streaming mean (no intermediate Vec): this sits on the control
        // hot path via performance_delta.
        let mut sum = 0.0;
        let mut count = 0usize;
        for e in self.apps.values().filter(|e| e.confident()) {
            sum += e.slope_per_ghz().max(0.0);
            count += 1;
        }
        if count == 0 {
            return None;
        }
        Some(sum / count as f64)
    }
}

impl TranslationModel for OnlineModel {
    fn name(&self) -> &'static str {
        "online"
    }

    fn frequency_delta_khz(&self, q: &TranslationQuery<'_>) -> f64 {
        self.queries.set(self.queries.get() + 1);
        match self.learned_frequency_delta_khz(q) {
            Some(d) => d,
            None => {
                self.fall_back();
                naive_frequency_delta_khz(q)
            }
        }
    }

    fn performance_delta(&self, q: &TranslationQuery<'_>) -> f64 {
        self.queries.set(self.queries.get() + 1);
        let learned = self.learned_frequency_delta_khz(q).and_then(|delta_khz| {
            let slope = self.trusted_perf_slope()?;
            if slope <= 1e-6 {
                return None;
            }
            let per_core_ghz = delta_khz / 1e6 / q.available as f64;
            let cap = q.max_performance.abs() * q.available as f64;
            Some((per_core_ghz * slope * q.available as f64).clamp(-cap, cap))
        });
        match learned {
            Some(d) => d,
            None => {
                self.fall_back();
                naive_performance_delta(q)
            }
        }
    }

    fn khz_per_watt(&self, core: usize, freq: KiloHertz) -> Option<f64> {
        let e = self.cores.get(&core)?;
        if !e.confident() {
            return None;
        }
        let slope = e.slope_at_clamped(freq.ghz());
        if !slope.is_finite() || slope < self.cfg.power.min_slope_w_per_ghz {
            return None;
        }
        Some((1e6 / slope).clamp(1e3, 2e6))
    }

    fn package_confident(&self) -> bool {
        OnlineModel::package_confident(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query<'a>(err: f64, current: &'a [KiloHertz]) -> TranslationQuery<'a> {
        TranslationQuery {
            power_error: Watts(err),
            max_power: Watts(85.0),
            max_freq: KiloHertz::from_mhz(2200),
            available: current.len(),
            max_performance: 1.0,
            current,
        }
    }

    #[test]
    fn naive_matches_paper_formula() {
        let cur = [KiloHertz::from_mhz(1800); 4];
        let q = query(8.5, &cur);
        let expect = (8.5f64 / 85.0) * 2_200_000.0 * 4.0;
        assert_eq!(NaiveAlpha.frequency_delta_khz(&q), expect);
        assert_eq!(
            NaiveAlpha.performance_delta(&q),
            (8.5f64 / 85.0) * 1.0 * 4.0
        );
    }

    #[test]
    fn naive_zeroes_degenerate_inputs() {
        let cur = [KiloHertz::from_mhz(1800); 4];
        let mut q = query(8.5, &cur);
        q.max_power = Watts(0.0);
        assert_eq!(NaiveAlpha.frequency_delta_khz(&q), 0.0);
        assert_eq!(NaiveAlpha.performance_delta(&q), 0.0);
        let mut q = query(f64::NAN, &cur);
        q.available = 4;
        assert_eq!(NaiveAlpha.frequency_delta_khz(&q), 0.0);
        let mut q = query(8.5, &cur);
        q.available = 0;
        assert_eq!(NaiveAlpha.frequency_delta_khz(&q), 0.0);
    }

    #[test]
    fn unconfident_online_is_bit_identical_to_naive() {
        let model = OnlineModel::new(ModelConfig::never_confident());
        let cur = [KiloHertz::from_mhz(1400), KiloHertz::from_mhz(2000)];
        for err in [-20.0, -3.2, 0.0, 0.7, 14.9] {
            let q = query(err, &cur);
            assert_eq!(
                model.frequency_delta_khz(&q).to_bits(),
                NaiveAlpha.frequency_delta_khz(&q).to_bits(),
            );
            assert_eq!(
                model.performance_delta(&q).to_bits(),
                NaiveAlpha.performance_delta(&q).to_bits(),
            );
        }
        let snap = model.snapshot();
        assert_eq!(snap.queries, 10);
        assert_eq!(snap.fallbacks, 10);
        assert_eq!(snap.fallback_fraction(), 1.0);
    }

    /// Feed the model a synthetic package curve (quadratic in total
    /// GHz) with enough spread to be identifiable.
    fn trained_model() -> OnlineModel {
        let mut m = OnlineModel::new(ModelConfig::default());
        for i in 0..60 {
            let per_core = 1.0 + (i % 20) as f64 * 0.06; // GHz
            let total = per_core * 4.0;
            let watts = 10.0 + 1.0 * total + 0.25 * total * total;
            m.package.observe(total, watts);
        }
        m
    }

    #[test]
    fn confident_model_inverts_the_learned_curve() {
        let m = trained_model();
        let cur = [KiloHertz::from_ghz(1.6); 4];
        let q = query(4.0, &cur);
        // Exact inversion of P = 10 + F + 0.25F² from F = 6.4 total GHz
        // for +4 W: solve 0.25x² + x + 10 = P(6.4) + 4.
        let target = 10.0 + 6.4 + 0.25 * 6.4 * 6.4 + 4.0;
        let x = (-1.0 + (1.0f64 - 4.0 * 0.25 * (10.0 - target)).sqrt()) / (2.0 * 0.25);
        let expect = (x - 6.4) * 1e6;
        let got = m.frequency_delta_khz(&q);
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, want ≈{expect}"
        );
        assert_eq!(m.snapshot().fallbacks, 0);
    }

    #[test]
    fn learned_delta_is_clamped() {
        let mut m = trained_model();
        // Nearly flat curve region would imply a huge delta; the clamp
        // keeps it within moving every core across the grid.
        let cur = [KiloHertz::from_ghz(1.6); 2];
        let q = query(500.0, &cur);
        let d = m.frequency_delta_khz(&q);
        assert!(d <= 2_200_000.0 * 2.0 + 1.0, "{d}");
        m.set_learning(false);
        assert!(!m.learning());
    }

    #[test]
    fn performance_delta_needs_app_fits() {
        let mut m = trained_model();
        let cur = [KiloHertz::from_ghz(1.6); 4];
        let q = query(4.0, &cur);
        // No app fits yet: falls back.
        assert_eq!(
            m.performance_delta(&q).to_bits(),
            NaiveAlpha.performance_delta(&q).to_bits()
        );
        for i in 0..40 {
            let f = KiloHertz::from_mhz(1000 + (i % 16) * 100);
            m.observe_app(0, f, 0.1 + 0.3 * f.ghz());
        }
        let learned = m.performance_delta(&q);
        // ΔF from the exact inversion (≈0.904 GHz over 4 cores),
        // scaled by the 0.3/GHz per-app scalability slope.
        let target = 10.0 + 6.4 + 0.25 * 6.4 * 6.4 + 4.0;
        let x = (-1.0 + (1.0f64 - 4.0 * 0.25 * (10.0 - target)).sqrt()) / (2.0 * 0.25);
        let expect = (x - 6.4) / 4.0 * 0.3 * 4.0;
        assert!(
            (learned - expect).abs() < 0.05 * expect.abs() + 1e-3,
            "{learned} vs {expect}"
        );
    }

    #[test]
    fn learning_gate_freezes_fits() {
        let mut m = trained_model();
        let before = m.snapshot().package;
        m.set_learning(false);
        let s = Sample {
            time: pap_simcpu::units::Seconds(1.0),
            interval: pap_simcpu::units::Seconds(1.0),
            package_power: Watts(500.0),
            cores_power: Watts(400.0),
            cores: Vec::new(),
        };
        m.observe_sample(&s);
        m.observe_app(0, KiloHertz::from_ghz(2.0), 0.5);
        assert_eq!(m.snapshot().package, before);
        assert!(m.snapshot().apps.is_empty());
    }

    #[test]
    fn predicted_capacity_requires_confidence() {
        let m = OnlineModel::new(ModelConfig::default());
        assert!(m.predicted_capacity(4, KiloHertz::from_ghz(2.2)).is_none());
        let m = trained_model();
        let cap = m.predicted_capacity(4, KiloHertz::from_ghz(2.2)).unwrap();
        let total = 8.8f64;
        let expect = 10.0 + total + 0.25 * total * total;
        assert!((cap.value() - expect).abs() < 1.5, "{cap:?} vs {expect}");
    }
}
