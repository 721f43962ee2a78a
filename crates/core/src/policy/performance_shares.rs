//! Proportional **performance shares** (§5.2).
//!
//! Applications' performance *loss* relative to standalone execution is
//! kept proportional to shares. Performance is measured as IPS normalized
//! to an offline baseline (the app running alone at maximum frequency);
//! the power limit is translated into a total normalized-performance
//! budget through the α model, distributed into per-app performance
//! limits, and each app's frequency is then servoed toward its limit.
//!
//! Because IPS moves with program phase while frequency does not, this
//! policy can over- and under-shoot where frequency shares hold steady —
//! the instability the paper reports in Figure 10.

use pap_model::{TranslationModel, TranslationQuery};
use pap_simcpu::freq::KiloHertz;

use crate::policy::minfund::{proportional_fill_into, Claim};
use crate::policy::{initial_split, Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch};

/// Per-core maximum normalized performance (IPS is normalized to the
/// standalone maximum-frequency baseline, so 1.0 by construction).
const MAX_PERFORMANCE: f64 = 1.0;

/// The performance-shares policy. Stateful: carries the per-app
/// performance limits between intervals.
#[derive(Debug, Clone, Default)]
pub struct PerformanceShares {
    /// Current per-app normalized performance limits.
    perf_limits: Vec<f64>,
    /// Gain from performance error to frequency correction, in fractions
    /// of max frequency per unit of normalized performance.
    pub servo_gain: f64,
}

impl PerformanceShares {
    /// New policy with default servo tuning.
    pub fn new() -> PerformanceShares {
        PerformanceShares {
            perf_limits: Vec::new(),
            servo_gain: 0.7,
        }
    }

    /// The minimum achievable normalized performance: running at the
    /// bottom of the grid (a compute-bound approximation; memory-bound
    /// apps sit higher, which the servo absorbs).
    fn min_perf(ctx: &PolicyCtx) -> f64 {
        ctx.grid.min().khz() as f64 / ctx.grid.max().khz() as f64
    }

    /// Current per-app performance limits (for inspection/tests).
    pub fn perf_limits(&self) -> &[f64] {
        &self.perf_limits
    }
}

impl Policy for PerformanceShares {
    fn name(&self) -> &'static str {
        "perf-shares"
    }

    /// "The initial distribution function distributes this performance
    /// limit among the applications based on their share ratios."
    fn initial_into(
        &mut self,
        ctx: &PolicyCtx,
        apps: &[crate::policy::AppView],
        out: &mut PolicyOutput,
    ) {
        self.perf_limits.clear();
        self.perf_limits
            .extend(initial_split(apps, MAX_PERFORMANCE, Self::min_perf(ctx)));
        // Naïve linear translation: normalized perf target ≈ f / f_max.
        out.set_running(self.perf_limits.iter().map(|&p| {
            ctx.grid
                .round(KiloHertz((p * ctx.grid.max().khz() as f64) as u64))
        }));
    }

    /// "The redistribution function updates these per-application limits
    /// by first converting the difference in current power and the power
    /// limit into a performance value and then distributing it among
    /// non-saturated cores."
    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    ) {
        if self.perf_limits.len() != input.apps.len() {
            // Daemon skipped initial(); bootstrap now (cold path).
            self.initial_into(ctx, input.apps, out);
            return;
        }

        let err = ctx.limit - input.package_power;
        let min_perf = Self::min_perf(ctx);

        // Redistribute the power error as performance budget.
        if err.abs() > ctx.deadband {
            scratch.claims.clear();
            scratch.claims.extend(
                input
                    .apps
                    .iter()
                    .zip(&self.perf_limits)
                    .map(|(app, &cur)| Claim::new(app.shares, cur, min_perf, MAX_PERFORMANCE)),
            );
            let available = scratch
                .claims
                .iter()
                .filter(|c| {
                    if err.value() > 0.0 {
                        c.current < c.max - 1e-9
                    } else {
                        c.current > c.min + 1e-9
                    }
                })
                .count();
            if available > 0 {
                let delta = model.performance_delta(&TranslationQuery {
                    power_error: err,
                    max_power: ctx.max_power,
                    max_freq: ctx.grid.max(),
                    available,
                    max_performance: MAX_PERFORMANCE,
                    current: input.current,
                }) * ctx.damping;
                // Water-fill the adjusted total so the per-app limits stay
                // share-proportional under saturation.
                let total: f64 = scratch.claims.iter().map(|c| c.current).sum::<f64>() + delta;
                proportional_fill_into(total, &scratch.claims, &mut self.perf_limits);
            }
        }

        // Translate: servo each app's frequency toward its performance
        // limit using measured normalized IPS as feedback.
        out.set_running(
            input
                .apps
                .iter()
                .zip(input.current)
                .zip(&self.perf_limits)
                .map(|((app, &cur), &limit)| {
                    let measured = app.normalized_perf();
                    let correction =
                        (limit - measured) * self.servo_gain * ctx.grid.max().khz() as f64;
                    let target = cur.khz() as f64 + correction;
                    ctx.grid.round(KiloHertz(target.max(0.0) as u64))
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Priority;
    use crate::policy::AppView;
    use pap_simcpu::freq::FreqGrid;
    use pap_simcpu::units::Watts;

    fn ctx(limit: f64) -> PolicyCtx {
        PolicyCtx::new(
            FreqGrid::new(
                KiloHertz::from_mhz(800),
                KiloHertz::from_mhz(3000),
                KiloHertz::from_mhz(100),
            ),
            Watts(85.0),
            Watts(limit),
        )
    }

    fn app(shares: f64, norm_perf: f64, freq_mhz: u64) -> AppView {
        AppView {
            core: 0,
            shares,
            priority: Priority::High,
            active_freq: KiloHertz::from_mhz(freq_mhz),
            power: None,
            ips: norm_perf * 1e9,
            baseline_ips: 1e9,
        }
    }

    #[test]
    fn initial_targets_proportional() {
        let mut p = PerformanceShares::new();
        let apps = vec![app(100.0, 0.0, 0), app(50.0, 0.0, 0)];
        let out = p.initial(&ctx(50.0), &apps);
        assert_eq!(out.freqs[0], KiloHertz::from_mhz(3000));
        assert_eq!(out.freqs[1], KiloHertz::from_mhz(1500));
        assert!((p.perf_limits()[0] - 1.0).abs() < 1e-9);
        assert!((p.perf_limits()[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn servo_raises_underperforming_app() {
        let mut p = PerformanceShares::new();
        let apps = vec![app(100.0, 0.4, 1500)];
        p.initial(&ctx(50.0), &apps);
        // measured perf 0.4 but limit 1.0, power inside deadband
        let current = vec![KiloHertz::from_mhz(1500)];
        let out = p.step(
            &ctx(50.0),
            &PolicyInput {
                package_power: Watts(50.0),
                apps: &apps,
                current: &current,
            },
        );
        assert!(out.freqs[0] > KiloHertz::from_mhz(1500));
    }

    #[test]
    fn servo_lowers_overperforming_app() {
        let mut p = PerformanceShares::new();
        let apps = vec![app(50.0, 0.9, 2500), app(50.0, 0.9, 2500)];
        p.initial(&ctx(50.0), &apps);
        // equal shares -> limits 1.0 each; force limits down via power err
        let current = vec![KiloHertz::from_mhz(2500); 2];
        let out = p.step(
            &ctx(40.0),
            &PolicyInput {
                package_power: Watts(70.0),
                apps: &apps,
                current: &current,
            },
        );
        // 30 W over budget: perf limits fall below measured 0.9 -> slow down
        assert!(out.freqs[0] < KiloHertz::from_mhz(2500));
    }

    #[test]
    fn phase_swing_moves_frequency() {
        // The destabilizing property Figure 10 shows: with power on target,
        // a drop in measured IPS (phase change) still moves frequency.
        let mut p = PerformanceShares::new();
        let apps = vec![app(100.0, 1.0, 3000)];
        p.initial(&ctx(50.0), &apps);
        let current = vec![KiloHertz::from_mhz(2000)];
        let steady = p
            .step(
                &ctx(50.0),
                &PolicyInput {
                    package_power: Watts(50.0),
                    apps: &[app(100.0, 1.0, 2000)],
                    current: &current,
                },
            )
            .freqs[0];
        let after_phase = p
            .step(
                &ctx(50.0),
                &PolicyInput {
                    package_power: Watts(50.0),
                    apps: &[app(100.0, 0.7, 2000)],
                    current: &current,
                },
            )
            .freqs[0];
        assert!(
            after_phase > steady,
            "IPS drop must trigger a frequency correction: {steady} -> {after_phase}"
        );
    }

    #[test]
    fn bootstraps_without_initial() {
        let mut p = PerformanceShares::new();
        let apps = vec![app(100.0, 0.5, 1500)];
        let current = vec![KiloHertz::from_mhz(1500)];
        let out = p.step(
            &ctx(50.0),
            &PolicyInput {
                package_power: Watts(30.0),
                apps: &apps,
                current: &current,
            },
        );
        assert_eq!(out.freqs.len(), 1);
        assert_eq!(p.perf_limits().len(), 1);
    }

    #[test]
    fn limits_stay_in_valid_range() {
        let mut p = PerformanceShares::new();
        let apps = vec![app(90.0, 0.9, 2800), app(10.0, 0.3, 900)];
        p.initial(&ctx(40.0), &apps);
        let mut current = vec![KiloHertz::from_mhz(2800), KiloHertz::from_mhz(900)];
        for pkg in [70.0, 65.0, 55.0, 45.0, 35.0, 20.0, 80.0] {
            let out = p.step(
                &ctx(40.0),
                &PolicyInput {
                    package_power: Watts(pkg),
                    apps: &apps,
                    current: &current,
                },
            );
            current = out.freqs.clone();
            let c = ctx(40.0);
            for (i, l) in p.perf_limits().iter().enumerate() {
                assert!(
                    (PerformanceShares::min_perf(&c) - 1e-9..=1.0 + 1e-9).contains(l),
                    "limit {l} out of range for app {i} at pkg {pkg}"
                );
            }
            for f in &out.freqs {
                assert!(c.grid.contains(*f));
            }
        }
    }
}
