//! Proportional **power shares** (§5.2).
//!
//! Applications' power draws are kept proportional to their shares. This
//! is the most direct interpretation of "sharing power" but requires
//! per-core power telemetry, which among the paper's testbeds only Ryzen
//! provides; it is also the policy the paper finds gives the *worst*
//! performance isolation, because equal power buys very different
//! frequencies (and hence performance) for high- and low-demand
//! applications.

use pap_model::TranslationModel;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::units::Watts;

use crate::policy::minfund::{proportional_fill_into, Claim};
use crate::policy::{Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch};

/// The power-shares policy. Stateful: carries per-app power limits.
#[derive(Debug, Clone)]
pub struct PowerShares {
    /// Per-app power limits (W).
    power_limits: Vec<f64>,
    /// Assumed per-core power floor at the minimum P-state (W): the
    /// saturation lower bound of a claim.
    pub core_min_power: f64,
    /// Assumed per-core power ceiling at the maximum P-state (W).
    pub core_max_power: f64,
    /// Estimated non-core (uncore + idle) package power subtracted from
    /// the limit before splitting it between applications (W).
    pub uncore_estimate: f64,
    /// Servo gain from per-core power error to frequency correction
    /// (kHz per watt).
    pub gain_khz_per_watt: f64,
}

impl PowerShares {
    /// Defaults calibrated for the Ryzen platform model.
    pub fn new() -> PowerShares {
        PowerShares {
            power_limits: Vec::new(),
            core_min_power: 0.6,
            core_max_power: 14.0,
            uncore_estimate: 11.0,
            gain_khz_per_watt: 150_000.0,
        }
    }

    /// Current per-app power limits (for inspection/tests).
    pub fn power_limits(&self) -> &[f64] {
        &self.power_limits
    }

    /// The naïve linear power→frequency model of §5.2: map the per-core
    /// power range onto the frequency range. "Since we dynamically adjust
    /// the values later, modeling errors do not affect steady state."
    fn power_to_freq(&self, ctx: &PolicyCtx, watts: f64) -> KiloHertz {
        let t = ((watts - self.core_min_power) / (self.core_max_power - self.core_min_power))
            .clamp(0.0, 1.0);
        let khz =
            ctx.grid.min().khz() as f64 + t * (ctx.grid.max().khz() - ctx.grid.min().khz()) as f64;
        ctx.grid.round(KiloHertz(khz as u64))
    }
}

impl Default for PowerShares {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for PowerShares {
    fn name(&self) -> &'static str {
        "power-shares"
    }

    /// "The initial distribution function distributes the power limit
    /// among the applications based on their share ratios; the result is
    /// a set of per-application limits." The translation function then
    /// predicts initial frequencies with the linear power model.
    fn initial_into(
        &mut self,
        ctx: &PolicyCtx,
        apps: &[crate::policy::AppView],
        out: &mut PolicyOutput,
    ) {
        let budget = (ctx.limit.value() - self.uncore_estimate).max(0.0);
        let total_shares: f64 = apps.iter().map(|a| a.shares).sum();
        self.power_limits.clear();
        self.power_limits.extend(apps.iter().map(|a| {
            (budget * a.shares / total_shares).clamp(self.core_min_power, self.core_max_power)
        }));
        out.set_running(
            self.power_limits
                .iter()
                .map(|&w| self.power_to_freq(ctx, w)),
        );
    }

    /// "The redistribution function updates per-application limits by
    /// distributing the difference in current power and the power limit
    /// among non-saturated cores"; translation adjusts frequencies from
    /// per-core power feedback against the calculated limits.
    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    ) {
        if self.power_limits.len() != input.apps.len() {
            // Daemon skipped initial(); bootstrap now (cold path).
            self.initial_into(ctx, input.apps, out);
            return;
        }

        let err = ctx.limit - input.package_power;
        if err.abs() > ctx.deadband {
            scratch.claims.clear();
            scratch.claims.extend(
                input
                    .apps
                    .iter()
                    .zip(&self.power_limits)
                    .map(|(app, &cur)| {
                        Claim::new(app.shares, cur, self.core_min_power, self.core_max_power)
                    }),
            );
            // Water-fill the adjusted total so per-app power limits stay
            // share-proportional under saturation.
            let total: f64 =
                scratch.claims.iter().map(|c| c.current).sum::<f64>() + err.value() * ctx.damping;
            proportional_fill_into(total, &scratch.claims, &mut self.power_limits);
        }

        // Per-core servo: move each app's frequency by its own power
        // error. A trusted learned per-core power curve supplies the
        // actuation gain; otherwise the configured static gain is used.
        out.set_running(
            input
                .apps
                .iter()
                .zip(input.current)
                .zip(&self.power_limits)
                .map(|((app, &cur), &limit)| {
                    let measured = app
                        .power
                        .unwrap_or(Watts(limit)) // no telemetry -> assume on target
                        .value();
                    let gain = model
                        .khz_per_watt(app.core, cur)
                        .unwrap_or(self.gain_khz_per_watt);
                    let correction = (limit - measured) * gain * ctx.damping;
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

    fn ctx(limit: f64) -> PolicyCtx {
        PolicyCtx::new(
            FreqGrid::new(
                KiloHertz::from_mhz(400),
                KiloHertz::from_mhz(3800),
                KiloHertz::from_mhz(25),
            ),
            Watts(95.0),
            Watts(limit),
        )
    }

    fn app(shares: f64, power_w: f64, freq_mhz: u64) -> AppView {
        AppView {
            core: 0,
            shares,
            priority: Priority::High,
            active_freq: KiloHertz::from_mhz(freq_mhz),
            power: Some(Watts(power_w)),
            ips: 1e9,
            baseline_ips: 1e9,
        }
    }

    #[test]
    fn initial_splits_budget_by_shares() {
        let mut p = PowerShares::new();
        let apps = vec![app(75.0, 0.0, 0), app(25.0, 0.0, 0)];
        let out = p.initial(&ctx(51.0), &apps);
        // budget = 51 - 11 = 40 W -> 30 / 10, with the 30 W claim clamped
        // to the per-core ceiling (no single core can burn 30 W)
        assert!((p.power_limits()[0] - p.core_max_power).abs() < 1e-9);
        assert!((p.power_limits()[1] - 10.0).abs() < 1e-9);
        assert!(out.freqs[0] > out.freqs[1]);
    }

    #[test]
    fn per_core_servo_tracks_limits() {
        let mut p = PowerShares::new();
        let apps_init = vec![app(50.0, 0.0, 0), app(50.0, 0.0, 0)];
        p.initial(&ctx(31.0), &apps_init);
        // app 0 draws above its limit, app 1 below; package on target
        let apps = vec![app(50.0, 12.0, 3000), app(50.0, 6.0, 3000)];
        let current = vec![KiloHertz::from_mhz(3000); 2];
        let out = p.step(
            &ctx(31.0),
            &PolicyInput {
                package_power: Watts(31.0),
                apps: &apps,
                current: &current,
            },
        );
        assert!(out.freqs[0] < current[0], "over-limit app slowed");
        assert!(out.freqs[1] >= current[1], "under-limit app not slowed");
    }

    #[test]
    fn package_error_redistributes_limits() {
        let mut p = PowerShares::new();
        let apps_init = vec![app(50.0, 0.0, 0), app(50.0, 0.0, 0)];
        p.initial(&ctx(31.0), &apps_init);
        let before: f64 = p.power_limits().iter().sum();
        let apps = vec![app(50.0, 10.0, 3000), app(50.0, 10.0, 3000)];
        let current = vec![KiloHertz::from_mhz(3000); 2];
        p.step(
            &ctx(31.0),
            &PolicyInput {
                package_power: Watts(45.0), // 14 W over
                apps: &apps,
                current: &current,
            },
        );
        let after: f64 = p.power_limits().iter().sum();
        assert!(after < before, "limits must shrink when over budget");
    }

    #[test]
    fn equal_power_not_equal_frequency() {
        // The isolation failure the paper highlights: at equal power
        // limits, the linear model still gives equal *initial* frequency,
        // but feedback from a high-demand app (drawing more at the same
        // frequency) pushes its frequency down below the low-demand app's.
        let mut p = PowerShares::new();
        let apps_init = vec![app(50.0, 0.0, 0), app(50.0, 0.0, 0)];
        p.initial(&ctx(31.0), &apps_init);
        let current = vec![KiloHertz::from_mhz(2000); 2];
        // HD app draws 12 W at 2 GHz; LD app draws 4 W
        let apps = vec![app(50.0, 12.0, 2000), app(50.0, 4.0, 2000)];
        let out = p.step(
            &ctx(31.0),
            &PolicyInput {
                package_power: Watts(31.0),
                apps: &apps,
                current: &current,
            },
        );
        assert!(
            out.freqs[0] < out.freqs[1],
            "high-demand app must end up slower under power shares"
        );
    }

    #[test]
    fn limits_clamped_to_core_range() {
        let mut p = PowerShares::new();
        let apps = vec![app(99.0, 0.0, 0), app(1.0, 0.0, 0)];
        p.initial(&ctx(95.0), &apps);
        for l in p.power_limits() {
            assert!(*l >= p.core_min_power - 1e-9 && *l <= p.core_max_power + 1e-9);
        }
    }

    #[test]
    fn bootstraps_without_initial() {
        let mut p = PowerShares::new();
        let apps = vec![app(100.0, 5.0, 2000)];
        let current = vec![KiloHertz::from_mhz(2000)];
        let out = p.step(
            &ctx(40.0),
            &PolicyInput {
                package_power: Watts(30.0),
                apps: &apps,
                current: &current,
            },
        );
        assert_eq!(out.freqs.len(), 1);
    }

    #[test]
    fn power_to_freq_monotone() {
        let p = PowerShares::new();
        let c = ctx(40.0);
        let mut prev = KiloHertz::ZERO;
        for w in [0.0, 2.0, 5.0, 9.0, 14.0, 20.0] {
            let f = p.power_to_freq(&c, w);
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(p.power_to_freq(&c, -5.0), c.grid.min());
        assert_eq!(p.power_to_freq(&c, 100.0), c.grid.max());
    }
}
