//! Proportional **frequency shares** (§5.2).
//!
//! Applications' frequencies are kept proportional to their shares; the
//! package power limit is enforced by scaling the whole frequency
//! allocation up or down through the paper's α translation model. The
//! policy needs only package-level power telemetry and per-core DVFS,
//! which is why the paper finds it the most broadly implementable — and,
//! empirically, the most stable (frequency does not move with program
//! phase the way IPS does).

use pap_model::{TranslationModel, TranslationQuery};
use pap_simcpu::freq::KiloHertz;

use crate::policy::minfund::{distribute_into, proportional_fill_into, Claim};
use crate::policy::{
    initial_split, useful_max, Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch,
};

/// The frequency-shares policy. Stateless beyond the trait's contract:
/// the "current allocation" lives in the daemon's programmed targets.
#[derive(Debug, Clone, Default)]
pub struct FrequencyShares {
    /// §4.4 extension: honor measured saturation when raising frequency.
    pub saturation_aware: bool,
    /// Use the paper's literal incremental-delta redistribution instead of
    /// the share-proportional water-fill. Kept for the ablation study:
    /// incremental deltas drift away from proportionality when high-share
    /// apps saturate (e.g. a frequency-capped service co-located with a
    /// low-share virus).
    pub incremental: bool,
}

impl FrequencyShares {
    /// New policy with the paper's behavior (saturation detection on).
    pub fn new() -> FrequencyShares {
        FrequencyShares {
            saturation_aware: true,
            incremental: false,
        }
    }
}

impl Policy for FrequencyShares {
    fn name(&self) -> &'static str {
        "freq-shares"
    }

    /// "The initial distribution function sets the highest-share
    /// application to the maximum frequency and remaining applications to
    /// their proportions of the maximum frequency."
    fn initial_into(
        &mut self,
        ctx: &PolicyCtx,
        apps: &[crate::policy::AppView],
        out: &mut PolicyOutput,
    ) {
        let raw = initial_split(
            apps,
            ctx.grid.max().khz() as f64,
            ctx.grid.min().khz() as f64,
        );
        out.set_running(raw.map(|khz| ctx.grid.round(KiloHertz(khz as u64))));
    }

    /// "The redistribution function computes the difference in power used
    /// to the target, converts it to frequency, and distributes the
    /// frequency among non-saturated cores. The translation function
    /// converts the target frequencies into valid (quantized) frequencies."
    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    ) {
        let err = ctx.limit - input.package_power;
        if err.abs() <= ctx.deadband {
            out.set_running(input.current.iter().copied());
            return;
        }

        scratch.claims.clear();
        scratch
            .claims
            .extend(input.apps.iter().zip(input.current).map(|(app, &cur)| {
                let max = if self.saturation_aware && err.value() > 0.0 {
                    useful_max(&ctx.grid, cur, app.active_freq)
                } else {
                    ctx.grid.max()
                };
                Claim::new(
                    app.shares,
                    cur.khz() as f64,
                    ctx.grid.min().khz() as f64,
                    max.khz() as f64,
                )
            }));

        let available = scratch
            .claims
            .iter()
            .filter(|c| {
                if err.value() > 0.0 {
                    c.current < c.max - 1.0
                } else {
                    c.current > c.min + 1.0
                }
            })
            .count();
        if available == 0 {
            out.set_running(input.current.iter().copied());
            return;
        }

        let delta = model.frequency_delta_khz(&TranslationQuery {
            power_error: err,
            max_power: ctx.max_power,
            max_freq: ctx.grid.max(),
            available,
            max_performance: 1.0,
            current: input.current,
        }) * ctx.damping;
        // Re-run the distribution over the adjusted total: a proportional
        // water-fill keeps allocations share-proportional even after
        // saturated apps are revoked from the mix. The incremental scheme
        // (the paper's literal formulation) is retained for ablation.
        if self.incremental {
            distribute_into(
                delta,
                &scratch.claims,
                &mut scratch.alloc,
                &mut scratch.saturated,
            );
        } else {
            let total: f64 = scratch.claims.iter().map(|c| c.current).sum::<f64>() + delta;
            proportional_fill_into(total, &scratch.claims, &mut scratch.alloc);
        }

        out.freqs.clear();
        out.freqs.extend(
            scratch
                .alloc
                .iter()
                .map(|&khz| ctx.grid.round(KiloHertz(khz.max(0.0) as u64))),
        );
        out.parked.clear();
        out.parked.resize(out.freqs.len(), false);
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

    fn app(core: usize, shares: f64, freq_mhz: u64) -> AppView {
        AppView {
            core,
            shares,
            priority: Priority::High,
            active_freq: KiloHertz::from_mhz(freq_mhz),
            power: None,
            ips: 1e9,
            baseline_ips: 1e9,
        }
    }

    #[test]
    fn initial_is_share_proportional() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 70.0, 0), app(1, 30.0, 0)];
        let out = p.initial(&ctx(50.0), &apps);
        assert_eq!(out.freqs[0], KiloHertz::from_mhz(3000));
        // 30/70 of 3000 MHz = 1286 -> rounds to 1300
        assert_eq!(out.freqs[1], KiloHertz::from_mhz(1300));
    }

    #[test]
    fn initial_floors_extreme_ratios_at_min() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 99.0, 0), app(1, 1.0, 0)];
        let out = p.initial(&ctx(50.0), &apps);
        // low dynamic range (§5.2): 1/99 of 3 GHz would be 30 MHz, floored
        assert_eq!(out.freqs[1], KiloHertz::from_mhz(800));
    }

    #[test]
    fn over_budget_withdraws_proportionally() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 50.0, 2500), app(1, 50.0, 2500)];
        let current = vec![KiloHertz::from_mhz(2500); 2];
        let out = p.step(
            &ctx(40.0),
            &PolicyInput {
                package_power: Watts(60.0),
                apps: &apps,
                current: &current,
            },
        );
        assert!(out.freqs[0] < KiloHertz::from_mhz(2500));
        assert_eq!(out.freqs[0], out.freqs[1], "equal shares move together");
    }

    #[test]
    fn under_budget_raises() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 50.0, 1500), app(1, 50.0, 1500)];
        let current = vec![KiloHertz::from_mhz(1500); 2];
        let out = p.step(
            &ctx(60.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
        );
        assert!(out.freqs[0] > KiloHertz::from_mhz(1500));
    }

    #[test]
    fn deadband_holds_allocation() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 50.0, 2000)];
        let current = vec![KiloHertz::from_mhz(2000)];
        let out = p.step(
            &ctx(50.0),
            &PolicyInput {
                package_power: Watts(50.3),
                apps: &apps,
                current: &current,
            },
        );
        assert_eq!(out.freqs, current);
    }

    #[test]
    fn saturated_avx_app_excluded_from_raises() {
        let mut p = FrequencyShares::new();
        // app 0 measures far below its target (hardware-capped), app 1 tracks
        let apps = vec![app(0, 50.0, 1700), app(1, 50.0, 2000)];
        let current = vec![KiloHertz::from_mhz(2400), KiloHertz::from_mhz(2000)];
        let out = p.step(
            &ctx(60.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
        );
        // the capped app must not be granted beyond just-above-measured
        assert!(out.freqs[0] <= KiloHertz::from_mhz(2400));
        // the unconstrained app takes the excess
        assert!(out.freqs[1] > KiloHertz::from_mhz(2000));
    }

    #[test]
    fn all_at_bounds_is_stable() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 50.0, 3000)];
        let current = vec![KiloHertz::from_mhz(3000)];
        let out = p.step(
            &ctx(80.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
        );
        assert_eq!(out.freqs, current, "cannot raise past max");
    }

    #[test]
    fn outputs_always_on_grid() {
        let mut p = FrequencyShares::new();
        let apps = vec![app(0, 37.0, 2100), app(1, 63.0, 1300)];
        let current = vec![KiloHertz::from_mhz(2100), KiloHertz::from_mhz(1300)];
        for pkg in [20.0, 45.0, 70.0] {
            let out = p.step(
                &ctx(50.0),
                &PolicyInput {
                    package_power: Watts(pkg),
                    apps: &apps,
                    current: &current,
                },
            );
            let c = ctx(50.0);
            for f in &out.freqs {
                assert!(c.grid.contains(*f), "{f} off grid at pkg={pkg}");
            }
        }
    }
}
