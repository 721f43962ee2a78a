//! FastCap-style global optimizing allocator.
//!
//! The paper's share policies split the package budget by *decree*:
//! frequencies (or watts, or normalized performance) stay proportional
//! to shares whatever the applications do with them. FastCap ("An
//! Efficient and Fair Algorithm for Power Capping in Many-Core
//! Systems", PAPERS.md) instead treats capping as a global optimization:
//! maximize the *fair speedup* — the worst per-application progress,
//! share-weighted — subject to the package cap.
//!
//! [`FastCapAlloc`] reproduces that formulation inside this codebase's
//! closed-loop structure:
//!
//! 1. the watt error against the limit is translated to a total
//!    frequency budget through the pluggable model seam (exactly like
//!    [`FrequencyShares`]), so cap enforcement keeps its feedback
//!    guarantees;
//! 2. the budget is then *water-filled on marginal fair-speedup per
//!    watt*: each app's measured performance-per-GHz efficiency `e_i`
//!    (normalized IPS over active frequency) reweights its claim, so
//!    the fill equalizes predicted speedup-per-share `e_i·f_i/s_i`
//!    instead of raw frequency-per-share. Apps whose performance has
//!    saturated (AVX licenses, turbo budget) are capped at their
//!    highest *useful* frequency and their headroom flows to apps that
//!    can still convert hertz into progress;
//! 3. the continuous fill is quantized onto the platform grid, and a
//!    final feasibility pass steps the *fastest-progressing* apps back
//!    down until the quantized total fits the budget — rounding error
//!    can therefore never push the allocation over the cap's frequency
//!    budget.
//!
//! The optimizer consumes measured IPS, so it is only as good as the
//! telemetry and model feeding it. Whenever the translation model
//! reports its package fit unconfident
//! ([`TranslationModel::package_confident`]), the step is delegated —
//! buffers and all — to an embedded [`FrequencyShares`], making the
//! unconfident regime bit-identical to the shares policy (enforced by
//! tests below, mirroring the model layer's own fallback contract).

use pap_model::{TranslationModel, TranslationQuery};
use pap_simcpu::freq::KiloHertz;

use crate::policy::frequency_shares::FrequencyShares;
use crate::policy::minfund::{proportional_fill_into, Claim};
use crate::policy::{useful_max, Policy, PolicyCtx, PolicyInput, PolicyOutput, PolicyScratch};

/// Weights are kept within this factor of the raw shares so a single
/// noisy IPS sample cannot starve or flood one application in one
/// control interval.
const WEIGHT_CLAMP: f64 = 10.0;

/// The FastCap-style optimizing allocator.
#[derive(Debug, Clone, Default)]
pub struct FastCapAlloc {
    /// The share policy used verbatim while the model is unconfident.
    fallback: FrequencyShares,
    /// Per-app water-fill weights (`s_i / e_i`, normalized); reused
    /// across steps so the steady-state path allocates nothing.
    weights: Vec<f64>,
}

impl FastCapAlloc {
    /// New allocator with the paper's controller defaults (saturation
    /// detection on in the fallback and in the optimizer's own caps).
    pub fn new() -> FastCapAlloc {
        FastCapAlloc {
            fallback: FrequencyShares::new(),
            weights: Vec::new(),
        }
    }

    /// Measured efficiency of one app: normalized performance per GHz of
    /// active frequency, or `None` when the telemetry cannot support it
    /// (no baseline, idle interval, non-finite sample).
    fn efficiency(app: &crate::policy::AppView) -> Option<f64> {
        let ghz = app.active_freq.ghz();
        let perf = app.normalized_perf();
        if ghz > 0.0 && perf.is_finite() && perf > 0.0 {
            Some(perf / ghz)
        } else {
            None
        }
    }
}

impl Policy for FastCapAlloc {
    fn name(&self) -> &'static str {
        "fastcap"
    }

    /// Initial distribution is the share-proportional split: there is no
    /// performance telemetry yet to optimize on.
    fn initial_into(
        &mut self,
        ctx: &PolicyCtx,
        apps: &[crate::policy::AppView],
        out: &mut PolicyOutput,
    ) {
        self.fallback.initial_into(ctx, apps, out);
    }

    fn step_into(
        &mut self,
        ctx: &PolicyCtx,
        input: &PolicyInput<'_>,
        model: &dyn TranslationModel,
        scratch: &mut PolicyScratch,
        out: &mut PolicyOutput,
    ) {
        if !model.package_confident() {
            // Hard fallback: the optimizer builds on measured IPS and the
            // model's curves; without a trusted fit it must behave exactly
            // like the share policy it competes against.
            self.fallback.step_into(ctx, input, model, scratch, out);
            return;
        }

        let err = ctx.limit - input.package_power;
        if err.abs() <= ctx.deadband {
            out.set_running(input.current.iter().copied());
            return;
        }

        // Efficiency-weighted claims: water-filling f_i = clamp(λ·w_i)
        // with w_i = s_i/e_i equalizes predicted speedup-per-share
        // e_i·f_i/s_i — the fair-speedup objective. Apps without usable
        // telemetry this interval fall back to the mean efficiency, i.e.
        // plain share proportionality.
        let mut e_sum = 0.0;
        let mut e_count = 0usize;
        for app in input.apps {
            if let Some(e) = Self::efficiency(app) {
                e_sum += e;
                e_count += 1;
            }
        }
        let e_mean = if e_count > 0 {
            e_sum / e_count as f64
        } else {
            1.0
        };

        self.weights.clear();
        self.weights.extend(input.apps.iter().map(|app| {
            let e = Self::efficiency(app).unwrap_or(e_mean);
            let w = app.shares * e_mean / e;
            w.clamp(app.shares / WEIGHT_CLAMP, app.shares * WEIGHT_CLAMP)
        }));

        scratch.claims.clear();
        scratch
            .claims
            .extend(input.apps.iter().zip(input.current).zip(&self.weights).map(
                |((app, &cur), &w)| {
                    let max = if err.value() > 0.0 {
                        useful_max(&ctx.grid, cur, app.active_freq)
                    } else {
                        ctx.grid.max()
                    };
                    Claim::new(
                        w,
                        cur.khz() as f64,
                        ctx.grid.min().khz() as f64,
                        max.khz() as f64,
                    )
                },
            ));

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

        let budget: f64 = scratch.claims.iter().map(|c| c.current).sum::<f64>() + delta;
        proportional_fill_into(budget, &scratch.claims, &mut scratch.alloc);

        out.freqs.clear();
        out.freqs.extend(
            scratch
                .alloc
                .iter()
                .map(|&khz| ctx.grid.round(KiloHertz(khz.max(0.0) as u64))),
        );

        // Exact cap feasibility on the quantized grid: nearest-rounding
        // can overshoot the continuous budget; walk the fastest
        // predicted-speedup apps down one grid step at a time until the
        // quantized total fits. (Each pass moves one app by one step, so
        // the loop is bounded by the total overshoot in steps.)
        let step = ctx.grid.step().khz() as f64;
        loop {
            let total_khz: f64 = out.freqs.iter().map(|f| f.khz() as f64).sum();
            if total_khz <= budget + step * 0.5 {
                break;
            }
            // Highest predicted weighted speedup = f/w (λ being the
            // equalized e·f/s level, f/w ranks apps above the water line).
            let mut victim = None;
            let mut best = f64::NEG_INFINITY;
            for (i, (&f, &w)) in out.freqs.iter().zip(&self.weights).enumerate() {
                if f > ctx.grid.min() {
                    let rank = f.khz() as f64 / w.max(1e-12);
                    if rank > best {
                        best = rank;
                        victim = Some(i);
                    }
                }
            }
            match victim {
                Some(i) => out.freqs[i] = ctx.grid.step_down(out.freqs[i]),
                None => break, // everything at the floor already
            }
        }

        out.parked.clear();
        out.parked.resize(out.freqs.len(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Priority;
    use crate::policy::AppView;
    use pap_model::{ModelConfig, NaiveAlpha, OnlineModel};
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

    fn app(core: usize, shares: f64, freq_mhz: u64, perf: f64) -> AppView {
        AppView {
            core,
            shares,
            priority: Priority::High,
            active_freq: KiloHertz::from_mhz(freq_mhz),
            power: None,
            ips: perf * 1e9,
            baseline_ips: 1e9,
        }
    }

    /// A model whose package fit is trusted, answering with the naïve
    /// arithmetic (confidence is what FastCap keys on, not the answer).
    fn confident_model() -> OnlineModel {
        let mut m = OnlineModel::new(ModelConfig::default());
        for i in 0..60 {
            let total = 4.0 + (i % 20) as f64 * 0.24;
            m.observe_sample(&pap_telemetry::sampler::Sample {
                time: pap_simcpu::units::Seconds(i as f64),
                interval: pap_simcpu::units::Seconds(1.0),
                package_power: Watts(10.0 + total + 0.25 * total * total),
                cores_power: Watts(8.0),
                cores: vec![pap_telemetry::sampler::CoreSample {
                    rates: pap_telemetry::counters::CoreRates {
                        active_freq: KiloHertz::from_ghz(total),
                        c0_residency: 1.0,
                        ips: 1e9,
                    },
                    power: None,
                    requested_freq: KiloHertz::from_ghz(total),
                }],
            });
        }
        assert!(m.package_confident(), "fixture model must be confident");
        m
    }

    #[test]
    fn unconfident_model_is_bit_identical_to_frequency_shares() {
        let model = OnlineModel::new(ModelConfig::never_confident());
        let apps = vec![
            app(0, 50.0, 2400, 0.8),
            app(1, 30.0, 1700, 0.57),
            app(2, 20.0, 1200, 0.9),
        ];
        let current = vec![
            KiloHertz::from_mhz(2400),
            KiloHertz::from_mhz(1800),
            KiloHertz::from_mhz(1200),
        ];
        for pkg in [20.0, 42.0, 49.8, 66.0] {
            let input = PolicyInput {
                package_power: Watts(pkg),
                apps: &apps,
                current: &current,
            };
            let mut fast = FastCapAlloc::new();
            let mut shares = FrequencyShares::new();
            let a = fast.step_with(&ctx(50.0), &input, &model);
            let b = shares.step_with(&ctx(50.0), &input, &model);
            assert_eq!(a, b, "divergence at pkg={pkg}");
            // NaiveAlpha reports unconfident too: same fallback.
            let c = fast.step_with(&ctx(50.0), &input, &NaiveAlpha);
            let d = shares.step_with(&ctx(50.0), &input, &NaiveAlpha);
            assert_eq!(c, d);
        }
    }

    #[test]
    fn equalizes_speedup_not_frequency() {
        // Equal shares, equal current frequency, but app 1 converts
        // hertz to progress half as well: the optimizer grants it more
        // frequency so predicted speedups line up.
        let model = confident_model();
        let mut p = FastCapAlloc::new();
        let apps = vec![app(0, 50.0, 1500, 0.75), app(1, 50.0, 1500, 0.375)];
        let current = vec![KiloHertz::from_mhz(1500); 2];
        let out = p.step_with(
            &ctx(44.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
            &model,
        );
        assert!(
            out.freqs[1] > out.freqs[0],
            "inefficient app must receive more frequency: {:?}",
            out.freqs
        );
        // The fill equalizes predicted speedup e_i·f_i: with e_0 = 2·e_1
        // the frequencies must come out near 1:2 (up to grid rounding).
        let s0 = 0.5 * out.freqs[0].ghz();
        let s1 = 0.25 * out.freqs[1].ghz();
        assert!(
            (s0 - s1).abs() / s0.max(s1) < 0.15,
            "speedups should equalize: {s0} vs {s1} ({:?})",
            out.freqs
        );
    }

    #[test]
    fn saturated_app_headroom_flows_to_others() {
        let model = confident_model();
        let mut p = FastCapAlloc::new();
        // app 0 measures far below its programmed target: hardware-capped.
        let apps = vec![app(0, 50.0, 1700, 0.57), app(1, 50.0, 2000, 0.67)];
        let current = vec![KiloHertz::from_mhz(2400), KiloHertz::from_mhz(2000)];
        let out = p.step_with(
            &ctx(70.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
            &model,
        );
        assert!(
            out.freqs[0] <= KiloHertz::from_mhz(1800),
            "saturated app capped at useful max, got {}",
            out.freqs[0]
        );
        assert!(out.freqs[1] > KiloHertz::from_mhz(2000), "{:?}", out.freqs);
    }

    #[test]
    fn quantized_total_never_exceeds_budget() {
        let model = confident_model();
        let mut p = FastCapAlloc::new();
        // Awkward share ratios force off-grid continuous allocations.
        let apps = vec![
            app(0, 37.0, 2100, 0.7),
            app(1, 63.0, 1300, 0.43),
            app(2, 11.0, 900, 0.3),
        ];
        let current = vec![
            KiloHertz::from_mhz(2100),
            KiloHertz::from_mhz(1300),
            KiloHertz::from_mhz(900),
        ];
        let c = ctx(50.0);
        for pkg in [30.0, 44.0, 58.0, 80.0] {
            let input = PolicyInput {
                package_power: Watts(pkg),
                apps: &apps,
                current: &current,
            };
            let mut scratch = PolicyScratch::default();
            let mut out = PolicyOutput::default();
            p.step_into(&c, &input, &model, &mut scratch, &mut out);
            // Recompute the continuous budget the step used.
            let err = c.limit - Watts(pkg);
            if err.abs() <= c.deadband {
                continue;
            }
            for f in &out.freqs {
                assert!(c.grid.contains(*f), "{f} off grid at pkg={pkg}");
            }
            let total: f64 = out.freqs.iter().map(|f| f.khz() as f64).sum();
            let cur_total: f64 = current.iter().map(|f| f.khz() as f64).sum();
            // The quantized total may not exceed current + translated
            // delta by more than half a grid step (the rounding slack the
            // feasibility pass tolerates).
            if err.value() < 0.0 {
                assert!(
                    total <= cur_total + c.grid.step().khz() as f64 * 0.5,
                    "withdrawal must not raise the total: {total} vs {cur_total}"
                );
            }
        }
    }

    #[test]
    fn deadband_and_no_headroom_hold() {
        let model = confident_model();
        let mut p = FastCapAlloc::new();
        let apps = vec![app(0, 50.0, 2000, 0.67)];
        let current = vec![KiloHertz::from_mhz(2000)];
        let out = p.step_with(
            &ctx(50.0),
            &PolicyInput {
                package_power: Watts(50.2),
                apps: &apps,
                current: &current,
            },
            &model,
        );
        assert_eq!(out.freqs, current);

        let apps = vec![app(0, 50.0, 3000, 1.0)];
        let current = vec![KiloHertz::from_mhz(3000)];
        let out = p.step_with(
            &ctx(80.0),
            &PolicyInput {
                package_power: Watts(40.0),
                apps: &apps,
                current: &current,
            },
            &model,
        );
        assert_eq!(out.freqs, current, "cannot raise past max");
    }

    #[test]
    fn initial_matches_share_split() {
        let mut fast = FastCapAlloc::new();
        let mut shares = FrequencyShares::new();
        let apps = vec![app(0, 70.0, 0, 0.0), app(1, 30.0, 0, 0.0)];
        assert_eq!(
            fast.initial(&ctx(50.0), &apps),
            shares.initial(&ctx(50.0), &apps)
        );
    }
}
