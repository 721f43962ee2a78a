//! Figure-shape regression tests: scaled-down versions of figure
//! experiments whose *shape* must not drift as the models evolve.
//! (The `repro_check` binary covers the headline claims; these cover the
//! secondary shapes.)

use per_app_power::prelude::*;
use per_app_power::workloads::spec;

const MS: Seconds = Seconds(0.002);

fn run_fixed_freq(
    platform: &PlatformSpec,
    core_assignments: &[(usize, per_app_power::workloads::profile::WorkloadProfile)],
    requests_mhz: &[(usize, u64)],
    rapl: Option<f64>,
    seconds: f64,
) -> Chip {
    let mut chip = Chip::new(platform.clone());
    for &(c, mhz) in requests_mhz {
        chip.set_requested_freq(c, KiloHertz::from_mhz(mhz))
            .unwrap();
    }
    if let Some(w) = rapl {
        chip.set_rapl_limit(Some(Watts(w))).unwrap();
    }
    let mut apps: Vec<(usize, RunningApp)> = core_assignments
        .iter()
        .map(|&(c, p)| (c, RunningApp::looping(p)))
        .collect();
    let ticks = (seconds / MS.value()) as usize;
    for _ in 0..ticks {
        for (c, app) in apps.iter_mut() {
            app.tick_on(&mut chip, *c, MS).unwrap();
        }
        chip.tick(MS);
    }
    chip
}

/// Figure 4 shape: at a fixed RAPL limit, lowering half the cores'
/// programmed frequency raises the unconstrained half's frequency.
#[test]
fn fig4_throttled_half_funds_free_half() {
    let platform = PlatformSpec::skylake();
    let assignments: Vec<(usize, _)> = (0..10).map(|c| (c, spec::GCC)).collect();
    let free_at = |throttle_mhz: u64| -> u64 {
        let mut reqs: Vec<(usize, u64)> = (0..5).map(|c| (c, 2500)).collect();
        reqs.extend((5..10).map(|c| (c, throttle_mhz)));
        let chip = run_fixed_freq(&platform, &assignments, &reqs, Some(50.0), 8.0);
        chip.effective_freq(0).mhz()
    };
    let tight = free_at(2500);
    let loose = free_at(800);
    assert!(
        loose > tight + 200,
        "throttling the other half must speed up the free half: {tight} -> {loose} MHz"
    );
}

/// Figure 4 shape: the manually throttled cores always run at their
/// programmed frequency — RAPL only reduces the unconstrained cores.
#[test]
fn fig4_rapl_never_touches_already_throttled_cores() {
    let platform = PlatformSpec::skylake();
    let assignments: Vec<(usize, _)> = (0..10).map(|c| (c, spec::GCC)).collect();
    let mut reqs: Vec<(usize, u64)> = (0..5).map(|c| (c, 2500)).collect();
    reqs.extend((5..10).map(|c| (c, 1200)));
    let chip = run_fixed_freq(&platform, &assignments, &reqs, Some(50.0), 8.0);
    assert_eq!(
        chip.effective_freq(9).mhz(),
        1200,
        "programmed core untouched"
    );
    assert!(
        chip.effective_freq(0).mhz() < 2500,
        "free core carries the cut"
    );
}

/// Figure 2 shape: the TurboBoost entry produces a discrete package-power
/// jump between 2.2 and 2.5 GHz on Skylake.
#[test]
fn fig2_turbo_power_jump() {
    let platform = PlatformSpec::skylake();
    let p_at = |mhz: u64| -> f64 {
        let chip = run_fixed_freq(&platform, &[(0, spec::GCC)], &[(0, mhz)], None, 2.0);
        chip.package_power().value()
    };
    let below = p_at(2200);
    let above = p_at(2500);
    // two plain 100 MHz steps for comparison
    let slope = (p_at(2200) - p_at(1900)) / 3.0;
    let jump = above - below - 3.0 * slope;
    assert!(jump > 2.0, "turbo surcharge {jump:.1} W too small");
}

/// Figure 3 shape: Ryzen XFR power jump above 3.4 GHz.
#[test]
fn fig3_xfr_power_jump() {
    let platform = PlatformSpec::ryzen();
    let p_at = |mhz: u64| -> f64 {
        let chip = run_fixed_freq(&platform, &[(0, spec::LEELA)], &[(0, mhz)], None, 2.0);
        chip.package_power().value()
    };
    assert!(p_at(3800) - p_at(3400) > 4.0);
}

/// Figure 11 shape: under frequency shares, measured frequency rises
/// monotonically with shares for the all-scalar set A.
#[test]
fn fig11_share_ordering_set_a() {
    let shares = [20u32, 40, 60, 80, 100];
    let set = per_app_power::workloads::generator::skylake_set_a();
    let mut e = Experiment::new(
        PlatformSpec::skylake(),
        PolicyKind::FrequencyShares,
        Watts(45.0),
    )
    .duration(Seconds(40.0))
    .warmup(10);
    for (i, profile) in set.iter().enumerate() {
        for copy in 0..2 {
            e = e.app(
                format!("{}-{copy}", profile.name),
                *profile,
                Priority::High,
                shares[i],
            );
        }
    }
    let r = e.run().unwrap();
    let mean = |i: usize| (r.apps[2 * i].mean_freq_mhz + r.apps[2 * i + 1].mean_freq_mhz) / 2.0;
    for i in 0..4 {
        assert!(
            mean(i) <= mean(i + 1) + 30.0,
            "share ordering violated: app{i} {:.0} vs app{} {:.0} MHz",
            mean(i),
            i + 1,
            mean(i + 1)
        );
    }
}

/// Figure 11 shape: in set B the AVX apps (cam4, lbm) cannot reach full
/// frequency even with top shares at 85 W.
#[test]
fn fig11_set_b_avx_caps() {
    let shares = [20u32, 40, 60, 80, 100];
    let set = per_app_power::workloads::generator::skylake_set_b();
    let mut e = Experiment::new(
        PlatformSpec::skylake(),
        PolicyKind::FrequencyShares,
        Watts(85.0),
    )
    .duration(Seconds(30.0))
    .warmup(8);
    for (i, profile) in set.iter().enumerate() {
        for copy in 0..2 {
            e = e.app(
                format!("{}-{copy}", profile.name),
                *profile,
                Priority::High,
                shares[i],
            );
        }
    }
    let r = e.run().unwrap();
    // B3 = cam4 (80 shares), B4 = lbm (100 shares): both AVX-capped ≤1.7 GHz
    assert!(
        r.apps[6].mean_freq_mhz <= 1750.0,
        "cam4 {:.0}",
        r.apps[6].mean_freq_mhz
    );
    assert!(
        r.apps[8].mean_freq_mhz <= 1750.0,
        "lbm {:.0}",
        r.apps[8].mean_freq_mhz
    );
    // while a scalar app with fewer shares exceeds them
    assert!(
        r.apps[4].mean_freq_mhz > 1800.0,
        "perlbench should pass the AVX caps"
    );
}

/// Figure 9 shape: frequency and performance shares produce similar
/// frequency splits at moderate ratios (the paper's argument that the
/// simpler policy suffices).
#[test]
fn fig9_freq_and_perf_shares_agree() {
    let run = |policy: PolicyKind| -> f64 {
        let mut e = Experiment::new(PlatformSpec::skylake(), policy, Watts(45.0))
            .duration(Seconds(40.0))
            .warmup(10);
        for i in 0..5 {
            e = e.app(format!("leela-{i}"), spec::LEELA, Priority::High, 30);
        }
        for i in 0..5 {
            e = e.app(format!("cactus-{i}"), spec::CACTUS_BSSN, Priority::High, 70);
        }
        let r = e.run().unwrap();
        let ld: f64 = r.apps[..5].iter().map(|a| a.mean_freq_mhz).sum();
        let hd: f64 = r.apps[5..].iter().map(|a| a.mean_freq_mhz).sum();
        ld / (ld + hd)
    };
    let f = run(PolicyKind::FrequencyShares);
    let p = run(PolicyKind::PerformanceShares);
    assert!(
        (f - p).abs() < 0.08,
        "policies should roughly agree: freq {f:.2} vs perf {p:.2}"
    );
}

/// Figure 8 shape: on Ryzen at 40 W with a 2-HP mix, starving LP lets the
/// HP pair reach the XFR bin.
#[test]
fn fig8_xfr_after_starvation() {
    let mut e = Experiment::new(PlatformSpec::ryzen(), PolicyKind::Priority, Watts(40.0))
        .duration(Seconds(40.0))
        .warmup(10);
    e = e.app("hp-hd", spec::CACTUS_BSSN, Priority::High, 100);
    e = e.app("hp-ld", spec::LEELA, Priority::High, 100);
    for i in 0..6 {
        e = e.app(format!("lp-{i}"), spec::LEELA, Priority::Low, 100);
    }
    let r = e.run().unwrap();
    assert!(
        r.apps[0].mean_freq_mhz > 3400.0,
        "2 HP apps should boost past the all-core limit: {:.0} MHz",
        r.apps[0].mean_freq_mhz
    );
    assert!(r.apps[2].starved_fraction > 0.9, "LP starved");
}
