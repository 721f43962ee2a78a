//! End-to-end properties of the learned translation model: swapping
//! naive↔online mid-run — in either direction, at any interval, under
//! any policy — never produces a per-core frequency the chip cannot
//! program, and the chip itself accepts every action.

use per_app_power::prelude::*;
use per_app_power::workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
use powerd::hw::{ControlLoop, SimBackend};
use proptest::prelude::*;

/// Drive a daemon for `intervals` control intervals, swapping the
/// translation at the given interval indices, and assert every
/// commanded frequency stays inside the chip's P-state range.
fn drive_with_swaps(
    platform: PlatformSpec,
    policy: PolicyKind,
    limit: Watts,
    n_apps: usize,
    intervals: usize,
    swaps: &[usize],
) {
    let profiles = [spec::CACTUS_BSSN, spec::GCC, spec::LEELA, spec::LBM];
    let apps: Vec<AppSpec> = (0..n_apps)
        .map(|core| {
            let profile = profiles[core % profiles.len()];
            AppSpec::new(format!("{}{core}", profile.name), core)
                .with_priority(if core % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                })
                .with_shares(20 + 30 * core as u32)
                .with_baseline_ips(profile.ips(platform.grid.max()))
        })
        .collect();
    let config = DaemonConfig::new(policy, limit, apps);

    let mut daemon = Daemon::new(config, &platform).expect("valid daemon");
    let mut engines: Vec<RunningApp> = (0..n_apps)
        .map(|core| RunningApp::looping(profiles[core % profiles.len()]))
        .collect();

    let (f_min, f_max) = (platform.grid.min(), platform.grid.max());
    // The backend programs each action through `set_all_requested`,
    // which rejects anything the chip cannot run.
    let mut backend = SimBackend::new(Chip::new(platform));
    let mut lp = ControlLoop::start(&mut backend, &mut daemon).expect("chip rejected an action");
    let dt = Seconds(0.002);
    let ticks_per_interval = (1.0 / dt.value()) as usize;
    for interval in 0..intervals {
        if swaps.contains(&interval) {
            let next = match daemon.translation() {
                TranslationKind::Naive => TranslationKind::Online,
                TranslationKind::Online => TranslationKind::Naive,
            };
            daemon.set_translation(next);
        }
        let mut stepped = false;
        for _ in 0..ticks_per_interval {
            for (core, app) in engines.iter_mut().enumerate() {
                if !lp.action().parked[core] {
                    app.tick_on(backend.chip_mut(), core, dt).unwrap();
                }
            }
            stepped = lp
                .tick(&mut backend, &mut daemon, dt)
                .expect("chip rejected a daemon action")
                .is_some();
        }
        assert!(
            stepped,
            "one control interval per {ticks_per_interval} ticks"
        );
        for (core, &f) in lp.action().freqs.iter().enumerate() {
            assert!(
                f >= f_min && f <= f_max,
                "core {core} commanded {f:?} outside the P-state range [{f_min:?}, {f_max:?}]"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Swapping the translation mid-run under any package-power policy
    /// on Skylake keeps every commanded frequency on the chip's grid.
    #[test]
    fn midrun_swap_keeps_frequencies_in_range_skylake(
        policy_ix in 0usize..3,
        limit in 26.0f64..45.0,
        n_apps in 2usize..5,
        swap_a in 1usize..20,
        swap_b in 1usize..20,
    ) {
        let policy = [
            PolicyKind::Priority,
            PolicyKind::FrequencyShares,
            PolicyKind::PerformanceShares,
        ][policy_ix];
        drive_with_swaps(
            PlatformSpec::skylake(),
            policy,
            Watts(limit),
            n_apps,
            22,
            &[swap_a, swap_b],
        );
    }

    /// Same property for power shares on Ryzen, where per-core power
    /// telemetry exists and actions must also fit the shared P-state
    /// slots (`set_all_requested` enforces both).
    #[test]
    fn midrun_swap_keeps_frequencies_in_range_ryzen(
        limit in 30.0f64..60.0,
        n_apps in 2usize..5,
        swap_a in 1usize..20,
    ) {
        drive_with_swaps(
            PlatformSpec::ryzen(),
            PolicyKind::PowerShares,
            Watts(limit),
            n_apps,
            22,
            &[swap_a],
        );
    }
}
