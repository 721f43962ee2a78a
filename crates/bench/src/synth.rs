//! Deterministic synthetic telemetry and the six-scenario policy matrix
//! shared by `ext_hotpath` and the golden-replay suites. Pure functions
//! only: pre- and post-refactor replays must see bit-identical inputs.

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::sampler::{CoreSample, Sample};
use powerd::config::{AppSpec, PolicyKind, Priority};

/// Four Skylake apps on cores 0–3 with mixed priorities and shares.
pub fn skylake_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::new("a0", 0)
            .with_shares(70)
            .with_priority(Priority::High)
            .with_baseline_ips(2.4e9),
        AppSpec::new("a1", 1)
            .with_shares(30)
            .with_priority(Priority::Low)
            .with_baseline_ips(1.8e9),
        AppSpec::new("a2", 2)
            .with_shares(50)
            .with_priority(Priority::High)
            .with_baseline_ips(2.0e9),
        AppSpec::new("a3", 3)
            .with_shares(10)
            .with_priority(Priority::Low)
            .with_baseline_ips(1.5e9),
    ]
}

/// Six Ryzen apps on cores 0–5 with rising shares.
pub fn ryzen_apps() -> Vec<AppSpec> {
    (0..6)
        .map(|i| {
            AppSpec::new(format!("r{i}"), i)
                .with_shares(10 + 15 * i as u32)
                .with_baseline_ips(2.0e9)
        })
        .collect()
}

/// Baseline IPS of the app pinned to `core`, if one is.
pub fn baseline_for(apps: &[AppSpec], core: usize) -> Option<f64> {
    apps.iter().find(|a| a.core == core).map(|a| a.baseline_ips)
}

/// Deterministic synthetic active frequency for (step, core).
pub fn synth_freq(i: usize, c: usize, platform: &PlatformSpec) -> KiloHertz {
    let lo = platform.grid.min().khz();
    let hi = platform.grid.max().khz();
    let span_steps = (hi - lo) / 100_000;
    let k = (i as u64 * 13 + c as u64 * 7) % span_steps.max(1);
    KiloHertz(lo + k * 100_000)
}

/// Deterministic synthetic sample for control interval `i`. Package
/// power follows a quadratic curve in total active GHz (so the online
/// model's package fit can become confident) plus a small wobble, and
/// crosses the limit in both directions so redistribution runs both
/// ways; per-core power appears only on per-core-power platforms.
pub fn synth_sample(i: usize, platform: &PlatformSpec, apps: &[AppSpec], limit: Watts) -> Sample {
    let total_ghz: f64 = (0..platform.num_cores)
        .filter(|&c| baseline_for(apps, c).is_some())
        .map(|c| synth_freq(i, c, platform).ghz())
        .sum();
    // Center the quadratic at the managed cores' mid-grid operating
    // point so the package power crosses the limit in both directions.
    let t0 = apps.len() as f64 * (platform.grid.min().ghz() + platform.grid.max().ghz()) / 2.0;
    let wobble = (((i * 37) % 17) as f64 - 8.0) * 0.25;
    let pkg =
        limit.value() + 1.2 * (total_ghz - t0) + 0.18 * (total_ghz * total_ghz - t0 * t0) + wobble;
    let cores = (0..platform.num_cores)
        .map(|c| {
            let managed = baseline_for(apps, c);
            let freq = if managed.is_some() {
                synth_freq(i, c, platform)
            } else {
                KiloHertz::ZERO
            };
            let ips = managed.map_or(0.0, |b| b * (0.1 + 0.3 * freq.ghz()));
            let power = if platform.per_core_power {
                Some(Watts(1.5 + 2.2 * freq.ghz() + ((i + c) % 5) as f64 * 0.3))
            } else {
                None
            };
            CoreSample {
                rates: CoreRates {
                    active_freq: freq,
                    c0_residency: 1.0,
                    ips,
                },
                power,
                requested_freq: freq,
            }
        })
        .collect();
    Sample {
        time: Seconds((i + 1) as f64),
        interval: Seconds(1.0),
        package_power: Watts(pkg),
        cores_power: Watts((pkg - 10.0).max(0.0)),
        cores,
    }
}

/// The policy scenario matrix: (name, policy, platform, apps).
pub fn policy_scenarios() -> Vec<(&'static str, PolicyKind, PlatformSpec, Vec<AppSpec>)> {
    vec![
        (
            "skylake_priority",
            PolicyKind::Priority,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_freq",
            PolicyKind::FrequencyShares,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_perf",
            PolicyKind::PerformanceShares,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "skylake_rapl",
            PolicyKind::RaplNative,
            PlatformSpec::skylake(),
            skylake_apps(),
        ),
        (
            "ryzen_power",
            PolicyKind::PowerShares,
            PlatformSpec::ryzen(),
            ryzen_apps(),
        ),
        (
            "ryzen_freq",
            PolicyKind::FrequencyShares,
            PlatformSpec::ryzen(),
            ryzen_apps(),
        ),
    ]
}
