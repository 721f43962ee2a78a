//! Shared harness for the root test suites: the golden-replay plumbing
//! of `hotpath.rs`, which replays `pap_bench::synth`'s telemetry, and
//! the closed-loop `drive` the off-path suites (`observability.rs`,
//! `energy_offpath.rs`) and `control_loop.rs` share.

#![allow(dead_code)]

use pap_simcpu::chip::Chip;
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Seconds;
use pap_telemetry::sampler::Sample;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;
use powerd::config::{AppSpec, PolicyKind, Priority};
use powerd::daemon::{ControlAction, Daemon};
use powerd::hw::{ControlLoop, SimBackend};
use powerd::runner::standalone_freq;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

pub const STEPS: usize = 200;

pub fn fmt_action(i: usize, a: &ControlAction, out: &mut String) {
    let _ = write!(out, "{i}:");
    for f in &a.freqs {
        let _ = write!(out, " {}", f.khz());
    }
    out.push_str(" |");
    for &p in &a.parked {
        out.push(if p { 'P' } else { '.' });
    }
    out.push('\n');
}

pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/hotpath")
        .join(format!("{name}.txt"))
}

pub fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "control stream for '{name}' diverged from the pre-refactor golden fixture"
    );
}

/// Every policy kind, with the platform it runs on natively.
pub fn policy_platforms() -> Vec<(PolicyKind, PlatformSpec)> {
    vec![
        (PolicyKind::RaplNative, PlatformSpec::skylake()),
        (PolicyKind::Priority, PlatformSpec::skylake()),
        (PolicyKind::FrequencyShares, PlatformSpec::skylake()),
        (PolicyKind::PerformanceShares, PlatformSpec::skylake()),
        (PolicyKind::PowerShares, PlatformSpec::ryzen()),
    ]
}

pub fn four_apps(platform: &PlatformSpec) -> Vec<AppSpec> {
    let mix = [
        ("cactusBSSN", spec::CACTUS_BSSN, 70u32),
        ("lbm", spec::LBM, 50),
        ("gcc", spec::GCC, 50),
        ("leela", spec::LEELA, 30),
    ];
    mix.iter()
        .enumerate()
        .map(|(core, (name, profile, shares))| {
            AppSpec::new(name.to_string(), core)
                .with_priority(Priority::High)
                .with_shares(*shares)
                .with_baseline_ips(profile.ips(standalone_freq(platform, profile)))
        })
        .collect()
}

/// Drive a daemon against a fresh `C` for `seconds` at 2 ms ticks (with
/// the RAPL limit programmed for the RAPL baseline), returning every
/// sample the control loop consumed and every action it programmed.
pub fn drive_on<C: ChipLike>(
    daemon: &mut Daemon,
    platform: &PlatformSpec,
    seconds: f64,
) -> (Vec<Sample>, Vec<ControlAction>) {
    let mut chip = C::shared(Arc::new(platform.clone()));
    if daemon.config().policy == PolicyKind::RaplNative {
        chip.set_rapl_limit(Some(daemon.config().power_limit))
            .expect("RAPL range");
    }
    let mut apps: Vec<(usize, RunningApp)> = daemon
        .config()
        .apps
        .iter()
        .map(|a| {
            (
                a.core,
                RunningApp::looping(spec::by_name(&a.name).unwrap_or(spec::GCC)),
            )
        })
        .collect();

    let mut backend = SimBackend::new(chip);
    let mut lp = ControlLoop::start(&mut backend, daemon).expect("valid freqs");
    let dt = Seconds(0.002);
    let (mut samples, mut actions) = (Vec::new(), Vec::new());
    while lp.elapsed().value() < seconds {
        for (core, app) in apps.iter_mut() {
            if !lp.action().parked[*core] {
                app.tick_on(backend.chip_mut(), *core, dt).unwrap();
            }
        }
        if let Some(sample) = lp.tick(&mut backend, daemon, dt).expect("valid freqs") {
            samples.push(sample);
            actions.push(lp.action().clone());
        }
    }
    (samples, actions)
}

/// [`drive_on`] a per-core [`Chip`], returning every commanded action.
pub fn drive(daemon: &mut Daemon, platform: &PlatformSpec, seconds: f64) -> Vec<ControlAction> {
    drive_on::<Chip>(daemon, platform, seconds).1
}
