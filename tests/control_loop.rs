//! The §5 monitoring loop (`powerd::hw::ControlLoop`): it steps the
//! daemon once per control interval whatever the tick, and it is generic
//! over the simulator — the batch-stepped `WideChip` and the per-core
//! `Chip` feed it bit-identical telemetry and get bit-identical actions
//! back.

mod common;

use common::{drive_on, four_apps, policy_platforms};
use pap_simcpu::chip::Chip;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;
use powerd::config::{DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, SimBackend};

#[test]
fn steps_once_per_control_interval_whatever_the_tick() {
    let platform = PlatformSpec::skylake();
    for (interval, steps) in [(0.25, 80), (1.0, 20), (4.0, 5)] {
        for dt in [Seconds(0.001), Seconds(0.002)] {
            let mut config = DaemonConfig::new(
                PolicyKind::FrequencyShares,
                Watts(40.0),
                four_apps(&platform),
            );
            config.control_interval = Seconds(interval);
            let mut daemon = Daemon::new(config, &platform).expect("valid config");
            let mut apps: Vec<RunningApp> = [spec::CACTUS_BSSN, spec::LBM, spec::GCC, spec::LEELA]
                .into_iter()
                .map(RunningApp::looping)
                .collect();
            let mut backend = SimBackend::new(Chip::new(platform.clone()));
            let mut lp = ControlLoop::start(&mut backend, &mut daemon).expect("valid freqs");
            let mut samples = Vec::new();
            while lp.elapsed() < Seconds(20.0) {
                for (core, app) in apps.iter_mut().enumerate() {
                    app.tick_on(backend.chip_mut(), core, dt).unwrap();
                }
                if let Some(s) = lp.tick(&mut backend, &mut daemon, dt).unwrap() {
                    samples.push(s);
                }
            }
            assert_eq!(
                samples.len(),
                steps,
                "{interval} s interval at {dt:?} ticks over 20 s"
            );
            for s in &samples {
                assert!(
                    (s.interval.value() - interval).abs() < dt.value() / 2.0,
                    "sample at {:?} spans {:?}, not one {interval} s interval",
                    s.time,
                    s.interval
                );
            }
        }
    }
}

#[test]
fn wide_and_per_core_backends_drive_identical_loops() {
    for (policy, platform) in policy_platforms() {
        if platform.shared_pstate_slots.is_some() {
            continue; // WideChip models private P-states only (Skylake)
        }
        let mk = || {
            Daemon::new(
                DaemonConfig::new(policy, Watts(40.0), four_apps(&platform)),
                &platform,
            )
            .expect("valid config")
        };
        let per_core = drive_on::<Chip>(&mut mk(), &platform, 15.0);
        let wide = drive_on::<WideChip>(&mut mk(), &platform, 15.0);
        assert_eq!(per_core.1.len(), 15, "{policy:?}: one step per second");
        assert_eq!(per_core.0, wide.0, "{policy:?}: samples diverged");
        assert_eq!(per_core.1, wide.1, "{policy:?}: actions diverged");
    }
}
