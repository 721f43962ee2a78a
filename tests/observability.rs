//! End-to-end tests for the decision-trace observability layer and the
//! hot-path bugfixes that shipped with it:
//!
//! * a malformed (short) telemetry sample no longer panics the daemon —
//!   it degrades to holding the previous action and reports a typed
//!   error / trace event instead;
//! * `resume_from` snaps off-grid operating points onto the P-state
//!   grid under every policy;
//! * observability is strictly off-path: with no observer attached the
//!   commanded `ControlAction` stream is untouched, and attaching one
//!   changes nothing but the presence of records (bit-identity checked
//!   per policy, RAPL baseline included);
//! * the resilience ladder and the cluster arbiter emit records too,
//!   and serial vs parallel cluster execution produces identical ones.

mod common;

use std::sync::Arc;

use common::{drive, four_apps, policy_platforms};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::counters::CoreRates;
use pap_telemetry::metrics::ControlMetrics;
use pap_telemetry::sampler::{Sample, Sampler};
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::{ControlAction, Daemon, DaemonError};
use powerd::obs::{DecisionEvent, DecisionTrace};
use powerd::resilience::{
    CoreObservation, DegradationLevel, Observation, ResilienceConfig, ResilientDaemon,
};

/// Truncate a sample's per-core slices (a torn/partial telemetry read).
fn truncate(sample: &Sample, cores: usize) -> Sample {
    let mut s = sample.clone();
    s.cores.truncate(cores);
    s
}

#[test]
fn short_sample_degrades_instead_of_panicking() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));
        let mut daemon = Daemon::new(config, &platform).expect("valid config");
        daemon.attach_observer(DecisionTrace::new());
        let good = drive(&mut daemon, &platform, 5.0);
        let last = good.last().expect("ran at least one interval").clone();

        // Build a plausible sample, then tear off cores 2..: the app
        // pinned to core 3 can no longer be observed.
        let full = Sample {
            time: Seconds(6.0),
            interval: Seconds(1.0),
            package_power: Watts(35.0),
            cores_power: Watts(25.0),
            cores: (0..platform.num_cores)
                .map(|_| pap_telemetry::sampler::CoreSample {
                    rates: CoreRates {
                        active_freq: KiloHertz::from_mhz(2000),
                        c0_residency: 1.0,
                        ips: 1e9,
                    },
                    power: Some(Watts(3.0)),
                    requested_freq: KiloHertz::from_mhz(2000),
                })
                .collect(),
        };
        let short = truncate(&full, 2);

        // The typed path reports the shortfall precisely (the first app
        // whose pinned core the sample does not cover sits on core 2).
        let err = daemon.try_step(&short).expect_err("short sample must err");
        assert!(
            matches!(
                err,
                DaemonError::ShortSample {
                    expected: 3,
                    got: 2
                }
            ),
            "{policy:?}: unexpected error {err}"
        );

        // The infallible path holds the previous decision, sized for the
        // whole chip as always.
        let held = daemon.step(&short);
        assert_eq!(held.freqs.len(), platform.num_cores, "{policy:?}");
        assert_eq!(
            held, last,
            "{policy:?}: a malformed sample must hold the previous action"
        );

        // And the trace says why.
        let trace = daemon.take_observer().expect("observer attached");
        let record = trace.records().last().expect("degraded step recorded");
        let kinds: Vec<&str> = record.events.iter().map(|e| e.kind()).collect();
        assert!(
            kinds.contains(&"short_sample") && kinds.contains(&"held"),
            "{policy:?}: events {kinds:?}"
        );
    }
}

#[test]
fn resume_from_snaps_off_grid_points_to_the_grid() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));
        let mut daemon = Daemon::new(config, &platform).expect("valid config");
        daemon.initial();

        // A firmware-throttled chip reports operating points nowhere
        // near the grid: off-step, below the floor, above the ceiling.
        let observed: Vec<KiloHertz> = (0..platform.num_cores)
            .map(|c| match c % 3 {
                0 => KiloHertz(1_234_567),
                1 => KiloHertz(123),
                _ => KiloHertz(9_999_999),
            })
            .collect();
        daemon.resume_from(&observed);

        for (i, &f) in daemon.current_targets().iter().enumerate() {
            assert!(
                platform.grid.contains(f),
                "{policy:?}: app {i} resumed to off-grid {f:?}"
            );
        }

        // The daemon must keep stepping normally from the resumed state.
        let actions = drive_resumed(&mut daemon, &platform, 3.0);
        assert!(!actions.is_empty());
    }
}

/// Like [`drive`] but without re-running `initial()` (the daemon already
/// resumed), so it cannot start a `ControlLoop`; just advances a fresh
/// chip under the daemon's control.
fn drive_resumed(daemon: &mut Daemon, platform: &PlatformSpec, seconds: f64) -> Vec<ControlAction> {
    let mut chip = Chip::new(platform.clone());
    let mut sampler = Sampler::new(&chip);
    let dt = Seconds(0.002);
    let mut actions = Vec::new();
    let mut next_control = 1.0;
    let mut t = 0.0;
    while t < seconds {
        for core in 0..platform.num_cores.min(4) {
            chip.set_load(core, pap_simcpu::power::LoadDescriptor::nominal())
                .unwrap();
        }
        chip.tick(dt);
        t += dt.value();
        if t + 1e-9 >= next_control {
            next_control += 1.0;
            if let Some(sample) = sampler.sample(&chip) {
                let action = daemon.step(&sample);
                chip.set_all_requested(&action.freqs).expect("valid freqs");
                actions.push(action);
            }
        }
    }
    actions
}

#[test]
fn observer_is_strictly_off_path_for_every_policy() {
    for (policy, platform) in policy_platforms() {
        let config = DaemonConfig::new(policy, Watts(40.0), four_apps(&platform));

        let mut plain = Daemon::new(config.clone(), &platform).expect("valid config");
        let baseline = drive(&mut plain, &platform, 30.0);

        let mut observed = Daemon::new(config, &platform).expect("valid config");
        observed.attach_observer(DecisionTrace::with_metrics(Arc::new(ControlMetrics::new())));
        let traced = drive(&mut observed, &platform, 30.0);

        assert_eq!(
            baseline, traced,
            "{policy:?}: attaching an observer changed the commanded actions"
        );
        let trace = observed.take_observer().expect("observer attached");
        assert_eq!(
            trace.len(),
            traced.len(),
            "{policy:?}: one record per control interval"
        );
        let metrics = trace.metrics().expect("metrics attached");
        assert_eq!(metrics.decisions.get(), traced.len() as u64);
    }
}

#[test]
fn resilience_ladder_transitions_are_recorded() {
    let mut platform = PlatformSpec::ryzen();
    platform.shared_pstate_slots = None;
    let apps = vec![
        AppSpec::new("a", 0).with_shares(70).with_baseline_ips(2e9),
        AppSpec::new("b", 1).with_shares(30).with_baseline_ips(2e9),
    ];
    let config = DaemonConfig::new(PolicyKind::PowerShares, Watts(30.0), apps);
    let rcfg = ResilienceConfig::default();
    let mut daemon = ResilientDaemon::new(config, &platform, rcfg).expect("valid config");
    daemon.attach_observer(DecisionTrace::new());

    let obs = |t: f64, core0_power: Option<f64>| Observation {
        time: Seconds(t),
        interval: Seconds(1.0),
        package_power: Some(Watts(25.0)),
        cores: (0..platform.num_cores)
            .map(|c| CoreObservation {
                rates: Some(CoreRates {
                    active_freq: KiloHertz::from_mhz(2000),
                    c0_residency: 1.0,
                    ips: 1e9,
                }),
                power: if c == 0 {
                    core0_power.map(Watts)
                } else {
                    Some(Watts(3.0))
                },
                requested: None,
            })
            .collect(),
        retries: Vec::new(),
    };

    let mut t = 0.0;
    for _ in 0..3 {
        t += 1.0;
        daemon.step(&obs(t, Some(3.0)));
    }
    assert_eq!(daemon.level(), DegradationLevel::Nominal);
    // Core 0's power sensor goes dark: demote_after = 3 consecutive
    // failures demote power shares to frequency shares.
    for _ in 0..rcfg.demote_after {
        t += 1.0;
        daemon.step(&obs(t, None));
    }
    assert_eq!(daemon.level(), DegradationLevel::FrequencyOnly);

    let trace = daemon.take_observer().expect("observer attached");
    let transition = trace
        .records()
        .iter()
        .flat_map(|r| &r.events)
        .find_map(|e| match e {
            DecisionEvent::LadderTransition { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .expect("demotion must be traced");
    assert_eq!(transition, ("nominal", "freq-only"));

    // Records carry the layer and ladder level.
    let last = trace.records().last().unwrap();
    assert_eq!(last.source, "resilience");
    assert_eq!(last.level, Some("freq-only"));
    assert_eq!(last.policy, "freq-shares", "fallback policy is reported");
}

#[test]
fn cluster_records_identical_serial_and_parallel() {
    use clusterd::admission::{AppRequest, DemandClass};
    use clusterd::cluster::{Cluster, ClusterConfig};
    use pap_scale::{run_sharded, ScaleConfig};

    let build = || {
        let mut cfg = ClusterConfig::new(3, PolicyKind::FrequencyShares, Watts(150.0));
        cfg.rebalance_every = 2;
        let mut c = Cluster::new(cfg).unwrap();
        for i in 0..9 {
            let demand = [
                DemandClass::Heavy,
                DemandClass::Moderate,
                DemandClass::Light,
            ][i % 3];
            c.admit(&AppRequest::new(
                format!("app{i}"),
                20 + 10 * (i as u32 % 4),
                demand,
            ))
            .unwrap();
        }
        c.attach_observer(DecisionTrace::with_metrics(Arc::new(ControlMetrics::new())));
        c
    };

    let mut serial = build();
    let mut parallel = build();
    serial.run(8);
    let engine = ScaleConfig {
        shards: 3,
        chunk_nodes: 1,
        epsilon: 0.0,
    };
    assert_eq!(run_sharded(&mut parallel, 8, &engine).shards, 3);

    let s = serial.take_observer().expect("observer attached");
    let p = parallel.take_observer().expect("observer attached");
    assert_eq!(s.len(), 4, "one record per rebalance round");
    assert_eq!(s.len(), p.len());
    for (sr, pr) in s.records().iter().zip(p.records()) {
        // Latency is wall-clock and legitimately differs; every decision
        // field must not.
        assert_eq!(sr.time, pr.time);
        assert_eq!(sr.source, "cluster");
        assert_eq!(sr.budget, pr.budget);
        assert_eq!(sr.measured, pr.measured);
        assert_eq!(sr.model_confident, pr.model_confident);
        assert_eq!(sr.events, pr.events);
    }
    // The metrics registry aggregates the same rounds.
    let metrics = s.metrics().expect("metrics attached");
    assert_eq!(metrics.rebalances.get(), 4);
}

#[test]
fn jsonl_sink_emits_one_parseable_line_per_record() {
    let platform = PlatformSpec::skylake();
    let config = DaemonConfig::new(
        PolicyKind::FrequencyShares,
        Watts(40.0),
        four_apps(&platform),
    );
    let mut daemon = Daemon::new(config, &platform).expect("valid config");
    daemon.attach_observer(DecisionTrace::new());
    drive(&mut daemon, &platform, 10.0);

    let trace = daemon.take_observer().expect("observer attached");
    let jsonl = trace.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), trace.len());
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"source\":\"daemon\""));
        assert!(line.contains("\"policy\":\"freq-shares\""));
        assert!(line.contains("\"apps\":["));
    }
}
