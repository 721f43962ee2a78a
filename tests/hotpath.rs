//! Golden-replay and memory-discipline guarantees for the control hot
//! path (DESIGN.md §11).
//!
//! The scratch-arena refactor must not change a single control decision:
//! these tests replay deterministic synthetic telemetry streams through
//! every policy (plus the RAPL baseline and the resilience ladder) and
//! compare the serialized `ControlAction` stream against fixtures
//! generated from the pre-refactor controller. Regenerate with
//! `GOLDEN_REGEN=1 cargo test --test hotpath` — but only intentionally:
//! a diff here means the controller's behaviour changed.
//!
//! The synthetic-telemetry harness and scenario matrix live in
//! `common/mod.rs`.

mod common;

use clusterd::admission::{AppRequest, DemandClass};
use clusterd::node::Node;
use clusterd::{Cluster, ClusterConfig};
use common::*;
use pap_alloccount::{count_events, AllocCounter, CountingAlloc};
use pap_bench::synth::*;
use pap_model::TranslationKind;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::sampler::Sample;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec::spec2017;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;
use powerd::resilience::{CoreObservation, Observation, ResilienceConfig, ResilientDaemon};

use std::fmt::Write as _;

/// Count every heap allocation in this test binary, per thread, so the
/// zero-alloc steady-state assertion below is a real measurement.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Replay `STEPS` synthetic intervals through a daemon and serialize
/// every action.
fn replay_daemon(
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: Vec<AppSpec>,
    translation: TranslationKind,
) -> String {
    let limit = Watts(45.0);
    let mut config = DaemonConfig::new(policy, limit, apps.clone());
    config.translation = translation;
    let mut d = Daemon::new(config, platform).expect("valid golden config");
    let mut out = String::new();
    fmt_action(0, &d.initial(), &mut out);
    for i in 0..STEPS {
        let s = synth_sample(i, platform, &apps, limit);
        fmt_action(i + 1, &d.step(&s), &mut out);
    }
    out
}

/// Replay the resilience ladder: healthy → per-core power lost
/// (FrequencyOnly) → package power lost (UniformCap) → recovery.
fn replay_ladder() -> String {
    let platform = PlatformSpec::ryzen();
    let apps = ryzen_apps();
    let limit = Watts(45.0);
    let config = DaemonConfig::new(PolicyKind::PowerShares, limit, apps.clone());
    let mut d = ResilientDaemon::new(config, &platform, ResilienceConfig::default())
        .expect("valid ladder config");
    let mut out = String::new();
    fmt_action(0, &d.initial(), &mut out);
    for i in 0..STEPS {
        let s = synth_sample(i, &platform, &apps, limit);
        let core_power_lost = (50..130).contains(&i);
        let pkg_lost = (90..130).contains(&i);
        let obs = Observation {
            time: s.time,
            interval: s.interval,
            package_power: if pkg_lost {
                None
            } else {
                Some(s.package_power)
            },
            cores: s
                .cores
                .iter()
                .map(|cs| CoreObservation {
                    rates: Some(cs.rates),
                    power: if core_power_lost { None } else { cs.power },
                    requested: Some(cs.requested_freq),
                })
                .collect(),
            retries: Vec::new(),
        };
        let a = d.step(&obs);
        let _ = write!(out, "L{} ", d.level());
        fmt_action(i + 1, &a, &mut out);
    }
    out
}

#[test]
fn golden_replay_all_policies_naive() {
    for (name, policy, platform, apps) in policy_scenarios() {
        let actual = replay_daemon(policy, &platform, apps, TranslationKind::Naive);
        check_golden(&format!("{name}_naive"), &actual);
    }
}

#[test]
fn golden_replay_all_policies_online() {
    for (name, policy, platform, apps) in policy_scenarios() {
        let actual = replay_daemon(policy, &platform, apps, TranslationKind::Online);
        check_golden(&format!("{name}_online"), &actual);
    }
}

#[test]
fn golden_replay_resilience_ladder() {
    check_golden("resilience_ladder", &replay_ladder());
}

/// The tentpole guarantee: once warmed up, `Daemon::step_view` performs
/// **zero heap allocations per step** for every policy under both
/// translation models (observer detached). Samples are synthesized
/// outside the measured window; only the control step is counted.
#[test]
fn zero_alloc_steady_state() {
    const WARMUP: usize = 50;
    const MEASURED: usize = 100;
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in policy_scenarios() {
            let limit = Watts(45.0);
            let mut config = DaemonConfig::new(policy, limit, apps.clone());
            config.translation = translation;
            let mut d = Daemon::new(config, &platform).expect("valid config");
            d.initial();
            let samples: Vec<Sample> = (0..WARMUP + MEASURED)
                .map(|i| synth_sample(i, &platform, &apps, limit))
                .collect();
            for s in &samples[..WARMUP] {
                d.step_view(s);
            }
            for (i, s) in samples[WARMUP..].iter().enumerate() {
                let before = AllocCounter::snapshot();
                d.step_view(s);
                let after = AllocCounter::snapshot();
                assert_eq!(
                    after.events_since(&before),
                    0,
                    "{name}/{translation:?}: step {} allocated on the hot path \
                     ({} allocs, {} reallocs, {} bytes)",
                    WARMUP + i,
                    after.allocs - before.allocs,
                    after.reallocs - before.reallocs,
                    after.bytes_since(&before),
                );
            }
        }
    }
}

/// A settled cluster node — resident apps, no churn — allocates nothing
/// per control interval: the instruction-credit buffer and the telemetry
/// sample live on the node, the daemon acts through `step_view`, and the
/// park flags are copied in place. The shares and priority nodes settle
/// into batched replay intervals; the RAPL-native node's hardware limit
/// keeps every tick on the per-tick path. Folding the RAPL averages the
/// batched intervals deferred, all nodes side by side, allocates nothing
/// either.
#[test]
fn zero_alloc_settled_node_interval() {
    const WARMUP: usize = 30;
    const MEASURED: usize = 30;
    let policies = [
        PolicyKind::FrequencyShares,
        PolicyKind::PerformanceShares,
        PolicyKind::Priority,
        PolicyKind::RaplNative,
    ];
    let mut nodes = Vec::new();
    for policy in policies {
        let mut node = Node::new(
            nodes.len(),
            &PlatformSpec::skylake(),
            policy,
            Watts(45.0),
            Seconds(1.0),
            Seconds(0.002),
        )
        .expect("valid node");
        let demands = [
            DemandClass::Heavy,
            DemandClass::Moderate,
            DemandClass::Light,
            DemandClass::Light,
        ];
        for (i, demand) in demands.into_iter().enumerate() {
            node.admit(&AppRequest::new(
                format!("app{i}"),
                10 + 20 * i as u32,
                demand,
            ))
            .expect("a free core");
        }
        nodes.push(node);
    }
    for _ in 0..WARMUP {
        for node in &mut nodes {
            node.advance_interval();
        }
        Node::settle_rapl(&mut nodes);
    }
    for i in 0..MEASURED {
        for (node, policy) in nodes.iter_mut().zip(policies) {
            let before = AllocCounter::snapshot();
            node.advance_interval();
            let after = AllocCounter::snapshot();
            assert_eq!(
                after.events_since(&before),
                0,
                "{policy:?}: interval {} allocated ({} allocs, {} reallocs, {} bytes)",
                WARMUP + i,
                after.allocs - before.allocs,
                after.reallocs - before.reallocs,
                after.bytes_since(&before),
            );
        }
        let before = AllocCounter::snapshot();
        Node::settle_rapl(&mut nodes);
        let after = AllocCounter::snapshot();
        assert_eq!(
            after.events_since(&before),
            0,
            "settle_rapl after interval {} allocated ({} bytes)",
            WARMUP + i,
            after.bytes_since(&before),
        );
    }
}

/// A membership change re-runs the initial distribution in the daemon's
/// own buffers. Once a daemon has held its app count before, the step
/// right after a departure and an arrival allocates nothing under every
/// policy, and neither does the whole interval of a cluster node (on the
/// Skylake policies: a `WideChip` node has no shared P-state slots).
#[test]
fn zero_alloc_interval_after_membership_change() {
    const WARMUP: usize = 2;
    const MEASURED: usize = 10;
    for (name, policy, platform, apps) in policy_scenarios() {
        let limit = Watts(45.0);
        let mut d = Daemon::new(DaemonConfig::new(policy, limit, apps.clone()), &platform)
            .expect("valid config");
        d.initial();
        for i in 0..WARMUP + MEASURED {
            let s = synth_sample(i, &platform, &apps, limit);
            d.step_view(&s);
            let leaving = d.config().apps[0].name.clone();
            let spec = d.remove_app(&leaving).expect("a configured app");
            d.add_app(spec).expect("its core is free again");
            let (_, events) = count_events(|| {
                d.step_view(&s);
            });
            if i >= WARMUP {
                assert_eq!(
                    events, 0,
                    "{name}: the step after membership change {i} allocated"
                );
            }
        }
    }
    let policies = [
        PolicyKind::FrequencyShares,
        PolicyKind::PerformanceShares,
        PolicyKind::Priority,
        PolicyKind::RaplNative,
        PolicyKind::FastCap,
    ];
    let demands = [
        DemandClass::Heavy,
        DemandClass::Moderate,
        DemandClass::Light,
        DemandClass::Light,
    ];
    let request =
        |i: usize| AppRequest::new(format!("app{i}"), 10 + 20 * (i % 4) as u32, demands[i % 4]);
    for policy in policies {
        let mut node = Node::new(
            0,
            &PlatformSpec::skylake(),
            policy,
            Watts(45.0),
            Seconds(1.0),
            Seconds(0.01),
        )
        .expect("valid node");
        for i in 0..demands.len() {
            node.admit(&request(i)).expect("a free core");
        }
        for cycle in 0..WARMUP + MEASURED {
            let leaving = format!("app{cycle}");
            let arriving = request(cycle + demands.len());
            for _ in 0..3 {
                node.advance_interval();
            }
            node.depart(&leaving).expect("a resident app");
            node.admit(&arriving).expect("a free core");
            let (_, events) = count_events(|| node.advance_interval());
            if cycle >= WARMUP {
                assert_eq!(
                    events, 0,
                    "{policy:?}: the interval after membership change {cycle} allocated"
                );
            }
        }
    }
}

/// Churn allocates only what it keeps. Once a small frequency-shares
/// cluster has churned long enough for its buffers to stop growing,
/// `admit_batch` of k fresh apps stores each name twice (the placement
/// key and the daemon's spec) plus the batch's candidate heap and result
/// vector, within a budget of 3k + 2 allocation events that leaves k for
/// a rare buffer growth; `depart_batch` allocates only its result vector.
#[test]
fn churn_allocation_budget() {
    const NODES: usize = 4;
    const RESIDENT: usize = 20;
    const K: usize = 5;
    const WARMUP: usize = 40;
    const MEASURED: usize = 20;
    let mut cfg = ClusterConfig::new(
        NODES,
        PolicyKind::FrequencyShares,
        Watts(45.0 * NODES as f64),
    );
    cfg.tick = Seconds(0.01);
    let mut cluster = Cluster::new(cfg).expect("the budget funds every node floor");
    let demands = [
        DemandClass::Heavy,
        DemandClass::Moderate,
        DemandClass::Light,
    ];
    let request =
        |i: usize| AppRequest::new(format!("app{i}"), 10 + 10 * (i % 7) as u32, demands[i % 3]);
    let initial: Vec<AppRequest> = (0..RESIDENT).map(request).collect();
    assert!(cluster.admit_batch(&initial).iter().all(Result::is_ok));
    cluster.run(1);
    for window in 0..WARMUP + MEASURED {
        // The oldest K apps leave and K fresh ones arrive.
        let first = window * K;
        let leaving: Vec<String> = (first..first + K).map(|i| format!("app{i}")).collect();
        let arriving: Vec<AppRequest> = (first + RESIDENT..first + RESIDENT + K)
            .map(request)
            .collect();
        let (departed, depart_events) = count_events(|| cluster.depart_batch(&leaving));
        let (admitted, admit_events) = count_events(|| cluster.admit_batch(&arriving));
        assert!(departed.iter().all(Result::is_ok) && admitted.iter().all(Result::is_ok));
        if window >= WARMUP {
            assert!(
                depart_events <= 1,
                "window {window}: depart_batch of {K} apps made {depart_events} allocation events"
            );
            assert!(
                admit_events <= 3 * K as u64 + 2,
                "window {window}: admit_batch of {K} apps made {admit_events} allocation events"
            );
        }
        cluster.run(1);
    }
}

/// A settled 1024-core wide node — one looping SPEC app per core, the
/// chip's pending ticks and the apps' deferred ticks both counting —
/// allocates nothing per tick of the per-tick protocol, nor when every
/// app is read through its `&self` readers (which fold the pending
/// ticks on local copies, never on a clone of the app).
#[test]
fn zero_alloc_settled_wide_node_ticks() {
    const CORES: usize = 1024;
    const WARMUP: usize = 50;
    const MEASURED: usize = 200;
    let tick = Seconds(0.01);
    let spec = PlatformSpec::wide(CORES);
    let mut chip = WideChip::new(spec.clone());
    let grid = spec.grid;
    let freqs: Vec<KiloHertz> = (0..CORES)
        .map(|c| KiloHertz(grid.min().khz() + (c % grid.len()) as u64 * grid.step().khz()))
        .collect();
    chip.set_all_requested(&freqs).expect("grid frequencies");
    let profiles = spec2017();
    let mut apps: Vec<RunningApp> = (0..CORES)
        .map(|c| RunningApp::looping(profiles[c % profiles.len()]))
        .collect();
    let run_tick = |chip: &mut WideChip, apps: &mut [RunningApp]| {
        for (core, app) in apps.iter_mut().enumerate() {
            app.tick_on(chip, core, tick).expect("core in range");
        }
        chip.tick(tick);
    };
    for _ in 0..WARMUP {
        run_tick(&mut chip, &mut apps);
    }
    assert!(chip.steady_tick(tick), "the chip must have settled");
    let mut checksum = 0.0;
    for t in 0..MEASURED {
        let before = AllocCounter::snapshot();
        run_tick(&mut chip, &mut apps);
        for app in &apps {
            checksum += app.progress()
                + app.last_ips()
                + app.active_time().value()
                + (app.total_retired() ^ app.completed_runs()) as f64;
        }
        let after = AllocCounter::snapshot();
        assert_eq!(
            after.events_since(&before),
            0,
            "tick {} allocated ({} allocs, {} reallocs, {} bytes)",
            WARMUP + t,
            after.allocs - before.allocs,
            after.reallocs - before.reallocs,
            after.bytes_since(&before),
        );
    }
    assert!(checksum.is_finite() && checksum > 0.0);
}
