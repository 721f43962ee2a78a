//! Bit-identity proof for decision memoization (DESIGN.md §16).
//!
//! `DecisionMemo` at ε = 0 must be invisible: every control action a
//! memoizing daemon emits must equal — to the bit — what a daemon with
//! memoization disabled emits, for all six policy scenarios under both
//! translation models. Two complementary proofs:
//!
//! 1. replaying the memoizing daemon against the **same golden fixtures**
//!    `hotpath.rs` records for the non-memoized controller;
//! 2. twin-daemon lockstep over a telemetry stream that *converges*, so
//!    the memo actually fires (the golden stream changes every interval,
//!    which exercises the all-miss path only).
//!
//! The ε > 0 drift bound lives in `proptests.rs`.

mod common;

use common::*;
use pap_bench::synth::*;
use pap_model::TranslationKind;
use pap_simcpu::units::Watts;
use pap_telemetry::sampler::Sample;
use powerd::config::{DaemonConfig, MemoMode, PolicyKind};
use powerd::daemon::Daemon;

fn daemon_with(
    policy: PolicyKind,
    platform: &pap_simcpu::platform::PlatformSpec,
    apps: &[powerd::config::AppSpec],
    translation: TranslationKind,
    memo: MemoMode,
) -> Daemon {
    let mut config = DaemonConfig::new(policy, Watts(45.0), apps.to_vec());
    config.translation = translation;
    config.memo = memo;
    Daemon::new(config, platform).expect("valid memo test config")
}

/// A stream that varies for `vary` intervals, then repeats one settled
/// sample whose package power sits exactly on the limit (inside the
/// deadband, so every controller holds): the converged-fleet shape the
/// memo is built for. Freezing at an arbitrary off-limit power instead
/// can leave bang-bang controllers in a period-2 limit cycle, which a
/// depth-1 memo correctly never replays (no state fixpoint).
fn converging_stream(
    platform: &pap_simcpu::platform::PlatformSpec,
    apps: &[powerd::config::AppSpec],
    vary: usize,
    tail: usize,
) -> Vec<Sample> {
    let limit = Watts(45.0);
    (0..vary + tail)
        .map(|i| {
            let mut s = synth_sample(i.min(vary), platform, apps, limit);
            if i >= vary {
                s.package_power = limit;
            }
            s
        })
        .collect()
}

#[test]
fn memo_exact_replays_the_golden_stream() {
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in policy_scenarios() {
            let mut d = daemon_with(policy, &platform, &apps, translation, MemoMode::exact());
            let mut out = String::new();
            fmt_action(0, &d.initial(), &mut out);
            for i in 0..STEPS {
                let s = synth_sample(i, &platform, &apps, Watts(45.0));
                fmt_action(i + 1, &d.step(&s), &mut out);
            }
            let suffix = match translation {
                TranslationKind::Naive => "naive",
                TranslationKind::Online => "online",
            };
            check_golden(&format!("{name}_{suffix}"), &out);
        }
    }
}

#[test]
fn memo_exact_is_bit_identical_in_lockstep() {
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in policy_scenarios() {
            let mut plain = daemon_with(policy, &platform, &apps, translation, MemoMode::Off);
            let mut memod = daemon_with(policy, &platform, &apps, translation, MemoMode::exact());
            assert_eq!(plain.initial(), memod.initial());
            for (i, s) in converging_stream(&platform, &apps, 60, 140)
                .iter()
                .enumerate()
            {
                let a = plain.step(s);
                let b = memod.step(s);
                assert_eq!(
                    a, b,
                    "{name}/{translation:?}: action diverged at interval {i}"
                );
            }
            assert!(
                plain.memo_stats().is_none(),
                "MemoMode::Off must not build a memo"
            );
        }
    }
}

#[test]
fn memo_hits_once_telemetry_converges() {
    // Under naive translation nothing outside the fingerprint moves, so
    // a converged stream must produce a long run of hits; the varying
    // prefix must produce only misses (exact mode sees every bit).
    for (name, policy, platform, apps) in policy_scenarios() {
        let mut d = daemon_with(
            policy,
            &platform,
            &apps,
            TranslationKind::Naive,
            MemoMode::exact(),
        );
        d.initial();
        for s in converging_stream(&platform, &apps, 60, 140) {
            d.step(&s);
        }
        let stats = d.memo_stats().expect("memo is on");
        assert_eq!(stats.hits + stats.misses, 200, "{name}: every step counted");
        // Settling time differs per policy (PowerShares redistributes
        // for tens of intervals before its targets stop moving); what
        // matters is a long terminal hit run once it has.
        assert!(
            stats.hits >= 50,
            "{name}: converged tail should hit at length, got {stats:?}"
        );
        assert!(
            stats.misses >= 60,
            "{name}: the varying prefix must miss every interval, got {stats:?}"
        );
    }
}

#[test]
fn memo_under_online_learning_never_replays_stale_fits() {
    // While the online model is learning, its generation counter bumps
    // every observed interval, so the memo must miss every time — a hit
    // would replay a decision made under an older fit.
    for (name, policy, platform, apps) in policy_scenarios() {
        let mut d = daemon_with(
            policy,
            &platform,
            &apps,
            TranslationKind::Online,
            MemoMode::exact(),
        );
        d.initial();
        for s in converging_stream(&platform, &apps, 30, 70) {
            d.step(&s);
        }
        let stats = d.memo_stats().expect("memo is on");
        assert_eq!(
            stats.hits, 0,
            "{name}: learning moves the model every interval; hits would be stale"
        );
    }
}

#[test]
fn set_memo_toggles_and_resets() {
    let (_, policy, platform, apps) = policy_scenarios().remove(1);
    let mut d = daemon_with(
        policy,
        &platform,
        &apps,
        TranslationKind::Naive,
        MemoMode::Off,
    );
    assert!(d.memo_stats().is_none());
    d.set_memo(MemoMode::exact());
    d.initial();
    for s in converging_stream(&platform, &apps, 5, 20) {
        d.step(&s);
    }
    assert!(d.memo_stats().expect("enabled").hits > 0);
    d.set_memo(MemoMode::Off);
    assert!(d.memo_stats().is_none(), "disabling drops the memo");
}
