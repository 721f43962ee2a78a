//! Extension: learned translation bench — online model vs the naïve α.
//!
//! The paper's translation (§5.2) converts a power error into a
//! frequency delta with `α = ΔP / P_max`, a deliberately crude constant
//! the closed loop has to iterate away. The `pap_model` online model
//! learns the chip's real power/frequency curve from the daemon's own
//! telemetry and inverts *that* instead, falling back to naïve α
//! bit-for-bit while its fits are not yet trustworthy.
//!
//! This bench replays one budget schedule — a warm-up cap, a hard step
//! down, then diurnal-style retargets — over an identical workload mix
//! three times:
//!
//! * **naive** — the paper's α translation;
//! * **online** — the learned model (warm by the time the step lands);
//! * **fallback** — the online plumbing with a fit that is never
//!   allowed to become confident, which must reproduce the naive run's
//!   commanded frequencies exactly.
//!
//! Scored on settling time: after each downward retarget, how many
//! control intervals until package power holds within the tolerance
//! band around the new cap. Exits non-zero if the online model needs
//! more settling intervals than naïve α overall, if it sustains a cap
//! violation, or if the fallback run diverges from naive, so CI can run
//! it as a smoke test:
//! `cargo run --release -p pap-bench --bin ext_model -- --seed 42`.

use std::process::ExitCode;

use pap_bench::{f1, Table};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_workloads::engine::RunningApp;
use pap_workloads::phases::PhasedProfile;
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, SimBackend};
use powerd::prelude::{ModelConfig, ModelSnapshot};
use powerd::runner::standalone_freq;

/// The budget schedule: (time the cap takes effect, cap). The first
/// entry is the warm-up cap the daemon starts under; the 60 s entry is
/// the headline hard step; the rest emulate a compressed diurnal cycle.
const SCHEDULE: &[(f64, f64)] = &[
    (0.0, 45.0),
    (60.0, 30.0),
    (95.0, 40.0),
    (130.0, 27.0),
    (165.0, 36.0),
];

const DURATION: Seconds = Seconds(200.0);
const TICK: Seconds = Seconds(0.002);
/// Settled = within this band of the cap for [`HOLD`] consecutive
/// intervals. The band must contain the controller's steady state: on
/// Skylake the three shared P-state slots quantize the operating point
/// into a persistent ±2.7 W limit cycle around the cap.
const TOL_WATTS: f64 = 3.5;
/// Consecutive in-band intervals that count as settled.
const HOLD: usize = 3;
/// A sustained violation: this far over the cap after settling once
/// (just above the quantization limit cycle's crest).
const VIOLATION_WATTS: f64 = 4.5;

struct Retarget {
    at: f64,
    cap: f64,
    /// Scored steps are the downward ones: the controller must shed
    /// power it is already spending, so the translation's gain is what
    /// sets the settling time.
    scored: bool,
}

struct Outcome {
    /// Commanded per-core frequencies, one row per control interval.
    freqs: Vec<Vec<KiloHertz>>,
    /// Package power per control interval.
    power: Vec<f64>,
    /// Settling intervals per scored retarget (capped at the window).
    settling: Vec<usize>,
    /// Worst overshoot (W over cap) after first settling, per scored step.
    resettle_over: Vec<f64>,
    snapshot: ModelSnapshot,
}

fn schedule() -> Vec<Retarget> {
    SCHEDULE
        .windows(2)
        .map(|w| Retarget {
            at: w[1].0,
            cap: w[1].1,
            scored: w[1].1 < w[0].1,
        })
        .chain(std::iter::once(Retarget {
            at: SCHEDULE[0].0,
            cap: SCHEDULE[0].1,
            scored: false,
        }))
        .collect()
}

fn run(kind: TranslationKind, never_confident: bool, seed: u64) -> Outcome {
    let platform = PlatformSpec::skylake();
    let mix = [
        ("cactus", spec::CACTUS_BSSN, 70u32),
        ("lbm", spec::LBM, 50),
        ("gcc", spec::GCC, 50),
        ("leela", spec::LEELA, 30),
    ];
    let apps: Vec<AppSpec> = mix
        .iter()
        .enumerate()
        .map(|(core, (name, profile, shares))| {
            AppSpec::new(name.to_string(), core)
                .with_priority(Priority::High)
                .with_shares(*shares)
                .with_baseline_ips(profile.ips(standalone_freq(&platform, profile)))
        })
        .collect();
    let mut config = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(SCHEDULE[0].1), apps);
    config.translation = kind;

    let mut daemon = Daemon::new(config, &platform).expect("valid config");
    if never_confident {
        daemon.set_model_config(ModelConfig::never_confident());
    }
    let mut engines: Vec<RunningApp> = mix
        .iter()
        .enumerate()
        .map(|(i, (_, profile, _))| {
            RunningApp::from_phased(
                PhasedProfile::with_generated_phases(*profile, seed ^ (i as u64) << 8, 0.1),
                true,
            )
        })
        .collect();

    let mut backend = SimBackend::new(Chip::new(platform));
    let mut lp = ControlLoop::start(&mut backend, &mut daemon).expect("valid freqs");
    let mut retargets: Vec<Retarget> = schedule();
    retargets.sort_by(|a, b| a.at.total_cmp(&b.at));
    let mut next_retarget = 0;

    let mut freqs_log = Vec::new();
    let mut power_log = Vec::new();
    while lp.elapsed() < DURATION {
        let t = lp.elapsed().value();
        if next_retarget < retargets.len() && t + 1e-9 >= retargets[next_retarget].at {
            daemon
                .retarget_budget(Watts(retargets[next_retarget].cap))
                .expect("cap within RAPL range");
            next_retarget += 1;
        }
        for (i, app) in engines.iter_mut().enumerate() {
            if !lp.action().parked[i] {
                app.tick_on(backend.chip_mut(), i, TICK)
                    .expect("core in range");
            }
        }
        if let Some(sample) = lp
            .tick(&mut backend, &mut daemon, TICK)
            .expect("valid freqs")
        {
            power_log.push(sample.package_power.value());
            freqs_log.push(lp.action().freqs.clone());
        }
    }

    // Score settling per retarget window.
    let mut settling = Vec::new();
    let mut resettle_over = Vec::new();
    for (i, r) in retargets.iter().enumerate() {
        if !r.scored {
            continue;
        }
        let start = r.at as usize; // 1 s intervals: index == second
        let end = retargets
            .get(i + 1)
            .map(|n| n.at as usize)
            .unwrap_or(power_log.len())
            .min(power_log.len());
        let window = &power_log[start.min(power_log.len())..end];
        let settled_at = window
            .windows(HOLD)
            .position(|w| w.iter().all(|&p| (p - r.cap).abs() <= TOL_WATTS));
        settling.push(settled_at.unwrap_or(window.len()));
        let over = match settled_at {
            Some(s) => window[s..]
                .iter()
                .map(|&p| p - r.cap)
                .fold(0.0f64, f64::max),
            None => f64::INFINITY,
        };
        resettle_over.push(over);
    }

    Outcome {
        freqs: freqs_log,
        power: power_log,
        settling,
        resettle_over,
        snapshot: daemon.model_snapshot(),
    }
}

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            other => {
                eprintln!("unknown argument: {other} (usage: ext_model [--seed N])");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "budget schedule: {} retargets over {} s, seed {seed}",
        SCHEDULE.len() - 1,
        DURATION.value()
    );
    for w in SCHEDULE.windows(2) {
        println!("  t={:>5.0}s  {} W -> {} W", w[1].0, w[0].1, w[1].1);
    }
    println!();

    let naive = run(TranslationKind::Naive, false, seed);
    let online = run(TranslationKind::Online, false, seed);
    let fallback = run(TranslationKind::Online, true, seed);

    let mut t = Table::new(
        "Budget-step settling: naive α vs learned model (1 s intervals)",
        &[
            "translation",
            "settling (per step)",
            "total",
            "worst resettle over (W)",
            "fallback %",
            "prediction rms (W)",
        ],
    );
    for (name, o) in [
        ("naive", &naive),
        ("online", &online),
        ("fallback", &fallback),
    ] {
        let per_step = o
            .settling
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let worst = o.resettle_over.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![
            name.into(),
            per_step,
            o.settling.iter().sum::<usize>().to_string(),
            if worst.is_finite() {
                f1(worst)
            } else {
                "never settled".into()
            },
            format!("{:.0}", o.snapshot.fallback_fraction() * 100.0),
            o.snapshot
                .prediction_rms_watts
                .map(f1)
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    println!("{t}");

    let naive_total: usize = naive.settling.iter().sum();
    let online_total: usize = online.settling.iter().sum();
    let identical = naive.freqs == fallback.freqs && naive.power == fallback.power;
    let online_violation = online
        .resettle_over
        .iter()
        .any(|&o| !o.is_finite() || o > VIOLATION_WATTS);

    println!(
        "fallback vs naive: commanded frequencies {} over {} intervals",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        naive.freqs.len()
    );

    let mut ok = true;
    if online_total > naive_total {
        println!(
            "FAIL: online settles in {online_total} intervals vs naive {naive_total} — the learned \
             model must beat or match α"
        );
        ok = false;
    } else {
        println!(
            "verdict: online settles in {online_total} intervals vs naive {naive_total} across \
             {} downward steps",
            naive.settling.len()
        );
    }
    if online_violation {
        println!("FAIL: online run sustains a cap violation after settling");
        ok = false;
    }
    if !identical {
        println!("FAIL: low-confidence fallback must reproduce the naive run exactly");
        ok = false;
    }
    if ok {
        println!("PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
