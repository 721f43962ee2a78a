//! Cross-crate tests for the extension modules: cpufreq governors,
//! thermald-style management, the HWP probe and the §4.3 single-core
//! planner, each exercised against the live simulator.

use per_app_power::prelude::*;
use per_app_power::simcpu::thermal::{ThermalGovernor, ThermalZone};
use per_app_power::workloads::spec;
use powerd::config::Priority as Prio;
use powerd::governor::{run_service, Governor};
use powerd::hwp::UsefulFreqProbe;
use powerd::policy::single_core::{plan_shared_core, SharedApp};

/// ondemand on a bursty service saves power vs performance while staying
/// within a sane latency envelope; powersave collapses.
#[test]
fn governors_trade_power_for_latency() {
    let run = |gov: Governor| -> (f64, f64) {
        let r = run_service(gov, &PlatformSpec::skylake(), 7, Seconds(30.0)).unwrap();
        (r.p90_ms, r.mean_w)
    };
    let (p90_perf, w_perf) = run(Governor::Performance);
    let (p90_ond, w_ond) = run(Governor::ondemand());
    let (p90_save, w_save) = run(Governor::Powersave);
    assert!(
        w_ond <= w_perf + 0.2,
        "ondemand must not out-draw performance"
    );
    assert!(w_save < w_perf - 1.0, "powersave must save power");
    assert!(
        p90_save > p90_perf * 3.0,
        "powersave must wreck the tail: {p90_perf:.1} vs {p90_save:.1} ms"
    );
    assert!(p90_ond < p90_save, "ondemand beats powersave on latency");
}

/// The thermal loop over the real chip regulates junction temperature at
/// a bounded performance cost.
#[test]
fn thermal_loop_regulates_chip() {
    let run = |managed: bool| -> (f64, u64) {
        let platform = PlatformSpec::skylake();
        let grid = platform.grid;
        let mut chip = Chip::new(platform);
        let mut zone = ThermalZone::new(35.0, 0.9, 60.0);
        let mut gov = ThermalGovernor::new(grid, 80.0, 92.0);
        let mut apps: Vec<RunningApp> = (0..10).map(|_| RunningApp::looping(spec::CAM4)).collect();
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_mhz(3000))
                .unwrap();
        }
        let dt = Seconds(0.005);
        let mut t = 0.0;
        let mut next = 1.0;
        let mut instr = 0u64;
        let mut peak = 0.0f64;
        while t < 300.0 {
            for (c, app) in apps.iter_mut().enumerate() {
                instr += app.tick_on(&mut chip, c, dt).unwrap().instructions;
            }
            chip.tick(dt);
            zone.advance(chip.package_power(), dt);
            peak = peak.max(zone.temperature());
            t += dt.value();
            if managed && t + 1e-9 >= next {
                next += 1.0;
                let a = gov.evaluate(zone.temperature());
                for c in 0..10 {
                    chip.set_requested_freq(c, a.freq_cap).unwrap();
                }
                chip.set_rapl_limit(a.power_limit).unwrap();
            }
        }
        (peak, instr)
    };
    let (peak_un, instr_un) = run(false);
    let (peak_m, instr_m) = run(true);
    assert!(peak_un > 84.0, "unmanaged must overheat: {peak_un:.1}");
    assert!(peak_m < peak_un - 3.0, "management must cut the peak");
    let retained = instr_m as f64 / instr_un as f64;
    assert!(
        retained > 0.75,
        "thermal management should cost bounded throughput ({retained:.2})"
    );
}

/// The HWP probe discovers the AVX license cap against the live chip
/// (not just the analytic model).
#[test]
fn hwp_probe_finds_avx_cap_on_chip() {
    let platform = PlatformSpec::skylake();
    let mut chip = Chip::new(platform);
    let mut probe = UsefulFreqProbe::new(chip.spec().grid);
    // run 10 copies so the all-core AVX cap (1.7 GHz) binds on core 0
    let mut apps: Vec<RunningApp> = (0..10).map(|_| RunningApp::looping(spec::CAM4)).collect();
    for c in 0..10 {
        chip.set_requested_freq(c, KiloHertz::from_mhz(3000))
            .unwrap();
    }
    chip.set_requested_freq(0, probe.target()).unwrap();
    let dt = Seconds(0.002);
    let mut t = 0.0;
    let mut next = 0.5;
    let mut instr = 0u64;
    while t < 40.0 && !probe.settled() {
        for (c, app) in apps.iter_mut().enumerate() {
            let out = app.tick_on(&mut chip, c, dt).unwrap();
            if c == 0 {
                instr += out.instructions;
            }
        }
        chip.tick(dt);
        t += dt.value();
        if t + 1e-9 >= next {
            next += 0.5;
            let ips = instr as f64 / 0.5;
            instr = 0;
            let req = probe.observe(chip.effective_freq(0), ips);
            chip.set_requested_freq(0, req).unwrap();
        }
    }
    assert!(probe.settled(), "probe must settle inside 40 s");
    assert!(
        probe.target() <= KiloHertz::from_mhz(1800),
        "knee {} should be at the 1.7 GHz all-core AVX cap",
        probe.target()
    );
}

/// §4.3 planner's decisions are consistent with the chip's time-sharing
/// power accounting.
#[test]
fn single_core_plan_matches_timeshare_power() {
    use per_app_power::simcpu::timeshare::{ShareTask, TimeSharedCore};
    let platform = PlatformSpec::ryzen();
    let apps = vec![
        SharedApp {
            profile: spec::CACTUS_BSSN,
            shares: 60,
            priority: Prio::High,
        },
        SharedApp {
            profile: spec::GCC,
            shares: 40,
            priority: Prio::Low,
        },
    ];
    let budget = Watts(6.0);
    let d = plan_shared_core(&platform.power, &platform.grid, budget, &apps);
    // Reconstruct the plan on the timeshare substrate and check the power.
    let tasks: Vec<ShareTask> = apps
        .iter()
        .zip(&d.fractions)
        .filter(|(_, &f)| f > 0.0)
        .map(|(a, &f)| ShareTask {
            name: a.profile.name.into(),
            fraction: f,
            load: a.profile.load_at(d.freq),
        })
        .collect();
    let core = TimeSharedCore::new(tasks, Seconds(0.1));
    let p = core
        .simulate(&platform.power, d.freq, Seconds(30.0))
        .average_power;
    assert!(
        p <= budget + Watts(0.2),
        "planned configuration draws {p} over the {budget} budget"
    );
}
