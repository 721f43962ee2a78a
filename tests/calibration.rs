//! Cross-crate calibration tests: the paper's anchor measurements
//! (DESIGN.md §5) must hold through the full stack — chip + workload
//! engine + telemetry — not just in the isolated power model.

use per_app_power::prelude::*;
use per_app_power::workloads::{burn::CPUBURN, spec};

const MS: Seconds = Seconds(0.001);

fn drive(chip: &mut Chip, apps: &mut [(usize, RunningApp)], seconds: f64) {
    let ticks = (seconds / MS.value()) as usize;
    for _ in 0..ticks {
        for (core, app) in apps.iter_mut() {
            app.tick_on(chip, *core, MS).unwrap();
        }
        chip.tick(MS);
    }
}

/// cpuburn alone on one Skylake core at 3 GHz draws ≈ 32 W package (§3.2).
#[test]
fn cpuburn_package_power_anchor() {
    let mut chip = Chip::new(PlatformSpec::skylake());
    chip.set_requested_freq(0, KiloHertz::from_ghz(3.0))
        .unwrap();
    let mut apps = vec![(0usize, RunningApp::looping(CPUBURN))];
    drive(&mut chip, &mut apps, 2.0);
    let p = chip.package_power().value();
    assert!(
        (p - 32.0).abs() < 4.0,
        "cpuburn package power {p}, paper ~32 W"
    );
}

/// websearch with 9 busy cores at 3 GHz draws ≈ 44 W package (§3.2).
#[test]
fn websearch_package_power_anchor() {
    let mut chip = Chip::new(PlatformSpec::skylake());
    let mut svc = ClosedLoopService::new(ServiceConfig::websearch(), 9);
    for c in 0..9 {
        chip.set_requested_freq(c, KiloHertz::from_ghz(3.0))
            .unwrap();
    }
    let mut acc = 0.0;
    let mut n = 0;
    for tick in 0..20_000 {
        let freqs: Vec<KiloHertz> = (0..9).map(|c| chip.effective_freq(c)).collect();
        let loads = svc.advance(MS, &freqs);
        for (c, load) in loads.into_iter().enumerate() {
            chip.set_load(c, load).unwrap();
        }
        chip.tick(MS);
        if tick > 5_000 {
            acc += chip.package_power().value();
            n += 1;
        }
    }
    let p = acc / n as f64;
    assert!(
        (p - 44.0).abs() < 7.0,
        "websearch package power {p}, paper ~44 W"
    );
}

/// Figure 1 shape: under RAPL, the low-demand scalar app loses more
/// relative frequency than the AVX-capped high-demand app at 50 W, and
/// both converge to the same low frequency at 40 W.
#[test]
fn fig1_shape_through_full_stack() {
    let run = |limit: f64| -> (f64, f64) {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.set_rapl_limit(Some(Watts(limit))).unwrap();
        let mut apps: Vec<(usize, RunningApp)> = (0..10)
            .map(|c| {
                (
                    c,
                    RunningApp::looping(if c < 5 { spec::GCC } else { spec::CAM4 }),
                )
            })
            .collect();
        for c in 0..10 {
            chip.set_requested_freq(c, KiloHertz::from_ghz(3.0))
                .unwrap();
        }
        drive(&mut chip, &mut apps, 5.0);
        (chip.effective_freq(0).ghz(), chip.effective_freq(9).ghz())
    };
    let (gcc50, cam50) = run(50.0);
    let loss_gcc = 1.0 - gcc50 / 2.4;
    let loss_cam = 1.0 - cam50 / 1.7;
    assert!(
        loss_gcc > loss_cam + 0.05,
        "gcc must lose more at 50 W: gcc {gcc50:.2} GHz, cam4 {cam50:.2} GHz"
    );
    let (gcc40, cam40) = run(40.0);
    assert!(
        (gcc40 - cam40).abs() < 0.11,
        "both converge at 40 W: gcc {gcc40:.2} vs cam4 {cam40:.2}"
    );
}

/// §5.2 dynamic ranges measured end to end: frequency ×3–4 and
/// performance ×~4 across the usable range.
#[test]
fn dynamic_range_anchors() {
    let spec_p = PlatformSpec::skylake();
    let ratio = spec_p.grid.max().ghz() / spec_p.grid.min().ghz();
    assert!((3.0..4.2).contains(&ratio), "frequency range {ratio}");

    let perf_hi = spec::EXCHANGE2.ips(spec_p.grid.max());
    let perf_lo = spec::EXCHANGE2.ips(spec_p.grid.min());
    let r = perf_hi / perf_lo;
    assert!((3.2..4.2).contains(&r), "performance range {r}");
}

/// The TurboBoost package-power jump (~5 W) is visible through the chip,
/// not just the raw model (Figure 2).
#[test]
fn turbo_power_jump_anchor() {
    let run_at = |mhz: u64| -> f64 {
        let mut chip = Chip::new(PlatformSpec::skylake());
        chip.set_requested_freq(0, KiloHertz::from_mhz(mhz))
            .unwrap();
        let mut apps = vec![(0usize, RunningApp::looping(spec::GCC))];
        drive(&mut chip, &mut apps, 1.0);
        chip.package_power().value()
    };
    let below = run_at(2200);
    let above = run_at(2500);
    let jump = above - below;
    assert!(
        (3.5..8.0).contains(&jump),
        "turbo jump {jump:.1} W, paper reports ~5 W"
    );
}

/// Ryzen per-core power telemetry reads through the whole stack and the
/// XFR jump appears above 3.4 GHz (Figure 3).
#[test]
fn ryzen_xfr_anchor() {
    let run_at = |mhz: u64| -> f64 {
        let mut chip = Chip::new(PlatformSpec::ryzen());
        chip.set_requested_freq(0, KiloHertz::from_mhz(mhz))
            .unwrap();
        let mut apps = vec![(0usize, RunningApp::looping(spec::LEELA))];
        drive(&mut chip, &mut apps, 1.0);
        chip.core_power(0)
            .expect("Ryzen exposes per-core power")
            .value()
    };
    let base = run_at(3400);
    let xfr = run_at(3800);
    assert!(xfr - base > 3.0, "XFR core-power jump {:.1} W", xfr - base);
}
