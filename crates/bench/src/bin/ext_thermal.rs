//! Extension: thermald-style thermal management (§2.2) closed over the
//! simulated chip.
//!
//! Ten cam4 instances run unconstrained on Skylake; package power heats a
//! first-order thermal zone. Without management the junction sails past
//! the passive trip point. The thermal governor then engages its
//! mechanisms — first frequency capping, then a RAPL limit — regulating
//! temperature at a measured performance cost, and releases them with
//! hysteresis once cool.

use pap_bench::{f1, Table};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::thermal::{ThermalGovernor, ThermalZone};
use pap_simcpu::units::Seconds;
use pap_workloads::engine::RunningApp;
use pap_workloads::spec;

struct Outcome {
    peak_temp: f64,
    end_temp: f64,
    mean_ips: f64,
    mean_power: f64,
}

fn run(managed: bool) -> Outcome {
    let platform = PlatformSpec::skylake();
    let grid = platform.grid;
    let mut chip = Chip::new(platform);
    let mut zone = ThermalZone::new(35.0, 0.9, 90.0); // poorly cooled box
    let mut gov = ThermalGovernor::new(grid, 85.0, 95.0);
    let mut apps: Vec<RunningApp> = (0..10).map(|_| RunningApp::looping(spec::CAM4)).collect();
    for c in 0..10 {
        chip.set_requested_freq(c, KiloHertz::from_mhz(3000))
            .unwrap();
    }

    let dt = Seconds(0.002);
    let mut t = 0.0;
    let mut next_eval = 1.0;
    let mut peak: f64 = 0.0;
    let mut ips_acc = 0.0;
    let mut power_acc = 0.0;
    let mut n = 0.0;
    while t < 600.0 {
        for (c, app) in apps.iter_mut().enumerate() {
            ips_acc += app.tick_on(&mut chip, c, dt).unwrap().instructions as f64;
        }
        chip.tick(dt);
        zone.advance(chip.package_power(), dt);
        peak = peak.max(zone.temperature());
        power_acc += chip.package_power().value() * dt.value();
        n += dt.value();
        t += dt.value();

        if managed && t + 1e-9 >= next_eval {
            next_eval += 1.0;
            let action = gov.evaluate(zone.temperature());
            for c in 0..10 {
                chip.set_requested_freq(c, action.freq_cap).unwrap();
            }
            chip.set_rapl_limit(action.power_limit).unwrap();
        }
    }
    Outcome {
        peak_temp: peak,
        end_temp: zone.temperature(),
        mean_ips: ips_acc / n,
        mean_power: power_acc / n,
    }
}

fn main() {
    let unmanaged = run(false);
    let managed = run(true);
    let mut t = Table::new(
        "Extension: thermald-style management (10x cam4 on Skylake, hot chassis, 85/95 degC trips)",
        &["config", "peak_degC", "end_degC", "pkg_w", "rel_perf"],
    );
    t.row(vec![
        "unmanaged".into(),
        f1(unmanaged.peak_temp),
        f1(unmanaged.end_temp),
        f1(unmanaged.mean_power),
        "1.000".into(),
    ]);
    t.row(vec![
        "thermald".into(),
        f1(managed.peak_temp),
        f1(managed.end_temp),
        f1(managed.mean_power),
        format!("{:.3}", managed.mean_ips / unmanaged.mean_ips),
    ]);
    println!("{t}");
    println!(
        "Expected: unmanaged, the junction exceeds the 85 degC passive trip and \
         keeps climbing; with the governor, temperature regulates near the \
         trip at a modest throughput cost. The same frequency-cap mechanism \
         the power policies use doubles as the thermal actuator — which is \
         why the paper lists thermald among the building blocks (section 2.2)."
    );
}
