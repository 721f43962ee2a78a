//! Figure 6 — Time-shared power consumption on a single core (§4.3).
//!
//! cactusBSSN (HD) and gcc (LD) time-share one Ryzen core at 3.4 GHz under
//! docker-style CPU shares. One app is fixed at 50 % share while the
//! other's share sweeps 10–50 %; also shown are the solo 100 % runs. The
//! paper's observation: core power is the time-weighted sum of the
//! individual apps' draws, so power moves proportionally with resident
//! time.

use pap_bench::sweep::{self, Threads};
use pap_bench::{f1, f3, Table};
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::timeshare::{ShareTask, TimeSharedCore};
use pap_simcpu::units::Seconds;
use pap_workloads::spec;

fn task(profile: &pap_workloads::profile::WorkloadProfile, fraction: f64) -> ShareTask {
    ShareTask {
        name: profile.name.to_string(),
        fraction,
        load: profile.load_at(KiloHertz::from_mhz(3400)),
    }
}

fn main() {
    let platform = PlatformSpec::ryzen();
    let f = KiloHertz::from_mhz(3400);
    let period = Seconds::from_millis(100.0);
    let hd = spec::CACTUS_BSSN;
    let ld = spec::GCC;

    let mut t = Table::new(
        "Figure 6: time-shared core power, cactusBSSN (HD) / gcc (LD) at 3.4 GHz on Ryzen",
        &[
            "hd_share_%",
            "ld_share_%",
            "core_w_simulated",
            "core_w_analytic",
        ],
    );

    // One cell per share mix: (HD share %, LD share %, the tasks).
    let mut cells = vec![
        // Solo 100 % runs.
        ("100".to_string(), "0".to_string(), vec![task(&hd, 1.0)]),
        ("0".into(), "100".into(), vec![task(&ld, 1.0)]),
    ];
    // LD fixed at 50 %, HD swept.
    for hd_pct in [10, 20, 30, 40, 50] {
        cells.push((
            format!("{hd_pct}"),
            "50".into(),
            vec![task(&hd, hd_pct as f64 / 100.0), task(&ld, 0.5)],
        ));
    }
    // HD fixed at 50 %, LD swept.
    for ld_pct in [10, 20, 30, 40] {
        cells.push((
            "50".into(),
            format!("{ld_pct}"),
            vec![task(&hd, 0.5), task(&ld, ld_pct as f64 / 100.0)],
        ));
    }
    let rows = sweep::run(Threads::from_env(), cells, |(hd_share, ld_share, tasks)| {
        let core = TimeSharedCore::new(tasks, period);
        let sim = core.simulate(&platform.power, f, Seconds(60.0));
        vec![
            hd_share,
            ld_share,
            f3(sim.average_power.value()),
            f3(core.time_weighted_power(&platform.power, f).value()),
        ]
    });
    for r in rows {
        t.row(r);
    }
    println!("{t}");

    // Verify the time-weighted-sum property explicitly.
    let p_hd = platform.power.core_power(f, &hd.load_at(f)).value();
    let p_ld = platform.power.core_power(f, &ld.load_at(f)).value();
    let mix = TimeSharedCore::new(vec![task(&hd, 0.3), task(&ld, 0.5)], period);
    let measured = mix
        .simulate(&platform.power, f, Seconds(60.0))
        .average_power
        .value();
    let idle = platform
        .power
        .core_power(f, &pap_simcpu::power::LoadDescriptor::IDLE)
        .value();
    let predicted = 0.3 * p_hd + 0.5 * p_ld + 0.2 * idle;
    println!(
        "Time-weighted-sum check (30% HD + 50% LD): measured {} W vs \
         0.3*{:.2} + 0.5*{:.2} + 0.2*idle = {:.3} W (err {:.2}%)",
        f1(measured),
        p_hd,
        p_ld,
        predicted,
        (measured - predicted).abs() / predicted * 100.0
    );
    println!(
        "Expected shape: power rises monotonically with either app's share, \
         HD shares move it faster than LD shares, and every simulated value \
         matches the analytic time-weighted sum."
    );
}
