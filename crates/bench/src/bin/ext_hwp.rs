//! Extension: highest-useful-frequency probing (§4.4).
//!
//! For each SPEC benchmark, the HWP-style hill climber
//! ([`powerd::hwp::UsefulFreqProbe`]) finds the frequency beyond which
//! measured IPS stops improving, against the live simulator (one app per
//! run, AVX caps active). We report the knee, the performance retained at
//! the knee vs running flat-out, and the core power saved — the §4.4
//! argument that "highest useful" beats "highest possible".

use pap_bench::{f1, f3, par_map, Table};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Seconds;
use pap_workloads::engine::RunningApp;
use pap_workloads::profile::WorkloadProfile;
use pap_workloads::spec;
use powerd::hwp::UsefulFreqProbe;

/// Run one app under the probe until it settles; return (knee MHz,
/// settled IPS, package W).
fn probe_app(profile: WorkloadProfile) -> (f64, f64, f64) {
    let platform = PlatformSpec::skylake();
    let mut chip = Chip::new(platform);
    let mut probe = UsefulFreqProbe::new(chip.spec().grid);
    probe.min_gain = 0.5;
    let mut app = RunningApp::looping(profile);
    let mut request = probe.target();
    chip.set_requested_freq(0, request).unwrap();

    let dt = Seconds(0.002);
    let interval = 0.5;
    let mut t = 0.0;
    let mut next = interval;
    let mut instr_at_interval = 0u64;
    let mut last_total = 0u64;
    let mut settled_intervals = 0;
    let mut ips = 0.0;
    while settled_intervals < 8 && t < 120.0 {
        instr_at_interval += app.tick_on(&mut chip, 0, dt).unwrap().instructions;
        chip.tick(dt);
        t += dt.value();
        if t + 1e-9 >= next {
            next += interval;
            ips = instr_at_interval as f64 / interval;
            last_total += instr_at_interval;
            let _ = last_total;
            instr_at_interval = 0;
            request = probe.observe(chip.effective_freq(0), ips);
            chip.set_requested_freq(0, request).unwrap();
            if probe.settled() {
                settled_intervals += 1;
            }
        }
    }
    (
        probe.target().mhz() as f64,
        ips,
        chip.package_power().value(),
    )
}

/// Run one app flat-out at max for reference.
fn flat_out(profile: WorkloadProfile) -> (f64, f64, f64) {
    let platform = PlatformSpec::skylake();
    let mut chip = Chip::new(platform);
    chip.set_requested_freq(0, KiloHertz::from_mhz(3000))
        .unwrap();
    let mut app = RunningApp::looping(profile);
    let dt = Seconds(0.002);
    let mut instr = 0u64;
    for _ in 0..10_000 {
        instr += app.tick_on(&mut chip, 0, dt).unwrap().instructions;
        chip.tick(dt);
    }
    (
        chip.effective_freq(0).mhz() as f64,
        instr as f64 / 20.0,
        chip.package_power().value(),
    )
}

fn main() {
    let benches = spec::spec2017();
    let results = par_map(benches.clone(), |b| {
        let knee = probe_app(b);
        let max = flat_out(b);
        (b, knee, max)
    });

    let mut t = Table::new(
        "Extension §4.4: highest useful frequency per benchmark (HWP-style probe)",
        &[
            "bench",
            "avx",
            "knee_mhz",
            "max_mhz",
            "perf_retained",
            "pkg_w_saved",
        ],
    );
    for (b, (knee_mhz, knee_ips, knee_w), (max_mhz, max_ips, max_w)) in &results {
        t.row(vec![
            b.name.to_string(),
            if b.avx { "yes" } else { "no" }.into(),
            f1(*knee_mhz),
            f1(*max_mhz),
            f3(knee_ips / max_ips),
            f1(max_w - knee_w),
        ]);
    }
    println!("{t}");
    println!(
        "Expected: AVX apps' knees sit at their ~1.9 GHz license cap (the \
         probe discovers the cap without being told); memory-bound apps \
         (omnetpp, lbm) settle well below max while retaining most of their \
         performance and saving watts; frequency-sensitive integer apps climb \
         to the top because every step keeps paying."
    );
}
