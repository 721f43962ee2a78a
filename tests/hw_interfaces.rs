#![allow(clippy::drop_non_drop)] // drop() ends MsrBus's &mut Chip borrows

//! Hardware-interface surface tests: the same experiments driven through
//! the emulated MSR bus and sysfs tree, proving control software written
//! against those interfaces behaves identically to direct chip access.

use per_app_power::prelude::*;
use per_app_power::simcpu::msr::{addr, MsrBus};
use per_app_power::simcpu::sysfs::SysfsTree;
use per_app_power::workloads::spec;

/// A miniature userspace-governor control loop written purely against
/// sysfs paths, like the paper's tooling (§2.2 "userspace governor").
#[test]
fn sysfs_driven_throttling_loop() {
    let mut chip = Chip::new(PlatformSpec::skylake());
    let mut app = RunningApp::looping(spec::CACTUS_BSSN);
    // Set the governor and a frequency exactly as a shell script would.
    {
        let mut fs = SysfsTree::new(&mut chip);
        fs.write(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            "userspace",
        )
        .unwrap();
        fs.write(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed",
            "2200000",
        )
        .unwrap();
    }
    // Run and then read energy through powercap to compute power.
    let read_uj = |chip: &mut Chip| -> u64 {
        let fs = SysfsTree::new(chip);
        fs.read("/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .parse()
            .unwrap()
    };
    let e0 = read_uj(&mut chip);
    for _ in 0..1000 {
        app.tick_on(&mut chip, 0, Seconds(0.001)).unwrap();
        chip.tick(Seconds(0.001));
    }
    let e1 = read_uj(&mut chip);
    let watts = (e1 - e0) as f64 / 1e6 / 1.0;
    assert!(
        (14.0..28.0).contains(&watts),
        "sysfs-derived power {watts:.1} W for one busy core"
    );
    // Lower the speed through sysfs; power must drop.
    {
        let mut fs = SysfsTree::new(&mut chip);
        fs.write(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed",
            "800000",
        )
        .unwrap();
    }
    let e2 = read_uj(&mut chip);
    for _ in 0..1000 {
        app.tick_on(&mut chip, 0, Seconds(0.001)).unwrap();
        chip.tick(Seconds(0.001));
    }
    let e3 = read_uj(&mut chip);
    let watts_low = (e3 - e2) as f64 / 1e6;
    // The package floor (uncore) does not scale with core frequency, so
    // compare against the idle floor rather than a ratio.
    assert!(
        watts_low < watts - 4.0,
        "{watts_low:.1} W vs {watts:.1} W: 2.2 GHz -> 0.8 GHz must shed core power"
    );
}

/// A RAPL limit programmed through the MSR encoding behaves like one set
/// through the chip API, and the APERF/MPERF MSRs report the throttled
/// frequency.
#[test]
fn msr_driven_rapl_limit() {
    let mut chip = Chip::new(PlatformSpec::skylake());
    for c in 0..10 {
        chip.set_requested_freq(c, KiloHertz::from_mhz(2400))
            .unwrap();
    }
    {
        let mut bus = MsrBus::new(&mut chip);
        // 40 W in 1/8 W units with the enable bit.
        bus.write(0, addr::PKG_POWER_LIMIT, (40 * 8) | (1 << 15))
            .unwrap();
    }
    let mut apps: Vec<RunningApp> = (0..10).map(|_| RunningApp::looping(spec::CAM4)).collect();
    let (mut aperf0, mut mperf0) = (0u64, 0u64);
    for tick in 0..6000 {
        for (c, app) in apps.iter_mut().enumerate() {
            app.tick_on(&mut chip, c, Seconds(0.001)).unwrap();
        }
        chip.tick(Seconds(0.001));
        if tick == 4999 {
            let bus = MsrBus::new(&mut chip);
            aperf0 = bus.read(0, addr::APERF).unwrap();
            mperf0 = bus.read(0, addr::MPERF).unwrap();
        }
    }
    assert!((chip.package_power().value() - 40.0).abs() < 3.0);
    let bus = MsrBus::new(&mut chip);
    let da = bus.read(0, addr::APERF).unwrap() - aperf0;
    let dm = bus.read(0, addr::MPERF).unwrap() - mperf0;
    let active_mhz = da as f64 / dm as f64 * 2200.0;
    assert!(
        active_mhz < 1900.0,
        "MSR-visible active frequency {active_mhz:.0} MHz should show throttling"
    );
    drop(bus);
    // Energy flows through the Intel energy-status MSR too.
    let bus = MsrBus::new(&mut chip);
    assert!(bus.read(0, addr::PKG_ENERGY_STATUS).unwrap() > 0);
}

/// AMD-specific MSRs expose per-core energy on Ryzen.
#[test]
fn amd_core_energy_msrs() {
    let mut chip = Chip::new(PlatformSpec::ryzen());
    chip.set_load(0, per_app_power::simcpu::power::LoadDescriptor::nominal())
        .unwrap();
    chip.run_ticks(2000, Seconds(0.001));
    let bus = MsrBus::new(&mut chip);
    let busy = bus.read(0, addr::AMD_CORE_ENERGY).unwrap();
    let idle = bus.read(5, addr::AMD_CORE_ENERGY).unwrap();
    assert!(busy > idle * 10, "busy {busy} vs idle {idle}");
    // frequency request through the AMD P-state MSR in 25 MHz units
    drop(bus);
    let mut bus = MsrBus::new(&mut chip);
    bus.write(0, addr::AMD_PSTATE_CTL, 2125 / 25).unwrap();
    drop(bus);
    assert_eq!(chip.requested_freq(0), KiloHertz::from_mhz(2125));
}
