//! OS frequency governors (§2.2).
//!
//! Linux's cpufreq governors pick the next P-state from CPU utilization.
//! The paper uses only the *userspace* governor (the daemon sets
//! frequencies itself), but the others are implemented here both as a
//! baseline family and because the daemon must coexist with them on a
//! real system. Semantics follow the kernel documentation:
//!
//! * `performance` — pin to the maximum frequency;
//! * `powersave` — pin to the minimum frequency;
//! * `ondemand` — jump to max when utilization exceeds the up-threshold,
//!   otherwise scale proportionally to utilization;
//! * `conservative` — like ondemand but moves gracefully in steps;
//! * `userspace` — hold whatever was programmed.
//!
//! [`run_service`] is the §2.2 comparison itself: a bursty single-core
//! service under one governor, as `ext_governors` and `powerd-sim govcmp`
//! report it.

use pap_simcpu::chip::Chip;
use pap_simcpu::error::Result;
use pap_simcpu::freq::{FreqGrid, KiloHertz};
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Seconds;
use pap_telemetry::sampler::Sampler;
use pap_workloads::latency::{ClosedLoopService, DemandShape, ServiceConfig};

/// A cpufreq-style governor.
///
/// ```
/// use powerd::governor::Governor;
/// use pap_simcpu::freq::{FreqGrid, KiloHertz};
///
/// let grid = FreqGrid::new(
///     KiloHertz::from_mhz(800),
///     KiloHertz::from_mhz(3000),
///     KiloHertz::from_mhz(100),
/// );
/// let gov = Governor::ondemand();
/// // 90% busy -> race to max
/// assert_eq!(gov.next_freq(&grid, KiloHertz::from_mhz(1500), 0.9), grid.max());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Governor {
    /// Always the highest frequency.
    Performance,
    /// Always the lowest frequency.
    Powersave,
    /// Kernel `ondemand`: above `up_threshold` utilization jump to max,
    /// else run at `util / up_threshold` of max.
    Ondemand {
        /// Utilization fraction above which the governor jumps to max
        /// (kernel default 0.8).
        up_threshold: f64,
    },
    /// Kernel `conservative`: step up when above the up-threshold, step
    /// down when below the down-threshold.
    Conservative {
        /// Step up above this utilization.
        up_threshold: f64,
        /// Step down below this utilization.
        down_threshold: f64,
        /// Step size in grid steps.
        freq_step: u64,
    },
    /// Hold the programmed frequency (the paper's choice).
    Userspace,
}

impl Governor {
    /// Kernel-default `ondemand`.
    pub fn ondemand() -> Governor {
        Governor::Ondemand { up_threshold: 0.8 }
    }

    /// Kernel-default `conservative`.
    pub fn conservative() -> Governor {
        Governor::Conservative {
            up_threshold: 0.8,
            down_threshold: 0.2,
            freq_step: 1,
        }
    }

    /// The governor's sysfs name.
    pub fn name(&self) -> &'static str {
        match self {
            Governor::Performance => "performance",
            Governor::Powersave => "powersave",
            Governor::Ondemand { .. } => "ondemand",
            Governor::Conservative { .. } => "conservative",
            Governor::Userspace => "userspace",
        }
    }

    /// Next frequency for a core, given the grid, the currently
    /// programmed frequency and the measured utilization (C0 residency,
    /// 0..=1) over the last evaluation interval.
    pub fn next_freq(&self, grid: &FreqGrid, current: KiloHertz, utilization: f64) -> KiloHertz {
        debug_assert!((0.0..=1.0).contains(&utilization));
        match *self {
            Governor::Performance => grid.max(),
            Governor::Powersave => grid.min(),
            Governor::Userspace => grid.round(current),
            Governor::Ondemand { up_threshold } => {
                if utilization >= up_threshold {
                    grid.max()
                } else {
                    // "next_freq = C * max_freq * util" with C = 1/up_threshold,
                    // per kernel docs, floored at min.
                    let target = grid.max().khz() as f64 * utilization / up_threshold;
                    grid.round(KiloHertz(target as u64))
                }
            }
            Governor::Conservative {
                up_threshold,
                down_threshold,
                freq_step,
            } => {
                let mut f = grid.round(current);
                if utilization >= up_threshold {
                    for _ in 0..freq_step {
                        f = grid.step_up(f);
                    }
                } else if utilization <= down_threshold {
                    for _ in 0..freq_step {
                        f = grid.step_down(f);
                    }
                }
                f
            }
        }
    }
}

/// What one [`run_service`] measured after its warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRun {
    /// 90th-percentile request latency in milliseconds.
    pub p90_ms: f64,
    /// Mean package power over the governor's samples, in watts.
    pub mean_w: f64,
    /// Mean active frequency of the serving core, in MHz.
    pub mean_mhz: f64,
    /// Completed requests per second.
    pub throughput: f64,
}

/// Run a bursty 40-user closed-loop service on core 0 of `platform`
/// under `gov`: 1 ms ticks, the governor re-evaluated every 100 ms as
/// the kernel does, and a 10 s warm-up before the `measured` window the
/// returned figures cover. `powersave` starts at the grid minimum, every
/// other governor at the maximum. Deterministic given `seed`.
pub fn run_service(
    gov: Governor,
    platform: &PlatformSpec,
    seed: u64,
    measured: Seconds,
) -> Result<ServiceRun> {
    let mut chip = Chip::new(platform.clone());
    let cfg = ServiceConfig {
        users: 40,
        mean_think: Seconds(0.4),
        mean_service_cycles: 18.0e6,
        demand: DemandShape::Exponential,
        capacitance: 0.8,
        seed,
    };
    let mut svc = ClosedLoopService::new(cfg, 1);
    let grid = chip.spec().grid;
    let mut freq = match gov {
        Governor::Powersave => grid.min(),
        _ => grid.max(),
    };
    chip.set_requested_freq(0, freq)?;

    let mut sampler = Sampler::new(&chip);
    let dt = Seconds(0.001);
    let warmup = 10.0;
    let (mut power_acc, mut khz_acc, mut samples) = (0.0, 0.0, 0.0);
    let mut time = 0.0;
    let mut next_eval = 0.1;
    let mut stats_reset = false;
    while time < warmup + measured.value() {
        let f = chip.effective_freq(0);
        let loads = svc.advance(dt, &[f]);
        chip.set_load(0, loads[0])?;
        chip.tick(dt);
        time += dt.value();
        if !stats_reset && time >= warmup {
            svc.reset_stats();
            stats_reset = true;
        }
        if time + 1e-9 >= next_eval {
            next_eval += 0.1;
            if let Some(s) = sampler.sample(&chip) {
                freq = gov.next_freq(&grid, freq, s.cores[0].rates.c0_residency);
                chip.set_requested_freq(0, freq)?;
                if stats_reset {
                    power_acc += s.package_power.value();
                    khz_acc += s.cores[0].rates.active_freq.khz() as f64;
                    samples += 1.0;
                }
            }
        }
    }
    Ok(ServiceRun {
        p90_ms: svc.p90_ms(),
        mean_w: power_acc / samples,
        mean_mhz: khz_acc / samples / 1000.0,
        throughput: svc.throughput(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> FreqGrid {
        FreqGrid::new(
            KiloHertz::from_mhz(800),
            KiloHertz::from_mhz(3000),
            KiloHertz::from_mhz(100),
        )
    }

    #[test]
    fn performance_and_powersave_pin() {
        let g = grid();
        let cur = KiloHertz::from_mhz(1500);
        assert_eq!(Governor::Performance.next_freq(&g, cur, 0.1), g.max());
        assert_eq!(Governor::Powersave.next_freq(&g, cur, 0.9), g.min());
        assert_eq!(Governor::Userspace.next_freq(&g, cur, 0.9), cur);
    }

    #[test]
    fn ondemand_jumps_and_scales() {
        let g = grid();
        let gov = Governor::ondemand();
        let cur = KiloHertz::from_mhz(1500);
        assert_eq!(gov.next_freq(&g, cur, 0.85), g.max());
        assert_eq!(gov.next_freq(&g, cur, 0.8), g.max());
        // 40% util with 0.8 threshold -> half of max
        assert_eq!(gov.next_freq(&g, cur, 0.4), KiloHertz::from_mhz(1500));
        // idle -> floor
        assert_eq!(gov.next_freq(&g, cur, 0.0), g.min());
    }

    #[test]
    fn conservative_steps() {
        let g = grid();
        let gov = Governor::conservative();
        let cur = KiloHertz::from_mhz(1500);
        assert_eq!(gov.next_freq(&g, cur, 0.9), KiloHertz::from_mhz(1600));
        assert_eq!(gov.next_freq(&g, cur, 0.1), KiloHertz::from_mhz(1400));
        assert_eq!(gov.next_freq(&g, cur, 0.5), cur, "dead zone holds");
        // clamps at the ends
        assert_eq!(gov.next_freq(&g, g.max(), 0.9), g.max());
        assert_eq!(gov.next_freq(&g, g.min(), 0.1), g.min());
    }

    #[test]
    fn conservative_multi_step() {
        let g = grid();
        let gov = Governor::Conservative {
            up_threshold: 0.8,
            down_threshold: 0.2,
            freq_step: 3,
        };
        assert_eq!(
            gov.next_freq(&g, KiloHertz::from_mhz(1500), 0.9),
            KiloHertz::from_mhz(1800)
        );
    }

    #[test]
    fn names_match_sysfs() {
        assert_eq!(Governor::Performance.name(), "performance");
        assert_eq!(Governor::ondemand().name(), "ondemand");
        assert_eq!(Governor::conservative().name(), "conservative");
        assert_eq!(Governor::Userspace.name(), "userspace");
    }

    #[test]
    fn outputs_always_on_grid() {
        let g = grid();
        for gov in [
            Governor::Performance,
            Governor::Powersave,
            Governor::ondemand(),
            Governor::conservative(),
            Governor::Userspace,
        ] {
            for util in [0.0, 0.3, 0.65, 0.9, 1.0] {
                let f = gov.next_freq(&g, KiloHertz::from_mhz(1550), util);
                // userspace snaps the (off-grid) current to the grid too
                assert!(g.contains(f), "{} produced off-grid {f}", gov.name());
            }
        }
    }
}
