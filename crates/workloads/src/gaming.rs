//! Game-ability of measurement-driven policies (§8).
//!
//! The paper closes by observing that an application can manipulate its
//! *measured* resource usage: padding NOP instructions inflates IPS, and
//! extra vector instructions inflate power. This module builds gamed
//! variants of a workload so the effect on each policy can be measured:
//!
//! * [`nop_padded`] — a fraction of retired instructions are filler.
//!   Measured IPS rises, but useful throughput is `measured × (1 − pad)`.
//! * [`sandbagged`] — artificial serializing stalls make the application
//!   look slower than it is (deflated IPS at any frequency), baiting a
//!   performance-share controller into granting extra frequency.
//! * [`power_padded`] — gratuitous vector work inflates power draw
//!   without retiring more useful instructions, gaming power-share
//!   accounting.
//!
//! The paper's soundness condition: a policy is robust when gaming costs
//! the gamer more useful performance than the manipulation gains. The
//! `ext_gameability` benchmark binary quantifies this per policy.

use crate::profile::WorkloadProfile;

/// NOP padding: `pad` (0..1) of retired instructions are filler. NOPs
/// retire cheaply, so per-instruction cost drops while the instruction
/// count for the same useful work grows by `1/(1−pad)`.
pub fn nop_padded(base: WorkloadProfile, pad: f64) -> WorkloadProfile {
    assert!((0.0..1.0).contains(&pad), "pad fraction out of range");
    let keep = 1.0 - pad;
    WorkloadProfile {
        name: "nop-gamer",
        // filler retires at ~4 NOPs/cycle: blended CPI drops
        cpi: base.cpi * keep + 0.25 * pad,
        // memory behavior is per useful instruction; dilute by padding
        mem_stall_ns: base.mem_stall_ns * keep,
        capacitance: base.capacitance * keep + 0.5 * pad,
        avx: base.avx,
        total_instructions: (base.total_instructions as f64 / keep) as u64,
    }
}

/// Sandbagging: insert serializing stalls so measured IPS at any
/// frequency is `1/slowdown` of honest. The stall is frequency-
/// independent, so it also *reduces* apparent frequency sensitivity.
pub fn sandbagged(base: WorkloadProfile, slowdown: f64) -> WorkloadProfile {
    assert!(slowdown >= 1.0, "slowdown must be >= 1");
    // Add stall time so that at the base-calibration point (2.2 GHz) the
    // seconds-per-instruction grows by `slowdown`.
    let spi_ref = base.cpi / 2.2e9 + base.mem_stall_ns * 1e-9;
    let extra_ns = spi_ref * (slowdown - 1.0) * 1e9;
    WorkloadProfile {
        name: "sandbag-gamer",
        mem_stall_ns: base.mem_stall_ns + extra_ns,
        ..base
    }
}

/// Power padding: issue gratuitous wide-vector ops alongside the real
/// work. Capacitance (and the AVX frequency cap) rise; useful IPS is
/// unchanged.
pub fn power_padded(base: WorkloadProfile, extra_capacitance: f64) -> WorkloadProfile {
    assert!(extra_capacitance >= 0.0);
    WorkloadProfile {
        name: "power-gamer",
        capacitance: base.capacitance + extra_capacitance,
        avx: true,
        ..base
    }
}

/// Useful fraction of measured IPS for a NOP-padded workload.
pub fn useful_fraction(pad: f64) -> f64 {
    1.0 - pad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use pap_simcpu::freq::KiloHertz;

    #[test]
    fn nop_padding_inflates_ips() {
        let honest = spec::LEELA;
        let gamed = nop_padded(honest, 0.4);
        let f = KiloHertz::from_mhz(2200);
        assert!(
            gamed.ips(f) > honest.ips(f) * 1.2,
            "padded IPS must inflate"
        );
        // but useful throughput is lower than honest
        let useful = gamed.ips(f) * useful_fraction(0.4);
        assert!(useful < honest.ips(f));
        // same useful work takes more instructions
        assert!(gamed.total_instructions > honest.total_instructions);
    }

    #[test]
    fn sandbagging_deflates_ips_at_every_frequency() {
        let honest = spec::LEELA;
        let gamed = sandbagged(honest, 1.5);
        for mhz in [800u64, 1600, 2200, 3000] {
            let f = KiloHertz::from_mhz(mhz);
            assert!(gamed.ips(f) < honest.ips(f));
        }
        // at the calibration point the slowdown is exact
        let f = KiloHertz::from_ghz(2.2);
        let ratio = honest.ips(f) / gamed.ips(f);
        assert!((ratio - 1.5).abs() < 1e-9, "got {ratio}");
    }

    #[test]
    fn power_padding_raises_demand_not_speed() {
        let honest = spec::LEELA;
        let gamed = power_padded(honest, 1.0);
        let f = KiloHertz::from_mhz(2200);
        assert_eq!(gamed.ips(f), honest.ips(f));
        assert!(gamed.capacitance > honest.capacitance);
        assert!(gamed.avx, "vector padding subjects the core to AVX caps");
    }

    #[test]
    #[should_panic(expected = "pad fraction")]
    fn rejects_full_padding() {
        let _ = nop_padded(spec::LEELA, 1.0);
    }
}
