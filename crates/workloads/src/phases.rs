//! Program phase behavior.
//!
//! Real programs move through phases with different instruction mixes;
//! the paper observes (§6.2) that performance shares over- and under-shoot
//! because IPS moves with phase while frequency does not. A
//! [`PhasedProfile`] divides a run into segments that perturb the base
//! profile's parameters; phase boundaries are a function of retired
//! instructions, so phase behavior is deterministic and reproducible.

use std::borrow::Cow;

use crate::profile::WorkloadProfile;

/// One phase segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Fraction of the run's instructions covered (all phases sum to 1).
    pub fraction: f64,
    /// Multiplier on the base CPI.
    pub cpi_mult: f64,
    /// Multiplier on the base memory stall.
    pub stall_mult: f64,
    /// Multiplier on the base capacitance.
    pub cap_mult: f64,
}

/// Instantaneous effective parameters within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseParams {
    /// Effective cycles per instruction.
    pub cpi: f64,
    /// Effective memory stall (ns per instruction).
    pub mem_stall_ns: f64,
    /// Effective capacitance factor.
    pub capacitance: f64,
}

/// The one phase of a uniform profile, shared by every
/// [`PhasedProfile::uniform`] so building one allocates nothing.
static UNIFORM: [Phase; 1] = [Phase {
    fraction: 1.0,
    cpi_mult: 1.0,
    stall_mult: 1.0,
    cap_mult: 1.0,
}];

/// A workload profile with phase structure.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedProfile {
    base: WorkloadProfile,
    phases: Cow<'static, [Phase]>,
}

impl PhasedProfile {
    /// A profile with a single uniform phase (steady behavior — the SPEC
    /// subset was chosen by the paper for exactly this property).
    pub fn uniform(base: WorkloadProfile) -> PhasedProfile {
        PhasedProfile {
            base,
            phases: Cow::Borrowed(&UNIFORM),
        }
    }

    /// A profile with explicit phases.
    ///
    /// # Panics
    /// Panics if phases are empty, fractions are non-positive, or do not
    /// sum to 1 (±1e-6).
    pub fn with_phases(base: WorkloadProfile, phases: Vec<Phase>) -> PhasedProfile {
        assert!(!phases.is_empty(), "need at least one phase");
        let total: f64 = phases.iter().map(|p| p.fraction).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "phase fractions sum to {total}, expected 1"
        );
        for p in &phases {
            assert!(p.fraction > 0.0, "non-positive phase fraction");
            assert!(p.cpi_mult > 0.0 && p.stall_mult >= 0.0 && p.cap_mult > 0.0);
        }
        PhasedProfile {
            base,
            phases: Cow::Owned(phases),
        }
    }

    /// Generate mild pseudo-random phases (±`amplitude` multiplicative
    /// swing, e.g. 0.15) deterministically from `seed`. Gives steady
    /// benchmarks the small phase wobble that destabilizes IPS-based
    /// control in the paper's Figure 10 discussion.
    pub fn with_generated_phases(
        base: WorkloadProfile,
        seed: u64,
        amplitude: f64,
    ) -> PhasedProfile {
        assert!((0.0..1.0).contains(&amplitude));
        // xorshift64* — tiny deterministic generator, no external RNG
        // needed in this crate's core path.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let v = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64 // [0,1)
        };
        let n = 4 + (next() * 4.0) as usize; // 4..=7 phases
        let mut fracs: Vec<f64> = (0..n).map(|_| 0.5 + next()).collect();
        let total: f64 = fracs.iter().sum();
        for f in &mut fracs {
            *f /= total;
        }
        let phases = fracs
            .into_iter()
            .map(|fraction| Phase {
                fraction,
                cpi_mult: 1.0 + amplitude * (2.0 * next() - 1.0),
                stall_mult: 1.0 + amplitude * (2.0 * next() - 1.0),
                cap_mult: 1.0 + amplitude * (2.0 * next() - 1.0),
            })
            .collect();
        PhasedProfile {
            base,
            phases: Cow::Owned(phases),
        }
    }

    /// The underlying base profile.
    pub fn base(&self) -> &WorkloadProfile {
        &self.base
    }

    /// The phase list.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Whether the profile has a single phase, i.e. [`Self::params_at`]
    /// returns the same parameters at every position.
    pub fn is_uniform(&self) -> bool {
        self.phases.len() == 1
    }

    /// Effective parameters after retiring `retired` of the run's
    /// instructions (wraps around for looping runs).
    pub fn params_at(&self, retired: u64) -> PhaseParams {
        let total = self.base.total_instructions.max(1);
        let pos = (retired % total) as f64 / total as f64;
        let mut acc = 0.0;
        let mut chosen = &self.phases[self.phases.len() - 1];
        for p in self.phases.iter() {
            acc += p.fraction;
            if pos < acc {
                chosen = p;
                break;
            }
        }
        PhaseParams {
            cpi: self.base.cpi * chosen.cpi_mult,
            mem_stall_ns: self.base.mem_stall_ns * chosen.stall_mult,
            capacitance: self.base.capacitance * chosen.cap_mult,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn uniform_matches_base() {
        let p = PhasedProfile::uniform(spec::LEELA);
        let params = p.params_at(0);
        assert_eq!(params.cpi, spec::LEELA.cpi);
        assert_eq!(params.mem_stall_ns, spec::LEELA.mem_stall_ns);
        assert_eq!(params.capacitance, spec::LEELA.capacitance);
        // and anywhere in the run
        let late = p.params_at(spec::LEELA.total_instructions - 1);
        assert_eq!(late, params);
    }

    #[test]
    fn explicit_phases_selected_by_progress() {
        let base = spec::GCC;
        let p = PhasedProfile::with_phases(
            base,
            vec![
                Phase {
                    fraction: 0.5,
                    cpi_mult: 1.0,
                    stall_mult: 1.0,
                    cap_mult: 1.0,
                },
                Phase {
                    fraction: 0.5,
                    cpi_mult: 2.0,
                    stall_mult: 1.0,
                    cap_mult: 1.0,
                },
            ],
        );
        let early = p.params_at(0);
        let late = p.params_at(base.total_instructions * 3 / 4);
        assert_eq!(early.cpi, base.cpi);
        assert_eq!(late.cpi, base.cpi * 2.0);
    }

    #[test]
    fn params_wrap_for_looping_runs() {
        let base = spec::GCC;
        let p = PhasedProfile::with_phases(
            base,
            vec![
                Phase {
                    fraction: 0.5,
                    cpi_mult: 1.0,
                    stall_mult: 1.0,
                    cap_mult: 1.0,
                },
                Phase {
                    fraction: 0.5,
                    cpi_mult: 2.0,
                    stall_mult: 1.0,
                    cap_mult: 1.0,
                },
            ],
        );
        let wrapped = p.params_at(base.total_instructions + 1);
        assert_eq!(wrapped.cpi, base.cpi);
    }

    #[test]
    fn generated_phases_deterministic_and_bounded() {
        let a = PhasedProfile::with_generated_phases(spec::CAM4, 42, 0.15);
        let b = PhasedProfile::with_generated_phases(spec::CAM4, 42, 0.15);
        assert_eq!(a, b, "same seed must give same phases");
        let c = PhasedProfile::with_generated_phases(spec::CAM4, 43, 0.15);
        assert_ne!(a, c, "different seeds should differ");

        let total: f64 = a.phases().iter().map(|p| p.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for ph in a.phases() {
            assert!(ph.cpi_mult > 0.84 && ph.cpi_mult < 1.16);
            assert!(ph.cap_mult > 0.84 && ph.cap_mult < 1.16);
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn rejects_bad_fractions() {
        let _ = PhasedProfile::with_phases(
            spec::GCC,
            vec![Phase {
                fraction: 0.7,
                cpi_mult: 1.0,
                stall_mult: 1.0,
                cap_mult: 1.0,
            }],
        );
    }
}
