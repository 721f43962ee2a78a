//! SLO targets and windowed attainment tracking.
//!
//! Multi-tenant scoring (ROADMAP item 3) judges a policy not on raw tail
//! latency but on *SLO attainment*: the fraction of measurement windows
//! in which a tenant's measured tail sat at or under its target. This
//! module holds the target type and the per-tenant attainment tracker —
//! pure bookkeeping so the scenario layer and the SLO controller can
//! share one definition of "meeting the SLO". Attainment is compared
//! across tenants with [`crate::stats::jain`].

/// A tail-latency service-level objective: "the `percentile`-th
/// percentile latency stays at or below `latency_ms`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Which percentile the objective constrains (0..100, e.g. 90 or 99).
    pub percentile: f64,
    /// The latency bound at that percentile, in milliseconds.
    pub latency_ms: f64,
}

impl SloTarget {
    /// A p90 objective.
    pub fn p90(latency_ms: f64) -> SloTarget {
        SloTarget {
            percentile: 90.0,
            latency_ms,
        }
    }

    /// A p99 objective.
    pub fn p99(latency_ms: f64) -> SloTarget {
        SloTarget {
            percentile: 99.0,
            latency_ms,
        }
    }

    /// Whether an observed tail meets the objective.
    pub fn met(&self, observed_ms: f64) -> bool {
        observed_ms.is_finite() && observed_ms <= self.latency_ms
    }

    /// Pressure ratio: observed tail over target. 1.0 is exactly at the
    /// objective; above 1.0 the SLO is violated. Degenerate inputs
    /// (non-finite tail, non-positive target) read as maximal pressure
    /// so a broken measurement escalates rather than masks.
    pub fn pressure(&self, observed_ms: f64) -> f64 {
        if !(observed_ms.is_finite() && self.latency_ms > 0.0) {
            return f64::MAX;
        }
        (observed_ms / self.latency_ms).max(0.0)
    }
}

/// Windowed SLO attainment for one tenant: feed it one tail measurement
/// per control window, read back the attained fraction.
#[derive(Debug, Clone)]
pub struct SloTracker {
    target: SloTarget,
    windows: u64,
    met: u64,
    last_pressure: f64,
}

impl SloTracker {
    /// A fresh tracker for the given objective.
    pub fn new(target: SloTarget) -> SloTracker {
        SloTracker {
            target,
            windows: 0,
            met: 0,
            last_pressure: 0.0,
        }
    }

    /// The objective being tracked.
    pub fn target(&self) -> SloTarget {
        self.target
    }

    /// Record one measurement window's observed tail (in ms).
    pub fn observe(&mut self, observed_ms: f64) {
        self.windows += 1;
        if self.target.met(observed_ms) {
            self.met += 1;
        }
        self.last_pressure = self.target.pressure(observed_ms);
    }

    /// Number of windows observed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Fraction of windows that met the objective (1.0 before any
    /// observations — no evidence of violation).
    pub fn attainment(&self) -> f64 {
        if self.windows == 0 {
            1.0
        } else {
            self.met as f64 / self.windows as f64
        }
    }

    /// Pressure ratio from the most recent window (0 before any).
    pub fn last_pressure(&self) -> f64 {
        self.last_pressure
    }

    /// Forget accumulated windows (e.g. after warm-up) but keep the
    /// last-pressure reading for the controller.
    pub fn reset(&mut self) {
        self.windows = 0;
        self.met = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_met_and_pressure() {
        let t = SloTarget::p99(20.0);
        assert!(t.met(20.0));
        assert!(!t.met(20.1));
        assert!(!t.met(f64::NAN));
        assert!((t.pressure(10.0) - 0.5).abs() < 1e-12);
        assert!((t.pressure(30.0) - 1.5).abs() < 1e-12);
        assert_eq!(t.pressure(f64::INFINITY), f64::MAX);
        let broken = SloTarget {
            percentile: 90.0,
            latency_ms: 0.0,
        };
        assert_eq!(broken.pressure(5.0), f64::MAX);
    }

    #[test]
    fn tracker_attainment_counts_windows() {
        let mut tr = SloTracker::new(SloTarget::p90(10.0));
        assert_eq!(tr.attainment(), 1.0);
        for ms in [5.0, 8.0, 12.0, 9.0] {
            tr.observe(ms);
        }
        assert_eq!(tr.windows(), 4);
        assert!((tr.attainment() - 0.75).abs() < 1e-12);
        assert!((tr.last_pressure() - 0.9).abs() < 1e-12);
        tr.reset();
        assert_eq!(tr.windows(), 0);
        assert_eq!(tr.attainment(), 1.0);
        assert!((tr.last_pressure() - 0.9).abs() < 1e-12);
    }
}
