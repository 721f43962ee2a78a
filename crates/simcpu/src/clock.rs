//! Simulation clock.

use crate::units::{repeat_add, Seconds};

/// Monotone simulated-time clock.
///
/// The chip and everything layered on it (telemetry, the control daemon,
/// workload engines) share one clock; [`SimClock::advance`] is driven only
/// by [`crate::chip::Chip::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: Seconds,
    ticks: u64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of ticks taken so far.
    #[inline]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Advance by `dt`.
    ///
    /// # Panics
    /// Panics in debug builds if `dt` is non-positive or non-finite.
    pub fn advance(&mut self, dt: Seconds) {
        debug_assert!(
            dt.value().is_finite() && dt.value() > 0.0,
            "bad tick {dt:?}"
        );
        self.now += dt;
        self.ticks += 1;
    }

    /// Advance by `k` ticks of `dt`, bit-identical to `k` calls of
    /// [`SimClock::advance`] (see [`repeat_add`]).
    #[inline]
    pub fn advance_repeated(&mut self, dt: Seconds, k: usize) {
        debug_assert!(
            dt.value().is_finite() && dt.value() > 0.0,
            "bad tick {dt:?}"
        );
        self.now = Seconds(repeat_add(self.now.value(), [dt.value()], k));
        self.ticks += k as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), Seconds(0.0));
        c.advance(Seconds::from_millis(10.0));
        c.advance(Seconds::from_millis(10.0));
        assert!((c.now().value() - 0.02).abs() < 1e-12);
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn rejects_zero_dt() {
        let mut c = SimClock::new();
        c.advance(Seconds(0.0));
    }
}
