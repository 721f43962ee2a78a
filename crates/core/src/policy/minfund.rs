//! Min-funding revocation (§5: "when there is excess power, we use a
//! min-funding revocation policy [Waldspurger] to distribute the excess
//! across applications that are not running at the maximum frequency").
//!
//! [`distribute`] apportions a signed resource delta across claims in
//! proportion to their shares, respecting each claim's `[min, max]` bounds.
//! Claims that saturate are removed from the mix and the residual is
//! re-distributed across the remainder — the paper's "re-running the
//! distribution algorithm across the remaining resources and remaining
//! applications".

/// One application's claim on the shared resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Proportional shares (weight). Must be positive.
    pub share: f64,
    /// Current allocation in resource units.
    pub current: f64,
    /// Lower saturation bound.
    pub min: f64,
    /// Upper saturation bound.
    pub max: f64,
}

impl Claim {
    /// Construct a claim, clamping `current` into `[min, max]`.
    pub fn new(share: f64, current: f64, min: f64, max: f64) -> Claim {
        debug_assert!(share > 0.0, "non-positive share");
        debug_assert!(min <= max, "min {min} above max {max}");
        Claim {
            share,
            current: current.clamp(min, max),
            min,
            max,
        }
    }
}

/// Result of a distribution round.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// New allocation per claim, in input order.
    pub allocations: Vec<f64>,
    /// Residual delta that could not be placed because every claim
    /// saturated (0 when fully distributed).
    pub unplaced: f64,
}

/// Distribute a signed `delta` across `claims` proportionally to shares
/// with min-funding revocation of saturated claims.
///
/// Positive `delta` adds resource (claims saturate at `max`); negative
/// `delta` withdraws it (claims saturate at `min`).
pub fn distribute(delta: f64, claims: &[Claim]) -> Distribution {
    let mut alloc = Vec::new();
    let mut saturated = Vec::new();
    let unplaced = distribute_into(delta, claims, &mut alloc, &mut saturated);
    Distribution {
        allocations: alloc,
        unplaced,
    }
}

/// Allocation-free core of [`distribute`]: writes the new allocations
/// into `alloc` (cleared first) and uses `saturated` as scratch, both
/// reused across calls on the hot path. Returns the unplaced residual.
pub fn distribute_into(
    delta: f64,
    claims: &[Claim],
    alloc: &mut Vec<f64>,
    saturated: &mut Vec<bool>,
) -> f64 {
    alloc.clear();
    alloc.extend(claims.iter().map(|c| c.current));
    if claims.is_empty() || delta == 0.0 {
        return delta;
    }

    let mut remaining = delta;
    saturated.clear();
    saturated.resize(claims.len(), false);
    // Each pass either places all the remainder or saturates at least one
    // claim, so the loop terminates in at most `claims.len()` passes.
    for _ in 0..claims.len() {
        if remaining.abs() < 1e-12 {
            remaining = 0.0;
            break;
        }
        let total_share: f64 = claims
            .iter()
            .zip(saturated.iter())
            .filter(|(_, &s)| !s)
            .map(|(c, _)| c.share)
            .sum();
        if total_share <= 0.0 {
            break; // everyone saturated
        }
        let mut placed = 0.0;
        for (i, c) in claims.iter().enumerate() {
            if saturated[i] {
                continue;
            }
            let want = remaining * c.share / total_share;
            let target = alloc[i] + want;
            let clamped = target.clamp(c.min, c.max);
            placed += clamped - alloc[i];
            alloc[i] = clamped;
            if (remaining > 0.0 && clamped >= c.max - 1e-12)
                || (remaining < 0.0 && clamped <= c.min + 1e-12)
            {
                saturated[i] = true;
            }
        }
        remaining -= placed;
        if placed.abs() < 1e-12 {
            break; // nothing moved; all effectively saturated
        }
    }

    remaining
}

/// Allocate a target `total` across claims so that allocations are
/// proportional to shares wherever no bound binds: a water-fill
/// `a_i = clamp(λ·share_i, min_i, max_i)` with λ chosen so the sum hits
/// `total`. This is "re-running the distribution algorithm across the
/// remaining resources and remaining applications" in closed form —
/// unlike distributing incremental deltas, repeated calls cannot drift
/// away from share proportionality when some claims saturate.
///
/// If `total` is below the sum of minima (or above the sum of maxima),
/// every claim sits at its bound and the shortfall/excess is reported in
/// [`Distribution::unplaced`].
///
/// ```
/// use powerd::policy::minfund::{proportional_fill, Claim};
/// let claims = vec![
///     Claim::new(90.0, 0.0, 800.0, 2500.0), // capped high-share app
///     Claim::new(10.0, 0.0, 800.0, 3000.0),
/// ];
/// let d = proportional_fill(4000.0, &claims);
/// // the cap binds; the remainder flows to the low-share claim
/// assert!((d.allocations[0] - 2500.0).abs() < 1e-6);
/// assert!((d.allocations[1] - 1500.0).abs() < 1e-6);
/// ```
pub fn proportional_fill(total: f64, claims: &[Claim]) -> Distribution {
    let mut alloc = Vec::new();
    let unplaced = proportional_fill_into(total, claims, &mut alloc);
    Distribution {
        allocations: alloc,
        unplaced,
    }
}

/// Allocation-free core of [`proportional_fill`]: writes the water-fill
/// result into `alloc` (cleared first) and returns the unplaced residual.
pub fn proportional_fill_into(total: f64, claims: &[Claim], alloc: &mut Vec<f64>) -> f64 {
    alloc.clear();
    if claims.is_empty() {
        return total;
    }
    let sum_min: f64 = claims.iter().map(|c| c.min).sum();
    let sum_max: f64 = claims.iter().map(|c| c.max).sum();
    if total <= sum_min {
        alloc.extend(claims.iter().map(|c| c.min));
        return total - sum_min;
    }
    if total >= sum_max {
        alloc.extend(claims.iter().map(|c| c.max));
        return total - sum_max;
    }
    // Σ clamp(λ·share, min, max) is continuous and non-decreasing in λ;
    // bisect λ between 0 and the value that maxes every claim.
    let alloc_at = |lambda: f64| -> f64 {
        claims
            .iter()
            .map(|c| (lambda * c.share).clamp(c.min, c.max))
            .sum()
    };
    let mut lo = 0.0;
    let mut hi = claims
        .iter()
        .map(|c| c.max / c.share)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if alloc_at(mid) < total {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    alloc.extend(
        claims
            .iter()
            .map(|c| (lambda * c.share).clamp(c.min, c.max)),
    );
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims3() -> Vec<Claim> {
        vec![
            Claim::new(3.0, 1000.0, 800.0, 3000.0),
            Claim::new(1.0, 1000.0, 800.0, 3000.0),
            Claim::new(1.0, 1000.0, 800.0, 3000.0),
        ]
    }

    #[test]
    fn proportional_when_unsaturated() {
        let d = distribute(500.0, &claims3());
        assert_eq!(d.unplaced, 0.0);
        assert!((d.allocations[0] - 1300.0).abs() < 1e-9);
        assert!((d.allocations[1] - 1100.0).abs() < 1e-9);
        assert!((d.allocations[2] - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn conservation() {
        let c = claims3();
        for delta in [-300.0, 250.0, 1200.0] {
            let d = distribute(delta, &c);
            let before: f64 = c.iter().map(|c| c.current).sum();
            let after: f64 = d.allocations.iter().sum();
            assert!(
                (after - before - (delta - d.unplaced)).abs() < 1e-9,
                "conservation violated at delta {delta}"
            );
        }
    }

    #[test]
    fn saturation_revokes_and_redistributes() {
        let c = vec![
            Claim::new(3.0, 2900.0, 800.0, 3000.0), // nearly saturated high
            Claim::new(1.0, 1000.0, 800.0, 3000.0),
        ];
        let d = distribute(1000.0, &c);
        assert_eq!(d.unplaced, 0.0);
        // claim 0 absorbs only 100; the remaining 900 flows to claim 1
        assert!((d.allocations[0] - 3000.0).abs() < 1e-9);
        assert!((d.allocations[1] - 1900.0).abs() < 1e-9);
    }

    #[test]
    fn withdrawal_respects_min() {
        let c = vec![
            Claim::new(1.0, 900.0, 800.0, 3000.0),
            Claim::new(1.0, 2000.0, 800.0, 3000.0),
        ];
        let d = distribute(-600.0, &c);
        assert_eq!(d.unplaced, 0.0);
        assert!((d.allocations[0] - 800.0).abs() < 1e-9, "floored at min");
        assert!((d.allocations[1] - 1500.0).abs() < 1e-9, "absorbs the rest");
    }

    #[test]
    fn fully_saturated_reports_unplaced() {
        let c = vec![Claim::new(1.0, 3000.0, 800.0, 3000.0)];
        let d = distribute(500.0, &c);
        assert!((d.unplaced - 500.0).abs() < 1e-9);
        let d = distribute(-5000.0, &c);
        assert!((d.allocations[0] - 800.0).abs() < 1e-9);
        assert!((d.unplaced + 2800.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_delta() {
        let d = distribute(100.0, &[]);
        assert!(d.allocations.is_empty());
        assert_eq!(d.unplaced, 100.0);
        let c = claims3();
        let d = distribute(0.0, &c);
        assert_eq!(d.allocations, vec![1000.0, 1000.0, 1000.0]);
    }

    #[test]
    fn bounds_always_respected() {
        let c = vec![
            Claim::new(5.0, 1500.0, 800.0, 1600.0),
            Claim::new(1.0, 900.0, 800.0, 3000.0),
        ];
        for delta in [-2000.0, -100.0, 0.0, 100.0, 5000.0] {
            let d = distribute(delta, &c);
            for (a, cl) in d.allocations.iter().zip(&c) {
                assert!(*a >= cl.min - 1e-9 && *a <= cl.max + 1e-9, "delta {delta}");
            }
        }
    }

    #[test]
    fn fill_proportional_when_unbounded() {
        let c = vec![
            Claim::new(90.0, 0.0, 0.0, 10_000.0),
            Claim::new(10.0, 0.0, 0.0, 10_000.0),
        ];
        let d = proportional_fill(1000.0, &c);
        assert!((d.allocations[0] - 900.0).abs() < 1e-6);
        assert!((d.allocations[1] - 100.0).abs() < 1e-6);
        assert!(d.unplaced.abs() < 1e-9);
    }

    #[test]
    fn fill_respects_bounds_and_refills() {
        // high-share claim capped at 2500: the remainder goes to the
        // low-share claim only after the cap binds
        let c = vec![
            Claim::new(90.0, 0.0, 800.0, 2500.0),
            Claim::new(10.0, 0.0, 800.0, 3000.0),
        ];
        let d = proportional_fill(3300.0, &c);
        assert!((d.allocations[0] - 2500.0).abs() < 1e-6);
        assert!((d.allocations[1] - 800.0).abs() < 1e-6);
        // more total: cap still binds, excess flows to the small claim
        let d = proportional_fill(4000.0, &c);
        assert!((d.allocations[0] - 2500.0).abs() < 1e-6);
        assert!((d.allocations[1] - 1500.0).abs() < 1e-6);
    }

    #[test]
    fn fill_repeated_calls_do_not_drift() {
        // The ratchet the incremental scheme suffers from: alternate
        // raising and lowering the total; allocations must return to the
        // same point.
        let c = vec![
            Claim::new(90.0, 0.0, 800.0, 2500.0),
            Claim::new(10.0, 0.0, 800.0, 3000.0),
        ];
        let first = proportional_fill(3300.0, &c);
        let up = proportional_fill(4000.0, &c);
        let _ = up;
        let back = proportional_fill(3300.0, &c);
        assert_eq!(first.allocations, back.allocations);
    }

    #[test]
    fn fill_saturation_extremes() {
        let c = vec![Claim::new(1.0, 0.0, 800.0, 3000.0)];
        let d = proportional_fill(100.0, &c);
        assert_eq!(d.allocations, vec![800.0]);
        assert!((d.unplaced - (100.0 - 800.0)).abs() < 1e-9);
        let d = proportional_fill(9000.0, &c);
        assert_eq!(d.allocations, vec![3000.0]);
        assert!((d.unplaced - 6000.0).abs() < 1e-9);
        let d = proportional_fill(500.0, &[]);
        assert!(d.allocations.is_empty());
        assert_eq!(d.unplaced, 500.0);
    }
}
