//! The hierarchical budget allocator: cluster cap → per-node caps.
//!
//! This is the same mechanism the node daemons use one level down —
//! share-proportional water-fill with min-funding revocation
//! ([`powerd::policy::minfund`]) — applied to nodes instead of apps. A
//! node's claim carries the sum of its apps' shares as weight, the
//! platform's programmable floor/ceiling as bounds, and its measured
//! draw; nodes that leave their budget unused get their claim ceiling
//! revoked down toward their draw (the cluster-level analog of the
//! daemon's saturation-aware `useful_max`), so surplus flows to nodes
//! that can spend it.

use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Watts;
use pap_telemetry::rollup::ClusterRollup;
use powerd::policy::minfund::{proportional_fill, Claim};

/// Share weight of a node with no apps: small enough to be irrelevant
/// next to any real app shares, positive so the water-fill keeps the
/// claim (idle nodes still hold their floor).
const IDLE_SHARE: f64 = 1e-6;

/// Budget headroom (W) a node keeps above its measured draw when its
/// ceiling is revoked: enough to ramp without a rebalance round-trip,
/// small enough that hoarding is impossible.
const REVOKE_SLACK_WATTS: f64 = 4.0;

/// One node's claim on the cluster budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeClaim {
    /// Node id (for reports; the allocator works in input order).
    pub node: usize,
    /// Sum of the node's app shares (0 for an idle node).
    pub shares: f64,
    /// Lowest cap the node's platform can program (RAPL floor).
    pub min: Watts,
    /// Highest useful cap this round (platform ceiling, possibly
    /// revoked down toward the node's measured draw).
    pub max: Watts,
    /// The node's current cap.
    pub current: Watts,
}

impl NodeClaim {
    /// Whether this round's ceiling sits below the platform ceiling —
    /// i.e. part of the node's claim was revoked, by draw-based
    /// revocation or a learned-capacity clamp. Drives the decision
    /// trace's revocation events.
    pub fn is_revoked(&self, platform: &PlatformSpec) -> bool {
        self.max < node_cap_bounds(platform).1
    }
}

/// The cluster-level arbiter. Pure: [`rebalance`](BudgetAllocator::rebalance)
/// maps (cap, claims) to per-node caps with no internal state, which is
/// what makes the sharded engine's serial-equivalence and the
/// conservation/monotonicity properties checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetAllocator {
    /// The one global budget split across all nodes.
    pub cluster_cap: Watts,
}

impl BudgetAllocator {
    /// An allocator for a global budget.
    pub fn new(cluster_cap: Watts) -> BudgetAllocator {
        BudgetAllocator { cluster_cap }
    }

    /// Split the cluster cap across node claims.
    ///
    /// Invariants (property-tested in `tests/allocator_props.rs`):
    /// **conservation** — the returned caps sum to at most the cluster
    /// cap; **monotonicity** — raising the cluster cap never lowers any
    /// node's cap. When the cap cannot even fund every node's floor,
    /// floors are scaled down proportionally rather than overdrawn (the
    /// cluster layer must never promise power that does not exist).
    pub fn rebalance(&self, claims: &[NodeClaim]) -> Vec<Watts> {
        if claims.is_empty() {
            return Vec::new();
        }
        let cap = self.cluster_cap.value().max(0.0);
        let sum_min: f64 = claims.iter().map(|c| c.min.value()).sum();
        if cap < sum_min {
            let scale = if sum_min > 0.0 { cap / sum_min } else { 0.0 };
            return claims
                .iter()
                .map(|c| Watts(c.min.value() * scale))
                .collect();
        }
        let mf: Vec<Claim> = claims
            .iter()
            .map(|c| {
                Claim::new(
                    c.shares.max(IDLE_SHARE),
                    c.current.value(),
                    c.min.value(),
                    c.max.value().max(c.min.value()),
                )
            })
            .collect();
        proportional_fill(cap, &mf)
            .allocations
            .into_iter()
            .map(Watts)
            .collect()
    }
}

/// The floor and ceiling a node's cap must stay within: the platform's
/// programmable RAPL range where it has one, else an idle floor up to
/// TDP (per-core-power platforms enforce caps in software).
pub fn node_cap_bounds(platform: &PlatformSpec) -> (Watts, Watts) {
    match &platform.rapl {
        Some(rapl) => rapl.limit_range,
        None => (Watts(5.0), platform.tdp),
    }
}

/// Build this round's claims from aggregated telemetry. Weight is the
/// node's total app shares; the ceiling is revoked toward the node's
/// measured draw when it leaves more than [`REVOKE_SLACK_WATTS`] of its
/// cap unused — a throttled node draws *at* its cap and keeps the full
/// platform ceiling, so revocation only ever takes what demonstrably
/// is not wanted.
///
/// A node whose daemon publishes a learned capacity prediction (its
/// online power model's estimate of the maximum draw with every app
/// core at the top P-state) additionally has its ceiling clamped to
/// that prediction plus slack: budget above what the node's chip can
/// physically spend is dead weight this round, and the water-fill hands
/// it to nodes that can use it. Nodes without a prediction (naive
/// translation, or the fit not yet confident) keep the measured-draw
/// behaviour exactly.
pub fn claims_from_rollup(platform: &PlatformSpec, rollup: &ClusterRollup) -> Vec<NodeClaim> {
    let (min, plat_max) = node_cap_bounds(platform);
    rollup
        .nodes
        .iter()
        .map(|n| {
            let learned_max = match n.predicted_capacity {
                Some(c) => {
                    Watts((c.value() + REVOKE_SLACK_WATTS).clamp(min.value(), plat_max.value()))
                }
                None => plat_max,
            };
            let unused = n.power_cap.value() - n.package_power.value();
            let max = if unused > REVOKE_SLACK_WATTS {
                Watts(
                    (n.package_power.value() + REVOKE_SLACK_WATTS)
                        .clamp(min.value(), learned_max.value()),
                )
            } else {
                learned_max
            };
            NodeClaim {
                node: n.node,
                shares: n.total_shares,
                min,
                max,
                current: n.power_cap,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_simcpu::units::Seconds;
    use pap_telemetry::rollup::NodeTelemetry;

    fn claim(node: usize, shares: f64, min: f64, max: f64, current: f64) -> NodeClaim {
        NodeClaim {
            node,
            shares,
            min: Watts(min),
            max: Watts(max),
            current: Watts(current),
        }
    }

    #[test]
    fn share_proportional_between_bounds() {
        let a = BudgetAllocator::new(Watts(80.0));
        let caps = a.rebalance(&[
            claim(0, 300.0, 20.0, 85.0, 45.0),
            claim(1, 100.0, 20.0, 85.0, 45.0),
        ]);
        let total: f64 = caps.iter().map(|w| w.value()).sum();
        assert!((total - 80.0).abs() < 1e-3, "feasible cap fully placed");
        assert!(
            (caps[0].value() / caps[1].value() - 3.0).abs() < 1e-3,
            "3:1 shares → 3:1 caps, got {caps:?}"
        );
    }

    #[test]
    fn floors_hold_and_scale() {
        let a = BudgetAllocator::new(Watts(50.0));
        let caps = a.rebalance(&[
            claim(0, 1000.0, 20.0, 85.0, 45.0),
            claim(1, 1.0, 20.0, 85.0, 45.0),
        ]);
        assert!(caps[1].value() >= 20.0 - 1e-9, "floor funded before shares");

        // infeasible: 30 W cannot fund two 20 W floors — scale, never overdraw
        let tight = BudgetAllocator::new(Watts(30.0));
        let caps = tight.rebalance(&[
            claim(0, 10.0, 20.0, 85.0, 20.0),
            claim(1, 10.0, 20.0, 85.0, 20.0),
        ]);
        let total: f64 = caps.iter().map(|w| w.value()).sum();
        assert!(
            total <= 30.0 + 1e-9,
            "never allocate power that does not exist"
        );
        assert!((caps[0].value() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn idle_nodes_keep_their_floor_only() {
        let a = BudgetAllocator::new(Watts(100.0));
        let caps = a.rebalance(&[
            claim(0, 500.0, 20.0, 85.0, 45.0),
            claim(1, 0.0, 20.0, 85.0, 45.0), // idle
        ]);
        assert!((caps[1].value() - 20.0).abs() < 1e-6, "idle node at floor");
        assert!(
            (caps[0].value() - 80.0).abs() < 1e-3,
            "busy node takes the rest"
        );
    }

    #[test]
    fn revocation_caps_light_nodes_not_throttled_ones() {
        let platform = PlatformSpec::skylake();
        let mk = |node, draw: f64, cap: f64, shares: f64| NodeTelemetry {
            node,
            package_power: Watts(draw),
            power_cap: Watts(cap),
            busy_cores: 5,
            num_cores: 10,
            total_shares: shares,
            total_ips: 1e10,
            predicted_capacity: None,
        };
        let rollup = ClusterRollup::new(
            Seconds(1.0),
            vec![
                mk(0, 25.0, 45.0, 100.0), // light: 20 W unused
                mk(1, 44.5, 45.0, 100.0), // throttled: draws at cap
            ],
        );
        let claims = claims_from_rollup(&platform, &rollup);
        assert!(
            (claims[0].max.value() - 29.0).abs() < 1e-9,
            "light node's ceiling revoked to draw + slack, got {:?}",
            claims[0].max
        );
        assert_eq!(
            claims[1].max,
            Watts(85.0),
            "throttled node keeps platform ceiling"
        );

        // and the fill now moves budget from node 0 to node 1
        let caps = BudgetAllocator::new(Watts(90.0)).rebalance(&claims);
        assert!(
            caps[1] > caps[0],
            "surplus flows to the hungry node: {caps:?}"
        );
    }

    #[test]
    fn learned_capacity_clamps_the_ceiling() {
        let platform = PlatformSpec::skylake();
        let mk = |node, draw: f64, cap: f64, predicted: Option<f64>| NodeTelemetry {
            node,
            package_power: Watts(draw),
            power_cap: Watts(cap),
            busy_cores: 5,
            num_cores: 10,
            total_shares: 100.0,
            total_ips: 1e10,
            predicted_capacity: predicted.map(Watts),
        };
        let rollup = ClusterRollup::new(
            Seconds(1.0),
            vec![
                // throttled at its cap, but its learned model says the
                // chip tops out at 50 W — ceiling follows the model, not
                // the 85 W platform maximum
                mk(0, 44.5, 45.0, Some(50.0)),
                // throttled with no prediction: full platform ceiling
                mk(1, 44.5, 45.0, None),
            ],
        );
        let claims = claims_from_rollup(&platform, &rollup);
        assert_eq!(
            claims[0].max,
            Watts(54.0),
            "ceiling = learned capacity + slack"
        );
        assert_eq!(claims[1].max, Watts(85.0), "no prediction, no clamp");

        // measured-draw revocation still applies underneath the clamp
        let light = ClusterRollup::new(Seconds(1.0), vec![mk(0, 20.0, 45.0, Some(50.0))]);
        let claims = claims_from_rollup(&platform, &light);
        assert_eq!(
            claims[0].max,
            Watts(24.0),
            "draw-based revocation tighter than the learned clamp wins"
        );
    }

    #[test]
    fn empty_cluster() {
        assert!(BudgetAllocator::new(Watts(100.0)).rebalance(&[]).is_empty());
    }

    #[test]
    fn bounds_follow_platform() {
        let (lo, hi) = node_cap_bounds(&PlatformSpec::skylake());
        assert_eq!((lo, hi), (Watts(20.0), Watts(85.0)));
        let (lo, hi) = node_cap_bounds(&PlatformSpec::ryzen());
        assert!(lo.value() > 0.0);
        assert_eq!(hi, PlatformSpec::ryzen().tdp);
    }
}
