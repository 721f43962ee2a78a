//! End-to-end tests for `clusterd`: dynamic admission with spill and
//! typed overload rejection, hierarchical budget arbitration beating a
//! static RAPL-per-node split on share fairness, and bit-identical
//! serial/sharded execution.

use clusterd::admission::{AppRequest, DemandClass};
use clusterd::cluster::{Cluster, ClusterConfig, ClusterError};
use pap_scale::{run_sharded, ScaleConfig};
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::stats::jain;
use powerd::config::PolicyKind;

/// The mixed tenant population every test replays: heterogeneous
/// shares so share-blind arbitration is visibly unfair.
fn tenants(n: usize) -> Vec<AppRequest> {
    (0..n)
        .map(|i| {
            let shares = [20, 60, 180][i % 3];
            let demand = if i % 2 == 0 {
                DemandClass::Moderate
            } else {
                DemandClass::Light
            };
            AppRequest::new(format!("tenant{i}"), shares, demand)
        })
        .collect()
}

fn build(policy: PolicyKind, rebalance_every: u64, apps: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(4, policy, Watts(170.0));
    cfg.rebalance_every = rebalance_every;
    let mut c = Cluster::new(cfg).unwrap();
    for req in tenants(apps) {
        c.admit(&req).unwrap();
    }
    c
}

/// Per-app performance normalized by baseline and shares: equal values
/// mean everyone got power exactly proportional to what they paid for.
fn share_normalized_perf(c: &Cluster) -> Vec<f64> {
    let elapsed = c.elapsed();
    c.reports()
        .iter()
        .map(|r| r.normalized_perf(elapsed) / r.shares as f64)
        .collect()
}

#[test]
fn hierarchical_beats_static_rapl_on_share_fairness() {
    let mut hier = build(PolicyKind::FrequencyShares, 4, 12);
    hier.run(10);
    let jain_hier = jain(&share_normalized_perf(&hier));

    let mut rapl = build(PolicyKind::RaplNative, 0, 12);
    rapl.run(10);
    let jain_rapl = jain(&share_normalized_perf(&rapl));

    assert!(
        jain_hier > jain_rapl + 0.05,
        "hierarchical shares must be fairer than RAPL-per-node: {jain_hier:.3} vs {jain_rapl:.3}"
    );
    // shares proportion *frequency*, and perf is sublinear in frequency,
    // so perfect equality is out of reach — but fairness should be high
    assert!(
        jain_hier > 0.75,
        "shares roughly equalize paid-for perf, got {jain_hier:.3}"
    );
}

#[test]
fn parallel_engine_is_bit_identical_to_serial() {
    let mut serial = build(PolicyKind::FrequencyShares, 2, 10);
    let mut parallel = build(PolicyKind::FrequencyShares, 2, 10);
    serial.run(9);
    let engine = ScaleConfig {
        shards: 4,
        chunk_nodes: 1,
        epsilon: 0.0,
    };
    assert_eq!(run_sharded(&mut parallel, 9, &engine).shards, 4);

    assert_eq!(
        serial.reports(),
        parallel.reports(),
        "per-app state diverged"
    );
    assert_eq!(
        serial.node_caps(),
        parallel.node_caps(),
        "cap schedule diverged"
    );
    let (s, p) = (
        serial.last_rollup().unwrap(),
        parallel.last_rollup().unwrap(),
    );
    assert_eq!(s.total_power(), p.total_power());
    assert_eq!(s.total_ips(), p.total_ips());
    assert_eq!(s.power_balance(), p.power_balance());
}

#[test]
fn admission_spills_and_overload_is_typed() {
    let mut c = build(PolicyKind::FrequencyShares, 4, 0);
    // fill all 4 nodes x 10 cores
    let mut nodes_used = [false; 4];
    for req in tenants(40) {
        let p = c.admit(&req).unwrap();
        nodes_used[p.node] = true;
    }
    assert!(
        nodes_used.iter().all(|&u| u),
        "placement spreads over every node"
    );
    assert_eq!(c.free_cores(), 0);

    let err = c
        .admit(&AppRequest::new("late", 50, DemandClass::Light))
        .unwrap_err();
    match err {
        ClusterError::ClusterFull { app, cores } => {
            assert_eq!(app, "late");
            assert_eq!(cores, 40);
        }
        other => panic!("expected ClusterFull, got {other}"),
    }

    // a departure frees capacity and its budget claim
    c.depart("tenant7").unwrap();
    assert_eq!(c.free_cores(), 1);
    c.admit(&AppRequest::new("late", 50, DemandClass::Light))
        .unwrap();
    c.run(4);
    let total: f64 = c.node_caps().iter().map(|w| w.value()).sum();
    assert!(
        total <= 170.0 + 1e-6,
        "caps conserve the global budget, got {total}"
    );
}

#[test]
fn departures_return_budget_to_busy_nodes() {
    let mut cfg = ClusterConfig::new(2, PolicyKind::FrequencyShares, Watts(100.0));
    cfg.rebalance_every = 2;
    cfg.control_interval = Seconds(0.5);
    let mut c = Cluster::new(cfg).unwrap();
    // node 0 saturated with scalable high-demand work, node 1 lightly loaded
    for req in tenants(10) {
        c.admit(&req).unwrap();
    }
    c.run(8);
    let while_shared = c.node_caps();
    // empty node 1 entirely: its claim should collapse toward the floor
    for i in (0..10).filter(|i| i % 2 == 1) {
        let name = format!("tenant{i}");
        if c.reports().iter().any(|r| r.name == name && r.node == 1) {
            c.depart(&name).unwrap();
        }
    }
    c.run(8);
    let after = c.node_caps();
    assert!(
        after[1].value() <= while_shared[1].value() + 1e-6,
        "emptied node's claim collapses: {while_shared:?} -> {after:?}"
    );
    assert!(
        after[0].value() > after[1].value(),
        "the busy node holds the budget: {after:?}"
    );
}
