//! Cluster quickstart: arbitrate one 170 W budget across a 4-node
//! simulated cluster with dynamic app arrival and departure.
//!
//! ```sh
//! cargo run --release --example cluster_quickstart
//! ```

use clusterd::prelude::*;
use pap_scale::{run_sharded, ScaleConfig};
use pap_simcpu::units::Watts;
use powerd::config::PolicyKind;

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::new(
        4,
        PolicyKind::FrequencyShares,
        Watts(170.0),
    ))
    .expect("budget funds every node's power floor");

    // Tenants arrive with (shares, demand class); the cluster places
    // each on the least-saturated node.
    for (i, (shares, demand)) in [
        (180, DemandClass::Heavy),
        (60, DemandClass::Moderate),
        (60, DemandClass::Moderate),
        (20, DemandClass::Light),
        (20, DemandClass::Light),
        (20, DemandClass::Light),
    ]
    .into_iter()
    .cycle()
    .take(18)
    .enumerate()
    {
        let placement = cluster
            .admit(&AppRequest::new(format!("tenant{i}"), shares, demand))
            .expect("cluster has free cores");
        println!(
            "tenant{i:<2} ({shares:>3} shares) -> node {} core {}",
            placement.node, placement.core
        );
    }

    // Run on the sharded engine: two workers take one node at a time,
    // and the budget arbiter rebalances node caps from telemetry every
    // 4 intervals. At epsilon 0 the run is bit-identical to
    // `cluster.run(20)`.
    let engine = ScaleConfig {
        shards: 2,
        chunk_nodes: 1,
        epsilon: 0.0,
    };
    run_sharded(&mut cluster, 20, &engine);

    // Half the tenants leave; their budget claims dissolve.
    for i in (0..18).step_by(2) {
        cluster
            .depart(&format!("tenant{i}"))
            .expect("tenant is placed");
    }
    run_sharded(&mut cluster, 20, &engine);

    let rollup = cluster.last_rollup().expect("ran intervals");
    println!(
        "\nafter {}: cluster draw {:.1} of {:.1} W cap, power balance (Jain) {:.3}",
        cluster.elapsed(),
        rollup.total_power().value(),
        rollup.total_cap().value(),
        rollup.power_balance()
    );
    println!(
        "{:<6} {:>8} {:>10} {:>10}",
        "node", "cap W", "draw W", "apps"
    );
    for t in &rollup.nodes {
        println!(
            "{:<6} {:>8.1} {:>10.1} {:>10}",
            t.node,
            t.power_cap.value(),
            t.package_power.value(),
            t.busy_cores
        );
    }

    let elapsed = cluster.elapsed();
    println!(
        "\n{:<10} {:>5} {:>7} {:>11}",
        "app", "node", "shares", "norm perf"
    );
    for r in cluster.reports() {
        println!(
            "{:<10} {:>5} {:>7} {:>11.3}",
            r.name,
            r.node,
            r.shares,
            r.normalized_perf(elapsed)
        );
    }
}
