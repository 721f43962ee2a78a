//! Extension: hierarchical multi-node power arbitration — a compressed
//! diurnal tenant trace replayed across an 8-node cluster under one
//! global 280 W budget.
//!
//! Three runs of the same trace: a static RAPL-per-node split (each
//! node gets budget/8, hardware RAPL, shares ignored), the hierarchical
//! allocator (cluster cap → per-node caps from telemetry every 4
//! intervals → per-app frequency shares), and the hierarchical run
//! again on the sharded engine (`pap_scale::run_sharded`, one node per
//! chunk, several shard workers) to report wall-clock simulation
//! throughput and confirm bit-identical results.
//!
//! Reported per mode: Jain fairness over share-normalized per-app
//! performance (1.0 = every tenant got exactly the performance its
//! shares paid for), retired instructions, mean cluster draw, typed
//! peak-overload rejections, and simulated seconds per wall second.

use std::collections::HashMap;
use std::time::Instant;

use clusterd::admission::{AppRequest, DemandClass};
use clusterd::cluster::{AppReport, Cluster, ClusterConfig, ClusterError};
use pap_bench::{f1, f3, Table};
use pap_scale::{run_sharded, ScaleConfig};
use pap_simcpu::units::Watts;
use pap_telemetry::stats::jain;
use powerd::config::PolicyKind;

const NODES: usize = 8;
const CLUSTER_CAP: f64 = 280.0;
const DAY: u64 = 48; // control intervals in the compressed day
const MORNING: u64 = 8;
const PEAK: u64 = 16;
const EVENING: u64 = 28;
/// Shard workers for the parallel run: fixed, so the identity check
/// always runs multi-threaded whatever the host's core count.
const SHARDS: usize = 4;

const BASE_APPS: usize = 24;
const DAY_APPS: usize = 32;
const BURST_APPS: usize = 30;

struct Outcome {
    jain: f64,
    giga_instr: f64,
    mean_power: Watts,
    rejected: usize,
    wall_secs: f64,
    caps: Vec<Watts>,
    reports: Vec<AppReport>,
}

fn base_request(i: usize) -> AppRequest {
    let shares = [20, 60, 180][i % 3];
    let demand = [
        DemandClass::Moderate,
        DemandClass::Light,
        DemandClass::Heavy,
    ][i % 3];
    AppRequest::new(format!("base{i}"), shares, demand)
}

fn day_request(i: usize) -> AppRequest {
    let shares = [40, 120][i % 2];
    let demand = [DemandClass::Light, DemandClass::Moderate][i % 2];
    AppRequest::new(format!("day{i}"), shares, demand)
}

fn replay(policy: PolicyKind, rebalance_every: u64, parallel: bool) -> Outcome {
    let mut cfg = ClusterConfig::new(NODES, policy, Watts(CLUSTER_CAP));
    cfg.rebalance_every = rebalance_every;
    let mut cluster = Cluster::new(cfg).expect("budget funds the node floors");

    // name -> (arrived, departed) in intervals; finished app reports
    let mut residence: HashMap<String, (u64, Option<u64>)> = HashMap::new();
    let mut finished: Vec<AppReport> = Vec::new();
    let mut burst_admitted: Vec<String> = Vec::new();
    let mut rejected = 0usize;

    let start = Instant::now();
    // the trace has events at fixed interval marks; between marks the
    // engine runs uninterrupted (so the sharded engine's workers live
    // for a whole stretch, not a single interval)
    for (t, until) in [
        (0, MORNING),
        (MORNING, PEAK),
        (PEAK, EVENING),
        (EVENING, DAY),
    ] {
        if t == 0 {
            for i in 0..BASE_APPS {
                let req = base_request(i);
                cluster.admit(&req).expect("base load fits");
                residence.insert(req.name, (t, None));
            }
        }
        if t == MORNING {
            for i in 0..DAY_APPS {
                let req = day_request(i);
                cluster.admit(&req).expect("day load fits");
                residence.insert(req.name, (t, None));
            }
        }
        if t == PEAK {
            for i in 0..BURST_APPS {
                let req = AppRequest::new(format!("burst{i}"), 40, DemandClass::Light);
                match cluster.admit(&req) {
                    Ok(_) => {
                        burst_admitted.push(req.name.clone());
                        residence.insert(req.name, (t, None));
                    }
                    Err(ClusterError::ClusterFull { .. }) => rejected += 1,
                    Err(e) => panic!("unexpected admission failure: {e}"),
                }
            }
        }
        if t == EVENING {
            let snapshot = cluster.reports();
            let leaving: Vec<String> = (0..DAY_APPS)
                .map(|i| format!("day{i}"))
                .chain(burst_admitted.drain(..))
                .collect();
            for name in leaving {
                let report = snapshot
                    .iter()
                    .find(|r| r.name == name)
                    .expect("leaving app has a report")
                    .clone();
                cluster.depart(&name).expect("leaving app is placed");
                residence.get_mut(&name).expect("tracked").1 = Some(t);
                finished.push(report);
            }
        }

        if parallel {
            let sharded = ScaleConfig {
                shards: SHARDS,
                chunk_nodes: 1,
                epsilon: 0.0,
            };
            run_sharded(&mut cluster, until - t, &sharded);
        } else {
            cluster.run(until - t);
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();

    let final_reports = cluster.reports();
    let interval_s = cluster.config().control_interval.value();
    let all: Vec<&AppReport> = finished.iter().chain(&final_reports).collect();
    let x: Vec<f64> = all
        .iter()
        .map(|r| {
            let (arrived, departed) = residence[&r.name];
            let secs = (departed.unwrap_or(DAY) - arrived) as f64 * interval_s;
            (r.total_instructions as f64 / secs) / r.baseline_ips / r.shares as f64
        })
        .collect();
    let giga_instr = all.iter().map(|r| r.total_instructions as f64).sum::<f64>() / 1e9;

    Outcome {
        jain: jain(&x),
        giga_instr,
        mean_power: cluster.mean_power(),
        rejected,
        wall_secs,
        caps: cluster.node_caps(),
        reports: final_reports,
    }
}

fn main() {
    let modes = [
        ("rapl-per-node", PolicyKind::RaplNative, 0u64, false),
        ("hierarchical", PolicyKind::FrequencyShares, 4, false),
        ("hierarchical-par", PolicyKind::FrequencyShares, 4, true),
    ];
    let outcomes: Vec<(&str, Outcome)> = modes
        .iter()
        .map(|&(name, policy, every, parallel)| (name, replay(policy, every, parallel)))
        .collect();

    let mut table = Table::new(
        format!("ext: diurnal trace on {NODES} nodes, one {CLUSTER_CAP} W budget"),
        &["mode", "jain(x)", "Ginstr", "mean W", "rejected", "sim s/s"],
    );
    for (name, o) in &outcomes {
        table.row(vec![
            name.to_string(),
            f3(o.jain),
            f1(o.giga_instr),
            f1(o.mean_power.value()),
            o.rejected.to_string(),
            f1(DAY as f64 / o.wall_secs),
        ]);
    }
    println!("{table}");

    let rapl = &outcomes[0].1;
    let hier = &outcomes[1].1;
    let par = &outcomes[2].1;
    println!(
        "hierarchical vs RAPL-per-node fairness: {} vs {} ({})",
        f3(hier.jain),
        f3(rapl.jain),
        if hier.jain > rapl.jain {
            "hierarchical wins"
        } else {
            "REGRESSION"
        }
    );
    let identical = hier.reports == par.reports && hier.caps == par.caps;
    println!(
        "sharded engine ({SHARDS} shards) identical to serial reference: {} (speedup {:.2}x)",
        if identical {
            "yes"
        } else {
            "NO — DETERMINISM BROKEN"
        },
        hier.wall_secs / par.wall_secs
    );

    let mut caps = Table::new("final node caps (hierarchical)", &["node", "cap W", "apps"]);
    for (node, cap) in hier.caps.iter().enumerate() {
        let apps = hier.reports.iter().filter(|r| r.node == node).count();
        caps.row(vec![node.to_string(), f1(cap.value()), apps.to_string()]);
    }
    println!("{caps}");

    assert!(
        hier.jain > rapl.jain,
        "hierarchical must beat RAPL-per-node on fairness"
    );
    assert!(identical, "sharded engine must match the serial reference");
    assert!(
        rapl.rejected > 0 && hier.rejected > 0,
        "peak burst must overflow the cluster"
    );
}
