//! Extension: cluster control-plane scaling — the sharded `pap-scale`
//! engine vs the serial `clusterd` reference at 8/64/512/1024 nodes
//! (DESIGN.md §14).
//!
//! Both engines replay the *same* compressed diurnal day: a seeded
//! [`ChurnLoad`] stream admits and departs hundreds of tenant apps per
//! control window while the cluster runs under one global budget with
//! periodic rebalancing. The serial reference pays today's costs — a
//! full candidate sort per admission and a full telemetry
//! re-aggregation (allocation, sort, six-way fold) every interval. The
//! sharded engine batches the window's churn through one placement heap
//! (`admit_batch`/`depart_batch`) and keeps the rollup incremental
//! (`DeltaRollup`), materializing it only at rebalance epochs.
//!
//! Exits non-zero if (a) the sharded engine diverges from the serial
//! reference *in any checked bit* at epsilon = 0 (energy to the bit,
//! caps, per-app reports, final rollup) in any trial, (b) arbiter
//! throughput at 1024 nodes is below 8x the serial reference, or (c)
//! sharded throughput scales worse than 0.5x ideal from 64 to 512
//! nodes. Every size runs as [`PAIRS`] alternated serial/sharded pairs
//! that flip which side goes first; gate (b) judges the median of the
//! per-pair ratios and gate (c) the ratio of the two sizes' median
//! sharded throughputs, so one slow trial on a busy host cannot fail
//! either. An epsilon > 0 run at the largest size reports the skip rate
//! the tolerance buys. Results land in `results/BENCH_cluster_scale.json`
//! for CI, with the host's available parallelism next to the shard
//! count each size used, and the min, median and max speedup and
//! sharded throughput over each size's pairs.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use clusterd::cluster::AppReport;
use clusterd::{Cluster, ClusterConfig};
use pap_bench::{f1, Table};
use pap_scale::{run_sharded, ChurnLoad, ScaleConfig, ScaleStats};
use pap_simcpu::units::{Seconds, Watts};
use pap_tenants::arrival::ArrivalTrace;
use powerd::config::PolicyKind;

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

const SIZES: [usize; 4] = [8, 64, 512, 1024];
/// The size the speedup gate judges.
const GATED: usize = 1024;
/// Alternated serial/sharded pairs timed at every size (odd, so each
/// median is one pair's figure).
const PAIRS: usize = 5;
const SEED: u64 = 1009;
/// Mean/swing of the diurnal population trace (fraction of cluster
/// cores occupied by tenant apps).
const MEAN_LOAD: f64 = 0.25;
const SWING: f64 = 0.15;

#[derive(Clone, Copy)]
enum Engine {
    Serial,
    Sharded { epsilon: f64 },
}

/// End state + wall time of one replay. Everything the serial and
/// sharded runs must agree on bit-for-bit at epsilon = 0.
struct Outcome {
    wall_secs: f64,
    intervals: u64,
    energy_bits: u64,
    caps: Vec<Watts>,
    reports: Vec<AppReport>,
    free_cores: usize,
    /// Control-plane operations replayed: node-intervals plus churn ops.
    ops: u64,
    stats: Option<ScaleStats>,
}

impl Outcome {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_secs
    }

    fn agrees_with(&self, other: &Outcome) -> bool {
        self.intervals == other.intervals
            && self.energy_bits == other.energy_bits
            && self.caps == other.caps
            && self.reports == other.reports
            && self.free_cores == other.free_cores
    }
}

fn config(nodes: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        nodes,
        PolicyKind::FrequencyShares,
        Watts(60.0 * nodes as f64),
    );
    // One sim tick per control interval: the chip model advances the
    // same amount under both engines, so the measured difference is the
    // control plane — admission, aggregation, arbitration.
    cfg.tick = cfg.control_interval;
    cfg
}

/// Replay `windows` control windows of the seeded diurnal churn day on
/// a fresh cluster, through either engine. `turnover` is the background
/// churn per window ([`ChurnLoad`]); the scaling comparison uses
/// `nodes` (churn-heavy), the epsilon demonstration a quiet fleet.
fn replay(nodes: usize, windows: u64, engine: Engine, turnover: usize) -> Outcome {
    let cfg = config(nodes);
    let interval = cfg.control_interval;
    let mut cluster = Cluster::new(cfg).expect("budget funds the node floors");
    let capacity = nodes * cluster.config().platform.num_cores;
    let period = Seconds(windows as f64 * interval.value());
    let trace = ArrivalTrace::diurnal(MEAN_LOAD, SWING, period);
    let mut load = ChurnLoad::new(trace, SEED, capacity, turnover);
    let scale = match engine {
        Engine::Sharded { epsilon } => Some(ScaleConfig {
            shards: 0,
            chunk_nodes: 32,
            epsilon,
        }),
        Engine::Serial => None,
    };

    let mut ops = 0u64;
    let mut stats: Option<ScaleStats> = None;
    let started = Instant::now();
    for w in 0..windows {
        let batch = load.next_batch(Seconds(w as f64 * interval.value()));
        ops += batch.len() as u64 + nodes as u64;
        let admitted: Vec<bool> = match &scale {
            None => {
                for name in &batch.departures {
                    cluster.depart(name).expect("departing app is placed");
                }
                batch
                    .arrivals
                    .iter()
                    .map(|req| cluster.admit(req).is_ok())
                    .collect()
            }
            Some(_) => {
                for r in cluster.depart_batch(&batch.departures) {
                    r.expect("departing app is placed");
                }
                cluster
                    .admit_batch(&batch.arrivals)
                    .iter()
                    .map(Result::is_ok)
                    .collect()
            }
        };
        load.commit(&batch, &admitted);
        match &scale {
            None => cluster.run(1),
            Some(sc) => {
                let s = run_sharded(&mut cluster, 1, sc);
                stats = Some(match stats.take() {
                    None => s,
                    Some(prev) => ScaleStats {
                        intervals: prev.intervals + s.intervals,
                        delta_updates: prev.delta_updates + s.delta_updates,
                        delta_skips: prev.delta_skips + s.delta_skips,
                        ..s
                    },
                });
            }
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();

    Outcome {
        wall_secs,
        intervals: cluster.intervals_run(),
        energy_bits: cluster.energy_j().to_bits(),
        caps: cluster.node_caps(),
        reports: cluster.reports(),
        free_cores: cluster.free_cores(),
        ops,
        stats,
    }
}

struct SizeResult {
    nodes: usize,
    /// Each engine's trials, fastest first.
    serial: Vec<Outcome>,
    sharded: Vec<Outcome>,
    /// Every trial of both engines agrees with the first serial one.
    identical: bool,
    /// Serial over sharded wall time of each pair, ascending.
    speedups: Vec<f64>,
}

/// The middle element of a sorted, non-empty slice.
fn median<T>(sorted: &[T]) -> &T {
    &sorted[sorted.len() / 2]
}

impl SizeResult {
    /// Median per-pair speedup.
    fn speedup(&self) -> f64 {
        *median(&self.speedups)
    }
}

/// Replay `nodes` through both engines in [`PAIRS`] alternated pairs,
/// flipping which engine runs first each pair.
fn compare(nodes: usize, windows: u64) -> SizeResult {
    // Churn-heavy: every window also replaces `nodes` tenants even when
    // the diurnal target is flat.
    let serial = || replay(nodes, windows, Engine::Serial, nodes);
    let sharded = || replay(nodes, windows, Engine::Sharded { epsilon: 0.0 }, nodes);
    let (mut serials, mut shardeds) = (Vec::new(), Vec::new());
    for k in 0..PAIRS {
        if k % 2 == 0 {
            serials.push(serial());
            shardeds.push(sharded());
        } else {
            shardeds.push(sharded());
            serials.push(serial());
        }
    }
    let identical = serials
        .iter()
        .chain(&shardeds)
        .all(|o| o.agrees_with(&serials[0]));
    let mut speedups: Vec<f64> = serials
        .iter()
        .zip(&shardeds)
        .map(|(a, b)| a.wall_secs / b.wall_secs)
        .collect();
    speedups.sort_by(f64::total_cmp);
    serials.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    shardeds.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    SizeResult {
        nodes,
        serial: serials,
        sharded: shardeds,
        identical,
        speedups,
    }
}

fn json_report(results: &[SizeResult], windows: u64, eps: f64, eps_run: &Outcome) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n  \"bench\": \"cluster_scale\",\n");
    let _ = writeln!(
        s,
        "  \"windows\": {windows},\n  \"seed\": {SEED},\n  \
         \"host\": {{\"available_parallelism\": {parallelism}}},\n  \"sizes\": ["
    );
    for (i, r) in results.iter().enumerate() {
        let (serial, sharded) = (median(&r.serial), median(&r.sharded));
        let st = sharded.stats.as_ref().expect("sharded run has stats");
        let slowest = r.sharded.last().expect("at least one pair");
        let _ = writeln!(
            s,
            "    {{\"nodes\": {}, \"identical\": {}, \"serial_wall_s\": {:.4}, \
             \"sharded_wall_s\": {:.4}, \"pairs\": {}, \"speedup\": {:.2}, \
             \"speedup_min\": {:.2}, \"speedup_max\": {:.2}, \
             \"serial_ops_per_s\": {:.0}, \"sharded_ops_per_s\": {:.0}, \
             \"sharded_ops_per_s_min\": {:.0}, \"sharded_ops_per_s_max\": {:.0}, \
             \"shards\": {}, \"delta_updates\": {}, \"delta_skips\": {}}}{}",
            r.nodes,
            r.identical,
            serial.wall_secs,
            sharded.wall_secs,
            r.speedups.len(),
            r.speedup(),
            r.speedups[0],
            r.speedups[r.speedups.len() - 1],
            serial.ops_per_sec(),
            sharded.ops_per_sec(),
            slowest.ops_per_sec(),
            r.sharded[0].ops_per_sec(),
            st.shards,
            st.delta_updates,
            st.delta_skips,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    let est = eps_run.stats.as_ref().expect("epsilon run has stats");
    let _ = writeln!(
        s,
        "  ],\n  \"epsilon_run\": {{\"nodes\": {}, \"epsilon\": {}, \
         \"skip_rate\": {:.4}, \"ops_per_s\": {:.0}}}\n}}",
        results.last().map_or(0, |r| r.nodes),
        eps,
        est.skip_rate(),
        eps_run.ops_per_sec(),
    );
    s
}

fn main() -> ExitCode {
    let mut windows = 16u64;
    let mut out_path = String::from("results/BENCH_cluster_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--windows" => {
                windows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--windows takes a positive integer");
            }
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?} (supported: --windows N, --out PATH)"),
        }
    }

    let results: Vec<SizeResult> = SIZES
        .into_iter()
        .map(|nodes| compare(nodes, windows))
        .collect();
    // Tolerance run at the largest size, on a quiet fleet (light
    // background churn): what fraction of rows does epsilon skip when
    // most nodes are in steady state?
    let eps = 0.05;
    let largest = *SIZES.last().expect("sizes non-empty");
    let eps_run = replay(
        largest,
        windows,
        Engine::Sharded { epsilon: eps },
        largest / 64,
    );

    let mut t = Table::new(
        format!("Cluster control-plane scaling ({windows} churn-heavy windows per size)"),
        &[
            "nodes",
            "identical",
            "serial_s",
            "sharded_s",
            "speedup",
            "serial_kops/s",
            "sharded_kops/s",
        ],
    );
    for r in &results {
        let (serial, sharded) = (median(&r.serial), median(&r.sharded));
        t.row(vec![
            r.nodes.to_string(),
            if r.identical {
                "yes".into()
            } else {
                "NO".into()
            },
            f2(serial.wall_secs),
            f2(sharded.wall_secs),
            f2(r.speedup()),
            f1(serial.ops_per_sec() / 1e3),
            f1(sharded.ops_per_sec() / 1e3),
        ]);
    }
    println!("{t}");
    let est = eps_run.stats.as_ref().expect("epsilon run has stats");
    println!(
        "epsilon = {eps} at {largest} nodes: skip rate {:.1}% ({} skips / {} updates), \
         {:.0} kops/s (no parity claim; tolerance trades exactness for skips)",
        est.skip_rate() * 100.0,
        est.delta_skips,
        est.delta_updates,
        eps_run.ops_per_sec() / 1e3
    );

    let mut failures = Vec::new();
    for r in &results {
        if !r.identical {
            failures.push(format!(
                "{} nodes: a trial diverged from the serial reference at epsilon=0",
                r.nodes
            ));
        }
    }
    let at = |nodes: usize| {
        results
            .iter()
            .find(|r| r.nodes == nodes)
            .expect("size was run")
    };
    let gated = at(GATED);
    let speedup_1024 = gated.speedup();
    println!(
        "speedup at {GATED} nodes over {PAIRS} alternated pairs: min {:.2}x, \
         median {speedup_1024:.2}x, max {:.2}x",
        gated.speedups[0],
        gated.speedups[PAIRS - 1]
    );
    if speedup_1024 < 8.0 {
        failures.push(format!(
            "arbiter throughput at {GATED} nodes is {speedup_1024:.2}x the serial \
             reference, median of {PAIRS} pairs (gate: >= 8x)"
        ));
    }
    let scaling = median(&at(512).sharded).ops_per_sec() / median(&at(64).sharded).ops_per_sec();
    println!(
        "sharded throughput retention from 64 to 512 nodes: {scaling:.2}x \
         (ratio of the medians over {PAIRS} pairs each)"
    );
    if scaling < 0.5 {
        failures.push(format!(
            "sharded throughput scales {scaling:.2}x from 64 to 512 nodes, \
             ratio of the medians of {PAIRS} pairs (gate: >= 0.5x ideal)"
        ));
    }

    let json = json_report(&results, windows, eps, &eps_run);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        println!(
            "PASS: bit-identical to the serial reference in every trial, \
             {speedup_1024:.1}x arbiter throughput at {GATED} nodes (median), \
             {scaling:.2}x throughput retention from 64 to 512 nodes."
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
