//! The cluster workloads: `fleet-churn` and `arbiter-churn`.
//!
//! Each window applies one batch of churn (departures, then arrivals)
//! and advances the whole fleet one control interval. The untraced run
//! and the coarse traced replay call `run_sharded`; the decomposed
//! replay detaches the engine and drives the nodes, the delta rollup and
//! the arbiter itself, and must end bit-identical to the untraced run.

use std::time::Instant;

use clusterd::allocator::node_cap_bounds;
use clusterd::cluster::AppReport;
use clusterd::{Cluster, ClusterConfig};
use pap_scale::{run_sharded, ChurnLoad, ScaleConfig, ScaleStats};
use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::rollup::{ClusterRollup, DeltaRollup, NodeTelemetry};
use pap_tenants::arrival::ArrivalTrace;
use powerd::config::PolicyKind;

use pap_telemetry::stats::{mean, percentile};

use crate::report::{Checks, Host, Report};
use crate::stats::{block_rate, blocked};
use crate::trace::{Layer, Tracer};
use crate::{Options, Size};

/// Mean and swing of the diurnal population (fraction of cluster cores
/// occupied by tenant apps), as in `ext_fleet` and `ext_cluster_scale`.
const MEAN_LOAD: f64 = 0.25;
const SWING: f64 = 0.15;
/// Cluster budget per node (W).
const CAP_PER_NODE_W: f64 = 60.0;

/// The parameters that make a cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Simulation ticks per 1 s control interval.
    pub ticks_per_interval: u64,
    /// Cluster rebalance cadence, in intervals.
    pub rebalance_every: u64,
    /// Apps replaced per window on top of the diurnal target.
    pub turnover: usize,
    /// Run the shard pool with one worker per available CPU (else
    /// inline).
    pub multi_shard: bool,
    /// Windows per simulated day. Runs end on a day boundary, so every
    /// run times whole days whatever the host's speed.
    pub day_windows: u64,
    /// Windows every untraced run completes; the simulated metrics cover
    /// `[day_windows, min_windows)`, so they repeat exactly per seed.
    pub min_windows: u64,
    /// Windows per timing block (whole days); the host-time metrics are
    /// medians over blocks.
    pub block_windows: u64,
    /// Windows every traced replay runs (whole days), whatever the
    /// host's speed, so call counts and shares cover the same work.
    pub trace_windows: u64,
}

impl Shape {
    /// `fleet-churn`: node simulation dominates.
    pub fn fleet(size: Size) -> Shape {
        let s = Shape {
            name: "fleet-churn",
            nodes: 1024,
            ticks_per_interval: 500,
            rebalance_every: 8,
            turnover: 32,
            multi_shard: true,
            day_windows: 16,
            min_windows: 16 + 256,
            block_windows: 16 * 16,
            trace_windows: 16 * 64,
        };
        match size {
            Size::Full => s,
            Size::Tiny => Shape {
                nodes: 8,
                turnover: 2,
                day_windows: 8,
                min_windows: 24,
                block_windows: 16,
                trace_windows: 24,
                ..s
            },
        }
    }

    /// `arbiter-churn`: admission, rollup and arbitration dominate. 256
    /// nodes rather than 1024: at 1024 the fleet's ~30 MB working set
    /// competes for the shared L3, and on a shared host its window time
    /// swung by a third from run to run; at 256 it holds within a few
    /// percent and the control plane still dominates.
    pub fn arbiter(size: Size) -> Shape {
        let s = Shape {
            name: "arbiter-churn",
            nodes: 256,
            ticks_per_interval: 1,
            rebalance_every: 4,
            turnover: 256,
            multi_shard: false,
            day_windows: 64,
            min_windows: 64 + 1024,
            block_windows: 64 * 8,
            trace_windows: 64 * 512,
        };
        match size {
            Size::Full => s,
            Size::Tiny => Shape {
                nodes: 8,
                turnover: 8,
                day_windows: 8,
                min_windows: 24,
                block_windows: 16,
                trace_windows: 24,
                ..s
            },
        }
    }

    fn config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(
            self.nodes,
            PolicyKind::FrequencyShares,
            Watts(CAP_PER_NODE_W * self.nodes as f64),
        );
        cfg.tick = Seconds(cfg.control_interval.value() / self.ticks_per_interval as f64);
        cfg.rebalance_every = self.rebalance_every;
        cfg
    }

    /// Simulated core-seconds one window advances.
    fn core_seconds(&self, cfg: &ClusterConfig) -> f64 {
        (self.nodes * cfg.platform.num_cores) as f64 * cfg.control_interval.value()
    }
}

/// How a replay advances the fleet one interval.
enum Engine {
    /// `run_sharded`, one interval per call.
    Sharded(ScaleConfig),
    /// The detached engine driven through its public parts, with a
    /// resident exact-mode delta rollup.
    Decomposed(DeltaRollup),
}

/// Everything the untraced run and the replays must agree on.
#[derive(Debug, Clone, PartialEq)]
struct EndState {
    intervals: u64,
    energy_bits: u64,
    caps: Vec<Watts>,
    reports: Vec<AppReport>,
    free_cores: usize,
    last_rollup: Option<ClusterRollup>,
}

/// `ScaleStats` summed over every `run_sharded` call.
#[derive(Debug, Clone, Copy, Default)]
struct ScaleTotals {
    shards: usize,
    delta_updates: u64,
    delta_skips: u64,
}

/// Simulated quality, collected over the deterministic window range.
#[derive(Debug, Default)]
struct SimStats {
    overshoot_pct: Vec<f64>,
    gips: Vec<f64>,
}

/// A fleet, its load generator and its engine.
struct Fleet {
    shape: Shape,
    cluster: Cluster,
    load: ChurnLoad,
    engine: Engine,
    bounds: (Watts, Watts),
    scale: ScaleTotals,
    admissions: u64,
    refused: u64,
}

impl Fleet {
    fn new(shape: Shape, seed: u64, engine: Engine) -> Fleet {
        let cfg = shape.config();
        let bounds = node_cap_bounds(&cfg.platform);
        let capacity = shape.nodes * cfg.platform.num_cores;
        let period = Seconds(shape.day_windows as f64 * cfg.control_interval.value());
        let trace = ArrivalTrace::diurnal(MEAN_LOAD, SWING, period);
        Fleet {
            shape,
            cluster: Cluster::new(cfg).expect("the budget funds every node floor"),
            load: ChurnLoad::new(trace, seed, capacity, shape.turnover),
            engine,
            bounds,
            scale: ScaleTotals::default(),
            admissions: 0,
            refused: 0,
        }
    }

    /// Run window `w`: churn, then one interval across the fleet.
    /// Returns its host time in seconds.
    fn window(&mut self, w: u64, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        tr.set_window(w);
        let interval = self.cluster.config().control_interval.value();
        let started = Instant::now();
        let load = &mut self.load;
        let batch = tr.time(Layer::LoadGenerate, || {
            load.next_batch(Seconds(w as f64 * interval))
        });
        let cluster = &mut self.cluster;
        let departed = tr.time(Layer::DepartBatch, || {
            cluster.depart_batch(&batch.departures)
        });
        let admitted = tr.time(Layer::AdmitBatch, || cluster.admit_batch(&batch.arrivals));
        let admitted: Vec<bool> = admitted.iter().map(Result::is_ok).collect();
        tr.time(Layer::LoadGenerate, || load.commit(&batch, &admitted));
        match &mut self.engine {
            Engine::Sharded(cfg) => {
                let stats = tr.time(Layer::RunSharded, || run_sharded(cluster, 1, cfg));
                note_stats(&mut self.scale, &stats, w, checks);
            }
            Engine::Decomposed(delta) => decomposed_interval(cluster, delta, tr),
        }
        let host_s = started.elapsed().as_secs_f64();

        let refused_departures = departed.iter().filter(|r| r.is_err()).count() as u64;
        let refused = admitted.iter().filter(|ok| !**ok).count() as u64;
        checks.attempted += (batch.len() + self.shape.nodes) as u64;
        self.admissions += admitted.len() as u64;
        self.refused += refused;
        if refused_departures + refused > 0 {
            checks.fail_many(
                refused_departures + refused,
                format!(
                    "window {w}: {refused} admissions and {refused_departures} departures refused"
                ),
            );
        }
        host_s
    }

    /// Per-window output checks; collects the simulated metrics when
    /// `sim` is given.
    fn check(&self, w: u64, checks: &mut Checks, sim: Option<&mut SimStats>) {
        let cluster = &self.cluster;
        let cap = cluster.config().cluster_cap.value();
        let caps = cluster.node_caps();
        let sum: f64 = caps.iter().map(|c| c.value()).sum();
        checks.check(sum <= cap + 1e-6, || {
            format!("window {w}: node caps sum to {sum} W over the {cap} W cluster cap")
        });
        let (lo, hi) = self.bounds;
        let out = caps.iter().filter(|c| **c < lo || **c > hi).count();
        checks.check(out == 0, || {
            format!("window {w}: {out} node caps outside [{lo}, {hi}]")
        });
        let Some(rollup) = cluster.last_rollup() else {
            checks.fail(format!("window {w}: no rollup after the interval"));
            return;
        };
        let sick = rollup.nodes.iter().filter(|t| !t.is_healthy()).count()
            + rollup.unhealthy_nodes().len();
        checks.check(sick == 0, || {
            format!("window {w}: {sick} unhealthy telemetry rows")
        });
        checks.check(rollup.nodes.len() == self.shape.nodes, || {
            format!("window {w}: rollup has {} rows", rollup.nodes.len())
        });
        if let Some(sim) = sim {
            sim.gips.push(rollup.total_ips() / 1e9);
            sim.overshoot_pct.extend(
                rollup
                    .nodes
                    .iter()
                    .map(|t| (t.package_power.value() / t.power_cap.value() - 1.0) * 100.0),
            );
        }
    }

    fn end_state(&self) -> EndState {
        let c = &self.cluster;
        EndState {
            intervals: c.intervals_run(),
            energy_bits: c.energy_j().to_bits(),
            caps: c.node_caps(),
            reports: c.reports(),
            free_cores: c.free_cores(),
            last_rollup: c.last_rollup().cloned(),
        }
    }
}

fn note_stats(acc: &mut ScaleTotals, stats: &ScaleStats, w: u64, checks: &mut Checks) {
    acc.shards = acc.shards.max(stats.shards);
    acc.delta_updates += stats.delta_updates;
    acc.delta_skips += stats.delta_skips;
    checks.check(stats.unhealthy_nodes.is_empty(), || {
        format!(
            "window {w}: ScaleStats flags unhealthy nodes {:?}",
            stats.unhealthy_nodes
        )
    });
}

/// One interval through the detached engine's public parts, in the
/// order `run_sharded` performs them for a one-interval call.
fn decomposed_interval(cluster: &mut Cluster, delta: &mut DeltaRollup, tr: &mut Tracer) {
    let (mut seam, mut nodes) = tr.time(Layer::Seam, || {
        let mut seam = cluster.detach_engine();
        let nodes = seam.take_nodes();
        (seam, nodes)
    });
    let teles: Vec<NodeTelemetry> = tr.time(Layer::NodeAdvance, || {
        nodes.iter_mut().map(|n| n.advance_interval()).collect()
    });
    let total = tr.time(Layer::Rollup, || {
        for t in teles {
            delta.update(t);
        }
        delta.total_power()
    });
    let due = tr.time(Layer::Arbitrate, || {
        seam.note_interval(total);
        seam.rebalance_due()
    });
    let rollup = tr.time(Layer::Rollup, || delta.to_rollup());
    if due {
        let caps = tr.time(Layer::Arbitrate, || seam.rebalance(&rollup));
        tr.time(Layer::Retarget, || {
            for (node, cap) in nodes.iter_mut().zip(caps) {
                node.retarget(cap)
                    .expect("allocator output stays within platform bounds");
            }
        });
    }
    tr.time(Layer::Seam, || {
        seam.put_nodes(nodes);
        cluster.attach_engine(seam, Some(rollup));
    });
}

/// `run_sharded` with one worker per available CPU (`shards: 0`), or
/// inline; the count used is read back from `ScaleStats::shards`.
fn sharded(shape: &Shape) -> Engine {
    Engine::Sharded(ScaleConfig {
        shards: if shape.multi_shard { 0 } else { 1 },
        chunk_nodes: 32,
        epsilon: 0.0,
    })
}

fn decomposed(shape: &Shape) -> Engine {
    let interval = shape.config().control_interval;
    Engine::Decomposed(DeltaRollup::new(interval, 0.0))
}

/// Run a cluster workload per `opts`.
pub fn run(shape: Shape, opts: &Options) -> Report {
    if opts.trace {
        traced(shape, opts)
    } else {
        untraced(shape, opts)
    }
}

fn untraced(shape: Shape, opts: &Options) -> Report {
    let build = || Fleet::new(shape, opts.seed, sharded(&shape));
    let (mut setups, mut fleet) = crate::time_setups(build);
    let cfg = shape.config();

    let mut checks = Checks::default();
    let mut tr = Tracer::new(false);
    let mut sim = SimStats::default();
    let mut window_s = Vec::new();
    let mut ops = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let started = Instant::now();
    let mut w = 0u64;
    loop {
        let before = checks.attempted;
        let host_s = fleet.window(w, &mut tr, &mut checks);
        let measured = w >= shape.day_windows;
        let in_sim_range = measured && w < shape.min_windows;
        fleet.check(w, &mut checks, in_sim_range.then_some(&mut sim));
        if measured {
            window_s.push(host_s);
            ops.push((checks.attempted - before) as f64);
            if window_s.len().is_multiple_of(shape.block_windows as usize) {
                setups.extend(crate::time_setups(build).0);
            }
        }
        w += 1;
        if w == shape.min_windows {
            // Taken where every run has done the same work, so it does not
            // grow with how many windows the host fits in the budget.
            peak_rss_mb = crate::peak_rss_mb();
        }
        if w >= shape.min_windows
            && window_s.len().is_multiple_of(shape.block_windows as usize)
            && started.elapsed().as_secs_f64() >= opts.seconds
        {
            break;
        }
    }
    let host = Host::current(fleet.scale.shards);
    let mut r = Report::new(shape.name, opts.seed, false, host, checks);
    let len = shape.block_windows as usize;
    let ms: Vec<f64> = window_s.iter().map(|s| s * 1e3).collect();
    let timing = blocked(&ms, len);
    let core_s = vec![shape.core_seconds(&cfg); window_s.len()];
    r.metric(
        "sim_core_s_per_s",
        block_rate(&window_s, &core_s, len),
        "core-s/s",
    );
    r.metric("control_ops_per_s", block_rate(&window_s, &ops, len), "1/s");
    r.metric("window_ms.p50", timing.p50, "ms");
    r.detail("window_ms.tail", timing.tail, "ms");
    r.metric("setup_s", percentile(&setups, 50.0), "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("gips", mean(&sim.gips), "GIPS");
    r.detail(
        "cap_overshoot_p99_pct",
        percentile(&sim.overshoot_pct, 99.0),
        "%",
    );
    let failed = r.checks.failed as f64 / r.checks.attempted.max(1) as f64;
    r.detail("failed_ops_frac", failed, "frac");
    r.detail("windows", w as f64, "count");
    r.notes.push((
        "window_ms",
        format!(
            "p50 and p{} of each block of {len} windows, median over {} blocks",
            timing.tail_p, timing.blocks
        ),
    ));
    r.notes.push((
        "simulated_range",
        format!(
            "windows [{}, {}) of a {}-window day; peak_rss_mb at window {}",
            shape.day_windows, shape.min_windows, shape.day_windows, shape.min_windows
        ),
    ));
    r
}

/// One replay of the shape's `trace_windows` windows from a fresh fleet,
/// traced when `on`; returns the tracer, the host time of the windows
/// and the fleet.
fn replay(
    shape: Shape,
    opts: &Options,
    engine: Engine,
    on: bool,
    checks: &mut Checks,
) -> (Tracer, f64, Fleet) {
    let mut fleet = Fleet::new(shape, opts.seed, engine);
    let mut tr = Tracer::new(on);
    let mut wall = 0.0;
    for w in 0..shape.trace_windows {
        wall += fleet.window(w, &mut tr, checks);
        fleet.check(w, checks, None);
    }
    (tr, wall, fleet)
}

fn traced(shape: Shape, opts: &Options) -> Report {
    // An untraced reference run of `trace_windows` windows, then the
    // coarse and the decomposed replays of exactly those windows.
    let mut checks = Checks::default();
    let (_, untraced_wall, fleet) = replay(shape, opts, sharded(&shape), false, &mut checks);
    let reference = fleet.end_state();
    drop(fleet);

    let (coarse, coarse_wall, coarse_fleet) =
        replay(shape, opts, sharded(&shape), true, &mut checks);
    checks.check(coarse_fleet.end_state() == reference, || {
        "coarse traced replay diverged from the untraced run".into()
    });
    let memo = coarse_fleet.cluster.memo_stats();
    let scale = coarse_fleet.scale;
    let rejected = coarse_fleet.refused as f64 / coarse_fleet.admissions.max(1) as f64;
    drop(coarse_fleet);

    let (fine, fine_wall, fine_fleet) = replay(shape, opts, decomposed(&shape), true, &mut checks);
    checks.check(fine_fleet.end_state() == reference, || {
        "decomposed replay is not bit-identical to the untraced run".into()
    });
    drop(fine_fleet);

    let mut r = Report::new(
        shape.name,
        opts.seed,
        true,
        Host::current(scale.shards),
        checks,
    );
    // Churn and the engine call come from the coarse replay, the
    // engine's parts from the decomposed one.
    let coarse_layers = [
        Layer::LoadGenerate,
        Layer::DepartBatch,
        Layer::AdmitBatch,
        Layer::RunSharded,
    ];
    let fine_layers = [
        Layer::Seam,
        Layer::NodeAdvance,
        Layer::Rollup,
        Layer::Arbitrate,
        Layer::Retarget,
    ];
    let mut layers = crate::LayerView::default();
    for l in coarse_layers {
        layers.set(l, coarse.totals(l), coarse_wall);
    }
    for l in fine_layers {
        layers.set(l, fine.totals(l), fine_wall);
    }
    let run_sharded_s = coarse.totals(Layer::RunSharded).busy_s;
    let parts_s: f64 = [
        Layer::NodeAdvance,
        Layer::Rollup,
        Layer::Arbitrate,
        Layer::Retarget,
    ]
    .iter()
    .map(|&l| fine.totals(l).busy_s)
    .sum();
    let node_s = fine.totals(Layer::NodeAdvance).busy_s;
    let covered = fine.covered_s();
    // The decomposed parts run serially; on a multi-worker pool the
    // engine's own cost is what `run_sharded` takes beyond an even split
    // of them over its workers (load imbalance and epoch commits
    // included).
    let shards = scale.shards.max(1) as f64;
    let overhead_s = run_sharded_s - parts_s / shards;

    layers.memo_hit_frac = memo.map_or(0.0, |m| m.hit_rate());
    layers.admit_rejected_frac = rejected;
    let rows = scale.delta_updates + scale.delta_skips;
    layers.delta_skip_frac = scale.delta_skips as f64 / rows.max(1) as f64;
    layers.engine_overhead_frac = overhead_s / run_sharded_s;
    layers.parallel_efficiency = node_s / (run_sharded_s * shards);
    layers.overhead_frac = coarse_wall / untraced_wall - 1.0;
    layers.unattributed_frac = (fine_wall - covered) / fine_wall;
    layers.report(&mut r);
    r.detail("scale.engine_overhead_s", overhead_s, "s");
    r.detail("windows", shape.trace_windows as f64, "count");
    r.detail("trace.untraced_wall_s", untraced_wall, "s");
    r.detail("trace.coarse_wall_s", coarse_wall, "s");
    r.detail("trace.decomposed_wall_s", fine_wall, "s");

    if let Some(path) = &opts.spans_out {
        if let Err(e) =
            crate::trace::write_spans(path, &[("coarse", &coarse), ("decomposed", &fine)])
        {
            r.checks
                .fail(format!("writing spans to {}: {e}", path.display()));
        }
    }
    r
}
