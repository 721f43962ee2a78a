//! The repository benchmark: three closed-loop workloads driven through
//! the crates' public calls, with end-to-end metrics from an untraced run
//! and per-layer attribution from a separate traced run.
//!
//! * `fleet-churn` — 1024 Skylake nodes, 500 sim ticks per control
//!   interval, one `run_sharded` call per window on a multi-worker shard
//!   pool: node simulation dominates.
//! * `arbiter-churn` — 256 nodes at one tick per interval with a
//!   node-count turnover per window, `run_sharded` inline: admission,
//!   rollup and arbitration dominate.
//! * `wide-node` — one 1024-core `WideChip` under FastCap, its host loop
//!   written out here: workload advance, chip ticks and the daemon step.
//!
//! Nothing inside the program is instrumented. Spans are recorded around
//! the calls this crate makes, so a layer is as fine as the public API
//! that reaches it.
//!
//! Host-time metrics are medians over fixed blocks of windows, and the
//! simulated ones cover a fixed window range, so the simulated metrics
//! repeat exactly per seed whatever the host's speed.

pub mod cluster;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wide;

use report::Report;
use trace::{Layer, LayerTotals};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fleet-churn", "arbiter-churn", "wide-node"];

/// End-to-end metrics every untraced run prints, with their units.
/// `window_ms.tail` goes to the record only: on a shared host its
/// run-to-run spread is too wide to gate on.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_core_s_per_s", "core-s/s"),
    ("control_ops_per_s", "1/s"),
    ("window_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gips", "GIPS"),
];

/// Per-layer ratios every traced run prints after the layers' `share`
/// and `calls`, with their units.
pub const RATIOS: [(&str, &str); 9] = [
    ("simcpu.tick.steady_frac", "frac"),
    ("model.confident_frac", "frac"),
    ("powerd.memo.hit_frac", "frac"),
    ("clusterd.admit.rejected_frac", "frac"),
    ("scale.delta_skip_frac", "frac"),
    ("scale.engine_overhead_frac", "frac"),
    ("scale.parallel_efficiency", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Every per-layer metric a traced run prints, with its unit: each
/// layer's share of its replay's wall time and its call count, then the
/// [`RATIOS`]. Times per layer (`busy_s`, `mean_us`) go to the record
/// only, since a layer a workload never calls would read 0 s every run.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for l in Layer::ALL {
        out.push((format!("{}.share", l.name()), "frac"));
        out.push((format!("{}.calls", l.name()), "count"));
    }
    out.extend(RATIOS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// A traced run's per-layer view: each layer's totals with the wall
/// time of the replay they were measured in, plus the ratios.
#[derive(Debug, Clone, Default)]
pub struct LayerView {
    layers: [Option<(LayerTotals, f64)>; Layer::ALL.len()],
    /// Share of chip ticks taken with `WideChip::steady_tick` holding.
    pub steady_frac: f64,
    /// Share of post-warmup intervals with a confident power model.
    pub confident_frac: f64,
    /// Daemon decision-memo hit rate.
    pub memo_hit_frac: f64,
    /// Refused admissions over admissions attempted.
    pub admit_rejected_frac: f64,
    /// Telemetry rows the delta rollup skipped.
    pub delta_skip_frac: f64,
    /// Share of `run_sharded` time beyond its decomposed parts split
    /// evenly over the shard workers.
    pub engine_overhead_frac: f64,
    /// Serial node time over `run_sharded` time × shard workers.
    pub parallel_efficiency: f64,
    /// Traced wall over untraced wall for the same windows, minus one.
    pub overhead_frac: f64,
    /// Share of the traced wall no layer's span covers.
    pub unattributed_frac: f64,
}

impl LayerView {
    /// Record `layer`'s totals, measured in a replay of `wall` seconds.
    pub fn set(&mut self, layer: Layer, totals: LayerTotals, wall: f64) {
        self.layers[layer_index(layer)] = Some((totals, wall));
    }

    /// Push the per-layer metrics into `r`, in [`per_layer_metrics`]
    /// order, with busy time and mean per call in the record.
    pub fn report(&self, r: &mut Report) {
        for (l, slot) in Layer::ALL.iter().zip(&self.layers) {
            let (t, wall) = slot.unwrap_or_default();
            let share = if wall > 0.0 { t.busy_s / wall } else { 0.0 };
            r.metric(format!("{}.share", l.name()), share, "frac");
            r.metric(format!("{}.calls", l.name()), t.calls as f64, "count");
            r.detail(format!("{}.busy_s", l.name()), t.busy_s, "s");
            let mean_us = t.busy_s * 1e6 / t.calls.max(1) as f64;
            r.detail(format!("{}.mean_us", l.name()), mean_us, "us");
        }
        let values = [
            self.steady_frac,
            self.confident_frac,
            self.memo_hit_frac,
            self.admit_rejected_frac,
            self.delta_skip_frac,
            self.engine_overhead_frac,
            self.parallel_efficiency,
            self.overhead_frac,
            self.unattributed_frac,
        ];
        for ((name, unit), v) in RATIOS.iter().zip(values) {
            r.metric(*name, v, unit);
        }
    }
}

/// Index of `layer` in [`Layer::ALL`].
pub fn layer_index(layer: Layer) -> usize {
    Layer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is listed")
}

/// How large a run is. `Full` is the benchmark; `Tiny` is the self-test
/// size (8 nodes, 16 cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workload sizes.
    Full,
    /// A few nodes or cores and a short run, for the self-test.
    Tiny,
}

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Where a traced run writes its spans, if anywhere.
    pub spans_out: Option<std::path::PathBuf>,
}

/// Run one workload and return its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "fleet-churn" => Ok(cluster::run(cluster::Shape::fleet(opts.size), opts)),
        "arbiter-churn" => Ok(cluster::run(cluster::Shape::arbiter(opts.size), opts)),
        "wide-node" => Ok(wide::run(opts)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Set-ups timed before a run and again after every timing block;
/// `setup_s` is the median of them all, so like the window metrics it
/// spans the whole run. A fixed count at fixed points keeps the
/// allocation history, and so the peak RSS, the same in every run.
const SETUP_REPS: usize = 8;

/// Time `build` [`SETUP_REPS`] times; returns the times and the last
/// fixture.
pub fn time_setups<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs this process may run on (`nproc`): the size of
/// `Cpus_allowed_list` in `/proc/self/status`, or
/// [`available_parallelism`] where the kernel does not report it.
pub fn allowed_cpus() -> usize {
    proc_status("Cpus_allowed_list")
        .and_then(|list| {
            list.split(',')
                .map(|r| match r.split_once('-') {
                    Some((lo, hi)) => {
                        Some(hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?)
                    }
                    None => r.parse::<usize>().ok().map(|_| 1),
                })
                .sum::<Option<usize>>()
        })
        .unwrap_or_else(available_parallelism)
}

/// Peak resident set size of this process so far, in MB: `VmHWM` from
/// `/proc/self/status`, which starts afresh at exec (`getrusage` would
/// carry over the peak of the process that launched this one). NaN where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The trimmed value of `field` in `/proc/self/status`.
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == field).then(|| v.trim().to_string())
    })
}
