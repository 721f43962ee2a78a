//! Extension: the fleet fast path — WideChip-backed nodes, end to end
//! (DESIGN.md §16).
//!
//! Replays the same seeded churn-heavy diurnal day at 1024 nodes through
//! two stacks, both on the sharded `pap-scale` engine:
//!
//! * **baseline** — scalar per-core `Chip` nodes: what the fleet paid
//!   before this fast path landed;
//! * **widechip** — batch-stepped `WideChip` nodes: the shipping
//!   configuration.
//!
//! Unlike `ext_cluster_scale` (which pins one sim tick per control
//! interval to isolate the control plane), this bench runs a realistic
//! tick-to-interval ratio so the measured speedup is the *end-to-end*
//! arbiter + simulation cost per control window.
//!
//! The baseline replays once and the widechip stack [`REPLAYS`] times,
//! so one slow replay on a busy host moves no gate: the report gives
//! the median replay's wall time.
//!
//! Exits non-zero if (a) any widechip replay diverges from the baseline
//! in any checked bit — energy to the bit, node caps, per-app reports,
//! free cores — or (b) the median widechip replay's wall time is above
//! 1/6 of the baseline's (a speedup below 6x). Steps/sec land in
//! `results/BENCH_fleet.json` for CI, with the host's available
//! parallelism and the shard workers `run_sharded` used.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use clusterd::cluster::AppReport;
use clusterd::{Cluster, ClusterConfig};
use pap_bench::{f1, Table};
use pap_scale::{run_sharded, ChurnLoad, ScaleConfig};
use pap_simcpu::chip::Chip;
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_tenants::arrival::ArrivalTrace;
use powerd::config::PolicyKind;

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

const NODES: usize = 1024;
const SEED: u64 = 1009;
const MEAN_LOAD: f64 = 0.25;
const SWING: f64 = 0.15;
/// Tenants replaced per window on top of the diurnal target (oldest
/// first), so placement and daemon reconfiguration stay hot all day.
const TURNOVER: usize = 32;
/// Sim ticks per control interval: a 1 s control loop over a 2 ms
/// telemetry tick. (The cluster default is 1 ms — 1000 ticks — which
/// would only flatter the WideChip side; 500 is conservative.)
const TICKS_PER_INTERVAL: u64 = 500;
/// Cluster-level cap rebalances every N node control intervals.
const REBALANCE_EVERY: u64 = 8;
/// Required end-to-end speedup of the widechip stack over the
/// scalar-`Chip` baseline.
const SPEEDUP_GATE: f64 = 6.0;
/// Timed replays of the widechip stack (odd, so the median is one
/// replay's).
const REPLAYS: usize = 5;

/// End state + wall time of one replay. Everything the two stacks must
/// agree on bit-for-bit.
struct Outcome {
    label: &'static str,
    wall_secs: f64,
    intervals: u64,
    energy_bits: u64,
    caps: Vec<Watts>,
    reports: Vec<AppReport>,
    free_cores: usize,
    /// Node control steps executed (nodes x windows).
    steps: u64,
    /// Most shard workers any `run_sharded` call used.
    shards: usize,
}

impl Outcome {
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
    cfg.tick = Seconds(cfg.control_interval.value() / TICKS_PER_INTERVAL as f64);
    cfg.rebalance_every = REBALANCE_EVERY;
    cfg
}

/// Replay `windows` control windows of the seeded churn-heavy diurnal
/// day on a fresh cluster over chip backend `C`.
fn replay<C: ChipLike + Send>(label: &'static str, nodes: usize, windows: u64) -> Outcome {
    let cfg = config(nodes);
    let interval = cfg.control_interval;
    let mut cluster: Cluster<C> = Cluster::with_backend(cfg).expect("budget funds the node floors");
    let capacity = nodes * cluster.config().platform.num_cores;
    let period = Seconds(windows as f64 * interval.value());
    let trace = ArrivalTrace::diurnal(MEAN_LOAD, SWING, period);
    // Churn-heavy: beyond the diurnal ramp, `TURNOVER` tenants are
    // replaced every window even when the target population is flat.
    let mut load = ChurnLoad::new(trace, SEED, capacity, TURNOVER);
    let scale = ScaleConfig {
        shards: 0,
        chunk_nodes: 32,
        epsilon: 0.0,
    };

    let mut shards = 0;
    let started = Instant::now();
    for w in 0..windows {
        let batch = load.next_batch(Seconds(w as f64 * interval.value()));
        for r in cluster.depart_batch(&batch.departures) {
            r.expect("departing app is placed");
        }
        let admitted: Vec<bool> = cluster
            .admit_batch(&batch.arrivals)
            .iter()
            .map(Result::is_ok)
            .collect();
        load.commit(&batch, &admitted);
        shards = shards.max(run_sharded(&mut cluster, 1, &scale).shards);
    }
    let wall_secs = started.elapsed().as_secs_f64();

    Outcome {
        label,
        wall_secs,
        intervals: cluster.intervals_run(),
        energy_bits: cluster.energy_j().to_bits(),
        caps: cluster.node_caps(),
        reports: cluster.reports(),
        free_cores: cluster.free_cores(),
        steps: nodes as u64 * windows,
        shards,
    }
}

/// Every replay of one stack, in the order they ran.
struct Stack {
    runs: Vec<Outcome>,
}

impl Stack {
    fn label(&self) -> &'static str {
        self.runs[0].label
    }

    /// The median replay's wall time.
    fn wall_secs(&self) -> f64 {
        let mut walls: Vec<f64> = self.runs.iter().map(|o| o.wall_secs).collect();
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    }

    fn steps_per_sec(&self) -> f64 {
        self.runs[0].steps as f64 / self.wall_secs()
    }

    /// Whether every replay agrees with `baseline` in every checked bit.
    fn agrees_with(&self, baseline: &Outcome) -> bool {
        self.runs.iter().all(|o| o.agrees_with(baseline))
    }
}

fn json_report(stacks: &[Stack], windows: u64, speedup: f64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = stacks
        .iter()
        .flat_map(|s| &s.runs)
        .map(|o| o.shards)
        .max()
        .unwrap_or(0);
    let baseline = &stacks[0].runs[0];
    let mut s = String::from("{\n  \"bench\": \"fleet\",\n");
    let _ = writeln!(
        s,
        "  \"nodes\": {NODES},\n  \"windows\": {windows},\n  \"seed\": {SEED},\n  \
         \"host\": {{\"available_parallelism\": {parallelism}, \"shards\": {shards}}},\n  \
         \"ticks_per_interval\": {TICKS_PER_INTERVAL},\n  \"speedup\": {speedup:.2},\n  \
         \"stacks\": ["
    );
    for (i, stack) in stacks.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"stack\": \"{}\", \"replays\": {}, \"wall_s\": {:.4}, \"steps_per_s\": {:.0}, \
             \"identical_to_baseline\": {}}}{}",
            stack.label(),
            stack.runs.len(),
            stack.wall_secs(),
            stack.steps_per_sec(),
            stack.agrees_with(baseline),
            if i + 1 == stacks.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let mut windows = 48u64;
    let mut out_path = String::from("results/BENCH_fleet.json");
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

    let baseline = replay::<Chip>("baseline_chip", NODES, windows);
    let wide_runs = (0..REPLAYS)
        .map(|_| replay::<WideChip>("widechip", NODES, windows))
        .collect();
    let stacks = [
        Stack {
            runs: vec![baseline],
        },
        Stack { runs: wide_runs },
    ];
    let baseline = &stacks[0].runs[0];
    let speedup = baseline.wall_secs / stacks[1].wall_secs();

    let mut t = Table::new(
        format!(
            "Fleet fast path ({NODES} nodes, {windows} churn-heavy windows; \
             median wall of {REPLAYS} widechip replays)"
        ),
        &["stack", "identical", "wall_s", "ksteps/s", "vs_baseline"],
    );
    for stack in &stacks {
        t.row(vec![
            stack.label().to_string(),
            if stack.agrees_with(baseline) {
                "yes".into()
            } else {
                "NO".into()
            },
            f2(stack.wall_secs()),
            f1(stack.steps_per_sec() / 1e3),
            f2(baseline.wall_secs / stack.wall_secs()),
        ]);
    }
    println!("{t}");

    let mut failures = Vec::new();
    if !stacks[1].agrees_with(baseline) {
        failures.push("widechip: a replay diverged from the scalar-Chip baseline".to_string());
    }
    if speedup < SPEEDUP_GATE {
        failures.push(format!(
            "widechip stack is {speedup:.2}x the baseline end-to-end (gate: >= {SPEEDUP_GATE}x)"
        ));
    }

    let json = json_report(&stacks, windows, speedup);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        println!(
            "PASS: every widechip replay bit-identical to the baseline, {speedup:.1}x \
             end-to-end at {NODES} nodes."
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
