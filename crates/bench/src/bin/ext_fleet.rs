//! Extension: the fleet fast path — WideChip-backed nodes plus decision
//! memoization, end to end (DESIGN.md §16).
//!
//! Replays the same seeded churn-heavy diurnal day at 1024 nodes through
//! three stacks, all on the sharded `pap-scale` engine:
//!
//! * **baseline** — scalar per-core `Chip` nodes, memoization off: what
//!   the fleet paid before this fast path landed;
//! * **widechip** — batch-stepped `WideChip` nodes, memoization off:
//!   the simulator half of the win in isolation;
//! * **fleet** — `WideChip` nodes with exact (ε = 0) decision
//!   memoization: the shipping configuration.
//!
//! Unlike `ext_cluster_scale` (which pins one sim tick per control
//! interval to isolate the control plane), this bench runs a realistic
//! tick-to-interval ratio so the measured speedup is the *end-to-end*
//! arbiter + simulation cost per control window.
//!
//! The baseline replays once. The widechip and fleet stacks replay in
//! [`PAIRS`] pairs that flip which stack goes first, so a host slowdown
//! during one replay moves one pair, not the comparison: the report
//! gives each stack's median wall time and the min, median and max of
//! the per-pair fleet-over-widechip wall ratio.
//!
//! Exits non-zero if (a) any replay of any stack diverges from the
//! baseline in any checked bit — energy to the bit, node caps, per-app
//! reports, free cores — or (b) the fleet stack's median wall time is
//! above 1/6 of the baseline's (a speedup below 6x). Memo hit rate and
//! steps/sec land in `results/BENCH_fleet.json` for CI, with the host's
//! available parallelism and the shard workers `run_sharded` used.

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
use powerd::config::{MemoMode, PolicyKind};
use powerd::memo::MemoStats;

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
/// Cluster-level cap rebalances every N node control intervals; between
/// rebalances a settled node's inputs are bit-stable and the memo can
/// replay.
const REBALANCE_EVERY: u64 = 8;
/// Required end-to-end speedup of the fleet stack over the scalar-`Chip`
/// baseline.
const SPEEDUP_GATE: f64 = 6.0;
/// Order-alternated timing pairs of the widechip and fleet stacks (odd,
/// so each median is one replay's or one pair's).
const PAIRS: usize = 5;

/// End state + wall time of one replay. Everything the three stacks
/// must agree on bit-for-bit.
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
    memo: Option<MemoStats>,
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

fn config(nodes: usize, memo: MemoMode) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        nodes,
        PolicyKind::FrequencyShares,
        Watts(60.0 * nodes as f64),
    );
    cfg.tick = Seconds(cfg.control_interval.value() / TICKS_PER_INTERVAL as f64);
    cfg.rebalance_every = REBALANCE_EVERY;
    cfg.memo = memo;
    cfg
}

/// Replay `windows` control windows of the seeded churn-heavy diurnal
/// day on a fresh cluster over chip backend `C`.
fn replay<C: ChipLike + Send>(
    label: &'static str,
    nodes: usize,
    windows: u64,
    memo: MemoMode,
) -> Outcome {
    let cfg = config(nodes, memo);
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
        memo: cluster.memo_stats(),
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

    fn memo(&self) -> Option<MemoStats> {
        self.runs[0].memo
    }
}

/// Min, median and max of the per-pair wall ratio `a / b`.
fn pair_ratios(a: &Stack, b: &Stack) -> (f64, f64, f64) {
    let mut ratios: Vec<f64> = a
        .runs
        .iter()
        .zip(&b.runs)
        .map(|(a, b)| a.wall_secs / b.wall_secs)
        .collect();
    ratios.sort_by(f64::total_cmp);
    (
        ratios[0],
        ratios[ratios.len() / 2],
        ratios[ratios.len() - 1],
    )
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
    let (min, median, max) = pair_ratios(&stacks[2], &stacks[1]);
    let mut s = String::from("{\n  \"bench\": \"fleet\",\n");
    let _ = writeln!(
        s,
        "  \"nodes\": {NODES},\n  \"windows\": {windows},\n  \"seed\": {SEED},\n  \
         \"host\": {{\"available_parallelism\": {parallelism}, \"shards\": {shards}}},\n  \
         \"ticks_per_interval\": {TICKS_PER_INTERVAL},\n  \"timing_pairs\": {PAIRS},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"fleet_over_widechip\": {median:.3}, \"fleet_over_widechip_min\": {min:.3}, \
         \"fleet_over_widechip_max\": {max:.3},\n  \"stacks\": ["
    );
    for (i, stack) in stacks.iter().enumerate() {
        let (hits, misses, rate) = stack
            .memo()
            .map_or((0, 0, 0.0), |m| (m.hits, m.misses, m.hit_rate()));
        let _ = writeln!(
            s,
            "    {{\"stack\": \"{}\", \"replays\": {}, \"wall_s\": {:.4}, \"steps_per_s\": {:.0}, \
             \"memo_hits\": {hits}, \"memo_misses\": {misses}, \"memo_hit_rate\": {rate:.4}, \
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

    let baseline = replay::<Chip>("baseline_chip", NODES, windows, MemoMode::Off);
    let widechip = || replay::<WideChip>("widechip", NODES, windows, MemoMode::Off);
    let fleet = || replay::<WideChip>("fleet_memo", NODES, windows, MemoMode::exact());
    let (mut wide_runs, mut fleet_runs) = (Vec::new(), Vec::new());
    for k in 0..PAIRS {
        if k % 2 == 0 {
            wide_runs.push(widechip());
            fleet_runs.push(fleet());
        } else {
            fleet_runs.push(fleet());
            wide_runs.push(widechip());
        }
    }
    let stacks = [
        Stack {
            runs: vec![baseline],
        },
        Stack { runs: wide_runs },
        Stack { runs: fleet_runs },
    ];
    let baseline = &stacks[0].runs[0];
    let speedup = baseline.wall_secs / stacks[2].wall_secs();

    let mut t = Table::new(
        format!(
            "Fleet fast path ({NODES} nodes, {windows} churn-heavy windows; \
             median wall of {PAIRS} alternated pairs for the fast stacks)"
        ),
        &[
            "stack",
            "identical",
            "wall_s",
            "ksteps/s",
            "vs_baseline",
            "memo_hit_rate",
        ],
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
            stack
                .memo()
                .map_or("-".into(), |m| format!("{:.1}%", m.hit_rate() * 100.0)),
        ]);
    }
    println!("{t}");
    let (min, median, max) = pair_ratios(&stacks[2], &stacks[1]);
    println!(
        "fleet_memo over widechip wall time: median {median:.3} of {PAIRS} pairs \
         (range {min:.3}–{max:.3})"
    );

    let mut failures = Vec::new();
    for stack in &stacks[1..] {
        if !stack.agrees_with(baseline) {
            failures.push(format!(
                "{}: a replay diverged from the scalar-Chip baseline at epsilon = 0",
                stack.label()
            ));
        }
    }
    if speedup < SPEEDUP_GATE {
        failures.push(format!(
            "fleet stack is {speedup:.2}x the baseline end-to-end (gate: >= {SPEEDUP_GATE}x)"
        ));
    }

    let json = json_report(&stacks, windows, speedup);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        let memo = stacks[2].memo().expect("fleet stack memoizes");
        println!(
            "PASS: every replay of every stack bit-identical, {speedup:.1}x end-to-end at \
             {NODES} nodes, memo hit rate {:.1}%.",
            memo.hit_rate() * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
