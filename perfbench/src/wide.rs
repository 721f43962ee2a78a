//! The `wide-node` workload: one 1024-core `WideChip` hosting one
//! looping SPEC CPU2017 app per core under FastCap with online
//! translation. The host loop is written out here, so every layer it
//! calls is timed directly.

use std::time::Instant;

use pap_model::ModelConfig;
use pap_simcpu::freq::FreqGrid;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::sampler::{Sample, Sampler};
use pap_telemetry::stats::{jain, mean, percentile};
use pap_workloads::engine::{RunningApp, StepOutcome};
use pap_workloads::spec::spec2017;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority, TranslationKind};
use powerd::daemon::{ControlAction, Daemon};
use powerd::runner::standalone_freq;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{Checks, Host, Report};
use crate::stats::{block_rate, blocked};
use crate::trace::{Layer, Tracer};
use crate::{LayerView, Options, Size};

/// Simulator ticks per 1 s control interval, as in `ext_fastcap`.
const TICKS_PER_INTERVAL: usize = 100;
const TICK: Seconds = Seconds(0.01);
/// Package budget per core (W), as in `ext_fastcap`: the cap binds
/// mid-grid.
const LIMIT_W_PER_CORE: f64 = 3.8;

/// Size of the node and of the deterministic measurement range.
#[derive(Debug, Clone, Copy)]
struct Shape {
    cores: usize,
    /// Intervals before the simulated metrics and the timings start.
    warmup: u64,
    /// Intervals every untraced run completes; the simulated metrics
    /// cover `[warmup, min_intervals)`, so they repeat exactly per seed.
    min_intervals: u64,
    /// Intervals per timing block; the host-time metrics are medians
    /// over blocks.
    block: usize,
    /// Intervals the traced run replays, whatever the host's speed.
    trace_intervals: u64,
}

impl Shape {
    fn new(size: Size) -> Shape {
        match size {
            Size::Full => Shape {
                cores: 1024,
                warmup: 30,
                min_intervals: 30 + 1000,
                block: 1000,
                trace_intervals: 10_000,
            },
            Size::Tiny => Shape {
                cores: 16,
                warmup: 10,
                min_intervals: 40,
                block: 10,
                trace_intervals: 40,
            },
        }
    }
}

/// The node: chip, daemon, sampler and the apps, one per core.
struct WideNode {
    chip: WideChip,
    daemon: Daemon,
    sampler: Sampler,
    apps: Vec<RunningApp>,
    specs: Vec<AppSpec>,
    parked: Vec<bool>,
    outs: Vec<StepOutcome>,
    grid: FreqGrid,
    limit: Watts,
}

/// What one interval produced.
struct Interval {
    host_s: f64,
    step_s: f64,
    sample: Sample,
    action: ControlAction,
    steady_ticks: u64,
}

impl WideNode {
    fn new(cores: usize, seed: u64) -> WideNode {
        let spec = PlatformSpec::wide(cores);
        let limit = Watts(LIMIT_W_PER_CORE * cores as f64);
        let profiles = spec2017();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut picked = Vec::with_capacity(cores);
        let mut specs = Vec::with_capacity(cores);
        // A crossed mix: profile, priority and share level cycle together,
        // so every combination runs on a fixed share of the node and the
        // seed decides which core runs which. Independent draws per core
        // moved the node's aggregate demand, and so `gips`, by a few
        // percent from seed to seed, which a regression bound must exceed.
        let n = profiles.len();
        let mut mix: Vec<usize> = (0..cores).collect();
        mix.shuffle(&mut rng);
        for (core, &m) in mix.iter().enumerate() {
            let profile = profiles[m % n];
            let priority = if (m / n) % 2 == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let shares = 10 + (m / (2 * n) % 10) as u32 * 10;
            specs.push(
                AppSpec::new(format!("{}-{core}", profile.name), core)
                    .with_priority(priority)
                    .with_shares(shares)
                    .with_baseline_ips(profile.ips(standalone_freq(&spec, &profile))),
            );
            picked.push(profile);
        }
        let mut config = DaemonConfig::new(PolicyKind::FastCap, limit, specs.clone());
        config.translation = TranslationKind::Online;
        // `ext_fastcap`'s width scaling: the default deadband and model
        // thresholds are sized for a 10-core, 85 W part.
        let scale = (cores as f64 / 10.0).max(1.0);
        config.tuning.deadband_watts *= scale;
        let mut daemon = Daemon::new(config, &spec).expect("valid wide-node config");
        let mut model = ModelConfig::default();
        model.power.max_residual_watts *= scale;
        model.power.drift_floor_watts *= scale;
        daemon.set_model_config(model);

        let grid = spec.grid;
        let mut chip = WideChip::new(spec);
        let action = daemon.initial();
        actuate(&mut chip, &action);
        let sampler = Sampler::new(&chip);
        WideNode {
            chip,
            daemon,
            sampler,
            apps: picked.into_iter().map(RunningApp::looping).collect(),
            specs,
            parked: action.parked,
            outs: vec![
                StepOutcome {
                    instructions: 0,
                    load: pap_simcpu::power::LoadDescriptor::IDLE,
                    finished_run: false,
                };
                cores
            ],
            grid,
            limit,
        }
    }

    /// One control interval of the host loop.
    fn interval(&mut self, w: u64, tr: &mut Tracer) -> Interval {
        tr.set_window(w);
        let started = Instant::now();
        let mut steady_ticks = 0;
        let (chip, apps, outs, parked) =
            (&mut self.chip, &mut self.apps, &mut self.outs, &self.parked);
        for _ in 0..TICKS_PER_INTERVAL {
            tr.time(Layer::WorkloadsAdvance, || {
                for (core, (app, out)) in apps.iter_mut().zip(outs.iter_mut()).enumerate() {
                    if !parked[core] {
                        *out = app.advance(TICK, chip.effective_freq(core));
                    }
                }
            });
            tr.time(Layer::SetLoad, || {
                for (core, out) in outs.iter().enumerate() {
                    if !parked[core] {
                        chip.set_load(core, out.load).expect("core in range");
                        chip.add_instructions(core, out.instructions)
                            .expect("core in range");
                    }
                }
            });
            if tr.is_on() && chip.steady_tick(TICK) {
                steady_ticks += 1;
            }
            tr.time(Layer::Tick, || chip.tick(TICK));
        }
        let sampler = &mut self.sampler;
        let sample = tr.time(Layer::Sample, || {
            sampler.sample(chip).expect("a control interval elapsed")
        });
        let daemon = &mut self.daemon;
        let step_started = Instant::now();
        let action = tr.time(Layer::Step, || daemon.step(&sample));
        let step_s = step_started.elapsed().as_secs_f64();
        let parked = &mut self.parked;
        tr.time(Layer::Actuate, || {
            actuate(chip, &action);
            parked.copy_from_slice(&action.parked);
        });
        Interval {
            host_s: started.elapsed().as_secs_f64(),
            step_s,
            sample,
            action,
            steady_ticks,
        }
    }

    /// Output checks for one interval.
    fn check(&self, w: u64, iv: &Interval, checks: &mut Checks) {
        let n = self.apps.len();
        checks.attempted += 1;
        checks.check(
            iv.action.freqs.len() == n && iv.action.parked.len() == n,
            || format!("interval {w}: action covers the wrong number of cores"),
        );
        let off_grid = iv
            .action
            .freqs
            .iter()
            .filter(|f| !self.grid.contains(**f))
            .count();
        checks.check(off_grid == 0, || {
            format!("interval {w}: {off_grid} requested frequencies off the grid")
        });
        let p = iv.sample.package_power.value();
        let ips_ok = iv
            .sample
            .cores
            .iter()
            .all(|c| c.rates.ips.is_finite() && c.rates.ips >= 0.0);
        checks.check(p.is_finite() && p > 0.0 && ips_ok, || {
            format!("interval {w}: unhealthy sample (package {p} W)")
        });
    }

    /// Everything a replay of the same intervals must reproduce.
    fn end_state(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        (
            self.daemon
                .current_targets()
                .iter()
                .map(|f| f.khz())
                .collect(),
            self.parked.clone(),
            self.apps.iter().map(RunningApp::total_retired).collect(),
        )
    }
}

fn actuate(chip: &mut WideChip, action: &ControlAction) {
    chip.set_all_requested(&action.freqs)
        .expect("daemon emits grid-valid frequencies");
    for (core, &p) in action.parked.iter().enumerate() {
        chip.set_forced_idle(core, p).expect("core in range");
    }
}

/// Run the wide-node workload per `opts`.
pub fn run(opts: &Options) -> Report {
    let shape = Shape::new(opts.size);
    if opts.trace {
        traced(shape, opts)
    } else {
        untraced(shape, opts)
    }
}

fn untraced(shape: Shape, opts: &Options) -> Report {
    let build = || WideNode::new(shape.cores, opts.seed);
    let (mut setups, mut node) = crate::time_setups(build);

    let mut checks = Checks::default();
    let mut tr = Tracer::new(false);
    let mut window_s = Vec::new();
    let mut step_s = Vec::new();
    let mut gips = Vec::new();
    let mut overshoot = Vec::new();
    let mut ips_sum = vec![0.0; shape.cores];
    let mut peak_rss_mb = f64::NAN;
    let started = Instant::now();
    let mut w = 0u64;
    while w < shape.min_intervals
        || !window_s.len().is_multiple_of(shape.block)
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let iv = node.interval(w, &mut tr);
        node.check(w, &iv, &mut checks);
        if w >= shape.warmup {
            window_s.push(iv.host_s);
            step_s.push(iv.step_s);
            if window_s.len().is_multiple_of(shape.block) {
                setups.extend(crate::time_setups(build).0);
            }
            if w < shape.min_intervals {
                let cores = &iv.sample.cores;
                gips.push(cores.iter().map(|c| c.rates.ips).sum::<f64>() / 1e9);
                overshoot
                    .push((iv.sample.package_power.value() / node.limit.value() - 1.0) * 100.0);
                for (s, c) in ips_sum.iter_mut().zip(cores) {
                    *s += c.rates.ips;
                }
            }
        }
        w += 1;
        if w == shape.min_intervals {
            // Taken where every run has done the same work.
            peak_rss_mb = crate::peak_rss_mb();
        }
    }
    // Share-normalized progress: each app's mean IPS over its standalone
    // rate, per share.
    let normalized: Vec<f64> = ips_sum
        .iter()
        .zip(&node.specs)
        .map(|(s, a)| s / gips.len() as f64 / a.baseline_ips / f64::from(a.shares))
        .collect();

    let mut r = Report::new("wide-node", opts.seed, false, Host::current(0), checks);
    let ms: Vec<f64> = window_s.iter().map(|s| s * 1e3).collect();
    let us: Vec<f64> = step_s.iter().map(|s| s * 1e6).collect();
    let timing = blocked(&ms, shape.block);
    let step = blocked(&us, shape.block);
    let sim_s = TICK.value() * TICKS_PER_INTERVAL as f64;
    let core_s = vec![shape.cores as f64 * sim_s; window_s.len()];
    let ones = vec![1.0; window_s.len()];
    r.metric(
        "sim_core_s_per_s",
        block_rate(&window_s, &core_s, shape.block),
        "core-s/s",
    );
    r.metric(
        "control_ops_per_s",
        block_rate(&window_s, &ones, shape.block),
        "1/s",
    );
    r.metric("window_ms.p50", timing.p50, "ms");
    r.detail("window_ms.tail", timing.tail, "ms");
    r.metric("setup_s", percentile(&setups, 50.0), "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("gips", mean(&gips), "GIPS");
    r.detail("control_step_us.p50", step.p50, "us");
    r.detail("control_step_us.tail", step.tail, "us");
    r.detail("cap_overshoot_p99_pct", percentile(&overshoot, 99.0), "%");
    r.detail("share_jain", jain(&normalized), "frac");
    let failed = r.checks.failed as f64 / r.checks.attempted.max(1) as f64;
    r.detail("failed_ops_frac", failed, "frac");
    r.detail("windows", w as f64, "count");
    r.notes.push((
        "window_ms, control_step_us",
        format!(
            "p50 and p{} of each block of {} intervals, median over {} blocks",
            timing.tail_p, shape.block, timing.blocks
        ),
    ));
    r.notes.push((
        "simulated_range",
        format!(
            "intervals [{}, {}); peak_rss_mb at interval {}",
            shape.warmup, shape.min_intervals, shape.min_intervals
        ),
    ));
    r
}

fn traced(shape: Shape, opts: &Options) -> Report {
    // An untraced reference run of `trace_intervals` intervals; the
    // traced replay repeats exactly those and must end in the same state.
    let mut checks = Checks::default();
    let mut node = WideNode::new(shape.cores, opts.seed);
    let mut off = Tracer::new(false);
    let windows = shape.trace_intervals;
    let mut untraced_wall = 0.0;
    for w in 0..windows {
        let iv = node.interval(w, &mut off);
        node.check(w, &iv, &mut checks);
        untraced_wall += iv.host_s;
    }
    let reference = node.end_state();
    drop(node);

    let mut node = WideNode::new(shape.cores, opts.seed);
    let mut tr = Tracer::new(true);
    let mut wall = 0.0;
    let mut steady = 0u64;
    let mut confident = 0u64;
    for w in 0..windows {
        let iv = node.interval(w, &mut tr);
        node.check(w, &iv, &mut checks);
        wall += iv.host_s;
        steady += iv.steady_ticks;
        if w >= shape.warmup && node.daemon.model_confident() {
            confident += 1;
        }
    }
    checks.check(node.end_state() == reference, || {
        "traced replay diverged from the untraced run".into()
    });

    let mut r = Report::new("wide-node", opts.seed, true, Host::current(0), checks);
    let mut layers = LayerView::default();
    for l in [
        Layer::WorkloadsAdvance,
        Layer::SetLoad,
        Layer::Tick,
        Layer::Sample,
        Layer::Step,
        Layer::Actuate,
    ] {
        layers.set(l, tr.totals(l), wall);
    }
    layers.steady_frac = steady as f64 / (windows as f64 * TICKS_PER_INTERVAL as f64);
    layers.confident_frac = confident as f64 / windows.saturating_sub(shape.warmup).max(1) as f64;
    layers.memo_hit_frac = node.daemon.memo_stats().map_or(0.0, |m| m.hit_rate());
    layers.overhead_frac = wall / untraced_wall - 1.0;
    layers.unattributed_frac = (wall - tr.covered_s()) / wall;
    layers.report(&mut r);
    r.detail("windows", windows as f64, "count");
    r.detail("trace.untraced_wall_s", untraced_wall, "s");
    r.detail("trace.traced_wall_s", wall, "s");

    if let Some(path) = &opts.spans_out {
        if let Err(e) = crate::trace::write_spans(path, &[("traced", &tr)]) {
            r.checks
                .fail(format!("writing spans to {}: {e}", path.display()));
        }
    }
    r
}
