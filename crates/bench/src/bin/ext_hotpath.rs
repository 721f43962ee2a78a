//! Extension: hot-path memory discipline bench (DESIGN.md §11).
//!
//! Installs a counting global allocator and drives every policy's
//! steady-state control loop (observer detached, naive and online
//! translation) through `Daemon::step_view`, proving **zero heap
//! allocations per step** and measuring steps/sec for both the borrowed
//! view path and the owning `step()` path.
//!
//! Exits non-zero if any scenario allocates in steady state, or if the
//! zero-alloc view path is more than 10 % slower than the allocating
//! owned path (the view path exists to be faster; falling behind the
//! baseline it replaces is a regression). Results land in
//! `results/BENCH_hotpath.json` for CI to archive.
//!
//! Every timed comparison runs as [`PAIRS`] alternated pairs that flip
//! which side goes first, and gates on the median of the per-pair
//! ratios, so a host slowdown during one trial cannot fail a gate; the
//! report keeps each side's best-trial throughput, the min, median and
//! max of every per-pair ratio, and the host's available parallelism.
//!
//! A second section sweeps the batch-stepped [`WideChip`] simulator
//! against the per-core-struct [`Chip`] at 128/512/1024 cores under an
//! identical closed-loop drive (periodic retargeting, mixed loads,
//! RAPL enforcement), checks the two stay bit-identical, and gates the
//! ≥4× tick-throughput speedup at 1024 cores that justifies keeping a
//! second simulator core (DESIGN.md §15).
//!
//! A third section times the steady-replay kernel that sweep never
//! reaches (a RAPL limit disables deferral): on a settled 1024-core
//! `WideChip` with no limit and mixed loads in every idle state, 1000
//! `tick` calls plus the `rapl_mut` that settles them run against one
//! `run_ticks(1000)`. Both must match `Chip::run_ticks(1000)` to the bit
//! (RAPL running average included), and the per-tick side may cost at
//! most 2× the batch: a steady `tick` only counts itself, and the
//! settle folds the counted ticks through the batch's own replay
//! (DESIGN.md §15.3, §16.2).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pap_alloccount::{AllocCounter, CountingAlloc};
use pap_bench::synth::{policy_scenarios, synth_sample};
use pap_bench::{f1, Table};
use pap_model::TranslationKind;
use pap_simcpu::chip::Chip;
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters as SimCounters;
use pap_simcpu::cstate::CState;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::sampler::Sample;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind};
use powerd::daemon::Daemon;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps to run before measuring (fills scratch capacities and the
/// online model's observation windows).
const WARMUP: usize = 300;
/// Distinct pre-synthesized telemetry samples cycled during the run.
const SAMPLE_CYCLE: usize = 512;
/// Alternated timing pairs per gated comparison (odd, so the median is
/// one pair's ratio).
const PAIRS: usize = 9;

/// Two sides of a comparison timed in alternated pairs.
struct Paired {
    /// Fastest trial of each side (`a`, `b`), in seconds.
    best: (f64, f64),
    /// `b`'s seconds over `a`'s in each pair: how many times faster `a`
    /// ran.
    ratio: Spread,
}

/// Min, median and max of a per-pair ratio over the [`PAIRS`] pairs.
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    /// The report fields: the median under `key`, the extremes under
    /// `key_min` and `key_max`.
    fn json(&self, key: &str) -> String {
        format!(
            "\"{key}\": {:.3}, \"{key}_min\": {:.3}, \"{key}_max\": {:.3}",
            self.median, self.min, self.max
        )
    }

    /// `min–max`, for the tables.
    fn range(&self) -> String {
        format!("{:.2}–{:.2}", self.min, self.max)
    }
}

/// Time `a` against `b` in [`PAIRS`] pairs, flipping which side runs
/// first each pair. Each closure runs one trial and returns the seconds
/// it timed.
fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    let mut best = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(PAIRS);
    for k in 0..PAIRS {
        let (ta, tb) = if k % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        best = (best.0.min(ta), best.1.min(tb));
        ratios.push(tb / ta);
    }
    ratios.sort_by(f64::total_cmp);
    Paired {
        best,
        ratio: Spread {
            min: ratios[0],
            median: ratios[PAIRS / 2],
            max: ratios[PAIRS - 1],
        },
    }
}

struct ScenarioResult {
    name: String,
    policy: &'static str,
    translation: &'static str,
    steps: usize,
    alloc_events: u64,
    alloc_bytes: u64,
    steps_per_sec_view: f64,
    steps_per_sec_owned: f64,
    /// Per-pair ratio of view-path to owned-path throughput.
    view_vs_owned: Spread,
}

fn make_daemon(
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: &[AppSpec],
    translation: TranslationKind,
    limit: Watts,
) -> Daemon {
    let mut config = DaemonConfig::new(policy, limit, apps.to_vec());
    config.translation = translation;
    Daemon::new(config, platform).expect("valid bench config")
}

/// Run one scenario: warm up two daemons on the same telemetry, then
/// time the zero-alloc view path against the owning path in alternated
/// pairs. Allocation counting spans every view-path trial and only those.
fn run_scenario(
    name: &str,
    policy: PolicyKind,
    platform: &PlatformSpec,
    apps: &[AppSpec],
    translation: TranslationKind,
    steps: usize,
) -> ScenarioResult {
    let limit = Watts(45.0);
    let samples: Vec<Sample> = (0..SAMPLE_CYCLE)
        .map(|i| synth_sample(i, platform, apps, limit))
        .collect();

    // View path: steady-state allocation count plus throughput. Owned
    // path: identical telemetry, its own daemon, `step()` clones the
    // action out of the arena every interval.
    let mut view = make_daemon(policy, platform, apps, translation, limit);
    let mut owned = make_daemon(policy, platform, apps, translation, limit);
    view.initial();
    owned.initial();
    for i in 0..WARMUP {
        view.step_view(&samples[i % SAMPLE_CYCLE]);
        owned.step(&samples[i % SAMPLE_CYCLE]);
    }
    let (mut alloc_events, mut alloc_bytes) = (0, 0);
    let timing = paired(
        || {
            let before = AllocCounter::snapshot();
            let started = Instant::now();
            for i in 0..steps {
                view.step_view(&samples[(WARMUP + i) % SAMPLE_CYCLE]);
            }
            let secs = started.elapsed().as_secs_f64();
            let after = AllocCounter::snapshot();
            alloc_events += after.events_since(&before);
            alloc_bytes += after.bytes_since(&before);
            secs
        },
        || {
            let started = Instant::now();
            for i in 0..steps {
                owned.step(&samples[(WARMUP + i) % SAMPLE_CYCLE]);
            }
            started.elapsed().as_secs_f64()
        },
    );

    ScenarioResult {
        name: name.to_string(),
        policy: policy_label(policy),
        translation: match translation {
            TranslationKind::Naive => "naive",
            TranslationKind::Online => "online",
        },
        steps,
        alloc_events,
        alloc_bytes,
        steps_per_sec_view: steps as f64 / timing.best.0,
        steps_per_sec_owned: steps as f64 / timing.best.1,
        view_vs_owned: timing.ratio,
    }
}

/// Core counts for the wide-chip sweep; the last is the gated width.
const WIDE_CORES: [usize; 3] = [128, 512, 1024];
/// Required `WideChip`-vs-`Chip` tick-throughput ratio at the widest
/// descriptor — the bar the batch-stepped simulator must clear to earn
/// its keep as a second implementation.
const WIDE_SPEEDUP_GATE: f64 = 4.0;
/// Simulator tick used by the sweep.
const WIDE_DT: Seconds = Seconds(0.001);
/// Ticks between frequency retargets, mimicking a 1 s control interval
/// over a ~128 ms cadence so the memoized power path sees real
/// movement instead of pure steady state.
const WIDE_RETARGET_EVERY: usize = 128;
/// Untimed ticks that fill caches and settle the RAPL controller.
const WIDE_WARMUP_TICKS: usize = 256;
/// Fewest ticks one trial of the sweep times. It binds at the gated
/// width only: at 1950 ticks a trial there, single pairs read 3.07–12.5×
/// on a 2-vCPU host and the median of nine 4.03–4.93×.
const WIDE_MIN_TICKS: usize = 3900;

/// Everything that must come out bit-identical from the two simulator
/// cores after an identical drive.
type WideFingerprint = (u32, u32, Vec<SimCounters>, Vec<u64>);

struct WideResult {
    cores: usize,
    ticks: usize,
    ticks_per_sec_chip: f64,
    ticks_per_sec_wide: f64,
    /// Per-pair `WideChip`-over-`Chip` tick throughput.
    speedup: Spread,
    bit_identical: bool,
}

/// Deterministic per-core frequency pattern; `phase` rotates it so
/// retargets actually move cores.
fn wide_freq_pattern(spec: &PlatformSpec, phase: usize) -> Vec<KiloHertz> {
    let lo = spec.grid.min().khz();
    let step = spec.grid.step().khz();
    let span = (spec.grid.max().khz() - lo) / step;
    (0..spec.num_cores)
        .map(|c| {
            KiloHertz(lo + (c as u64 * (7 + 4 * phase as u64) + phase as u64) % (span + 1) * step)
        })
        .collect()
}

/// Mixed per-core configuration (same spread the equivalence tests
/// use): full-tilt, AVX, partial-utilization, idle and parked cores,
/// plus shallow idle states.
fn wide_core_setup(c: usize) -> (LoadDescriptor, bool, CState) {
    let load = match c % 5 {
        0 => LoadDescriptor::nominal(),
        1 => LoadDescriptor {
            capacitance: 1.9,
            utilization: 1.0,
            avx: true,
        },
        2 => LoadDescriptor {
            capacitance: 1.2,
            utilization: 0.6,
            avx: false,
        },
        3 => LoadDescriptor::IDLE,
        _ => LoadDescriptor {
            capacitance: 0.8,
            utilization: 0.9,
            avx: false,
        },
    };
    (
        load,
        c % 7 == 3,
        if c % 4 == 1 { CState::C1 } else { CState::C6 },
    )
}

/// One simulator core under the sweep's closed-loop schedule.
struct WideDrive<C> {
    chip: C,
    patterns: [Vec<KiloHertz>; 2],
    t_abs: usize,
}

impl<C: ChipLike> WideDrive<C> {
    /// Build an `n`-core chip with the mixed setup and a RAPL limit, and
    /// run the untimed warm-up.
    fn new(n: usize) -> WideDrive<C> {
        let spec = PlatformSpec::wide(n);
        let patterns = [wide_freq_pattern(&spec, 0), wide_freq_pattern(&spec, 1)];
        let mut chip = C::shared(Arc::new(spec));
        for c in 0..n {
            let (load, parked, idle) = wide_core_setup(c);
            chip.set_load(c, load).unwrap();
            chip.set_forced_idle(c, parked).unwrap();
            chip.set_idle_state(c, idle).unwrap();
        }
        chip.set_rapl_limit(Some(Watts(4.0 * n as f64))).unwrap();
        let mut drive = WideDrive {
            chip,
            patterns,
            t_abs: 0,
        };
        drive.run(WIDE_WARMUP_TICKS);
        drive
    }

    /// Advance `count` ticks, retargeting every [`WIDE_RETARGET_EVERY`].
    fn run(&mut self, count: usize) {
        for _ in 0..count {
            if self.t_abs.is_multiple_of(WIDE_RETARGET_EVERY) {
                let p = &self.patterns[(self.t_abs / WIDE_RETARGET_EVERY) % 2];
                self.chip.set_all_requested(p).unwrap();
            }
            self.chip.tick(WIDE_DT);
            self.t_abs += 1;
        }
    }

    /// Seconds taken by [`WideDrive::run`] of `count` ticks.
    fn time(&mut self, count: usize) -> f64 {
        let started = Instant::now();
        self.run(count);
        started.elapsed().as_secs_f64()
    }

    fn fingerprint(&self) -> WideFingerprint {
        let n = self.chip.num_cores();
        (
            self.chip.package_energy_raw(),
            self.chip.cores_energy_raw(),
            (0..n).map(|c| self.chip.counters(c)).collect(),
            (0..n).map(|c| self.chip.effective_freq(c).khz()).collect(),
        )
    }
}

fn run_wide_sweep() -> Vec<WideResult> {
    WIDE_CORES
        .iter()
        .map(|&n| {
            // Roughly constant work per width so the sweep stays quick,
            // and never fewer than WIDE_MIN_TICKS.
            let ticks = (5 * (400_000 / n)).max(WIDE_MIN_TICKS);
            let mut chip = WideDrive::<Chip>::new(n);
            let mut wide = WideDrive::<WideChip>::new(n);
            let timing = paired(|| wide.time(ticks), || chip.time(ticks));
            WideResult {
                cores: n,
                ticks,
                ticks_per_sec_chip: ticks as f64 / timing.best.1,
                ticks_per_sec_wide: ticks as f64 / timing.best.0,
                speedup: timing.ratio,
                bit_identical: chip.fingerprint() == wide.fingerprint(),
            }
        })
        .collect()
}

/// Width of the steady-replay row.
const STEADY_CORES: usize = 1024;
/// Ticks in one steady-replay batch.
const STEADY_TICKS: usize = 1000;
/// Most the same ticks may cost taken one `tick` call at a time on a
/// settled chip (and settled by `rapl_mut`), over one
/// `run_ticks(STEADY_TICKS)`: a steady tick only counts itself, so the
/// per-core work is the batch's one replay either way.
const STEADY_RATIO_GATE: f64 = 2.0;

/// Everything the steady-replay row compares to the bit: the clock bits,
/// both package energy counters, the RAPL running average's bits, and
/// each core's counters, joule bits and C0-fraction bits.
type SteadyFingerprint = (u64, u32, u32, Option<u64>, Vec<(SimCounters, u64, u64)>);

struct SteadyResult {
    ticks_per_sec_tick: f64,
    ticks_per_sec_batched: f64,
    /// Per-pair seconds of the per-tick side over the batch's.
    tick_over_batch: Spread,
    bit_identical: bool,
}

/// Mixed loads in every idle state, parked cores included, and no RAPL
/// limit, so a settled chip batches.
fn steady_setup<C: ChipLike>(chip: &mut C) {
    let freqs = wide_freq_pattern(chip.spec(), 0);
    chip.set_all_requested(&freqs).unwrap();
    for c in 0..chip.num_cores() {
        let (load, parked, _) = wide_core_setup(c);
        chip.set_load(c, load).unwrap();
        chip.set_forced_idle(c, parked).unwrap();
        chip.set_idle_state(c, CState::ALL[c % 4]).unwrap();
    }
}

fn steady_fingerprint<C: ChipLike>(
    chip: &mut C,
    core_bits: impl Fn(&C, usize) -> (u64, u64),
) -> SteadyFingerprint {
    // Reading the average folds a deferred run on a copy.
    let average = chip
        .rapl_mut()
        .map(|r| r.running_average().value().to_bits());
    (
        chip.now().value().to_bits(),
        chip.package_energy_raw(),
        chip.cores_energy_raw(),
        average,
        (0..chip.num_cores())
            .map(|c| {
                let (joules, c0) = core_bits(chip, c);
                (chip.counters(c), joules, c0)
            })
            .collect(),
    )
}

/// Time `STEADY_TICKS` `tick` calls plus the `rapl_mut` that settles
/// them against one `run_ticks(STEADY_TICKS)` on two identically settled
/// wide chips in alternated pairs, with the scalar `Chip` running the
/// same batches as the bit-identity oracle.
///
/// Each side's single replay defers its RAPL running average's EWMA
/// steps and never merges them with the previous replay's, so each
/// timed trial on either side still folds the `STEADY_TICKS` steps the
/// trial before it deferred, one at a time; nothing here settles them
/// side by side.
fn run_steady_replay() -> SteadyResult {
    let spec = PlatformSpec::wide(STEADY_CORES);
    let mut oracle = Chip::new(spec.clone());
    let mut batched = WideChip::new(spec.clone());
    let mut stepped = WideChip::new(spec);
    steady_setup(&mut oracle);
    steady_setup(&mut batched);
    steady_setup(&mut stepped);
    // One untimed batch builds the caches and settles the chips.
    oracle.run_ticks(STEADY_TICKS, WIDE_DT);
    batched.run_ticks(STEADY_TICKS, WIDE_DT);
    stepped.run_ticks(STEADY_TICKS, WIDE_DT);
    let timing = paired(
        || {
            oracle.run_ticks(STEADY_TICKS, WIDE_DT);
            let started = Instant::now();
            batched.run_ticks(STEADY_TICKS, WIDE_DT);
            started.elapsed().as_secs_f64()
        },
        || {
            let started = Instant::now();
            for _ in 0..STEADY_TICKS {
                stepped.tick(WIDE_DT);
            }
            let _ = stepped.rapl_mut();
            started.elapsed().as_secs_f64()
        },
    );
    let expected = steady_fingerprint(&mut oracle, |oracle, c| {
        let core = oracle.core(c);
        (
            core.energy().total().value().to_bits(),
            core.residency().c0_fraction().to_bits(),
        )
    });
    let wide = |chip: &mut WideChip| {
        steady_fingerprint(chip, |chip, c| {
            (
                chip.core_energy_total(c).value().to_bits(),
                chip.c0_fraction(c).to_bits(),
            )
        })
    };
    SteadyResult {
        ticks_per_sec_tick: STEADY_TICKS as f64 / timing.best.1,
        ticks_per_sec_batched: STEADY_TICKS as f64 / timing.best.0,
        tick_over_batch: timing.ratio,
        bit_identical: wide(&mut batched) == expected && wide(&mut stepped) == expected,
    }
}

/// One scenario row recovered from a committed `BENCH_hotpath.json`.
struct BaselineEntry {
    name: String,
    policy: String,
    translation: String,
    view: f64,
    owned: f64,
}

fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Recover the scenario rates from a previously written report. The
/// report serializes one scenario object per line (see [`json_report`]),
/// so line-oriented key scanning is exact for files this bench wrote.
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                name: extract_str(line, "\"name\": \"")?.to_string(),
                policy: extract_str(line, "\"policy\": \"")?.to_string(),
                translation: extract_str(line, "\"translation\": \"")?.to_string(),
                view: extract_num(line, "\"steps_per_sec_view\": ")?,
                owned: extract_num(line, "\"steps_per_sec_owned\": ")?,
            })
        })
        .collect()
}

/// Regression guard against a committed baseline report, scoped to the
/// shares policies (the heavy water-fill / slot-DP controllers whose
/// cost the fleet fast path is meant to keep down). Absolute steps/sec
/// are machine-dependent and single scenarios jitter >10 % run-to-run
/// even on one host, so the guard compares the *geometric mean* of the
/// per-scenario view-path ratios (current / baseline) against the same
/// aggregate over the owned path, which serves as the machine-speed
/// proxy: both paths slow down equally on a slower runner, but only a
/// genuine controller regression drags the view aggregate below the
/// owned one. A normalized aggregate >10 % down fails. Failures are
/// appended to `failures`.
fn check_against_baseline(results: &[ScenarioResult], text: &str, failures: &mut Vec<String>) {
    let base = parse_baseline(text);
    let matched: Vec<(&ScenarioResult, &BaselineEntry)> = results
        .iter()
        .filter_map(|r| {
            base.iter()
                .find(|b| {
                    b.name == r.name
                        && b.translation == r.translation
                        && b.policy.contains("shares")
                        && b.view > 0.0
                        && b.owned > 0.0
                })
                .map(|b| (r, b))
        })
        .collect();
    if matched.is_empty() {
        failures.push("baseline report contains no shares-policy scenarios".to_string());
        return;
    }
    let geomean = |ratios: &mut dyn Iterator<Item = f64>| -> f64 {
        let (sum, n) = ratios.fold((0.0, 0u32), |(s, n), r| (s + r.ln(), n + 1));
        (sum / n as f64).exp()
    };
    let view = geomean(&mut matched.iter().map(|(r, b)| r.steps_per_sec_view / b.view));
    let owned = geomean(&mut matched.iter().map(|(r, b)| r.steps_per_sec_owned / b.owned));
    if view < 0.9 * owned {
        failures.push(format!(
            "shares-policy view path regressed >10% vs the recorded baseline: \
             aggregate view ratio {view:.3} vs owned-path (machine-speed) ratio {owned:.3} \
             over {} scenarios",
            matched.len()
        ));
    } else {
        println!(
            "Baseline guard: shares-policy view ratio {view:.3} vs owned ratio {owned:.3} \
             over {} scenarios — no regression",
            matched.len()
        );
    }
}

fn policy_label(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::RaplNative => "rapl",
        PolicyKind::Priority => "priority",
        PolicyKind::PowerShares => "power-shares",
        PolicyKind::FrequencyShares => "freq-shares",
        PolicyKind::PerformanceShares => "perf-shares",
        PolicyKind::FastCap => "fastcap",
    }
}

fn json_report(results: &[ScenarioResult], wide: &[WideResult], steady: &SteadyResult) -> String {
    let mut s = String::from("{\n  \"bench\": \"hotpath\",\n");
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        s,
        "  \"host\": {{\"available_parallelism\": {parallelism}}},\n  \
         \"warmup_steps\": {WARMUP},\n  \"timing_pairs\": {PAIRS},\n  \"scenarios\": ["
    );
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"policy\": \"{}\", \"translation\": \"{}\", \
             \"steps\": {}, \"alloc_events\": {}, \"alloc_bytes\": {}, \
             \"steps_per_sec_view\": {:.1}, \"steps_per_sec_owned\": {:.1}, {}}}{}",
            r.name,
            r.policy,
            r.translation,
            r.steps,
            r.alloc_events,
            r.alloc_bytes,
            r.steps_per_sec_view,
            r.steps_per_sec_owned,
            r.view_vs_owned.json("view_vs_owned"),
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"widechip\": [\n");
    for (i, r) in wide.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"cores\": {}, \"ticks\": {}, \"ticks_per_sec_chip\": {:.1}, \
             \"ticks_per_sec_wide\": {:.1}, {}, \
             \"bit_identical\": {}}}{}",
            r.cores,
            r.ticks,
            r.ticks_per_sec_chip,
            r.ticks_per_sec_wide,
            r.speedup.json("speedup"),
            r.bit_identical,
            if i + 1 == wide.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        s,
        "  ],\n  \"steady_replay\": {{\"cores\": {STEADY_CORES}, \"ticks\": {STEADY_TICKS}, \
         \"ticks_per_sec_tick\": {:.1}, \"ticks_per_sec_batched\": {:.1}, \
         {}, \"bit_identical\": {}}}\n}}",
        steady.ticks_per_sec_tick,
        steady.ticks_per_sec_batched,
        steady.tick_over_batch.json("tick_over_batch"),
        steady.bit_identical
    );
    s
}

fn main() -> ExitCode {
    let mut steps = 20_000usize;
    let mut out_path = String::from("results/BENCH_hotpath.json");
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--steps" => {
                steps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--steps takes a positive integer");
            }
            "--out" => out_path = args.next().expect("--out takes a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline takes a path")),
            other => panic!(
                "unknown argument {other:?} (supported: --steps N, --out PATH, --baseline PATH)"
            ),
        }
    }

    let mut results = Vec::new();
    for translation in [TranslationKind::Naive, TranslationKind::Online] {
        for (name, policy, platform, apps) in policy_scenarios() {
            results.push(run_scenario(
                name,
                policy,
                &platform,
                &apps,
                translation,
                steps,
            ));
        }
    }

    let mut t = Table::new(
        format!("Hot-path memory discipline ({steps} steady-state steps per scenario)"),
        &[
            "scenario",
            "policy",
            "translation",
            "allocs",
            "ksteps_view",
            "ksteps_owned",
            "view_gain_%",
        ],
    );
    let mut failures = Vec::new();
    for r in &results {
        let gain = (r.view_vs_owned.median - 1.0) * 100.0;
        t.row(vec![
            r.name.clone(),
            r.policy.into(),
            r.translation.into(),
            r.alloc_events.to_string(),
            f1(r.steps_per_sec_view / 1e3),
            f1(r.steps_per_sec_owned / 1e3),
            f1(gain),
        ]);
        if r.alloc_events > 0 {
            failures.push(format!(
                "{}/{}: {} heap allocation events ({} bytes) in steady state",
                r.name, r.translation, r.alloc_events, r.alloc_bytes
            ));
        }
        if r.view_vs_owned.median < 0.9 {
            failures.push(format!(
                "{}/{}: view path runs at {:.3}x the owned path (median of {PAIRS} pairs), \
                 >10% below it",
                r.name, r.translation, r.view_vs_owned.median
            ));
        }
    }
    println!("{t}");

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => check_against_baseline(&results, &text, &mut failures),
            Err(e) => failures.push(format!("--baseline {path}: {e}")),
        }
    }

    let wide = run_wide_sweep();
    let mut wt = Table::new(
        "Wide-chip batch stepping vs per-core Chip (identical closed-loop drive)",
        &[
            "cores",
            "ticks",
            "kticks_chip",
            "kticks_wide",
            "speedup",
            "pair_range",
            "bit_identical",
        ],
    );
    for r in &wide {
        wt.row(vec![
            r.cores.to_string(),
            r.ticks.to_string(),
            f1(r.ticks_per_sec_chip / 1e3),
            f1(r.ticks_per_sec_wide / 1e3),
            f1(r.speedup.median),
            r.speedup.range(),
            r.bit_identical.to_string(),
        ]);
        if !r.bit_identical {
            failures.push(format!(
                "{} cores: WideChip diverged from Chip under an identical drive",
                r.cores
            ));
        }
        if r.cores == *WIDE_CORES.last().unwrap() && r.speedup.median < WIDE_SPEEDUP_GATE {
            failures.push(format!(
                "{} cores: batch stepping only {:.2}x the per-core loop \
                 (gate: >={WIDE_SPEEDUP_GATE}x)",
                r.cores, r.speedup.median
            ));
        }
    }
    println!("{wt}");

    let steady = run_steady_replay();
    let mut st = Table::new(
        format!(
            "Steady replay: {STEADY_TICKS} tick calls + rapl_mut vs one \
             run_ticks({STEADY_TICKS}) ({STEADY_CORES} cores, no RAPL limit)"
        ),
        &[
            "kticks_tick",
            "kticks_batched",
            "tick_over_batch",
            "pair_range",
            "bit_identical",
        ],
    );
    st.row(vec![
        f1(steady.ticks_per_sec_tick / 1e3),
        f1(steady.ticks_per_sec_batched / 1e3),
        format!("{:.2}", steady.tick_over_batch.median),
        steady.tick_over_batch.range(),
        steady.bit_identical.to_string(),
    ]);
    println!("{st}");
    if !steady.bit_identical {
        failures.push(format!(
            "steady replay: WideChip diverged from Chip::run_ticks({STEADY_TICKS}) at \
             {STEADY_CORES} cores"
        ));
    }
    if steady.tick_over_batch.median > STEADY_RATIO_GATE {
        failures.push(format!(
            "steady replay: {STEADY_TICKS} tick calls + rapl_mut cost {:.2}x one \
             run_ticks({STEADY_TICKS}) at {STEADY_CORES} cores (median of {PAIRS} pairs; \
             gate: <={STEADY_RATIO_GATE}x)",
            steady.tick_over_batch.median
        ));
    }

    let json = json_report(&results, &wide, &steady);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("Report written to {out_path}");

    if failures.is_empty() {
        println!(
            "PASS: zero heap allocations per steady-state step across every \
             policy and translation; borrowed view path at or above the \
             owned path's throughput; wide-chip batch stepping bit-identical \
             to the per-core simulator and >={WIDE_SPEEDUP_GATE}x faster at \
             the widest descriptor; steady per-tick calls bit-identical to \
             the batch and within {STEADY_RATIO_GATE}x of its cost."
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
