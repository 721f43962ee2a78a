//! Extension: why IPS misleads on multithreaded workloads (§5.2).
//!
//! A contended 5-thread workload (spinlock, 30 % serial) shares the
//! socket with five single-threaded leela instances at equal shares,
//! under performance shares and frequency shares. Spinning threads retire
//! instructions at full rate, so the IPS-driven policy sees the
//! multithreaded app as well-served even as contention destroys its
//! useful throughput — and misallocates accordingly. Frequency shares
//! are immune (the paper's rationale for preferring HWP-style abstract
//! performance, and another argument for the frequency policy).

use pap_bench::{f1, f3, Table};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_workloads::engine::RunningApp;
use pap_workloads::multithread::MtWorkload;
use pap_workloads::spec;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, SimBackend};

const MT_CORES: usize = 5;

struct Outcome {
    mt_useful_gips: f64,
    mt_counter_gips: f64,
    st_gips: f64,
    mt_mhz: f64,
    st_mhz: f64,
}

fn run(policy: PolicyKind) -> Outcome {
    let platform = PlatformSpec::skylake();
    let mut mt = MtWorkload::new(spec::LEELA, 0.3, MT_CORES);
    let mut st: Vec<RunningApp> = (0..5).map(|_| RunningApp::looping(spec::LEELA)).collect();

    // The multithreaded app's 5 threads are cores 0..5 with one AppSpec
    // per core (the daemon sees per-core telemetry either way).
    let solo_ips = spec::LEELA.ips(platform.turbo.cap_for(1, false));
    let mut apps: Vec<AppSpec> = (0..MT_CORES)
        .map(|c| {
            AppSpec::new(format!("mt/{c}"), c)
                .with_shares(50)
                .with_priority(Priority::High)
                .with_baseline_ips(solo_ips)
        })
        .collect();
    for c in MT_CORES..10 {
        apps.push(
            AppSpec::new(format!("st/{c}"), c)
                .with_shares(50)
                .with_priority(Priority::High)
                .with_baseline_ips(solo_ips),
        );
    }
    let config = DaemonConfig::new(policy, Watts(42.0), apps);
    let mut daemon = Daemon::new(config, &platform).unwrap();
    let mut backend = SimBackend::new(Chip::new(platform));
    let mut lp = ControlLoop::start(&mut backend, &mut daemon).unwrap();
    let dt = Seconds(0.002);
    let warmup = 15.0;
    let mut st_instr = 0u64;
    let mut mt_useful_at_warmup = 0u64;
    let mut mt_counter_at_warmup = 0u64;
    let mut mt_mhz = 0.0;
    let mut st_mhz = 0.0;
    let mut samples = 0.0;

    while lp.elapsed().value() < 75.0 {
        let measuring = lp.elapsed().value() >= warmup;
        let chip = backend.chip_mut();
        let freqs: Vec<KiloHertz> = (0..MT_CORES).map(|c| chip.effective_freq(c)).collect();
        let steps = mt.advance(dt, &freqs);
        for (c, s) in steps.iter().enumerate() {
            chip.set_load(c, s.load).unwrap();
            chip.add_instructions(c, s.instructions).unwrap();
        }
        for (i, app) in st.iter_mut().enumerate() {
            let out = app.tick_on(chip, MT_CORES + i, dt).unwrap();
            if measuring {
                st_instr += out.instructions;
            }
        }
        let sample = lp.tick(&mut backend, &mut daemon, dt).unwrap();
        let t = lp.elapsed().value();
        if (t - warmup).abs() < dt.value() / 2.0 {
            mt_useful_at_warmup = mt.useful_retired();
            mt_counter_at_warmup = mt.counter_retired();
        }
        if let Some(sample) = sample.filter(|_| t >= warmup) {
            mt_mhz += (0..MT_CORES)
                .map(|c| sample.cores[c].rates.active_freq.mhz() as f64)
                .sum::<f64>()
                / MT_CORES as f64;
            st_mhz += (MT_CORES..10)
                .map(|c| sample.cores[c].rates.active_freq.mhz() as f64)
                .sum::<f64>()
                / 5.0;
            samples += 1.0;
        }
    }
    let window = 75.0 - warmup;
    Outcome {
        mt_useful_gips: (mt.useful_retired() - mt_useful_at_warmup) as f64 / window / 1e9,
        mt_counter_gips: (mt.counter_retired() - mt_counter_at_warmup) as f64 / window / 1e9,
        st_gips: st_instr as f64 / window / 1e9,
        mt_mhz: mt_mhz / samples,
        st_mhz: st_mhz / samples,
    }
}

fn main() {
    let mut t = Table::new(
        "Extension §5.2: contended 5-thread app (30% serial) vs 5x single-thread leela, equal shares, 42 W",
        &[
            "policy",
            "mt_counter_gips",
            "mt_useful_gips",
            "inflation",
            "st_gips",
            "mt_mhz",
            "st_mhz",
        ],
    );
    for policy in [PolicyKind::PerformanceShares, PolicyKind::FrequencyShares] {
        let o = run(policy);
        t.row(vec![
            policy.name().into(),
            f1(o.mt_counter_gips),
            f1(o.mt_useful_gips),
            f3(o.mt_counter_gips / o.mt_useful_gips),
            f1(o.st_gips),
            f1(o.mt_mhz),
            f1(o.st_mhz),
        ]);
    }
    println!("{t}");
    println!(
        "Reading: the counter-visible GIPS of the multithreaded app is several \
         times its useful GIPS (spin inflation). The IPS-driven performance \
         policy takes that inflated signal at face value and treats the app as \
         well-served — under frequency shares the allocation depends only on \
         frequency, so the distortion cannot leak into the policy. This is the \
         paper's §5.2 caveat quantified, and its argument for HWP-style \
         abstract performance metrics on multithreaded workloads."
    );
}
