//! `powerd-sim` — run the per-application power-delivery daemon against a
//! simulated socket from the command line.
//!
//! Two modes. The classic ad-hoc experiment:
//!
//! ```sh
//! powerd-sim --policy freq-shares --limit 45 \
//!     --app web=leela:90:hp --app bg=cpuburn:10:lp --duration 60
//! ```
//!
//! and named multi-tenant scenarios from the `pap-tenants` library,
//! compared across all three control modes:
//!
//! ```sh
//! powerd-sim --scenario diurnal-flash [--limit 45] [--seed 7] [--metrics]
//! ```
//!
//! With the `linux-hw` feature the same daemon drives a real host
//! through cpufreq + RAPL/hwmon (`--backend linux`, start with
//! `--dry-run`), and `powerd-sim govcmp` sweeps the host's cpufreq
//! governors as the paper's baseline comparison. Without the feature
//! both report a typed "rebuild with --features linux-hw" error.

use std::process::ExitCode;
use std::sync::Arc;

use pap_simcpu::units::{Seconds, Watts};
use pap_telemetry::metrics::ControlMetrics;
use pap_tenants::prelude::*;
use pap_workloads::burn::CPUBURN;
use pap_workloads::spec;
use powerd::cli::{self, CliOptions};
use powerd::report::{f1, f3, Table};
use powerd::runner::Experiment;

fn run_experiment(opts: &CliOptions) -> Result<(), String> {
    let platform = opts.platform_spec()?;
    let policy = opts.policy.expect("cli validated policy");
    let limit = opts.limit.expect("cli validated limit");
    let mut e = Experiment::new(platform, policy, limit)
        .duration(opts.duration)
        .translation(opts.model)
        .observe(opts.trace_out.is_some() || opts.metrics);
    if let Some(seed) = opts.seed {
        e = e.seed(seed);
    }
    for app in &opts.apps {
        let profile = if app.profile == "cpuburn" {
            CPUBURN
        } else {
            spec::by_name(&app.profile)
                .ok_or_else(|| format!("unknown profile '{}'", app.profile))?
        };
        e = e.app(app.name.clone(), profile, app.priority, app.shares);
    }
    let result = e.run()?;

    let mut t = Table::new(
        format!(
            "powerd-sim: {} at {} on {}",
            policy.name(),
            limit,
            opts.platform
        ),
        &[
            "app",
            "core",
            "mean_mhz",
            "norm_perf",
            "core_w",
            "starved_%",
        ],
    );
    for a in &result.apps {
        t.row(vec![
            a.name.clone(),
            a.core.to_string(),
            f1(a.mean_freq_mhz),
            f3(a.norm_perf),
            a.mean_power
                .map(|w| f3(w.value()))
                .unwrap_or_else(|| "-".into()),
            f1(a.starved_fraction * 100.0),
        ]);
    }
    println!("{t}");
    println!("mean package power: {:.2}", result.mean_package_power);
    let rms = result
        .model
        .prediction_rms_watts
        .map(|w| format!("{w:.2} W"))
        .unwrap_or_else(|| "n/a (fit not yet confident)".into());
    println!(
        "model[{}]: per-interval prediction rms {}, {} translation queries ({:.0}% naive fallback)",
        opts.model.name(),
        rms,
        result.model.queries,
        result.model.fallback_fraction() * 100.0,
    );
    println!("{}", powerd::report::model_table(&result.model));
    if opts.csv {
        print!("{}", result.trace.to_csv());
    }
    if let Some(decisions) = &result.decisions {
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, decisions.to_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("decision trace: {} records -> {path}", decisions.len());
        }
        if opts.metrics {
            if let Some(metrics) = decisions.metrics() {
                print!("{}", metrics.expose());
            }
        }
    }
    Ok(())
}

fn run_scenario(opts: &CliOptions, name: &str) -> Result<(), String> {
    let mut scenario = by_name(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}' (available: {})",
            names().join(", ")
        )
    })?;
    if let Some(limit) = opts.limit {
        scenario.limit = limit;
    }
    if let Some(seed) = opts.seed {
        scenario.seed = seed;
    }
    if let Some(tariff) = opts.tariff {
        scenario = scenario.with_tariff(tariff);
    }
    scenario.duration = opts.duration;

    println!(
        "scenario '{}': {} ({} tenants, {} cores, {} budget, seed {:#x})",
        scenario.name,
        scenario.description,
        scenario.tenants.len(),
        scenario.total_cores(),
        Watts(scenario.limit.value()),
        scenario.seed,
    );

    let mut jsonl = String::new();
    let mut prom = String::new();
    let mut summary = Table::new(
        format!("scenario '{}' across control modes", scenario.name),
        &[
            "mode",
            "attainment",
            "att_per_w",
            "jain",
            "batch_gips",
            "mean_w",
        ],
    );
    for mode in ControlMode::ALL {
        let metrics = opts.metrics.then(|| Arc::new(ControlMetrics::new()));
        let (card, trace) = if opts.metrics || opts.trace_out.is_some() {
            scenario.run_observed(mode, metrics.clone())
        } else {
            (scenario.run(mode), None)
        };

        let mut t = Table::new(
            format!("{} / {}", scenario.name, mode.name()),
            &[
                "tenant",
                "class",
                "attainment",
                "tail_ms",
                "target_ms",
                "goodput",
                "mean_w",
                "shares",
            ],
        );
        for ten in &card.tenants {
            t.row(vec![
                ten.name.to_string(),
                if ten.batch { "batch" } else { "service" }.to_string(),
                f3(ten.attainment),
                f1(ten.tail_ms),
                f1(ten.target_ms),
                f1(ten.goodput),
                f3(ten.mean_power_w),
                f1(ten.mean_shares),
            ]);
        }
        println!("{t}");
        summary.row(vec![
            mode.name().to_string(),
            f3(card.attainment()),
            f3(card.attainment_per_watt()),
            f3(card.jain()),
            f3(card.batch_gips()),
            f3(card.mean_package_w),
        ]);
        if let Some(cost) = card.cost_usd() {
            println!(
                "{}: {:.3} Wh package energy, ${cost:.6} at the tariff, \
                 attainment/$ {:.2}",
                mode.name(),
                card.package_wh(),
                card.attainment_per_dollar().unwrap_or(0.0),
            );
        }
        jsonl.push_str(&card.to_jsonl());
        if opts.metrics {
            prom.push_str(&card.prometheus());
        }
        if let (true, Some(trace)) = (mode == ControlMode::SloAware, &trace) {
            eprintln!("slo-aware decision trace: {} records", trace.len());
            if let Some(m) = metrics.as_deref() {
                if opts.metrics {
                    prom.push_str(&m.expose());
                }
            }
            let _ = trace;
        }
    }
    println!("{summary}");
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, &jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("scorecards: -> {path}");
    }
    if opts.metrics {
        print!("{prom}");
    }
    Ok(())
}

/// `govcmp --backend sim`: replay the paper's §2.2 governor comparison
/// on the simulated socket — a bursty single-core service under each
/// emulated cpufreq governor, reported in the same power/frequency/Wh
/// shape as the real-host sweep.
fn run_govcmp_sim(opts: &CliOptions) -> Result<(), String> {
    use powerd::governor::{run_service, Governor};

    let governors = [
        ("performance", Governor::Performance),
        ("ondemand", Governor::ondemand()),
        ("conservative", Governor::conservative()),
        ("powersave", Governor::Powersave),
    ];
    let platform = opts.platform_spec()?;
    let measured = opts.duration.value().max(1.0);

    let mut t = Table::new(
        format!("govcmp (sim): cpufreq governors on {}", opts.platform),
        &["governor", "p90_ms", "mean_w", "mean_mhz", "wh", "cost_usd"],
    );
    for (name, gov) in governors {
        let run = run_service(gov, &platform, opts.seed.unwrap_or(42), Seconds(measured))
            .map_err(|e| e.to_string())?;
        let wh = run.mean_w * measured / 3600.0;
        let cost = opts
            .tariff
            .map(|tr| format!("{:.6}", wh / 1000.0 * tr))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            name.to_string(),
            f1(run.p90_ms),
            f3(run.mean_w),
            f1(run.mean_mhz),
            f3(wh),
            cost,
        ]);
    }
    println!("{t}");
    println!(
        "Per-core utilization governors cannot express cross-application \
         shares — the gap the paper's policies fill. Run with --backend \
         linux (build feature linux-hw) for the same sweep on a real host."
    );
    Ok(())
}

/// Real-hardware entry points (`--backend linux`, `govcmp`).
#[cfg(feature = "linux-hw")]
mod hwcli {
    use std::time::Duration;

    use pap_hw::cpufreq::WriteMode;
    use pap_hw::{govcmp, BackendClock, BackendOptions, LinuxBackend, SysfsRoot};
    use pap_telemetry::energy::{EnergyLedger, Tariff};
    use pap_workloads::burn::CPUBURN;
    use pap_workloads::spec;
    use powerd::cli::CliOptions;
    use powerd::config::{AppSpec, DaemonConfig};
    use powerd::daemon::Daemon;
    use powerd::hw::{run_daemon, PowerBackend};
    use powerd::report::{f1, f3, Table};
    use powerd::runner::standalone_freq;

    fn sysfs_root(opts: &CliOptions) -> SysfsRoot {
        match &opts.sysfs_root {
            Some(p) => SysfsRoot::new(p.clone()),
            None => SysfsRoot::system(),
        }
    }

    fn sleep_for(dt: pap_simcpu::units::Seconds) {
        std::thread::sleep(Duration::from_secs_f64(dt.value()));
    }

    /// Run the daemon against the live host for `--duration` wall
    /// seconds, then report per-app energy from the attached ledger.
    pub fn run_linux(opts: &CliOptions) -> Result<(), String> {
        let mut backend = LinuxBackend::probe(
            sysfs_root(opts),
            BackendOptions {
                dry_run: opts.dry_run,
                write_mode: WriteMode::Auto,
                clock: BackendClock::wall(),
                no_offline: opts.no_offline,
            },
        )
        .map_err(|e| format!("probing the host: {e}"))?;
        eprintln!("{}", backend.describe());
        if opts.dry_run {
            eprintln!("dry run: observing only, no sysfs writes");
        }

        let policy = opts.policy.expect("cli validated policy");
        let limit = opts.limit.expect("cli validated limit");
        let platform = backend.platform().clone();
        if opts.apps.len() > platform.num_cores {
            return Err(format!(
                "{} apps but the host exposes {} cpufreq policies",
                opts.apps.len(),
                platform.num_cores
            ));
        }
        let mut apps = Vec::new();
        for (core, app) in opts.apps.iter().enumerate() {
            let profile = if app.profile == "cpuburn" {
                CPUBURN
            } else {
                spec::by_name(&app.profile)
                    .ok_or_else(|| format!("unknown profile '{}'", app.profile))?
            };
            apps.push(
                AppSpec::new(app.name.clone(), core)
                    .with_priority(app.priority)
                    .with_shares(app.shares)
                    .with_baseline_ips(profile.ips(standalone_freq(&platform, &profile))),
            );
        }
        let mut config = DaemonConfig::new(policy, limit, apps);
        config.control_interval = opts.interval;
        let mut daemon = Daemon::new(config, &platform)?;
        daemon.attach_energy(match opts.tariff {
            Some(t) => EnergyLedger::with_tariff(Tariff::new(t)),
            None => EnergyLedger::new(),
        });

        // Wall clock: the drive closure just lets real time pass.
        run_daemon(
            &mut backend,
            &mut daemon,
            opts.duration,
            opts.interval,
            |_, _| sleep_for(opts.interval),
        )?;

        let ledger = daemon.take_energy().expect("ledger attached above");
        let mut t = Table::new(
            format!("powerd-sim on {}: per-app energy", platform.name),
            &["app", "wh", "share_%"],
        );
        let pkg_wh = ledger.package_wh();
        for a in ledger.accounts() {
            let share = if pkg_wh > 0.0 {
                a.wh / pkg_wh * 100.0
            } else {
                0.0
            };
            t.row(vec![a.name.clone(), f3(a.wh), f1(share)]);
        }
        println!("{t}");
        println!("package energy: {:.3} Wh", pkg_wh);
        if let Some(cost) = ledger.package_cost_usd() {
            println!("package cost: ${cost:.6} at the tariff");
        }
        print!("{}", ledger.to_jsonl());
        if opts.metrics {
            print!("{}", ledger.prometheus());
        }
        for (id, h) in backend.health().sensors() {
            if h.total_failures > 0 {
                eprintln!("sensor {id}: {:?}, {} failures", h.state, h.total_failures);
            }
        }
        Ok(())
    }

    /// `govcmp`: the paper's governor-comparison baseline on the live
    /// host — sweep the stock cpufreq governors and report each one's
    /// power, frequency and energy.
    pub fn run_govcmp(opts: &CliOptions) -> Result<(), String> {
        let root = sysfs_root(opts);
        let cfg = govcmp::GovCmpConfig {
            duration: opts.duration,
            interval: opts.interval,
            dry_run: opts.dry_run,
        };
        if cfg.dry_run {
            eprintln!("dry run: measuring the active governor only");
        }
        let rows =
            govcmp::run(&root, &cfg, sleep_for).map_err(|e| format!("governor sweep: {e}"))?;

        let mut t = Table::new(
            "govcmp: stock cpufreq governors".to_string(),
            &[
                "governor", "mean_w", "mean_mhz", "wh", "cost_usd", "samples",
            ],
        );
        for r in &rows {
            let cost = opts
                .tariff
                .map(|t| format!("{:.6}", r.wh / 1000.0 * t))
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                r.governor.clone(),
                f3(r.mean_pkg_w),
                f1(r.mean_khz / 1000.0),
                f3(r.wh),
                cost,
                r.samples.to_string(),
            ]);
        }
        println!("{t}");
        Ok(())
    }
}

/// Typed unavailability errors when built without `linux-hw`.
#[cfg(not(feature = "linux-hw"))]
mod hwcli {
    use powerd::cli::CliOptions;

    const HINT: &str = "this build has no real-hardware backend; rebuild with \
                        `cargo build --features linux-hw` (adds only the \
                        in-workspace pap-hw crate)";

    pub fn run_linux(_opts: &CliOptions) -> Result<(), String> {
        Err(format!("--backend linux is unavailable: {HINT}"))
    }

    pub fn run_govcmp(_opts: &CliOptions) -> Result<(), String> {
        Err(format!("govcmp is unavailable: {HINT}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if opts.govcmp {
        match opts.backend {
            cli::BackendKind::Sim => run_govcmp_sim(&opts),
            cli::BackendKind::Linux => hwcli::run_govcmp(&opts),
        }
    } else if opts.backend == cli::BackendKind::Linux {
        hwcli::run_linux(&opts)
    } else {
        match &opts.scenario {
            Some(name) => run_scenario(&opts, &name.clone()),
            None => run_experiment(&opts),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
