//! Ablation: water-fill redistribution vs the paper's literal
//! incremental-delta scheme.
//!
//! Both schemes distribute share-proportional *deltas*; the difference is
//! that the water-fill recomputes the full share-proportional allocation
//! each interval ("re-running the distribution algorithm"), while the
//! incremental scheme adjusts the previous allocation. Under a steady
//! load they coincide — the drift needs (a) a high-share app pinned at a
//! hardware cap, so every *raise* overflows to the low-share app, and
//! (b) recurring over-limit excursions, whose *withdrawals* tax the
//! high-share app by its share weight. A bursty latency service
//! co-located with a power virus provides exactly that: utilization
//! (and power) swings with load, driving the loop through raise/withdraw
//! cycles while the service cores sit at their turbo cap.

use pap_bench::{f1, f3, Table};
use pap_simcpu::chip::Chip;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_workloads::burn::cpuburn;
use pap_workloads::latency::ServiceConfig;
use pap_workloads::traces::{LoadTrace, TracedService};
use powerd::config::{AppSpec, ControllerTuning, DaemonConfig, PolicyKind, Priority};
use powerd::daemon::Daemon;
use powerd::hw::{ControlLoop, SimBackend};

const SERVICE_CORES: usize = 9;
const BURN_CORE: usize = 9;

struct Outcome {
    service_mhz_early: f64,
    service_mhz_late: f64,
    burn_mhz_early: f64,
    burn_mhz_late: f64,
    p90_late_ms: f64,
}

fn run(incremental: bool, limit: f64) -> Outcome {
    let platform = PlatformSpec::skylake();
    let trace = LoadTrace::Bursty {
        high: 1.0,
        low: 0.25,
        period: Seconds(20.0),
        duty: 0.5,
    };
    let mut service = TracedService::new(ServiceConfig::websearch(), SERVICE_CORES, trace);
    let mut burn = cpuburn();

    let mut apps: Vec<AppSpec> = (0..SERVICE_CORES)
        .map(|c| {
            AppSpec::new(format!("web/{c}"), c)
                .with_priority(Priority::High)
                .with_shares(90)
                .with_baseline_ips(3.0e9)
        })
        .collect();
    apps.push(
        AppSpec::new("cpuburn", BURN_CORE)
            .with_priority(Priority::Low)
            .with_shares(10)
            .with_baseline_ips(3.0e9),
    );
    let mut config = DaemonConfig::new(PolicyKind::FrequencyShares, Watts(limit), apps);
    config.tuning = ControllerTuning {
        incremental_redistribution: incremental,
        ..ControllerTuning::default()
    };
    let mut daemon = Daemon::new(config, &platform).unwrap();
    let mut backend = SimBackend::new(Chip::new(platform));
    let mut lp = ControlLoop::start(&mut backend, &mut daemon).unwrap();
    let dt = Seconds(0.001);
    let total = 240.0;

    // per-interval requested-frequency records (post-settling)
    let mut service_req = Vec::new();
    let mut burn_req = Vec::new();
    let mut p90_reset = false;

    while lp.elapsed().value() < total {
        let chip = backend.chip_mut();
        let freqs: Vec<KiloHertz> = (0..SERVICE_CORES).map(|c| chip.effective_freq(c)).collect();
        let loads = service.advance(dt, &freqs);
        for (c, load) in loads.into_iter().enumerate() {
            let instr = (load.utilization * freqs[c].hz() * dt.value()) as u64;
            chip.set_load(c, load).unwrap();
            chip.add_instructions(c, instr).unwrap();
        }
        if !lp.action().parked[BURN_CORE] {
            burn.tick_on(chip, BURN_CORE, dt).unwrap();
        }
        if lp.tick(&mut backend, &mut daemon, dt).unwrap().is_none() {
            continue;
        }
        let t = lp.elapsed().value();
        if t > 20.0 {
            let chip = backend.chip();
            let s_req: f64 = (0..SERVICE_CORES)
                .map(|c| chip.requested_freq(c).mhz() as f64)
                .sum::<f64>()
                / SERVICE_CORES as f64;
            service_req.push(s_req);
            burn_req.push(chip.requested_freq(BURN_CORE).mhz() as f64);
        }
        if !p90_reset && t >= total - 60.0 {
            service.service_mut().reset_stats();
            p90_reset = true;
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let n = service_req.len();
    Outcome {
        service_mhz_early: mean(&service_req[..20.min(n)]),
        service_mhz_late: mean(&service_req[n.saturating_sub(20)..]),
        burn_mhz_early: mean(&burn_req[..20.min(n)]),
        burn_mhz_late: mean(&burn_req[n.saturating_sub(20)..]),
        p90_late_ms: service.service().p90_ms(),
    }
}

fn main() {
    let mut t = Table::new(
        "Ablation: redistribution scheme under bursty load (websearch 90 / cpuburn 10 shares, 40 W)",
        &[
            "scheme",
            "svc_req_early",
            "svc_req_late",
            "burn_req_early",
            "burn_req_late",
            "late_p90_ms",
        ],
    );
    for incremental in [false, true] {
        let o = run(incremental, 40.0);
        t.row(vec![
            if incremental {
                "incremental"
            } else {
                "water-fill"
            }
            .into(),
            f1(o.service_mhz_early),
            f1(o.service_mhz_late),
            f1(o.burn_mhz_early),
            f1(o.burn_mhz_late),
            f3(o.p90_late_ms),
        ]);
    }
    println!("{t}");
    println!(
        "Columns are mean *requested* frequencies over the first/last 20 \
         control intervals after settling. Expected: under the water-fill the \
         allocation is the same at the end as at the start (re-derived from \
         shares each interval); under the incremental scheme the burst cycle \
         ratchets the virus's allocation upward — raises overflow to it while \
         the capped service cores absorb the withdrawals — degrading the \
         service's late-run tail."
    );
}
