//! Extension: game-ability of measurement-driven policies (§8).
//!
//! One of two equal-share applications games its measured telemetry:
//!
//! * **NOP padding** inflates IPS — under performance shares the
//!   controller believes the gamer is over-served and throttles it;
//! * **sandbagging** (artificial stalls) deflates IPS — the controller
//!   compensates with extra frequency, but the stalls burn the gain;
//! * **power padding** (gratuitous vector work) inflates power — under
//!   power shares the gamer's own budget now buys less frequency.
//!
//! For each policy we report the gamer's *useful* normalized performance
//! and the honest victim's performance, against an honest/honest
//! reference. The paper's soundness condition holds when gaming never
//! increases the gamer's useful performance.

use pap_bench::{f3, par_map, Table};
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_workloads::gaming;
use pap_workloads::profile::WorkloadProfile;
use pap_workloads::spec;
use powerd::config::{PolicyKind, Priority};
use powerd::runner::Experiment;

#[derive(Clone, Copy)]
struct Scenario {
    label: &'static str,
    gamer: WorkloadProfile,
    /// Fraction of the gamer's measured IPS that is useful work.
    useful: f64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            label: "honest",
            gamer: spec::LEELA,
            useful: 1.0,
        },
        Scenario {
            label: "nop-padded(40%)",
            gamer: gaming::nop_padded(spec::LEELA, 0.4),
            useful: gaming::useful_fraction(0.4),
        },
        Scenario {
            label: "sandbagged(1.5x)",
            gamer: gaming::sandbagged(spec::LEELA, 1.5),
            useful: 1.0, // all instructions useful, just slowed
        },
        Scenario {
            label: "power-padded(+1.0C)",
            gamer: gaming::power_padded(spec::LEELA, 1.0),
            useful: 1.0,
        },
    ]
}

fn main() {
    // The gamer declares leela's honest offline baseline, whatever it
    // actually runs — that is the point of gaming the measurement.
    let honest_baseline =
        |platform: &PlatformSpec| spec::LEELA.ips(platform.turbo.cap_for(1, false));

    for policy in [
        PolicyKind::PerformanceShares,
        PolicyKind::FrequencyShares,
        PolicyKind::PowerShares,
    ] {
        let platform = if policy == PolicyKind::PowerShares {
            PlatformSpec::ryzen()
        } else {
            PlatformSpec::skylake()
        };
        let results = par_map(scenarios(), |sc| {
            let half = platform.num_cores / 2;
            let mut e = Experiment::new(platform.clone(), policy, Watts(40.0))
                .duration(Seconds(60.0))
                .warmup(15);
            for i in 0..half {
                e = e.app(format!("victim-{i}"), spec::DEEPSJENG, Priority::High, 50);
            }
            for i in 0..half {
                // gamed workload, honest declared baseline
                e = e.app(format!("gamer-{i}"), sc.gamer, Priority::High, 50);
            }
            let r = e.run().expect("experiment runs");
            let half = platform.num_cores / 2;
            let victim: f64 = r.apps[..half].iter().map(|a| a.norm_perf).sum::<f64>() / half as f64;
            // useful perf normalized against leela's honest baseline
            let gamer_ips: f64 =
                r.apps[half..].iter().map(|a| a.mean_ips).sum::<f64>() / half as f64;
            let gamer_useful = gamer_ips * sc.useful / honest_baseline(&platform);
            (sc.label, victim, gamer_useful)
        });

        let mut t = Table::new(
            format!(
                "Extension §8 ({}): gaming one of two equal-share apps",
                policy.name()
            ),
            &["scenario", "victim_perf", "gamer_useful_perf"],
        );
        let honest_gamer = results[0].2;
        for (label, victim, gamer) in &results {
            t.row(vec![label.to_string(), f3(*victim), f3(*gamer)]);
        }
        println!("{t}");
        let best_gamed = results[1..]
            .iter()
            .map(|(_, _, g)| *g)
            .fold(f64::MIN, f64::max);
        println!(
            "{}: best gamed useful perf {:.3} vs honest {:.3} -> gaming {}",
            policy.name(),
            best_gamed,
            honest_gamer,
            if best_gamed <= honest_gamer + 0.01 {
                "does not pay (sound per §8)"
            } else {
                "pays — policy is exploitable"
            }
        );
        println!();
    }
}
