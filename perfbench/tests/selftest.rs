//! Tiny-size runs of every workload: each prints every named metric
//! with its unit, the decomposed cluster replay matches the untraced
//! run, and the simulated metrics repeat per seed.

use perfbench::{per_layer_metrics, Options, Size, END_TO_END, WORKLOADS};

fn opts(workload: &str, trace: bool, seed: u64) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        spans_out: None,
    }
}

fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = perfbench::run(&opts(workload, trace, 7)).expect("known workload");
            assert!(
                r.correct(),
                "{workload} trace={trace}: {:?}",
                r.checks.messages
            );
            let line = r.result_json();
            let want = expected(trace);
            assert_eq!(r.metrics.len(), want.len(), "{workload}: {line}");
            for (name, unit) in want {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let rest = &line[at..];
                let end = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} is not in {unit}: {}",
                    &rest[..end]
                );
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn decomposed_replay_is_bit_identical() {
    for workload in ["fleet-churn", "arbiter-churn"] {
        let r = perfbench::run(&opts(workload, true, 11)).expect("known workload");
        assert_eq!(r.checks.failed, 0, "{workload}: {:?}", r.checks.messages);
        assert!(r.get("windows").expect("window count") >= 2.0);
        assert!(
            r.get("clusterd.node_advance.calls")
                .expect("decomposed layer")
                >= 2.0
        );
    }
}

#[test]
fn simulated_metrics_repeat_per_seed() {
    for workload in WORKLOADS {
        let a = perfbench::run(&opts(workload, false, 3)).expect("known workload");
        let b = perfbench::run(&opts(workload, false, 3)).expect("known workload");
        for name in ["gips", "cap_overshoot_p99_pct"] {
            assert_eq!(
                a.get(name).map(f64::to_bits),
                b.get(name).map(f64::to_bits),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn benchmark_json_and_metric_map_name_what_runs() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json");
    for (name, unit) in expected(false).into_iter().chain(expected(true)) {
        assert!(
            bench.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    let map = std::fs::read_to_string(format!("{}/metric_map.json", env!("CARGO_MANIFEST_DIR")))
        .expect("metric_map.json");
    for workload in WORKLOADS {
        assert!(bench.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        assert!(map.contains(&format!("\"{workload}\": {{")), "{workload}");
    }
}
