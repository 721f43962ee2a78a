//! Property-based tests over the core data structures and invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;

use clusterd::{AppRequest, Cluster, ClusterConfig, ClusterError, DemandClass, RequeueOutcome};
use pap_faults::chaos_platform;
use pap_faults::plan::{ChaosProfile, FaultPlan};
use pap_faults::runner::ChaosExperiment;
use per_app_power::prelude::*;
use per_app_power::simcpu::rapl::EnergyCounter;
use per_app_power::simcpu::units::Joules;
use per_app_power::simcpu::volt::VoltageCurve;
use per_app_power::workloads::spec;
use powerd::policy::minfund::{distribute, proportional_fill, Claim};
use powerd::quantize::{
    cluster_to_slots, distinct_levels, greedy_cluster, sse_mhz, ClusterStrategy,
};

fn grid() -> FreqGrid {
    FreqGrid::new(
        KiloHertz::from_mhz(400),
        KiloHertz::from_mhz(3800),
        KiloHertz::from_mhz(25),
    )
}

fn arb_claims(n: usize) -> impl Strategy<Value = Vec<Claim>> {
    proptest::collection::vec(
        (
            1.0f64..100.0,
            0.0f64..4000.0,
            0.0f64..1000.0,
            1000.0f64..4000.0,
        ),
        1..=n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(share, cur, min, max)| Claim::new(share, cur, min, max))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Min-funding distribution conserves the resource: what the claims
    /// absorb plus the unplaced residue equals the input delta.
    #[test]
    fn minfund_conserves(claims in arb_claims(8), delta in -5000.0f64..5000.0) {
        let d = distribute(delta, &claims);
        let before: f64 = claims.iter().map(|c| c.current).sum();
        let after: f64 = d.allocations.iter().sum();
        prop_assert!((after - before - (delta - d.unplaced)).abs() < 1e-6);
    }

    /// Min-funding never violates a claim's bounds.
    #[test]
    fn minfund_respects_bounds(claims in arb_claims(8), delta in -5000.0f64..5000.0) {
        let d = distribute(delta, &claims);
        for (a, c) in d.allocations.iter().zip(&claims) {
            prop_assert!(*a >= c.min - 1e-6 && *a <= c.max + 1e-6);
        }
    }

    /// Water-fill hits the requested total exactly whenever it is
    /// feasible, and allocations between bounds are share-proportional.
    #[test]
    fn fill_total_and_proportionality(claims in arb_claims(8), t in 0.0f64..40_000.0) {
        let d = proportional_fill(t, &claims);
        let sum_min: f64 = claims.iter().map(|c| c.min).sum();
        let sum_max: f64 = claims.iter().map(|c| c.max).sum();
        let total: f64 = d.allocations.iter().sum();
        if t >= sum_min && t <= sum_max {
            prop_assert!((total - t).abs() < 1e-3, "total {total} vs target {t}");
        }
        // interior allocations share one λ = alloc/share
        let lambdas: Vec<f64> = d
            .allocations
            .iter()
            .zip(&claims)
            .filter(|(a, c)| **a > c.min + 1e-6 && **a < c.max - 1e-6)
            .map(|(a, c)| a / c.share)
            .collect();
        for w in lambdas.windows(2) {
            prop_assert!((w[0] - w[1]).abs() / w[0].max(1e-9) < 1e-3);
        }
    }

    /// The 3-slot selector always returns at most k distinct, on-grid
    /// levels and never beats the exhaustive-free greedy on SSE.
    #[test]
    fn cluster_invariants(
        mhz in proptest::collection::vec(400u64..3800, 1..16),
        k in 1usize..5,
    ) {
        let g = grid();
        let targets: Vec<KiloHertz> =
            mhz.iter().map(|&m| g.round(KiloHertz::from_mhz(m))).collect();
        let out = cluster_to_slots(&targets, k, &g, ClusterStrategy::Mean);
        prop_assert_eq!(out.len(), targets.len());
        prop_assert!(distinct_levels(&out) <= k);
        for f in &out {
            prop_assert!(g.contains(*f), "{} off grid", f);
        }
        let greedy = greedy_cluster(&targets, k, &g);
        prop_assert!(sse_mhz(&targets, &out) <= sse_mhz(&targets, &greedy) + 1e-6);
    }

    /// Floor-strategy clusters never exceed any member's target.
    #[test]
    fn cluster_floor_never_exceeds(
        mhz in proptest::collection::vec(400u64..3800, 1..16),
    ) {
        let g = grid();
        let targets: Vec<KiloHertz> =
            mhz.iter().map(|&m| g.round(KiloHertz::from_mhz(m))).collect();
        let out = cluster_to_slots(&targets, 3, &g, ClusterStrategy::Floor);
        for (t, a) in targets.iter().zip(&out) {
            prop_assert!(a <= t);
        }
    }

    /// Frequency-grid quantization: round/floor/ceil always land on the
    /// grid, floor ≤ round ≤ ceil, and grid points are fixed points.
    #[test]
    fn grid_quantization_invariants(khz in 0u64..6_000_000) {
        let g = grid();
        let f = KiloHertz(khz);
        let (fl, rd, ce) = (g.floor(f), g.round(f), g.ceil(f));
        prop_assert!(g.contains(fl) && g.contains(rd) && g.contains(ce));
        prop_assert!(fl <= rd && rd <= ce);
        prop_assert_eq!(g.round(rd), rd);
    }

    /// Core power is monotone in frequency for any active load.
    #[test]
    fn power_monotone_in_frequency(
        cap in 0.1f64..3.0,
        util in 0.05f64..1.0,
        lo_mhz in 400u64..3700,
    ) {
        let p = PlatformSpec::ryzen().power;
        let load = LoadDescriptor { capacitance: cap, utilization: util, avx: false };
        let lo = KiloHertz::from_mhz(lo_mhz);
        let hi = KiloHertz::from_mhz(lo_mhz + 100);
        prop_assert!(p.core_power(lo, &load) <= p.core_power(hi, &load));
    }

    /// Voltage curves are monotone non-decreasing everywhere.
    #[test]
    fn voltage_monotone(mhz in 100u64..5000) {
        let c = VoltageCurve::linear(
            KiloHertz::from_mhz(400),
            per_app_power::simcpu::units::Volts(0.7),
            KiloHertz::from_mhz(3800),
            per_app_power::simcpu::units::Volts(1.42),
        );
        let a = c.voltage(KiloHertz::from_mhz(mhz));
        let b = c.voltage(KiloHertz::from_mhz(mhz + 50));
        prop_assert!(a <= b);
    }

    /// Energy-counter deltas survive arbitrary wraparound.
    #[test]
    fn energy_counter_wraps(start in 0.0f64..500_000.0, add in 0.0f64..1000.0) {
        let mut c = EnergyCounter::default();
        c.add(Joules(start));
        let before = c.read_raw();
        c.add(Joules(add));
        let after = c.read_raw();
        let d = EnergyCounter::delta_joules(before, after);
        prop_assert!((d.value() - add).abs() < 1e-3, "delta {} vs {add}", d.value());
    }

    /// The workload engine retires monotonically more instructions per
    /// tick at higher frequency, for every benchmark.
    #[test]
    fn engine_monotone_in_frequency(idx in 0usize..11, mhz in 800u64..2900) {
        let profile = spec::spec2017()[idx];
        let mut slow = RunningApp::once(profile);
        let mut fast = RunningApp::once(profile);
        let a = slow.advance(Seconds(0.01), KiloHertz::from_mhz(mhz));
        let b = fast.advance(Seconds(0.01), KiloHertz::from_mhz(mhz + 100));
        prop_assert!(b.instructions >= a.instructions);
    }

    /// Normalized performance is 1 at the reference and decreases with
    /// lower frequency.
    #[test]
    fn normalized_perf_properties(idx in 0usize..11, mhz in 800u64..2200) {
        let w = spec::spec2017()[idx];
        let reference = KiloHertz::from_mhz(2200);
        prop_assert!((w.normalized_performance(reference, reference) - 1.0).abs() < 1e-12);
        let p = w.normalized_performance(KiloHertz::from_mhz(mhz), reference);
        prop_assert!(p <= 1.0 + 1e-12);
        prop_assert!(p > 0.0);
    }
}

/// A bounded chaos profile: every knob at or below the default profile's
/// hostility, so the schedule is survivable by construction (a plan that
/// sticks the actuator on every core forever has no graceful answer).
fn arb_chaos_profile() -> impl Strategy<Value = ChaosProfile> {
    (
        (
            0usize..7,     // transient read faults
            any::<bool>(), // flaky reads
            any::<bool>(), // core power outage
            any::<bool>(), // package outage
            0usize..3,     // stuck writes
            0usize..2,     // write errors
        ),
        (
            0usize..3,     // noise cores
            0usize..3,     // glitches
            any::<bool>(), // rollover
            0usize..2,     // thermal events
        ),
    )
        .prop_map(
            |(
                (transient, flaky, core_out, pkg_out, stuck, werr),
                (noise, glitch, roll, thermal),
            )| {
                ChaosProfile {
                    transient_read_faults: transient,
                    flaky_reads: flaky,
                    core_power_outage: core_out,
                    package_outage: pkg_out,
                    stuck_writes: stuck,
                    write_errors: werr,
                    noise_cores: noise,
                    glitches: glitch,
                    rollover: roll,
                    thermal_events: thermal,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The resilient daemon holds the package cap — zero *sustained*
    /// ground-truth violations — under arbitrary bounded fault schedules,
    /// and nobody is starved on the way down the degradation ladder.
    #[test]
    fn cap_holds_under_arbitrary_fault_schedules(
        seed in 0u64..1_000_000,
        profile in arb_chaos_profile(),
    ) {
        let platform = chaos_platform();
        let plan = FaultPlan::chaos(seed, &profile, Seconds(60.0), platform.num_cores);
        let r = ChaosExperiment::new(platform, PolicyKind::PowerShares, Watts(30.0))
            .app("cactus", spec::CACTUS_BSSN, 70)
            .app("gcc", spec::GCC, 50)
            .app("leela", spec::LEELA, 30)
            .duration(Seconds(60.0))
            .plan(plan)
            .seed(seed)
            .run()
            .expect("chaos run failed outright");
        prop_assert_eq!(
            r.sustained_violations, 0,
            "seed {} profile {:?}: {:?}", seed, profile, r
        );
        prop_assert_eq!(r.starved, 0, "seed {}: {:?}", seed, r);
    }
}

/// A cluster of 3–4 nodes and a churn script of `(op, pick, count)`
/// steps: `op` chooses an admission, a batch of `count` admissions, a
/// departure, a quarantine or a restore; `pick` chooses the app or node.
fn arb_churn_script() -> impl Strategy<Value = (usize, Vec<(u8, usize, usize)>)> {
    (
        3usize..5,
        proptest::collection::vec((0u8..5, 0usize..64, 1usize..6), 1..=24),
    )
}

/// The invariants every churn step must keep: each node's daemon specs
/// and resident apps line up index by index, `reports()` lists exactly
/// the placed names, and refusing a duplicate admission or an unknown
/// departure changes nothing.
fn check_alignment(cluster: &mut Cluster, placed: &BTreeSet<String>, pick: usize) {
    for node in cluster.nodes() {
        let (specs, apps) = (node.specs(), node.apps());
        assert_eq!(specs.len(), apps.len(), "node {}", node.id());
        for (i, (spec, app)) in specs.iter().zip(apps).enumerate() {
            assert_eq!(spec.core, app.core, "node {} index {i}", node.id());
        }
    }
    let reports = cluster.reports();
    let names: Vec<&String> = reports.iter().map(|r| &r.name).collect();
    assert_eq!(names, placed.iter().collect::<Vec<_>>());
    if let Some(name) = placed.iter().nth(pick % placed.len().max(1)) {
        let dup = AppRequest::new(name.clone(), 10, DemandClass::Light);
        let refused = Err(ClusterError::DuplicateApp { app: name.clone() });
        assert_eq!(cluster.admit(&dup), refused);
        assert_eq!(
            cluster.admit_batch(std::slice::from_ref(&dup)),
            vec![refused]
        );
        assert_eq!(cluster.reports(), reports);
    }
    assert_eq!(
        cluster.depart("ghost"),
        Err(ClusterError::UnknownApp {
            app: "ghost".into()
        })
    );
    assert_eq!(cluster.reports(), reports);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random admissions, batch admissions, departures, quarantines and
    /// restores, with a control interval after each, keep every node's
    /// specs aligned with its apps and the placement map in step with
    /// the nodes.
    #[test]
    fn churn_keeps_specs_apps_and_placements_aligned((nodes, script) in arb_churn_script()) {
        let mut cfg = ClusterConfig::new(
            nodes,
            PolicyKind::FrequencyShares,
            Watts(45.0 * nodes as f64),
        );
        cfg.tick = Seconds(0.05);
        let mut cluster = Cluster::new(cfg).expect("the budget funds every node floor");
        let demands = [DemandClass::Heavy, DemandClass::Moderate, DemandClass::Light];
        let mut placed = BTreeSet::new();
        let mut arrivals = 0usize;
        for &(op, pick, count) in &script {
            match op {
                0 | 1 => {
                    let count = if op == 0 { 1 } else { count };
                    let reqs: Vec<AppRequest> = (arrivals..arrivals + count)
                        .map(|i| {
                            AppRequest::new(format!("t{i}"), 10 + 30 * (i % 4) as u32, demands[i % 3])
                        })
                        .collect();
                    arrivals += count;
                    let outcomes = if op == 0 {
                        vec![cluster.admit(&reqs[0])]
                    } else {
                        cluster.admit_batch(&reqs)
                    };
                    for (req, outcome) in reqs.iter().zip(outcomes) {
                        if outcome.is_ok() {
                            placed.insert(req.name.clone());
                        }
                    }
                }
                2 => {
                    if let Some(name) = placed.iter().nth(pick % placed.len().max(1)).cloned() {
                        prop_assert!(cluster.depart(&name).is_ok(), "{} is placed", name);
                        placed.remove(&name);
                    }
                }
                3 => {
                    for outcome in cluster.quarantine_node(pick % nodes).expect("a node id") {
                        if let RequeueOutcome::Dropped { app, .. } = outcome {
                            placed.remove(&app);
                        }
                    }
                }
                _ => cluster.restore_node(pick % nodes).expect("a node id"),
            }
            cluster.run(1);
            check_alignment(&mut cluster, &placed, pick);
        }
    }
}
