//! Extension: OS frequency governors (§2.2) on a bursty service core.
//!
//! A single-core closed-loop service (think one shard of websearch) runs
//! under each cpufreq governor. Utilization-driven governors trade tail
//! latency against power exactly as the kernel documentation promises:
//! `performance` burns the most power for the best tail, `powersave`
//! saturates the queue, `ondemand` races to max under load, and
//! `conservative` lags bursts.

use pap_bench::sweep::{self, Threads};
use pap_bench::{f1, Table};
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::Seconds;
use powerd::governor::{run_service, Governor};

fn main() {
    let governors = [
        ("performance", Governor::Performance),
        ("ondemand", Governor::ondemand()),
        ("conservative", Governor::conservative()),
        ("powersave", Governor::Powersave),
    ];
    let mut t = Table::new(
        "Extension: cpufreq governors on a bursty single-core service (40 users)",
        &["governor", "p90_ms", "pkg_w", "throughput_rps"],
    );
    let platform = PlatformSpec::skylake();
    let results = sweep::run(Threads::from_env(), governors.to_vec(), |(name, gov)| {
        let run = run_service(gov, &platform, 42, Seconds(60.0))
            .expect("core 0 exists and governors pick on-grid frequencies");
        (name, run)
    });
    for (name, run) in results {
        t.row(vec![
            name.into(),
            f1(run.p90_ms),
            f1(run.mean_w),
            f1(run.throughput),
        ]);
    }
    println!("{t}");
    println!(
        "Expected ordering: performance gives the best p90 at the highest \
         power; ondemand tracks it closely for less power; conservative lags \
         bursts (worse tail, similar power); powersave collapses the tail \
         once the 800 MHz core saturates. These governors act per-core on \
         local utilization — none can express cross-application shares, which \
         is the gap the paper's policies fill."
    );
}
