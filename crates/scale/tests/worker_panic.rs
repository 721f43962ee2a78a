//! A node that panics inside a shard worker must surface as a panic
//! from `run_sharded` instead of hanging the pool: the surviving
//! workers have to leave the epoch wait so `thread::scope` can join
//! them and re-raise.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use clusterd::{AppRequest, Cluster, ClusterConfig, DemandClass};
use pap_scale::{run_sharded, ScaleConfig};
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::core::CoreCounters;
use pap_simcpu::cstate::CState;
use pap_simcpu::error::Result;
use pap_simcpu::freq::KiloHertz;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::rapl::RaplController;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use powerd::config::PolicyKind;

/// `WideChip` with one fault: installing a load panics. Only a node
/// with a running app installs loads, so a cluster with one admitted
/// app has exactly one node that panics inside its shard worker.
struct PanicOnLoad(WideChip);

impl ChipLike for PanicOnLoad {
    fn shared(spec: Arc<PlatformSpec>) -> Self {
        PanicOnLoad(WideChip::shared(spec))
    }
    fn spec(&self) -> &PlatformSpec {
        self.0.spec()
    }
    fn num_cores(&self) -> usize {
        self.0.num_cores()
    }
    fn now(&self) -> Seconds {
        self.0.now()
    }
    fn set_requested_freq(&mut self, core: usize, f: KiloHertz) -> Result<()> {
        self.0.set_requested_freq(core, f)
    }
    fn set_all_requested(&mut self, freqs: &[KiloHertz]) -> Result<()> {
        self.0.set_all_requested(freqs)
    }
    fn requested_freq(&self, core: usize) -> KiloHertz {
        self.0.requested_freq(core)
    }
    fn effective_freq(&self, core: usize) -> KiloHertz {
        self.0.effective_freq(core)
    }
    fn set_load(&mut self, _core: usize, _load: LoadDescriptor) -> Result<()> {
        panic!("injected node fault");
    }
    fn set_forced_idle(&mut self, core: usize, idle: bool) -> Result<()> {
        self.0.set_forced_idle(core, idle)
    }
    fn set_idle_state(&mut self, core: usize, state: CState) -> Result<()> {
        self.0.set_idle_state(core, state)
    }
    fn add_instructions(&mut self, core: usize, n: u64) -> Result<()> {
        self.0.add_instructions(core, n)
    }
    fn set_rapl_limit(&mut self, limit: Option<Watts>) -> Result<()> {
        self.0.set_rapl_limit(limit)
    }
    fn rapl_cap(&self) -> Option<KiloHertz> {
        self.0.rapl_cap()
    }
    fn rapl_limit(&self) -> Option<Watts> {
        self.0.rapl_limit()
    }
    fn rapl_mut(&mut self) -> Option<&mut RaplController> {
        self.0.rapl_mut()
    }
    fn counters(&self, core: usize) -> CoreCounters {
        self.0.counters(core)
    }
    fn package_power(&self) -> Watts {
        self.0.package_power()
    }
    fn cores_power(&self) -> Watts {
        self.0.cores_power()
    }
    fn core_power(&self, core: usize) -> Result<Watts> {
        self.0.core_power(core)
    }
    fn package_energy_raw(&self) -> u32 {
        self.0.package_energy_raw()
    }
    fn cores_energy_raw(&self) -> u32 {
        self.0.cores_energy_raw()
    }
    fn core_energy_raw(&self, core: usize) -> Result<u32> {
        self.0.core_energy_raw(core)
    }
    fn active_cores(&self) -> usize {
        self.0.active_cores()
    }
    fn tick(&mut self, dt: Seconds) {
        self.0.tick(dt)
    }
    fn run_ticks(&mut self, n: usize, dt: Seconds) {
        self.0.run_ticks(n, dt)
    }
    fn steady_tick(&self, dt: Seconds) -> bool {
        self.0.steady_tick(dt)
    }
}

#[test]
fn a_panicking_node_propagates_instead_of_hanging_the_pool() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut cfg = ClusterConfig::new(4, PolicyKind::FrequencyShares, Watts(240.0));
        cfg.tick = Seconds(0.25);
        let mut cluster = Cluster::<PanicOnLoad>::with_backend(cfg).unwrap();
        cluster
            .admit(&AppRequest::new("doomed", 100, DemandClass::Heavy))
            .unwrap();
        let scale = ScaleConfig {
            shards: 2,
            chunk_nodes: 1,
            epsilon: 0.0,
        };
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| run_sharded(&mut cluster, 4, &scale)));
        tx.send((outcome.is_err(), cluster.nodes().len())).unwrap();
    });
    let (panicked, nodes_left) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("run_sharded hung after a shard worker panicked");
    assert!(panicked, "the node's panic reaches the caller");
    assert_eq!(
        nodes_left, 0,
        "a panicked run leaves the cluster without its nodes"
    );
}
