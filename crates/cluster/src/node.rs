//! One simulated machine of the cluster: a chip, its `powerd` daemon,
//! and the applications currently running on it.
//!
//! A node advances in whole control intervals — exactly the loop the
//! single-socket experiment runner uses (tick the apps and the chip,
//! then sample telemetry and let the daemon act) — so cluster results
//! are directly comparable to the paper's single-node experiments. All
//! state is owned: nodes on different threads share nothing (the
//! [`PlatformSpec`] is shared read-only through an [`Arc`]), which is
//! what lets the sharded engine reproduce the serial reference
//! bit-for-bit.
//!
//! [`Node`] is generic over its simulator backend through the
//! [`ChipLike`] seam and defaults to the struct-of-arrays
//! [`WideChip`], which steps 4–5× faster than the scalar
//! [`Chip`](pap_simcpu::chip::Chip) at fleet core counts while staying
//! bit-identical (`pap-simcpu`'s equivalence suite). Code that needs
//! the scalar backend writes `Node<Chip>`.

use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::rapl::settle_all;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::rollup::NodeTelemetry;
use pap_telemetry::sampler::{Sample, Sampler};
use pap_workloads::engine::RunningApp;
use pap_workloads::traces::LoadTrace;
use powerd::config::{AppSpec, DaemonConfig, PolicyKind, TranslationKind};
use powerd::daemon::{ActionView, Daemon, DaemonError};

use crate::admission::AppRequest;

/// An application resident on a node. Its [`AppSpec`] lives only in
/// the node daemon's config: [`Node::specs`] lists the specs in
/// [`Node::apps`] order.
#[derive(Debug)]
pub struct ResidentApp {
    /// The core the app is pinned to.
    pub core: usize,
    /// The simulated workload.
    pub engine: RunningApp,
    /// Optional offered-load trace modulating the app's demand over
    /// time (utilization and retired instructions scale by the trace's
    /// intensity at the node's simulated clock). `None` = steady
    /// full-demand, the historical behaviour.
    pub trace: Option<LoadTrace>,
}

/// One cluster node: chip + daemon + resident apps.
#[derive(Debug)]
pub struct Node<C: ChipLike = WideChip> {
    id: usize,
    platform: Arc<PlatformSpec>,
    chip: C,
    daemon: Daemon,
    sampler: Sampler,
    apps: Vec<ResidentApp>,
    parked: Vec<bool>,
    cap: Watts,
    interval: Seconds,
    tick: Seconds,
    /// Per-app instruction credits of the current interval (see
    /// [`Node::advance_interval`]), kept so a settled interval reuses it.
    credited: Vec<u64>,
    /// The interval's telemetry, refilled in place by the sampler.
    sample: Sample,
}

impl Node {
    /// Bring up an idle node on the default [`WideChip`] backend: an
    /// empty daemon config (all cores parked) under `policy` with an
    /// initial power cap of `cap`.
    pub fn new(
        id: usize,
        platform: &PlatformSpec,
        policy: PolicyKind,
        cap: Watts,
        interval: Seconds,
        tick: Seconds,
    ) -> Result<Node, DaemonError> {
        Node::with_chip(id, Arc::new(platform.clone()), policy, cap, interval, tick)
    }
}

impl<C: ChipLike> Node<C> {
    /// Bring up an idle node on an explicit backend, sharing the
    /// platform spec instead of cloning it per node (a fleet of 1024
    /// nodes holds one spec, not 1024 copies of its frequency grid and
    /// power curves).
    pub fn with_chip(
        id: usize,
        platform: Arc<PlatformSpec>,
        policy: PolicyKind,
        cap: Watts,
        interval: Seconds,
        tick: Seconds,
    ) -> Result<Node<C>, DaemonError> {
        let mut config = DaemonConfig::new(policy, cap, Vec::new());
        config.control_interval = interval;
        let mut chip = C::shared(Arc::clone(&platform));
        if policy == PolicyKind::RaplNative {
            chip.set_rapl_limit(Some(cap)).expect("platform has RAPL");
        }
        let mut daemon = Daemon::new(config, &platform)?;
        let action = daemon.initial();
        apply(&mut chip, action.view());
        let sampler = Sampler::new(&chip);
        Ok(Node {
            id,
            platform,
            chip,
            daemon,
            sampler,
            apps: Vec::new(),
            parked: action.parked,
            cap,
            interval,
            tick,
            credited: Vec::new(),
            sample: Sample::empty(),
        })
    }

    /// Node id within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's current power cap.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Select which budget-to-frequency translation the node's daemon
    /// uses ([`TranslationKind::Naive`] is the paper's α model).
    pub fn set_translation(&mut self, kind: TranslationKind) {
        self.daemon.set_translation(kind);
    }

    /// The daemon's learned prediction of this node's maximum package
    /// draw, when its online power model is confident. Only published
    /// under [`TranslationKind::Online`] so that naive clusters arbitrate
    /// exactly as before the learned model existed.
    pub fn predicted_capacity(&self) -> Option<Watts> {
        match self.daemon.translation() {
            TranslationKind::Online => self.daemon.predicted_capacity(),
            TranslationKind::Naive => None,
        }
    }

    /// Cores with an app pinned.
    pub fn busy_cores(&self) -> usize {
        self.apps.len()
    }

    /// Cores available for placement.
    pub fn free_cores(&self) -> usize {
        self.platform.num_cores - self.apps.len()
    }

    /// Occupied fraction of the node's cores.
    pub fn saturation(&self) -> f64 {
        self.apps.len() as f64 / self.platform.num_cores as f64
    }

    /// Sum of resident apps' shares.
    pub fn total_shares(&self) -> f64 {
        self.specs().iter().map(|s| s.shares as f64).sum()
    }

    /// The apps currently resident, for reporting.
    pub fn apps(&self) -> &[ResidentApp] {
        &self.apps
    }

    /// The resident apps' specs, as registered with the node's daemon,
    /// in [`Node::apps`] order: both grow by a push on admission and
    /// lose the same index, order preserved, on departure.
    pub fn specs(&self) -> &[AppSpec] {
        &self.daemon.config().apps
    }

    /// Place a requested app on the lowest free core. The daemon
    /// validates the grown config atomically; on error the node is
    /// unchanged. The app starts at the next control interval, when the
    /// daemon re-runs its initial distribution over the new app set.
    pub fn admit(&mut self, req: &AppRequest) -> Result<usize, DaemonError> {
        self.admit_traced(req, None)
    }

    /// [`Node::admit`], with an optional offered-load trace attached:
    /// the app's demand follows `trace` (diurnal, bursty, piecewise)
    /// instead of running flat out.
    pub fn admit_traced(
        &mut self,
        req: &AppRequest,
        trace: Option<LoadTrace>,
    ) -> Result<usize, DaemonError> {
        let core = (0..self.platform.num_cores)
            .find(|&c| self.apps.iter().all(|a| a.core != c))
            .ok_or_else(|| {
                DaemonError::Config(powerd::config::ConfigError::CoreOutOfRange {
                    app: req.name.clone(),
                    core: self.platform.num_cores,
                    num_cores: self.platform.num_cores,
                })
            })?;
        let profile = req.demand.profile();
        let spec = AppSpec::new(req.name.clone(), core)
            .with_priority(req.priority)
            .with_shares(req.shares)
            .with_baseline_ips(profile.ips(self.platform.grid.max()));
        self.daemon.add_app(spec)?;
        self.apps.push(ResidentApp {
            core,
            engine: RunningApp::looping(profile),
            trace,
        });
        Ok(core)
    }

    /// Remove a resident app by name. Its core parks immediately (the
    /// workload is gone; leaving the chip's stale load descriptor
    /// burning power until the next daemon action would charge the node
    /// for a phantom app).
    pub fn depart(&mut self, name: &str) -> Result<AppSpec, DaemonError> {
        let spec = self.daemon.remove_app(name)?;
        // The daemon removed the spec at its index in `specs()`, the
        // index of the one app on its core: remove that app the same way.
        let idx = self
            .apps
            .iter()
            .position(|a| a.core == spec.core)
            .expect("every spec has its resident app");
        self.apps.remove(idx);
        self.chip
            .set_forced_idle(spec.core, true)
            .expect("core in range");
        self.parked[spec.core] = true;
        Ok(spec)
    }

    /// Change the node's power cap (validated against the platform's
    /// RAPL range by the daemon; RAPL-native nodes reprogram the chip's
    /// hardware limit too).
    pub fn retarget(&mut self, cap: Watts) -> Result<(), DaemonError> {
        self.daemon.retarget_budget(cap)?;
        if self.daemon.config().policy == PolicyKind::RaplNative {
            self.chip
                .set_rapl_limit(Some(cap))
                .expect("platform has RAPL");
        }
        self.cap = cap;
        Ok(())
    }

    /// Whether every running app's next advance is a pure memo replay
    /// whose load equals the descriptor already installed on its core
    /// (parked apps don't touch the chip and can't break steadiness;
    /// traced apps modulate utilization with time and always can).
    fn apps_steady(&self) -> bool {
        self.apps.iter().all(|a| {
            self.parked[a.core]
                || (a.trace.is_none()
                    && a.engine
                        .steady_at(self.tick, self.chip.effective_freq(a.core)))
        })
    }

    /// Advance one control interval: tick every unparked app and the
    /// chip, then sample telemetry and apply the daemon's decision.
    /// Returns the node's telemetry summary for the cluster roll-up.
    /// Once the app set has settled, an interval allocates nothing.
    pub fn advance_interval(&mut self) -> NodeTelemetry {
        let steps = (self.interval.value() / self.tick.value()).round() as usize;
        // Per-app instruction credits, accumulated across the interval's
        // ticks and flushed to the chip once before sampling. Nothing
        // reads the chip's instruction counters until the sample below,
        // and u64 wrapping adds commute, so one bulk credit is exactly
        // the per-tick sequence — while skipping a chip call per app per
        // tick.
        self.credited.clear();
        self.credited.resize(self.apps.len(), 0);
        let steps = steps.max(1);
        let mut t = 0;
        while t < steps {
            // Steady fast path: when the chip's next tick is a pure
            // replay and every running app's next advance is a memo
            // replay of the load already installed, nothing the rest of
            // this interval does can change a chip input — so advance
            // each app through the remaining ticks in one call (exact
            // per-tick state sequence, including run wraps) and replay
            // the chip ticks in one batch. Bit-identical to the per-tick
            // loop; the scalar reference backend never reports steady.
            if self.chip.steady_tick(self.tick) && self.apps_steady() {
                let k = steps - t;
                for (app, credit) in self.apps.iter_mut().zip(self.credited.iter_mut()) {
                    let core = app.core;
                    if self.parked[core] {
                        continue;
                    }
                    let f = self.chip.effective_freq(core);
                    *credit = credit.wrapping_add(app.engine.advance_steady(k, self.tick, f));
                }
                self.chip.run_ticks(k, self.tick);
                break;
            }
            for (app, credit) in self.apps.iter_mut().zip(self.credited.iter_mut()) {
                let core = app.core;
                if self.parked[core] {
                    continue;
                }
                let f = self.chip.effective_freq(core);
                let out = app.engine.advance(self.tick, f);
                let (load, instructions) = match &app.trace {
                    Some(trace) => {
                        let s = trace.intensity(self.chip.now()).clamp(0.0, 1.0);
                        let mut load = out.load;
                        load.utilization *= s;
                        (load, (out.instructions as f64 * s) as u64)
                    }
                    None => (out.load, out.instructions),
                };
                self.chip.set_load(core, load).expect("core in range");
                *credit = credit.wrapping_add(instructions);
            }
            self.chip.tick(self.tick);
            t += 1;
        }
        for (app, &credit) in self.apps.iter().zip(&self.credited) {
            self.chip
                .add_instructions(app.core, credit)
                .expect("core in range");
        }
        let sampled = self.sampler.sample_into(&self.chip, &mut self.sample);
        assert!(sampled, "a whole control interval elapsed");
        let action = self.daemon.step_view(&self.sample);
        apply(&mut self.chip, action);
        self.parked.copy_from_slice(action.parked);
        NodeTelemetry::from_sample(
            self.id,
            &self.sample,
            self.cap,
            self.busy_cores(),
            self.total_shares(),
        )
        .with_predicted_capacity(self.predicted_capacity())
    }

    /// Fold the RAPL running averages that steady intervals of `nodes`
    /// deferred ([`RaplController::observe_steady`]), side by side
    /// through [`settle_all`]. Bit-identical to letting each chip settle
    /// lazily on its next read; allocation-free.
    ///
    /// [`RaplController::observe_steady`]: pap_simcpu::rapl::RaplController::observe_steady
    pub fn settle_rapl(nodes: &mut [Node<C>]) {
        settle_all(nodes.iter_mut().filter_map(|n| n.chip.rapl_mut()));
    }
}

fn apply<C: ChipLike>(chip: &mut C, action: ActionView<'_>) {
    chip.set_all_requested(action.freqs)
        .expect("daemon emits grid/slot-valid frequencies");
    for (core, &p) in action.parked.iter().enumerate() {
        chip.set_forced_idle(core, p).expect("core in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DemandClass;

    fn node() -> Node {
        Node::new(
            0,
            &PlatformSpec::skylake(),
            PolicyKind::FrequencyShares,
            Watts(45.0),
            Seconds(1.0),
            Seconds(0.001),
        )
        .unwrap()
    }

    #[test]
    fn idle_node_draws_little() {
        let mut n = node();
        assert_eq!(n.free_cores(), 10);
        let t = n.advance_interval();
        assert_eq!(t.busy_cores, 0);
        assert!(
            t.package_power.value() < 15.0,
            "all-parked node draws only package idle power, drew {}",
            t.package_power
        );
    }

    #[test]
    fn admitted_app_runs_next_interval() {
        let mut n = node();
        let core = n
            .admit(&AppRequest::new("hog", 100, DemandClass::Heavy))
            .unwrap();
        assert_eq!(core, 0);
        assert_eq!(n.busy_cores(), 1);
        // interval 1 bootstraps the daemon's initial distribution;
        // interval 2 actually runs the app
        n.advance_interval();
        let t = n.advance_interval();
        assert!(
            t.total_ips > 1e8,
            "app retires instructions, got {}",
            t.total_ips
        );
        assert!(
            t.package_power.value() > 15.0,
            "busy node draws above package idle"
        );
    }

    #[test]
    fn departure_parks_core_and_frees_it() {
        let mut n = node();
        n.admit(&AppRequest::new("a", 50, DemandClass::Light))
            .unwrap();
        n.admit(&AppRequest::new("b", 50, DemandClass::Light))
            .unwrap();
        n.advance_interval();
        n.advance_interval();
        let spec = n.depart("a").unwrap();
        assert_eq!(spec.core, 0);
        assert_eq!(n.free_cores(), 9);
        let t = n.advance_interval();
        assert_eq!(t.busy_cores, 1);
        // core 0 is free again for the next admission
        let core = n
            .admit(&AppRequest::new("c", 50, DemandClass::Light))
            .unwrap();
        assert_eq!(core, 0);
    }

    #[test]
    fn retarget_steers_node_power() {
        let mut n = node();
        for i in 0..6 {
            n.admit(&AppRequest::new(format!("a{i}"), 100, DemandClass::Heavy))
                .unwrap();
        }
        for _ in 0..8 {
            n.advance_interval();
        }
        let before = n.advance_interval().package_power;
        n.retarget(Watts(25.0)).unwrap();
        for _ in 0..8 {
            n.advance_interval();
        }
        let after = n.advance_interval().package_power;
        assert!(
            after.value() < before.value() - 5.0,
            "25 W cap must bite: {before} -> {after}"
        );
        assert!(n.retarget(Watts(5.0)).is_err(), "below RAPL floor rejected");
    }

    #[test]
    fn traced_app_demand_follows_the_trace() {
        let mut low = node();
        low.admit_traced(
            &AppRequest::new("t", 100, DemandClass::Heavy),
            Some(LoadTrace::Flat(0.2)),
        )
        .unwrap();
        low.advance_interval();
        let throttled = low.advance_interval();

        let mut full = node();
        full.admit(&AppRequest::new("t", 100, DemandClass::Heavy))
            .unwrap();
        full.advance_interval();
        let flat_out = full.advance_interval();

        assert!(
            throttled.total_ips < flat_out.total_ips * 0.5,
            "a 0.2-intensity trace must cut retirement: {} vs {}",
            throttled.total_ips,
            flat_out.total_ips
        );
    }

    #[test]
    fn full_node_rejects_admission() {
        let mut n = node();
        for i in 0..10 {
            n.admit(&AppRequest::new(format!("a{i}"), 10, DemandClass::Light))
                .unwrap();
        }
        assert_eq!(n.free_cores(), 0);
        assert!(n
            .admit(&AppRequest::new("x", 10, DemandClass::Light))
            .is_err());
    }
}
