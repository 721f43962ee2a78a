//! The cluster: many nodes under one global power budget, with dynamic
//! admission, departures, periodic hierarchical rebalancing, and a
//! serial reference engine (the sharded engine, `pap_scale::run_sharded`,
//! must reproduce it exactly).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::platform::PlatformSpec;
use pap_simcpu::units::{Seconds, Watts};
use pap_simcpu::widechip::WideChip;
use pap_telemetry::rollup::{ClusterRollup, NodeTelemetry};
use pap_workloads::traces::LoadTrace;
use powerd::config::{AppSpec, PolicyKind, Priority, TranslationKind};
use powerd::daemon::{DaemonError, MemoStats};
use powerd::obs::{DecisionEvent, DecisionRecord, DecisionTrace};

use crate::admission::{AppRequest, DemandClass, Placement};
use crate::allocator::{claims_from_rollup, node_cap_bounds, BudgetAllocator, NodeClaim};
use crate::node::Node;

/// Everything needed to bring up a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (all share one platform model).
    pub nodes: usize,
    /// The chip model every node runs.
    pub platform: PlatformSpec,
    /// The per-node daemon policy.
    pub policy: PolicyKind,
    /// The one global power budget split across nodes.
    pub cluster_cap: Watts,
    /// Length of one control interval.
    pub control_interval: Seconds,
    /// Simulation tick within an interval.
    pub tick: Seconds,
    /// Rebalance node caps every this many intervals (0 = never; the
    /// initial even split then stands for the whole run, which is the
    /// static RAPL-per-node baseline).
    pub rebalance_every: u64,
    /// Which budget-to-frequency translation every node daemon uses.
    /// Under [`TranslationKind::Online`] nodes also publish their
    /// learned capacity predictions, which the allocator uses to clamp
    /// claim ceilings at rebalance time.
    pub translation: TranslationKind,
}

impl ClusterConfig {
    /// A Skylake cluster with 1 s control intervals, 1 ms ticks, and
    /// rebalancing every 4 intervals.
    pub fn new(nodes: usize, policy: PolicyKind, cluster_cap: Watts) -> ClusterConfig {
        ClusterConfig {
            nodes,
            platform: PlatformSpec::skylake(),
            policy,
            cluster_cap,
            control_interval: Seconds(1.0),
            tick: Seconds(0.001),
            rebalance_every: 4,
            translation: TranslationKind::Naive,
        }
    }
}

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A node daemon rejected the operation.
    Daemon(DaemonError),
    /// Every core of every node is occupied.
    ClusterFull {
        /// The app that could not be placed.
        app: String,
        /// Total cores in the cluster, all busy.
        cores: usize,
    },
    /// An app with this name is already placed.
    DuplicateApp {
        /// The offending name.
        app: String,
    },
    /// No app with this name is placed.
    UnknownApp {
        /// The name looked up.
        app: String,
    },
    /// The global budget cannot fund every node's platform floor.
    InsufficientBudget {
        /// The configured cluster cap.
        cap: Watts,
        /// Minimum budget the node floors require.
        required: Watts,
    },
    /// A cluster needs at least one node.
    NoNodes,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Daemon(e) => write!(f, "node daemon: {e}"),
            ClusterError::ClusterFull { app, cores } => {
                write!(
                    f,
                    "cluster full: no free core for '{app}' ({cores} cores all busy)"
                )
            }
            ClusterError::DuplicateApp { app } => {
                write!(f, "app '{app}' is already placed")
            }
            ClusterError::UnknownApp { app } => write!(f, "no app named '{app}'"),
            ClusterError::InsufficientBudget { cap, required } => write!(
                f,
                "cluster cap {cap} cannot fund node power floors (needs at least {required})"
            ),
            ClusterError::NoNodes => write!(f, "cluster needs at least one node"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Daemon(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DaemonError> for ClusterError {
    fn from(e: DaemonError) -> ClusterError {
        ClusterError::Daemon(e)
    }
}

/// Final per-app accounting, for fairness and throughput reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// App name.
    pub name: String,
    /// Node it ran on.
    pub node: usize,
    /// Core it was pinned to.
    pub core: usize,
    /// Its proportional shares.
    pub shares: u32,
    /// Instructions retired over the whole run.
    pub total_instructions: u64,
    /// Standalone instruction rate at max frequency.
    pub baseline_ips: f64,
}

impl AppReport {
    /// Performance normalized to the app's standalone rate: achieved
    /// IPS over `elapsed` divided by `baseline_ips`.
    pub fn normalized_perf(&self, elapsed: Seconds) -> f64 {
        if elapsed.value() <= 0.0 || self.baseline_ips <= 0.0 {
            return 0.0;
        }
        (self.total_instructions as f64 / elapsed.value()) / self.baseline_ips
    }
}

/// What happened to one app when its node was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum RequeueOutcome {
    /// The app found a core on a healthy node.
    Requeued {
        /// App name.
        app: String,
        /// Where it landed.
        placement: Placement,
    },
    /// No healthy node could take the app; it left the cluster.
    Dropped {
        /// App name.
        app: String,
        /// Why re-admission failed.
        error: ClusterError,
    },
}

/// Where a placed app runs, and the rest of its [`AppRequest`] (the name
/// is the placement map's key), kept so quarantine can re-admit it.
#[derive(Debug, Clone, Copy)]
struct Placed {
    node: usize,
    priority: Priority,
    shares: u32,
    demand: DemandClass,
}

impl Placed {
    fn new(node: usize, req: &AppRequest) -> Placed {
        Placed {
            node,
            priority: req.priority,
            shares: req.shares,
            demand: req.demand,
        }
    }

    /// The request that placed the app named `name`.
    fn request(&self, name: String) -> AppRequest {
        AppRequest {
            name,
            priority: self.priority,
            shares: self.shares,
            demand: self.demand,
        }
    }
}

/// A running cluster. Admission, departures, and the serial engine live
/// here; `pap_scale::run_sharded` drives the same nodes concurrently
/// through [`EngineSeam`].
///
/// Generic over the node simulator backend through the [`ChipLike`]
/// seam, defaulting to the batch [`WideChip`]; `Cluster<Chip>` gets the
/// scalar reference backend (the two are bit-identical — see
/// `ext_fleet`).
#[derive(Debug)]
pub struct Cluster<C: ChipLike = WideChip> {
    cfg: ClusterConfig,
    nodes: Vec<Node<C>>,
    allocator: BudgetAllocator,
    /// Every placed app by name: one lookup per arrival or departure.
    placed: HashMap<String, Placed>,
    quarantined: Vec<bool>,
    intervals_run: u64,
    energy_j: f64,
    last_rollup: Option<ClusterRollup>,
    /// Decision-trace observer: one record with `source = "cluster"` per
    /// rebalance round. `None` (the default) keeps observability
    /// strictly off-path.
    observer: Option<DecisionTrace>,
}

impl Cluster {
    /// Bring up an idle cluster on the default [`WideChip`] backend.
    /// See [`Cluster::with_backend`].
    pub fn new(cfg: ClusterConfig) -> Result<Cluster, ClusterError> {
        Cluster::with_backend(cfg)
    }
}

impl<C: ChipLike> Cluster<C> {
    /// Bring up an idle cluster on an explicit backend. The global
    /// budget must at least fund every node's platform power floor; the
    /// initial split is even (clamped to the platform range), so with
    /// `rebalance_every == 0` this is exactly the static RAPL-per-node
    /// baseline. All nodes share one [`Arc`]ed platform spec.
    pub fn with_backend(cfg: ClusterConfig) -> Result<Cluster<C>, ClusterError> {
        if cfg.nodes == 0 {
            return Err(ClusterError::NoNodes);
        }
        let (min, max) = node_cap_bounds(&cfg.platform);
        let required = Watts(min.value() * cfg.nodes as f64);
        if cfg.cluster_cap.value() < required.value() {
            return Err(ClusterError::InsufficientBudget {
                cap: cfg.cluster_cap,
                required,
            });
        }
        let even =
            Watts((cfg.cluster_cap.value() / cfg.nodes as f64).clamp(min.value(), max.value()));
        let platform = Arc::new(cfg.platform.clone());
        let nodes = (0..cfg.nodes)
            .map(|id| {
                Node::with_chip(
                    id,
                    Arc::clone(&platform),
                    cfg.policy,
                    even,
                    cfg.control_interval,
                    cfg.tick,
                )
                .map(|mut n| {
                    n.set_translation(cfg.translation);
                    n
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cluster {
            allocator: BudgetAllocator::new(cfg.cluster_cap),
            nodes,
            placed: HashMap::new(),
            quarantined: vec![false; cfg.nodes],
            intervals_run: 0,
            energy_j: 0.0,
            last_rollup: None,
            observer: None,
            cfg,
        })
    }

    /// Always `None`: node daemons run their policy every interval.
    /// Delete with the benchmark change that drops `powerd.memo.hit_frac`.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        None
    }

    /// Attach a decision-trace observer; each subsequent rebalance round
    /// appends one [`DecisionRecord`] with `source = "cluster"`.
    pub fn attach_observer(&mut self, trace: DecisionTrace) {
        self.observer = Some(trace);
    }

    /// The attached decision trace, if any.
    pub fn observer(&self) -> Option<&DecisionTrace> {
        self.observer.as_ref()
    }

    /// Detach and return the decision trace (e.g. at end of run).
    pub fn take_observer(&mut self) -> Option<DecisionTrace> {
        self.observer.take()
    }

    /// Place an arriving app on the least-saturated node with a free
    /// core, spilling to the next candidate if that node's daemon
    /// rejects it. Fails with [`ClusterError::ClusterFull`] when every
    /// core in the cluster is occupied.
    pub fn admit(&mut self, req: &AppRequest) -> Result<Placement, ClusterError> {
        self.admit_with(req, None)
    }

    /// [`Cluster::admit`], attaching an offered-load trace to the app:
    /// its demand on whichever node accepts it follows the trace
    /// instead of running flat out.
    pub fn admit_traced(
        &mut self,
        req: &AppRequest,
        trace: LoadTrace,
    ) -> Result<Placement, ClusterError> {
        self.admit_with(req, Some(trace))
    }

    fn admit_with(
        &mut self,
        req: &AppRequest,
        trace: Option<LoadTrace>,
    ) -> Result<Placement, ClusterError> {
        let cores = self.total_cores();
        let Entry::Vacant(slot) = self.placed.entry(req.name.clone()) else {
            return Err(ClusterError::DuplicateApp {
                app: req.name.clone(),
            });
        };
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.nodes[a]
                .saturation()
                .total_cmp(&self.nodes[b].saturation())
                .then(a.cmp(&b))
        });
        let mut last_err = None;
        for i in order {
            if self.quarantined[i] || self.nodes[i].free_cores() == 0 {
                continue;
            }
            match self.nodes[i].admit_traced(req, trace.clone()) {
                Ok(core) => {
                    slot.insert(Placed::new(i, req));
                    return Ok(Placement { node: i, core });
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(ClusterError::Daemon(e)),
            None => Err(ClusterError::ClusterFull {
                app: req.name.clone(),
                cores,
            }),
        }
    }

    /// Admit a batch of arriving apps, in request order, returning one
    /// outcome per request. Outcome-identical to calling
    /// [`Cluster::admit`] once per request, but placement costs
    /// O(log nodes) per app instead of a fresh O(nodes log nodes)
    /// candidate sort — the difference between minutes and milliseconds
    /// when a day of tenant churn lands on a 1000-node cluster.
    ///
    /// Equivalence argument: sequential admission orders candidates by
    /// `(saturation, id)`, and every node runs the same platform, so
    /// that order is exactly `(busy_cores, id)` — which a min-heap
    /// maintains incrementally as the batch places apps.
    pub fn admit_batch(&mut self, reqs: &[AppRequest]) -> Vec<Result<Placement, ClusterError>> {
        // Full and quarantined nodes start outside the heap; a node that
        // fills mid-batch is simply not pushed back.
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| !self.quarantined[*i] && n.free_cores() > 0)
            .map(|(i, n)| Reverse((n.busy_cores(), i)))
            .collect();
        let cores = self.total_cores();
        let mut out = Vec::with_capacity(reqs.len());
        let mut spilled = Vec::new();
        for req in reqs {
            let Entry::Vacant(slot) = self.placed.entry(req.name.clone()) else {
                out.push(Err(ClusterError::DuplicateApp {
                    app: req.name.clone(),
                }));
                continue;
            };
            let mut placed = None;
            let mut last_err = None;
            while let Some(Reverse((busy, i))) = heap.pop() {
                match self.nodes[i].admit(req) {
                    Ok(core) => {
                        slot.insert(Placed::new(i, req));
                        if self.nodes[i].free_cores() > 0 {
                            heap.push(Reverse((busy + 1, i)));
                        }
                        placed = Some(Placement { node: i, core });
                        break;
                    }
                    // A daemon rejection is app-specific; the node stays
                    // a candidate for the rest of the batch.
                    Err(e) => {
                        last_err = Some(e);
                        spilled.push(Reverse((busy, i)));
                    }
                }
            }
            heap.extend(spilled.drain(..));
            out.push(match placed {
                Some(p) => Ok(p),
                None => Err(match last_err {
                    Some(e) => ClusterError::Daemon(e),
                    None => ClusterError::ClusterFull {
                        app: req.name.clone(),
                        cores,
                    },
                }),
            });
        }
        out
    }

    /// Depart a batch of apps, in order, returning one outcome per
    /// name. The batched counterpart of [`Cluster::admit_batch`] for
    /// per-epoch churn application.
    pub fn depart_batch(&mut self, names: &[String]) -> Vec<Result<AppSpec, ClusterError>> {
        names.iter().map(|n| self.depart(n)).collect()
    }

    /// Remove an app; its core parks immediately and its budget claim
    /// dissolves at the next rebalance.
    pub fn depart(&mut self, name: &str) -> Result<AppSpec, ClusterError> {
        let (key, placed) = self
            .placed
            .remove_entry(name)
            .ok_or_else(|| ClusterError::UnknownApp { app: name.into() })?;
        self.nodes[placed.node].depart(name).map_err(|e| {
            // The node refused: the app stays placed.
            self.placed.insert(key, placed);
            e.into()
        })
    }

    /// Take an unhealthy node out of service: every resident app is
    /// departed and requeued through the normal admission spill (which
    /// skips quarantined nodes), and the node stops receiving
    /// placements. Its budget claim dissolves at the next rebalance —
    /// with no apps its share weight is zero and its ceiling is revoked
    /// toward idle draw, so the allocator hands its power to healthy
    /// nodes. Apps no healthy node can hold are reported as
    /// [`RequeueOutcome::Dropped`] and leave the cluster.
    pub fn quarantine_node(&mut self, node: usize) -> Result<Vec<RequeueOutcome>, ClusterError> {
        if node >= self.nodes.len() {
            return Err(ClusterError::NoNodes);
        }
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        self.quarantined[node] = true;
        let evicted: Vec<String> = self.nodes[node]
            .specs()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        let mut outcomes = Vec::with_capacity(evicted.len());
        for name in evicted {
            let placed = self.placed[&name];
            self.depart(&name)?;
            let req = placed.request(name);
            match self.admit(&req) {
                Ok(placement) => outcomes.push(RequeueOutcome::Requeued {
                    app: req.name,
                    placement,
                }),
                Err(error) => outcomes.push(RequeueOutcome::Dropped {
                    app: req.name,
                    error,
                }),
            }
        }
        let requeued = outcomes
            .iter()
            .filter(|o| matches!(o, RequeueOutcome::Requeued { .. }))
            .count();
        self.push_ops_record(
            DecisionEvent::Quarantine {
                node,
                evicted: outcomes.len(),
                requeued,
                dropped: outcomes.len() - requeued,
            },
            started,
        );
        Ok(outcomes)
    }

    /// Return a quarantined node to service. Nothing moves back
    /// proactively; the node simply becomes eligible for future
    /// admissions and wins budget again once it holds apps.
    pub fn restore_node(&mut self, node: usize) -> Result<(), ClusterError> {
        if node >= self.nodes.len() {
            return Err(ClusterError::NoNodes);
        }
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        self.quarantined[node] = false;
        self.push_ops_record(DecisionEvent::Restore { node }, started);
        Ok(())
    }

    /// Append a cluster-operations record (quarantine/restore) to the
    /// observer, when one is attached. `source = "cluster-ops"` keeps
    /// these distinct from the arbiter's per-rebalance `"cluster"`
    /// records (which also drive the rebalance counter).
    fn push_ops_record(&mut self, event: DecisionEvent, started: Option<std::time::Instant>) {
        if self.observer.is_none() {
            return;
        }
        let record = DecisionRecord {
            time: self.elapsed(),
            source: "cluster-ops",
            policy: self.cfg.policy.name(),
            level: None,
            budget: self.cfg.cluster_cap,
            measured: self.last_rollup.as_ref().map(|r| r.total_power()),
            translation: self.cfg.translation.name(),
            model_confident: false,
            apps: Vec::new(),
            events: vec![event],
            latency: Seconds(started.map_or(0.0, |s| s.elapsed().as_secs_f64())),
        };
        if let Some(obs) = self.observer.as_mut() {
            obs.push(record);
        }
    }

    /// Whether a node is currently quarantined.
    pub fn is_node_quarantined(&self, node: usize) -> bool {
        self.quarantined.get(node).copied().unwrap_or(false)
    }

    /// Serial reference engine: advance every node one control interval
    /// (in node order), settle the RAPL averages the interval deferred
    /// side by side, aggregate telemetry, and rebalance when due.
    /// The sharded engine must produce bit-identical state.
    pub fn run(&mut self, intervals: u64) {
        for _ in 0..intervals {
            let teles: Vec<NodeTelemetry> = self
                .nodes
                .iter_mut()
                .map(|n| n.advance_interval())
                .collect();
            Node::settle_rapl(&mut self.nodes);
            let rollup = ClusterRollup::new(self.cfg.control_interval, teles);
            self.intervals_run += 1;
            self.energy_j += rollup.total_power().value() * self.cfg.control_interval.value();
            if self.rebalance_due() {
                self.apply_rebalance(&rollup);
            }
            self.last_rollup = Some(rollup);
        }
    }

    fn rebalance_due(&self) -> bool {
        self.cfg.rebalance_every > 0 && self.intervals_run.is_multiple_of(self.cfg.rebalance_every)
    }

    fn apply_rebalance(&mut self, rollup: &ClusterRollup) {
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        let claims = claims_from_rollup(&self.cfg.platform, rollup);
        let caps = self.allocator.rebalance(&claims);
        if self.observer.is_some() {
            let record = rebalance_record(
                &self.cfg,
                rollup,
                &claims,
                &caps,
                self.intervals_run,
                started,
            );
            if let Some(obs) = self.observer.as_mut() {
                obs.push(record);
            }
        }
        for (node, cap) in self.nodes.iter_mut().zip(caps) {
            node.retarget(cap)
                .expect("allocator output stays within platform bounds");
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total cores across all nodes.
    pub fn total_cores(&self) -> usize {
        self.nodes.len() * self.cfg.platform.num_cores
    }

    /// Free cores across all nodes.
    pub fn free_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.free_cores()).sum()
    }

    /// Control intervals simulated so far.
    pub fn intervals_run(&self) -> u64 {
        self.intervals_run
    }

    /// Simulated time elapsed.
    pub fn elapsed(&self) -> Seconds {
        Seconds(self.intervals_run as f64 * self.cfg.control_interval.value())
    }

    /// Total cluster energy consumed (J) over all intervals run.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Mean cluster power draw over the whole run.
    pub fn mean_power(&self) -> Watts {
        let t = self.elapsed().value();
        if t <= 0.0 {
            return Watts(0.0);
        }
        Watts(self.energy_j / t)
    }

    /// The most recent telemetry roll-up.
    pub fn last_rollup(&self) -> Option<&ClusterRollup> {
        self.last_rollup.as_ref()
    }

    /// Current per-node power caps, in node order.
    pub fn node_caps(&self) -> Vec<Watts> {
        self.nodes.iter().map(|n| n.cap()).collect()
    }

    /// The nodes, in id order.
    pub fn nodes(&self) -> &[Node<C>] {
        &self.nodes
    }

    /// Per-app accounting for every currently-placed app, sorted by
    /// name for stable comparison.
    pub fn reports(&self) -> Vec<AppReport> {
        let mut out: Vec<AppReport> = self
            .nodes
            .iter()
            .flat_map(|n| {
                n.specs().iter().zip(n.apps()).map(|(s, a)| AppReport {
                    name: s.name.clone(),
                    node: n.id(),
                    core: s.core,
                    shares: s.shares,
                    total_instructions: a.engine.total_retired(),
                    baseline_ips: s.baseline_ips,
                })
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Detached engine state: everything an external engine (the sharded
/// control plane in `pap-scale`) needs to drive a cluster's nodes
/// itself and still leave the [`Cluster`] in exactly the state the
/// serial reference would have produced. Obtained from
/// [`Cluster::detach_engine`]; hand it back with
/// [`Cluster::attach_engine`] when the run is over.
///
/// The seam deliberately exposes the arbiter as two halves so external
/// engines can defer actuation: [`EngineSeam::rebalance`] computes the
/// new per-node caps (and emits the same [`DecisionRecord`] the serial
/// engine would), while *applying* those caps to the nodes is the
/// caller's job — a sharded engine publishes them as pending caps and
/// retargets each node at the start of its next local step, which is
/// observationally identical to the serial engine retargeting at the
/// end of the interval (no chip ticks happen in between either way).
#[derive(Debug)]
pub struct EngineSeam<C: ChipLike = WideChip> {
    nodes: Vec<Node<C>>,
    observer: Option<DecisionTrace>,
    cfg: ClusterConfig,
    allocator: BudgetAllocator,
    intervals_run: u64,
    energy_j: f64,
}

impl<C: ChipLike> Cluster<C> {
    /// Move the nodes, observer and run counters out into an
    /// [`EngineSeam`] for an external engine. The cluster is left
    /// empty-handed (zero nodes) until [`Cluster::attach_engine`]
    /// returns the seam; admission and `run` must not be called in
    /// between.
    pub fn detach_engine(&mut self) -> EngineSeam<C> {
        EngineSeam {
            nodes: std::mem::take(&mut self.nodes),
            observer: self.observer.take(),
            cfg: self.cfg.clone(),
            allocator: self.allocator,
            intervals_run: self.intervals_run,
            energy_j: self.energy_j,
        }
    }

    /// Reattach a seam after an external engine ran, writing the
    /// engine's counters (and its final roll-up, when it materialized
    /// one) back into the cluster.
    pub fn attach_engine(&mut self, seam: EngineSeam<C>, last_rollup: Option<ClusterRollup>) {
        self.nodes = seam.nodes;
        self.observer = seam.observer;
        self.intervals_run = seam.intervals_run;
        self.energy_j = seam.energy_j;
        if last_rollup.is_some() {
            self.last_rollup = last_rollup;
        }
    }
}

impl<C: ChipLike> EngineSeam<C> {
    /// The cluster's configuration.
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Move the nodes out (e.g. to partition them across shards).
    pub fn take_nodes(&mut self) -> Vec<Node<C>> {
        std::mem::take(&mut self.nodes)
    }

    /// Return the nodes, in id order, after the run.
    pub fn put_nodes(&mut self, nodes: Vec<Node<C>>) {
        self.nodes = nodes;
    }

    /// Control intervals completed so far (seed value plus every
    /// [`EngineSeam::note_interval`] call).
    pub fn intervals_run(&self) -> u64 {
        self.intervals_run
    }

    /// Account one completed interval: bumps the interval counter and
    /// integrates `total_power` over the control interval into the
    /// energy meter — the exact serial-reference accounting, so the
    /// energy total stays bit-identical when `total_power` does.
    pub fn note_interval(&mut self, total_power: Watts) {
        self.intervals_run += 1;
        self.energy_j += total_power.value() * self.cfg.control_interval.value();
    }

    /// Whether the interval just noted is a rebalance round (same
    /// cadence as the serial engine: every `rebalance_every` intervals,
    /// 0 = never).
    pub fn rebalance_due(&self) -> bool {
        self.cfg.rebalance_every > 0 && self.intervals_run.is_multiple_of(self.cfg.rebalance_every)
    }

    /// Run one arbiter round over aggregated telemetry: build claims,
    /// water-fill the cluster cap, emit the rebalance [`DecisionRecord`]
    /// when an observer is attached, and return the new per-node caps
    /// in node order. The caller applies them (see the type-level docs
    /// on deferred actuation).
    pub fn rebalance(&mut self, rollup: &ClusterRollup) -> Vec<Watts> {
        let started = self.observer.as_ref().map(|_| std::time::Instant::now());
        let claims = claims_from_rollup(&self.cfg.platform, rollup);
        let caps = self.allocator.rebalance(&claims);
        if self.observer.is_some() {
            let record = rebalance_record(
                &self.cfg,
                rollup,
                &claims,
                &caps,
                self.intervals_run,
                started,
            );
            if let Some(obs) = self.observer.as_mut() {
                obs.push(record);
            }
        }
        caps
    }
}

/// Build the decision record for one rebalance round. Shared by the
/// serial engine ([`Cluster::apply_rebalance`]) and the
/// [`EngineSeam`], so both produce identical records for identical
/// rounds. `intervals_run` is the post-increment interval count, which
/// every engine holds when rebalancing.
fn rebalance_record(
    cfg: &ClusterConfig,
    rollup: &ClusterRollup,
    claims: &[NodeClaim],
    caps: &[Watts],
    intervals_run: u64,
    started: Option<std::time::Instant>,
) -> DecisionRecord {
    let mut events = Vec::new();
    for ((claim, cap), tel) in claims.iter().zip(caps).zip(&rollup.nodes) {
        if claim.is_revoked(&cfg.platform) {
            events.push(DecisionEvent::Revocation {
                node: claim.node,
                ceiling: claim.max,
                draw: tel.package_power,
            });
        }
        if *cap != claim.current {
            events.push(DecisionEvent::Retarget {
                node: claim.node,
                from: claim.current,
                to: *cap,
            });
        }
    }
    DecisionRecord {
        time: Seconds(intervals_run as f64 * cfg.control_interval.value()),
        source: "cluster",
        policy: cfg.policy.name(),
        level: None,
        budget: cfg.cluster_cap,
        measured: Some(rollup.total_power()),
        translation: cfg.translation.name(),
        model_confident: rollup.nodes.iter().any(|n| n.predicted_capacity.is_some()),
        apps: Vec::new(),
        events,
        latency: Seconds(started.map_or(0.0, |s| s.elapsed().as_secs_f64())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize, cap: f64) -> Cluster {
        Cluster::new(ClusterConfig::new(
            nodes,
            PolicyKind::FrequencyShares,
            Watts(cap),
        ))
        .unwrap()
    }

    #[test]
    fn budget_must_fund_floors() {
        let err = Cluster::new(ClusterConfig::new(
            4,
            PolicyKind::FrequencyShares,
            Watts(50.0),
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::InsufficientBudget { required, .. } if required == Watts(80.0)
        ));
        assert!(matches!(
            Cluster::new(ClusterConfig::new(
                0,
                PolicyKind::FrequencyShares,
                Watts(50.0)
            ))
            .unwrap_err(),
            ClusterError::NoNodes
        ));
    }

    #[test]
    fn admission_picks_least_saturated_and_spills() {
        let mut c = cluster(2, 170.0);
        let p0 = c
            .admit(&AppRequest::new("a", 50, DemandClass::Light))
            .unwrap();
        let p1 = c
            .admit(&AppRequest::new("b", 50, DemandClass::Light))
            .unwrap();
        assert_eq!((p0.node, p1.node), (0, 1), "spread across nodes");
        let p2 = c
            .admit(&AppRequest::new("c", 50, DemandClass::Light))
            .unwrap();
        assert_eq!(p2.node, 0, "tie broken by node id");
    }

    #[test]
    fn duplicate_and_unknown_names_are_typed() {
        let mut c = cluster(1, 85.0);
        c.admit(&AppRequest::new("a", 50, DemandClass::Light))
            .unwrap();
        assert!(matches!(
            c.admit(&AppRequest::new("a", 10, DemandClass::Heavy)),
            Err(ClusterError::DuplicateApp { .. })
        ));
        assert!(matches!(
            c.depart("ghost"),
            Err(ClusterError::UnknownApp { .. })
        ));
    }

    #[test]
    fn overload_is_cluster_full() {
        let mut c = cluster(2, 170.0);
        for i in 0..20 {
            c.admit(&AppRequest::new(format!("a{i}"), 10, DemandClass::Light))
                .unwrap();
        }
        assert_eq!(c.free_cores(), 0);
        let err = c
            .admit(&AppRequest::new("straw", 10, DemandClass::Light))
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::ClusterFull { cores: 20, .. }),
            "{err}"
        );
        // a departure makes room again
        c.depart("a3").unwrap();
        let p = c
            .admit(&AppRequest::new("straw", 10, DemandClass::Light))
            .unwrap();
        assert_eq!(p.node, 1, "reuses the freed core's node");
    }

    #[test]
    fn rebalance_moves_budget_toward_load() {
        // node 0 packed with frequency-scalable high-demand apps (they
        // can always absorb more power, so they throttle at any cap and
        // keep their claim ceiling), node 1 one light app
        let mut c = cluster(2, 110.0);
        for i in 0..6 {
            let req = AppRequest::new(format!("h{i}"), 100, DemandClass::Moderate);
            let node = if c.nodes[0].free_cores() > 0 { 0 } else { 1 };
            let core = c.nodes[node].admit(&req).unwrap();
            assert!(core < 10);
            c.placed.insert(req.name.clone(), Placed::new(node, &req));
        }
        let light = AppRequest::new("light", 10, DemandClass::Light);
        c.nodes[1].admit(&light).unwrap();
        c.placed.insert(light.name.clone(), Placed::new(1, &light));
        let before = c.node_caps();
        assert_eq!(before[0], before[1], "even split at startup");
        c.run(12);
        let after = c.node_caps();
        assert!(
            after[0].value() > after[1].value() + 10.0,
            "loaded node wins budget: {after:?}"
        );
        let total: f64 = after.iter().map(|w| w.value()).sum();
        assert!(total <= 110.0 + 1e-6, "conservation, got {total}");
    }

    #[test]
    fn quarantine_requeues_apps_and_returns_budget() {
        let mut c = cluster(3, 255.0);
        for i in 0..6 {
            c.admit(&AppRequest::new(format!("a{i}"), 50, DemandClass::Moderate))
                .unwrap();
        }
        c.run(4);
        let victim_apps: Vec<String> = c.nodes[1].specs().iter().map(|s| s.name.clone()).collect();
        assert!(!victim_apps.is_empty());

        let outcomes = c.quarantine_node(1).unwrap();
        assert_eq!(outcomes.len(), victim_apps.len());
        for o in &outcomes {
            match o {
                RequeueOutcome::Requeued { placement, .. } => {
                    assert_ne!(placement.node, 1, "requeue skips the sick node")
                }
                RequeueOutcome::Dropped { app, .. } => panic!("cluster had room for {app}"),
            }
        }
        assert!(c.is_node_quarantined(1));
        assert_eq!(c.nodes[1].busy_cores(), 0, "node fully evacuated");

        // New arrivals avoid the quarantined node too.
        let p = c
            .admit(&AppRequest::new("fresh", 50, DemandClass::Light))
            .unwrap();
        assert_ne!(p.node, 1);

        // The idle node's budget drains to its floor at rebalances and
        // flows to the nodes now holding its apps.
        c.run(8);
        let caps = c.node_caps();
        assert!(
            caps[1].value() < caps[0].value() && caps[1].value() < caps[2].value(),
            "quarantined node loses budget: {caps:?}"
        );

        // Restore: eligible again, wins placements and budget back.
        c.restore_node(1).unwrap();
        assert!(!c.is_node_quarantined(1));
        let p = c
            .admit(&AppRequest::new("back", 50, DemandClass::Moderate))
            .unwrap();
        assert_eq!(p.node, 1, "empty restored node is least saturated");
    }

    #[test]
    fn quarantine_with_no_room_drops_apps() {
        let mut c = cluster(2, 170.0);
        for i in 0..20 {
            c.admit(&AppRequest::new(format!("a{i}"), 10, DemandClass::Light))
                .unwrap();
        }
        assert_eq!(c.free_cores(), 0);
        let outcomes = c.quarantine_node(0).unwrap();
        assert_eq!(outcomes.len(), 10);
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, RequeueOutcome::Dropped { .. })),
            "the other node is full, nothing can requeue"
        );
        // The dropped apps are really gone: their names are reusable.
        c.restore_node(0).unwrap();
        c.admit(&AppRequest::new("a0", 10, DemandClass::Light))
            .unwrap();
    }

    #[test]
    fn batch_admission_matches_sequential() {
        // Same arrival stream into two identical clusters — one via the
        // heap-based batch path, one via per-app sequential admission —
        // including intra-batch duplicates and overflow past capacity.
        let reqs: Vec<AppRequest> = (0..35)
            .map(|i| {
                let class = match i % 3 {
                    0 => DemandClass::Heavy,
                    1 => DemandClass::Moderate,
                    _ => DemandClass::Light,
                };
                AppRequest::new(format!("a{}", i % 33), 10 + (i % 7) as u32 * 10, class)
            })
            .collect();
        let mut seq = cluster(3, 255.0);
        let mut bat = cluster(3, 255.0);
        // Uneven starting occupancy so the heap seed matters.
        for c in [&mut seq, &mut bat] {
            c.admit(&AppRequest::new("warm0", 50, DemandClass::Light))
                .unwrap();
            c.admit(&AppRequest::new("warm1", 50, DemandClass::Light))
                .unwrap();
            c.quarantine_node(2).unwrap();
        }
        let batched = bat.admit_batch(&reqs);
        let sequential: Vec<Result<Placement, ClusterError>> =
            reqs.iter().map(|r| seq.admit(r)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(bat.reports(), seq.reports());

        // And batch departures mirror sequential ones.
        let names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
        let dep_b = bat.depart_batch(&names);
        let dep_s: Vec<Result<powerd::config::AppSpec, ClusterError>> =
            names.iter().map(|n| seq.depart(n)).collect();
        assert_eq!(dep_b, dep_s);
        assert_eq!(bat.reports(), seq.reports());
    }

    #[test]
    fn quarantine_and_restore_are_traced() {
        use pap_telemetry::metrics::ControlMetrics;
        use std::sync::Arc;

        let metrics = Arc::new(ControlMetrics::new());
        let mut c = cluster(2, 170.0);
        c.attach_observer(DecisionTrace::with_metrics(Arc::clone(&metrics)));
        for i in 0..4 {
            c.admit(&AppRequest::new(format!("a{i}"), 50, DemandClass::Light))
                .unwrap();
        }
        c.quarantine_node(1).unwrap();
        c.restore_node(1).unwrap();
        let trace = c.take_observer().unwrap();
        let ops: Vec<&DecisionRecord> = trace
            .records()
            .iter()
            .filter(|r| r.source == "cluster-ops")
            .collect();
        assert_eq!(ops.len(), 2);
        match &ops[0].events[..] {
            [DecisionEvent::Quarantine {
                node,
                evicted,
                requeued,
                dropped,
            }] => {
                assert_eq!(*node, 1);
                assert_eq!(*evicted, 2);
                assert_eq!(*requeued, 2, "node 0 had 8 free cores");
                assert_eq!(*dropped, 0);
            }
            other => panic!("expected a quarantine event, got {other:?}"),
        }
        assert!(matches!(
            &ops[1].events[..],
            [DecisionEvent::Restore { node: 1 }]
        ));
        assert_eq!(metrics.quarantines.get(), 1);
        assert_eq!(metrics.restores.get(), 1);
        assert_eq!(
            metrics.rebalances.get(),
            0,
            "ops records are not rebalances"
        );
        let jsonl = trace.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"quarantine\""));
        assert!(jsonl.contains("\"kind\":\"restore\""));
    }

    #[test]
    fn seam_reproduces_serial_reference() {
        // Drive one cluster with the serial engine and a clone of it by
        // hand through the EngineSeam, replaying the exact serial loop.
        let setup = |c: &mut Cluster| {
            for i in 0..9 {
                c.admit(&AppRequest::new(format!("a{i}"), 40, DemandClass::Moderate))
                    .unwrap();
            }
        };
        let mut serial = cluster(3, 255.0);
        setup(&mut serial);
        serial.run(10);

        let mut seamed = cluster(3, 255.0);
        setup(&mut seamed);
        let mut seam = seamed.detach_engine();
        let mut nodes = seam.take_nodes();
        let mut last = None;
        for _ in 0..10 {
            let teles: Vec<_> = nodes.iter_mut().map(|n| n.advance_interval()).collect();
            let rollup = ClusterRollup::new(seam.cfg().control_interval, teles);
            seam.note_interval(rollup.total_power());
            if seam.rebalance_due() {
                let caps = seam.rebalance(&rollup);
                for (node, cap) in nodes.iter_mut().zip(caps) {
                    node.retarget(cap).unwrap();
                }
            }
            last = Some(rollup);
        }
        seam.put_nodes(nodes);
        seamed.attach_engine(seam, last);

        assert_eq!(serial.intervals_run(), seamed.intervals_run());
        assert_eq!(serial.energy_j().to_bits(), seamed.energy_j().to_bits());
        assert_eq!(serial.node_caps(), seamed.node_caps());
        assert_eq!(serial.reports(), seamed.reports());
        assert_eq!(serial.last_rollup(), seamed.last_rollup());
    }

    #[test]
    fn static_split_never_rebalances() {
        let mut cfg = ClusterConfig::new(2, PolicyKind::RaplNative, Watts(110.0));
        cfg.rebalance_every = 0;
        let mut c = Cluster::new(cfg).unwrap();
        for i in 0..6 {
            c.admit(&AppRequest::new(format!("h{i}"), 100, DemandClass::Heavy))
                .unwrap();
        }
        c.run(8);
        assert_eq!(c.node_caps(), vec![Watts(55.0); 2]);
        assert_eq!(c.intervals_run(), 8);
        assert_eq!(c.reports().len(), 6);
    }
}
