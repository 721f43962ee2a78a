//! The sharded, event-driven cluster engine.
//!
//! The serial `clusterd` reference advances every node in turn and
//! folds a fresh [`ClusterRollup`] per interval — fine at 8 nodes,
//! hopeless at 1024. This engine, the workspace's only parallel one,
//! runs the same nodes on an epoch-committed shard pool of `std`
//! scoped threads:
//!
//! * nodes are partitioned **in id order** into fixed chunks —
//!   disjoint slices borrowed in place from the cluster's own node
//!   vector, so no node is moved — and a small pool of shard workers
//!   claims chunk indices from a shared atomic cursor: workers never
//!   wait while work remains, and a slow chunk steals no one's
//!   schedule;
//! * there are no global barriers: each epoch ends with a
//!   **lightweight commit** run by whichever worker finishes the last
//!   chunk: fold the epoch's telemetry into a resident [`DeltaRollup`],
//!   account energy, arbitrate when a rebalance is due, rewind the
//!   cursor, wake anyone parked. No other thread touches shared state;
//! * new caps are not pushed through a barrier either: the commit
//!   leaves them as **pending caps** on each chunk, and the chunk's
//!   next local step applies them before ticking — observationally
//!   identical to the serial engine retargeting at the end of the
//!   interval, since no simulated time passes in between.
//!
//! At `epsilon = 0` the delta rollup folds totals in node order over
//! sanitized resident rows, so every number the arbiter sees — and
//! therefore every cap, every trace record, the energy meter, and the
//! final cluster state — is **bit-identical to the serial reference**
//! (property-tested in `tests/scale_parity.rs`, enforced at runtime by
//! the `ext_cluster_scale` CI bench). With `epsilon > 0` rows that
//! moved less than the tolerance are skipped and totals are maintained
//! incrementally: the documented speed/accuracy trade at 1000+ nodes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use clusterd::cluster::EngineSeam;
use clusterd::{Cluster, Node};
use pap_simcpu::chiplike::ChipLike;
use pap_simcpu::units::Watts;
use pap_telemetry::rollup::{ClusterRollup, DeltaRollup, NodeTelemetry};

/// Tuning for [`run_sharded`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Shard worker threads. `0` selects one per available CPU (capped
    /// at the chunk count); `1` runs the same epoch loop inline.
    pub shards: usize,
    /// Nodes per work chunk. Smaller chunks balance better, larger
    /// chunks amortize cursor traffic; the default of 8 keeps a 1024-node
    /// cluster at 128 chunks.
    pub chunk_nodes: usize,
    /// Delta-rollup tolerance. `0` = exact mode (bit-identical to the
    /// serial reference); `> 0` skips re-aggregating nodes whose
    /// telemetry moved less than this relative tolerance.
    pub epsilon: f64,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            shards: 0,
            chunk_nodes: 8,
            epsilon: 0.0,
        }
    }
}

impl ScaleConfig {
    fn workers(&self, chunks: usize) -> usize {
        let n = match self.shards {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            n => n,
        };
        n.min(chunks).max(1)
    }
}

/// What a sharded run did, for reports and the CI bench.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleStats {
    /// Control intervals (epochs) executed.
    pub intervals: u64,
    /// Shard workers used.
    pub shards: usize,
    /// Work chunks the nodes were partitioned into.
    pub chunks: usize,
    /// Telemetry rows re-aggregated by the delta rollup.
    pub delta_updates: u64,
    /// Telemetry rows skipped as within epsilon.
    pub delta_skips: u64,
    /// Nodes flagged unhealthy (clamped telemetry) at run end.
    pub unhealthy_nodes: Vec<usize>,
}

impl ScaleStats {
    /// Fraction of telemetry rows the delta rollup skipped.
    pub fn skip_rate(&self) -> f64 {
        let total = self.delta_updates + self.delta_skips;
        if total == 0 {
            return 0.0;
        }
        self.delta_skips as f64 / total as f64
    }
}

/// One chunk of consecutive nodes, borrowed in place from the cluster's
/// node vector, plus the matching slices of two flat per-node buffers:
/// the telemetry each node produced this epoch and the pending cap (if
/// a rebalance just ran) to apply before its next local step.
struct Chunk<'n, C: ChipLike> {
    nodes: &'n mut [Node<C>],
    tele: &'n mut [Option<NodeTelemetry>],
    caps: &'n mut [Option<Watts>],
}

/// State only the epoch committer touches. Kept in its own mutex so
/// shard workers processing chunks never contend on it.
struct CommitState<C: ChipLike> {
    seam: EngineSeam<C>,
    delta: DeltaRollup,
    last: Option<ClusterRollup>,
    target_intervals: u64,
}

/// Epoch sequencing: bumped by every commit, watched by idle workers.
struct Epoch {
    seq: u64,
    finished: bool,
}

/// Drive `cluster` for `intervals` control intervals on the sharded
/// engine. At `cfg.epsilon == 0` the resulting cluster state (caps,
/// reports, energy, intervals, final roll-up, trace records) is
/// bit-identical to [`Cluster::run`] over the same span.
///
/// Generic over the node backend: the default `Cluster` (WideChip, the
/// fleet fast path) and the scalar-`Chip` reference both drive through
/// here — `Send` because chunks of nodes cross shard-thread boundaries.
///
/// # Panics
///
/// A panic inside a node or the arbiter propagates out of `run_sharded`
/// once every shard worker has stopped, and leaves the cluster without
/// its nodes.
pub fn run_sharded<C: ChipLike + Send>(
    cluster: &mut Cluster<C>,
    intervals: u64,
    cfg: &ScaleConfig,
) -> ScaleStats {
    let mut seam = cluster.detach_engine();
    let mut nodes = seam.take_nodes();
    let n_nodes = nodes.len();
    if intervals == 0 || n_nodes == 0 {
        seam.put_nodes(nodes);
        cluster.attach_engine(seam, None);
        return ScaleStats {
            intervals: 0,
            shards: 0,
            chunks: 0,
            delta_updates: 0,
            delta_skips: 0,
            unhealthy_nodes: Vec::new(),
        };
    }

    let chunk_nodes = cfg.chunk_nodes.max(1);
    let interval = seam.cfg().control_interval;
    let target_intervals = seam.intervals_run() + intervals;

    // Resume the delta store from the last materialized rollup (the
    // detached cluster still holds it), so a cluster driven one window
    // at a time (churn between calls) still gets incremental
    // aggregation: a node whose telemetry has not moved since the
    // previous window is a skip, not a re-fold. At epsilon = 0 this is
    // identity-preserving — a row only skips when it is bit-identical
    // to the resumed one.
    let mut delta = DeltaRollup::new(interval, cfg.epsilon);
    for row in cluster.last_rollup().map_or(&[][..], |r| &r.nodes) {
        delta.update(row.clone());
    }
    // Seeding is bookkeeping, not work: report only the live folds.
    let seeded = delta.updates();

    // Chunk the nodes where they live, in id order, so the commit's
    // chunk-order fold is a node-order fold.
    let mut tele: Vec<Option<NodeTelemetry>> = vec![None; n_nodes];
    let mut caps: Vec<Option<Watts>> = vec![None; n_nodes];
    let chunks: Vec<_> = nodes
        .chunks_mut(chunk_nodes)
        .zip(tele.chunks_mut(chunk_nodes))
        .zip(caps.chunks_mut(chunk_nodes))
        .map(|((nodes, tele), caps)| Mutex::new(Chunk { nodes, tele, caps }))
        .collect();
    let n_chunks = chunks.len();
    let shards = cfg.workers(n_chunks);

    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let epoch = Mutex::new(Epoch {
        seq: 0,
        finished: false,
    });
    let wake = Condvar::new();
    let commit = Mutex::new(CommitState {
        seam,
        delta,
        last: None,
        target_intervals,
    });

    let shared = Shared {
        chunks: &chunks,
        cursor: &cursor,
        done: &done,
        epoch: &epoch,
        wake: &wake,
        commit: &commit,
    };
    if shards == 1 {
        worker(&shared);
    } else {
        std::thread::scope(|s| {
            for _ in 0..shards {
                s.spawn(|| worker(&shared));
            }
        });
    }

    // Teardown: flush caps a final-interval rebalance left pending (the
    // serial engine applied its retargets inside that interval), then
    // hand the same node vector back to the cluster.
    let CommitState {
        mut seam,
        delta,
        last,
        ..
    } = commit.into_inner().expect("commit state poisoned");
    for (node, cap) in nodes.iter_mut().zip(caps) {
        if let Some(cap) = cap {
            node.retarget(cap)
                .expect("allocator output stays within platform bounds");
        }
    }
    seam.put_nodes(nodes);
    cluster.attach_engine(seam, last);
    ScaleStats {
        intervals,
        shards,
        chunks: n_chunks,
        delta_updates: delta.updates() - seeded,
        delta_skips: delta.skips(),
        unhealthy_nodes: delta.unhealthy_nodes(),
    }
}

/// Everything a shard worker can see.
struct Shared<'a, 'n, C: ChipLike> {
    chunks: &'a [Mutex<Chunk<'n, C>>],
    /// Next chunk index to claim this epoch; at or past `chunks.len()`
    /// the epoch has no unclaimed work left.
    cursor: &'a AtomicUsize,
    done: &'a AtomicUsize,
    epoch: &'a Mutex<Epoch>,
    wake: &'a Condvar,
    commit: &'a Mutex<CommitState<C>>,
}

/// Shard worker loop: local chunk steps while work exists, park on the
/// epoch condvar when the cursor runs past the last chunk mid-epoch,
/// exit when the run finishes. The worker that completes an epoch's
/// last chunk performs the commit itself — there is no coordinator
/// thread.
fn worker<C: ChipLike>(sh: &Shared<'_, '_, C>) {
    let _unwind = EndOnUnwind {
        epoch: sh.epoch,
        wake: sh.wake,
    };
    let mut seen = 0u64;
    loop {
        match sh.cursor.fetch_add(1, Ordering::AcqRel) {
            ci if ci < sh.chunks.len() => {
                {
                    let mut chunk = sh.chunks[ci].lock().expect("chunk poisoned");
                    let chunk = &mut *chunk;
                    for (k, node) in chunk.nodes.iter_mut().enumerate() {
                        if let Some(cap) = chunk.caps[k].take() {
                            node.retarget(cap)
                                .expect("allocator output stays within platform bounds");
                        }
                        chunk.tele[k] = Some(node.advance_interval());
                    }
                    Node::settle_rapl(chunk.nodes);
                }
                if sh.done.fetch_add(1, Ordering::AcqRel) + 1 == sh.chunks.len() {
                    seen = commit_epoch(sh);
                }
            }
            _ => {
                let mut ep = sh.epoch.lock().expect("epoch poisoned");
                while ep.seq == seen && !ep.finished {
                    ep = sh.wake.wait(ep).expect("epoch poisoned");
                }
                if ep.finished {
                    return;
                }
                seen = ep.seq;
            }
        }
    }
}

/// Ends the run for every worker when one unwinds. A worker that
/// panics mid-epoch never reports its chunk done, so no commit runs;
/// without this the other workers would park on the epoch condvar
/// forever and `thread::scope` would never join to re-raise the panic.
struct EndOnUnwind<'a> {
    epoch: &'a Mutex<Epoch>,
    wake: &'a Condvar,
}

impl Drop for EndOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.epoch
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .finished = true;
            self.wake.notify_all();
        }
    }
}

/// The epoch commit: fold this epoch's telemetry into the delta rollup
/// (chunk order == node order, so the exact-mode fold matches the
/// serial reference bit-for-bit), account the interval, arbitrate when
/// due (leaving new caps pending on each chunk), then either rewind the
/// chunk cursor for the next epoch or mark the run finished. Returns
/// the new epoch sequence number.
fn commit_epoch<C: ChipLike>(sh: &Shared<'_, '_, C>) -> u64 {
    let mut cs = sh.commit.lock().expect("commit state poisoned");
    for chunk in sh.chunks {
        let mut c = chunk.lock().expect("chunk poisoned");
        for t in c.tele.iter_mut() {
            let t = t.take().expect("every node reported this epoch");
            cs.delta.update(t);
        }
    }
    let total_power = cs.delta.total_power();
    cs.seam.note_interval(total_power);
    let finished = cs.seam.intervals_run() >= cs.target_intervals;
    let due = cs.seam.rebalance_due();
    // The serial engine materializes a rollup every interval; here one
    // only exists when someone consumes it — the arbiter, or the final
    // cluster state.
    if due || finished {
        let rollup = cs.delta.to_rollup();
        if due {
            let caps = cs.seam.rebalance(&rollup);
            let mut caps = caps.into_iter();
            for chunk in sh.chunks {
                let mut c = chunk.lock().expect("chunk poisoned");
                for slot in c.caps.iter_mut() {
                    *slot = Some(caps.next().expect("one cap per node"));
                }
            }
        }
        cs.last = Some(rollup);
    }
    drop(cs);
    sh.done.store(0, Ordering::Release);
    let mut ep = sh.epoch.lock().expect("epoch poisoned");
    ep.seq += 1;
    if finished {
        ep.finished = true;
    } else {
        // Release pairs with the claiming `fetch_add`'s Acquire: a
        // worker that claims a chunk of the new epoch also sees `done`
        // already reset to 0.
        sh.cursor.store(0, Ordering::Release);
    }
    sh.wake.notify_all();
    ep.seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterd::{AppRequest, ClusterConfig, DemandClass};
    use pap_simcpu::units::Seconds;
    use powerd::config::{PolicyKind, TranslationKind};

    fn cluster(nodes: usize) -> Cluster {
        cluster_with(nodes, TranslationKind::Naive)
    }

    fn cluster_with(nodes: usize, translation: TranslationKind) -> Cluster {
        let mut cfg = ClusterConfig::new(
            nodes,
            PolicyKind::FrequencyShares,
            Watts(85.0 * nodes as f64),
        );
        // Coarse ticks keep the test fast; parity is tick-agnostic.
        cfg.tick = Seconds(0.25);
        cfg.translation = translation;
        let mut c = Cluster::new(cfg).unwrap();
        for i in 0..nodes * 3 {
            let class = match i % 3 {
                0 => DemandClass::Heavy,
                1 => DemandClass::Moderate,
                _ => DemandClass::Light,
            };
            c.admit(&AppRequest::new(
                format!("a{i}"),
                20 + (i % 5) as u32 * 20,
                class,
            ))
            .unwrap();
        }
        c
    }

    fn assert_identical(serial: &Cluster, sharded: &Cluster) {
        assert_eq!(serial.intervals_run(), sharded.intervals_run());
        assert_eq!(
            serial.energy_j().to_bits(),
            sharded.energy_j().to_bits(),
            "energy accounting diverged"
        );
        assert_eq!(serial.node_caps(), sharded.node_caps());
        assert_eq!(serial.reports(), sharded.reports());
        assert_eq!(serial.last_rollup(), sharded.last_rollup());
    }

    #[test]
    fn exact_mode_is_bit_identical_to_serial() {
        // The online model lives inside each node and its capacity
        // prediction reaches the arbiter through the rollup, so parity
        // must also hold once the model has published predictions
        // (it needs about 20 intervals at this tick).
        for (translation, intervals) in
            [(TranslationKind::Naive, 11), (TranslationKind::Online, 24)]
        {
            for shards in [1, 3] {
                let mut serial = cluster_with(7, translation);
                serial.run(intervals);
                let mut sharded = cluster_with(7, translation);
                let before = sharded.nodes().as_ptr();
                let stats = run_sharded(
                    &mut sharded,
                    intervals,
                    &ScaleConfig {
                        shards,
                        chunk_nodes: 2,
                        epsilon: 0.0,
                    },
                );
                assert_identical(&serial, &sharded);
                assert_eq!(
                    sharded.nodes().as_ptr(),
                    before,
                    "chunks borrow the node vector in place; the same buffer comes back"
                );
                assert_eq!(stats.intervals, intervals);
                assert_eq!(stats.chunks, 4);
                assert_eq!(stats.shards, shards.min(4));
                let rollup = serial.last_rollup().unwrap();
                let predicted = rollup.nodes.iter().all(|t| t.predicted_capacity.is_some());
                assert_eq!(
                    predicted,
                    translation == TranslationKind::Online,
                    "only the online case reaches the arbiter's prediction path"
                );
            }
        }
    }

    #[test]
    fn resumes_and_composes_with_serial_runs() {
        // serial → sharded → serial must equal one long serial run:
        // the seam hands counters back and forth losslessly.
        let mut reference = cluster(5);
        reference.run(12);
        let mut mixed = cluster(5);
        mixed.run(3);
        run_sharded(&mut mixed, 6, &ScaleConfig::default());
        mixed.run(3);
        assert_identical(&reference, &mixed);
    }

    #[test]
    fn epsilon_skips_but_stays_conservative() {
        let mut sharded = cluster(6);
        let stats = run_sharded(
            &mut sharded,
            20,
            &ScaleConfig {
                shards: 2,
                chunk_nodes: 3,
                epsilon: 0.5,
            },
        );
        assert!(
            stats.delta_skips > 0,
            "a 50% tolerance must skip settled rows: {stats:?}"
        );
        // The arbiter still conserves the budget it hands out.
        let caps: f64 = sharded.node_caps().iter().map(|w| w.value()).sum();
        assert!(
            caps <= sharded.config().cluster_cap.value() + 1e-6,
            "caps {caps} exceed cluster cap"
        );
        assert_eq!(stats.intervals, 20);
        assert!(stats.skip_rate() > 0.0 && stats.skip_rate() < 1.0);
    }

    #[test]
    fn zero_intervals_or_zero_work_is_a_noop() {
        let mut c = cluster(2);
        let before = c.intervals_run();
        let stats = run_sharded(&mut c, 0, &ScaleConfig::default());
        assert_eq!(stats.intervals, 0);
        assert_eq!(c.intervals_run(), before);
        assert_eq!(c.reports().len(), 6, "nodes and apps all came back");
    }

    #[test]
    fn observer_records_match_serial() {
        use powerd::obs::DecisionTrace;
        let mut serial = cluster(4);
        serial.attach_observer(DecisionTrace::new());
        serial.run(8);
        let mut sharded = cluster(4);
        sharded.attach_observer(DecisionTrace::new());
        run_sharded(&mut sharded, 8, &ScaleConfig::default());
        let a = serial.take_observer().unwrap();
        let b = sharded.take_observer().unwrap();
        assert_eq!(a.len(), b.len(), "one record per rebalance round");
        for (ra, rb) in a.records().iter().zip(b.records()) {
            // Latency is wall-clock and may differ; everything else is
            // part of the bit-identity contract.
            let mut rb = rb.clone();
            rb.latency = ra.latency;
            assert_eq!(*ra, rb);
        }
    }
}
