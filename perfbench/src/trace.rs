//! Spans around the benchmark's calls into each crate.
//!
//! A [`Tracer`] that is off runs the wrapped call and nothing else, so
//! the untraced and traced runs share one code path. Spans are kept in
//! memory and written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// A layer of the stack, named `<crate>.<call>` after the public call
/// the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ChurnLoad::next_batch` + `commit`: the load generator, attributed
    /// but not part of the system.
    LoadGenerate,
    /// `Cluster::depart_batch`.
    DepartBatch,
    /// `Cluster::admit_batch`.
    AdmitBatch,
    /// `pap_scale::run_sharded`, one interval per call.
    RunSharded,
    /// `Cluster::detach_engine`/`attach_engine` with
    /// `EngineSeam::take_nodes`/`put_nodes` (decomposed replay only).
    Seam,
    /// `Node::advance_interval` (decomposed replay only).
    NodeAdvance,
    /// `DeltaRollup::update`, `total_power` and `to_rollup`.
    Rollup,
    /// `EngineSeam::note_interval`, `rebalance_due` and `rebalance`.
    Arbitrate,
    /// `Node::retarget`.
    Retarget,
    /// `RunningApp::advance` for every running app, one tick.
    WorkloadsAdvance,
    /// `WideChip::set_load` and `add_instructions`, one tick.
    SetLoad,
    /// `WideChip::tick`.
    Tick,
    /// `Sampler::sample`.
    Sample,
    /// `Daemon::step`.
    Step,
    /// `WideChip::set_all_requested` and `set_forced_idle`.
    Actuate,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::LoadGenerate,
        Layer::DepartBatch,
        Layer::AdmitBatch,
        Layer::RunSharded,
        Layer::Seam,
        Layer::NodeAdvance,
        Layer::Rollup,
        Layer::Arbitrate,
        Layer::Retarget,
        Layer::WorkloadsAdvance,
        Layer::SetLoad,
        Layer::Tick,
        Layer::Sample,
        Layer::Step,
        Layer::Actuate,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::LoadGenerate => "load.generate",
            Layer::DepartBatch => "clusterd.depart_batch",
            Layer::AdmitBatch => "clusterd.admit_batch",
            Layer::RunSharded => "scale.run_sharded",
            Layer::Seam => "clusterd.seam",
            Layer::NodeAdvance => "clusterd.node_advance",
            Layer::Rollup => "telemetry.rollup",
            Layer::Arbitrate => "clusterd.arbitrate",
            Layer::Retarget => "clusterd.retarget",
            Layer::WorkloadsAdvance => "workloads.advance",
            Layer::SetLoad => "simcpu.set_load",
            Layer::Tick => "simcpu.tick",
            Layer::Sample => "telemetry.sample",
            Layer::Step => "powerd.step",
            Layer::Actuate => "simcpu.actuate",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The window (control interval) it ran in.
    pub window: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Busy time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed span durations, seconds.
    pub busy_s: f64,
    /// Number of spans.
    pub calls: u64,
}

/// Spans kept per tracer; later spans still count toward the layer
/// totals but are not stored, which bounds memory and the spans file on
/// long runs of the per-tick layers.
const MAX_SPANS: usize = 100_000;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    window: u32,
    totals: [LayerTotals; Layer::ALL.len()],
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            window: 0,
            totals: [LayerTotals::default(); Layer::ALL.len()],
            spans: Vec::new(),
        }
    }

    /// Tag subsequent spans with window `w`.
    pub fn set_window(&mut self, w: u64) {
        self.window = w as u32;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording a span for `layer` when tracing.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let t = &mut self.totals[crate::layer_index(layer)];
        t.busy_s += (end - start).as_secs_f64();
        t.calls += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                layer,
                window: self.window,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
        out
    }

    /// Totals of `layer`.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[crate::layer_index(layer)]
    }

    /// Busy time summed over every layer.
    pub fn covered_s(&self) -> f64 {
        self.totals.iter().map(|t| t.busy_s).sum()
    }

    /// Write the spans as CSV (`replay,layer,window,start_ns,end_ns`),
    /// appending to `out`.
    pub fn write_csv(&self, replay: &str, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        for s in &self.spans {
            writeln!(
                w,
                "{replay},{},{},{},{}",
                s.layer.name(),
                s.window,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Write the spans of several replays to `path` (created or replaced).
pub fn write_spans(path: &std::path::Path, replays: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "replay,layer,window,start_ns,end_ns")?;
    for (name, tr) in replays {
        tr.write_csv(name, &mut f)?;
    }
    f.sync_all()
}
