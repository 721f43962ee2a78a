//! Run reports: the full record and the one-line result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The host a result was measured on, and the parallelism it used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// CPUs the process may run on (`Cpus_allowed_list`).
    pub nproc: usize,
    /// Shard workers `run_sharded` actually used (`ScaleStats::shards`,
    /// the most seen in any call; 0 when the workload has no cluster).
    pub shard_workers: usize,
    /// Sweep threads used (the benchmark runs no sweeps).
    pub sweep_threads: usize,
}

impl Host {
    /// This host, with `shard_workers` as read back from `ScaleStats`.
    pub fn current(shard_workers: usize) -> Host {
        Host {
            available_parallelism: crate::available_parallelism(),
            nproc: crate::allowed_cpus(),
            shard_workers,
            sweep_threads: 0,
        }
    }
}

/// Output checks and operation counts of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations attempted: node-intervals, admissions and departures.
    pub attempted: u64,
    /// Failed checks plus refused admissions and departures.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count a failure unless `ok` holds.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Count a failure.
    pub fn fail(&mut self, msg: String) {
        self.fail_many(1, msg);
    }

    /// Count `n` failed operations under one message.
    pub fn fail_many(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host block.
    pub host: Host,
    /// Output checks.
    pub checks: Checks,
    /// The metrics the result line carries: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.
    pub metrics: Vec<Metric>,
    /// Further measurements, recorded but outside the result line.
    pub detail: Vec<Metric>,
    /// Facts about how metrics were taken (e.g. which tail percentile).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// A report with no metrics yet.
    pub fn new(workload: &str, seed: u64, traced: bool, host: Host, checks: Checks) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            host,
            checks,
            metrics: Vec::new(),
            detail: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a result-line metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Add a recorded-only metric.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Look a metric up by name, in either list.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every check passed and every result-line value is finite.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The full record: seed, host block, checks, every metric.
    pub fn record_json(&self) -> String {
        let h = &self.host;
        let mut s = format!(
            "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"traced\": {}, \
             \"host\": {{\"available_parallelism\": {}, \"nproc\": {}, \
             \"shard_workers\": {}, \"sweep_threads\": {}}}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [",
            quote(&self.workload),
            self.seed,
            self.traced,
            h.available_parallelism,
            h.nproc,
            h.shard_workers,
            h.sweep_threads,
            self.checks.attempted,
            self.checks.failed,
        );
        let msgs: Vec<String> = self.checks.messages.iter().map(|m| quote(m)).collect();
        s.push_str(&msgs.join(", "));
        s.push_str("], \"notes\": {");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        s.push_str(&notes.join(", "));
        s.push_str("}, \"metrics\": ");
        s.push_str(&metrics_json(self.metrics.iter().chain(&self.detail)));
        s.push_str("}}");
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// result-line metrics.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics_json(self.metrics.iter())
        )
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            number(m.value),
            quote(m.unit)
        );
    }
    s.push('}');
    s
}

/// A JSON number; non-finite values (which make the run incorrect)
/// print as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
