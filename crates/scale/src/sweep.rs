//! Parallel experiment sweep engine.
//!
//! Every figure/table/extension binary is a *sweep*: a list of
//! independent experiment cells (policy × limit × mix …) whose results
//! are reduced into a table after the fact. The engine here runs those
//! cells on `std` scoped worker threads and collects results **in
//! input order**, so a parallel sweep's output is byte-identical to a
//! serial one: each cell owns its chip/daemon/apps and shares no
//! mutable state, and reduction happens on the calling thread after
//! all cells land in their slots.
//!
//! Thread count is controlled by [`Threads`]; binaries read it from the
//! `PAP_SWEEP_THREADS` environment variable via [`Threads::from_env`],
//! which is how CI proves serial-vs-parallel byte-identity.

use std::sync::Mutex;

/// Worker-thread selection for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Run every cell on the calling thread, in input order.
    Serial,
    /// One worker per available CPU, capped at the cell count.
    #[default]
    Auto,
    /// Exactly this many workers (0 is treated as [`Threads::Auto`]).
    Fixed(usize),
}

impl Threads {
    /// Read the mode from `PAP_SWEEP_THREADS`: unset, empty, `auto` or
    /// `0` selects [`Threads::Auto`]; `serial` or `1` selects
    /// [`Threads::Serial`]; any other integer selects that fixed worker
    /// count. Unparsable values fall back to [`Threads::Auto`].
    pub fn from_env() -> Threads {
        match std::env::var("PAP_SWEEP_THREADS") {
            Err(_) => Threads::Auto,
            Ok(v) => match v.trim() {
                "" | "auto" | "0" => Threads::Auto,
                "serial" | "1" => Threads::Serial,
                n => n.parse().map(Threads::Fixed).unwrap_or(Threads::Auto),
            },
        }
    }

    /// Resolve to a concrete worker count for `jobs` cells.
    fn workers(self, jobs: usize) -> usize {
        let n = match self {
            Threads::Serial => 1,
            Threads::Auto | Threads::Fixed(0) => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            Threads::Fixed(n) => n,
        };
        n.min(jobs)
    }
}

/// Map `f` over `jobs` with the given thread mode; results come back in
/// input order regardless of completion order.
///
/// Workers take the next `(index, cell)` from one mutex over the
/// enumerated job iterator, and each result lands in its own
/// pre-allocated slot (one `Mutex<Option<R>>` per cell), so workers
/// never contend on a shared results vector.
pub fn run<T, R, F>(mode: Threads, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.len();
    if mode.workers(n) <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let jobs = Mutex::new(jobs.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..mode.workers(n) {
            s.spawn(|| loop {
                // Bind first: the guard must drop before `f` runs.
                let next = jobs.lock().expect("sweep jobs").next();
                let Some((i, job)) = next else { break };
                *slots[i].lock().expect("sweep result slot") = Some(f(job));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result slot")
                .expect("worker wrote its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_parsing() {
        // from_env reads the process environment; exercise the match arms
        // through the resolver instead of mutating global env in a test.
        assert_eq!(Threads::Serial.workers(100), 1);
        assert_eq!(Threads::Fixed(3).workers(100), 3);
        assert_eq!(Threads::Fixed(8).workers(2), 2, "capped at cell count");
        assert!(Threads::Auto.workers(100) >= 1);
        assert!(Threads::Fixed(0).workers(100) >= 1, "0 means auto");
    }

    #[test]
    fn ordered_collection() {
        for mode in [Threads::Serial, Threads::Auto, Threads::Fixed(3)] {
            let out = run(mode, (0..97).collect::<Vec<u64>>(), |x| x * x);
            assert_eq!(out, (0..97).map(|x| x * x).collect::<Vec<u64>>());
        }
        assert!(run(Threads::Auto, Vec::<u8>::new(), |x| x).is_empty());
        assert_eq!(run(Threads::Auto, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn serial_and_parallel_bit_identical() {
        // A float-heavy cell whose result depends on operation order
        // inside the cell only — the engine must not change it.
        let cell = |seed: u64| -> f64 {
            let mut acc = 0.1_f64;
            for i in 0..10_000u64 {
                acc += ((seed * 31 + i) % 1024) as f64 * 1e-3;
                acc *= 1.0000001;
            }
            acc
        };
        let jobs: Vec<u64> = (0..40).collect();
        let serial = run(Threads::Serial, jobs.clone(), cell);
        let parallel = run(Threads::Fixed(7), jobs, cell);
        assert_eq!(
            serial.iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
            parallel.iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
            "sweep engine must be bit-transparent"
        );
    }
}
