//! An open-loop latency-sensitive service: Poisson arrivals against a
//! bounded FCFS queue.
//!
//! The closed-loop model in [`crate::latency`] couples offered load to
//! completions — a saturated service slows its own users down, which is
//! right for a fixed user population but wrong for internet-facing
//! tenants whose arrival rate does not care how the backend is doing.
//! Here requests arrive as a Poisson process at `rate_scale × peak_rps`
//! regardless of queue state; when the bounded queue is full, arrivals
//! are *dropped* and counted, so overload shows up as shed traffic and a
//! blown tail instead of a silently throttled client population. This is
//! the load shape the multi-tenant scenarios (`pap-tenants`) drive
//! through the daemon. Queueing and service run on the closed-loop
//! model's FCFS server; only the arrival process differs.

use pap_simcpu::freq::KiloHertz;
use pap_simcpu::power::LoadDescriptor;
use pap_simcpu::units::Seconds;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::latency::{DemandShape, FcfsServer};

/// Configuration of an open-loop service tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Arrival rate at full intensity, in requests per second.
    pub peak_rps: f64,
    /// Mean service demand per request, in cycles.
    pub mean_service_cycles: f64,
    /// Distribution shape of per-request demand around that mean.
    pub demand: DemandShape,
    /// Effective capacitance presented while executing.
    pub capacitance: f64,
    /// Maximum queued (not yet in service) requests; beyond this,
    /// arrivals are dropped.
    pub queue_cap: usize,
    /// RNG seed; runs are fully deterministic given the seed.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// A small latency-sensitive tenant: 400 rps of lightly heavy-tailed
    /// requests against a couple of cores.
    pub fn frontend() -> OpenLoopConfig {
        OpenLoopConfig {
            peak_rps: 400.0,
            mean_service_cycles: 8.0e6,
            demand: DemandShape::LogNormal { sigma: 1.0 },
            capacitance: 0.6,
            queue_cap: 2_000,
            seed: 0x0F0E_D00D,
        }
    }
}

/// The open-loop service simulator.
///
/// ```
/// use pap_workloads::openloop::{OpenLoopConfig, OpenLoopService};
/// use pap_simcpu::freq::KiloHertz;
/// use pap_simcpu::units::Seconds;
///
/// let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), 2);
/// let freqs = vec![KiloHertz::from_mhz(3000); 2];
/// for _ in 0..5_000 {
///     svc.advance(Seconds(0.001), &freqs);
/// }
/// assert!(svc.completed() > 1_000);
/// assert_eq!(svc.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoopService {
    config: OpenLoopConfig,
    rng: StdRng,
    server: FcfsServer,
    offered: u64,
    dropped: u64,
    /// Multiplier on `peak_rps`; the handle arrival traces use.
    rate_scale: f64,
}

impl OpenLoopService {
    /// Create a service with `num_cores` serving cores.
    pub fn new(config: OpenLoopConfig, num_cores: usize) -> OpenLoopService {
        let server = FcfsServer::new(num_cores, config.capacitance);
        assert!(
            config.peak_rps.is_finite() && config.peak_rps >= 0.0,
            "peak_rps must be finite and non-negative"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        OpenLoopService {
            config,
            rng,
            server,
            offered: 0,
            dropped: 0,
            rate_scale: 1.0,
        }
    }

    /// Scale the arrival rate: effective rate is `scale × peak_rps`.
    /// Non-finite or negative scales read as zero.
    pub fn set_rate_scale(&mut self, scale: f64) {
        self.rate_scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            0.0
        };
    }

    /// Number of serving cores.
    pub fn num_cores(&self) -> usize {
        self.server.num_cores()
    }

    /// Advance the service by `dt` at the given per-core frequencies.
    ///
    /// Allocates a fresh descriptor vector per tick; hot loops should
    /// call [`OpenLoopService::advance_into`] with a reused buffer.
    pub fn advance(&mut self, dt: Seconds, freqs: &[KiloHertz]) -> Vec<LoadDescriptor> {
        let mut out = Vec::with_capacity(freqs.len());
        self.advance_into(dt, freqs, &mut out);
        out
    }

    /// Zero-allocation form of [`OpenLoopService::advance`]: clears `out`
    /// and writes one [`LoadDescriptor`] per serving core into it.
    pub fn advance_into(
        &mut self,
        dt: Seconds,
        freqs: &[KiloHertz],
        out: &mut Vec<LoadDescriptor>,
    ) {
        let dt = dt.value();
        let now = self.server.now();

        // Poisson arrival count for this tick (Knuth's product-of-
        // uniforms; λ = rate·dt is small at millisecond ticks, so the
        // loop runs a handful of iterations).
        let lambda = self.config.peak_rps * self.rate_scale * dt;
        let n = if lambda > 0.0 {
            let limit = (-lambda).exp();
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= self.rng.gen_range(0.0..1.0_f64);
                if p <= limit || k > 10_000 {
                    break k;
                }
                k += 1;
            }
        } else {
            0
        };
        // Spread arrivals evenly across the tick: at millisecond ticks
        // the intra-tick offset is far below any latency we report, and
        // it keeps the RNG draw count independent of queue state.
        for i in 0..n {
            self.offered += 1;
            if self.server.queued() >= self.config.queue_cap {
                self.dropped += 1;
                continue;
            }
            let arrival = now + dt * (i as f64 + 0.5) / n as f64;
            let demand = self
                .config
                .demand
                .sample(&mut self.rng, self.config.mean_service_cycles);
            self.server.enqueue(demand, arrival);
        }

        self.server.serve(dt, freqs, out, |_| {});
    }

    /// Completed requests in the current measurement window.
    pub fn completed(&self) -> u64 {
        self.server.completed()
    }

    /// Requests offered (arrived) in the current window, including drops.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests dropped at the full queue in the current window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Latency percentile (`p` in 0..100) in milliseconds over the
    /// current window; 0 when nothing completed.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.server.percentile_ms(p)
    }

    /// The headline tail metric.
    pub fn p90_ms(&self) -> f64 {
        self.percentile_ms(90.0)
    }

    /// Goodput in completed requests per second over the current window.
    pub fn throughput(&self) -> f64 {
        self.server.throughput()
    }

    /// Discard recorded stats and restart the measurement window; queue
    /// state and the service clock are untouched.
    pub fn reset_stats(&mut self) {
        self.server.reset_stats();
        self.offered = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mhz: u64, cores: usize, scale: f64, seconds: f64) -> OpenLoopService {
        let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), cores);
        svc.set_rate_scale(scale);
        let freqs = vec![KiloHertz::from_mhz(mhz); cores];
        for _ in 0..(seconds / 0.001) as usize {
            svc.advance(Seconds(0.001), &freqs);
        }
        svc
    }

    #[test]
    fn keeps_up_when_provisioned() {
        let svc = run(3000, 2, 1.0, 20.0);
        // 400 rps offered; nearly all should complete with no drops.
        assert_eq!(svc.dropped(), 0);
        let x = svc.throughput();
        assert!(x > 330.0 && x < 470.0, "throughput {x}");
        assert!(svc.p90_ms() < 50.0, "p90 {}", svc.p90_ms());
    }

    #[test]
    fn overload_drops_instead_of_throttling_arrivals() {
        // 2× the rate against one slow core: the queue caps and drops.
        let svc = run(800, 1, 2.0, 30.0);
        assert!(svc.dropped() > 0, "overload must shed traffic");
        assert!(svc.offered() > svc.completed() + svc.dropped() / 2);
        // Offered rate stays open-loop: ~800 rps regardless of service.
        let offered_rps = svc.offered() as f64 / 30.0;
        assert!(
            offered_rps > 700.0 && offered_rps < 900.0,
            "offered {offered_rps}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(2200, 2, 0.8, 10.0);
        let b = run(2200, 2, 0.8, 10.0);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.offered(), b.offered());
        assert_eq!(a.p90_ms(), b.p90_ms());
    }

    #[test]
    fn advance_into_matches_advance() {
        let mut a = OpenLoopService::new(OpenLoopConfig::frontend(), 3);
        let mut b = a.clone();
        let freqs = vec![KiloHertz::from_mhz(2600); 3];
        let mut buf = Vec::new();
        for _ in 0..8000 {
            let fresh = a.advance(Seconds(0.001), &freqs);
            b.advance_into(Seconds(0.001), &freqs, &mut buf);
            assert_eq!(fresh, buf);
        }
        assert_eq!(a.completed(), b.completed());
    }

    /// Pins the serve loop bit for bit, drops included: a change to
    /// arrival spreading, queueing order or the stats window moves these
    /// numbers.
    #[test]
    fn mixed_frequency_run_is_pinned() {
        let cfg = OpenLoopConfig {
            queue_cap: 200,
            ..OpenLoopConfig::frontend()
        };
        let mut svc = OpenLoopService::new(cfg, 2);
        let mut freqs = vec![KiloHertz::ZERO; 2];
        let mut busy = 0.0;
        for t in 0..4000u64 {
            if t == 2000 {
                svc.reset_stats();
                svc.set_rate_scale(2.5);
            }
            for (c, f) in freqs.iter_mut().enumerate() {
                *f = KiloHertz::from_mhz(800 + 200 * ((5 * c as u64 + t / 250) % 12));
            }
            let loads = svc.advance(Seconds(0.001), &freqs);
            busy += loads.iter().map(|l| l.utilization).sum::<f64>();
        }
        assert_eq!(
            (
                busy.to_bits(),
                svc.completed(),
                svc.offered(),
                svc.dropped(),
                svc.p90_ms().to_bits(),
                svc.percentile_ms(50.0).to_bits(),
                svc.throughput().to_bits(),
            ),
            // Busy core-ticks 7165.746; 909 completed of 2022 offered, 920
            // dropped; p90 479.017 ms, p50 403.364 ms, 454.5 req/s.
            (
                0x40bb_fdbf_0835_1f68,
                909,
                2022,
                920,
                0x407d_f044_213b_cfb8,
                0x4079_35d2_d26b_eca8,
                0x407c_6800_0000_0370,
            )
        );
    }

    #[test]
    fn tail_inflates_at_low_frequency() {
        let fast = run(3000, 2, 1.0, 20.0);
        let slow = run(1200, 2, 1.0, 20.0);
        assert!(
            slow.p90_ms() > fast.p90_ms() * 2.0,
            "p90 {} -> {} ms",
            fast.p90_ms(),
            slow.p90_ms()
        );
    }

    #[test]
    fn zero_scale_silences_arrivals() {
        let mut svc = OpenLoopService::new(OpenLoopConfig::frontend(), 2);
        svc.set_rate_scale(0.0);
        let freqs = vec![KiloHertz::from_mhz(3000); 2];
        for _ in 0..2000 {
            svc.advance(Seconds(0.001), &freqs);
        }
        assert_eq!(svc.offered(), 0);
        // Degenerate scales read as zero, not NaN-rate arrivals.
        svc.set_rate_scale(f64::NAN);
        for _ in 0..1000 {
            svc.advance(Seconds(0.001), &freqs);
        }
        assert_eq!(svc.offered(), 0);
    }
}
