//! Block summaries of per-window time series, over
//! `pap_telemetry::stats`.

use pap_telemetry::stats::percentile;

/// The highest of the standard tail percentiles that leaves at least ten
/// samples beyond it when `n` samples are taken.
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so the count beyond is exact integer arithmetic.
    let per_mille = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

/// Median-of-blocks summary of a per-window time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocked {
    /// Whole blocks the series held (a trailing partial block is dropped).
    pub blocks: usize,
    /// The tail percentile taken within each block.
    pub tail_p: f64,
    /// Median over blocks of each block's p50.
    pub p50: f64,
    /// Median over blocks of each block's tail percentile.
    pub tail: f64,
}

/// Cut `time` into blocks of `len` consecutive samples and take the
/// median over blocks of each block's p50 and tail. A host slowdown that
/// lasts less than half the run moves a median of blocks far less than
/// a statistic over all samples.
pub fn blocked(time: &[f64], len: usize) -> Blocked {
    let tail_p = tail_percentile(len);
    let p50: Vec<f64> = time
        .chunks_exact(len)
        .map(|t| percentile(t, 50.0))
        .collect();
    let tail: Vec<f64> = time
        .chunks_exact(len)
        .map(|t| percentile(t, tail_p))
        .collect();
    Blocked {
        blocks: p50.len(),
        tail_p,
        p50: percentile(&p50, 50.0),
        tail: percentile(&tail, 50.0),
    }
}

/// Median over blocks of `len` samples of each block's summed `work`
/// over its summed `time`.
pub fn block_rate(time: &[f64], work: &[f64], len: usize) -> f64 {
    let rates: Vec<f64> = time
        .chunks_exact(len)
        .zip(work.chunks_exact(len))
        .map(|(t, w)| w.iter().sum::<f64>() / t.iter().sum::<f64>())
        .collect();
    percentile(&rates, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_drop_the_partial_tail_and_take_medians() {
        let time = [1.0, 1.0, 3.0, 3.0, 2.0, 2.0, 9.0];
        let b = blocked(&time, 2);
        assert_eq!(b.blocks, 3);
        assert_eq!(b.p50, 2.0);
        assert_eq!(block_rate(&time, &[1.0; 7], 2), 0.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(250), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(12), 50.0);
    }
}
