//! Timing samples, percentiles, process memory and seed derivation.

use std::time::{Duration, Instant};

/// Per-operation latencies of a timed phase, as the caller saw them.
#[derive(Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in microseconds (`q` in 0..=1).
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_us_since(0, q)
    }

    /// The same over the samples from index `from` on.
    pub fn percentile_us_since(&self, from: usize, q: f64) -> f64 {
        let ns: Vec<f64> = self.ns[from..].iter().map(|&n| n as f64).collect();
        percentile(&ns, q) / 1e3
    }
}

/// End-to-end figures of one round of a workload.
pub struct Round {
    pub ops_per_s: f64,
    pub p50_us: f64,
}

impl Round {
    /// The round made of the samples from index `from` on, over `wall`.
    pub fn of(samples: &Samples, from: usize, wall: Duration) -> Self {
        Round {
            ops_per_s: (samples.len() - from) as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: samples.percentile_us_since(from, 0.5),
        }
    }
}

/// Nearest-rank percentile of `values` (`q` in 0..=1); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of signed values (0 when empty).
pub fn median_i64(values: &[i64]) -> f64 {
    let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    percentile(&as_f, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times, returning the last result and the median
/// duration in seconds.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("times >= 1"), percentile(&secs, 0.5))
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
