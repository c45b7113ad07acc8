//! Sample statistics, computed exactly from the benchmark's own sorted
//! samples (never from `distvliw_obs::Histogram`, whose log buckets are
//! up to 25 % wide), plus the seeded generator and process probes.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`): the
/// smallest sample with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q` — a tail percentile is only reported as supported
/// when at least ten samples lie beyond it.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Median (nearest rank).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median per-call nanoseconds of `f`, timed in `batches` batches of
/// `per_batch` calls each (batching keeps clock overhead out of
/// sub-microsecond operations).
pub fn ns_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let per_batch = per_batch.max(1);
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `VmHWM` (peak resident set) of this process in MiB, 0 without
/// procfs.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed single-threaded integer loop takes: a reference
/// for how fast this host runs right now, printed beside the results so
/// host drift between runs can be told apart from a change in the
/// program.
#[must_use]
pub fn host_reference_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0);
    let mut acc = 0u64;
    for _ in 0..20_000_000 {
        acc = acc.wrapping_add(rng.next_u64());
    }
    std::hint::black_box(acc);
    ms(start.elapsed())
}

/// SplitMix64: the benchmark's only source of random draws, seeded from
/// `--seed`, so a seed fixes every generated input.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn seeded_draws_repeat() {
        let draws = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }
}
