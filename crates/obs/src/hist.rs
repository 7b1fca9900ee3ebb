//! Log2-bucketed latency histogram with lock-free recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets. Bucket 0 holds the value 0; bucket `b` in
/// `1..N_BUCKETS-1` holds values in `[2^(b-1), 2^b - 1]`; the last bucket
/// is the +∞ overflow: everything at or above `2^(N_BUCKETS-2)`
/// (≈ 275 seconds when recording nanoseconds).
pub const N_BUCKETS: usize = 40;

/// The bucket a value falls into (see [`N_BUCKETS`] for the layout).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Smallest value bucket `b` can hold.
pub fn bucket_lower_bound(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

/// Largest value bucket `b` can hold, or `None` for the +∞ overflow bucket.
pub fn bucket_upper_bound(b: usize) -> Option<u64> {
    if b + 1 >= N_BUCKETS {
        None
    } else {
        Some((1u64 << b) - 1)
    }
}

/// A fixed-size log2 histogram. Recording is wait-free (relaxed atomic
/// adds); concurrent recorders never lose a count. Reads are monotone but
/// not atomic across fields — a snapshot taken while writers are active can
/// be slightly torn, which is fine for telemetry.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    /// Resets every cell to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The `q`-quantile at bucket resolution: the upper bound of the bucket
    /// holding the target rank, clamped to the observed max (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), q, self.max())
    }
}

/// The `q`-quantile of a bucketed distribution, reported as the upper bound
/// of the bucket containing the target rank (so a quantile never
/// *understates* the latency), clamped to the observed `max` — which also
/// gives the +∞ overflow bucket a finite answer. `q` is clamped to [0, 1];
/// an empty histogram reports 0.
pub fn quantile_from_buckets(buckets: &[u64; N_BUCKETS], q: f64, max: u64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper_bound(b).unwrap_or(max).min(max);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64_without_gaps() {
        // Consecutive buckets tile the u64 range: each upper bound + 1 is
        // the next lower bound, starting from 0.
        assert_eq!(bucket_lower_bound(0), 0);
        for b in 0..N_BUCKETS - 1 {
            let hi = bucket_upper_bound(b).expect("finite bucket");
            assert_eq!(bucket_lower_bound(b + 1), hi + 1, "gap after bucket {b}");
        }
        assert_eq!(bucket_upper_bound(N_BUCKETS - 1), None, "last is +inf");
    }

    #[test]
    fn values_land_in_their_buckets() {
        for b in 0..N_BUCKETS - 1 {
            let lo = bucket_lower_bound(b);
            let hi = bucket_upper_bound(b).unwrap();
            assert_eq!(bucket_index(lo), b, "lower bound of {b}");
            assert_eq!(bucket_index(hi), b, "upper bound of {b}");
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.max(), 1000);
        let b = h.buckets();
        assert_eq!(b[bucket_index(0)], 1);
        assert_eq!(b[bucket_index(1)], 2);
        assert_eq!(b[bucket_index(5)], 1);
        assert_eq!(b[bucket_index(1000)], 1);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets().iter().sum::<u64>(), 0);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        // 99 values of 10 and one of 1_000_000.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        // p50/p95 sit in 10's bucket [8, 15]; p100 hits the outlier.
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.95), 15);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // Empty histogram reports 0.
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(9); // bucket [8, 15], but max is 9
        assert_eq!(h.quantile(0.5), 9);
        // Overflow bucket reports the observed max, not +inf.
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 8_000);
    }
}
