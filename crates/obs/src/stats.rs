//! The one log2 histogram of the stack: NoC packet latencies (cycles) on
//! the deterministic plane and profiler scope durations (nanoseconds) on
//! the timing plane both record into it.

/// A power-of-two-bucketed histogram of `u64` samples: bucket `i` counts
/// samples in `[2^i, 2^(i+1))` (bucket 0 also holds 0). Buckets are
/// allocated on demand, so [`Log2Histogram::buckets`] ends at the highest
/// bucket ever recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Log2Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = 63 - value.max(1).leading_zeros() as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Forgets every sample but keeps the bucket buffer, so a histogram
    /// reused per cycle does not allocate again. Equal to a new one.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The bucket counts (bucket `i` covers `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Folds another histogram into this one (bucket-wise addition).
    /// Commutative and associative, so per-stripe histograms from the
    /// parallel sweep merge into the same totals in any order.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (slot, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += b;
        }
        self.count += other.count;
    }

    /// An upper bound on the `q`-quantile sample (`0 < q <= 1`): the
    /// exclusive upper edge `2^(i+1)` of the bucket containing that
    /// quantile, saturating at `u64::MAX` for the top bucket. `None`
    /// before any sample.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Log2Histogram::default();
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(10); // bucket 3
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets(), &[1, 2, 0, 1]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.quantile_upper_bound(0.5), None);
        for lat in [1u64, 2, 2, 3, 100] {
            h.record(lat);
        }
        // Median of {1,2,2,3,100} is 2 -> bucket 1 -> upper bound 4.
        assert_eq!(h.quantile_upper_bound(0.5), Some(4));
        // The tail sample dominates the max quantile.
        assert_eq!(h.quantile_upper_bound(1.0), Some(128));
        // The top bucket saturates instead of overflowing.
        h.record(u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_matches_interleaved_recording() {
        let mut merged = Log2Histogram::default();
        let mut reference = Log2Histogram::default();
        let mut part = Log2Histogram::default();
        for lat in [1u64, 3, 9, 200] {
            reference.record(lat);
            merged.record(lat);
        }
        for lat in [2u64, 1000, 4] {
            reference.record(lat);
            part.record(lat);
        }
        merged.merge(&part);
        assert_eq!(merged, reference);
    }

    #[test]
    fn cleared_histogram_equals_a_new_one_and_keeps_its_buffer() {
        let mut h = Log2Histogram::default();
        h.record(1000);
        let capacity = h.buckets.capacity();
        h.clear();
        assert_eq!(h, Log2Histogram::default());
        assert_eq!(h.quantile_upper_bound(0.5), None);
        assert_eq!(h.buckets.capacity(), capacity);
        h.record(3);
        assert_eq!((h.count(), h.buckets()), (1, &[0, 1][..]));
    }
}
