//! A log-bucketed latency histogram for the benchmark harness.
//!
//! Mean throughput hides tail pain: a transport can post the same
//! requests/sec while its p99 triples under hostile load.  The hostile
//! suite therefore records per-request latency into a
//! [`LatencyRecorder`] and reports percentiles next to throughput.
//!
//! The design is the standard HdrHistogram-style log-linear bucketing:
//! values below [`SUBBUCKETS`] microseconds get one exact bucket each;
//! above that, each power-of-two range is split into [`SUBBUCKETS`]
//! linear sub-buckets, bounding relative error at `1/SUBBUCKETS`
//! (6.25%).  Buckets are `AtomicU64`s bumped with relaxed `fetch_add`,
//! so a single recorder can be shared by value-free `&self` across
//! every client thread of a workload — no lock, no per-thread
//! flush protocol.  Recorders are also mergeable ([`LatencyRecorder::merge`])
//! for harnesses that prefer one recorder per thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two range; also the count of exact
/// single-microsecond buckets at the bottom of the scale.
pub const SUBBUCKETS: usize = 16;
const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();
/// Power-of-two groups above the exact range.  Group `g` covers
/// `[SUBBUCKETS << (g-1), SUBBUCKETS << g)` microseconds; 48 groups
/// reach past nine years, far beyond any latency we can record.
const GROUPS: usize = 48;
const BUCKETS: usize = (GROUPS + 1) * SUBBUCKETS;

/// Largest value the histogram distinguishes; anything bigger clamps
/// into the top bucket.
const MAX_VALUE_US: u64 = (SUBBUCKETS as u64) << (GROUPS - 1);

/// A mergeable, thread-shareable latency histogram (microseconds).
pub struct LatencyRecorder {
    buckets: Box<[AtomicU64; BUCKETS]>,
    total: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl Clone for LatencyRecorder {
    fn clone(&self) -> Self {
        let copy = LatencyRecorder::new();
        copy.merge(self);
        copy
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p99, p999) = self.summary_us();
        f.debug_struct("LatencyRecorder")
            .field("count", &self.count())
            .field("p50_us", &p50)
            .field("p99_us", &p99)
            .field("p999_us", &p999)
            .finish()
    }
}

/// Bucket index for `us`.  Values under [`SUBBUCKETS`] are exact; above
/// that the top [`SUB_BITS`] bits below the most significant bit pick
/// the linear sub-bucket within the value's power-of-two group.
fn index(us: u64) -> usize {
    let us = us.min(MAX_VALUE_US);
    if us < SUBBUCKETS as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((us >> (msb - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    group * SUBBUCKETS + sub
}

/// Highest value that lands in bucket `i` — the conservative (upper
/// edge) representative returned by percentile queries, so reported
/// tails err high, never low.
fn bucket_upper_us(i: usize) -> u64 {
    let group = i / SUBBUCKETS;
    let sub = (i % SUBBUCKETS) as u64;
    if group == 0 {
        return sub;
    }
    let width = 1u64 << (group - 1);
    (SUBBUCKETS as u64 + sub + 1) * width - 1
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder {
            // `AtomicU64` is not `Copy`; build the array through a Vec.
            buckets: (0..BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .try_into()
                .unwrap_or_else(|_| unreachable!("length is BUCKETS by construction")),
            total: AtomicU64::new(0),
        }
    }

    /// Records one latency sample, in microseconds.  `&self`: safe to
    /// call concurrently from any number of client threads.
    pub fn record_micros(&self, us: u64) {
        self.buckets[index(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one latency sample from a [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_micros(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Folds `other`'s samples into `self` (for per-thread recorders).
    pub fn merge(&self, other: &LatencyRecorder) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (e.g. `0.99`), in microseconds: the
    /// upper edge of the bucket containing the `ceil(q * count)`-th
    /// smallest sample.  Returns 0 for an empty recorder.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(BUCKETS - 1)
    }

    /// Per-bucket counts, for tests that compare whole distributions.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The (p50, p99, p999) triple, in microseconds.
    pub fn summary_us(&self) -> (u64, u64, u64) {
        (
            self.percentile_us(0.50),
            self.percentile_us(0.99),
            self.percentile_us(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LatencyRecorder::new();
        for us in 0..SUBBUCKETS as u64 {
            h.record_micros(us);
        }
        assert_eq!(h.count(), SUBBUCKETS as u64);
        // Median of 0..=15 at the ceil-rank definition is 7.
        assert_eq!(h.percentile_us(0.5), 7);
        assert_eq!(h.percentile_us(1.0), 15);
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = LatencyRecorder::new();
        for &us in &[17u64, 1_000, 123_456, 9_999_999, u64::MAX / 2] {
            h.record_micros(us);
            let got = h.percentile_us(1.0);
            let clamped = us.min(MAX_VALUE_US);
            assert!(got >= clamped, "upper edge {got} below sample {clamped}");
            assert!(
                (got - clamped) as f64 <= clamped as f64 / SUBBUCKETS as f64 + 1.0,
                "bucket error too large: {us} -> {got}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        let both = LatencyRecorder::new();
        for us in [3u64, 90, 4_000, 250_000] {
            a.record_micros(us);
            both.record_micros(us);
        }
        for us in [7u64, 90, 1_000_000] {
            b.record_micros(us);
            both.record_micros(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.bucket_counts(), both.bucket_counts());
    }

    #[test]
    fn shared_across_threads() {
        let h = std::sync::Arc::new(LatencyRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_micros(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
        assert!(h.percentile_us(0.999) >= h.percentile_us(0.5));
    }
}
