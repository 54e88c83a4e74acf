//! The harness's own latency histogram (nanoseconds, log-linear buckets).
//!
//! Values below 128 ns get one bucket each; above that every power-of-two
//! range is split into 128 linear sub-buckets, so a recorded value is known
//! to within 1/128 of itself.  Quantiles interpolate linearly inside the
//! bucket the rank falls in, which keeps a median from snapping to the same
//! bucket edge on every run.  Fixed size, so recording never allocates and
//! the histogram's memory does not depend on how fast the program is.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Groups above the exact range; the top one holds values past 2^40 ns
/// (18 minutes), far longer than any run.
const GROUPS: usize = 34;
const BUCKETS: usize = (GROUPS + 1) * SUB as usize;
const MAX_NS: u64 = (SUB << GROUPS) - 1;

/// The median of `values` (which it sorts); 0 when there are none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

fn index(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns < SUB {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let shift = msb - SUB_BITS;
    let group = (shift + 1) as usize;
    group * SUB as usize + ((ns >> shift) - SUB) as usize
}

/// The half-open value range `[low, high)` of bucket `i`.
fn edges(i: usize) -> (u64, u64) {
    let group = i / SUB as usize;
    let sub = (i % SUB as usize) as u64;
    if group == 0 {
        return (sub, sub + 1);
    }
    let shift = group as u32 - 1;
    ((SUB + sub) << shift, (SUB + sub + 1) << shift)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[index(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// The value at quantile `q` in `[0, 1]`, in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (low, high) = edges(i);
                let inside = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return low as f64 + inside * (high - low) as f64;
            }
            seen += n;
        }
        MAX_NS as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_low = 0;
        for i in 0..BUCKETS {
            let (low, high) = edges(i);
            assert_eq!(low, expected_low, "bucket {i}");
            assert_eq!(index(low), i);
            assert_eq!(index(high - 1), i);
            expected_low = high;
        }
        assert_eq!(expected_low, MAX_NS + 1);
    }

    #[test]
    fn quantiles_stay_within_a_128th_of_the_recorded_value() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 10_000.0 * 37.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / 64.0,
                "{q}: {got} vs {exact}"
            );
        }
    }
}
