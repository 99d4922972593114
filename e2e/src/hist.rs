//! Log-bucketed latency histogram with constant memory.
//!
//! Values are nanoseconds. Each power of two is split into [`SUB`] linear
//! buckets, so a bucket is at most 1/128 of its lower bound wide; values
//! below [`SUB`] get a bucket each. A percentile is interpolated inside its
//! bucket, which keeps the error well under the 1% the benchmark promises
//! and keeps two runs from reporting the same bucket edge to the last digit.

/// Linear buckets per power of two.
const SUB: usize = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Largest exponent with its own row: values up to 2^41 ns (~37 min); larger
/// values land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

/// A fixed-size histogram of `u64` nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower bound and width of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let row = (i / SUB) as u32;
    let shift = row - 1;
    (((SUB + i % SUB) as u64) << shift, 1u64 << shift)
}

impl Hist {
    /// An empty histogram; allocates all its buckets now.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0u32; BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
        }
    }

    /// Add one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let c = &mut self.counts[bucket_of(ns)];
        *c = c.saturating_add(1);
        self.total += 1;
        self.sum += ns;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the samples, ns. Sums of spans add up where medians do
    /// not.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Add every sample of `other`; the result equals the histogram of the
    /// pooled samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, width) = bounds_of(i);
                // Samples are taken as evenly spread over their bucket.
                let inside = (rank - seen) as f64 - 0.5;
                return lo as f64 + width as f64 * inside / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is within the total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// Log-uniform samples from 50 ns to ~50 ms: every bucket row is used.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = Rng::for_client(seed, 0);
        (0..n)
            .map(|_| (50.0 * 2f64.powf(rng.unit() * 20.0)) as u64)
            .collect()
    }

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds_of(i);
            assert_eq!(lo, next, "bucket {i} starts where the last ended");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_error_is_within_one_percent() {
        let mut vals = samples(7, 200_000);
        let mut h = Hist::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact(&vals, q);
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn merge_equals_pooled() {
        let (a, b) = (samples(1, 30_000), samples(2, 50_000));
        let (mut ha, mut hb, mut pooled) = (Hist::new(), Hist::new(), Hist::new());
        for &v in &a {
            ha.record(v);
            pooled.record(v);
        }
        for &v in &b {
            hb.record(v);
            pooled.record(v);
        }
        ha.merge(&hb);
        assert_eq!((ha.count(), ha.sum()), (pooled.count(), pooled.sum()));
        assert_eq!(ha.counts, pooled.counts);
        assert_eq!(ha.quantile(0.99), pooled.quantile(0.99));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
