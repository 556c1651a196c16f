//! Medians and a log-linear latency histogram.

/// Median of `v` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two: values are kept to 1/32 (≈3 %)
/// relative precision.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + m
}

fn bucket_mid(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let e = ((i - SUB) / SUB) as u32 + SUB_BITS;
    let m = ((i - SUB) % SUB) as u64;
    let lo = (SUB as u64 + m) << (e - SUB_BITS);
    let width = 1u64 << (e - SUB_BITS);
    lo as f64 + width as f64 / 2.0
}

/// A log-linear histogram of host nanoseconds.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-quantile (`0..=1`) as its bucket's midpoint; `NaN` when
    /// empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket(v);
            assert!(b >= last && b < BUCKETS, "v={v}");
            last = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 32.0 + 0.5,
                "v={v} mid={mid}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_run() {
        let mut h = LogHist::default();
        for v in 1..=1000 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 500.0).abs() < 20.0);
        assert!((h.quantile(0.99) - 990.0).abs() < 35.0);
        let mut g = LogHist::default();
        g.merge(&h);
        assert_eq!(g.count(), 1000);
    }
}
