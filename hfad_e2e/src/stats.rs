//! Latency samples and the few statistics the benchmark reports.

/// Samples a percentile needs beyond it before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Latencies of one kind of operation, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn merge(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    /// Sorts once; the accessors below need it.
    pub fn sorted(mut self) -> Sorted {
        self.0.sort_unstable();
        Sorted(self.0)
    }
}

/// Sorted latencies.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in microseconds; 0 when there are no
    /// samples (a kind the workload does not run).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = ((self.0.len() as f64 * p).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1000.0
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_us(0.5)
    }

    /// The tail percentile: p99 when at least [`SAMPLES_BEYOND`] samples
    /// lie beyond it, otherwise the highest percentile that has them
    /// (the median for very small samples). Returns `(percentile, µs)`.
    pub fn tail_us(&self) -> (f64, f64) {
        let n = self.0.len();
        let p = if n >= 2 * SAMPLES_BEYOND {
            (1.0 - SAMPLES_BEYOND as f64 / n as f64).min(0.99)
        } else {
            0.5
        };
        (p, self.percentile_us(p))
    }
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads computed here match the driver's.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(values: impl IntoIterator<Item = u64>) -> Sorted {
        let mut l = Latencies::default();
        for v in values {
            l.push(v * 1000);
        }
        l.sorted()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = lat(1..=100);
        assert_eq!(s.p50_us(), 50.0);
        assert_eq!(s.percentile_us(0.99), 99.0);
        assert_eq!(s.percentile_us(1.0), 100.0);
        assert_eq!(lat([]).p50_us(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(lat(1..=1000).tail_us(), (0.99, 990.0));
        // 100 samples: p90 is the highest percentile with ten beyond it.
        let (p, v) = lat(1..=100).tail_us();
        assert!((p - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0);
        // Too few for any tail: the median.
        assert_eq!(lat(1..=9).tail_us(), (0.5, 5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
