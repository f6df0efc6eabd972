//! The benchmark's one percentile helper: exact samples, nearest-rank
//! percentiles, and the "highest percentile with at least ten samples
//! beyond it" rule every reported timing follows.

/// Percentiles considered for a timing's tail, lowest first.
const TAIL_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples of one timing (any unit; the caller keeps it consistent).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Summary of a [`Samples`] set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (0 when empty).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
    /// beyond it; 0 when no percentile qualifies (fewer than 20 samples).
    pub tail_q: f64,
    /// Value at `tail_q` (0 when none qualifies).
    pub tail: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Merge another set into this one.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank quantile `q` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    }

    /// Sort and summarise.
    pub fn summary(&self) -> Summary {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary::default();
        }
        let sum: f64 = v.iter().sum();
        let (tail_q, tail) = TAIL_QUANTILES
            .iter()
            .rev()
            .find(|&&q| beyond(n, q) >= 10)
            .map(|&q| (q, percentile(&v, q)))
            .unwrap_or((0.0, 0.0));
        Summary {
            n,
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            p99: percentile(&v, 0.99),
            tail_q,
            tail,
            sum,
        }
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Rate of every whole `width`-second slice of `[0, window)`, each
/// `(start, end, amount)` interval's amount spread evenly over its span
/// (seconds since the window opened). A median over slices shrugs off a
/// burst of interference that a whole-window average would absorb.
pub fn slice_rates(intervals: &[(f64, f64, f64)], window: f64, width: f64) -> Vec<f64> {
    let n = (window / width).floor() as usize;
    let mut amount = vec![0.0; n];
    for &(start, end, a) in intervals {
        let span = (end - start).max(1e-12);
        let first = (start / width).floor().max(0.0) as usize;
        for (k, slot) in amount.iter_mut().enumerate().skip(first) {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            if lo >= end {
                break;
            }
            let overlap = hi.min(end) - lo.max(start);
            if overlap > 0.0 {
                *slot += a * overlap / span;
            }
        }
    }
    amount.into_iter().map(|a| a / width).collect()
}

/// Values grouped by the whole `width`-second slice of `[0, window)` their
/// time falls in; `(time, value)` points past the last whole slice are
/// dropped.
pub fn by_slice(points: &[(f64, f64)], window: f64, width: f64) -> Vec<Samples> {
    let n = (window / width).floor() as usize;
    let mut out = vec![Samples::new(); n];
    for &(t, v) in points {
        if let Some(s) = out.get_mut((t / width).floor().max(0.0) as usize) {
            s.push(v);
        }
    }
    out
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        let m = s.summary();
        assert_eq!((m.n, m.p50, m.p90, m.p99), (100, 50.0, 90.0, 99.0));
        // p90 leaves 10 samples beyond it, p99 only one.
        assert_eq!((m.tail_q, m.tail), (0.9, 90.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 0..19 {
            s.push(i as f64);
        }
        assert_eq!(s.summary().tail_q, 0.0);
        s.push(19.0);
        assert_eq!(s.summary().tail_q, 0.5);
        let mut big = Samples::new();
        for i in 0..20_000 {
            big.push(i as f64);
        }
        assert_eq!(big.summary().tail_q, 0.999);
    }

    #[test]
    fn slices_spread_intervals_evenly() {
        // 10 units over [0.5, 1.5): half in each of the first two slices.
        let r = slice_rates(&[(0.5, 1.5, 10.0), (2.0, 2.5, 4.0)], 3.2, 1.0);
        assert_eq!(r, vec![5.0, 5.0, 4.0]);
        let s = by_slice(&[(0.1, 1.0), (0.9, 3.0), (2.5, 7.0), (3.5, 9.0)], 3.0, 1.0);
        let lens: Vec<usize> = s.iter().map(Samples::len).collect();
        assert_eq!(lens, vec![2, 0, 1]);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(Samples::new().summary(), Summary::default());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
