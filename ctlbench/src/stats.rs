//! Order statistics over wall-time samples, plus the per-layer sample
//! registry the traced runs fill.

use std::collections::BTreeMap;
use std::time::Instant;

/// Run `f` and return its result with the elapsed wall milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// Median (mean of the two middle values for an even count); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value: `None` below 40 samples, where that percentile would be
/// no tail.
#[must_use]
pub fn ten_beyond_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// Per-layer samples of a traced run. Values recorded during one operation
/// (a tick, a reconciliation, a plan, a restore) add up, and
/// [`Layers::commit`] closes the operation: each layer then has one sample
/// per operation that called it, reported as their median.
#[derive(Debug, Default)]
pub struct Layers {
    open: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Add `value` to `name` in the open operation.
    pub fn push(&mut self, name: &'static str, value: f64) {
        *self.open.entry(name).or_default() += value;
    }

    /// Time `f`, adding its wall milliseconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = time_ms(f);
        self.push(name, ms);
        out
    }

    /// Sum of the open operation's values of `names` so far.
    #[must_use]
    pub fn open_sum(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.open.get(n)).sum()
    }

    /// Close the open operation.
    pub fn commit(&mut self) {
        for (name, v) in std::mem::take(&mut self.open) {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Median of `name`'s samples (0 when no operation recorded it).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert!(ten_beyond_tail(&[1.0; 39]).is_none());
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, v) = ten_beyond_tail(&s).unwrap();
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
    }
}
