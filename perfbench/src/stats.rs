//! Sample summaries: median and quartiles, computed the way Python's
//! `statistics.quantiles(values, n=4)` (exclusive method) computes them, so
//! the spreads printed here match the ones a reader recomputes by hand.

use swarm_serve::json::Value;

/// Count, median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Some(Summary { n, median, q1: quartile(&v, 1), q3: quartile(&v, 3) })
    }

    /// The summary as a JSON object for the run metadata.
    pub fn to_json(self) -> Value {
        Value::Obj(vec![
            ("n".into(), Value::UInt(self.n as u64)),
            ("median".into(), Value::Float(self.median)),
            ("q1".into(), Value::Float(self.q1)),
            ("q3".into(), Value::Float(self.q3)),
        ])
    }
}

/// The `i`-th quartile of sorted data (exclusive method, including its
/// clamped extrapolation for tiny samples; a single sample is its own
/// quartiles).
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = (i * (n + 1)) as i64;
    let j = (m / 4).clamp(1, n as i64 - 1);
    let delta = (m - 4 * j) as f64;
    let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
    (lo * (4.0 - delta) + hi * delta) / 4.0
}

/// The value at percentile `p` (0..=100) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// FNV-1a over `bytes`: the correctness digests of this benchmark. It is
/// defined here, not borrowed from the workspace, so a change to the
/// program's own hashing cannot silently re-key the pinned digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
