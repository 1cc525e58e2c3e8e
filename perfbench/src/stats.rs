//! Order statistics and the metric list printed as the result line.

/// Nearest-rank percentile (`p` in 0..=1) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Samples strictly above the nearest-rank percentile `p`: the report
/// names a percentile only when at least ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Geometric mean of `x + 1` over `xs`, minus one. The shift keeps a run
/// with zero memory operations in the mean instead of dropping it.
pub fn shifted_geomean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    // Summed in sorted order, so the result does not depend on the order
    // in which a seed ran the operations.
    let mut v = xs.to_vec();
    v.sort_unstable();
    let s: f64 = v.iter().map(|&x| (x as f64 + 1.0).ln()).sum();
    (s / xs.len() as f64).exp() - 1.0
}

/// Deterministic shuffle (splitmix64 driven Fisher-Yates), so a seed fixes
/// the order in which a workload's operations run.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Named metrics in insertion order, rendered as the `metrics` object.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Full-precision JSON number; non-finite values (an empty sample) become
/// `null` so the line stays valid JSON and the gap stays visible.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_beyond_p99_of_a_thousand() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn shifted_geomean_of_constant_is_the_constant() {
        assert!((shifted_geomean(&[7, 7, 7]) - 7.0).abs() < 1e-9);
        assert!((shifted_geomean(&[0, 0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }
}
