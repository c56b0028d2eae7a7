//! Seeded input generation and the order statistics every metric is
//! reported with.

/// 64-bit LCG (Knuth MMIX constants). Every workload input derives from
/// `--seed` through this generator only: the program under test never sees
/// the seed, only the generated inputs.
pub struct Lcg(u64);

impl Lcg {
    /// A generator for one named input stream of one seed, so workloads
    /// (and streams within one) do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Lcg(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next();
        g
    }

    /// The next value (high 31 bits of the state, the well-mixed ones).
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }
}

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so spreads printed here are the ones an
/// outside checker using that function sees. One sample is its own
/// median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a metric needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        if len == 1 {
            return v[0];
        }
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n: len,
    }
}

/// Median of the samples.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn lcg_streams_differ_and_repeat() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Lcg::new(7, 1), |g, _| Some(g.next()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Lcg::new(7, 1), |g, _| Some(g.next()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Lcg::new(7, 2), |g, _| Some(g.next()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
