//! Transition count matrices from discrete trajectories.

mdsim::jsonv::record! {
    /// Dense transition-count matrix. Stored as `f64` so pseudocount
    /// priors can be added without a second type. In controller images:
    /// `{"n": …, "data": […]}`, decimal, row-major.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CountMatrix {
        n: usize,
        data: Vec<f64>,
    }
    check CountMatrix::check;
}

impl CountMatrix {
    pub fn zeros(n: usize) -> Self {
        CountMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Count transitions at the given lag (in frames) with a sliding
    /// window over every trajectory: every pair `(d[t], d[t+lag])`
    /// contributes one count.
    pub fn from_dtrajs(dtrajs: &[Vec<usize>], n_states: usize, lag: usize) -> Self {
        assert!(lag >= 1, "lag must be at least one frame");
        let mut c = CountMatrix::zeros(n_states);
        for d in dtrajs {
            for t in 0..d.len().saturating_sub(lag) {
                c.add(d[t], d[t + lag], 1.0);
            }
        }
        c
    }

    pub fn n_states(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    #[inline]
    pub fn add(&mut self, i: usize, j: usize, w: f64) {
        assert!(i < self.n && j < self.n, "state index out of range");
        self.data[i * self.n + j] += w;
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).iter().sum()
    }

    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Symmetrized counts `C + Cᵀ` — the simple reversible estimator.
    pub fn symmetrized(&self) -> CountMatrix {
        let mut out = CountMatrix::zeros(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                out.data[i * self.n + j] = self.get(i, j) + self.get(j, i);
            }
        }
        out
    }

    /// Restrict to a state subset: returns the submatrix and keeps the
    /// subset order (`subset[k]` is the original id of new state `k`).
    pub fn restrict(&self, subset: &[usize]) -> CountMatrix {
        let m = subset.len();
        let mut out = CountMatrix::zeros(m);
        for (a, &i) in subset.iter().enumerate() {
            for (b, &j) in subset.iter().enumerate() {
                out.data[a * m + b] = self.get(i, j);
            }
        }
        out
    }

    /// Add `prior` to every element (a uniform pseudocount).
    pub fn with_prior(&self, prior: f64) -> CountMatrix {
        assert!(prior >= 0.0);
        CountMatrix {
            n: self.n,
            data: self.data.iter().map(|c| c + prior).collect(),
        }
    }

    /// Enlarge the state space by `n_new` states, preserving every
    /// existing count. New rows/columns start at zero. This is the
    /// primitive behind streaming estimation: discovering a microstate
    /// mid-run must not discard the counts gathered so far.
    pub fn grow(&mut self, n_new: usize) {
        if n_new == 0 {
            return;
        }
        let old = self.n;
        let n = old + n_new;
        let mut data = vec![0.0; n * n];
        for i in 0..old {
            data[i * n..i * n + old].copy_from_slice(&self.data[i * old..(i + 1) * old]);
        }
        self.n = n;
        self.data = data;
    }

    fn check(&self) -> Result<(), String> {
        if self.data.len() != self.n * self.n {
            return Err(format!(
                "count matrix data length {} != n² for n = {}",
                self.data.len(),
                self.n
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_counts() {
        // Trajectory 0 1 0 1 at lag 1: transitions 0→1, 1→0, 0→1.
        let d = vec![vec![0usize, 1, 0, 1]];
        let c = CountMatrix::from_dtrajs(&d, 2, 1);
        assert_eq!(c.get(0, 1), 2.0);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.total(), 3.0);
    }

    #[test]
    fn lag_two_counts() {
        // 0 1 0 1 at lag 2: pairs (0,0) and (1,1).
        let d = vec![vec![0usize, 1, 0, 1]];
        let c = CountMatrix::from_dtrajs(&d, 2, 2);
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(1, 1), 1.0);
        assert_eq!(c.total(), 2.0);
    }

    #[test]
    fn multiple_trajectories_accumulate() {
        let d = vec![vec![0usize, 1], vec![0, 1], vec![1, 0]];
        let c = CountMatrix::from_dtrajs(&d, 2, 1);
        assert_eq!(c.get(0, 1), 2.0);
        assert_eq!(c.get(1, 0), 1.0);
    }

    #[test]
    fn short_trajectories_contribute_nothing() {
        let d = vec![vec![0usize]];
        let c = CountMatrix::from_dtrajs(&d, 1, 1);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn symmetrization() {
        let d = vec![vec![0usize, 1, 1]];
        let c = CountMatrix::from_dtrajs(&d, 2, 1);
        let s = c.symmetrized();
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.get(1, 1), 2.0);
    }

    #[test]
    fn restriction_keeps_subset_counts() {
        let d = vec![vec![0usize, 1, 2, 1, 0]];
        let c = CountMatrix::from_dtrajs(&d, 3, 1);
        let r = c.restrict(&[1, 2]);
        assert_eq!(r.n_states(), 2);
        assert_eq!(r.get(0, 1), c.get(1, 2));
        assert_eq!(r.get(1, 0), c.get(2, 1));
    }

    #[test]
    fn prior_adds_uniformly() {
        let c = CountMatrix::zeros(2).with_prior(0.5);
        assert_eq!(c.total(), 2.0);
        assert_eq!(c.get(1, 0), 0.5);
    }

    #[test]
    fn row_access() {
        let mut c = CountMatrix::zeros(3);
        c.add(1, 0, 2.0);
        c.add(1, 2, 3.0);
        assert_eq!(c.row(1), &[2.0, 0.0, 3.0]);
        assert_eq!(c.row_sum(1), 5.0);
    }

    #[test]
    fn grow_preserves_counts_and_zeros_new_states() {
        let d = vec![vec![0usize, 1, 0, 1]];
        let mut c = CountMatrix::from_dtrajs(&d, 2, 1);
        c.grow(2);
        assert_eq!(c.n_states(), 4);
        assert_eq!(c.get(0, 1), 2.0);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(0, 3), 0.0);
        assert_eq!(c.get(3, 0), 0.0);
        assert_eq!(c.total(), 3.0);
        // Counting continues in the enlarged space.
        c.add(3, 2, 1.0);
        assert_eq!(c.get(3, 2), 1.0);
        assert_eq!(c.total(), 4.0);
    }

    #[test]
    fn grow_zero_is_noop() {
        let mut c = CountMatrix::zeros(2);
        c.add(0, 1, 1.0);
        let before = c.clone();
        c.grow(0);
        assert_eq!(c, before);
    }

    #[test]
    fn value_roundtrip() {
        let d = vec![vec![0usize, 1, 2, 1, 0]];
        let c = CountMatrix::from_dtrajs(&d, 3, 1);
        let back = CountMatrix::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn value_rejects_bad_shape() {
        let v = serde_json::json!({"n": 3u64, "data": [1.0, 2.0]});
        assert!(CountMatrix::from_value(&v).is_err());
    }
}
