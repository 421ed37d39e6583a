//! Transition probability matrices: estimation, propagation, spectra.
//!
//! Implements Eq. (1) of the paper, `p(t+τ) = p(t) T(τ)`, the stationary
//! distribution used for blind native-state prediction, and the implied
//! timescales used for the Markovian lag-time sensitivity analysis.

use crate::counts::CountMatrix;

/// Dense row-stochastic transition matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    n: usize,
    data: Vec<f64>,
}

impl TransitionMatrix {
    /// Maximum-likelihood (non-reversible) estimator: row-normalized
    /// counts with an optional uniform pseudocount prior. Rows with no
    /// observations become self-loops.
    pub fn from_counts(counts: &CountMatrix, prior: f64) -> Self {
        let c = if prior > 0.0 {
            counts.with_prior(prior)
        } else {
            counts.clone()
        };
        Self::normalize(&c)
    }

    /// Maximum-likelihood reversible estimator (Bowman et al., J. Chem.
    /// Phys. 131:124101 (2009) — the paper's ref. \[2\]), returned with
    /// its stationary distribution.
    ///
    /// The MLE is `x_ij = (c_ij + c_ji) / (c_i/x_i + c_j/x_j)` with
    /// `x_i = Σ_j x_ij` and row counts `c_i = Σ_j c_ij`; `T_ij = x_ij/x_i`.
    /// Unlike the naive symmetrized estimator, its `π_i = x_i/Σx` is a
    /// genuine equilibrium estimate, which is what makes blind
    /// native-state prediction from non-equilibrium adaptive sampling
    /// possible. The weights `x_i` are found by Newton's method (see
    /// [`mle_log_weights`]), so π comes out in closed form and needs no
    /// power iteration. Requires counts whose symmetrized graph is
    /// connected: a strongly connected set, or any positive prior.
    pub fn reversible_mle(counts: &CountMatrix, prior: f64) -> (Self, Vec<f64>) {
        let c = if prior > 0.0 {
            counts.with_prior(prior)
        } else {
            counts.clone()
        };
        let n = c.n_states();
        let (u, steps, residual) = mle_log_weights(&c);
        debug_assert!(
            residual < 1e-9,
            "reversible MLE did not converge: |g| = {residual:e} after {steps} Newton steps"
        );
        let x: Vec<f64> = u.iter().map(|v| v.exp()).collect();
        let counted: Vec<f64> = (0..n).map(|i| c.row_sum(i)).collect();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let s = c.get(i, j) + c.get(j, i);
                if s > 0.0 {
                    let v = s / (counted[i] / x[i] + counted[j] / x[j]);
                    data[i * n + j] = v;
                    data[j * n + i] = v;
                }
            }
        }
        let weight: Vec<f64> = (0..n)
            .map(|i| data[i * n..(i + 1) * n].iter().sum())
            .collect();
        for (i, w) in weight.iter().enumerate() {
            data[i * n..(i + 1) * n].iter_mut().for_each(|t| *t /= w);
        }
        let total: f64 = weight.iter().sum();
        let pi = weight.iter().map(|w| w / total).collect();
        (TransitionMatrix { n, data }, pi)
    }

    fn normalize(c: &CountMatrix) -> Self {
        let n = c.n_states();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            let s = c.row_sum(i);
            if s > 0.0 {
                for j in 0..n {
                    data[i * n + j] = c.get(i, j) / s;
                }
            } else {
                data[i * n + i] = 1.0; // absorbing self-loop for empty rows
            }
        }
        TransitionMatrix { n, data }
    }

    /// Build directly from row data (rows must be non-negative; they are
    /// normalized here).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            let s: f64 = row.iter().sum();
            assert!(s > 0.0, "row {i} sums to zero");
            for &x in row {
                assert!(x >= 0.0, "negative probability in row {i}");
                data.push(x / s);
            }
        }
        TransitionMatrix { n, data }
    }

    pub fn n_states(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Verify row-stochasticity within `tol`.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.n).all(|i| {
            let s: f64 = self.row(i).iter().sum();
            (s - 1.0).abs() <= tol && self.row(i).iter().all(|&x| x >= -tol)
        })
    }

    /// One Chapman-Kolmogorov step: `p' = p T`.
    pub fn propagate(&self, p: &[f64]) -> Vec<f64> {
        assert_eq!(p.len(), self.n, "distribution length mismatch");
        let mut out = vec![0.0; self.n];
        for (i, &pi) in p.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &tij) in out.iter_mut().zip(row) {
                *o += pi * tij;
            }
        }
        out
    }

    /// Stationary distribution by power iteration of `pT` from uniform.
    /// Converges for irreducible aperiodic chains; returns when the L1
    /// change drops below `tol` or after `max_iter` steps.
    pub fn stationary(&self, tol: f64, max_iter: usize) -> Vec<f64> {
        let mut p = vec![1.0 / self.n as f64; self.n];
        for _ in 0..max_iter {
            let q = self.propagate(&p);
            let delta: f64 = q.iter().zip(&p).map(|(a, b)| (a - b).abs()).sum();
            p = q;
            if delta < tol {
                break;
            }
        }
        // Normalize against drift.
        let s: f64 = p.iter().sum();
        for x in p.iter_mut() {
            *x /= s;
        }
        p
    }

    /// Top-`k` eigenvalues of a *reversible* transition matrix, via
    /// deflated power iteration on the symmetrized form
    /// `S = D^{1/2} T D^{-1/2}` (D = diag π), whose spectrum equals T's
    /// and whose eigenvectors are orthogonal.
    ///
    /// Returns eigenvalues in descending order, starting with λ₀ = 1.
    pub fn eigenvalues_reversible(&self, k: usize, stationary: &[f64]) -> Vec<f64> {
        assert_eq!(stationary.len(), self.n);
        let n = self.n;
        let k = k.min(n);
        // S_ij = sqrt(pi_i / pi_j) T_ij.
        let sqrt_pi: Vec<f64> = stationary.iter().map(|&x| x.max(1e-300).sqrt()).collect();
        let s_mat: Vec<f64> = (0..n * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                self.data[idx] * sqrt_pi[i] / sqrt_pi[j]
            })
            .collect();
        let mul = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            for i in 0..n {
                let row = &s_mat[i * n..(i + 1) * n];
                out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
            }
            out
        };

        let mut eigenvalues = Vec::with_capacity(k);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
        for m in 0..k {
            // Deterministic, reproducible start vector.
            let mut v: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i * 2654435761 + m * 40503) % 1000) as f64 / 1000.0)
                .collect();
            orthogonalize(&mut v, &basis);
            let mut lambda = 0.0;
            for _ in 0..5000 {
                let mut w = mul(&v);
                orthogonalize(&mut w, &basis);
                let norm = (w.iter().map(|x| x * x).sum::<f64>()).sqrt();
                if norm < 1e-14 {
                    lambda = 0.0;
                    break;
                }
                for x in w.iter_mut() {
                    *x /= norm;
                }
                let new_lambda: f64 = {
                    let sw = mul(&w);
                    w.iter().zip(&sw).map(|(a, b)| a * b).sum()
                };
                let done = (new_lambda - lambda).abs() < 1e-12;
                lambda = new_lambda;
                v = w;
                if done {
                    break;
                }
            }
            eigenvalues.push(lambda);
            basis.push(v);
        }
        eigenvalues
    }
}

fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(a, c)| a * c).sum();
        for (x, &bi) in v.iter_mut().zip(b) {
            *x -= dot * bi;
        }
    }
}

/// Newton's method for the log weights `u_i = ln x_i` of
/// [`TransitionMatrix::reversible_mle`]. With `s_ij = c_ij + c_ji`, the
/// MLE conditions `x_i = Σ_j x_ij` read
///
/// `g_i(u) = Σ_j s_ij / (c_i + c_j e^(u_i − u_j)) − 1 = 0`,
///
/// whose Jacobian is minus a weighted graph Laplacian over `s_ij > 0`.
/// `g` is unchanged by a common shift of `u` and `Σ_i c_i g_i = 0`
/// holds identically, so the state with the most counts is pinned and
/// its equation dropped; the rest is solved by Gaussian elimination.
/// Steps are halved until the residual `|g|∞` falls, and Newton stops
/// once no step of at least 1/64 lowers it: the residual has reached
/// rounding level, which depends on the counts, so there is no fixed
/// tolerance. Returns `u`, the Newton steps taken and the final
/// residual.
fn mle_log_weights(c: &CountMatrix) -> (Vec<f64>, usize, f64) {
    let n = c.n_states();
    let s = |i: usize, j: usize| c.get(i, j) + c.get(j, i);
    let counted: Vec<f64> = (0..n).map(|i| c.row_sum(i)).collect();
    let pin = (0..n).max_by(|&a, &b| counted[a].total_cmp(&counted[b]));
    let free: Vec<usize> = (0..n).filter(|&i| Some(i) != pin).collect();
    let m = free.len();
    let residual = |u: &[f64], g: &mut [f64]| {
        let x: Vec<f64> = u.iter().map(|v| v.exp()).collect();
        for (gk, &i) in g.iter_mut().zip(&free) {
            let terms = (0..n).filter(|&j| s(i, j) > 0.0);
            *gk = terms
                .map(|j| s(i, j) * x[j] / (counted[i] * x[j] + counted[j] * x[i]))
                .sum::<f64>()
                - 1.0;
        }
        g.iter().fold(0.0, |worst: f64, gk| worst.max(gk.abs()))
    };
    // Start from the symmetrized counts, `x_i = Σ_j s_ij`.
    let mut u: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| s(i, j)).sum::<f64>().ln())
        .collect();
    let mut g = vec![0.0; m];
    let mut r = residual(&u, &mut g);
    let mut steps = 0;
    while r > 0.0 && steps < 100 {
        steps += 1;
        let x: Vec<f64> = u.iter().map(|v| v.exp()).collect();
        let mut jacobian = vec![0.0; m * m];
        for (k, &i) in free.iter().enumerate() {
            for j in (0..n).filter(|&j| j != i && s(i, j) > 0.0) {
                let d = counted[i] * x[j] + counted[j] * x[i];
                let w = s(i, j) * counted[j] * x[i] * x[j] / (d * d);
                jacobian[k * m + k] -= w;
                if let Ok(l) = free.binary_search(&j) {
                    jacobian[k * m + l] += w;
                }
            }
        }
        let mut step: Vec<f64> = g.iter().map(|gk| -gk).collect();
        solve(&mut jacobian, &mut step);
        let mut lambda = 1.0;
        let mut trial_g = vec![0.0; m];
        let accepted = loop {
            let mut moved = u.clone();
            for (&i, dk) in free.iter().zip(&step) {
                moved[i] += lambda * dk;
            }
            let moved_r = residual(&moved, &mut trial_g);
            if moved_r < r {
                break Some((moved, moved_r));
            }
            lambda /= 2.0;
            if lambda < 1.0 / 64.0 {
                break None;
            }
        };
        let Some((moved, moved_r)) = accepted else {
            break;
        };
        (u, r, g) = (moved, moved_r, trial_g);
    }
    (u, steps, r)
}

/// Solve `a · x = b` for an `m × m` row-major `a` by Gaussian
/// elimination with partial pivoting; `b` becomes `x`.
fn solve(a: &mut [f64], b: &mut [f64]) {
    let m = b.len();
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&p, &q| a[p * m + col].abs().total_cmp(&a[q * m + col].abs()))
            .expect("a non-empty column");
        for k in col..m {
            a.swap(pivot * m + k, col * m + k);
        }
        b.swap(pivot, col);
        for row in col + 1..m {
            let f = a[row * m + col] / a[col * m + col];
            for k in col..m {
                a[row * m + k] -= f * a[col * m + k];
            }
            b[row] -= f * b[col];
        }
    }
    for col in (0..m).rev() {
        let known: f64 = (col + 1..m).map(|k| a[col * m + k] * b[k]).sum();
        b[col] = (b[col] - known) / a[col * m + col];
    }
}

/// Implied timescale from an eigenvalue at lag time τ: `t = -τ / ln λ`.
/// Returns `f64::INFINITY` for λ ≥ 1 and `None` for λ ≤ 0 (no physical
/// timescale).
pub fn implied_timescale(lambda: f64, lag_time: f64) -> Option<f64> {
    if lambda >= 1.0 {
        Some(f64::INFINITY)
    } else if lambda <= 0.0 {
        None
    } else {
        Some(-lag_time / lambda.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: Bowman et al.'s self-consistent iteration
    /// `x_ij ← (c_ij + c_ji) / (c_i/x_i + c_j/x_j)` from the symmetrized
    /// counts, run until no `x_ij` moves by more than `tol` relative.
    /// Linear and slow on metastable counts, but a different route to
    /// the same fixed point. Returns its π and the sweeps it took.
    fn fixed_point(c: &CountMatrix, tol: f64, max_iter: usize) -> (Vec<f64>, usize) {
        let n = c.n_states();
        let c_row: Vec<f64> = (0..n).map(|i| c.row_sum(i)).collect();
        let mut x: Vec<f64> = (0..n * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                c.get(i, j) + c.get(j, i)
            })
            .collect();
        let mut x_row: Vec<f64> = (0..n).map(|i| x[i * n..(i + 1) * n].iter().sum()).collect();
        for sweep in 1..=max_iter {
            let mut max_rel_change: f64 = 0.0;
            let mut new_x = vec![0.0; n * n];
            for i in 0..n {
                for j in i..n {
                    let c_sym = c.get(i, j) + c.get(j, i);
                    if c_sym == 0.0 {
                        continue;
                    }
                    let denom = c_row[i] / x_row[i].max(1e-300) + c_row[j] / x_row[j].max(1e-300);
                    let v = c_sym / denom;
                    new_x[i * n + j] = v;
                    new_x[j * n + i] = v;
                    let old = x[i * n + j];
                    if old > 0.0 {
                        max_rel_change = max_rel_change.max((v - old).abs() / old);
                    }
                }
            }
            x = new_x;
            x_row = (0..n).map(|i| x[i * n..(i + 1) * n].iter().sum()).collect();
            if max_rel_change < tol {
                let total: f64 = x_row.iter().sum();
                return (x_row.iter().map(|w| w / total).collect(), sweep);
            }
        }
        panic!("the fixed point did not converge to {tol:e} in {max_iter} sweeps");
    }

    /// Counts of a seeded walk on a chain of `n` states in `basins`
    /// metastable basins: random rates inside a basin, `crossing` times
    /// weaker between basins, restricted to the largest connected set.
    fn metastable_counts(
        seed: u64,
        n: usize,
        basins: usize,
        crossing: f64,
        len: usize,
    ) -> CountMatrix {
        use crate::connectivity::largest_connected_set;
        use mdsim::rng::{rng_from_seed, SimRng};
        let mut rng: SimRng = rng_from_seed(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let rate = rng.next_f64().powi(4);
                        if i * basins / n == j * basins / n {
                            rate
                        } else {
                            rate * crossing
                        }
                    })
                    .collect()
            })
            .collect();
        let chain = TransitionMatrix::from_rows(rows);
        let mut state = 0;
        let dtraj: Vec<usize> = (0..len)
            .map(|_| {
                let draw = rng.next_f64();
                let mut acc = 0.0;
                state = (0..n)
                    .find(|&j| {
                        acc += chain.get(state, j);
                        draw < acc
                    })
                    .unwrap_or(n - 1);
                state
            })
            .collect();
        let counts = CountMatrix::from_dtrajs(&[dtraj], n, 1);
        counts.restrict(&largest_connected_set(&counts))
    }

    #[test]
    fn newton_matches_the_fixed_point_run_to_convergence() {
        let cases = [
            (1, 5, 1, 1.0, 500),
            (2, 12, 2, 1e-3, 20_000),
            (3, 24, 3, 1e-3, 20_000),
            (4, 40, 4, 1e-2, 40_000),
            (5, 60, 3, 1e-3, 100_000),
            (6, 16, 2, 3e-4, 100_000),
        ];
        for (seed, n, basins, crossing, len) in cases {
            let counts = metastable_counts(seed, n, basins, crossing, len);
            for prior in [0.0, 1e-6, 1e-4] {
                let c = counts.with_prior(prior);
                let (reference, sweeps) = fixed_point(&c, 1e-14, 1_000_000);
                let (u, steps, residual) = mle_log_weights(&c);
                let (t, pi) = TransitionMatrix::reversible_mle(&counts, prior);
                assert!(
                    steps <= 10 && residual < 1e-13,
                    "seed {seed}, prior {prior}: |g| = {residual:e} after {steps} Newton steps \
                     (the fixed point took {sweeps} sweeps)"
                );
                assert!(u.iter().all(|v| v.is_finite()));
                assert!(t.is_row_stochastic(1e-12));
                for i in 0..c.n_states() {
                    let rel = (pi[i] - reference[i]).abs() / reference[i];
                    assert!(
                        rel < 1e-9,
                        "seed {seed}, prior {prior}: π{i} {} vs {} ({rel:e})",
                        pi[i],
                        reference[i]
                    );
                    for j in 0..c.n_states() {
                        let (f_ij, f_ji) = (pi[i] * t.get(i, j), pi[j] * t.get(j, i));
                        assert!((f_ij - f_ji).abs() <= 1e-12 * f_ij.max(f_ji));
                    }
                }
            }
        }
    }

    fn two_state(a: f64, b: f64) -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![1.0 - a, a], vec![b, 1.0 - b]])
    }

    #[test]
    fn normalization_from_counts() {
        let d = vec![vec![0usize, 0, 1, 0, 0, 1]];
        let c = CountMatrix::from_dtrajs(&d, 2, 1);
        let t = TransitionMatrix::from_counts(&c, 0.0);
        assert!(t.is_row_stochastic(1e-12));
        // From state 0: saw 0→0 twice? dtraj 0,0,1,0,0,1: 0→0, 0→1, 1→0, 0→0, 0→1.
        assert!((t.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((t.get(1, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_become_self_loops() {
        let c = CountMatrix::zeros(3);
        let t = TransitionMatrix::from_counts(&c, 0.0);
        assert!(t.is_row_stochastic(1e-12));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 2), 1.0);
    }

    #[test]
    fn reversible_mle_satisfies_detailed_balance() {
        let d = vec![vec![0usize, 1, 1, 2, 1, 0, 1, 2, 2, 1, 0, 1]];
        let c = CountMatrix::from_dtrajs(&d, 3, 1);
        let (t, pi) = TransitionMatrix::reversible_mle(&c, 0.0);
        assert!(t.is_row_stochastic(1e-9));
        for i in 0..3 {
            for j in 0..3 {
                let flux_ij = pi[i] * t.get(i, j);
                let flux_ji = pi[j] * t.get(j, i);
                assert!(
                    (flux_ij - flux_ji).abs() < 1e-8,
                    "detailed balance violated at ({i},{j}): {flux_ij} vs {flux_ji}"
                );
            }
        }
    }

    #[test]
    fn reversible_mle_unbiases_stationary_distribution() {
        // Downhill sampling: trajectories start in state 0, flow to state
        // 1 and mostly stay. Visitation is split ~50/50, but the dynamics
        // say state 1 is far more stable (it is rarely left). The naive
        // symmetrized estimator pins π to visitation; the MLE must not.
        let mut c = CountMatrix::zeros(2);
        c.add(0, 0, 30.0);
        c.add(0, 1, 10.0); // leaving 0 is easy
        c.add(1, 1, 39.0);
        c.add(1, 0, 1.0); // leaving 1 is rare
        let naive = TransitionMatrix::from_counts(&c.symmetrized(), 0.0);
        let (_, pi_mle) = TransitionMatrix::reversible_mle(&c, 0.0);
        let pi_naive = naive.stationary(1e-14, 200_000);
        // Both states sampled ~40 counts: the naive estimator's π tracks
        // (symmetrized) visitation, staying near 1/2.
        assert!(
            (pi_naive[1] - 0.5).abs() < 0.1,
            "naive π1 = {}",
            pi_naive[1]
        );
        // The MLE recognises state 1 as the deep well.
        assert!(
            pi_mle[1] > 0.75,
            "MLE should concentrate on the stable state, π1 = {}",
            pi_mle[1]
        );
    }

    #[test]
    fn reversible_mle_matches_naive_for_equilibrium_data() {
        // For data that already satisfies detailed balance in counts, the
        // MLE and the symmetrized estimator agree.
        let mut c = CountMatrix::zeros(2);
        c.add(0, 0, 80.0);
        c.add(0, 1, 20.0);
        c.add(1, 0, 20.0);
        c.add(1, 1, 80.0);
        let naive = TransitionMatrix::from_counts(&c.symmetrized(), 0.0);
        let (mle, _) = TransitionMatrix::reversible_mle(&c, 0.0);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (naive.get(i, j) - mle.get(i, j)).abs() < 1e-8,
                    "estimators disagree at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn reversible_estimator_satisfies_detailed_balance() {
        let d = vec![vec![0usize, 1, 1, 2, 1, 0, 1, 2, 2, 1]];
        let c = CountMatrix::from_dtrajs(&d, 3, 1);
        let t = TransitionMatrix::from_counts(&c.symmetrized(), 0.01);
        let pi = t.stationary(1e-14, 100_000);
        for i in 0..3 {
            for j in 0..3 {
                let flux_ij = pi[i] * t.get(i, j);
                let flux_ji = pi[j] * t.get(j, i);
                assert!(
                    (flux_ij - flux_ji).abs() < 1e-9,
                    "detailed balance violated at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn propagation_conserves_probability() {
        let t = two_state(0.3, 0.1);
        let mut p = vec![1.0, 0.0];
        for _ in 0..50 {
            p = t.propagate(&p);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn two_state_stationary_analytic() {
        // π = (b, a)/(a+b) for rates a: 0→1 and b: 1→0.
        let t = two_state(0.3, 0.1);
        let pi = t.stationary(1e-15, 100_000);
        assert!((pi[0] - 0.25).abs() < 1e-9, "π0 = {}", pi[0]);
        assert!((pi[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn two_state_eigenvalues_analytic() {
        // Eigenvalues are 1 and 1 - a - b.
        let t = two_state(0.3, 0.1);
        let pi = t.stationary(1e-15, 100_000);
        let ev = t.eigenvalues_reversible(2, &pi);
        assert!((ev[0] - 1.0).abs() < 1e-9, "λ0 = {}", ev[0]);
        assert!((ev[1] - 0.6).abs() < 1e-9, "λ1 = {}", ev[1]);
    }

    #[test]
    fn implied_timescales() {
        assert_eq!(implied_timescale(1.0, 25.0), Some(f64::INFINITY));
        assert_eq!(implied_timescale(-0.1, 25.0), None);
        let t = implied_timescale(0.6, 25.0).unwrap();
        assert!((t - (-25.0 / 0.6f64.ln())).abs() < 1e-12);
        // Slower process (λ closer to 1) → longer timescale.
        assert!(implied_timescale(0.9, 25.0).unwrap() > t);
    }

    #[test]
    fn three_state_chain_spectrum() {
        // Symmetric nearest-neighbour chain: analytically known spectrum.
        let t = TransitionMatrix::from_rows(vec![
            vec![0.8, 0.2, 0.0],
            vec![0.2, 0.6, 0.2],
            vec![0.0, 0.2, 0.8],
        ]);
        let pi = t.stationary(1e-15, 100_000);
        // Uniform stationary distribution by symmetry.
        for &x in &pi {
            assert!((x - 1.0 / 3.0).abs() < 1e-8);
        }
        let ev = t.eigenvalues_reversible(3, &pi);
        assert!((ev[0] - 1.0).abs() < 1e-8);
        assert!((ev[1] - 0.8).abs() < 1e-8, "λ1 = {}", ev[1]);
        assert!((ev[2] - 0.4).abs() < 1e-8, "λ2 = {}", ev[2]);
    }

    #[test]
    #[should_panic(expected = "sums to zero")]
    fn from_rows_rejects_zero_rows() {
        let _ = TransitionMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 0.0]]);
    }

    #[test]
    fn prior_smooths_unvisited_transitions() {
        let d = vec![vec![0usize, 1, 0, 1]];
        let c = CountMatrix::from_dtrajs(&d, 2, 1);
        let t = TransitionMatrix::from_counts(&c, 0.5);
        assert!(t.get(0, 0) > 0.0, "prior should open unseen transitions");
        assert!(t.is_row_stochastic(1e-12));
    }
}
