//! Chapman-Kolmogorov validation.
//!
//! A Markov state model at lag τ predicts the dynamics at lag kτ via
//! `T(τ)^k`; the CK test compares that prediction against a model
//! estimated *directly* at lag kτ. The paper validates its villin model
//! by this family of tests ("a sensitivity analysis showed the system
//! became Markovian…"); this module implements the set-persistence
//! variant: for a metastable set A, compare
//! `p_pred(stay in A after kτ)` vs `p_est(stay in A after kτ)`.

use crate::connectivity::largest_connected_set;
use crate::counts::CountMatrix;
use crate::tmatrix::TransitionMatrix;

/// Result of a CK test on one state set.
#[derive(Debug, Clone)]
pub struct CkTestResult {
    /// Lag multiples tested (k = 1, 2, …).
    pub multiples: Vec<usize>,
    /// Persistence probability predicted by `T(τ)^k`.
    pub predicted: Vec<f64>,
    /// Persistence probability of the model estimated at lag kτ.
    pub estimated: Vec<f64>,
    /// Largest |predicted − estimated| across the multiples.
    pub max_error: f64,
}

/// Run the set-persistence CK test.
///
/// `subset` lists states (original ids, before connectivity trimming)
/// forming the metastable set; the reported probability is the
/// π-weighted chance of still being in the set after kτ, starting inside
/// it. Both models use the reversible MLE on the base-lag connected set.
pub fn chapman_kolmogorov_test(
    dtrajs: &[Vec<usize>],
    n_states: usize,
    base_lag: usize,
    multiples: &[usize],
    subset: &[usize],
) -> CkTestResult {
    assert!(base_lag >= 1);
    assert!(!multiples.is_empty());

    let base_counts = CountMatrix::from_dtrajs(dtrajs, n_states, base_lag);
    let active = largest_connected_set(&base_counts);
    let (t_base, pi) = TransitionMatrix::reversible_mle(&base_counts.restrict(&active), 1e-6);

    // Active-set indices of the subset.
    let set_idx: Vec<usize> = subset
        .iter()
        .filter_map(|&s| active.binary_search(&s).ok())
        .collect();
    assert!(
        !set_idx.is_empty(),
        "subset has no overlap with the connected set"
    );

    // π restricted to the set, normalized: the start distribution.
    let mut p0 = vec![0.0; active.len()];
    let mass: f64 = set_idx.iter().map(|&k| pi[k]).sum();
    for &k in &set_idx {
        p0[k] = pi[k] / mass;
    }

    let persistence = |t: &TransitionMatrix, p_start: &[f64], steps: usize| -> f64 {
        let mut p = p_start.to_vec();
        for _ in 0..steps {
            p = t.propagate(&p);
        }
        set_idx.iter().map(|&k| p[k]).sum()
    };

    let mut predicted = Vec::with_capacity(multiples.len());
    let mut estimated = Vec::with_capacity(multiples.len());
    for &k in multiples {
        assert!(k >= 1);
        predicted.push(persistence(&t_base, &p0, k));
        // Direct estimate at lag kτ, on the same active set.
        let counts_k = CountMatrix::from_dtrajs(dtrajs, n_states, base_lag * k);
        let (t_k, _) = TransitionMatrix::reversible_mle(&counts_k.restrict(&active), 1e-6);
        estimated.push(persistence(&t_k, &p0, 1));
    }

    let max_error = predicted
        .iter()
        .zip(&estimated)
        .map(|(p, e)| (p - e).abs())
        .fold(0.0, f64::max);
    CkTestResult {
        multiples: multiples.to_vec(),
        predicted,
        estimated,
        max_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::rng::rng_from_seed;

    /// Sample a discrete trajectory from an explicit chain.
    fn sample_chain(t: &TransitionMatrix, len: usize, seed: u64) -> Vec<usize> {
        let mut rng = rng_from_seed(seed);
        let mut state = 0usize;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(state);
            let u = rng.next_f64();
            let mut acc = 0.0;
            for j in 0..t.n_states() {
                acc += t.get(state, j);
                if u <= acc {
                    state = j;
                    break;
                }
            }
        }
        out
    }

    fn two_state() -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.02, 0.98]])
    }

    #[test]
    fn markovian_data_passes_ck() {
        let chain = two_state();
        let dtrajs: Vec<Vec<usize>> = (0..5).map(|s| sample_chain(&chain, 20_000, s)).collect();
        let result = chapman_kolmogorov_test(&dtrajs, 2, 1, &[1, 2, 4, 8], &[1]);
        assert!(
            result.max_error < 0.03,
            "CK should pass on Markovian data: {result:?}"
        );
        // Persistence decays with the lag multiple.
        for w in result.predicted.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn hidden_state_lumping_fails_ck() {
        // A 3-state chain 0 ↔ 1 ↔ 2 observed through a 2-state lens that
        // lumps {1, 2}: the lumped process is non-Markovian at lag 1, so
        // the CK error must be visibly larger than in the Markovian case.
        let chain = TransitionMatrix::from_rows(vec![
            vec![0.90, 0.10, 0.00],
            vec![0.40, 0.20, 0.40],
            vec![0.00, 0.02, 0.98],
        ]);
        let dtrajs: Vec<Vec<usize>> = (0..5)
            .map(|s| {
                sample_chain(&chain, 20_000, s + 100)
                    .into_iter()
                    .map(|x| if x == 0 { 0 } else { 1 })
                    .collect()
            })
            .collect();
        let result = chapman_kolmogorov_test(&dtrajs, 2, 1, &[1, 2, 4, 8], &[0]);
        assert!(
            result.max_error > 0.05,
            "lumped non-Markovian dynamics should fail CK: {result:?}"
        );
    }

    #[test]
    fn longer_lag_restores_markovianity() {
        // The same lumped process tested at a longer base lag shows a
        // smaller CK error — the paper's criterion for choosing 25 ns.
        let chain = TransitionMatrix::from_rows(vec![
            vec![0.90, 0.10, 0.00],
            vec![0.40, 0.20, 0.40],
            vec![0.00, 0.02, 0.98],
        ]);
        let dtrajs: Vec<Vec<usize>> = (0..5)
            .map(|s| {
                sample_chain(&chain, 40_000, s + 200)
                    .into_iter()
                    .map(|x| if x == 0 { 0 } else { 1 })
                    .collect()
            })
            .collect();
        let short = chapman_kolmogorov_test(&dtrajs, 2, 1, &[2, 4], &[0]);
        let long = chapman_kolmogorov_test(&dtrajs, 2, 10, &[2, 4], &[0]);
        assert!(
            long.max_error < short.max_error,
            "longer lag should reduce CK error: short {short:?}, long {long:?}"
        );
    }

    #[test]
    fn multiple_one_is_exact() {
        // k = 1 compares the model with itself: error ~ 0.
        let chain = two_state();
        let dtrajs = vec![sample_chain(&chain, 5_000, 9)];
        let result = chapman_kolmogorov_test(&dtrajs, 2, 2, &[1], &[0]);
        assert!(result.max_error < 1e-9);
    }
}
