//! Bootstrap error estimation over trajectories.
//!
//! §2 of the paper: projects run *"until the project finishes — for
//! example when the standard error estimate of the output result has
//! reached a user-specified minimum value."* The natural resampling unit
//! for MSM observables is the trajectory (frames within one trajectory
//! are correlated); this module resamples trajectories with replacement,
//! re-estimates the transition matrix with fixed state definitions, and
//! reports the spread of any derived observable.

use crate::connectivity::largest_connected_set;
use crate::counts::CountMatrix;
use crate::tmatrix::TransitionMatrix;
use mdsim::rng::{rng_from_seed, SimRng};

/// Mean and standard error of a bootstrapped statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapEstimate {
    pub mean: f64,
    pub std_err: f64,
    pub n_resamples: usize,
}

/// Generic trajectory bootstrap: `statistic` receives a resampled list
/// of trajectory indices (with replacement) and returns an observable;
/// the spread over `n_resamples` resamples is its standard error.
pub fn bootstrap_over_trajectories(
    n_trajectories: usize,
    n_resamples: usize,
    seed: u64,
    mut statistic: impl FnMut(&[usize]) -> f64,
) -> BootstrapEstimate {
    assert!(n_trajectories > 0, "nothing to resample");
    assert!(n_resamples >= 2, "need at least two resamples");
    let mut rng: SimRng = rng_from_seed(seed);
    let mut values = Vec::with_capacity(n_resamples);
    let mut picks = vec![0usize; n_trajectories];
    for _ in 0..n_resamples {
        for p in picks.iter_mut() {
            *p = rng.below(n_trajectories);
        }
        values.push(statistic(&picks));
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    BootstrapEstimate {
        mean,
        std_err: var.sqrt(),
        n_resamples,
    }
}

/// Bootstrap standard error of an equilibrium subset population:
/// trajectories are resampled, transition counts re-accumulated at the
/// given lag with fixed state definitions, the reversible MLE refit, and
/// the stationary mass of `subset` (original state ids) summed over the
/// resample's largest connected set.
pub fn bootstrap_subset_population(
    dtrajs: &[Vec<usize>],
    n_states: usize,
    lag: usize,
    subset: &[usize],
    n_resamples: usize,
    seed: u64,
) -> BootstrapEstimate {
    bootstrap_over_trajectories(dtrajs.len(), n_resamples, seed, |picks| {
        let sample: Vec<Vec<usize>> = picks.iter().map(|&i| dtrajs[i].clone()).collect();
        let counts = CountMatrix::from_dtrajs(&sample, n_states, lag);
        let active = largest_connected_set(&counts);
        if active.is_empty() {
            return 0.0;
        }
        let (_, pi) = TransitionMatrix::reversible_mle(&counts.restrict(&active), 1e-6);
        subset
            .iter()
            .filter_map(|s| active.binary_search(s).ok())
            // From +0.0, as in `equilibrium_population_near`.
            .fold(0.0, |sum, k| sum + pi[k])
            .max(0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::rng::sample_normal;

    #[test]
    fn bootstrap_of_the_mean_matches_analytic_se() {
        // Statistic: mean of per-trajectory values. With n iid values of
        // variance σ², the SE of the mean is σ/√n.
        let n = 100;
        let mut rng = rng_from_seed(7);
        let values: Vec<f64> = (0..n).map(|_| 2.0 * sample_normal(&mut rng)).collect();
        let est = bootstrap_over_trajectories(n, 400, 3, |picks| {
            picks.iter().map(|&i| values[i]).sum::<f64>() / picks.len() as f64
        });
        let analytic = 2.0 / (n as f64).sqrt();
        assert!(
            (est.std_err - analytic).abs() < 0.4 * analytic,
            "bootstrap SE {} vs analytic {analytic}",
            est.std_err
        );
        assert_eq!(est.n_resamples, 400);
    }

    #[test]
    fn deterministic_per_seed() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let f = |picks: &[usize]| picks.iter().map(|&i| vals[i]).sum::<f64>();
        let a = bootstrap_over_trajectories(4, 50, 11, f);
        let b = bootstrap_over_trajectories(4, 50, 11, f);
        assert_eq!(a, b);
        let c = bootstrap_over_trajectories(4, 50, 12, f);
        assert_ne!(a, c);
    }

    #[test]
    fn subset_population_error_shrinks_with_more_data() {
        // Two-state chain; estimate the population of state 1 with few vs
        // many trajectories.
        let make_dtrajs = |n_traj: usize, len: usize, seed: u64| -> Vec<Vec<usize>> {
            let mut rng = rng_from_seed(seed);
            (0..n_traj)
                .map(|_| {
                    let mut s = 0usize;
                    (0..len)
                        .map(|_| {
                            let u = rng.next_f64();
                            s = match (s, u) {
                                (0, u) if u < 0.1 => 1,
                                (1, u) if u < 0.05 => 0,
                                (s, _) => s,
                            };
                            s
                        })
                        .collect()
                })
                .collect()
        };
        let few = make_dtrajs(5, 200, 1);
        let many = make_dtrajs(40, 200, 2);
        let est_few = bootstrap_subset_population(&few, 2, 1, &[1], 60, 5);
        let est_many = bootstrap_subset_population(&many, 2, 1, &[1], 60, 5);
        // π1 = (0.1)/(0.1+0.05) = 2/3.
        assert!(
            (est_many.mean - 2.0 / 3.0).abs() < 0.1,
            "mean {}",
            est_many.mean
        );
        assert!(
            est_many.std_err < est_few.std_err,
            "more data must shrink the error: few {} vs many {}",
            est_few.std_err,
            est_many.std_err
        );
    }

    #[test]
    #[should_panic(expected = "resample")]
    fn rejects_empty_input() {
        let _ = bootstrap_over_trajectories(0, 10, 1, |_| 0.0);
    }
}
