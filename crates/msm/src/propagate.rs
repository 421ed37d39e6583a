//! Chapman-Kolmogorov propagation of state populations (paper Eq. 1) and
//! the kinetic observables derived from it (Fig. 4): population time
//! series, folded fraction, and folding half-time t½.

use crate::tmatrix::TransitionMatrix;

/// Population time series `p(0), p(τ), p(2τ), …` with `n_steps`
/// propagation steps (so `n_steps + 1` rows).
pub fn propagate_series(t: &TransitionMatrix, p0: &[f64], n_steps: usize) -> Vec<Vec<f64>> {
    let mut series = Vec::with_capacity(n_steps + 1);
    series.push(p0.to_vec());
    let mut p = p0.to_vec();
    for _ in 0..n_steps {
        p = t.propagate(&p);
        series.push(p.clone());
    }
    series
}

/// Total population of a state subset at each time point.
pub fn subset_population(series: &[Vec<f64>], subset: &[usize]) -> Vec<f64> {
    series
        .iter()
        // From +0.0, so an empty subset's population is +0.0, which
        // `max(0.0)` keeps in every build profile.
        .map(|p| subset.iter().fold(0.0, |sum, &s| sum + p[s]))
        .collect()
}

/// First time (linear interpolation between samples) at which `values`
/// crosses `target` from below. `times` and `values` run in parallel.
pub fn first_crossing(times: &[f64], values: &[f64], target: f64) -> Option<f64> {
    assert_eq!(times.len(), values.len());
    for w in 0..values.len().saturating_sub(1) {
        let (v0, v1) = (values[w], values[w + 1]);
        if v0 < target && v1 >= target {
            let f = (target - v0) / (v1 - v0);
            return Some(times[w] + f * (times[w + 1] - times[w]));
        }
    }
    if values.first().is_some_and(|&v| v >= target) {
        return Some(times[0]);
    }
    None
}

/// Folding half-time: the time at which the subset population first
/// reaches half of its final (last-sample) value.
pub fn half_life(times: &[f64], population: &[f64]) -> Option<f64> {
    let last = *population.last()?;
    first_crossing(times, population, 0.5 * last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(a: f64, b: f64) -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![1.0 - a, a], vec![b, 1.0 - b]])
    }

    #[test]
    fn series_shape_and_start() {
        let t = two_state(0.2, 0.1);
        let series = propagate_series(&t, &[1.0, 0.0], 10);
        assert_eq!(series.len(), 11);
        assert_eq!(series[0], vec![1.0, 0.0]);
    }

    #[test]
    fn relaxation_approaches_stationary() {
        let t = two_state(0.3, 0.1);
        let series = propagate_series(&t, &[1.0, 0.0], 500);
        let last = series.last().unwrap();
        assert!((last[0] - 0.25).abs() < 1e-9);
        assert!((last[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn analytic_two_state_relaxation() {
        // p1(t) = π1 (1 - (1-a-b)^t) from p = (1, 0).
        let (a, b) = (0.3, 0.1);
        let t = two_state(a, b);
        let series = propagate_series(&t, &[1.0, 0.0], 20);
        let pi1 = a / (a + b);
        for (step, p) in series.iter().enumerate() {
            let expected = pi1 * (1.0 - (1.0 - a - b).powi(step as i32));
            assert!(
                (p[1] - expected).abs() < 1e-12,
                "step {step}: {} vs {expected}",
                p[1]
            );
        }
    }

    #[test]
    fn subset_population_sums_states() {
        let t = two_state(0.5, 0.5);
        let series = propagate_series(&t, &[0.6, 0.4], 3);
        let all = subset_population(&series, &[0, 1]);
        for v in all {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let only1 = subset_population(&series, &[1]);
        assert_eq!(only1[0], 0.4);
        // An empty subset holds +0.0, not the -0.0 of an empty `sum`,
        // so a later `max(0.0)` reads the same in every build profile.
        for v in subset_population(&series, &[]) {
            assert!(v == 0.0 && v.is_sign_positive(), "{v:?}");
        }
    }

    #[test]
    fn first_crossing_interpolates() {
        let times = vec![0.0, 1.0, 2.0];
        let values = vec![0.0, 0.5, 1.0];
        let t = first_crossing(&times, &values, 0.25).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        // Already above at t=0.
        assert_eq!(first_crossing(&times, &values, 0.0), Some(0.0));
        // Never reached.
        assert_eq!(first_crossing(&times, &values, 2.0), None);
    }

    #[test]
    fn half_life_of_two_state_folding() {
        // Folding into state 1 with rate a, no unfolding: p1(t) = 1-(1-a)^t,
        // final value 1, half-life where p1 = 0.5: t = ln 0.5/ln(1-a).
        let a = 0.1;
        let t = two_state(a, 0.0);
        let series = propagate_series(&t, &[1.0, 0.0], 200);
        let folded = subset_population(&series, &[1]);
        let times: Vec<f64> = (0..=200).map(|i| i as f64).collect();
        let t_half = half_life(&times, &folded).unwrap();
        let expected = (0.5f64).ln() / (1.0 - a).ln();
        assert!(
            (t_half - expected).abs() < 0.2,
            "t½ = {t_half}, expected {expected}"
        );
    }

    #[test]
    fn half_life_none_for_empty() {
        assert_eq!(half_life(&[], &[]), None);
    }
}
