//! Adaptive-sampling spawn weights (§3.2 of the paper).
//!
//! The MSM controller ranks lineages for termination by these weights
//! and draws each respawn's starting microstate from them:
//!
//! - **Even weighting** draws every discovered state alike — best early
//!   on, when the state decomposition itself is the dominant
//!   uncertainty.
//! - **Adaptive weighting** weights states *"by the uncertainty in the
//!   transitions between clusters"* — best once the partitioning is
//!   stable; the paper credits it with up to a 2× sampling-efficiency
//!   gain.

use crate::counts::CountMatrix;
use mdsim::jsonv::{Field, Value};

/// Spawn-weighting policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    Even,
    Adaptive,
}

/// Spelled `"Even"` or `"Adaptive"` in project configs.
impl Field for Weighting {
    fn put(&self) -> Value {
        Value::from(match self {
            Weighting::Even => "Even",
            Weighting::Adaptive => "Adaptive",
        })
    }

    fn get(v: &Value) -> Result<Weighting, String> {
        match v.as_str().ok_or("not a string")? {
            "Even" => Ok(Weighting::Even),
            "Adaptive" => Ok(Weighting::Adaptive),
            other => Err(format!("unknown weighting `{other}`")),
        }
    }
}

/// Uniform weights over `n` states.
pub fn even_weights(n: usize) -> Vec<f64> {
    assert!(n > 0, "no states to weight");
    vec![1.0 / n as f64; n]
}

/// Uncertainty-based weights: state `i` gets weight proportional to the
/// total standard error of its outgoing transition-probability estimates,
///
/// `w_i ∝ sqrt( Σ_j T̂_ij (1 − T̂_ij) / (N_i + 1) )`,
///
/// where `T̂` is the row-normalized count estimate and `N_i` the row
/// count. Rarely-visited states and states with broad, undetermined
/// outgoing distributions draw the most new trajectories.
pub fn adaptive_weights(counts: &CountMatrix) -> Vec<f64> {
    let n = counts.n_states();
    assert!(n > 0, "no states to weight");
    let mut w = vec![0.0; n];
    for (i, wi) in w.iter_mut().enumerate() {
        let row_sum = counts.row_sum(i);
        if row_sum == 0.0 {
            // Never sampled: maximal uncertainty.
            *wi = 1.0;
            continue;
        }
        let mut var = 0.0;
        for j in 0..n {
            let t_ij = counts.get(i, j) / row_sum;
            var += t_ij * (1.0 - t_ij) / (row_sum + 1.0);
        }
        *wi = var.sqrt();
    }
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        for x in w.iter_mut() {
            *x /= total;
        }
    } else {
        // Degenerate (all rows deterministic): fall back to even.
        w = even_weights(n);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_weights_are_uniform() {
        let w = even_weights(4);
        assert_eq!(w, vec![0.25; 4]);
    }

    #[test]
    fn unsampled_states_get_max_weight() {
        let mut c = CountMatrix::zeros(3);
        // State 0 heavily sampled with a deterministic outcome.
        c.add(0, 1, 1000.0);
        // State 1 lightly sampled with a split outcome.
        c.add(1, 0, 2.0);
        c.add(1, 2, 2.0);
        // State 2 never sampled.
        let w = adaptive_weights(&c);
        assert!(w[2] > w[1], "unsampled should outrank lightly sampled");
        assert!(w[1] > w[0], "uncertain should outrank well-determined");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_counts_reduce_weight() {
        let mut few = CountMatrix::zeros(2);
        few.add(0, 0, 2.0);
        few.add(0, 1, 2.0);
        few.add(1, 0, 100.0);
        few.add(1, 1, 100.0);
        let w = adaptive_weights(&few);
        // Same split (50/50) but different sampling depth.
        assert!(w[0] > w[1]);
    }

    #[test]
    fn deterministic_rows_fall_back_to_even() {
        let mut c = CountMatrix::zeros(2);
        c.add(0, 1, 5.0);
        c.add(1, 0, 5.0);
        let w = adaptive_weights(&c);
        // Both rows have some variance? p=1 exactly → variance 0 → fallback.
        assert_eq!(w, even_weights(2));
    }

    #[test]
    #[should_panic(expected = "no states")]
    fn rejects_empty_weights() {
        let _ = even_weights(0);
    }
}
