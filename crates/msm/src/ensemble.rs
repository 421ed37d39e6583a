//! Ensemble statistics over trajectory collections (paper Fig. 5: time
//! evolution of the ensemble-average Cα RMSD with standard deviations).

use mdsim::trajectory::Trajectory;
use mdsim::vec3::Vec3;

/// Per-time-point mean / standard deviation of a frame observable across
/// an ensemble of trajectories.
#[derive(Debug, Clone)]
pub struct EnsembleSeries {
    pub times: Vec<f64>,
    pub mean: Vec<f64>,
    pub std_dev: Vec<f64>,
    /// Number of trajectories contributing at each time point.
    pub n_samples: Vec<usize>,
}

impl EnsembleSeries {
    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Standard error of the mean at each time point.
    pub fn std_err(&self) -> Vec<f64> {
        self.std_dev
            .iter()
            .zip(&self.n_samples)
            .map(|(&s, &n)| if n > 1 { s / (n as f64).sqrt() } else { s })
            .collect()
    }
}

/// Evaluate `observable` on every frame of every trajectory and aggregate
/// by frame index. Trajectories may have different lengths (the paper
/// terminates and spawns runs mid-project); shorter ones simply stop
/// contributing. Times are taken from the longest trajectory.
pub fn ensemble_statistic(
    trajs: &[Trajectory],
    observable: impl Fn(&[Vec3]) -> f64 + Sync,
) -> EnsembleSeries {
    let max_len = trajs.iter().map(|t| t.len()).max().unwrap_or(0);
    let longest = trajs
        .iter()
        .max_by_key(|t| t.len())
        .map(|t| t.times().to_vec())
        .unwrap_or_default();

    let mut times = Vec::with_capacity(max_len);
    let mut mean = Vec::with_capacity(max_len);
    let mut std_dev = Vec::with_capacity(max_len);
    let mut n_samples = Vec::with_capacity(max_len);

    for (k, &time) in longest.iter().enumerate() {
        let values: Vec<f64> = trajs
            .iter()
            .filter(|t| k < t.len())
            .map(|t| observable(t.frame(k)))
            .collect();
        let n = values.len();
        let m = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        times.push(time);
        mean.push(m);
        std_dev.push(var.sqrt());
        n_samples.push(n);
    }
    EnsembleSeries {
        times,
        mean,
        std_dev,
        n_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::vec3::v3;

    fn traj_of(xs: &[f64]) -> Trajectory {
        let mut t = Trajectory::new();
        for (k, &x) in xs.iter().enumerate() {
            t.push(k as f64, vec![v3(x, 0.0, 0.0)]);
        }
        t
    }

    #[test]
    fn mean_and_std_of_two_trajectories() {
        let trajs = vec![traj_of(&[1.0, 2.0]), traj_of(&[3.0, 4.0])];
        let s = ensemble_statistic(&trajs, |f| f[0].x);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean, vec![2.0, 3.0]);
        // Sample std dev of {1,3} is √2.
        assert!((s.std_dev[0] - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.n_samples, vec![2, 2]);
    }

    #[test]
    fn ragged_lengths_reduce_sample_count() {
        let trajs = vec![traj_of(&[1.0, 2.0, 3.0]), traj_of(&[5.0])];
        let s = ensemble_statistic(&trajs, |f| f[0].x);
        assert_eq!(s.n_samples, vec![2, 1, 1]);
        assert_eq!(s.mean, vec![3.0, 2.0, 3.0]);
        assert_eq!(s.std_dev[1], 0.0);
        assert_eq!(s.times, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn std_err_scales_with_sqrt_n() {
        let trajs = vec![
            traj_of(&[0.0]),
            traj_of(&[1.0]),
            traj_of(&[2.0]),
            traj_of(&[3.0]),
        ];
        let s = ensemble_statistic(&trajs, |f| f[0].x);
        let se = s.std_err();
        assert!((se[0] - s.std_dev[0] / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_empty_series() {
        let s = ensemble_statistic(&[], |_| 0.0);
        assert!(s.is_empty());
    }
}
