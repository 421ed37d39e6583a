//! The high-level Markov state model: build from raw trajectories, query
//! populations, predict the native state blind.
//!
//! This is the analysis stack the paper's MSM plugin runs at every
//! clustering step: RMSD k-centers clustering of all frames, transition
//! counting at a lag time, trimming to the largest strongly connected
//! subset, transition-matrix estimation, and stationary analysis.

use crate::cluster::{k_centers, k_medoids_refine, Clustering};
use crate::connectivity::largest_connected_set;
use crate::counts::CountMatrix;
use crate::metric::rmsd;
use crate::tmatrix::{implied_timescale, TransitionMatrix};
use mdsim::trajectory::Trajectory;
use mdsim::vec3::Vec3;

/// Parameters of MSM construction.
#[derive(Debug, Clone, Copy)]
pub struct MsmConfig {
    /// Number of microstates (paper: 10,000 at full scale).
    pub n_clusters: usize,
    /// Lag time in *frames* (the paper uses 25 ns with 1.5 ns snapshots).
    pub lag_frames: usize,
    /// Uniform pseudocount added to the (symmetrized) count matrix.
    pub prior: f64,
    /// Use the reversible (symmetrized) estimator.
    pub reversible: bool,
    /// K-medoids refinement sweeps after k-centers (0 = none).
    pub kmedoids_iters: usize,
}

impl Default for MsmConfig {
    fn default() -> Self {
        MsmConfig {
            n_clusters: 100,
            lag_frames: 5,
            prior: 1e-4,
            reversible: true,
            kmedoids_iters: 0,
        }
    }
}

/// A built Markov state model over an ensemble of trajectories.
#[derive(Debug, Clone)]
pub struct MarkovStateModel {
    pub config: MsmConfig,
    /// Cluster-center conformations, indexed by microstate id.
    pub centers: Vec<Vec<Vec3>>,
    /// Microstate assignment of every frame, per trajectory.
    pub dtrajs: Vec<Vec<usize>>,
    /// Raw transition counts over all microstates.
    pub counts: CountMatrix,
    /// Microstates in the largest strongly connected set ("active set"),
    /// ascending original ids.
    pub active: Vec<usize>,
    /// Transition matrix over the active set.
    pub tmatrix: TransitionMatrix,
    /// Stationary distribution over the active set.
    pub stationary: Vec<f64>,
}

/// The transition matrix over the active set and its stationary
/// distribution. The maximum-likelihood reversible estimator's π is a
/// true equilibrium estimate even from non-equilibrium adaptive-sampling
/// data, and comes with it (see tmatrix.rs); the non-reversible one's is
/// found by power iteration.
fn estimate(restricted: &CountMatrix, config: &MsmConfig) -> (TransitionMatrix, Vec<f64>) {
    if config.reversible {
        TransitionMatrix::reversible_mle(restricted, config.prior)
    } else {
        let tmatrix = TransitionMatrix::from_counts(restricted, config.prior);
        let stationary = tmatrix.stationary(1e-12, 200_000);
        (tmatrix, stationary)
    }
}

impl MarkovStateModel {
    /// Build a model from trajectories. Frames from all trajectories are
    /// pooled for clustering; counts use the per-trajectory frame order.
    pub fn build(trajs: &[Trajectory], config: MsmConfig) -> MarkovStateModel {
        let frames: Vec<Vec<Vec3>> = trajs
            .iter()
            .flat_map(|t| t.frames().iter().cloned())
            .collect();
        assert!(!frames.is_empty(), "no frames to build an MSM from");

        let mut clustering = k_centers(&frames, config.n_clusters, 0, |a, b| rmsd(a, b));
        if config.kmedoids_iters > 0 {
            clustering = k_medoids_refine(&frames, &clustering, config.kmedoids_iters, |a, b| {
                rmsd(a, b)
            })
            .0;
        }
        Self::from_clustering(trajs, &frames, clustering, config)
    }

    fn from_clustering(
        trajs: &[Trajectory],
        frames: &[Vec<Vec3>],
        clustering: Clustering,
        config: MsmConfig,
    ) -> MarkovStateModel {
        let n_states = clustering.n_clusters();
        let centers: Vec<Vec<Vec3>> = clustering
            .centers
            .iter()
            .map(|&i| frames[i].clone())
            .collect();

        // Split the pooled assignment back into per-trajectory dtrajs.
        let mut dtrajs = Vec::with_capacity(trajs.len());
        let mut offset = 0;
        for t in trajs {
            dtrajs.push(clustering.assignment[offset..offset + t.len()].to_vec());
            offset += t.len();
        }

        let counts = CountMatrix::from_dtrajs(&dtrajs, n_states, config.lag_frames);
        let active = largest_connected_set(&counts);
        let (tmatrix, stationary) = estimate(&counts.restrict(&active), &config);

        MarkovStateModel {
            config,
            centers,
            dtrajs,
            counts,
            active,
            tmatrix,
            stationary,
        }
    }

    /// Build a model from pre-clustered parts — the path the *streaming*
    /// adaptive loop uses. The incremental estimator maintains centers,
    /// dtrajs and the count matrix as running deltas
    /// ([`crate::streaming::StreamingMsm`]); estimation from there is
    /// identical to the batch path, so the counts are taken as-is
    /// instead of being recounted from the dtrajs.
    pub fn from_streamed(
        centers: Vec<Vec<Vec3>>,
        dtrajs: Vec<Vec<usize>>,
        counts: CountMatrix,
        config: MsmConfig,
    ) -> MarkovStateModel {
        assert_eq!(
            counts.n_states(),
            centers.len(),
            "count matrix does not match center count"
        );
        let active = largest_connected_set(&counts);
        let (tmatrix, stationary) = estimate(&counts.restrict(&active), &config);
        MarkovStateModel {
            config,
            centers,
            dtrajs,
            counts,
            active,
            tmatrix,
            stationary,
        }
    }

    pub fn n_states(&self) -> usize {
        self.centers.len()
    }

    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Map an original microstate id to its active-set index, if active.
    pub fn active_index(&self, state: usize) -> Option<usize> {
        self.active.binary_search(&state).ok()
    }

    /// Blind native-state prediction: the active microstate with the
    /// largest equilibrium population. Returns `(original state id,
    /// stationary population, center conformation)`.
    pub fn predict_native(&self) -> (usize, f64, &[Vec3]) {
        let (k, &pop) = self
            .stationary
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("active set is never empty");
        let state = self.active[k];
        (state, pop, &self.centers[state])
    }

    /// Active-set indices of microstates whose centers are within
    /// `cutoff` RMSD of the reference structure (the paper's folded
    /// definition: 3.5 Å of native).
    pub fn states_near(&self, reference: &[Vec3], cutoff: f64) -> Vec<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &s)| rmsd(&self.centers[s], reference) <= cutoff)
            .map(|(k, _)| k)
            .collect()
    }

    /// Initial distribution over the active set from the first frames of
    /// all trajectories (frames starting outside the active set are
    /// dropped and the rest renormalized).
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.n_active()];
        let mut total = 0.0;
        for d in &self.dtrajs {
            if let Some(&s0) = d.first() {
                if let Some(k) = self.active_index(s0) {
                    p[k] += 1.0;
                    total += 1.0;
                }
            }
        }
        if total > 0.0 {
            for x in p.iter_mut() {
                *x /= total;
            }
        } else {
            p = vec![1.0 / self.n_active() as f64; self.n_active()];
        }
        p
    }

    /// Implied timescales of the slowest `k` processes at this model's
    /// lag, in units of `frame_time` (the physical time per frame).
    pub fn implied_timescales(&self, k: usize, frame_time: f64) -> Vec<f64> {
        let lag_time = self.config.lag_frames as f64 * frame_time;
        self.tmatrix
            .eigenvalues_reversible(k + 1, &self.stationary)
            .into_iter()
            .skip(1) // λ0 = 1 is the stationary process
            .filter_map(|l| implied_timescale(l, lag_time))
            .collect()
    }

    /// Total stationary population within `cutoff` RMSD of `reference`.
    pub fn equilibrium_population_near(&self, reference: &[Vec3], cutoff: f64) -> f64 {
        self.states_near(reference, cutoff)
            .into_iter()
            // From +0.0: an empty `sum` is -0.0, and `f64::max(-0.0,
            // 0.0)` may return either zero (debug and release differ).
            .fold(0.0, |sum, k| sum + self.stationary[k])
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::rng::{rng_from_seed, sample_normal};
    use mdsim::vec3::v3;

    /// Synthesize a two-well "dynamics": frames jitter around one of two
    /// template conformations and hop between them with given rates.
    fn two_well_trajs(
        n_trajs: usize,
        len: usize,
        p_fold: f64,
        p_unfold: f64,
        seed: u64,
    ) -> (Vec<Trajectory>, Vec<Vec3>, Vec<Vec3>) {
        let template_a: Vec<Vec3> = (0..5).map(|i| v3(i as f64 * 2.0, 0.0, 0.0)).collect();
        let template_b: Vec<Vec3> = (0..5)
            .map(|i| v3((i as f64).sin() * 2.0, (i as f64).cos() * 2.0, i as f64))
            .collect();
        let mut rng = rng_from_seed(seed);
        let mut trajs = Vec::new();
        for _ in 0..n_trajs {
            let mut folded = false;
            let mut t = Trajectory::new();
            for k in 0..len {
                let p = rng.next_f64();
                if !folded && p < p_fold {
                    folded = true;
                } else if folded && p < p_unfold {
                    folded = false;
                }
                let template = if folded { &template_b } else { &template_a };
                let frame: Vec<Vec3> = template
                    .iter()
                    .map(|&x| {
                        x + v3(
                            0.05 * sample_normal(&mut rng),
                            0.05 * sample_normal(&mut rng),
                            0.05 * sample_normal(&mut rng),
                        )
                    })
                    .collect();
                t.push(k as f64, frame);
            }
            trajs.push(t);
        }
        (trajs, template_a, template_b)
    }

    fn build_two_well() -> (MarkovStateModel, Vec<Vec3>, Vec<Vec3>) {
        let (trajs, a, b) = two_well_trajs(10, 200, 0.10, 0.02, 42);
        let msm = MarkovStateModel::build(
            &trajs,
            MsmConfig {
                n_clusters: 10,
                lag_frames: 1,
                prior: 1e-6,
                reversible: true,
                kmedoids_iters: 2,
            },
        );
        (msm, a, b)
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let (msm, _, _) = build_two_well();
        assert_eq!(msm.dtrajs.len(), 10);
        assert!(msm.n_states() <= 10);
        assert!(msm.n_active() >= 2);
        assert!(msm.tmatrix.is_row_stochastic(1e-9));
        let pi_sum: f64 = msm.stationary.iter().sum();
        assert!((pi_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predicts_the_deeper_well_blind() {
        // p_fold >> p_unfold ⇒ folded well (template B) dominates at
        // equilibrium; blind prediction must land near B.
        let (msm, a, b) = build_two_well();
        let (_state, pop, center) = msm.predict_native();
        // The folded well is split over several microstates; the largest
        // single one still holds a sizable share.
        assert!(pop > 0.08, "largest stationary population: {pop}");
        let d_b = rmsd(center, &b);
        let d_a = rmsd(center, &a);
        assert!(
            d_b < d_a && d_b < 0.5,
            "blind prediction missed the folded well: d_b = {d_b}, d_a = {d_a}"
        );
    }

    #[test]
    fn equilibrium_population_matches_rates() {
        // Two-state equilibrium: π_folded = p_fold/(p_fold + p_unfold) ≈ 0.83.
        let (msm, _, b) = build_two_well();
        let pop_b = msm.equilibrium_population_near(&b, 0.5);
        assert!(
            (pop_b - 0.833).abs() < 0.12,
            "folded equilibrium population {pop_b}, expected ≈ 0.83"
        );
    }

    #[test]
    fn initial_distribution_reflects_starts() {
        let (msm, a, _) = build_two_well();
        let p0 = msm.initial_distribution();
        assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // All trajectories start unfolded (template A).
        let near_a = msm.states_near(&a, 0.5);
        let mass_a: f64 = near_a.iter().map(|&k| p0[k]).sum();
        assert!(mass_a > 0.9, "initial mass near A: {mass_a}");
    }

    #[test]
    fn implied_timescales_are_positive_and_ordered() {
        let (msm, _, _) = build_two_well();
        let its = msm.implied_timescales(3, 1.5);
        assert!(!its.is_empty());
        for w in its.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "timescales not sorted: {its:?}");
        }
        assert!(its[0] > 0.0);
    }

    #[test]
    fn states_near_finds_both_wells() {
        let (msm, a, b) = build_two_well();
        assert!(!msm.states_near(&a, 0.5).is_empty());
        assert!(!msm.states_near(&b, 0.5).is_empty());
        // Tight cutoff around a far-away fake structure finds nothing.
        let fake: Vec<Vec3> = (0..5).map(|i| v3(0.0, 50.0 + i as f64, 0.0)).collect();
        assert!(msm.states_near(&fake, 0.5).is_empty());
    }

    #[test]
    fn active_index_roundtrip() {
        let (msm, _, _) = build_two_well();
        for (k, &s) in msm.active.iter().enumerate() {
            assert_eq!(msm.active_index(s), Some(k));
        }
    }
}
