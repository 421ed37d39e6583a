//! Incremental MSM estimation for the streaming adaptive loop.
//!
//! The generational loop of the paper rebuilds the whole model — full
//! k-centers clustering over every frame ever sampled — at each
//! generation barrier, while the worker fleet sits idle. [`StreamingMsm`]
//! removes that barrier: trajectory segments are folded into the model
//! *as they finish*,
//!
//! - assigning each new frame to its nearest existing center, or minting
//!   a new microstate when the frame falls outside the assignment radius
//!   (incremental k-centers);
//! - optionally refining the nearest center toward the new frame with a
//!   mini-batch k-means step ([`crate::cluster::minibatch_center_update`]);
//! - accumulating lagged transition counts across segment boundaries via
//!   per-lineage assignment tails, so chunked trajectories count exactly
//!   the same transitions as their unchunked equivalents;
//! - tracking *drift* — the fraction of recent frames that minted new
//!   states — to decide when a full background recluster is worth
//!   scheduling.
//!
//! A full recluster (run as an ordinary background command on the worker
//! fleet) produces fresh centers and dtrajs for the frames frozen at
//! dispatch time; [`StreamingMsm::rebase`] swaps that model in atomically
//! and the controller replays post-freeze frames through
//! [`StreamingMsm::observe`]. The estimator is deliberately free of any
//! I/O or scheduling: it is a pure data structure the controller drives,
//! snapshottable to JSON for the server's write-ahead log.

use crate::adaptive::{adaptive_weights, even_weights, Weighting};
use crate::cluster::{
    center_distances, minibatch_center_update, nearest_center_pruned, DIST_SLACK,
};
use crate::connectivity::largest_connected_set;
use crate::counts::CountMatrix;
use crate::metric::rmsd;
use mdsim::jsonv;
use mdsim::vec3::Vec3;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Tunables of the incremental estimator.
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Microstate budget: new centers are minted until this many exist.
    pub max_states: usize,
    /// Transition-count lag in frames.
    pub lag_frames: usize,
    /// Refine the nearest center with a mini-batch k-means step on every
    /// assignment (off keeps centers exactly at their founding frames,
    /// matching plain k-centers).
    pub minibatch: bool,
    /// A rebuild is due when more than this fraction of `max_states` has
    /// been minted since the last rebase …
    pub drift_state_frac: f64,
    /// … or when the frame count has grown by this factor since the last
    /// rebase (counts keep accumulating, but center placement reflects
    /// an ever-smaller prefix of the data).
    pub drift_frame_factor: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            max_states: 100,
            lag_frames: 5,
            minibatch: true,
            drift_state_frac: 0.25,
            drift_frame_factor: 2.0,
        }
    }
}

impl StreamingConfig {
    pub fn to_value(&self) -> Value {
        json!({
            "max_states": self.max_states as u64,
            "lag_frames": self.lag_frames as u64,
            "minibatch": self.minibatch,
            "drift_state_frac": self.drift_state_frac,
            "drift_frame_factor": self.drift_frame_factor,
        })
    }

    pub fn from_value(v: &Value) -> Result<StreamingConfig, String> {
        Ok(StreamingConfig {
            max_states: jsonv::int(v, "max_states")? as usize,
            lag_frames: jsonv::int(v, "lag_frames")? as usize,
            minibatch: jsonv::boolean(v, "minibatch")?,
            drift_state_frac: jsonv::num(v, "drift_state_frac")?,
            drift_frame_factor: jsonv::num(v, "drift_frame_factor")?,
        })
    }
}

/// Spawn weights over the active (largest strongly connected) set.
#[derive(Debug, Clone)]
pub struct StateWeights {
    /// Original microstate ids, ascending.
    pub active: Vec<usize>,
    /// Weight of each active state, parallel to `active`, summing to 1.
    pub weights: Vec<f64>,
}

impl StateWeights {
    /// Weight of an original state id; `None` when the state is outside
    /// the active set (disconnected — its kinetics are undetermined, so
    /// callers usually treat it as maximally interesting).
    pub fn weight_of(&self, state: usize) -> Option<f64> {
        self.active
            .binary_search(&state)
            .ok()
            .map(|k| self.weights[k])
    }
}

/// The incremental estimator. See the module docs for the life cycle.
#[derive(Debug, Clone)]
pub struct StreamingMsm {
    config: StreamingConfig,
    /// Assignment radius: frames farther than this from every center
    /// found a new state (while the budget lasts). Set from the k-centers
    /// max radius of the founding build, updated on every rebase.
    radius: f64,
    /// Center conformations, indexed by microstate id.
    centers: Vec<Vec<Vec3>>,
    /// Frames assigned to each center (mini-batch learning rates).
    center_counts: Vec<f64>,
    /// Last *raw* frame assigned to each state. Respawns start from an
    /// exemplar, never from a (blended, possibly off-manifold) center.
    exemplars: Vec<Vec<Vec3>>,
    /// Lagged transition counts over all microstates.
    counts: CountMatrix,
    /// Last `lag_frames` assignments of each live lineage, so counts
    /// bridge segment boundaries.
    tails: BTreeMap<u64, Vec<usize>>,
    frames_seen: u64,
    /// Drift bookkeeping, reset on rebase.
    states_minted_since_rebase: usize,
    frames_at_rebase: u64,
    /// Incremented on every rebase; lets the controller match background
    /// rebuild results to the model generation they were computed from.
    epoch: u64,
    /// Assignment search state, derived from `centers` and never
    /// serialized: pairwise center distances, each row as of the last
    /// time it was computed, and per center an upper bound on how far
    /// it has moved since (mini-batch updates move a center on every
    /// assignment). See [`StreamingMsm::observe`].
    between: Vec<Vec<f64>>,
    moved: Vec<f64>,
}

/// A center's row of the distance table is recomputed once the center
/// has moved this fraction of the assignment radius: staler than that
/// and the loosened pruning test costs more distance evaluations per
/// frame than the k it takes to refresh the row.
const REFRESH_AT: f64 = 0.1;

/// The metric of the estimator, counted under test. (The clustering
/// functions take it over their item type, which is `Vec<Vec3>`.)
#[allow(clippy::ptr_arg)]
fn dist(a: &Vec<Vec3>, b: &Vec<Vec3>) -> f64 {
    #[cfg(test)]
    tests::EVALUATIONS.with(|n| n.set(n.get() + 1));
    rmsd(a, b)
}

impl StreamingMsm {
    /// Found the estimator on an initial clustering (typically a small
    /// k-centers build over the first round of segments). `dtrajs` maps
    /// lineage id → state sequence of the frames clustered so far.
    pub fn from_parts(
        config: StreamingConfig,
        centers: Vec<Vec<Vec3>>,
        radius: f64,
        dtrajs: &BTreeMap<u64, Vec<usize>>,
    ) -> StreamingMsm {
        assert!(!centers.is_empty(), "cannot stream without centers");
        assert!(config.lag_frames >= 1, "lag must be at least one frame");
        let n = centers.len();
        let seqs: Vec<Vec<usize>> = dtrajs.values().cloned().collect();
        let counts = CountMatrix::from_dtrajs(&seqs, n, config.lag_frames);
        let mut center_counts = vec![0.0; n];
        for seq in &seqs {
            for &s in seq {
                center_counts[s] += 1.0;
            }
        }
        let frames_seen: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        let tails = dtrajs
            .iter()
            .map(|(&l, seq)| (l, tail_of(seq, config.lag_frames)))
            .collect();
        // Until a state receives a live frame its exemplar is its center
        // (which at founding time *is* a raw frame).
        let exemplars = centers.clone();
        StreamingMsm {
            config,
            radius,
            between: center_distances(&centers, dist),
            moved: vec![0.0; n],
            centers,
            center_counts,
            exemplars,
            counts,
            tails,
            frames_seen,
            states_minted_since_rebase: 0,
            frames_at_rebase: frames_seen,
            epoch: 0,
        }
    }

    /// Fold one finished segment of `lineage` into the model, returning
    /// the state assignment of its frames. Transition counts bridge the
    /// previous segment of the same lineage through the stored tail.
    ///
    /// The nearest center of each frame is the brute-force one (ties to
    /// the lower index), found without looking at every center: the
    /// search starts from the state of the frame before (consecutive
    /// frames rarely change state) and skips what the triangle
    /// inequality rules out — over `between`, loosened by `moved`
    /// because that table describes the centers as they were, and over
    /// the frame before, which is closer to this one than any center is
    /// and whose distances are known.
    pub fn observe(&mut self, lineage: u64, frames: &[Vec<Vec3>]) -> Vec<usize> {
        self.observe_by(lineage, frames, |model, frame, hint, floor| {
            nearest_center_pruned(
                frame,
                &model.centers,
                &model.between,
                &model.moved,
                floor,
                hint,
                dist,
            )
        })
    }

    /// The reference [`StreamingMsm::observe`] is exact against: every
    /// center, every frame.
    #[cfg(test)]
    fn observe_brute_force(&mut self, lineage: u64, frames: &[Vec<Vec3>]) -> Vec<usize> {
        self.observe_by(lineage, frames, |model, frame, _, _| {
            crate::cluster::nearest_center(frame, &model.centers, dist)
        })
    }

    fn observe_by(
        &mut self,
        lineage: u64,
        frames: &[Vec<Vec3>],
        nearest: impl Fn(&StreamingMsm, &Vec<Vec3>, usize, &mut [f64]) -> (usize, f64),
    ) -> Vec<usize> {
        let mut assigned = Vec::with_capacity(frames.len());
        let tail = self.tails.get(&lineage);
        let mut hint = tail.and_then(|t| t.last().copied()).unwrap_or(0);
        // A floor under the current frame's distance to each center:
        // nothing for the first, then the frame before's floors less the
        // distance between the two.
        let mut floor = vec![0.0; self.centers.len()];
        let mut before: Option<&Vec<Vec3>> = None;
        for frame in frames {
            if let Some(before) = before {
                let step = dist(before, frame) + DIST_SLACK;
                floor.iter_mut().for_each(|f| *f -= step);
            }
            before = Some(frame);
            let (c, d) = nearest(self, frame, hint, &mut floor);
            hint = if d > self.radius && self.centers.len() < self.config.max_states {
                // Outside every state's radius: mint a new microstate.
                let mut row: Vec<f64> = self.centers.iter().map(|c| dist(frame, c)).collect();
                for (other, &apart) in self.between.iter_mut().zip(&row) {
                    other.push(apart);
                }
                row.push(0.0);
                self.between.push(row);
                self.moved.push(0.0);
                floor.push(0.0);
                self.centers.push(frame.clone());
                self.center_counts.push(1.0);
                self.exemplars.push(frame.clone());
                self.counts.grow(1);
                self.states_minted_since_rebase += 1;
                self.centers.len() - 1
            } else {
                self.center_counts[c] += 1.0;
                self.exemplars[c].clone_from(frame);
                if self.config.minibatch {
                    minibatch_center_update(&mut self.centers[c], frame, self.center_counts[c]);
                    // The update moves the center by `d / count` without
                    // superposition, so by no more than that with it.
                    let step = (d + DIST_SLACK) / self.center_counts[c];
                    floor[c] -= step;
                    self.moved[c] += step;
                    if self.moved[c] > REFRESH_AT * self.radius {
                        self.refresh_row(c);
                    }
                }
                c
            };
            assigned.push(hint);
        }
        self.frames_seen += frames.len() as u64;

        // Lagged counts across the segment boundary: prepend the tail,
        // count only pairs whose *end* lands in the new segment.
        let lag = self.config.lag_frames;
        let tail = self.tails.entry(lineage).or_default();
        let mut seq = tail.clone();
        seq.extend_from_slice(&assigned);
        let old = tail.len();
        for t in 0..seq.len().saturating_sub(lag) {
            if t + lag >= old {
                self.counts.add(seq[t], seq[t + lag], 1.0);
            }
        }
        *tail = tail_of(&seq, lag);
        assigned
    }

    /// Recompute center `c`'s distances to every other center as they
    /// stand now; its drift bound starts over.
    fn refresh_row(&mut self, c: usize) {
        for other in 0..self.centers.len() {
            if other != c {
                let d = dist(&self.centers[c], &self.centers[other]);
                self.between[c][other] = d;
                self.between[other][c] = d;
            }
        }
        self.moved[c] = 0.0;
    }

    /// Forget a lineage's tail (it was terminated; a respawn starts a
    /// fresh lineage with no transition bridging the discontinuity).
    pub fn end_lineage(&mut self, lineage: u64) {
        self.tails.remove(&lineage);
    }

    /// Swap in a full background rebuild: new centers, radius, and the
    /// dtrajs of the frames that were frozen when the rebuild was
    /// dispatched. The caller replays any frames observed after the
    /// freeze through [`StreamingMsm::observe`].
    pub fn rebase(
        &mut self,
        centers: Vec<Vec<Vec3>>,
        radius: f64,
        dtrajs: &BTreeMap<u64, Vec<usize>>,
    ) {
        let epoch = self.epoch + 1;
        let mut rebuilt = StreamingMsm::from_parts(self.config, centers, radius, dtrajs);
        rebuilt.epoch = epoch;
        // Lineages the old model knew about but the freeze missed keep
        // *no* tail: their pre-freeze frames were part of the frozen set
        // only if the caller included them, and replay re-creates tails.
        *self = rebuilt;
    }

    pub fn n_states(&self) -> usize {
        self.centers.len()
    }

    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn radius(&self) -> f64 {
        self.radius
    }

    pub fn counts(&self) -> &CountMatrix {
        &self.counts
    }

    pub fn centers(&self) -> &[Vec<Vec3>] {
        &self.centers
    }

    /// The raw frame most recently assigned to `state` — the restart
    /// conformation for spawns targeting that state.
    pub fn exemplar(&self, state: usize) -> &[Vec3] {
        &self.exemplars[state]
    }

    /// Fraction of the state budget minted since the last rebase.
    pub fn drift(&self) -> f64 {
        self.states_minted_since_rebase as f64 / self.config.max_states.max(1) as f64
    }

    /// Whether enough has changed since the last rebase that a full
    /// background recluster is worth its cost.
    pub fn rebuild_due(&self) -> bool {
        self.drift() > self.config.drift_state_frac
            || self.frames_seen as f64
                > self.frames_at_rebase.max(1) as f64 * self.config.drift_frame_factor
    }

    /// Spawn weights over the current active set.
    pub fn spawn_weights(&self, weighting: Weighting) -> StateWeights {
        let active = largest_connected_set(&self.counts);
        let weights = match weighting {
            Weighting::Even => even_weights(active.len().max(1)),
            Weighting::Adaptive => adaptive_weights(&self.counts.restrict(&active)),
        };
        StateWeights { active, weights }
    }

    /// Serialize the full estimator state for the server's WAL.
    pub fn to_value(&self) -> Value {
        let tails: Vec<Value> = self
            .tails
            .iter()
            .map(|(&l, seq)| json!({ "lineage": l, "tail": jsonv::usizes_to_value(seq) }))
            .collect();
        json!({
            "config": self.config.to_value(),
            "radius": self.radius,
            "centers": Value::from(
                self.centers.iter().map(|c| jsonv::frame_to_value(c)).collect::<Vec<Value>>()
            ),
            "center_counts": jsonv::f64s_to_value(&self.center_counts),
            "exemplars": Value::from(
                self.exemplars.iter().map(|c| jsonv::frame_to_value(c)).collect::<Vec<Value>>()
            ),
            "counts": self.counts.to_value(),
            "tails": Value::from(tails),
            "frames_seen": self.frames_seen,
            "states_minted_since_rebase": self.states_minted_since_rebase as u64,
            "frames_at_rebase": self.frames_at_rebase,
            "epoch": self.epoch,
        })
    }

    pub fn from_value(v: &Value) -> Result<StreamingMsm, String> {
        let config = StreamingConfig::from_value(jsonv::field(v, "config")?)?;
        let centers = jsonv::frames_from_value(jsonv::field(v, "centers")?)?;
        let exemplars = jsonv::frames_from_value(jsonv::field(v, "exemplars")?)?;
        let center_counts = jsonv::f64s_from_value(jsonv::field(v, "center_counts")?)?;
        if centers.len() != center_counts.len() || centers.len() != exemplars.len() {
            return Err("centers/center_counts/exemplars length mismatch".into());
        }
        let counts = CountMatrix::from_value(jsonv::field(v, "counts")?)?;
        if counts.n_states() != centers.len() {
            return Err("count matrix does not match center count".into());
        }
        let mut tails = BTreeMap::new();
        let tail_entries = jsonv::field(v, "tails")?
            .as_array()
            .ok_or("tails is not an array")?
            .clone();
        for entry in &tail_entries {
            let l = jsonv::int(entry, "lineage")?;
            let seq = jsonv::usizes_from_value(jsonv::field(entry, "tail")?)?;
            if seq.iter().any(|&s| s >= centers.len()) {
                return Err(format!("tail of lineage {l} references unknown state"));
            }
            tails.insert(l, seq);
        }
        Ok(StreamingMsm {
            config,
            radius: jsonv::num(v, "radius")?,
            between: center_distances(&centers, dist),
            moved: vec![0.0; centers.len()],
            centers,
            center_counts,
            exemplars,
            counts,
            tails,
            frames_seen: jsonv::int(v, "frames_seen")?,
            states_minted_since_rebase: jsonv::int(v, "states_minted_since_rebase")? as usize,
            frames_at_rebase: jsonv::int(v, "frames_at_rebase")?,
            epoch: jsonv::int(v, "epoch")?,
        })
    }
}

fn tail_of(seq: &[usize], lag: usize) -> Vec<usize> {
    seq[seq.len().saturating_sub(lag)..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::k_centers;
    use mdsim::{v3, Simulation, VillinModel};
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`dist`] on this test's thread.
        pub(super) static EVALUATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// A one-particle "conformation" at x: rmsd between two of them is 0
    /// after superposition (translation removed), so use two particles
    /// with a bond length encoding the coordinate.
    fn conf(x: f64) -> Vec<Vec3> {
        vec![v3(-x / 2.0, 0.0, 0.0), v3(x / 2.0, 0.0, 0.0)]
    }

    fn founding(max_states: usize, lag: usize) -> StreamingMsm {
        // Two founding states with bond lengths 1 and 5, radius 1.
        let centers = vec![conf(1.0), conf(5.0)];
        let mut dtrajs = BTreeMap::new();
        dtrajs.insert(0u64, vec![0, 0, 1, 1]);
        StreamingMsm::from_parts(
            StreamingConfig {
                max_states,
                lag_frames: lag,
                minibatch: false,
                ..StreamingConfig::default()
            },
            centers,
            1.0,
            &dtrajs,
        )
    }

    #[test]
    fn founding_counts_match_batch_estimator() {
        let m = founding(10, 1);
        // 0 0 1 1 at lag 1: (0,0), (0,1), (1,1).
        assert_eq!(m.counts().get(0, 0), 1.0);
        assert_eq!(m.counts().get(0, 1), 1.0);
        assert_eq!(m.counts().get(1, 1), 1.0);
        assert_eq!(m.frames_seen(), 4);
    }

    #[test]
    fn observe_assigns_within_radius_and_mints_outside() {
        let mut m = founding(10, 1);
        let a = m.observe(1, &[conf(1.2), conf(5.1), conf(20.0)]);
        // 1.2 is within radius of center 0; 5.1 of center 1; 20 is far
        // from both → new state 2.
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!(m.n_states(), 3);
        assert_eq!(m.counts().n_states(), 3);
        assert_eq!(m.counts().get(0, 1), 2.0); // founding 1 + new
        assert_eq!(m.counts().get(1, 2), 1.0);
    }

    #[test]
    fn budget_exhausted_assigns_nearest() {
        let mut m = founding(2, 1);
        let a = m.observe(1, &[conf(20.0)]);
        assert_eq!(m.n_states(), 2, "budget must cap state creation");
        assert_eq!(a, vec![1], "far frame falls back to nearest center");
    }

    #[test]
    fn chunked_observation_counts_like_unchunked() {
        // Feed one 8-frame trajectory in chunks of 3+3+2 and compare
        // counts to the batch estimator on the same dtraj, at lag 2.
        let xs = [1.0, 1.1, 5.0, 5.1, 1.05, 20.0, 20.1, 5.2];
        let mut m = founding(10, 2);
        let mut full = Vec::new();
        for chunk in [&xs[0..3], &xs[3..6], &xs[6..8]] {
            let frames: Vec<Vec<Vec3>> = chunk.iter().map(|&x| conf(x)).collect();
            full.extend(m.observe(7, &frames));
        }
        // Batch estimator over the founding dtraj plus the full new
        // trajectory must agree exactly with the chunked stream.
        let expect = CountMatrix::from_dtrajs(&[vec![0, 0, 1, 1], full.clone()], m.n_states(), 2);
        for i in 0..m.n_states() {
            for j in 0..m.n_states() {
                assert_eq!(
                    m.counts().get(i, j),
                    expect.get(i, j),
                    "count ({i},{j}) diverged between chunked and batch"
                );
            }
        }
    }

    #[test]
    fn end_lineage_breaks_count_bridging() {
        let mut m = founding(10, 1);
        let t00 = m.counts().get(0, 0);
        m.observe(3, &[conf(1.0)]);
        m.end_lineage(3);
        m.observe(3, &[conf(1.0)]);
        // Two single-frame segments with the tail dropped in between:
        // no (0,0) transition may be counted.
        assert_eq!(m.counts().get(0, 0), t00);
    }

    #[test]
    fn minibatch_pulls_center_toward_members() {
        let centers = vec![conf(1.0), conf(5.0)];
        let mut dtrajs = BTreeMap::new();
        dtrajs.insert(0u64, vec![0, 1]);
        let mut m = StreamingMsm::from_parts(
            StreamingConfig {
                max_states: 2,
                lag_frames: 1,
                minibatch: true,
                ..StreamingConfig::default()
            },
            centers,
            1.0,
            &dtrajs,
        );
        for _ in 0..50 {
            m.observe(1, &[conf(1.8)]);
        }
        let bond = (m.centers()[0][1] - m.centers()[0][0]).norm();
        assert!(
            bond > 1.3,
            "center bond {bond} did not move toward members at 1.8"
        );
    }

    #[test]
    fn drift_and_rebuild_due() {
        let mut m = founding(4, 1);
        assert!(!m.rebuild_due());
        m.observe(1, &[conf(20.0)]); // mints state 2 → drift 1/4
        assert!((m.drift() - 0.25).abs() < 1e-12);
        m.observe(1, &[conf(40.0)]); // mints state 3 → drift 1/2
        assert!(m.rebuild_due());
    }

    #[test]
    fn rebase_resets_drift_and_bumps_epoch() {
        let mut m = founding(4, 1);
        m.observe(1, &[conf(20.0), conf(40.0)]);
        assert!(m.rebuild_due());
        let mut dtrajs = BTreeMap::new();
        dtrajs.insert(0u64, vec![0, 1, 2, 1]);
        m.rebase(vec![conf(1.0), conf(5.0), conf(25.0)], 2.0, &dtrajs);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.n_states(), 3);
        assert!(!m.rebuild_due());
        assert!((m.radius() - 2.0).abs() < 1e-12);
        // Replay after rebase keeps working.
        let a = m.observe(1, &[conf(25.5)]);
        assert_eq!(a, vec![2]);
    }

    #[test]
    fn exemplar_tracks_last_raw_frame() {
        let mut m = founding(10, 1);
        m.observe(1, &[conf(1.3)]);
        let bond = (m.exemplar(0)[1] - m.exemplar(0)[0]).norm();
        assert!((bond - 1.3).abs() < 1e-9);
    }

    #[test]
    fn spawn_weights_cover_active_set() {
        let mut m = founding(10, 1);
        // Make states 0↔1 mutually connected so both are active.
        m.observe(1, &[conf(1.0), conf(5.0), conf(1.0)]);
        let even = m.spawn_weights(Weighting::Even);
        assert_eq!(even.active, vec![0, 1]);
        assert!((even.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(even.weight_of(0), even.weight_of(1));
        let adaptive = m.spawn_weights(Weighting::Adaptive);
        assert!((adaptive.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(adaptive.weight_of(99).is_none());
    }

    #[test]
    fn snapshot_roundtrips_and_continues_identically() {
        let mut m = founding(10, 2);
        m.observe(1, &[conf(1.2), conf(5.1), conf(20.0)]);
        let snap = m.to_value();
        let mut back = StreamingMsm::from_value(&snap).unwrap();
        assert_eq!(back.n_states(), m.n_states());
        assert_eq!(back.frames_seen(), m.frames_seen());
        assert_eq!(back.epoch(), m.epoch());
        // Observing the same segment on both sides stays in lockstep —
        // including the lagged tail, which must survive the roundtrip.
        let seg: Vec<Vec<Vec3>> = [1.0, 20.1, 5.05].iter().map(|&x| conf(x)).collect();
        let a1 = m.observe(1, &seg);
        let a2 = back.observe(1, &seg);
        assert_eq!(a1, a2);
        for i in 0..m.n_states() {
            for j in 0..m.n_states() {
                assert_eq!(m.counts().get(i, j), back.counts().get(i, j));
            }
        }
    }

    /// k-centers over `pool`, as the parts `from_parts` and `rebase`
    /// take; the pool is one lineage's dtraj per entry of `lineages`.
    fn cluster(
        pool: &[Vec<Vec3>],
        lineages: &[(u64, usize)],
        k: usize,
    ) -> (Vec<Vec<Vec3>>, f64, BTreeMap<u64, Vec<usize>>) {
        let clustering = k_centers(pool, k, 0, |a, b| rmsd(a, b));
        let centers = clustering
            .centers
            .iter()
            .map(|&i| pool[i].clone())
            .collect();
        let mut dtrajs = BTreeMap::new();
        let mut offset = 0;
        for &(lineage, len) in lineages {
            dtrajs.insert(
                lineage,
                clustering.assignment[offset..offset + len].to_vec(),
            );
            offset += len;
        }
        (centers, clustering.max_radius(), dtrajs)
    }

    /// The pruned warm-start search is the brute-force search: the same
    /// assignment for every frame of a long run of real HP35 Langevin
    /// segments — mini-batch updates moving the centers under the
    /// distance table all the while, states minted up to the budget, a
    /// rebase and a serialization round trip on the way — and so the
    /// same estimator, bit for bit, at a third of the distances. The
    /// 10⁵ frames are two independent streams, one test each, so that
    /// both cores of a small box work on them.
    fn pruned_search_assigns_like_brute_force(stream: u64) {
        const LINEAGES: u64 = 8;
        const FRAMES_PER_SEGMENT: u64 = 25;
        const RECORD_INTERVAL: u64 = 10;
        const SEGMENTS: u64 = 2000; // 5·10⁴ frames
        let seed = copernicus_testkit::seed().wrapping_add(stream << 32);
        let model = VillinModel::hp35();
        let mut sims: Vec<Simulation> = (0..LINEAGES)
            .map(|l| model.simulation(model.unfolded_start(seed ^ l), 0.5, seed.wrapping_add(l)))
            .collect();
        let mut segment = |lineage: u64| {
            sims[lineage as usize]
                .run_recording(FRAMES_PER_SEGMENT * RECORD_INTERVAL, RECORD_INTERVAL)
        };

        // Found both estimators on the first segment of every lineage.
        let mut pool = Vec::new();
        let mut lineages = Vec::new();
        for lineage in 0..LINEAGES {
            let traj = segment(lineage);
            lineages.push((lineage, traj.len()));
            pool.extend_from_slice(traj.frames());
        }
        let config = StreamingConfig {
            max_states: 48,
            lag_frames: 2,
            minibatch: true,
            ..StreamingConfig::default()
        };
        let (centers, radius, dtrajs) = cluster(&pool, &lineages, 24);
        let mut fast = StreamingMsm::from_parts(config, centers, radius, &dtrajs);
        let mut reference = fast.clone();

        let (mut frames, mut evaluations, mut centers_seen) = (0u64, 0u64, 0u64);
        let mut recent: Vec<(u64, Vec<Vec<Vec3>>)> = Vec::new();
        for s in 0..SEGMENTS {
            let lineage = s % LINEAGES;
            let traj = segment(lineage);
            let new_frames = &traj.frames()[1..];
            centers_seen += fast.n_states() as u64 * new_frames.len() as u64;
            frames += new_frames.len() as u64;
            let before = EVALUATIONS.with(Cell::get);
            let assigned = fast.observe(lineage, new_frames);
            evaluations += EVALUATIONS.with(Cell::get) - before;
            assert_eq!(
                assigned,
                reference.observe_brute_force(lineage, new_frames),
                "seed {seed}: segment {s} of lineage {lineage}"
            );
            recent.push((lineage, new_frames.to_vec()));
            if recent.len() > 4 * LINEAGES as usize {
                recent.remove(0);
            }
            if s == SEGMENTS / 3 {
                assert_eq!(fast.n_states(), config.max_states, "the budget is reached");
                // A rebuild over the recent frames lands: both swap it in.
                let pool: Vec<Vec<Vec3>> = recent.iter().flat_map(|(_, f)| f.clone()).collect();
                let pieces: Vec<(u64, usize)> =
                    (0..).zip(recent.iter().map(|(_, f)| f.len())).collect();
                let (centers, radius, dtrajs) = cluster(&pool, &pieces, 30);
                let mut by_lineage: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
                for ((lineage, _), dtraj) in recent.iter().zip(dtrajs.into_values()) {
                    by_lineage.entry(*lineage).or_default().extend(dtraj);
                }
                fast.rebase(centers.clone(), radius, &by_lineage);
                reference.rebase(centers, radius, &by_lineage);
            }
            if s == 2 * SEGMENTS / 3 {
                // A restart: the table and the drift bounds are rebuilt.
                let text = serde_json::to_string(&fast.to_value()).unwrap();
                fast = StreamingMsm::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
            }
        }
        assert!(frames >= 50_000, "{frames} frames");
        assert_eq!(fast.epoch(), 1);
        // Assignments, counts, centers, exemplars, tails: all of it.
        assert_eq!(
            serde_json::to_string(&fast.to_value()).unwrap(),
            serde_json::to_string(&reference.to_value()).unwrap(),
            "seed {seed}"
        );
        assert!(
            3 * evaluations <= centers_seen,
            "seed {seed}: {evaluations} distances over {frames} frames, brute force takes {centers_seen}"
        );
        eprintln!(
            "pruned search: {:.2} distances per frame, {:.1} centers",
            evaluations as f64 / frames as f64,
            centers_seen as f64 / frames as f64
        );
    }

    #[test]
    fn pruned_search_assigns_like_brute_force_first_stream() {
        pruned_search_assigns_like_brute_force(0);
    }

    #[test]
    fn pruned_search_assigns_like_brute_force_second_stream() {
        pruned_search_assigns_like_brute_force(1);
    }

    #[test]
    fn snapshot_rejects_corrupt_tails() {
        let m = founding(10, 1);
        let mut snap = m.to_value();
        snap["tails"] = json!([json!({ "lineage": 0u64, "tail": [99u64] })]);
        assert!(StreamingMsm::from_value(&snap).is_err());
    }
}
