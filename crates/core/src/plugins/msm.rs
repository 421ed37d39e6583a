//! The MSM adaptive-sampling controller plugin (§3 of the paper).
//!
//! Protocol, following §3.2: a fixed-size ensemble of trajectory
//! *lineages* runs in 50-ns segments. Lineages sitting in well-explored
//! (low-weight) microstates are terminated and replaced by fresh
//! lineages started from under-explored (high-weight) microstates, with
//! even or adaptive (transition-uncertainty) weighting.
//!
//! One adaptive loop drives the project (DESIGN.md §16): segments are
//! folded into an incremental MSM ([`StreamingMsm`]), a lineage whose
//! segment ends *parks*, and the parked lineages are decided together
//! when their *wave* closes — extend, or terminate and respawn from an
//! under-explored state. The expensive full recluster runs periodically
//! as a *background* `msm-build` command on the fleet and is swapped in
//! atomically when it lands. [`AdaptiveMode`] only says when a wave
//! closes:
//!
//! * [`AdaptiveMode::Streaming`] (default) — at once: every wave is one
//!   lineage, decided from the current weights, so the fleet never
//!   drains.
//! * [`AdaptiveMode::Generational`] — the paper's generation barrier:
//!   once every live lineage has parked and no recluster is in flight.
//!   The fleet idles while the last straggler finishes, and the run is
//!   independent of the order segments arrive in.
//!
//! The native structure is used **only** for reporting (the RMSD columns
//! of Figs. 2–5); sampling decisions are blind, exactly as in the paper.

use crate::command::CommandSpec;
use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent};
use crate::executor::{
    MdRunExecutor, MdRunOutput, MdRunSpec, MsmBuildExecutor, MsmBuildOutput, MsmBuildSpec,
};
use crate::resources::Resources;
use copernicus_telemetry::{buckets, names, Labels};
use mdsim::jsonv::{self, Auto, Block, Codec, Field, Flag, List, Skip};
use mdsim::model::villin::VillinModel;
use mdsim::rng::splitmix64;
use mdsim::trajectory::{chunk_steps, Trajectory};
use mdsim::units::ns_to_steps;
use mdsim::vec3::Vec3;
use msm::cluster::{center_distances, nearest_center_pruned, DIST_SLACK};
use msm::{
    first_crossing, propagate_series, rmsd, subset_population, MarkovStateModel, MsmConfig,
    StreamingConfig, StreamingMsm, Weighting,
};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// When a wave of parked lineages is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// At a generation barrier: once every live lineage has parked and
    /// no background recluster is in flight.
    Generational,
    /// The moment a lineage parks — the fleet never waits for a barrier.
    Streaming,
}

impl AdaptiveMode {
    fn as_str(self) -> &'static str {
        match self {
            AdaptiveMode::Generational => "Generational",
            AdaptiveMode::Streaming => "Streaming",
        }
    }

    fn parse(s: &str) -> Result<AdaptiveMode, String> {
        match s {
            "Generational" => Ok(AdaptiveMode::Generational),
            "Streaming" => Ok(AdaptiveMode::Streaming),
            other => Err(format!("unknown adaptive mode `{other}`")),
        }
    }
}

/// Spelled `"Generational"` or `"Streaming"` in configs.
impl Field for AdaptiveMode {
    fn put(&self) -> Value {
        Value::from(self.as_str())
    }

    fn get(v: &Value) -> Result<AdaptiveMode, String> {
        AdaptiveMode::parse(v.as_str().ok_or("not a string")?)
    }
}

jsonv::record! {
    /// Configuration of the adaptive-sampling project. A config document's
    /// absent keys keep their defaults, so a registry caller can say
    /// `{"generations": 3}` and nothing else.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MsmProjectConfig {
        /// Number of unfolded starting conformations (paper: 9).
        pub n_starts: usize,
        /// Simulation tasks per starting conformation (paper: 25 → 225
        /// total).
        pub sims_per_start: usize,
        /// Nominal segment length in "ns" (paper: 50).
        pub segment_ns: f64,
        /// Steps between recorded frames.
        pub record_interval: u64,
        /// Steps between checkpoint deposits (0 = off).
        pub checkpoint_steps: u64,
        /// Simulation temperature (ε/kB).
        pub temperature: f64,
        /// Microstate count for clustering (paper: 10,000 at full scale).
        pub n_clusters: usize,
        /// MSM lag time in frames.
        pub lag_frames: usize,
        /// Spawn weighting policy (§3.2: even early, adaptive late).
        pub weighting: Weighting,
        /// Use even weighting for the first N generations regardless of
        /// `weighting`, switching afterwards — the §3.2 recommendation
        /// ("even weighting … when state partitioning is highly unstable; as
        /// the state partitioning stabilizes, it becomes more advantageous
        /// to use adaptive weighting").
        pub even_until_generation: usize,
        /// Fraction of the live ensemble held under respawn pressure: a
        /// parked lineage respawns when its state weight ranks in this
        /// bottom fraction of the live lineages, so a wave terminates at
        /// most `⌊respawn_fraction × live⌋` of them.
        pub respawn_fraction: f64,
        /// The segment budget, in rounds of the ensemble: `generations ×
        /// n_starts × sims_per_start` segments in total (one wave each
        /// under the barrier).
        pub generations: usize,
        /// "Folded" definition for reporting: RMSD to native below this (Å;
        /// paper: 3.5).
        pub folded_rmsd: f64,
        /// Horizon of the final Chapman-Kolmogorov propagation, nominal ns
        /// (Fig. 4 runs to 2,000 ns).
        pub kinetics_horizon_ns: f64,
        /// Convergence stop criterion (§2: finish "when the standard error
        /// estimate of the output result has reached a user-specified
        /// minimum value"): stop early once the bootstrap standard error of
        /// the folded equilibrium population is below this, provided a
        /// folded state has been found. `None` disables early stopping.
        pub stop_folded_pop_stderr: Option<f64>,
        /// Master seed.
        pub seed: u64,
        /// Cores requested per simulation command.
        pub cores_per_sim: usize,
        /// When waves close.
        pub mode: AdaptiveMode,
        /// Streaming only: split each segment into this many chunked
        /// `mdrun` commands so partial trajectories reach the incremental
        /// estimator earlier (1 = whole segments). The barrier runs whole
        /// segments: it observes nothing before the wave closes.
        pub chunks_per_segment: usize,
    }
    default;
    check MsmProjectConfig::validate;
}

impl Default for MsmProjectConfig {
    fn default() -> Self {
        MsmProjectConfig {
            n_starts: 9,
            sims_per_start: 5,
            segment_ns: 50.0,
            record_interval: 80,
            checkpoint_steps: 0,
            temperature: 0.5,
            n_clusters: 150,
            lag_frames: 5,
            weighting: Weighting::Adaptive,
            even_until_generation: 0,
            respawn_fraction: 0.3,
            generations: 6,
            folded_rmsd: 3.5,
            kinetics_horizon_ns: 2000.0,
            stop_folded_pop_stderr: None,
            seed: 2011,
            cores_per_sim: 1,
            mode: AdaptiveMode::Streaming,
            chunks_per_segment: 1,
        }
    }
}

impl MsmProjectConfig {
    pub fn n_trajectories_per_generation(&self) -> usize {
        self.n_starts * self.sims_per_start
    }

    /// Reject a configuration the controller cannot run.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.respawn_fraction) {
            return Err("respawn_fraction must be in [0, 1]".into());
        }
        if self.chunks_per_segment == 0 {
            return Err("chunks_per_segment must be >= 1".into());
        }
        Ok(())
    }
}

jsonv::record! {
    /// Per-report-row statistics (the rows of Fig. 2 and the headline §3
    /// numbers): one row per `n_starts × sims_per_start` completed
    /// segments, which under the barrier is one row per wave.
    #[derive(Debug, Clone)]
    pub struct GenerationReport {
        pub generation: usize,
        /// Live lineages plus terminated trajectories so far.
        pub n_trajectories_total: usize,
        pub n_frames_total: usize,
        pub n_states: usize,
        pub n_active_states: usize,
        /// Lineages terminated and respawned since the previous row.
        pub n_respawned: usize,
        /// Lowest RMSD to native observed in any frame so far (Å).
        pub min_rmsd_to_native: f64,
        /// RMSD to native of the blind-predicted native state (largest
        /// equilibrium population) — the paper's 1.4 Å metric.
        pub predicted_native_rmsd: f64,
        /// Stationary population of the predicted state.
        pub predicted_native_population: f64,
        /// Total equilibrium population within `folded_rmsd` of native.
        pub folded_equilibrium_population: f64,
        /// Bootstrap standard error of that population (present when the
        /// convergence stop criterion is enabled).
        pub folded_pop_stderr: Option<f64>,
        /// Whether any frame so far is within `folded_rmsd` of native.
        pub folded_observed: bool,
    }
}

jsonv::record! {
    /// Final kinetic analysis (Fig. 4): Chapman-Kolmogorov propagation of the
    /// microstate MSM from the unfolded starting distribution.
    #[derive(Debug, Clone)]
    pub struct KineticsReport {
        /// Times in nominal ns.
        pub times_ns: Vec<f64>,
        /// Fraction of the population within `folded_rmsd` of native.
        pub folded_fraction: Vec<f64>,
        /// Folding half-time t½ (ns): first time folded_fraction reaches half
        /// its final value.
        pub t_half_ns: Option<f64>,
        /// Final folded fraction.
        pub final_folded_fraction: f64,
    }
}

jsonv::record! {
    /// Full project report returned by the controller.
    #[derive(Debug, Clone)]
    pub struct MsmProjectReport {
        pub generations: Vec<GenerationReport>,
        pub first_folded_generation: Option<usize>,
        /// Server-clock seconds from project start to the arrival of the
        /// first frame within `folded_rmsd` of native.
        pub first_folded_elapsed_secs: Option<f64>,
        pub min_rmsd_to_native: f64,
        pub final_predicted_native_rmsd: f64,
        /// Background reclusters swapped in.
        pub n_rebuilds: usize = 0,
        pub kinetics: Option<KineticsReport>,
    }
}

/// Shared trajectory archive, for callers that want the raw data (the
/// Fig. 4/5 analysis binaries). Receives each full lineage trajectory
/// when it is terminated, and all live ones when the project finishes.
pub type TrajectoryArchive = Arc<Mutex<Vec<Trajectory>>>;

jsonv::record! {
    /// One live trajectory lineage.
    struct Lineage {
        /// Stable identity: survives slot reuse, tags every command.
        uid: u64,
        traj: Trajectory,
        /// Final coordinates, from which the next chunk/segment continues.
        current: Vec<Vec3> as Block,
        /// State assignment, under the current stream epoch, of the frames
        /// of `traj` the stream has observed: a prefix, since the barrier
        /// observes a wave's frames only when it closes.
        dtraj: Vec<usize>,
        /// Step counts of the chunks remaining in the segment currently in
        /// flight (beyond the dispatched chunk).
        chunks_left: Vec<u64>,
        /// The segment ended; the lineage waits for its wave to close.
        parked: bool as Flag,
        /// The budget is spent (or the project halted): the slot never runs
        /// again.
        done: bool,
    }
}

jsonv::record! {
    /// A terminated lineage: kept whole for background reclusters and the
    /// final model estimation.
    struct ClosedLineage {
        uid: u64,
        traj: Trajectory,
        dtraj: Vec<usize>,
    }
}

jsonv::record! {
    /// Bookkeeping for the single in-flight background recluster.
    struct RebuildTicket {
        /// Stream epoch when the freeze was taken; a result for an older
        /// epoch is stale and ignored.
        epoch: u64,
        /// `(uid, frozen frame count)` in the order the trajectories were
        /// packed into the `msm-build` payload.
        frozen: Vec<(u64, usize)> as List<Frozen>,
        /// Every `stride`-th frozen frame, counting through the
        /// trajectories in that order, was shipped; 1 shipped them all.
        stride: usize = 1,
    }
}

/// A frozen trajectory, `(uid, frame count)`, as `{"uid": …, "len": …}`.
struct Frozen;

impl Codec<(u64, usize)> for Frozen {
    fn put(&(uid, len): &(u64, usize)) -> Value {
        json!({ "uid": uid, "len": len as u64 })
    }

    fn get(v: &Value) -> Result<(u64, usize), String> {
        Ok((
            jsonv::get_field::<u64, Auto>(v, "uid", None)?,
            jsonv::get_field::<usize, Auto>(v, "len", None)?,
        ))
    }
}

/// What the budget below charges one bead: the longest decimal `[x,y,z],`
/// (three floats of 17 significant digits with sign, point and
/// exponent). Frames travel as coordinate blocks now, 32 bytes a bead
/// (`mdsim::jsonv`), so a payload at the budget fills about a fifth of
/// [`copernicus_wire::MAX_FRAME`]: the frame count, and the frames a
/// recluster ships, are what they were, with a margin of more than 2×
/// under the cap.
const BEAD_JSON_BYTES: usize = 3 * 25 + 3;

/// Frames an `msm-build` payload may carry so that the workload frame
/// stays under the wire's cap whatever the project has accumulated:
/// half of [`copernicus_wire::MAX_FRAME`] at [`BEAD_JSON_BYTES`] a bead.
/// (About 3000 frames for the 35-bead villin.)
fn rebuild_frame_budget(n_beads: usize) -> usize {
    copernicus_wire::MAX_FRAME / 2 / (n_beads.max(1) * BEAD_JSON_BYTES)
}

/// Whether frame `index` of a trajectory packed at pooled `offset` is
/// one of those shipped under `stride`.
fn shipped(offset: usize, index: usize, stride: usize) -> bool {
    (offset + index).is_multiple_of(stride)
}

jsonv::record! {
    /// The MSM adaptive-sampling controller. Its image for the server's
    /// write-ahead log is its full decision state: config, lineages (with
    /// trajectories, stream assignments and whether they are parked), the
    /// incremental estimator, and every counter. The continuously mutated
    /// state, and a barrier wave half parked, thus survive a server crash
    /// (DESIGN.md §16; the streaming fault suite proves the round-trip).
    pub struct MsmController {
        config: MsmProjectConfig,
        model: Arc<VillinModel> as Skip = Arc::new(VillinModel::hp35()),
        /// Live lineages; commands are tagged with the lineage `uid`.
        lineages: Vec<Lineage>,
        terminated: Vec<ClosedLineage>,
        /// Shared with the caller, outside the image: a restore keeps the
        /// one attached.
        archive: Option<TrajectoryArchive> as Skip = None,
        next_seed: u64,
        next_uid: u64,
        /// Decision counter: every stochastic choice draws
        /// `splitmix64(seed ^ f(counter))`, so decision state is a single
        /// integer that snapshots into the WAL (an `Rng` object would not).
        decisions: u64,
        /// The incremental estimator (absent until bootstrap).
        stream: Option<StreamingMsm>,
        segments_done: u64,
        segments_started: u64,
        respawns_since_report: usize,
        rebuild: Option<RebuildTicket>,
        n_rebuilds: usize,
        /// Convergence reached: stop extending, drain, finish.
        halt: bool,
        reports: Vec<GenerationReport>,
        /// Infinite (null in the image) until a frame is seen.
        min_rmsd: f64 = f64::INFINITY,
        first_folded_generation: Option<usize>,
        first_folded_elapsed_secs: Option<f64>,
        /// Build the Fig. 4 kinetics report at the end (costs one more MSM
        /// propagation).
        pub analyze_kinetics: bool,
    }
}

impl MsmController {
    /// Build a controller from configuration alone. The Gō model is
    /// constructed internally; server-side plumbing (telemetry, clock,
    /// project identity) arrives per-event through [`ControllerCtx`].
    pub fn new(config: MsmProjectConfig) -> Self {
        config.validate().expect("invalid msm config");
        MsmController {
            config,
            model: Arc::new(VillinModel::hp35()),
            lineages: Vec::new(),
            terminated: Vec::new(),
            archive: None,
            next_seed: 1,
            next_uid: 0,
            decisions: 0,
            stream: None,
            segments_done: 0,
            segments_started: 0,
            respawns_since_report: 0,
            rebuild: None,
            n_rebuilds: 0,
            halt: false,
            reports: Vec::new(),
            min_rmsd: f64::INFINITY,
            first_folded_generation: None,
            first_folded_elapsed_secs: None,
            analyze_kinetics: true,
        }
    }

    /// Attach a shared archive that receives every finished trajectory.
    pub fn with_archive(mut self, archive: TrajectoryArchive) -> Self {
        self.archive = Some(archive);
        self
    }

    /// The archive, unless this delivery is a crash-recovery replay: it
    /// is shared with the caller, outside the state `snapshot` covers,
    /// and took these trajectories the first time round.
    fn archive(&self, ctx: &ControllerCtx<'_>) -> Option<&TrajectoryArchive> {
        self.archive.as_ref().filter(|_| !ctx.replay)
    }

    /// The Gō model the controller samples — the same `hp35()` build the
    /// MD executors construct, exposed for harnesses that want one.
    pub fn model(&self) -> Arc<VillinModel> {
        self.model.clone()
    }

    fn n_live(&self) -> usize {
        self.config.n_trajectories_per_generation()
    }

    /// Whether waves close at the generation barrier.
    fn barrier(&self) -> bool {
        self.config.mode == AdaptiveMode::Generational
    }

    /// Total segments the project may start.
    fn segment_budget(&self) -> u64 {
        (self.config.generations * self.n_live()) as u64
    }

    fn segment_steps(&self) -> u64 {
        ns_to_steps(self.config.segment_ns, self.model.params.dt)
    }

    /// The chunked command sizes of one segment. With more than one
    /// chunk the segment length is rounded up to a whole number of
    /// record intervals so every chunk ends on a recorded frame. The
    /// barrier runs whole segments: it would observe the chunks only at
    /// the close anyway, and their seeds would follow arrival order.
    fn segment_chunks(&self) -> Vec<u64> {
        let steps = self.segment_steps();
        if self.config.chunks_per_segment <= 1 || self.barrier() {
            return vec![steps];
        }
        let ri = self.config.record_interval.max(1);
        let steps = steps.max(ri).div_ceil(ri) * ri;
        chunk_steps(steps, self.config.chunks_per_segment, ri)
    }

    /// A decision draw in [0, 1).
    fn decision_unit(&mut self) -> f64 {
        self.decisions += 1;
        let bits =
            splitmix64(self.config.seed ^ self.decisions.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    fn md_command(&mut self, uid: u64, start: Vec<Vec3>, n_steps: u64) -> CommandSpec {
        let seed = splitmix64(self.config.seed ^ (self.next_seed << 17));
        self.next_seed += 1;
        let spec = MdRunSpec {
            start_positions: start,
            temperature: self.config.temperature,
            n_steps,
            record_interval: self.config.record_interval,
            seed,
            checkpoint_steps: self.config.checkpoint_steps,
            inject_crash_at_step: None,
            tag: json!({ "lineage": uid }),
        };
        CommandSpec::new(
            MdRunExecutor::COMMAND_TYPE,
            Resources::new(self.config.cores_per_sim, 64),
            spec.to_value(),
        )
    }

    fn slot_of(&self, uid: u64) -> Option<usize> {
        self.lineages.iter().position(|l| l.uid == uid)
    }

    /// State sequences in [`Self::trajectories`] order.
    fn all_dtrajs(&self) -> Vec<Vec<usize>> {
        self.terminated
            .iter()
            .map(|c| c.dtraj.clone())
            .chain(self.lineages.iter().map(|l| l.dtraj.clone()))
            .collect()
    }

    fn msm_config(&self) -> MsmConfig {
        MsmConfig {
            n_clusters: self.config.n_clusters,
            lag_frames: self.config.lag_frames,
            prior: 1e-4,
            reversible: true,
            kmedoids_iters: 0,
        }
    }

    /// Track the running minimum native RMSD over newly arrived frames;
    /// stamps time-to-first-folded off the server clock.
    fn scan_frames(&mut self, ctx: &ControllerCtx<'_>, frames: &[Vec<Vec3>]) {
        for f in frames {
            let d = rmsd(f, &self.model.native);
            if d < self.min_rmsd {
                self.min_rmsd = d;
            }
        }
        if self.min_rmsd <= self.config.folded_rmsd && self.first_folded_generation.is_none() {
            self.first_folded_generation = Some(self.reports.len());
            self.first_folded_elapsed_secs = Some(ctx.now.as_secs_f64());
        }
    }

    /// MSM-derived report metrics: blind native prediction and folded
    /// equilibrium population.
    fn msm_metrics(&self, msm: &MarkovStateModel) -> (f64, f64, f64) {
        let native = &self.model.native;
        let (_state, pop, center) = msm.predict_native();
        let predicted_rmsd = rmsd(center, native);
        let folded_pop = msm.equilibrium_population_near(native, self.config.folded_rmsd);
        (predicted_rmsd, pop, folded_pop)
    }

    /// Convergence check (§2): bootstrap the folded equilibrium
    /// population over trajectories (state definitions fixed).
    fn folded_stderr(&self, msm: &MarkovStateModel, folded_pop: f64) -> (Option<f64>, bool) {
        let threshold = match self.config.stop_folded_pop_stderr {
            Some(t) => t,
            None => return (None, false),
        };
        let native = &self.model.native;
        let folded_original_ids: Vec<usize> = msm
            .states_near(native, self.config.folded_rmsd)
            .into_iter()
            .map(|k| msm.active[k])
            .collect();
        if folded_original_ids.is_empty() || msm.dtrajs.len() < 2 {
            return (None, false);
        }
        let est = msm::bootstrap_subset_population(
            &msm.dtrajs,
            msm.n_states(),
            self.config.lag_frames,
            &folded_original_ids,
            40,
            self.config.seed ^ 0xb007,
        );
        let converged = folded_pop > 0.0 && est.std_err < threshold;
        (Some(est.std_err), converged)
    }

    /// Fig. 4 analysis: propagate the final MSM from the unfolded initial
    /// distribution and track the folded fraction.
    fn kinetics_report(&self, msm: &MarkovStateModel) -> KineticsReport {
        let folded_states = msm.states_near(&self.model.native, self.config.folded_rmsd);
        let p0 = msm.initial_distribution();
        let frame_ns = mdsim::units::steps_to_ns(self.config.record_interval, self.model.params.dt);
        let lag_ns = frame_ns * self.config.lag_frames as f64;
        let n_steps = (self.config.kinetics_horizon_ns / lag_ns).ceil().max(1.0) as usize;
        let series = propagate_series(&msm.tmatrix, &p0, n_steps);
        let folded = subset_population(&series, &folded_states);
        let times_ns: Vec<f64> = (0..=n_steps).map(|i| i as f64 * lag_ns).collect();
        let final_folded = (*folded.last().unwrap_or(&0.0)).max(0.0);
        let t_half_ns = first_crossing(&times_ns, &folded, 0.5 * final_folded);
        KineticsReport {
            times_ns,
            folded_fraction: folded,
            t_half_ns,
            final_folded_fraction: final_folded,
        }
    }

    fn final_report(&self, kinetics: Option<KineticsReport>) -> MsmProjectReport {
        MsmProjectReport {
            generations: self.reports.clone(),
            first_folded_generation: self.first_folded_generation,
            first_folded_elapsed_secs: self.first_folded_elapsed_secs,
            min_rmsd_to_native: self.min_rmsd,
            final_predicted_native_rmsd: self
                .reports
                .last()
                .map(|r| r.predicted_native_rmsd)
                .unwrap_or(f64::NAN),
            n_rebuilds: self.n_rebuilds,
            kinetics,
        }
    }
}

// ---------------------------------------------------------------------------
// The adaptive loop: lineages park, waves close, decisions respawn
// ---------------------------------------------------------------------------

impl MsmController {
    fn spawn_ensemble(&mut self) -> Vec<Action> {
        let mut specs = Vec::new();
        for s in 0..self.config.n_starts {
            let start = self.model.unfolded_start(self.config.seed ^ (s as u64 + 1));
            for _ in 0..self.config.sims_per_start {
                let uid = self.next_uid;
                self.next_uid += 1;
                let mut traj = Trajectory::new();
                traj.push(0.0, start.clone());
                self.lineages.push(Lineage {
                    uid,
                    traj,
                    current: start.clone(),
                    dtraj: Vec::new(),
                    chunks_left: Vec::new(),
                    parked: false,
                    done: false,
                });
            }
        }
        for slot in 0..self.lineages.len() {
            specs.push(self.start_segment(slot));
        }
        vec![
            Action::Log(format!(
                "{} start: {} lineages from {} unfolded starts, {} generations \
                 ({} segments) budgeted, {} chunk(s) per segment",
                self.config.mode.as_str(),
                specs.len(),
                self.config.n_starts,
                self.config.generations,
                self.segment_budget(),
                self.segment_chunks().len(),
            )),
            Action::Spawn(specs),
        ]
    }

    /// Dispatch the first chunk of a fresh segment for `slot`, queueing
    /// the remaining chunks on the lineage. Spends one unit of budget.
    fn start_segment(&mut self, slot: usize) -> CommandSpec {
        let chunks = self.segment_chunks();
        let uid = self.lineages[slot].uid;
        let start = self.lineages[slot].current.clone();
        self.lineages[slot].chunks_left = chunks[1..].to_vec();
        self.segments_started += 1;
        self.md_command(uid, start, chunks[0])
    }

    fn on_md_finished(&mut self, ctx: &ControllerCtx<'_>, parsed: MdRunOutput) -> Vec<Action> {
        let uid = match parsed.tag["lineage"].as_u64() {
            Some(u) => u,
            None => return vec![Action::Log("mdrun output without lineage tag".into())],
        };
        let slot = match self.slot_of(uid) {
            Some(s) => s,
            // A result for a lineage closed in the meantime cannot
            // happen under exactly-once delivery; tolerate it anyway.
            None => return vec![Action::Log(format!("stray segment for lineage {uid}"))],
        };
        // Worker data: a chunk that does not fit the lineage is lost,
        // not stitched.
        let n_beads = self.model.native.len();
        let fits = if parsed.trajectory.n_particles() != n_beads
            || parsed.final_positions.len() != n_beads
        {
            Err(format!(
                "{} beads, the model has {n_beads}",
                parsed.trajectory.n_particles()
            ))
        } else {
            self.lineages[slot]
                .traj
                .append_continuation(&parsed.trajectory)
        };
        if let Err(e) = fits {
            let mut actions = vec![Action::Log(format!(
                "mdrun result for lineage {uid} does not fit ({e}); chunk lost"
            ))];
            actions.extend(self.chunk_lost(ctx, uid));
            return actions;
        }
        // New frames only: chunk frame 0 duplicates the lineage's
        // current last frame.
        self.scan_frames(ctx, &parsed.trajectory.frames()[1..]);
        self.lineages[slot].current = parsed.final_positions;
        if !self.barrier() {
            self.observe_new(slot);
        }
        // More chunks of this segment? Keep the slot hot immediately.
        if !self.lineages[slot].chunks_left.is_empty() {
            let next = self.lineages[slot].chunks_left.remove(0);
            let start = self.lineages[slot].current.clone();
            let spec = self.md_command(uid, start, next);
            return vec![Action::Spawn(vec![spec])];
        }
        self.segment_end(ctx, slot)
    }

    /// The background recluster died (or returned nothing usable): the
    /// stream keeps estimating on the old partitioning, a waiting
    /// barrier is released, and a later wave re-triggers a rebuild.
    fn rebuild_lost(&mut self, ctx: &ControllerCtx<'_>) -> Vec<Action> {
        self.rebuild = None;
        self.close_wave(ctx)
    }

    /// A chunk of lineage `uid` is gone for good (dropped, or its
    /// result unusable): abandon the rest of the segment and park on the
    /// frames that did arrive, so the slot stays in rotation.
    fn chunk_lost(&mut self, ctx: &ControllerCtx<'_>, uid: u64) -> Vec<Action> {
        let Some(slot) = self.slot_of(uid) else {
            return vec![];
        };
        self.lineages[slot].chunks_left.clear();
        self.segment_end(ctx, slot)
    }

    /// Fold the frames of `slot` the stream has not seen into it.
    fn observe_new(&mut self, slot: usize) {
        let (Some(stream), lineage) = (&mut self.stream, &mut self.lineages[slot]) else {
            return;
        };
        let fresh = &lineage.traj.frames()[lineage.dtraj.len()..];
        if !fresh.is_empty() {
            lineage.dtraj.extend(stream.observe(lineage.uid, fresh));
        }
    }

    /// A lineage finished (or irrecoverably lost) a whole segment: park
    /// it until its wave closes.
    fn segment_end(&mut self, ctx: &ControllerCtx<'_>, slot: usize) -> Vec<Action> {
        self.segments_done += 1;
        self.lineages[slot].parked = true;
        self.close_wave(ctx)
    }

    /// Decide the parked lineages, if their wave is complete: at once
    /// when streaming (a wave of one), behind the barrier once every
    /// live lineage has parked and no recluster is in flight — so the
    /// barrier's decisions do not depend on the order segments arrive
    /// in. In order: observe the wave's frames slot by slot, bootstrap
    /// or report as due, decide every slot, maybe dispatch a recluster.
    fn close_wave(&mut self, ctx: &ControllerCtx<'_>) -> Vec<Action> {
        let running = self.lineages.iter().any(|l| !l.parked && !l.done);
        if self.barrier() && (running || self.rebuild.is_some()) {
            return vec![];
        }
        let wave: Vec<usize> = (0..self.lineages.len())
            .filter(|&slot| self.lineages[slot].parked)
            .collect();
        if wave.is_empty() {
            return self.maybe_finish(ctx);
        }
        for &slot in &wave {
            self.observe_new(slot);
        }
        let mut actions = Vec::new();
        let n_live = self.n_live() as u64;
        if self.stream.is_none() && self.segments_done >= n_live {
            self.bootstrap(ctx, &mut actions);
        }
        // Report row + convergence check at generation-equivalent
        // cadence: every n_live completed segments.
        if self.stream.is_some() && self.segments_done.is_multiple_of(n_live) {
            self.report_row(ctx, &mut actions);
        }
        actions.extend(self.decide(ctx, &wave));
        self.maybe_spawn_rebuild(&mut actions);
        actions
    }

    /// Found the incremental estimator on an inline k-centers build over
    /// the first round of segments.
    fn bootstrap(&mut self, ctx: &ControllerCtx<'_>, actions: &mut Vec<Action>) {
        let pooled: Vec<Vec<Vec3>> = self
            .lineages
            .iter()
            .flat_map(|l| l.traj.frames().iter().cloned())
            .collect();
        let (clustering, elapsed_ns) = copernicus_telemetry::timed(|| {
            msm::cluster::k_centers(&pooled, self.config.n_clusters, 0, |a, b| rmsd(a, b))
        });
        let centers: Vec<Vec<Vec3>> = clustering
            .centers
            .iter()
            .map(|&i| pooled[i].clone())
            .collect();
        let radius = clustering.max_radius();
        let mut dtrajs: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut offset = 0usize;
        for l in &mut self.lineages {
            let n = l.traj.len();
            l.dtraj = clustering.assignment[offset..offset + n].to_vec();
            offset += n;
            dtrajs.insert(l.uid, l.dtraj.clone());
        }
        let stream_config = StreamingConfig {
            // Headroom above the founding cluster count: novel frames
            // mint new microstates until the next background rebuild.
            max_states: self.config.n_clusters * 2,
            lag_frames: self.config.lag_frames,
            ..StreamingConfig::default()
        };
        let stream = StreamingMsm::from_parts(stream_config, centers, radius, &dtrajs);
        if let Some(t) = ctx.telemetry {
            t.registry()
                .histogram(names::CLUSTERING_SECS, Labels::new(), buckets::SECONDS)
                .record(elapsed_ns as f64 / 1e9);
            t.registry()
                .gauge(names::MSM_STATES, Labels::new())
                .set(stream.n_states() as f64);
        }
        actions.push(Action::Log(format!(
            "stream bootstrap: {} states over {} frames (radius {:.2} Å)",
            stream.n_states(),
            pooled.len(),
            stream.radius(),
        )));
        self.stream = Some(stream);
    }

    fn n_frames(&self) -> usize {
        self.trajectories().map(|(_, traj)| traj.len()).sum()
    }

    /// Estimation-only report row from the incremental counts: no
    /// reclustering, and one Newton solve of the reversible MLE (a row
    /// took 0.4 ms median in a 20 s `villin_fine_durable` run on a
    /// 2-vCPU Xeon; the convergence stop's bootstrap adds forty more
    /// solves), so this is cheap enough to run at row cadence.
    fn report_row(&mut self, ctx: &ControllerCtx<'_>, actions: &mut Vec<Action>) {
        let Some(stream) = &self.stream else {
            return;
        };
        let msm = MarkovStateModel::from_streamed(
            stream.centers().to_vec(),
            self.all_dtrajs(),
            stream.counts().clone(),
            self.msm_config(),
        );
        let (predicted_rmsd, pop, folded_pop) = self.msm_metrics(&msm);
        let (folded_pop_stderr, converged) = self.folded_stderr(&msm, folded_pop);
        let report = GenerationReport {
            generation: self.reports.len(),
            n_trajectories_total: self.terminated.len() + self.lineages.len(),
            n_frames_total: self.n_frames(),
            n_states: msm.n_states(),
            n_active_states: msm.n_active(),
            n_respawned: self.respawns_since_report,
            min_rmsd_to_native: self.min_rmsd,
            predicted_native_rmsd: predicted_rmsd,
            predicted_native_population: pop,
            folded_equilibrium_population: folded_pop,
            folded_pop_stderr,
            folded_observed: self.min_rmsd <= self.config.folded_rmsd,
        };
        self.respawns_since_report = 0;
        actions.push(Action::Log(format!(
            "stream row {}: {} states ({} active), {} segments done, min RMSD {:.2} Å",
            report.generation,
            report.n_states,
            report.n_active_states,
            self.segments_done,
            report.min_rmsd_to_native,
        )));
        if let Some(t) = ctx.telemetry {
            t.registry()
                .gauge(names::MSM_STATES, Labels::new())
                .set(report.n_states as f64);
        }
        self.reports.push(report);
        if converged && !self.halt {
            self.halt = true;
            actions.push(Action::Log(
                "folded population converged below threshold: draining ensemble".into(),
            ));
        }
    }

    /// Extend or terminate+respawn every slot of a closing wave, in slot
    /// order; a slot whose budget is spent is done instead.
    fn decide(&mut self, ctx: &ControllerCtx<'_>, wave: &[usize]) -> Vec<Action> {
        let verdicts = self.respawn_verdicts(wave);
        let mut actions = Vec::new();
        for (&slot, verdict) in wave.iter().zip(verdicts) {
            self.lineages[slot].parked = false;
            if self.halt || self.segments_started >= self.segment_budget() {
                self.lineages[slot].done = true;
                continue;
            }
            if let Some(why) = verdict {
                actions.push(self.respawn(ctx, slot, &why));
            }
            actions.push(Action::Spawn(vec![self.start_segment(slot)]));
        }
        actions.extend(self.maybe_finish(ctx));
        actions
    }

    /// Which slots of the wave respawn: those whose current-state weight
    /// ranks under `⌊respawn_fraction × live⌋` in the live ensemble. All
    /// are ranked against the ensemble as it stands before any of them
    /// respawns, so a wave terminates at most that many. A respawning
    /// slot's verdict says why, for the log.
    fn respawn_verdicts(&self, wave: &[usize]) -> Vec<Option<String>> {
        let Some(stream) = &self.stream else {
            // No model yet: sampling decisions need one, so extend.
            return vec![None; wave.len()];
        };
        // Termination ranking always uses adaptive weights: "how
        // redundant is more sampling here" is inherently an uncertainty
        // question, even when *spawn targeting* is even-weighted.
        let term_weights = stream.spawn_weights(Weighting::Adaptive);
        let weight_of = |l: &Lineage| -> f64 {
            l.dtraj
                .last()
                .and_then(|&s| term_weights.weight_of(s))
                // Disconnected or unassigned: maximally interesting,
                // never terminate.
                .unwrap_or(f64::INFINITY)
        };
        let live: Vec<(f64, u64)> = self
            .lineages
            .iter()
            .filter(|l| !l.done)
            .map(|l| (weight_of(l), l.uid))
            .collect();
        let cutoff = (self.config.respawn_fraction * live.len() as f64).floor() as usize;
        wave.iter()
            .map(|&slot| {
                let (mine, my_uid) = (weight_of(&self.lineages[slot]), self.lineages[slot].uid);
                let rank = live
                    .iter()
                    .filter(|&&(w, uid)| w < mine || (w == mine && uid < my_uid))
                    .count();
                let respawn = cutoff > 0 && rank < cutoff && mine.is_finite();
                respawn.then(|| format!("weight {mine:.3e}, rank {rank}/{cutoff}"))
            })
            .collect()
    }

    /// Terminate `slot`'s lineage: archive it, then restart the slot from
    /// an exemplar frame of a weight-sampled under-explored state.
    fn respawn(&mut self, ctx: &ControllerCtx<'_>, slot: usize, why: &str) -> Action {
        let effective_weighting = if self.reports.len() < self.config.even_until_generation {
            Weighting::Even
        } else {
            self.config.weighting
        };
        let draw = self.decision_unit();
        let stream = self.stream.as_mut().expect("respawns need a model");
        let spawn_weights = stream.spawn_weights(effective_weighting);
        let k = weighted_pick(&spawn_weights.weights, draw);
        let target_state = spawn_weights.active[k];
        let start = stream.exemplar(target_state).to_vec();
        let old_uid = self.lineages[slot].uid;
        stream.end_lineage(old_uid);

        let new_uid = self.next_uid;
        self.next_uid += 1;
        let mut traj = Trajectory::new();
        traj.push(0.0, start.clone());
        let dtraj = stream.observe(new_uid, std::slice::from_ref(&start));
        let old = std::mem::replace(
            &mut self.lineages[slot],
            Lineage {
                uid: new_uid,
                traj,
                current: start,
                dtraj,
                chunks_left: Vec::new(),
                parked: false,
                done: false,
            },
        );
        if let Some(archive) = self.archive(ctx) {
            archive.lock().unwrap().push(old.traj.clone());
        }
        self.terminated.push(ClosedLineage {
            uid: old.uid,
            traj: old.traj,
            dtraj: old.dtraj,
        });
        self.respawns_since_report += 1;
        Action::Log(format!(
            "lineage {old_uid} terminated ({why}); respawned as {new_uid} from state {target_state}"
        ))
    }

    /// Dispatch the periodic full recluster to the fleet when drift
    /// warrants one. Single-flight; skipped near the end of the budget
    /// (the result would land after the project finishes).
    fn maybe_spawn_rebuild(&mut self, actions: &mut Vec<Action>) {
        let stream = match &self.stream {
            Some(s) => s,
            None => return,
        };
        if self.rebuild.is_some() || self.halt || !stream.rebuild_due() {
            return;
        }
        if self.segment_budget().saturating_sub(self.segments_started) < self.n_live() as u64 {
            return;
        }
        self.spawn_rebuild(actions);
    }

    /// Every trajectory of the project, terminated lineages first, then
    /// the live ones in slot order: the order `msm-build` payloads are
    /// packed in.
    fn trajectories(&self) -> impl Iterator<Item = (u64, &Trajectory)> {
        let terminated = self.terminated.iter().map(|c| (c.uid, &c.traj));
        terminated.chain(self.lineages.iter().map(|l| (l.uid, &l.traj)))
    }

    /// Freeze the frames seen so far and ship them to the fleet as one
    /// `msm-build` command: all of them while that fits a wire frame,
    /// past the budget a uniform-stride subsample. The worker clusters
    /// what it gets; `on_msm_build` assigns the rest.
    fn spawn_rebuild(&mut self, actions: &mut Vec<Action>) {
        let Some(stream) = &self.stream else {
            return;
        };
        let total = self.n_frames();
        let budget = rebuild_frame_budget(self.model.native.len());
        let stride = total.div_ceil(budget.max(1)).max(1);
        let mut frozen = Vec::new();
        let mut trajs = Vec::new();
        let mut offset = 0;
        for (uid, traj) in self.trajectories() {
            let frames = traj.frames().iter().enumerate();
            trajs.push(
                frames
                    .filter(|(i, _)| shipped(offset, *i, stride))
                    .map(|(_, frame)| frame.clone())
                    .collect(),
            );
            frozen.push((uid, traj.len()));
            offset += traj.len();
        }
        let epoch = stream.epoch();
        let drift = stream.drift();
        let spec = MsmBuildSpec {
            trajs,
            n_clusters: self.config.n_clusters,
            tag: json!({ "kind": "msm-build", "epoch": epoch }),
        };
        self.rebuild = Some(RebuildTicket {
            epoch,
            frozen,
            stride,
        });
        actions.push(Action::Log(format!(
            "dispatching background recluster (epoch {epoch}, drift {drift:.2})"
        )));
        actions.push(Action::Spawn(vec![CommandSpec::new(
            MsmBuildExecutor::COMMAND_TYPE,
            Resources::new(self.config.cores_per_sim, 64),
            spec.to_value(),
        )]));
    }

    /// The state sequence of every frozen frame under a finished
    /// rebuild, and the largest assignment distance: the worker's
    /// assignment where the frame was shipped, the nearest of the new
    /// centers where it was not (which is what the worker would have
    /// answered, short of considering the frame for a center).
    fn frozen_dtrajs(
        &self,
        ticket: &RebuildTicket,
        from_worker: Vec<Vec<usize>>,
        centers: &[Vec<Vec3>],
        mut radius: f64,
    ) -> (BTreeMap<u64, Vec<usize>>, f64) {
        let uids = ticket.frozen.iter().map(|&(uid, _)| uid);
        if ticket.stride == 1 {
            return (uids.zip(from_worker).collect(), radius);
        }
        let trajs: BTreeMap<u64, &Trajectory> = self.trajectories().collect();
        let between = center_distances(centers, |a, b| rmsd(a, b));
        let still = vec![0.0; centers.len()];
        let mut floor = still.clone();
        let mut offset = 0;
        let mut frozen = BTreeMap::new();
        for (&(uid, len), from_worker) in ticket.frozen.iter().zip(from_worker) {
            let mut from_worker = from_worker.into_iter();
            let frames = trajs.get(&uid).map_or(&[][..], |traj| traj.frames());
            // Consecutive frames mostly share a state: start each
            // search from the previous frame's, with the floors of the
            // last frame searched less the distance between the two.
            let mut state = 0;
            let mut searched: Option<&Vec<Vec3>> = None;
            let dtraj = frames[..len.min(frames.len())]
                .iter()
                .enumerate()
                .map(|(i, frame)| {
                    let assigned = if shipped(offset, i, ticket.stride) {
                        from_worker.next()
                    } else {
                        None
                    };
                    state = assigned.unwrap_or_else(|| {
                        match searched.replace(frame) {
                            Some(before) => {
                                let step = rmsd(before, frame) + DIST_SLACK;
                                floor.iter_mut().for_each(|f| *f -= step);
                            }
                            None => floor.fill(0.0),
                        }
                        let (c, dist) = nearest_center_pruned(
                            frame,
                            centers,
                            &between,
                            &still,
                            &mut floor,
                            state,
                            |a, b| rmsd(a, b),
                        );
                        radius = radius.max(dist);
                        c
                    });
                    state
                })
                .collect();
            frozen.insert(uid, dtraj);
            offset += len;
        }
        (frozen, radius)
    }

    /// A background recluster landed: swap it in atomically, replay the
    /// frames the stream observed after the freeze, and re-derive every
    /// lineage's state sequence under the new partitioning. Frames still
    /// parked for the barrier stay unobserved until their wave closes.
    fn on_msm_build(&mut self, ctx: &ControllerCtx<'_>, out: MsmBuildOutput) -> Vec<Action> {
        let ticket = match self.rebuild.take() {
            Some(t) => t,
            None => return vec![Action::Log("stray msm-build result ignored".into())],
        };
        let epoch = match &self.stream {
            Some(s) => s.epoch(),
            None => return vec![Action::Log("msm-build result without a stream".into())],
        };
        if out.tag["epoch"].as_u64() != Some(epoch) || ticket.epoch != epoch {
            return vec![Action::Log(format!(
                "stale msm-build (epoch {:?} vs {epoch}) ignored",
                out.tag["epoch"].as_u64(),
            ))];
        }
        let (frozen, radius) = self.frozen_dtrajs(&ticket, out.dtrajs, &out.centers, out.radius);
        let stream = self.stream.as_mut().expect("checked above");
        let frozen_len: BTreeMap<u64, usize> =
            ticket.frozen.iter().map(|&(uid, len)| (uid, len)).collect();
        stream.rebase(out.centers, radius, &frozen);
        // Replay post-freeze frames (they arrived while the rebuild ran)
        // and install the re-derived dtrajs everywhere.
        for c in &mut self.terminated {
            let flen = frozen_len.get(&c.uid).copied().unwrap_or(0);
            let mut d = frozen.get(&c.uid).cloned().unwrap_or_default();
            if c.dtraj.len() > flen {
                d.extend(stream.observe(c.uid, &c.traj.frames()[flen..c.dtraj.len()]));
            }
            stream.end_lineage(c.uid);
            c.dtraj = d;
        }
        for l in &mut self.lineages {
            let flen = frozen_len.get(&l.uid).copied().unwrap_or(0);
            let mut d = frozen.get(&l.uid).cloned().unwrap_or_default();
            if l.dtraj.len() > flen {
                d.extend(stream.observe(l.uid, &l.traj.frames()[flen..l.dtraj.len()]));
            }
            l.dtraj = d;
        }
        self.n_rebuilds += 1;
        let epoch = stream.epoch();
        let n_states = stream.n_states();
        if let Some(t) = ctx.telemetry {
            t.registry()
                .gauge(names::MSM_STATES, Labels::new())
                .set(n_states as f64);
        }
        let mut actions = vec![Action::Log(format!(
            "rebased stream to epoch {epoch}: {n_states} states"
        ))];
        actions.extend(self.close_wave(ctx));
        actions
    }

    /// Finish once every slot is done and no background rebuild is in
    /// flight (its result must not arrive at a finished project).
    fn maybe_finish(&mut self, ctx: &ControllerCtx<'_>) -> Vec<Action> {
        if self.rebuild.is_some() || !self.lineages.iter().all(|l| l.done) {
            return vec![];
        }
        self.finish(ctx)
    }

    fn finish(&mut self, ctx: &ControllerCtx<'_>) -> Vec<Action> {
        if let Some(archive) = self.archive(ctx) {
            let mut guard = archive.lock().unwrap();
            for l in &self.lineages {
                guard.push(l.traj.clone());
            }
        }
        // A slot is done only once it has ended a segment, so the wave
        // that bootstrapped the stream (and reported row 0) has closed.
        let stream = self.stream.as_ref().expect("every lineage ended a segment");
        let msm = MarkovStateModel::from_streamed(
            stream.centers().to_vec(),
            self.all_dtrajs(),
            stream.counts().clone(),
            self.msm_config(),
        );
        let kinetics = if self.analyze_kinetics {
            Some(self.kinetics_report(&msm))
        } else {
            None
        };
        let final_report = self.final_report(kinetics);
        vec![
            Action::Log(format!(
                "project done: {} segments, {} rebuilds, min RMSD {:.2} Å",
                self.segments_done, self.n_rebuilds, self.min_rmsd,
            )),
            Action::FinishProject {
                result: final_report.to_value(),
            },
        ]
    }
}

/// Weight-proportional index pick from a unit draw.
fn weighted_pick(weights: &[f64], draw: f64) -> usize {
    assert!(!weights.is_empty());
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 {
        return ((draw * weights.len() as f64) as usize).min(weights.len() - 1);
    }
    let target = draw * total;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w.max(0.0);
        if target < acc {
            return i;
        }
    }
    weights.len() - 1
}

// ---------------------------------------------------------------------------
// Controller protocol: event dispatch + WAL snapshot/restore
// ---------------------------------------------------------------------------

impl Controller for MsmController {
    fn name(&self) -> &str {
        "msm"
    }

    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => self.spawn_ensemble(),
            ControllerEvent::CommandFinished(output) => {
                let kind = output
                    .data
                    .get("tag")
                    .and_then(|t| t.get("kind"))
                    .and_then(|k| k.as_str());
                if kind == Some("msm-build") {
                    let n_beads = self.model.native.len();
                    return match MsmBuildOutput::from_value(&output.data) {
                        Ok(p)
                            if !p.centers.is_empty()
                                && p.centers.iter().all(|c| c.len() == n_beads) =>
                        {
                            self.on_msm_build(&ctx, p)
                        }
                        parsed => {
                            let e = parsed.err().unwrap_or_else(|| "misshapen centers".into());
                            let mut actions =
                                vec![Action::Log(format!("unusable msm-build output: {e}"))];
                            actions.extend(self.rebuild_lost(&ctx));
                            actions
                        }
                    };
                }
                match MdRunOutput::from_value(&output.data) {
                    Ok(parsed) => self.on_md_finished(&ctx, parsed),
                    Err(e) => {
                        let mut actions =
                            vec![Action::Log(format!("could not parse mdrun output: {e}"))];
                        if let Some(uid) = output.data["tag"]["lineage"].as_u64() {
                            actions.extend(self.chunk_lost(&ctx, uid));
                        }
                        actions
                    }
                }
            }
            ControllerEvent::WorkerFailed { worker, requeued } => {
                vec![Action::Log(format!(
                    "worker {worker} lost; requeued: {requeued:?}"
                ))]
            }
            ControllerEvent::CommandDropped {
                command,
                attempts,
                reason,
                tag,
            } => {
                let mut actions = vec![Action::Log(format!(
                    "{command} dropped after {attempts} attempts ({reason:?})"
                ))];
                if tag.get("kind").and_then(|k| k.as_str()) == Some("msm-build") {
                    actions.extend(self.rebuild_lost(&ctx));
                } else if let Some(uid) = tag.get("lineage").and_then(|l| l.as_u64()) {
                    actions.extend(self.chunk_lost(&ctx, uid));
                }
                actions
            }
        }
    }

    fn snapshot(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        match MsmController::from_value(&snapshot) {
            Ok(restored) => {
                *self = MsmController {
                    archive: self.archive.take(),
                    ..restored
                };
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use copernicus_telemetry::Telemetry;
    use copernicus_testkit::{record_sweep, Gen, Record};

    fn tiny_config() -> MsmProjectConfig {
        MsmProjectConfig {
            n_starts: 2,
            sims_per_start: 2,
            segment_ns: 5.0,
            record_interval: 40,
            temperature: 0.55,
            n_clusters: 10,
            lag_frames: 1,
            generations: 3,
            respawn_fraction: 0.5,
            seed: 3,
            mode: AdaptiveMode::Generational,
            ..MsmProjectConfig::default()
        }
    }

    fn streaming_config() -> MsmProjectConfig {
        MsmProjectConfig {
            mode: AdaptiveMode::Streaming,
            ..tiny_config()
        }
    }

    /// Runs a controller on the test thread against inline executors:
    /// spawned commands go on a stack and the newest runs next (the
    /// oldest, with `oldest_first`), so a run is a pure function of its
    /// configuration.
    #[derive(Clone)]
    struct Inline {
        model: Arc<VillinModel>,
        pending: Vec<crate::command::Command>,
        oldest_first: bool,
        next_id: u64,
        /// Every spec the controller spawned, in spawn order.
        spawned: Vec<CommandSpec>,
        /// Commands executed, by type.
        counts: BTreeMap<String, usize>,
        /// Every line the controller logged, in order.
        logs: Vec<String>,
        result: Option<Value>,
        telemetry: Option<Telemetry>,
    }

    impl Inline {
        fn start(controller: &mut MsmController, telemetry: Option<Telemetry>) -> Inline {
            let mut run = Inline {
                model: controller.model(),
                pending: Vec::new(),
                oldest_first: false,
                next_id: 0,
                spawned: Vec::new(),
                counts: BTreeMap::new(),
                logs: Vec::new(),
                result: None,
                telemetry,
            };
            let actions = controller.on_event(run.ctx(), ControllerEvent::ProjectStarted);
            run.apply(actions);
            run
        }

        fn ctx(&self) -> ControllerCtx<'_> {
            ControllerCtx {
                telemetry: self.telemetry.as_ref(),
                ..ControllerCtx::test()
            }
        }

        fn apply(&mut self, actions: Vec<Action>) {
            use crate::command::Command;
            use crate::ids::{CommandId, ProjectId};
            for a in actions {
                match a {
                    Action::Spawn(specs) => {
                        for s in specs {
                            self.spawned.push(s.clone());
                            let id = CommandId(self.next_id);
                            self.pending.push(Command::from_spec(id, ProjectId(0), s));
                            self.next_id += 1;
                        }
                    }
                    Action::FinishProject { result } => self.result = Some(result),
                    Action::Log(line) => self.logs.push(line),
                    _ => {}
                }
            }
        }

        /// Execute the next pending command and deliver its result.
        fn step(&mut self, controller: &mut MsmController) {
            self.step_with(controller, |_| {});
        }

        /// [`Inline::step`], with `corrupt` rewriting the result first.
        fn step_with(&mut self, controller: &mut MsmController, corrupt: impl FnOnce(&mut Value)) {
            use crate::command::CommandOutput;
            use crate::executor::{CommandExecutor, ExecContext};
            use crate::ids::WorkerId;
            assert!(!self.pending.is_empty(), "controller starved the queue");
            let cmd = if self.oldest_first {
                self.pending.remove(0)
            } else {
                self.pending.pop().unwrap()
            };
            *self.counts.entry(cmd.command_type.clone()).or_default() += 1;
            let exec = ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            };
            let data = match cmd.command_type.as_str() {
                "mdrun" => MdRunExecutor::new(self.model.clone()).execute(exec),
                "msm-build" => MsmBuildExecutor.execute(exec),
                other => panic!("unexpected command type {other}"),
            }
            .expect("execution succeeds");
            let mut data = data;
            corrupt(&mut data);
            let output = CommandOutput::new(&cmd, WorkerId(0), data, 0.0);
            let actions =
                controller.on_event(self.ctx(), ControllerEvent::CommandFinished(&output));
            self.apply(actions);
        }

        /// Step until the project finishes; its report.
        fn finish(&mut self, controller: &mut MsmController) -> MsmProjectReport {
            while self.result.is_none() {
                self.step(controller);
            }
            MsmProjectReport::from_value(self.result.as_ref().unwrap()).expect("report parses")
        }
    }

    /// Drive a controller to completion inline, returning the final
    /// report and per-command-type execution counts.
    fn run_inline_full(
        mut controller: MsmController,
        telemetry: Option<Telemetry>,
    ) -> (MsmProjectReport, BTreeMap<String, usize>) {
        let mut run = Inline::start(&mut controller, telemetry);
        let report = run.finish(&mut controller);
        (report, run.counts)
    }

    fn run_inline(controller: MsmController) -> MsmProjectReport {
        run_inline_full(controller, None).0
    }

    /// FNV-1a over the JSON text of `values`.
    fn fnv1a<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for v in values {
            for byte in serde_json::to_vec(v).unwrap() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// `value` with every coordinate block spelled as the decimal arrays
    /// frames were written as before blocks: a trajectory's `times` as
    /// `[t, ...]`, a frame as `[[x, y, z], ...]`.
    fn decimal(value: &mut Value) {
        let frame = |v: &Value| {
            let frame = jsonv::frame_from_value(v).expect("a frame block");
            Value::from(
                frame
                    .iter()
                    .map(|p| Value::from(vec![p.x, p.y, p.z]))
                    .collect::<Vec<_>>(),
            )
        };
        match value {
            Value::Object(map) => {
                for (key, v) in map.iter_mut() {
                    match (key.as_str(), &*v) {
                        ("times", Value::String(_)) => {
                            *v = Value::from(jsonv::f64_block_from_value(v).unwrap());
                        }
                        ("start_positions" | "current", Value::String(_)) => *v = frame(v),
                        ("frames" | "centers" | "exemplars", Value::Array(frames)) => {
                            *v = Value::from(frames.iter().map(frame).collect::<Vec<_>>());
                        }
                        _ => decimal(v),
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(decimal),
            _ => {}
        }
    }

    /// Known answer for the streaming path: the `mdrun` payloads of a
    /// 40-segment chunked run with background reclusters, and the
    /// snapshot it finishes in. Recorded before the generation barrier
    /// became a wave policy over this path (when every tag still carried
    /// a constant `generation` and the snapshot two barrier counters,
    /// which are stripped here), and before frames became coordinate
    /// blocks (which are spelled back as decimal arrays here); any
    /// change to streaming's decisions, seeds or durable state moves it.
    /// Re-recorded once when an empty folded population became +0.0 in
    /// every build profile: debug builds spelled it `-0.0` in the ten
    /// reports, optimised ones `0.0`, and this is the optimised value.
    /// Re-recorded once more when the `"kernel": null` key left every
    /// `mdrun` payload: the old run's payloads with that key stripped
    /// hash to this value.
    #[test]
    fn streaming_run_matches_recorded_hash() {
        let cfg = MsmProjectConfig {
            generations: 10,
            n_clusters: 5,
            chunks_per_segment: 2,
            ..streaming_config()
        };
        let mut controller = MsmController::new(cfg);
        let mut run = Inline::start(&mut controller, None);
        run.finish(&mut controller);
        assert_eq!(run.counts["mdrun"], 80);
        assert!(run.counts["msm-build"] >= 1);
        let mut values: Vec<Value> = run
            .spawned
            .iter()
            .filter(|s| s.command_type == MdRunExecutor::COMMAND_TYPE)
            .map(|s| {
                let mut payload = s.payload.clone();
                let tag = payload.as_object_mut().unwrap().get_mut("tag").unwrap();
                tag.as_object_mut().unwrap().remove("generation");
                payload
            })
            .collect();
        let mut snapshot = controller.snapshot().unwrap();
        let fields = snapshot.as_object_mut().unwrap();
        fields.remove("current_generation");
        fields.remove("outstanding");
        values.push(snapshot);
        values.iter_mut().for_each(decimal);
        assert_eq!(fnv1a(&values), 0x636b_f1b1_20cd_c8d1);
    }

    /// A worker's result that cannot be stitched into its lineage — it
    /// does not decode, or its bead count is not the model's — is a lost
    /// chunk: logged, the segment ends on the frames that did arrive, and
    /// the stream runs on to its report. Nothing panics.
    #[test]
    fn unusable_mdrun_results_lose_the_chunk_and_the_stream_finishes() {
        fn retraj(data: &mut Value, edit: impl FnOnce(&mut Vec<f64>, &mut Vec<Vec<Vec3>>)) {
            let traj = Trajectory::from_value(&data["trajectory"]).unwrap();
            let (mut times, mut frames) = (traj.times().to_vec(), traj.frames().to_vec());
            edit(&mut times, &mut frames);
            data["trajectory"]["times"] = jsonv::f64_block_to_value(&times);
            data["trajectory"]["frames"] = List::<Block>::put(&frames);
        }
        fn loses_the_chunk(what: &str, corrupt: impl FnOnce(&mut Value)) {
            let cfg = MsmProjectConfig {
                chunks_per_segment: 2,
                ..streaming_config()
            };
            let mut controller = MsmController::new(cfg);
            let mut run = Inline::start(&mut controller, None);
            let pending = run.pending.len();
            run.step_with(&mut controller, corrupt);
            assert_eq!(controller.segments_done, 1, "{what}: the segment ended");
            assert_eq!(run.pending.len(), pending, "{what}: the slot was redecided");
            let report = run.finish(&mut controller);
            assert!(!report.generations.is_empty(), "{what}");
        }
        loses_the_chunk("frames of two bead counts", |d| {
            retraj(d, |_, f| {
                f[1].pop();
            })
        });
        loses_the_chunk("times that run backwards", |d| {
            retraj(d, |t, _| t.reverse())
        });
        loses_the_chunk("one bead short throughout", |d| {
            retraj(d, |_, f| {
                for frame in f {
                    frame.pop();
                }
            });
            let mut last = jsonv::frame_from_value(&d["final_positions"]).unwrap();
            last.pop();
            d["final_positions"] = jsonv::frame_to_value(&last);
        });
        loses_the_chunk("no frames at all", |d| {
            retraj(d, |t, f| {
                t.clear();
                f.clear();
            })
        });
        loses_the_chunk("decimal frames", decimal);
    }

    /// An `msm-build` result whose centers are not frames of the model
    /// is treated like a dropped recluster: the ticket is cleared and
    /// the stream finishes.
    #[test]
    fn a_misshapen_recluster_is_a_dropped_one() {
        let cfg = MsmProjectConfig {
            generations: 10,
            n_clusters: 5,
            chunks_per_segment: 2,
            ..streaming_config()
        };
        let mut controller = MsmController::new(cfg);
        let mut run = Inline::start(&mut controller, None);
        while run.pending.last().map(|c| c.command_type.as_str()) != Some("msm-build") {
            run.step(&mut controller);
        }
        run.step_with(&mut controller, |d| {
            let mut centers: Vec<Vec<Vec3>> = List::<Block>::get(&d["centers"]).unwrap();
            centers[0].pop();
            d["centers"] = List::<Block>::put(&centers);
        });
        assert!(controller.rebuild.is_none());
        assert_eq!(controller.n_rebuilds, 0);
        run.finish(&mut controller);
    }

    /// A barrier run that dispatches background reclusters.
    fn rebuilding_barrier_config() -> MsmProjectConfig {
        MsmProjectConfig {
            generations: 6,
            n_clusters: 5,
            ..tiny_config()
        }
    }

    /// The barrier decides a wave only once all of it has arrived and
    /// the recluster in flight has landed, so executing the commands
    /// newest-first (each recluster lands before the wave's segments)
    /// or oldest-first (after them) yields the same report.
    #[test]
    fn barrier_report_is_independent_of_arrival_order() {
        let run = |oldest_first: bool| {
            let mut controller = MsmController::new(rebuilding_barrier_config());
            let mut run = Inline::start(&mut controller, None);
            run.oldest_first = oldest_first;
            let report = run.finish(&mut controller);
            assert!(report.n_rebuilds >= 1, "the config reclusters");
            report.to_value()
        };
        assert_eq!(run(false), run(true));
    }

    /// A wave half parked is durable: snapshot it, restore it into a
    /// fresh controller, and both finish the same remaining commands
    /// with the same report.
    #[test]
    fn half_a_barrier_wave_survives_snapshot_and_restore() {
        let mut controller = MsmController::new(rebuilding_barrier_config());
        let mut run = Inline::start(&mut controller, None);
        let parked = |c: &MsmController| c.lineages.iter().filter(|l| l.parked).count();
        // Past the bootstrap wave, into the second.
        while controller.reports.is_empty() || parked(&controller) < 2 {
            run.step(&mut controller);
        }
        let snap = controller.snapshot().unwrap();
        let mut restored = MsmController::new(MsmProjectConfig::default());
        assert!(restored.restore(snap.clone()));
        assert_eq!(restored.snapshot().unwrap(), snap);
        assert_eq!(parked(&restored), 2);
        let mut rerun = run.clone();
        assert_eq!(
            run.finish(&mut controller).to_value(),
            rerun.finish(&mut restored).to_value()
        );
    }

    #[test]
    fn generation_zero_spawns_full_ensemble() {
        let mut c = MsmController::new(tiny_config());
        let actions = c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        let spawned: usize = actions
            .iter()
            .map(|a| match a {
                Action::Spawn(s) => s.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(spawned, 4);
    }

    /// The barrier runs one wave per generation and writes one row as
    /// each wave closes, before its decisions: a wave terminates at most
    /// ⌊respawn_fraction × live⌋ lineages (2 of 4 at 0.5, 2 of 9 at 0.3,
    /// where re-ranking after each respawn would cascade past it), a
    /// row's `n_respawned` counts those of the waves since the previous
    /// row, and the last wave, with the budget spent, terminates none.
    #[test]
    fn adaptive_loop_extends_and_respawns() {
        let nine = MsmProjectConfig {
            n_starts: 3,
            sims_per_start: 3,
            respawn_fraction: 0.3,
            ..tiny_config()
        };
        for cfg in [tiny_config(), nine] {
            let n_live = cfg.n_trajectories_per_generation();
            let cutoff = (cfg.respawn_fraction * n_live as f64).floor() as usize;
            let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
            let controller = MsmController::new(cfg).with_archive(archive.clone());
            let report = run_inline(controller);
            assert_eq!(report.generations.len(), 3);
            assert_eq!(report.generations[0].n_respawned, 0);
            // Respawns keep the live count and add each terminated
            // lineage to the pool.
            let mut n_trajectories = n_live;
            for g in &report.generations {
                let row = g.generation;
                assert!(g.n_respawned <= cutoff, "{n_live} live, row {row}");
                n_trajectories += g.n_respawned;
                assert_eq!(g.n_trajectories_total, n_trajectories);
            }
            assert!(n_trajectories > n_live, "{n_live} live: nobody respawned");
            assert!(report.min_rmsd_to_native.is_finite());
            assert!(report.kinetics.is_some());
            // Archive holds the terminated lineages plus the final live.
            let archive = archive.lock().unwrap();
            assert_eq!(archive.len(), n_trajectories);
            // Surviving lineages grow: live trajectories span 3 segments.
            let longest = archive.iter().map(|t| t.len()).max().unwrap();
            let frames_per_seg = (5.0 * 0.8 / 0.01 / 40.0) as usize; // 10
            assert!(
                longest >= 2 * frames_per_seg,
                "no lineage survived extension: longest {longest}"
            );
            // Min RMSD is monotone non-increasing across generations.
            assert!(
                report.generations[2].min_rmsd_to_native
                    <= report.generations[0].min_rmsd_to_native + 1e-12
            );
        }
    }

    #[test]
    fn even_and_adaptive_weighting_both_work() {
        for weighting in [Weighting::Even, Weighting::Adaptive] {
            let cfg = MsmProjectConfig {
                weighting,
                generations: 2,
                ..tiny_config()
            };
            let report = run_inline(MsmController::new(cfg));
            assert_eq!(report.generations.len(), 2);
        }
    }

    #[test]
    fn zero_respawn_fraction_is_pure_extension() {
        let cfg = MsmProjectConfig {
            respawn_fraction: 0.0,
            ..tiny_config()
        };
        let report = run_inline(MsmController::new(cfg));
        // No terminations: the trajectory count stays at the ensemble
        // size throughout.
        for g in &report.generations {
            assert_eq!(g.n_trajectories_total, 4);
            assert_eq!(g.n_respawned, 0);
        }
    }

    #[test]
    fn config_totals() {
        let cfg = MsmProjectConfig::default();
        assert_eq!(cfg.n_trajectories_per_generation(), 45);
        assert_eq!(cfg.mode, AdaptiveMode::Streaming);
        let paper = MsmProjectConfig {
            n_starts: 9,
            sims_per_start: 25,
            ..cfg
        };
        assert_eq!(paper.n_trajectories_per_generation(), 225);
    }

    #[test]
    fn config_value_roundtrip_and_defaults() {
        let cfg = MsmProjectConfig {
            stop_folded_pop_stderr: Some(0.25),
            mode: AdaptiveMode::Generational,
            chunks_per_segment: 3,
            ..tiny_config()
        };
        let back = MsmProjectConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back.n_starts, cfg.n_starts);
        assert_eq!(back.mode, AdaptiveMode::Generational);
        assert_eq!(back.chunks_per_segment, 3);
        assert_eq!(back.stop_folded_pop_stderr, Some(0.25));
        // Partial documents keep defaults for everything else.
        let partial = MsmProjectConfig::from_value(&json!({ "generations": 2 })).unwrap();
        assert_eq!(partial.generations, 2);
        assert_eq!(partial.n_starts, 9);
        assert_eq!(partial.mode, AdaptiveMode::Streaming);
        assert!(MsmProjectConfig::from_value(&json!({ "mode": "bogus" })).is_err());
    }

    #[test]
    fn convergence_criterion_stops_early() {
        // Rig the folded definition so every state counts as folded: the
        // folded population is then 1.0 with ~zero bootstrap error, and
        // the §2 stop criterion must end the project at the first
        // clustering step instead of running all 5 generations.
        let cfg = MsmProjectConfig {
            generations: 5,
            folded_rmsd: 1e6,
            stop_folded_pop_stderr: Some(0.75),
            ..tiny_config()
        };
        let report = run_inline(MsmController::new(cfg));
        assert_eq!(
            report.generations.len(),
            1,
            "project should stop at the first converged generation"
        );
        let g = &report.generations[0];
        assert!(g.folded_pop_stderr.expect("stderr computed") < 0.75);
        assert!((g.folded_equilibrium_population - 1.0).abs() < 1e-6);
    }

    /// The one inline clustering is the bootstrap (reclusters run on the
    /// fleet): one histogram sample and one bootstrap log line. Every
    /// report row logs one "stream row" line with its state count.
    #[test]
    fn telemetry_records_each_clustering_step() {
        use copernicus_telemetry::{names, Labels};
        let t = Telemetry::new();
        let mut controller = MsmController::new(tiny_config());
        let mut run = Inline::start(&mut controller, Some(t.clone()));
        let report = run.finish(&mut controller);
        let hist = t
            .registry()
            .find_histogram(names::CLUSTERING_SECS, &Labels::new())
            .expect("clustering histogram exists");
        assert_eq!(hist.count(), 1);
        let bootstraps = run
            .logs
            .iter()
            .filter(|l| l.starts_with("stream bootstrap:"));
        assert_eq!(bootstraps.count(), 1);
        let rows: Vec<&str> = run
            .logs
            .iter()
            .filter(|l| l.starts_with("stream row "))
            .map(String::as_str)
            .collect();
        assert_eq!(rows.len(), report.generations.len());
        for (row, g) in rows.iter().zip(&report.generations) {
            let head = format!("stream row {}: {} states ", g.generation, g.n_states);
            assert!(row.starts_with(&head), "{row:?} is not {head:?}");
        }
    }

    #[test]
    #[should_panic(expected = "respawn_fraction")]
    fn rejects_bad_respawn_fraction() {
        let cfg = MsmProjectConfig {
            respawn_fraction: 1.5,
            ..tiny_config()
        };
        let _ = MsmController::new(cfg);
    }

    // --- streaming mode ---------------------------------------------------

    #[test]
    fn streaming_loop_runs_to_completion() {
        let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
        let controller = MsmController::new(streaming_config()).with_archive(archive.clone());
        let (report, counts) = run_inline_full(controller, None);
        // One report row per generation-equivalent of segments.
        assert_eq!(report.generations.len(), 3);
        // Budget: generations × n_live segments, one command each.
        assert_eq!(counts["mdrun"], 12);
        assert!(report.min_rmsd_to_native.is_finite());
        assert!(report.kinetics.is_some());
        // Archive holds every terminated lineage plus the 4 live ones.
        let total_respawned: usize = report.generations.iter().map(|g| g.n_respawned).sum();
        assert_eq!(archive.lock().unwrap().len(), 4 + total_respawned);
        // The report's trajectory accounting agrees.
        let last = report.generations.last().unwrap();
        assert_eq!(last.n_trajectories_total, 4 + total_respawned);
    }

    #[test]
    fn streaming_chunked_segments_run_more_smaller_commands() {
        let cfg = MsmProjectConfig {
            chunks_per_segment: 2,
            ..streaming_config()
        };
        let (report, counts) = run_inline_full(MsmController::new(cfg), None);
        // Same 12-segment budget, two mdrun commands per segment.
        assert_eq!(counts["mdrun"], 24);
        assert_eq!(report.generations.len(), 3);
        // Chunking must not change the amount of sampling per segment.
        let frames_per_seg = (5.0 * 0.8 / 0.01 / 40.0) as usize; // 10
        let last = report.generations.last().unwrap();
        assert_eq!(
            last.n_frames_total,
            12 * frames_per_seg + last.n_trajectories_total
        );
    }

    #[test]
    fn streaming_respawns_under_pressure() {
        let cfg = MsmProjectConfig {
            generations: 4,
            ..streaming_config()
        };
        let (report, _) = run_inline_full(MsmController::new(cfg), None);
        let total_respawned: usize = report.generations.iter().map(|g| g.n_respawned).sum();
        assert!(
            total_respawned > 0,
            "respawn_fraction 0.5 over 12 decisions should terminate someone"
        );
        // Every row carries a usable model.
        for g in &report.generations {
            assert!(g.n_states > 0);
            assert!(g.n_active_states > 0);
            assert!(g.predicted_native_rmsd.is_finite());
        }
    }

    #[test]
    fn streaming_zero_respawn_is_pure_extension() {
        let cfg = MsmProjectConfig {
            respawn_fraction: 0.0,
            ..streaming_config()
        };
        let (report, _) = run_inline_full(MsmController::new(cfg), None);
        for g in &report.generations {
            assert_eq!(g.n_respawned, 0);
            assert_eq!(g.n_trajectories_total, 4);
        }
    }

    #[test]
    fn streaming_background_rebuild_triggers_on_drift() {
        // A long run with a tiny founding model: frame-count doubling
        // forces at least one background recluster.
        let cfg = MsmProjectConfig {
            generations: 6,
            n_clusters: 5,
            ..streaming_config()
        };
        let (report, counts) = run_inline_full(MsmController::new(cfg), None);
        assert!(
            counts.get("msm-build").copied().unwrap_or(0) >= 1,
            "drift should have dispatched a background recluster"
        );
        assert!(report.n_rebuilds >= 1);
    }

    /// A streaming controller driven inline through `segments` finished
    /// commands (six reach past the bootstrap and at least one respawn
    /// decision).
    fn driven_inline(cfg: MsmProjectConfig, segments: usize) -> MsmController {
        let mut controller = MsmController::new(cfg);
        let mut run = Inline::start(&mut controller, None);
        for _ in 0..segments {
            run.step(&mut controller);
        }
        controller
    }

    #[test]
    fn streaming_snapshot_roundtrips() {
        // Drive a streaming controller past bootstrap, snapshot, restore
        // into a fresh controller, and require identical state.
        let controller = driven_inline(streaming_config(), 6);
        let snap = controller
            .snapshot()
            .expect("streaming controller snapshots");
        let mut restored = MsmController::new(MsmProjectConfig::default());
        assert!(restored.restore(snap.clone()));
        assert_eq!(restored.snapshot().unwrap(), snap);
        // The restored controller kept the streaming estimator.
        assert!(restored.stream.is_some());
        assert_eq!(
            restored.stream.as_ref().unwrap().n_states(),
            controller.stream.as_ref().unwrap().n_states()
        );
        assert_eq!(restored.segments_done, controller.segments_done);
        // Corrupt snapshots are rejected, leaving recovery to replay.
        let mut fresh = MsmController::new(MsmProjectConfig::default());
        assert!(!fresh.restore(json!({ "bogus": true })));
    }

    /// Satellite of the event-sourced WAL: once nothing throttles the
    /// run, a project soon holds more frames than one wire frame can
    /// carry as JSON. The rebuild then ships a subsample, and the frames
    /// left at home still get their state from the new centers.
    #[test]
    fn rebuild_of_a_40k_frame_project_fits_a_wire_frame_and_assigns_every_frame() {
        use crate::codec;
        use crate::command::{Command, CommandOutput};
        use crate::executor::{CommandExecutor, ExecContext};
        use crate::ids::{CommandId, ProjectId, WorkerId};
        use crate::messages::ToWorker;

        let cfg = MsmProjectConfig {
            generations: 10_000,
            n_clusters: 5,
            ..streaming_config()
        };
        let mut controller = driven_inline(cfg, 6);
        assert!(
            controller.stream.is_some(),
            "six segments bootstrap the stream"
        );
        let spawned_spec = |actions: Vec<Action>| {
            actions
                .into_iter()
                .find_map(|a| match a {
                    Action::Spawn(mut specs) => specs.pop(),
                    _ => None,
                })
                .expect("a rebuild was spawned")
        };

        // Under the budget nothing is left out: small projects behave
        // as they always did.
        let mut actions = Vec::new();
        controller.spawn_rebuild(&mut actions);
        let small = MsmBuildSpec::from_value(&spawned_spec(actions).payload).unwrap();
        let ticket = controller.rebuild.take().unwrap();
        assert_eq!(ticket.stride, 1);
        let lens: Vec<usize> = ticket.frozen.iter().map(|&(_, len)| len).collect();
        assert_eq!(
            small.trajs.iter().map(|t| t.len()).collect::<Vec<_>>(),
            lens
        );

        // Inflate to 40 000 frames: jittered copies of the native fold at
        // full float precision, spread over the live lineages.
        let native = controller.model.native.clone();
        let mut rng = 7u64;
        let mut jitter = || {
            rng = splitmix64(rng);
            ((rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
        };
        let n_slots = controller.lineages.len();
        let have: usize = controller
            .lineages
            .iter()
            .map(|l| l.traj.len())
            .sum::<usize>()
            + controller
                .terminated
                .iter()
                .map(|c| c.traj.len())
                .sum::<usize>();
        for i in have..40_000 {
            let frame: Vec<Vec3> = native
                .iter()
                .map(|p| Vec3::new(p.x + jitter(), p.y + jitter(), p.z + jitter()))
                .collect();
            let lineage = &mut controller.lineages[i % n_slots];
            let t = lineage.traj.len() as f64;
            lineage.traj.push(t, frame);
            lineage.dtraj.push(0);
        }

        let mut actions = Vec::new();
        controller.spawn_rebuild(&mut actions);
        let cmd = Command::from_spec(CommandId(1), ProjectId(0), spawned_spec(actions));
        let wire_frame = codec::encode_to_worker(&ToWorker::Workload(vec![cmd.clone()]));
        // Blocks spell a bead in 32 bytes, the budget charges 78.
        assert!(
            2 * wire_frame.len() < copernicus_wire::MAX_FRAME,
            "msm-build workload is {} bytes on the wire",
            wire_frame.len()
        );
        let ticket = controller.rebuild.as_ref().unwrap();
        assert!(ticket.stride > 1, "40k frames are past the budget");
        let shipped_frames: usize = MsmBuildSpec::from_value(&cmd.payload)
            .unwrap()
            .trajs
            .iter()
            .map(|t| t.len())
            .sum();
        assert!(shipped_frames <= rebuild_frame_budget(native.len()));
        assert!(
            shipped_frames > 40_000 / (ticket.stride + 1),
            "the stride is no coarser than the budget asks"
        );

        let data = MsmBuildExecutor
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap();
        let output = CommandOutput::new(&cmd, WorkerId(0), data, 0.0);
        controller.on_event(
            ControllerCtx::test(),
            ControllerEvent::CommandFinished(&output),
        );
        assert_eq!(controller.n_rebuilds, 1);
        assert!(controller.rebuild.is_none());
        let n_states = controller.stream.as_ref().unwrap().n_states();
        for l in &controller.lineages {
            assert_eq!(l.dtraj.len(), l.traj.len(), "lineage {}", l.uid);
            assert!(l.dtraj.iter().all(|&s| s < n_states));
        }
        for c in &controller.terminated {
            assert_eq!(c.dtraj.len(), c.traj.len(), "closed lineage {}", c.uid);
        }
    }

    /// A landing under a stride carries its pruning floors from frame to
    /// frame, and that changes no answer: every frame the worker was not
    /// sent lands on the center a scan of them all picks, to the bit,
    /// and the radius is the one that scan gives.
    #[test]
    fn carried_floors_land_like_brute_force() {
        use msm::cluster::{k_centers, nearest_center};
        let cfg = MsmProjectConfig {
            generations: 10_000,
            n_clusters: 16,
            ..streaming_config()
        };
        let controller = driven_inline(cfg, 48);
        let stride = 3;
        let (mut frozen, mut shipped_frames, mut ends, mut offset) = (vec![], vec![], vec![], 0);
        for (uid, traj) in controller.trajectories() {
            let frames = traj.frames().iter().enumerate();
            shipped_frames.extend(
                frames
                    .filter(|(i, _)| shipped(offset, *i, stride))
                    .map(|(_, frame)| frame.clone()),
            );
            ends.push(shipped_frames.len());
            frozen.push((uid, traj.len()));
            offset += traj.len();
        }
        assert!(frozen.len() > 2 && offset > 6 * shipped_frames.len() / 5);
        // The worker's side: k-centers over what it was sent.
        let clustering = k_centers(&shipped_frames, 16, 0, |a, b| rmsd(a, b));
        let centers: Vec<Vec<Vec3>> = clustering
            .centers
            .iter()
            .map(|&i| shipped_frames[i].clone())
            .collect();
        let from_worker: Vec<Vec<usize>> = ends
            .iter()
            .scan(0, |start, &end| {
                let dtraj = clustering.assignment[*start..end].to_vec();
                *start = end;
                Some(dtraj)
            })
            .collect();
        let ticket = RebuildTicket {
            epoch: 0,
            frozen,
            stride,
        };
        let (landed, radius) = controller.frozen_dtrajs(
            &ticket,
            from_worker.clone(),
            &centers,
            clustering.max_radius(),
        );

        let mut brute_radius = clustering.max_radius();
        let mut offset = 0;
        for ((uid, traj), worker) in controller.trajectories().zip(&from_worker) {
            let mut worker = worker.iter();
            let brute: Vec<usize> = (0..traj.len())
                .map(|i| {
                    if shipped(offset, i, stride) {
                        return *worker.next().unwrap();
                    }
                    let (c, d) = nearest_center(&traj.frames()[i], &centers, |a, b| rmsd(a, b));
                    brute_radius = brute_radius.max(d);
                    c
                })
                .collect();
            assert_eq!(landed[&uid], brute, "lineage {uid}");
            offset += traj.len();
        }
        assert_eq!(radius.to_bits(), brute_radius.to_bits());
    }

    #[test]
    fn streaming_convergence_halts_and_drains() {
        let cfg = MsmProjectConfig {
            generations: 5,
            folded_rmsd: 1e6,
            stop_folded_pop_stderr: Some(0.75),
            ..streaming_config()
        };
        let (report, counts) = run_inline_full(MsmController::new(cfg), None);
        // Halt after the first report row: far fewer than the 20-segment
        // budget actually runs.
        assert!(
            counts["mdrun"] < 20,
            "convergence should stop the stream early (ran {})",
            counts["mdrun"]
        );
        assert!(!report.generations.is_empty());
        let g = &report.generations[0];
        assert!(g.folded_pop_stderr.expect("stderr computed") < 0.75);
    }

    #[test]
    fn weighted_pick_is_proportional_and_total() {
        let w = [0.0, 2.0, 0.0, 2.0];
        assert_eq!(weighted_pick(&w, 0.0), 1);
        assert_eq!(weighted_pick(&w, 0.49), 1);
        assert_eq!(weighted_pick(&w, 0.51), 3);
        assert_eq!(weighted_pick(&w, 0.999), 3);
        // Degenerate all-zero weights still pick a valid index.
        let z = [0.0, 0.0];
        assert!(weighted_pick(&z, 0.7) < 2);
    }

    #[test]
    fn report_value_roundtrip() {
        let report = MsmProjectReport {
            generations: vec![GenerationReport {
                generation: 0,
                n_trajectories_total: 4,
                n_frames_total: 44,
                n_states: 10,
                n_active_states: 8,
                n_respawned: 2,
                min_rmsd_to_native: 5.25,
                predicted_native_rmsd: 6.5,
                predicted_native_population: 0.25,
                folded_equilibrium_population: 0.125,
                folded_pop_stderr: None,
                folded_observed: false,
            }],
            first_folded_generation: Some(1),
            first_folded_elapsed_secs: Some(2.5),
            min_rmsd_to_native: 3.25,
            final_predicted_native_rmsd: 4.5,
            n_rebuilds: 2,
            kinetics: Some(KineticsReport {
                times_ns: vec![0.0, 1.0],
                folded_fraction: vec![0.0, 0.5],
                t_half_ns: None,
                final_folded_fraction: 0.5,
            }),
        };
        let back = MsmProjectReport::from_value(&report.to_value()).unwrap();
        assert_eq!(back.generations.len(), 1);
        assert_eq!(back.generations[0].n_respawned, 2);
        assert_eq!(back.first_folded_generation, Some(1));
        assert_eq!(back.first_folded_elapsed_secs, Some(2.5));
        assert_eq!(back.n_rebuilds, 2);
        assert_eq!(back.kinetics.unwrap().folded_fraction, vec![0.0, 0.5]);
    }

    fn random_config(g: &mut Gen) -> MsmProjectConfig {
        MsmProjectConfig {
            n_starts: g.usize_in(1..20),
            sims_per_start: g.usize_in(1..20),
            segment_ns: g.f64_in(0.1..100.0),
            record_interval: g.u64(),
            checkpoint_steps: g.u64(),
            temperature: g.f64_in(0.1..2.0),
            n_clusters: g.usize_in(1..500),
            lag_frames: g.usize_in(1..10),
            weighting: [Weighting::Even, Weighting::Adaptive][g.usize_in(0..2)],
            even_until_generation: g.usize_in(0..10),
            respawn_fraction: g.f64_in(0.0..1.0),
            generations: g.usize_in(0..50),
            folded_rmsd: g.f64_in(0.5..5.0),
            kinetics_horizon_ns: g.f64_in(1.0..5000.0),
            stop_folded_pop_stderr: testgen::opt_num(g),
            seed: g.u64(),
            cores_per_sim: g.usize_in(1..8),
            mode: [AdaptiveMode::Generational, AdaptiveMode::Streaming][g.usize_in(0..2)],
            chunks_per_segment: g.usize_in(1..5),
        }
    }

    fn random_row(g: &mut Gen) -> GenerationReport {
        GenerationReport {
            generation: g.usize_in(0..100),
            n_trajectories_total: g.usize_in(0..1000),
            n_frames_total: g.usize_in(0..100_000),
            n_states: g.usize_in(0..500),
            n_active_states: g.usize_in(0..500),
            n_respawned: g.usize_in(0..100),
            min_rmsd_to_native: testgen::num(g),
            predicted_native_rmsd: testgen::num(g),
            predicted_native_population: g.unit(),
            folded_equilibrium_population: g.unit(),
            folded_pop_stderr: testgen::opt_num(g),
            folded_observed: g.bool(),
        }
    }

    fn random_kinetics(g: &mut Gen) -> KineticsReport {
        KineticsReport {
            times_ns: g.vec(0..5, testgen::num),
            folded_fraction: g.vec(0..5, |g| g.unit()),
            t_half_ns: testgen::opt_num(g),
            final_folded_fraction: g.unit(),
        }
    }

    fn random_lineage(g: &mut Gen) -> Lineage {
        Lineage {
            uid: g.u64(),
            traj: testgen::trajectory(g, 2),
            current: testgen::frame(g, 2),
            dtraj: g.vec(0..5, |g| g.usize_in(0..9)),
            chunks_left: g.vec(0..3, |g| g.u64()),
            parked: g.bool(),
            done: g.bool(),
        }
    }

    fn random_closed(g: &mut Gen) -> ClosedLineage {
        ClosedLineage {
            uid: g.u64(),
            traj: testgen::trajectory(g, 2),
            dtraj: g.vec(0..5, |g| g.usize_in(0..9)),
        }
    }

    fn random_ticket(g: &mut Gen) -> RebuildTicket {
        RebuildTicket {
            epoch: g.u64(),
            frozen: g.vec(0..4, |g| (g.u64(), g.usize_in(0..1000))),
            stride: g.usize_in(1..9),
        }
    }

    fn random_controller(g: &mut Gen) -> MsmController {
        let mut c = MsmController::new(random_config(g));
        c.lineages = g.vec(0..3, random_lineage);
        c.terminated = g.vec(0..2, random_closed);
        c.next_seed = g.u64();
        c.next_uid = g.u64();
        c.decisions = g.u64();
        c.stream = g.bool().then(|| {
            let centers = g.vec(1..3, |g| testgen::frame(g, 2));
            let dtrajs = BTreeMap::from([(g.u64(), vec![0, 0])]);
            let config = StreamingConfig {
                lag_frames: 1,
                ..StreamingConfig::default()
            };
            StreamingMsm::from_parts(config, centers, g.f64_in(0.5..2.0), &dtrajs)
        });
        c.segments_done = g.u64();
        c.segments_started = g.u64();
        c.respawns_since_report = g.usize_in(0..100);
        c.rebuild = g.bool().then(|| random_ticket(g));
        c.n_rebuilds = g.usize_in(0..100);
        c.halt = g.bool();
        c.reports = g.vec(0..3, random_row);
        c.min_rmsd = match g.usize_in(0..3) {
            0 => f64::INFINITY,
            _ => g.f64_in(0.0..20.0),
        };
        c.first_folded_generation = g.bool().then(|| g.usize_in(0..100));
        c.first_folded_elapsed_secs = testgen::opt_num(g);
        c.analyze_kinetics = g.bool();
        c
    }

    #[test]
    fn declared_records_sweep() {
        let null = |keys: &'static [&'static str]| {
            move |key: &str| keys.contains(&key).then_some(Value::Null)
        };
        let defaults = MsmProjectConfig::default().to_value();
        record_sweep(
            "msm_project_config",
            64,
            Record {
                random: &random_config,
                to_value: MsmProjectConfig::to_value,
                from_value: MsmProjectConfig::from_value,
                absent: &|key| Some(defaults[key].clone()),
                opaque: &[],
            },
        );
        record_sweep(
            "msm_generation_report",
            64,
            Record {
                random: &random_row,
                to_value: GenerationReport::to_value,
                from_value: GenerationReport::from_value,
                absent: &null(&["folded_pop_stderr"]),
                opaque: &[],
            },
        );
        record_sweep(
            "msm_kinetics_report",
            64,
            Record {
                random: &random_kinetics,
                to_value: KineticsReport::to_value,
                from_value: KineticsReport::from_value,
                absent: &null(&["t_half_ns"]),
                opaque: &[],
            },
        );
        let optional = null(&[
            "first_folded_generation",
            "first_folded_elapsed_secs",
            "kinetics",
        ]);
        record_sweep(
            "msm_project_report",
            64,
            Record {
                random: &|g| MsmProjectReport {
                    generations: g.vec(0..3, random_row),
                    first_folded_generation: g.bool().then(|| g.usize_in(0..9)),
                    first_folded_elapsed_secs: testgen::opt_num(g),
                    min_rmsd_to_native: testgen::num(g),
                    final_predicted_native_rmsd: testgen::num(g),
                    n_rebuilds: g.usize_in(0..9),
                    kinetics: g.bool().then(|| random_kinetics(g)),
                },
                to_value: MsmProjectReport::to_value,
                from_value: MsmProjectReport::from_value,
                absent: &|key| match key {
                    "n_rebuilds" => Some(json!(0)),
                    key => optional(key),
                },
                opaque: &[],
            },
        );
        record_sweep(
            "msm_lineage",
            64,
            Record {
                random: &random_lineage,
                to_value: Lineage::to_value,
                from_value: Lineage::from_value,
                absent: &|key| (key == "parked").then_some(json!(false)),
                opaque: &[],
            },
        );
        record_sweep(
            "msm_closed_lineage",
            64,
            Record {
                random: &random_closed,
                to_value: ClosedLineage::to_value,
                from_value: ClosedLineage::from_value,
                absent: &|_| None,
                opaque: &[],
            },
        );
        record_sweep(
            "msm_rebuild_ticket",
            64,
            Record {
                random: &random_ticket,
                to_value: RebuildTicket::to_value,
                from_value: RebuildTicket::from_value,
                absent: &|key| (key == "stride").then_some(json!(1)),
                opaque: &[],
            },
        );
        let optional = null(&[
            "stream",
            "rebuild",
            "min_rmsd",
            "first_folded_generation",
            "first_folded_elapsed_secs",
        ]);
        record_sweep(
            "msm_controller_image",
            32,
            Record {
                random: &random_controller,
                to_value: MsmController::to_value,
                from_value: MsmController::from_value,
                absent: &optional,
                opaque: &[],
            },
        );
    }
}
