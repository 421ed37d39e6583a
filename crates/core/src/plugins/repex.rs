//! The replica-exchange (parallel tempering) controller plugin.
//!
//! ROADMAP item 4(a): the paper claims the architecture hosts *any*
//! ensemble workload expressible as commands over the adaptive loop, and
//! replica exchange is the workload that actually stresses the
//! scheduler — N temperature replicas that must rendezvous at exchange
//! points, unlike the embarrassingly-parallel MSM/FEP shapes.
//!
//! N replicas run a geometric temperature ladder. Each replica advances
//! in *legs* of `steps_per_leg` MD steps; at the end of a leg the worker
//! reports the final potential energy, and neighboring ladder slots
//! attempt a Metropolis exchange: accept with probability
//! `min(1, exp((β_lo − β_hi)(E_lo − E_hi)))`, in which case the two
//! slots swap configurations (equivalently, the walkers swap
//! temperatures). Neighbor pairing alternates by leg parity — even legs
//! pair (0,1)(2,3)…, odd legs pair (1,2)(3,4)… — so walkers can diffuse
//! the full ladder.
//!
//! Two sync-point disciplines (DESIGN.md §17):
//!
//! * [`ExchangeMode::Sync`] — a full barrier: every replica finishes leg
//!   k before any leg-k exchange is evaluated, then all pairs exchange
//!   and leg k+1 starts together. Simple, but laggards idle the fleet.
//! * [`ExchangeMode::Async`] (default) — a pair exchanges as soon as
//!   *both* partners have reported leg k; unpaired slots (ladder edges,
//!   or slots whose partner already moved on) advance solo. Mirrors the
//!   streaming-loop philosophy: the fleet never drains on a barrier.
//!
//! Every decision draw is keyed by `(seed, leg, low slot)` — never by an
//! arrival-order counter — so the exchange history is identical under
//! sync and WAL-replayed event orders. Dropped replicas (attempt budget
//! exhausted) permanently leave the ladder; pairing is recomputed over
//! the survivors, so the ladder degrades to N−1 with neighbors re-linked
//! rather than deadlocking a waiting partner.

use crate::command::CommandSpec;
use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent};
use crate::executor::{MdRunExecutor, MdRunOutput, MdRunSpec};
use crate::resources::Resources;
use copernicus_telemetry::{names, Labels};
use mdsim::jsonv::{self, Block, Field, Skip};
use mdsim::model::villin::VillinModel;
use mdsim::rng::splitmix64;
use mdsim::vec3::Vec3;
use serde_json::{json, Value};
use std::sync::Arc;

/// How exchange sync points are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Full barrier: all replicas reach leg k before any leg-k exchange.
    Sync,
    /// A pair exchanges as soon as both partners report; edges and
    /// orphaned slots advance solo.
    Async,
}

impl ExchangeMode {
    pub fn as_str(self) -> &'static str {
        match self {
            ExchangeMode::Sync => "sync",
            ExchangeMode::Async => "async",
        }
    }

    pub fn parse(s: &str) -> Result<ExchangeMode, String> {
        match s {
            "sync" => Ok(ExchangeMode::Sync),
            "async" => Ok(ExchangeMode::Async),
            other => Err(format!("unknown exchange mode {other:?}")),
        }
    }
}

/// Spelled `"sync"` or `"async"` in configs.
impl Field for ExchangeMode {
    fn put(&self) -> Value {
        Value::from(self.as_str())
    }

    fn get(v: &Value) -> Result<ExchangeMode, String> {
        ExchangeMode::parse(v.as_str().ok_or("not a string")?)
    }
}

jsonv::record! {
    /// Configuration of a replica-exchange project. A config document's
    /// absent keys keep their defaults.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RepexProjectConfig {
        /// Ladder size N.
        pub n_replicas: usize,
        /// Coldest ladder temperature (slot 0).
        pub t_min: f64,
        /// Hottest ladder temperature (slot N−1).
        pub t_max: f64,
        /// Exchange legs each replica runs.
        pub n_legs: u64,
        /// MD steps per leg (the sync-point spacing).
        pub steps_per_leg: u64,
        /// Checkpoint interval inside a leg (0 = no mid-leg checkpoints).
        pub checkpoint_steps: u64,
        pub mode: ExchangeMode,
        pub seed: u64,
    }
    default;
    check RepexProjectConfig::validate;
}

impl Default for RepexProjectConfig {
    fn default() -> Self {
        RepexProjectConfig {
            n_replicas: 6,
            t_min: 0.5,
            t_max: 0.8,
            n_legs: 40,
            steps_per_leg: 400,
            checkpoint_steps: 0,
            mode: ExchangeMode::Async,
            seed: 1997,
        }
    }
}

impl RepexProjectConfig {
    /// Reject a configuration the controller cannot run.
    fn validate(&self) -> Result<(), String> {
        if self.n_replicas == 0 {
            return Err("n_replicas must be >= 1".into());
        }
        if !(self.t_min > 0.0 && self.t_max >= self.t_min) {
            return Err("need 0 < t_min <= t_max".into());
        }
        if self.steps_per_leg == 0 {
            return Err("steps_per_leg must be >= 1".into());
        }
        Ok(())
    }

    /// The geometric temperature ladder: constant ratio between
    /// neighbors, so exchange probabilities are comparable along it.
    pub fn ladder(&self) -> Vec<f64> {
        let n = self.n_replicas;
        if n == 1 {
            return vec![self.t_min];
        }
        let ratio = self.t_max / self.t_min;
        (0..n)
            .map(|i| self.t_min * ratio.powf(i as f64 / (n - 1) as f64))
            .collect()
    }
}

jsonv::record! {
    /// One Metropolis exchange attempt, as recorded in the project report
    /// and the exchange-history artifact. Walker ids are the *pre-swap*
    /// occupants of the two slots.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExchangeRecord {
        pub leg: u64,
        pub slot_lo: usize,
        pub slot_hi: usize,
        pub walker_lo: u64,
        pub walker_hi: u64,
        pub e_lo: f64,
        pub e_hi: f64,
        /// `min(1, exp(Δβ·ΔE))` — the analytic acceptance probability.
        pub prob: f64,
        /// The uniform deviate the decision consumed.
        pub draw: f64,
        pub accepted: bool,
    }
}

jsonv::record! {
    /// Final report of a replica-exchange project.
    #[derive(Debug, Clone)]
    pub struct RepexProjectReport {
        pub n_replicas: usize,
        /// Replicas still on the ladder at the end.
        pub n_alive: usize,
        pub n_legs: u64,
        pub mode: String,
        pub ladder: Vec<f64>,
        pub attempts: u64,
        pub accepts: u64,
        /// Empirical acceptance fraction.
        pub acceptance_rate: f64,
        /// Mean analytic `min(1, exp(Δβ·ΔE))` over the same attempts —
        /// the Metropolis expectation the empirical rate must track.
        pub expected_acceptance: f64,
        /// Walkers that completed bottom → top → bottom ladder
        /// traversals.
        pub round_trips: u64,
        /// Final walker occupying each slot (dead slots keep their last
        /// occupant).
        pub walkers: Vec<u64>,
        /// Ladder slots dropped after their command exhausted its budget.
        pub dead_slots: Vec<usize>,
        pub history: Vec<ExchangeRecord>,
    }
}

/// Round-trip tracker states (per walker).
const RT_FRESH: u64 = 0;
const RT_AT_BOTTOM: u64 = 1;
const RT_SEEN_TOP: u64 = 2;

jsonv::record! {
    /// One ladder slot: a fixed temperature, occupied by a walker.
    #[derive(Debug, Clone, PartialEq)]
    struct Slot {
        /// Walker (replica identity) currently at this temperature.
        walker: u64,
        /// Configuration at the end of the last finished leg.
        positions: Vec<Vec3> as Block,
        /// Legs fully resolved (finished + exchanged) for this slot.
        leg: u64,
        /// Final potential of leg `leg`, reported but not yet resolved.
        pending: Option<f64>,
        /// A leg command is out on the fleet.
        in_flight: bool,
        /// Still on the ladder (false once the attempt budget is
        /// exhausted, or once a leg reports no usable energy).
        alive: bool,
        /// Completed all `n_legs`.
        done: bool,
    }
}

jsonv::record! {
    /// The replica-exchange controller. Its image for the write-ahead log
    /// is its decision state, and bounded: current configurations (not
    /// trajectories) plus the exchange history, so snapshot size is
    /// O(N·beads + attempts) — see the snapshot-size regression test in
    /// `tests/repex.rs`.
    pub struct RepexController {
        config: RepexProjectConfig,
        model: Arc<VillinModel> as Skip = Arc::new(VillinModel::hp35()),
        /// Derived from `config` on every read.
        ladder: Vec<f64> as Skip = Vec::new(),
        slots: Vec<Slot>,
        history: Vec<ExchangeRecord>,
        round_trips: u64,
        /// Per-walker round-trip state machine (`RT_*`).
        walker_rt: Vec<u64>,
        finished: bool,
    }
    check RepexController::derive_ladder;
}

impl RepexController {
    pub fn new(config: RepexProjectConfig) -> Self {
        config.validate().expect("invalid repex config");
        let ladder = config.ladder();
        let n = config.n_replicas;
        RepexController {
            config,
            model: Arc::new(VillinModel::hp35()),
            ladder,
            slots: Vec::with_capacity(n),
            history: Vec::new(),
            round_trips: 0,
            walker_rt: vec![RT_FRESH; n],
            finished: false,
        }
    }

    fn derive_ladder(&mut self) -> Result<(), String> {
        self.ladder = self.config.ladder();
        Ok(())
    }

    /// The Gō model behind the leg commands, for harnesses that wire up
    /// an `MdRunExecutor` directly.
    pub fn model(&self) -> Arc<VillinModel> {
        self.model.clone()
    }

    /// Exchange history so far (for tests and the CI artifact).
    pub fn history(&self) -> &[ExchangeRecord] {
        &self.history
    }

    /// Deterministic uniform deviate for the exchange decision at
    /// `(leg, lo)`. Keyed by position in the exchange schedule — never
    /// by arrival order — so async completion order and WAL replay
    /// cannot change the draw.
    fn decision_draw(&self, ctx_seed: u64, leg: u64, lo: usize) -> f64 {
        let x = splitmix64(
            splitmix64(self.config.seed ^ ctx_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ leg.wrapping_mul(0x0000_0100_0000_01B3)
                ^ (lo as u64),
        );
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The command seed for a walker's leg. Keyed by walker (not slot),
    /// so a walker's dynamics stream follows it across exchanges.
    fn leg_seed(&self, walker: u64, leg: u64) -> u64 {
        splitmix64(splitmix64(self.config.seed ^ (walker << 20)) ^ leg)
    }

    fn leg_command(&self, slot: usize) -> CommandSpec {
        let s = &self.slots[slot];
        let spec = MdRunSpec {
            start_positions: s.positions.clone(),
            temperature: self.ladder[slot],
            n_steps: self.config.steps_per_leg,
            record_interval: self.config.steps_per_leg,
            seed: self.leg_seed(s.walker, s.leg),
            checkpoint_steps: self.config.checkpoint_steps,
            inject_crash_at_step: None,
            tag: json!({
                "kind": "repex-leg",
                "slot": slot as u64,
                "walker": s.walker,
                "leg": s.leg,
            }),
        };
        CommandSpec::new(
            MdRunExecutor::COMMAND_TYPE,
            Resources::new(1, 64),
            spec.to_value(),
        )
    }

    /// Alive slot indices in ladder order.
    fn alive_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive)
            .collect()
    }

    /// The exchange partner of `slot` at leg parity `leg % 2`, under
    /// alternating neighbor pairing over the *alive* ladder: even legs
    /// pair alive-neighbors (0,1)(2,3)…, odd legs (1,2)(3,4)….
    fn partner_of(&self, slot: usize, leg: u64) -> Option<usize> {
        let alive = self.alive_slots();
        let pos = alive.iter().position(|&i| i == slot)?;
        let offset = (leg % 2) as usize;
        let pair_start = if pos >= offset {
            (pos - offset) / 2 * 2 + offset
        } else {
            return None;
        };
        if pair_start + 1 >= alive.len() {
            return None;
        }
        if pos == pair_start {
            Some(alive[pair_start + 1])
        } else if pos == pair_start + 1 {
            Some(alive[pair_start])
        } else {
            None
        }
    }

    /// Advance a slot past its resolved leg: bump the counter and either
    /// mark it done or emit its next leg command.
    fn advance(&mut self, slot: usize, specs: &mut Vec<CommandSpec>) {
        let s = &mut self.slots[slot];
        s.pending = None;
        s.leg += 1;
        if s.leg >= self.config.n_legs {
            s.done = true;
        } else {
            s.in_flight = true;
            specs.push(self.leg_command(slot));
        }
    }

    /// Evaluate the Metropolis exchange for alive pair `(lo, hi)`, both
    /// of which have pending energies at `leg`. Accepts swap the walkers
    /// (configuration + identity) between the two temperature slots.
    fn exchange(&mut self, ctx: &ControllerCtx<'_>, lo: usize, hi: usize, leg: u64) {
        let e_lo = self.slots[lo].pending.expect("lo pending");
        let e_hi = self.slots[hi].pending.expect("hi pending");
        let beta_lo = 1.0 / self.ladder[lo];
        let beta_hi = 1.0 / self.ladder[hi];
        let prob = ((beta_lo - beta_hi) * (e_lo - e_hi)).exp().min(1.0);
        let draw = self.decision_draw(ctx.seed, leg, lo);
        let accepted = draw < prob;
        self.history.push(ExchangeRecord {
            leg,
            slot_lo: lo,
            slot_hi: hi,
            walker_lo: self.slots[lo].walker,
            walker_hi: self.slots[hi].walker,
            e_lo,
            e_hi,
            prob,
            draw,
            accepted,
        });
        if let Some(t) = ctx.telemetry {
            t.registry()
                .counter(names::REPEX_EXCHANGE_ATTEMPTS, Labels::new())
                .inc();
            if accepted {
                t.registry()
                    .counter(names::REPEX_EXCHANGE_ACCEPTS, Labels::new())
                    .inc();
            }
        }
        if accepted {
            let (wl, wh) = (self.slots[lo].walker, self.slots[hi].walker);
            self.slots[lo].walker = wh;
            self.slots[hi].walker = wl;
            let pl = std::mem::take(&mut self.slots[lo].positions);
            let ph = std::mem::replace(&mut self.slots[hi].positions, pl);
            self.slots[lo].positions = ph;
        }
    }

    /// Update the per-walker round-trip state machine from the current
    /// occupants of the ladder extremes.
    fn track_round_trips(&mut self, ctx: &ControllerCtx<'_>) {
        let alive = self.alive_slots();
        let (Some(&bottom), Some(&top)) = (alive.first(), alive.last()) else {
            return;
        };
        if bottom == top {
            return;
        }
        let wt = self.slots[top].walker as usize;
        if self.walker_rt[wt] == RT_AT_BOTTOM {
            self.walker_rt[wt] = RT_SEEN_TOP;
        }
        let wb = self.slots[bottom].walker as usize;
        if self.walker_rt[wb] == RT_SEEN_TOP {
            self.round_trips += 1;
            if let Some(t) = ctx.telemetry {
                t.registry()
                    .counter(names::REPEX_ROUND_TRIPS, Labels::new())
                    .inc();
            }
        }
        self.walker_rt[wb] = RT_AT_BOTTOM;
    }

    /// Resolve every sync point that can currently make progress. Runs
    /// until a fixed point: pair exchanges release partners, which may
    /// enable further exchanges in the same pass (sync barriers resolve
    /// a whole leg at once this way).
    fn resolve(&mut self, ctx: &ControllerCtx<'_>, specs: &mut Vec<CommandSpec>) {
        loop {
            let mut progressed = false;
            for i in 0..self.slots.len() {
                let s = &self.slots[i];
                if !s.alive || s.done || s.in_flight || s.pending.is_none() {
                    continue;
                }
                let leg = s.leg;
                if self.config.mode == ExchangeMode::Sync {
                    // Barrier: every alive, unfinished slot must have
                    // *reached* the sync point — reported leg `leg`, or
                    // already resolved past it earlier in this pass.
                    let barrier_ready = self.slots.iter().all(|o| {
                        !o.alive || o.done || o.leg > leg || (o.leg == leg && o.pending.is_some())
                    });
                    if !barrier_ready {
                        continue;
                    }
                }
                match self.partner_of(i, leg) {
                    None => {
                        // Ladder edge at this parity: advance solo.
                        self.advance(i, specs);
                        progressed = true;
                    }
                    Some(p) => {
                        let partner = &self.slots[p];
                        if partner.leg > leg || partner.done {
                            // Partner already resolved past this sync
                            // point (pairing shifted after a drop):
                            // advancing solo is the only way forward.
                            self.advance(i, specs);
                            progressed = true;
                        } else if partner.leg == leg && partner.pending.is_some() {
                            let (lo, hi) = if i < p { (i, p) } else { (p, i) };
                            self.exchange(ctx, lo, hi, leg);
                            self.advance(lo, specs);
                            self.advance(hi, specs);
                            self.track_round_trips(ctx);
                            progressed = true;
                        }
                        // else: partner still working toward this leg —
                        // hold the sync point.
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Take `slot` off the ladder for good: its leg will never report a
    /// usable energy (the command was dropped, or its result has no
    /// energy or does not decode). Pairing shifts over the survivors, so
    /// anything held at a sync point by the dead slot resolves now, and a
    /// ladder left with only finished or dead slots finishes.
    fn retire(&mut self, ctx: &ControllerCtx<'_>, slot: usize, actions: &mut Vec<Action>) {
        if slot < self.slots.len() && self.slots[slot].alive {
            let s = &mut self.slots[slot];
            s.alive = false;
            s.in_flight = false;
            s.pending = None;
            if let Some(t) = ctx.telemetry {
                t.registry()
                    .counter(names::REPEX_REPLICAS_DROPPED, Labels::new())
                    .inc();
            }
            let mut specs = Vec::new();
            self.resolve(ctx, &mut specs);
            if !specs.is_empty() {
                actions.push(Action::Spawn(specs));
            }
        }
        self.maybe_finish(actions);
    }

    fn all_done(&self) -> bool {
        self.slots.iter().all(|s| !s.alive || s.done)
    }

    fn report(&self) -> RepexProjectReport {
        let attempts = self.history.len() as u64;
        let accepts = self.history.iter().filter(|r| r.accepted).count() as u64;
        let expected = if self.history.is_empty() {
            0.0
        } else {
            self.history.iter().map(|r| r.prob).sum::<f64>() / self.history.len() as f64
        };
        RepexProjectReport {
            n_replicas: self.config.n_replicas,
            n_alive: self.slots.iter().filter(|s| s.alive).count(),
            n_legs: self.config.n_legs,
            mode: self.config.mode.as_str().to_string(),
            ladder: self.ladder.clone(),
            attempts,
            accepts,
            acceptance_rate: if attempts == 0 {
                0.0
            } else {
                accepts as f64 / attempts as f64
            },
            expected_acceptance: expected,
            round_trips: self.round_trips,
            walkers: self.slots.iter().map(|s| s.walker).collect(),
            dead_slots: (0..self.slots.len())
                .filter(|&i| !self.slots[i].alive)
                .collect(),
            history: self.history.clone(),
        }
    }

    /// Finish when every surviving replica has run its ladder; also the
    /// degenerate all-replicas-dead case, so the project cannot hang.
    fn maybe_finish(&mut self, actions: &mut Vec<Action>) {
        if self.finished || !self.all_done() {
            return;
        }
        self.finished = true;
        let report = self.report();
        actions.push(Action::Log(format!(
            "repex done: {}/{} replicas, {} attempts, acceptance {:.3} (expected {:.3}), {} round trips",
            report.n_alive,
            report.n_replicas,
            report.attempts,
            report.acceptance_rate,
            report.expected_acceptance,
            report.round_trips,
        )));
        actions.push(Action::FinishProject {
            result: report.to_value(),
        });
    }
}

impl Controller for RepexController {
    fn name(&self) -> &str {
        "repex"
    }

    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                self.slots = (0..self.config.n_replicas)
                    .map(|w| Slot {
                        walker: w as u64,
                        positions: self
                            .model
                            .unfolded_start(splitmix64(self.config.seed ^ (w as u64) << 40)),
                        leg: 0,
                        pending: None,
                        in_flight: true,
                        alive: true,
                        done: false,
                    })
                    .collect();
                self.track_round_trips(&ctx);
                let specs: Vec<CommandSpec> =
                    (0..self.slots.len()).map(|i| self.leg_command(i)).collect();
                vec![
                    Action::Log(format!(
                        "repex: {} replicas over T=[{:.3}, {:.3}], {} legs of {} steps, {} mode",
                        self.config.n_replicas,
                        self.config.t_min,
                        self.config.t_max,
                        self.config.n_legs,
                        self.config.steps_per_leg,
                        self.config.mode.as_str(),
                    )),
                    Action::Spawn(specs),
                ]
            }
            ControllerEvent::CommandFinished(output) => {
                let tag = &output.data["tag"];
                let slot = tag["slot"].as_u64().unwrap_or(u64::MAX) as usize;
                let leg = tag["leg"].as_u64().unwrap_or(u64::MAX);
                if slot >= self.slots.len()
                    || !self.slots[slot].alive
                    || self.slots[slot].leg != leg
                {
                    return vec![Action::Log(format!(
                        "stale repex leg result (slot {slot}, leg {leg}) ignored"
                    ))];
                }
                let (positions, energy) = match MdRunOutput::from_value(&output.data) {
                    Ok(MdRunOutput {
                        final_positions,
                        final_potential: Some(energy),
                        ..
                    }) => (final_positions, energy),
                    unusable => {
                        let why = match unusable {
                            Err(e) => format!("bad repex leg output ({e})"),
                            Ok(_) => "repex leg reported no energy".into(),
                        };
                        let mut actions = vec![Action::Log(format!(
                            "{why} for slot {slot}; dropping replica"
                        ))];
                        self.retire(&ctx, slot, &mut actions);
                        return actions;
                    }
                };
                let s = &mut self.slots[slot];
                s.positions = positions;
                s.pending = Some(energy);
                s.in_flight = false;
                let mut specs = Vec::new();
                self.resolve(&ctx, &mut specs);
                let mut actions = Vec::new();
                if !specs.is_empty() {
                    actions.push(Action::Spawn(specs));
                }
                self.maybe_finish(&mut actions);
                actions
            }
            ControllerEvent::WorkerFailed { worker, requeued } => vec![Action::Log(format!(
                "worker {worker} lost; requeued: {requeued:?}"
            ))],
            ControllerEvent::CommandDropped {
                command,
                attempts,
                reason,
                tag,
            } => {
                let slot = tag["slot"].as_u64().unwrap_or(u64::MAX) as usize;
                let mut actions = vec![Action::Log(format!(
                    "{command} (replica slot {slot}) dropped after {attempts} attempts \
                     ({reason:?}); ladder degrades"
                ))];
                self.retire(&ctx, slot, &mut actions);
                actions
            }
        }
    }

    fn snapshot(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        RepexController::from_value(&snapshot)
            .map(|restored| *self = restored)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandOutput};
    use crate::ids::{CommandId, ProjectId, WorkerId};
    use crate::testgen;
    use copernicus_testkit::{record_sweep, Gen, Record};

    #[test]
    fn ladder_is_geometric() {
        let cfg = RepexProjectConfig {
            n_replicas: 6,
            t_min: 0.5,
            t_max: 0.8,
            ..RepexProjectConfig::default()
        };
        let l = cfg.ladder();
        assert_eq!(l.len(), 6);
        assert!((l[0] - 0.5).abs() < 1e-12);
        assert!((l[5] - 0.8).abs() < 1e-12);
        let r0 = l[1] / l[0];
        for w in l.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-12);
        }
    }

    #[test]
    fn config_from_value_fills_defaults_and_rejects_nonsense() {
        let cfg =
            RepexProjectConfig::from_value(&json!({"n_replicas": 4, "mode": "sync"})).unwrap();
        assert_eq!(cfg.n_replicas, 4);
        assert_eq!(cfg.mode, ExchangeMode::Sync);
        assert_eq!(cfg.n_legs, RepexProjectConfig::default().n_legs);
        assert!(RepexProjectConfig::from_value(&json!({"mode": "diagonal"})).is_err());
        assert!(RepexProjectConfig::from_value(&json!({"n_replicas": 0})).is_err());
        assert!(RepexProjectConfig::from_value(&json!({"t_min": -1.0})).is_err());
    }

    /// A config built in code is checked where it is handed over, on the
    /// caller's thread.
    #[test]
    #[should_panic(expected = "n_replicas")]
    fn new_rejects_zero_replicas() {
        let _ = RepexController::new(RepexProjectConfig {
            n_replicas: 0,
            ..RepexProjectConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "t_min <= t_max")]
    fn new_rejects_an_inverted_ladder() {
        let _ = RepexController::new(RepexProjectConfig {
            t_min: 0.8,
            t_max: 0.5,
            ..RepexProjectConfig::default()
        });
    }

    #[test]
    fn pairing_alternates_and_respects_deaths() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 6,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        // Even legs: (0,1)(2,3)(4,5).
        assert_eq!(c.partner_of(0, 0), Some(1));
        assert_eq!(c.partner_of(3, 0), Some(2));
        assert_eq!(c.partner_of(5, 0), Some(4));
        // Odd legs: 0 and 5 sit out; (1,2)(3,4).
        assert_eq!(c.partner_of(0, 1), None);
        assert_eq!(c.partner_of(1, 1), Some(2));
        assert_eq!(c.partner_of(4, 1), Some(3));
        assert_eq!(c.partner_of(5, 1), None);
        // Kill slot 2: even pairing over [0,1,3,4,5] is (0,1)(3,4).
        c.slots[2].alive = false;
        assert_eq!(c.partner_of(0, 0), Some(1));
        assert_eq!(c.partner_of(3, 0), Some(4));
        assert_eq!(c.partner_of(5, 0), None);
    }

    #[test]
    fn decision_draw_ignores_arrival_order() {
        let c = RepexController::new(RepexProjectConfig::default());
        let a = c.decision_draw(7, 3, 2);
        let b = c.decision_draw(7, 3, 2);
        assert_eq!(a, b);
        assert_ne!(c.decision_draw(7, 3, 2), c.decision_draw(7, 4, 2));
        assert_ne!(c.decision_draw(7, 3, 2), c.decision_draw(7, 3, 0));
    }

    fn leg_output(c: &RepexController, slot: usize, energy: f64) -> CommandOutput {
        let s = &c.slots[slot];
        let out = MdRunOutput {
            trajectory: mdsim::trajectory::Trajectory::new(),
            final_positions: s.positions.clone(),
            steps_executed: c.config.steps_per_leg,
            final_potential: Some(energy),
            tag: json!({
                "kind": "repex-leg",
                "slot": slot as u64,
                "walker": s.walker,
                "leg": s.leg,
            }),
        };
        output_of(slot, out.to_value())
    }

    fn output_of(slot: usize, data: Value) -> CommandOutput {
        let cmd = Command::from_spec(
            CommandId(slot as u64 + 1),
            ProjectId(0),
            crate::command::CommandSpec::new(
                MdRunExecutor::COMMAND_TYPE,
                Resources::new(1, 64),
                json!({}),
            ),
        );
        CommandOutput::new(&cmd, WorkerId(1), data, 0.1)
    }

    /// The slots whose leg commands `actions` spawn.
    fn spawned_slots(actions: &[Action]) -> Vec<usize> {
        let mut slots = Vec::new();
        for action in actions {
            if let Action::Spawn(specs) = action {
                slots.extend(
                    specs
                        .iter()
                        .map(|s| s.payload["tag"]["slot"].as_u64().unwrap() as usize),
                );
            }
        }
        slots
    }

    /// A sync ladder of four whose slot 1 answers its first leg with
    /// `answer`'s result, every other leg with an energy: each command is
    /// answered once, in spawn order, for at most 100 results. The
    /// ladder must finish without slot 1, never wait on it.
    fn ladder_without_slot_1(answer: impl Fn(&RepexController) -> Value) -> RepexController {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 4,
            n_legs: 3,
            mode: ExchangeMode::Sync,
            ..RepexProjectConfig::default()
        });
        let mut queue: std::collections::VecDeque<usize> =
            spawned_slots(&c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted))
                .into();
        let mut answered_slot_1 = false;
        for _ in 0..100 {
            let Some(slot) = queue.pop_front() else { break };
            let out = if slot == 1 && !answered_slot_1 {
                answered_slot_1 = true;
                output_of(1, answer(&c))
            } else {
                leg_output(&c, slot, -10.0 - slot as f64)
            };
            let actions = c.on_event(
                ControllerCtx::test(),
                ControllerEvent::CommandFinished(&out),
            );
            queue.extend(spawned_slots(&actions));
        }
        assert!(
            c.finished,
            "the ladder hangs on the slot that never reported"
        );
        let report = c.report();
        assert_eq!(report.dead_slots, vec![1]);
        assert_eq!(report.n_alive, 3);
        assert!(c.slots.iter().all(|s| !s.in_flight));
        c
    }

    #[test]
    fn a_leg_without_an_energy_retires_its_slot() {
        // A non-finite energy prints as null.
        ladder_without_slot_1(|c| {
            let data = (*leg_output(c, 1, f64::NAN).data).clone();
            assert!(data["final_potential"].is_null());
            data
        });
        // A result that does not decode names its slot in its tag.
        ladder_without_slot_1(|_| json!({"tag": {"kind": "repex-leg", "slot": 1, "leg": 0}}));
    }

    /// Drive the controller with synthetic energies, no MD, no server.
    fn feed(c: &mut RepexController, slot: usize, energy: f64) -> Vec<Action> {
        let out = leg_output(c, slot, energy);
        c.on_event(
            ControllerCtx::test(),
            ControllerEvent::CommandFinished(&out),
        )
    }

    #[test]
    fn sync_mode_barriers_until_all_report() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 4,
            n_legs: 2,
            mode: ExchangeMode::Sync,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        for slot in 0..3 {
            let actions = feed(&mut c, slot, -10.0 - slot as f64);
            assert!(
                actions.is_empty(),
                "no exchange before the barrier: {actions:?}"
            );
            assert!(c.history.is_empty());
        }
        feed(&mut c, 3, -13.0);
        // Barrier released: leg-0 parity pairs (0,1) and (2,3).
        assert_eq!(c.history.len(), 2);
        assert!(c.slots.iter().all(|s| s.leg == 1));
    }

    #[test]
    fn async_mode_pair_exchanges_without_waiting_for_laggards() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 4,
            n_legs: 2,
            mode: ExchangeMode::Async,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        feed(&mut c, 0, -10.0);
        assert!(c.history.is_empty(), "0 waits for its partner 1");
        feed(&mut c, 1, -11.0);
        // (0,1) exchanged and advanced while 2 and 3 never reported.
        assert_eq!(c.history.len(), 1);
        assert_eq!(c.slots[0].leg, 1);
        assert_eq!(c.slots[1].leg, 1);
        assert_eq!(c.slots[2].leg, 0);
        assert_eq!(c.slots[3].leg, 0);
    }

    #[test]
    fn dropped_replica_releases_waiting_partner_and_ladder_degrades() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 4,
            n_legs: 1,
            mode: ExchangeMode::Async,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        feed(&mut c, 0, -10.0);
        assert_eq!(c.slots[0].leg, 0, "waiting on slot 1");
        let actions = c.on_event(
            ControllerCtx::test(),
            ControllerEvent::CommandDropped {
                command: CommandId(99),
                attempts: 3,
                reason: crate::controller::DropReason::WorkerLost,
                tag: json!({"kind": "repex-leg", "slot": 1, "walker": 1, "leg": 0}),
            },
        );
        assert!(!c.slots[1].alive);
        // Slot 0's partner over the survivors at parity 0 is now slot 2,
        // which never reported — but slot 0 must not deadlock: with
        // n_legs=1 it advances when 2 and 3 resolve.
        feed(&mut c, 2, -12.0);
        feed(&mut c, 3, -13.0);
        assert!(c.finished, "project finishes on the degraded ladder");
        let report = c.report();
        assert_eq!(report.n_alive, 3);
        assert_eq!(report.dead_slots, vec![1]);
        drop(actions);
    }

    #[test]
    fn accepted_exchange_swaps_walkers_and_keeps_permutation() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 2,
            n_legs: 1,
            t_min: 0.5,
            t_max: 0.8,
            mode: ExchangeMode::Sync,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        // Cold slot much hotter than hot slot: Δβ·ΔE >> 0, always accept.
        feed(&mut c, 0, 100.0);
        feed(&mut c, 1, -100.0);
        assert_eq!(c.history.len(), 1);
        assert!(c.history[0].accepted);
        assert!((c.history[0].prob - 1.0).abs() < 1e-12);
        let mut walkers: Vec<u64> = c.slots.iter().map(|s| s.walker).collect();
        assert_eq!(walkers, vec![1, 0]);
        walkers.sort_unstable();
        assert_eq!(walkers, vec![0, 1]);
    }

    #[test]
    fn snapshot_roundtrips_mid_ladder() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 4,
            n_legs: 4,
            mode: ExchangeMode::Async,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        feed(&mut c, 0, -10.0);
        feed(&mut c, 1, -11.0);
        feed(&mut c, 2, -9.0);
        let snap = c.snapshot().unwrap();
        let mut fresh = RepexController::new(RepexProjectConfig::default());
        assert!(fresh.restore(snap));
        assert_eq!(fresh.config.n_replicas, 4);
        assert_eq!(fresh.slots, c.slots);
        assert_eq!(fresh.history, c.history);
        assert_eq!(fresh.round_trips, c.round_trips);
        assert_eq!(fresh.walker_rt, c.walker_rt);
    }

    #[test]
    fn report_value_roundtrips() {
        let mut c = RepexController::new(RepexProjectConfig {
            n_replicas: 2,
            n_legs: 1,
            mode: ExchangeMode::Sync,
            ..RepexProjectConfig::default()
        });
        c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        feed(&mut c, 0, 5.0);
        feed(&mut c, 1, -5.0);
        let r = c.report();
        let back = RepexProjectReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back.attempts, r.attempts);
        assert_eq!(back.walkers, r.walkers);
        assert_eq!(back.history, r.history);
        assert_eq!(back.mode, "sync");
    }

    fn random_config(g: &mut Gen) -> RepexProjectConfig {
        let t_min = g.f64_in(0.1..1.0);
        RepexProjectConfig {
            n_replicas: g.usize_in(1..12),
            t_min,
            t_max: t_min + g.f64_in(0.0..1.0),
            n_legs: g.u64(),
            steps_per_leg: g.u64_in(1..10_000),
            checkpoint_steps: g.u64(),
            mode: [ExchangeMode::Sync, ExchangeMode::Async][g.usize_in(0..2)],
            seed: g.u64(),
        }
    }

    fn random_exchange(g: &mut Gen) -> ExchangeRecord {
        ExchangeRecord {
            leg: g.u64(),
            slot_lo: g.usize_in(0..9),
            slot_hi: g.usize_in(0..9),
            walker_lo: g.u64(),
            walker_hi: g.u64(),
            e_lo: testgen::num(g),
            e_hi: testgen::num(g),
            prob: g.unit(),
            draw: g.unit(),
            accepted: g.bool(),
        }
    }

    fn random_slot(g: &mut Gen) -> Slot {
        Slot {
            walker: g.u64(),
            positions: testgen::frame(g, 3),
            leg: g.u64(),
            pending: testgen::opt_num(g),
            in_flight: g.bool(),
            alive: g.bool(),
            done: g.bool(),
        }
    }

    #[test]
    fn declared_records_sweep() {
        let required = |_: &str| None;
        let defaults = RepexProjectConfig::default().to_value();
        record_sweep(
            "repex_project_config",
            64,
            Record {
                random: &random_config,
                to_value: RepexProjectConfig::to_value,
                from_value: RepexProjectConfig::from_value,
                absent: &|key| Some(defaults[key].clone()),
                opaque: &[],
            },
        );
        record_sweep(
            "repex_exchange_record",
            64,
            Record {
                random: &random_exchange,
                to_value: ExchangeRecord::to_value,
                from_value: ExchangeRecord::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "repex_project_report",
            64,
            Record {
                random: &|g| RepexProjectReport {
                    n_replicas: g.usize_in(0..9),
                    n_alive: g.usize_in(0..9),
                    n_legs: g.u64(),
                    mode: ["sync", "async"][g.usize_in(0..2)].into(),
                    ladder: g.vec(0..5, testgen::num),
                    attempts: g.u64(),
                    accepts: g.u64(),
                    acceptance_rate: g.unit(),
                    expected_acceptance: g.unit(),
                    round_trips: g.u64(),
                    walkers: g.vec(0..5, |g| g.u64()),
                    dead_slots: g.vec(0..3, |g| g.usize_in(0..9)),
                    history: g.vec(0..3, random_exchange),
                },
                to_value: RepexProjectReport::to_value,
                from_value: RepexProjectReport::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "repex_slot",
            64,
            Record {
                random: &random_slot,
                to_value: Slot::to_value,
                from_value: Slot::from_value,
                absent: &|key| (key == "pending").then_some(Value::Null),
                opaque: &[],
            },
        );
        record_sweep(
            "repex_controller_image",
            32,
            Record {
                random: &|g| {
                    let mut c = RepexController::new(random_config(g));
                    c.slots = g.vec(0..4, random_slot);
                    c.history = g.vec(0..3, random_exchange);
                    c.round_trips = g.u64();
                    c.walker_rt = g.vec(0..4, |g| g.u64_in(0..3));
                    c.finished = g.bool();
                    c
                },
                to_value: RepexController::to_value,
                from_value: RepexController::from_value,
                absent: &required,
                opaque: &[],
            },
        );
    }
}
