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
use copernicus_telemetry::{names, Event, Labels};
use mdsim::jsonv;
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

/// Configuration of a replica-exchange project.
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
    /// Parse from a JSON config document; missing fields keep defaults.
    pub fn from_value(v: &Value) -> Result<RepexProjectConfig, String> {
        let d = RepexProjectConfig::default();
        let cfg = RepexProjectConfig {
            n_replicas: jsonv::opt_int(v, "n_replicas").map_or(d.n_replicas, |n| n as usize),
            t_min: jsonv::opt_num(v, "t_min").unwrap_or(d.t_min),
            t_max: jsonv::opt_num(v, "t_max").unwrap_or(d.t_max),
            n_legs: jsonv::opt_int(v, "n_legs").unwrap_or(d.n_legs),
            steps_per_leg: jsonv::opt_int(v, "steps_per_leg").unwrap_or(d.steps_per_leg),
            checkpoint_steps: jsonv::opt_int(v, "checkpoint_steps").unwrap_or(d.checkpoint_steps),
            mode: match v.get("mode").and_then(Value::as_str) {
                Some(s) => ExchangeMode::parse(s)?,
                None => d.mode,
            },
            seed: jsonv::opt_int(v, "seed").unwrap_or(d.seed),
        };
        if cfg.n_replicas == 0 {
            return Err("n_replicas must be >= 1".into());
        }
        if !(cfg.t_min > 0.0 && cfg.t_max >= cfg.t_min) {
            return Err("need 0 < t_min <= t_max".into());
        }
        if cfg.steps_per_leg == 0 {
            return Err("steps_per_leg must be >= 1".into());
        }
        Ok(cfg)
    }

    pub fn to_value(&self) -> Value {
        json!({
            "n_replicas": self.n_replicas as u64,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "n_legs": self.n_legs,
            "steps_per_leg": self.steps_per_leg,
            "checkpoint_steps": self.checkpoint_steps,
            "mode": self.mode.as_str(),
            "seed": self.seed,
        })
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

impl ExchangeRecord {
    pub fn to_value(&self) -> Value {
        json!({
            "leg": self.leg,
            "slot_lo": self.slot_lo as u64,
            "slot_hi": self.slot_hi as u64,
            "walker_lo": self.walker_lo,
            "walker_hi": self.walker_hi,
            "e_lo": self.e_lo,
            "e_hi": self.e_hi,
            "prob": self.prob,
            "draw": self.draw,
            "accepted": self.accepted,
        })
    }

    pub fn from_value(v: &Value) -> Result<ExchangeRecord, String> {
        Ok(ExchangeRecord {
            leg: jsonv::int(v, "leg")?,
            slot_lo: jsonv::int(v, "slot_lo")? as usize,
            slot_hi: jsonv::int(v, "slot_hi")? as usize,
            walker_lo: jsonv::int(v, "walker_lo")?,
            walker_hi: jsonv::int(v, "walker_hi")?,
            e_lo: jsonv::num(v, "e_lo")?,
            e_hi: jsonv::num(v, "e_hi")?,
            prob: jsonv::num(v, "prob")?,
            draw: jsonv::num(v, "draw")?,
            accepted: jsonv::boolean(v, "accepted")?,
        })
    }
}

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
    /// Mean analytic `min(1, exp(Δβ·ΔE))` over the same attempts — the
    /// Metropolis expectation the empirical rate must track.
    pub expected_acceptance: f64,
    /// Walkers that completed bottom → top → bottom ladder traversals.
    pub round_trips: u64,
    /// Final walker occupying each slot (dead slots keep their last
    /// occupant).
    pub walkers: Vec<u64>,
    /// Ladder slots dropped after their command exhausted its budget.
    pub dead_slots: Vec<usize>,
    pub history: Vec<ExchangeRecord>,
}

impl RepexProjectReport {
    pub fn to_value(&self) -> Value {
        json!({
            "n_replicas": self.n_replicas as u64,
            "n_alive": self.n_alive as u64,
            "n_legs": self.n_legs,
            "mode": self.mode.clone(),
            "ladder": jsonv::f64s_to_value(&self.ladder),
            "attempts": self.attempts,
            "accepts": self.accepts,
            "acceptance_rate": self.acceptance_rate,
            "expected_acceptance": self.expected_acceptance,
            "round_trips": self.round_trips,
            "walkers": Value::from(self.walkers.clone()),
            "dead_slots": jsonv::usizes_to_value(&self.dead_slots),
            "history": Value::from(
                self.history.iter().map(|r| r.to_value()).collect::<Vec<_>>()
            ),
        })
    }

    pub fn from_value(v: &Value) -> Result<RepexProjectReport, String> {
        Ok(RepexProjectReport {
            n_replicas: jsonv::int(v, "n_replicas")? as usize,
            n_alive: jsonv::int(v, "n_alive")? as usize,
            n_legs: jsonv::int(v, "n_legs")?,
            mode: jsonv::field(v, "mode")?
                .as_str()
                .ok_or("mode is not a string")?
                .to_string(),
            ladder: jsonv::f64s_from_value(jsonv::field(v, "ladder")?)?,
            attempts: jsonv::int(v, "attempts")?,
            accepts: jsonv::int(v, "accepts")?,
            acceptance_rate: jsonv::num(v, "acceptance_rate")?,
            expected_acceptance: jsonv::num(v, "expected_acceptance")?,
            round_trips: jsonv::int(v, "round_trips")?,
            walkers: jsonv::field(v, "walkers")?
                .as_array()
                .ok_or("walkers is not an array")?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| "walker is not a u64".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
            dead_slots: jsonv::usizes_from_value(jsonv::field(v, "dead_slots")?)?,
            history: jsonv::field(v, "history")?
                .as_array()
                .ok_or("history is not an array")?
                .iter()
                .map(ExchangeRecord::from_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// Round-trip tracker states (per walker).
const RT_FRESH: u64 = 0;
const RT_AT_BOTTOM: u64 = 1;
const RT_SEEN_TOP: u64 = 2;

/// One ladder slot: a fixed temperature, occupied by a walker.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    /// Walker (replica identity) currently at this temperature.
    walker: u64,
    /// Configuration at the end of the last finished leg.
    positions: Vec<Vec3>,
    /// Legs fully resolved (finished + exchanged) for this slot.
    leg: u64,
    /// Final potential of leg `leg`, reported but not yet resolved.
    pending: Option<f64>,
    /// A leg command is out on the fleet.
    in_flight: bool,
    /// Still on the ladder (false once the attempt budget is exhausted).
    alive: bool,
    /// Completed all `n_legs`.
    done: bool,
}

fn slot_to_value(s: &Slot) -> Value {
    json!({
        "walker": s.walker,
        "positions": jsonv::frame_to_value(&s.positions),
        "leg": s.leg,
        "pending": s.pending,
        "in_flight": s.in_flight,
        "alive": s.alive,
        "done": s.done,
    })
}

fn slot_from_value(v: &Value) -> Result<Slot, String> {
    Ok(Slot {
        walker: jsonv::int(v, "walker")?,
        positions: jsonv::frame_from_value(jsonv::field(v, "positions")?)?,
        leg: jsonv::int(v, "leg")?,
        pending: jsonv::opt_num(v, "pending"),
        in_flight: jsonv::boolean(v, "in_flight")?,
        alive: jsonv::boolean(v, "alive")?,
        done: jsonv::boolean(v, "done")?,
    })
}

/// The replica-exchange controller.
pub struct RepexController {
    config: RepexProjectConfig,
    model: Arc<VillinModel>,
    ladder: Vec<f64>,
    slots: Vec<Slot>,
    history: Vec<ExchangeRecord>,
    round_trips: u64,
    /// Per-walker round-trip state machine (`RT_*`).
    walker_rt: Vec<u64>,
    finished: bool,
}

impl RepexController {
    pub fn new(config: RepexProjectConfig) -> Self {
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
            kernel: None,
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
        let pair_start = if pos >= offset { (pos - offset) / 2 * 2 + offset } else { return None };
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
            t.journal().record(Event::ReplicaExchange {
                leg,
                slot_lo: lo as u64,
                slot_hi: hi as u64,
                prob,
                accepted,
            });
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
                let parsed = match MdRunOutput::from_value(&output.data) {
                    Ok(p) => p,
                    Err(e) => return vec![Action::Log(format!("bad repex leg output: {e}"))],
                };
                let slot = parsed.tag["slot"].as_u64().unwrap_or(u64::MAX) as usize;
                let leg = parsed.tag["leg"].as_u64().unwrap_or(u64::MAX);
                if slot >= self.slots.len() || !self.slots[slot].alive || self.slots[slot].leg != leg
                {
                    return vec![Action::Log(format!(
                        "stale repex leg result (slot {slot}, leg {leg}) ignored"
                    ))];
                }
                let Some(energy) = parsed.final_potential else {
                    return vec![Action::Log(format!(
                        "repex leg for slot {slot} reported no energy; dropping replica"
                    ))];
                };
                let s = &mut self.slots[slot];
                s.positions = parsed.final_positions;
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
                if slot < self.slots.len() && self.slots[slot].alive {
                    let leg = self.slots[slot].leg;
                    self.slots[slot].alive = false;
                    self.slots[slot].in_flight = false;
                    self.slots[slot].pending = None;
                    if let Some(t) = ctx.telemetry {
                        t.registry()
                            .counter(names::REPEX_REPLICAS_DROPPED, Labels::new())
                            .inc();
                        t.journal().record(Event::ReplicaDropped {
                            slot: slot as u64,
                            leg,
                        });
                    }
                    // Pairing shifts over the survivors: anything held
                    // at a sync point by the dead slot resolves now.
                    let mut specs = Vec::new();
                    self.resolve(&ctx, &mut specs);
                    if !specs.is_empty() {
                        actions.push(Action::Spawn(specs));
                    }
                }
                self.maybe_finish(&mut actions);
                actions
            }
        }
    }

    /// Decision state for the write-ahead log. Bounded: current
    /// configurations (not trajectories) plus the exchange history, so
    /// snapshot size is O(N·beads + attempts) — see the snapshot-size
    /// regression test in `tests/repex.rs`.
    fn snapshot(&self) -> Option<Value> {
        Some(json!({
            "config": self.config.to_value(),
            "slots": Value::from(self.slots.iter().map(slot_to_value).collect::<Vec<_>>()),
            "history": Value::from(
                self.history.iter().map(|r| r.to_value()).collect::<Vec<_>>()
            ),
            "round_trips": self.round_trips,
            "walker_rt": Value::from(self.walker_rt.clone()),
            "finished": self.finished,
        }))
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        fn parse(c: &mut RepexController, v: &Value) -> Result<(), String> {
            c.config = RepexProjectConfig::from_value(jsonv::field(v, "config")?)?;
            c.ladder = c.config.ladder();
            c.slots = jsonv::field(v, "slots")?
                .as_array()
                .ok_or("slots is not an array")?
                .iter()
                .map(slot_from_value)
                .collect::<Result<Vec<_>, _>>()?;
            c.history = jsonv::field(v, "history")?
                .as_array()
                .ok_or("history is not an array")?
                .iter()
                .map(ExchangeRecord::from_value)
                .collect::<Result<Vec<_>, _>>()?;
            c.round_trips = jsonv::int(v, "round_trips")?;
            c.walker_rt = jsonv::field(v, "walker_rt")?
                .as_array()
                .ok_or("walker_rt is not an array")?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| "walker_rt entry".to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            c.finished = jsonv::boolean(v, "finished")?;
            Ok(())
        }
        parse(self, &snapshot).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandOutput};
    use crate::ids::{CommandId, ProjectId, WorkerId};

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
        let cmd = Command::from_spec(
            CommandId(slot as u64 + 1),
            ProjectId(0),
            crate::command::CommandSpec::new(
                MdRunExecutor::COMMAND_TYPE,
                Resources::new(1, 64),
                json!({}),
            ),
        );
        CommandOutput::new(&cmd, WorkerId(1), out.to_value(), 0.1)
    }

    /// Drive the controller with synthetic energies, no MD, no server.
    fn feed(c: &mut RepexController, slot: usize, energy: f64) -> Vec<Action> {
        let out = leg_output(c, slot, energy);
        c.on_event(ControllerCtx::test(), ControllerEvent::CommandFinished(&out))
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
}
