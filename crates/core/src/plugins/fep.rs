//! The BAR free-energy controller plugin (§5: "Copernicus comes with
//! plugins to run Markov-State-Model-driven sampling and Bennett
//! Acceptance Ratio free energy perturbation calculations").
//!
//! The perturbation is stratified into λ-windows (Fig. 1's `lambda0`,
//! `lambda1`, … commands); each window boundary spawns one forward and
//! one reverse sampling command, and when all samples are in, the
//! stratified BAR estimate is the project result.

use crate::command::CommandSpec;
use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent};
use crate::executor::{FepSampleExecutor, FepSampleOutput, FepSampleSpec};
use crate::resources::Resources;
use fep::{stratified_bar, WindowSamples};
use mdsim::jsonv;
use serde_json::{json, Value};

/// Configuration of a BAR project: perturb a harmonic spring constant
/// `k_a → k_b` at the given temperature through `n_windows` windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FepProjectConfig {
    pub k_a: f64,
    pub k_b: f64,
    pub temperature: f64,
    pub n_windows: usize,
    pub equil_steps: u64,
    pub n_steps: u64,
    pub record_interval: u64,
    pub seed: u64,
}

impl Default for FepProjectConfig {
    fn default() -> Self {
        FepProjectConfig {
            k_a: 1.0,
            k_b: 16.0,
            temperature: 1.0,
            n_windows: 4,
            equil_steps: 1_000,
            n_steps: 60_000,
            record_interval: 50,
            seed: 7,
        }
    }
}

impl FepProjectConfig {
    /// Parse from a JSON config document; missing fields keep defaults.
    pub fn from_value(v: &Value) -> Result<FepProjectConfig, String> {
        let d = FepProjectConfig::default();
        Ok(FepProjectConfig {
            k_a: jsonv::opt_num(v, "k_a").unwrap_or(d.k_a),
            k_b: jsonv::opt_num(v, "k_b").unwrap_or(d.k_b),
            temperature: jsonv::opt_num(v, "temperature").unwrap_or(d.temperature),
            n_windows: jsonv::opt_int(v, "n_windows").map_or(d.n_windows, |n| n as usize),
            equil_steps: jsonv::opt_int(v, "equil_steps").unwrap_or(d.equil_steps),
            n_steps: jsonv::opt_int(v, "n_steps").unwrap_or(d.n_steps),
            record_interval: jsonv::opt_int(v, "record_interval").unwrap_or(d.record_interval),
            seed: jsonv::opt_int(v, "seed").unwrap_or(d.seed),
        })
    }

    /// Geometric λ-schedule of spring constants (even spacing in ln k,
    /// so every window has comparable overlap).
    pub fn k_schedule(&self) -> Vec<f64> {
        fep::lambda_schedule(self.n_windows)
            .into_iter()
            .map(|l| self.k_a * (self.k_b / self.k_a).powf(l))
            .collect()
    }

    /// Exact ΔF for validation. The sampler is a 3-D isotropic harmonic
    /// well, so `ΔF = (3/2β) ln(k_b/k_a)` with β = 1/T.
    pub fn analytic_delta_f(&self) -> f64 {
        1.5 * self.temperature * (self.k_b / self.k_a).ln()
    }
}

/// Final report of the FEP project.
#[derive(Debug, Clone)]
pub struct FepProjectReport {
    pub delta_f: f64,
    pub std_err: f64,
    pub per_window_delta_f: Vec<f64>,
    pub n_windows: usize,
    pub total_samples: usize,
}

impl FepProjectReport {
    pub fn to_value(&self) -> Value {
        json!({
            "delta_f": self.delta_f,
            "std_err": self.std_err,
            "per_window_delta_f": jsonv::f64s_to_value(&self.per_window_delta_f),
            "n_windows": self.n_windows as u64,
            "total_samples": self.total_samples as u64,
        })
    }

    pub fn from_value(v: &Value) -> Result<FepProjectReport, String> {
        Ok(FepProjectReport {
            delta_f: jsonv::num(v, "delta_f")?,
            std_err: jsonv::num(v, "std_err")?,
            per_window_delta_f: jsonv::f64s_from_value(jsonv::field(v, "per_window_delta_f")?)?,
            n_windows: jsonv::int(v, "n_windows")? as usize,
            total_samples: jsonv::int(v, "total_samples")? as usize,
        })
    }
}

/// The BAR controller.
pub struct FepController {
    config: FepProjectConfig,
    windows: Vec<WindowSamples>,
    outstanding: usize,
}

impl FepController {
    pub fn new(config: FepProjectConfig) -> Self {
        let n = config.n_windows;
        FepController {
            config,
            windows: vec![WindowSamples::default(); n],
            outstanding: 0,
        }
    }

    fn sample_command(
        &self,
        window: usize,
        reverse: bool,
        k_sample: f64,
        k_eval: f64,
    ) -> CommandSpec {
        let seed =
            mdsim::rng::splitmix64(self.config.seed ^ ((window as u64) << 8) ^ (reverse as u64));
        let spec = FepSampleSpec {
            k_sample,
            k_eval,
            temperature: self.config.temperature,
            equil_steps: self.config.equil_steps,
            n_steps: self.config.n_steps,
            record_interval: self.config.record_interval,
            seed,
            tag: json!({ "window": window, "reverse": reverse }),
        };
        CommandSpec::new(
            FepSampleExecutor::COMMAND_TYPE,
            Resources::new(1, 16),
            spec.to_value(),
        )
    }

    /// Close out the project with a BAR estimate over whatever samples
    /// arrived (all of them normally; fewer if commands were dropped).
    fn finish(&self) -> Vec<Action> {
        let beta = 1.0 / self.config.temperature;
        let result = stratified_bar(&self.windows, beta);
        let total_samples = self
            .windows
            .iter()
            .map(|w| w.forward.len() + w.reverse.len())
            .sum();
        let report = FepProjectReport {
            delta_f: result.total_delta_f,
            std_err: result.total_std_err,
            per_window_delta_f: result.per_window.iter().map(|r| r.delta_f).collect(),
            n_windows: self.config.n_windows,
            total_samples,
        };
        vec![Action::FinishProject {
            result: report.to_value(),
        }]
    }
}

impl Controller for FepController {
    fn name(&self) -> &str {
        "fep-bar"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                let ks = self.config.k_schedule();
                let mut specs = Vec::new();
                for w in 0..self.config.n_windows {
                    specs.push(self.sample_command(w, false, ks[w], ks[w + 1]));
                    specs.push(self.sample_command(w, true, ks[w + 1], ks[w]));
                }
                self.outstanding = specs.len();
                vec![
                    Action::Log(format!(
                        "spawning {} sampling commands over {} λ-windows",
                        specs.len(),
                        self.config.n_windows
                    )),
                    Action::Spawn(specs),
                ]
            }
            ControllerEvent::CommandFinished(output) => {
                let parsed = match FepSampleOutput::from_value(&output.data) {
                    Ok(p) => p,
                    Err(e) => {
                        return vec![Action::Log(format!("bad fep output: {e}"))];
                    }
                };
                let window = parsed.tag["window"].as_u64().unwrap_or(0) as usize;
                let reverse = parsed.tag["reverse"].as_bool().unwrap_or(false);
                if reverse {
                    self.windows[window].reverse.extend(parsed.works);
                } else {
                    self.windows[window].forward.extend(parsed.works);
                }
                self.outstanding -= 1;
                if self.outstanding > 0 {
                    return vec![];
                }
                self.finish()
            }
            ControllerEvent::WorkerFailed { worker, requeued } => vec![Action::Log(format!(
                "worker {worker} lost; requeued: {requeued:?}"
            ))],
            ControllerEvent::CommandDropped {
                command,
                attempts,
                reason,
                ..
            } => {
                // The sampling command will never deliver: settle for the
                // works gathered so far rather than hanging the project.
                self.outstanding -= 1;
                let mut actions = vec![Action::Log(format!(
                    "{command} dropped after {attempts} attempts ({reason:?}); \
                     continuing with reduced sampling"
                ))];
                if self.outstanding == 0 {
                    actions.extend(self.finish());
                }
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_schedule_is_geometric() {
        let cfg = FepProjectConfig {
            k_a: 1.0,
            k_b: 16.0,
            n_windows: 4,
            ..FepProjectConfig::default()
        };
        let ks = cfg.k_schedule();
        assert_eq!(ks.len(), 5);
        assert!((ks[0] - 1.0).abs() < 1e-12);
        assert!((ks[4] - 16.0).abs() < 1e-12);
        // Constant ratio.
        for w in ks.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn analytic_reference() {
        let cfg = FepProjectConfig {
            k_a: 1.0,
            k_b: std::f64::consts::E.powi(2),
            temperature: 1.0,
            ..FepProjectConfig::default()
        };
        // 3-D isotropic well: 3 × (1/2) ln(e²) = 3.
        assert!((cfg.analytic_delta_f() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn config_from_value_fills_defaults() {
        let cfg = FepProjectConfig::from_value(&json!({"n_windows": 6, "seed": 42})).unwrap();
        assert_eq!(cfg.n_windows, 6);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.k_b, FepProjectConfig::default().k_b);
    }

    #[test]
    fn report_value_roundtrips() {
        let r = FepProjectReport {
            delta_f: 4.5,
            std_err: 0.1,
            per_window_delta_f: vec![1.0, 1.5, 2.0],
            n_windows: 3,
            total_samples: 1200,
        };
        let back = FepProjectReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back.delta_f, r.delta_f);
        assert_eq!(back.per_window_delta_f, r.per_window_delta_f);
        assert_eq!(back.total_samples, 1200);
    }

    #[test]
    fn project_start_spawns_two_commands_per_window() {
        let mut c = FepController::new(FepProjectConfig::default());
        let actions = c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        let spawned: usize = actions
            .iter()
            .map(|a| match a {
                Action::Spawn(s) => s.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(spawned, 8); // 4 windows × 2 directions
    }
}
