//! Parameter sweeps over total cores and cores-per-simulation — the data
//! series behind Figs. 7 (scaling efficiency), 8 (time-to-solution) and 9
//! (ensemble bandwidth).

use crate::controller::{
    reference_tres1_hours, simulate_controller, MachineSpec, ProjectSpec, RunOutcome,
};
use crate::perfmodel::PerfModel;
use serde_json::{json, Value};

/// One point of the scaling study.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub total_cores: usize,
    pub cores_per_sim: usize,
    pub wallclock_hours: f64,
    pub efficiency: f64,
    pub ensemble_bandwidth_mb_per_s: f64,
    pub utilization: f64,
}

impl ScalingPoint {
    /// One row of the `fig7`/`fig8`/`fig9` result files.
    pub fn to_value(&self) -> Value {
        json!({
            "total_cores": self.total_cores,
            "cores_per_sim": self.cores_per_sim,
            "wallclock_hours": self.wallclock_hours,
            "efficiency": self.efficiency,
            "ensemble_bandwidth_mb_per_s": self.ensemble_bandwidth_mb_per_s,
            "utilization": self.utilization,
        })
    }
}

/// Sweep a grid of total core counts for each cores-per-simulation value.
/// Grid points smaller than one worker are skipped.
pub fn scaling_sweep(
    project: &ProjectSpec,
    perf: &PerfModel,
    core_grid: &[usize],
    cores_per_sim: &[usize],
) -> Vec<ScalingPoint> {
    let tres1 = reference_tres1_hours(project, perf);
    let mut points = Vec::new();
    for &k in cores_per_sim {
        for &n in core_grid {
            if n < k {
                continue;
            }
            let machine = MachineSpec::new(n, k);
            let outcome = simulate_controller(project, &machine, perf);
            points.push(to_point(n, k, &outcome, tres1));
        }
    }
    points
}

/// A log-spaced grid of core counts from `lo` to `hi` with `per_decade`
/// points per factor of ten (deduplicated, ascending).
pub fn log_core_grid(lo: usize, hi: usize, per_decade: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && per_decade >= 1);
    let mut grid = Vec::new();
    let lo_log = (lo as f64).log10();
    let hi_log = (hi as f64).log10();
    let n_steps = ((hi_log - lo_log) * per_decade as f64).ceil() as usize;
    for s in 0..=n_steps {
        let x = lo_log + (hi_log - lo_log) * s as f64 / n_steps.max(1) as f64;
        let v = 10f64.powf(x).round() as usize;
        if grid.last() != Some(&v) {
            grid.push(v.max(1));
        }
    }
    grid
}

fn to_point(n: usize, k: usize, outcome: &RunOutcome, tres1: f64) -> ScalingPoint {
    ScalingPoint {
        total_cores: n,
        cores_per_sim: k,
        wallclock_hours: outcome.wallclock_hours,
        efficiency: outcome.efficiency(tres1, n),
        ensemble_bandwidth_mb_per_s: outcome.ensemble_bandwidth_mb_per_s(),
        utilization: outcome.utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_villin() -> Vec<ScalingPoint> {
        scaling_sweep(
            &ProjectSpec::villin_first_folded(),
            &PerfModel::villin(),
            &[96, 960, 9_600, 96_000],
            &[1, 24, 96],
        )
    }

    #[test]
    fn grid_is_log_spaced_and_sorted() {
        let g = log_core_grid(1, 100_000, 4);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 100_000);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.len() >= 15);
    }

    #[test]
    fn sweep_skips_undersized_machines() {
        let points = scaling_sweep(
            &ProjectSpec::villin_first_folded(),
            &PerfModel::villin(),
            &[10, 96],
            &[96],
        );
        assert_eq!(points.len(), 1, "10 cores cannot host a 96-core sim");
        assert_eq!(points[0].total_cores, 96);
    }

    #[test]
    fn time_to_solution_decreases_then_floors() {
        let points = sweep_villin();
        let k1: Vec<&ScalingPoint> = points.iter().filter(|p| p.cores_per_sim == 1).collect();
        // More cores never slow the project down.
        for w in k1.windows(2) {
            assert!(w[1].wallclock_hours <= w[0].wallclock_hours + 1e-9);
        }
        // Beyond 225 single-core workers the time floors (Fig. 8).
        let floor_a = k1.iter().find(|p| p.total_cores == 9_600).unwrap();
        let floor_b = k1.iter().find(|p| p.total_cores == 96_000).unwrap();
        assert!((floor_a.wallclock_hours - floor_b.wallclock_hours).abs() < 1e-6);
    }

    #[test]
    fn efficiency_drops_when_commands_run_out() {
        let points = sweep_villin();
        let k1: Vec<&ScalingPoint> = points.iter().filter(|p| p.cores_per_sim == 1).collect();
        // At 96 cores (< 225 commands) efficiency is high — 225 commands
        // over 96 workers take ceil(225/96)=3 rounds, so the ceiling is
        // 225/288 ≈ 0.78 — while at 96k cores it collapses ∝ 1/N (Fig. 7's
        // rapid drop).
        assert!(k1[0].efficiency > 0.7, "efficiency {:?}", k1[0]);
        assert!(k1.last().unwrap().efficiency < 0.01);
    }

    #[test]
    fn bigger_sims_extend_the_scaling_range() {
        let points = sweep_villin();
        let at = |k: usize, n: usize| {
            points
                .iter()
                .find(|p| p.cores_per_sim == k && p.total_cores == n)
                .unwrap()
        };
        // At 96k cores, 96-core sims are dramatically faster than
        // single-core sims (which exhausted their parallelism at 225).
        assert!(at(96, 96_000).wallclock_hours < 0.05 * at(1, 96_000).wallclock_hours);
        // Past the 225-command limit of k=1, the bigger-sim line keeps a
        // far higher efficiency (the Fig. 7 crossover).
        assert!(at(96, 9_600).efficiency > 3.0 * at(1, 9_600).efficiency);
    }

    #[test]
    fn bandwidth_grows_with_core_count() {
        let points = sweep_villin();
        let k24: Vec<&ScalingPoint> = points.iter().filter(|p| p.cores_per_sim == 24).collect();
        // Fig. 9: ensemble bandwidth rises with the number of cores.
        assert!(
            k24.last().unwrap().ensemble_bandwidth_mb_per_s > k24[0].ensemble_bandwidth_mb_per_s
        );
        // And stays modest (well under 10 MB/s) even at huge scale.
        assert!(k24.last().unwrap().ensemble_bandwidth_mb_per_s < 10.0);
    }
}
