//! Strong-scaling performance model of a single MD simulation.
//!
//! §4 of the paper derives Figs. 7–9 by benchmarking Gromacs at several
//! core counts and then *simulating the controller's activity*; this
//! module is the benchmark-fit half of that method. Throughput follows
//!
//! `speed(n) = s₁ · n · e(n)`, with `e(n) = 1 / (1 + (n/n_c)^β)`,
//!
//! a saturating parallel efficiency: near-ideal at low core counts,
//! degrading as the per-core atom count drops and communication dominates.
//!
//! Calibration (villin, 9,864 atoms) anchors the ensemble-level numbers
//! the paper reports: t_res(1) = 1.1·10⁵ hours for the first-folded
//! command set, ≈53 % scaling efficiency at 20,000 cores with 96-core
//! simulations, and ≈10 h time-to-solution at that point. See
//! EXPERIMENTS.md for the residual tension between those anchors and the
//! paper's single-simulation "200 ns/day at 100 cores" anecdote.

/// Throughput model for one parallel MD simulation.
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    /// Single-core throughput in ns/day.
    pub single_core_ns_per_day: f64,
    /// Efficiency crossover scale n_c (cores).
    pub n_c: f64,
    /// Efficiency roll-off exponent β.
    pub beta: f64,
}

impl PerfModel {
    pub fn new(single_core_ns_per_day: f64, n_c: f64, beta: f64) -> Self {
        assert!(single_core_ns_per_day > 0.0 && n_c > 0.0 && beta > 0.0);
        PerfModel {
            single_core_ns_per_day,
            n_c,
            beta,
        }
    }

    /// The villin (9,864-atom) calibration used throughout the repo.
    pub fn villin() -> Self {
        PerfModel::new(7.36, 500.0, 1.3)
    }

    /// Parallel efficiency e(n) ∈ (0, 1].
    pub fn efficiency(&self, cores: usize) -> f64 {
        assert!(cores >= 1, "a simulation needs at least one core");
        1.0 / (1.0 + (cores as f64 / self.n_c).powf(self.beta))
    }

    /// Simulation throughput in ns/day on `cores` cores.
    pub fn speed_ns_per_day(&self, cores: usize) -> f64 {
        self.single_core_ns_per_day * cores as f64 * self.efficiency(cores)
    }

    /// Wallclock hours to simulate `ns` nanoseconds on `cores` cores.
    pub fn hours_for(&self, ns: f64, cores: usize) -> f64 {
        assert!(ns >= 0.0);
        ns / self.speed_ns_per_day(cores) * 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_monotonic_decreasing() {
        let m = PerfModel::villin();
        let mut prev = m.efficiency(1);
        for n in [2, 4, 12, 24, 48, 96, 192, 1000] {
            let e = m.efficiency(n);
            assert!(e < prev, "efficiency must fall with core count");
            assert!(e > 0.0 && e <= 1.0);
            prev = e;
        }
    }

    #[test]
    fn single_core_efficiency_is_near_one() {
        let m = PerfModel::villin();
        assert!(m.efficiency(1) > 0.99);
    }

    #[test]
    fn villin_anchor_96_cores() {
        // e(96) ≈ 0.9 so that the 20k-core ensemble efficiency lands at
        // the paper's ≈53 % (0.9 × 225/(2·208) ≈ 0.49–0.53 band).
        let m = PerfModel::villin();
        let e96 = m.efficiency(96);
        assert!((0.85..=0.95).contains(&e96), "e(96) = {e96}");
    }

    #[test]
    fn speed_grows_sublinearly() {
        let m = PerfModel::villin();
        let s48 = m.speed_ns_per_day(48);
        let s96 = m.speed_ns_per_day(96);
        assert!(s96 > s48, "more cores still help at this scale");
        assert!(s96 < 2.0 * s48, "but less than linearly");
    }

    #[test]
    fn hours_for_inverts_speed() {
        let m = PerfModel::villin();
        let speed = m.speed_ns_per_day(24);
        let h = m.hours_for(speed, 24);
        assert!((h - 24.0).abs() < 1e-9, "one day's work takes 24 h");
        assert_eq!(m.hours_for(0.0, 24), 0.0);
    }

    #[test]
    fn tres1_anchor() {
        // The paper: t_res(1) = 1.1e5 hours for the first-folded command
        // set (3 generations × 225 commands × 50 ns = 33,750 ns).
        let m = PerfModel::villin();
        let tres1 = m.hours_for(3.0 * 225.0 * 50.0, 1);
        assert!(
            (tres1 - 1.1e5).abs() / 1.1e5 < 0.02,
            "t_res(1) = {tres1:.0} h, paper gives 1.1e5"
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = PerfModel::villin().efficiency(0);
    }
}
