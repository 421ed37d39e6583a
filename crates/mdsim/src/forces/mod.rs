//! Force-field terms and their evaluation.
//!
//! Each interaction class implements [`ForceTerm`]; a [`ForceField`] owns an
//! ordered list of terms and evaluates them into the state's force buffer,
//! returning a per-term energy breakdown. Terms take `&mut self` so they can
//! own mutable work state (the non-bonded term owns its neighbour list).

pub mod bonded;
pub mod external;
pub mod go_model;
pub mod nonbonded;

pub use bonded::BondedForce;
pub use external::HarmonicRestraint;
pub use go_model::{GoContact, GoModelForce};
pub use nonbonded::NonbondedForce;

use crate::pbc::SimBox;
use crate::vec3::Vec3;

/// Tuning knobs for force-kernel execution, plumbed from engine config
/// down to the terms (see [`ForceField::configure_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Use the threaded pair loop (the "threads" tier of Fig. 6).
    pub threaded: bool,
    /// Minimum pair count before the threaded path engages; below it the
    /// serial kernel wins on fork/join overhead.
    pub parallel_threshold: usize,
    /// Run the pre-packing reference kernel (validation / benchmarking).
    pub use_reference: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            threaded: true,
            parallel_threshold: nonbonded::DEFAULT_PAIR_PARALLEL_THRESHOLD,
            use_reference: false,
        }
    }
}

impl KernelConfig {
    /// Wire encoding (kernel overrides ride inside `mdrun` payloads).
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::json!({
            "threaded": self.threaded,
            "parallel_threshold": self.parallel_threshold as u64,
            "use_reference": self.use_reference,
        })
    }

    pub fn from_value(v: &serde_json::Value) -> Result<KernelConfig, String> {
        Ok(KernelConfig {
            threaded: crate::jsonv::boolean(v, "threaded")?,
            parallel_threshold: crate::jsonv::int(v, "parallel_threshold")? as usize,
            use_reference: crate::jsonv::boolean(v, "use_reference")?,
        })
    }
}

/// Cumulative kernel counters for telemetry (pairs/sec, packed-list
/// bytes). Counters are lifetime totals; rates are derived by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Pairs streamed by the inner loop since construction.
    pub pairs_evaluated: u64,
    /// Heap bytes currently held by packed pair storage.
    pub packed_bytes: u64,
}

/// One additive term of the potential.
pub trait ForceTerm: Send {
    /// Short identifier used in energy breakdowns ("lj-coulomb", "bonded"…).
    fn name(&self) -> &'static str;

    /// Accumulate forces for the current positions into `forces` and return
    /// this term's potential energy. Implementations must *add* to
    /// `forces`, never overwrite.
    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64;

    /// Accumulate forces only, skipping energy accumulation. Forces must be
    /// bitwise identical to what [`ForceTerm::compute`] produces. Terms
    /// with a dedicated force-only kernel override this; the default just
    /// discards the energy.
    fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        self.compute(positions, bx, forces);
    }

    /// Apply kernel tuning knobs. Terms without tunable kernels ignore it.
    fn configure_kernel(&mut self, _cfg: &KernelConfig) {}

    /// Cumulative kernel counters, if this term has an instrumented pair
    /// loop.
    fn kernel_stats(&self) -> Option<KernelStats> {
        None
    }

    /// Enable/disable internal sub-phase timing (neighbour-list refresh).
    /// Terms without internal phases ignore this.
    fn set_neighbor_timing(&mut self, _on: bool) {}

    /// Drain nanoseconds spent refreshing neighbour structures since the
    /// last call. Only meaningful after `set_neighbor_timing(true)`.
    fn take_neighbor_ns(&mut self) -> u64 {
        0
    }

    /// `(full_builds, updates)` of this term's neighbour structure, if it
    /// has one. Counters are cumulative over the term's lifetime.
    fn neighbor_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Energy breakdown from one force evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Energies {
    pub terms: Vec<(&'static str, f64)>,
}

impl Energies {
    pub fn total(&self) -> f64 {
        self.terms.iter().map(|(_, e)| e).sum()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.terms.iter().find(|(n, _)| *n == name).map(|(_, e)| *e)
    }
}

/// An ordered collection of force terms.
#[derive(Default)]
pub struct ForceField {
    terms: Vec<Box<dyn ForceTerm>>,
    /// When set, `compute` accumulates its wall time into `force_ns` and
    /// terms time their neighbour refreshes. Off by default: the flag
    /// costs one predictable branch per evaluation.
    timing: bool,
    force_ns: u64,
}

impl ForceField {
    pub fn new() -> Self {
        ForceField::default()
    }

    pub fn add(&mut self, term: Box<dyn ForceTerm>) -> &mut Self {
        self.terms.push(term);
        self
    }

    pub fn with(mut self, term: Box<dyn ForceTerm>) -> Self {
        self.terms.push(term);
        self
    }

    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Enable/disable evaluation timing (and neighbour-refresh timing in
    /// terms that have one).
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
        for term in self.terms.iter_mut() {
            term.set_neighbor_timing(on);
        }
    }

    /// Drain nanoseconds spent in `compute` since the last call.
    pub fn take_force_ns(&mut self) -> u64 {
        std::mem::take(&mut self.force_ns)
    }

    /// Drain nanoseconds spent refreshing neighbour structures across all
    /// terms since the last call.
    pub fn take_neighbor_ns(&mut self) -> u64 {
        self.terms.iter_mut().map(|t| t.take_neighbor_ns()).sum()
    }

    /// Aggregate `(full_builds, updates)` across terms with neighbour
    /// structures (cumulative lifetime counters).
    pub fn neighbor_stats(&self) -> (u64, u64) {
        self.terms
            .iter()
            .filter_map(|t| t.neighbor_stats())
            .fold((0, 0), |(b, u), (tb, tu)| (b + tb, u + tu))
    }

    /// Push kernel tuning knobs down to every term.
    pub fn configure_kernel(&mut self, cfg: &KernelConfig) {
        for term in self.terms.iter_mut() {
            term.configure_kernel(cfg);
        }
    }

    /// Aggregate kernel counters across instrumented terms.
    pub fn kernel_stats(&self) -> KernelStats {
        self.terms
            .iter()
            .filter_map(|t| t.kernel_stats())
            .fold(KernelStats::default(), |acc, s| KernelStats {
                pairs_evaluated: acc.pairs_evaluated + s.pairs_evaluated,
                packed_bytes: acc.packed_bytes + s.packed_bytes,
            })
    }

    /// Zero `forces`, evaluate every term, and return the breakdown.
    pub fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> Energies {
        assert_eq!(
            positions.len(),
            forces.len(),
            "positions/forces length mismatch"
        );
        let start = if self.timing {
            Some(std::time::Instant::now())
        } else {
            None
        };
        for f in forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        let mut breakdown = Vec::with_capacity(self.terms.len());
        for term in self.terms.iter_mut() {
            let e = term.compute(positions, bx, forces);
            breakdown.push((term.name(), e));
        }
        if let Some(start) = start {
            self.force_ns += start.elapsed().as_nanos() as u64;
        }
        Energies { terms: breakdown }
    }

    /// Zero `forces` and evaluate every term's force-only kernel. The fast
    /// path for steps where nothing reads the energy; resulting forces are
    /// bitwise identical to [`ForceField::compute`].
    pub fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        assert_eq!(
            positions.len(),
            forces.len(),
            "positions/forces length mismatch"
        );
        let start = if self.timing {
            Some(std::time::Instant::now())
        } else {
            None
        };
        for f in forces.iter_mut() {
            *f = Vec3::ZERO;
        }
        for term in self.terms.iter_mut() {
            term.compute_force_only(positions, bx, forces);
        }
        if let Some(start) = start {
            self.force_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Potential energy only (still evaluates forces internally).
    pub fn energy(&mut self, positions: &[Vec3], bx: &SimBox) -> f64 {
        let mut scratch = vec![Vec3::ZERO; positions.len()];
        self.compute(positions, bx, &mut scratch).total()
    }
}

/// Verify analytic forces against a central finite difference of the
/// energy. Returns the largest absolute component error. Test-support
/// code, exported so downstream crates can validate their own terms.
pub fn max_force_error(term: &mut dyn ForceTerm, positions: &[Vec3], bx: &SimBox, h: f64) -> f64 {
    let n = positions.len();
    let mut forces = vec![Vec3::ZERO; n];
    term.compute(positions, bx, &mut forces);

    let mut worst: f64 = 0.0;
    let mut pos = positions.to_vec();
    let mut scratch = vec![Vec3::ZERO; n];
    for i in 0..n {
        for d in 0..3 {
            let orig = pos[i][d];
            set_comp(&mut pos[i], d, orig + h);
            scratch.iter_mut().for_each(|f| *f = Vec3::ZERO);
            let e_plus = term.compute(&pos, bx, &mut scratch);
            set_comp(&mut pos[i], d, orig - h);
            scratch.iter_mut().for_each(|f| *f = Vec3::ZERO);
            let e_minus = term.compute(&pos, bx, &mut scratch);
            set_comp(&mut pos[i], d, orig);
            let f_num = -(e_plus - e_minus) / (2.0 * h);
            worst = worst.max((forces[i][d] - f_num).abs());
        }
    }
    worst
}

fn set_comp(v: &mut Vec3, d: usize, val: f64) {
    match d {
        0 => v.x = val,
        1 => v.y = val,
        _ => v.z = val,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    /// A trivial term pulling every particle toward the origin.
    struct Spring {
        k: f64,
    }

    impl ForceTerm for Spring {
        fn name(&self) -> &'static str {
            "spring"
        }
        fn compute(&mut self, positions: &[Vec3], _bx: &SimBox, forces: &mut [Vec3]) -> f64 {
            let mut e = 0.0;
            for (p, f) in positions.iter().zip(forces.iter_mut()) {
                e += 0.5 * self.k * p.norm2();
                *f += -*p * self.k;
            }
            e
        }
    }

    #[test]
    fn forcefield_accumulates_terms() {
        let mut ff = ForceField::new()
            .with(Box::new(Spring { k: 1.0 }))
            .with(Box::new(Spring { k: 2.0 }));
        let pos = vec![v3(1.0, 0.0, 0.0)];
        let mut forces = vec![Vec3::ZERO];
        let e = ff.compute(&pos, &SimBox::Open, &mut forces);
        assert_eq!(e.terms.len(), 2);
        assert!((e.total() - 1.5).abs() < 1e-12);
        assert!((forces[0].x + 3.0).abs() < 1e-12);
        assert_eq!(e.get("spring"), Some(0.5));
        assert_eq!(e.get("missing"), None);
    }

    #[test]
    fn energy_only_path() {
        let mut ff = ForceField::new().with(Box::new(Spring { k: 2.0 }));
        let e = ff.energy(&[v3(0.0, 2.0, 0.0)], &SimBox::Open);
        assert!((e - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finite_difference_checker_accepts_consistent_term() {
        let mut term = Spring { k: 3.0 };
        let pos = vec![v3(0.3, -0.2, 0.9), v3(-1.0, 0.4, 0.1)];
        let err = max_force_error(&mut term, &pos, &SimBox::Open, 1e-5);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn timing_accumulates_and_drains() {
        let mut ff = ForceField::new().with(Box::new(Spring { k: 1.0 }));
        let pos = vec![v3(1.0, 0.0, 0.0)];
        let mut forces = vec![Vec3::ZERO];
        // Timing off: nothing accumulates.
        ff.compute(&pos, &SimBox::Open, &mut forces);
        assert_eq!(ff.take_force_ns(), 0);
        // Timing on: compute wall time lands in the accumulator and
        // take_force_ns drains it.
        ff.set_timing(true);
        for _ in 0..100 {
            ff.compute(&pos, &SimBox::Open, &mut forces);
        }
        assert!(ff.take_force_ns() > 0);
        assert_eq!(ff.take_force_ns(), 0);
        // A plain term reports no neighbour structure.
        assert_eq!(ff.neighbor_stats(), (0, 0));
        assert_eq!(ff.take_neighbor_ns(), 0);
    }

    #[test]
    fn compute_overwrites_previous_forces() {
        let mut ff = ForceField::new().with(Box::new(Spring { k: 1.0 }));
        let pos = vec![v3(1.0, 0.0, 0.0)];
        let mut forces = vec![v3(100.0, 100.0, 100.0)];
        ff.compute(&pos, &SimBox::Open, &mut forces);
        assert!((forces[0].x + 1.0).abs() < 1e-12);
    }

    #[test]
    fn force_only_default_matches_compute() {
        // The trait's default force-only path delegates to compute, so
        // forces are identical; it also zeroes stale forces.
        let mut ff = ForceField::new().with(Box::new(Spring { k: 1.5 }));
        let pos = vec![v3(1.0, -2.0, 0.5), v3(0.1, 0.2, 0.3)];
        let mut f_full = vec![Vec3::ZERO; 2];
        let mut f_fast = vec![v3(9.0, 9.0, 9.0); 2];
        ff.compute(&pos, &SimBox::Open, &mut f_full);
        ff.compute_force_only(&pos, &SimBox::Open, &mut f_fast);
        assert_eq!(f_full, f_fast);
        // A plain term reports no kernel counters.
        assert_eq!(ff.kernel_stats(), KernelStats::default());
    }
}
