//! External (one-body) potentials.
//!
//! [`HarmonicRestraint`] tethers selected particles to reference points.
//! It serves two roles in the reproduction: position restraints during
//! system preparation, and the analytically solvable test system for the
//! BAR free-energy plugin (a harmonic well whose spring constant is the
//! coupling parameter λ).

use crate::forces::ForceTerm;
use crate::pbc::SimBox;
use crate::vec3::Vec3;

/// Harmonic tether: `V = Σ ½ k |r_i - ref_i|²` over the restrained set.
pub struct HarmonicRestraint {
    /// (particle index, reference point) pairs.
    anchors: Vec<(usize, Vec3)>,
    k: f64,
}

impl HarmonicRestraint {
    pub fn new(anchors: Vec<(usize, Vec3)>, k: f64) -> Self {
        assert!(k >= 0.0, "spring constant must be non-negative, got {k}");
        HarmonicRestraint { anchors, k }
    }
}

impl ForceTerm for HarmonicRestraint {
    fn name(&self) -> &'static str {
        "restraint"
    }

    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        let mut e = 0.0;
        for &(i, r0) in &self.anchors {
            let dr = bx.displacement(positions[i], r0);
            e += 0.5 * self.k * dr.norm2();
            forces[i] -= dr * self.k;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::tests::max_force_error;
    use crate::vec3::v3;

    #[test]
    fn restraint_energy_and_force() {
        let mut r = HarmonicRestraint::new(vec![(0, v3(1.0, 0.0, 0.0))], 4.0);
        let pos = vec![v3(2.0, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO];
        let e = r.compute(&pos, &SimBox::Open, &mut f);
        assert!((e - 2.0).abs() < 1e-12); // 1/2 * 4 * 1
        assert!((f[0].x + 4.0).abs() < 1e-12); // pulled back toward anchor
    }

    #[test]
    fn zero_k_is_inert() {
        let mut r = HarmonicRestraint::new(vec![(0, v3(0.0, 0.0, 0.0))], 0.0);
        let pos = vec![v3(5.0, 5.0, 5.0)];
        let mut f = vec![Vec3::ZERO];
        assert_eq!(r.compute(&pos, &SimBox::Open, &mut f), 0.0);
        assert_eq!(f[0], Vec3::ZERO);
    }

    #[test]
    fn forces_match_finite_difference() {
        let mut r =
            HarmonicRestraint::new(vec![(0, v3(0.1, 0.2, 0.3)), (2, v3(-1.0, 0.5, 0.0))], 2.5);
        let pos = vec![v3(1.0, 0.0, 0.0), v3(0.0, 0.0, 0.0), v3(0.3, 0.3, 0.3)];
        let err = max_force_error(&mut r, &pos, &SimBox::Open, 1e-6);
        assert!(err < 1e-6, "restraint force error: {err}");
    }

    /// The energy at one displacement: ½·k·|r − ref|² with k = 3.
    #[test]
    fn spring_constant_update() {
        let mut r = HarmonicRestraint::new(vec![(0, v3(0.0, 0.0, 0.0))], 3.0);
        let pos = vec![v3(1.0, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO];
        let e = r.compute(&pos, &SimBox::Open, &mut f);
        assert!((e - 1.5).abs() < 1e-12);
    }
}
