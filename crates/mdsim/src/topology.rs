//! Molecular topology: particles and bonded terms.
//!
//! A [`Topology`] is the static description of a molecular system — what
//! Gromacs keeps in its `.tpr`: masses, charges, Lennard-Jones types and
//! the bonded-interaction lists. No shipped model excludes a pair from the
//! non-bonded term, so the topology carries no exclusion table.

/// Per-particle Lennard-Jones parameters (σ, ε).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LjParams {
    pub sigma: f64,
    pub epsilon: f64,
}

impl LjParams {
    pub const fn new(sigma: f64, epsilon: f64) -> Self {
        LjParams { sigma, epsilon }
    }

    /// Lorentz-Berthelot combination rule.
    #[inline]
    pub fn combine(self, other: LjParams) -> LjParams {
        LjParams {
            sigma: 0.5 * (self.sigma + other.sigma),
            epsilon: (self.epsilon * other.epsilon).sqrt(),
        }
    }

    /// The (σ, ε) parameters in C6/C12 form: `c6 = 4εσ⁶`, `c12 = 4εσ¹²`,
    /// so `V(r) = c12/r¹² − c6/r⁶`. This is the representation the packed
    /// pair kernel streams over — combining and conversion happen once per
    /// neighbour-list build, never in the inner loop.
    #[inline]
    pub fn c6_c12(self) -> (f64, f64) {
        let s6 = self.sigma.powi(6);
        let c6 = 4.0 * self.epsilon * s6;
        (c6, c6 * s6)
    }
}

/// One particle (an atom, or a coarse-grained bead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub mass: f64,
    pub charge: f64,
    pub lj: LjParams,
}

impl Particle {
    pub fn new(mass: f64, charge: f64, lj: LjParams) -> Self {
        assert!(mass > 0.0, "particle mass must be positive, got {mass}");
        Particle { mass, charge, lj }
    }

    /// Uncharged particle with the given mass and LJ parameters.
    pub fn neutral(mass: f64, lj: LjParams) -> Self {
        Self::new(mass, 0.0, lj)
    }
}

/// Harmonic bond: `V = 1/2 k (r - r0)^2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    pub i: usize,
    pub j: usize,
    pub r0: f64,
    pub k: f64,
}

/// Harmonic angle: `V = 1/2 k (θ - θ0)^2` over particles i-j-k (j central).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    pub i: usize,
    pub j: usize,
    pub k: usize,
    pub theta0: f64,
    pub kf: f64,
}

/// Periodic (cosine) dihedral: `V = kφ (1 + cos(n φ - φ0))` over i-j-k-l.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dihedral {
    pub i: usize,
    pub j: usize,
    pub k: usize,
    pub l: usize,
    pub phi0: f64,
    pub kphi: f64,
    pub mult: i32,
}

/// Static system description.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub particles: Vec<Particle>,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
    pub dihedrals: Vec<Dihedral>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    pub fn n_particles(&self) -> usize {
        self.particles.len()
    }

    /// Append a particle and return its index.
    pub fn add_particle(&mut self, p: Particle) -> usize {
        self.particles.push(p);
        self.particles.len() - 1
    }

    pub fn add_bond(&mut self, i: usize, j: usize, r0: f64, k: f64) {
        self.check_pair(i, j);
        self.bonds.push(Bond { i, j, r0, k });
    }

    pub fn add_angle(&mut self, i: usize, j: usize, k: usize, theta0: f64, kf: f64) {
        assert!(i != j && j != k && i != k, "angle indices must be distinct");
        self.check_index(i);
        self.check_index(j);
        self.check_index(k);
        self.angles.push(Angle {
            i,
            j,
            k,
            theta0,
            kf,
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub fn add_dihedral(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        l: usize,
        phi0: f64,
        kphi: f64,
        mult: i32,
    ) {
        for &a in &[i, j, k, l] {
            self.check_index(a);
        }
        self.dihedrals.push(Dihedral {
            i,
            j,
            k,
            l,
            phi0,
            kphi,
            mult,
        });
    }

    /// Per-particle masses as a vector (convenient for integrators).
    pub fn masses(&self) -> Vec<f64> {
        self.particles.iter().map(|p| p.mass).collect()
    }

    /// Number of kinetic degrees of freedom, after removing `n_constrained`
    /// global degrees (3 for COM-motion removal).
    pub fn dof(&self, n_constrained: usize) -> usize {
        (3 * self.n_particles()).saturating_sub(n_constrained)
    }

    fn check_index(&self, i: usize) {
        assert!(
            i < self.n_particles(),
            "particle index {i} out of range (n = {})",
            self.n_particles()
        );
    }

    fn check_pair(&self, i: usize, j: usize) {
        assert!(i != j, "pair indices must be distinct, got ({i}, {j})");
        self.check_index(i);
        self.check_index(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Topology {
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        for i in 0..n - 1 {
            top.add_bond(i, i + 1, 1.0, 100.0);
        }
        top
    }

    #[test]
    fn lorentz_berthelot() {
        let a = LjParams::new(1.0, 4.0);
        let b = LjParams::new(3.0, 1.0);
        let c = a.combine(b);
        assert_eq!(c.sigma, 2.0);
        assert_eq!(c.epsilon, 2.0);
    }

    #[test]
    fn c6_c12_reproduces_sigma_epsilon_form() {
        let lj = LjParams::new(1.3, 0.7);
        let (c6, c12) = lj.c6_c12();
        // V(r) in both representations at a few radii.
        for r in [1.0, 1.3, 2.0] {
            let sr6 = (lj.sigma / r).powi(6);
            let v_se = 4.0 * lj.epsilon * (sr6 * sr6 - sr6);
            let r6 = r.powi(6);
            let v_c = c12 / (r6 * r6) - c6 / r6;
            assert!((v_se - v_c).abs() < 1e-12 * v_se.abs().max(1.0));
        }
    }

    #[test]
    fn dof_counts() {
        let top = chain(10);
        assert_eq!(top.dof(0), 30);
        assert_eq!(top.dof(3), 27);
        assert_eq!(Topology::new().dof(3), 0);
    }

    #[test]
    fn mass_accounting() {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(2.0, LjParams::new(1.0, 1.0)));
        top.add_particle(Particle::neutral(3.0, LjParams::new(1.0, 1.0)));
        assert_eq!(top.masses(), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_self_bond() {
        let mut top = chain(3);
        top.add_bond(1, 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut top = chain(3);
        top.add_bond(0, 7, 1.0, 1.0);
    }
}
