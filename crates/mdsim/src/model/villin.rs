//! Coarse-grained Gō model of the villin headpiece subdomain (HP35).
//!
//! One bead per residue (35 beads), a synthetic three-helix-bundle native
//! structure generated from ideal Cα-helix geometry, and a
//! structure-based potential whose global minimum is that structure:
//! native bonds/angles/dihedrals plus 12-10 native-contact wells
//! ([`GoModelForce`]). Lengths are in ångström-like units (Cα–Cα virtual
//! bond ≈ 3.8), so RMSD values are directly comparable to the paper's
//! figures.

use crate::engine::Simulation;
use crate::forces::{BondedForce, ForceField, GoContact, GoModelForce};
use crate::integrate::Langevin;
use crate::model::chain::{extended_chain, self_avoiding_chain};
use crate::pbc::SimBox;
use crate::rng::{rng_for_stream, rng_from_seed};
use crate::state::State;
use crate::topology::{LjParams, Particle, Topology};
use crate::vec3::{v3, Vec3};
use std::f64::consts::PI;
use std::sync::Arc;

/// Tunable parameters of the Gō model.
#[derive(Debug, Clone, Copy)]
pub struct VillinParams {
    /// Number of residues (beads). HP35 has 35.
    pub n_residues: usize,
    /// Depth of each native-contact well (sets the energy scale ε).
    pub eps_contact: f64,
    /// Non-native excluded-volume strength.
    pub eps_rep: f64,
    /// Non-native excluded-volume range (Å).
    pub sigma_rep: f64,
    /// Native-contact distance cutoff (Å).
    pub contact_cutoff: f64,
    /// Minimum sequence separation for non-local pairs.
    pub min_seq_sep: usize,
    /// Bond force constant (ε/Å²).
    pub bond_k: f64,
    /// Angle force constant (ε/rad²).
    pub angle_k: f64,
    /// Dihedral force constants for the n=1 and n=3 terms.
    pub dihedral_k1: f64,
    pub dihedral_k3: f64,
    /// Bead mass.
    pub mass: f64,
    /// Langevin friction (1/τ).
    pub gamma: f64,
    /// Integration time step (τ).
    pub dt: f64,
    /// Default simulation temperature (ε/kB). The model's folding midpoint
    /// is near T ≈ 0.65–0.7; the default sits below it (like the paper's
    /// 300 K vs villin's ≈340 K melting temperature) so unfolded starts
    /// fold on sampling timescales.
    pub temperature: f64,
}

impl Default for VillinParams {
    fn default() -> Self {
        VillinParams {
            n_residues: 35,
            eps_contact: 1.0,
            eps_rep: 1.0,
            sigma_rep: 4.0,
            contact_cutoff: 8.0,
            min_seq_sep: 4,
            bond_k: 100.0,
            angle_k: 20.0,
            dihedral_k1: 0.3,
            dihedral_k3: 0.15,
            mass: 1.0,
            gamma: 0.2,
            dt: 0.01,
            temperature: 0.55,
        }
    }
}

/// The coarse-grained villin system: native structure, topology, contacts.
#[derive(Clone)]
pub struct VillinModel {
    pub params: VillinParams,
    pub topology: Arc<Topology>,
    pub native: Vec<Vec3>,
    pub contacts: Vec<GoContact>,
    /// The force terms, their tables built once here; every simulation
    /// gets a clone that shares them.
    bonded: BondedForce,
    go: GoModelForce,
}

impl VillinModel {
    /// The default 35-residue model (the paper's HP35 35-NleNle analogue).
    pub fn hp35() -> Self {
        Self::with_params(VillinParams::default())
    }

    pub fn with_params(params: VillinParams) -> Self {
        let native = native_structure(params.n_residues);
        let contacts = derive_contacts(&native, params.min_seq_sep, params.contact_cutoff);
        let topology = Arc::new(build_topology(&native, &params));
        let bonded = BondedForce::from_topology(&topology);
        let go = GoModelForce::new(
            params.n_residues,
            contacts.clone(),
            params.min_seq_sep,
            params.eps_contact,
            params.eps_rep,
            params.sigma_rep,
        );
        VillinModel {
            params,
            topology,
            native,
            contacts,
            bonded,
            go,
        }
    }

    pub fn n_beads(&self) -> usize {
        self.params.n_residues
    }

    pub fn n_contacts(&self) -> usize {
        self.contacts.len()
    }

    /// Native-structure bond lengths (for chain generators).
    pub fn bond_lengths(&self) -> Vec<f64> {
        self.native.windows(2).map(|w| w[0].dist(w[1])).collect()
    }

    /// The structure-based force field: bonded terms + Gō non-local terms.
    pub fn forcefield(&self) -> ForceField {
        ForceField::new()
            .with(Box::new(self.bonded.clone()))
            .with(Box::new(self.go_force()))
    }

    pub fn go_force(&self) -> GoModelForce {
        self.go.clone()
    }

    /// Fraction of native contacts formed (reaction coordinate Q).
    pub fn fraction_native(&self, positions: &[Vec3]) -> f64 {
        let formed = self
            .contacts
            .iter()
            .filter(|c| positions[c.i].dist(positions[c.j]) <= 1.2 * c.r_nat)
            .count();
        if self.contacts.is_empty() {
            0.0
        } else {
            formed as f64 / self.contacts.len() as f64
        }
    }

    /// A Langevin simulation of this model starting at `positions`.
    ///
    /// `seed` controls both initial velocities and the Langevin noise
    /// stream; identical seeds reproduce trajectories bitwise.
    pub fn simulation(&self, positions: Vec<Vec3>, temperature: f64, seed: u64) -> Simulation {
        let mut state = State::new(positions, &self.topology, SimBox::Open);
        let dof = self.topology.dof(3);
        let mut vel_rng = rng_for_stream(seed, 0x5e11);
        state.init_velocities(temperature, dof, &mut vel_rng);
        let integrator = Langevin::new(
            temperature,
            self.params.gamma,
            rng_for_stream(seed, 0x10_c4),
        );
        Simulation::new(
            state,
            self.forcefield(),
            Box::new(integrator),
            self.params.dt,
            dof,
        )
    }

    /// The native-state simulation (for reference runs / validation).
    pub fn native_simulation(&self, temperature: f64, seed: u64) -> Simulation {
        self.simulation(self.native.clone(), temperature, seed)
    }

    /// An unfolded starting structure: a self-avoiding coil with native
    /// bond lengths, distinct per seed (the paper's "nine unfolded
    /// conformations" are nine seeds).
    pub fn unfolded_start(&self, seed: u64) -> Vec<Vec3> {
        let mut rng = rng_from_seed(seed);
        self_avoiding_chain(&self.bond_lengths(), self.params.sigma_rep, &mut rng)
    }

    /// A fully extended starting structure.
    pub fn extended_start(&self) -> Vec<Vec3> {
        extended_chain(&self.bond_lengths())
    }
}

/// Generate a synthetic three-helix-bundle Cα trace.
///
/// Ideal Cα helix geometry (radius 2.3 Å, rise 1.5 Å/residue,
/// 100°/residue) for three helices whose axes form a triangle with
/// ~9.5 Å sides, connected by two-residue loops. For `n != 35` the helix
/// lengths are scaled proportionally.
fn native_structure(n: usize) -> Vec<Vec3> {
    assert!(
        n >= 12,
        "need at least 12 residues for a three-helix bundle"
    );
    // Partition residues: h1, loop(2), h2, loop(2), h3.
    let n_loops = 4;
    let h_total = n - n_loops;
    let h1 = h_total / 3;
    let h2 = h_total / 3;
    let h3 = h_total - h1 - h2;

    const R: f64 = 2.3;
    const RISE: f64 = 1.5;
    const OMEGA: f64 = 100.0 * PI / 180.0;
    let d = 9.5; // inter-axis distance

    // Helix centres (xy) and axis directions (±z).
    let c1 = v3(0.0, 0.0, 0.0);
    let c2 = v3(d, 0.0, 0.0);
    let c3 = v3(0.5 * d, d * 0.866, 0.0);

    let helix = |center: Vec3, up: bool, z0: f64, len: usize, phase: f64| -> Vec<Vec3> {
        (0..len)
            .map(|k| {
                let ang = OMEGA * k as f64 + phase;
                let dz = if up {
                    z0 + RISE * k as f64
                } else {
                    z0 - RISE * k as f64
                };
                v3(center.x + R * ang.cos(), center.y + R * ang.sin(), dz)
            })
            .collect()
    };

    let mut pos: Vec<Vec3> = Vec::with_capacity(n);
    // Helix 1: rising. Phase chosen so the first helix faces the bundle
    // core.
    let p1 = helix(c1, true, 0.0, h1, 0.0);
    let z_top = RISE * (h1 - 1) as f64;
    // Helix 2: descending from near the top of helix 1.
    let p2 = helix(c2, false, z_top, h2, PI);
    // Helix 3: rising again.
    let p3 = helix(c3, true, 1.0, h3, -PI / 2.0);

    pos.extend_from_slice(&p1);
    push_loop(&mut pos, *p1.last().unwrap(), p2[0], 2);
    pos.extend_from_slice(&p2);
    push_loop(&mut pos, *p2.last().unwrap(), p3[0], 2);
    pos.extend_from_slice(&p3);
    debug_assert_eq!(pos.len(), n);
    pos
}

/// Insert `k` loop residues between two helix endpoints, bulging slightly
/// outward so loop beads don't collide with the helices.
fn push_loop(pos: &mut Vec<Vec3>, from: Vec3, to: Vec3, k: usize) {
    let mid = (from + to) * 0.5;
    // Bulge direction: away from the origin-ish bundle core, plus up.
    let out = (mid - v3(4.75, 2.7, mid.z)).normalized() + v3(0.0, 0.0, 0.35);
    for i in 1..=k {
        let f = i as f64 / (k + 1) as f64;
        let along = from + (to - from) * f;
        let bulge = out * 0.8 * (PI * f).sin();
        pos.push(along + bulge);
    }
}

/// Native contacts: non-local pairs within the cutoff in the native state.
fn derive_contacts(native: &[Vec3], min_seq_sep: usize, cutoff: f64) -> Vec<GoContact> {
    let mut contacts = Vec::new();
    for i in 0..native.len() {
        for j in (i + min_seq_sep)..native.len() {
            let r = native[i].dist(native[j]);
            if r <= cutoff {
                contacts.push(GoContact { i, j, r_nat: r });
            }
        }
    }
    contacts
}

/// Topology with native-value bonded terms.
fn build_topology(native: &[Vec3], params: &VillinParams) -> Topology {
    let n = native.len();
    let mut top = Topology::new();
    for _ in 0..n {
        // LJ parameters unused by the Gō force field but kept meaningful.
        top.add_particle(Particle::neutral(
            params.mass,
            LjParams::new(params.sigma_rep, 0.0),
        ));
    }
    for i in 0..n - 1 {
        top.add_bond(i, i + 1, native[i].dist(native[i + 1]), params.bond_k);
    }
    for i in 0..n.saturating_sub(2) {
        let theta0 = bend_angle(native[i], native[i + 1], native[i + 2]);
        top.add_angle(i, i + 1, i + 2, theta0, params.angle_k);
    }
    for i in 0..n.saturating_sub(3) {
        let phi = torsion_angle(native[i], native[i + 1], native[i + 2], native[i + 3]);
        // V = k (1 + cos(m φ - φ0)) is minimal where m φ - φ0 = π.
        top.add_dihedral(i, i + 1, i + 2, i + 3, phi - PI, params.dihedral_k1, 1);
        top.add_dihedral(
            i,
            i + 1,
            i + 2,
            i + 3,
            3.0 * phi - PI,
            params.dihedral_k3,
            3,
        );
    }
    top
}

/// Bend angle at `b` for the triple a-b-c.
pub fn bend_angle(a: Vec3, b: Vec3, c: Vec3) -> f64 {
    let u = (a - b).normalized();
    let w = (c - b).normalized();
    u.dot(w).clamp(-1.0, 1.0).acos()
}

/// Torsion angle of the quadruple a-b-c-d (IUPAC sign convention).
pub fn torsion_angle(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    let b1 = b - a;
    let b2 = c - b;
    let b3 = d - c;
    let n1 = b1.cross(b2);
    let n2 = b2.cross(b3);
    (n1.cross(n2).dot(b2) / b2.norm()).atan2(n1.dot(n2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_structure_has_reasonable_geometry() {
        let model = VillinModel::hp35();
        assert_eq!(model.n_beads(), 35);
        for (k, w) in model.native.windows(2).enumerate() {
            let d = w[0].dist(w[1]);
            assert!(
                (2.5..=5.5).contains(&d),
                "bond {k} has unphysical length {d}"
            );
        }
        // No severe steric clash between non-neighbours.
        for i in 0..35 {
            for j in (i + 2)..35 {
                let d = model.native[i].dist(model.native[j]);
                assert!(d > 3.0, "clash between beads {i} and {j}: {d}");
            }
        }
    }

    #[test]
    fn model_has_tertiary_contacts() {
        let model = VillinModel::hp35();
        let long_range = model.contacts.iter().filter(|c| c.j - c.i > 8).count();
        assert!(
            model.n_contacts() >= 40,
            "expected a rich contact map, got {}",
            model.n_contacts()
        );
        assert!(
            long_range >= 10,
            "expected inter-helix contacts, got {long_range}"
        );
    }

    #[test]
    fn native_state_is_near_mechanical_equilibrium() {
        let model = VillinModel::hp35();
        let mut ff = model.forcefield();
        let mut forces = vec![Vec3::ZERO; model.n_beads()];
        ff.compute(&model.native, &SimBox::Open, &mut forces);
        let max_f = forces.iter().map(|f| f.max_abs()).fold(0.0, f64::max);
        // Bonded terms vanish exactly in the native structure; only the
        // soft non-native repulsion perturbs it.
        assert!(
            max_f < 2.0,
            "native-state residual force too large: {max_f}"
        );
    }

    #[test]
    fn q_is_one_in_native_and_low_when_extended() {
        let model = VillinModel::hp35();
        assert!(model.fraction_native(&model.native) > 0.99);
        let q_ext = model.fraction_native(&model.extended_start());
        assert!(q_ext < 0.35, "extended Q = {q_ext}");
    }

    #[test]
    fn native_state_is_stable_at_low_temperature() {
        let model = VillinModel::hp35();
        let mut sim = model.native_simulation(0.4, 7);
        sim.run(4000);
        let q = model.fraction_native(&sim.state.positions);
        assert!(q > 0.8, "native run unfolded: Q = {q}");
        assert!(sim.state.is_finite());
    }

    #[test]
    fn unfolded_start_is_unfolded_and_reproducible() {
        let model = VillinModel::hp35();
        let a = model.unfolded_start(1);
        let b = model.unfolded_start(1);
        let c = model.unfolded_start(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(model.fraction_native(&a) < 0.4);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let model = VillinModel::hp35();
        let start = model.unfolded_start(3);
        let mut s1 = model.simulation(start.clone(), 0.9, 11);
        let mut s2 = model.simulation(start, 0.9, 11);
        s1.run(200);
        s2.run(200);
        assert_eq!(s1.state.positions, s2.state.positions);
    }

    /// Mean kinetic energy of HP35 under the Langevin integrator over
    /// 2·10⁵ steps from the native state, in units of kB T / 2.
    fn mean_kinetic_dof(temperature: f64) -> f64 {
        let model = VillinModel::hp35();
        let mut sim = model.native_simulation(temperature, 23);
        sim.run_fast(5_000);
        let n_steps = 200_000;
        let mut ke_sum = 0.0;
        sim.run_fast_with_sink(n_steps, &crate::NullSink, |_, state| {
            ke_sum += state.kinetic_energy();
        });
        ke_sum / n_steps as f64 / (0.5 * crate::units::KB * temperature)
    }

    // Equipartition: the Langevin bath thermalises all 3N velocity
    // components (the centre of mass included — `dof()` discounts it, the
    // noise does not), so <KE> = (3N/2) kB T. The sampling error over
    // 2·10⁵ steps is ≈ 0.5 %; BAOAB's O(dt²) bias at the end-of-step
    // velocities is below that.
    #[test]
    fn langevin_equipartition_below_folding_temperature() {
        let dof = mean_kinetic_dof(0.5);
        assert!((dof / 105.0 - 1.0).abs() < 0.02, "<KE> = {dof} · kT/2");
    }

    #[test]
    fn langevin_equipartition_above_folding_temperature() {
        let dof = mean_kinetic_dof(0.9);
        assert!((dof / 105.0 - 1.0).abs() < 0.02, "<KE> = {dof} · kT/2");
    }

    #[test]
    fn verlet_conserves_energy_on_hp35() {
        // NVE around the native state, velocities drawn at T = 0.05 (total
        // energy ≈ -65 ε): velocity Verlet at dt = 0.01 must hold the
        // energy to 2·10⁻⁴ of its magnitude over 10⁵ steps (measured:
        // 5·10⁻⁵). The test stays cold on purpose: four loop angles have
        // θ0 ≈ 170°, and where one reaches 180° — at T ≈ 0.15 several do
        // within 10⁵ steps — the torsion gradient, ∝ 1/sin θ, is singular
        // and no integrator conserves energy through it.
        let model = VillinModel::hp35();
        let mut state = State::new(model.native.clone(), &model.topology, SimBox::Open);
        let dof = model.topology.dof(3);
        state.init_velocities(0.05, dof, &mut rng_from_seed(9));
        let mut sim = Simulation::new(
            state,
            model.forcefield(),
            Box::new(crate::integrate::VelocityVerlet::nve()),
            model.params.dt,
            dof,
        );
        let e0 = sim.total_energy();
        let mut worst: f64 = 0.0;
        for _ in 0..1_000 {
            sim.run_fast(100);
            worst = worst.max((sim.total_energy() - e0).abs());
        }
        assert!(
            worst < 2e-4 * e0.abs(),
            "|ΔE| = {worst} against E = {e0} over 10⁵ steps"
        );
    }

    #[test]
    fn torsion_angle_sign_convention() {
        // A right-handed 90° twist.
        let a = v3(1.0, 0.0, 0.0);
        let b = v3(0.0, 0.0, 0.0);
        let c = v3(0.0, 0.0, 1.0);
        let d = v3(0.0, 1.0, 1.0);
        let phi = torsion_angle(a, b, c, d);
        assert!((phi.abs() - PI / 2.0).abs() < 1e-12);
        // Trans is π.
        let d_trans = v3(-1.0, 0.0, 1.0);
        assert!((torsion_angle(a, b, c, d_trans).abs() - PI).abs() < 1e-12);
    }

    #[test]
    fn bend_angle_values() {
        let a = v3(1.0, 0.0, 0.0);
        let b = Vec3::ZERO;
        let c = v3(0.0, 1.0, 0.0);
        assert!((bend_angle(a, b, c) - PI / 2.0).abs() < 1e-12);
        assert!((bend_angle(a, b, v3(-1.0, 0.0, 0.0)) - PI).abs() < 1e-12);
    }

    #[test]
    fn smaller_models_build() {
        let params = VillinParams {
            n_residues: 16,
            ..VillinParams::default()
        };
        let model = VillinModel::with_params(params);
        assert_eq!(model.n_beads(), 16);
        assert!(model.n_contacts() > 0);
    }
}
