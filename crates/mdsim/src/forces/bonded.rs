//! Bonded interactions: harmonic bonds, harmonic angles, periodic dihedrals.
//!
//! Dihedral terms on the same i-j-k-l quadruple are fused when the tables
//! are built and share one geometry evaluation. `cos φ` and `sin φ` come
//! straight from the plane normals, `cos mφ`/`sin mφ` from the
//! angle-addition recurrence and `cos φ0`/`sin φ0` from the tables, so the
//! torsion energy and `dV/dφ` call no trigonometric function (DESIGN §9,
//! "Gō / bonded step").

use crate::forces::ForceTerm;
use crate::pbc::SimBox;
use crate::topology::{Angle, Bond, Topology};
use crate::vec3::Vec3;
use std::ops::Range;
use std::sync::Arc;

/// All bonded terms of a topology, evaluated together. The tables are
/// immutable and shared: a clone costs one reference count.
#[derive(Clone)]
pub struct BondedForce {
    tables: Arc<Tables>,
}

struct Tables {
    bonds: Vec<Bond>,
    angles: Vec<Angle>,
    /// One entry per distinct quadruple, in index order.
    torsions: Vec<Torsion>,
    /// Every quadruple's terms, contiguous and in ascending `mult`.
    torsion_terms: Vec<TorsionTerm>,
}

struct Torsion {
    /// Particle indices `[i, j, k, l]`.
    quad: [usize; 4],
    terms: Range<usize>,
}

/// `V = kphi (1 + cos(mult·φ - φ0))` with `φ0` stored as its cosine and
/// sine and `mult ≥ 0`.
struct TorsionTerm {
    mult: u32,
    kphi: f64,
    /// `kphi · mult`, the prefactor of `dV/dφ`.
    kphi_mult: f64,
    cos0: f64,
    sin0: f64,
}

impl Tables {
    fn new(top: &Topology) -> Tables {
        // cos(mφ - φ0) = cos(-mφ + φ0): a negative multiplicity is the
        // same potential with both signs flipped.
        let mut dihedrals: Vec<([usize; 4], u32, f64, f64)> = top
            .dihedrals
            .iter()
            .map(|d| {
                let phi0 = if d.mult < 0 { -d.phi0 } else { d.phi0 };
                ([d.i, d.j, d.k, d.l], d.mult.unsigned_abs(), phi0, d.kphi)
            })
            .collect();
        // A total order, so the tables — and with them every rounding —
        // do not depend on the order the topology lists the terms in.
        dihedrals
            .sort_by_key(|&(quad, mult, phi0, kphi)| (quad, mult, phi0.to_bits(), kphi.to_bits()));
        let mut torsions: Vec<Torsion> = Vec::new();
        let mut torsion_terms = Vec::with_capacity(dihedrals.len());
        for &(quad, mult, phi0, kphi) in &dihedrals {
            let at = torsion_terms.len();
            match torsions.last_mut() {
                Some(t) if t.quad == quad => t.terms.end = at + 1,
                _ => torsions.push(Torsion {
                    quad,
                    terms: at..at + 1,
                }),
            }
            torsion_terms.push(TorsionTerm {
                mult,
                kphi,
                kphi_mult: kphi * f64::from(mult),
                cos0: phi0.cos(),
                sin0: phi0.sin(),
            });
        }
        Tables {
            bonds: top.bonds.clone(),
            angles: top.angles.clone(),
            torsions,
            torsion_terms,
        }
    }

    /// Shared kernel for full and force-only evaluation. Force arithmetic
    /// is identical in both instantiations; `ENERGY = false` only drops
    /// the energy accumulation, so force-only forces are bitwise equal.
    fn eval<const ENERGY: bool>(
        &self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> f64 {
        let mut e = 0.0;

        for b in &self.bonds {
            let dr = bx.displacement(positions[b.i], positions[b.j]);
            let r = dr.norm();
            if r == 0.0 {
                continue; // coincident particles: force direction undefined
            }
            let dx = r - b.r0;
            if ENERGY {
                e += 0.5 * b.k * dx * dx;
            }
            // F_i = -dV/dr * r̂ = -k (r - r0) dr / r
            let f = dr * (-b.k * dx / r);
            forces[b.i] += f;
            forces[b.j] -= f;
        }

        for a in &self.angles {
            let rij = bx.displacement(positions[a.i], positions[a.j]);
            let rkj = bx.displacement(positions[a.k], positions[a.j]);
            let nij = rij.norm();
            let nkj = rkj.norm();
            if nij == 0.0 || nkj == 0.0 {
                continue;
            }
            let inv_nij = 1.0 / nij;
            let inv_nkj = 1.0 / nkj;
            let cos_t = (rij.dot(rkj) * inv_nij * inv_nkj).clamp(-1.0, 1.0);
            let dtheta = cos_t.acos() - a.theta0;
            if ENERGY {
                e += 0.5 * a.kf * dtheta * dtheta;
            }
            let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-8);
            // F_i = -dV/dθ ∇_i θ; positive dV/dθ (angle too wide) pulls the
            // end particles toward each other.
            let dvdt_over_sin = a.kf * dtheta / sin_t;
            let fi = (rkj * inv_nkj - rij * (cos_t * inv_nij)) * (dvdt_over_sin * inv_nij);
            let fk = (rij * inv_nij - rkj * (cos_t * inv_nkj)) * (dvdt_over_sin * inv_nkj);
            forces[a.i] += fi;
            forces[a.k] += fk;
            forces[a.j] -= fi + fk;
        }

        for t in &self.torsions {
            let [i, j, k, l] = t.quad;
            let b1 = bx.displacement(positions[j], positions[i]);
            let b2 = bx.displacement(positions[k], positions[j]);
            let b3 = bx.displacement(positions[l], positions[k]);
            let n1 = b1.cross(b2);
            let n2 = b2.cross(b3);
            let n1_2 = n1.norm2();
            let n2_2 = n2.norm2();
            let b2_2 = b2.norm2();
            let b2n = b2_2.sqrt();
            if n1_2 < 1e-12 || n2_2 < 1e-12 || b2n < 1e-12 {
                continue; // collinear: dihedral undefined
            }
            // φ = atan2(y, x) with x = n1·n2 and y = (n1×n2)·b2/|b2|, which
            // is |b2| (n1·b3) because n1×n2 = b2 (n1·b3). Only the unit
            // vector along (x, y) is needed, not the angle.
            let x = n1.dot(n2);
            let y = b2n * n1.dot(b3);
            let inv_h = 1.0 / (x * x + y * y).sqrt();
            let (cos_phi, sin_phi) = (x * inv_h, y * inv_h);

            // (cos mφ, sin mφ), advanced by angle addition to each term's
            // multiplicity in turn.
            let (mut cos_m, mut sin_m, mut m) = (1.0, 0.0, 0);
            let mut dvdphi = 0.0;
            for term in &self.torsion_terms[t.terms.clone()] {
                while m < term.mult {
                    (cos_m, sin_m) = (
                        cos_m * cos_phi - sin_m * sin_phi,
                        sin_m * cos_phi + cos_m * sin_phi,
                    );
                    m += 1;
                }
                if ENERGY {
                    e += term.kphi * (1.0 + (cos_m * term.cos0 + sin_m * term.sin0));
                }
                dvdphi -= term.kphi_mult * (sin_m * term.cos0 - cos_m * term.sin0);
            }

            // Standard torsion gradient distribution: ∇φ at the end
            // particles lies along the plane normals; the inner two follow
            // from translation/rotation invariance.
            let inv_b2_2 = 1.0 / b2_2;
            let grad_i = n1 * (-b2n / n1_2);
            let grad_l = n2 * (b2n / n2_2);
            let p = b1.dot(b2) * inv_b2_2;
            let q = b3.dot(b2) * inv_b2_2;
            let grad_j = grad_i * (-1.0 - p) + grad_l * q;
            let grad_k = grad_l * (-1.0 - q) + grad_i * p;
            forces[i] += grad_i * (-dvdphi);
            forces[j] += grad_j * (-dvdphi);
            forces[k] += grad_k * (-dvdphi);
            forces[l] += grad_l * (-dvdphi);
        }

        e
    }
}

impl BondedForce {
    pub fn from_topology(top: &Topology) -> Self {
        BondedForce {
            tables: Arc::new(Tables::new(top)),
        }
    }

    pub fn n_terms(&self) -> usize {
        self.tables.bonds.len() + self.tables.angles.len() + self.tables.torsion_terms.len()
    }
}

impl ForceTerm for BondedForce {
    fn name(&self) -> &'static str {
        "bonded"
    }

    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        self.tables.eval::<true>(positions, bx, forces)
    }

    fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        self.tables.eval::<false>(positions, bx, forces);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::max_force_error;
    use crate::model::chain::random_unit;
    use crate::model::VillinModel;
    use crate::rng::{rng_from_seed, sample_normal, SimRng};
    use crate::topology::{Dihedral, LjParams, Particle};
    use crate::vec3::v3;
    use std::f64::consts::PI;

    fn particles(n: usize) -> Topology {
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        top
    }

    #[test]
    fn bond_at_rest_length_has_no_force() {
        let mut top = particles(2);
        top.add_bond(0, 1, 1.5, 100.0);
        let mut bf = BondedForce::from_topology(&top);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.5, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bf.compute(&pos, &SimBox::Open, &mut f);
        assert!(e.abs() < 1e-12);
        assert!(f[0].norm() < 1e-12);
    }

    #[test]
    fn stretched_bond_pulls_inward() {
        let mut top = particles(2);
        top.add_bond(0, 1, 1.0, 10.0);
        let mut bf = BondedForce::from_topology(&top);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(2.0, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bf.compute(&pos, &SimBox::Open, &mut f);
        assert!((e - 5.0).abs() < 1e-12); // 1/2 * 10 * 1^2
        assert!(f[0].x > 0.0 && f[1].x < 0.0);
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn angle_at_equilibrium_has_no_force() {
        let mut top = particles(3);
        top.add_angle(0, 1, 2, PI / 2.0, 50.0);
        let mut bf = BondedForce::from_topology(&top);
        let pos = vec![v3(1.0, 0.0, 0.0), v3(0.0, 0.0, 0.0), v3(0.0, 1.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 3];
        let e = bf.compute(&pos, &SimBox::Open, &mut f);
        assert!(e.abs() < 1e-12);
        for fi in &f {
            assert!(fi.norm() < 1e-10);
        }
    }

    #[test]
    fn angle_energy_value() {
        let mut top = particles(3);
        top.add_angle(0, 1, 2, PI, 2.0);
        let mut bf = BondedForce::from_topology(&top);
        // 90-degree angle, θ0 = 180°: E = 1/2 * 2 * (π/2)²
        let pos = vec![v3(1.0, 0.0, 0.0), v3(0.0, 0.0, 0.0), v3(0.0, 1.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 3];
        let e = bf.compute(&pos, &SimBox::Open, &mut f);
        assert!((e - 0.5 * 2.0 * (PI / 2.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn trans_dihedral_is_at_minimum_for_phi0_zero() {
        let mut top = particles(4);
        // V = k (1 + cos(φ - φ0)); φ = π (trans) with φ0 = 0 → V = k(1-1) = 0.
        top.add_dihedral(0, 1, 2, 3, 0.0, 3.0, 1);
        let mut bf = BondedForce::from_topology(&top);
        let pos = vec![
            v3(-1.0, 1.0, 0.0),
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(2.0, -1.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = bf.compute(&pos, &SimBox::Open, &mut f);
        assert!(
            e.abs() < 1e-10,
            "trans conformation should sit at V=0, got {e}"
        );
    }

    #[test]
    fn all_bonded_forces_match_finite_difference() {
        let mut top = particles(6);
        for i in 0..5 {
            top.add_bond(i, i + 1, 1.0, 30.0);
        }
        for i in 0..4 {
            top.add_angle(i, i + 1, i + 2, 1.9, 15.0);
        }
        for i in 0..3 {
            top.add_dihedral(i, i + 1, i + 2, i + 3, 0.7, 2.0, 3);
        }
        let mut bf = BondedForce::from_topology(&top);
        assert_eq!(bf.n_terms(), 12);

        let mut rng = rng_from_seed(21);
        // A jittered zig-zag chain: generic geometry, no collinearity.
        let pos: Vec<Vec3> = (0..6)
            .map(|i| {
                v3(
                    i as f64 * 0.9 + 0.05 * sample_normal(&mut rng),
                    (i % 2) as f64 * 0.8 + 0.05 * sample_normal(&mut rng),
                    0.1 * sample_normal(&mut rng),
                )
            })
            .collect();
        let err = max_force_error(&mut bf, &pos, &SimBox::Open, 1e-6);
        assert!(err < 1e-4, "bonded force error vs finite difference: {err}");
    }

    #[test]
    fn dihedral_forces_sum_to_zero() {
        let mut top = particles(4);
        top.add_dihedral(0, 1, 2, 3, 0.3, 5.0, 2);
        let mut bf = BondedForce::from_topology(&top);
        let pos = vec![
            v3(-1.0, 0.7, 0.2),
            v3(0.0, 0.0, 0.0),
            v3(1.1, 0.1, -0.1),
            v3(1.9, -0.8, 0.5),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        bf.compute(&pos, &SimBox::Open, &mut f);
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10, "net force {total:?}");
    }

    #[test]
    fn periodic_boundary_bonds() {
        // A bond across the boundary should see the minimum-image distance.
        let mut top = particles(2);
        top.add_bond(0, 1, 1.0, 10.0);
        let mut bf = BondedForce::from_topology(&top);
        let bx = SimBox::cubic(10.0);
        let pos = vec![v3(0.5, 5.0, 5.0), v3(9.5, 5.0, 5.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bf.compute(&pos, &bx, &mut f);
        assert!(e.abs() < 1e-12, "minimum image distance is exactly r0");
    }

    /// The torsion kernel this module had before the fused one: every
    /// term evaluates its own geometry and goes through `atan2`, `cos` and
    /// `sin`. Kept as the reference the fused kernel is checked against.
    fn reference_dihedrals(
        dihedrals: &[Dihedral],
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> f64 {
        let mut e = 0.0;
        for d in dihedrals {
            let b1 = bx.displacement(positions[d.j], positions[d.i]);
            let b2 = bx.displacement(positions[d.k], positions[d.j]);
            let b3 = bx.displacement(positions[d.l], positions[d.k]);
            let n1 = b1.cross(b2);
            let n2 = b2.cross(b3);
            let n1_2 = n1.norm2();
            let n2_2 = n2.norm2();
            let b2n = b2.norm();
            if n1_2 < 1e-12 || n2_2 < 1e-12 || b2n < 1e-12 {
                continue;
            }
            let phi = (n1.cross(n2).dot(b2) / b2n).atan2(n1.dot(n2));
            let m = d.mult as f64;
            e += d.kphi * (1.0 + (m * phi - d.phi0).cos());
            let dvdphi = -d.kphi * m * (m * phi - d.phi0).sin();
            let grad_i = n1 * (-b2n / n1_2);
            let grad_l = n2 * (b2n / n2_2);
            let p = b1.dot(b2) / (b2n * b2n);
            let q = b3.dot(b2) / (b2n * b2n);
            let grad_j = grad_i * (-1.0 - p) + grad_l * q;
            let grad_k = grad_l * (-1.0 - q) + grad_i * p;
            forces[d.i] += grad_i * (-dvdphi);
            forces[d.j] += grad_j * (-dvdphi);
            forces[d.k] += grad_k * (-dvdphi);
            forces[d.l] += grad_l * (-dvdphi);
        }
        e
    }

    /// Four points with bend angles `theta1`, `theta2` and dihedral `phi`
    /// (up to the sign convention), in a random orientation and position.
    fn quadruple(rng: &mut SimRng, theta1: f64, theta2: f64, phi: f64) -> [Vec3; 4] {
        let ex = random_unit(rng);
        let ey = ex.cross(random_unit(rng)).normalized();
        let ez = ex.cross(ey);
        let mut len = || rng.below(1000) as f64 * 1e-3 + 0.8;
        let (l1, l2, l3) = (len(), len(), len());
        let j = v3(len(), -len(), len());
        let k = j + ex * l2;
        let i = j + (ex * -theta1.cos() + ey * theta1.sin()) * l1;
        let l = k + (ex * theta2.cos() + (ey * phi.cos() + ez * phi.sin()) * theta2.sin()) * l3;
        [i, j, k, l]
    }

    #[test]
    fn fused_torsions_match_atan2_reference() {
        let mut rng = rng_from_seed(0x70_4510);
        let uniform =
            |rng: &mut SimRng, lo: f64, hi: f64| -> f64 { lo + (hi - lo) * rng.next_f64() };
        let mut top = particles(4);
        for case in 0..12_000 {
            // A quarter each: generic, near-collinear, φ ≈ 0, φ ≈ ±π.
            let generic = |rng: &mut SimRng| rng.next_f64() * (PI - 0.4) + 0.2;
            let sliver = 10f64.powf(-uniform(&mut rng, 1.0, 8.0));
            let (theta1, theta2, phi) = match case % 4 {
                0 => (
                    generic(&mut rng),
                    generic(&mut rng),
                    uniform(&mut rng, -PI, PI),
                ),
                1 => (
                    uniform(&mut rng, 1e-3, 1e-2),
                    generic(&mut rng),
                    uniform(&mut rng, -PI, PI),
                ),
                2 => (generic(&mut rng), generic(&mut rng), sliver - 1e-8),
                _ => {
                    let sign = if case % 8 == 3 { 1.0 } else { -1.0 };
                    (generic(&mut rng), generic(&mut rng), sign * (PI - sliver))
                }
            };
            let pos = quadruple(&mut rng, theta1, theta2, phi);

            // One to three terms on the quadruple, multiplicities cycling
            // through 1..=6; now and then negative, or zero.
            top.dihedrals.clear();
            for term in 0..1 + case % 3 {
                let mult = match 1 + (case / 3 + term * 5) % 6 {
                    _ if case % 97 == 0 => 0,
                    m if case / 7 % 8 == 0 => -m,
                    m => m,
                };
                let phi0 = uniform(&mut rng, -2.0 * PI, 2.0 * PI);
                let kphi = uniform(&mut rng, 0.1, 5.0);
                top.add_dihedral(0, 1, 2, 3, phi0, kphi, mult);
            }

            let mut f_new = [Vec3::ZERO; 4];
            let mut f_ref = [Vec3::ZERO; 4];
            let e_new = BondedForce::from_topology(&top).compute(&pos, &SimBox::Open, &mut f_new);
            let e_ref = reference_dihedrals(&top.dihedrals, &pos, &SimBox::Open, &mut f_ref);

            // Amplitudes the errors are relative to: Σk for the energy,
            // Σ k|m| times the size of ∇φ for the forces.
            let b2 = pos[2] - pos[1];
            let grad = b2.norm()
                * (1.0 / (pos[1] - pos[0]).cross(b2).norm()
                    + 1.0 / b2.cross(pos[3] - pos[2]).norm());
            let e_amp: f64 = top.dihedrals.iter().map(|d| d.kphi).sum();
            let f_amp: f64 = top
                .dihedrals
                .iter()
                .map(|d| d.kphi * f64::from(d.mult.abs()).max(1.0) * grad)
                .sum();
            assert!(
                (e_new - e_ref).abs() <= 1e-10 * e_amp,
                "case {case}: energy {e_new} vs {e_ref}"
            );
            let mut net = Vec3::ZERO;
            let mut torque = Vec3::ZERO;
            for a in 0..4 {
                let err = (f_new[a] - f_ref[a]).max_abs();
                assert!(
                    err <= 1e-9 * f_amp,
                    "case {case}: force on {a} off by {err} (amplitude {f_amp})"
                );
                net += f_new[a];
                torque += (pos[a] - pos[1]).cross(f_new[a]);
            }
            assert!(
                net.max_abs() <= 1e-9 * f_amp,
                "case {case}: net force {net:?}"
            );
            assert!(
                torque.max_abs() <= 1e-9 * f_amp,
                "case {case}: net torque {torque:?}"
            );
        }
    }

    /// HP35's bonded topology at a jittered unfolded coil.
    fn hp35_coil() -> (Topology, Vec<Vec3>) {
        let model = VillinModel::hp35();
        let mut rng = rng_from_seed(17);
        let pos = model
            .unfolded_start(4)
            .into_iter()
            .map(|p| p + random_unit(&mut rng) * 0.3)
            .collect();
        ((*model.topology).clone(), pos)
    }

    #[test]
    fn hp35_forces_match_finite_difference() {
        let (top, pos) = hp35_coil();
        let mut full = BondedForce::from_topology(&top);
        assert_eq!(full.n_terms(), 34 + 33 + 64);
        let err = max_force_error(&mut full, &pos, &SimBox::Open, 1e-6);
        assert!(err < 1e-5, "bonded force error vs finite difference: {err}");

        // The torsions alone, so the stiffer bond and angle terms cannot
        // mask an error in the fused kernel.
        let mut torsions_only = top.clone();
        torsions_only.bonds.clear();
        torsions_only.angles.clear();
        let mut fused = BondedForce::from_topology(&torsions_only);
        let err = max_force_error(&mut fused, &pos, &SimBox::Open, 1e-6);
        assert!(
            err < 1e-7,
            "torsion force error vs finite difference: {err}"
        );
    }

    #[test]
    fn force_only_forces_are_bitwise_identical() {
        let (top, pos) = hp35_coil();
        let mut bf = BondedForce::from_topology(&top);
        let mut f_full = vec![Vec3::ZERO; pos.len()];
        let mut f_fast = vec![Vec3::ZERO; pos.len()];
        bf.compute(&pos, &SimBox::Open, &mut f_full);
        bf.compute_force_only(&pos, &SimBox::Open, &mut f_fast);
        assert_eq!(f_full, f_fast);
    }

    #[test]
    fn fusion_does_not_depend_on_listing_order() {
        // HP35 lists (n=1, n=3) per quadruple, quadruples ascending. Add a
        // quadruple with a single term, then list everything backwards and
        // interleaved: the tables, and so every bit of the result, are the
        // same.
        let (mut top, pos) = hp35_coil();
        top.add_dihedral(0, 5, 9, 20, 0.4, 0.7, 2);
        let listed = top.dihedrals.clone();
        let mut reversed = top.clone();
        reversed.dihedrals.reverse();
        let mut interleaved = top.clone();
        interleaved.dihedrals = listed
            .iter()
            .skip(1)
            .step_by(2)
            .chain(listed.iter().step_by(2))
            .copied()
            .collect();

        let eval = |top: &Topology| {
            let mut f = vec![Vec3::ZERO; pos.len()];
            let e = BondedForce::from_topology(top).compute(&pos, &SimBox::Open, &mut f);
            (e, f)
        };
        let expected = eval(&top);
        assert_eq!(eval(&reversed), expected);
        assert_eq!(eval(&interleaved), expected);

        // And the fused result is the per-term reference's.
        top.bonds.clear();
        top.angles.clear();
        let (e, f) = eval(&top);
        let mut f_ref = vec![Vec3::ZERO; pos.len()];
        let e_ref = reference_dihedrals(&listed, &pos, &SimBox::Open, &mut f_ref);
        assert!((e - e_ref).abs() < 1e-10 * e_ref.abs());
        for (a, b) in f.iter().zip(&f_ref) {
            assert!((*a - *b).max_abs() < 1e-9);
        }
    }
}
