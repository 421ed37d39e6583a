//! Structure-based (Gō-type) potential for coarse-grained protein folding.
//!
//! This is the substitution for the paper's all-atom Amber03 villin system
//! (see DESIGN.md): native contacts are stabilized with a 12-10 well
//! (Clementi et al.), every other non-local pair is purely repulsive, and
//! chain geometry (bonds/angles/dihedrals) is handled by [`BondedForce`].
//! The resulting free-energy surface is funnel-shaped with metastable
//! partially-folded states — exactly the kinetics the MSM layer needs.
//!
//! [`BondedForce`]: crate::forces::BondedForce

use crate::forces::{ForceTerm, KernelStats};
use crate::pbc::SimBox;
use crate::vec3::Vec3;
use std::sync::Arc;

/// One native contact between beads `i` and `j` at native distance `r_nat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoContact {
    pub i: usize,
    pub j: usize,
    pub r_nat: f64,
}

/// Gō-model non-local interactions: native 12-10 wells plus generic
/// excluded-volume repulsion between all other non-local pairs. The pair
/// tables are immutable and shared: a clone costs one reference count.
#[derive(Clone)]
pub struct GoModelForce {
    tables: Arc<Tables>,
    /// Cumulative pairs streamed by the kernel (telemetry: pairs/sec).
    pairs_evaluated: u64,
}

struct Tables {
    contacts: Vec<GoContact>,
    rep_pairs: Vec<(u32, u32)>,
    /// Depth of each native-contact well.
    eps_contact: f64,
    /// Strength of the non-native repulsion.
    eps_rep: f64,
    /// Range of the non-native repulsion.
    sigma_rep: f64,
}

impl GoModelForce {
    /// Build the term for a chain of `n_beads`. Pairs with sequence
    /// separation `< min_seq_sep` are left to the bonded terms; all others
    /// are either native contacts (attractive well) or repulsive.
    pub fn new(
        n_beads: usize,
        contacts: Vec<GoContact>,
        min_seq_sep: usize,
        eps_contact: f64,
        eps_rep: f64,
        sigma_rep: f64,
    ) -> Self {
        let mut native = vec![false; n_beads * n_beads];
        for c in &contacts {
            assert!(c.i < n_beads && c.j < n_beads, "contact index out of range");
            assert!(c.r_nat > 0.0, "native distance must be positive");
            native[c.i.min(c.j) * n_beads + c.i.max(c.j)] = true;
        }
        let mut rep_pairs = Vec::new();
        for i in 0..n_beads {
            for j in (i + min_seq_sep)..n_beads {
                if !native[i * n_beads + j] {
                    rep_pairs.push((i as u32, j as u32));
                }
            }
        }
        GoModelForce {
            tables: Arc::new(Tables {
                contacts,
                rep_pairs,
                eps_contact,
                eps_rep,
                sigma_rep,
            }),
            pairs_evaluated: 0,
        }
    }

    pub fn n_contacts(&self) -> usize {
        self.tables.contacts.len()
    }

    pub fn contacts(&self) -> &[GoContact] {
        &self.tables.contacts
    }

    pub fn n_repulsive_pairs(&self) -> usize {
        self.tables.rep_pairs.len()
    }

    /// Fraction of native contacts formed (within `tol * r_nat`), the
    /// classic folding reaction coordinate Q.
    pub fn fraction_native(&self, positions: &[Vec3], bx: &SimBox, tol: f64) -> f64 {
        let contacts = self.contacts();
        if contacts.is_empty() {
            return 0.0;
        }
        let formed = contacts
            .iter()
            .filter(|c| bx.dist(positions[c.i], positions[c.j]) <= tol * c.r_nat)
            .count();
        formed as f64 / contacts.len() as f64
    }

    fn n_pairs(&self) -> u64 {
        (self.tables.contacts.len() + self.tables.rep_pairs.len()) as u64
    }
}

impl Tables {
    /// Shared kernel for full and force-only evaluation. Force arithmetic
    /// is identical in both instantiations; `ENERGY = false` only drops
    /// the energy accumulation, so force-only forces are bitwise equal.
    /// One division per pair inside the cutoff.
    fn eval<const ENERGY: bool>(
        &self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> f64 {
        let mut energy = 0.0;

        // Native contacts: V = ε [5 (rn/r)^12 - 6 (rn/r)^10].
        let eps60 = 60.0 * self.eps_contact;
        for c in &self.contacts {
            let dr = bx.displacement(positions[c.i], positions[c.j]);
            let r2 = dr.norm2();
            if r2 == 0.0 {
                continue;
            }
            let inv_r2 = 1.0 / r2;
            let s2 = c.r_nat * c.r_nat * inv_r2;
            let s10 = s2 * s2 * s2 * s2 * s2;
            let s12 = s10 * s2;
            if ENERGY {
                energy += self.eps_contact * (5.0 * s12 - 6.0 * s10);
            }
            // F·r̂ = 60 ε (s12 - s10)/r → F vector = 60 ε (s12 - s10) dr / r².
            let f = dr * (eps60 * (s12 - s10) * inv_r2);
            forces[c.i] += f;
            forces[c.j] -= f;
        }

        // Non-native repulsion: V = ε_rep (σ/r)^12, negligible beyond 3σ.
        let sig2 = self.sigma_rep * self.sigma_rep;
        let cutoff2 = 9.0 * sig2;
        let eps12 = 12.0 * self.eps_rep;
        for &(i, j) in &self.rep_pairs {
            let (i, j) = (i as usize, j as usize);
            let dr = bx.displacement(positions[i], positions[j]);
            let r2 = dr.norm2();
            if r2 == 0.0 || r2 > cutoff2 {
                continue;
            }
            let inv_r2 = 1.0 / r2;
            let s2 = sig2 * inv_r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            if ENERGY {
                energy += self.eps_rep * s12;
            }
            let f = dr * (eps12 * s12 * inv_r2);
            forces[i] += f;
            forces[j] -= f;
        }

        energy
    }
}

impl ForceTerm for GoModelForce {
    fn name(&self) -> &'static str {
        "go-model"
    }

    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        self.pairs_evaluated += self.n_pairs();
        self.tables.eval::<true>(positions, bx, forces)
    }

    fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        self.pairs_evaluated += self.n_pairs();
        self.tables.eval::<false>(positions, bx, forces);
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        let t = &self.tables;
        Some(KernelStats {
            pairs_evaluated: self.pairs_evaluated,
            packed_bytes: (t.rep_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
                + t.contacts.capacity() * std::mem::size_of::<GoContact>())
                as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::max_force_error;
    use crate::vec3::v3;

    #[test]
    fn contact_minimum_at_native_distance() {
        let mut go = GoModelForce::new(
            2,
            vec![GoContact {
                i: 0,
                j: 1,
                r_nat: 1.2,
            }],
            1,
            2.0,
            1.0,
            0.8,
        );
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.2, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = go.compute(&pos, &SimBox::Open, &mut f);
        // At r = r_nat the 12-10 term is -ε (here -2); repulsion is small
        // but nonzero since the pair is also... no: native pairs are NOT in
        // rep_pairs, so E = -2 exactly.
        assert!((e + 2.0).abs() < 1e-12, "E = {e}");
        assert!(f[0].norm() < 1e-10);
    }

    #[test]
    fn native_pairs_excluded_from_repulsion() {
        let go = GoModelForce::new(
            4,
            vec![GoContact {
                i: 0,
                j: 3,
                r_nat: 1.0,
            }],
            3,
            1.0,
            1.0,
            1.0,
        );
        // Only non-native pair at separation >= 3 would be (0,3), which is
        // native — so no repulsive pairs at all.
        assert_eq!(go.n_repulsive_pairs(), 0);
        assert_eq!(go.n_contacts(), 1);
    }

    #[test]
    fn repulsion_pushes_apart() {
        let mut go = GoModelForce::new(4, vec![], 3, 1.0, 1.0, 1.0);
        assert_eq!(go.n_repulsive_pairs(), 1); // (0,3)
        let pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(10.0, 0.0, 0.0),
            v3(20.0, 0.0, 0.0),
            v3(0.8, 0.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = go.compute(&pos, &SimBox::Open, &mut f);
        assert!(e > 0.0);
        assert!(f[0].x < 0.0, "bead 0 pushed away from bead 3");
        assert!(f[3].x > 0.0);
    }

    #[test]
    fn forces_match_finite_difference() {
        let mut go = GoModelForce::new(
            5,
            vec![
                GoContact {
                    i: 0,
                    j: 3,
                    r_nat: 1.1,
                },
                GoContact {
                    i: 1,
                    j: 4,
                    r_nat: 1.3,
                },
            ],
            3,
            1.5,
            1.0,
            0.9,
        );
        let pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.3, 0.0),
            v3(1.8, 1.0, 0.2),
            v3(1.1, 1.7, 0.9),
            v3(0.2, 1.4, 1.4),
        ];
        let err = max_force_error(&mut go, &pos, &SimBox::Open, 1e-6);
        assert!(err < 1e-4, "Gō force error vs finite difference: {err}");
    }

    #[test]
    fn fraction_native_reaction_coordinate() {
        let go = GoModelForce::new(
            4,
            vec![
                GoContact {
                    i: 0,
                    j: 3,
                    r_nat: 1.0,
                },
                GoContact {
                    i: 1,
                    j: 3,
                    r_nat: 1.0,
                },
            ],
            3,
            1.0,
            1.0,
            1.0,
        );
        // First contact formed (r = 1.0 <= 1.2), second broken (r = 5).
        let pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(-4.0, 0.0, 0.0),
            v3(5.0, 5.0, 5.0),
            v3(1.0, 0.0, 0.0),
        ];
        let q = go.fraction_native(&pos, &SimBox::Open, 1.2);
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn force_only_forces_are_bitwise_identical() {
        let mut go = GoModelForce::new(
            5,
            vec![
                GoContact {
                    i: 0,
                    j: 3,
                    r_nat: 1.1,
                },
                GoContact {
                    i: 1,
                    j: 4,
                    r_nat: 1.3,
                },
            ],
            3,
            1.5,
            1.0,
            0.9,
        );
        let pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.3, 0.0),
            v3(1.8, 1.0, 0.2),
            v3(1.1, 1.7, 0.9),
            v3(0.2, 1.4, 1.4),
        ];
        let mut f_full = vec![Vec3::ZERO; 5];
        let mut f_fast = vec![Vec3::ZERO; 5];
        go.compute(&pos, &SimBox::Open, &mut f_full);
        go.compute_force_only(&pos, &SimBox::Open, &mut f_fast);
        assert_eq!(f_full, f_fast);
    }

    #[test]
    fn long_range_repulsion_is_cut() {
        let mut go = GoModelForce::new(4, vec![], 3, 1.0, 1.0, 1.0);
        let pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(2.0, 0.0, 0.0),
            v3(50.0, 0.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = go.compute(&pos, &SimBox::Open, &mut f);
        assert_eq!(e, 0.0, "pairs beyond 3σ contribute nothing");
    }
}
