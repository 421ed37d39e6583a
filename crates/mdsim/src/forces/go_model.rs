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

/// Verlet buffer of the repulsion list (Å): the list holds the repulsive
/// pairs within 3σ + `SKIN`, and is rebuilt once a bead has moved half
/// of it.
const SKIN: f64 = 1.5;
/// Slack taken off the half-skin rebuild trigger, far above the rounding
/// of a distance between coordinates below 10⁶ Å.
const ROUNDING_MARGIN: f64 = 1e-6;

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
/// The repulsion list is the clone's own.
#[derive(Clone)]
pub struct GoModelForce {
    tables: Arc<Tables>,
    list: RepulsionList,
    /// Cumulative pairs streamed by the kernel (telemetry: pairs/sec).
    pairs_evaluated: u64,
}

/// The repulsive pairs within 3σ + [`SKIN`] at the last build, in
/// `rep_pairs` order, so the kernel sums the pairs inside 3σ in the
/// order a scan of every pair would.
#[derive(Clone, Default)]
struct RepulsionList {
    pairs: Vec<(u32, u32)>,
    /// Positions and box of the last build (no box before the first).
    built_at: Vec<Vec3>,
    built_box: Option<SimBox>,
    builds: u64,
    updates: u64,
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
            list: RepulsionList::default(),
            pairs_evaluated: 0,
        }
    }

    pub fn n_contacts(&self) -> usize {
        self.tables.contacts.len()
    }

    pub fn contacts(&self) -> &[GoContact] {
        &self.tables.contacts
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

    /// Bring the repulsion list up to date for `positions` and count the
    /// pairs the kernel is about to stream. A pair inside 3σ now was
    /// within 3σ + `SKIN` at the build unless one of its beads has moved
    /// more than half the skin since (minimum-image distance obeys the
    /// triangle inequality), so only then, or on a new box, is the list
    /// rebuilt. A non-finite distance fails every comparison and so
    /// rebuilds, and is listed.
    fn refresh(&mut self, positions: &[Vec3], bx: &SimBox) {
        let (t, list) = (&self.tables, &mut self.list);
        list.updates += 1;
        let trigger2 = (0.5 * SKIN - ROUNDING_MARGIN).powi(2);
        let fresh = list.built_box == Some(*bx)
            && list.built_at.len() == positions.len()
            && positions
                .iter()
                .zip(&list.built_at)
                .all(|(&p, &q)| bx.dist2(p, q) <= trigger2);
        if !fresh {
            let reach2 = (3.0 * t.sigma_rep + SKIN).powi(2);
            list.pairs.clear();
            list.pairs.extend(t.rep_pairs.iter().filter(|&&(i, j)| {
                let r2 = bx.dist2(positions[i as usize], positions[j as usize]);
                r2 <= reach2 || r2.is_nan()
            }));
            list.built_at.clear();
            list.built_at.extend_from_slice(positions);
            list.built_box = Some(*bx);
            list.builds += 1;
        }
        self.pairs_evaluated += (t.contacts.len() + list.pairs.len()) as u64;
    }
}

impl Tables {
    /// Shared kernel for full and force-only evaluation. Force arithmetic
    /// is identical in both instantiations; `ENERGY = false` only drops
    /// the energy accumulation, so force-only forces are bitwise equal.
    /// One division per pair inside the cutoff. `rep_pairs` is a subset
    /// of the table's, in its order, holding every pair inside 3σ.
    fn eval<const ENERGY: bool>(
        &self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
        rep_pairs: &[(u32, u32)],
    ) -> f64 {
        match bx {
            SimBox::Open => self.eval_in::<ENERGY>(positions, |a, b| a - b, forces, rep_pairs),
            _ => self.eval_in::<ENERGY>(positions, |a, b| bx.displacement(a, b), forces, rep_pairs),
        }
    }

    /// [`Self::eval`] with the box's displacement chosen once, outside
    /// the pair loops: open space subtracts, as `SimBox::displacement`
    /// does for it.
    #[inline(always)]
    fn eval_in<const ENERGY: bool>(
        &self,
        positions: &[Vec3],
        displacement: impl Fn(Vec3, Vec3) -> Vec3,
        forces: &mut [Vec3],
        rep_pairs: &[(u32, u32)],
    ) -> f64 {
        let mut energy = 0.0;

        // Native contacts: V = ε [5 (rn/r)^12 - 6 (rn/r)^10].
        let eps60 = 60.0 * self.eps_contact;
        for c in &self.contacts {
            let dr = displacement(positions[c.i], positions[c.j]);
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
        // The pairs come in runs of one `i` (the table is built row by
        // row, with `j > i`), so bead i's force is held in a register
        // along its run: the same additions in the same order, without a
        // store and a reload per pair.
        let mut row = (usize::MAX, Vec3::ZERO);
        for &(i, j) in rep_pairs {
            let (i, j) = (i as usize, j as usize);
            if i != row.0 {
                if let Some(f) = forces.get_mut(row.0) {
                    *f = row.1;
                }
                row = (i, forces[i]);
            }
            let dr = displacement(positions[i], positions[j]);
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
            row.1 += f;
            forces[j] -= f;
        }
        if let Some(f) = forces.get_mut(row.0) {
            *f = row.1;
        }

        energy
    }
}

impl ForceTerm for GoModelForce {
    fn name(&self) -> &'static str {
        "go-model"
    }

    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        self.refresh(positions, bx);
        self.tables
            .eval::<true>(positions, bx, forces, &self.list.pairs)
    }

    fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        self.refresh(positions, bx);
        self.tables
            .eval::<false>(positions, bx, forces, &self.list.pairs);
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        let (t, list) = (&self.tables, &self.list);
        let pair = std::mem::size_of::<(u32, u32)>();
        Some(KernelStats {
            pairs_evaluated: self.pairs_evaluated,
            packed_bytes: ((t.rep_pairs.capacity() + list.pairs.capacity()) * pair
                + t.contacts.capacity() * std::mem::size_of::<GoContact>()
                + list.built_at.capacity() * std::mem::size_of::<Vec3>())
                as u64,
        })
    }

    fn neighbor_stats(&self) -> Option<(u64, u64)> {
        Some((self.list.builds, self.list.updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::tests::max_force_error;
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
        assert_eq!(go.tables.rep_pairs.len(), 0);
        assert_eq!(go.n_contacts(), 1);
    }

    #[test]
    fn repulsion_pushes_apart() {
        let mut go = GoModelForce::new(4, vec![], 3, 1.0, 1.0, 1.0);
        assert_eq!(go.tables.rep_pairs.len(), 1); // (0,3)
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

    /// `go`'s listed kernel against a scan of every repulsive pair, both
    /// evaluations and force-only, to the bit.
    fn assert_matches_full_scan(go: &mut GoModelForce, pos: &[Vec3], bx: &SimBox) {
        let bits = |f: &[Vec3]| -> Vec<[u64; 3]> {
            f.iter()
                .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .collect()
        };
        let mut want = vec![Vec3::ZERO; pos.len()];
        let tables = go.tables.clone();
        let e_want = tables.eval::<true>(pos, bx, &mut want, &tables.rep_pairs);
        let mut got = vec![Vec3::ZERO; pos.len()];
        let e_got = go.compute(pos, bx, &mut got);
        assert_eq!(e_got.to_bits(), e_want.to_bits());
        assert_eq!(bits(&got), bits(&want));
        let mut fast = vec![Vec3::ZERO; pos.len()];
        go.compute_force_only(pos, bx, &mut fast);
        assert_eq!(bits(&fast), bits(&want));
    }

    /// Along 10⁴ steps of a hot (T = 0.9, above the folding midpoint)
    /// HP35 Langevin run from an unfolded start, the buffered list gives
    /// the full scan's forces and energies at every step — in open space,
    /// in a periodic box small enough for images to interact, and with
    /// the box switching under one list — while skipping pairs and
    /// rebuilding only now and then.
    #[test]
    fn pair_list_changes_no_force_along_a_trajectory() {
        let model = crate::VillinModel::hp35();
        let mut sim = model.simulation(model.unfolded_start(3), 0.9, 17);
        let (open, ortho) = (SimBox::Open, SimBox::ortho(24.0, 26.0, 28.0));
        let mut go_open = model.go_force();
        let mut go_ortho = model.go_force();
        let mut go_switching = model.go_force();
        let steps = 10_000u64;
        sim.run_fast_with_sink(steps, &copernicus_telemetry::NullSink, |step, state| {
            let pos = &state.positions;
            assert_matches_full_scan(&mut go_open, pos, &open);
            assert_matches_full_scan(&mut go_ortho, pos, &ortho);
            let bx = if (step / 500) % 2 == 0 { open } else { ortho };
            assert_matches_full_scan(&mut go_switching, pos, &bx);
        });
        let t = &go_open.tables;
        let scan = (t.contacts.len() + t.rep_pairs.len()) as u64;
        for (go, name) in [(&go_open, "open"), (&go_ortho, "ortho")] {
            let (builds, updates) = go.neighbor_stats().unwrap();
            assert_eq!(updates, 2 * steps);
            assert!(
                (10..steps / 10).contains(&builds),
                "{name}: {builds} builds in {steps} steps"
            );
            let streamed = go.kernel_stats().unwrap().pairs_evaluated;
            assert!(
                streamed < 2 * steps * scan * 3 / 4,
                "{name}: streamed {streamed} of {} pairs",
                2 * steps * scan
            );
        }
        let (builds, _) = go_switching.neighbor_stats().unwrap();
        assert!(builds >= 20, "every box switch rebuilds: {builds}");
    }

    /// A non-finite position fails every distance comparison: the list
    /// rebuilds and keeps the pair, and the kernel's NaNs are the scan's.
    #[test]
    fn non_finite_positions_are_listed() {
        let mut go = GoModelForce::new(5, vec![], 3, 1.0, 1.0, 1.0);
        let mut pos = vec![
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(2.0, 0.0, 0.0),
            v3(2.5, 0.0, 0.0),
            v3(40.0, 0.0, 0.0),
        ];
        assert_matches_full_scan(&mut go, &pos, &SimBox::Open);
        assert_eq!(go.list.pairs, vec![(0, 3)]);
        pos[4].x = f64::NAN;
        assert_matches_full_scan(&mut go, &pos, &SimBox::Open);
        assert_eq!(go.list.pairs, vec![(0, 3), (0, 4), (1, 4)]);
        let mut f = vec![Vec3::ZERO; 5];
        go.compute(&pos, &SimBox::Open, &mut f);
        assert!(f[0].x.is_nan() && f[3].x.is_finite());
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
