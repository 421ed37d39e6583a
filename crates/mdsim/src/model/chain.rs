//! Unfolded-conformation generators.
//!
//! The paper's villin runs start from nine *unfolded* conformations
//! (§3.1). These helpers produce extended and self-avoiding random-coil
//! chains with prescribed bond lengths, which the adaptive-sampling layer
//! uses as generation-0 starting structures.

use crate::rng::{sample_normal, SimRng};
use crate::vec3::{v3, Vec3};

/// A fully extended zig-zag chain in the xy-plane with the given bond
/// lengths (one per bond; `bond_lengths.len() + 1` beads).
pub fn extended_chain(bond_lengths: &[f64]) -> Vec<Vec3> {
    let n = bond_lengths.len() + 1;
    let mut pos = Vec::with_capacity(n);
    let mut cur = Vec3::ZERO;
    pos.push(cur);
    // Alternate ±25° off the x-axis so consecutive bonds are not collinear
    // (collinear geometry makes angle/dihedral terms singular).
    let tilt = 25.0_f64.to_radians();
    for (k, &b) in bond_lengths.iter().enumerate() {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        let dir = v3(tilt.cos(), sign * tilt.sin(), 0.0);
        cur += dir * b;
        pos.push(cur);
    }
    pos
}

/// A self-avoiding random coil: directions follow a persistent random walk
/// and any bead closer than `min_separation` to a previous non-neighbour
/// bead is re-drawn (up to a bounded number of attempts per bead).
pub fn self_avoiding_chain(
    bond_lengths: &[f64],
    min_separation: f64,
    rng: &mut SimRng,
) -> Vec<Vec3> {
    let n = bond_lengths.len() + 1;
    let mut pos: Vec<Vec3> = Vec::with_capacity(n);
    pos.push(Vec3::ZERO);
    let mut dir = random_unit(rng);
    for (k, &b) in bond_lengths.iter().enumerate() {
        let prev = pos[k];
        let mut placed = false;
        for _attempt in 0..200 {
            // Persistent walk: perturb the previous direction.
            let trial_dir = (dir
                + v3(
                    0.7 * sample_normal(rng),
                    0.7 * sample_normal(rng),
                    0.7 * sample_normal(rng),
                ))
            .normalized();
            let trial = prev + trial_dir * b;
            let clash = pos
                .iter()
                .take(k.saturating_sub(1)) // skip the direct predecessor
                .any(|&p| p.dist(trial) < min_separation);
            if !clash {
                pos.push(trial);
                dir = trial_dir;
                placed = true;
                break;
            }
        }
        if !placed {
            // Fall back to extending straight out — always clash-free for a
            // walk that got stuck in a pocket, since it moves away from the
            // centre of mass.
            let com: Vec3 = pos.iter().copied().sum::<Vec3>() / pos.len() as f64;
            let out = (prev - com).normalized();
            let out = if out == Vec3::ZERO {
                random_unit(rng)
            } else {
                out
            };
            pos.push(prev + out * b);
            dir = out;
        }
    }
    pos
}

pub(crate) fn random_unit(rng: &mut SimRng) -> Vec3 {
    loop {
        let v = v3(sample_normal(rng), sample_normal(rng), sample_normal(rng));
        if v.norm2() > 1e-12 {
            return v.normalized();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn extended_chain_has_exact_bond_lengths() {
        let bonds = vec![3.8; 34];
        let pos = extended_chain(&bonds);
        assert_eq!(pos.len(), 35);
        for i in 0..34 {
            let d = pos[i].dist(pos[i + 1]);
            assert!((d - 3.8).abs() < 1e-12, "bond {i}: {d}");
        }
    }

    #[test]
    fn extended_chain_is_extended() {
        let bonds = vec![3.8; 34];
        let pos = extended_chain(&bonds);
        let end_to_end = pos[0].dist(pos[34]);
        // cos(25°) ≈ 0.906: end-to-end ≈ 0.906 * contour length.
        assert!(end_to_end > 0.85 * 34.0 * 3.8, "end-to-end = {end_to_end}");
    }

    #[test]
    fn extended_chain_avoids_collinearity() {
        let bonds = vec![1.0; 10];
        let pos = extended_chain(&bonds);
        for i in 1..pos.len() - 1 {
            let a = (pos[i - 1] - pos[i]).normalized();
            let b = (pos[i + 1] - pos[i]).normalized();
            assert!(a.dot(b).abs() < 0.999, "collinear at bead {i}");
        }
    }

    #[test]
    fn self_avoiding_chain_respects_bond_lengths() {
        let bonds = vec![3.8; 34];
        let mut rng = rng_from_seed(9);
        let pos = self_avoiding_chain(&bonds, 4.0, &mut rng);
        assert_eq!(pos.len(), 35);
        for i in 0..34 {
            let d = pos[i].dist(pos[i + 1]);
            assert!((d - 3.8).abs() < 1e-9, "bond {i}: {d}");
        }
    }

    #[test]
    fn self_avoiding_chain_mostly_avoids_clashes() {
        let bonds = vec![3.8; 34];
        let mut rng = rng_from_seed(12);
        let pos = self_avoiding_chain(&bonds, 4.0, &mut rng);
        let mut clashes = 0;
        for i in 0..pos.len() {
            for j in (i + 2)..pos.len() {
                if pos[i].dist(pos[j]) < 4.0 {
                    clashes += 1;
                }
            }
        }
        // The fallback path may allow a handful; the walk must not be
        // collapsed.
        assert!(clashes <= 3, "too many steric clashes: {clashes}");
    }

    #[test]
    fn different_seeds_give_different_coils() {
        let bonds = vec![3.8; 20];
        let mut r1 = rng_from_seed(1);
        let mut r2 = rng_from_seed(2);
        let a = self_avoiding_chain(&bonds, 4.0, &mut r1);
        let b = self_avoiding_chain(&bonds, 4.0, &mut r2);
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_reproduces() {
        let bonds = vec![3.8; 20];
        let a = self_avoiding_chain(&bonds, 4.0, &mut rng_from_seed(33));
        let b = self_avoiding_chain(&bonds, 4.0, &mut rng_from_seed(33));
        assert_eq!(a, b);
    }
}
