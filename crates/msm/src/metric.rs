//! Structural metrics: optimal-superposition (Kabsch) RMSD.
//!
//! The paper scores conformations by Cα RMSD to the 2F4K native structure;
//! this module provides that metric. The optimal rotation is found with
//! Horn's quaternion method (equivalent to Kabsch SVD but reflection-safe):
//! the largest eigenvalue of a 4×4 symmetric matrix built from the
//! coordinate cross-covariance.

use crate::linalg::{jacobi_eigen_sym, largest_eigenvalue_sym4, Mat3};
use mdsim::vec3::Vec3;

/// Centroid of a point set.
pub fn centroid(points: &[Vec3]) -> Vec3 {
    assert!(!points.is_empty(), "cannot take centroid of no points");
    points.iter().copied().sum::<Vec3>() / points.len() as f64
}

/// RMSD without alignment (both sets taken as-is).
pub fn rmsd_raw(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len(), "point sets must have equal size");
    let ss: f64 = a.iter().zip(b).map(|(p, q)| p.dist2(*q)).sum();
    (ss / a.len() as f64).sqrt()
}

/// Horn's 4×4 quaternion matrix from the cross-covariance of two centered
/// point sets, plus the two radii of gyration terms (Ga, Gb).
fn horn_matrix(a: &[Vec3], b: &[Vec3]) -> ([[f64; 4]; 4], f64, f64) {
    let ca = centroid(a);
    let cb = centroid(b);
    let mut m = [[0.0f64; 3]; 3];
    let mut ga = 0.0;
    let mut gb = 0.0;
    for (p0, q0) in a.iter().zip(b) {
        let p = *p0 - ca;
        let q = *q0 - cb;
        ga += p.norm2();
        gb += q.norm2();
        let pa = p.as_array();
        let qa = q.as_array();
        for (i, &pi) in pa.iter().enumerate() {
            for (j, &qj) in qa.iter().enumerate() {
                m[i][j] += pi * qj;
            }
        }
    }
    let (sxx, sxy, sxz) = (m[0][0], m[0][1], m[0][2]);
    let (syx, syy, syz) = (m[1][0], m[1][1], m[1][2]);
    let (szx, szy, szz) = (m[2][0], m[2][1], m[2][2]);
    let k = [
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ];
    (k, ga, gb)
}

/// Minimum RMSD between two conformations over all rigid-body
/// superpositions (rotation + translation).
pub fn rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len(), "point sets must have equal size");
    assert!(!a.is_empty());
    let (k, ga, gb) = horn_matrix(a, b);
    let lambda_max = largest_eigenvalue_sym4(k);
    let msd = ((ga + gb - 2.0 * lambda_max) / a.len() as f64).max(0.0);
    msd.sqrt()
}

/// Optimal rotation matrix that superposes `mobile` (centered) onto
/// `target` (centered), i.e. minimizes `Σ |R·(m−cm) − (t−ct)|²`.
pub fn optimal_rotation(target: &[Vec3], mobile: &[Vec3]) -> Mat3 {
    let (k, _, _) = horn_matrix(target, mobile);
    let (_, vecs) = jacobi_eigen_sym(&k.map(Vec::from));
    let q = &vecs[0];
    // Horn's quaternion rotates `mobile` into `target`'s frame; the matrix
    // built from the conjugate quaternion performs the forward rotation.
    Mat3::from_quaternion([q[0], -q[1], -q[2], -q[3]])
}

/// Return a copy of `mobile` rigid-body superposed onto `target`.
pub fn superpose(target: &[Vec3], mobile: &[Vec3]) -> Vec<Vec3> {
    assert_eq!(target.len(), mobile.len());
    let ct = centroid(target);
    let cm = centroid(mobile);
    let r = optimal_rotation(target, mobile);
    mobile.iter().map(|&p| r.mul_vec(p - cm) + ct).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::rng::{rng_from_seed, sample_normal};
    use mdsim::vec3::v3;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| {
                v3(
                    sample_normal(&mut rng) * 3.0,
                    sample_normal(&mut rng) * 3.0,
                    sample_normal(&mut rng) * 3.0,
                )
            })
            .collect()
    }

    fn rotate_z(points: &[Vec3], angle: f64) -> Vec<Vec3> {
        let (s, c) = angle.sin_cos();
        points
            .iter()
            .map(|p| v3(c * p.x - s * p.y, s * p.x + c * p.y, p.z))
            .collect()
    }

    #[test]
    fn identical_sets_have_zero_rmsd() {
        let a = random_points(20, 1);
        assert!(rmsd(&a, &a) < 1e-10);
        assert!(rmsd_raw(&a, &a) < 1e-12);
    }

    #[test]
    fn rmsd_is_invariant_to_rotation_and_translation() {
        let a = random_points(30, 2);
        let mut b = rotate_z(&a, 1.1);
        for p in b.iter_mut() {
            *p += v3(5.0, -3.0, 2.0);
        }
        assert!(rmsd_raw(&a, &b) > 1.0, "raw RMSD should see the transform");
        assert!(rmsd(&a, &b) < 1e-9, "aligned RMSD should vanish");
    }

    #[test]
    fn rmsd_is_symmetric() {
        let a = random_points(25, 3);
        let b = random_points(25, 4);
        let d_ab = rmsd(&a, &b);
        let d_ba = rmsd(&b, &a);
        assert!((d_ab - d_ba).abs() < 1e-9, "{d_ab} vs {d_ba}");
        assert!(d_ab > 0.0);
    }

    #[test]
    fn rmsd_upper_bounded_by_raw() {
        for seed in 0..5 {
            let a = random_points(15, seed);
            let b = random_points(15, seed + 100);
            assert!(rmsd(&a, &b) <= rmsd_raw(&a, &b) + 1e-9);
        }
    }

    #[test]
    fn known_displacement_rmsd() {
        // Two points displaced by d have raw RMSD d; after alignment the
        // best superposition is exact for congruent pairs.
        let a = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let b = vec![v3(0.0, 1.0, 0.0), v3(1.0, 1.0, 0.0)];
        assert!((rmsd_raw(&a, &b) - 1.0).abs() < 1e-12);
        assert!(rmsd(&a, &b) < 1e-9);
    }

    #[test]
    fn superpose_aligns_exactly_for_congruent_sets() {
        let a = random_points(40, 5);
        let mut b = rotate_z(&a, -0.7);
        for p in b.iter_mut() {
            *p += v3(-2.0, 8.0, 1.0);
        }
        let aligned = superpose(&a, &b);
        assert!(rmsd_raw(&a, &aligned) < 1e-9);
    }

    #[test]
    fn superpose_improves_noisy_alignment() {
        let a = random_points(40, 6);
        let mut rng = rng_from_seed(7);
        let mut b = rotate_z(&a, 0.4);
        for p in b.iter_mut() {
            *p += v3(
                0.1 * rng.next_f64(),
                0.1 * rng.next_f64(),
                0.1 * rng.next_f64(),
            );
        }
        let aligned = superpose(&a, &b);
        assert!(rmsd_raw(&a, &aligned) <= rmsd_raw(&a, &b));
        // Aligned raw RMSD equals the rotational-minimum RMSD.
        assert!((rmsd_raw(&a, &aligned) - rmsd(&a, &b)).abs() < 1e-6);
    }

    #[test]
    fn reflection_is_not_matched() {
        // A mirrored chiral set cannot be superposed by a proper rotation:
        // RMSD must stay > 0.
        let a = vec![
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(0.0, 1.0, 0.0),
            v3(0.0, 0.0, 1.0),
            v3(1.0, 1.0, 0.3),
        ];
        let b: Vec<Vec3> = a.iter().map(|p| v3(p.x, p.y, -p.z)).collect();
        assert!(rmsd(&a, &b) > 0.1, "mirror image treated as congruent");
    }

    #[test]
    fn triangle_inequality_heuristic() {
        // RMSD after optimal superposition is a proper metric on shape
        // space; spot-check the triangle inequality.
        for seed in 0..5 {
            let a = random_points(12, seed);
            let b = random_points(12, seed + 50);
            let c = random_points(12, seed + 90);
            assert!(rmsd(&a, &c) <= rmsd(&a, &b) + rmsd(&b, &c) + 1e-9);
        }
    }
}
