//! Small dense linear algebra: symmetric Jacobi eigensolver and a 3×3
//! matrix type, used by the Kabsch/Horn superposition code.

use mdsim::vec3::Vec3;

/// Row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3(pub [[f64; 3]; 3]);

impl Mat3 {
    pub const IDENTITY: Mat3 = Mat3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);

    pub fn zeros() -> Mat3 {
        Mat3([[0.0; 3]; 3])
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.0[0][0] * v.x + self.0[0][1] * v.y + self.0[0][2] * v.z,
            self.0[1][0] * v.x + self.0[1][1] * v.y + self.0[1][2] * v.z,
            self.0[2][0] * v.x + self.0[2][1] * v.y + self.0[2][2] * v.z,
        )
    }

    pub fn transpose(&self) -> Mat3 {
        let m = &self.0;
        Mat3([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    pub fn mul(&self, o: &Mat3) -> Mat3 {
        let mut r = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                for (k, ok) in o.0.iter().enumerate() {
                    r.0[i][j] += self.0[i][k] * ok[j];
                }
            }
        }
        r
    }

    pub fn det(&self) -> f64 {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Rotation matrix from a unit quaternion (w, x, y, z).
    pub fn from_quaternion(q: [f64; 4]) -> Mat3 {
        let [w, x, y, z] = q;
        Mat3([
            [
                w * w + x * x - y * y - z * z,
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                w * w - x * x + y * y - z * z,
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                w * w - x * x - y * y + z * z,
            ],
        ])
    }
}

/// Cyclic Jacobi rotations on the symmetric `n`×`n` matrix `a` (row-major),
/// in place, until its off-diagonal mass vanishes: the diagonal then holds
/// the eigenvalues, unsorted. Each rotation is also applied to the columns
/// of `v` when one is given; started from the identity, it ends holding
/// the eigenvectors as columns. Complexity is O(n³) per sweep.
fn jacobi_sweeps(a: &mut [f64], mut v: Option<&mut [f64]>, n: usize) {
    for _sweep in 0..100 {
        let mut off: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i * n + j] * a[i * n + j];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
                if let Some(v) = v.as_deref_mut() {
                    for k in 0..n {
                        let vp = v[k * n + p];
                        let vq = v[k * n + q];
                        v[k * n + p] = c * vp - s * vq;
                        v[k * n + q] = s * vp + c * vq;
                    }
                }
            }
        }
    }
}

/// Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors as columns,
/// sorted by descending eigenvalue. Intended for tiny matrices.
pub fn jacobi_eigen_sym(matrix: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = matrix.len();
    for row in matrix {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut a: Vec<f64> = matrix.concat();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    jacobi_sweeps(&mut a, Some(&mut v), n);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[j * n + j].partial_cmp(&a[i * n + i]).unwrap());
    let eigenvalues: Vec<f64> = order.iter().map(|&i| a[i * n + i]).collect();
    let eigenvectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&col| (0..n).map(|row| v[row * n + col]).collect())
        .collect();
    (eigenvalues, eigenvectors)
}

/// Largest eigenvalue of a symmetric 4×4 matrix (the quaternion matrix of
/// Horn's method): the rotations of [`jacobi_eigen_sym`], so the same
/// value to the bit, without its eigenvectors or any heap allocation —
/// the controller calls this ~100 times per returned MD command.
pub fn largest_eigenvalue_sym4(mut k: [[f64; 4]; 4]) -> f64 {
    jacobi_sweeps(k.as_flattened_mut(), None, 4);
    (0..4).map(|i| k[i][i]).fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::vec3::v3;

    #[test]
    fn identity_and_products() {
        let m = Mat3([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 1.0]]);
        let i = Mat3::IDENTITY;
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
        assert_eq!(i.mul_vec(v3(1.0, 2.0, 3.0)), v3(1.0, 2.0, 3.0));
    }

    #[test]
    fn determinant() {
        assert_eq!(Mat3::IDENTITY.det(), 1.0);
        let swap = Mat3([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]);
        assert_eq!(swap.det(), -1.0);
    }

    #[test]
    fn quaternion_rotation_is_orthonormal() {
        // 90° about z: q = (cos45, 0, 0, sin45).
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let r = Mat3::from_quaternion([s, 0.0, 0.0, s]);
        let rx = r.mul_vec(v3(1.0, 0.0, 0.0));
        assert!((rx - v3(0.0, 1.0, 0.0)).norm() < 1e-12);
        assert!((r.det() - 1.0).abs() < 1e-12);
        let rtr = r.transpose().mul(&r);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((rtr.0[i][j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let m = vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ];
        let (vals, vecs) = jacobi_eigen_sym(&m);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
        // First eigenvector is e_x (up to sign).
        assert!(vecs[0][0].abs() > 0.999);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let (vals, vecs) = jacobi_eigen_sym(&m);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // Eigenvector for 3 is (1,1)/√2.
        assert!((vecs[0][0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let m = vec![
            vec![4.0, 1.0, -2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.5],
            vec![-2.0, 0.0, 5.0, 1.0],
            vec![0.5, 1.5, 1.0, 2.0],
        ];
        let (vals, vecs) = jacobi_eigen_sym(&m);
        // Check A v = λ v for every pair.
        for (lambda, vec_) in vals.iter().zip(&vecs) {
            for i in 0..4 {
                let av: f64 = (0..4).map(|j| m[i][j] * vec_[j]).sum();
                assert!(
                    (av - lambda * vec_[i]).abs() < 1e-9,
                    "eigenpair violated: λ={lambda}"
                );
            }
        }
        // Trace preserved.
        let trace: f64 = vals.iter().sum();
        assert!((trace - 14.0).abs() < 1e-9);

        // The eigenvalue-only 4×4 path is the same computation.
        let k: [[f64; 4]; 4] = std::array::from_fn(|i| std::array::from_fn(|j| m[i][j]));
        assert_eq!(largest_eigenvalue_sym4(k), vals[0]);
    }
}
