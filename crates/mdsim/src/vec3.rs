//! Minimal 3-vector used throughout the MD engine.
//!
//! The type is deliberately a plain `#[repr(C)]` struct of three `f64`s so
//! slices of positions/velocities/forces are contiguous and the inner force
//! loops auto-vectorize (the "SIMD kernel" tier of the paper's Fig. 6).

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-component double-precision vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// Shorthand constructor.
#[inline]
pub const fn v3(x: f64, y: f64, z: f64) -> Vec3 {
    Vec3 { x, y, z }
}

impl Vec3 {
    pub const ZERO: Vec3 = v3(0.0, 0.0, 0.0);
    pub const ONE: Vec3 = v3(1.0, 1.0, 1.0);

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        v3(x, y, z)
    }

    /// A vector with all three components equal to `s`.
    #[inline]
    pub const fn splat(s: f64) -> Self {
        v3(s, s, s)
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        v3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Squared Euclidean norm. Preferred in cutoff tests: no `sqrt`.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Unit vector in the direction of `self`.
    ///
    /// Returns `Vec3::ZERO` for the zero vector rather than NaN, which is the
    /// safe behaviour for force routines dividing by a pair distance.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n2 = self.norm2();
        if n2 == 0.0 {
            Vec3::ZERO
        } else {
            self / n2.sqrt()
        }
    }

    /// Component-wise product.
    #[inline]
    pub fn hadamard(self, o: Vec3) -> Vec3 {
        v3(self.x * o.x, self.y * o.y, self.z * o.z)
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist2(self, o: Vec3) -> f64 {
        (self - o).norm2()
    }

    /// True if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Largest absolute component.
    #[inline]
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// Map each component through `f`.
    #[inline]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Vec3 {
        v3(f(self.x), f(self.y), f(self.z))
    }

    pub fn as_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    pub fn from_array(a: [f64; 3]) -> Vec3 {
        v3(a[0], a[1], a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        v3(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        v3(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        v3(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        v3(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        v3(self.x / s, self.y / s, self.z / s)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        self.x *= s;
        self.y *= s;
        self.z *= s;
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        self.x /= s;
        self.y /= s;
        self.z /= s;
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = v3(1.0, 2.0, 3.0);
        let b = v3(4.0, 5.0, 6.0);
        assert_eq!(a + b, v3(5.0, 7.0, 9.0));
        assert_eq!(b - a, v3(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, v3(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, v3(2.0, 2.5, 3.0));
        assert_eq!(-a, v3(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = v3(1.0, 0.0, 0.0);
        let y = v3(0.0, 1.0, 0.0);
        let z = v3(0.0, 0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        // anti-commutativity
        assert_eq!(x.cross(y), -(y.cross(x)));
    }

    #[test]
    fn norms() {
        let a = v3(3.0, 4.0, 0.0);
        assert_eq!(a.norm2(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let u = a.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn assign_ops() {
        let mut a = v3(1.0, 1.0, 1.0);
        a += v3(1.0, 2.0, 3.0);
        assert_eq!(a, v3(2.0, 3.0, 4.0));
        a -= v3(1.0, 1.0, 1.0);
        assert_eq!(a, v3(1.0, 2.0, 3.0));
        a *= 2.0;
        assert_eq!(a, v3(2.0, 4.0, 6.0));
        a /= 2.0;
        assert_eq!(a, v3(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing_and_sum() {
        let a = v3(7.0, 8.0, 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 8.0);
        assert_eq!(a[2], 9.0);
        let s: Vec3 = [a, a].into_iter().sum();
        assert_eq!(s, a * 2.0);
    }

    #[test]
    fn helpers() {
        let a = v3(-3.0, 2.0, 1.0);
        assert_eq!(a.max_abs(), 3.0);
        assert!(a.is_finite());
        assert!(!v3(f64::NAN, 0.0, 0.0).is_finite());
        assert_eq!(a.map(|c| c * c), v3(9.0, 4.0, 1.0));
        assert_eq!(a.hadamard(v3(2.0, 0.5, 1.0)), v3(-6.0, 1.0, 1.0));
        assert_eq!(Vec3::from_array(a.as_array()), a);
        assert_eq!(Vec3::splat(2.0), v3(2.0, 2.0, 2.0));
    }
}
