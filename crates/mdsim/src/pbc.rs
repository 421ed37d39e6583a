//! Periodic boundary conditions.
//!
//! The engine supports an orthorhombic (rectangular) box with full periodic
//! wrapping, plus an open (non-periodic) "box" used by the coarse-grained
//! folding models, where a molecule in vacuum needs no minimum-image
//! convention and the branch-free open-space path is measurably faster.

use crate::jsonv::Field;
use crate::vec3::{v3, Vec3};
use serde_json::{json, Value};

/// Simulation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimBox {
    /// No periodicity; distances are plain Euclidean distances.
    Open,
    /// Orthorhombic periodic box with edge lengths `l`.
    Ortho { l: Vec3 },
}

impl SimBox {
    /// Cubic periodic box with edge `l`.
    pub fn cubic(l: f64) -> SimBox {
        assert!(l > 0.0, "box edge must be positive, got {l}");
        SimBox::Ortho { l: Vec3::splat(l) }
    }

    /// Orthorhombic periodic box.
    pub fn ortho(lx: f64, ly: f64, lz: f64) -> SimBox {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive, got ({lx}, {ly}, {lz})"
        );
        SimBox::Ortho { l: v3(lx, ly, lz) }
    }

    pub fn is_periodic(&self) -> bool {
        matches!(self, SimBox::Ortho { .. })
    }

    /// Edge lengths; `None` for an open box.
    pub fn lengths(&self) -> Option<Vec3> {
        match self {
            SimBox::Open => None,
            SimBox::Ortho { l } => Some(*l),
        }
    }

    /// Box volume; `None` (infinite) for an open box.
    pub fn volume(&self) -> Option<f64> {
        self.lengths().map(|l| l.x * l.y * l.z)
    }

    /// Minimum-image displacement `a - b`.
    #[inline]
    pub fn displacement(&self, a: Vec3, b: Vec3) -> Vec3 {
        let d = a - b;
        match self {
            SimBox::Open => d,
            SimBox::Ortho { l } => v3(
                d.x - l.x * (d.x / l.x).round(),
                d.y - l.y * (d.y / l.y).round(),
                d.z - l.z * (d.z / l.z).round(),
            ),
        }
    }

    /// Minimum-image squared distance.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f64 {
        self.displacement(a, b).norm2()
    }

    /// Minimum-image distance.
    #[inline]
    pub fn dist(&self, a: Vec3, b: Vec3) -> f64 {
        self.dist2(a, b).sqrt()
    }

    /// Wrap a position into the primary cell `[0, L)` per dimension.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        match self {
            SimBox::Open => p,
            SimBox::Ortho { l } => v3(
                p.x - l.x * (p.x / l.x).floor(),
                p.y - l.y * (p.y / l.y).floor(),
                p.z - l.z * (p.z / l.z).floor(),
            ),
        }
    }

    /// The largest cutoff radius compatible with the minimum-image
    /// convention (half the shortest edge), or `f64::INFINITY` for an
    /// open box.
    pub fn max_cutoff(&self) -> f64 {
        match self {
            SimBox::Open => f64::INFINITY,
            SimBox::Ortho { l } => 0.5 * l.x.min(l.y).min(l.z),
        }
    }
}

/// `{"box": "open"}` or `{"box": "ortho", "l": [x, y, z]}` (decimal).
impl Field for SimBox {
    fn put(&self) -> Value {
        match self {
            SimBox::Open => json!({"box": "open"}),
            SimBox::Ortho { l } => json!({"box": "ortho", "l": [l.x, l.y, l.z]}),
        }
    }

    fn get(v: &Value) -> Result<SimBox, String> {
        match v.get("box").and_then(Value::as_str) {
            Some("open") => Ok(SimBox::Open),
            Some("ortho") => match Vec::<f64>::get(v.get("l").unwrap_or(&Value::Null))?[..] {
                [x, y, z] => Ok(SimBox::Ortho { l: v3(x, y, z) }),
                _ => Err("box lengths are not [x, y, z]".into()),
            },
            other => Err(format!("unknown box kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_box_is_euclidean() {
        let b = SimBox::Open;
        let a = v3(0.0, 0.0, 0.0);
        let c = v3(100.0, 0.0, 0.0);
        assert_eq!(b.dist(a, c), 100.0);
        assert_eq!(b.wrap(c), c);
        assert_eq!(b.volume(), None);
        assert!(!b.is_periodic());
        assert_eq!(b.max_cutoff(), f64::INFINITY);
    }

    #[test]
    fn minimum_image_cubic() {
        let b = SimBox::cubic(10.0);
        // Points near opposite faces are close through the boundary.
        let a = v3(0.5, 5.0, 5.0);
        let c = v3(9.5, 5.0, 5.0);
        assert!((b.dist(a, c) - 1.0).abs() < 1e-12);
        let d = b.displacement(a, c);
        assert!((d.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_into_primary_cell() {
        let b = SimBox::cubic(10.0);
        let p = v3(12.5, -0.5, 20.0);
        let w = b.wrap(p);
        assert!((w.x - 2.5).abs() < 1e-12);
        assert!((w.y - 9.5).abs() < 1e-12);
        assert!(w.z.abs() < 1e-12);
        // Wrapping is idempotent.
        assert_eq!(b.wrap(w), w);
    }

    #[test]
    fn wrap_preserves_distances() {
        let b = SimBox::ortho(8.0, 10.0, 12.0);
        let a = v3(7.9, 9.9, 11.9);
        let c = v3(0.1, 0.1, 0.1);
        let d_before = b.dist(a, c);
        let d_after = b.dist(b.wrap(a + v3(16.0, -20.0, 24.0)), c);
        assert!((d_before - d_after).abs() < 1e-9);
    }

    #[test]
    fn volume_and_cutoff() {
        let b = SimBox::ortho(2.0, 3.0, 4.0);
        assert_eq!(b.volume(), Some(24.0));
        assert_eq!(b.max_cutoff(), 1.0);
        assert_eq!(b.lengths(), Some(v3(2.0, 3.0, 4.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_edge() {
        let _ = SimBox::cubic(0.0);
    }
}
