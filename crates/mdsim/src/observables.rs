//! Pressure observables of pair systems: the virial pressure and the
//! Lennard-Jones pair virial that feeds it.

use crate::pbc::SimBox;
use crate::vec3::Vec3;

/// Instantaneous virial pressure of a pairwise-interacting system:
/// `P = (N kB T + W/3) / V` with the virial `W = Σ_pairs r·F` supplied
/// by the caller (force terms can accumulate it). Returns `None` for an
/// open (infinite-volume) box.
pub fn virial_pressure(
    n_particles: usize,
    kinetic_temperature: f64,
    virial: f64,
    sim_box: &SimBox,
) -> Option<f64> {
    let v = sim_box.volume()?;
    Some((n_particles as f64 * kinetic_temperature + virial / 3.0) / v)
}

/// Instantaneous pair virial `W = Σ_pairs r_ij · F_ij` for a
/// Lennard-Jones system evaluated directly from positions (shifted-LJ
/// forces match `NonbondedForce` with the shift on; the potential shift
/// does not change forces).
pub fn lj_pair_virial(
    positions: &[Vec3],
    sim_box: &SimBox,
    sigma: f64,
    epsilon: f64,
    cutoff: f64,
) -> f64 {
    let rc2 = cutoff * cutoff;
    let mut w = 0.0;
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            let dr = sim_box.displacement(positions[i], positions[j]);
            let r2 = dr.norm2();
            if r2 > rc2 || r2 == 0.0 {
                continue;
            }
            let sr2 = sigma * sigma / r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            // r·F = 24ε(2 sr12 − sr6).
            w += 24.0 * epsilon * (2.0 * sr12 - sr6);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    #[test]
    fn ideal_gas_pressure() {
        // No interactions (virial 0): P V = N kB T.
        let bx = SimBox::cubic(10.0);
        let p = virial_pressure(1000, 1.5, 0.0, &bx).unwrap();
        assert!((p - 1000.0 * 1.5 / 1000.0).abs() < 1e-12);
        assert!(virial_pressure(10, 1.0, 0.0, &SimBox::Open).is_none());
    }

    #[test]
    fn repulsive_pair_has_positive_virial() {
        // Two particles inside the repulsive wall push outward: W > 0,
        // raising the pressure above ideal-gas.
        let bx = SimBox::cubic(10.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let w = lj_pair_virial(&pos, &bx, 1.0, 1.0, 2.5);
        assert!(w > 0.0);
        let p = virial_pressure(2, 1.0, w, &bx).unwrap();
        assert!(p > 2.0 / 1000.0, "pressure should exceed ideal-gas");
        // A pair at the attractive minimum separation pulls inward
        // (negative virial) at r slightly beyond the minimum.
        let pos_far = vec![v3(0.0, 0.0, 0.0), v3(1.5, 0.0, 0.0)];
        assert!(lj_pair_virial(&pos_far, &bx, 1.0, 1.0, 2.5) < 0.0);
    }
}
