//! Structure output: Cα-trace PDB models.
//!
//! The real Copernicus moves Gromacs `.xtc`/`.gro` files between workers
//! and servers; this engine's structures are written as PDB so they can be
//! inspected with standard molecular viewers.

use crate::vec3::Vec3;
use std::fmt::Write as _;

/// Write a Cα-trace PDB model (one `CA` atom per bead, `ALA` residues,
/// chain `id`).
pub fn write_pdb(positions: &[Vec3], chain: char) -> String {
    let mut out = String::new();
    for (i, p) in positions.iter().enumerate() {
        writeln!(
            out,
            "ATOM  {:>5}  CA  ALA {}{:>4}    {:>8.3}{:>8.3}{:>8.3}  1.00  0.00           C",
            i + 1,
            chain,
            i + 1,
            p.x,
            p.y,
            p.z
        )
        .unwrap();
    }
    out.push_str("TER\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    #[test]
    fn pdb_text_is_pinned() {
        // Two chains of two beads, written as `fig3_folded_structure`
        // writes its native (A) and superposed (B) structures.
        let chain = [v3(0.0, 0.0, 0.0), v3(3.8, -1.25, 12.5)];
        let text = write_pdb(&chain, 'A') + &write_pdb(&chain, 'B');
        assert_eq!(
            text,
            concat!(
                "ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n",
                "ATOM      2  CA  ALA A   2       3.800  -1.250  12.500  1.00  0.00           C\n",
                "TER\n",
                "ATOM      1  CA  ALA B   1       0.000   0.000   0.000  1.00  0.00           C\n",
                "ATOM      2  CA  ALA B   2       3.800  -1.250  12.500  1.00  0.00           C\n",
                "TER\n",
            )
        );
    }
}
