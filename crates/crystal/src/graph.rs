//! Crystal graph construction: the atom graph `G^a` and bond graph `G^b`.
//!
//! Following §II-B of the paper: `G^a` has one node per atom and one
//! directed edge per neighbor pair within the atom cutoff (6 Å by default);
//! `G^b` reuses `G^a`'s edges as nodes and connects pairs of bonds that
//! share a central atom and are shorter than the bond cutoff (3 Å). The
//! angle `θ_jik` of such an edge is not stored: the model computes it from
//! the positions, on the tape.

use crate::neighbor::{neighbor_list, Bond};
use crate::structure::Structure;

/// Default atom-graph cutoff (Å), as in the paper's experiment setup.
pub const ATOM_CUTOFF: f64 = 6.0;
/// Default bond-graph cutoff (Å), as in the paper's experiment setup.
pub const BOND_CUTOFF: f64 = 3.0;

/// A three-body angle entry: an ordered pair of directed bonds
/// `(i→j, i→k)` sharing the central atom `i`. The angle `θ_jik` itself is
/// not stored: the model computes it from the positions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Angle {
    /// Index of bond `i→j` in the atom-graph bond list.
    pub b_ij: u32,
    /// Index of bond `i→k` in the atom-graph bond list.
    pub b_ik: u32,
}

/// The combined atom + bond graph of one crystal.
#[derive(Clone, Debug)]
pub struct CrystalGraph {
    /// The underlying structure.
    pub structure: Structure,
    /// Directed bonds within the atom cutoff.
    pub bonds: Vec<Bond>,
    /// Ordered bond pairs within the bond cutoff.
    pub angles: Vec<Angle>,
    /// Atom cutoff used (Å).
    pub atom_cutoff: f64,
    /// Bond cutoff used (Å).
    pub bond_cutoff: f64,
}

impl CrystalGraph {
    /// Build the graph with custom cutoffs.
    pub fn with_cutoffs(structure: Structure, atom_cutoff: f64, bond_cutoff: f64) -> Self {
        let bonds = neighbor_list(&structure, atom_cutoff);
        Self::from_bonds(structure, bonds, atom_cutoff, bond_cutoff)
    }

    /// Build the graph on `bonds`, the [`neighbor_list`] of `structure`
    /// within `atom_cutoff`: the angles are the only part left to build.
    pub fn from_bonds(
        structure: Structure,
        bonds: Vec<Bond>,
        atom_cutoff: f64,
        bond_cutoff: f64,
    ) -> Self {
        assert!(
            bond_cutoff <= atom_cutoff,
            "bond cutoff {bond_cutoff} must not exceed atom cutoff {atom_cutoff}"
        );
        let angles = build_angles(&structure, &bonds, bond_cutoff);
        CrystalGraph { structure, bonds, angles, atom_cutoff, bond_cutoff }
    }

    /// Build with the paper's default cutoffs (6 Å / 3 Å).
    pub fn new(structure: Structure) -> Self {
        Self::with_cutoffs(structure, ATOM_CUTOFF, BOND_CUTOFF)
    }

    /// Number of atoms `N_v`.
    pub fn n_atoms(&self) -> usize {
        self.structure.n_atoms()
    }

    /// Number of directed bonds `2 N_b`.
    pub fn n_bonds(&self) -> usize {
        self.bonds.len()
    }

    /// Number of angles `N_a`.
    pub fn n_angles(&self) -> usize {
        self.angles.len()
    }

    /// The paper's per-sample workload metric: atoms + bonds + angles
    /// (x-axis of Fig. 9).
    pub fn feature_number(&self) -> usize {
        self.n_atoms() + self.n_bonds() + self.n_angles()
    }
}

/// Enumerate ordered pairs of sub-cutoff bonds sharing a central atom.
fn build_angles(structure: &Structure, bonds: &[Bond], bond_cutoff: f64) -> Vec<Angle> {
    // Bucket short-bond indices by central atom.
    let mut by_center: Vec<Vec<u32>> = vec![Vec::new(); structure.n_atoms()];
    for (idx, b) in bonds.iter().enumerate() {
        if b.r < bond_cutoff {
            by_center[b.i as usize].push(idx as u32);
        }
    }
    let mut angles = Vec::new();
    for shorts in &by_center {
        for &bi in shorts {
            for &bk in shorts {
                if bi != bk {
                    angles.push(Angle { b_ij: bi, b_ik: bk });
                }
            }
        }
    }
    angles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::lattice::Lattice;

    /// `θ_jik` of `a` from its two bond vectors.
    fn theta(g: &CrystalGraph, a: &Angle) -> f64 {
        let (b1, b2) = (&g.bonds[a.b_ij as usize], &g.bonds[a.b_ik as usize]);
        let carts = g.structure.cart_coords();
        let (v1, v2) =
            (b1.vector(&g.structure.lattice, &carts), b2.vector(&g.structure.lattice, &carts));
        let dot: f64 = v1.iter().zip(&v2).map(|(x, y)| x * y).sum();
        (dot / (b1.r * b2.r)).clamp(-1.0, 1.0).acos()
    }

    fn rocksalt() -> Structure {
        // 2-atom rocksalt-ish cell.
        Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        )
    }

    #[test]
    fn graph_counts_consistent() {
        let g = CrystalGraph::new(rocksalt());
        assert_eq!(g.n_atoms(), 2);
        assert!(g.n_bonds() > 0);
        assert!(g.n_angles() > 0);
        assert_eq!(g.feature_number(), 2 + g.n_bonds() + g.n_angles());
    }

    #[test]
    fn angles_reference_short_bonds_only() {
        let g = CrystalGraph::new(rocksalt());
        for a in &g.angles {
            assert!(g.bonds[a.b_ij as usize].r < BOND_CUTOFF);
            assert!(g.bonds[a.b_ik as usize].r < BOND_CUTOFF);
            assert_eq!(g.bonds[a.b_ij as usize].i, g.bonds[a.b_ik as usize].i);
            let theta = theta(&g, a);
            assert!((0.0..=std::f64::consts::PI).contains(&theta));
            assert_ne!(a.b_ij, a.b_ik);
        }
    }

    #[test]
    fn angle_count_is_ordered_pairs() {
        let g = CrystalGraph::new(rocksalt());
        // Count short bonds per center; angles = Σ n(n-1).
        let mut per_center = std::collections::HashMap::new();
        for b in &g.bonds {
            if b.r < BOND_CUTOFF {
                *per_center.entry(b.i).or_insert(0usize) += 1;
            }
        }
        let expect: usize = per_center.values().map(|&n| n * (n - 1)).sum();
        assert_eq!(g.n_angles(), expect);
    }

    #[test]
    fn angle_symmetry() {
        // For each angle (b1, b2) the mirrored (b2, b1) exists with the
        // same theta.
        let g = CrystalGraph::new(rocksalt());
        for a in &g.angles {
            let found = g.angles.iter().any(|x| {
                x.b_ij == a.b_ik && x.b_ik == a.b_ij && (theta(&g, x) - theta(&g, a)).abs() < 1e-12
            });
            assert!(found);
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn invalid_cutoffs_panic() {
        let _ = CrystalGraph::with_cutoffs(rocksalt(), 3.0, 6.0);
    }

    #[test]
    fn linear_chain_angle_is_pi() {
        // Atom row along x with spacing 2.0: angles at each atom between
        // +x and -x neighbors are π.
        let s = Structure::new(
            Lattice::orthorhombic(2.0, 12.0, 12.0),
            vec![Element::new(6)],
            vec![[0.0; 3]],
        );
        let g = CrystalGraph::with_cutoffs(s, 6.0, 2.5);
        // Two short bonds (±x), two ordered angles, both π.
        assert_eq!(g.n_angles(), 2);
        for a in &g.angles {
            assert!((theta(&g, a) - std::f64::consts::PI).abs() < 1e-6);
        }
    }
}
