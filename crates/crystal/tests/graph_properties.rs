//! Property-based tests of the crystal substrate: neighbor lists, graphs
//! and the oracle, fuzzed over random cells.

use fc_crystal::{
    evaluate, neighbor_list, neighbor_list_cells, neighbor_list_exact, Angle, CrystalGraph,
    Element, GraphBatch, Lattice, Structure,
};
use fc_verify::check_cases;
use rand::rngs::StdRng;
use rand::Rng;

/// Cases per property.
const CASES: u64 = 12;

/// A sheared two-site cell: lattice constant in 3..5, species in 1..89,
/// second-site fractional offset in 0.3..0.7 and shear in -0.05..0.05.
fn random_cell(rng: &mut StdRng) -> Structure {
    let a = rng.gen_range(3.0f64..5.0);
    let z1 = rng.gen_range(1u8..89);
    let z2 = rng.gen_range(1u8..89);
    let f = rng.gen_range(0.3f64..0.7);
    let shear = rng.gen_range(-0.05f64..0.05);
    Structure::new(
        Lattice::new([a, shear * a, 0.0], [0.0, a, shear * a], [shear * a, 0.0, a]),
        vec![Element::new(z1), Element::new(z2)],
        vec![[0.05, 0.02, 0.03], [f, f, f]],
    )
}

#[test]
fn neighbor_list_is_symmetric_and_bounded() {
    check_cases(CASES, |rng| {
        let s = random_cell(rng);
        let cutoff = 5.0;
        let bonds = neighbor_list(&s, cutoff);
        for b in &bonds {
            assert!(b.r <= cutoff + 1e-9);
            assert!(b.r > 0.0);
            // The reverse directed bond exists (i<->j, negated image).
            let rev = bonds.iter().any(|o| {
                o.i == b.j
                    && o.j == b.i
                    && o.image == [-b.image[0], -b.image[1], -b.image[2]]
                    && (o.r - b.r).abs() < 1e-9
            });
            assert!(rev, "missing reverse bond for {b:?}");
        }
    });
}

#[test]
fn binned_bond_set_equals_exact_reference() {
    check_cases(CASES, |rng| {
        let a = rng.gen_range(2.5f64..6.0);
        let shear_ab = rng.gen_range(-0.2f64..0.2);
        let shear_bc = rng.gen_range(-0.2f64..0.2);
        let shear_ca = rng.gen_range(-0.2f64..0.2);
        let stretch_b = rng.gen_range(0.7f64..1.4);
        let stretch_c = rng.gen_range(0.7f64..1.4);
        let n_sites = rng.gen_range(1..24);
        let coords: Vec<[f64; 3]> = (0..n_sites)
            .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let cutoff = rng.gen_range(2.5f64..6.5);
        // Random skewed lattices and random site sets: the binned
        // search must reproduce the exact reference's bond set verbatim —
        // same bonds, same order, bitwise-equal geometry.
        let lat = Lattice::new(
            [a, shear_ab * a, 0.0],
            [0.0, stretch_b * a, shear_bc * a],
            [shear_ca * a, 0.0, stretch_c * a],
        );
        let species = vec![Element::new(14); coords.len()];
        let s = Structure::new(lat, species, coords);
        let cells = neighbor_list_cells(&s, cutoff);
        let exact = neighbor_list_exact(&s, cutoff);
        assert_eq!(cells.len(), exact.len(), "bond counts differ");
        let carts = s.cart_coords();
        for (c, e) in cells.iter().zip(&exact) {
            assert_eq!(c.i, e.i);
            assert_eq!(c.j, e.j);
            assert_eq!(c.image, e.image);
            assert_eq!(c.r.to_bits(), e.r.to_bits(), "r not bitwise equal");
            // The recomputed vector is the one the search cut by: its
            // length, formed as the search forms it, is `r` bitwise.
            let v = c.vector(&s.lattice, &carts);
            assert_eq!(v.map(f64::to_bits), e.vector(&s.lattice, &carts).map(f64::to_bits));
            let r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
            assert_eq!(r2.sqrt().to_bits(), c.r.to_bits(), "vector does not give r bitwise");
        }
    });
}

/// `θ_jik` of `a` from its two bond vectors.
fn theta(g: &CrystalGraph, a: &Angle) -> f64 {
    let (b1, b2) = (&g.bonds[a.b_ij as usize], &g.bonds[a.b_ik as usize]);
    let carts = g.structure.cart_coords();
    let (v1, v2) =
        (b1.vector(&g.structure.lattice, &carts), b2.vector(&g.structure.lattice, &carts));
    let dot: f64 = v1.iter().zip(&v2).map(|(x, y)| x * y).sum();
    (dot / (b1.r * b2.r)).clamp(-1.0, 1.0).acos()
}

#[test]
fn graph_angle_indices_are_valid() {
    check_cases(CASES, |rng| {
        let g = CrystalGraph::new(random_cell(rng));
        for a in &g.angles {
            assert!((a.b_ij as usize) < g.bonds.len());
            assert!((a.b_ik as usize) < g.bonds.len());
            assert_eq!(g.bonds[a.b_ij as usize].i, g.bonds[a.b_ik as usize].i);
            assert!(theta(&g, a).is_finite());
        }
    });
}

#[test]
fn oracle_is_translation_invariant() {
    check_cases(CASES, |rng| {
        let s = random_cell(rng);
        let dx = rng.gen_range(-1.0f64..1.0);
        let dy = rng.gen_range(-1.0f64..1.0);
        let e0 = evaluate(&s).energy;
        let mut moved = s.clone();
        let shift = vec![[dx, dy, 0.3]; s.n_atoms()];
        moved.displace_cart(&shift);
        let e1 = evaluate(&moved).energy;
        assert!((e0 - e1).abs() < 1e-7 * (1.0 + e0.abs()), "{e0} vs {e1}");
    });
}

#[test]
fn oracle_forces_vanish_in_net() {
    check_cases(CASES, |rng| {
        let l = evaluate(&random_cell(rng));
        for k in 0..3 {
            let net: f64 = l.forces.iter().map(|f| f[k]).sum();
            assert!(net.abs() < 1e-8, "net force {net}");
        }
    });
}

#[test]
fn collation_preserves_counts() {
    check_cases(CASES, |rng| {
        let g1 = CrystalGraph::new(random_cell(rng));
        let g2 = CrystalGraph::new(random_cell(rng));
        let batch = GraphBatch::collate(&[&g1, &g2], None);
        assert_eq!(batch.n_atoms, g1.n_atoms() + g2.n_atoms());
        assert_eq!(batch.n_bonds, g1.n_bonds() + g2.n_bonds());
        assert_eq!(batch.n_angles, g1.n_angles() + g2.n_angles());
        // All bond endpoints in range; graph ids consistent.
        for b in 0..batch.n_bonds {
            assert!((batch.bond_i[b] as usize) < batch.n_atoms);
            assert!((batch.bond_j[b] as usize) < batch.n_atoms);
            let gi = batch.bond_graph[b];
            assert_eq!(batch.atom_graph[batch.bond_i[b] as usize], gi);
            assert_eq!(batch.atom_graph[batch.bond_j[b] as usize], gi);
        }
    });
}

#[test]
fn supercell_energy_is_extensive() {
    check_cases(CASES, |rng| {
        let z = rng.gen_range(1u8..89);
        // A 1-atom cell vs its 2x1x1 supercell: energy doubles exactly.
        let a = 3.5;
        let unit = Structure::new(Lattice::cubic(a), vec![Element::new(z)], vec![[0.0; 3]]);
        let double = Structure::new(
            Lattice::orthorhombic(2.0 * a, a, a),
            vec![Element::new(z); 2],
            vec![[0.0; 3], [0.5, 0.0, 0.0]],
        );
        let e1 = evaluate(&unit).energy;
        let e2 = evaluate(&double).energy;
        assert!((2.0 * e1 - e2).abs() < 1e-6 * (1.0 + e2.abs()), "2x{e1} vs {e2}");
    });
}
