//! Batch collation: packing many crystal graphs into flat device tensors.
//!
//! A batch concatenates atoms, bonds and angles of all member graphs with
//! global indices, exactly like the paper's Alg. 2 assembles `B_r_card`,
//! `B_L` and the block-diagonal `B_I`. Per-graph row ranges are kept so the
//! reference model can still iterate graph-by-graph (Alg. 1).

use crate::graph::CrystalGraph;
use crate::oracle::Labels;
use fc_tensor::{Shape, Tensor};
use std::sync::Arc;

/// Row ranges of one graph inside the batch's flat arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphRanges {
    /// `[start, end)` rows in the atom arrays.
    pub atoms: (usize, usize),
    /// `[start, end)` rows in the bond arrays.
    pub bonds: (usize, usize),
    /// `[start, end)` rows in the angle arrays.
    pub angles: (usize, usize),
}

/// Supervision targets for a collated batch.
#[derive(Clone, Debug)]
pub struct BatchLabels {
    /// Total energy per graph, `(G, 1)` eV.
    pub energy: Tensor,
    /// Atom count per graph, `(G, 1)`.
    pub n_atoms: Tensor,
    /// Forces, `(N_atoms, 3)` eV/Å.
    pub forces: Tensor,
    /// Stress rows, `(3G, 3)` GPa.
    pub stress: Tensor,
    /// Magnetic moments, `(N_atoms, 1)` μ_B.
    pub magmoms: Tensor,
}

/// A collated batch of crystal graphs ready for the models.
#[derive(Clone, Debug)]
pub struct GraphBatch {
    /// Number of member graphs `G`.
    pub n_graphs: usize,
    /// Total atoms across the batch.
    pub n_atoms: usize,
    /// Total directed bonds.
    pub n_bonds: usize,
    /// Total angles.
    pub n_angles: usize,

    /// Atomic numbers per atom row.
    pub atom_z: Vec<u8>,
    /// Graph id per atom row.
    pub atom_graph: Arc<[u32]>,
    /// Cartesian positions `(N_atoms, 3)` Å.
    pub positions: Tensor,

    /// Source atom (global index) per bond.
    pub bond_i: Arc<[u32]>,
    /// Destination atom (global index) per bond.
    pub bond_j: Arc<[u32]>,
    /// Graph id per bond row.
    pub bond_graph: Arc<[u32]>,
    /// Periodic image multipliers `(N_bonds, 3)`.
    pub bond_image: Tensor,
    /// Bond lengths `(N_bonds, 1)` Å (host-side copy, for samplers/stats).
    pub bond_r: Tensor,

    /// First bond (global index) per angle (`i → j`).
    pub angle_b1: Arc<[u32]>,
    /// Second bond (global index) per angle (`i → k`).
    pub angle_b2: Arc<[u32]>,
    /// Central atom (global index) per angle.
    pub angle_center: Arc<[u32]>,

    /// Stacked lattice rows `(3G, 3)` Å.
    pub lattices: Tensor,
    /// Graph id per lattice row (3 rows per graph).
    pub lattice_graph: Arc<[u32]>,
    /// Cell volumes (Å³), one per graph.
    pub volumes: Vec<f64>,

    /// Per-graph row ranges.
    pub ranges: Vec<GraphRanges>,
    /// Optional supervision labels.
    pub labels: Option<BatchLabels>,
}

impl GraphBatch {
    /// Collate graphs (optionally with oracle labels, paired by index).
    ///
    /// # Panics
    /// Panics on an empty slice or when `labels` is `Some` with a length
    /// different from `graphs`.
    pub fn collate(graphs: &[&CrystalGraph], labels: Option<&[&Labels]>) -> GraphBatch {
        assert!(!graphs.is_empty(), "cannot collate an empty batch");
        let _span = fc_telemetry::span("collate");
        fc_telemetry::counter_add("crystal.collated_graphs", graphs.len() as u64);
        if let Some(ls) = labels {
            assert_eq!(ls.len(), graphs.len(), "labels/graphs length mismatch");
        }
        let n_graphs = graphs.len();
        let n_atoms: usize = graphs.iter().map(|g| g.n_atoms()).sum();
        let n_bonds: usize = graphs.iter().map(|g| g.n_bonds()).sum();
        let n_angles: usize = graphs.iter().map(|g| g.n_angles()).sum();

        // f32 buffers that become Tensor storage come from the thread's
        // buffer pool so a recycled batch feeds the next collation; index
        // arrays stay on the ordinary heap (they end up in `Arc<[u32]>`).
        let mut atom_z = Vec::with_capacity(n_atoms);
        let mut atom_graph = Vec::with_capacity(n_atoms);
        let mut positions = fc_tensor::pool::with_capacity(n_atoms * 3);
        let mut bond_i = Vec::with_capacity(n_bonds);
        let mut bond_j = Vec::with_capacity(n_bonds);
        let mut bond_graph = Vec::with_capacity(n_bonds);
        let mut bond_image = fc_tensor::pool::with_capacity(n_bonds * 3);
        let mut bond_r = fc_tensor::pool::with_capacity(n_bonds);
        let mut angle_b1 = Vec::with_capacity(n_angles);
        let mut angle_b2 = Vec::with_capacity(n_angles);
        let mut angle_center = Vec::with_capacity(n_angles);
        let mut lattices = fc_tensor::pool::with_capacity(n_graphs * 9);
        let mut lattice_graph = Vec::with_capacity(n_graphs * 3);
        let mut volumes = Vec::with_capacity(n_graphs);
        let mut ranges = Vec::with_capacity(n_graphs);

        let (mut atom_off, mut bond_off, mut angle_off) = (0usize, 0usize, 0usize);
        for (gi, g) in graphs.iter().enumerate() {
            let s = &g.structure;
            for (&el, cart) in s.species.iter().zip(s.cart_coords()) {
                atom_z.push(el.z());
                atom_graph.push(gi as u32);
                positions.extend(cart.iter().map(|&x| x as f32));
            }
            for b in &g.bonds {
                bond_i.push(atom_off as u32 + b.i);
                bond_j.push(atom_off as u32 + b.j);
                bond_graph.push(gi as u32);
                bond_image.extend(b.image.iter().map(|&x| x as f32));
                bond_r.push(b.r as f32);
            }
            for a in &g.angles {
                angle_b1.push(bond_off as u32 + a.b_ij);
                angle_b2.push(bond_off as u32 + a.b_ik);
                angle_center.push(atom_off as u32 + g.bonds[a.b_ij as usize].i);
            }
            lattices.extend(s.lattice.to_f32_rows());
            lattice_graph.extend([gi as u32; 3]);
            volumes.push(s.volume());
            ranges.push(GraphRanges {
                atoms: (atom_off, atom_off + g.n_atoms()),
                bonds: (bond_off, bond_off + g.n_bonds()),
                angles: (angle_off, angle_off + g.n_angles()),
            });
            atom_off += g.n_atoms();
            bond_off += g.n_bonds();
            angle_off += g.n_angles();
        }

        let batch_labels = labels.map(|ls| {
            let mut energy = fc_tensor::pool::with_capacity(n_graphs);
            let mut counts = fc_tensor::pool::with_capacity(n_graphs);
            let mut forces = fc_tensor::pool::with_capacity(n_atoms * 3);
            let mut stress = fc_tensor::pool::with_capacity(n_graphs * 9);
            let mut magmoms = fc_tensor::pool::with_capacity(n_atoms);
            for (g, l) in graphs.iter().zip(ls) {
                energy.push(l.energy as f32);
                counts.push(g.n_atoms() as f32);
                for f in &l.forces {
                    forces.extend(f.iter().map(|&x| x as f32));
                }
                for row in &l.stress {
                    stress.extend(row.iter().map(|&x| x as f32));
                }
                magmoms.extend(l.magmoms.iter().map(|&m| m as f32));
            }
            BatchLabels {
                energy: Tensor::from_vec(Shape::new(n_graphs, 1), energy),
                n_atoms: Tensor::from_vec(Shape::new(n_graphs, 1), counts),
                forces: Tensor::from_vec(Shape::new(n_atoms, 3), forces),
                stress: Tensor::from_vec(Shape::new(n_graphs * 3, 3), stress),
                magmoms: Tensor::from_vec(Shape::new(n_atoms, 1), magmoms),
            }
        });

        GraphBatch {
            n_graphs,
            n_atoms,
            n_bonds,
            n_angles,
            atom_z,
            atom_graph: atom_graph.into(),
            positions: Tensor::from_vec(Shape::new(n_atoms, 3), positions),
            bond_i: bond_i.into(),
            bond_j: bond_j.into(),
            bond_graph: bond_graph.into(),
            bond_image: Tensor::from_vec(Shape::new(n_bonds, 3), bond_image),
            bond_r: Tensor::from_vec(Shape::new(n_bonds, 1), bond_r),
            angle_b1: angle_b1.into(),
            angle_b2: angle_b2.into(),
            angle_center: angle_center.into(),
            lattices: Tensor::from_vec(Shape::new(n_graphs * 3, 3), lattices),
            lattice_graph: lattice_graph.into(),
            volumes,
            ranges,
            labels: batch_labels,
        }
    }

    /// Return the batch's f32 tensor storage to the calling thread's
    /// buffer pool so the next [`GraphBatch::collate`] on this thread
    /// reuses it instead of allocating. Index arrays (`Arc<[u32]>`) and
    /// the `u8`/`f64` host vectors are not pooled.
    pub fn recycle(self) {
        use fc_tensor::pool;
        pool::release(self.positions.into_vec());
        pool::release(self.bond_image.into_vec());
        pool::release(self.bond_r.into_vec());
        pool::release(self.lattices.into_vec());
        if let Some(l) = self.labels {
            pool::release(l.energy.into_vec());
            pool::release(l.n_atoms.into_vec());
            pool::release(l.forces.into_vec());
            pool::release(l.stress.into_vec());
            pool::release(l.magmoms.into_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::lattice::Lattice;
    use crate::oracle::evaluate;
    use crate::structure::Structure;

    fn graph(a: f64, z: u8) -> CrystalGraph {
        CrystalGraph::new(Structure::new(
            Lattice::cubic(a),
            vec![Element::new(z), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        ))
    }

    #[test]
    fn collate_counts_and_offsets() {
        let g1 = graph(4.0, 3);
        let g2 = graph(4.4, 25);
        let b = GraphBatch::collate(&[&g1, &g2], None);
        assert_eq!(b.n_graphs, 2);
        assert_eq!(b.n_atoms, 4);
        assert_eq!(b.n_bonds, g1.n_bonds() + g2.n_bonds());
        assert_eq!(b.n_angles, g1.n_angles() + g2.n_angles());
        // Second graph's bonds index into its own atoms.
        let r2 = b.ranges[1];
        for bi in r2.bonds.0..r2.bonds.1 {
            assert!((b.bond_i[bi] as usize) >= r2.atoms.0);
            assert!((b.bond_i[bi] as usize) < r2.atoms.1);
        }
        // Angles of graph 2 reference bonds of graph 2.
        for ai in r2.angles.0..r2.angles.1 {
            assert!((b.angle_b1[ai] as usize) >= r2.bonds.0);
            assert!((b.angle_b2[ai] as usize) < r2.bonds.1);
        }
        assert_eq!(b.lattices.shape(), Shape::new(6, 3));
        assert_eq!(b.lattice_graph.as_ref(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(b.n_atoms + b.n_bonds + b.n_angles, g1.feature_number() + g2.feature_number());
    }

    #[test]
    fn collate_with_labels() {
        let g1 = graph(4.0, 3);
        let g2 = graph(4.4, 25);
        let l1 = evaluate(&g1.structure);
        let l2 = evaluate(&g2.structure);
        let b = GraphBatch::collate(&[&g1, &g2], Some(&[&l1, &l2]));
        let labels = b.labels.as_ref().unwrap();
        assert_eq!(labels.energy.shape(), Shape::new(2, 1));
        assert!((labels.energy.at(0, 0) as f64 - l1.energy).abs() < 1e-3);
        assert_eq!(labels.forces.shape(), Shape::new(4, 3));
        assert_eq!(labels.stress.shape(), Shape::new(6, 3));
        assert_eq!(labels.magmoms.shape(), Shape::new(4, 1));
        assert_eq!(labels.n_atoms.data(), &[2.0, 2.0]);
    }

    #[test]
    fn angle_centers_match_bonds() {
        let g = graph(4.0, 3);
        let b = GraphBatch::collate(&[&g], None);
        for ai in 0..b.n_angles {
            let b1 = b.angle_b1[ai] as usize;
            assert_eq!(b.bond_i[b1], b.angle_center[ai]);
        }
    }

    /// The nine pooled f32 buffers of a labelled batch, in `recycle` order,
    /// as bit patterns.
    fn pooled_bits(b: &GraphBatch) -> Vec<Vec<u32>> {
        let l = b.labels.as_ref().expect("labelled batch");
        [
            &b.positions,
            &b.bond_image,
            &b.bond_r,
            &b.lattices,
            &l.energy,
            &l.n_atoms,
            &l.forces,
            &l.stress,
            &l.magmoms,
        ]
        .iter()
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
    }

    #[test]
    fn recycled_buffers_feed_the_next_collate() {
        // Fresh thread => fresh thread-local pool, so the hit counts
        // below are not polluted by other tests.
        std::thread::spawn(|| {
            let g1 = graph(4.0, 3);
            let g2 = graph(4.4, 25);
            let l1 = evaluate(&g1.structure);
            let l2 = evaluate(&g2.structure);
            let reference = pooled_bits(&GraphBatch::collate(&[&g1, &g2], Some(&[&l1, &l2])));
            // The same graphs in the other order: every buffer has the
            // reference's length but other contents, which the next
            // collate must overwrite.
            let b1 = GraphBatch::collate(&[&g2, &g1], Some(&[&l2, &l1]));
            let stale = pooled_bits(&b1);
            let before = fc_tensor::pool::stats();
            b1.recycle();
            let b2 = GraphBatch::collate(&[&g1, &g2], Some(&[&l1, &l2]));
            let after = fc_tensor::pool::stats();
            // All nine f32 buffers (4 batch + 5 label) come back pooled.
            assert_eq!(after.hits - before.hits, 9, "expected every buffer to be reused");
            assert_eq!(after.misses, before.misses);
            // Reuse must not change the collated contents.
            for (k, (got, want)) in pooled_bits(&b2).iter().zip(&reference).enumerate() {
                assert_eq!(got, want, "recycled buffer {k} differs from a fresh collate");
            }
            assert_ne!(stale, reference, "the recycled batch must hold other values");
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = GraphBatch::collate(&[], None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn label_mismatch_panics() {
        let g = graph(4.0, 3);
        let l = evaluate(&g.structure);
        let _ = GraphBatch::collate(&[&g, &g], Some(&[&l]));
    }
}
