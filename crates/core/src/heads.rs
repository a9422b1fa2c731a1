//! Output heads: energy, magmom, and FastCHGNet's Force/Stress heads
//! (§III-B "Model innovation"), plus the derivative-based outputs of the
//! reference model.

use crate::config::ModelConfig;
use crate::nn::Mlp;
use fc_crystal::{GraphBatch, EV_PER_A3_TO_GPA};
use fc_tensor::{GradMap, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;

/// Energy head: per-atom nonlinear projection summed per graph
/// ("The total energy is derived by summing up the nonlinear projections
/// of the final atomic features").
#[derive(Clone, Debug)]
pub struct EnergyHead {
    mlp: Mlp,
}

impl EnergyHead {
    /// Register parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, cfg: &ModelConfig) -> Self {
        let mlp = Mlp::new(store, rng, "head.energy", &[cfg.fea, cfg.fea, cfg.fea / 2, 1]);
        mlp.scale_final_layer(store, 0.05);
        EnergyHead { mlp }
    }

    /// Total energy per graph `(G, 1)` in eV. `fused` as in
    /// [`Mlp::forward`].
    pub fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        v: Var,
        batch: &GraphBatch,
        fused: bool,
    ) -> Var {
        let site_e = self.mlp.forward(tape, store, v, fused);
        let energy = tape.segment_sum(site_e, batch.atom_graph.clone(), batch.n_graphs);
        tape.release(&[site_e]);
        energy
    }
}

/// Magnetic-moment head: per-atom projection of the final atom features
/// (CHGNet's charge-informed output).
#[derive(Clone, Debug)]
pub struct MagmomHead {
    mlp: Mlp,
}

impl MagmomHead {
    /// Register parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, cfg: &ModelConfig) -> Self {
        let mlp = Mlp::new(store, rng, "head.magmom", &[cfg.fea, cfg.fea / 2, 1]);
        mlp.scale_final_layer(store, 0.05);
        MagmomHead { mlp }
    }

    /// Per-atom magnetic moments `(N, 1)` in μ_B. `fused` as in
    /// [`Mlp::forward`].
    pub fn forward(&self, tape: &Tape, store: &ParamStore, v: Var, fused: bool) -> Var {
        self.mlp.forward(tape, store, v, fused)
    }
}

/// FastCHGNet Force head (Eq. 7, Fig. 2(c)):
/// `n_ij = MLP(e_ij)` (a scalar magnitude) and `F_i = Σ_j n_ij · x_ij`.
///
/// Because `n_ij` is an invariant scalar and `x_ij` rotates with the
/// structure, the head is rotation-equivariant (Eq. 8) — verified by a
/// property test in `crate::model`.
#[derive(Clone, Debug)]
pub struct ForceHead {
    mlp: Mlp,
}

impl ForceHead {
    /// Register parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, cfg: &ModelConfig) -> Self {
        let mlp = Mlp::new(store, rng, "head.force", &[cfg.fea, cfg.fea, 1]);
        mlp.scale_final_layer(store, 0.05);
        ForceHead { mlp }
    }

    /// Per-atom forces `(N, 3)` in eV/Å, aggregated from bond
    /// contributions into the source atom. `fused` as in [`Mlp::forward`].
    pub fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        e: Var,
        bond_vec: Var,
        batch: &GraphBatch,
        fused: bool,
    ) -> Var {
        let n = self.mlp.forward(tape, store, e, fused);
        let contrib = tape.mul(bond_vec, n);
        let forces = tape.segment_sum(contrib, batch.bond_i.clone(), batch.n_atoms);
        tape.release(&[n, contrib]);
        forces
    }
}

/// FastCHGNet Stress head (Eq. 9, Fig. 2(d)): per-atom 3x3 coefficients
/// gated by the lattice-direction outer-product matrix
/// `Σ_ij l̂_i ⊗ l̂_j`, scaled by a learnable scalar.
#[derive(Clone, Debug)]
pub struct StressHead {
    mlp: Mlp,
    scale: ParamId,
}

impl StressHead {
    /// Register parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, cfg: &ModelConfig) -> Self {
        let mlp = Mlp::new(store, rng, "head.stress", &[cfg.fea, cfg.fea, 9]);
        mlp.scale_final_layer(store, 0.05);
        StressHead { mlp, scale: store.add("head.stress.scale", Tensor::scalar(0.1)) }
    }

    /// Per-graph stress `(3G, 3)` in GPa. `fused` as in [`Mlp::forward`].
    pub fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        v: Var,
        batch: &GraphBatch,
        fused: bool,
    ) -> Var {
        let coeff = self.mlp.forward(tape, store, v, fused);
        let per_graph = tape.segment_sum(coeff, batch.atom_graph.clone(), batch.n_graphs);
        // Lattice normal-direction outer products, constant per graph.
        let normals = tape.constant(lattice_outer_matrix(batch));
        let scale = tape.param(store, self.scale);
        let outer = tape.mul(per_graph, normals);
        let gated = tape.mul(outer, scale);
        let stress = tape.reshape(gated, batch.n_graphs * 3, 3);
        tape.release(&[coeff, per_graph, normals, outer, gated]);
        stress
    }
}

/// `(G, 9)` matrix whose row g flattens `Σ_ij l̂_i ⊗ l̂_j` of graph g.
fn lattice_outer_matrix(batch: &GraphBatch) -> Tensor {
    let mut out = Tensor::pooled_zeros(batch.n_graphs, 9);
    for g in 0..batch.n_graphs {
        // Normalised lattice rows.
        let mut lhat = [[0.0f32; 3]; 3];
        for (i, lrow) in lhat.iter_mut().enumerate() {
            let row = batch.lattices.row(g * 3 + i);
            let n = (row[0] * row[0] + row[1] * row[1] + row[2] * row[2]).sqrt().max(1e-12);
            for (k, l) in lrow.iter_mut().enumerate() {
                *l = row[k] / n;
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                for a in 0..3 {
                    for b in 0..3 {
                        *out.at_mut(g, a * 3 + b) += lhat[i][a] * lhat[j][b];
                    }
                }
            }
        }
    }
    out
}

/// Reference-model outputs: differentiate the total energy with respect to
/// positions and strain (`F = -∂E/∂x`, `σ = (1/V) ∂E/∂ε`), leaving the
/// gradient graph on the tape (`create_graph`) so the training loss can be
/// differentiated again.
pub struct DerivativeOutputs {
    /// Forces `(N, 3)` eV/Å.
    pub forces: Var,
    /// Stress `(3G, 3)` GPa.
    pub stress: Var,
    /// The grad map of the energy backward pass.
    pub grads: GradMap,
}

/// Differentiate `energy` (shape `(G,1)`) through the tape.
pub fn derivative_outputs(
    tape: &Tape,
    energy: Var,
    positions: Var,
    strain: Var,
    batch: &GraphBatch,
) -> DerivativeOutputs {
    let grads = tape.backward(energy);
    let de_dx = grads.get(positions).expect("energy must depend on positions");
    let forces = tape.neg(de_dx);
    let de_de = grads.get(strain).expect("energy must depend on strain");
    // σ_g = dE/dε_g / V_g, converted to GPa.
    let mut inv_v = Tensor::pooled_zeros(batch.n_graphs * 3, 1);
    for (g, &v) in batch.volumes.iter().enumerate() {
        let w = (EV_PER_A3_TO_GPA / v) as f32;
        for k in 0..3 {
            *inv_v.at_mut(g * 3 + k, 0) = w;
        }
    }
    let scale = tape.constant(inv_v);
    let stress = tape.mul(de_de, scale);
    DerivativeOutputs { forces, stress, grads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use fc_crystal::{CrystalGraph, Element, Lattice, Structure};
    use fc_tensor::init;
    use rand::SeedableRng;

    fn batch() -> GraphBatch {
        let g = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        ));
        let g2 = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.1),
            vec![Element::new(26)],
            vec![[0.0; 3]],
        ));
        GraphBatch::collate(&[&g, &g2], None)
    }

    #[test]
    fn energy_head_sums_per_graph() {
        let b = batch();
        let cfg = ModelConfig::tiny(OptLevel::Decoupled);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let head = EnergyHead::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let v = tape.constant(init::normal(&mut rng, b.n_atoms, cfg.fea, 0.0, 1.0));
        let e = head.forward(&tape, &store, v, &b, true);
        assert_eq!(tape.shape(e), fc_tensor::Shape::new(2, 1));
    }

    #[test]
    fn force_head_shape_and_aggregation() {
        let b = batch();
        let cfg = ModelConfig::tiny(OptLevel::Decoupled);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let head = ForceHead::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let e = tape.constant(init::normal(&mut rng, b.n_bonds, cfg.fea, 0.0, 1.0));
        let bv = tape.constant(b.bond_image.clone()); // any (B,3) stand-in
        let f = head.forward(&tape, &store, e, bv, &b, true);
        assert_eq!(tape.shape(f), fc_tensor::Shape::new(b.n_atoms, 3));
    }

    #[test]
    fn stress_head_shape_and_symmetric_gate() {
        let b = batch();
        let cfg = ModelConfig::tiny(OptLevel::Decoupled);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let head = StressHead::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let v = tape.constant(init::normal(&mut rng, b.n_atoms, cfg.fea, 0.0, 1.0));
        let s = head.forward(&tape, &store, v, &b, true);
        assert_eq!(tape.shape(s), fc_tensor::Shape::new(6, 3));
        assert!(tape.value(s).all_finite());
    }

    #[test]
    fn lattice_outer_matrix_is_symmetric() {
        let b = batch();
        let m = lattice_outer_matrix(&b);
        for g in 0..b.n_graphs {
            for a in 0..3 {
                for c in 0..3 {
                    assert!((m.at(g, a * 3 + c) - m.at(g, c * 3 + a)).abs() < 1e-5);
                }
            }
        }
        // Cubic lattice: Σ l̂_i ⊗ l̂_j = ones? No — identity directions:
        // diag entries 1, off-diag symmetric contributions only from the
        // cross terms, which vanish for orthogonal axes... except i≠j
        // terms produce e_a ⊗ e_b. Check diag = 1.
        for d in 0..3 {
            assert!((m.at(0, d * 3 + d) - 1.0).abs() < 1e-5);
        }
    }
}
