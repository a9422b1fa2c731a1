//! Feature embeddings (Eq. 2 of the paper):
//! `v⁰ = Z W_v`, `[e⁰, e^a, e^b] = L(sRBF(r))`, `a⁰ = L(FT(θ))`.

use crate::config::{ModelConfig, MAX_Z};
use crate::nn::Linear;
use fc_tensor::{init, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Bond feature triple produced by the embedding.
#[derive(Clone, Copy, Debug)]
pub struct BondFeatures {
    /// Bond features `e⁰` fed to the interaction blocks.
    pub e0: Var,
    /// Atom-conv bond weights `e^a` (Eq. 4).
    pub ea: Var,
    /// Bond-conv bond weights `e^b` (Eq. 5).
    pub eb: Var,
}

/// The embedding stage: atom embedding table plus the basis-to-feature
/// linears. In fused mode the three bond linears run as one packed GEMM
/// (Fig. 3(a), "linear layers sharing the same input can be fused ...
/// by weights concatenation").
#[derive(Clone, Debug)]
pub struct Embeddings {
    atom_table: ParamId,
    bond_pack: Linear,
    angle_lin: Linear,
    fea: usize,
}

impl Embeddings {
    /// Register embedding parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, cfg: &ModelConfig) -> Self {
        // Row z = embedding of atomic number z (row 0 unused).
        let atom_table =
            store.add("embedding.atom_table", init::normal(rng, MAX_Z + 1, cfg.fea, 0.0, 0.5));
        let bond_pack = Linear::new(store, rng, "embedding.bond_pack", cfg.n_rbf, 3 * cfg.fea);
        let angle_lin = Linear::new(store, rng, "embedding.angle_lin", cfg.n_abf(), cfg.fea);
        Embeddings { atom_table, bond_pack, angle_lin, fea: cfg.fea }
    }

    /// Initial atom features: one table row per atom, gathered by Z.
    pub fn atoms(&self, tape: &Tape, store: &ParamStore, atom_z: &[u8]) -> Var {
        let table = tape.param(store, self.atom_table);
        let idx: Arc<[u32]> = atom_z.iter().map(|&z| z as u32).collect::<Vec<_>>().into();
        tape.gather(table, idx)
    }

    /// Bond features from the radial basis. `fused` selects the packed
    /// single-GEMM path, one launch writing the three features
    /// ([`Tape::linear_split`]); the unfused path runs three separate
    /// linears on weight slices (the reference layout).
    pub fn bonds(&self, tape: &Tape, store: &ParamStore, rbf: Var, fused: bool) -> BondFeatures {
        let w = tape.param(store, self.bond_pack.weight_id());
        let b = tape.param(store, self.bond_pack.bias_id());
        let f = self.fea;
        if fused {
            let [e0, ea, eb] = tape.linear_split(rbf, w, b);
            BondFeatures { e0, ea, eb }
        } else {
            let mut outs = [None; 3];
            for (k, slot) in outs.iter_mut().enumerate() {
                let wk = tape.slice_cols(w, k * f, f);
                let bk = tape.slice_cols(b, k * f, f);
                *slot = Some(tape.add(tape.matmul(rbf, wk), bk));
            }
            BondFeatures { e0: outs[0].unwrap(), ea: outs[1].unwrap(), eb: outs[2].unwrap() }
        }
    }

    /// Angle features from the Fourier basis, the linear fused or not as
    /// in [`Linear::forward`].
    pub fn angles(&self, tape: &Tape, store: &ParamStore, abf: Var, fused: bool) -> Var {
        self.angle_lin.forward(tape, store, abf, fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use fc_tensor::{Shape, Tensor};
    use rand::SeedableRng;

    fn setup() -> (Embeddings, ParamStore, ModelConfig) {
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embeddings::new(&mut store, &mut rng, &cfg);
        (e, store, cfg)
    }

    #[test]
    fn atom_embedding_rows_depend_on_z() {
        let (e, store, cfg) = setup();
        let tape = Tape::new();
        let v = e.atoms(&tape, &store, &[3, 8, 3]);
        let t = tape.value(v);
        assert_eq!(t.shape(), Shape::new(3, cfg.fea));
        assert_eq!(t.row(0), t.row(2), "same species share the embedding");
        assert_ne!(t.row(0), t.row(1), "different species differ");
    }

    #[test]
    fn packed_and_unpacked_bond_embedding_agree() {
        let (e, store, cfg) = setup();
        let rbf = Tensor::from_vec(
            Shape::new(5, cfg.n_rbf),
            (0..5 * cfg.n_rbf).map(|i| (i as f32 * 0.13).sin()).collect(),
        );
        let t1 = Tape::new();
        let r1 = t1.constant(rbf.clone());
        let f = e.bonds(&t1, &store, r1, true);
        let t2 = Tape::new();
        let r2 = t2.constant(rbf);
        let u = e.bonds(&t2, &store, r2, false);
        assert!(t1.value(f.e0).approx_eq(&t2.value(u.e0), 1e-5));
        assert!(t1.value(f.ea).approx_eq(&t2.value(u.ea), 1e-5));
        assert!(t1.value(f.eb).approx_eq(&t2.value(u.eb), 1e-5));
    }

    #[test]
    fn packed_path_launches_fewer_kernels() {
        let (e, store, cfg) = setup();
        let rbf = Tensor::ones(5, cfg.n_rbf);
        let t1 = Tape::new();
        let r1 = t1.constant(rbf.clone());
        let _ = e.bonds(&t1, &store, r1, true);
        let k_fused = t1.profiler().snapshot().kernels;
        let t2 = Tape::new();
        let r2 = t2.constant(rbf);
        let _ = e.bonds(&t2, &store, r2, false);
        let k_ref = t2.profiler().snapshot().kernels;
        assert!(k_fused < k_ref, "{k_fused} vs {k_ref}");
    }

    #[test]
    fn angle_embedding_shape() {
        let (e, store, cfg) = setup();
        let tape = Tape::new();
        let abf = tape.constant(Tensor::ones(7, cfg.n_abf()));
        let a = e.angles(&tape, &store, abf, true);
        assert_eq!(tape.shape(a), Shape::new(7, cfg.fea));
    }
}
