//! The interaction block: Atom Conv, Bond Conv and Angle Update
//! (Eqs. 4-6), with the reference dependency chain (Eq. 10) or
//! FastCHGNet's dependency elimination (Eq. 11).

use crate::config::ModelConfig;
use crate::nn::{GatedMlp, Linear};
use fc_crystal::GraphBatch;
use fc_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Atom convolution (Eq. 4):
/// `v' = v + L_v[ Σ_j e^a ⊙ φ_v([v_i, v_j, e_ij]) ]`.
#[derive(Clone, Debug)]
pub struct AtomConv {
    gated: GatedMlp,
    out: Linear,
}

impl AtomConv {
    fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &ModelConfig) -> Self {
        AtomConv {
            gated: GatedMlp::new(store, rng, &format!("{name}.gated"), 3 * cfg.fea, cfg.fea),
            out: Linear::new(store, rng, &format!("{name}.out"), cfg.fea, cfg.fea),
        }
    }

    #[allow(clippy::too_many_arguments)] // internal: tape plumbing, not an API
    fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        v: Var,
        e: Var,
        ea: Var,
        batch: &GraphBatch,
        fused: bool,
    ) -> Var {
        let blocks = [(v, Some(batch.bond_i.clone())), (v, Some(batch.bond_j.clone())), (e, None)];
        let f = message_features(tape, &blocks, fused);
        let msg = self.gated.forward(tape, store, f, fused, &[]);
        let (seg, n) = (batch.bond_i.clone(), batch.n_atoms);
        let agg = if fused {
            tape.weighted_segment_sum(msg, &[(ea, None)], seg, n)
        } else {
            tape.segment_sum(tape.mul(ea, msg), seg, n)
        };
        let proj = self.out.forward(tape, store, agg, fused);
        let v_new = tape.add(v, proj);
        tape.release(&[msg, agg, proj]);
        v_new
    }
}

/// Bond convolution (Eq. 5):
/// `e' = e + L_e[ Σ_k e^b_ij ⊙ e^b_ik ⊙ φ_e([v, e_ij, e_ik, a]) ]`.
#[derive(Clone, Debug)]
pub struct BondConv {
    gated: GatedMlp,
    out: Linear,
}

impl BondConv {
    fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &ModelConfig) -> Self {
        BondConv {
            gated: GatedMlp::new(store, rng, &format!("{name}.gated"), 4 * cfg.fea, cfg.fea),
            out: Linear::new(store, rng, &format!("{name}.out"), cfg.fea, cfg.fea),
        }
    }

    /// `last_read` as in [`GatedMlp::forward`].
    #[allow(clippy::too_many_arguments)] // internal: tape plumbing, not an API
    fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        f_angle: Var,
        e: Var,
        eb: Var,
        batch: &GraphBatch,
        fused: bool,
        last_read: &[Var],
    ) -> Var {
        let msg = self.gated.forward(tape, store, f_angle, fused, last_read);
        let (b1, b2) = (batch.angle_b1.clone(), batch.angle_b2.clone());
        let agg = if fused {
            let weights = [(eb, Some(b1.clone())), (eb, Some(b2))];
            tape.weighted_segment_sum(msg, &weights, b1, batch.n_bonds)
        } else {
            let (w1, w2) = (tape.gather(eb, b1.clone()), tape.gather(eb, b2));
            tape.segment_sum(tape.mul(tape.mul(w1, w2), msg), b1, batch.n_bonds)
        };
        let proj = self.out.forward(tape, store, agg, fused);
        let e_new = tape.add(e, proj);
        tape.release(&[msg, agg, proj]);
        e_new
    }
}

/// Angle update (Eq. 6): `a' = a + φ_a([v, e_ij, e_ik, a])`.
#[derive(Clone, Debug)]
pub struct AngleUpdate {
    gated: GatedMlp,
}

impl AngleUpdate {
    fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &ModelConfig) -> Self {
        AngleUpdate {
            gated: GatedMlp::new(store, rng, &format!("{name}.gated"), 4 * cfg.fea, cfg.fea),
        }
    }

    /// `last_read` as in [`GatedMlp::forward`].
    fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        f_angle: Var,
        a: Var,
        fused: bool,
        last_read: &[Var],
    ) -> Var {
        let upd = self.gated.forward(tape, store, f_angle, fused, last_read);
        let a_new = tape.add(a, upd);
        tape.release(&[upd]);
        a_new
    }
}

/// The outputs of an [`InteractionBlock`] that anything downstream reads;
/// the block skips the work behind the rest. The heads read the last
/// block's atom features, its bond features only through the direct force
/// head, and never its angle features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReads {
    /// `v'` only: the last block when forces are energy derivatives.
    Atoms,
    /// `v'` and `e'`: the last block under a direct force head.
    AtomsBonds,
    /// `v'`, `e'` and `a'`: every block but the last.
    All,
}

/// One interaction block `IB^t : [v, e, a, e^a, e^b] → [v', e', a']`.
#[derive(Clone, Debug)]
pub struct InteractionBlock {
    atom_conv: AtomConv,
    bond_conv: BondConv,
    angle_update: AngleUpdate,
}

impl InteractionBlock {
    /// Register one block's parameters.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &ModelConfig) -> Self {
        InteractionBlock {
            atom_conv: AtomConv::new(store, rng, &format!("{name}.atom_conv"), cfg),
            bond_conv: BondConv::new(store, rng, &format!("{name}.bond_conv"), cfg),
            angle_update: AngleUpdate::new(store, rng, &format!("{name}.angle_update"), cfg),
        }
    }

    /// Run the block.
    ///
    /// Reference dependency chain (Eq. 10): Bond Conv reads the *updated*
    /// atom features and Angle Update reads the *updated* atom and bond
    /// features — three sequential stages, and the angle-level gather +
    /// concat is rebuilt twice.
    ///
    /// With dependency elimination (Eq. 11, `cfg.dependency_eliminated()`):
    /// both Bond Conv and Angle Update read the stale `v_t, e_t`, their
    /// inputs coincide, and the gathered angle-level feature matrix is
    /// built once and shared ("computational results reuse").
    ///
    /// Outputs outside `reads` are not computed and come back as their
    /// inputs, unchanged; the ones computed are bitwise the same either way.
    ///
    /// With dependency elimination the replaced `v`, and `e` when the angle
    /// update runs, are released ([`Tape::release`]) right after the last
    /// GEMM over the shared feature matrix, their last reader.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        v: Var,
        e: Var,
        a: Var,
        ea: Var,
        eb: Var,
        batch: &GraphBatch,
        cfg: &ModelConfig,
        reads: BlockReads,
    ) -> (Var, Var, Var) {
        let fused = cfg.opt_level.fused();
        let v_new = self.atom_conv.forward(tape, store, v, e, ea, batch, fused);
        if reads == BlockReads::Atoms {
            return (v_new, e, a);
        }

        if cfg.opt_level.dependency_eliminated() {
            // Shared stale-input feature matrix for Bond Conv + Angle Update.
            let f_shared = angle_features(tape, v, e, a, batch, fused);
            if reads == BlockReads::AtomsBonds {
                let e_new =
                    self.bond_conv.forward(tape, store, f_shared, e, eb, batch, fused, &[v]);
                return (v_new, e_new, a);
            }
            let e_new = self.bond_conv.forward(tape, store, f_shared, e, eb, batch, fused, &[]);
            let a_new = self.angle_update.forward(tape, store, f_shared, a, fused, &[v, e]);
            (v_new, e_new, a_new)
        } else {
            // Eq. 10: sequential, re-gathered inputs.
            let f_bond = angle_features(tape, v_new, e, a, batch, fused);
            let e_new = self.bond_conv.forward(tape, store, f_bond, e, eb, batch, fused, &[]);
            if reads == BlockReads::AtomsBonds {
                return (v_new, e_new, a);
            }
            let f_angle = angle_features(tape, v_new, e_new, a, batch, fused);
            let a_new = self.angle_update.forward(tape, store, f_angle, a, fused, &[]);
            (v_new, e_new, a_new)
        }
    }
}

/// Angle-level input features `[v_center, e_ij, e_ik, a]`.
fn angle_features(tape: &Tape, v: Var, e: Var, a: Var, batch: &GraphBatch, fused: bool) -> Var {
    let blocks = [
        (v, Some(batch.angle_center.clone())),
        (e, Some(batch.angle_b1.clone())),
        (e, Some(batch.angle_b2.clone())),
        (a, None),
    ];
    message_features(tape, &blocks, fused)
}

/// A GatedMLP input made of column blocks, `(src, idx)` standing for
/// `src`'s rows `idx` (all of them without): fused, a view the packed GEMM
/// reads in place; otherwise the reference gathers and `concat_cols`.
fn message_features(tape: &Tape, blocks: &[(Var, Option<Arc<[u32]>>)], fused: bool) -> Var {
    if fused {
        tape.column_blocks(blocks)
    } else {
        tape.gather_concat(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use fc_crystal::{CrystalGraph, Element, Lattice, Structure};
    use fc_tensor::{init, Shape};
    use rand::SeedableRng;

    fn batch() -> GraphBatch {
        let g = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        ));
        GraphBatch::collate(&[&g], None)
    }

    fn features(
        tape: &Tape,
        rng: &mut StdRng,
        b: &GraphBatch,
        fea: usize,
    ) -> (Var, Var, Var, Var, Var) {
        let v = tape.constant(init::normal(rng, b.n_atoms, fea, 0.0, 1.0));
        let e = tape.constant(init::normal(rng, b.n_bonds, fea, 0.0, 1.0));
        let a = tape.constant(init::normal(rng, b.n_angles, fea, 0.0, 1.0));
        let ea = tape.constant(init::normal(rng, b.n_bonds, fea, 0.0, 0.3));
        let eb = tape.constant(init::normal(rng, b.n_bonds, fea, 0.0, 0.3));
        (v, e, a, ea, eb)
    }

    #[test]
    fn block_shapes_preserved() {
        let b = batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let blk = InteractionBlock::new(&mut store, &mut rng, "ib", &cfg);
        let tape = Tape::new();
        let (v, e, a, ea, eb) = features(&tape, &mut rng, &b, cfg.fea);
        let (v2, e2, a2) = blk.forward(&tape, &store, v, e, a, ea, eb, &b, &cfg, BlockReads::All);
        assert_eq!(tape.shape(v2), Shape::new(b.n_atoms, cfg.fea));
        assert_eq!(tape.shape(e2), Shape::new(b.n_bonds, cfg.fea));
        assert_eq!(tape.shape(a2), Shape::new(b.n_angles, cfg.fea));
        assert!(tape.value(v2).all_finite());
    }

    #[test]
    fn dependency_elimination_changes_values_but_not_shapes() {
        let b = batch();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg_ref = ModelConfig::tiny(OptLevel::ParallelBasis);
        let blk = InteractionBlock::new(&mut store, &mut rng, "ib", &cfg_ref);
        let mut rng_f = StdRng::seed_from_u64(11);

        let t1 = Tape::new();
        let (v, e, a, ea, eb) = features(&t1, &mut rng_f, &b, cfg_ref.fea);
        let (v1, e1, a1) = blk.forward(&t1, &store, v, e, a, ea, eb, &b, &cfg_ref, BlockReads::All);

        let cfg_fast = ModelConfig::tiny(OptLevel::Fusion);
        let mut rng_f = StdRng::seed_from_u64(11);
        let t2 = Tape::new();
        let (v, e, a, ea, eb) = features(&t2, &mut rng_f, &b, cfg_fast.fea);
        let (v2, e2, a2) =
            blk.forward(&t2, &store, v, e, a, ea, eb, &b, &cfg_fast, BlockReads::All);

        // Atom conv is identical in both modes.
        assert!(t1.value(v1).approx_eq(&t2.value(v2), 1e-4));
        // Bond/angle updates differ (different model, by design).
        assert_eq!(t1.shape(e1), t2.shape(e2));
        assert_eq!(t1.shape(a1), t2.shape(a2));
    }

    #[test]
    fn fast_block_launches_fewer_kernels() {
        let b = batch();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg_ref = ModelConfig::tiny(OptLevel::ParallelBasis);
        let cfg_fast = ModelConfig::tiny(OptLevel::Fusion);
        let blk = InteractionBlock::new(&mut store, &mut rng, "ib", &cfg_ref);

        let t1 = Tape::new();
        let mut rng_f = StdRng::seed_from_u64(5);
        let (v, e, a, ea, eb) = features(&t1, &mut rng_f, &b, cfg_ref.fea);
        let _ = blk.forward(&t1, &store, v, e, a, ea, eb, &b, &cfg_ref, BlockReads::All);
        let k_ref = t1.profiler().snapshot().kernels;

        let t2 = Tape::new();
        let mut rng_f = StdRng::seed_from_u64(5);
        let (v, e, a, ea, eb) = features(&t2, &mut rng_f, &b, cfg_fast.fea);
        let _ = blk.forward(&t2, &store, v, e, a, ea, eb, &b, &cfg_fast, BlockReads::All);
        let k_fast = t2.profiler().snapshot().kernels;
        assert!(k_fast < k_ref, "fast {k_fast} vs reference {k_ref}");
    }

    #[test]
    fn residual_identity_at_zero_weights() {
        // With all parameters zeroed, GatedMLP outputs sigmoid(0)*silu(0)=0
        // so the block must be the identity (pure residual).
        let b = batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let blk = InteractionBlock::new(&mut store, &mut rng, "ib", &cfg);
        for (_, e) in store.iter_mut() {
            e.value.fill(0.0);
        }
        let tape = Tape::new();
        let (v, e, a, ea, eb) = features(&tape, &mut rng, &b, cfg.fea);
        let (v2, e2, a2) = blk.forward(&tape, &store, v, e, a, ea, eb, &b, &cfg, BlockReads::All);
        assert!(tape.value(v2).approx_eq(&tape.value(v), 1e-6));
        assert!(tape.value(e2).approx_eq(&tape.value(e), 1e-6));
        assert!(tape.value(a2).approx_eq(&tape.value(a), 1e-6));
    }
}
