//! The composite Huber training loss.
//!
//! Paper §IV: "The loss function in backpropagation is Huber loss, with
//! the prefactor defined as 2, 1.5, 0.1, and 0.1" for energy, force,
//! stress and magmom respectively. Energy enters per atom (MAE is
//! reported in meV/atom).

use fc_core::Prediction;
use fc_crystal::BatchLabels;
use fc_tensor::{Tape, Var};

/// Loss prefactors and the Huber transition point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossWeights {
    /// Energy prefactor (paper: 2).
    pub energy: f32,
    /// Force prefactor (paper: 1.5).
    pub force: f32,
    /// Stress prefactor (paper: 0.1).
    pub stress: f32,
    /// Magmom prefactor (paper: 0.1).
    pub magmom: f32,
    /// Huber delta (quadratic-to-linear transition).
    pub delta: f32,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights { energy: 2.0, force: 1.5, stress: 0.1, magmom: 0.1, delta: 1.0 }
    }
}

/// The assembled loss: the scalar to backprop plus per-property component
/// vars for logging.
pub struct LossParts {
    /// Total weighted loss (scalar var).
    pub total: Var,
    /// Mean Huber loss of energy-per-atom.
    pub energy: Var,
    /// Mean Huber loss of forces.
    pub force: Var,
    /// Mean Huber loss of stress.
    pub stress: Var,
    /// Mean Huber loss of magmoms.
    pub magmom: Var,
}

/// Build the composite loss on the tape.
pub fn composite_loss(
    tape: &Tape,
    pred: &Prediction,
    labels: &BatchLabels,
    w: &LossWeights,
) -> LossParts {
    // Energy per atom target. The labels go on the tape as copies in pool
    // buffers, which the tape's reset files for the next step's copies.
    let mut e_target = labels.energy.pooled_copy();
    for r in 0..e_target.rows() {
        let n = labels.n_atoms.at(r, 0).max(1.0);
        *e_target.at_mut(r, 0) /= n;
    }
    let e_lbl = tape.constant(e_target);
    let f_lbl = tape.constant(labels.forces.pooled_copy());
    let s_lbl = tape.constant(labels.stress.pooled_copy());
    let m_lbl = tape.constant(labels.magmoms.pooled_copy());

    let e_loss = tape.mean_all(tape.huber(tape.sub(pred.energy_per_atom, e_lbl), w.delta));
    let f_loss = tape.mean_all(tape.huber(tape.sub(pred.forces, f_lbl), w.delta));
    let s_loss = tape.mean_all(tape.huber(tape.sub(pred.stress, s_lbl), w.delta));
    let m_loss = tape.mean_all(tape.huber(tape.sub(pred.magmom, m_lbl), w.delta));

    let total = tape.add(
        tape.add(tape.scale(e_loss, w.energy), tape.scale(f_loss, w.force)),
        tape.add(tape.scale(s_loss, w.stress), tape.scale(m_loss, w.magmom)),
    );
    LossParts { total, energy: e_loss, force: f_loss, stress: s_loss, magmom: m_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::{BlockReads, Chgnet, ModelConfig, OptLevel};
    use fc_crystal::{CrystalGraph, Element, GraphBatch, Lattice, Structure};
    use fc_tensor::ParamStore;

    fn labelled_batch() -> GraphBatch {
        let s = Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        );
        let labels = fc_crystal::evaluate(&s);
        let g = CrystalGraph::new(s);
        GraphBatch::collate(&[&g], Some(&[&labels]))
    }

    #[test]
    fn loss_is_finite_positive_scalar() {
        let b = labelled_batch();
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 1);
        let tape = Tape::new();
        let pred = model.forward(&tape, &store, &b);
        let loss =
            composite_loss(&tape, &pred, b.labels.as_ref().unwrap(), &LossWeights::default());
        let total = tape.value(loss.total).item();
        assert!(total.is_finite() && total > 0.0, "loss = {total}");
        for part in [loss.energy, loss.force, loss.stress, loss.magmom] {
            assert!(tape.value(part).item() >= 0.0);
        }
    }

    #[test]
    fn loss_backward_produces_param_grads_decoupled() {
        let b = labelled_batch();
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 1);
        let tape = Tape::new();
        let pred = model.forward_for_backward(&tape, &store, &b);
        let loss =
            composite_loss(&tape, &pred, b.labels.as_ref().unwrap(), &LossWeights::default());
        let gm = tape.backward(loss.total);
        store.accumulate_grads(&tape, &gm);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn loss_backward_through_derivative_forces_second_order() {
        // The reference model's force loss requires differentiating the
        // energy gradient — double backward end to end.
        let b = labelled_batch();
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Fusion), &mut store, 1);
        let tape = Tape::new();
        let pred = model.forward_for_backward(&tape, &store, &b);
        let loss =
            composite_loss(&tape, &pred, b.labels.as_ref().unwrap(), &LossWeights::default());
        let gm = tape.backward(loss.total);
        store.accumulate_grads(&tape, &gm);
        let n = store.grad_norm();
        assert!(n.is_finite() && n > 0.0, "second-order grad norm {n}");
    }

    #[test]
    fn skipping_dead_last_block_work_changes_no_bit() {
        // The heads never read the last block's angle features, and read
        // its bond features only through the direct force head. Computing
        // them anyway must leave every output, the loss and every
        // parameter gradient bitwise unchanged, and skipping them must save
        // kernels.
        let b = labelled_batch();
        let labels = b.labels.as_ref().unwrap();
        for level in OptLevel::LADDER {
            let mut store = ParamStore::new();
            let model = Chgnet::new(ModelConfig::tiny(level), &mut store, 1);
            let run = |forward: &dyn Fn(&Tape, &ParamStore) -> Prediction| {
                let mut store = store.clone();
                let tape = Tape::new();
                let pred = forward(&tape, &store);
                let loss = composite_loss(&tape, &pred, labels, &LossWeights::default());
                let outputs: Vec<u32> =
                    [pred.energy, pred.forces, pred.stress, pred.magmom, loss.total]
                        .into_iter()
                        .flat_map(|v| {
                            tape.value(v).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                        })
                        .collect();
                let kernels = tape.profiler().snapshot().kernels;
                let gm = tape.backward_final(loss.total);
                store.accumulate_grads(&tape, &gm);
                let grads: Vec<u32> = store
                    .iter()
                    .flat_map(|(_, e)| e.grad.data().iter().map(|x| x.to_bits()))
                    .collect();
                (outputs, grads, kernels)
            };
            let (out, grads, kernels) = run(&|t, s| model.forward_for_backward(t, s, &b));
            let (out_full, grads_full, kernels_full) =
                run(&|t, s| model.forward_reading(t, s, &b, BlockReads::All));
            assert_eq!(out, out_full, "{level:?}: outputs or loss differ");
            assert_eq!(grads, grads_full, "{level:?}: parameter gradients differ");
            assert!(kernels < kernels_full, "{level:?}: {kernels} vs {kernels_full} kernels");
        }
    }

    #[test]
    fn zero_error_means_zero_loss() {
        // Feed the labels back as predictions via a synthetic Prediction.
        let b = labelled_batch();
        let labels = b.labels.clone().unwrap();
        let tape = Tape::new();
        let mut e_per_atom = labels.energy.clone();
        for r in 0..e_per_atom.rows() {
            *e_per_atom.at_mut(r, 0) /= labels.n_atoms.at(r, 0);
        }
        let pred = Prediction {
            energy: tape.constant(labels.energy.clone()),
            energy_per_atom: tape.constant(e_per_atom),
            forces: tape.constant(labels.forces.clone()),
            stress: tape.constant(labels.stress.clone()),
            magmom: tape.constant(labels.magmoms.clone()),
            geom: dummy_geom(&tape),
        };
        let loss = composite_loss(&tape, &pred, &labels, &LossWeights::default());
        assert!(tape.value(loss.total).item().abs() < 1e-9);
    }

    fn dummy_geom(tape: &Tape) -> fc_core::Geometry {
        let z = tape.constant(fc_tensor::Tensor::zeros(1, 1));
        fc_core::Geometry {
            positions: z,
            strain: None,
            lattices: z,
            bond_vec: z,
            bond_r: z,
            theta: z,
        }
    }
}
