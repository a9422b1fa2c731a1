//! Calculator interface: one-shot energy/forces/stress evaluation of a
//! structure by a CHGNet-family model (the role ASE calculators play in
//! the paper's MD experiments).

use fc_core::Chgnet;
use fc_crystal::{CrystalGraph, GraphBatch, Structure};
use fc_tensor::{pool, ParamStore, Tape, Tensor};

/// Results of one model evaluation on a structure.
#[derive(Clone, Debug)]
pub struct CalcResult {
    /// Total energy (eV).
    pub energy: f64,
    /// Forces (eV/Å), one row per atom.
    pub forces: Vec<[f64; 3]>,
    /// Stress tensor (GPa).
    pub stress: [[f64; 3]; 3],
    /// Magnetic moments (μ_B).
    pub magmoms: Vec<f64>,
}

/// A model + parameter store bound together as a calculator.
pub struct Calculator<'a> {
    /// The model.
    pub model: &'a Chgnet,
    /// Its parameters.
    pub store: &'a ParamStore,
}

impl<'a> Calculator<'a> {
    /// Bind a model and its store.
    pub fn new(model: &'a Chgnet, store: &'a ParamStore) -> Self {
        Calculator { model, store }
    }

    /// Evaluate a structure: builds the graph with the model's cutoffs,
    /// runs the forward pass (including the energy-derivative backward
    /// when the model has no force head) and extracts host-side values.
    /// With direct Force/Stress heads the pass is [`Chgnet::forward`]'s
    /// freeing one: each intermediate buffer goes back to the pool after
    /// its last read, so the call's peak is about a third of a retaining
    /// forward's.
    ///
    /// Every tensor buffer of the call, the collated batch's included,
    /// comes from the thread's buffer pool and goes back to it at the end,
    /// so once a first call of the same size has filled the pool a call
    /// allocates no tensor storage and leaves the pool as it found it. The
    /// call is one unit of the pool's budget ([`pool::trim`]):
    /// after it the pool keeps idle no more than the largest call has
    /// needed.
    pub fn evaluate(&self, structure: &Structure) -> CalcResult {
        let graph = CrystalGraph::with_cutoffs(
            structure.clone(),
            self.model.cfg.atom_cutoff as f64,
            self.model.cfg.bond_cutoff as f64,
        );
        let batch = GraphBatch::collate(&[&graph], None);
        let tape = Tape::new();
        let pred = self.model.forward(&tape, self.store, &batch);
        let energy = tape.value(pred.energy).item() as f64;
        let f = tape.value(pred.forces);
        let forces = rows3(&f);
        let s = tape.value(pred.stress);
        let mut stress = [[0.0f64; 3]; 3];
        for (i, srow) in stress.iter_mut().enumerate() {
            for (j, e) in srow.iter_mut().enumerate() {
                *e = s.at(i, j) as f64;
            }
        }
        let m = tape.value(pred.magmom);
        let magmoms = (0..m.rows()).map(|r| m.at(r, 0) as f64).collect();
        tape.reset();
        batch.recycle();
        pool::trim();
        CalcResult { energy, forces, stress, magmoms }
    }
}

fn rows3(t: &Tensor) -> Vec<[f64; 3]> {
    (0..t.rows()).map(|r| [t.at(r, 0) as f64, t.at(r, 1) as f64, t.at(r, 2) as f64]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::{ModelConfig, OptLevel};
    use fc_crystal::{Element, Lattice};

    fn structure() -> Structure {
        Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.02, 0.0, 0.0], [0.5, 0.5, 0.5]],
        )
    }

    #[test]
    fn calculator_produces_consistent_output() {
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 4);
        let calc = Calculator::new(&model, &store);
        let r = calc.evaluate(&structure());
        assert_eq!(r.forces.len(), 2);
        assert_eq!(r.magmoms.len(), 2);
        assert!(r.energy.is_finite());
        // Determinism.
        let r2 = calc.evaluate(&structure());
        assert_eq!(r.energy, r2.energy);
    }

    #[test]
    fn derivative_model_also_works_in_inference() {
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Reference), &mut store, 4);
        let calc = Calculator::new(&model, &store);
        let r = calc.evaluate(&structure());
        assert!(r.forces.iter().flatten().all(|f| f.is_finite()));
        // Net force vanishes for the derivative model.
        for k in 0..3 {
            let net: f64 = r.forces.iter().map(|f| f[k]).sum();
            assert!(net.abs() < 1e-3);
        }
    }
}
