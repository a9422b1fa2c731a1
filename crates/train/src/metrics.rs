//! Evaluation metrics: per-property MAE (the Table I numbers) and R²
//! (the Fig. 7 parity plots).

use fc_core::Chgnet;
use fc_crystal::{GraphBatch, Sample};
use fc_tensor::{ParamStore, Tape};

/// Mean absolute errors in the paper's units plus parity-plot statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalMetrics {
    /// Energy MAE (eV/atom).
    pub e_mae: f64,
    /// Force MAE (eV/Å).
    pub f_mae: f64,
    /// Stress MAE (GPa).
    pub s_mae: f64,
    /// Magmom MAE (μ_B).
    pub m_mae: f64,
    /// Energy parity R².
    pub e_r2: f64,
    /// Force parity R².
    pub f_r2: f64,
}

impl EvalMetrics {
    /// Pretty one-line summary in paper units (meV/atom, meV/Å, GPa, mμ_B).
    pub fn summary(&self) -> String {
        format!(
            "E {:.1} meV/atom | F {:.1} meV/Å | S {:.4} GPa | M {:.1} mμ_B | R²(E) {:.4} | R²(F) {:.4}",
            self.e_mae * 1e3,
            self.f_mae * 1e3,
            self.s_mae,
            self.m_mae * 1e3,
            self.e_r2,
            self.f_r2
        )
    }
}

/// Parity-plot raw data: (DFT, predicted) pairs.
#[derive(Clone, Debug, Default)]
pub struct ScatterData {
    /// Energy-per-atom pairs (eV/atom).
    pub energy: Vec<(f64, f64)>,
    /// Force-component pairs (eV/Å).
    pub force: Vec<(f64, f64)>,
}

/// Coefficient of determination over (truth, prediction) pairs.
pub fn r2(pairs: &[(f64, f64)]) -> f64 {
    if pairs.len() < 2 {
        return 0.0;
    }
    let mean_y: f64 = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.len() as f64;
    let ss_tot: f64 = pairs.iter().map(|p| (p.0 - mean_y).powi(2)).sum();
    let ss_res: f64 = pairs.iter().map(|p| (p.0 - p.1).powi(2)).sum();
    if ss_tot < 1e-12 {
        0.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Run the model over `samples` (in mini-batches of `batch_size`) and
/// collect MAE metrics and parity data.
pub fn evaluate_with_scatter(
    model: &Chgnet,
    store: &ParamStore,
    samples: &[&Sample],
    batch_size: usize,
) -> (EvalMetrics, ScatterData) {
    assert!(batch_size > 0, "batch_size must be positive");
    let mut abs_e = 0.0f64;
    let mut abs_f = 0.0f64;
    let mut abs_s = 0.0f64;
    let mut abs_m = 0.0f64;
    let (mut n_e, mut n_f, mut n_s, mut n_m) = (0usize, 0usize, 0usize, 0usize);
    let mut scatter = ScatterData::default();

    for chunk in samples.chunks(batch_size) {
        let graphs: Vec<_> = chunk.iter().map(|s| &s.graph).collect();
        let labels: Vec<_> = chunk.iter().map(|s| &s.labels).collect();
        let batch = GraphBatch::collate(&graphs, Some(&labels));
        let bl = batch.labels.as_ref().expect("labels present");
        let tape = Tape::new();
        let pred = model.forward(&tape, store, &batch);

        // Read-only accesses: borrow node values in place instead of
        // cloning each prediction tensor out of the tape.
        tape.with_value(pred.energy_per_atom, |e| {
            for g in 0..batch.n_graphs {
                let truth = (bl.energy.at(g, 0) / bl.n_atoms.at(g, 0)) as f64;
                let p = e.at(g, 0) as f64;
                abs_e += (truth - p).abs();
                n_e += 1;
                scatter.energy.push((truth, p));
            }
        });
        tape.with_value(pred.forces, |f| {
            for r in 0..batch.n_atoms {
                for c in 0..3 {
                    let truth = bl.forces.at(r, c) as f64;
                    let p = f.at(r, c) as f64;
                    abs_f += (truth - p).abs();
                    n_f += 1;
                    scatter.force.push((truth, p));
                }
            }
        });
        tape.with_value(pred.stress, |s| {
            for r in 0..batch.n_graphs * 3 {
                for c in 0..3 {
                    abs_s += (bl.stress.at(r, c) as f64 - s.at(r, c) as f64).abs();
                    n_s += 1;
                }
            }
        });
        tape.with_value(pred.magmom, |m| {
            for r in 0..batch.n_atoms {
                abs_m += (bl.magmoms.at(r, 0) as f64 - m.at(r, 0) as f64).abs();
                n_m += 1;
            }
        });
        tape.reset();
    }

    let metrics = EvalMetrics {
        e_mae: abs_e / n_e.max(1) as f64,
        f_mae: abs_f / n_f.max(1) as f64,
        s_mae: abs_s / n_s.max(1) as f64,
        m_mae: abs_m / n_m.max(1) as f64,
        e_r2: r2(&scatter.energy),
        f_r2: r2(&scatter.force),
    };
    (metrics, scatter)
}

/// Metrics only (drops the scatter data).
pub fn evaluate(
    model: &Chgnet,
    store: &ParamStore,
    samples: &[&Sample],
    batch_size: usize,
) -> EvalMetrics {
    evaluate_with_scatter(model, store, samples, batch_size).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::{ModelConfig, OptLevel};
    use fc_crystal::{DatasetConfig, SynthMPtrj};

    #[test]
    fn r2_perfect_and_poor() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        assert!((r2(&perfect) - 1.0).abs() < 1e-12);
        let constant: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 4.5)).collect();
        assert!(r2(&constant) <= 0.0 + 1e-9);
        assert_eq!(r2(&[]), 0.0);
    }

    #[test]
    fn evaluate_untrained_model_produces_finite_metrics() {
        let data = SynthMPtrj::generate(&DatasetConfig {
            n_structures: 6,
            max_atoms: 8,
            ..Default::default()
        });
        let samples: Vec<&fc_crystal::Sample> = data.samples.iter().collect();
        let mut store = fc_tensor::ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 9);
        let (m, scatter) = evaluate_with_scatter(&model, &store, &samples, 3);
        assert!(m.e_mae.is_finite() && m.e_mae > 0.0);
        assert!(m.f_mae.is_finite());
        assert_eq!(scatter.energy.len(), 6);
        assert!(!scatter.force.is_empty());
    }
}
