//! AtomRef: the per-element reference-energy composition model.
//!
//! CHGNet (and most universal potentials) first fit a linear
//! composition-to-energy model — one reference energy per element — by
//! least squares over the training set, and train the GNN on the residual.
//! Without it the network wastes its capacity learning huge additive
//! offsets. The fit solves the ridge-regularised normal equations
//! `(XᵀX + λI) e0 = Xᵀy` where `X[s, z]` counts element `z` in structure
//! `s` and `y` is the total DFT energy.

use fc_crystal::{GraphBatch, Sample};
use fc_tensor::Tensor;

/// Maximum atomic number tracked (matches `fc_crystal::element::MAX_Z`).
const MAX_Z: usize = 94;

/// Fitted per-element reference energies.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomRef {
    /// `e0[z-1]` is the reference energy of element `z` (eV).
    pub e0: Vec<f64>,
}

impl AtomRef {
    /// All-zero reference (no offset).
    #[cfg(test)]
    fn zero() -> AtomRef {
        AtomRef { e0: vec![0.0; MAX_Z] }
    }

    /// Fit reference energies over labelled samples by ridge-regularised
    /// least squares (`ridge` ≈ 1e-6..1e-2 relative to counts scale).
    /// A sample whose energy label is not finite is left out, so that one
    /// bad label cannot make every reference energy NaN; the second value
    /// counts the samples left out.
    pub fn fit(samples: &[&Sample], ridge: f64) -> (AtomRef, usize) {
        let n = MAX_Z;
        let mut ata = vec![0.0f64; n * n];
        let mut aty = vec![0.0f64; n];
        let mut counts = vec![0.0f64; n];
        let mut left_out = 0;
        for s in samples {
            let y = s.labels.energy;
            if !y.is_finite() {
                left_out += 1;
                continue;
            }
            counts.fill(0.0);
            for e in &s.graph.structure.species {
                counts[e.z() as usize - 1] += 1.0;
            }
            for i in 0..n {
                if counts[i] == 0.0 {
                    continue;
                }
                aty[i] += counts[i] * y;
                for j in 0..n {
                    if counts[j] != 0.0 {
                        ata[i * n + j] += counts[i] * counts[j];
                    }
                }
            }
        }
        for i in 0..n {
            ata[i * n + i] += ridge.max(1e-9);
        }
        let e0 = solve_dense(&mut ata, &mut aty, n);
        (AtomRef { e0 }, left_out)
    }

    /// Per-graph reference offsets `(G, 1)` for a collated batch.
    pub fn offsets(&self, batch: &GraphBatch) -> Tensor {
        let mut t = Tensor::pooled_zeros(batch.n_graphs, 1);
        for (z, &g) in batch.atom_z.iter().zip(batch.atom_graph.iter()) {
            *t.at_mut(g as usize, 0) += self.e0[*z as usize - 1] as f32;
        }
        t
    }
}

/// In-place Gaussian elimination with partial pivoting: solves `A x = b`
/// for dense `n x n` `A` (row-major). Returns `x`; singular pivots are
/// regularised to keep the fit defined for unseen elements.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n);
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let d = a[col * n + col];
        let d = if d.abs() < 1e-12 { 1e-12 } else { d };
        for row in col + 1..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col * n + k] * x[k];
        }
        let d = a[col * n + col];
        x[col] = acc / if d.abs() < 1e-12 { 1e-12 } else { d };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_crystal::{DatasetConfig, SynthMPtrj};

    #[test]
    fn solver_recovers_known_solution() {
        // 3x3 well-conditioned system.
        let mut a = vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let x_true = [1.0, -2.0, 0.5];
        let mut b = vec![
            4.0 * x_true[0] + x_true[1],
            x_true[0] + 3.0 * x_true[1] + x_true[2],
            x_true[1] + 2.0 * x_true[2],
        ];
        let x = solve_dense(&mut a, &mut b, 3);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn fit_reduces_energy_variance() {
        let data = SynthMPtrj::generate(&DatasetConfig {
            n_structures: 60,
            max_atoms: 10,
            ..Default::default()
        });
        let samples: Vec<&Sample> = data.train_samples();
        let (ar, left_out) = AtomRef::fit(&samples, 1e-6);
        assert_eq!(left_out, 0);
        // Residual |E - E_ref| per atom must be much smaller than |E| per
        // atom (composition explains the bulk of the energy).
        let mut raw = 0.0;
        let mut resid = 0.0;
        for s in &samples {
            let n = s.graph.n_atoms() as f64;
            raw += (s.labels.energy / n).abs();
            let e_ref: f64 =
                s.graph.structure.species.iter().map(|e| ar.e0[e.z() as usize - 1]).sum();
            resid += ((s.labels.energy - e_ref) / n).abs();
        }
        assert!(resid < raw * 0.5, "residual {resid:.3} not much below raw {raw:.3}");
    }

    #[test]
    fn offsets_match_energy_of() {
        let data = SynthMPtrj::generate(&DatasetConfig {
            n_structures: 6,
            max_atoms: 6,
            ..Default::default()
        });
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let (ar, _) = AtomRef::fit(&samples, 1e-6);
        let graphs: Vec<_> = samples.iter().map(|s| &s.graph).collect();
        let batch = GraphBatch::collate(&graphs, None);
        let off = ar.offsets(&batch);
        for (g, s) in samples.iter().enumerate() {
            let direct: f64 =
                s.graph.structure.species.iter().map(|e| ar.e0[e.z() as usize - 1]).sum();
            assert!(
                (off.at(g, 0) as f64 - direct).abs() < 1e-3 * (1.0 + direct.abs()),
                "graph {g}: {} vs {direct}",
                off.at(g, 0)
            );
        }
    }

    #[test]
    fn zero_ref_is_neutral() {
        assert!(AtomRef::zero().e0.iter().all(|&e| e == 0.0));
    }
}
