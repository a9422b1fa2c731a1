//! Neural building blocks: linear layers, MLPs and the GatedMLP.

use crate::config::LN_EPS;
use fc_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;

/// A fully-connected layer `x @ W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature width.
    pub in_dim: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl Linear {
    /// Register a Xavier-initialised linear layer under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init::xavier_uniform(rng, in_dim, out_dim));
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear { w, b, in_dim, out_dim }
    }

    /// Apply the layer: with `fused`, one GEMM launch with the bias add
    /// as its epilogue ([`Tape::linear_split`]); otherwise the reference
    /// `matmul` + `add`. Both give the same bits.
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: Var, fused: bool) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        if fused {
            let [y] = tape.linear_split(x, w, b);
            y
        } else {
            tape.linear(x, w, b)
        }
    }

    /// Weight parameter id (used by weight-packing fusions).
    pub fn weight_id(&self) -> ParamId {
        self.w
    }

    /// Bias parameter id.
    pub fn bias_id(&self) -> ParamId {
        self.b
    }
}

/// A multi-layer perceptron with SiLU activations between layers.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Register an MLP with the given layer widths, e.g. `[64, 64, 1]`.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Shrink the final layer's initial weights by `factor` so the MLP
    /// starts near zero output. Output heads use this to begin close to
    /// their physical baseline (e.g. the AtomRef composition energy)
    /// without killing the gradient signal entirely.
    pub fn scale_final_layer(&self, store: &mut ParamStore, factor: f32) {
        let last = self.layers.last().expect("non-empty MLP");
        store.entry_mut(last.weight_id()).value.scale_inplace(factor);
        store.entry_mut(last.bias_id()).value.scale_inplace(factor);
    }

    /// Apply the MLP (SiLU between layers, none after the last), its
    /// linears fused or not as in [`Linear::forward`]. Each hidden
    /// activation is released after its last read ([`Tape::release`]).
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: Var, fused: bool) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, l) in self.layers.iter().enumerate() {
            let y = l.forward(tape, store, h, fused);
            if h != x {
                tape.release(&[h]);
            }
            h = if i == last {
                y
            } else {
                let act = tape.silu(y);
                tape.release(&[y]);
                act
            };
        }
        h
    }
}

/// LayerNorm parameters (gamma, beta) over the feature dimension.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Register a LayerNorm of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, eps: f32) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones(1, dim));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(1, dim));
        LayerNorm { gamma, beta, eps }
    }

    /// Apply row-wise layer normalisation (reference primitive chain; the
    /// fused levels normalise inside [`Tape::fused_ln_gate`]).
    pub fn forward(&self, tape: &Tape, store: &ParamStore, x: Var) -> Var {
        let [g, b] = self.params(tape, store);
        tape.layer_norm(x, g, b, self.eps)
    }

    /// `[γ, β]` on `tape`.
    fn params(&self, tape: &Tape, store: &ParamStore) -> [Var; 2] {
        [tape.param(store, self.gamma), tape.param(store, self.beta)]
    }
}

/// The GatedMLP of CHGNet (Eq. after Eq. 6 in the paper):
/// `φ(x) = (σ ∘ LN ∘ Fc(x)) ⊙ (SiLU ∘ LN ∘ Fc(x))`.
///
/// The two branches share the input. In the fused mode (Fig. 3), the two
/// `Fc` weight matrices are packed into a single `(in, 2·out)` GEMM that
/// writes each branch as its own output (with the bias added after the
/// sum, and a view input read in place: [`Tape::linear_split`]), and both
/// LayerNorms and the `sigmoid ⊙ silu` combination run as one launch that
/// writes only the gate output ([`Tape::fused_ln_gate`]). The unfused
/// mode executes the reference chain (two GEMMs, two LayerNorms, sigmoid,
/// silu, multiply).
#[derive(Clone, Debug)]
pub struct GatedMlp {
    w_pack: ParamId,
    b_pack: ParamId,
    ln_gate: LayerNorm,
    ln_core: LayerNorm,
    /// Input feature width.
    pub in_dim: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl GatedMlp {
    /// Register a GatedMLP under `name`, its LayerNorms with epsilon
    /// `1e-5`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        // Packed layout: columns [0, out) = gate branch (sigmoid),
        // [out, 2*out) = core branch (silu).
        let w_pack =
            store.add(format!("{name}.w_pack"), init::xavier_uniform(rng, in_dim, 2 * out_dim));
        let b_pack = store.add(format!("{name}.b_pack"), Tensor::zeros(1, 2 * out_dim));
        let ln_gate = LayerNorm::new(store, &format!("{name}.ln_gate"), out_dim, LN_EPS);
        let ln_core = LayerNorm::new(store, &format!("{name}.ln_core"), out_dim, LN_EPS);
        GatedMlp { w_pack, b_pack, ln_gate, ln_core, in_dim, out_dim }
    }

    /// Apply the GatedMLP. `fused` selects the packed-GEMM + fused-gate
    /// fast path, where `x` may be a view ([`Tape::column_blocks`]); both
    /// paths compute identical values. `last_read` are vars (the sources of
    /// a view `x`) whose last reader is the input GEMM: they are released
    /// as soon as it has run ([`Tape::release`]).
    pub fn forward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        x: Var,
        fused: bool,
        last_read: &[Var],
    ) -> Var {
        let w = tape.param(store, self.w_pack);
        let b = tape.param(store, self.b_pack);
        if fused {
            // One GEMM launch for both branches, one output each.
            let [gate_in, core_in] = tape.linear_split(x, w, b);
            tape.release(last_read);
            // sigmoid(LN(gate)) ⊙ silu(LN(core)) in one kernel.
            let (ln_gate, ln_core) =
                (self.ln_gate.params(tape, store), self.ln_core.params(tape, store));
            assert_eq!(self.ln_gate.eps, self.ln_core.eps, "one eps for both LayerNorms");
            let out = tape.fused_ln_gate(gate_in, core_in, ln_gate, ln_core, self.ln_gate.eps);
            tape.release(&[gate_in, core_in]);
            out
        } else {
            // Reference chain: two separate GEMMs (weight slices stand in
            // for the two independent Fc layers), two activations, multiply.
            let w_gate = tape.slice_cols(w, 0, self.out_dim);
            let w_core = tape.slice_cols(w, self.out_dim, self.out_dim);
            let b_gate = tape.slice_cols(b, 0, self.out_dim);
            let b_core = tape.slice_cols(b, self.out_dim, self.out_dim);
            let gate_h = tape.add(tape.matmul(x, w_gate), b_gate);
            let core_h = tape.add(tape.matmul(x, w_core), b_core);
            tape.release(last_read);
            let gate_n = self.ln_gate.forward(tape, store, gate_h);
            let core_n = self.ln_core.forward(tape, store, core_h);
            let sig = tape.sigmoid(gate_n);
            let act = tape.silu(core_n);
            tape.mul(sig, act)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, StdRng) {
        (ParamStore::new(), StdRng::seed_from_u64(7))
    }

    #[test]
    fn linear_shapes_and_params() {
        let (mut store, mut rng) = setup();
        let l = Linear::new(&mut store, &mut rng, "l", 8, 4);
        assert_eq!(store.n_scalars(), 8 * 4 + 4);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(3, 8));
        let y = l.forward(&tape, &store, x, false);
        assert_eq!(tape.shape(y), fc_tensor::Shape::new(3, 4));
    }

    #[test]
    fn mlp_stacks() {
        let (mut store, mut rng) = setup();
        let m = Mlp::new(&mut store, &mut rng, "m", &[8, 16, 1]);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(5, 8));
        let y = m.forward(&tape, &store, x, false);
        assert_eq!(tape.shape(y), fc_tensor::Shape::new(5, 1));
    }

    #[test]
    fn gated_mlp_fused_matches_unfused() {
        let (mut store, mut rng) = setup();
        let g = GatedMlp::new(&mut store, &mut rng, "g", 12, 6);
        let x = init::normal(&mut rng, 9, 12, 0.0, 1.0);
        let t1 = Tape::new();
        let x1 = t1.constant(x.clone());
        let fused = t1.value(g.forward(&t1, &store, x1, true, &[]));
        let t2 = Tape::new();
        let x2 = t2.constant(x);
        let unfused = t2.value(g.forward(&t2, &store, x2, false, &[]));
        assert!(fused.approx_eq(&unfused, 1e-5), "fused and unfused disagree");
    }

    #[test]
    fn fused_gated_mlp_uses_fewer_kernels() {
        let (mut store, mut rng) = setup();
        let g = GatedMlp::new(&mut store, &mut rng, "g", 12, 6);
        let x = init::normal(&mut rng, 9, 12, 0.0, 1.0);
        let t1 = Tape::new();
        let x1 = t1.constant(x.clone());
        let _ = g.forward(&t1, &store, x1, true, &[]);
        let fused_kernels = t1.profiler().snapshot().kernels;
        let t2 = Tape::new();
        let x2 = t2.constant(x);
        let _ = g.forward(&t2, &store, x2, false, &[]);
        let unfused_kernels = t2.profiler().snapshot().kernels;
        assert!(
            fused_kernels < unfused_kernels,
            "fused {fused_kernels} vs unfused {unfused_kernels}"
        );
    }

    #[test]
    fn gated_output_bounded_by_silu_range() {
        // sigmoid ∈ (0,1) and |silu| ≤ |x| + bounded minimum.
        let (mut store, mut rng) = setup();
        let g = GatedMlp::new(&mut store, &mut rng, "g", 4, 4);
        let tape = Tape::new();
        let x = tape.constant(init::normal(&mut rng, 20, 4, 0.0, 3.0));
        let y = tape.value(g.forward(&tape, &store, x, true, &[]));
        assert!(y.all_finite());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_mlp_panics() {
        let (mut store, mut rng) = setup();
        let _ = Mlp::new(&mut store, &mut rng, "m", &[8]);
    }
}
