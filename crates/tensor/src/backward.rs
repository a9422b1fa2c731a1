//! Reverse-mode differentiation over the tape.
//!
//! `backward` walks the tape in reverse topological order (node ids are
//! already topologically sorted) and emits each vector-Jacobian product as
//! *new tape nodes*. Because gradients are themselves graph nodes, a second
//! `backward` over a gradient (double backward) works out of the box — this
//! is how the reference CHGNet's force/stress training loop obtains
//! ∂²E/∂θ∂x, and why decoupling it (the Force/Stress heads) saves both the
//! retained graph memory and the second-order kernels.

use crate::kernels::elementwise::{BinKind, UnKind};
use crate::op::{Op, Var};
use crate::param::ParamStore;
use crate::shape::{Bcast, Shape};
use crate::tape::Tape;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Gradients produced by a backward pass: for each node of the original
/// graph that required grad and received a contribution, the `Var` holding
/// its gradient.
pub struct GradMap {
    grads: Vec<Option<Var>>,
}

impl GradMap {
    /// Gradient of the seeded output with respect to node `v`, if any
    /// gradient flowed there.
    pub fn get(&self, v: Var) -> Option<Var> {
        self.grads.get(v.id() as usize).copied().flatten()
    }
}

impl Tape {
    /// Reverse-mode sweep from `output`, seeded with ones.
    ///
    /// Returns a [`GradMap`]. The gradient sub-graph stays on the tape: for
    /// first-order-only training, extract what you need and `reset()`; for
    /// second-order training, keep building on the returned gradient `Var`s
    /// (PyTorch's `create_graph=True` semantics).
    pub fn backward(&self, output: Var) -> GradMap {
        self.sweep(output, self.ones_like(output), false)
    }

    /// Reverse-mode sweep from `output`, seeded with ones, that frees as it
    /// goes: forward activations are released as soon as their last
    /// gradient consumer has executed, intermediate gradient buffers are
    /// merged in place and released, and every freed buffer returns to the
    /// thread-local pool for the next step. Its LayerNorm, gate and linear
    /// VJPs are one fused launch each. The gradients are bitwise those of
    /// [`Tape::backward`].
    ///
    /// This is a *final* sweep: afterwards only the output's value and the
    /// gradients of leaf nodes (inputs, constants and params) are
    /// guaranteed readable. Read any metric you need from the forward graph
    /// *before* calling this, and `reset()` or `truncate()` the tape before
    /// building further graph on it. Use `backward` when the gradient graph
    /// must stay live (create_graph / double backward).
    pub fn backward_final(&self, output: Var) -> GradMap {
        self.sweep(output, self.ones_like(output), true)
    }

    fn ones_like(&self, v: Var) -> Tensor {
        let shape = self.shape(v);
        let mut seed = Tensor::pooled_zeros(shape.rows, shape.cols);
        seed.fill(1.0);
        seed
    }

    /// The reverse sweep from `output` seeded with `seed`. With `last` (the
    /// final sweep) it launches the fused VJPs, frees each buffer after
    /// its last use and accumulates repeated contributions in place;
    /// without it, it keeps every node and emits the composed chains.
    fn sweep(&self, output: Var, seed: Tensor, last: bool) -> GradMap {
        assert_eq!(self.shape(output), seed.shape(), "seed shape mismatch");
        let out_id = output.id() as usize;
        let n = out_id + 1;
        let mut grads: Vec<Option<Var>> = vec![None; n];
        if !self.requires_grad(output) {
            return GradMap { grads };
        }
        // owned[i] == the buffer behind grads[i] is referenced by that slot
        // alone, so the final sweep may mutate or free it.
        let mut owned = vec![false; n];
        grads[out_id] = Some(self.constant(seed));
        owned[out_id] = true;
        let mut touched: Vec<u32> = Vec::new();
        let mut reads: Vec<u32> = Vec::new();

        for i in (0..n).rev() {
            if let Some(g) = grads[i] {
                let (op, rg) = {
                    let nodes = self.nodes.borrow();
                    (nodes[i].op.clone(), nodes[i].rg)
                };
                if rg {
                    // The VJP reads the node and its inputs: none may have
                    // been released by a forward that no backward was
                    // meant to sweep.
                    op.inputs(&mut reads);
                    reads.push(i as u32);
                    self.check_live(reads.iter().map(|&r| Var(r)));
                    // Nodes at or past `mark` are created by this VJP; every
                    // contribution below it is `g` itself (identity VJPs
                    // forward their cotangent unchanged).
                    let mark = self.len();
                    touched.clear();
                    let gs = (g, launch_cotangents(&op, i, &grads));
                    self.vjp(Var(i as u32), &op, gs, last, &mut |t, e| {
                        touched.push(t);
                        self.accum(&mut grads, &mut owned, t, e, g, i as u32, mark, last)
                    });
                    // vjp(i) was g's last read; interior gradients are not
                    // part of the caller-facing result.
                    let interior = !matches!(op, Op::Leaf | Op::DiffLeaf | Op::Param(_));
                    if last && owned[i] && interior {
                        self.release_node_buffer(g);
                        owned[i] = false;
                    }
                    // Everything this VJP pushed is dead now unless it ended
                    // up in a gradient slot: intermediates only feed other
                    // nodes of the same VJP, and later sweep iterations read
                    // only pre-`mark` ids and slot values.
                    if last {
                        let end = self.len();
                        let kept: Vec<u32> = touched
                            .iter()
                            .filter_map(|&t| grads[t as usize])
                            .map(|v| v.id())
                            .filter(|&id| id as usize >= mark)
                            .collect();
                        for id in mark..end {
                            if !kept.contains(&(id as u32)) {
                                self.release_node_buffer(Var(id as u32));
                            }
                        }
                    }
                }
            }
            // Liveness: every consumer of node i has a larger id and has
            // already run its VJP, and vjp(i) itself only reads ids <= i —
            // the forward activation of i is dead from here on. The output
            // stays pinned for the caller.
            if last && i != out_id {
                self.release_node_buffer(Var(i as u32));
            }
        }
        self.sync_pool_stats();
        GradMap { grads }
    }

    /// Dense Jacobian `∂output/∂input` as an `(out_len, in_len)` tensor.
    ///
    /// Row `j` holds the gradient of output element `j` (row-major) with
    /// respect to every element of `input`. Each row runs one seeded
    /// reverse sweep; the tape is rewound to its pre-call length between
    /// rows, so the call leaves the tape exactly as it found it. Inputs
    /// that receive no gradient flow yield zero rows.
    pub fn jacobian(&self, output: Var, input: Var) -> Tensor {
        let out_shape = self.shape(output);
        let in_shape = self.shape(input);
        let out_len = out_shape.rows * out_shape.cols;
        let in_len = in_shape.rows * in_shape.cols;
        let mut jac = Tensor::zeros(out_len, in_len);
        let mark = self.len();
        for j in 0..out_len {
            let mut seed = Tensor::zeros(out_shape.rows, out_shape.cols);
            seed.data_mut()[j] = 1.0;
            let gm = self.sweep(output, seed, false);
            if let Some(g) = gm.get(input) {
                let row = self.value(g);
                jac.data_mut()[j * in_len..(j + 1) * in_len].copy_from_slice(row.data());
            }
            self.truncate(mark);
        }
        jac
    }

    /// Accumulate `extra` into `grads[target]`: in place, freeing consumed
    /// buffers, in the final sweep (`last`), with a new `add` node
    /// otherwise.
    ///
    /// `g` is the cotangent of the node whose VJP is running (`cur`) and
    /// `mark` is the tape length captured just before that VJP: a
    /// contribution with id below `mark` is not a fresh node, and by
    /// construction of every VJP rule it is then exactly `g` itself
    /// (identity VJPs — `AddScalar`, full broadcasts, same-shape
    /// `broadcast_to` — forward their cotangent unchanged). Such aliased
    /// buffers are marked unowned on *both* slots so neither frees memory
    /// the other still references.
    #[allow(clippy::too_many_arguments)]
    fn accum(
        &self,
        grads: &mut [Option<Var>],
        owned: &mut [bool],
        target: u32,
        extra: Var,
        g: Var,
        cur: u32,
        mark: usize,
        last: bool,
    ) {
        if !self.requires_grad(Var(target)) {
            return;
        }
        let fresh = (extra.id() as usize) >= mark;
        let t = target as usize;
        match grads[t] {
            None => {
                debug_assert!(fresh || extra == g, "non-fresh VJP contribution is not g");
                grads[t] = Some(extra);
                owned[t] = fresh;
                if !fresh {
                    owned[cur as usize] = false;
                }
            }
            Some(existing) => {
                if last && owned[t] {
                    // `existing` is uniquely referenced (owned) and its
                    // intermediate value is never read again before the
                    // next contribution, so accumulating in place is safe.
                    self.accum_inplace(existing, extra);
                    if fresh {
                        self.release_node_buffer(extra);
                    }
                } else {
                    // `existing` is shared here (or the graph is retained)
                    // and must survive.
                    let merged = self.add(existing, extra);
                    if last && fresh {
                        self.release_node_buffer(extra);
                    }
                    grads[t] = Some(merged);
                    owned[t] = true;
                }
            }
        }
    }

    /// `existing += extra` without allocating: axpy straight into the
    /// existing gradient buffer. Bitwise identical to the `add` kernel
    /// (`1.0 * b == b` in IEEE 754, same element order) and charged the
    /// same FLOP/byte cost so profiles stay comparable across sweeps.
    fn accum_inplace(&self, existing: Var, extra: Var) {
        let len;
        self.profiler().start_kernel();
        {
            let mut nodes = self.nodes.borrow_mut();
            let (ei, xi) = (existing.id() as usize, extra.id() as usize);
            let mut buf = std::mem::replace(&mut nodes[ei].value, Tensor::placeholder());
            buf.axpy(1.0, &nodes[xi].value);
            len = buf.len() as u64;
            nodes[ei].value = buf;
        }
        self.profiler().record_kernel(false);
        self.profiler().record_cost(crate::cost::OpCost {
            kind: "accum.axpy",
            flops: len,
            bytes: 12 * len,
        });
    }

    /// Reduce a gradient with the output shape down to an operand that was
    /// broadcast with pattern `bc`.
    fn reduce_bcast(&self, g: Var, bc: Bcast) -> Var {
        use crate::kernels::reduce::Axis;
        match bc {
            Bcast::Full => g,
            Bcast::Col => self.sum(g, Axis::Cols),
            Bcast::Row => self.sum(g, Axis::Rows),
            Bcast::Scalar => self.sum(g, Axis::All),
        }
    }

    /// Emit the VJP of one node: distribute cotangent `g` of node `out`
    /// into its inputs via `sink(input_id, contribution)`. `launch` holds
    /// the cotangents of every output of a multi-output launch
    /// ([`launch_cotangents`]).
    ///
    /// With `fused` (the final sweep), a LayerNorm, gate or linear VJP is
    /// one fused launch and a weight gradient `aᵀ @ g` one GEMM without a
    /// transpose, each bitwise the composed chain emitted otherwise. Those
    /// fused nodes have no VJP of their own, so `backward` (create_graph)
    /// keeps the composed chains.
    /// Every sweep computes a lazy node (the LayerNorm outputs of
    /// [`Tape::fused_ln_gate`], the gathers and products of
    /// [`Tape::weighted_segment_sum`]) where a VJP reads it.
    fn vjp(
        &self,
        out: Var,
        op: &Op,
        (g, launch): (Var, [Option<Var>; 3]),
        fused: bool,
        sink: &mut dyn FnMut(u32, Var),
    ) {
        use crate::kernels::reduce::Axis;
        match op {
            Op::Leaf | Op::DiffLeaf | Op::Param(_) => {}

            Op::Un { kind, a } => {
                let a = *a;
                let av = Var(a);
                let contrib = match *kind {
                    UnKind::Neg => Some(self.neg(g)),
                    UnKind::Exp => Some(self.mul(g, out)),
                    UnKind::Ln => Some(self.div(g, av)),
                    UnKind::Sqrt => {
                        let half_inv = self.scale(self.recip(out), 0.5);
                        Some(self.mul(g, half_inv))
                    }
                    UnKind::Sin => {
                        let c = self.cos(av);
                        Some(self.mul(g, c))
                    }
                    UnKind::Cos => {
                        let s = self.sin(av);
                        Some(self.neg(self.mul(g, s)))
                    }
                    UnKind::Arccos => {
                        // -1 / sqrt(1 - a^2), with an epsilon so exactly
                        // collinear inputs (cos θ = ±1) stay finite.
                        // Callers should clamp inputs away from ±1 (see
                        // the angle construction in fc_core) — this guard
                        // only bounds the worst case.
                        let one_minus = self.add_scalar(self.neg(self.square(av)), 1.0);
                        let safe = self.add_scalar(one_minus, 1e-10);
                        let d = self.recip(self.sqrt(safe));
                        Some(self.neg(self.mul(g, d)))
                    }
                    UnKind::Sigmoid => {
                        // s(1-s) with s = out.
                        let d = self.sub(out, self.square(out));
                        Some(self.mul(g, d))
                    }
                    UnKind::Silu => {
                        // silu'(x) = s + x·s·(1-s), s = sigmoid(x).
                        let s = self.sigmoid(av);
                        let xs = self.mul(av, s);
                        let xss = self.mul(xs, s);
                        let d = self.add(s, self.sub(xs, xss));
                        Some(self.mul(g, d))
                    }
                    UnKind::Tanh => {
                        let d = self.add_scalar(self.neg(self.square(out)), 1.0);
                        Some(self.mul(g, d))
                    }
                    UnKind::Recip => {
                        // -1/a² = -out².
                        Some(self.neg(self.mul(g, self.square(out))))
                    }
                    UnKind::Square => {
                        let two_a = self.scale(av, 2.0);
                        Some(self.mul(g, two_a))
                    }
                    UnKind::Abs => {
                        let s = self.sign(av);
                        Some(self.mul(g, s))
                    }
                    UnKind::Sign | UnKind::LtScalar(_) | UnKind::InsideInterval(..) => None,
                    UnKind::Clamp(lo, hi) => {
                        let ind = self.unary(UnKind::InsideInterval(lo, hi), av);
                        Some(self.mul(g, ind))
                    }
                    UnKind::Powi(n) => {
                        if n == 0 {
                            None
                        } else {
                            let d = self.scale(self.powi(av, n - 1), n as f32);
                            Some(self.mul(g, d))
                        }
                    }
                    UnKind::Scale(c) => Some(self.scale(g, c)),
                    UnKind::AddScalar(_) => Some(g),
                    UnKind::ClampMax(c) => {
                        let ind = self.lt_scalar(av, c);
                        Some(self.mul(g, ind))
                    }
                };
                if let Some(c) = contrib {
                    sink(a, c);
                }
            }

            Op::Bin { kind, a, ba, b, bb } => {
                let (a, b, ba, bb) = (*a, *b, *ba, *bb);
                let (av, bv) = (Var(a), Var(b));
                match kind {
                    BinKind::Add => {
                        let ga = self.reduce_bcast(g, ba);
                        sink(a, ga);
                        let gb = self.reduce_bcast(g, bb);
                        sink(b, gb);
                    }
                    BinKind::Sub => {
                        let ga = self.reduce_bcast(g, ba);
                        sink(a, ga);
                        let gb = self.reduce_bcast(self.neg(g), bb);
                        sink(b, gb);
                    }
                    BinKind::Mul => {
                        if self.requires_grad(av) {
                            let ga = self.reduce_bcast(self.mul(g, bv), ba);
                            sink(a, ga);
                        }
                        if self.requires_grad(bv) {
                            let gb = self.reduce_bcast(self.mul(g, av), bb);
                            sink(b, gb);
                        }
                    }
                    BinKind::Div => {
                        if self.requires_grad(av) {
                            let ga = self.reduce_bcast(self.div(g, bv), ba);
                            sink(a, ga);
                        }
                        if self.requires_grad(bv) {
                            // d(a/b)/db = -a/b² = -out/b.
                            let t = self.div(out, bv);
                            let gb = self.reduce_bcast(self.neg(self.mul(g, t)), bb);
                            sink(b, gb);
                        }
                    }
                }
            }

            Op::Matmul { a, b } => {
                let (a, b) = (*a, *b);
                if self.requires_grad(Var(a)) {
                    let bt = self.transpose(Var(b));
                    let ga = self.matmul(g, bt);
                    sink(a, ga);
                }
                if self.requires_grad(Var(b)) {
                    let gb = if fused {
                        self.matmul_at(Var(a), g)
                    } else {
                        let at = self.transpose(Var(a));
                        self.matmul(at, g)
                    };
                    sink(b, gb);
                }
            }

            Op::LinearPart { x, w, b, part, parts } => {
                // One VJP for all outputs, at the last output with a
                // cotangent (the first the sweep reaches).
                let parts = &launch[..*parts as usize];
                if parts[*part as usize + 1..].iter().any(Option::is_some) {
                    return;
                }
                let (x, w, b) = (*x, *w, *b);
                let (rg_x, rg_w) = (self.requires_grad(Var(x)), self.requires_grad(Var(w)));
                if fused {
                    let grads = self.linear_vjp(Var(x), Var(w), parts, rg_x);
                    let &[.., dw, db] = &grads[..] else { unreachable!("dw and db") };
                    sink(b, db);
                    if rg_x {
                        sink(x, grads[0]);
                    }
                    if rg_w {
                        sink(w, dw);
                    }
                } else {
                    // What `slice_cols` per output, `add` and `matmul` would
                    // emit: each output's padded cotangent, the last first,
                    // summed.
                    let dh = if let [Some(g)] = parts {
                        *g
                    } else {
                        let n = self.shape(Var(w)).cols;
                        let k = n / parts.len();
                        let padded = parts
                            .iter()
                            .enumerate()
                            .rev()
                            .filter_map(|(i, g)| g.map(|g| self.pad_cols(g, i * k, n)));
                        padded.reduce(|acc, p| self.add(acc, p)).expect("a cotangent")
                    };
                    let out = Shape::new(self.shape(dh).rows, self.shape(Var(w)).cols);
                    let bc = Bcast::resolve(self.shape(Var(b)), out).expect("a bias broadcast");
                    sink(b, self.reduce_bcast(dh, bc));
                    if rg_x {
                        let wt = self.transpose(Var(w));
                        sink(x, self.matmul(dh, wt));
                    }
                    if rg_w {
                        let xt = self.transpose(Var(x));
                        sink(w, self.matmul(xt, dh));
                    }
                }
            }

            Op::ColumnBlocks { blocks } => {
                // The gathers + `concat_cols` a view stands for: each
                // block's column window, straight into an unindexed
                // block's source, then the gathered blocks' scatters in
                // reverse block order (the gathers' reverse push order).
                let mut off = 0;
                let mut gathered = Vec::new();
                for blk in blocks.iter() {
                    let src = self.shape(Var(blk.src));
                    if self.requires_grad(Var(blk.src)) {
                        match &blk.idx {
                            None => sink(blk.src, self.slice_cols(g, off, src.cols)),
                            // The final sweep reads the window in place.
                            Some(_) if fused => gathered.push((blk, off, None)),
                            Some(_) => {
                                gathered.push((blk, off, Some(self.slice_cols(g, off, src.cols))))
                            }
                        }
                    }
                    off += src.cols;
                }
                for (blk, off, window) in gathered.into_iter().rev() {
                    let src = self.shape(Var(blk.src));
                    let idx = blk.idx.clone().expect("a gathered block");
                    let ga = match window {
                        Some(w) => self.segment_sum(w, idx, src.rows),
                        None => self.segment_sum_cols(g, off, src.cols, idx, src.rows),
                    };
                    sink(blk.src, ga);
                }
            }

            Op::Transpose { a } => {
                let ga = self.transpose(g);
                sink(*a, ga);
            }

            Op::Sum { a, .. } => {
                let shape = self.shape(Var(*a));
                let ga = self.broadcast_to(g, shape);
                sink(*a, ga);
            }

            Op::BroadcastTo { a, shape } => {
                let src = self.shape(Var(*a));
                let bc = Bcast::resolve(src, *shape).expect("broadcast_to VJP");
                let ga = self.reduce_bcast(g, bc);
                sink(*a, ga);
            }

            Op::Gather { a, idx } => {
                let rows = self.shape(Var(*a)).rows;
                let ga = self.segment_sum(g, idx.clone(), rows);
                sink(*a, ga);
            }

            Op::SegSum { a, seg, .. } => {
                let ga = self.gather(g, seg.clone());
                sink(*a, ga);
            }

            Op::ConcatCols { parts } => {
                let mut off = 0;
                for &p in parts.iter() {
                    let c = self.shape(Var(p)).cols;
                    if self.requires_grad(Var(p)) {
                        let gp = self.slice_cols(g, off, c);
                        sink(p, gp);
                    }
                    off += c;
                }
            }

            Op::ConcatRows { parts } => {
                let mut off = 0;
                for &p in parts.iter() {
                    let r = self.shape(Var(p)).rows;
                    if self.requires_grad(Var(p)) {
                        let gp = self.slice_rows(g, off, r);
                        sink(p, gp);
                    }
                    off += r;
                }
            }

            Op::SliceCols { a, start, len } => {
                let total = self.shape(Var(*a)).cols;
                let _ = len;
                let ga = self.pad_cols(g, *start, total);
                sink(*a, ga);
            }

            Op::SliceRows { a, start, len } => {
                let total = self.shape(Var(*a)).rows;
                let _ = len;
                let ga = self.pad_rows(g, *start, total);
                sink(*a, ga);
            }

            Op::PadCols { a, start, .. } => {
                let len = self.shape(Var(*a)).cols;
                let ga = self.slice_cols(g, *start, len);
                sink(*a, ga);
            }

            Op::PadRows { a, start, .. } => {
                let len = self.shape(Var(*a)).rows;
                let ga = self.slice_rows(g, *start, len);
                sink(*a, ga);
            }

            Op::Reshape { a, .. } => {
                let s = self.shape(Var(*a));
                let ga = self.reshape(g, s.rows, s.cols);
                sink(*a, ga);
            }

            Op::BlockDiagMm { a, b, seg, trans_b } => {
                let (a, b) = (*a, *b);
                if self.requires_grad(Var(a)) {
                    let ga = self.block_diag_matmul(g, Var(b), seg.clone(), !trans_b);
                    sink(a, ga);
                }
                if self.requires_grad(Var(b)) {
                    // Per-block outer-product accumulation, expressed with
                    // primitives so it stays differentiable.
                    let nseg3 = self.shape(Var(b)).rows;
                    // For trans_b=false: dB[3s+k, j] += a[r,k] g[r,j];
                    // for trans_b=true : dB[3s+j, k] += a[r,k] g[r,j];
                    // i.e. swap the roles of (a, g).
                    let (rows_src, cols_src) = if *trans_b { (g, Var(a)) } else { (Var(a), g) };
                    let mut gb: Option<Var> = None;
                    for k in 0..3usize {
                        let seg3: Arc<[u32]> =
                            seg.iter().map(|&s| 3 * s + k as u32).collect::<Vec<_>>().into();
                        let col = self.slice_cols(rows_src, k, 1);
                        let weighted = self.mul(cols_src, col);
                        let part = self.segment_sum(weighted, seg3, nseg3);
                        gb = Some(match gb {
                            Some(acc) => self.add(acc, part),
                            None => part,
                        });
                    }
                    sink(b, gb.expect("3 block columns"));
                }
            }

            Op::FusedSrbf { r, cfg, order } => {
                let deriv = self.fused_srbf(Var(*r), *cfg, order + 1);
                let prod = self.mul(g, deriv);
                let gr = self.sum(prod, Axis::Cols);
                sink(*r, gr);
            }

            Op::FusedFourier { theta, harmonics, order } => {
                let deriv = self.fused_fourier(Var(*theta), *harmonics, order + 1);
                let prod = self.mul(g, deriv);
                let gt = self.sum(prod, Axis::Cols);
                sink(*theta, gt);
            }

            Op::FusedLayerNorm { a, gamma, beta, eps } if fused => {
                let (a, gamma, beta) = (*a, *gamma, *beta);
                let rg = self.requires_grad(Var(a)) || self.requires_grad(Var(gamma));
                let ln = rg.then(|| self.layer_norm_vjp(Var(a), Var(gamma), g, *eps));
                if let Some([_, gg]) = ln {
                    sink(gamma, gg);
                }
                if self.requires_grad(Var(beta)) {
                    sink(beta, self.sum(g, Axis::Rows));
                }
                if let Some([ga, _]) = ln {
                    sink(a, ga);
                }
            }

            Op::FusedLayerNorm { a, gamma, beta, eps } => {
                // Recompute the normalisation statistics with primitives
                // so the VJP remains differentiable (double backward).
                let (a, gamma, beta, eps) = (*a, *gamma, *beta, *eps);
                let av = Var(a);
                let m = self.shape(av).cols.max(1) as f32;
                let mean = self.scale(self.sum(av, Axis::Cols), 1.0 / m);
                let centered = self.sub(av, mean);
                let var = self.scale(self.sum(self.square(centered), Axis::Cols), 1.0 / m);
                let inv_std = self.recip(self.sqrt(self.add_scalar(var, eps)));
                let xhat = self.mul(centered, inv_std);
                if self.requires_grad(Var(gamma)) {
                    let gg = self.sum(self.mul(g, xhat), Axis::Rows);
                    sink(gamma, gg);
                }
                if self.requires_grad(Var(beta)) {
                    let gb = self.sum(g, Axis::Rows);
                    sink(beta, gb);
                }
                if self.requires_grad(av) {
                    // dL/dx = inv_std ⊙ (gx − mean(gx) − xhat ⊙ mean(gx ⊙ xhat))
                    // with gx = g ⊙ gamma, means taken per row.
                    let gx = self.mul(g, Var(gamma));
                    let mean_gx = self.scale(self.sum(gx, Axis::Cols), 1.0 / m);
                    let mean_gxx = self.scale(self.sum(self.mul(gx, xhat), Axis::Cols), 1.0 / m);
                    let inner = self.sub(self.sub(gx, mean_gx), self.mul(xhat, mean_gxx));
                    let ga = self.mul(inner, inv_std);
                    sink(a, ga);
                }
            }

            Op::FusedGate { a, b } if fused => {
                let [ga, gb] = self.gate_vjp(Var(*a), Var(*b), g);
                sink(*a, ga);
                sink(*b, gb);
            }

            Op::FusedGate { a, b } => {
                let (a, b) = (*a, *b);
                let (av, bv) = (Var(a), Var(b));
                if self.requires_grad(av) {
                    let sa = self.sigmoid(av);
                    let dsig = self.sub(sa, self.square(sa));
                    let silu_b = self.silu(bv);
                    let ga = self.mul(self.mul(g, silu_b), dsig);
                    sink(a, ga);
                }
                if self.requires_grad(bv) {
                    let sa = self.sigmoid(av);
                    let sb = self.sigmoid(bv);
                    let bs = self.mul(bv, sb);
                    let bss = self.mul(bs, sb);
                    let dsilu = self.add(sb, self.sub(bs, bss));
                    let gb = self.mul(self.mul(g, sa), dsilu);
                    sink(b, gb);
                }
            }

            Op::MatmulAt { .. }
            | Op::FusedLnVjp { .. }
            | Op::FusedGateVjp { .. }
            | Op::LinearVjp { .. }
            | Op::SegSumCols { .. } => {
                unreachable!("{op:?} is a final-sweep node: nothing differentiates it")
            }
        }
    }
}

/// The cotangents of every output of the multi-output launch that wrote
/// node `i` (`linear_split`), whose VJP reads them all.
fn launch_cotangents(op: &Op, i: usize, grads: &[Option<Var>]) -> [Option<Var>; 3] {
    let mut out = [None; 3];
    if let Op::LinearPart { part, parts, .. } = op {
        let first = i - *part as usize;
        for (q, slot) in out.iter_mut().enumerate().take(*parts as usize) {
            *slot = grads.get(first + q).copied().flatten();
        }
    }
    out
}

impl ParamStore {
    /// Add the gradients of every parameter injected into `tape` (per the
    /// grad map `gm`) into this store's accumulators.
    pub fn accumulate_grads(&mut self, tape: &Tape, gm: &GradMap) {
        for (pid, var) in tape.injected_params() {
            if let Some(gv) = gm.get(var) {
                tape.with_value(gv, |g| self.entry_mut(pid).grad.axpy(1.0, g));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::fused::SrbfCfg;
    use crate::shape::Shape;

    // Finite-difference gradient coverage for individual ops lives in
    // `fc_verify::ops` (gradcheck registry) and in the integration test
    // `tests/autodiff_properties.rs`, both built on the shared
    // `fc_verify::gradcheck` engine. Unit tests here cover only what
    // integration tests cannot reach: tape internals (rewind marks,
    // param injection, double backward through the live tape).

    #[test]
    fn fused_layer_norm_matches_composed_values_and_grads() {
        let x0 = Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.2, -0.3]]);
        let gamma0 = Tensor::row_vec(&[1.2, 0.8, 1.0]);
        let beta0 = Tensor::row_vec(&[0.1, -0.1, 0.0]);

        // Values agree with the primitive composition.
        let t = Tape::new();
        let x = t.input(x0.clone());
        let gamma = t.input(gamma0.clone());
        let beta = t.input(beta0.clone());
        let fused = t.fused_layer_norm(x, gamma, beta, 1e-5);
        let composed = t.layer_norm(x, gamma, beta, 1e-5);
        assert!(t.value(fused).approx_eq(&t.value(composed), 1e-4));

        // Gradients agree for x, gamma and beta.
        let lf = t.sum_all(t.square(fused));
        let gf = t.backward(lf);
        let lc = t.sum_all(t.square(composed));
        let gc = t.backward(lc);
        for v in [x, gamma, beta] {
            let a = t.value(gf.get(v).unwrap());
            let b = t.value(gc.get(v).unwrap());
            assert!(a.approx_eq(&b, 1e-3), "grad mismatch: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn double_backward_cubic() {
        // y = sum(x³): dy/dx = 3x², d²y/dx² (diag) = 6x.
        let tape = Tape::new();
        let x = tape.input(Tensor::row_vec(&[1.5, -2.0]));
        let y = tape.sum_all(tape.powi(x, 3));
        let gm = tape.backward(y);
        let gx = gm.get(x).unwrap();
        assert!(tape.value(gx).approx_eq(&Tensor::row_vec(&[6.75, 12.0]), 1e-4));
        // Second backward through the gradient graph.
        let s = tape.sum_all(gx);
        let gm2 = tape.backward(s);
        let gx2 = gm2.get(x).unwrap();
        assert!(tape.value(gx2).approx_eq(&Tensor::row_vec(&[9.0, -12.0]), 1e-4));
    }

    #[test]
    fn double_backward_through_fused_srbf() {
        // Force-style pattern: E = sum(basis(r)), F = dE/dr; then
        // d(sum F²)/dr must match finite differences of sum F².
        let cfg = SrbfCfg::new(4, 6.0, 8);
        let f_of = |r: f32| -> (f32, f32) {
            let tape = Tape::new();
            let rv = tape.input(Tensor::scalar(r));
            let e = tape.sum_all(tape.fused_srbf(rv, cfg, 0));
            let gm = tape.backward(e);
            let force = gm.get(rv).unwrap();
            let loss = tape.sum_all(tape.square(force));
            let gm2 = tape.backward(loss);
            let d = tape.value(gm2.get(rv).unwrap()).item();
            (tape.value(loss).item(), d)
        };
        let h = 1e-3;
        for &r in &[1.2f32, 2.8, 4.5] {
            let (_, analytic) = f_of(r);
            let (lp, _) = f_of(r + h);
            let (lm, _) = f_of(r - h);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "r={r}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn param_grad_accumulation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[vec![2.0]]));
        let tape = Tape::new();
        let wv = tape.param(&store, w);
        let x = tape.constant(Tensor::scalar(3.0));
        let y = tape.mul(wv, x);
        let gm = tape.backward(y);
        store.accumulate_grads(&tape, &gm);
        assert!((store.entry(w).grad.item() - 3.0).abs() < 1e-6);
        // Accumulates on a second pass.
        store.accumulate_grads(&tape, &gm);
        assert!((store.entry(w).grad.item() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn no_grad_through_constants() {
        let tape = Tape::new();
        let c = tape.scalar(5.0);
        let x = tape.input(Tensor::scalar(1.0));
        let y = tape.mul(c, x);
        let gm = tape.backward(y);
        assert!(gm.get(c).is_none());
        assert!(gm.get(x).is_some());
    }

    #[test]
    fn backward_of_non_rg_output_is_empty() {
        let tape = Tape::new();
        let c = tape.scalar(5.0);
        let y = tape.square(c);
        let gm = tape.backward(y);
        assert!(gm.get(c).is_none());
    }

    // A force-style graph: an inner *retained* backward derives forces
    // from the energy, then the outer loss consumes them — the same
    // second-order pattern `rank_work` runs for the derivative-based
    // OptLevels, with aliasing Adds and out-reading VJPs on the path.
    fn force_style_loss(tape: &Tape) -> (crate::op::Var, crate::op::Var) {
        let cfg = SrbfCfg::new(4, 6.0, 8);
        let r = tape.input(Tensor::col_vec(&[1.2, 2.8, 4.5]));
        let e = tape.sum_all(tape.fused_srbf(r, cfg, 0));
        let gm = tape.backward(e);
        let f = gm.get(r).unwrap();
        let loss = tape.add(tape.sum_all(tape.square(f)), e);
        (loss, r)
    }

    #[test]
    fn planned_final_backward_is_bitwise_identical() {
        let grads_of = |final_sweep: bool| -> Vec<u32> {
            let tape = Tape::new();
            let (loss, r) = force_style_loss(&tape);
            let gm = if final_sweep { tape.backward_final(loss) } else { tape.backward(loss) };
            tape.value(gm.get(r).unwrap()).data().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(grads_of(false), grads_of(true), "final sweep diverges from backward");
    }

    /// Gradient bits of `leaves` after seeding `out` (built by `graph` on a
    /// fresh tape) with `seed`, by `backward` or the final sweep.
    fn seeded_grads(
        final_sweep: bool,
        seed: &Tensor,
        graph: &dyn Fn(&Tape) -> (Var, Vec<Var>),
    ) -> Vec<Option<Vec<u32>>> {
        let tape = Tape::new();
        let (out, leaves) = graph(&tape);
        let gm = tape.sweep(out, seed.clone(), final_sweep);
        leaves
            .iter()
            .map(|&v| gm.get(v).map(|g| crate::kernels::bits(tape.value(g).data())))
            .collect()
    }

    /// The final sweep (fused VJPs) against `backward` (the composed
    /// chains), bit for bit.
    fn assert_fused_vjp_is_composed(
        what: &str,
        seed: &Tensor,
        graph: &dyn Fn(&Tape) -> (Var, Vec<Var>),
    ) {
        let composed = seeded_grads(false, seed, graph);
        let fused = seeded_grads(true, seed, graph);
        for (i, (f, c)) in fused.iter().zip(&composed).enumerate() {
            assert_eq!(f, c, "fused VJP, leaf {i}: {what}");
        }
    }

    #[test]
    fn fused_final_sweep_vjps_are_bitwise_the_composed_chains() {
        use crate::kernels::{test_param, test_rows, TEST_COLS, TEST_ROWS};
        use rand::{rngs::StdRng, SeedableRng};
        let leaf = |t: &Tape, x: &Tensor, rg: bool| {
            if rg {
                t.input(x.clone())
            } else {
                t.constant(x.clone())
            }
        };
        let mut case = 0;
        for rows in TEST_ROWS {
            for m in TEST_COLS {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let (x, y, g) =
                    (test_rows(rng, rows, m), test_rows(rng, rows, m), test_rows(rng, rows, m));
                let (gamma, beta) = (test_param(rng, m), test_param(rng, m));
                let w = test_rows(rng, m, 5);
                // γ and β with and without requires_grad.
                for (rg_gamma, rg_beta) in
                    [(true, true), (false, true), (true, false), (false, false)]
                {
                    let what =
                        format!("layer norm {rows}x{m}, rg γ {rg_gamma} β {rg_beta} (seed {case})");
                    assert_fused_vjp_is_composed(&what, &g, &|t| {
                        let (xv, gv, bv) = (
                            t.input(x.clone()),
                            leaf(t, &gamma, rg_gamma),
                            leaf(t, &beta, rg_beta),
                        );
                        (t.fused_layer_norm(xv, gv, bv, 1e-5), vec![xv, gv, bv])
                    });
                }
                for (rg_a, rg_b) in [(true, true), (true, false), (false, true)] {
                    let what = format!("gate {rows}x{m}, rg a {rg_a} b {rg_b} (seed {case})");
                    assert_fused_vjp_is_composed(&what, &g, &|t| {
                        let (av, bv) = (leaf(t, &x, rg_a), leaf(t, &y, rg_b));
                        (t.fused_gate(av, bv), vec![av, bv])
                    });
                }
                // aᵀ @ g for the weight, with g finite, then holding one
                // inf, then one NaN (the GEMM's two paths).
                for poison in [None, Some(f32::INFINITY), Some(f32::NAN)] {
                    let mut g = crate::init::uniform(rng, rows, 5, -2.0, 2.0);
                    if let (Some(p), true) = (poison, rows > 0) {
                        *g.at_mut(rows / 2, 3) = p;
                    }
                    let what = format!("matmul {rows}x{m} @ {m}x5, {poison:?} in g (seed {case})");
                    assert_fused_vjp_is_composed(&what, &g, &|t| {
                        let (xv, wv) = (t.input(x.clone()), t.input(w.clone()));
                        (t.matmul(xv, wv), vec![xv, wv])
                    });
                }
            }
        }
    }

    /// Inputs of [`view_graph`]: atom, bond and angle features, the bond
    /// and angle index tables, three packed linears' `[w, b, γ, β]`, and
    /// an atom-feature linear's and a three-output linear's `[w, b]`.
    struct ViewCase {
        v: Tensor,
        e: Tensor,
        a: Tensor,
        /// bond_i, bond_j, angle centre, angle b1, angle b2.
        idx: [Arc<[u32]>; 5],
        linears: [[Tensor; 4]; 3],
        plain: [[Tensor; 2]; 2],
    }

    fn view_case(seed: u64, atoms: usize, bonds: usize, angles: usize, fea: usize) -> ViewCase {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut ids = |len: usize, bound: usize| -> Arc<[u32]> {
            (0..len).map(|_| rng.gen_range(0..bound) as u32).collect()
        };
        let idx = [
            ids(bonds, atoms),
            ids(bonds, atoms),
            ids(angles, atoms),
            ids(angles, bonds),
            ids(angles, bonds),
        ];
        let rng = &mut StdRng::seed_from_u64(seed + 1000);
        let mut draw = |r: usize, c: usize| crate::init::uniform(rng, r, c, -1.5, 1.5);
        let (v, e, a) = (draw(atoms, fea), draw(bonds, fea), draw(angles, fea));
        let mut linear =
            |k: usize| [draw(k * fea, 2 * fea), draw(1, 2 * fea), draw(1, fea), draw(1, fea)];
        let linears = [linear(3), linear(4), linear(4)];
        let plain = [[draw(fea, fea), draw(1, fea)], [draw(fea, 3 * fea), draw(1, 3 * fea)]];
        ViewCase { v, e, a, idx, linears, plain }
    }

    /// A block-0 interaction over `c`: an atom view `[v[bond_i], v[bond_j],
    /// e]` read by one packed GatedMLP linear, and one angle view
    /// `[v[centre], e[b1], e[b2], a]` shared by two (Bond Conv and Angle
    /// Update); `v` and `e` are read again after the views. With `views`
    /// the inputs are `column_blocks` read by `linear_split`, otherwise
    /// gathers, `concat_cols`, `linear` and `slice_cols`. With
    /// `message_chain` the messages are weighted before they are summed
    /// (the atom ones by `e`, the bond ones by `e` read through both angle
    /// bond tables) and the loss also reads a linear of the new atom
    /// features and a three-output linear of `a`. With `launches` each
    /// GatedMLP's LayerNorms and gate are one `fused_ln_gate`, the weighted
    /// sums `weighted_segment_sum`s and the linears `linear_split`s;
    /// otherwise the chains they stand for. Returns
    /// the loss (with `second_order`, plus the squared norm of its
    /// `backward` gradient in `v`, as force training adds) and the leaves.
    fn view_graph(
        t: &Tape,
        c: &ViewCase,
        views: bool,
        [message_chain, launches]: [bool; 2],
        second_order: bool,
    ) -> (Var, Vec<Var>) {
        let [v, e, a] = [&c.v, &c.e, &c.a].map(|x| t.input(x.clone()));
        let [bond_i, bond_j, centre, b1, b2] = c.idx.clone();
        let features = |blocks: &[(Var, Option<Arc<[u32]>>)]| {
            if views {
                t.column_blocks(blocks)
            } else {
                t.gather_concat(blocks)
            }
        };
        let mut leaves = vec![v, e, a];
        let mut gated = |x: Var, p: &[Tensor; 4]| {
            let [w, b, gamma, beta] = p.clone().map(|p| t.input(p));
            leaves.extend([w, b, gamma, beta]);
            let n = t.shape(w).cols / 2;
            let [gate, core] = if views {
                t.linear_split(x, w, b)
            } else {
                let h = t.linear(x, w, b);
                [t.slice_cols(h, 0, n), t.slice_cols(h, n, n)]
            };
            if launches {
                return t.fused_ln_gate(gate, core, [gamma, beta], [gamma, beta], 1e-5);
            }
            let ln = |h| t.fused_layer_norm(h, gamma, beta, 1e-5);
            t.fused_gate(ln(gate), ln(core))
        };
        let atom = features(&[(v, Some(bond_i.clone())), (v, Some(bond_j)), (e, None)]);
        let m_atom = gated(atom, &c.linears[0]);
        let angle =
            features(&[(v, Some(centre)), (e, Some(b1.clone())), (e, Some(b2.clone())), (a, None)]);
        let (m_bond, m_angle) = (gated(angle, &c.linears[1]), gated(angle, &c.linears[2]));
        let dot = |x, y| t.sum_all(t.mul(x, y));
        let (n_v, n_e) = (t.shape(v).rows, t.shape(e).rows);
        let loss = if !message_chain {
            let v_new = t.segment_sum(m_atom, bond_i, n_v);
            let e_new = t.segment_sum(m_bond, b1, n_e);
            t.add(t.add(dot(v_new, v), dot(e_new, e)), dot(m_angle, a))
        } else {
            let [[w, b], [w3, b3]] = c.plain.clone().map(|p| p.map(|p| t.input(p)));
            leaves.extend([w, b, w3, b3]);
            let fea = t.shape(v).cols;
            let (v_new, e_new, out, [a0, a1, a2]) = if launches {
                let v_new = t.weighted_segment_sum(m_atom, &[(e, None)], bond_i, n_v);
                let weights = [(e, Some(b1.clone())), (e, Some(b2))];
                let e_new = t.weighted_segment_sum(m_bond, &weights, b1, n_e);
                let [out] = t.linear_split(v_new, w, b);
                (v_new, e_new, out, t.linear_split(a, w3, b3))
            } else {
                let v_new = t.segment_sum(t.mul(e, m_atom), bond_i, n_v);
                let (w1, w2) = (t.gather(e, b1.clone()), t.gather(e, b2));
                let e_new = t.segment_sum(t.mul(t.mul(w1, w2), m_bond), b1, n_e);
                let h3 = t.linear(a, w3, b3);
                let split = [0, 1, 2].map(|i| t.slice_cols(h3, i * fea, fea));
                (v_new, e_new, t.linear(v_new, w, b), split)
            };
            let split = t.add(t.add(dot(a0, m_angle), dot(a1, a)), dot(a2, a2));
            let messages = t.add(t.add(dot(out, v), dot(e_new, e)), dot(m_angle, a));
            t.add(t.add(messages, split), dot(v_new, v_new))
        };
        if !second_order {
            return (loss, leaves);
        }
        let force = t.backward(loss).get(v).expect("a gradient in v");
        (t.add(loss, t.sum_all(t.square(force))), leaves)
    }

    /// [`view_graph`] with `message_chain`, built as `want` and as `got`
    /// (`[views, launches]` each), against each other bit for bit: the
    /// loss and every leaf's gradient from `backward` and the final sweep,
    /// first and second order, at widths 1 and 2.
    fn assert_view_graphs_agree(message_chain: bool, want: [bool; 2], got: [bool; 2]) {
        let bits = |t: &Tape, v: Var| crate::kernels::bits(t.value(v).data());
        let run = |c: &ViewCase, [views, launches]: [bool; 2], second_order, final_sweep| {
            let t = Tape::new();
            let (loss, leaves) = view_graph(&t, c, views, [message_chain, launches], second_order);
            let value = bits(&t, loss);
            let gm = if final_sweep { t.backward_final(loss) } else { t.backward(loss) };
            let grads: Vec<_> = leaves.iter().map(|&l| gm.get(l).map(|g| bits(&t, g))).collect();
            (value, grads)
        };
        for (seed, atoms, bonds, angles, fea) in
            [(1, 5, 12, 30, 3), (2, 1, 1, 0, 4), (3, 60, 700, 4099, 16)]
        {
            let c = view_case(seed, atoms, bonds, angles, fea);
            for width in [1, 2] {
                for second_order in [false, true] {
                    for final_sweep in [false, true] {
                        let what = format!(
                            "seed {seed}, width {width}, second order {second_order}, final {final_sweep}"
                        );
                        let [want, got] = [want, got].map(|path| {
                            crate::par::with_width(width, || {
                                run(&c, path, second_order, final_sweep)
                            })
                        });
                        assert_eq!(got.0, want.0, "loss: {what}");
                        for (i, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
                            assert_eq!(g, w, "leaf {i}: {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shared_view_graphs_are_bitwise_the_gather_concat_chains() {
        assert_view_graphs_agree(false, [false, false], [true, false]);
    }

    #[test]
    fn fused_message_path_is_bitwise_the_composed_chains() {
        assert_view_graphs_agree(true, [false, false], [true, true]);
        // The fused forward writes only the launches' outputs; the final
        // sweep computes the lazy LayerNorm outputs and `e^b` gathers where
        // its VJPs read them.
        let c = view_case(1, 5, 12, 30, 3);
        let count = |launches: bool, backward: bool, kind: &str| {
            let t = Tape::new();
            let (loss, _) = view_graph(&t, &c, launches, [true, launches], false);
            if backward {
                let _ = t.backward_final(loss);
            }
            let per_op = t.profiler().per_op();
            per_op.iter().find(|(k, _)| *k == kind).map_or(0, |(_, o)| o.count)
        };
        assert_eq!(count(true, false, "fused.ln_gate"), 3);
        for kind in ["fused.layer_norm", "fused.gate", "gather", "matmul"] {
            assert!(count(false, false, kind) > 0, "the composed chain runs {kind}");
            assert_eq!(count(true, false, kind), 0, "the fused forward runs no {kind}");
        }
        assert_eq!(count(true, true, "fused.layer_norm"), 6);
        assert_eq!(count(true, true, "fused.linear_vjp"), 5);
    }

    #[test]
    fn planned_final_sweep_launches_fused_vjps() {
        let tape = Tape::new();
        let x = tape.input(Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.2, -0.3]]));
        let w = tape.input(Tensor::ones(3, 6));
        let (gamma, beta) = (tape.input(Tensor::ones(1, 3)), tape.input(Tensor::zeros(1, 3)));
        let h = tape.matmul(x, w);
        let (ha, hb) = (tape.slice_cols(h, 0, 3), tape.slice_cols(h, 3, 3));
        let gate = tape.fused_gate(tape.fused_layer_norm(ha, gamma, beta, 1e-5), hb);
        let loss = tape.sum_all(gate);
        let _ = tape.backward_final(loss);
        let per_op = tape.profiler().per_op();
        let count =
            |kind: &str| per_op.iter().find(|(k, _)| *k == kind).map_or(0, |(_, t)| t.count);
        assert_eq!(count("fused.ln_vjp"), 1);
        assert_eq!(count("fused.gate_vjp"), 1);
        assert_eq!(count("transpose"), 1, "only the weight is transposed");
        assert_eq!(count("matmul"), 3, "forward, g @ wᵀ and xᵀ @ g");
    }

    #[test]
    fn steady_state_steps_hit_the_pool_for_every_buffer() {
        // Run in a fresh thread so this test owns its thread-local pool.
        std::thread::spawn(|| {
            let tape = Tape::new();
            let mut misses = Vec::new();
            for _ in 0..4 {
                let before = crate::pool::stats().misses;
                let (loss, r) = force_style_loss(&tape);
                let gm = tape.backward_final(loss);
                let _ = tape.value(gm.get(r).unwrap());
                tape.reset();
                misses.push(crate::pool::stats().misses - before);
            }
            assert!(misses[0] > 0, "warmup step should populate the pool");
            assert_eq!(misses[2], 0, "steady-state step still allocates: {misses:?}");
            assert_eq!(misses[3], 0, "steady-state step still allocates: {misses:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn planned_peak_is_well_below_full_tape_residency() {
        // Deep elementwise chain: backward emits ~5 nodes per SiLU, so
        // full-tape residency is several times the forward footprint.
        let peak = |final_sweep: bool| {
            let tape = Tape::new();
            let x = tape.input(Tensor::ones(64, 64));
            let mut y = x;
            for _ in 0..20 {
                y = tape.silu(y);
            }
            let loss = tape.sum_all(tape.square(y));
            let gm = if final_sweep { tape.backward_final(loss) } else { tape.backward(loss) };
            assert!(gm.get(x).is_some());
            tape.profiler().snapshot().bytes_peak
        };
        let (last, retained) = (peak(true), peak(false));
        assert!(
            last * 10 <= retained * 7,
            "final-sweep peak {last} not ≤ 70% of the retained sweep's {retained}"
        );
    }

    #[test]
    fn jacobian_of_elementwise_square_is_diagonal() {
        let tape = Tape::new();
        let x = tape.input(Tensor::from_vec(Shape::new(1, 3), vec![1.0, -2.0, 3.0]));
        let y = tape.square(x);
        let mark = tape.len();
        let jac = tape.jacobian(y, x);
        assert_eq!(tape.len(), mark, "jacobian must rewind the tape");
        assert_eq!(jac.shape(), Shape::new(3, 3));
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 2.0 * [1.0f32, -2.0, 3.0][i] } else { 0.0 };
                assert!((jac.data()[i * 3 + j] - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn jacobian_of_matmul_matches_weights() {
        // y = x @ W with x (1,2), W (2,3): dy_j/dx_i = W[i][j].
        let tape = Tape::new();
        let x = tape.input(Tensor::from_vec(Shape::new(1, 2), vec![0.5, -1.5]));
        let w =
            tape.constant(Tensor::from_vec(Shape::new(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = tape.matmul(x, w);
        let jac = tape.jacobian(y, x);
        assert_eq!(jac.shape(), Shape::new(3, 2));
        let wdat = [[1.0f32, 2.0, 3.0], [4.0, 5.0, 6.0]];
        for (i, wrow) in wdat.iter().enumerate() {
            for (j, w) in wrow.iter().enumerate() {
                assert!((jac.data()[j * 2 + i] - w).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn jacobian_with_no_flow_is_zero() {
        let tape = Tape::new();
        let x = tape.input(Tensor::scalar(1.0));
        let c = tape.scalar(4.0);
        let y = tape.square(c);
        let jac = tape.jacobian(y, x);
        assert_eq!(jac.data(), &[0.0]);
    }
}
