//! The autodiff tape: a dynamically built computation graph.
//!
//! One `Tape` models one simulated GPU stream: nodes are appended in
//! topological order, each node executes exactly one kernel, and the
//! attached [`Profiler`] counts launches and live bytes. A tape lives for
//! one training iteration and is [`Tape::reset`] afterwards.

use crate::kernels::elementwise::{self, BinKind, UnKind};
use crate::kernels::fused::{self, SrbfCfg};
use crate::kernels::gather as gk;
use crate::kernels::matmul as mk;
use crate::kernels::reduce::{self, Axis};
use crate::kernels::segment as sk;
use crate::op::{ColBlock, Op, Var, VarId};
use crate::param::{ParamId, ParamStore};
use crate::pool::{self, PoolStats};
use crate::profiler::Profiler;
use crate::shape::{broadcast_shape, Bcast, Shape};
use crate::tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

pub(crate) struct Node {
    pub op: Op,
    pub value: Tensor,
    /// Whether any gradient flows into this node.
    pub rg: bool,
    /// Whether the value is still to be computed: the node is one of the
    /// intermediates a fused launch computed without writing
    /// ([`Tape::push_lazy`]). Its first read recomputes it.
    pub lazy: bool,
}

/// The autodiff tape.
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    profiler: Profiler,
    /// Cache of param-id -> injected Var for the current iteration.
    param_cache: RefCell<Vec<Option<Var>>>,
    /// Thread-pool counters at the last sync, so pool activity between
    /// syncs is attributed to this tape's profiler (and to no other tape
    /// sharing the thread).
    pool_base: Cell<PoolStats>,
    /// Whether [`Tape::release`] frees: only inside [`Tape::releasing`].
    releasing: Cell<bool>,
    /// [`Tape::charge`]'s input ids and shapes, reused across launches.
    charge_inputs: RefCell<(Vec<VarId>, Vec<Shape>)>,
}

/// [`Tape::releasing`]'s scope: restores the tape's previous release
/// switch when dropped, on unwind too.
pub struct Releasing<'a> {
    tape: &'a Tape,
    was: bool,
}

impl Drop for Releasing<'_> {
    fn drop(&mut self) {
        self.tape.releasing.set(self.was);
    }
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
            profiler: Profiler::default(),
            param_cache: RefCell::new(Vec::new()),
            pool_base: Cell::new(pool::stats()),
            releasing: Cell::new(false),
            charge_inputs: RefCell::default(),
        }
    }
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold pool activity since the last sync into the profiler. Must run
    /// on the thread that owns the tape (the pool is thread-local).
    pub(crate) fn sync_pool_stats(&self) {
        let now = pool::stats();
        let base = self.pool_base.get();
        self.profiler.record_pool(
            now.hits.saturating_sub(base.hits),
            now.misses.saturating_sub(base.misses),
            now.bytes_recycled.saturating_sub(base.bytes_recycled),
            now.bytes_pooled,
        );
        self.pool_base.set(now);
    }

    /// Release one node's value buffer early ([`Tape::backward_final`]):
    /// the profiler's live bytes drop and the buffer returns to the
    /// thread's pool. No-op on nodes already released. The node's shape
    /// stays readable.
    pub(crate) fn release_node_buffer(&self, v: Var) {
        let data = {
            let mut nodes = self.nodes.borrow_mut();
            nodes[v.0 as usize].value.release_data()
        };
        if data.capacity() == 0 {
            return;
        }
        self.profiler.free(data.len() as u64 * 4);
        pool::release(data);
    }

    /// Switch [`Tape::release`] on until the returned scope drops. A
    /// forward that no backward will sweep runs inside one
    /// (`Chgnet::forward`), so its layers free each intermediate after
    /// its last read.
    pub fn releasing(&self) -> Releasing<'_> {
        Releasing { tape: self, was: self.releasing.replace(true) }
    }

    /// Free the buffers of `vars`, whose last reader has run, when inside
    /// [`Tape::releasing`]; otherwise keep them for a backward. Their
    /// shapes stay readable; reading a value panics
    /// ([`Tape::with_value`]). Views and lazy nodes hold no buffer.
    pub fn release(&self, vars: &[Var]) {
        if self.releasing.get() {
            for &v in vars {
                self.release_node_buffer(v);
            }
        }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profiler attached to this tape.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> Shape {
        self.nodes.borrow()[v.0 as usize].value.shape()
    }

    /// Clone out a node's value.
    ///
    /// # Panics
    /// Panics on a view ([`Tape::column_blocks`]), which has no value.
    pub fn value(&self, v: Var) -> Tensor {
        self.with_value(v, Tensor::clone)
    }

    /// Read a node's value through a closure without cloning.
    ///
    /// # Panics
    /// Panics on a view ([`Tape::column_blocks`]), which has no value, and
    /// on a node whose buffer was released ([`Tape::release`]).
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        self.check_live([v]);
        self.materialise(v);
        let nodes = self.nodes.borrow();
        Self::check_materialised(&nodes, "value", &[v]);
        f(&nodes[v.0 as usize].value)
    }

    /// Panic when one of `inputs` is a view: only `linear_split` and
    /// `transpose` read views, each block in place.
    fn check_materialised(nodes: &[Node], op: &str, inputs: &[Var]) {
        if let Some(v) = inputs.iter().find(|v| is_view(&nodes[v.0 as usize])) {
            panic!(
                "{op} cannot read {v:?}: it is a column-block view, which only linear_split \
                 and transpose read"
            );
        }
    }

    /// Panic when reading one of `vars` reads a released buffer
    /// ([`Tape::release`]): the node's own, a view's sources' or what a
    /// lazy node is recomputed from.
    pub(crate) fn check_live(&self, vars: impl IntoIterator<Item = Var>) {
        let nodes = self.nodes.borrow();
        for v in vars {
            assert_live(&nodes, v.0);
        }
    }

    /// Start a kernel `op` that reads `inputs`, computing any lazy one
    /// first.
    ///
    /// # Panics
    /// Panics when one of `inputs` is a view or was released.
    fn start(&self, op: &str, inputs: &[Var]) {
        self.check_live(inputs.iter().copied());
        for &v in inputs {
            self.materialise(v);
        }
        Self::check_materialised(&self.nodes.borrow(), op, inputs);
        self.profiler.start_kernel();
    }

    /// Compute a lazy node's value ([`Tape::push_lazy`]) from its inputs,
    /// as the kernel its op names would have: one launch, charged like
    /// one. No-op on any other node.
    pub(crate) fn materialise(&self, v: Var) {
        let op = {
            let node = &self.nodes.borrow()[v.0 as usize];
            if !node.lazy {
                return;
            }
            node.op.clone()
        };
        let mut inputs = Vec::new();
        op.inputs(&mut inputs);
        for &i in &inputs {
            self.materialise(Var(i));
        }
        self.profiler.start_kernel();
        let value = {
            let nodes = self.nodes.borrow();
            let value = |i: VarId| &nodes[i as usize].value;
            match &op {
                Op::Gather { a, idx } => gk::gather_rows(value(*a), idx),
                Op::Bin { kind, a, ba, b, bb } => {
                    let out = nodes[v.0 as usize].value.shape();
                    elementwise::binary(*kind, value(*a), *ba, value(*b), *bb, out)
                }
                Op::FusedLayerNorm { a, gamma, beta, eps } => {
                    fused::fused_layer_norm(value(*a), value(*gamma), value(*beta), *eps)
                }
                _ => unreachable!("{op:?} is never lazy"),
            }
        };
        self.charge(&op, value.shape());
        self.profiler.alloc(value.len() as u64 * 4);
        let mut nodes = self.nodes.borrow_mut();
        let node = &mut nodes[v.0 as usize];
        node.value = value;
        node.lazy = false;
        drop(nodes);
        self.sync_pool_stats();
    }

    /// The bytes the tape's nodes hold now and how many nodes hold them,
    /// by the op kind ([`crate::cost::OpCost::kind`]) that produced them,
    /// in kind order. At the end of a forward pass this is what the pass
    /// keeps for a backward; views, lazy and released nodes hold nothing.
    pub fn held_by_kind(&self) -> Vec<(&'static str, u64, usize)> {
        let nodes = self.nodes.borrow();
        let mut held = std::collections::BTreeMap::<&'static str, (u64, usize)>::new();
        for (i, node) in nodes.iter().enumerate().filter(|(_, n)| !n.value.is_empty()) {
            let entry = held.entry(kind_of(&nodes, i as VarId)).or_default();
            entry.0 += 4 * node.value.len() as u64;
            entry.1 += 1;
        }
        held.into_iter().map(|(kind, (bytes, n))| (kind, bytes, n)).collect()
    }

    /// Whether gradient flows into this node.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0 as usize].rg
    }

    /// Drop all nodes after `len`, releasing what their buffers still hold
    /// from the memory accounting and back into the thread's buffer pool.
    /// Used to discard an ephemeral backward sub-graph.
    pub fn truncate(&self, len: usize) {
        let mut nodes = self.nodes.borrow_mut();
        while nodes.len() > len {
            let data = nodes.pop().expect("truncate underflow").value.release_data();
            self.profiler.free(data.len() as u64 * 4);
            pool::release(data);
        }
        drop(nodes);
        self.sync_pool_stats();
    }

    /// Clear the tape completely (end of iteration). Keeps kernel counters;
    /// zeroes the live-byte gauge and the parameter cache.
    pub fn reset(&self) {
        self.truncate(0);
        self.param_cache.borrow_mut().clear();
    }

    pub(crate) fn push(&self, op: Op, value: Tensor, rg: bool) -> Var {
        let [v] = self.push_launch([(op, value)], rg);
        v
    }

    /// Push the `N` nodes one kernel launch wrote (a fused VJP writes one
    /// cotangent per input): the launch counts as one kernel and is charged
    /// its cost once; each node is one live buffer.
    pub(crate) fn push_launch<const N: usize>(
        &self,
        nodes: [(Op, Tensor); N],
        rg: bool,
    ) -> [Var; N] {
        let (op, value) = &nodes[0];
        self.charge(op, value.shape());
        let vars = nodes.map(|(op, value)| self.push_node(op, value, rg));
        self.sync_pool_stats();
        vars
    }

    /// [`Tape::push_launch`] of any number of nodes.
    pub(crate) fn push_all(&self, nodes: Vec<(Op, Tensor)>, rg: bool) -> Vec<Var> {
        let (op, value) = &nodes[0];
        self.charge(op, value.shape());
        let vars = nodes.into_iter().map(|(op, value)| self.push_node(op, value, rg)).collect();
        self.sync_pool_stats();
        vars
    }

    /// [`Tape::push_launch`] of a fused launch charged `cost`: the op of
    /// its node is what the launch stands for, not its kernel.
    fn push_fused(&self, op: Op, value: Tensor, rg: bool, cost: crate::cost::OpCost) -> Var {
        self.profiler.record_kernel(true);
        self.profiler.record_cost(cost);
        let v = self.push_node(op, value, rg);
        self.sync_pool_stats();
        v
    }

    /// Append one node, one live buffer.
    fn push_node(&self, op: Op, value: Tensor, rg: bool) -> Var {
        self.profiler.alloc(value.len() as u64 * 4);
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len() as VarId;
        nodes.push(Node { op, value, rg, lazy: false });
        Var(id)
    }

    /// Push a node `op` of `shape` that a fused launch computes without
    /// writing, because nothing but that launch and its VJP reads it: no
    /// buffer, no kernel, no cost. The first op that reads it (a VJP
    /// emitted by `backward`) recomputes it first, as one launch of `op`.
    /// Until then only the fused launch's own VJP reads past it, from its
    /// inputs.
    pub(crate) fn push_lazy(&self, op: Op, shape: Shape) -> Var {
        let mut inputs = Vec::new();
        op.inputs(&mut inputs);
        let rg = inputs.iter().any(|&i| self.rg_of(Var(i)));
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len() as VarId;
        nodes.push(Node { op, value: Tensor::unallocated(shape), rg, lazy: true });
        Var(id)
    }

    /// Count one launch of `op` writing `out` and charge its cost.
    fn charge(&self, op: &Op, out: Shape) {
        self.profiler.record_kernel(op.is_fused());
        let nodes = self.nodes.borrow();
        let (ids, shapes) = &mut *self.charge_inputs.borrow_mut();
        op.inputs(ids);
        shapes.clear();
        shapes.extend(ids.iter().map(|&i| nodes[i as usize].value.shape()));
        let mut cost = crate::cost::op_cost(op, shapes, out);
        // A view's reader also reads its index tables.
        for &i in ids.iter() {
            if let Op::ColumnBlocks { blocks } = &nodes[i as usize].op {
                cost.bytes +=
                    4 * blocks.iter().flat_map(|b| &b.idx).map(|i| i.len() as u64).sum::<u64>();
            }
        }
        // `fused.linear` multiplies a gathered first block once per source
        // row when the source has fewer rows than the view.
        if let Op::LinearPart { x, w, .. } = op {
            if let Op::ColumnBlocks { blocks } = &nodes[*x as usize].op {
                if let ColBlock { src, idx: Some(idx) } = &blocks[0] {
                    let src = nodes[*src as usize].value.shape();
                    if mk::seeds_first_block(src.rows, idx.len()) {
                        let n = nodes[*w as usize].value.shape().cols;
                        cost.flops -= 2 * ((idx.len() - src.rows) * src.cols * n) as u64;
                    }
                }
            }
        }
        self.profiler.record_cost(cost);
    }

    fn rg_of(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0 as usize].rg
    }

    // ---------------------------------------------------------------- leaves

    /// Constant input (no gradient).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// Differentiable input (positions / strain). Gradients w.r.t. this
    /// node can be requested from `backward`.
    pub fn input(&self, value: Tensor) -> Var {
        self.push(Op::DiffLeaf, value, true)
    }

    /// Convenience scalar constant.
    #[cfg(test)]
    pub(crate) fn scalar(&self, value: f32) -> Var {
        self.constant(Tensor::scalar(value))
    }

    /// Inject a trainable parameter (cached: repeated calls for the same id
    /// return the same node).
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        {
            let cache = self.param_cache.borrow();
            if let Some(Some(v)) = cache.get(id.index()) {
                return *v;
            }
        }
        let v = self.push(Op::Param(id), store.value(id).pooled_copy(), true);
        let mut cache = self.param_cache.borrow_mut();
        if cache.len() <= id.index() {
            cache.resize(id.index() + 1, None);
        }
        cache[id.index()] = Some(v);
        v
    }

    /// Iterate over the (param-id, var) pairs injected so far.
    pub fn injected_params(&self) -> Vec<(ParamId, Var)> {
        self.param_cache
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (ParamId(i), v)))
            .collect()
    }

    // ------------------------------------------------------------- unary ops

    pub(crate) fn unary(&self, kind: UnKind, a: Var) -> Var {
        self.start(crate::cost::un_kind_name(kind), &[a]);
        let value = self.with_value(a, |t| elementwise::unary(kind, t));
        self.push(Op::Un { kind, a: a.0 }, value, self.rg_of(a))
    }

    /// `-a`
    pub fn neg(&self, a: Var) -> Var {
        self.unary(UnKind::Neg, a)
    }
    /// `exp(a)`
    pub fn exp(&self, a: Var) -> Var {
        self.unary(UnKind::Exp, a)
    }
    /// `ln(a)`
    pub fn ln(&self, a: Var) -> Var {
        self.unary(UnKind::Ln, a)
    }
    /// `sqrt(a)`
    pub fn sqrt(&self, a: Var) -> Var {
        self.unary(UnKind::Sqrt, a)
    }
    /// `sin(a)`
    pub fn sin(&self, a: Var) -> Var {
        self.unary(UnKind::Sin, a)
    }
    /// `cos(a)`
    pub fn cos(&self, a: Var) -> Var {
        self.unary(UnKind::Cos, a)
    }
    /// `arccos(a)` with inputs clamped to `[-1, 1]`.
    pub fn arccos(&self, a: Var) -> Var {
        self.unary(UnKind::Arccos, a)
    }
    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(UnKind::Sigmoid, a)
    }
    /// SiLU activation `a * sigmoid(a)`.
    pub fn silu(&self, a: Var) -> Var {
        self.unary(UnKind::Silu, a)
    }
    /// `tanh(a)`
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(UnKind::Tanh, a)
    }
    /// `1 / a`
    pub fn recip(&self, a: Var) -> Var {
        self.unary(UnKind::Recip, a)
    }
    /// `a^2`
    pub fn square(&self, a: Var) -> Var {
        self.unary(UnKind::Square, a)
    }
    /// `|a|`
    pub fn abs(&self, a: Var) -> Var {
        self.unary(UnKind::Abs, a)
    }
    /// `sign(a)` (derivative treated as zero).
    pub fn sign(&self, a: Var) -> Var {
        self.unary(UnKind::Sign, a)
    }
    /// `a^n` for integer n.
    pub fn powi(&self, a: Var, n: i32) -> Var {
        self.unary(UnKind::Powi(n), a)
    }
    /// `c * a`
    pub fn scale(&self, a: Var, c: f32) -> Var {
        self.unary(UnKind::Scale(c), a)
    }
    /// `a + c`
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(UnKind::AddScalar(c), a)
    }
    /// `min(a, c)` (derivative 0 above the clamp).
    pub fn clamp_max(&self, a: Var, c: f32) -> Var {
        self.unary(UnKind::ClampMax(c), a)
    }
    /// Indicator `a < c` (derivative treated as zero).
    pub fn lt_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(UnKind::LtScalar(c), a)
    }

    /// `clamp(a, lo, hi)` (derivative 1 strictly inside the interval).
    pub fn clamp(&self, a: Var, lo: f32, hi: f32) -> Var {
        assert!(lo < hi, "empty clamp interval [{lo}, {hi}]");
        self.unary(UnKind::Clamp(lo, hi), a)
    }

    // ------------------------------------------------------------ binary ops

    fn binary(&self, kind: BinKind, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.shape(a), self.shape(b));
        let out = broadcast_shape(sa, sb)
            .unwrap_or_else(|| panic!("incompatible shapes {sa} and {sb} for {kind:?}"));
        let ba = Bcast::resolve(sa, out).expect("lhs broadcast");
        let bb = Bcast::resolve(sb, out).expect("rhs broadcast");
        self.start(crate::cost::bin_kind_name(kind), &[a, b]);
        let value = {
            let nodes = self.nodes.borrow();
            elementwise::binary(
                kind,
                &nodes[a.0 as usize].value,
                ba,
                &nodes[b.0 as usize].value,
                bb,
                out,
            )
        };
        let rg = self.rg_of(a) || self.rg_of(b);
        self.push(Op::Bin { kind, a: a.0, ba, b: b.0, bb }, value, rg)
    }

    /// `a + b` (broadcasting).
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.binary(BinKind::Add, a, b)
    }
    /// `a - b` (broadcasting).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.binary(BinKind::Sub, a, b)
    }
    /// `a ⊙ b` (broadcasting Hadamard product).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.binary(BinKind::Mul, a, b)
    }
    /// `a / b` (broadcasting).
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.binary(BinKind::Div, a, b)
    }

    // ------------------------------------------------------ structured ops

    /// Dense GEMM `a @ b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        self.start("matmul", &[a, b]);
        let value = {
            let nodes = self.nodes.borrow();
            mk::matmul(&nodes[a.0 as usize].value, &nodes[b.0 as usize].value)
        };
        let rg = self.rg_of(a) || self.rg_of(b);
        self.push(Op::Matmul { a: a.0, b: b.0 }, value, rg)
    }

    /// Transpose. `a` may be a view ([`Tape::column_blocks`]), read in
    /// place.
    pub fn transpose(&self, a: Var) -> Var {
        self.check_live([a]);
        self.materialise(a);
        self.profiler.start_kernel();
        let value = {
            let nodes = self.nodes.borrow();
            let node = &nodes[a.0 as usize];
            if is_view(node) {
                gk::transpose_blocks(&blocks_of(&nodes, a), node.value.rows())
            } else {
                node.value.transposed()
            }
        };
        self.push(Op::Transpose { a: a.0 }, value, self.rg_of(a))
    }

    /// Sum along an axis.
    pub fn sum(&self, a: Var, axis: Axis) -> Var {
        self.start("sum", &[a]);
        let value = self.with_value(a, |t| reduce::sum(t, axis));
        self.push(Op::Sum { a: a.0, axis }, value, self.rg_of(a))
    }

    /// Sum of every element, as a scalar node.
    pub fn sum_all(&self, a: Var) -> Var {
        self.sum(a, Axis::All)
    }

    /// Mean of every element, as a scalar node.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = self.shape(a).len().max(1);
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n as f32)
    }

    /// Broadcast `a` up to `shape`.
    pub fn broadcast_to(&self, a: Var, shape: Shape) -> Var {
        let sa = self.shape(a);
        if sa == shape {
            return a;
        }
        let bc =
            Bcast::resolve(sa, shape).unwrap_or_else(|| panic!("cannot broadcast {sa} to {shape}"));
        self.start("broadcast_to", &[a]);
        let value = self.with_value(a, |t| {
            let mut out = pool::zeroed(shape.len());
            for r in 0..shape.rows {
                for c in 0..shape.cols {
                    out[r * shape.cols + c] = t.data()[bc.index(r, c, shape.cols)];
                }
            }
            Tensor::from_vec(shape, out)
        });
        self.push(Op::BroadcastTo { a: a.0, shape }, value, self.rg_of(a))
    }

    /// Gather rows by index.
    pub fn gather(&self, a: Var, idx: Arc<[u32]>) -> Var {
        self.start("gather", &[a]);
        let value = self.with_value(a, |t| gk::gather_rows(t, &idx));
        self.push(Op::Gather { a: a.0, idx }, value, self.rg_of(a))
    }

    /// Segment sum over rows (scatter-add aggregation, Eq. 1).
    pub fn segment_sum(&self, a: Var, seg: Arc<[u32]>, nseg: usize) -> Var {
        self.start("segment_sum", &[a]);
        let value = self.with_value(a, |t| sk::segment_sum(t, &seg, nseg));
        self.push(Op::SegSum { a: a.0, seg, nseg }, value, self.rg_of(a))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        self.start("concat_cols", parts);
        let value = {
            let nodes = self.nodes.borrow();
            let refs: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.0 as usize].value).collect();
            gk::concat_cols(&refs)
        };
        let rg = parts.iter().any(|p| self.rg_of(*p));
        let ids: Box<[VarId]> = parts.iter().map(|p| p.0).collect();
        self.push(Op::ConcatCols { parts: ids }, value, rg)
    }

    /// Vertical concatenation.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        self.start("concat_rows", parts);
        let value = {
            let nodes = self.nodes.borrow();
            let refs: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.0 as usize].value).collect();
            gk::concat_rows(&refs)
        };
        let rg = parts.iter().any(|p| self.rg_of(*p));
        let ids: Box<[VarId]> = parts.iter().map(|p| p.0).collect();
        self.push(Op::ConcatRows { parts: ids }, value, rg)
    }

    /// Column slice.
    pub fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var {
        self.start("slice_cols", &[a]);
        let value = self.with_value(a, |t| gk::slice_cols(t, start, len));
        self.push(Op::SliceCols { a: a.0, start, len }, value, self.rg_of(a))
    }

    /// Row slice.
    pub fn slice_rows(&self, a: Var, start: usize, len: usize) -> Var {
        self.start("slice_rows", &[a]);
        let value = self.with_value(a, |t| gk::slice_rows(t, start, len));
        self.push(Op::SliceRows { a: a.0, start, len }, value, self.rg_of(a))
    }

    /// Place `a` into a zero matrix with `total` columns at column `start`.
    pub fn pad_cols(&self, a: Var, start: usize, total: usize) -> Var {
        self.start("pad_cols", &[a]);
        let value = self.with_value(a, |t| {
            assert!(start + t.cols() <= total, "pad_cols out of range");
            let mut out = pool::zeroed(t.rows() * total);
            for r in 0..t.rows() {
                out[r * total + start..r * total + start + t.cols()].copy_from_slice(t.row(r));
            }
            Tensor::from_vec(Shape::new(t.rows(), total), out)
        });
        self.push(Op::PadCols { a: a.0, start, total }, value, self.rg_of(a))
    }

    /// Place `a` into a zero matrix with `total` rows at row `start`.
    pub fn pad_rows(&self, a: Var, start: usize, total: usize) -> Var {
        self.start("pad_rows", &[a]);
        let value = self.with_value(a, |t| {
            assert!(start + t.rows() <= total, "pad_rows out of range");
            let c = t.cols();
            let mut out = pool::zeroed(total * c);
            for r in 0..t.rows() {
                out[(start + r) * c..(start + r + 1) * c].copy_from_slice(t.row(r));
            }
            Tensor::from_vec(Shape::new(total, c), out)
        });
        self.push(Op::PadRows { a: a.0, start, total }, value, self.rg_of(a))
    }

    /// Row-major reshape (same element count, zero-copy semantics; the
    /// kernel clones the buffer so memory accounting stays per-node).
    pub fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        let shape = Shape::new(rows, cols);
        let sa = self.shape(a);
        assert_eq!(sa.len(), shape.len(), "reshape {sa} to {shape} changes element count");
        if sa == shape {
            return a;
        }
        self.start("reshape", &[a]);
        let value = self.with_value(a, |t| Tensor::from_vec(shape, pool::from_slice(t.data())));
        self.push(Op::Reshape { a: a.0, shape }, value, self.rg_of(a))
    }

    /// Per-row block-diagonal GEMM: `out[r,:] = a[r,:] @ B_{seg[r]}` where
    /// `b` stacks 3x3 blocks vertically. With `trans_b`, uses the
    /// transposed block. This is Alg. 2's batched `B_I @ B_L`.
    pub fn block_diag_matmul(&self, a: Var, b: Var, seg: Arc<[u32]>, trans_b: bool) -> Var {
        self.start("block_diag_mm", &[a, b]);
        let value = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.0 as usize].value;
            let bv = &nodes[b.0 as usize].value;
            // The transposed path reads blocks column-wise in place — no
            // materialised transpose, no clone of B.
            if trans_b {
                mk::block_diag_matmul_tb(av, bv, &seg)
            } else {
                mk::block_diag_matmul(av, bv, &seg)
            }
        };
        let rg = self.rg_of(a) || self.rg_of(b);
        self.push(Op::BlockDiagMm { a: a.0, b: b.0, seg, trans_b }, value, rg)
    }

    // ------------------------------------------------------ column-block views

    /// A view of column blocks side by side: `(src, Some(idx))` stands for
    /// `gather(src, idx)` and `(src, None)` for `src`, and the view for
    /// their `concat_cols`. It pushes a node of that shape with no buffer;
    /// it is not a launch, so it charges no kernel, FLOPs or bytes. Only
    /// [`Tape::linear_split`] and [`Tape::transpose`] read a view, each
    /// block in place; any other op panics on one. Its gradient is
    /// scattered into each block's source, as the gathers' would be.
    ///
    /// # Panics
    /// Panics on no blocks, on blocks of different row counts, on an index
    /// out of range and on a view as a source.
    pub fn column_blocks(&self, blocks: &[(Var, Option<Arc<[u32]>>)]) -> Var {
        assert!(!blocks.is_empty(), "column_blocks of zero blocks");
        let srcs: Vec<Var> = blocks.iter().map(|&(src, _)| src).collect();
        Self::check_materialised(&self.nodes.borrow(), "column_blocks", &srcs);
        let rows_of = |(src, idx): &(Var, Option<Arc<[u32]>>)| {
            idx.as_ref().map_or_else(|| self.shape(*src).rows, |idx| idx.len())
        };
        let mut shape = Shape::new(rows_of(&blocks[0]), 0);
        for (i, block @ (src, idx)) in blocks.iter().enumerate() {
            assert_eq!(rows_of(block), shape.rows, "column_blocks row mismatch in block {i}");
            let s = self.shape(*src);
            for &r in idx.iter().flat_map(|idx| idx.iter()) {
                assert!(
                    (r as usize) < s.rows,
                    "column_blocks index {r} out of range ({} rows)",
                    s.rows
                );
            }
            shape.cols += s.cols;
        }
        let rg = srcs.iter().any(|&v| self.rg_of(v));
        let blocks =
            blocks.iter().map(|(src, idx)| ColBlock { src: src.0, idx: idx.clone() }).collect();
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len() as VarId;
        nodes.push(Node {
            op: Op::ColumnBlocks { blocks },
            value: Tensor::unallocated(shape),
            rg,
            lazy: false,
        });
        Var(id)
    }

    /// What a view of `blocks` stands for ([`Tape::column_blocks`]),
    /// materialised: each indexed block gathered, then `concat_cols` of
    /// all of them. The unfused reference for a GatedMLP input.
    pub fn gather_concat(&self, blocks: &[(Var, Option<Arc<[u32]>>)]) -> Var {
        let parts: Vec<Var> = blocks
            .iter()
            .map(|(src, idx)| idx.as_ref().map_or(*src, |idx| self.gather(*src, idx.clone())))
            .collect();
        self.concat_cols(&parts)
    }

    /// `x @ w + b` in one launch, written as `N` outputs: the `N` equal
    /// column groups of the result, for `w` `N·n` columns wide (`N` is 1 to
    /// 3). `x` may be a view, its blocks read in place. Bitwise
    /// `slice_cols(h, i·n, n)` of `h = linear(concat_cols(blocks), w, b)`
    /// for each `i` (with `N = 1`, `h` itself), gradients included: the
    /// packed GatedMLP linear (2), the packed bond embedding (3) and every
    /// other linear layer (1) of the fused levels.
    pub fn linear_split<const N: usize>(&self, x: Var, w: Var, b: Var) -> [Var; N] {
        assert!((1..=3).contains(&N), "linear_split writes 1 to 3 outputs, not {N}");
        self.check_live([x]);
        self.materialise(x);
        self.start("fused.linear", &[w, b]);
        let outs = {
            let nodes = self.nodes.borrow();
            let value = |v: Var| &nodes[v.0 as usize].value;
            mk::linear_split::<N>(&blocks_of(&nodes, x), self.shape(x).rows, value(w), value(b))
        };
        let rg = self.rg_of(x) || self.rg_of(w) || self.rg_of(b);
        let mut part = 0..N as u8;
        let nodes = outs.map(|out| {
            let part = part.next().expect("one part per output");
            (Op::LinearPart { x: x.0, w: w.0, b: b.0, part, parts: N as u8 }, out)
        });
        self.push_launch(nodes, rg)
    }

    // ------------------------------------------------------------- fused ops

    /// Fused smooth-Radial-Bessel basis (order-`order` derivative).
    pub fn fused_srbf(&self, r: Var, cfg: SrbfCfg, order: u8) -> Var {
        self.start("fused.srbf", &[r]);
        let value = self.with_value(r, |t| fused::fused_srbf(t, cfg, order));
        self.push(Op::FusedSrbf { r: r.0, cfg, order }, value, self.rg_of(r))
    }

    /// Fused Fourier angular basis (order-`order` derivative).
    pub fn fused_fourier(&self, theta: Var, harmonics: usize, order: u8) -> Var {
        self.start("fused.fourier", &[theta]);
        let value = self.with_value(theta, |t| fused::fused_fourier(t, harmonics, order));
        self.push(Op::FusedFourier { theta: theta.0, harmonics, order }, value, self.rg_of(theta))
    }

    /// Fused row-wise LayerNorm (one kernel; the composed
    /// [`Tape::layer_norm`] chain is the reference path).
    pub fn fused_layer_norm(&self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.start("fused.layer_norm", &[a, gamma, beta]);
        let value = {
            let nodes = self.nodes.borrow();
            fused::fused_layer_norm(
                &nodes[a.0 as usize].value,
                &nodes[gamma.0 as usize].value,
                &nodes[beta.0 as usize].value,
                eps,
            )
        };
        let rg = self.rg_of(a) || self.rg_of(gamma) || self.rg_of(beta);
        self.push(Op::FusedLayerNorm { a: a.0, gamma: gamma.0, beta: beta.0, eps }, value, rg)
    }

    /// Fused gate `sigmoid(a) ⊙ silu(b)`.
    pub fn fused_gate(&self, a: Var, b: Var) -> Var {
        self.start("fused.gate", &[a, b]);
        let value = {
            let nodes = self.nodes.borrow();
            fused::fused_gate(&nodes[a.0 as usize].value, &nodes[b.0 as usize].value)
        };
        let rg = self.rg_of(a) || self.rg_of(b);
        self.push(Op::FusedGate { a: a.0, b: b.0 }, value, rg)
    }

    /// `sigmoid(LN_g(gate_h)) ⊙ silu(LN_c(core_h))` in one launch, for the
    /// LayerNorms `ln_gate` and `ln_core` (`[γ, β]` each, both of `eps`):
    /// the GatedMLP's two [`Tape::fused_layer_norm`]s and its
    /// [`Tape::fused_gate`], bitwise, gradients included. Only the gate
    /// output is written. The two LayerNorm outputs are lazy nodes
    /// (DESIGN.md §2.2): a backward sweep recomputes them as two
    /// `fused_layer_norm` launches where the gate's VJP reads them.
    pub fn fused_ln_gate(
        &self,
        gate_h: Var,
        core_h: Var,
        [gamma_g, beta_g]: [Var; 2],
        [gamma_c, beta_c]: [Var; 2],
        eps: f32,
    ) -> Var {
        let inputs = [gate_h, core_h, gamma_g, beta_g, gamma_c, beta_c];
        self.start("fused.ln_gate", &inputs);
        let value = {
            let nodes = self.nodes.borrow();
            let value = |v: Var| &nodes[v.0 as usize].value;
            fused::ln_gate(
                [value(gate_h), value(core_h)],
                [[value(gamma_g), value(beta_g)], [value(gamma_c), value(beta_c)]],
                eps,
            )
        };
        let shape = value.shape();
        let ln = |h: Var, gamma: Var, beta: Var| {
            let op = Op::FusedLayerNorm { a: h.0, gamma: gamma.0, beta: beta.0, eps };
            self.push_lazy(op, shape)
        };
        let (gate_n, core_n) = (ln(gate_h, gamma_g, beta_g), ln(core_h, gamma_c, beta_c));
        let rg = self.rg_of(gate_n) || self.rg_of(core_n);
        let cost = crate::cost::ln_gate(shape);
        self.push_fused(Op::FusedGate { a: gate_n.0, b: core_n.0 }, value, rg, cost)
    }

    /// `segment_sum(w_1[idx_1] ⊙ x, seg, nseg)` or
    /// `segment_sum((w_1[idx_1] ⊙ w_2[idx_2]) ⊙ x, seg, nseg)` in one
    /// launch, each weight `(src, idx)` read in place through its row
    /// index (`None`: all of `src`'s rows, in order), as
    /// [`Tape::column_blocks`] reads its blocks. The weights are Atom
    /// Conv's one unindexed `[(e^a, None)]` or Bond Conv's one source read
    /// through two index tables, `[(e^b, b1), (e^b, b2)]`. Bitwise the
    /// chain of gathers, products and `segment_sum`, gradients included.
    /// Only the sum is written; the gathers and products are lazy nodes
    /// (DESIGN.md §2.2), recomputed one by one where a backward's VJPs
    /// read them.
    ///
    /// # Panics
    /// Panics on weights of neither shape, on a weight not the shape of
    /// `x`, on an index out of range and on `seg` not one id `< nseg` per
    /// row of `x`.
    pub fn weighted_segment_sum(
        &self,
        x: Var,
        weights: &[(Var, Option<Arc<[u32]>>)],
        seg: Arc<[u32]>,
        nseg: usize,
    ) -> Var {
        let one_whole = matches!(weights, [(_, None)]);
        let two_indexed = matches!(weights, [(a, Some(_)), (b, Some(_))] if a == b);
        assert!(one_whole || two_indexed, "weighted_segment_sum of {} weights", weights.len());
        let mut reads = vec![x];
        reads.extend(weights.iter().map(|&(src, _)| src));
        self.start("fused.weighted_segment_sum", &reads);
        let shape = self.shape(x);
        for (i, (src, idx)) in weights.iter().enumerate() {
            let s = self.shape(*src);
            let rows = idx.as_ref().map_or(s.rows, |idx| idx.len());
            assert_eq!(Shape::new(rows, s.cols), shape, "weight {i} is not the shape of x");
            for &r in idx.iter().flat_map(|idx| idx.iter()) {
                assert!(
                    (r as usize) < s.rows,
                    "weight {i} index {r} out of range ({} rows)",
                    s.rows
                );
            }
        }
        let value = {
            let nodes = self.nodes.borrow();
            let value = |v: VarId| &nodes[v as usize].value;
            let blocks: Vec<gk::Block> = weights
                .iter()
                .map(|(src, idx)| gk::Block { src: value(src.0), idx: idx.as_deref() })
                .collect();
            sk::weighted_segment_sum(value(x.0), &blocks, &seg, nseg)
        };
        // The chain the launch stands for, in the order it would run.
        let ws: Vec<Var> = weights
            .iter()
            .map(|(src, idx)| match idx {
                Some(idx) => self.push_lazy(Op::Gather { a: src.0, idx: idx.clone() }, shape),
                None => *src,
            })
            .collect();
        let mul = |a: Var, b: Var| {
            let op =
                Op::Bin { kind: BinKind::Mul, a: a.0, ba: Bcast::Full, b: b.0, bb: Bcast::Full };
            self.push_lazy(op, shape)
        };
        let product = mul(ws[1..].iter().fold(ws[0], |p, &w| mul(p, w)), x);
        let idx_len: usize = weights.iter().flat_map(|(_, idx)| idx).map(|idx| idx.len()).sum();
        let cost = crate::cost::weighted_segment_sum(shape, weights.len(), idx_len, value.shape());
        let op = Op::SegSum { a: product.0, seg, nseg };
        self.push_fused(op, value, self.rg_of(product), cost)
    }

    // ------------------------------------------- final-sweep VJP launches

    // The final backward sweep's fused kernels. Nothing differentiates a
    // final sweep's nodes, so their ops have no VJP.

    /// `aᵀ @ b` in one GEMM, bitwise `matmul(transpose(a), b)`.
    pub(crate) fn matmul_at(&self, a: Var, b: Var) -> Var {
        self.start("matmul_at", &[a, b]);
        let value = {
            let nodes = self.nodes.borrow();
            mk::matmul_at(&nodes[a.0 as usize].value, &nodes[b.0 as usize].value)
        };
        let rg = self.rg_of(a) || self.rg_of(b);
        self.push(Op::MatmulAt { a: a.0, b: b.0 }, value, rg)
    }

    /// `[dx, dγ]` of `fused_layer_norm(a, gamma, _, eps)` for the output
    /// cotangent `g`, in one launch: bitwise the composed VJP chain.
    pub(crate) fn layer_norm_vjp(&self, a: Var, gamma: Var, g: Var, eps: f32) -> [Var; 2] {
        self.start("fused.ln_vjp", &[a, gamma, g]);
        let (dx, dgamma) = {
            let nodes = self.nodes.borrow();
            let value = |v: Var| &nodes[v.0 as usize].value;
            fused::layer_norm_vjp(value(a), value(gamma), value(g), eps)
        };
        let op = |out| Op::FusedLnVjp { a: a.0, gamma: gamma.0, g: g.0, out };
        let rg = self.rg_of(a) || self.rg_of(gamma) || self.rg_of(g);
        self.push_launch([(op(0), dx), (op(1), dgamma)], rg)
    }

    /// `[dx, dw, db]` of `linear_split(x, w, _)` for the cotangents `g` of
    /// its outputs (a missing one is zero), in one launch: bitwise the
    /// composed chain `backward` emits. Without `need_dx` it skips `dx`
    /// and returns `[dw, db]` for `dx`'s place and on.
    ///
    /// The launch's temporaries, `wᵀ` and (for two or three outputs) the
    /// packed cotangent `dh`, live beside its outputs until it ends, so
    /// they are charged to the live-byte ledger for that long: the peak
    /// counts them as it counted the chain's nodes that held them.
    pub(crate) fn linear_vjp(&self, x: Var, w: Var, g: &[Option<Var>], need_dx: bool) -> Vec<Var> {
        self.materialise(x);
        self.profiler.start_kernel();
        let (dx, dw, db) = {
            let nodes = self.nodes.borrow();
            let value = |v: Var| &nodes[v.0 as usize].value;
            let g: Vec<_> = g.iter().map(|g| g.map(value)).collect();
            mk::linear_vjp(&blocks_of(&nodes, x), value(w), &g, need_dx)
        };
        let (rows, w_shape) = (self.shape(x).rows as u64, self.shape(w));
        let packed = if g.len() > 1 { rows * w_shape.cols as u64 } else { 0 };
        let temps = 4 * (packed + if need_dx { w_shape.len() as u64 } else { 0 });
        self.profiler.alloc(temps);
        let mut gs = [None; 3];
        for (slot, g) in gs.iter_mut().zip(g) {
            *slot = g.map(|g| g.0);
        }
        let op = |out| Op::LinearVjp { x: x.0, w: w.0, g: gs, dx: need_dx, out };
        let rg = self.rg_of(x) || self.rg_of(w) || g.iter().flatten().any(|&g| self.rg_of(g));
        let mut nodes: Vec<_> = dx.map(|dx| (op(0), dx)).into_iter().collect();
        nodes.extend([(op(1), dw), (op(2), db)]);
        let vars = self.push_all(nodes, rg);
        self.profiler.free(temps);
        vars
    }

    /// `segment_sum(slice_cols(a, start, len), seg, nseg)` in one kernel,
    /// the columns read in place: bitwise the two.
    pub(crate) fn segment_sum_cols(
        &self,
        a: Var,
        start: usize,
        len: usize,
        seg: Arc<[u32]>,
        nseg: usize,
    ) -> Var {
        self.profiler.start_kernel();
        let value = self.with_value(a, |t| sk::segment_sum_cols(t, start..start + len, &seg, nseg));
        self.push(Op::SegSumCols { a: a.0, start, len, seg, nseg }, value, self.rg_of(a))
    }

    /// The cotangents of `fused_gate(a, b)`'s inputs for the output
    /// cotangent `g`, in one launch: bitwise the composed VJP chain.
    pub(crate) fn gate_vjp(&self, a: Var, b: Var, g: Var) -> [Var; 2] {
        self.start("fused.gate_vjp", &[a, b, g]);
        let [ga, gb] = {
            let nodes = self.nodes.borrow();
            let data = |v: Var| nodes[v.0 as usize].value.data();
            crate::kernels::exp::gate_vjp(data(a), data(b), data(g))
        };
        let shape = self.shape(a);
        let op = |out| Op::FusedGateVjp { a: a.0, b: b.0, g: g.0, out };
        let rg = self.rg_of(a) || self.rg_of(b) || self.rg_of(g);
        self.push_launch(
            [(op(0), Tensor::from_vec(shape, ga)), (op(1), Tensor::from_vec(shape, gb))],
            rg,
        )
    }

    // ------------------------------------------------------- composed helpers

    /// Elementwise Huber-like penalty with threshold `delta`:
    /// `q(|x|) where q(a) = min(a, δ)·(a − min(a, δ)/2)` — equals
    /// `x²/2` for `|x| ≤ δ` and `δ(|x| − δ/2)` beyond. Matches PyTorch's
    /// `HuberLoss` up to the global `1/δ` convention used by CHGNet.
    pub fn huber(&self, x: Var, delta: f32) -> Var {
        let a = self.abs(x);
        let q = self.clamp_max(a, delta);
        let half_q = self.scale(q, 0.5);
        let lin = self.sub(a, half_q);
        self.mul(q, lin)
    }

    /// Row-wise LayerNorm with learnable `gamma`/`beta` rows `(1, m)`.
    /// Composed from primitives so that its VJP (and double backward) is
    /// derived automatically.
    pub fn layer_norm(&self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let m = self.shape(x).cols.max(1);
        let mean = self.scale(self.sum(x, Axis::Cols), 1.0 / m as f32);
        let centered = self.sub(x, mean);
        let var = self.scale(self.sum(self.square(centered), Axis::Cols), 1.0 / m as f32);
        let inv_std = self.recip(self.sqrt(self.add_scalar(var, eps)));
        let xhat = self.mul(centered, inv_std);
        let scaled = self.mul(xhat, gamma);
        self.add(scaled, beta)
    }

    /// Fully-connected layer `x @ w + b` with `b` a `(1, out)` row.
    pub fn linear(&self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add(xw, b)
    }
}

/// [`Tape::check_live`] of node `i`.
fn assert_live(nodes: &[Node], i: VarId) {
    let node = &nodes[i as usize];
    match &node.op {
        Op::ColumnBlocks { blocks } => blocks.iter().for_each(|b| assert_live(nodes, b.src)),
        op if node.lazy => {
            let mut ids = Vec::new();
            op.inputs(&mut ids);
            ids.into_iter().for_each(|i| assert_live(nodes, i));
        }
        _ if node.value.is_empty() && !node.value.shape().is_empty() => panic!(
            "node {i} ({}) was released after its last read: reading it or running a backward \
             through it needs the retaining forward (Chgnet::forward_for_backward)",
            kind_of(nodes, i)
        ),
        _ => {}
    }
}

/// The op kind ([`crate::cost::OpCost::kind`]) of node `i`.
fn kind_of(nodes: &[Node], i: VarId) -> &'static str {
    let node = &nodes[i as usize];
    let mut ids = Vec::new();
    node.op.inputs(&mut ids);
    let shapes: Vec<Shape> = ids.iter().map(|&i| nodes[i as usize].value.shape()).collect();
    crate::cost::op_cost(&node.op, &shapes, node.value.shape()).kind
}

/// Whether `node` is a view ([`Tape::column_blocks`]).
fn is_view(node: &Node) -> bool {
    matches!(node.op, Op::ColumnBlocks { .. })
}

/// The column blocks a GEMM reads for `x`: a view's blocks, or `x` whole.
fn blocks_of(nodes: &[Node], x: Var) -> Vec<gk::Block<'_>> {
    let value = |v: VarId| &nodes[v as usize].value;
    match &nodes[x.0 as usize].op {
        Op::ColumnBlocks { blocks } => {
            blocks.iter().map(|b| gk::Block { src: value(b.src), idx: b.idx.as_deref() }).collect()
        }
        _ => vec![gk::Block { src: value(x.0), idx: None }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_arith() {
        let t = Tape::new();
        let a = t.constant(Tensor::row_vec(&[1.0, 2.0]));
        let b = t.constant(Tensor::row_vec(&[3.0, 4.0]));
        let c = t.add(a, b);
        assert_eq!(t.value(c).data(), &[4.0, 6.0]);
        let d = t.mul(c, c);
        assert_eq!(t.value(d).data(), &[16.0, 36.0]);
        assert!(!t.requires_grad(d));
    }

    #[test]
    fn rg_propagation() {
        let t = Tape::new();
        let x = t.input(Tensor::scalar(2.0));
        let c = t.scalar(3.0);
        let y = t.mul(x, c);
        assert!(t.requires_grad(y));
        assert!(!t.requires_grad(c));
    }

    #[test]
    fn param_injection_cached() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::ones(2, 2));
        let t = Tape::new();
        let v1 = t.param(&store, id);
        let v2 = t.param(&store, id);
        assert_eq!(v1, v2);
        assert_eq!(t.injected_params().len(), 1);
    }

    #[test]
    fn op_time_is_recorded_only_while_timing() {
        let t = Tape::new();
        let a = t.constant(Tensor::ones(64, 64));
        t.matmul(a, a);
        assert!(t.profiler().per_op().iter().all(|(_, o)| o.nanos == 0), "untimed run");
        crate::profiler::with_op_timing(|| t.matmul(a, a));
        t.matmul(a, a);
        let per_op = t.profiler().per_op();
        let mm = per_op.iter().find(|(k, _)| *k == "matmul").unwrap().1;
        assert_eq!(mm.count, 3);
        assert!(mm.nanos > 0, "the timed matmul charged its wall time");
        let leaf = per_op.iter().find(|(k, _)| *k == "leaf").unwrap().1;
        assert_eq!(leaf.nanos, 0, "leaves run no kernel");
    }

    #[test]
    fn profiler_counts_nodes_and_bytes() {
        let t = Tape::new();
        let a = t.constant(Tensor::zeros(10, 10));
        let _b = t.neg(a);
        let s = t.profiler().snapshot();
        assert_eq!(s.kernels, 2);
        assert_eq!(s.bytes_live, 800);
        t.truncate(1);
        assert_eq!(t.profiler().snapshot().bytes_live, 400);
        t.reset();
        assert_eq!(t.profiler().snapshot().bytes_live, 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn release_frees_only_inside_its_scope() {
        let t = Tape::new();
        let a = t.constant(Tensor::ones(4, 4));
        let b = t.exp(a);
        t.release(&[a]);
        assert_eq!(t.profiler().snapshot().bytes_live, 128, "no scope: kept");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = t.releasing();
            panic!("a failing forward");
        }));
        assert!(unwound.is_err());
        t.release(&[a]);
        assert_eq!(t.profiler().snapshot().bytes_live, 128, "the unwound scope switched off");
        {
            let _outer = t.releasing();
            drop(t.releasing());
            t.release(&[a]);
        }
        assert_eq!(t.profiler().snapshot().bytes_live, 64, "a nested scope keeps the outer on");
        assert_eq!(t.shape(a), Shape::new(4, 4), "the shape stays readable");
        t.release(&[b]);
        assert_eq!(
            t.value(b).data(),
            &[crate::kernels::exp::expf(1.0); 16],
            "released outside a scope: kept"
        );
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.neg(a)));
        let err = read.expect_err("reading a released buffer panics");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.starts_with("node 0 (leaf) was released"), "{msg}");
    }

    #[test]
    fn linear_vjp_temporaries_count_toward_the_peak() {
        let t = Tape::new();
        let x = t.constant(Tensor::ones(5, 3));
        let w = t.constant(Tensor::ones(3, 8));
        let view = t.column_blocks(&[(x, Some(Arc::from(vec![0u32, 4, 4, 1])))]);
        let g = [t.constant(Tensor::ones(4, 4)), t.constant(Tensor::ones(4, 4))];
        let before = t.profiler().snapshot().bytes_live;
        t.profiler().reset_peak();
        let _ = t.linear_vjp(view, w, &g.map(Some), true);
        let s = t.profiler().snapshot();
        // dx (4×3), dw (3×8) and db (1×8) stay; dh (4×8) and wᵀ (8×3)
        // are charged beside them, then released.
        let outputs = 4 * (4 * 3 + 3 * 8 + 8);
        assert_eq!(s.bytes_live, before + outputs);
        assert_eq!(s.bytes_peak, before + outputs + 4 * (4 * 8 + 8 * 3));
    }

    #[test]
    fn weighted_segment_sum_takes_only_the_model_weight_shapes() {
        let t = Tape::new();
        let (x, e) = (t.constant(Tensor::ones(2, 3)), t.constant(Tensor::ones(4, 3)));
        let idx = |i: Vec<u32>| Some(Arc::<[u32]>::from(i));
        let seg = Arc::<[u32]>::from(vec![0, 1]);
        let _ = t.weighted_segment_sum(x, &[(x, None)], seg.clone(), 2);
        let _ = t.weighted_segment_sum(
            x,
            &[(e, idx(vec![0, 3])), (e, idx(vec![1, 2]))],
            seg.clone(),
            2,
        );
        let others = [
            vec![],
            vec![(e, idx(vec![0, 3]))],
            vec![(e, idx(vec![0, 3])), (x, None)],
            vec![(e, idx(vec![0, 3])), (t.constant(Tensor::ones(4, 3)), idx(vec![1, 2]))],
            vec![(x, None), (x, None), (x, None)],
        ];
        for weights in others {
            let n = weights.len();
            let run = std::panic::AssertUnwindSafe(|| {
                let _ = t.weighted_segment_sum(x, &weights, seg.clone(), 2);
            });
            let err = std::panic::catch_unwind(run).expect_err("only the model's two shapes");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, format!("weighted_segment_sum of {n} weights"));
        }
    }

    #[test]
    fn only_linear_split_and_transpose_read_a_view() {
        let t = Tape::new();
        let x = t.constant(Tensor::ones(3, 2));
        let w = t.constant(Tensor::ones(4, 6));
        let view = t.column_blocks(&[
            (x, Some(Arc::from(vec![2u32, 0]))),
            (x, Some(Arc::from(vec![1u32, 1]))),
        ]);
        assert_eq!(t.shape(view), Shape::new(2, 4));
        assert_eq!(t.len(), 3, "a view is one node");
        assert_eq!(t.profiler().snapshot().kernels, 2, "a view is not a launch");
        let _ = t.transpose(view);
        let _: [Var; 2] = t.linear_split(view, w, t.constant(Tensor::zeros(1, 6)));
        let reads: [(&str, &dyn Fn()); 7] = [
            ("value", &|| drop(t.value(view))),
            ("un.exp", &|| {
                let _ = t.exp(view);
            }),
            ("bin.add", &|| {
                let _ = t.add(view, view);
            }),
            ("matmul", &|| {
                let _ = t.matmul(view, w);
            }),
            ("slice_cols", &|| {
                let _ = t.slice_cols(view, 0, 1);
            }),
            ("concat_cols", &|| {
                let _ = t.concat_cols(&[view, view]);
            }),
            ("column_blocks", &|| {
                let _ = t.column_blocks(&[(view, None)]);
            }),
        ];
        for (op, read) in reads {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
                .expect_err("reading a view must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.starts_with(&format!("{op} cannot read")), "{op}: {msg}");
        }
    }

    #[test]
    fn broadcast_add_col() {
        let t = Tape::new();
        let a = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let col = t.constant(Tensor::col_vec(&[10.0, 20.0]));
        let out = t.add(a, col);
        assert_eq!(t.value(out).data(), &[11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn linear_and_layernorm_shapes() {
        let t = Tape::new();
        let x = t.constant(Tensor::ones(4, 3));
        let w = t.constant(Tensor::ones(3, 5));
        let b = t.constant(Tensor::zeros(1, 5));
        let y = t.linear(x, w, b);
        assert_eq!(t.shape(y), Shape::new(4, 5));
        let gamma = t.constant(Tensor::ones(1, 5));
        let beta = t.constant(Tensor::zeros(1, 5));
        let ln = t.layer_norm(y, gamma, beta, 1e-5);
        assert_eq!(t.shape(ln), Shape::new(4, 5));
        // Constant rows normalise to zero.
        assert!(t.value(ln).max_abs() < 1e-3);
    }

    #[test]
    fn huber_values() {
        let t = Tape::new();
        let x = t.constant(Tensor::row_vec(&[0.5, 2.0, -3.0]));
        let h = t.huber(x, 1.0);
        let v = t.value(h);
        assert!((v.data()[0] - 0.125).abs() < 1e-6); // 0.5*0.25
        assert!((v.data()[1] - 1.5).abs() < 1e-6); // 2 - 0.5
        assert!((v.data()[2] - 2.5).abs() < 1e-6); // 3 - 0.5
    }

    #[test]
    fn pad_and_slice_inverse() {
        let t = Tape::new();
        let a = t.constant(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let p = t.pad_cols(a, 1, 4);
        assert_eq!(t.value(p).row(0), &[0.0, 1.0, 2.0, 0.0]);
        let s = t.slice_cols(p, 1, 2);
        assert!(t.value(s).approx_eq(&t.value(a), 0.0));
        let pr = t.pad_rows(a, 1, 4);
        assert_eq!(t.value(pr).row(0), &[0.0, 0.0]);
        assert_eq!(t.value(pr).row(1), &[1.0, 2.0]);
        let sr = t.slice_rows(pr, 1, 2);
        assert!(t.value(sr).approx_eq(&t.value(a), 0.0));
    }

    #[test]
    fn block_diag_transposed() {
        let t = Tape::new();
        let blk =
            Tensor::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let a = t.constant(Tensor::from_rows(&[vec![1.0, 1.0, 1.0]]));
        let b = t.constant(blk.clone());
        let seg: Arc<[u32]> = Arc::from(vec![0u32]);
        let fwd = t.block_diag_matmul(a, b, seg.clone(), false);
        assert_eq!(t.value(fwd).row(0), &[1.0, 3.0, 1.0]);
        let tr = t.block_diag_matmul(a, b, seg, true);
        assert_eq!(t.value(tr).row(0), &[3.0, 1.0, 1.0]);
    }

    #[test]
    fn broadcast_to_and_back() {
        let t = Tape::new();
        let a = t.constant(Tensor::col_vec(&[1.0, 2.0]));
        let b = t.broadcast_to(a, Shape::new(2, 3));
        assert_eq!(t.value(b).row(1), &[2.0, 2.0, 2.0]);
        // broadcast to same shape is the identity node.
        let same = t.broadcast_to(a, Shape::new(2, 1));
        assert_eq!(same, a);
    }
}
