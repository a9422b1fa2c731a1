//! Operation records stored on the tape.

use crate::kernels::elementwise::{BinKind, UnKind};
use crate::kernels::fused::SrbfCfg;
use crate::kernels::reduce::Axis;
use crate::param::ParamId;
use crate::shape::{Bcast, Shape};
use std::sync::Arc;

/// Index of a node on the tape.
pub type VarId = u32;

/// A differentiable handle to a tape node.
///
/// `Var` is a lightweight copyable index; all arithmetic goes through
/// [`crate::tape::Tape`] builder methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Var(pub(crate) VarId);

impl Var {
    /// Raw node index.
    #[inline]
    pub fn id(self) -> VarId {
        self.0
    }
}

/// One column block of an [`Op::ColumnBlocks`] view: the rows of node
/// `src`, or with `idx` its rows `idx[0], idx[1], …`.
#[derive(Clone, Debug)]
pub struct ColBlock {
    /// The node the block reads.
    pub src: VarId,
    /// The rows it reads, when not all of them in order.
    pub idx: Option<Arc<[u32]>>,
}

/// The operation that produced a tape node.
///
/// Every variant corresponds to exactly one kernel execution (the paper's
/// "launched kernel"). Fused variants replace chains of primitive variants.
#[derive(Clone, Debug)]
pub enum Op {
    /// Constant input (no gradient).
    Leaf,
    /// Differentiable input (atomic positions, strain tensor).
    DiffLeaf,
    /// Trainable parameter injected from a [`crate::param::ParamStore`].
    Param(ParamId),
    /// Elementwise unary op.
    Un { kind: UnKind, a: VarId },
    /// Elementwise binary op with per-operand broadcast.
    Bin { kind: BinKind, a: VarId, ba: Bcast, b: VarId, bb: Bcast },
    /// Dense GEMM.
    Matmul { a: VarId, b: VarId },
    /// Matrix transpose.
    Transpose { a: VarId },
    /// Sum-reduction along an axis.
    Sum { a: VarId, axis: Axis },
    /// Broadcast a tensor up to `shape` (VJP of `Sum`).
    BroadcastTo { a: VarId, shape: Shape },
    /// Row gather by index.
    Gather { a: VarId, idx: Arc<[u32]> },
    /// Segment (scatter-add) sum over rows.
    SegSum { a: VarId, seg: Arc<[u32]>, nseg: usize },
    /// Horizontal concatenation.
    ConcatCols { parts: Box<[VarId]> },
    /// Vertical concatenation.
    ConcatRows { parts: Box<[VarId]> },
    /// Column slice `[start, start+len)`.
    SliceCols { a: VarId, start: usize, len: usize },
    /// Row slice `[start, start+len)`.
    SliceRows { a: VarId, start: usize, len: usize },
    /// Place `a` into a zero matrix of `total` columns at column `start`
    /// (VJP of `SliceCols`).
    PadCols { a: VarId, start: usize, total: usize },
    /// Place `a` into a zero matrix of `total` rows at row `start`
    /// (VJP of `SliceRows`).
    PadRows { a: VarId, start: usize, total: usize },
    /// Row-major reshape to `shape` (same element count).
    Reshape { a: VarId, shape: Shape },
    /// A view of `blocks` side by side: what `concat_cols` of the gathered
    /// blocks would hold, with no buffer and no kernel. Only
    /// [`Op::LinearPart`] and [`Op::Transpose`] read it, in place.
    ColumnBlocks { blocks: Arc<[ColBlock]> },
    /// Output `part` of one `parts`-output linear launch `x @ w + b`: its
    /// columns `[part·n, (part + 1)·n)` for `w` `parts·n` wide. `x` may be
    /// a view.
    LinearPart { x: VarId, w: VarId, b: VarId, part: u8, parts: u8 },
    /// Per-row 3x3 block-diagonal GEMM (Alg. 2's batched image offset).
    /// When `trans_b`, each row is multiplied by the transposed block.
    BlockDiagMm { a: VarId, b: VarId, seg: Arc<[u32]>, trans_b: bool },
    /// Fused smooth-Radial-Bessel basis of derivative `order`.
    FusedSrbf { r: VarId, cfg: SrbfCfg, order: u8 },
    /// Fused Fourier angular basis of derivative `order`.
    FusedFourier { theta: VarId, harmonics: usize, order: u8 },
    /// Fused GatedMLP gate `sigmoid(a) ⊙ silu(b)`.
    FusedGate { a: VarId, b: VarId },
    /// Fused row-wise LayerNorm with affine parameters.
    FusedLayerNorm { a: VarId, gamma: VarId, beta: VarId, eps: f32 },
    /// `aᵀ @ b` without a transpose: the weight-gradient GEMM of the
    /// final backward sweep. Final-sweep only, like the fused VJPs
    /// below: nothing differentiates it.
    MatmulAt { a: VarId, b: VarId },
    /// Output `out` of one fused LayerNorm VJP launch for input `a`, scale
    /// `gamma` and output cotangent `g`: `dx` (0) or `dγ` (1).
    FusedLnVjp { a: VarId, gamma: VarId, g: VarId, out: u8 },
    /// Output `out` of one fused gate VJP launch for gate inputs `a`, `b`
    /// and output cotangent `g`: the cotangent of `a` (0) or of `b` (1).
    FusedGateVjp { a: VarId, b: VarId, g: VarId, out: u8 },
    /// Output `out` of one linear VJP launch for the input `x`, the weight
    /// `w` and the cotangents `g` of the [`Op::LinearPart`] outputs (a
    /// missing one is zero): `dx` (0, written only with `dx`), `dw` (1) or
    /// `db` (2).
    LinearVjp { x: VarId, w: VarId, g: [Option<VarId>; 3], dx: bool, out: u8 },
    /// `segment_sum` of the columns `[start, start + len)` of `a`, read in
    /// place: a view VJP's scatter of one gathered block.
    SegSumCols { a: VarId, start: usize, len: usize, seg: Arc<[u32]>, nseg: usize },
}

impl Op {
    /// Whether this op is one of the fused kernels (for the profiler's
    /// fused-kernel statistics).
    pub fn is_fused(&self) -> bool {
        matches!(
            self,
            Op::FusedSrbf { .. }
                | Op::FusedFourier { .. }
                | Op::FusedGate { .. }
                | Op::FusedLayerNorm { .. }
                | Op::FusedLnVjp { .. }
                | Op::FusedGateVjp { .. }
                | Op::LinearPart { .. }
                | Op::LinearVjp { .. }
                | Op::BlockDiagMm { .. }
        )
    }

    /// Input node ids of this op, in order.
    pub fn inputs(&self, out: &mut Vec<VarId>) {
        out.clear();
        match self {
            Op::Leaf | Op::DiffLeaf | Op::Param(_) => {}
            Op::Un { a, .. }
            | Op::Transpose { a }
            | Op::Sum { a, .. }
            | Op::BroadcastTo { a, .. }
            | Op::Gather { a, .. }
            | Op::SegSum { a, .. }
            | Op::SliceCols { a, .. }
            | Op::SliceRows { a, .. }
            | Op::PadCols { a, .. }
            | Op::PadRows { a, .. }
            | Op::Reshape { a, .. }
            | Op::SegSumCols { a, .. } => out.push(*a),
            Op::Bin { a, b, .. }
            | Op::Matmul { a, b }
            | Op::MatmulAt { a, b }
            | Op::BlockDiagMm { a, b, .. }
            | Op::FusedGate { a, b } => {
                out.push(*a);
                out.push(*b);
            }
            Op::FusedSrbf { r, .. } => out.push(*r),
            Op::FusedLayerNorm { a, gamma, beta, .. } => {
                out.push(*a);
                out.push(*gamma);
                out.push(*beta);
            }
            Op::FusedLnVjp { a, gamma: b, g, .. } | Op::FusedGateVjp { a, b, g, .. } => {
                out.extend([*a, *b, *g]);
            }
            Op::FusedFourier { theta, .. } => out.push(*theta),
            Op::ConcatCols { parts } | Op::ConcatRows { parts } => out.extend_from_slice(parts),
            Op::ColumnBlocks { blocks } => out.extend(blocks.iter().map(|b| b.src)),
            Op::LinearPart { x, w, b, .. } => out.extend([*x, *w, *b]),
            Op::LinearVjp { x, w, g, .. } => {
                out.extend([*x, *w]);
                out.extend(g.iter().flatten());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_detection() {
        assert!(Op::FusedGate { a: 0, b: 1 }.is_fused());
        assert!(!Op::Leaf.is_fused());
        assert!(!Op::Matmul { a: 0, b: 1 }.is_fused());
        assert!(Op::FusedLnVjp { a: 0, gamma: 1, g: 2, out: 0 }.is_fused());
        assert!(Op::FusedGateVjp { a: 0, b: 1, g: 2, out: 1 }.is_fused());
        assert!(!Op::MatmulAt { a: 0, b: 1 }.is_fused(), "a GEMM, counted as matmul");
    }

    #[test]
    fn input_listing() {
        let mut v = Vec::new();
        Op::Bin { kind: BinKind::Add, a: 3, ba: Bcast::Full, b: 7, bb: Bcast::Full }.inputs(&mut v);
        assert_eq!(v, vec![3, 7]);
        Op::ConcatCols { parts: vec![1, 2, 3].into_boxed_slice() }.inputs(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
        Op::FusedLnVjp { a: 4, gamma: 5, g: 6, out: 1 }.inputs(&mut v);
        assert_eq!(v, vec![4, 5, 6]);
        Op::Leaf.inputs(&mut v);
        assert!(v.is_empty());
    }
}
