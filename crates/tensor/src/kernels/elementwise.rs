//! Elementwise unary and binary kernels with broadcast support.

use crate::kernels::exp::{self, expf, ExpOp};
use crate::kernels::trig::{self, sincosf};
use crate::par;
use crate::shape::{Bcast, Shape};
use crate::tensor::Tensor;

/// Unary elementwise operator kinds.
///
/// `Powi`, `Scale` and `AddScalar` carry immediate operands so that common
/// scalar arithmetic does not require materialising constant tensors — part
/// of the "redundancy bypass" the paper applies to the envelope polynomial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnKind {
    /// `-x`
    Neg,
    /// `exp(x)`
    Exp,
    /// `ln(x)`
    Ln,
    /// `sqrt(x)`
    Sqrt,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `arccos(x)` (input clamped to `[-1, 1]` for numerical safety)
    Arccos,
    /// Logistic sigmoid `1 / (1 + exp(-x))`
    Sigmoid,
    /// `silu(x) = x * sigmoid(x)` (the paper's SiLU activation)
    Silu,
    /// `tanh(x)`
    Tanh,
    /// `1 / x`
    Recip,
    /// `x^2`
    Square,
    /// `|x|`
    Abs,
    /// `sign(x)` (0 at 0)
    Sign,
    /// `x^n` for integer `n`
    Powi(i32),
    /// `c * x`
    Scale(f32),
    /// `x + c`
    AddScalar(f32),
    /// `min(x, c)`
    ClampMax(f32),
    /// `clamp(x, lo, hi)` — derivative 1 strictly inside, 0 outside.
    /// Used to regularise `cos θ` before `arccos`: periodic self-image
    /// bond pairs are *exactly* collinear, where dθ/dcos diverges.
    Clamp(f32, f32),
    /// Indicator `x < c ? 1 : 0`
    LtScalar(f32),
    /// Indicator `lo < x && x < hi ? 1 : 0`
    InsideInterval(f32, f32),
}

impl UnKind {
    /// Apply the scalar function.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnKind::Neg => -x,
            UnKind::Exp => expf(x),
            UnKind::Ln => x.ln(),
            UnKind::Sqrt => x.sqrt(),
            UnKind::Sin => sincosf(x).0,
            UnKind::Cos => sincosf(x).1,
            UnKind::Arccos => x.clamp(-1.0, 1.0).acos(),
            UnKind::Sigmoid => sigmoid(x),
            UnKind::Silu => x * sigmoid(x),
            UnKind::Tanh => x.tanh(),
            UnKind::Recip => 1.0 / x,
            UnKind::Square => x * x,
            UnKind::Abs => x.abs(),
            UnKind::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnKind::Powi(n) => x.powi(n),
            UnKind::Scale(c) => c * x,
            UnKind::AddScalar(c) => x + c,
            UnKind::ClampMax(c) => x.min(c),
            UnKind::Clamp(lo, hi) => x.clamp(lo, hi),
            UnKind::LtScalar(c) => {
                if x < c {
                    1.0
                } else {
                    0.0
                }
            }
            UnKind::InsideInterval(lo, hi) => {
                if x > lo && x < hi {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Numerically stable logistic sigmoid: `1 / (1 + exp(-x))` for `x >= 0`
/// and `exp(x) / (1 + exp(x))` otherwise, so `exp` never overflows.
///
/// Both forms are written as one `num / (1 + z)` with selects in place of
/// a branch (the sign of `x` is unpredictable on activations). `exp` gets
/// the same argument as in the two-branch form, so the result is bitwise
/// the same, signed zeros and infinities included.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_with(x, expf(if x >= 0.0 { -x } else { x }))
}

/// [`sigmoid`] of `x` from its exponential `z = exp(x >= 0 ? -x : x)`.
#[inline(always)]
pub(crate) fn sigmoid_with(x: f32, z: f32) -> f32 {
    let num = if x >= 0.0 { 1.0 } else { z };
    num / (1.0 + z)
}

/// Binary elementwise operator kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b` (Hadamard / `⊙` in the paper)
    Mul,
    /// `a / b`
    Div,
}

impl BinKind {
    /// Apply the scalar function.
    #[inline(always)]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
        }
    }
}

/// Unary elementwise kernel: `out[i] = kind(a[i])`.
///
/// `kind` is matched once per call, not per element: each kind runs its
/// own monomorphic loop, so the cheap ones vectorize. Every element still
/// sees the same operation.
pub fn unary(kind: UnKind, a: &Tensor) -> Tensor {
    use UnKind::*;
    match kind {
        Neg => unary_op(kind, a, |x| Neg.apply(x)),
        Exp => unary_exp(a, ExpOp::Exp),
        Ln => unary_op(kind, a, |x| Ln.apply(x)),
        Sqrt => unary_op(kind, a, |x| Sqrt.apply(x)),
        Sin => Tensor::from_vec(a.shape(), trig::kernel(false, a.data())),
        Cos => Tensor::from_vec(a.shape(), trig::kernel(true, a.data())),
        Arccos => unary_op(kind, a, |x| Arccos.apply(x)),
        Sigmoid => unary_exp(a, ExpOp::Sigmoid),
        Silu => unary_exp(a, ExpOp::Silu),
        Tanh => unary_op(kind, a, |x| Tanh.apply(x)),
        Recip => unary_op(kind, a, |x| Recip.apply(x)),
        Square => unary_op(kind, a, |x| Square.apply(x)),
        Abs => unary_op(kind, a, |x| Abs.apply(x)),
        Sign => unary_op(kind, a, |x| Sign.apply(x)),
        Powi(n) => unary_op(kind, a, |x| Powi(n).apply(x)),
        Scale(c) => unary_op(kind, a, |x| Scale(c).apply(x)),
        AddScalar(c) => unary_op(kind, a, |x| AddScalar(c).apply(x)),
        ClampMax(c) => unary_op(kind, a, |x| ClampMax(c).apply(x)),
        Clamp(lo, hi) => unary_op(kind, a, |x| Clamp(lo, hi).apply(x)),
        LtScalar(c) => unary_op(kind, a, |x| LtScalar(c).apply(x)),
        InsideInterval(lo, hi) => unary_op(kind, a, |x| InsideInterval(lo, hi).apply(x)),
    }
}

/// [`unary`] for one operator `op`, the scalar function of `kind`.
fn unary_op(kind: UnKind, a: &Tensor, op: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let n = a.len();
    let d = a.data();
    let mut out = crate::pool::with_capacity(n);
    // Relative cost: 1 for arithmetic, 32 for a scalar libm call (`un.arccos`
    // takes 16 ns an element in the md-nve64 forward, `bin.add` 0.5 ns).
    let weight = match kind {
        UnKind::Ln | UnKind::Arccos | UnKind::Tanh => 32,
        _ => crate::cost::un_flops_per_elem(kind).div_ceil(2) as usize,
    };
    let work = n * weight;
    par::fill_rows(&mut out, n, 1, par::chunks(work, n), |r, out| {
        out.extend(d[r].iter().map(|&x| op(x)))
    });
    Tensor::from_vec(a.shape(), out)
}

/// [`unary`] for the kinds built on `exp`: [`exp::kernel`].
fn unary_exp(a: &Tensor, op: ExpOp<'_>) -> Tensor {
    Tensor::from_vec(a.shape(), exp::kernel(op, a.data()))
}

/// One operand of [`binary`] restricted to one output row: a slice of the
/// row's length (`Full`, `Row`) or one value for the whole row (`Col`,
/// `Scalar`).
enum RowOperand<'a> {
    Slice(&'a [f32]),
    Value(f32),
}

impl<'a> RowOperand<'a> {
    fn of(data: &'a [f32], bc: Bcast, r: usize, cols: usize) -> Self {
        match bc {
            Bcast::Full => RowOperand::Slice(&data[r * cols..(r + 1) * cols]),
            Bcast::Row => RowOperand::Slice(&data[..cols]),
            Bcast::Col => RowOperand::Value(data[r]),
            Bcast::Scalar => RowOperand::Value(data[0]),
        }
    }
}

/// Binary elementwise kernel with broadcasting:
/// `out[r,c] = kind(a[bcast_a(r,c)], b[bcast_b(r,c)])`.
///
/// Broadcasting is resolved once per output row, so each row is one plain
/// loop over slices (and broadcast values) that the compiler vectorizes.
/// `kind` is matched once per call, not per element, for the same reason.
pub fn binary(
    kind: BinKind,
    a: &Tensor,
    ba: Bcast,
    b: &Tensor,
    bb: Bcast,
    out_shape: Shape,
) -> Tensor {
    let (x, y) = ((a, ba), (b, bb));
    match kind {
        BinKind::Add => binary_op(|x, y| BinKind::Add.apply(x, y), x, y, out_shape),
        BinKind::Sub => binary_op(|x, y| BinKind::Sub.apply(x, y), x, y, out_shape),
        BinKind::Mul => binary_op(|x, y| BinKind::Mul.apply(x, y), x, y, out_shape),
        BinKind::Div => binary_op(|x, y| BinKind::Div.apply(x, y), x, y, out_shape),
    }
}

/// [`binary`] for one operator `op`.
fn binary_op(
    op: impl Fn(f32, f32) -> f32 + Sync,
    (a, ba): (&Tensor, Bcast),
    (b, bb): (&Tensor, Bcast),
    out_shape: Shape,
) -> Tensor {
    let (rows, cols) = (out_shape.rows, out_shape.cols);
    let n = out_shape.len();
    let ad = a.data();
    let bd = b.data();
    let mut out = crate::pool::with_capacity(n);

    // Fast path: both operands dense with the output shape.
    if ba == Bcast::Full && bb == Bcast::Full {
        par::fill_rows(&mut out, n, 1, par::chunks(n, n), |r, out| {
            out.extend(ad[r.clone()].iter().zip(&bd[r]).map(|(&x, &y)| op(x, y)))
        });
        return Tensor::from_vec(out_shape, out);
    }

    par::fill_rows(&mut out, rows, cols, par::chunks(n, rows), |rs, out| {
        for r in rs {
            match (RowOperand::of(ad, ba, r, cols), RowOperand::of(bd, bb, r, cols)) {
                (RowOperand::Slice(xs), RowOperand::Slice(ys)) => {
                    out.extend(xs.iter().zip(ys).map(|(&x, &y)| op(x, y)))
                }
                (RowOperand::Slice(xs), RowOperand::Value(y)) => {
                    out.extend(xs.iter().map(|&x| op(x, y)))
                }
                (RowOperand::Value(x), RowOperand::Slice(ys)) => {
                    out.extend(ys.iter().map(|&y| op(x, y)))
                }
                (RowOperand::Value(x), RowOperand::Value(y)) => {
                    out.extend(std::iter::repeat_n(op(x, y), cols))
                }
            }
        }
    });
    Tensor::from_vec(out_shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::bits;
    use rand::{rngs::StdRng, SeedableRng};

    /// The two-branch sigmoid [`sigmoid`] replaced, kept as its bitwise
    /// reference.
    fn sigmoid_branchy(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + expf(-x))
        } else {
            let e = expf(x);
            e / (1.0 + e)
        }
    }

    #[test]
    fn branch_free_sigmoid_is_bitwise_the_two_branch_form() {
        let mut xs: Vec<f32> =
            (0..1u64 << 32).step_by(4096).map(|b| f32::from_bits(b as u32)).collect();
        let specials = [0x7fc0_0000u32, 0xffc0_0000, 0x7fc0_1234, 0x7f80_0001, 0xff80_0001];
        xs.extend(specials.map(f32::from_bits));
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, f32::MAX]);
        // Subnormals and the edges where exp(±x) overflows (ln f32::MAX
        // ≈ 88.72) or underflows to zero (≈ 103.97), with ulp neighbours.
        for edge in [f32::from_bits(1), f32::from_bits(0x007f_ffff), 88.72284, 103.97208] {
            for ulps in 0..64u32 {
                for v in [edge.to_bits() + ulps, edge.to_bits() - ulps.min(edge.to_bits())] {
                    xs.push(f32::from_bits(v));
                    xs.push(-f32::from_bits(v));
                }
            }
        }
        for &x in &xs {
            assert_eq!(
                bits(&[sigmoid(x)]),
                bits(&[sigmoid_branchy(x)]),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    /// The per-element `Bcast::index` form of [`binary`], kept as its
    /// bitwise reference.
    fn binary_indexed(
        kind: BinKind,
        a: &Tensor,
        ba: Bcast,
        b: &Tensor,
        bb: Bcast,
        out: Shape,
    ) -> Vec<f32> {
        let cols = out.cols;
        (0..out.len())
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                kind.apply(a.data()[ba.index(r, c, cols)], b.data()[bb.index(r, c, cols)])
            })
            .collect()
    }

    #[test]
    fn row_wise_binary_is_bitwise_the_indexed_form() {
        let patterns = [Bcast::Full, Bcast::Col, Bcast::Row, Bcast::Scalar];
        let operand_shape = |bc: Bcast, out: Shape| match bc {
            Bcast::Full => out,
            Bcast::Col => Shape::new(out.rows, 1),
            Bcast::Row => Shape::new(1, out.cols),
            Bcast::Scalar => Shape::scalar(),
        };
        let mut tested = 0;
        let mut case = 0u64;
        for out in [Shape::new(5, 7), Shape::new(4, 33), Shape::new(3, 1), Shape::new(1, 9)] {
            for (ba, bb) in patterns.iter().flat_map(|&x| patterns.map(|y| (x, y))) {
                let (sa, sb) = (operand_shape(ba, out), operand_shape(bb, out));
                // Only pairs that broadcast to `out` and resolve to (ba, bb).
                if crate::shape::broadcast_shape(sa, sb) != Some(out)
                    || Bcast::resolve(sa, out) != Some(ba)
                    || Bcast::resolve(sb, out) != Some(bb)
                {
                    continue;
                }
                for kind in [BinKind::Add, BinKind::Sub, BinKind::Mul, BinKind::Div] {
                    case += 1;
                    let mut rng = StdRng::seed_from_u64(case);
                    let mut draw = |s: Shape| {
                        Tensor::from_vec(
                            s,
                            (0..s.len()).map(|_| crate::kernels::test_value(&mut rng)).collect(),
                        )
                    };
                    let (a, b) = (draw(sa), draw(sb));
                    assert_eq!(
                        bits(binary(kind, &a, ba, &b, bb, out).data()),
                        bits(&binary_indexed(kind, &a, ba, &b, bb, out)),
                        "{kind:?} {ba:?} x {bb:?} into {out} (seed {case})"
                    );
                    tested += 1;
                }
            }
        }
        // Full x {all 4}, {Col, Row, Scalar} x Full, Col x Row and Row x Col
        // on the 2-D shapes, fewer on the vector ones: every accepted pair.
        assert!(tested >= 9 * 4, "only {tested} cases ran");
    }

    #[test]
    fn per_kind_unary_is_bitwise_the_per_element_match() {
        use UnKind::*;
        let kinds = [
            Neg,
            Exp,
            Ln,
            Sqrt,
            Sin,
            Cos,
            Arccos,
            Sigmoid,
            Silu,
            Tanh,
            Recip,
            Square,
            Abs,
            Sign,
            Powi(3),
            Powi(-2),
            Scale(-1.5),
            AddScalar(0.25),
            ClampMax(0.5),
            Clamp(-1.0, 1.0),
            LtScalar(0.5),
            InsideInterval(-1.0, 2.0),
        ];
        for (case, kind) in (0u64..).zip(kinds) {
            let mut rng = StdRng::seed_from_u64(case);
            let a = Tensor::from_vec(
                Shape::new(7, 37),
                (0..7 * 37).map(|_| crate::kernels::test_value(&mut rng)).collect(),
            );
            let want: Vec<f32> = a.data().iter().map(|&x| kind.apply(x)).collect();
            assert_eq!(bits(unary(kind, &a).data()), bits(&want), "{kind:?}");
        }
    }

    #[test]
    fn unary_kinds() {
        let t = Tensor::row_vec(&[-2.0, 0.0, 3.0]);
        assert_eq!(unary(UnKind::Neg, &t).data(), &[2.0, 0.0, -3.0]);
        assert_eq!(unary(UnKind::Abs, &t).data(), &[2.0, 0.0, 3.0]);
        assert_eq!(unary(UnKind::Sign, &t).data(), &[-1.0, 0.0, 1.0]);
        assert_eq!(unary(UnKind::Square, &t).data(), &[4.0, 0.0, 9.0]);
        assert_eq!(unary(UnKind::Scale(2.0), &t).data(), &[-4.0, 0.0, 6.0]);
        assert_eq!(unary(UnKind::AddScalar(1.0), &t).data(), &[-1.0, 1.0, 4.0]);
        assert_eq!(unary(UnKind::ClampMax(1.0), &t).data(), &[-2.0, 0.0, 1.0]);
        assert_eq!(unary(UnKind::LtScalar(0.5), &t).data(), &[1.0, 1.0, 0.0]);
        let s = unary(UnKind::Sigmoid, &t);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        let silu = unary(UnKind::Silu, &t);
        assert!((silu.data()[2] - 3.0 * sigmoid(3.0)).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_stability() {
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-6);
    }

    #[test]
    fn arccos_clamps() {
        let t = Tensor::row_vec(&[1.0 + 1e-7, -1.0 - 1e-7]);
        let a = unary(UnKind::Arccos, &t);
        assert!(a.all_finite());
        assert!((a.data()[0] - 0.0).abs() < 1e-3);
        assert!((a.data()[1] - std::f32::consts::PI).abs() < 1e-3);
    }

    #[test]
    fn binary_full() {
        let a = Tensor::row_vec(&[1.0, 2.0, 3.0]);
        let b = Tensor::row_vec(&[4.0, 5.0, 6.0]);
        let s = binary(BinKind::Add, &a, Bcast::Full, &b, Bcast::Full, a.shape());
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
        let d = binary(BinKind::Div, &b, Bcast::Full, &a, Bcast::Full, a.shape());
        assert_eq!(d.data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn binary_col_broadcast() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let col = Tensor::col_vec(&[10.0, 100.0]);
        let out = binary(BinKind::Mul, &a, Bcast::Full, &col, Bcast::Col, a.shape());
        assert_eq!(out.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn binary_row_and_scalar_broadcast() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let row = Tensor::row_vec(&[1.0, -1.0]);
        let out = binary(BinKind::Mul, &a, Bcast::Full, &row, Bcast::Row, a.shape());
        assert_eq!(out.data(), &[1.0, -2.0, 3.0, -4.0]);
        let s = Tensor::scalar(2.0);
        let out = binary(BinKind::Sub, &a, Bcast::Full, &s, Bcast::Scalar, a.shape());
        assert_eq!(out.data(), &[-1.0, 0.0, 1.0, 2.0]);
    }
}
