//! `exp`, the logistic sigmoid, SiLU and the fused gate: one scalar port
//! of glibc's `expf`, and the same port in the `f64` lanes of
//! [`Tier::Avx2`] and [`Tier::Avx512`], all with the same bits.
//!
//! The port follows glibc's `expf` (glibc ≥ 2.27,
//! `sysdeps/ieee754/flt-32/e_expf.c`) as GCC compiles it into
//! `__expf_fma`, the variant glibc itself runs on a host with AVX2 and
//! FMA. Every element or lane takes the same double-precision steps, with
//! a fused multiply-add exactly where that build has one:
//!
//! * `xd = x as f64`, `kd0 = fma(32/ln 2, xd, SHIFT)`: adding
//!   `SHIFT = 1.5·2^52` rounds `xd·32/ln 2` to an integer `k`, which sits
//!   in the low bits of `kd0`;
//! * `kd = kd0 - SHIFT` and `r = fma(32/ln 2, xd, -kd)`, the fraction
//!   left over, in `[-1/2, 1/2]`;
//! * `s = 2^(k/32)` straight from its bits, `T[k % 32] + (k << 47)`, where
//!   `T[i]` holds `bits(2^(i/32)) - (i << 47)`;
//! * `exp(x) = s · 2^(r/32) ≈ s · (fma(fma(C0, r, C1), r², fma(C2, r, 1)))`
//!   with glibc's minimax coefficients, rounded once to `f32`;
//! * `x > 0x1.62e42ep6` gives `+inf`, `x < -0x1.9fe368p6` and `-inf` give
//!   `+0`, and NaN gives `x + x`.
//!
//! [`expf`] takes these steps on one element with `f64::mul_add`, which
//! rounds once on every host (an FMA instruction where the calling code
//! is compiled with `fma`, a correctly rounded `fma` call otherwise): it
//! is the [`Tier::Scalar`] body, the vector tiers' chunk tails, and the
//! reference of every test. The vector tiers run the same steps as a
//! [`LanePass`] body on [`crate::kernels::lanes`]' `f64` lanes (4 on
//! `Avx2`, 8 on `Avx512`, which reads `T` from registers with two
//! `vpermt2q`): each block of 64 elements takes its exponentials in lanes,
//! rounded to `f32`, then the sigmoid's, SiLU's, the gate's and the VJP's
//! `f32` operations element by element ([`sigmoid_with`]), as the scalar
//! path does.
//!
//! With glibc 2.36 on an AVX2+FMA CPU (where glibc runs its FMA builds)
//! every tier equals `f32::exp` at all 2³² inputs
//! (`tests::port_is_libm_at_every_input`, run by `scripts/check.sh`);
//! that comparison is informative, the in-tree port is the definition.

use std::ops::Range;

use crate::kernels::elementwise::{sigmoid, sigmoid_with};
use crate::kernels::lanes::{run_on, LanePass, Lanes};
use crate::kernels::Tier;
use crate::par::{self, Rows};

/// What an exp kernel writes per element `x` (and `y`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ExpOp<'a> {
    /// `exp(x)`
    Exp,
    /// `sigmoid(x)`
    Sigmoid,
    /// `x * sigmoid(x)`
    Silu,
    /// `sigmoid(x) * y * sigmoid(y)`, `y` the same length as `x`: the
    /// fused GatedMLP gate.
    Gate(&'a [f32]),
}

impl ExpOp<'_> {
    /// This op over elements `r` of `x` (and `y`).
    fn rows(self, r: Range<usize>) -> Self {
        match self {
            ExpOp::Gate(y) => ExpOp::Gate(&y[r]),
            op => op,
        }
    }
}

/// `op` of every element of `x` on the host's tier, into a pool buffer: the
/// kernel behind `unary`'s `Exp`, `Sigmoid` and `Silu` and `fused_gate`. A
/// large call splits its elements across [`crate::par`]'s threads.
pub(crate) fn kernel(op: ExpOp<'_>, x: &[f32]) -> Vec<f32> {
    let tier = Tier::host();
    let n = x.len();
    let mut out = crate::pool::with_capacity(n);
    let chunks = par::chunks(n * work_per_elem(tier, op), n);
    par::fill_rows(&mut out, n, 1, chunks, |r, w| run(tier, op.rows(r.clone()), &x[r], w));
    out
}

/// The cotangents `[ga, gb]` of the fused gate `sigmoid(a) ⊙ silu(b)` for
/// the output cotangent `g`, in one pass on the host's tier. With
/// `sa = sigmoid(a)`, `sb = sigmoid(b)` and `bs = b·sb` (which is `silu(b)`
/// bitwise on every tier):
///
/// * `ga = (g·bs)·(sa − sa·sa)`,
/// * `gb = (g·sa)·(sb + (bs − bs·sb))`,
///
/// the operations of the composed chain `Tape::backward` emits for
/// `FusedGate`, with two sigmoids per element pair where the chain
/// evaluates four. A large call splits its elements across
/// [`crate::par`]'s threads.
pub(crate) fn gate_vjp(a: &[f32], b: &[f32], g: &[f32]) -> [Vec<f32>; 2] {
    gate_vjp_on(Tier::host(), a, b, g)
}

/// Append the fused gate `sigmoid(a) ⊙ silu(b)` of every element pair to
/// `out`, on the host's tier and the calling thread.
pub(crate) fn gate_rows(a: &[f32], b: &[f32], out: &mut Rows<'_>) {
    run(Tier::host(), ExpOp::Gate(b), a, out)
}

/// `bits(2^(i/32)) - (i << 47)`, `2^(i/32)` correctly rounded to `f64`:
/// glibc's `__exp2f_data.tab`.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `0x1.71547652b82fep0 · 32`: 32/ln 2.
const INV_LN2_N: f64 = 46.16624130844683;
/// `0x1.8p52`.
const SHIFT: f64 = 6755399441055744.0;
/// `0x1.c6af84b912394p-5 / 32³`, `0x1.ebfce50fac4f3p-3 / 32²` and
/// `0x1.62e42ff0c52d6p-1 / 32`.
const C: [f64; 3] = [1.6938359250920212e-06, 0.00023459809789509004, 0.021660849396613134];
/// `0x1.62e42ep6`: above it `exp` overflows to `+inf`.
const HI: f32 = 88.72283;
/// `-0x1.9fe368p6`: below it `exp` underflows to `+0`.
const LO: f32 = -103.97208;

/// `exp(x)` by the port's steps (module docs) on one element: glibc's
/// `__expf_fma` in scalar `f64` arithmetic.
#[inline(always)]
pub(crate) fn expf(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x > HI {
        return f32::INFINITY;
    }
    if x < LO {
        return 0.0;
    }
    let xd = x as f64;
    let kd0 = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd0.to_bits();
    let kd = kd0 - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C[0].mul_add(r, C[1]).mul_add(r * r, C[2].mul_add(r, 1.0));
    (y * s) as f32
}

/// Relative cost of one element of `op` on `tier`, in
/// [`par::SPLIT_WORK`] units (one `bin.add` element). `Avx2`'s are read
/// off the width-1 per-op tables of EXPERIMENTS.md "Bitwise vector expf":
/// a sigmoid or SiLU element takes 2.5–2.8 times a `bin.add` element, a
/// gate element 4.5 times (`exp`, which no model kernel runs, shares the
/// sigmoid's weight). `Avx512`'s are read off the tables of EXPERIMENTS.md
/// "AVX-512 tier". `Scalar`'s are the weights these kernels had when they
/// called libm.
fn work_per_elem(tier: Tier, op: ExpOp<'_>) -> usize {
    match (tier, op) {
        (Tier::Scalar, ExpOp::Exp) => 4,
        (Tier::Scalar, ExpOp::Sigmoid | ExpOp::Silu) => 7,
        (Tier::Scalar, ExpOp::Gate(_)) => 16,
        (Tier::Avx2, ExpOp::Exp | ExpOp::Sigmoid | ExpOp::Silu) => 3,
        (Tier::Avx2, ExpOp::Gate(_)) => 5,
        (Tier::Avx512, ExpOp::Exp | ExpOp::Sigmoid | ExpOp::Silu) => 2,
        (Tier::Avx512, ExpOp::Gate(_)) => 3,
    }
}

/// [`gate_vjp`] on `tier`.
fn gate_vjp_on(tier: Tier, a: &[f32], b: &[f32], g: &[f32]) -> [Vec<f32>; 2] {
    assert!(a.len() == b.len() && a.len() == g.len(), "gate VJP operands differ in length");
    let n = a.len();
    let mut out = [crate::pool::with_capacity(n), crate::pool::with_capacity(n)];
    let work = match tier {
        Tier::Scalar => 18,
        Tier::Avx2 => 6,
        Tier::Avx512 => 4,
    };
    par::fill_rows_n(out.each_mut(), n, [1, 1], par::chunks(n * work, n), |r, w| {
        let (a, b, g) = (&a[r.clone()], &b[r.clone()], &g[r]);
        match tier {
            Tier::Scalar => gate_vjp_scalar(a, b, g, w),
            _ => run_on(tier, GateVjp { a, b, g, w }),
        }
    });
    out
}

/// `op` of every element of `x` on `tier` and the calling thread, into a
/// buffer of its own.
#[cfg(test)]
fn map(tier: Tier, op: ExpOp<'_>, x: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    par::fill_rows(&mut out, x.len(), 1, 1, |_, w| run(tier, op, x, w));
    out
}

/// Append `op` of every element of `x` to `out`, on `tier`.
fn run(tier: Tier, op: ExpOp<'_>, x: &[f32], out: &mut Rows<'_>) {
    if let ExpOp::Gate(y) = op {
        assert_eq!(x.len(), y.len(), "gate operands differ in length");
    }
    match tier {
        Tier::Scalar => run_scalar(op, x, out),
        _ => run_on(tier, Run { op, x, out }),
    }
}

/// [`run`] on [`Tier::Scalar`]: one [`expf`] per exponential.
fn run_scalar(op: ExpOp<'_>, x: &[f32], out: &mut Rows<'_>) {
    match op {
        ExpOp::Exp => out.extend(x.iter().map(|&x| expf(x))),
        ExpOp::Sigmoid => out.extend(x.iter().map(|&x| sigmoid(x))),
        ExpOp::Silu => out.extend(x.iter().map(|&x| x * sigmoid(x))),
        ExpOp::Gate(y) => out.extend(x.iter().zip(y).map(|(&x, &y)| sigmoid(x) * y * sigmoid(y))),
    }
}

/// [`gate_vjp`] on [`Tier::Scalar`]: one scalar [`sigmoid`] per operand.
fn gate_vjp_scalar(a: &[f32], b: &[f32], g: &[f32], [ga, gb]: [&mut Rows<'_>; 2]) {
    for ((&a, &b), &g) in a.iter().zip(b).zip(g) {
        let [da, db] = gate_vjp_of(sigmoid(a), b, sigmoid(b), g);
        ga.push(da);
        gb.push(db);
    }
}

/// The gate VJP's `f32` operations on one element pair, from
/// `sa = sigmoid(a)` and `sb = sigmoid(b)`: `[ga, gb]`.
#[inline(always)]
fn gate_vjp_of(sa: f32, b: f32, sb: f32, g: f32) -> [f32; 2] {
    let bs = b * sb;
    [(g * bs) * (sa - sa * sa), (g * sa) * (sb + (bs - bs * sb))]
}

/// Elements per block on the vector tiers, a whole number of chunks at
/// every lane width: a block's exponentials run in lanes into a buffer,
/// then its `f32` operations element by element.
const BLOCK: usize = 64;

/// [`run`] on the vector tiers.
struct Run<'a, 'o, 'r> {
    op: ExpOp<'a>,
    x: &'a [f32],
    out: &'o mut Rows<'r>,
}

impl LanePass for Run<'_, '_, '_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let mut z = [[0.0; BLOCK]; 2];
        for (k, x) in self.x.chunks(BLOCK).enumerate() {
            let [za, zb] = &mut z;
            match self.op.rows(k * BLOCK..k * BLOCK + x.len()) {
                ExpOp::Exp => {
                    exp_block::<V>(x, false, za);
                    self.out.extend_from_slice(&za[..x.len()]);
                }
                ExpOp::Sigmoid => {
                    exp_block::<V>(x, true, za);
                    self.out.extend(x.iter().zip(&*za).map(|(&x, &z)| sigmoid_with(x, z)));
                }
                ExpOp::Silu => {
                    exp_block::<V>(x, true, za);
                    self.out.extend(x.iter().zip(&*za).map(|(&x, &z)| x * sigmoid_with(x, z)));
                }
                ExpOp::Gate(y) => {
                    exp_block::<V>(x, true, za);
                    exp_block::<V>(y, true, zb);
                    let (x, y) = (x.iter().zip(&*za), y.iter().zip(&*zb));
                    self.out.extend(x.zip(y).map(|((&x, &za), (&y, &zb))| {
                        sigmoid_with(x, za) * y * sigmoid_with(y, zb)
                    }));
                }
            }
        }
    }
}

/// [`gate_vjp`] on the vector tiers.
struct GateVjp<'a, 'o, 'r> {
    a: &'a [f32],
    b: &'a [f32],
    g: &'a [f32],
    w: [&'o mut Rows<'r>; 2],
}

impl LanePass for GateVjp<'_, '_, '_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let [ga, gb] = self.w;
        let (mut z, mut d) = ([[0.0; BLOCK]; 2], [[0.0; BLOCK]; 2]);
        let blocks = self.a.chunks(BLOCK).zip(self.b.chunks(BLOCK)).zip(self.g.chunks(BLOCK));
        for ((a, b), g) in blocks {
            let [za, zb] = &mut z;
            exp_block::<V>(a, true, za);
            exp_block::<V>(b, true, zb);
            let [da, db] = &mut d;
            let pairs = a.iter().zip(&*za).zip(b.iter().zip(&*zb)).zip(g);
            for ((((&a, &za), (&b, &zb)), &g), (da, db)) in pairs.zip(da.iter_mut().zip(&mut *db)) {
                [*da, *db] = gate_vjp_of(sigmoid_with(a, za), b, sigmoid_with(b, zb), g);
            }
            ga.extend_from_slice(&da[..a.len()]);
            gb.extend_from_slice(&db[..a.len()]);
        }
    }
}

/// `expf(x)` of every element of `x` into `z` on lanes `V`, or with
/// `sigmoid` the exponential [`sigmoid`] takes, `expf(x >= 0 ? -x : x)`.
/// Whole chunks run [`expf_lanes`], the rest of `x` [`expf`] itself.
#[inline(always)]
fn exp_block<V: Lanes>(x: &[f32], sigmoid: bool, z: &mut [f32]) {
    let body = x.len() / V::N * V::N;
    for (x, z) in x[..body].chunks_exact(V::N).zip(z.chunks_exact_mut(V::N)) {
        let x = V::load_f32(x);
        let x = if sigmoid { V::select(V::splat(0.0).le(x), x.neg(), x) } else { x };
        expf_lanes(x).store_f32(z);
    }
    for (&x, z) in x[body..].iter().zip(&mut z[body..]) {
        *z = expf(if sigmoid && x >= 0.0 { -x } else { x });
    }
}

/// [`expf`] on lanes of `f32` values, up to its rounding to `f32`: the
/// port's steps on every lane, then `+inf` above [`HI`] and `+0` below
/// [`LO`]. A NaN lane stays NaN through the steps.
#[inline(always)]
fn expf_lanes<V: Lanes>(xd: V) -> V {
    let c = V::splat;
    let kd0 = c(INV_LN2_N).mul_add(xd, c(SHIFT));
    let kd = kd0.sub(c(SHIFT));
    let r = c(INV_LN2_N).mul_add(xd, kd.neg());
    let s = V::gather(&T, kd0).add_bits(kd0.shl(47));
    let y = c(C[0]).mul_add(r, c(C[1])).mul_add(r.mul(r), c(C[2]).mul_add(r, c(1.0)));
    let y = V::select(c(HI as f64).lt(xd), c(f64::INFINITY), y.mul(s));
    V::select(xd.lt(c(LO as f64)), c(0.0), y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::bits;
    use rand::{rngs::StdRng, SeedableRng};

    /// The decimal constants are exactly glibc's hex literals.
    #[test]
    fn constants_are_glibcs() {
        assert_eq!(INV_LN2_N.to_bits(), 0x4047_1547_652b_82fe);
        assert_eq!(SHIFT.to_bits(), 0x4338_0000_0000_0000);
        assert_eq!(
            C.map(f64::to_bits),
            [0x3ebc6af84b912394, 0x3f2ebfce50fac4f3, 0x3f962e42ff0c52d6]
        );
        assert_eq!((HI.to_bits(), LO.to_bits()), (0x42b1_7217, 0xc2cf_f1b4));
    }

    /// Every `T[i]` stands for `2^(i/32)` correctly rounded to `f64`: with
    /// `t` its value and `u` the spacing of `f64`s at `t`, the double-double
    /// powers `(t − u/2)^32` and `(t + u/2)^32` bracket `2^i`.
    #[test]
    fn table_is_two_to_the_i_over_32_correctly_rounded() {
        /// `(a + b)^32` as a double-double, by five squarings.
        fn pow32(a: f64, b: f64) -> (f64, f64) {
            (0..5).fold((a, b), |(hi, lo), _| {
                let p = hi * hi;
                let e = hi.mul_add(hi, -p) + 2.0 * hi * lo;
                let s = p + e;
                (s, e - (s - p))
            })
        }
        for (i, &t) in T.iter().enumerate() {
            let t = f64::from_bits(t + ((i as u64) << 47));
            let half_ulp = (f64::from_bits(t.to_bits() + 1) - t) / 2.0;
            let two_i = (1u64 << i) as f64;
            let (below, above) = (pow32(t, -half_ulp), pow32(t, half_ulp));
            assert!(below.0 - two_i + below.1 < 0.0 && above.0 - two_i + above.1 > 0.0, "T[{i}]");
        }
    }

    /// `expf` at the inputs where a build without the FMAs on `kd0` and `r`
    /// differs, at both range edges and at the specials: glibc 2.36's
    /// `__expf_fma` bits.
    #[test]
    fn expf_is_glibcs_fma_build_at_its_witnesses() {
        for (x, want) in [
            (0xc27c_65d9, 0x11fa_2993), // -63.099...: needs the FMAs
            (0x4202_422f, 0x56fc_9f1c), // 32.564...: needs the FMAs
            (0x3f80_0000, 0x402d_f854), // 1: e
            (0x42b1_7217, 0x7f7f_ff84), // largest finite result
            (0x42b1_7218, 0x7f80_0000), // next up: +inf
            (0xc2cf_f1b4, 0x0000_0001), // smallest nonzero result
            (0xc2cf_f1b5, 0x0000_0000), // next down: +0
            (0x8000_0000, 0x3f80_0000), // -0
            (0xff80_0000, 0x0000_0000), // -inf
            (0x7f80_0000, 0x7f80_0000), // +inf
        ] {
            assert_eq!(expf(f32::from_bits(x)).to_bits(), want, "x = {x:#x}");
        }
        assert!(expf(f32::NAN).is_nan());
    }

    /// Inputs at the edges of the port: ordinary values, the two inputs
    /// where a build without the FMAs on `kd0` and `r` is off, `±0`,
    /// subnormals, `±inf`, NaNs, and both range edges with a neighbour
    /// outside and the start of the subnormal results.
    const EDGES: [u32; 32] = [
        0x3f80_0000, // 1
        0xbf80_0000, // -1
        0x3f00_0000, // 0.5
        0xc0a0_0000, // -5
        0x4120_0000, // 10
        0x3e4c_cccd, // 0.2
        0xc27c_65d9, // -63.099...: needs the FMAs
        0x4202_422f, // 32.564...: needs the FMAs
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // NaN
        0xffc0_1234, // NaN with sign and payload
        0x42b1_7217, // 0x1.62e42ep6: largest finite result
        0x42b1_7218, // next up: +inf
        0xc2cf_f1b4, // -0x1.9fe368p6: smallest nonzero result
        0xc2cf_f1b5, // next down: 0
        0x42b0_0000, // 88: glibc's slow-path cutoff
        0xc2b0_0000, // -88
        0xc2ae_0000, // -87: result just above the subnormals
        0xc2c8_0000, // -100: subnormal result
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff, // f32::MIN
        0x3380_0000, // 2^-24
        0xb380_0000, // -2^-24
        0x41a0_0000, // 20
        0xc1a0_0000, // -20
        0x42a0_0000, // 80
        0xc2a0_0000, // -80
    ];

    /// The inputs of the tier tests: a strided sweep of bit patterns, the
    /// edge inputs and random `test_value`s (specials included).
    fn inputs() -> Vec<f32> {
        let mut xs: Vec<f32> =
            (0..1u64 << 32).step_by(65_537).map(|b| f32::from_bits(b as u32)).collect();
        xs.extend(EDGES.map(f32::from_bits));
        let mut rng = StdRng::seed_from_u64(13);
        xs.extend((0..4099).map(|_| crate::kernels::test_value(&mut rng)));
        xs
    }

    /// The lengths of the tier tests: both sides of whole chunks of 4 and
    /// 8 lanes, of 16, and of one and two 64-element blocks.
    const TEST_LENS: [usize; 19] =
        [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 4099, 4100];

    /// The vector tiers this host runs.
    fn vector_tiers() -> Vec<Tier> {
        Tier::on_host().filter(|&t| t != Tier::Scalar).collect()
    }

    /// Every vector tier the host runs (`Avx2`, `Avx512`) against
    /// `Scalar`, the in-tree port of libm's `expf`.
    #[test]
    fn vector_tiers_are_bitwise_the_scalar_port() {
        let xs = inputs();
        // Rotated, so the gate pairs each input with a different one.
        let ys: Vec<f32> = xs.iter().cycle().skip(7).take(xs.len()).copied().collect();
        for len in TEST_LENS.into_iter().chain([xs.len()]) {
            // Each length at the start and at the end of the inputs; the
            // full length runs all but the last few in vector lanes.
            for start in [0, xs.len() - len] {
                let (x, y) = (&xs[start..start + len], &ys[start..start + len]);
                for (op, tier) in [ExpOp::Exp, ExpOp::Sigmoid, ExpOp::Silu, ExpOp::Gate(y)]
                    .into_iter()
                    .flat_map(|op| vector_tiers().into_iter().map(move |t| (op, t)))
                {
                    let (port, scalar) = (bits(&map(tier, op, x)), bits(&map(Tier::Scalar, op, x)));
                    assert_eq!(port.len(), len);
                    if let Some(i) = (0..len).find(|&i| port[i] != scalar[i]) {
                        panic!(
                            "{tier:?} {} len {len} from {start}: x = {:#x}, y = {:#x}: {:#x}, \
                             scalar {:#x}",
                            format!("{op:?}").split('(').next().unwrap_or_default(),
                            x[i].to_bits(),
                            y[i].to_bits(),
                            port[i],
                            scalar[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gate_vjp_tiers_agree_bitwise() {
        let xs = inputs();
        let ys: Vec<f32> = xs.iter().cycle().skip(7).take(xs.len()).copied().collect();
        let gs: Vec<f32> = xs.iter().cycle().skip(3001).take(xs.len()).copied().collect();
        for len in TEST_LENS.into_iter().chain([xs.len()]) {
            for start in [0, xs.len() - len] {
                let r = start..start + len;
                let (a, b, g) = (&xs[r.clone()], &ys[r.clone()], &gs[r]);
                let scalar = gate_vjp_on(Tier::Scalar, a, b, g);
                for tier in vector_tiers() {
                    let port = gate_vjp_on(tier, a, b, g);
                    for (which, (p, l)) in ["a", "b"].iter().zip(port.iter().zip(&scalar)) {
                        let (p, l) = (bits(p), bits(l));
                        if let Some(i) = (0..len).find(|&i| p[i] != l[i]) {
                            panic!(
                                "{tier:?} d{which} len {len} from {start}: a = {:#x}, b = {:#x}, \
                                 g = {:#x}: {:#x}, scalar {:#x}",
                                a[i].to_bits(),
                                b[i].to_bits(),
                                g[i].to_bits(),
                                p[i],
                                l[i]
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every `f32` input, through every tier the host runs (`Scalar`
    /// included), against this host's `f32::exp`, split across the host's
    /// threads. Informative: the in-tree port is the definition, and this
    /// shows whether the host's libm agrees with it. Slow outside a
    /// release build: run by `scripts/check.sh` with `--ignored`.
    #[test]
    #[ignore = "2^32 inputs per tier: run in release"]
    fn port_is_libm_at_every_input() {
        for tier in Tier::on_host() {
            let mismatches = mismatches_at_every_input(tier);
            println!(
                "exp {tier:?} vs this host's f32::exp over 2^32 inputs (informative): \
                 {mismatches} mismatches"
            );
            assert_eq!(mismatches, 0, "{tier:?}");
        }
    }

    /// The inputs where `tier` differs from `f32::exp`, each printed.
    fn mismatches_at_every_input(tier: Tier) -> u64 {
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut bad = 0;
                        for block in (t..(1 << 32) / BLOCK).step_by(threads as usize) {
                            let xs: Vec<f32> = (block * BLOCK..(block + 1) * BLOCK)
                                .map(|b| f32::from_bits(b as u32))
                                .collect();
                            let port = map(tier, ExpOp::Exp, &xs);
                            for (x, y) in xs.iter().zip(port) {
                                let want = x.exp();
                                if y.to_bits() != want.to_bits() && !(y.is_nan() && want.is_nan()) {
                                    bad += 1;
                                    eprintln!(
                                        "{tier:?} x = {:#010x}: port {:#010x}, libm {:#010x}",
                                        x.to_bits(),
                                        y.to_bits(),
                                        want.to_bits()
                                    );
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).sum()
        })
    }
}
