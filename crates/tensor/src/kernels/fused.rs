//! Fused kernels ("Fused-sRBF", "Fused-Fourier", fused GatedMLP gate).
//!
//! Each function here evaluates, in a single pass over memory, a chain that
//! the reference CHGNet implementation executes as 10–20 separate
//! elementwise kernels. Crucially, the radial and angular basis kernels are
//! *closed under differentiation*: `fused_srbf(r, order)` evaluates the
//! `order`-th derivative of the basis with respect to `r` analytically, and
//! the tape's VJP of `FusedSRBF{order}` references `FusedSRBF{order+1}`.
//! This keeps the fused fast path valid even inside the second-order
//! (energy-derivative-force) training mode of FastCHGNet "w/o head".
//!
//! The LayerNorm kernels ([`fused_layer_norm`], [`ln_gate`]'s rows and
//! [`layer_norm_vjp`]) are lane bodies on [`crate::kernels::lanes`]: their
//! `f64` row statistics run one row per `f32` lane of the tier
//! ([`crate::kernels::reduce::row_blocks`]), and the rows left over run
//! the same body on one lane.

use crate::kernels::exp::{self, ExpOp};
use crate::kernels::lanes::{f32_lanes, run_on, LanePass, Lanes, LanesF32};
use crate::kernels::reduce::{chains, lane_sums, row_blocks, transpose_block, widen, with_lanes};
use crate::kernels::trig;
use crate::kernels::Tier;
use crate::par::{self, Rows};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Configuration of the smooth Radial Bessel basis (DimeNet-style, as used
/// by CHGNet's bond expansion).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SrbfCfg {
    /// Number of basis functions (paper: 31).
    pub n_basis: usize,
    /// Cutoff radius in Å (paper: 6 Å atom graph, 3 Å bond graph).
    pub r_cut: f32,
    /// Envelope smoothing exponent (paper: p = 8).
    pub p: u32,
}

impl SrbfCfg {
    /// Standard configuration used by the paper's experiments.
    pub fn new(n_basis: usize, r_cut: f32, p: u32) -> Self {
        assert!(n_basis > 0 && r_cut > 0.0 && p >= 2, "invalid sRBF configuration");
        SrbfCfg { n_basis, r_cut, p }
    }
}

/// Maximum derivative order supported by the fused basis kernels.
/// Order 0 = value, 1 = first derivative (force path), 2 = second
/// derivative (double backward), 3 = guard for a further VJP of order 2.
pub const MAX_BASIS_ORDER: u8 = 3;

/// The polynomial envelope `u(r)` of Eq. 12/13 and its derivatives with
/// respect to `r`, using the Horner-factored form of Eq. 13 (the paper's
/// "redundancy removal"): the first `orders` entries hold `u, u′, u″, u‴`,
/// the rest `0`. Each order is computed on its own, so an entry's bits do
/// not depend on `orders`.
///
/// `u(ξ) = 1 + ξ^p · [−(p+1)(p+2)/2 + p(p+2)·ξ − p(p+1)/2·ξ²]`,
/// `ξ = r / r_cut`.
///
/// Note: the paper's Eq. 12 prints the last coefficient as `p(p+2)/2`,
/// which does not vanish at the cutoff (`u(r_cut) = −(p+2)/2 + 1`); the
/// correct DimeNet polynomial-envelope coefficient is `p(p+1)/2`, which
/// gives `u(r_cut) = u'(r_cut) = 0`. We use the correct form.
pub fn envelope_upto(r: f32, cfg: SrbfCfg, orders: usize) -> [f32; 4] {
    let p = cfg.p as f32;
    let xi = (r / cfg.r_cut).clamp(0.0, 1.0);
    let inv = 1.0 / cfg.r_cut;
    // Coefficients of the three monomials ξ^p, ξ^(p+1), ξ^(p+2).
    let c0 = -(p + 1.0) * (p + 2.0) / 2.0;
    let c1 = p * (p + 2.0);
    let c2 = -p * (p + 1.0) / 2.0;
    let mut out = [0.0f32; 4];
    // d^k/dξ^k of ξ^e = falling(e, k) ξ^(e-k); chain rule gives inv^k.
    for (k, o) in out.iter_mut().enumerate().take(orders) {
        let k = k as i32;
        let term = |c: f32, e: f32| {
            let mut fall = 1.0f32;
            for j in 0..k {
                fall *= e - j as f32;
            }
            let expo = e - k as f32;
            if expo < 0.0 && xi == 0.0 {
                0.0
            } else {
                // Exponents are integral (p, p+1, p+2 minus k); powi is
                // several times faster than powf on the hot path.
                c * fall * xi.powi(expo as i32)
            }
        };
        let poly = term(c0, p) + term(c1, p + 1.0) + term(c2, p + 2.0);
        *o = if k == 0 { 1.0 + poly } else { poly * inv.powi(k) };
    }
    out
}

/// Fused smooth-Radial-Bessel kernel: given bond lengths `r` (an `(N, 1)`
/// column), produce the `(N, n_basis)` matrix whose entry `(i, k)` is the
/// `order`-th derivative with respect to `r_i` of
/// `sqrt(2/r_cut) · sin((k+1)π r_i / r_cut) / r_i · u(r_i)`.
///
/// # Panics
/// Panics when `r` is not a column vector or `order > MAX_BASIS_ORDER`.
pub fn fused_srbf(r: &Tensor, cfg: SrbfCfg, order: u8) -> Tensor {
    assert_eq!(r.cols(), 1, "fused_srbf expects an (N,1) column of bond lengths");
    assert!(order <= MAX_BASIS_ORDER, "basis derivative order {order} unsupported");
    match order {
        0 => srbf_order::<0>(r, cfg),
        1 => srbf_order::<1>(r, cfg),
        2 => srbf_order::<2>(r, cfg),
        _ => srbf_order::<3>(r, cfg),
    }
}

/// The sRBF at derivative order `ORDER` from one `sin`/`cos` per row:
/// `sin(kx)` and `cos(kx)` come from the angle-addition recurrence
/// `sin((k+1)x) = sin(kx)cos(x) + cos(kx)sin(x)` (and likewise for cos),
/// and the derivatives of `s(r) = sin(wr)/r` from `r·s = sin(wr)`:
/// `s⁽ⁿ⁾ = (wⁿ·sin(wr + nπ/2) − n·s⁽ⁿ⁻¹⁾)/r`, whose phase-shifted sine is
/// `cos(wr)`, `−sin(wr)` or `−cos(wr)` for `n = 1, 2, 3`. The basis
/// derivative is the Leibniz sum `Σ_j C(n,j)·s⁽ʲ⁾·u⁽ⁿ⁻ʲ⁾` against the
/// envelope. At small `r` the terms of orders 2–3 cancel: order 3 loses
/// digits below about 0.3 Å.
///
/// Each block of rows takes its `sin(x)` and `cos(x)` from the host's
/// trig tier in one call and its envelope only to the order it reads;
/// the recurrence then runs [`SRBF_LANES`] rows at a time, one row per
/// lane with the row's own operations, so that the rows' dependency
/// chains overlap.
fn srbf_order<const ORDER: usize>(r: &Tensor, cfg: SrbfCfg) -> Tensor {
    const L: usize = SRBF_LANES;
    let n = r.rows();
    let nb = cfg.n_basis;
    let norm = (2.0 / cfg.r_cut).sqrt();
    let w1 = std::f32::consts::PI / cfg.r_cut;
    let rd = r.data();
    let tier = Tier::host();
    let mut out = crate::pool::with_capacity(n * nb);
    par::fill_rows(&mut out, n, nb, par::chunks(10 * n * nb, n), |rows, out| {
        TRIG_SCRATCH.with_borrow_mut(|[x, sin, cos, lanes]| {
            for block in rd[rows].chunks(TRIG_ROWS) {
                x.clear();
                x.extend(block.iter().map(|&ri| w1 * ri.max(1e-6)));
                sin.resize(x.len(), 0.0);
                cos.resize(x.len(), 0.0);
                trig::sin_cos(tier, x, Some(sin), Some(cos));
                lanes.resize(nb * L, 0.0);
                for (g, group) in block.chunks(L).enumerate() {
                    // A short last group repeats its last row in the
                    // lanes past it, whose outputs are dropped.
                    let row = |l: usize| g * L + l.min(group.len() - 1);
                    let ri: [f32; L] = std::array::from_fn(|l| block[row(l)].max(1e-6));
                    let sin1: [f32; L] = std::array::from_fn(|l| sin[row(l)]);
                    let cos1: [f32; L] = std::array::from_fn(|l| cos[row(l)]);
                    let u = ri.map(|ri| envelope_upto(ri, cfg, ORDER + 1));
                    let [u0, u1, u2, u3]: [[f32; L]; 4] = std::array::from_fn(|j| u.map(|u| u[j]));
                    let inv_r = ri.map(|ri| 1.0 / ri);
                    let (mut s, mut c) = (sin1, cos1); // sin(kx), cos(kx) at k = 1
                    for (k, o) in lanes.chunks_exact_mut(L).enumerate() {
                        let w = (k as f32 + 1.0) * w1;
                        let (w2, w3) = (w * w, w * w * w);
                        for l in 0..L {
                            // s(r) = sin(wr)/r and its derivatives to ORDER.
                            let s0 = s[l] * inv_r[l];
                            let s1 = (w * c[l] - s0) * inv_r[l];
                            let s2 = (-w2 * s[l] - 2.0 * s1) * inv_r[l];
                            let s3 = (-w3 * c[l] - 3.0 * s2) * inv_r[l];
                            o[l] = match ORDER {
                                0 => norm * s0 * u0[l],
                                1 => norm * (s1 * u0[l] + s0 * u1[l]),
                                2 => norm * (s2 * u0[l] + 2.0 * s1 * u1[l] + s0 * u2[l]),
                                _ => {
                                    norm * (s3 * u0[l]
                                        + 3.0 * s2 * u1[l]
                                        + 3.0 * s1 * u2[l]
                                        + s0 * u3[l])
                                }
                            };
                            // Advance to k+1.
                            let s_next = s[l] * cos1[l] + c[l] * sin1[l];
                            c[l] = c[l] * cos1[l] - s[l] * sin1[l];
                            s[l] = s_next;
                        }
                    }
                    for l in 0..group.len() {
                        out.extend((0..nb).map(|k| lanes[k * L + l]));
                    }
                }
            }
        })
    });
    Tensor::from_vec(Shape::new(n, nb), out)
}

/// Rows per lane group of the sRBF recurrence.
const SRBF_LANES: usize = 8;

/// Rows per block of the fused bases' trig calls: a block's arguments,
/// sines and cosines sit in [`TRIG_SCRATCH`].
const TRIG_ROWS: usize = 64;

thread_local! {
    /// Block scratch of the fused bases (trig arguments, sines, cosines,
    /// and the sRBF's lane-major outputs of one row group), per thread
    /// (kernel helpers included), reused so that the kernels allocate
    /// nothing per call once warm.
    static TRIG_SCRATCH: std::cell::RefCell<[Vec<f32>; 4]> =
        const { std::cell::RefCell::new([const { Vec::new() }; 4]) };
}

/// Reference (unfused) envelope using the un-factored Eq. 12 form. Kept to
/// validate that redundancy removal (Eq. 13) is numerically equivalent.
#[cfg(test)]
fn envelope_reference(r: f32, cfg: SrbfCfg) -> f32 {
    let p = cfg.p as f32;
    let xi = (r / cfg.r_cut).clamp(0.0, 1.0);
    1.0 - (p + 1.0) * (p + 2.0) / 2.0 * xi.powf(p) + p * (p + 2.0) * xi.powf(p + 1.0)
        - p * (p + 1.0) / 2.0 * xi.powf(p + 2.0)
}

/// Fused Fourier angular basis: given angles `theta` (an `(N, 1)` column),
/// produce the `(N, 2K+1)` matrix
/// `[1/√(2π), cos(kθ)/√π, sin(kθ)/√π]_{k=1..K}`, differentiated `order`
/// times with respect to `θ` (derivatives are exact phase shifts).
pub fn fused_fourier(theta: &Tensor, harmonics: usize, order: u8) -> Tensor {
    assert_eq!(theta.cols(), 1, "fused_fourier expects an (N,1) column of angles");
    const HALF_PI: f32 = std::f32::consts::FRAC_PI_2;
    let n = theta.rows();
    let nb = 2 * harmonics + 1;
    let cnorm = 1.0 / std::f32::consts::PI.sqrt();
    let dc = 1.0 / (2.0 * std::f32::consts::PI).sqrt();
    let shift = order as f32 * HALF_PI;
    // d^n/dθ^n cos(kθ) = k^n cos(kθ + nπ/2); sin likewise.
    let scale: Vec<f32> =
        (1..harmonics + 1).map(|k| cnorm * (k as f32).powi(order as i32)).collect();
    let td = theta.data();
    let tier = Tier::host();
    let mut out = crate::pool::with_capacity(n * nb);
    par::fill_rows(&mut out, n, nb, par::chunks(10 * n * nb, n), |rows, out| {
        TRIG_SCRATCH.with_borrow_mut(|[arg, sin, cos, _]| {
            // A block's arguments `kθ + shift`, row by row, then all their
            // sines and cosines in one call on the host's trig tier.
            for block in td[rows].chunks(TRIG_ROWS) {
                arg.resize(block.len() * harmonics, 0.0);
                for (r, &th) in block.iter().enumerate() {
                    for (k, a) in arg[r * harmonics..(r + 1) * harmonics].iter_mut().enumerate() {
                        *a = (k + 1) as f32 * th + shift;
                    }
                }
                sin.resize(arg.len(), 0.0);
                cos.resize(arg.len(), 0.0);
                trig::sin_cos(tier, arg, Some(sin), Some(cos));
                for r in 0..block.len() {
                    let row = r * harmonics..(r + 1) * harmonics;
                    out.extend([if order == 0 { dc } else { 0.0 }]);
                    out.extend(scale.iter().zip(&cos[row.clone()]).map(|(&k, &c)| k * c));
                    out.extend(scale.iter().zip(&sin[row]).map(|(&k, &s)| k * s));
                }
            }
        })
    });
    Tensor::from_vec(Shape::new(n, nb), out)
}

/// Fused GatedMLP gate: `out = sigmoid(a) ⊙ silu(b)`, one kernel instead of
/// the reference's three (sigmoid, silu, multiply). The `silu = x·sigmoid`
/// identity from Fig. 3(b) means only one `exp` pair is evaluated per
/// element pair, 8 or 16 pairs at a time on the host's [`Tier`].
pub fn fused_gate(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "fused_gate shape mismatch");
    Tensor::from_vec(a.shape(), exp::kernel(ExpOp::Gate(b.data()), a.data()))
}

/// Fused row-wise LayerNorm: per row, `(x - mean) / sqrt(var + eps)`
/// scaled by `gamma` and shifted by `beta` (both `(1, m)` rows), in one
/// pass. Replaces the ~10-kernel primitive chain of the reference path.
/// The mean and variance are `f64` sums, 16 rows at a time on an AVX-512
/// host and 8 on an AVX2 one, bitwise the per-row loops (DESIGN.md §2.2,
/// row-lane sums).
pub fn fused_layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    layer_norm_on(Tier::host(), x, gamma, beta, eps)
}

/// [`fused_layer_norm`] on `tier`.
fn layer_norm_on(tier: Tier, x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let m = x.cols();
    assert_eq!(gamma.shape(), Shape::new(1, m), "gamma shape");
    assert_eq!(beta.shape(), Shape::new(1, m), "beta shape");
    let rows = x.rows();
    let (xd, g, b) = (x.data(), gamma.data(), beta.data());
    let mut out = crate::pool::with_capacity(x.len());
    par::fill_rows(&mut out, rows, m, par::chunks(2 * x.len(), rows), |rs, out| {
        layer_norm_rows(tier, rs, xd, [g, b], eps, out)
    });
    Tensor::from_vec(x.shape(), out)
}

/// [`fused_layer_norm`] of rows `rs` of `xd` (rows `m = γ.len()` long)
/// on `tier`, appended to `out`.
fn layer_norm_rows(
    tier: Tier,
    rs: std::ops::Range<usize>,
    xd: &[f32],
    [g, b]: [&[f32]; 2],
    eps: f32,
    out: &mut Rows<'_>,
) {
    struct LayerNormRows<'a, 'o, 'r> {
        rs: std::ops::Range<usize>,
        xd: &'a [f32],
        gb: [&'a [f32]; 2],
        eps: f32,
        out: &'o mut Rows<'r>,
        cols: &'o mut [f32],
    }
    impl LanePass for LayerNormRows<'_, '_, '_> {
        type Out = ();
        #[inline(always)]
        fn run<V: Lanes>(self) {
            let LayerNormRows { rs, xd, gb, eps, out, cols } = self;
            let done = layer_norm_blocks::<V>(rs.clone(), xd, gb, eps, out, cols);
            layer_norm_blocks::<f64>(done..rs.end, xd, gb, eps, out, cols);
        }
    }
    // The scratch is taken out here: a thread-local's closure would be
    // compiled without the tier's instructions.
    with_lanes(g.len() * f32_lanes(tier), |cols| {
        run_on(tier, LayerNormRows { rs, xd, gb: [g, b], eps, out, cols })
    })
}

/// [`fused_layer_norm`] of the whole [`row_blocks`] of `rows` on `V`'s
/// lanes, appended to `out`, with `cols` the block's column scratch;
/// returns the first row not written. Each lane
/// takes its row's operations of the per-row loop in their order: the
/// mean `sum/m`, the variance `Σ(v − mean)²/m`, `1/sqrt(var + eps)`, all
/// in `f64`.
#[inline(always)]
fn layer_norm_blocks<V: Lanes>(
    rows: std::ops::Range<usize>,
    xd: &[f32],
    [g, b]: [&[f32]; 2],
    eps: f32,
    out: &mut Rows<'_>,
    cols: &mut [f32],
) -> usize {
    let (m, lanes) = (g.len(), V::F32::N);
    let blocks = row_blocks::<V>(rows, m);
    let md = V::splat(m as f64);
    for r0 in blocks.clone().step_by(lanes) {
        let cols = transpose_block::<V>(xd, m, r0, cols);
        let sums = lane_sums::<V>(m, |c| widen(&cols[c * lanes..]));
        let mut mean = [V::splat(0.0); 2];
        for (h, mean) in mean[..chains::<V>()].iter_mut().enumerate() {
            *mean = V::load(&sums[h * V::N..]).div(md);
        }
        let vars = lane_sums::<V>(m, |c| {
            let mut d = widen::<V>(&cols[c * lanes..]);
            for (d, &mean) in d.iter_mut().zip(&mean) {
                *d = d.sub(mean);
                *d = d.mul(*d);
            }
            d
        });
        let (mut mean_l, mut inv_l) = ([0.0; 16], [0.0; 16]);
        for (h, mean) in mean[..chains::<V>()].iter().enumerate() {
            let var = V::load(&vars[h * V::N..]).div(md);
            let inv = V::splat(1.0).div(var.add(V::splat(eps as f64)).sqrt());
            mean.store(&mut mean_l[h * V::N..]);
            inv.store(&mut inv_l[h * V::N..]);
        }
        for l in 0..lanes {
            layer_norm_row(&xd[(r0 + l) * m..][..m], g, b, mean_l[l], inv_l[l], out);
        }
    }
    blocks.end
}

/// Rows per block of [`ln_gate`]: both LayerNorm outputs of a block sit in
/// scratch (8 KiB at the benchmark's width) until the gate reads them.
const LN_GATE_ROWS: usize = 64;

thread_local! {
    /// Block scratch of [`ln_gate`], per thread (kernel helpers included),
    /// reused so that small inputs allocate nothing.
    static LN_GATE_SCRATCH: std::cell::RefCell<[Vec<f32>; 2]> =
        const { std::cell::RefCell::new([const { Vec::new() }; 2]) };
}

/// `sigmoid(LN_0(h[0])) ⊙ silu(LN_1(h[1]))` for the LayerNorms `ln`
/// (`[γ, β]` each): bitwise [`fused_gate`] of the two
/// [`fused_layer_norm`]s, with neither LayerNorm output written. Each
/// block of [`LN_GATE_ROWS`] rows is normalised into scratch exactly as
/// [`fused_layer_norm`] writes it (row-lane `f64` statistics, rounded to
/// `f32`) and gated on the host's exp tier; large inputs split their rows
/// across threads.
pub(crate) fn ln_gate(h: [&Tensor; 2], ln: [[&Tensor; 2]; 2], eps: f32) -> Tensor {
    ln_gate_on(Tier::host(), h, ln, eps)
}

/// [`ln_gate`] on `tier`.
fn ln_gate_on(tier: Tier, h: [&Tensor; 2], ln: [[&Tensor; 2]; 2], eps: f32) -> Tensor {
    assert_eq!(h[0].shape(), h[1].shape(), "ln_gate halves differ in shape");
    let (rows, m) = (h[0].rows(), h[0].cols());
    for p in ln.iter().flatten() {
        assert_eq!(p.shape(), Shape::new(1, m), "LayerNorm parameter shape");
    }
    let hd = h.map(Tensor::data);
    let ln = ln.map(|p| p.map(Tensor::data));
    let mut out = crate::pool::with_capacity(rows * m);
    par::fill_rows(&mut out, rows, m, par::chunks(9 * rows * m, rows), |rs, out| {
        LN_GATE_SCRATCH.with_borrow_mut(|y| {
            for r0 in rs.clone().step_by(LN_GATE_ROWS) {
                let block = r0..rs.end.min(r0 + LN_GATE_ROWS);
                for ((y, hd), ln) in y.iter_mut().zip(hd).zip(ln) {
                    y.clear();
                    y.reserve(block.len() * m);
                    par::fill_rows(y, block.len(), m, 1, |_, w| {
                        layer_norm_rows(tier, block.clone(), hd, ln, eps, w)
                    });
                }
                exp::gate_rows(&y[0], &y[1], out);
            }
        })
    });
    Tensor::from_vec(h[0].shape(), out)
}

/// One [`fused_layer_norm`] output row from its `f64` mean and inverse
/// standard deviation, 16 columns at a time and then the rest: fixed-size
/// chunks, which the compiler writes as whole registers of the tier whose
/// entry point inlines this, where a loop over the row would vectorise only
/// rows of 32 columns or more.
#[inline(always)]
fn layer_norm_row(row: &[f32], g: &[f32], b: &[f32], mean: f64, inv: f64, out: &mut Rows<'_>) {
    const W: usize = 16;
    let y = |v: f32, gk: f32, bk: f32| ((v as f64 - mean) * inv) as f32 * gk + bk;
    let (x, gc, bc) = (row.chunks_exact(W), g.chunks_exact(W), b.chunks_exact(W));
    let tail = (x.remainder(), gc.remainder(), bc.remainder());
    for ((x, g), b) in x.zip(gc).zip(bc) {
        let mut chunk = [0.0; W];
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = y(x[i], g[i], b[i]);
        }
        out.extend_from_slice(&chunk);
    }
    out.extend(tail.0.iter().zip(tail.1.iter().zip(tail.2)).map(|(&v, (&gk, &bk))| y(v, gk, bk)))
}

/// The cotangents `(dx, dγ)` of a LayerNorm with input `x` and scale
/// `gamma` for the output cotangent `g`, in one launch: bitwise the
/// composed chain `Tape::backward` emits for `FusedLayerNorm`, which works
/// in `f32` from per-row `f64` sums (`1/m` is `1 / max(m, 1)` in `f32`):
///
/// * `mean = sum(x)/m`, `c = x − mean`, `var = sum(c·c)/m`,
///   `inv = 1/sqrt(var + eps)`, `xhat = c·inv`, `gx = g·gamma`;
/// * `dx = ((gx − sum(gx)/m) − xhat·(sum(gx·xhat)/m))·inv`;
/// * `dγ = Σ_rows g·xhat`, in row order from `+0.0`.
///
/// The four row sums run 8 rows at a time on an AVX2 or AVX-512 host
/// (DESIGN.md §2.2, row-lane sums). Each row's `mean` and `inv` are kept for the
/// `dγ` pass, which runs on the calling thread after the `dx` rows (split
/// across threads when large) are done.
pub fn layer_norm_vjp(x: &Tensor, gamma: &Tensor, g: &Tensor, eps: f32) -> (Tensor, Tensor) {
    layer_norm_vjp_on(Tier::host(), x, gamma, g, eps)
}

/// [`layer_norm_vjp`] on `tier`.
fn layer_norm_vjp_on(
    tier: Tier,
    x: &Tensor,
    gamma: &Tensor,
    g: &Tensor,
    eps: f32,
) -> (Tensor, Tensor) {
    let (rows, m) = (x.rows(), x.cols());
    assert_eq!(gamma.shape(), Shape::new(1, m), "gamma shape");
    assert_eq!(g.shape(), x.shape(), "cotangent shape");
    let (xd, gd, k) = (x.data(), g.data(), gamma.data());
    let mut dx = crate::pool::with_capacity(x.len());
    let mut stats = crate::pool::with_capacity(2 * rows);
    let chunks = par::chunks(4 * x.len(), rows);
    par::fill_rows_n([&mut dx, &mut stats], rows, [m, 2], chunks, |rs, [dx, stats]| {
        // Mostly `f32` work in 8-lane registers either way: the AVX-512
        // tier runs the AVX2 lanes here, which it measured no slower than.
        let tier = tier.min(Tier::Avx2);
        with_lanes(2 * m * f32_lanes(tier), |scratch| {
            run_on(tier, LayerNormVjpRows { rs, xd, gd, k, eps, dx, stats, scratch })
        })
    });
    let mut dgamma = crate::pool::zeroed(m);
    for (r, st) in stats.chunks_exact(2).enumerate() {
        let (mean, inv) = (st[0], st[1]);
        let (xr, gr) = (&xd[r * m..(r + 1) * m], &gd[r * m..(r + 1) * m]);
        for ((o, &v), &gv) in dgamma.iter_mut().zip(xr).zip(gr) {
            *o += gv * ((v - mean) * inv);
        }
    }
    crate::pool::release(stats);
    (Tensor::from_vec(x.shape(), dx), Tensor::from_vec(Shape::new(1, m), dgamma))
}

/// One [`layer_norm_vjp`] `dx` row from the row's `[mean, inv]` and
/// `[sum(gx)/m, sum(gx·xhat)/m]`; `[mean, inv]` go to `stats`.
#[inline(always)]
fn layer_norm_vjp_row(
    xr: &[f32],
    gr: &[f32],
    k: &[f32],
    [mean, inv]: [f32; 2],
    [mean_gx, mean_gxx]: [f32; 2],
    dx: &mut Rows<'_>,
    stats: &mut Rows<'_>,
) {
    dx.extend(xr.iter().zip(gr).zip(k).map(|((&v, &gv), &kc)| {
        let xhat = (v - mean) * inv;
        ((gv * kc - mean_gx) - xhat * mean_gxx) * inv
    }));
    stats.extend([mean, inv]);
}

/// [`layer_norm_vjp`]'s `dx` rows and row statistics for rows `rs`.
struct LayerNormVjpRows<'a, 'o, 'r> {
    rs: std::ops::Range<usize>,
    xd: &'a [f32],
    gd: &'a [f32],
    k: &'a [f32],
    eps: f32,
    dx: &'o mut Rows<'r>,
    stats: &'o mut Rows<'r>,
    /// Column scratch for a block's `x` and `g`.
    scratch: &'o mut [f32],
}

impl LanePass for LayerNormVjpRows<'_, '_, '_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(mut self) {
        let rows = self.rs.clone();
        let done = self.blocks::<V>(rows.clone());
        self.blocks::<f64>(done..rows.end);
    }
}

impl LayerNormVjpRows<'_, '_, '_> {
    /// The whole [`row_blocks`] of `rows` on `V`'s lanes; returns the first
    /// row not written. The four row sums run in lanes over the block's
    /// transposed `x` and `g`, each lane with its row's `f32` steps of the
    /// per-row loop, in their order.
    #[inline(always)]
    fn blocks<V: Lanes>(&mut self, rows: std::ops::Range<usize>) -> usize {
        let (xd, gd, k, eps) = (self.xd, self.gd, self.k, self.eps);
        let (m, lanes) = (k.len(), V::F32::N);
        let inv_m = 1.0 / m.max(1) as f32;
        let blocks = row_blocks::<V>(rows, m);
        // `f32` terms of a block column, summed as `f64`.
        let widened = |t: V::F32| {
            let mut lane = [0.0; 16];
            t.store(&mut lane);
            widen::<V>(&lane)
        };
        let (xs, gs) = self.scratch.split_at_mut(m * lanes);
        for r0 in blocks.clone().step_by(lanes) {
            let xt = transpose_block::<V>(xd, m, r0, xs);
            let gt = transpose_block::<V>(gd, m, r0, gs);
            let sums = lane_sums::<V>(m, |c| widen(&xt[c * lanes..]));
            let mut mean = [0.0; 16];
            for (mean, &s) in mean[..lanes].iter_mut().zip(&sums) {
                *mean = inv_m * s as f32;
            }
            let centred = |c: usize| V::F32::load(&xt[c * lanes..]).sub(V::F32::load(&mean));
            let gx = |c: usize| V::F32::load(&gt[c * lanes..]).mul(V::F32::splat(k[c]));
            let var = lane_sums::<V>(m, |c| {
                let d = centred(c);
                widened(d.mul(d))
            });
            let mut inv = [0.0; 16];
            for (inv, &s) in inv[..lanes].iter_mut().zip(&var) {
                *inv = 1.0 / (inv_m * s as f32 + eps).sqrt();
            }
            let sum_gx = lane_sums::<V>(m, |c| widened(gx(c)));
            let invs = V::F32::load(&inv);
            let sum_gxx = lane_sums::<V>(m, |c| widened(gx(c).mul(centred(c).mul(invs))));
            for l in 0..lanes {
                let (xr, gr) = (&xd[(r0 + l) * m..][..m], &gd[(r0 + l) * m..][..m]);
                let sums = [sum_gx[l], sum_gxx[l]].map(|s| inv_m * s as f32);
                layer_norm_vjp_row(xr, gr, k, [mean[l], inv[l]], sums, self.dx, self.stats);
            }
        }
        blocks.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: SrbfCfg = SrbfCfg { n_basis: 4, r_cut: 6.0, p: 8 };

    #[test]
    fn fused_layer_norm_normalises() {
        let x = Tensor::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.0, 1.0, 2.0]]);
        let gamma = Tensor::ones(1, 4);
        let beta = Tensor::zeros(1, 4);
        let y = fused_layer_norm(&x, &gamma, &beta, 1e-5);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
        // Affine parameters apply.
        let gamma = Tensor::row_vec(&[2.0, 2.0, 2.0, 2.0]);
        let beta = Tensor::row_vec(&[1.0, 1.0, 1.0, 1.0]);
        let y2 = fused_layer_norm(&x, &gamma, &beta, 1e-5);
        for i in 0..y.len() {
            assert!((y2.data()[i] - (2.0 * y.data()[i] + 1.0)).abs() < 1e-5);
        }
    }

    /// The per-row loops the order-0/1 sRBF and the Fourier basis ran
    /// before the trig tier: one scalar `sincosf` per row and all four
    /// envelope orders for the sRBF, one per element for the Fourier
    /// basis.
    fn srbf_per_row(r: &[f32], cfg: SrbfCfg, order: usize) -> Vec<f32> {
        let (norm, w1) = ((2.0 / cfg.r_cut).sqrt(), std::f32::consts::PI / cfg.r_cut);
        let mut out = Vec::new();
        for &ri in r {
            let ri = ri.max(1e-6);
            let u = envelope_upto(ri, cfg, 4);
            let inv_r = 1.0 / ri;
            let (sin1, cos1) = trig::sincosf(w1 * ri);
            let (mut s, mut c) = (sin1, cos1);
            for k in 0..cfg.n_basis {
                let w = (k as f32 + 1.0) * w1;
                let s0 = s * inv_r;
                out.push(if order == 0 {
                    norm * s0 * u[0]
                } else {
                    norm * ((w * c - s0) * inv_r * u[0] + s0 * u[1])
                });
                let s_next = s * cos1 + c * sin1;
                c = c * cos1 - s * sin1;
                s = s_next;
            }
        }
        out
    }

    fn fourier_per_element(theta: &[f32], harmonics: usize, order: u8) -> Vec<f32> {
        let cnorm = 1.0 / std::f32::consts::PI.sqrt();
        let dc = 1.0 / (2.0 * std::f32::consts::PI).sqrt();
        let shift = order as f32 * std::f32::consts::FRAC_PI_2;
        let scale = |k: usize| cnorm * (k as f32).powi(order as i32);
        let mut out = Vec::new();
        for &th in theta {
            out.push(if order == 0 { dc } else { 0.0 });
            let sc = |k: usize| trig::sincosf(k as f32 * th + shift);
            out.extend((1..harmonics + 1).map(|k| scale(k) * sc(k).1));
            out.extend((1..harmonics + 1).map(|k| scale(k) * sc(k).0));
        }
        out
    }

    #[test]
    fn bases_are_bitwise_the_scalar_libm_loops_at_every_width() {
        use crate::kernels::{bits, test_value};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let rng = &mut StdRng::seed_from_u64(29);
        // Bond lengths and angles in range, zeros, negatives, past the
        // cutoff and above glibc's fast range, with test_value's specials.
        let mut xs: Vec<f32> = (0..4099)
            .map(|i| match i % 4 {
                0 => rng.gen_range(0.0..7.0),
                1 => rng.gen_range(0.0..std::f32::consts::PI),
                2 => rng.gen_range(-200.0..200.0),
                _ => test_value(rng),
            })
            .collect();
        xs.extend([0.0, 1e-7, 5.0, 6.0, 130.0, -0.0]);
        let cfg = SrbfCfg::new(31, 5.0, 8);
        for rows in [0, 1, 7, 8, 9, 65, xs.len()] {
            let col = Tensor::from_vec(Shape::new(rows, 1), xs[..rows].to_vec());
            for width in [1, 2] {
                par::with_width(width, || {
                    for order in [0u8, 1] {
                        let got = fused_srbf(&col, cfg, order);
                        let want = srbf_per_row(col.data(), cfg, order as usize);
                        assert_eq!(bits(got.data()), bits(&want), "srbf {order}, {rows} rows");
                    }
                    for order in 0..=MAX_BASIS_ORDER {
                        for harmonics in [0, 1, 8, 15] {
                            let got = fused_fourier(&col, harmonics, order);
                            let want = fourier_per_element(col.data(), harmonics, order);
                            let what =
                                format!("fourier {order}, {harmonics} harmonics, {rows} rows");
                            assert_eq!(bits(got.data()), bits(&want), "{what}");
                        }
                    }
                });
            }
        }
    }

    /// The loop that served orders 2–3 before the recurrence did: the
    /// derivatives of `sin(wr)/r` term by term in `f64` (one `sin` per
    /// term), then the Leibniz product rule against the envelope.
    fn srbf_leibniz(r: &[f32], cfg: SrbfCfg, order: usize) -> Vec<f32> {
        let norm = (2.0 / cfg.r_cut).sqrt();
        let mut out = Vec::new();
        for &ri in r {
            let ri = ri.max(1e-6);
            let u = envelope_upto(ri, cfg, 4);
            for k in 0..cfg.n_basis {
                let w = (k as f32 + 1.0) * std::f32::consts::PI / cfg.r_cut;
                let sder = sinc_derivs(w, ri, order);
                let mut acc = 0.0f32;
                let mut binom = 1.0f32;
                for j in 0..=order {
                    acc += binom * sder[j] * u[order - j];
                    binom = binom * (order - j) as f32 / (j + 1) as f32;
                }
                out.push(norm * acc);
            }
        }
        out
    }

    /// `d^n/dr^n [sin(wr)/r]` for `n = 0..=order`, via the Leibniz rule:
    /// `Σ_j C(n,j) · w^j sin(wr + jπ/2) · (−1)^(n−j) (n−j)! / r^(n−j+1)`.
    fn sinc_derivs(w: f32, r: f32, order: usize) -> [f32; 4] {
        const HALF_PI: f32 = std::f32::consts::FRAC_PI_2;
        let wr = w * r;
        let mut out = [0.0f32; 4];
        for (n, o) in out.iter_mut().enumerate().take(order + 1) {
            let mut acc = 0.0f64;
            let mut binom = 1.0f64;
            for j in 0..=n {
                // (n-j)-th derivative of 1/r.
                let m = n - j;
                let fact: f64 = (1..=m).map(|t| t as f64).product();
                let inv_r = (-1.0f64).powi(m as i32) * fact / (r as f64).powi(m as i32 + 1);
                let sin_term = (w as f64).powi(j as i32) * ((wr + j as f32 * HALF_PI) as f64).sin();
                acc += binom * sin_term * inv_r;
                binom = binom * (n - j) as f64 / (j + 1) as f64;
            }
            *o = acc as f32;
        }
        out
    }

    #[test]
    fn high_orders_match_the_f64_leibniz_sum() {
        use crate::kernels::bits;
        // Error relative to |y| + 1e-3·max|y| over the case, so that the
        // basis' zero crossings do not read as large relative errors.
        const TOL: f32 = 1e-3;
        let mut worst = (0.0f32, String::new());
        for (n_basis, r_cut, p) in [(31, 5.0f32, 8), (9, 3.0, 6), (4, 6.0, 8), (1, 4.0, 5)] {
            let cfg = SrbfCfg::new(n_basis, r_cut, p);
            // Short last lane groups (1, 7, 9, 67 rows) and, at 1001 rows,
            // enough work to split across the `par` helpers at width 2.
            for rows in [1, 7, 9, 67, 1001] {
                // Evenly over [0.5, r_cut + 1] Å.
                let step = (r_cut + 0.5) / (rows.max(2) - 1) as f32;
                let r: Vec<f32> = (0..rows).map(|i| 0.5 + step * i as f32).collect();
                let col = Tensor::from_vec(Shape::new(rows, 1), r.clone());
                for order in [2u8, 3] {
                    let what = format!("order {order}, n_basis {n_basis}, r_cut {r_cut}");
                    let got = par::with_width(1, || fused_srbf(&col, cfg, order));
                    let got2 = par::with_width(2, || fused_srbf(&col, cfg, order));
                    assert_eq!(bits(got.data()), bits(got2.data()), "{what}, {rows} rows");
                    let want = srbf_leibniz(&r, cfg, order as usize);
                    let floor = 1e-3 * want.iter().fold(0.0f32, |m, y| m.max(y.abs()));
                    for (i, (g, y)) in got.data().iter().zip(&want).enumerate() {
                        let err = (g - y).abs() / (y.abs() + floor);
                        if err > worst.0 {
                            let at = format!("r {}, k {}", r[i / n_basis], i % n_basis);
                            worst = (err, format!("{what}, {at}: {g} vs {y}"));
                        }
                    }
                }
            }
        }
        assert!(worst.0 <= TOL, "relative error {} at {}", worst.0, worst.1);
    }

    #[test]
    fn row_lane_layer_norm_and_its_vjp_are_bitwise_the_per_row_loops() {
        use crate::kernels::{bits, test_param, test_rows, TEST_COLS, TEST_ROWS};
        use rand::{rngs::StdRng, SeedableRng};
        // The scalar tier runs every row through the scalar per-row
        // loops, the reference; every other tier the host runs takes whole
        // blocks in lanes.
        let mut case = 0;
        for rows in TEST_ROWS {
            for m in TEST_COLS {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let (x, g) = (test_rows(rng, rows, m), test_rows(rng, rows, m));
                let (gamma, beta) = (test_param(rng, m), test_param(rng, m));
                let want = layer_norm_on(Tier::Scalar, &x, &gamma, &beta, 1e-5);
                let (dx, dgamma) = layer_norm_vjp_on(Tier::Scalar, &x, &gamma, &g, 1e-5);
                for tier in Tier::on_host() {
                    let what = format!("{tier:?} {rows}x{m} (seed {case})");
                    let got = layer_norm_on(tier, &x, &gamma, &beta, 1e-5);
                    assert_eq!(bits(got.data()), bits(want.data()), "forward {what}");
                    let (dx2, dgamma2) = layer_norm_vjp_on(tier, &x, &gamma, &g, 1e-5);
                    assert_eq!(bits(dx2.data()), bits(dx.data()), "dx {what}");
                    assert_eq!(bits(dgamma2.data()), bits(dgamma.data()), "dgamma {what}");
                }
            }
        }
    }

    #[test]
    fn ln_gate_is_bitwise_the_composed_kernels() {
        use crate::kernels::{bits, test_param, test_rows, TEST_COLS, TEST_ROWS};
        use rand::{rngs::StdRng, SeedableRng};
        let mut case = 0;
        for rows in TEST_ROWS {
            for m in TEST_COLS {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let h = [(); 2].map(|_| test_rows(rng, rows, m));
                let ln = [(); 2].map(|_| [(); 2].map(|_| test_param(rng, m)));
                let [[gg, bg], [gc, bc]] = &ln;
                // The composed kernels on the scalar tier: two
                // LayerNorms and the gate.
                let yg = layer_norm_on(Tier::Scalar, &h[0], gg, bg, 1e-5);
                let yc = layer_norm_on(Tier::Scalar, &h[1], gc, bc, 1e-5);
                let want = bits(fused_gate(&yg, &yc).data());
                let hr = [&h[0], &h[1]];
                let lnr = [[gg, bg], [gc, bc]];
                for tier in Tier::on_host() {
                    for width in [1, 2] {
                        let what = format!("{rows}x{m} {tier:?} width {width} (seed {case})");
                        let got = par::with_width(width, || ln_gate_on(tier, hr, lnr, 1e-5));
                        assert_eq!(bits(got.data()), want, "forward {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn horner_envelope_matches_reference() {
        for i in 1..60 {
            let r = 0.1 * i as f32;
            let h = envelope_upto(r, CFG, 1)[0];
            let e = envelope_reference(r, CFG);
            assert!((h - e).abs() < 1e-5, "r={r}: horner {h} vs reference {e}");
        }
    }

    #[test]
    fn envelope_boundary() {
        // u(0) = 1, u(r_cut) = 0, u'(r_cut) = 0 (smooth cutoff).
        let u0 = envelope_upto(0.0, CFG, 1);
        assert!((u0[0] - 1.0).abs() < 1e-6);
        let uc = envelope_upto(CFG.r_cut, CFG, 2);
        assert!(uc[0].abs() < 1e-5);
        assert!(uc[1].abs() < 1e-4);
    }

    fn finite_diff_check(order: u8, tol: f32) {
        // d/dr of order-(n) basis should match order-(n+1) basis.
        let h = 1e-3f32;
        for &r in &[0.8f32, 1.7, 2.9, 4.4, 5.5] {
            let plus = fused_srbf(&Tensor::scalar(r + h), CFG, order);
            let minus = fused_srbf(&Tensor::scalar(r - h), CFG, order);
            let analytic = fused_srbf(&Tensor::scalar(r), CFG, order + 1);
            for k in 0..CFG.n_basis {
                let fd = (plus.at(0, k) - minus.at(0, k)) / (2.0 * h);
                let an = analytic.at(0, k);
                assert!(
                    (fd - an).abs() <= tol * (1.0 + an.abs()),
                    "order {order}, r={r}, k={k}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn srbf_first_derivative_matches_fd() {
        finite_diff_check(0, 2e-3);
    }

    #[test]
    fn srbf_second_derivative_matches_fd() {
        finite_diff_check(1, 5e-3);
    }

    #[test]
    fn srbf_third_derivative_matches_fd() {
        finite_diff_check(2, 2e-2);
    }

    #[test]
    fn srbf_vanishes_at_cutoff() {
        let b = fused_srbf(&Tensor::scalar(CFG.r_cut), CFG, 0);
        assert!(b.max_abs() < 1e-4);
    }

    #[test]
    fn fourier_shape_and_constant() {
        let th = Tensor::col_vec(&[0.3, 1.2]);
        let f = fused_fourier(&th, 15, 0);
        assert_eq!(f.shape(), Shape::new(2, 31));
        assert!((f.at(0, 0) - 1.0 / (2.0 * std::f32::consts::PI).sqrt()).abs() < 1e-6);
        // Derivative of the constant column is zero.
        let f1 = fused_fourier(&th, 15, 1);
        assert_eq!(f1.at(0, 0), 0.0);
    }

    #[test]
    fn fourier_derivative_matches_fd() {
        let h = 1e-3f32;
        for &th in &[0.4f32, 1.0, 2.2] {
            for order in 0..=2u8 {
                let plus = fused_fourier(&Tensor::scalar(th + h), 5, order);
                let minus = fused_fourier(&Tensor::scalar(th - h), 5, order);
                let an = fused_fourier(&Tensor::scalar(th), 5, order + 1);
                for k in 0..11 {
                    let fd = (plus.at(0, k) - minus.at(0, k)) / (2.0 * h);
                    assert!(
                        (fd - an.at(0, k)).abs() < 1e-2 * (1.0 + an.at(0, k).abs()),
                        "order {order}, theta {th}, col {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_matches_composition() {
        use crate::kernels::elementwise::{sigmoid, unary, UnKind};
        let a = Tensor::row_vec(&[-1.0, 0.0, 2.0]);
        let b = Tensor::row_vec(&[0.5, -2.0, 1.0]);
        let fused = fused_gate(&a, &b);
        let sig = unary(UnKind::Sigmoid, &a);
        let silu = unary(UnKind::Silu, &b);
        for i in 0..3 {
            assert!((fused.data()[i] - sig.data()[i] * silu.data()[i]).abs() < 1e-6);
        }
        let _ = sigmoid(0.0);
    }
}
