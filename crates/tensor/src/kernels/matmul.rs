//! Dense GEMM and block-diagonal GEMM kernels.
//!
//! Every dense product ([`matmul`], [`matmul_at`], [`linear_split`] and the
//! VJP's products) runs one tile body on the `f32` lanes of
//! [`crate::kernels::lanes`] (16 on [`Tier::Avx512`], 8 on [`Tier::Avx2`],
//! 1 on [`Tier::Scalar`]); each tile shape is a lane pass of its own, so
//! each is its own out-of-line function on each tier.

use crate::kernels::gather::Block;
use crate::kernels::lanes::{self, run_on, LanePass, Lanes, LanesF32};
use crate::kernels::Tier;
use crate::par;
use crate::shape::{Bcast, Shape};
use crate::tensor::Tensor;
use std::ops::Range;

/// Output rows per register tile of [`matmul`].
const ROWS: usize = 4;

/// `row += bias` for every row of `out` (rows `bias.len()` wide), one
/// `f32` add per element.
fn add_bias(bias: &[f32], out: &mut [f32]) {
    for row in out.chunks_exact_mut(bias.len()) {
        for (o, &c) in row.iter_mut().zip(bias) {
            *o += c;
        }
    }
}

/// One pass of a product on `tier`: `outs[j] += a @ b_j` for the rows of
/// the product `a` reads, each output `n` columns wide and `b_j` B's
/// columns `j·n..(j + 1)·n`.
///
/// The outputs' columns are cut into strips of the tier's `f32` lanes (a
/// short strip masks its lanes off), output by output, and taken up to
/// [`STRIPS`] at a time (two where a lane is narrower than 16, so that a
/// tile's accumulators fit the tier's 16 registers): a tile is [`ROWS`]
/// rows × those strips, which may belong to two outputs, so the two
/// 16-column halves of a [`linear_split`] at the quick width run as one
/// 32-column tile on [`Tier::Avx512`]. Whole tiles run first, then the
/// rows left over one at a time.
fn run<const N: usize>(tier: Tier, a: impl Lhs, b: Rhs, n: usize, mut outs: [&mut [f32]; N]) {
    if b.k == 0 {
        // A pass over no rows of B adds nothing.
        return;
    }
    let rows = outs[0].len() / n;
    assert!(outs.iter().all(|o| o.len() == rows * n), "outputs of {rows} rows");
    let lanes = lanes::f32_lanes(tier);
    let per_out = n.div_ceil(lanes);
    let strip = |i: usize| {
        let (out, col) = (i / per_out, i % per_out * lanes);
        Strip { out, col, width: (n - col).min(lanes) }
    };
    let (count, group) = (N * per_out, if lanes < 16 { 2 } else { STRIPS });
    let full = n.is_multiple_of(lanes);
    let mut i = 0;
    while i < count {
        let o = &mut outs;
        match group.min(count - i) {
            4 => strip_rows(tier, a, b, n, [0, 1, 2, 3].map(|s| strip(i + s)), o, rows, full),
            3 => strip_rows(tier, a, b, n, [0, 1, 2].map(|s| strip(i + s)), o, rows, full),
            2 => strip_rows(tier, a, b, n, [0, 1].map(|s| strip(i + s)), o, rows, full),
            _ => strip_rows(tier, a, b, n, [strip(i)], o, rows, full),
        }
        i += group.min(count - i);
    }
}

/// Most strips per tile of [`run`].
const STRIPS: usize = 4;

/// Up to one lane width of adjacent columns of one output: the output, its
/// first column there, and how many columns it has.
#[derive(Clone, Copy)]
struct Strip {
    out: usize,
    col: usize,
    width: usize,
}

/// The `S` strips of all `rows` rows: [`ROWS`]-row tiles, then the rows
/// left over one at a time, each shape its own pass; B read unmasked where
/// every strip is `full`.
#[allow(clippy::too_many_arguments)] // internal: one product's operands
fn strip_rows<const S: usize, const N: usize>(
    tier: Tier,
    a: impl Lhs,
    b: Rhs,
    n: usize,
    strips: [Strip; S],
    outs: &mut [&mut [f32]; N],
    rows: usize,
    full: bool,
) {
    let whole = rows / ROWS * ROWS;
    if full {
        run_on(tier, Tiles::<_, ROWS, S, N, true> { a, b, n, strips, outs, rows: 0..whole });
        run_on(tier, Tiles::<_, 1, S, N, true> { a, b, n, strips, outs, rows: whole..rows });
    } else {
        run_on(tier, Tiles::<_, ROWS, S, N, false> { a, b, n, strips, outs, rows: 0..whole });
        run_on(tier, Tiles::<_, 1, S, N, false> { a, b, n, strips, outs, rows: whole..rows });
    }
}

/// The `S` strips of output rows `rows` (a multiple of `R` of them), `R`
/// rows at a time: each lane of a tile is one output element, which starts
/// from its stored value, adds `a[i,k] * b[k,j]` (a product rounded, then
/// an add, never a fused multiply-add) in ascending `k`, and is stored
/// once. That is [`matmul`]'s order. Every strip is `FULL` lanes wide, or
/// read and written through masks.
struct Tiles<'o, 'x, L, const R: usize, const S: usize, const N: usize, const FULL: bool> {
    a: L,
    b: Rhs<'o>,
    n: usize,
    strips: [Strip; S],
    outs: &'o mut [&'x mut [f32]; N],
    rows: Range<usize>,
}

impl<L: Lhs, const R: usize, const S: usize, const N: usize, const FULL: bool> LanePass
    for Tiles<'_, '_, L, R, S, N, FULL>
{
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let Tiles { a, b, n, strips, outs, rows } = self;
        // The outputs' slices by value, so that they stay in registers.
        let outs = outs.each_mut().map(|o| &mut **o);
        let lanes = V::F32::N;
        let fits = |st: &Strip| st.col + st.width <= n && st.width <= lanes;
        assert!(strips.iter().all(fits), "strips of at most {lanes} lanes inside {n} columns");
        assert!(!FULL || strips.iter().all(|st| st.width == lanes), "full strips");
        let load = |x: &[f32]| if FULL { V::F32::load(x) } else { V::F32::load_part(x) };
        // Each strip's columns in a row of B, checked once here.
        let cols = strips.map(|st| st.out * n + st.col..st.out * n + st.col + st.width);
        assert!(cols.iter().all(|c| c.start <= c.end && c.end <= b.ld), "strips in B's rows");
        let b_rows = b.b.chunks_exact(b.ld);
        for r0 in rows.step_by(R) {
            let a = a.rows::<R>(r0, b.k);
            // Arrays are filled by loops, not `array::from_fn`, whose
            // closures the compiler may leave out of line, where they are
            // compiled without the tier's instructions.
            let mut acc = [[V::F32::splat(0.0); S]; R];
            for (r, acc) in acc.iter_mut().enumerate() {
                for (acc, st) in acc.iter_mut().zip(&strips) {
                    *acc = load(&outs[st.out][(r0 + r) * n + st.col..][..st.width]);
                }
            }
            // `enumerate`, not a zip with `0..b.k`, whose length is a
            // division per tile.
            for (kk, row) in b_rows.clone().enumerate() {
                let mut bv = [V::F32::splat(0.0); S];
                for (bv, cols) in bv.iter_mut().zip(&cols) {
                    *bv = load(&row[cols.clone()]);
                }
                for (acc, ar) in acc.iter_mut().zip(a(kk)) {
                    let ar = V::F32::splat(ar);
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = acc.add(ar.mul(bv));
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (&acc, st) in acc.iter().zip(&strips) {
                    let out = &mut outs[st.out][(r0 + r) * n + st.col..][..st.width];
                    if FULL {
                        acc.store(out)
                    } else {
                        acc.store_part(out)
                    }
                }
            }
        }
    }
}

/// `C = A @ B` for row-major dense matrices.
///
/// Every output element starts from `+0.0` and adds every product
/// `a[i,k] * b[k,j]` in ascending `k`: a multiply, then an add, with no
/// fused multiply-add. A zero in A hides nothing: `0 * inf` is NaN, as
/// IEEE 754 says. Where B is finite, skipping the products with
/// `a[i,k] == 0.0` would give the same bits: the sum starts at `+0.0` and
/// under round-to-nearest `x + y` is `-0.0` only when both are, so it is
/// never `-0.0`; adding `(±0) * b = ±0` for a finite `b` then leaves it
/// bitwise unchanged (`+0`, a nonzero, `±inf` or NaN alike).
///
/// Tiles of [`ROWS`] output rows × two strips of the host tier's `f32`
/// lanes stay in registers over `k` ([`run`]); rows left over after the
/// last whole tile run one at a time, and a strip short of the lane width
/// is masked. The host's tier is picked once per call.
/// Large products split their rows across threads ([`crate::par`]); a
/// split may cut a row block, since no element's order depends on the
/// block it lands in.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(Tier::host(), a, b)
}

/// `C = aᵀ @ b` without materialising `aᵀ`: bitwise
/// `matmul(&a.transposed(), b)`. The same kernel reads row `i` of `aᵀ` as
/// column `i` of `a` (a block of 4 output rows reads 4 adjacent elements
/// of each row of `a`), so every output element keeps its sum; long sums
/// run in passes that keep their rows of `a` and `b` in cache, each
/// resuming exactly where the last stopped. This is the weight gradient
/// `xᵀ @ g` of the final backward sweep.
///
/// # Panics
/// Panics when `a` and `b` have different row counts.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    gemm_at(Tier::host(), a, b)
}

/// `x @ w + b` for the left operand `x` made of the column `blocks`
/// (`rows` rows each), written as `N` outputs: the `N` equal column groups
/// `[i·n, (i + 1)·n)` of the result, for `w` `N·n` columns wide. Bitwise
/// `slice_cols` of `bin.add(matmul(concat_cols(blocks), w), b)` with each
/// indexed block gathered first, but nothing is materialised: each block
/// is one pass of the product, read in place, so every output still sums
/// its terms in ascending concatenated-column order from `+0.0`; the bias
/// is the same `f32` add `bin.add` does, after the last pass.
///
/// # Panics
/// Panics when the shapes disagree. The caller checks the indices.
pub(crate) fn linear_split<const N: usize>(
    blocks: &[Block],
    rows: usize,
    w: &Tensor,
    b: &Tensor,
) -> [Tensor; N] {
    linear_split_on(Tier::host(), blocks, rows, w, b)
}

/// `xᵀ @ g` for the left operand `x` made of the column `blocks`
/// (`g.rows()` rows each): bitwise `matmul_at(concat_cols(blocks), g)`.
/// Block `i`'s rows of the result are [`matmul_at`] over that block's
/// rows, read in place through its index.
///
/// # Panics
/// Panics when the shapes disagree. The caller checks the indices.
pub(crate) fn matmul_at_blocks(blocks: &[Block], g: &Tensor) -> Tensor {
    matmul_at_blocks_on(Tier::host(), blocks, g)
}

/// The `(dx, dw, db)` of [`linear_split`] for the cotangents `g` of its
/// outputs (a missing one is zero), bitwise the composed chain: the
/// packed cotangent `dh` is the sum of each output's cotangent padded to
/// the full width, last output first (with two or more, every element
/// plus a zero, so `-0.0` becomes `+0.0`; with one, a plain copy; with a
/// single output, its cotangent itself), then `dx = dh @ wᵀ` (only with
/// `need_dx`), `dw = xᵀ @ dh` ([`matmul_at_blocks`]) and `db`, `dh` reduced
/// as `bin.add`'s VJP reduces it ([`bias_grad`]).
/// A packed `dh` and `wᵀ` are temporary buffers.
pub(crate) fn linear_vjp(
    blocks: &[Block],
    w: &Tensor,
    g: &[Option<&Tensor>],
    need_dx: bool,
) -> (Option<Tensor>, Tensor, Tensor) {
    let packed = match g {
        [Some(_)] => None,
        _ => {
            let n = w.cols() / g.len();
            let rows = g.iter().flatten().next().expect("a cotangent").rows();
            let present = g.iter().flatten().count();
            let mut dh = crate::pool::with_capacity(rows * w.cols());
            par::fill_rows(
                &mut dh,
                rows,
                w.cols(),
                par::chunks(rows * w.cols(), rows),
                |rs, out| {
                    for r in rs {
                        for g in g {
                            match g {
                                Some(g) if present > 1 => {
                                    out.extend(g.row(r).iter().map(|&x| x + 0.0))
                                }
                                Some(g) => out.extend_from_slice(g.row(r)),
                                None => out.extend((0..n).map(|_| 0.0)),
                            }
                        }
                    }
                },
            );
            Some(Tensor::from_vec(Shape::new(rows, w.cols()), dh))
        }
    };
    let dh = packed.as_ref().or(g[0]).expect("a cotangent");
    let dx = need_dx.then(|| {
        let mut wt = w.transposed();
        let dx = matmul(dh, &wt);
        crate::pool::release(wt.release_data());
        dx
    });
    let dw = matmul_at_blocks(blocks, dh);
    let db = bias_grad(dh);
    if let Some(mut packed) = packed {
        crate::pool::release(packed.release_data());
    }
    (dx, dw, db)
}

/// The cotangent of a `(1, n)` bias added to a product with cotangent
/// `dh`: what `bin.add`'s VJP reduces it to for the broadcast the add
/// resolves ([`Bcast::resolve`]). That is `dh` itself (as a copy) for one
/// row, its `f64` total for one column (a scalar bias) and its row sum
/// otherwise.
pub(crate) fn bias_grad(dh: &Tensor) -> Tensor {
    use crate::kernels::reduce::{sum, Axis};
    let bias = Shape::new(1, dh.cols());
    match Bcast::resolve(bias, dh.shape()).expect("a bias broadcasts over its product") {
        Bcast::Full => Tensor::from_vec(bias, crate::pool::from_slice(dh.data())),
        Bcast::Scalar => sum(dh, Axis::All),
        _ => sum(dh, Axis::Rows),
    }
}

/// [`matmul`] on `tier`.
fn gemm(tier: Tier, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, b.rows(), "matmul inner dim mismatch: {} vs {}", a.shape(), b.shape());
    let ad = a.data();
    let mut out = crate::pool::zeroed(m * b.cols());
    let all = 0..k;
    let plan = Plan { passes: std::slice::from_ref(&all), bias: None, seed: None };
    let lhs = |rows: Range<usize>, _| RowMajor { a: &ad[rows.start * k..], lda: k, idx: None };
    product(tier, m, b, &plan, lhs, [&mut out]);
    Tensor::from_vec(Shape::new(m, b.cols()), out)
}

/// [`matmul_at`] on `tier`.
fn gemm_at(tier: Tier, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows(), b.rows(), "matmul_at inner dim mismatch: {} vs {}", a.shape(), b.shape());
    matmul_at_blocks_on(tier, &[Block { src: a, idx: None }], b)
}

/// [`linear_split`] on `tier`.
fn linear_split_on<const N: usize>(
    tier: Tier,
    blocks: &[Block],
    rows: usize,
    w: &Tensor,
    b: &Tensor,
) -> [Tensor; N] {
    let k: usize = blocks.iter().map(|x| x.src.cols()).sum();
    assert_eq!(k, w.rows(), "linear_split inner dim mismatch: {k} vs {}", w.shape());
    assert_eq!(
        w.cols() % N,
        0,
        "linear_split needs a weight width divisible by {N}, got {}",
        w.shape()
    );
    assert_eq!(b.shape(), Shape::new(1, w.cols()), "linear_split bias shape");
    let n = w.cols() / N;
    let passes: Vec<Range<usize>> = blocks
        .iter()
        .scan(0, |k0, x| {
            *k0 += x.src.cols();
            Some(*k0 - x.src.cols()..*k0)
        })
        .collect();
    let mut outs: [Vec<f32>; N] = std::array::from_fn(|_| crate::pool::zeroed(rows * n));
    // A gathered first block from fewer source rows: its pass once per
    // source row, `P = src @ w[block 0]`, whose rows seed the product's.
    let first = match blocks[0] {
        Block { src, idx: Some(idx) } if seeds_first_block(src.rows(), rows) => Some((src, idx)),
        _ => None,
    };
    let partials = first.map(|(src, idx)| {
        let (m, k0, a) = (src.rows(), src.cols(), src.data());
        let mut p: [Vec<f32>; N] = std::array::from_fn(|_| crate::pool::zeroed(m * n));
        let plan = Plan { passes: &passes[..1], bias: None, seed: None };
        let lhs = |rs: Range<usize>, _| RowMajor { a: &a[rs.start * k0..], lda: k0, idx: None };
        product(tier, m, w, &plan, lhs, p.each_mut().map(|p| &mut p[..]));
        (p, idx)
    });
    let skip = usize::from(partials.is_some());
    let seed = partials.as_ref().map(|(p, idx)| (*idx, p.each_ref().map(|p| &p[..])));
    let plan = Plan { passes: &passes[skip..], bias: Some(b.data()), seed };
    let lhs = |rs: Range<usize>, p: usize| blocks[p + skip].rows_from(rs.start);
    product(tier, rows, w, &plan, lhs, outs.each_mut().map(|o| &mut o[..]));
    for p in partials.into_iter().flat_map(|(p, _)| p) {
        crate::pool::release(p);
    }
    outs.map(|out| Tensor::from_vec(Shape::new(rows, n), out))
}

/// Whether [`linear_split`] runs a gathered first block with `src_rows`
/// source rows once per source row, for a product of `rows` rows: when
/// the source has fewer. Bitwise either way (DESIGN.md §2.2): the first
/// pass starts every sum from `+0.0` and reads only its row of the
/// source, so a source row's partial sums are the same in whichever
/// output row it is computed, and a stored `f32` reloads exactly.
pub(crate) fn seeds_first_block(src_rows: usize, rows: usize) -> bool {
    src_rows < rows
}

/// [`matmul_at_blocks`] on `tier`.
fn matmul_at_blocks_on(tier: Tier, blocks: &[Block], g: &Tensor) -> Tensor {
    let (k, n) = (g.rows(), g.cols());
    let m_all: usize = blocks.iter().map(|x| x.src.cols()).sum();
    let passes: Vec<Range<usize>> =
        (0..k).step_by(AT_K_PASS).map(|k0| k0..(k0 + AT_K_PASS).min(k)).collect();
    let plan = Plan { passes: &passes, bias: None, seed: None };
    let mut out = crate::pool::zeroed(m_all * n);
    let mut rest = &mut out[..];
    for x in blocks {
        let (m, a) = (x.src.cols(), x.src.data());
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(m * n);
        rest = tail;
        match x.idx {
            None => {
                let lhs = |rs: Range<usize>, p: usize| Transposed {
                    a: &a[passes[p].start * m..],
                    lda: m,
                    i0: rs.start,
                };
                product(tier, m, g, &plan, lhs, [part]);
            }
            Some(idx) => {
                let lhs = |rs: Range<usize>, p: usize| TransposedRows {
                    a,
                    lda: m,
                    i0: rs.start,
                    idx: &idx[passes[p].clone()],
                };
                product(tier, m, g, &plan, lhs, [part]);
            }
        }
    }
    Tensor::from_vec(Shape::new(m_all, n), out)
}

/// Rows of `a` per pass of [`matmul_at`]: a pass's rows of `a` and `b`
/// stay in cache while every output tile adds them.
const AT_K_PASS: usize = 256;

/// Rows per cache block of a [`product`]: a block's outputs (two 16-column
/// halves of [`linear_split`] at the benchmark's widths, 8 KiB) and each
/// column block's rows stay in L1 through all passes.
const PASS_ROWS: usize = 64;

/// How [`product`] runs its sums over `k`.
struct Plan<'a, const N: usize> {
    /// B's rows per pass, in ascending order, covering `0..k` (or, with a
    /// `seed`, what the seeded passes left). Each tile resumes from the
    /// partial sums the pass before left in the output (the first from its
    /// `+0.0` or its seed): a stored `f32` reloads exactly, so the passes
    /// add the same products in the same order as one pass would.
    passes: &'a [Range<usize>],
    /// Added to every output row after the last pass, the same `f32` add
    /// `bin.add` does.
    bias: Option<&'a [f32]>,
    /// `(idx, p)`: output `j`'s row `r` starts from row `idx[r]` of `p[j]`
    /// (the partial sums of the passes before `passes`) instead of zero.
    seed: Option<(&'a [u32], [&'a [f32]; N])>,
}

/// The `m`-row product of the left operand and `b` (`k × ld`) on `tier`,
/// into the zeroed `outs`: output `j` takes B's columns
/// `j·n..(j+1)·n` with `n = ld / N`. `lhs(rows, p)` is the left operand
/// pass `p` reads for the output rows `rows`. Splits the rows across
/// threads ([`crate::par`]); each thread's rows run through all passes in
/// blocks of [`PASS_ROWS`].
fn product<L: Lhs, const N: usize>(
    tier: Tier,
    m: usize,
    b: &Tensor,
    plan: &Plan<N>,
    lhs: impl Fn(Range<usize>, usize) -> L + Sync,
    outs: [&mut [f32]; N],
) {
    let (k, ld) = (b.rows(), b.cols());
    let (n, bd) = (ld / N, b.data());
    if n == 0 || (k == 0 && plan.bias.is_none()) {
        return;
    }
    // About 1 ns per 12 multiply-adds at width 1 (EXPERIMENTS.md
    // "Blocked GEMM"), per 16 on the AVX-512 tier (EXPERIMENTS.md
    // "AVX-512 tier"), in `par::SPLIT_WORK` units.
    let per_unit = if tier == Tier::Avx512 { 16 } else { 12 };
    let work = m * ld * plan.passes.iter().map(Range::len).sum::<usize>() / per_unit;
    par::for_row_chunks_n(outs, m, [n; N], par::chunks(work, m), |rows, mut outs| {
        let mut r0 = rows.start;
        while r0 < rows.end {
            let r1 = rows.end.min(r0 + PASS_ROWS);
            let local = (r0 - rows.start) * n..(r1 - rows.start) * n;
            if let Some((idx, p)) = plan.seed {
                for (out, p) in outs.iter_mut().zip(p) {
                    for (row, &i) in out[local.clone()].chunks_exact_mut(n).zip(&idx[r0..r1]) {
                        row.copy_from_slice(&p[i as usize * n..][..n]);
                    }
                }
            }
            for (p, ks) in plan.passes.iter().enumerate() {
                let rhs = Rhs { b: &bd[ks.start * ld..ks.end * ld], ld, k: ks.len() };
                let outs = outs.each_mut().map(|out| &mut out[local.clone()]);
                run(tier, lhs(r0..r1, p), rhs, n, outs);
            }
            // The epilogue, on rows still in cache.
            for (bias, out) in plan.bias.iter().flat_map(|b| b.chunks_exact(n)).zip(&mut outs) {
                add_bias(bias, &mut out[local.clone()]);
            }
            r0 = r1;
        }
    });
}

/// The left operand of a product, as [`Tiles`] reads it: row `i` of the
/// product takes row `i` of A.
trait Lhs: Copy {
    /// Rows `r0..r0 + R` of A (`k` columns), as `kk -> [A[r0 + r, kk]; R]`.
    fn rows<const R: usize>(self, r0: usize, k: usize) -> impl Fn(usize) -> [f32; R] + Copy;
}

/// The row-major matrix `a` with rows `lda` long, read in order or, with
/// `idx`, its rows `idx[0], idx[1], …`.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f32],
    lda: usize,
    idx: Option<&'a [u32]>,
}

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, r0: usize, k: usize) -> impl Fn(usize) -> [f32; R] + Copy {
        let mut rows = [&self.a[..0]; R];
        for (r, row) in rows.iter_mut().enumerate() {
            let i = self.idx.map_or(r0 + r, |idx| idx[r0 + r] as usize);
            *row = &self.a[i * self.lda..][..k];
        }
        move |kk| {
            let mut v = [0.0; R];
            for (v, row) in v.iter_mut().zip(&rows) {
                *v = row[kk];
            }
            v
        }
    }
}

impl<'a> Block<'a> {
    /// This block as a left operand from its row `r0` on.
    fn rows_from(self, r0: usize) -> RowMajor<'a> {
        let (a, lda) = (self.src.data(), self.src.cols());
        match self.idx {
            Some(idx) => RowMajor { a, lda, idx: Some(&idx[r0..]) },
            None => RowMajor { a: &a[(r0 * lda).min(a.len())..], lda, idx: None },
        }
    }
}

/// The transpose of the row-major `k × lda` matrix `a`, from its row
/// `i0` on: row `r` is column `i0 + r` of `a`.
#[derive(Clone, Copy)]
struct Transposed<'a> {
    a: &'a [f32],
    lda: usize,
    i0: usize,
}

impl Lhs for Transposed<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, r0: usize, k: usize) -> impl Fn(usize) -> [f32; R] + Copy {
        let (a, lda) = (&self.a[self.i0 + r0..], self.lda);
        assert!(k == 0 || (k - 1) * lda + R <= a.len(), "{k} rows of A");
        move |kk| a[kk * lda..][..R].try_into().expect("R adjacent elements")
    }
}

/// [`Transposed`] of the rows `idx[0], idx[1], …` of `a`.
#[derive(Clone, Copy)]
struct TransposedRows<'a> {
    a: &'a [f32],
    lda: usize,
    i0: usize,
    idx: &'a [u32],
}

impl Lhs for TransposedRows<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, r0: usize, _k: usize) -> impl Fn(usize) -> [f32; R] + Copy {
        let (a, lda, idx) = (&self.a[self.i0 + r0..], self.lda, self.idx);
        move |kk| a[idx[kk] as usize * lda..][..R].try_into().expect("R adjacent elements")
    }
}

/// The right operand of one pass: the `k` rows of `b`, each `ld` long.
#[derive(Clone, Copy)]
struct Rhs<'a> {
    b: &'a [f32],
    ld: usize,
    k: usize,
}

/// Block-diagonal GEMM used by the batched basis computation (Alg. 2 of the
/// paper): each row `r` of `a` (shape `(N, 3)`) is multiplied by the 3x3
/// block `b[3*seg[r] .. 3*seg[r]+3, :]` of the stacked per-graph matrices
/// `b` (shape `(3*G, 3)`).
///
/// This reproduces line 11 of Alg. 2 ("Concatenate B_I as block diagonal
/// matrix") without materialising the sparse block-diagonal operand.
///
/// # Panics
/// Panics when shapes are inconsistent with the `(N,3) x (3G,3)` layout or
/// when a segment id is out of range.
pub fn block_diag_matmul(a: &Tensor, b: &Tensor, seg: &[u32]) -> Tensor {
    block_diag("block_diag_matmul", a, b, seg, |row, blk, j| {
        row[0] * blk[j] + row[1] * blk[3 + j] + row[2] * blk[6 + j]
    })
}

/// Transposed-B variant of [`block_diag_matmul`]: each row `r` of `a` is
/// multiplied by the *transpose* of block `seg[r]`, reading the block
/// column-wise in place — no `(3G,3)` transpose is ever materialised.
/// The three products per output element are accumulated in the same
/// left-to-right order as [`block_diag_matmul`] on a pre-transposed
/// operand, so the results are bitwise identical.
///
/// # Panics
/// Panics when shapes are inconsistent with the `(N,3) x (3G,3)` layout or
/// when a segment id is out of range.
pub fn block_diag_matmul_tb(a: &Tensor, b: &Tensor, seg: &[u32]) -> Tensor {
    block_diag("block_diag_matmul_tb", a, b, seg, |row, blk, j| {
        // (Bᵀ)[k][j] = B[j][k] = blk[3j + k].
        row[0] * blk[3 * j] + row[1] * blk[3 * j + 1] + row[2] * blk[3 * j + 2]
    })
}

/// Shared body of the block-diagonal kernels: `out[r, j] = dot(a_row, blk,
/// j)` with `blk` the 3x3 block of `seg[r]`. Shapes and segment ids are
/// checked on the calling thread before any row is split off.
fn block_diag(
    name: &str,
    a: &Tensor,
    b: &Tensor,
    seg: &[u32],
    dot: impl Fn(&[f32], &[f32], usize) -> f32 + Sync,
) -> Tensor {
    assert_eq!(a.cols(), 3, "{name} expects (N,3) lhs, got {}", a.shape());
    assert_eq!(b.cols(), 3, "{name} expects (3G,3) rhs, got {}", b.shape());
    assert_eq!(b.rows() % 3, 0, "rhs rows must be a multiple of 3");
    assert_eq!(seg.len(), a.rows(), "segment array must have one entry per lhs row");
    let n_blocks = b.rows() / 3;
    for &g in seg {
        assert!((g as usize) < n_blocks, "segment id {g} out of range ({n_blocks} blocks)");
    }
    let ad = a.data();
    let bd = b.data();
    let rows = a.rows();
    let mut out = crate::pool::with_capacity(rows * 3);

    par::fill_rows(&mut out, rows, 3, par::chunks(6 * rows, rows), |rs, out| {
        for r in rs {
            let g = seg[r] as usize;
            let blk = &bd[g * 9..g * 9 + 9];
            let row = &ad[r * 3..r * 3 + 3];
            out.extend((0..3).map(|j| dot(row, blk, j)));
        }
    });
    Tensor::from_vec(crate::shape::Shape::new(rows, 3), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::bits;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The plain i-k-j kernel [`matmul`] replaced, kept as its bitwise
    /// reference: every output row is loaded and stored once per `k`, and
    /// every product is added.
    fn matmul_ikj(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (k, n) = (a.cols(), b.cols());
        let mut out = vec![0.0; a.rows() * n];
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a.data()[i * k..(i + 1) * k];
            for (&aik, b_row) in a_row.iter().zip(b.data().chunks_exact(n)) {
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_is_bitwise_the_ikj_loop() {
        let tiers: Vec<Tier> = Tier::on_host().collect();
        let mut case = 0u64;
        for m in [0, 1, 3, 4, 5, 7, 8, 33] {
            for n in [1, 3, 15, 16, 17, 32, 33, 48, 64] {
                for k in [0, 1, 17, 64] {
                    // B all finite, then with one inf, then with one NaN.
                    for poison in [None, Some(f32::INFINITY), Some(f32::NAN)] {
                        if k == 0 && poison.is_some() {
                            continue;
                        }
                        case += 1;
                        let mut rng = StdRng::seed_from_u64(case);
                        let a = Tensor::from_vec(
                            crate::shape::Shape::new(m, k),
                            (0..m * k).map(|_| crate::kernels::test_value(&mut rng)).collect(),
                        );
                        let mut b = crate::init::uniform(&mut rng, k, n, -2.0, 2.0);
                        if let Some(x) = poison {
                            let at = rng.gen_range(0..k * n);
                            *b.at_mut(at / n, at % n) = x;
                        }
                        let want = bits(&matmul_ikj(&a, &b));
                        let what = format!("m={m} k={k} n={n} B holding {poison:?} (seed {case})");
                        for &tier in &tiers {
                            let c = gemm(tier, &a, &b);
                            assert_eq!(bits(c.data()), want, "{tier:?} {what}");
                        }
                        assert_eq!(bits(matmul(&a, &b).data()), want, "dispatched {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_does_not_hide_an_inf_in_b() {
        // A's column 1 is all zeros and B's row 1 holds an inf in column
        // `inf`: `0 × inf` is NaN there in every row, and every other
        // output is finite, on every tier, for whole row blocks and rows
        // left over, through every entry point.
        for m in [1, 4, 5] {
            for n in [4, 17] {
                let inf = n - 2;
                let a = (0..m * 3).map(|i| if i % 3 == 1 { 0.0 } else { 1.0 }).collect();
                let a = Tensor::from_vec(Shape::new(m, 3), a);
                let mut b = Tensor::full(3, n, 0.5);
                *b.at_mut(1, inf) = f32::INFINITY;
                let whole = [Block { src: &a, idx: None }];
                for tier in Tier::on_host() {
                    let [split] = linear_split_on::<1>(tier, &whole, m, &b, &Tensor::zeros(1, n));
                    let products = [
                        ("matmul", gemm(tier, &a, &b)),
                        ("matmul_at", gemm_at(tier, &a.transposed(), &b)),
                        ("linear_split", split),
                    ];
                    for (what, c) in products {
                        for (i, x) in c.data().iter().enumerate() {
                            assert_eq!(
                                x.is_nan(),
                                i % n == inf,
                                "{tier:?} {what} m={m} n={n}: element {i} is {x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_a_matmul_is_bitwise_transpose_then_matmul() {
        let tiers: Vec<Tier> = Tier::on_host().collect();
        let mut case = 0u64;
        for rows in [0, 1, 3, 4, 5, 7, 8, 9, 33, 257] {
            for m in [1, 3, 4, 5, 16, 17, 64] {
                for n in [1, 3, 16, 17, 33] {
                    // g all finite, then with one inf, then with one NaN.
                    for poison in [None, Some(f32::INFINITY), Some(f32::NAN)] {
                        if rows == 0 && poison.is_some() {
                            continue;
                        }
                        case += 1;
                        let mut rng = StdRng::seed_from_u64(case);
                        let a = Tensor::from_vec(
                            crate::shape::Shape::new(rows, m),
                            (0..rows * m).map(|_| crate::kernels::test_value(&mut rng)).collect(),
                        );
                        let mut g = crate::init::uniform(&mut rng, rows, n, -2.0, 2.0);
                        if let Some(x) = poison {
                            let at = rng.gen_range(0..rows * n);
                            *g.at_mut(at / n, at % n) = x;
                        }
                        let want = bits(gemm(Tier::Scalar, &a.transposed(), &g).data());
                        let what =
                            format!("{rows}x{m}ᵀ @ {rows}x{n} g holding {poison:?} (seed {case})");
                        for &tier in &tiers {
                            let c = gemm_at(tier, &a, &g);
                            assert_eq!(c.shape(), crate::shape::Shape::new(m, n), "{what}");
                            assert_eq!(bits(c.data()), want, "{tier:?} {what}");
                        }
                        assert_eq!(bits(matmul_at(&a, &g).data()), want, "dispatched {what}");
                    }
                }
            }
        }
    }

    fn draw(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols).map(|_| crate::kernels::test_value(rng)).collect();
        Tensor::from_vec(Shape::new(rows, cols), data)
    }

    /// `rows`-row column blocks, each source with its index: two gathered
    /// from one 7-row source (indices repeated and unsorted), one from an
    /// 11-row source (sorted), one read whole; and their materialised
    /// `concat_cols`.
    #[allow(clippy::type_complexity)]
    fn test_blocks(rng: &mut StdRng, rows: usize) -> (Vec<(Tensor, Option<Vec<u32>>)>, Tensor) {
        use crate::kernels::gather::{concat_cols, gather_rows};
        let (v, e, a) = (draw(rng, 7, 5), draw(rng, 11, 16), draw(rng, rows, 3));
        let mut ids = |bound: u32| (0..rows).map(|_| rng.gen_range(0..bound)).collect::<Vec<_>>();
        let (i1, mut i2, i3) = (ids(7), ids(11), ids(7));
        i2.sort_unstable();
        let blocks = vec![(v.clone(), Some(i3)), (e, Some(i2)), (v, Some(i1)), (a, None)];
        let parts: Vec<Tensor> = blocks
            .iter()
            .map(|(t, idx)| idx.as_ref().map_or_else(|| t.clone(), |idx| gather_rows(t, idx)))
            .collect();
        let x = concat_cols(&parts.iter().collect::<Vec<_>>());
        (blocks, x)
    }

    fn as_blocks(blocks: &[(Tensor, Option<Vec<u32>>)]) -> Vec<Block<'_>> {
        blocks.iter().map(|(src, idx)| Block { src, idx: idx.as_deref() }).collect()
    }

    /// `w` (`k × n`) all finite, then holding one inf, then one NaN.
    fn poisoned(rng: &mut StdRng, k: usize, n: usize) -> [Tensor; 3] {
        [None, Some(f32::INFINITY), Some(f32::NAN)].map(|poison| {
            let mut w = crate::init::uniform(rng, k, n, -2.0, 2.0);
            if let (Some(x), true) = (poison, k * n > 0) {
                let at = rng.gen_range(0..k * n);
                *w.at_mut(at / n, at % n) = x;
            }
            w
        })
    }

    /// [`linear_split_on`] with `N` outputs against `bin.add(matmul)` of
    /// the materialised `x`, sliced.
    fn check_linear_split<const N: usize>(case: u64, rows: usize, n: usize) {
        let rng = &mut StdRng::seed_from_u64(case);
        let (blocks, x) = test_blocks(rng, rows);
        check_split_of::<N>(rng, &blocks, &x, n, &format!("seed {case}"));
    }

    /// [`linear_split_on`] of `blocks` with `N` outputs `n` wide, on every
    /// tier the host runs at widths 1 and 2 and with `w` finite, holding an
    /// inf and holding a NaN, against `bin.add(matmul)` of their
    /// materialised concatenation `x` on the scalar tier, sliced.
    #[allow(clippy::type_complexity)]
    fn check_split_of<const N: usize>(
        rng: &mut StdRng,
        blocks: &[(Tensor, Option<Vec<u32>>)],
        x: &Tensor,
        n: usize,
        case: &str,
    ) {
        use crate::kernels::elementwise::{binary, BinKind};
        use crate::shape::Bcast;
        let tiers: Vec<Tier> = Tier::on_host().collect();
        let rows = x.rows();
        let b = draw(rng, 1, N * n);
        for (poison, w) in poisoned(rng, x.cols(), N * n).into_iter().enumerate() {
            for &tier in &tiers {
                let h = gemm(Tier::Scalar, x, &w);
                let h = binary(BinKind::Add, &h, Bcast::Full, &b, Bcast::Row, h.shape());
                let want: [_; N] = std::array::from_fn(|i| {
                    bits(crate::kernels::gather::slice_cols(&h, i * n, n).data())
                });
                let what = format!("{N} outputs, {rows} rows, n={n}, poison {poison} ({case})");
                for width in [1, 2] {
                    let got = par::with_width(width, || {
                        linear_split_on::<N>(tier, &as_blocks(blocks), rows, &w, &b)
                    });
                    let got = got.map(|t| bits(t.data()));
                    assert_eq!(got, want, "{tier:?} width {width}: {what}");
                }
            }
        }
    }

    #[test]
    fn view_linear_splits_are_bitwise_gather_concat_linear_slice() {
        let mut case = 0;
        for rows in [0, 1, 3, 4, 5, 33, 4099] {
            for n in [1, 3, 16, 17] {
                case += 1;
                check_linear_split::<1>(case, rows, n);
                check_linear_split::<2>(case, rows, n);
                check_linear_split::<3>(case, rows, n);
            }
        }
    }

    #[test]
    fn strips_across_outputs_are_bitwise_gather_concat_linear_slice() {
        // Output widths whose 16-column strips pair up within an output,
        // across two outputs and with a short strip on either side, over
        // row counts on both sides of whole tiles and a pass block.
        let mut case = 2000;
        for rows in [1, 3, 4, 5, 63, 64, 65] {
            for n in [2, 15, 31, 32, 33, 48] {
                case += 1;
                check_linear_split::<1>(case, rows, n);
                check_linear_split::<2>(case, rows, n);
                check_linear_split::<3>(case, rows, n);
            }
        }
    }

    #[test]
    fn first_block_partials_are_bitwise_gather_concat_linear_slice() {
        use crate::kernels::gather::{concat_cols, gather_rows};
        let mut case = 1000;
        // Products across row blocks and a `PASS_ROWS` block boundary,
        // each with a gathered first block from fewer, as many and more
        // source rows (only fewer take the partials), alone or followed by
        // a block read whole.
        for rows in [1usize, 3, 4, 5, 64, 65, 257] {
            for src_rows in [rows.saturating_sub(2).max(1), rows - 1, rows, rows + 1] {
                for alone in [true, false] {
                    case += 1;
                    let rng = &mut StdRng::seed_from_u64(case);
                    let src = draw(rng, src_rows.max(1), 5);
                    let idx: Vec<u32> =
                        (0..rows).map(|_| rng.gen_range(0..src.rows() as u32)).collect();
                    let mut blocks = vec![(src, Some(idx))];
                    if !alone {
                        blocks.push((draw(rng, rows, 17), None));
                    }
                    let parts: Vec<Tensor> = blocks
                        .iter()
                        .map(|(t, idx)| {
                            idx.as_ref().map_or_else(|| t.clone(), |i| gather_rows(t, i))
                        })
                        .collect();
                    let x = concat_cols(&parts.iter().collect::<Vec<_>>());
                    let what = format!("source rows {}, seed {case}", blocks[0].0.rows());
                    for n in [1, 16, 17] {
                        check_split_of::<1>(rng, &blocks, &x, n, &what);
                        check_split_of::<2>(rng, &blocks, &x, n, &what);
                        check_split_of::<3>(rng, &blocks, &x, n, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn view_weight_gradient_is_bitwise_matmul_at_of_the_concat() {
        let tiers: Vec<Tier> = Tier::on_host().collect();
        let mut case = 0;
        for rows in [0, 1, 3, 4, 5, 33, 4099] {
            for n in [1, 3, 16, 34] {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let (blocks, x) = test_blocks(rng, rows);
                for (poison, g) in poisoned(rng, rows, n).into_iter().enumerate() {
                    for &tier in &tiers {
                        let want = gemm_at(Tier::Scalar, &x, &g);
                        let what = format!("{rows} rows, n={n}, poison {poison} (seed {case})");
                        for width in [1, 2] {
                            let got = par::with_width(width, || {
                                matmul_at_blocks_on(tier, &as_blocks(&blocks), &g)
                            });
                            assert_eq!(got.shape(), want.shape(), "{what}");
                            assert_eq!(
                                bits(got.data()),
                                bits(want.data()),
                                "{tier:?} width {width}: {what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn view_linear_vjp_is_bitwise_the_composed_chain() {
        use crate::kernels::elementwise::{binary, BinKind};
        use crate::kernels::reduce::{sum, Axis};
        use crate::shape::Bcast;
        let pad = |g: &Tensor, start: usize, total: usize| {
            let mut out = Tensor::zeros(g.rows(), total);
            for r in 0..g.rows() {
                out.data_mut()[r * total + start..][..g.cols()].copy_from_slice(g.row(r));
            }
            out
        };
        let mut case = 0;
        for rows in [0, 1, 3, 4, 5, 33, 4099] {
            for n in [1, 3, 16, 17] {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let (blocks, x) = test_blocks(rng, rows);
                let outs: Vec<Tensor> = (0..3).map(|_| draw(rng, rows, n)).collect();
                // Every subset of present cotangents of 1, 2 and 3 outputs.
                let mut patterns: Vec<Vec<Option<&Tensor>>> = vec![vec![Some(&outs[0])]];
                for parts in [2, 3] {
                    for mask in 1..1u32 << parts {
                        let g = (0..parts).map(|i| (mask >> i & 1 == 1).then_some(&outs[i]));
                        patterns.push(g.collect());
                    }
                }
                for g in &patterns {
                    let width = g.len() * n;
                    for w in poisoned(rng, x.cols(), width) {
                        // `backward`'s chain: each output's padded
                        // cotangent, the last first, summed.
                        let dh = g
                            .iter()
                            .enumerate()
                            .rev()
                            .filter_map(|(i, g)| g.map(|g| pad(g, i * n, width)))
                            .reduce(|a, p| {
                                binary(BinKind::Add, &a, Bcast::Full, &p, Bcast::Full, a.shape())
                            })
                            .expect("a cotangent");
                        // `bin.add`'s VJP for the bias: the one row itself,
                        // the total of one column, or the row sum.
                        let db = match (rows, width) {
                            (1, _) => dh.clone(),
                            (_, 1) => sum(&dh, Axis::All),
                            _ => sum(&dh, Axis::Rows),
                        };
                        let want = [matmul(&dh, &w.transposed()), matmul_at(&x, &dh), db];
                        let want = want.map(|t| bits(t.data()));
                        for width in [1, 2] {
                            for need_dx in [true, false] {
                                let (dx, dw, db) = par::with_width(width, || {
                                    linear_vjp(&as_blocks(&blocks), &w, g, need_dx)
                                });
                                let what = format!(
                                    "{rows} rows, n={n}, {:?} (seed {case}, width {width})",
                                    g.iter().map(Option::is_some).collect::<Vec<_>>()
                                );
                                assert_eq!(dx.is_some(), need_dx, "{what}");
                                if let Some(dx) = dx {
                                    assert_eq!(bits(dx.data()), want[0], "dx {what}");
                                }
                                assert_eq!(bits(dw.data()), want[1], "dw {what}");
                                assert_eq!(bits(db.data()), want[2], "db {what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_matmul() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_matmul() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let eye =
            Tensor::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let c = matmul(&a, &eye);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn rectangular_matmul() {
        let a = Tensor::from_rows(&[vec![1.0, 0.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), crate::shape::Shape::new(1, 2));
        assert_eq!(c.data(), &[7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn mismatched_matmul_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn block_diag_two_blocks() {
        // Two 3x3 blocks: identity and 2*identity.
        let mut b = Tensor::zeros(6, 3);
        for i in 0..3 {
            *b.at_mut(i, i) = 1.0;
            *b.at_mut(3 + i, i) = 2.0;
        }
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let out = block_diag_matmul(&a, &b, &[0, 1]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[8.0, 10.0, 12.0]);
    }

    #[test]
    fn block_diag_tb_matches_materialised_transpose() {
        // Two asymmetric blocks; the in-place transposed kernel must agree
        // bitwise with transposing the blocks up front.
        let b = Tensor::from_rows(&[
            vec![0.5, 1.0, -1.0],
            vec![2.0, 0.25, 0.5],
            vec![-0.5, 1.5, 1.0],
            vec![3.0, -2.0, 0.125],
            vec![0.0, 1.0, -4.0],
            vec![2.5, 0.75, -0.25],
        ]);
        let mut bt = Tensor::zeros(6, 3);
        for g in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    *bt.at_mut(g * 3 + i, j) = b.at(g * 3 + j, i);
                }
            }
        }
        let a = Tensor::from_rows(&[
            vec![1.0, -1.0, 2.0],
            vec![0.0, 3.0, 1.0],
            vec![-0.125, 0.5, 0.75],
        ]);
        let seg = [0u32, 1, 0];
        let out_tb = block_diag_matmul_tb(&a, &b, &seg);
        let out_ref = block_diag_matmul(&a, &bt, &seg);
        assert_eq!(out_tb.data(), out_ref.data(), "tb kernel diverges from transpose");
    }

    #[test]
    fn block_diag_matches_dense() {
        // Compare against an explicitly materialised block-diagonal matmul.
        let blk0 =
            Tensor::from_rows(&[vec![0.5, 1.0, -1.0], vec![2.0, 0.0, 0.5], vec![-0.5, 1.5, 1.0]]);
        let a = Tensor::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.0, 3.0, 1.0]]);
        let out = block_diag_matmul(&a, &blk0, &[0, 0]);
        let dense = matmul(&a, &blk0);
        assert!(out.approx_eq(&dense, 1e-6));
    }
}
