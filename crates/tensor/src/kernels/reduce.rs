//! Reduction kernels (row / column / full sums), and the row-lane `f64`
//! sums that column sums and the LayerNorm kernels share.

use crate::kernels::Tier;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Axis along which a reduction collapses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Collapse rows: `(n, m) -> (1, m)`.
    Rows,
    /// Collapse columns: `(n, m) -> (n, 1)`.
    Cols,
    /// Collapse everything: `(n, m) -> (1, 1)`.
    All,
}

impl Axis {
    /// Output shape of reducing `input` along this axis.
    #[cfg(test)]
    fn out_shape(self, input: Shape) -> Shape {
        match self {
            Axis::Rows => Shape::new(1, input.cols),
            Axis::Cols => Shape::new(input.rows, 1),
            Axis::All => Shape::scalar(),
        }
    }
}

/// Sum-reduce `a` along `axis`.
pub fn sum(a: &Tensor, axis: Axis) -> Tensor {
    let (n, m) = (a.rows(), a.cols());
    let d = a.data();
    match axis {
        Axis::Rows => {
            let mut out = crate::pool::zeroed(m);
            for r in 0..n {
                let row = &d[r * m..(r + 1) * m];
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += x;
                }
            }
            Tensor::from_vec(Shape::new(1, m), out)
        }
        Axis::Cols => Tensor::from_vec(Shape::new(n, 1), sum_cols(Tier::host(), d, n, m)),
        Axis::All => Tensor::scalar(d.iter().map(|&x| x as f64).sum::<f64>() as f32),
    }
}

/// `sum(Axis::Cols)` of the row-major `n × m` data `d` on `tier`: each
/// row's sum in `f64` (column sums feed LayerNorm statistics), rounded
/// once to `f32`.
fn sum_cols(tier: Tier, d: &[f32], n: usize, m: usize) -> Vec<f32> {
    let mut out = crate::pool::zeroed(n);
    // One sum per row: the AVX-512 tier runs the AVX2 lanes here.
    let tier = if tier == Tier::Avx512 { Tier::Avx2 } else { tier };
    let lanes = lane_rows(tier, 0..n, m);
    #[cfg(target_arch = "x86_64")]
    if !lanes.is_empty() {
        // SAFETY: `lane_rows` covers rows only on a host with AVX2.
        with_lanes(m, |xt| unsafe { sum_cols_lanes(d, m, &mut out[lanes.clone()], xt) });
    }
    let rest = &mut out[lanes.end..];
    if m == 0 {
        rest.fill(-0.0); // an empty row's `Iterator::sum`
    }
    for (o, row) in rest.iter_mut().zip(d[lanes.end * m..].chunks_exact(m.max(1))) {
        *o = row.iter().map(|&x| x as f64).sum::<f64>() as f32;
    }
    out
}

/// [`sum_cols`] of the first `out.len()` rows, whole [`LANES`]-row blocks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sum_cols_lanes(d: &[f32], m: usize, out: &mut [f32], xt: &mut [Column<f32>]) {
    for (b, out) in out.chunks_exact_mut(LANES).enumerate() {
        transpose(&d[b * LANES * m..], m, xt);
        let s = lane_sum(m, |c| xt[c].map(f64::from));
        out.copy_from_slice(&s.map(|s| s as f32));
    }
}

/// Rows per block of the row-lane sums on the AVX2 tier: one `f64` lane
/// per row, two 4-lane registers per block.
pub(crate) const LANES: usize = 8;

/// Rows per block of the LayerNorm kernels' row-lane sums on the AVX-512
/// tier: two 8-lane registers per block, each its own chain of adds.
pub(crate) const LANES_AVX512: usize = 16;

/// One column of a [`LANES`]-row block: lane `l` holds row `l`'s value.
pub(crate) type Column<T> = [T; LANES];

/// Rows narrower than this run the per-row loop on every tier: their
/// short sums gain less from overlapping than the transpose costs.
const LANE_MIN_COLS: usize = 16;

/// Row-lane `f64` sums (DESIGN.md §2.2): the rows of `rows` (each `m`
/// wide) that run in blocks on `tier`, whole blocks from `rows.start` when
/// the host runs the tier and `m` is at least [`LANE_MIN_COLS`], none
/// otherwise: [`LANES`]-row blocks on [`Tier::Avx2`],
/// [`LANES_AVX512`]-row blocks on [`Tier::Avx512`], none on
/// [`Tier::Scalar`]. The rest run the kernel's scalar per-row loop.
///
/// A block's body is compiled with its tier's instructions enabled (`fma`
/// never is). It [`transpose`]s its rows (8 at a time) so that each column
/// is one [`Column`] value, and sums each row in its own lane: every lane
/// adds its row's terms in the order of the per-row loop
/// (`Iterator::sum`: ascending column, from `-0.0`), so the sums are
/// bitwise that loop's, while the block's rows' adds overlap instead of
/// waiting on one another. The AVX2 body sums with [`lane_sum`], the
/// AVX-512 one in two 8-lane `__m512d` chains.
pub(crate) fn lane_rows(tier: Tier, rows: Range<usize>, m: usize) -> Range<usize> {
    let block = match tier {
        Tier::Scalar => 0,
        Tier::Avx2 => LANES,
        Tier::Avx512 => LANES_AVX512,
    };
    if block == 0 || m < LANE_MIN_COLS || !tier.runs_here() {
        return rows.start..rows.start;
    }
    rows.start..rows.start + rows.len() / block * block
}

/// Each lane's sum of `term(c)` over columns `c` in `0..m` (one [`Column`]
/// of `f64` terms per column), in column order from `-0.0`:
/// `Iterator::sum`'s order, lane by lane.
#[inline(always)]
pub(crate) fn lane_sum(m: usize, term: impl Fn(usize) -> Column<f64>) -> Column<f64> {
    let mut acc = [-0.0; LANES];
    for c in 0..m {
        for (a, t) in acc.iter_mut().zip(term(c)) {
            *a += t;
        }
    }
    acc
}

/// The [`LANES`] rows of the row-major `x` (`m` columns, at least
/// [`LANES`] rows) as `m` block columns, `out[c][l] = x[l * m + c]`: eight
/// columns at a time by register shuffles, then the rest one by one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn transpose(x: &[f32], m: usize, out: &mut [Column<f32>]) {
    use std::arch::x86_64::*;
    let rows: Column<&[f32]> = std::array::from_fn(|l| &x[l * m..(l + 1) * m]);
    let out = &mut out[..m];
    let whole = m / 8 * 8;
    for (c0, cols) in (0..whole).step_by(8).zip(out.chunks_exact_mut(8)) {
        for h in 0..LANES / 8 {
            let r: [__m256; 8] = std::array::from_fn(|l| {
                let row: &[f32; 8] = rows[8 * h + l][c0..c0 + 8].try_into().expect("8 columns");
                // SAFETY: `row` is 8 readable `f32`s; `loadu` needs no alignment.
                unsafe { _mm256_loadu_ps(row.as_ptr()) }
            });
            // 2×2 blocks of rows 2i, 2i+1, then 4×4 blocks, then the
            // halves: `q[c]` ends up holding column `c0 + c`.
            let t: [__m256; 8] = std::array::from_fn(|i| {
                let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
                if i % 2 == 0 {
                    _mm256_unpacklo_ps(a, b)
                } else {
                    _mm256_unpackhi_ps(a, b)
                }
            });
            let s: [__m256; 8] = std::array::from_fn(|i| {
                let (a, b) = (t[i / 4 * 4 + i / 2 % 2], t[i / 4 * 4 + i / 2 % 2 + 2]);
                if i % 2 == 0 {
                    _mm256_shuffle_ps::<0x44>(a, b)
                } else {
                    _mm256_shuffle_ps::<0xee>(a, b)
                }
            });
            let q: [__m256; 8] = std::array::from_fn(|c| {
                if c < 4 {
                    _mm256_permute2f128_ps::<0x20>(s[c], s[c + 4])
                } else {
                    _mm256_permute2f128_ps::<0x31>(s[c - 4], s[c])
                }
            });
            for (col, v) in cols.iter_mut().zip(q) {
                let half: &mut [f32; 8] = (&mut col[8 * h..8 * h + 8]).try_into().expect("8 lanes");
                // SAFETY: `half` is 8 writable `f32`s; `storeu` needs no
                // alignment.
                unsafe { _mm256_storeu_ps(half.as_mut_ptr(), v) };
            }
        }
    }
    for (c, col) in out.iter_mut().enumerate().skip(whole) {
        *col = std::array::from_fn(|l| rows[l][c]);
    }
}

thread_local! {
    /// Column scratch of the row-lane blocks, per thread (kernel helpers
    /// included), grown to the widest block seen and reused.
    static SCRATCH: RefCell<Vec<Column<f32>>> = const { RefCell::new(Vec::new()) };
}

/// `f(scratch)` with a scratch of `len` block columns of this thread.
pub(crate) fn with_lanes<R>(len: usize, f: impl FnOnce(&mut [Column<f32>]) -> R) -> R {
    SCRATCH.with_borrow_mut(|s| {
        if s.len() < len {
            s.resize(len, [0.0; LANES]);
        }
        f(&mut s[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::kernels::{bits, test_rows, TEST_COLS, TEST_ROWS};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn row_lane_column_sums_are_bitwise_the_per_row_loop() {
        // On the scalar tier every row runs the scalar per-row loop, the
        // reference; on every other tier the host runs, whole blocks run in
        // row lanes.
        let mut case = 0;
        for rows in TEST_ROWS {
            for m in TEST_COLS {
                case += 1;
                let x = test_rows(&mut StdRng::seed_from_u64(case), rows, m);
                let want = bits(&sum_cols(Tier::Scalar, x.data(), rows, m));
                for tier in Tier::on_host() {
                    let lanes = sum_cols(tier, x.data(), rows, m);
                    assert_eq!(bits(&lanes), want, "{tier:?} {rows}x{m} (seed {case})");
                }
                assert_eq!(bits(sum(&x, Axis::Cols).data()), want, "dispatched {rows}x{m}");
            }
        }
        // The all -0.0 row and zero-width rows sum to -0.0, the sum of
        // no terms.
        let x = test_rows(&mut StdRng::seed_from_u64(0), 9, 5);
        assert_eq!(sum(&x, Axis::Cols).data()[0].to_bits(), (-0.0f32).to_bits());
        let empty: Vec<u32> =
            sum(&Tensor::zeros(3, 0), Axis::Cols).data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(empty, [(-0.0f32).to_bits(); 3]);
    }

    #[test]
    fn lane_sum_adds_each_lane_in_column_order_from_negative_zero() {
        assert_eq!(lane_sum(0, |_| [1.0; LANES]).map(f64::to_bits), [(-0.0f64).to_bits(); LANES]);
        // 1e16 + 1 + 1 rounds each 1 away; the other order keeps 2.
        let cols: [Column<f64>; 3] =
            [1e16, 1.0, 1.0].map(|v| std::array::from_fn(|l| v * (l + 1) as f64));
        let s = lane_sum(3, |c| cols[c]);
        for (l, s) in s.into_iter().enumerate() {
            let want: f64 = cols.iter().map(|c| c[l]).sum();
            assert_eq!(s.to_bits(), want.to_bits(), "lane {l}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose_puts_row_l_in_lane_l() {
        if lane_rows(Tier::Avx2, 0..LANES, LANE_MIN_COLS).is_empty() {
            return; // no AVX2: nothing runs in lanes
        }
        for m in [0, 3, 8, 19] {
            let x: Vec<f32> = (0..LANES * m).map(|i| i as f32).collect();
            let mut cols = vec![[0.0; LANES]; m];
            // SAFETY: the host has AVX2 (`lane_rows` covered a block).
            unsafe { transpose(&x, m, &mut cols) };
            for (c, col) in cols.iter().enumerate() {
                for (l, &v) in col.iter().enumerate() {
                    assert_eq!(v, x[l * m + c], "m {m}, column {c}, lane {l}");
                }
            }
        }
    }

    #[test]
    fn sums() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(sum(&t, Axis::Rows).data(), &[4.0, 6.0]);
        assert_eq!(sum(&t, Axis::Cols).data(), &[3.0, 7.0]);
        assert_eq!(sum(&t, Axis::All).item(), 10.0);
    }

    #[test]
    fn out_shapes() {
        let s = Shape::new(5, 3);
        assert_eq!(Axis::Rows.out_shape(s), Shape::new(1, 3));
        assert_eq!(Axis::Cols.out_shape(s), Shape::new(5, 1));
        assert_eq!(Axis::All.out_shape(s), Shape::scalar());
    }

    #[test]
    fn empty_rows() {
        let t = Tensor::zeros(0, 4);
        assert_eq!(sum(&t, Axis::Rows).data(), &[0.0; 4]);
        assert_eq!(sum(&t, Axis::Cols).len(), 0);
        assert_eq!(sum(&t, Axis::All).item(), 0.0);
    }
}
