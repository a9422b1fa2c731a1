//! Reduction kernels (row / column / full sums), and the row-lane `f64`
//! sums that column sums and the LayerNorm kernels share: lane bodies on
//! [`crate::kernels::lanes`], one row per `f32` lane of the tier.

use crate::kernels::lanes::{f32_lanes, run_on, LanePass, Lanes, LanesF32};
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
/// once to `f32`, in row lanes ([`row_blocks`]).
fn sum_cols(tier: Tier, d: &[f32], n: usize, m: usize) -> Vec<f32> {
    struct SumCols<'a> {
        d: &'a [f32],
        m: usize,
        out: &'a mut [f32],
        cols: &'a mut [f32],
    }
    impl LanePass for SumCols<'_> {
        type Out = ();
        #[inline(always)]
        fn run<V: Lanes>(self) {
            let SumCols { d, m, out, cols } = self;
            let rows = 0..out.len();
            let done = sum_rows::<V>(d, m, rows.clone(), out, cols);
            sum_rows::<f64>(d, m, done..rows.end, out, cols);
        }
    }
    let mut out = crate::pool::zeroed(n);
    // One sum per row, which the AVX2 lanes run as fast.
    let tier = tier.min(Tier::Avx2);
    // The scratch is taken out here: a thread-local's closure would be
    // compiled without the tier's instructions.
    with_lanes(m * f32_lanes(tier), |cols| run_on(tier, SumCols { d, m, out: &mut out, cols }));
    out
}

/// [`sum_cols`] of the whole [`row_blocks`] of `rows` on `V`'s lanes, into
/// `out`, with `cols` the block's column scratch; returns the first row
/// not summed.
#[inline(always)]
fn sum_rows<V: Lanes>(
    d: &[f32],
    m: usize,
    rows: Range<usize>,
    out: &mut [f32],
    cols: &mut [f32],
) -> usize {
    let b = V::F32::N;
    let blocks = row_blocks::<V>(rows, m);
    for r0 in blocks.clone().step_by(b) {
        let cols = transpose_block::<V>(d, m, r0, cols);
        let s = lane_sums::<V>(m, |c| widen(&cols[c * b..]));
        for (o, s) in out[r0..r0 + b].iter_mut().zip(s) {
            *o = s as f32;
        }
    }
    blocks.end
}

/// Row-lane `f64` sums (DESIGN.md §2.2): the rows of `rows` (each `m`
/// wide) that run in blocks of `B = V::F32::N` rows, one row per `f32`
/// lane, whole blocks from `rows.start`; the caller runs the rest on one
/// lane (`V = f64`, where a block is one row). Rows narrower than
/// [`LANE_MIN_COLS`] run one at a time on every tier.
///
/// A block [`transpose_block`]s its rows so that each column is `B`
/// adjacent values, and sums each row in its own lane ([`lane_sums`]):
/// every lane adds its row's terms in the order of the per-row loop
/// (`Iterator::sum`: ascending column, from `-0.0`), so the sums are
/// bitwise that loop's, while the block's rows' adds overlap instead of
/// waiting on one another.
#[inline(always)]
pub(crate) fn row_blocks<V: Lanes>(rows: Range<usize>, m: usize) -> Range<usize> {
    let b = V::F32::N;
    if b > 1 && m < LANE_MIN_COLS {
        return rows.start..rows.start;
    }
    rows.start..rows.start + rows.len() / b * b
}

/// Rows narrower than this run one at a time on every tier: their short
/// sums gain less from overlapping than the transpose costs.
const LANE_MIN_COLS: usize = 16;

/// The `B = V::F32::N` rows of the row-major `x` (`m` columns) from row
/// `r0` on, as block columns: `cols[c·B + l] = x[(r0 + l)·m + c]`, eight
/// rows × eight columns at a time by [`LanesF32::transpose8`], then the
/// last columns one by one. One row is its own block, read in place.
#[inline(always)]
pub(crate) fn transpose_block<'a, V: Lanes>(
    x: &'a [f32],
    m: usize,
    r0: usize,
    cols: &'a mut [f32],
) -> &'a [f32] {
    let b = V::F32::N;
    let x = &x[r0 * m..][..b * m];
    if b == 1 {
        return x;
    }
    let cols = &mut cols[..b * m];
    let whole = m / 8 * 8;
    for c0 in (0..whole).step_by(8) {
        for h in (0..b).step_by(8) {
            V::F32::transpose8(&x[h * m + c0..], m, &mut cols[c0 * b + h..], b);
        }
    }
    for c in whole..m {
        for (l, o) in cols[c * b..][..b].iter_mut().enumerate() {
            *o = x[l * m + c];
        }
    }
    cols
}

/// `f64` chains per block of `V`'s `f32` lanes: two on a vector tier, one
/// on one lane.
#[inline(always)]
pub(crate) fn chains<V: Lanes>() -> usize {
    let chains = V::F32::N / V::N;
    assert!((1..=2).contains(&chains), "one or two f64 chains per block");
    chains
}

/// The first `V::F32::N` elements of `x` as `f64` chains of `V`.
#[inline(always)]
pub(crate) fn widen<V: Lanes>(x: &[f32]) -> [V; 2] {
    // One check of `x` here leaves none in the loop.
    let x = &x[..V::F32::N];
    let mut v = [V::splat(0.0); 2];
    for (h, v) in v[..chains::<V>()].iter_mut().enumerate() {
        *v = V::load_f32(&x[h * V::N..]);
    }
    v
}

/// Each lane's sum of `term(c)` (the `f64` chains of column `c`) over
/// columns `c` in `0..m`, in column order from `-0.0`: `Iterator::sum`'s
/// order, lane by lane. Lane `l` of the block is entry `l`.
#[inline(always)]
pub(crate) fn lane_sums<V: Lanes>(m: usize, term: impl Fn(usize) -> [V; 2]) -> [f64; 16] {
    let chains = chains::<V>();
    let mut acc = [V::splat(-0.0); 2];
    for c in 0..m {
        for (acc, t) in acc[..chains].iter_mut().zip(term(c)) {
            *acc = acc.add(t);
        }
    }
    let mut out = [0.0; 16];
    for (h, acc) in acc[..chains].iter().enumerate() {
        acc.store(&mut out[h * V::N..]);
    }
    out
}

thread_local! {
    /// Block column scratch of the row-lane sums, per thread (kernel
    /// helpers included), grown to the widest block seen and reused.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `f(scratch)` with a scratch of `len` `f32`s of this thread.
pub(crate) fn with_lanes<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with_borrow_mut(|s| {
        if s.len() < len {
            s.resize(len, 0.0);
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

    /// On every tier the host runs, [`lane_sums`] adds each lane's terms
    /// in column order from `-0.0`.
    #[test]
    fn lane_sum_adds_each_lane_in_column_order_from_negative_zero() {
        struct Check;
        impl LanePass for Check {
            type Out = ();
            #[inline(always)]
            fn run<V: Lanes>(self) {
                let b = V::F32::N;
                let zero = lane_sums::<V>(0, |_| [V::splat(1.0); 2]);
                assert!(zero[..b].iter().all(|s| s.to_bits() == (-0.0f64).to_bits()), "{b}");
                // 1e16 + 1 + 1 rounds each 1 away; the other order keeps 2.
                let col =
                    |v: f64| -> Vec<f32> { (0..b).map(|l| (v * (l + 1) as f64) as f32).collect() };
                let cols = [col(1e16), col(1.0), col(1.0)];
                let s = lane_sums::<V>(3, |c| widen(&cols[c]));
                for (l, s) in s[..b].iter().enumerate() {
                    let want: f64 = cols.iter().map(|c| c[l] as f64).sum();
                    assert_eq!(s.to_bits(), want.to_bits(), "{b} lanes: lane {l}");
                }
            }
        }
        for tier in Tier::on_host() {
            run_on(tier, Check);
        }
    }

    /// On every tier the host runs, [`transpose_block`] puts row `l` of
    /// the block in lane `l`.
    #[test]
    fn transpose_puts_row_l_in_lane_l() {
        struct Check;
        impl LanePass for Check {
            type Out = ();
            #[inline(always)]
            fn run<V: Lanes>(self) {
                let b = V::F32::N;
                for m in [0, 3, 8, 19, 64] {
                    let x: Vec<f32> = (0..(b + 1) * m).map(|i| i as f32).collect();
                    let mut scratch = vec![0.0; b * m];
                    let cols = transpose_block::<V>(&x, m, 1, &mut scratch);
                    for c in 0..m {
                        for l in 0..b {
                            assert_eq!(cols[c * b + l], x[(1 + l) * m + c], "m {m}, {c}, {l}");
                        }
                    }
                }
            }
        }
        for tier in Tier::on_host() {
            run_on(tier, Check);
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
