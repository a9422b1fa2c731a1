//! Segment reduction kernels.
//!
//! Segment sums are the aggregation primitive of message passing (Eq. 1 of
//! the paper): messages on bonds are scatter-added into their central atom,
//! per-atom energies are scatter-added into their graph's total energy, and
//! so on. Segments are described by an arbitrary `u32` id per row (ids need
//! not be sorted).

use crate::kernels::gather::Block;
use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::ops::Range;

/// Segment sum over rows: `out[seg[r], :] += a[r, :]`, output has `nseg`
/// rows.
///
/// # Panics
/// Panics when `seg.len() != a.rows()` or an id is `>= nseg`.
pub fn segment_sum(a: &Tensor, seg: &[u32], nseg: usize) -> Tensor {
    segment_sum_cols(a, 0..a.cols(), seg, nseg)
}

/// [`segment_sum`] of the column window `cols` of `a`, read in place:
/// bitwise `segment_sum(slice_cols(a, cols))`. Rows are added in
/// ascending order.
///
/// Large inputs split the *output* rows into one contiguous range per
/// thread. Each thread walks every input row in order and adds those whose
/// id falls in its range, so each output element receives its terms in the
/// serial order and the result is bitwise the serial one. (Splitting by
/// column range would keep that order too, but hands every thread strided
/// pieces of every output row.)
///
/// # Panics
/// Panics when `seg.len() != a.rows()`, `cols` runs past `a`'s columns or
/// an id is `>= nseg`.
pub(crate) fn segment_sum_cols(a: &Tensor, cols: Range<usize>, seg: &[u32], nseg: usize) -> Tensor {
    assert_eq!(seg.len(), a.rows(), "segment array length mismatch");
    assert!(cols.end <= a.cols(), "segment_sum columns {cols:?} past {}", a.shape());
    for &s in seg {
        assert!((s as usize) < nseg, "segment id {s} out of range ({nseg} segments)");
    }
    let (m, w) = (a.cols(), cols.len());
    let mut out = crate::pool::zeroed(nseg * w);
    let d = a.data();
    // One range per thread: every range walks all of `seg`.
    let n_chunks = par::chunks(seg.len() * w, nseg).min(par::width());
    par::for_row_chunks(&mut out, nseg, w, n_chunks, |segs, out| {
        for (r, &s) in seg.iter().enumerate() {
            let s = s as usize;
            if !segs.contains(&s) {
                continue;
            }
            let src = &d[r * m + cols.start..][..w];
            let dst = &mut out[(s - segs.start) * w..(s - segs.start + 1) * w];
            for (o, &x) in dst.iter_mut().zip(src) {
                *o += x;
            }
        }
    });
    Tensor::from_vec(Shape::new(nseg, w), out)
}

/// `segment_sum(w_1 ⊙ x, seg, nseg)` or `segment_sum((w_1 ⊙ w_2) ⊙ x, seg,
/// nseg)`, weight `i`'s row `r` read in place as row `idx_i[r]` of its
/// source (row `r` without an index): bitwise the gathers, the products
/// and [`segment_sum`], with no product written. The output rows split
/// across threads as in [`segment_sum_cols`], and each output row adds
/// its terms in ascending row order.
///
/// # Panics
/// Panics when `seg.len() != x.rows()`, an id is `>= nseg` or there are
/// not one or two weights. The caller checks the weights' shapes and
/// indices.
pub(crate) fn weighted_segment_sum(
    x: &Tensor,
    weights: &[Block],
    seg: &[u32],
    nseg: usize,
) -> Tensor {
    let (rows, m) = (x.rows(), x.cols());
    assert!(matches!(weights.len(), 1 | 2), "one or two weights");
    assert_eq!(seg.len(), rows, "segment array length mismatch");
    for &s in seg {
        assert!((s as usize) < nseg, "segment id {s} out of range ({nseg} segments)");
    }
    let mut out = crate::pool::zeroed(nseg * m);
    let n_chunks = par::chunks(rows * m * (weights.len() + 1), nseg).min(par::width());
    par::for_row_chunks(&mut out, nseg, m, n_chunks, |segs, out| {
        let mut p = vec![0.0; m];
        for (r, &s) in seg.iter().enumerate() {
            let s = s as usize;
            if !segs.contains(&s) {
                continue;
            }
            p.copy_from_slice(weight_row(&weights[0], r, m));
            if let Some(w) = weights.get(1) {
                for (p, &w) in p.iter_mut().zip(weight_row(w, r, m)) {
                    *p *= w;
                }
            }
            let dst = &mut out[(s - segs.start) * m..(s - segs.start + 1) * m];
            for ((o, &p), &x) in dst.iter_mut().zip(&p).zip(&x.data()[r * m..][..m]) {
                *o += p * x;
            }
        }
    });
    Tensor::from_vec(Shape::new(nseg, m), out)
}

/// Row `r` of weight `w`, `m` long.
fn weight_row<'a>(w: &Block<'a>, r: usize, m: usize) -> &'a [f32] {
    let i = w.idx.map_or(r, |idx| idx[r] as usize);
    &w.src.data()[i * m..(i + 1) * m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gather::gather_rows;

    #[test]
    fn basic_segment_sum() {
        let a =
            Tensor::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.0], vec![3.0, 1.0], vec![4.0, 0.0]]);
        let out = segment_sum(&a, &[0, 1, 0, 2], 3);
        assert_eq!(out.row(0), &[4.0, 2.0]);
        assert_eq!(out.row(1), &[2.0, 0.0]);
        assert_eq!(out.row(2), &[4.0, 0.0]);
    }

    #[test]
    fn empty_segment_is_zero() {
        let a = Tensor::from_rows(&[vec![5.0]]);
        let out = segment_sum(&a, &[2], 4);
        assert_eq!(out.data(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn segment_sum_is_gather_adjoint() {
        // <segsum(a, seg), g> == <a, gather(g, seg)>
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let seg = [1u32, 0, 1];
        let g = Tensor::from_rows(&[vec![0.5, -1.0], vec![2.0, 1.0]]);
        let ss = segment_sum(&a, &seg, 2);
        let gg = gather_rows(&g, &seg);
        let lhs: f32 = ss.data().iter().zip(g.data()).map(|(x, y)| x * y).sum();
        let rhs: f32 = a.data().iter().zip(gg.data()).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    /// The serial loop: `out[seg[r], :] += a[r, cols]` in ascending `r`.
    fn serial(a: &Tensor, cols: Range<usize>, seg: &[u32], nseg: usize) -> Vec<u32> {
        let mut out = vec![0.0f32; nseg * cols.len()];
        for (r, &s) in seg.iter().enumerate() {
            let dst = &mut out[s as usize * cols.len()..][..cols.len()];
            for (o, &x) in dst.iter_mut().zip(&a.row(r)[cols.clone()]) {
                *o += x;
            }
        }
        crate::kernels::bits(&out)
    }

    #[test]
    fn split_segment_sums_are_bitwise_the_serial_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut case = 0;
        for rows in [0, 1, 5, 33, 4099] {
            // Segments fewer than, about as many as, and more than rows
            // (so some are empty).
            for nseg in [1, 7, rows.max(1), 3 * rows + 2] {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let data = (0..rows * 9).map(|_| crate::kernels::test_value(rng)).collect();
                let a = Tensor::from_vec(Shape::new(rows, 9), data);
                let unsorted: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..nseg) as u32).collect();
                let mut sorted = unsorted.clone();
                sorted.sort_unstable();
                // Sorted ids that skip segments, too.
                let sparse: Vec<u32> = (0..rows).map(|r| (r * nseg / rows.max(1)) as u32).collect();
                for (ids, what) in
                    [(&unsorted, "unsorted"), (&sorted, "sorted"), (&sparse, "sparse")]
                {
                    for cols in [0..9, 2..7, 4..4] {
                        let want = serial(&a, cols.clone(), ids, nseg);
                        for width in [1, 2] {
                            let got = par::with_width(width, || {
                                segment_sum_cols(&a, cols.clone(), ids, nseg)
                            });
                            let got = crate::kernels::bits(got.data());
                            assert_eq!(
                                got, want,
                                "{what} {rows} rows, {nseg} segments, {cols:?}, width {width}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_segment_sums_are_bitwise_the_composed_kernels() {
        use crate::kernels::elementwise::{binary, BinKind};
        use crate::kernels::{bits, test_rows};
        use crate::shape::Bcast;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mul = |a: &Tensor, b: &Tensor| {
            binary(BinKind::Mul, a, Bcast::Full, b, Bcast::Full, a.shape())
        };
        let mut case = 0;
        for rows in [0, 1, 5, 33, 4099] {
            for m in [1, 3, 16, 17] {
                case += 1;
                let rng = &mut StdRng::seed_from_u64(case);
                let (x, g_rows) = (test_rows(rng, rows, m), 7.max(rows / 3));
                let src = [test_rows(rng, 11, m), test_rows(rng, rows, m)];
                let mut ids =
                    |n: usize| (0..rows).map(|_| rng.gen_range(0..n) as u32).collect::<Vec<_>>();
                let (seg, i1, i2) = (ids(g_rows), ids(11), ids(11));
                // Atom Conv's one unindexed weight and Bond Conv's one
                // source read through two index tables.
                let cases: [Vec<Block>; 2] = [
                    vec![Block { src: &src[1], idx: None }],
                    vec![
                        Block { src: &src[0], idx: Some(&i1) },
                        Block { src: &src[0], idx: Some(&i2) },
                    ],
                ];
                for weights in &cases {
                    // The gathers, the product and the segment sum.
                    let ws: Vec<Tensor> = weights
                        .iter()
                        .map(|w| w.idx.map_or_else(|| w.src.clone(), |idx| gather_rows(w.src, idx)))
                        .collect();
                    let p = ws[1..].iter().fold(ws[0].clone(), |p, w| mul(&p, w));
                    let want = bits(segment_sum(&mul(&p, &x), &seg, g_rows).data());
                    for width in [1, 2] {
                        let what = format!(
                            "{} weights, {rows}x{m}, width {width} (seed {case})",
                            weights.len()
                        );
                        let got = par::with_width(width, || {
                            weighted_segment_sum(&x, weights, &seg, g_rows)
                        });
                        assert_eq!(bits(got.data()), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_segment_panics() {
        let a = Tensor::ones(1, 1);
        let _ = segment_sum(&a, &[3], 2);
    }
}
