//! Row gather / concatenation / slicing kernels.

use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Gather rows: `out[r, :] = a[idx[r], :]`.
///
/// This is the message-construction primitive: selecting the features of
/// bond endpoints (`v_i`, `v_j`) or of the bonds participating in an angle.
///
/// # Panics
/// Panics when an index is out of range.
pub fn gather_rows(a: &Tensor, idx: &[u32]) -> Tensor {
    let m = a.cols();
    for &i in idx {
        assert!((i as usize) < a.rows(), "gather index {i} out of range ({} rows)", a.rows());
    }
    let n = idx.len();
    let mut out = crate::pool::with_capacity(n * m);
    let d = a.data();
    par::fill_rows(&mut out, n, m, par::chunks(n * m / 2, n), |rows, out| {
        for &i in &idx[rows] {
            let i = i as usize;
            out.extend_from_slice(&d[i * m..(i + 1) * m]);
        }
    });
    Tensor::from_vec(Shape::new(n, m), out)
}

/// One column block of a view ([`crate::Tape::column_blocks`]): the rows
/// of `src`, or with `idx` the rows `idx[0], idx[1], …` of `src` — what
/// `gather_rows(src, idx)` would hold, read in place. The caller checks
/// the indices.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block<'a> {
    pub src: &'a Tensor,
    pub idx: Option<&'a [u32]>,
}

/// The transpose of the column `blocks` side by side (`rows` rows each):
/// bitwise `concat_cols` of the gathered blocks, transposed, with no block
/// materialised.
pub(crate) fn transpose_blocks(blocks: &[Block], rows: usize) -> Tensor {
    let k: usize = blocks.iter().map(|x| x.src.cols()).sum();
    let mut out = crate::pool::with_capacity(k * rows);
    for x in blocks {
        let (m, d) = (x.src.cols(), x.src.data());
        for c in 0..m {
            out.extend((0..rows).map(|r| d[x.idx.map_or(r, |idx| idx[r] as usize) * m + c]));
        }
    }
    Tensor::from_vec(Shape::new(k, rows), out)
}

/// Concatenate along columns: `out = [a_0 | a_1 | ... ]`. All parts must
/// share a row count.
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols of zero tensors");
    let rows = parts[0].rows();
    let total: usize = parts.iter().map(|t| t.cols()).sum();
    for t in parts {
        assert_eq!(t.rows(), rows, "concat_cols row mismatch");
    }
    let mut out = crate::pool::with_capacity(rows * total);
    par::fill_rows(&mut out, rows, total, par::chunks(rows * total / 2, rows), |rs, out| {
        for r in rs {
            for t in parts {
                out.extend_from_slice(t.row(r));
            }
        }
    });
    Tensor::from_vec(Shape::new(rows, total), out)
}

/// Concatenate along rows (vertical stack). All parts must share a column
/// count. Used by Alg. 2 line 10 to assemble batched lattices/coordinates.
pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_rows of zero tensors");
    let cols = parts[0].cols();
    let total: usize = parts.iter().map(|t| t.rows()).sum();
    let mut out = crate::pool::with_capacity(total * cols);
    for t in parts {
        assert_eq!(t.cols(), cols, "concat_rows col mismatch");
        out.extend_from_slice(t.data());
    }
    Tensor::from_vec(Shape::new(total, cols), out)
}

/// Slice columns `[start, start+len)`.
pub fn slice_cols(a: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start + len <= a.cols(), "slice_cols out of range");
    let rows = a.rows();
    let mut out = crate::pool::with_capacity(rows * len);
    par::fill_rows(&mut out, rows, len, par::chunks(rows * len / 2, rows), |rs, out| {
        for r in rs {
            out.extend_from_slice(&a.row(r)[start..start + len]);
        }
    });
    Tensor::from_vec(Shape::new(rows, len), out)
}

/// Slice rows `[start, start+len)`.
pub fn slice_rows(a: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start + len <= a.rows(), "slice_rows out of range");
    let cols = a.cols();
    let out = crate::pool::from_slice(&a.data()[start * cols..(start + len) * cols]);
    Tensor::from_vec(Shape::new(len, cols), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::segment::segment_sum;

    fn t23() -> Tensor {
        Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn transposed_blocks_are_the_transposed_concat() {
        let (v, e) = (t23(), Tensor::from_rows(&[vec![7.0], vec![-0.0], vec![9.0]]));
        let (iv, ie) = ([1u32, 0, 1], [2u32, 2, 1]);
        let blocks = [
            Block { src: &v, idx: Some(&iv) },
            Block { src: &e, idx: Some(&ie) },
            Block { src: &e, idx: None },
        ];
        let concat = concat_cols(&[&gather_rows(&v, &iv), &gather_rows(&e, &ie), &e]);
        let got = transpose_blocks(&blocks, 3);
        assert_eq!(got.shape(), Shape::new(5, 3));
        assert_eq!(
            crate::kernels::bits(got.data()),
            crate::kernels::bits(concat.transposed().data())
        );
    }

    #[test]
    fn gather_basic() {
        let g = gather_rows(&t23(), &[1, 0, 1]);
        assert_eq!(g.shape(), Shape::new(3, 3));
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_oob_panics() {
        let _ = gather_rows(&t23(), &[2]);
    }

    #[test]
    fn concat_and_slice_cols() {
        let a = t23();
        let b = Tensor::from_rows(&[vec![7.0], vec![8.0]]);
        let c = concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), Shape::new(2, 4));
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0, 7.0]);
        let s = slice_cols(&c, 3, 1);
        assert!(s.approx_eq(&b, 0.0));
        let s = slice_cols(&c, 0, 3);
        assert!(s.approx_eq(&a, 0.0));
    }

    #[test]
    fn concat_and_slice_rows() {
        let a = t23();
        let b = Tensor::from_rows(&[vec![7.0, 8.0, 9.0]]);
        let c = concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), Shape::new(3, 3));
        assert_eq!(c.row(2), &[7.0, 8.0, 9.0]);
        assert!(slice_rows(&c, 0, 2).approx_eq(&a, 0.0));
        assert!(slice_rows(&c, 2, 1).approx_eq(&b, 0.0));
    }

    #[test]
    fn scatter_is_gather_adjoint() {
        // <gather(a, idx), g> == <a, scatter(g, idx)>
        let a = t23();
        let idx = [1u32, 0, 1, 1];
        let g = Tensor::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let ga = gather_rows(&a, &idx);
        let sg = segment_sum(&g, &idx, a.rows());
        let lhs: f32 = ga.data().iter().zip(g.data()).map(|(x, y)| x * y).sum();
        let rhs: f32 = a.data().iter().zip(sg.data()).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn scatter_accumulates() {
        let g = Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let out = segment_sum(&g, &[0, 0, 1], 2);
        assert_eq!(out.data(), &[3.0, 3.0]);
    }
}
