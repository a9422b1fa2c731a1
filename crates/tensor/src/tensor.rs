//! Dense 2-D `f32` tensor storage.

use crate::shape::Shape;

/// A dense, row-major, 2-D `f32` tensor.
///
/// The engine trains in single precision, matching the paper (CHGNet and
/// FastCHGNet are trained in Float32; see §VI "Neural network optimization").
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from a shape and a data buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "tensor data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// A `(rows, cols)` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { shape: Shape::new(rows, cols), data: vec![0.0; rows * cols] }
    }

    /// [`Tensor::zeros`] in a buffer from the thread's pool
    /// ([`crate::pool`]): for a per-call tape constant, whose buffer the
    /// tape's reset files for the next call.
    pub fn pooled_zeros(rows: usize, cols: usize) -> Self {
        Tensor { shape: Shape::new(rows, cols), data: crate::pool::zeroed(rows * cols) }
    }

    /// An exact copy in a buffer from the thread's pool, like
    /// [`Tensor::pooled_zeros`]; a `clone()`'s buffer would go back to the
    /// allocator on reset instead.
    pub fn pooled_copy(&self) -> Self {
        Tensor { shape: self.shape, data: crate::pool::from_slice(&self.data) }
    }

    /// A `(rows, cols)` tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// A `(rows, cols)` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { shape: Shape::new(rows, cols), data: vec![value; rows * cols] }
    }

    /// A `(1, 1)` scalar tensor, in a buffer from the thread's pool (a
    /// reduction's output or a tape constant comes back for the next one).
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: crate::pool::from_slice(&[value]) }
    }

    /// A column vector `(n, 1)` from a slice.
    #[cfg(test)]
    pub(crate) fn col_vec(values: &[f32]) -> Self {
        Tensor::from_vec(Shape::new(values.len(), 1), values.to_vec())
    }

    /// A row vector `(1, m)` from a slice.
    pub fn row_vec(values: &[f32]) -> Self {
        Tensor::from_vec(Shape::new(1, values.len()), values.to_vec())
    }

    /// Build from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Tensor::from_vec(Shape::new(r, c), data)
    }

    /// Shape accessor.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Take the data buffer out, leaving the tensor empty but keeping its
    /// shape. Used to release a tape node's storage early while
    /// `Tape::shape` keeps working. Idempotent: a second call returns an
    /// empty `Vec`.
    pub(crate) fn release_data(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// A tensor of `shape` with no buffer: a view's node value.
    pub(crate) fn unallocated(shape: Shape) -> Tensor {
        Tensor { shape, data: Vec::new() }
    }

    /// A zero-element placeholder used to swap a buffer out temporarily.
    pub(crate) fn placeholder() -> Tensor {
        Tensor { shape: Shape::new(0, 0), data: Vec::new() }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows() && c < self.cols());
        self.data[r * self.shape.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows() && c < self.cols());
        &mut self.data[r * self.shape.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.shape.cols;
        &self.data[r * c..(r + 1) * c]
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    /// Panics when the tensor is not `(1, 1)`.
    pub fn item(&self) -> f32 {
        assert!(self.shape.is_scalar(), "item() on non-scalar tensor {}", self.shape);
        self.data[0]
    }

    /// Sum of all elements (f64 accumulator for stability).
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Maximum absolute element (0 for empty tensors).
    #[cfg(test)]
    pub(crate) fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Approximate elementwise equality within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// Transposed copy (output buffer comes from the thread's pool).
    pub fn transposed(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = crate::pool::zeroed(r * c);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(Shape::new(c, r), out)
    }

    /// In-place scaled accumulation `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place fill.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// In-place scale `self *= alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), Shape::new(2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(2, 2);
        assert_eq!(o.sum(), 4.0);
        let s = Tensor::scalar(7.0);
        assert_eq!(s.item(), 7.0);
    }

    #[test]
    fn rows_and_access() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.at(0, 1), 2.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        let tt = t.transposed();
        assert_eq!(tt.at(1, 0), 2.0);
        assert_eq!(tt.shape(), Shape::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(Shape::new(2, 2), vec![1.0; 3]);
    }

    #[test]
    fn axpy_and_stats() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert!(a.approx_eq(&Tensor::full(2, 2, 2.5), 1e-6));
        assert_eq!(a.max_abs(), 2.5);
        assert!(a.all_finite());
    }

    #[test]
    fn col_row_vec() {
        let c = Tensor::col_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), Shape::new(3, 1));
        let r = Tensor::row_vec(&[1.0, 2.0]);
        assert_eq!(r.shape(), Shape::new(1, 2));
    }
}
