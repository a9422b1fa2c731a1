//! Two-dimensional shapes and broadcast resolution.
//!
//! Every tensor in this engine is a dense, row-major, 2-D `f32` matrix.
//! Scalars are `(1, 1)`, column vectors `(n, 1)`, row vectors `(1, m)`.
//! This matches the data layout of the CHGNet workload, where every feature
//! block (atom features, bond features, angle features, bases) is a matrix
//! whose rows are graph entities and whose columns are feature channels.

/// A dense 2-D shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Shape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Shape {
    /// Create a shape.
    #[inline]
    pub const fn new(rows: usize, cols: usize) -> Self {
        Shape { rows, cols }
    }

    /// The scalar shape `(1, 1)`.
    #[inline]
    pub const fn scalar() -> Self {
        Shape { rows: 1, cols: 1 }
    }

    /// Total number of elements.
    #[inline]
    pub const fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the shape holds no elements.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this is the `(1, 1)` scalar shape.
    #[inline]
    pub const fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Shape of the transpose.
    #[cfg(test)]
    const fn transposed(&self) -> Self {
        Shape { rows: self.cols, cols: self.rows }
    }
}

impl core::fmt::Display for Shape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}x{})", self.rows, self.cols)
    }
}

/// How one operand of a binary elementwise op is broadcast against the
/// output shape.
///
/// Supported patterns (matching what the CHGNet graph needs):
/// `Full` (same shape), `Col` (an `(n,1)` column stretched across columns),
/// `Row` (a `(1,m)` row stretched across rows) and `Scalar` (a `(1,1)`
/// value stretched everywhere).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bcast {
    /// Operand already has the output shape.
    Full,
    /// Operand is `(n, 1)`; broadcast across columns.
    Col,
    /// Operand is `(1, m)`; broadcast across rows.
    Row,
    /// Operand is `(1, 1)`; broadcast everywhere.
    Scalar,
}

impl Bcast {
    /// Resolve how `operand` broadcasts against `out`. Returns `None` when
    /// the shapes are incompatible.
    pub fn resolve(operand: Shape, out: Shape) -> Option<Bcast> {
        if operand == out {
            Some(Bcast::Full)
        } else if operand.is_scalar() {
            Some(Bcast::Scalar)
        } else if operand.cols == 1 && operand.rows == out.rows {
            Some(Bcast::Col)
        } else if operand.rows == 1 && operand.cols == out.cols {
            Some(Bcast::Row)
        } else {
            None
        }
    }

    /// The linear index into the operand buffer for output element `(r, c)`.
    #[inline]
    pub fn index(self, r: usize, c: usize, cols: usize) -> usize {
        match self {
            Bcast::Full => r * cols + c,
            Bcast::Col => r,
            Bcast::Row => c,
            Bcast::Scalar => 0,
        }
    }
}

/// Compute the broadcasted output shape of two operands, or `None` when
/// incompatible. Broadcasting follows NumPy-style rules restricted to the
/// four patterns in [`Bcast`].
pub fn broadcast_shape(a: Shape, b: Shape) -> Option<Shape> {
    let rows = dim_broadcast(a.rows, b.rows)?;
    let cols = dim_broadcast(a.cols, b.cols)?;
    let out = Shape::new(rows, cols);
    // Both operands must resolve against the output.
    Bcast::resolve(a, out)?;
    Bcast::resolve(b, out)?;
    Some(out)
}

#[inline]
fn dim_broadcast(a: usize, b: usize) -> Option<usize> {
    if a == b {
        Some(a)
    } else if a == 1 {
        Some(b)
    } else if b == 1 {
        Some(a)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new(3, 4);
        assert_eq!(s.len(), 12);
        assert!(!s.is_scalar());
        assert_eq!(s.transposed(), Shape::new(4, 3));
        assert!(Shape::scalar().is_scalar());
        assert_eq!(format!("{s}"), "(3x4)");
    }

    #[test]
    fn resolve_full() {
        let out = Shape::new(5, 7);
        assert_eq!(Bcast::resolve(out, out), Some(Bcast::Full));
    }

    #[test]
    fn resolve_col_row_scalar() {
        let out = Shape::new(5, 7);
        assert_eq!(Bcast::resolve(Shape::new(5, 1), out), Some(Bcast::Col));
        assert_eq!(Bcast::resolve(Shape::new(1, 7), out), Some(Bcast::Row));
        assert_eq!(Bcast::resolve(Shape::new(1, 1), out), Some(Bcast::Scalar));
        assert_eq!(Bcast::resolve(Shape::new(4, 1), out), None);
        assert_eq!(Bcast::resolve(Shape::new(1, 6), out), None);
    }

    #[test]
    fn broadcast_shapes() {
        let a = Shape::new(5, 7);
        assert_eq!(broadcast_shape(a, Shape::new(5, 1)), Some(a));
        assert_eq!(broadcast_shape(Shape::new(1, 7), a), Some(a));
        assert_eq!(broadcast_shape(Shape::scalar(), a), Some(a));
        assert_eq!(broadcast_shape(a, a), Some(a));
        assert_eq!(broadcast_shape(Shape::new(5, 2), Shape::new(5, 7)), None);
        // (n,1) x (1,m) outer-style broadcast is supported.
        assert_eq!(broadcast_shape(Shape::new(5, 1), Shape::new(1, 7)), Some(Shape::new(5, 7)));
    }

    #[test]
    fn bcast_indexing() {
        assert_eq!(Bcast::Full.index(2, 3, 4), 11);
        assert_eq!(Bcast::Col.index(2, 3, 4), 2);
        assert_eq!(Bcast::Row.index(2, 3, 4), 3);
        assert_eq!(Bcast::Scalar.index(2, 3, 4), 0);
    }
}
