//! Periodic lattices.

/// A 3-D periodic lattice defined by three row vectors (Å).
///
/// Row-vector convention throughout: a fractional coordinate `f` maps to
/// Cartesian as `x = f @ L`, matching Alg. 1 line 5 of the paper
/// (`r_card = r_frac @ L`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lattice {
    /// Rows are the lattice vectors a, b, c.
    pub m: [[f64; 3]; 3],
}

impl Lattice {
    /// Build from three row vectors.
    pub fn new(a: [f64; 3], b: [f64; 3], c: [f64; 3]) -> Self {
        Lattice { m: [a, b, c] }
    }

    /// Cubic lattice with edge `a`.
    pub fn cubic(a: f64) -> Self {
        Lattice::new([a, 0.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, a])
    }

    /// Orthorhombic lattice with edges `a`, `b`, `c`.
    pub fn orthorhombic(a: f64, b: f64, c: f64) -> Self {
        Lattice::new([a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c])
    }

    /// Lattice vector rows as a flat `[f32; 9]` (row-major), for feeding
    /// the tensor engine.
    pub fn to_f32_rows(&self) -> [f32; 9] {
        let mut out = [0.0f32; 9];
        for i in 0..3 {
            for j in 0..3 {
                out[i * 3 + j] = self.m[i][j] as f32;
            }
        }
        out
    }

    /// Signed volume (Å³) via the scalar triple product.
    pub fn volume(&self) -> f64 {
        let [a, b, c] = self.m;
        (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))
            .abs()
    }

    /// Fractional to Cartesian: `x = f @ L`.
    pub fn frac_to_cart(&self, f: [f64; 3]) -> [f64; 3] {
        let mut x = [0.0; 3];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = f[0] * self.m[0][j] + f[1] * self.m[1][j] + f[2] * self.m[2][j];
        }
        x
    }

    /// Cartesian to fractional: solves `f @ L = x`.
    pub fn cart_to_frac(&self, x: [f64; 3]) -> [f64; 3] {
        let inv = self.inverse();
        let mut f = [0.0; 3];
        for (j, fj) in f.iter_mut().enumerate() {
            *fj = x[0] * inv[0][j] + x[1] * inv[1][j] + x[2] * inv[2][j];
        }
        f
    }

    /// Inverse of the lattice matrix.
    pub fn inverse(&self) -> [[f64; 3]; 3] {
        let m = &self.m;
        let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
        assert!(det.abs() > 1e-12, "degenerate lattice (det = {det})");
        let inv_det = 1.0 / det;
        let mut inv = [[0.0; 3]; 3];
        for (i, inv_row) in inv.iter_mut().enumerate() {
            for (j, e) in inv_row.iter_mut().enumerate() {
                // Cofactor expansion; note the (j, i) transpose.
                let (a, b) = ((j + 1) % 3, (j + 2) % 3);
                let (c, d) = ((i + 1) % 3, (i + 2) % 3);
                *e = (m[a][c] * m[b][d] - m[a][d] * m[b][c]) * inv_det;
            }
        }
        inv
    }

    /// Perpendicular slab thickness `h_i = V / area_i` along each lattice
    /// direction `i`, `area_i` that of the face spanned by the other two
    /// lattice vectors.
    pub fn slab_thickness(&self) -> [f64; 3] {
        let v = self.volume();
        std::array::from_fn(|i| {
            let b = self.m[(i + 1) % 3];
            let c = self.m[(i + 2) % 3];
            let cross =
                [b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0]];
            let area = (cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]).sqrt();
            v / area.max(1e-12)
        })
    }

    /// Number of periodic images to search along each lattice direction so
    /// that every neighbor within `cutoff` is found: `ceil(cutoff / h_i)`
    /// with `h_i` the [`Lattice::slab_thickness`].
    pub fn image_ranges(&self, cutoff: f64) -> [i32; 3] {
        self.slab_thickness().map(|h| (cutoff / h).ceil() as i32)
    }

    /// Apply a symmetric strain `(I + ε)` to the lattice (used by the
    /// stress oracle's finite-difference validation and the MD barostat).
    pub fn strained(&self, eps: [[f64; 3]; 3]) -> Lattice {
        let mut out = [[0.0; 3]; 3];
        for (i, orow) in out.iter_mut().enumerate() {
            for (j, o) in orow.iter_mut().enumerate() {
                *o = self.m[i][j];
                for (k, erow) in eps.iter().enumerate() {
                    *o += self.m[i][k] * erow[j];
                }
            }
        }
        Lattice { m: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_volume_and_roundtrip() {
        let l = Lattice::cubic(4.0);
        assert!((l.volume() - 64.0).abs() < 1e-12);
        let f = [0.25, 0.5, 0.75];
        let x = l.frac_to_cart(f);
        assert_eq!(x, [1.0, 2.0, 3.0]);
        let f2 = l.cart_to_frac(x);
        for i in 0..3 {
            assert!((f[i] - f2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_roundtrip() {
        let l = Lattice::new([3.0, 0.1, 0.0], [0.4, 2.8, 0.2], [0.0, -0.3, 3.5]);
        let f = [0.1, 0.7, 0.3];
        let f2 = l.cart_to_frac(l.frac_to_cart(f));
        for i in 0..3 {
            assert!((f[i] - f2[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let l = Lattice::new([3.0, 0.1, 0.0], [0.4, 2.8, 0.2], [0.0, -0.3, 3.5]);
        let inv = l.inverse();
        for n in 0..9 {
            let (i, j) = (n / 3, n % 3);
            let s: f64 = (0..3).map(|k| l.m[i][k] * inv[k][j]).sum();
            let expect = if i == j { 1.0 } else { 0.0 };
            assert!((s - expect).abs() < 1e-10, "({i},{j}): {s}");
        }
    }

    #[test]
    fn image_ranges_cubic() {
        let l = Lattice::cubic(4.0);
        assert_eq!(l.image_ranges(6.0), [2, 2, 2]);
        assert_eq!(l.image_ranges(3.9), [1, 1, 1]);
        let thin = Lattice::orthorhombic(2.0, 10.0, 10.0);
        assert_eq!(thin.image_ranges(6.0), [3, 1, 1]);
    }

    #[test]
    fn strain_changes_volume_to_first_order() {
        let l = Lattice::cubic(3.0);
        let e = 1e-4;
        let strained = l.strained([[e, 0.0, 0.0], [0.0, e, 0.0], [0.0, 0.0, e]]);
        let dv = (strained.volume() - l.volume()) / l.volume();
        assert!((dv - 3.0 * e).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "degenerate lattice")]
    fn degenerate_lattice_panics() {
        let l = Lattice::new([1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]);
        let _ = l.inverse();
    }
}
