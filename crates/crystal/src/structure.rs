//! Periodic crystal structures.

use crate::element::Element;
use crate::lattice::Lattice;

/// A periodic crystal: a lattice plus atomic species and fractional
/// coordinates. The unit is the conventional cell; all graph construction
/// applies periodic boundary conditions.
#[derive(Clone, Debug, PartialEq)]
pub struct Structure {
    /// The periodic lattice.
    pub lattice: Lattice,
    /// Atomic species, one per site.
    pub species: Vec<Element>,
    /// Fractional coordinates, one `[f64; 3]` per site, wrapped into [0,1).
    pub frac_coords: Vec<[f64; 3]>,
}

impl Structure {
    /// Build a structure, wrapping fractional coordinates into `[0, 1)`.
    ///
    /// # Panics
    /// Panics when species and coordinate counts differ or the structure is
    /// empty.
    pub fn new(lattice: Lattice, species: Vec<Element>, mut frac_coords: Vec<[f64; 3]>) -> Self {
        assert_eq!(species.len(), frac_coords.len(), "species/coords length mismatch");
        assert!(!species.is_empty(), "empty structure");
        for f in &mut frac_coords {
            for x in f.iter_mut() {
                *x -= x.floor();
            }
        }
        Structure { lattice, species, frac_coords }
    }

    /// Number of atoms in the cell.
    pub fn n_atoms(&self) -> usize {
        self.species.len()
    }

    /// Cartesian coordinates of every site (Å).
    pub fn cart_coords(&self) -> Vec<[f64; 3]> {
        self.frac_coords.iter().map(|&f| self.lattice.frac_to_cart(f)).collect()
    }

    /// Cell volume (Å³).
    pub fn volume(&self) -> f64 {
        self.lattice.volume()
    }

    /// Chemical formula, species sorted by atomic number (e.g. `Li2MnO4`).
    pub fn formula(&self) -> String {
        let mut counts: Vec<(Element, usize)> = Vec::new();
        for &s in &self.species {
            match counts.iter_mut().find(|(e, _)| *e == s) {
                Some((_, c)) => *c += 1,
                None => counts.push((s, 1)),
            }
        }
        counts.sort_by_key(|&(e, _)| e);
        counts
            .into_iter()
            .map(
                |(e, c)| {
                    if c == 1 {
                        e.symbol().to_string()
                    } else {
                        format!("{}{}", e.symbol(), c)
                    }
                },
            )
            .collect()
    }

    /// Displace every site by Cartesian vectors (Å), re-wrapping into the
    /// cell. Used by MD and by finite-difference force validation.
    pub fn displace_cart(&mut self, disp: &[[f64; 3]]) {
        assert_eq!(disp.len(), self.n_atoms(), "displacement count mismatch");
        let carts = self.cart_coords();
        for (i, (c, d)) in carts.iter().zip(disp).enumerate() {
            let moved = [c[0] + d[0], c[1] + d[1], c[2] + d[2]];
            let mut f = self.lattice.cart_to_frac(moved);
            for x in f.iter_mut() {
                *x -= x.floor();
            }
            self.frac_coords[i] = f;
        }
    }

    /// Build the `(na, nb, nc)` supercell: the lattice is scaled per axis
    /// and every site replicated into each image cell.
    pub fn supercell(&self, na: usize, nb: usize, nc: usize) -> Structure {
        assert!(na > 0 && nb > 0 && nc > 0, "supercell multipliers must be positive");
        let m = self.lattice.m;
        let lattice = Lattice::new(
            [m[0][0] * na as f64, m[0][1] * na as f64, m[0][2] * na as f64],
            [m[1][0] * nb as f64, m[1][1] * nb as f64, m[1][2] * nb as f64],
            [m[2][0] * nc as f64, m[2][1] * nc as f64, m[2][2] * nc as f64],
        );
        let mut species = Vec::with_capacity(self.n_atoms() * na * nb * nc);
        let mut coords = Vec::with_capacity(self.n_atoms() * na * nb * nc);
        for ia in 0..na {
            for ib in 0..nb {
                for ic in 0..nc {
                    for (el, f) in self.species.iter().zip(&self.frac_coords) {
                        species.push(*el);
                        coords.push([
                            (f[0] + ia as f64) / na as f64,
                            (f[1] + ib as f64) / nb as f64,
                            (f[2] + ic as f64) / nc as f64,
                        ]);
                    }
                }
            }
        }
        Structure::new(lattice, species, coords)
    }

    /// Minimum-image distance between two sites (searches neighbor images;
    /// exact for cutoffs below half the smallest slab height). The
    /// reference for the dataset screen's separation test, which forms the
    /// same distances with the images and positions computed once.
    #[cfg(test)]
    pub fn min_image_distance(&self, i: usize, j: usize) -> f64 {
        let xi = self.lattice.frac_to_cart(self.frac_coords[i]);
        let xj = self.lattice.frac_to_cart(self.frac_coords[j]);
        let mut best = f64::INFINITY;
        for a in -1..=1 {
            for b in -1..=1 {
                for c in -1..=1 {
                    let img = self.lattice.frac_to_cart([a as f64, b as f64, c as f64]);
                    let d =
                        [xj[0] + img[0] - xi[0], xj[1] + img[1] - xi[1], xj[2] + img[2] - xi[2]];
                    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    if r < best {
                        best = r;
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nacl_like() -> Structure {
        Structure::new(
            Lattice::cubic(4.0),
            vec![Element::new(11), Element::new(17)],
            vec![[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
        )
    }

    #[test]
    fn basics() {
        let s = nacl_like();
        assert_eq!(s.n_atoms(), 2);
        assert!((s.volume() - 64.0).abs() < 1e-9);
        assert_eq!(s.formula(), "NaCl");
        let carts = s.cart_coords();
        assert_eq!(carts[1], [2.0, 2.0, 2.0]);
    }

    #[test]
    fn coords_wrap() {
        let s =
            Structure::new(Lattice::cubic(3.0), vec![Element::new(3)], vec![[1.25, -0.25, 2.0]]);
        let f = s.frac_coords[0];
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert!((f[1] - 0.75).abs() < 1e-12);
        assert!(f[2].abs() < 1e-12);
    }

    #[test]
    fn formula_counts() {
        let s = Structure::new(
            Lattice::cubic(5.0),
            vec![Element::new(3), Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.0], [0.25, 0.25, 0.25]],
        );
        assert_eq!(s.formula(), "Li2O");
    }

    #[test]
    fn displacement_roundtrip() {
        let mut s = nacl_like();
        let before = s.cart_coords();
        s.displace_cart(&[[0.1, 0.0, 0.0], [0.0, -0.2, 0.0]]);
        let after = s.cart_coords();
        assert!((after[0][0] - before[0][0] - 0.1).abs() < 1e-9);
        assert!((after[1][1] - before[1][1] + 0.2).abs() < 1e-9);
    }

    #[test]
    fn min_image_distance_symmetric() {
        let s = nacl_like();
        let d = s.min_image_distance(0, 1);
        // (2,2,2) is closest at sqrt(12).
        assert!((d - 12.0f64.sqrt()).abs() < 1e-9);
        assert!((s.min_image_distance(1, 0) - d).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty structure")]
    fn empty_panics() {
        let _ = Structure::new(Lattice::cubic(3.0), vec![], vec![]);
    }

    #[test]
    fn supercell_replicates() {
        let s = nacl_like();
        let sc = s.supercell(2, 1, 3);
        assert_eq!(sc.n_atoms(), 2 * 2 * 3);
        assert!((sc.volume() - 6.0 * s.volume()).abs() < 1e-9);
        // Formula scaled.
        assert_eq!(sc.formula(), "Na6Cl6");
        // Pairwise separations never below the unit cell's minimum.
        let min_unit = s.min_image_distance(0, 1);
        for i in 0..sc.n_atoms() {
            for j in (i + 1)..sc.n_atoms() {
                assert!(sc.min_image_distance(i, j) >= min_unit - 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_supercell_panics() {
        let _ = nacl_like().supercell(0, 1, 1);
    }
}
