//! Periodic neighbor lists.
//!
//! Both searches read one **image table** per call: the Cartesian offset
//! `lattice.frac_to_cart(image)` of every periodic image a bond can use,
//! computed once per image rather than once per candidate pair, and laid
//! out as contiguous `x`, `y`, `z` lanes in `(a, b, c)` order. Every
//! candidate is tested with the reference arithmetic
//! `v = carts[j] + img − carts[i]`, `r2 = v0·v0 + v1·v1 + v2·v2` in that
//! order (no fused multiply-add), and kept when `r2 <= cutoff²` and
//! `r2 > 1e-12`, so every accepted bond is bitwise what a per-candidate
//! `frac_to_cart` gives.
//!
//! Each search first cuts the images to those that can come within the
//! cutoff. Along lattice direction `d`, a bond vector's component normal
//! to the other two lattice vectors is `(f_j − f_i + a_d)·h_d`, with `h_d`
//! the slab thickness of [`crate::lattice::Lattice::image_ranges`]. So an
//! image with `|f_j − f_i + a_d| > cutoff / h_d` is farther than the
//! cutoff. The cut widens `cutoff / h_d` by a relative and an absolute
//! `1e-9`, far above the rounding of the fractional and Cartesian
//! coordinates, so it only drops images the `r2` test would reject.
//!
//! * **Exact path** (below [`LINKED_CELL_MIN_ATOMS`] atoms), image-major:
//!   atom `i`'s box holds every image any pair `(i, j)` can keep, found
//!   from the smallest and largest fractional coordinate per direction.
//!   For each image of the box one pass over the coordinate lanes of all
//!   `j` fills a row of `r2`, which vectorises, and the row's hits are
//!   kept. A stable counting pass by `j` turns atom `i`'s hits from
//!   `(image, j)` into `(j, image)` order. It runs on the calling thread,
//!   in scratch buffers that persist per thread, so a call allocates
//!   little beyond the returned list.
//! * **Linked-cell path**: each candidate pair `(i, j)` from nearby bins
//!   tests its own cut box of images, one contiguous row of `c` lanes per
//!   `(a, b)`, and each atom's bonds are sorted into `(j, image)` order.
//!   The atoms `i` split across the [`fc_tensor::par`] helpers and the
//!   per-atom lists are concatenated in atom order, so the result is the
//!   same at every width.
//!
//! Both paths list bonds by `(i, j, image)`, and test the same candidates
//! with the same arithmetic, so they return the same list bit for bit.

use crate::lattice::Lattice;
use crate::structure::Structure;
use std::cell::RefCell;
use std::ops::RangeInclusive;

/// A directed bond `i -> j` under periodic boundary conditions.
///
/// CHGNet's atom graph uses directed edges (the `2 N_b` in Eq. 2 of the
/// paper); this list contains both `i -> j` and `j -> i` entries.
///
/// 32 bytes. The bond vector is not stored: the model forms it on the tape
/// from positions and images, and the host side that needs it (the oracle)
/// recomputes it bitwise with [`Bond::vector`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bond {
    /// Source atom index (the "central" atom receiving the message).
    pub i: u32,
    /// Destination atom index.
    pub j: u32,
    /// Periodic image of `j` relative to the home cell.
    pub image: [i32; 3],
    /// Bond length |r_ij| (Å).
    pub r: f64,
}

impl Bond {
    /// Bond vector `r_j + image@L − r_i` (Å), formed as the neighbour
    /// search forms it, so bitwise the vector whose length is [`Bond::r`].
    /// `carts` are the structure's Cartesian coordinates
    /// ([`Structure::cart_coords`]).
    pub fn vector(&self, lattice: &Lattice, carts: &[[f64; 3]]) -> [f64; 3] {
        let img = lattice.frac_to_cart(self.image.map(f64::from));
        let (ci, cj) = (carts[self.i as usize], carts[self.j as usize]);
        [cj[0] + img[0] - ci[0], cj[1] + img[1] - ci[1], cj[2] + img[2] - ci[2]]
    }
}

/// Cells with at least this many atoms use the linked-cell (binned)
/// search; smaller cells use the exact all-pairs search, whose image-major
/// pass over coordinate lanes wins until its O(N²) catches up.
///
/// Set from `examples/op_profile`'s "neighbour search by cell size" table
/// (EXPERIMENTS.md "Neighbour search crossover"), which times both searches
/// at widths 1 and 2 on two series of cells. On the dataset generator's
/// sparse cells (8-33 bonds per atom at 6 Å) the binned search at width 2
/// wins from about 1,024 atoms; on supercells of the md cell's crystal
/// (107 bonds per atom) the exact search still wins at 4,096. Between the
/// two, 2,048 keeps either path within about 1.8× of the faster one on
/// both series. Every benchmark cell (≤ 64 atoms) takes the exact path.
pub const LINKED_CELL_MIN_ATOMS: usize = 2048;

/// Build the directed neighbor list of `s` within `cutoff` (Å).
///
/// Dispatches to the linked-cell (binned) search from
/// [`LINKED_CELL_MIN_ATOMS`] atoms and to the exact all-pairs search below
/// it. Both return the identical bond list (same bonds, same order, same
/// floating-point values) — the binned search recomputes every candidate
/// bond with the exact formula and sorts into the exact path's (i, j,
/// image) iteration order.
pub fn neighbor_list(s: &Structure, cutoff: f64) -> Vec<Bond> {
    if s.n_atoms() >= LINKED_CELL_MIN_ATOMS {
        neighbor_list_cells(s, cutoff)
    } else {
        neighbor_list_exact(s, cutoff)
    }
}

/// Exact periodic search: every atom pair over every image within the
/// lattice's [`crate::lattice::Lattice::image_ranges`]. Self-interactions
/// in the home image are excluded; an atom may bond to its own periodic
/// copies. O(N² · images) candidates — the reference the binned search
/// must match. Image-major and serial (module docs); the returned list is
/// allocated once, at its exact length.
pub fn neighbor_list_exact(s: &Structure, cutoff: f64) -> Vec<Bond> {
    let search = Search::new(s, cutoff);
    let n = s.lattice.image_ranges(cutoff);
    SCRATCH.with_borrow_mut(|scratch| search.all_pairs(n, scratch))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The exact search's working buffers, kept per thread across calls.
#[derive(Default)]
struct Scratch {
    /// Cartesian `x`, `y`, `z` lanes of the atoms.
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// `r2` from atom `i` to every `j` at one image.
    row: Vec<f64>,
    /// Atom `i`'s bonds in `(image, j)` order.
    hits: Vec<Bond>,
    /// Atom `i`'s bonds per `j`, then the first slot of each `j`.
    slots: Vec<u32>,
    /// Every bond so far, in the returned order.
    bonds: Vec<Bond>,
}

/// Linked-cell (binned) periodic search, O(N · neighbors).
///
/// The home cell is carved into fractional bins at least one cutoff thick
/// along each lattice direction (measured by the perpendicular slab
/// thickness `h_i = V / area_i`, the same geometry as
/// [`crate::lattice::Lattice::image_ranges`]). Each atom is bucketed by its
/// wrapped fractional coordinate; a query then visits only the bins whose
/// fractional span can hold a point within the cutoff. A visited bin may
/// lie in several periodic copies of the home cell (when the reach wraps
/// around it); those copies form a contiguous box of wrapped-space images
/// `m`, and each of the bin's atoms `j` is tested over the raw images
/// `m + shift_i − shift_j` with the exact bond formula, so accepted bonds
/// are bitwise identical to [`neighbor_list_exact`]. Sorting each atom's
/// bonds by `(j, image)` restores the exact path's order.
pub fn neighbor_list_cells(s: &Structure, cutoff: f64) -> Vec<Bond> {
    let search = Search::new(s, cutoff);
    let h = slab_thickness(&s.lattice);
    // Bin counts: bins at least `cutoff` thick (≥ 1 per direction), and the
    // bin reach needed so every point within `cutoff` of a query is visited:
    // |Δfrac_d| ≤ cutoff / h_d, hence |Δbin_d| ≤ ⌊cutoff·n_d/h_d⌋ + 1.
    let mut nbins = [1i64; 3];
    let mut reach = [1i64; 3];
    for d in 0..3 {
        nbins[d] = ((h[d] / cutoff).floor() as i64).max(1);
        reach[d] = (cutoff * nbins[d] as f64 / h[d]).floor() as i64 + 1;
    }
    let flat = |b: [i64; 3]| (b[0] + nbins[0] * (b[1] + nbins[1] * b[2])) as usize;

    // Bucket atoms by wrapped fractional coordinate; remember the integer
    // shift so raw periodic images can be reconstructed exactly.
    let mut shift = vec![[0i64; 3]; s.n_atoms()];
    let mut bin_of = vec![[0i64; 3]; s.n_atoms()];
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); flat(nbins.map(|n| n - 1)) + 1];
    for (a, f) in s.frac_coords.iter().enumerate() {
        for d in 0..3 {
            let fl = f[d].floor();
            shift[a][d] = fl as i64;
            let w = f[d] - fl;
            bin_of[a][d] = ((w * nbins[d] as f64) as i64).min(nbins[d] - 1);
        }
        cells[flat(bin_of[a])].push(a as u32);
    }

    search.per_atom(|i, out| {
        // Per direction, the wrapped bins the query reaches, each with the
        // contiguous wrapped-space images `m` it is reached at: raw bin
        // `t = m·n + b` runs over `bin_of[i] ± reach`.
        let spans: [Vec<(i64, i64, i64)>; 3] = std::array::from_fn(|d| {
            let (lo, hi, n) = (bin_of[i][d] - reach[d], bin_of[i][d] + reach[d], nbins[d]);
            (0..n)
                .map(|b| (b, -(b - lo).div_euclid(n), (hi - b).div_euclid(n)))
                .filter(|&(_, m0, m1)| m0 <= m1)
                .collect()
        });
        for &(b0, m0a, m0b) in &spans[0] {
            for &(b1, m1a, m1b) in &spans[1] {
                for &(b2, m2a, m2b) in &spans[2] {
                    for &j in &cells[flat([b0, b1, b2])] {
                        let j = j as usize;
                        let m = [(m0a, m0b), (m1a, m1b), (m2a, m2b)];
                        let images = std::array::from_fn(|d| {
                            let off = shift[i][d] - shift[j][d];
                            (m[d].0 + off) as i32..=(m[d].1 + off) as i32
                        });
                        search.scan_pair(i, j, images, out);
                    }
                }
            }
        }
        out.sort_by_key(|x| (x.j, x.image));
    })
}

/// Perpendicular slab thickness `h_d = V / area_d` per lattice direction.
fn slab_thickness(lattice: &Lattice) -> [f64; 3] {
    let vol = lattice.volume();
    std::array::from_fn(|d| {
        let b = lattice.m[(d + 1) % 3];
        let c = lattice.m[(d + 2) % 3];
        let cross =
            [b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0]];
        let area = (cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]).sqrt();
        vol / area.max(1e-12)
    })
}

/// What both searches share for one call: the coordinates, the per-pair
/// cut and the image table.
struct Search<'a> {
    frac: &'a [[f64; 3]],
    carts: Vec<[f64; 3]>,
    cutoff2: f64,
    /// `cutoff / h_d`, widened (module docs): the largest
    /// `|f_j − f_i + a_d|` a bond can have.
    reach: [f64; 3],
    /// Smallest and largest fractional coordinate per direction.
    fmin: [f64; 3],
    fmax: [f64; 3],
    table: ImageTable,
}

impl<'a> Search<'a> {
    fn new(s: &'a Structure, cutoff: f64) -> Search<'a> {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let h = slab_thickness(&s.lattice);
        let reach = h.map(|h| cutoff / h * (1.0 + 1e-9) + 1e-9);
        // Every image a pair keeps lies within `reach` of some
        // `f_i − f_j`, which spans `[min f − max f, max f − min f]`.
        let (mut fmin, mut fmax) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
        for f in &s.frac_coords {
            for d in 0..3 {
                fmin[d] = fmin[d].min(f[d]);
                fmax[d] = fmax[d].max(f[d]);
            }
        }
        let lo = std::array::from_fn(|d| (fmin[d] - fmax[d] - reach[d]).ceil() as i32);
        let hi = std::array::from_fn(|d| (fmax[d] - fmin[d] + reach[d]).floor() as i32);
        Search {
            frac: &s.frac_coords,
            carts: s.cart_coords(),
            cutoff2: cutoff * cutoff,
            reach,
            fmin,
            fmax,
            table: ImageTable::new(&s.lattice, lo, hi),
        }
    }

    /// The exact search (see [`neighbor_list_exact`]) over the images
    /// `-n..=n`.
    fn all_pairs(&self, n: [i32; 3], scratch: &mut Scratch) -> Vec<Bond> {
        let Scratch { x, y, z, row, hits, slots, bonds } = scratch;
        let atoms = self.carts.len();
        for (lane, d) in [&mut *x, &mut *y, &mut *z].into_iter().zip(0..) {
            lane.clear();
            lane.extend(self.carts.iter().map(|c| c[d]));
        }
        row.resize(atoms, 0.0);
        slots.clear();
        slots.resize(atoms, 0);
        bonds.clear();
        let t = &self.table;
        for i in 0..atoms {
            // Every image a pair `(i, j)` keeps: `f_i − f_j` lies in
            // `[f_i − f_max, f_i − f_min]`, and rounding keeps that order.
            let fi = self.frac[i];
            let [ra, rb, rc] = std::array::from_fn(|d| {
                let lo = ((fi[d] - self.fmax[d] - self.reach[d]).ceil() as i32).max(t.lo[d]);
                let hi = ((fi[d] - self.fmin[d] + self.reach[d]).floor() as i32).min(t.hi[d]);
                lo.max(-n[d])..=hi.min(n[d])
            });
            let (xi, yi, zi) = (x[i], y[i], z[i]);
            hits.clear();
            for a in ra {
                for b in rb.clone() {
                    for c in rc.clone() {
                        let k = t.index([a, b, c]);
                        let (ix, iy, iz) = (t.x[k], t.y[k], t.z[k]);
                        for (((r2, &xj), &yj), &zj) in row.iter_mut().zip(&*x).zip(&*y).zip(&*z) {
                            let v = [xj + ix - xi, yj + iy - yi, zj + iz - zi];
                            *r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                        }
                        for (j, &r2) in row.iter().enumerate() {
                            // The home image of `i` itself gives `v = 0`
                            // exactly, so `r2 > 1e-12` also excludes the
                            // self-interaction.
                            if r2 <= self.cutoff2 && r2 > 1e-12 {
                                let (i, j) = (i as u32, j as u32);
                                hits.push(Bond { i, j, image: [a, b, c], r: r2.sqrt() });
                                slots[j as usize] += 1;
                            }
                        }
                    }
                }
            }
            // Stable counting pass by `j`: `(image, j)` to `(j, image)`.
            let base = bonds.len();
            let mut next = 0;
            for slot in slots.iter_mut() {
                (*slot, next) = (next, next + *slot);
            }
            bonds.extend_from_slice(hits);
            for h in hits.iter() {
                let slot = &mut slots[h.j as usize];
                bonds[base + *slot as usize] = *h;
                *slot += 1;
            }
            slots.fill(0);
        }
        bonds.to_vec()
    }

    /// `bonds(i, out)` for every atom `i`, appending atom `i`'s bonds to
    /// its own list, concatenated in atom order. Large searches split the
    /// atoms across the [`fc_tensor::par`] helpers.
    fn per_atom(&self, bonds: impl Fn(usize, &mut Vec<Bond>) + Sync) -> Vec<Bond> {
        let n = self.carts.len();
        let mut lists = vec![Vec::new(); n];
        // About 8 image tests per pair, each a few `bin.add` elements.
        fc_tensor::par::for_each_chunk(&mut lists, 24 * n * n, |atoms, lists| {
            for (i, out) in atoms.zip(lists) {
                bonds(i, out);
            }
        });
        lists.concat()
    }

    /// Append the bonds `i → j` over the box of `images`, in `(a, b, c)`
    /// order, after cutting the box to the images that can come within
    /// the cutoff (module docs).
    fn scan_pair(&self, i: usize, j: usize, images: [RangeInclusive<i32>; 3], out: &mut Vec<Bond>) {
        let t = &self.table;
        let (fi, fj) = (self.frac[i], self.frac[j]);
        let [ra, rb, rc] = std::array::from_fn(|d| {
            let g = fi[d] - fj[d];
            let lo = ((g - self.reach[d]).ceil() as i32).max(*images[d].start()).max(t.lo[d]);
            let hi = ((g + self.reach[d]).floor() as i32).min(*images[d].end()).min(t.hi[d]);
            lo..=hi
        });
        if rc.is_empty() {
            return;
        }
        let width = (rc.end() - rc.start() + 1) as usize;
        let (ci, cj) = (self.carts[i], self.carts[j]);
        for a in ra {
            for b in rb.clone() {
                let row = t.index([a, b, *rc.start()]);
                let lanes = row..row + width;
                let (xs, ys, zs) = (&t.x[lanes.clone()], &t.y[lanes.clone()], &t.z[lanes]);
                for (k, c) in rc.clone().enumerate() {
                    let v = [cj[0] + xs[k] - ci[0], cj[1] + ys[k] - ci[1], cj[2] + zs[k] - ci[2]];
                    let r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                    // The home image of `i` itself gives `v = 0` exactly, so
                    // `r2 > 1e-12` also excludes the self-interaction.
                    if r2 <= self.cutoff2 && r2 > 1e-12 {
                        out.push(Bond { i: i as u32, j: j as u32, image: [a, b, c], r: r2.sqrt() });
                    }
                }
            }
        }
    }
}

/// `lattice.frac_to_cart(image)` of every image in the box `lo..=hi`, as
/// `x`, `y`, `z` lanes in `(a, b, c)` order (module docs).
struct ImageTable {
    lo: [i32; 3],
    hi: [i32; 3],
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl ImageTable {
    fn new(lattice: &Lattice, lo: [i32; 3], hi: [i32; 3]) -> ImageTable {
        let len = (0..3).map(|d| (hi[d] - lo[d] + 1).max(0) as usize).product();
        let mut t = ImageTable {
            lo,
            hi,
            x: Vec::with_capacity(len),
            y: Vec::with_capacity(len),
            z: Vec::with_capacity(len),
        };
        for a in lo[0]..=hi[0] {
            for b in lo[1]..=hi[1] {
                for c in lo[2]..=hi[2] {
                    let img = lattice.frac_to_cart([a as f64, b as f64, c as f64]);
                    t.x.push(img[0]);
                    t.y.push(img[1]);
                    t.z.push(img[2]);
                }
            }
        }
        t
    }

    /// Lane of `image`, which lies in the box.
    fn index(&self, image: [i32; 3]) -> usize {
        let len = |d: usize| (self.hi[d] - self.lo[d] + 1) as usize;
        let at = |d: usize| (image[d] - self.lo[d]) as usize;
        (at(0) * len(1) + at(1)) * len(2) + at(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::lattice::Lattice;

    fn simple_cubic(a: f64) -> Structure {
        Structure::new(Lattice::cubic(a), vec![Element::new(3)], vec![[0.0; 3]])
    }

    #[test]
    fn simple_cubic_coordination() {
        // One atom, cubic a=3: 6 first neighbors at 3.0 within cutoff 3.5.
        let s = simple_cubic(3.0);
        let bonds = neighbor_list(&s, 3.5);
        assert_eq!(bonds.len(), 6);
        for b in &bonds {
            assert!((b.r - 3.0).abs() < 1e-9);
            assert_eq!(b.i, 0);
            assert_eq!(b.j, 0);
            assert_ne!(b.image, [0, 0, 0]);
        }
    }

    #[test]
    fn second_shell() {
        // Within sqrt(2)*3 + eps: 6 + 12 neighbors.
        let s = simple_cubic(3.0);
        let bonds = neighbor_list(&s, 3.0 * 1.415);
        assert_eq!(bonds.len(), 18);
    }

    #[test]
    fn directed_symmetry() {
        // Two-atom cell: every i->j bond has a j->i partner of equal length.
        let s = Structure::new(
            Lattice::cubic(4.0),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.4, 0.45, 0.5]],
        );
        let bonds = neighbor_list(&s, 4.0);
        let ij: Vec<_> = bonds.iter().filter(|b| b.i == 0 && b.j == 1).collect();
        let ji: Vec<_> = bonds.iter().filter(|b| b.i == 1 && b.j == 0).collect();
        assert_eq!(ij.len(), ji.len());
        assert!(!ij.is_empty());
        let mut rij: Vec<f64> = ij.iter().map(|b| b.r).collect();
        let mut rji: Vec<f64> = ji.iter().map(|b| b.r).collect();
        rij.sort_by(f64::total_cmp);
        rji.sort_by(f64::total_cmp);
        for (a, b) in rij.iter().zip(&rji) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bond_vector_matches_length() {
        let s = Structure::new(
            Lattice::new([3.0, 0.2, 0.0], [0.0, 3.1, 0.3], [0.1, 0.0, 2.9]),
            vec![Element::new(3), Element::new(8)],
            vec![[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]],
        );
        let carts = s.cart_coords();
        for b in neighbor_list(&s, 5.0) {
            let v = b.vector(&s.lattice, &carts);
            let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((n - b.r).abs() < 1e-9);
            assert!(b.r <= 5.0);
        }
    }

    #[test]
    fn a_bond_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Bond>(), 32);
    }

    #[test]
    fn cutoff_monotonicity() {
        let s = simple_cubic(3.0);
        let n1 = neighbor_list(&s, 3.2).len();
        let n2 = neighbor_list(&s, 4.5).len();
        let n3 = neighbor_list(&s, 6.0).len();
        assert!(n1 < n2 && n2 < n3);
    }

    fn assert_bond_lists_identical(cells: &[Bond], exact: &[Bond], ctx: &str) {
        assert_eq!(cells.len(), exact.len(), "{ctx}: bond counts differ");
        for (c, e) in cells.iter().zip(exact) {
            assert_eq!(c.i, e.i, "{ctx}");
            assert_eq!(c.j, e.j, "{ctx}");
            assert_eq!(c.image, e.image, "{ctx}");
            assert_eq!(c.r.to_bits(), e.r.to_bits(), "{ctx}: r not bitwise equal");
        }
    }

    /// The per-candidate search both paths replaced: `frac_to_cart` per
    /// candidate over every image in `image_ranges`, no cut. Returns the
    /// bonds and the vector each was cut by.
    fn per_candidate_reference(s: &Structure, cutoff: f64) -> (Vec<Bond>, Vec<[f64; 3]>) {
        let carts = s.cart_coords();
        let [na, nb, nc] = s.lattice.image_ranges(cutoff);
        let (mut bonds, mut vectors) = (Vec::new(), Vec::new());
        for i in 0..s.n_atoms() {
            for j in 0..s.n_atoms() {
                for a in -na..=na {
                    for b in -nb..=nb {
                        for c in -nc..=nc {
                            if i == j && a == 0 && b == 0 && c == 0 {
                                continue;
                            }
                            let img = s.lattice.frac_to_cart([a as f64, b as f64, c as f64]);
                            let v = [
                                carts[j][0] + img[0] - carts[i][0],
                                carts[j][1] + img[1] - carts[i][1],
                                carts[j][2] + img[2] - carts[i][2],
                            ];
                            let r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                            if r2 <= cutoff * cutoff && r2 > 1e-12 {
                                let (i, j) = (i as u32, j as u32);
                                bonds.push(Bond { i, j, image: [a, b, c], r: r2.sqrt() });
                                vectors.push(v);
                            }
                        }
                    }
                }
            }
        }
        (bonds, vectors)
    }

    #[test]
    fn both_paths_are_bitwise_the_per_candidate_search_at_every_width() {
        let md_cell = crate::known::li9co7o16().supercell(2, 1, 1);
        let rocksalt = Structure::new(
            Lattice::cubic(4.2),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        );
        let triclinic = Structure::new(
            Lattice::new([4.1, 0.9, 0.3], [-1.2, 3.8, 0.6], [0.7, -0.8, 4.4]),
            vec![Element::new(3), Element::new(8), Element::new(26), Element::new(15)],
            vec![[0.05, 0.1, 0.9], [0.45, 0.5, 0.55], [0.8, 0.2, 0.35], [0.3, 0.85, 0.05]],
        )
        .supercell(2, 2, 3);
        // Bonds exactly at the cutoff along a lattice normal, where the
        // per-pair cut has no slack: images 2 cells away at cutoff 2a, and
        // the body centre 1.5 cells away at cutoff 1.5a (48 atoms, so the
        // binned path runs too).
        let at_cutoff = Structure::new(
            Lattice::orthorhombic(3.0, 4.0, 5.0),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        )
        .supercell(2, 2, 6);
        let cases = [
            ("md cell", md_cell, [3.0, 6.0]),
            ("4x4x4 supercell", rocksalt.supercell(4, 4, 4), [3.7, 6.5]),
            ("triclinic", triclinic, [3.0, 6.0]),
            ("bonds at the cutoff", at_cutoff, [6.0, 7.5]),
        ];
        for (name, s, cutoffs) in cases {
            for cutoff in cutoffs {
                let (want, vectors) = per_candidate_reference(&s, cutoff);
                assert!(!want.is_empty());
                // `Bond::vector` recomputes each bond's vector bitwise.
                let carts = s.cart_coords();
                for (b, v) in want.iter().zip(&vectors) {
                    let got = b.vector(&s.lattice, &carts);
                    assert_eq!(
                        got.map(f64::to_bits),
                        v.map(f64::to_bits),
                        "{name}, cutoff {cutoff}"
                    );
                }
                for width in [1, 2] {
                    fc_tensor::par::with_width(width, || {
                        let ctx = format!("{name}, cutoff {cutoff}, width {width}");
                        let exact = neighbor_list_exact(&s, cutoff);
                        assert_bond_lists_identical(&exact, &want, &format!("{ctx}, exact"));
                        let cells = neighbor_list_cells(&s, cutoff);
                        assert_bond_lists_identical(&cells, &want, &format!("{ctx}, cells"));
                    });
                }
            }
        }
    }

    #[test]
    fn exact_path_is_bitwise_the_per_candidate_search_on_random_cells() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(34);
        for cell in 0..320 {
            let n = if cell < 20 { cell + 1 } else { rng.gen_range(1..=200usize) };
            // A skewed cell of 8-20 Å³ per atom.
            let a = (n as f64 * rng.gen_range(8.0..20.0)).cbrt();
            let rows: [[f64; 3]; 3] = std::array::from_fn(|i| {
                std::array::from_fn(|j| {
                    a * if i == j { rng.gen_range(0.8..1.2) } else { rng.gen_range(-0.4..0.4) }
                })
            });
            let species = (0..n).map(|_| Element::new(rng.gen_range(1..=20))).collect();
            let mut s =
                Structure::new(Lattice::new(rows[0], rows[1], rows[2]), species, vec![[0.0; 3]; n]);
            // Coordinates as an integrator leaves them: some outside [0, 1).
            let spill = if cell % 2 == 0 { 0.0 } else { 0.5 };
            s.frac_coords = (0..n)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-spill..1.0 + spill)))
                .collect();
            for cutoff in [3.0, 6.0] {
                let (want, _) = per_candidate_reference(&s, cutoff);
                for width in [1, 2] {
                    let got = fc_tensor::par::with_width(width, || neighbor_list_exact(&s, cutoff));
                    let ctx = format!("cell {cell}: {n} atoms, cutoff {cutoff}, width {width}");
                    assert_bond_lists_identical(&got, &want, &ctx);
                }
            }
        }
    }

    #[test]
    fn md_cell_has_one_bin_per_direction_and_the_supercell_many() {
        // The regimes the bitwise test above covers: bins at least one
        // cutoff thick.
        let bins = |s: &Structure, cutoff: f64| {
            slab_thickness(&s.lattice).map(|h| (h / cutoff).floor().max(1.0))
        };
        let md_cell = crate::known::li9co7o16().supercell(2, 1, 1);
        assert_eq!(md_cell.n_atoms(), 64);
        assert_eq!(bins(&md_cell, 6.0), [1.0; 3]);
        let unit = Structure::new(Lattice::cubic(4.2), vec![Element::new(3)], vec![[0.0; 3]]);
        assert_eq!(bins(&unit.supercell(4, 4, 4), 3.7), [4.0; 3]);
    }

    #[test]
    fn linked_cell_matches_exact_on_supercell() {
        // 4x4x4 supercell of a two-atom rocksalt-ish motif: 128 atoms,
        // several bins per direction — the real linked-cell regime.
        let unit = Structure::new(
            Lattice::cubic(4.2),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        );
        let s = unit.supercell(4, 4, 4);
        for cutoff in [3.7, 5.0, 6.5] {
            let cells = neighbor_list_cells(&s, cutoff);
            let exact = neighbor_list_exact(&s, cutoff);
            assert!(!cells.is_empty());
            assert_bond_lists_identical(&cells, &exact, &format!("cutoff {cutoff}"));
        }
        // And on a cell at the threshold the dispatching front door picks
        // the binned path's result.
        let big = unit.supercell(8, 8, 16);
        assert!(big.n_atoms() >= LINKED_CELL_MIN_ATOMS);
        let cells = neighbor_list_cells(&big, 3.7);
        assert_bond_lists_identical(&neighbor_list(&big, 3.7), &cells, "front door");
    }

    #[test]
    fn linked_cell_matches_exact_when_cell_smaller_than_cutoff() {
        // Degenerate regime: one bin per direction, images found via bin
        // wrap-around — must still agree with the exact image loop.
        let s = Structure::new(
            Lattice::new([3.0, 0.4, 0.0], [0.0, 2.8, 0.5], [0.6, 0.0, 3.2]),
            vec![Element::new(3), Element::new(8), Element::new(26)],
            vec![[0.05, 0.1, 0.9], [0.45, 0.5, 0.55], [0.8, 0.2, 0.35]],
        );
        for cutoff in [4.0, 6.0, 8.0] {
            let cells = neighbor_list_cells(&s, cutoff);
            let exact = neighbor_list_exact(&s, cutoff);
            assert_bond_lists_identical(&cells, &exact, &format!("small cell, cutoff {cutoff}"));
        }
    }
}
