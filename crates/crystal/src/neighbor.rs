//! Periodic neighbor lists, from one search.
//!
//! The atoms are counting-sorted into **bins** by raw fractional
//! coordinate over `[min f, max f]` per direction (no wrapping), and their
//! Cartesian coordinates laid out as `x`, `y`, `z` lanes in bin order. For
//! atom `i` and each image `a` that a pair `(i, j)` can keep (from the
//! smallest and largest coordinate), only the bins that can hold an `f_j`
//! within `f_i − a_d ± reach_d` are visited: along the last direction one
//! run of lanes, whose `r2` row is one vectorised pass. The image offsets
//! come from one table per call (`lattice.frac_to_cart(image)` in
//! `(a, b, c)` order), and every candidate is tested with the reference
//! arithmetic `v = carts[j] + img − carts[i]`, `r2 = v0·v0 + v1·v1 + v2·v2`
//! (no fused multiply-add), kept when `1e-12 < r2 <= cutoff²`. Each `j`
//! lies in one bin, so its hits come in image order, and a stable counting
//! pass by `j` gives `(j, image)` order. So every bin count returns the
//! per-candidate search's list bit for bit; one bin is the exact all-pairs
//! search ([`neighbor_list_exact`]).
//!
//! Two cuts skip candidates: `|f_j − f_i + a_d| > reach_d = cutoff / h_d`
//! (a bond vector's component normal to the other two lattice vectors is
//! `(f_j − f_i + a_d)·h_d`, `h_d` the
//! [`crate::lattice::Lattice::slab_thickness`]), and an image that puts the
//! atoms' Cartesian bounding box beyond the cutoff from atom `i`. Both
//! widen the cutoff by a relative and an absolute `1e-9`, far above the
//! coordinates' rounding, so they drop only candidates the `r2` test would
//! reject.

use crate::lattice::Lattice;
use crate::structure::Structure;
use std::cell::RefCell;
use std::ops::Range;

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

/// Cells with at least this many atoms bin their atoms
/// ([`neighbor_list_cells`]); smaller cells search with one bin
/// ([`neighbor_list_exact`]).
///
/// Set from `examples/op_profile`'s "neighbour search by cell size" table
/// (EXPERIMENTS.md "Neighbour search crossover"), which times one bin
/// against bins at width 1 on two series of cells: bins win or tie from
/// 128 atoms on both. It stays above every benchmark cell (≤ 64 atoms), so
/// those search with one bin.
pub const LINKED_CELL_MIN_ATOMS: usize = 128;

/// Build the directed neighbor list of `s` within `cutoff` (Å), binned
/// from [`LINKED_CELL_MIN_ATOMS`] atoms up (the same list either way).
pub fn neighbor_list(s: &Structure, cutoff: f64) -> Vec<Bond> {
    if s.n_atoms() >= LINKED_CELL_MIN_ATOMS {
        neighbor_list_cells(s, cutoff)
    } else {
        neighbor_list_exact(s, cutoff)
    }
}

/// Exact periodic search with one bin: every atom pair over every image
/// within [`crate::lattice::Lattice::image_ranges`], the reference.
/// Self-interactions in the home image are excluded; an atom may bond to
/// its own periodic copies.
pub fn neighbor_list_exact(s: &Structure, cutoff: f64) -> Vec<Bond> {
    Search::new(s, cutoff).pairs([1; 3])
}

/// Binned periodic search, O(N · neighbors): bins at least one `reach`
/// thick, so a visit reads at most three per direction.
pub fn neighbor_list_cells(s: &Structure, cutoff: f64) -> Vec<Bond> {
    let search = Search::new(s, cutoff);
    search.pairs(search.bins())
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The search's working buffers, kept per thread across calls.
#[derive(Default)]
struct Scratch {
    /// The first lane of each bin, then the number of atoms.
    start: Vec<u32>,
    /// Atom `i`'s first and last bin along the last direction at each
    /// image component of its box there.
    windows: Vec<(usize, usize)>,
    pass: Pass,
    /// Every bond so far, in the returned order.
    bonds: Vec<Bond>,
}

/// What a visit reads and writes.
#[derive(Default)]
struct Pass {
    /// Cartesian lanes of the atoms in bin order, and the atom of each.
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    atom: Vec<u32>,
    /// `r2` from atom `i` to the lanes of one visit.
    row: Vec<f64>,
    /// The positions in `row` within the cutoff, and one spare slot.
    keep: Vec<u32>,
    /// Atom `i`'s bonds in visit order.
    hits: Vec<Bond>,
    /// Each atom's bin while sorting; then atom `i`'s bonds per `j`, then
    /// the first slot of each `j`.
    per_j: Vec<u32>,
}

/// One call's search: the coordinates, the cuts and the image
/// table.
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
    /// Smallest and largest Cartesian coordinate per axis.
    cmin: [f64; 3],
    cmax: [f64; 3],
    /// The squared cutoff, widened (module docs).
    box_cut2: f64,
    table: ImageTable,
}

impl<'a> Search<'a> {
    fn new(s: &'a Structure, cutoff: f64) -> Search<'a> {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let reach = s.lattice.slab_thickness().map(|h| cutoff / h * (1.0 + 1e-9) + 1e-9);
        let carts = s.cart_coords();
        let (fmin, fmax) = bounds(&s.frac_coords);
        let (cmin, cmax) = bounds(&carts);
        // Every image a pair keeps lies within `reach` of some `f_i − f_j`,
        // which spans `[min f − max f, max f − min f]`, and within
        // `image_ranges`.
        let n = s.lattice.image_ranges(cutoff);
        let lo = std::array::from_fn(|d| ((fmin[d] - fmax[d] - reach[d]).ceil() as i32).max(-n[d]));
        let hi = std::array::from_fn(|d| ((fmax[d] - fmin[d] + reach[d]).floor() as i32).min(n[d]));
        Search {
            frac: &s.frac_coords,
            carts,
            cutoff2: cutoff * cutoff,
            reach,
            fmin,
            fmax,
            cmin,
            cmax,
            box_cut2: (cutoff * (1.0 + 1e-9) + 1e-9).powi(2),
            table: ImageTable::new(&s.lattice, lo, hi),
        }
    }

    /// Bins per direction: as many as fit `reach` thick into the span of
    /// the coordinates, at least one.
    fn bins(&self) -> [usize; 3] {
        std::array::from_fn(|d| (((self.fmax[d] - self.fmin[d]) / self.reach[d]) as usize).max(1))
    }

    /// Every bond in `(i, j, image)` order, the atoms sorted into
    /// `bins[d]` bins along each direction `d` (module docs).
    fn pairs(&self, bins: [usize; 3]) -> Vec<Bond> {
        SCRATCH.with_borrow_mut(|scratch| self.pairs_in(bins, scratch))
    }

    fn pairs_in(&self, bins: [usize; 3], scratch: &mut Scratch) -> Vec<Bond> {
        let Scratch { start, windows, pass, bonds } = scratch;
        let atoms = self.carts.len();
        // The bin of coordinate `f` along `d`. It is monotone in `f`, so
        // the bins of a window's ends bound the bins of every coordinate
        // inside it (`as` saturates, so a zero span gives the first or the
        // last bin).
        let scale: [f64; 3] =
            std::array::from_fn(|d| bins[d] as f64 / (self.fmax[d] - self.fmin[d]));
        let bin = |d: usize, f: f64| {
            if bins[d] == 1 {
                return 0;
            }
            (((f - self.fmin[d]) * scale[d]) as usize).min(bins[d] - 1)
        };
        let flat = |b0: usize, b1: usize, b2: usize| (b0 * bins[1] + b1) * bins[2] + b2;

        // Counting sort by bin, stable in the atom index. Placing leaves
        // each bin's entry at the next bin's first lane: shift them back.
        let n_bins = bins.iter().product::<usize>();
        start.clear();
        start.resize(n_bins + 1, 0);
        let bin_of = &mut pass.per_j;
        bin_of.clear();
        bin_of.extend(
            self.frac.iter().map(|f| flat(bin(0, f[0]), bin(1, f[1]), bin(2, f[2])) as u32),
        );
        for &b in bin_of.iter() {
            start[b as usize + 1] += 1;
        }
        for k in 0..n_bins {
            start[k + 1] += start[k];
        }
        pass.atom.resize(atoms, 0);
        for (i, &b) in bin_of.iter().enumerate() {
            let lane = &mut start[b as usize];
            pass.atom[*lane as usize] = i as u32;
            *lane += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        bin_of.fill(0);
        let Pass { x, y, z, atom, .. } = pass;
        for (lane, d) in [x, y, z].into_iter().zip(0..) {
            lane.clear();
            lane.extend(atom.iter().map(|&j| self.carts[j as usize][d]));
        }
        pass.row.resize(atoms, 0.0);
        pass.keep.resize(atoms + 1, 0);
        bonds.clear();

        let t = &self.table;
        for i in 0..atoms {
            // Every image a pair `(i, j)` keeps: `f_i − f_j` lies in
            // `[f_i − f_max, f_i − f_min]`, and rounding keeps that order.
            let fi = self.frac[i];
            let [ra, rb, rc] = std::array::from_fn(|d| {
                let lo = ((fi[d] - self.fmax[d] - self.reach[d]).ceil() as i32).max(t.lo[d]);
                let hi = ((fi[d] - self.fmin[d] + self.reach[d]).floor() as i32).min(t.hi[d]);
                lo..=hi
            });
            // The first and last bin along `d` that can hold an `f_j`
            // within `reach` of `f_i − k`.
            let window = |d: usize, k: i32| {
                let g = fi[d] - k as f64;
                (bin(d, g - self.reach[d]), bin(d, g + self.reach[d]))
            };
            windows.clear();
            windows.extend(rc.clone().map(|c| window(2, c)));
            pass.hits.clear();
            for a in ra {
                let (lo0, hi0) = window(0, a);
                for b in rb.clone() {
                    let (lo1, hi1) = window(1, b);
                    let first = t.index([a, b, *rc.start()]);
                    // Atom `j` lies in one `(b0, b1)` row of bins, so its
                    // hits come in `(a, b, c)` order.
                    for b0 in lo0..=hi0 {
                        for b1 in lo1..=hi1 {
                            let row = flat(b0, b1, 0);
                            for (k, (c, &(lo2, hi2))) in rc.clone().zip(&*windows).enumerate() {
                                let img = [t.x[first + k], t.y[first + k], t.z[first + k]];
                                let run = start[row + lo2] as usize..start[row + hi2 + 1] as usize;
                                self.visit(i, [a, b, c], img, run, pass);
                            }
                        }
                    }
                }
            }
            // Stable counting pass by `j`: hits to `(j, image)` order.
            let Pass { hits, per_j, .. } = &mut *pass;
            let base = bonds.len();
            let mut next = 0;
            for slot in per_j.iter_mut() {
                (*slot, next) = (next, next + *slot);
            }
            bonds.extend_from_slice(hits);
            for h in hits.iter() {
                let slot = &mut per_j[h.j as usize];
                bonds[base + *slot as usize] = *h;
                *slot += 1;
            }
            per_j.fill(0);
        }
        bonds.to_vec()
    }

    /// Atom `i`'s bonds to the atoms of lanes `run` at `image`, whose
    /// Cartesian offset is `img`, appended to `p.hits`. Nothing if `img`
    /// puts the atoms' bounding box beyond the widened cutoff (module docs).
    fn visit(&self, i: usize, image: [i32; 3], img: [f64; 3], run: Range<usize>, p: &mut Pass) {
        let ci = self.carts[i];
        let gap = |d: usize| (self.cmin[d] + img[d] - ci[d]).max(ci[d] - self.cmax[d] - img[d]);
        let [g0, g1, g2] = [gap(0).max(0.0), gap(1).max(0.0), gap(2).max(0.0)];
        if g0 * g0 + g1 * g1 + g2 * g2 > self.box_cut2 {
            return;
        }
        let [xi, yi, zi] = self.carts[i];
        let [ix, iy, iz] = img;
        let row = &mut p.row[..run.len()];
        let (xs, ys, zs) = (&p.x[run.clone()], &p.y[run.clone()], &p.z[run.clone()]);
        for (((r2, &xj), &yj), &zj) in row.iter_mut().zip(xs).zip(ys).zip(zs) {
            let v = [xj + ix - xi, yj + iy - yi, zj + iz - zi];
            *r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        }
        // Without a branch per lane: every position is written, and those
        // within the cutoff advance the count.
        let keep = &mut p.keep[..=row.len()];
        let mut n = 0;
        for (k, &r2) in row.iter().enumerate() {
            keep[n] = k as u32;
            n += (r2 <= self.cutoff2) as usize;
        }
        for &k in &keep[..n] {
            let r2 = row[k as usize];
            // The home image of `i` itself gives `v = 0` exactly, so
            // `r2 > 1e-12` also excludes the self-interaction.
            if r2 > 1e-12 {
                let j = p.atom[run.start + k as usize];
                p.hits.push(Bond { i: i as u32, j, image, r: r2.sqrt() });
                p.per_j[j as usize] += 1;
            }
        }
    }
}

/// Smallest and largest coordinate per axis of `points`.
fn bounds(points: &[[f64; 3]]) -> ([f64; 3], [f64; 3]) {
    let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for p in points {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
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

    /// The per-candidate search the binned search replaced: `frac_to_cart` per
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
        // cut has no slack: images 2 cells away at cutoff 2a, and the body
        // centre 1.5 cells away at cutoff 1.5a.
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
                let ctx = format!("cell {cell}: {n} atoms, cutoff {cutoff}");
                assert_bond_lists_identical(&neighbor_list_exact(&s, cutoff), &want, &ctx);
                // The binned pass at the geometric bin count, at 1-4 bins
                // in every direction (bins thinner than `reach` too) and
                // at a mixed count.
                let search = Search::new(&s, cutoff);
                let mixed = std::array::from_fn(|_| rng.gen_range(1..=4));
                for bins in [search.bins(), [1; 3], [2; 3], [3; 3], [4; 3], mixed] {
                    let got = search.pairs(bins);
                    assert_bond_lists_identical(&got, &want, &format!("{ctx}, bins {bins:?}"));
                }
            }
        }
    }

    #[test]
    fn md_cell_has_one_bin_per_direction_and_the_supercell_many() {
        // The regimes the bitwise tests cover: bins at least one `reach`
        // thick over the coordinates' span.
        let bins = |s: &Structure, cutoff: f64| Search::new(s, cutoff).bins();
        let md_cell = crate::known::li9co7o16().supercell(2, 1, 1);
        assert_eq!(md_cell.n_atoms(), 64);
        assert_eq!(bins(&md_cell, 6.0), [1; 3]);
        // 16.8 Å wide, atoms over 7/8 of it: 14.7 Å / 3.7 Å.
        let unit = Structure::new(Lattice::cubic(4.2), vec![Element::new(3)], vec![[0.0; 3]]);
        assert_eq!(bins(&unit.supercell(4, 4, 4), 3.7), [3; 3]);
    }

    #[test]
    fn binned_matches_exact_on_supercell() {
        // 4x4x4 supercell of a two-atom rocksalt-ish motif: 128 atoms,
        // several bins per direction — the real binned regime.
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
        // And above the threshold the dispatching front door returns the
        // binned search's result.
        let big = unit.supercell(8, 8, 16);
        assert!(big.n_atoms() >= LINKED_CELL_MIN_ATOMS);
        let cells = neighbor_list_cells(&big, 3.7);
        assert_bond_lists_identical(&neighbor_list(&big, 3.7), &cells, "front door");
    }

    #[test]
    fn binned_matches_exact_when_cell_smaller_than_cutoff() {
        // Degenerate regime: one bin per direction and several images of
        // every atom within the cutoff — must still agree with the exact
        // image loop.
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
