//! SynthMPtrj: the synthetic stand-in for the Materials Project Trajectory
//! dataset.
//!
//! MPtrj holds 1,580,395 DFT-labelled inorganic structures over 89
//! elements, with a long-tail distribution of cell sizes (Fig. 5 of the
//! paper). This generator reproduces the *shape* of that workload from a
//! seed: log-normal atom counts, element frequencies skewed toward common
//! oxide chemistry, perturbed-cubic lattices with chemically plausible
//! densities, and trajectory-style perturbed frames — all labelled by the
//! analytic oracle (`crate::oracle`).

use crate::element::{Element, N_ELEMENTS};
use crate::graph::{CrystalGraph, ATOM_CUTOFF, BOND_CUTOFF};
use crate::lattice::Lattice;
use crate::neighbor::{neighbor_list, Bond};
use crate::oracle::{energy_on, evaluate_on, Labels};
use crate::structure::Structure;
use fc_tensor::kernels::lanes::{run_on, LanePass, Lanes};
use fc_tensor::kernels::Tier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled training sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The crystal graph (structure + connectivity).
    pub graph: CrystalGraph,
    /// Oracle labels.
    pub labels: Labels,
}

impl Sample {
    /// Build a sample from a structure: construct the graph with default
    /// cutoffs and evaluate the oracle, both on one neighbour list.
    pub fn from_structure(s: Structure) -> Sample {
        let bonds = neighbor_list(&s, ATOM_CUTOFF);
        Sample::from_bonds(s, bonds)
    }

    /// [`Sample::from_structure`] on `bonds`, the [`neighbor_list`] of `s`
    /// within [`ATOM_CUTOFF`].
    fn from_bonds(s: Structure, bonds: Vec<Bond>) -> Sample {
        let labels = evaluate_on(&s, &bonds);
        Sample { graph: CrystalGraph::from_bonds(s, bonds, ATOM_CUTOFF, BOND_CUTOFF), labels }
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Number of base structures to generate.
    pub n_structures: usize,
    /// Trajectory frames per base structure (≥ 1). Frames after the first
    /// carry increasing random displacements, mimicking relaxation
    /// trajectories.
    pub frames: usize,
    /// RNG seed; the dataset is a pure function of the config.
    pub seed: u64,
    /// Minimum atoms per cell.
    pub min_atoms: usize,
    /// Maximum atoms per cell (truncates the long tail).
    pub max_atoms: usize,
    /// Mean of ln(atom count) for the log-normal size distribution.
    pub log_mean: f64,
    /// Std of ln(atom count).
    pub log_std: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            n_structures: 256,
            frames: 1,
            seed: 20250704,
            min_atoms: 2,
            max_atoms: 48,
            log_mean: 2.3, // e^2.3 ≈ 10 atoms
            log_std: 0.75,
        }
    }
}

/// The synthetic dataset with train/val/test splits.
#[derive(Clone, Debug)]
pub struct SynthMPtrj {
    /// All samples, in generation order.
    pub samples: Vec<Sample>,
    /// Indices of the training split (90%).
    pub train: Vec<usize>,
    /// Indices of the validation split (5%).
    pub val: Vec<usize>,
    /// Indices of the test split (5%).
    pub test: Vec<usize>,
}

impl SynthMPtrj {
    /// Generate the dataset from a config. Each structure draws from its own
    /// RNG seeded by its index, so the samples do not depend on the order in
    /// which structures are generated. Frame 0 is the screened structure
    /// itself, labelled on the neighbour list the screen built.
    pub fn generate(cfg: &DatasetConfig) -> SynthMPtrj {
        assert!(cfg.n_structures > 0 && cfg.frames > 0, "empty dataset config");
        let _span = fc_telemetry::span("dataset_generate");
        fc_telemetry::counter_add("crystal.generated_structures", cfg.n_structures as u64);
        let samples: Vec<Sample> = (0..cfg.n_structures)
            .flat_map(|i| {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37));
                let (base, bonds) = screened_structure(&mut rng, cfg);
                let first = Sample::from_bonds(base.clone(), bonds);
                let rest = (1..cfg.frames).map(move |f| {
                    let mut s = base.clone();
                    let amp = 0.03 * f as f64;
                    let disp: Vec<[f64; 3]> = (0..s.n_atoms())
                        .map(|_| {
                            [
                                rng.gen_range(-amp..amp),
                                rng.gen_range(-amp..amp),
                                rng.gen_range(-amp..amp),
                            ]
                        })
                        .collect();
                    s.displace_cart(&disp);
                    Sample::from_structure(s)
                });
                std::iter::once(first).chain(rest)
            })
            .collect();

        // Deterministic shuffled split 0.9 : 0.05 : 0.05 (paper §IV).
        let n = samples.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let n_test = (n as f64 * 0.05).ceil() as usize;
        let n_val = n_test;
        let test = order[..n_test].to_vec();
        let val = order[n_test..n_test + n_val].to_vec();
        let train = order[n_test + n_val..].to_vec();
        SynthMPtrj { samples, train, val, test }
    }

    /// Samples of the training split.
    pub fn train_samples(&self) -> Vec<&Sample> {
        self.train.iter().map(|&i| &self.samples[i]).collect()
    }

    /// Samples of the validation split.
    pub fn val_samples(&self) -> Vec<&Sample> {
        self.val.iter().map(|&i| &self.samples[i]).collect()
    }

    /// Samples of the test split.
    pub fn test_samples(&self) -> Vec<&Sample> {
        self.test.iter().map(|&i| &self.samples[i]).collect()
    }
}

/// Element sampling weights: common MPtrj chemistry (O, Li, transition
/// metals, P, Si, ...) is strongly over-represented, the rest of the 89
/// elements form the tail.
fn element_weights() -> [f32; N_ELEMENTS] {
    let mut w = [1.0f32; N_ELEMENTS];
    let boosts: [(u8, f32); 20] = [
        (8, 30.0), // O
        (3, 15.0), // Li
        (26, 8.0), // Fe
        (25, 6.0), // Mn
        (15, 6.0), // P
        (14, 6.0), // Si
        (1, 6.0),  // H
        (12, 5.0), // Mg
        (11, 5.0), // Na
        (16, 5.0), // S
        (27, 4.0), // Co
        (28, 4.0), // Ni
        (22, 4.0), // Ti
        (9, 4.0),  // F
        (7, 4.0),  // N
        (20, 4.0), // Ca
        (13, 4.0), // Al
        (29, 3.0), // Cu
        (19, 3.0), // K
        (23, 3.0), // V
    ];
    for (z, b) in boosts {
        w[z as usize - 1] = b;
    }
    w
}

/// Sample one element from the weighted distribution.
fn sample_element(rng: &mut StdRng, weights: &[f32; N_ELEMENTS]) -> Element {
    let total: f32 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return Element::new(i as u8 + 1);
        }
        x -= w;
    }
    Element::new(N_ELEMENTS as u8)
}

/// Log-normal atom count, truncated to the configured range.
fn sample_n_atoms(rng: &mut StdRng, cfg: &DatasetConfig) -> usize {
    // Box-Muller normal.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let n = (cfg.log_mean + cfg.log_std * z).exp().round() as i64;
    (n.max(cfg.min_atoms as i64) as usize).min(cfg.max_atoms)
}

/// Energy-per-atom sanity bound for generated structures (eV/atom). The
/// oracle's Morse wall makes near-contact geometries arbitrarily
/// repulsive; MPtrj-style relaxation frames live in a moderate band, so
/// we reject pathological cells. In practice the separation test rejects
/// every such cell first: of the 710 candidates behind perfbench
/// train-dp4's 320 structures 390 fail separation and none fails this
/// bound, and of the 134 behind the first 64 structures of
/// `DatasetConfig::default()` 70 and none.
pub const MAX_ABS_E_PER_ATOM: f64 = 25.0;

/// Smallest allowed `distance / (r0_i + r0_j)` of any atom pair.
const MIN_SEPARATION_RATIO: f64 = 0.8;

/// Generate one random crystal whose geometry is chemically sane: atom
/// pairs respect a fraction of their equilibrium distance and the oracle
/// energy per atom stays within [`MAX_ABS_E_PER_ATOM`]. Retries with a
/// progressively larger cell; deterministic given the RNG state.
pub fn sane_random_structure(rng: &mut StdRng, cfg: &DatasetConfig) -> Structure {
    screened_structure(rng, cfg).0
}

/// [`sane_random_structure`] with the structure's [`neighbor_list`]
/// within [`ATOM_CUTOFF`]. Only a candidate that passes the separation
/// test gets a list and an energy; neither check draws from `rng`.
fn screened_structure(rng: &mut StdRng, cfg: &DatasetConfig) -> (Structure, Vec<Bond>) {
    let mut volume_boost = 1.0;
    let mut last = None;
    for _attempt in 0..8 {
        let s = random_structure_with_boost(rng, cfg, volume_boost);
        if well_separated(&s) {
            let bonds = neighbor_list(&s, ATOM_CUTOFF);
            let e_per_atom = energy_on(&s, &bonds) / s.n_atoms() as f64;
            if e_per_atom.abs() < MAX_ABS_E_PER_ATOM {
                return (s, bonds);
            }
        }
        last = Some(s);
        volume_boost *= 1.35;
    }
    let s = last.expect("at least one candidate generated");
    let bonds = neighbor_list(&s, ATOM_CUTOFF);
    (s, bonds)
}

/// Whether every `distance / (r0_i + r0_j)` over all pairs, and over each
/// atom and its nearest periodic image, exceeds [`MIN_SEPARATION_RATIO`];
/// returns at the first pair that does not. A pair distance is the
/// minimum over the 27 images `(a, b, c) ∈ {-1, 0, 1}³`, formed by the
/// expressions of `Structure::min_image_distance` with the images and
/// Cartesian positions computed once, and one square root of the smallest
/// squared distance (`sqrt` is monotone and correctly rounded, so that is
/// bitwise the smallest distance); a self-pair takes the shortest lattice
/// row as its distance. Each pair's 27 squared distances are computed in
/// the host's lanes.
pub fn well_separated(s: &Structure) -> bool {
    well_separated_on(Tier::host(), s)
}

/// [`well_separated`] on `tier`'s lanes.
fn well_separated_on(tier: Tier, s: &Structure) -> bool {
    let m = s.lattice.m;
    let shortest_row = (0..3)
        .map(|k| (m[k][0].powi(2) + m[k][1].powi(2) + m[k][2].powi(2)).sqrt())
        .fold(f64::INFINITY, f64::min);
    // The images' Cartesian offsets by axis, padded with `+inf`, whose
    // squared distance is `+inf` and never the smallest.
    let mut images = [[f64::INFINITY; IMAGE_LANES]; 3];
    for k in 0..27 {
        let img = s.lattice.frac_to_cart([k / 9, k / 3 % 3, k % 3].map(|n| n as f64 - 1.0));
        for (axis, x) in images.iter_mut().zip(img) {
            axis[k] = x;
        }
    }
    let carts = s.cart_coords();
    let r0: Vec<f32> = s.species.iter().map(|e| e.oracle_params().r0).collect();
    run_on(tier, Separation { carts: &carts, r0: &r0, images: &images, shortest_row })
}

/// The 27 images padded to whole chunks of the widest lanes.
const IMAGE_LANES: usize = 32;

/// [`well_separated`]'s pair loop over one structure.
struct Separation<'a> {
    carts: &'a [[f64; 3]],
    r0: &'a [f32],
    images: &'a [[f64; IMAGE_LANES]; 3],
    shortest_row: f64,
}

impl LanePass for Separation<'_> {
    type Out = bool;

    #[inline(always)]
    fn run<V: Lanes>(self) -> bool {
        let (carts, r0, images) = (self.carts, self.r0, self.images);
        for i in 0..carts.len() {
            let xi = carts[i];
            for j in i..carts.len() {
                let d = if i == j {
                    self.shortest_row
                } else {
                    let xj = carts[j];
                    let mut best = V::splat(f64::INFINITY);
                    for k in (0..IMAGE_LANES).step_by(V::N) {
                        // `xj + img − xi` per axis, then `dx² + dy² + dz²`.
                        let dx = V::splat(xj[0]).add(V::load(&images[0][k..])).sub(V::splat(xi[0]));
                        let dy = V::splat(xj[1]).add(V::load(&images[1][k..])).sub(V::splat(xi[1]));
                        let dz = V::splat(xj[2]).add(V::load(&images[2][k..])).sub(V::splat(xi[2]));
                        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
                        best = r2.min(best);
                    }
                    best.min_lane().sqrt()
                };
                let pair_r0 = (r0[i] + r0[j]) as f64;
                if d / pair_r0.max(0.1) <= MIN_SEPARATION_RATIO {
                    return false;
                }
            }
        }
        true
    }
}

/// Generate one random crystal: weighted species on a jittered grid inside
/// a sheared cubic cell with a chemically plausible volume per atom (grown
/// by `volume_boost`). Each candidate of [`sane_random_structure`]'s screen
/// is one such draw.
pub fn random_structure_with_boost(
    rng: &mut StdRng,
    cfg: &DatasetConfig,
    volume_boost: f64,
) -> Structure {
    let weights = element_weights();
    let n_atoms = sample_n_atoms(rng, cfg);

    // 1-4 distinct species per structure, then per-site assignment.
    let n_species = rng.gen_range(1..=4usize.min(n_atoms));
    let palette: Vec<Element> = (0..n_species).map(|_| sample_element(rng, &weights)).collect();
    let species: Vec<Element> =
        (0..n_atoms).map(|_| palette[rng.gen_range(0..n_species)]).collect();

    // Volume per atom scaled by the average equilibrium radius (grown by
    // the caller's boost when a previous candidate was too dense).
    let avg_r: f64 =
        species.iter().map(|e| e.oracle_params().r0 as f64).sum::<f64>() / n_atoms as f64;
    let v_per_atom = 11.0 * avg_r.powi(3).max(1.0) * rng.gen_range(1.2..2.2) * volume_boost;
    let a = (n_atoms as f64 * v_per_atom).cbrt();

    // Perturbed cubic lattice: up to ±6% shear/stretch.
    let mut m = [[0.0f64; 3]; 3];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x =
                if i == j { a * rng.gen_range(0.94..1.06) } else { a * rng.gen_range(-0.06..0.06) };
        }
    }
    let lattice = Lattice::new(m[0], m[1], m[2]);

    // Jittered grid placement guarantees a minimum separation.
    let grid = (n_atoms as f64).cbrt().ceil() as usize;
    let mut cells: Vec<[usize; 3]> = Vec::with_capacity(grid * grid * grid);
    for x in 0..grid {
        for y in 0..grid {
            for z in 0..grid {
                cells.push([x, y, z]);
            }
        }
    }
    // Random subset of grid cells.
    for i in (1..cells.len()).rev() {
        let j = rng.gen_range(0..=i);
        cells.swap(i, j);
    }
    let spacing = 1.0 / grid as f64;
    let jitter = 0.25 * spacing;
    let frac: Vec<[f64; 3]> = cells[..n_atoms]
        .iter()
        .map(|c| {
            [
                (c[0] as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                (c[1] as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                (c[2] as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
            ]
        })
        .collect();

    Structure::new(lattice, species, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{energy_on_tier, evaluate, evaluate_on_tier, reference, ORACLE_CUTOFF};

    /// The separation measure `well_separated` replaced: the smallest
    /// pairwise `distance / (r0_i + r0_j)` over all pairs (a self-pair
    /// probes the shortest lattice row), kept as its reference.
    fn min_separation_ratio(s: &Structure) -> f64 {
        let mut worst = f64::INFINITY;
        for i in 0..s.n_atoms() {
            for j in i..s.n_atoms() {
                let d = if i == j {
                    let m = s.lattice.m;
                    (0..3)
                        .map(|k| (m[k][0].powi(2) + m[k][1].powi(2) + m[k][2].powi(2)).sqrt())
                        .fold(f64::INFINITY, f64::min)
                } else {
                    s.min_image_distance(i, j)
                };
                let r0 = (s.species[i].oracle_params().r0 + s.species[j].oracle_params().r0) as f64;
                worst = worst.min(d / r0.max(0.1));
            }
        }
        worst
    }

    /// Raw candidates as the screen draws them, at the first three volume
    /// boosts (dense ones included), from a train-dp4-like size
    /// distribution.
    fn candidates(n: usize) -> Vec<Structure> {
        let cfg = DatasetConfig { log_mean: 2.5, log_std: 0.85, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(33);
        (0..n)
            .map(|k| random_structure_with_boost(&mut rng, &cfg, 1.35f64.powi(k as i32 % 3)))
            .collect()
    }

    #[test]
    fn separation_test_is_the_min_ratio_verdict() {
        let cands = candidates(600);
        let mut failing = 0;
        for s in &cands {
            let reference = min_separation_ratio(s) > MIN_SEPARATION_RATIO;
            for tier in Tier::on_host() {
                assert_eq!(well_separated_on(tier, s), reference, "{tier:?} {}", s.formula());
            }
            failing += usize::from(!reference);
        }
        assert!(failing >= 100, "only {failing} of {} candidates fail", cands.len());
    }

    #[test]
    fn energy_pass_is_bitwise_the_full_oracle_energy() {
        let cands = candidates(240);
        for s in &cands {
            let e = energy_on(s, &neighbor_list(s, ORACLE_CUTOFF));
            assert_eq!(e.to_bits(), evaluate(s).energy.to_bits(), "{}", s.formula());
        }
        let dense = cands.iter().filter(|s| !well_separated(s)).count();
        assert!(dense >= 50, "only {dense} dense candidates");
    }

    #[test]
    fn oracle_is_bitwise_the_per_use_reference() {
        let f = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The candidates of the energy-pass test above, 50 or more dense.
        for s in &candidates(240) {
            let bonds = neighbor_list(s, ORACLE_CUTOFF);
            let want = reference::evaluate_on(s, &bonds);
            let want_e = reference::energy_on(s, &bonds);
            for tier in Tier::on_host() {
                let got = evaluate_on_tier(tier, s, &bonds);
                assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "{tier:?} {}", s.formula());
                assert_eq!(f(got.forces.as_flattened()), f(want.forces.as_flattened()));
                assert_eq!(f(got.stress.as_flattened()), f(want.stress.as_flattened()));
                assert_eq!(f(&got.magmoms), f(&want.magmoms));
                let e = energy_on_tier(tier, s, &bonds);
                assert_eq!(e.to_bits(), want_e.to_bits(), "{tier:?} {}", s.formula());
            }
        }
    }

    #[test]
    fn sample_is_bitwise_the_graph_and_the_oracle_built_apart() {
        let f = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for s in candidates(40) {
            let sample = Sample::from_structure(s.clone());
            let (graph, labels) = (CrystalGraph::new(s.clone()), evaluate(&s));
            assert_eq!(sample.graph.structure, graph.structure);
            assert_eq!(sample.graph.bonds.len(), graph.bonds.len());
            for (a, b) in sample.graph.bonds.iter().zip(&graph.bonds) {
                assert_eq!((a.i, a.j, a.image, a.r.to_bits()), (b.i, b.j, b.image, b.r.to_bits()));
            }
            assert_eq!(sample.graph.angles, graph.angles);
            let l = &sample.labels;
            assert_eq!(l.energy.to_bits(), labels.energy.to_bits());
            assert_eq!(f(l.forces.as_flattened()), f(labels.forces.as_flattened()));
            assert_eq!(f(l.stress.as_flattened()), f(labels.stress.as_flattened()));
            assert_eq!(f(&l.magmoms), f(&labels.magmoms));
        }
    }

    fn small_cfg() -> DatasetConfig {
        DatasetConfig { n_structures: 40, ..Default::default() }
    }

    #[test]
    fn deterministic_generation() {
        let a = SynthMPtrj::generate(&small_cfg());
        let b = SynthMPtrj::generate(&small_cfg());
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.graph.structure, y.graph.structure);
            assert_eq!(x.labels.energy, y.labels.energy);
        }
    }

    #[test]
    fn split_ratios() {
        let d = SynthMPtrj::generate(&small_cfg());
        let n = d.samples.len();
        assert_eq!(d.train.len() + d.val.len() + d.test.len(), n);
        assert_eq!(d.test.len(), (n as f64 * 0.05).ceil() as usize);
        assert_eq!(d.val.len(), d.test.len());
        // No overlap.
        let mut all: Vec<usize> = d.train.iter().chain(&d.val).chain(&d.test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn sizes_within_bounds_and_long_tail() {
        let cfg = DatasetConfig { n_structures: 150, ..Default::default() };
        let d = SynthMPtrj::generate(&cfg);
        let sizes: Vec<usize> = d.samples.iter().map(|s| s.graph.n_atoms()).collect();
        assert!(sizes.iter().all(|&n| n >= cfg.min_atoms && n <= cfg.max_atoms));
        // Long tail: the mean exceeds the median.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > median * 0.95, "mean {mean} vs median {median}");
    }

    #[test]
    fn atoms_not_overlapping() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let s = random_structure_with_boost(&mut rng, &small_cfg(), 1.0);
            for i in 0..s.n_atoms() {
                for j in (i + 1)..s.n_atoms() {
                    let d = s.min_image_distance(i, j);
                    assert!(d > 0.5, "atoms {i},{j} at distance {d} in {}", s.formula());
                }
            }
        }
    }

    #[test]
    fn frames_are_perturbed_copies() {
        let cfg = DatasetConfig { n_structures: 5, frames: 3, ..Default::default() };
        let d = SynthMPtrj::generate(&cfg);
        assert_eq!(d.samples.len(), 15);
        // Frames of the same base share formula but differ in coordinates.
        let s0 = &d.samples[0].graph.structure;
        let s1 = &d.samples[1].graph.structure;
        assert_eq!(s0.formula(), s1.formula());
        assert_ne!(s0.frac_coords, s1.frac_coords);
    }

    #[test]
    fn labels_are_finite() {
        let d = SynthMPtrj::generate(&small_cfg());
        for s in &d.samples {
            assert!(s.labels.energy.is_finite());
            assert!(s.labels.forces.iter().flatten().all(|f| f.is_finite()));
            assert!(s.labels.magmoms.iter().all(|m| m.is_finite()));
        }
    }

    /// An FNV-1a fold of the bits of everything `generate` emits: the
    /// splits, and per sample the structure, its bonds and angles and
    /// every label field.
    fn digest(d: &SynthMPtrj) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for split in [&d.train, &d.val, &d.test] {
            eat(split.len() as u64);
            split.iter().for_each(|&i| eat(i as u64));
        }
        for s in &d.samples {
            let (st, l) = (&s.graph.structure, &s.labels);
            st.lattice.m.iter().flatten().for_each(|x| eat(x.to_bits()));
            eat(st.n_atoms() as u64);
            st.species.iter().for_each(|e| eat(e.z() as u64));
            st.frac_coords.iter().flatten().for_each(|x| eat(x.to_bits()));
            eat(s.graph.bonds.len() as u64);
            for b in &s.graph.bonds {
                eat(((b.i as u64) << 32) | b.j as u64);
                b.image.iter().for_each(|&k| eat(k as u32 as u64));
                eat(b.r.to_bits());
            }
            eat(s.graph.angles.len() as u64);
            s.graph.angles.iter().for_each(|a| eat(((a.b_ij as u64) << 32) | a.b_ik as u64));
            eat(l.energy.to_bits());
            l.forces.iter().flatten().for_each(|x| eat(x.to_bits()));
            l.stress.iter().flatten().for_each(|x| eat(x.to_bits()));
            l.magmoms.iter().for_each(|x| eat(x.to_bits()));
        }
        h
    }

    #[test]
    fn generate_emits_the_pinned_bits() {
        let d = SynthMPtrj::generate(&DatasetConfig {
            n_structures: 64,
            frames: 2,
            ..Default::default()
        });
        assert_eq!(d.samples.len(), 128);
        assert_eq!(digest(&d), 0xe43b_dfc6_3c2d_42c9);
    }
}
