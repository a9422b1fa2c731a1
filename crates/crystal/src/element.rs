//! Chemical elements and their per-element oracle parameters.
//!
//! The MPtrj dataset covers 89 elements. We carry a real periodic table
//! (symbol, atomic mass, covalent radius) for Z = 1..=94 — masses drive the
//! MD integrator, radii drive structure generation — plus deterministic
//! per-element parameters for the synthetic DFT oracle, derived from a hash
//! of the atomic number so the whole dataset is reproducible from a seed.

/// Number of elements sampled by the SynthMPtrj generator (as in MPtrj).
pub const N_ELEMENTS: usize = 89;

/// Maximum atomic number carried in the embedded table.
pub const MAX_Z: u8 = 94;

/// `(symbol, atomic mass [amu], covalent radius [Å])` for Z = 1..=94.
/// Index 0 is Z = 1 (hydrogen).
#[rustfmt::skip]
const TABLE: [(&str, f32, f32); 94] = [
    ("H", 1.008, 0.31), ("He", 4.003, 0.28), ("Li", 6.94, 1.28), ("Be", 9.012, 0.96),
    ("B", 10.81, 0.84), ("C", 12.011, 0.76), ("N", 14.007, 0.71), ("O", 15.999, 0.66),
    ("F", 18.998, 0.57), ("Ne", 20.180, 0.58), ("Na", 22.990, 1.66), ("Mg", 24.305, 1.41),
    ("Al", 26.982, 1.21), ("Si", 28.085, 1.11), ("P", 30.974, 1.07), ("S", 32.06, 1.05),
    ("Cl", 35.45, 1.02), ("Ar", 39.948, 1.06), ("K", 39.098, 2.03), ("Ca", 40.078, 1.76),
    ("Sc", 44.956, 1.70), ("Ti", 47.867, 1.60), ("V", 50.942, 1.53), ("Cr", 51.996, 1.39),
    ("Mn", 54.938, 1.39), ("Fe", 55.845, 1.32), ("Co", 58.933, 1.26), ("Ni", 58.693, 1.24),
    ("Cu", 63.546, 1.32), ("Zn", 65.38, 1.22), ("Ga", 69.723, 1.22), ("Ge", 72.630, 1.20),
    ("As", 74.922, 1.19), ("Se", 78.971, 1.20), ("Br", 79.904, 1.20), ("Kr", 83.798, 1.16),
    ("Rb", 85.468, 2.20), ("Sr", 87.62, 1.95), ("Y", 88.906, 1.90), ("Zr", 91.224, 1.75),
    ("Nb", 92.906, 1.64), ("Mo", 95.95, 1.54), ("Tc", 98.0, 1.47), ("Ru", 101.07, 1.46),
    ("Rh", 102.906, 1.42), ("Pd", 106.42, 1.39), ("Ag", 107.868, 1.45), ("Cd", 112.414, 1.44),
    ("In", 114.818, 1.42), ("Sn", 118.710, 1.39), ("Sb", 121.760, 1.39), ("Te", 127.60, 1.38),
    ("I", 126.904, 1.39), ("Xe", 131.293, 1.40), ("Cs", 132.905, 2.44), ("Ba", 137.327, 2.15),
    ("La", 138.905, 2.07), ("Ce", 140.116, 2.04), ("Pr", 140.908, 2.03), ("Nd", 144.242, 2.01),
    ("Pm", 145.0, 1.99), ("Sm", 150.36, 1.98), ("Eu", 151.964, 1.98), ("Gd", 157.25, 1.96),
    ("Tb", 158.925, 1.94), ("Dy", 162.500, 1.92), ("Ho", 164.930, 1.92), ("Er", 167.259, 1.89),
    ("Tm", 168.934, 1.90), ("Yb", 173.045, 1.87), ("Lu", 174.967, 1.87), ("Hf", 178.49, 1.75),
    ("Ta", 180.948, 1.70), ("W", 183.84, 1.62), ("Re", 186.207, 1.51), ("Os", 190.23, 1.44),
    ("Ir", 192.217, 1.41), ("Pt", 195.084, 1.36), ("Au", 196.967, 1.36), ("Hg", 200.592, 1.32),
    ("Tl", 204.38, 1.45), ("Pb", 207.2, 1.46), ("Bi", 208.980, 1.48), ("Po", 209.0, 1.40),
    ("At", 210.0, 1.50), ("Rn", 222.0, 1.50), ("Fr", 223.0, 2.60), ("Ra", 226.0, 2.21),
    ("Ac", 227.0, 2.15), ("Th", 232.038, 2.06), ("Pa", 231.036, 2.00), ("U", 238.029, 1.96),
    ("Np", 237.0, 1.90), ("Pu", 244.0, 1.87),
];

/// A chemical element identified by atomic number.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct Element(pub u8);

impl Element {
    /// Construct from an atomic number in `1..=MAX_Z`.
    ///
    /// # Panics
    /// Panics outside the supported range.
    pub fn new(z: u8) -> Self {
        assert!((1..=MAX_Z).contains(&z), "atomic number {z} out of range 1..={MAX_Z}");
        Element(z)
    }

    /// Atomic number.
    #[inline]
    pub fn z(self) -> u8 {
        self.0
    }

    /// Chemical symbol.
    pub fn symbol(self) -> &'static str {
        TABLE[self.0 as usize - 1].0
    }

    /// Atomic mass in amu.
    pub fn mass(self) -> f32 {
        TABLE[self.0 as usize - 1].1
    }

    /// Covalent radius in Å.
    pub fn covalent_radius(self) -> f32 {
        TABLE[self.0 as usize - 1].2
    }

    /// Look up an element by symbol.
    pub fn from_symbol(sym: &str) -> Option<Element> {
        TABLE.iter().position(|&(s, _, _)| s == sym).map(|i| Element(i as u8 + 1))
    }

    /// Deterministic per-element oracle parameters
    /// ([`OracleParams::for_element`], tabulated once per process).
    pub fn oracle_params(self) -> OracleParams {
        static PARAMS: std::sync::OnceLock<[OracleParams; MAX_Z as usize]> =
            std::sync::OnceLock::new();
        PARAMS.get_or_init(|| {
            std::array::from_fn(|i| OracleParams::for_element(Element(i as u8 + 1)))
        })[self.0 as usize - 1]
    }
}

impl core::fmt::Display for Element {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// Per-element parameters of the synthetic DFT oracle (see
/// `crate::oracle`). All values are smooth deterministic functions of the
/// atomic number, giving each species its own well depth, bond length and
/// magnetic response — enough chemical diversity to make the learning task
/// non-trivial without any external data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleParams {
    /// Morse well depth D_e (eV).
    pub well_depth: f32,
    /// Morse width a (1/Å).
    pub width: f32,
    /// Equilibrium pair distance contribution r0 (Å); pairs use the sum.
    pub r0: f32,
    /// Electron-density amplitude for the EAM embedding term.
    pub density_amp: f32,
    /// Electron-density decay (1/Å).
    pub density_decay: f32,
    /// Reference (isolated-atom) energy E0 (eV).
    pub e0: f32,
    /// Magnetic susceptibility scale for the magmom oracle (μ_B).
    pub mag_scale: f32,
}

/// SplitMix64 — a tiny, high-quality hash for deterministic parameters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform f32 in [0, 1) from a hash stream.
fn unit(z: u8, stream: u64) -> f32 {
    let h = splitmix64((z as u64) << 32 | stream);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

impl OracleParams {
    /// Derive the parameters for `el` (pure function of Z).
    pub fn for_element(el: Element) -> Self {
        let z = el.z();
        let r_cov = el.covalent_radius();
        OracleParams {
            well_depth: 0.4 + 1.6 * unit(z, 1),
            // Kept soft (≤ 1.6 / Å) so that near-contact geometries stay
            // within a learnable energy range rather than exploding up the
            // repulsive wall.
            width: 0.9 + 0.7 * unit(z, 2),
            // Tie r0 to the covalent radius so generated geometries relax
            // toward chemically plausible distances.
            r0: r_cov * (0.95 + 0.2 * unit(z, 3)),
            density_amp: 0.5 + 1.5 * unit(z, 4),
            density_decay: 0.8 + 0.9 * unit(z, 5),
            e0: -1.0 - 6.0 * unit(z, 6),
            // Transition metals (Z 21..30, 39..48) get larger moments.
            mag_scale: if (21..=30).contains(&z) || (39..=48).contains(&z) {
                1.0 + 3.0 * unit(z, 7)
            } else {
                0.05 + 0.4 * unit(z, 7)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_elements() {
        assert_eq!(Element::new(3).symbol(), "Li");
        assert_eq!(Element::new(8).symbol(), "O");
        assert_eq!(Element::new(26).symbol(), "Fe");
        assert_eq!(Element::from_symbol("Mn"), Some(Element::new(25)));
        assert_eq!(Element::from_symbol("Xx"), None);
        assert!((Element::new(3).mass() - 6.94).abs() < 1e-3);
        assert_eq!(format!("{}", Element::new(22)), "Ti");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_z_panics() {
        let _ = Element::new(0);
    }

    #[test]
    fn oracle_params_deterministic_and_diverse() {
        let a = Element::new(26).oracle_params();
        let b = Element::new(26).oracle_params();
        assert_eq!(a, b);
        let c = Element::new(8).oracle_params();
        assert_ne!(a, c);
        // Parameters live in their documented ranges.
        for z in 1..=MAX_Z {
            let p = Element::new(z).oracle_params();
            assert!(p.well_depth >= 0.4 && p.well_depth <= 2.0);
            assert!(p.width >= 0.9 && p.width <= 1.6);
            assert!(p.r0 > 0.2 && p.r0 < 3.2);
            assert!(p.e0 <= -1.0 && p.e0 >= -7.0);
            assert!(p.mag_scale > 0.0);
        }
    }

    #[test]
    fn transition_metals_are_magnetic() {
        let fe = Element::new(26).oracle_params();
        let o = Element::new(8).oracle_params();
        assert!(fe.mag_scale > 1.0);
        assert!(o.mag_scale < 0.5);
    }

    #[test]
    fn table_is_monotone_in_mass_mostly() {
        // Sanity: masses grow along the table with at most a few classic
        // inversions (Ar/K, Co/Ni, Te/I, ...).
        let mut inversions = 0;
        for z in 1..MAX_Z {
            if Element::new(z + 1).mass() < Element::new(z).mass() {
                inversions += 1;
            }
        }
        assert!(inversions <= 5, "too many mass inversions: {inversions}");
    }
}
