//! Model configuration and the optimization ladder.

/// Cumulative optimization levels, matching the step-by-step system
/// optimization axis of the paper's Fig. 8:
///
/// 1. [`OptLevel::Reference`] — the reference CHGNet implementation:
///    serial per-graph basis computation (Alg. 1), unfused elementwise
///    chains, and force/stress from energy derivatives (second-order
///    training).
/// 2. [`OptLevel::ParallelBasis`] — Alg. 2: one batched basis computation
///    with block-diagonal image offsets ("Parallel computation of basis").
/// 3. [`OptLevel::Fusion`] — + fused sRBF/Fourier kernels, packed
///    embedding linears, GatedMLP branch packing + fused gate, Horner
///    envelope, gather reuse and dependency elimination ("Kernel fusion +
///    Redundancy bypass").
/// 4. [`OptLevel::Decoupled`] — + Force/Stress heads replacing the energy
///    derivatives (multi-head decomposition; first-order training only).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum OptLevel {
    /// Reference CHGNet (Alg. 1, unfused, derivative outputs).
    Reference,
    /// + batched basis computation (Alg. 2).
    ParallelBasis,
    /// + kernel fusion, redundancy bypass, dependency elimination.
    Fusion,
    /// + Force/Stress head decoupling.
    Decoupled,
}

impl OptLevel {
    /// All levels in cumulative order (the Fig. 8 x-axis).
    pub const LADDER: [OptLevel; 4] =
        [OptLevel::Reference, OptLevel::ParallelBasis, OptLevel::Fusion, OptLevel::Decoupled];

    /// Whether the basis is computed batched (Alg. 2) instead of per graph
    /// (Alg. 1).
    pub fn batched_basis(self) -> bool {
        self >= OptLevel::ParallelBasis
    }

    /// Whether fused kernels and packed linears are used.
    pub fn fused(self) -> bool {
        self >= OptLevel::Fusion
    }

    /// Whether the interaction block's bond/angle updates read the stale
    /// features (dependency elimination, Eq. 11).
    pub fn dependency_eliminated(self) -> bool {
        self >= OptLevel::Fusion
    }

    /// Whether Force/Stress heads replace the energy derivatives.
    pub fn decoupled_heads(self) -> bool {
        self == OptLevel::Decoupled
    }

    /// Short label used by the benchmark reports.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Reference => "reference",
            OptLevel::ParallelBasis => "+parallel-basis",
            OptLevel::Fusion => "+fusion/redundancy",
            OptLevel::Decoupled => "+decoupling",
        }
    }
}

/// The three model rows of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ModelVariant {
    /// Reference CHGNet v0.3.0-style implementation.
    Reference,
    /// FastCHGNet "w/o head": all system optimizations, forces/stress
    /// still derived from the energy (second-order training).
    FastNoHead,
    /// FastCHGNet "F/S head": output layer decoupled by the Force and
    /// Stress heads (first-order training).
    FastHead,
}

impl ModelVariant {
    /// The optimization level implied by the variant.
    pub fn opt_level(self) -> OptLevel {
        match self {
            ModelVariant::Reference => OptLevel::Reference,
            ModelVariant::FastNoHead => OptLevel::Fusion,
            ModelVariant::FastHead => OptLevel::Decoupled,
        }
    }

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            ModelVariant::Reference => "CHGNet v0.3.0",
            ModelVariant::FastNoHead => "FastCHGNet w/o head",
            ModelVariant::FastHead => "FastCHGNet F/S head",
        }
    }
}

/// Envelope smoothness exponent p of the radial basis (paper: 8).
pub(crate) const ENVELOPE_P: u32 = 8;

/// Highest atomic number embedded.
pub(crate) const MAX_Z: usize = 94;

/// LayerNorm epsilon of every GatedMLP.
pub(crate) const LN_EPS: f32 = 1e-5;

/// Hyper-parameters of the CHGNet family (paper §IV "Parameters Setting").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    /// Feature width of atom/bond/angle embeddings (paper: 64).
    pub fea: usize,
    /// Radial basis size (paper: 31).
    pub n_rbf: usize,
    /// Fourier harmonics K; angular basis = 2K+1 columns (paper: 31 → K=15).
    pub n_harmonics: usize,
    /// Number of interaction blocks (paper: 3, `t ∈ [0, 1, 2]`).
    pub n_blocks: usize,
    /// Atom-graph cutoff (Å).
    pub atom_cutoff: f32,
    /// Bond-graph cutoff (Å).
    pub bond_cutoff: f32,
    /// Optimization level (see [`OptLevel`]).
    pub opt_level: OptLevel,
}

impl ModelConfig {
    /// Paper-default configuration at a given optimization level.
    pub fn with_level(opt_level: OptLevel) -> Self {
        ModelConfig {
            fea: 64,
            n_rbf: 31,
            n_harmonics: 15,
            n_blocks: 3,
            atom_cutoff: 6.0,
            bond_cutoff: 3.0,
            opt_level,
        }
    }

    /// Configuration for a Table-I model variant.
    pub fn for_variant(v: ModelVariant) -> Self {
        Self::with_level(v.opt_level())
    }

    /// A reduced-width configuration for fast tests and examples.
    pub fn tiny(opt_level: OptLevel) -> Self {
        ModelConfig {
            fea: 16,
            n_rbf: 8,
            n_harmonics: 4,
            n_blocks: 2,
            ..Self::with_level(opt_level)
        }
    }

    /// The angular basis column count (2K+1).
    pub fn n_abf(&self) -> usize {
        2 * self.n_harmonics + 1
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::with_level(OptLevel::Decoupled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        assert!(!OptLevel::Reference.batched_basis());
        assert!(OptLevel::ParallelBasis.batched_basis());
        assert!(!OptLevel::ParallelBasis.fused());
        assert!(OptLevel::Fusion.fused());
        assert!(OptLevel::Fusion.dependency_eliminated());
        assert!(!OptLevel::Fusion.decoupled_heads());
        assert!(OptLevel::Decoupled.decoupled_heads());
        assert_eq!(OptLevel::LADDER.len(), 4);
        for w in OptLevel::LADDER.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn variants_map_to_levels() {
        assert_eq!(ModelVariant::Reference.opt_level(), OptLevel::Reference);
        assert_eq!(ModelVariant::FastNoHead.opt_level(), OptLevel::Fusion);
        assert_eq!(ModelVariant::FastHead.opt_level(), OptLevel::Decoupled);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = ModelConfig::default();
        assert_eq!(c.fea, 64);
        assert_eq!(c.n_rbf, 31);
        assert_eq!(c.n_abf(), 31);
        assert_eq!(c.n_blocks, 3);
        assert_eq!(c.atom_cutoff, 6.0);
        assert_eq!(c.bond_cutoff, 3.0);
    }
}
