//! The force-field abstraction: anything that maps a structure to
//! energy/forces/stress can drive the MD engine and the relaxer.

use crate::calculator::{CalcResult, Calculator};
use fc_crystal::Structure;

/// A potential-energy surface provider.
pub trait ForceField {
    /// Evaluate energy, forces, stress and magmoms for a structure.
    fn compute(&self, structure: &Structure) -> CalcResult;

    /// Short human-readable name (for logs).
    fn name(&self) -> &str {
        "force-field"
    }
}

impl ForceField for Calculator<'_> {
    fn compute(&self, structure: &Structure) -> CalcResult {
        self.evaluate(structure)
    }

    fn name(&self) -> &str {
        "chgnet"
    }
}

/// The synthetic-DFT oracle exposed as a force field. Exact analytic
/// forces make it the ground-truth driver for validating the integrator
/// (NVE energy conservation) and the relaxer, independent of any model.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleField;

impl ForceField for OracleField {
    fn compute(&self, structure: &Structure) -> CalcResult {
        let l = fc_crystal::evaluate(structure);
        CalcResult { energy: l.energy, forces: l.forces, stress: l.stress, magmoms: l.magmoms }
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_crystal::{Element, Lattice};

    #[test]
    fn oracle_field_matches_direct_evaluation() {
        let s = Structure::new(
            Lattice::cubic(3.6),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        );
        let via_field = OracleField.compute(&s);
        let direct = fc_crystal::evaluate(&s);
        assert_eq!(via_field.energy, direct.energy);
        assert_eq!(via_field.forces, direct.forces);
        assert_eq!(OracleField.name(), "oracle");
    }
}
