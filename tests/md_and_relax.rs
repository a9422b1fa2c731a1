//! Integration tests of the MD / relaxation stack against both the exact
//! oracle and trained-model force fields.

use fastchgnet::crystal::{from_poscar, to_poscar};
use fastchgnet::prelude::*;

fn rocksalt(a: f64) -> Structure {
    Structure::new(
        Lattice::cubic(a),
        vec![Element::from_symbol("Li").unwrap(), Element::from_symbol("O").unwrap()],
        vec![[0.0; 3], [0.5, 0.5, 0.5]],
    )
}

#[test]
fn oracle_md_respects_equipartition_scale() {
    // Short NVE run from 300 K: temperature stays within a physical band
    // (energy flows between KE and PE but cannot explode).
    let traj = run_md(
        &OracleField,
        &rocksalt(4.2),
        &MdConfig { steps: 50, dt_fs: 1.0, init_t_kelvin: 300.0, ..Default::default() },
    );
    for f in &traj.frames {
        assert!(f.temperature >= 0.0 && f.temperature < 3000.0, "T = {}", f.temperature);
        assert!(f.potential.is_finite());
    }
}

#[test]
fn model_and_oracle_fields_share_interface() {
    let s = rocksalt(3.6);
    let mut store = ParamStore::new();
    let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 1);
    let calc = Calculator::new(&model, &store);
    // Both fields drive the same MD entry point.
    for field in [&calc as &dyn ForceField, &OracleField as &dyn ForceField] {
        let r = field.compute(&s);
        assert_eq!(r.forces.len(), 2);
        assert!(r.energy.is_finite());
        let traj = run_md(field, &s, &MdConfig { steps: 2, ..Default::default() });
        assert_eq!(traj.frames.len(), 3);
    }
}

#[test]
fn fire_relaxation_on_oracle_reaches_low_force() {
    let mut perturbed = rocksalt(4.2);
    perturbed.displace_cart(&[[0.15, -0.1, 0.05], [-0.1, 0.12, -0.08]]);
    let before = OracleField.compute(&perturbed);
    let result = relax(&OracleField, &perturbed, &FireConfig { max_steps: 150, f_tol: 0.05 });
    let f_before = before.forces.iter().flatten().fold(0.0f64, |m, &x| m.max(x.abs()));
    assert!(
        result.max_force < f_before * 0.5,
        "relaxation barely helped: {f_before} -> {}",
        result.max_force
    );
    assert!(result.energies.last().unwrap() <= &result.energies[0]);
}

#[test]
fn relaxed_structure_roundtrips_through_poscar() {
    let result = relax(&OracleField, &rocksalt(4.2), &FireConfig::default());
    let text = to_poscar(&result.structure, "relaxed");
    let back = from_poscar(&text).expect("parse POSCAR");
    assert_eq!(back.n_atoms(), 2);
    assert_eq!(back.formula(), result.structure.formula());
    // Oracle energies agree after the round trip.
    let e1 = oracle_evaluate(&result.structure).energy;
    let e2 = oracle_evaluate(&back).energy;
    assert!((e1 - e2).abs() < 1e-6 * (1.0 + e1.abs()), "{e1} vs {e2}");
}
