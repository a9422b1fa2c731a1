//! Structure relaxation with FIRE — CHGNet's flagship application.
//!
//! Relaxes a rattled crystal on the exact oracle PES (ground truth) and on
//! a FastCHGNet model, then writes the relaxed cell as a POSCAR.
//!
//! Run: `cargo run --release --example relax_structure`

use fastchgnet::crystal::to_poscar;
use fastchgnet::md::{relax, FireConfig, OracleField};
use fastchgnet::prelude::*;

fn main() {
    // A rattled rocksalt cell, away from its minimum.
    let structure = Structure::new(
        Lattice::cubic(4.2),
        vec![Element::from_symbol("Li").unwrap(), Element::from_symbol("O").unwrap()],
        vec![[0.06, -0.04, 0.03], [0.46, 0.53, 0.48]],
    );
    let start = oracle_evaluate(&structure);
    println!(
        "initial: E = {:.4} eV, max|F| = {:.3} eV/Å",
        start.energy,
        start.forces.iter().flatten().fold(0.0f64, |m, &x| m.max(x.abs()))
    );

    // 1. Relax on the exact oracle PES.
    let cfg = FireConfig { max_steps: 120, f_tol: 0.02 };
    let result = relax(&OracleField, &structure, &cfg);
    println!(
        "\noracle relaxation: {} steps, converged = {}, E {:.4} -> {:.4} eV, max|F| {:.4}",
        result.steps,
        result.converged,
        result.energies[0],
        result.energies.last().unwrap(),
        result.max_force
    );

    // 2. Relax on an (untrained, for demonstration) FastCHGNet PES.
    let mut store = ParamStore::new();
    let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 3);
    let calc = Calculator::new(&model, &store);
    let model_result = relax(&calc, &structure, &FireConfig { max_steps: 40, ..cfg });
    println!(
        "model relaxation:  {} steps, E {:.4} -> {:.4} eV (train the model first for physical minima!)",
        model_result.steps,
        model_result.energies[0],
        model_result.energies.last().unwrap()
    );

    // 3. Export the oracle-relaxed structure.
    let poscar = to_poscar(&result.structure, "FIRE-relaxed LiO rocksalt");
    let path = std::env::temp_dir().join("relaxed.poscar");
    std::fs::write(&path, &poscar).expect("write POSCAR");
    println!("\nrelaxed POSCAR written to {}:\n\n{poscar}", path.display());
}
