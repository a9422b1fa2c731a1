//! Molecular dynamics on the paper's lithium compounds (the Table II
//! workload): run NVT MD on LiMnO2 with both the reference CHGNet and
//! FastCHGNet, comparing their mean step times and watching the thermostat.
//!
//! Run: `cargo run --release --example md_lithium`

use fastchgnet::crystal::known;
use fastchgnet::prelude::*;

fn main() {
    let structure = known::limno2();
    let graph = CrystalGraph::new(structure.clone());
    println!(
        "system: {} — {} atoms, {} bonds, {} angles",
        structure.formula(),
        graph.n_atoms(),
        graph.n_bonds(),
        graph.n_angles()
    );

    // Two calculators: derivative-based CHGNet vs head-based FastCHGNet.
    let mut ref_store = ParamStore::new();
    let ref_model = Chgnet::new(ModelConfig::tiny(OptLevel::Reference), &mut ref_store, 11);
    let mut fast_store = ParamStore::new();
    let fast_model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut fast_store, 11);

    let md_cfg = MdConfig {
        dt_fs: 1.0,
        steps: 10,
        ensemble: Ensemble::Nvt { t_kelvin: 300.0, gamma: 0.02 },
        init_t_kelvin: 300.0,
        seed: 1,
        log_every: 2,
    };

    let mut step_times = Vec::new();
    for (name, model, store) in [
        ("CHGNet (derivative forces)", &ref_model, &ref_store),
        ("FastCHGNet (force head)", &fast_model, &fast_store),
    ] {
        let calc = Calculator::new(model, store);
        println!("\n--- {name} ---");
        let traj = run_md(&calc, &structure, &md_cfg);
        println!("step | potential (eV) | temperature (K) | max |F| (eV/Å)");
        for f in &traj.frames {
            println!(
                "{:>4} | {:>14.4} | {:>15.1} | {:>13.4}",
                f.step, f.potential, f.temperature, f.max_force
            );
        }
        println!("mean MD step time: {:.4} s", traj.mean_step_time);
        step_times.push(traj.mean_step_time);
    }

    // The Table II-style comparison of the two runs' mean step times.
    println!(
        "\nMD step speedup of FastCHGNet over CHGNet: {:.2}x (paper: 2.86x on LiMnO2)",
        step_times[0] / step_times[1]
    );
}
