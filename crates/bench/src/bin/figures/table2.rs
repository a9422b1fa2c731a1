//! Table II: one-step molecular-dynamics time of CHGNet vs FastCHGNet on
//! LiMnO2, LiTiPO5 and Li9Co7O16.
//!
//! Each of [`ROUNDS`] rounds runs `run_md` for one step with the CHGNet
//! calculator and then with the FastCHGNet one, and reads each
//! trajectory's `mean_step_time` (`fc_bench::Rounds`): a model's time is
//! the median of its rounds and the speedup the median of the per-round
//! ratios.
//!
//! Run: `figures table2`

use fc_bench::{tsv_table, Rounds, Scale, ROUNDS};
use fc_core::{Chgnet, OptLevel};
use fc_crystal::{known, CrystalGraph, Structure};
use fc_md::{run_md, Calculator, MdConfig};
use fc_telemetry::RunReport;
use fc_tensor::ParamStore;

pub fn run(scale: &Scale) -> (String, RunReport) {
    // Crystal and the paper's CHGNet/FastCHGNet speedup.
    let systems: [(&str, Structure, f64); 3] = [
        ("LiMnO2", known::limno2(), 2.86),
        ("LiTiPO5", known::litipo5(), 2.63),
        ("Li9Co7O16", known::li9co7o16(), 3.03),
    ];

    // Reference CHGNet vs FastCHGNet (decoupled heads).
    let mut ref_store = ParamStore::new();
    let ref_model = Chgnet::new(scale.model(OptLevel::Reference), &mut ref_store, 11);
    let mut fast_store = ParamStore::new();
    let fast_model = Chgnet::new(scale.model(OptLevel::Decoupled), &mut fast_store, 11);
    let calcs =
        [Calculator::new(&ref_model, &ref_store), Calculator::new(&fast_model, &fast_store)];
    let md = MdConfig { steps: 1, init_t_kelvin: 100.0, ..Default::default() };

    let mut md_times: Vec<(String, f64, f64)> = Vec::new();
    let mut tsv = String::from(
        "crystal\tatoms\tbonds\tangles\tchgnet_s\tfastchgnet_s\tspeedup\tpaper_speedup\n",
    );
    for (name, structure, paper_speedup) in systems {
        let graph = CrystalGraph::new(structure.clone());
        let (na, nb, nang) = (graph.n_atoms(), graph.n_bonds(), graph.n_angles());
        println!("timing {name} (atoms {na}, bonds {nb}, angles {nang}) ...");
        let rounds = Rounds::run(2, |i| run_md(&calcs[i], &structure, &md).mean_step_time);
        let (t_ref, t_fast, speedup) = (rounds.median(0), rounds.median(1), rounds.ratio(0, 1));
        tsv.push_str(&format!(
            "{name}\t{na}\t{nb}\t{nang}\t{t_ref:.6}\t{t_fast:.6}\t{speedup:.3}\t{paper_speedup}\n"
        ));
        md_times.push((name.to_string(), t_ref, t_fast));
    }

    println!("\n{}", tsv_table(&tsv));
    println!("(paper: CHGNet 0.021-0.023 s, FastCHGNet 0.0076-0.0077 s per MD step on A100)");

    let mut report = RunReport::new("table2", 11);
    report.set_meta("rounds", ROUNDS);
    for (name, t_ref, t_fast) in &md_times {
        report
            .set_timing(format!("{name}_chgnet_step"), *t_ref)
            .set_timing(format!("{name}_fastchgnet_step"), *t_fast);
    }
    (tsv, report)
}
