//! Table I: test-set MAE of CHGNet vs FastCHGNet (w/o head and F/S head).
//!
//! Trains the three Table-I model variants on the SynthMPtrj dataset with
//! the paper's loss prefactors and LR policy, then reports E/F/S/M MAE and
//! parameter counts next to the paper's published values.
//!
//! Run: `figures table1` (`FASTCHGNET_SCALE=full` for the larger setting).

use fc_bench::{render_table, Scale};
use fc_core::ModelVariant;
use fc_telemetry::RunReport;
use fc_train::train_model;

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    println!(
        "dataset: {} samples (train {} / val {} / test {})\n",
        data.samples.len(),
        data.train.len(),
        data.val.len(),
        data.test.len()
    );

    // Paper values for the comparison columns.
    let paper: [(&str, &str, f64, f64, f64, f64); 3] = [
        ("CHGNet v0.3.0", "412.5K", 29.0, 68.0, 0.314, 37.0),
        ("FastCHGNet w/o head", "411.2K", 26.0, 62.0, 0.270, 35.0),
        ("FastCHGNet F/S head", "429.1K", 16.0, 73.0, 0.479, 36.0),
    ];

    let variants = [ModelVariant::Reference, ModelVariant::FastNoHead, ModelVariant::FastHead];
    let mut rows = Vec::new();
    let mut tsv =
        String::from("model\tparams\te_mae_meV_atom\tf_mae_meV_A\ts_mae_GPa\tm_mae_mmuB\n");
    for (variant, paper_row) in variants.iter().zip(&paper) {
        println!("training {} ...", variant.label());
        let (_, report) = train_model(&data, &scale.train_config(*variant));
        let m = report.test;
        println!("  -> {} | params {}", m.summary(), report.n_params);
        rows.push(vec![
            variant.label().to_string(),
            format!("{:.1}K", report.n_params as f64 / 1e3),
            format!("{:.1} (paper {:.0})", m.e_mae * 1e3, paper_row.2),
            format!("{:.1} (paper {:.0})", m.f_mae * 1e3, paper_row.3),
            format!("{:.3} (paper {:.3})", m.s_mae, paper_row.4),
            format!("{:.1} (paper {:.0})", m.m_mae * 1e3, paper_row.5),
        ]);
        tsv.push_str(&format!(
            "{}\t{}\t{:.3}\t{:.3}\t{:.4}\t{:.3}\n",
            variant.label(),
            report.n_params,
            m.e_mae * 1e3,
            m.f_mae * 1e3,
            m.s_mae,
            m.m_mae * 1e3,
        ));
    }

    println!(
        "\n{}",
        render_table(
            &["model", "params", "E (meV/atom)", "F (meV/Å)", "S (GPa)", "M (mμ_B)"],
            &rows
        )
    );

    let mut report = RunReport::new("table1", 7);
    report.set_meta("epochs", scale.epochs).set_meta("variants", variants.len());
    (tsv, report)
}
