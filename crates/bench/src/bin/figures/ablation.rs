//! Ablation studies called out in DESIGN.md:
//!
//! 1. **Quantization** (paper §VII future work): post-training weight
//!    quantization of a trained FastCHGNet to bf16 / f16 / int8 and the
//!    resulting accuracy deltas.
//! 2. **Sampler quality**: default vs the paper's pairing sampler vs the
//!    greedy-LPT upper bound.
//! 3. **Communication overlap**: strong-scaling efficiency with the
//!    overlap optimization disabled vs enabled.
//!
//! Run: `figures ablation`

use fc_bench::{render_table, Scale};
use fc_core::ModelVariant;
use fc_crystal::Sample;
use fc_telemetry::RunReport;
use fc_train::{
    evaluate, load_cov, model_bytes, partition, quantize_store, strong_efficiency, train_model,
    CommModel, Precision, SamplerKind, ScalingModel, MPTRJ_EPOCH,
};

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let test: Vec<&Sample> = data.test_samples();
    let mut tsv = String::from("study\tsetting\tmetric\tvalue\n");

    // ------------------------------------------------ 1. quantization
    println!("training a FastCHGNet for the quantization study ...");
    let cfg = scale.train_config(ModelVariant::FastHead);
    let (cluster, _) = train_model(&data, &cfg);
    let mut rows = Vec::new();
    for p in [Precision::F32, Precision::Bf16, Precision::F16, Precision::Int8] {
        let qstore = quantize_store(&cluster.store, p);
        let m = evaluate(&cluster.model, &qstore, &test, 8);
        rows.push(vec![
            p.label().to_string(),
            format!("{:.1} KB", model_bytes(&cluster.store, p) as f64 / 1e3),
            format!("{:.2}", m.e_mae * 1e3),
            format!("{:.2}", m.f_mae * 1e3),
            format!("{:.4}", m.s_mae),
            format!("{:.2}", m.m_mae * 1e3),
        ]);
        tsv.push_str(&format!(
            "quantization\t{}\te_mae_meV\t{:.4}\nquantization\t{}\tf_mae_meV\t{:.4}\n",
            p.label(),
            m.e_mae * 1e3,
            p.label(),
            m.f_mae * 1e3
        ));
    }
    println!(
        "\n{}",
        render_table(
            &["precision", "weights", "E (meV/atom)", "F (meV/Å)", "S (GPa)", "M (mμ_B)"],
            &rows
        )
    );

    // ------------------------------------------------ 2. samplers
    let features: Vec<usize> = data.samples.iter().map(|s| s.graph.feature_number()).collect();
    let mut rows = Vec::new();
    for (name, kind) in [
        ("default", SamplerKind::Default),
        ("round robin", SamplerKind::RoundRobin),
        ("paper pairing", SamplerKind::LoadBalance),
        ("greedy LPT (ext)", SamplerKind::GreedyLpt),
    ] {
        let mut cov_acc = 0.0;
        let mut iters = 0;
        for chunk in features.chunks(128) {
            if chunk.len() < 8 {
                continue;
            }
            cov_acc += load_cov(chunk, &partition(chunk, 4, kind));
            iters += 1;
        }
        let cov = cov_acc / iters.max(1) as f64;
        rows.push(vec![name.to_string(), format!("{cov:.4}")]);
        tsv.push_str(&format!("sampler\t{name}\tcov\t{cov:.4}\n"));
    }
    println!("{}", render_table(&["sampler", "mean CoV (4 devices)"], &rows));

    // ------------------------------------------------ 3. comm overlap
    // The overlap fraction varied on fig10's projection.
    let (base, mean_features) = scale.projection(&data);
    let mut rows = Vec::new();
    for (name, overlap) in
        [("no overlap", 0.0), ("60% overlap (paper)", 0.6), ("full overlap", 1.0)]
    {
        let model = ScalingModel { comm: CommModel { overlap, ..base.comm }, ..base };
        let strong = model.strong_scaling(&[4, 8, 16, 32], MPTRJ_EPOCH, 2048, mean_features);
        let eff = strong_efficiency(&strong);
        let eff32 = eff.last().unwrap().2;
        rows.push(vec![name.to_string(), format!("{:.1}%", eff32 * 100.0)]);
        tsv.push_str(&format!("overlap\t{name}\teff32\t{eff32:.4}\n"));
    }
    println!("{}", render_table(&["communication", "strong-scaling eff @ 32 GPUs"], &rows));

    let mut report = RunReport::new("ablation", cfg.seed);
    report.set_meta("epochs", scale.epochs).set_meta("global_batch", scale.global_batch);
    (tsv, report)
}
