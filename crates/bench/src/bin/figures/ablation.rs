//! Ablation studies called out in DESIGN.md:
//!
//! 1. **Sampler quality**: the default contiguous split and the strided
//!    round-robin baseline vs the paper's pairing sampler.
//! 2. **Communication overlap**: strong-scaling efficiency with the
//!    overlap optimization disabled vs enabled.
//!
//! Run: `figures ablation`

use fc_bench::{render_table, Scale};
use fc_telemetry::RunReport;
use fc_train::{
    load_cov, partition, strong_efficiency, CommModel, SamplerKind, ScalingModel, MPTRJ_EPOCH,
};

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let mut tsv = String::from("study\tsetting\tmetric\tvalue\n");

    // ------------------------------------------------ 1. samplers
    let features: Vec<usize> = data.samples.iter().map(|s| s.graph.feature_number()).collect();
    let mut rows = Vec::new();
    for (name, kind) in [
        ("default", SamplerKind::Default),
        ("round robin", SamplerKind::RoundRobin),
        ("paper pairing", SamplerKind::LoadBalance),
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

    // ------------------------------------------------ 2. comm overlap
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

    (tsv, RunReport::new("ablation", scale.dataset_cfg().seed))
}
