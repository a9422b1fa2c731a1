//! Multi-GPU scaling study: run real data-parallel training steps on
//! simulated clusters of growing size, watch the load-balance sampler's
//! effect on the straggler, and project strong scaling to A100s with the
//! model calibrated from counted kernel work (the Fig. 10 machinery).
//!
//! Run: `cargo run --release --example scaling_study`

use fastchgnet::prelude::*;
use fastchgnet::train::{strong_efficiency, ScalingModel, MPTRJ_EPOCH};

fn main() {
    // Arm the flight recorder: the per-rank lanes of the 4-device steps
    // below are the Fig. 9 straggler timeline (see EXPERIMENTS.md).
    fastchgnet::telemetry::set_enabled(true);
    fastchgnet::telemetry::trace::set_tracing(true);

    let data = SynthMPtrj::generate(&DatasetConfig {
        n_structures: 64,
        max_atoms: 12,
        ..Default::default()
    });
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let features: Vec<f64> = samples.iter().map(|s| s.graph.feature_number() as f64).collect();
    let mean_features = features.iter().sum::<f64>() / features.len() as f64;

    // --- real steps on simulated clusters of 1..4 devices ---------------
    println!("real data-parallel steps (32-sample global batch):\n");
    println!("devices | sampler      | load CoV | max compute");
    for &devices in &[1usize, 2, 4] {
        for sampler in [SamplerKind::Default, SamplerKind::LoadBalance] {
            let mut cluster = Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                3,
                ClusterConfig { n_devices: devices, sampler, ..Default::default() },
                1e-3,
            );
            let batch: Vec<&Sample> = samples.iter().take(32).copied().collect();
            cluster.train_step(&batch); // warm-up
            let stats = cluster.train_step(&batch);
            let max_c = stats.device_compute.iter().copied().fold(0.0f64, f64::max);
            println!(
                "{:>7} | {:<12} | {:>8.3} | {:>9.3} s",
                devices,
                format!("{sampler:?}"),
                stats.load_cov,
                max_c
            );
        }
    }

    // --- project to the paper's 4-32 GPUs from counted work -------------
    let model = ScalingModel::calibrate(ModelConfig::tiny(OptLevel::Decoupled), &samples);
    let rows = model.strong_scaling(&[4, 8, 16, 32], MPTRJ_EPOCH, 2048, mean_features);
    println!("\nprojected strong scaling (global batch 2048, MPtrj-sized epoch):");
    println!("devices | epoch time | speedup vs 4 | efficiency");
    for (p, speedup, eff) in strong_efficiency(&rows) {
        let t = rows.iter().find(|r| r.0 == p).unwrap().1;
        println!("{p:>7} | {:>8.1} s | {speedup:>10.2}x | {:>9.1}%", t, eff * 100.0);
    }
    println!("\n(paper: 1.65x @ 8, 3.18x @ 16, 5.26x @ 32; efficiencies 82.5/79.5/66%)");

    let trace_path = fastchgnet::telemetry::reports_dir().join("TRACE_scaling_study.json");
    fastchgnet::telemetry::trace::write_chrome_trace(&trace_path).expect("write trace");
    println!("\ntimeline written to {} (inspect with `trace-report`)", trace_path.display());
}
