//! The headline claim: reference CHGNet takes 8.3 days on one GPU;
//! FastCHGNet reaches 1.53 h on 32 GPUs — a ~130x speedup decomposed as
//! (single-device systems optimizations) × (head decoupling) × (multi-GPU
//! scaling).
//!
//! This figure reproduces the *decomposition* on the simulated platform:
//! it times the program's own training step (`Cluster::train_step`, one
//! device) at three levels of the optimization ladder in interleaved
//! rounds ([`Rounds`]), and composes the single-device stages with the
//! 32-GPU projection that fig10 and the ablation print (counted work,
//! [`Scale::projection`]). The whole run is traced
//! through `fc_telemetry` and emitted as `reports/BENCH_headline.json`.
//!
//! Run: `figures headline`

use fc_bench::{fmt_secs, render_table, Rounds, Scale, ROUNDS};
use fc_core::OptLevel;
use fc_crystal::Sample;
use fc_telemetry::RunReport;
use fc_train::{a100_seconds, strong_efficiency, Cluster, ClusterConfig, MPTRJ_EPOCH};
use std::time::Instant;

/// The counted work of one level's training step (the headline ladder
/// and Fig. 8); identical on every run and host.
pub struct Counts {
    /// Kernels (tape nodes) executed, forward + backward.
    pub kernels: u64,
    /// Peak live tape bytes.
    pub peak_bytes: u64,
    /// Projected A100 seconds of the step's kernels ([`a100_seconds`]).
    pub device_s: f64,
}

/// Time `Cluster::train_step` on `samples` at each of `levels`: every
/// level trains a fresh one-device cluster (default config, seed 3), whose
/// first step gives its [`Counts`]; then [`ROUNDS`] rounds time one step
/// of every level in turn, each under an `iter_<level>` span.
pub fn time_ladder(
    levels: &[OptLevel],
    samples: &[&Sample],
    scale: &Scale,
) -> (Vec<Counts>, Rounds) {
    let mut clusters: Vec<Cluster> = levels
        .iter()
        .map(|&level| Cluster::new(scale.model(level), 3, ClusterConfig::default(), 1e-3))
        .collect();
    let counts = clusters
        .iter_mut()
        .map(|c| {
            c.train_step(samples);
            let p = c.profile();
            Counts {
                kernels: p.kernels,
                peak_bytes: p.bytes_peak,
                device_s: a100_seconds(&c.per_op()),
            }
        })
        .collect();
    let rounds = Rounds::run(levels.len(), |i| {
        let _span = fc_telemetry::span(match levels[i] {
            OptLevel::Reference => "iter_reference",
            OptLevel::ParallelBasis => "iter_parallel_basis",
            OptLevel::Fusion => "iter_fused",
            OptLevel::Decoupled => "iter_decoupled",
        });
        let t0 = Instant::now();
        clusters[i].train_step(samples);
        t0.elapsed().as_secs_f64()
    });
    (counts, rounds)
}

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let bs = 16.min(data.samples.len());
    let samples: Vec<&Sample> = data.samples.iter().take(bs).collect();

    // Stage 1: single-device ladder.
    println!("timing single-device training steps (batch {bs}, {ROUNDS} rounds) ...");
    let levels = [OptLevel::Reference, OptLevel::Fusion, OptLevel::Decoupled];
    let (_, rounds) = time_ladder(&levels, &samples, scale);
    let [t_ref, t_fused, t_head] = [0, 1, 2].map(|i| rounds.median(i));
    let sys_speedup = rounds.ratio(0, 1);
    let head_speedup = rounds.ratio(1, 2);

    // Stage 2: multi-GPU scaling on top (32 GPUs relative to 1), projected
    // from counted work like fig10, so it does not move with host speed.
    let (model, mean_features) = scale.projection(&data);
    let rows = model.strong_scaling(&[1, 4, 8, 16, 32], MPTRJ_EPOCH, 2048, mean_features);
    let eff = strong_efficiency(&rows);
    let scale32 = eff.last().unwrap().1; // speedup of 32 over 1 device

    // Like each timed stage, the single-device part of the total is a
    // median of per-round ratios (reference over decoupled), not the
    // product of the two stages' medians.
    let total = rounds.ratio(0, 2) * scale32;
    // TSV key, console label, our speedup, the paper's.
    let stages = [
        (
            "systems",
            "systems optimizations (ref -> fused)",
            sys_speedup,
            "4.43-5.62x /2 (shared w/ decoupling)",
        ),
        ("decoupling", "head decoupling (fused -> F/S heads)", head_speedup, "1.88-2x"),
        ("scaling32", "multi-GPU (1 -> 32, incl. comm)", scale32, "~21x (5.26x over 4 GPUs)"),
        ("total", "end-to-end", total, "~130x (8.3 days -> 1.53 h)"),
    ];
    let mut tsv = String::from("stage\tspeedup\n");
    let mut table = Vec::new();
    for (key, label, ours, paper) in stages {
        tsv.push_str(&format!("{key}\t{ours:.3}\n"));
        table.push(vec![label.to_string(), format!("{ours:.2}x"), paper.to_string()]);
    }
    println!(
        "\ntraining step (median): reference {}, fused {}, decoupled {}\n",
        fmt_secs(t_ref),
        fmt_secs(t_fused),
        fmt_secs(t_head)
    );
    println!("{}", render_table(&["stage", "ours", "paper"], &table));

    // Measured durations and everything derived from them live in the
    // timing section; meta (the projected stage included) stays
    // deterministic for a fixed seed/scale.
    let mut report = RunReport::new("headline", scale.dataset_cfg().seed);
    report
        .set_meta("batch", bs)
        .set_meta("n_structures", scale.n_structures)
        .set_meta("rounds", ROUNDS)
        .set_meta("mean_features", mean_features.round() as u64)
        .set_meta("speedup_scaling32", scale32)
        .set_timing("iter_reference", t_ref)
        .set_timing("iter_fused", t_fused)
        .set_timing("iter_decoupled", t_head)
        .set_timing("speedup_systems", sys_speedup)
        .set_timing("speedup_decoupling", head_speedup)
        .set_timing("speedup_total", total);
    (tsv, report)
}
