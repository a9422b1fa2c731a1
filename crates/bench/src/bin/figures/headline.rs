//! The headline claim: reference CHGNet takes 8.3 days on one GPU;
//! FastCHGNet reaches 1.53 h on 32 GPUs — a ~130x speedup decomposed as
//! (single-device systems optimizations) × (head decoupling) × (multi-GPU
//! scaling).
//!
//! This figure reproduces the *decomposition* on the simulated platform:
//! it measures the single-device optimization ladder on real iterations
//! and composes it with the 32-GPU projection that fig10 and the ablation
//! print (counted work, [`Scale::projection`]). The whole run is traced
//! through `fc_telemetry` and emitted as `reports/BENCH_headline.json`.
//!
//! Run: `figures headline`

use fc_bench::{fmt_secs, render_table, Scale};
use fc_core::{Chgnet, OptLevel};
use fc_crystal::{GraphBatch, Sample};
use fc_telemetry::RunReport;
use fc_tensor::{ParamStore, Tape};
use fc_train::{a100_seconds, composite_loss, strong_efficiency, Adam, LossWeights, MPTRJ_EPOCH};
use std::time::Instant;

/// One measured training iteration (the headline ladder and Fig. 8).
pub struct Iteration {
    /// Mean wall time of forward + loss + backward + Adam.
    pub time_s: f64,
    /// Tape nodes executed (forward + backward); identical every iteration.
    pub kernels: u64,
    /// Peak live tape bytes of the last iteration.
    pub peak_bytes: u64,
    /// Projected A100 seconds of the last iteration's kernels
    /// ([`a100_seconds`]); counted, so identical every run.
    pub device_s: f64,
}

/// Train a fresh `level` model on one collated batch of `samples` for
/// `iters` timed iterations after one warm-up. Each iteration runs under
/// an `iter_<level>` span with profiled `forward`/`backward` and an
/// `optimizer` span. The backward is the final sweep the cluster's
/// training step runs, which frees each buffer after its last use.
pub fn measure_iteration(
    level: OptLevel,
    samples: &[&Sample],
    iters: usize,
    scale: &Scale,
) -> Iteration {
    let span_name = match level {
        OptLevel::Reference => "iter_reference",
        OptLevel::ParallelBasis => "iter_parallel_basis",
        OptLevel::Fusion => "iter_fused",
        OptLevel::Decoupled => "iter_decoupled",
    };
    let mut store = ParamStore::new();
    let model = Chgnet::new(scale.model(level), &mut store, 3);
    let mut opt = Adam::new(&store, 1e-3);
    let w = LossWeights::default();
    let graphs: Vec<_> = samples.iter().map(|s| &s.graph).collect();
    let labels: Vec<_> = samples.iter().map(|s| &s.labels).collect();
    let batch = GraphBatch::collate(&graphs, Some(&labels));
    let bl = batch.labels.as_ref().unwrap();
    let mut m = Iteration { time_s: 0.0, kernels: 0, peak_bytes: 0, device_s: 0.0 };
    for i in 0..=iters {
        let tape = Tape::new();
        let t0 = Instant::now();
        let iter_span = fc_telemetry::span(span_name);
        let loss = {
            let _fwd = fc_telemetry::bridge::profiled_span("forward", tape.profiler());
            let pred = model.forward(&tape, &store, &batch);
            composite_loss(&tape, &pred, bl, &w)
        };
        store.zero_grads();
        let gm = {
            let _bwd = fc_telemetry::bridge::profiled_span("backward", tape.profiler());
            tape.backward_final(loss.total)
        };
        {
            let _opt = fc_telemetry::span("optimizer");
            store.accumulate_grads(&tape, &gm);
            opt.step(&mut store);
            store.zero_grads();
        }
        drop(iter_span);
        let dt = t0.elapsed().as_secs_f64();
        let snap = tape.profiler().snapshot();
        let device_s = a100_seconds(&tape.profiler().per_op());
        tape.reset();
        if i > 0 {
            m.time_s += dt;
            m.kernels = snap.kernels;
            m.peak_bytes = snap.bytes_peak;
            m.device_s = device_s;
        }
    }
    m.time_s /= iters as f64;
    m
}

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let bs = 16.min(data.samples.len());
    let samples: Vec<&Sample> = data.samples.iter().take(bs).collect();

    // Stage 1: single-device ladder.
    println!("measuring single-device iteration times (batch {bs}) ...");
    let iters = scale.timing_iters;
    let [t_ref, t_fused, t_head] = [OptLevel::Reference, OptLevel::Fusion, OptLevel::Decoupled]
        .map(|level| measure_iteration(level, &samples, iters, scale).time_s);
    let sys_speedup = t_ref / t_fused;
    let head_speedup = t_fused / t_head;

    // Stage 2: multi-GPU scaling on top (32 GPUs relative to 1), projected
    // from counted work like fig10, so it does not move with host speed.
    let (model, mean_features) = scale.projection(&data);
    let rows = model.strong_scaling(&[1, 4, 8, 16, 32], MPTRJ_EPOCH, 2048, mean_features);
    let eff = strong_efficiency(&rows);
    let scale32 = eff.last().unwrap().1; // speedup of 32 over 1 device

    let total = sys_speedup * head_speedup * scale32;
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
        "\niteration: reference {}, fused {}, decoupled {}\n",
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
        .set_meta("timing_iters", iters)
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
