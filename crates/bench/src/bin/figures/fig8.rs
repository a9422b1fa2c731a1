//! Fig. 8: single-GPU step-by-step system optimization — (a) average
//! iteration time, (b) launched kernels, (c) peak memory — across batch
//! sizes, for the cumulative optimization ladder
//! reference → +parallel basis → +fusion/redundancy → +decoupling.
//!
//! Every level times the program's own training step: a fresh one-device
//! `Cluster` (default config, seed 3) per level and batch, whose first
//! `train_step` gives the counted columns, then [`ROUNDS`] interleaved
//! rounds that time one step of every level in turn (`fc_bench::Rounds`).
//! A level's time is the median of its rounds and `speedup_vs_ref` the
//! median of its per-round ratios. As on every rank, the step runs its
//! kernels at `par` width 1, and each timed step also collates its shard
//! and spawns its rank worker.
//!
//! Kernels = tape nodes executed (forward + the final backward sweep);
//! memory = peak live tape bytes, including the first-order gradient graph
//! the derivative-based levels build in their forward (see DESIGN.md
//! §2.2); A100 time = the same step's kernels projected from their counted
//! FLOPs and bytes (`fc_train::a100_seconds`). Every column but the two
//! timed ones is identical on every run and host.
//!
//! Run: `figures fig8`

use crate::headline::time_ladder;
use fc_bench::{tsv_table, Scale, ROUNDS};
use fc_core::OptLevel;
use fc_crystal::Sample;
use fc_telemetry::RunReport;

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let batch_sizes: &[usize] = if scale.label == "full" { &[16, 32, 64] } else { &[8, 16] };

    let mut tsv =
        String::from("batch\tlevel\titer_time_s\tkernels\tpeak_mem_MB\tspeedup_vs_ref\tkernel_ratio\tmem_ratio\ta100_us\ta100_speedup\n");
    for &bs in batch_sizes {
        println!("timing batch {bs}, {ROUNDS} rounds of the ladder ...");
        let samples: Vec<&Sample> = data.samples.iter().take(bs).collect();
        let (counts, rounds) = time_ladder(&OptLevel::LADDER, &samples, scale);
        let b = &counts[0];
        for (i, (level, m)) in OptLevel::LADDER.iter().zip(&counts).enumerate() {
            tsv.push_str(&format!(
                "{bs}\t{}\t{:.6}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.1}\t{:.3}\n",
                level.label(),
                rounds.median(i),
                m.kernels,
                m.peak_bytes as f64 / 1e6,
                rounds.ratio(0, i),
                b.kernels as f64 / m.kernels as f64,
                b.peak_bytes as f64 / m.peak_bytes as f64,
                m.device_s * 1e6,
                b.device_s / m.device_s,
            ));
        }
    }

    println!("\n{}", tsv_table(&tsv));
    println!("(paper: 4.43-5.62x total time, 12.72-20.16x kernels, 3.59x memory)");

    let mut report = RunReport::new("fig8", scale.dataset_cfg().seed);
    report.set_meta("batch_sizes", format!("{batch_sizes:?}")).set_meta("rounds", ROUNDS);
    (tsv, report)
}
