//! Fig. 8: single-GPU step-by-step system optimization — (a) average
//! iteration time, (b) launched kernels, (c) peak memory — across batch
//! sizes, for the cumulative optimization ladder
//! reference → +parallel basis → +fusion/redundancy → +decoupling.
//!
//! Kernels = tape nodes executed (forward + the final backward sweep the
//! training step runs); memory = peak live tape bytes, including the
//! first-order gradient graph the derivative-based levels build in their
//! forward (see DESIGN.md §2.2); A100 time = the same iteration's kernels
//! projected from their counted FLOPs and bytes (`fc_train::a100_seconds`),
//! which, unlike the timed column, is identical on every run and host.
//!
//! Run: `figures fig8`

use crate::headline::{measure_iteration, Iteration};
use fc_bench::{tsv_table, Scale};
use fc_core::OptLevel;
use fc_crystal::Sample;
use fc_telemetry::RunReport;

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let batch_sizes: &[usize] = if scale.label == "full" { &[16, 32, 64] } else { &[8, 16] };

    let mut tsv =
        String::from("batch\tlevel\titer_time_s\tkernels\tpeak_mem_MB\tspeedup_vs_ref\tkernel_ratio\tmem_ratio\ta100_us\ta100_speedup\n");
    for &bs in batch_sizes {
        let samples: Vec<&Sample> = data.samples.iter().take(bs).collect();
        let mut base: Option<Iteration> = None;
        for level in OptLevel::LADDER {
            println!("measuring batch {bs}, {} ...", level.label());
            let m = measure_iteration(level, &samples, scale.timing_iters, scale);
            let (speedup, kratio, mratio, dratio) = match &base {
                Some(b) => (
                    b.time_s / m.time_s,
                    b.kernels as f64 / m.kernels as f64,
                    b.peak_bytes as f64 / m.peak_bytes as f64,
                    b.device_s / m.device_s,
                ),
                None => (1.0, 1.0, 1.0, 1.0),
            };
            tsv.push_str(&format!(
                "{bs}\t{}\t{:.6}\t{}\t{:.3}\t{speedup:.3}\t{kratio:.3}\t{mratio:.3}\t{:.1}\t{dratio:.3}\n",
                level.label(),
                m.time_s,
                m.kernels,
                m.peak_bytes as f64 / 1e6,
                m.device_s * 1e6
            ));
            if base.is_none() {
                base = Some(m);
            }
        }
    }

    println!("\n{}", tsv_table(&tsv));
    println!("(paper: 4.43-5.62x total time, 12.72-20.16x kernels, 3.59x memory)");

    let mut report = RunReport::new("fig8", scale.dataset_cfg().seed);
    report
        .set_meta("batch_sizes", format!("{batch_sizes:?}"))
        .set_meta("timing_iters", scale.timing_iters);
    (tsv, report)
}
