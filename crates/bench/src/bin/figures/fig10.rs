//! Fig. 10: strong and weak scaling of FastCHGNet on 4-32 (simulated)
//! GPUs.
//!
//! The per-device compute model is *calibrated from counted work*: a few
//! one-device training steps of growing batch size are projected to A100
//! seconds from their per-op-kind kernels, FLOPs and bytes, a line is
//! fitted through them, and the fit is combined with the ring all-reduce
//! interconnect model and the sampler's residual-imbalance straggler term
//! (see `fc_train::scaling`). No number depends on host speed.
//!
//! Run: `figures fig10`

use fc_bench::{fmt_secs, tsv_table, Scale};
use fc_telemetry::RunReport;
use fc_train::{strong_efficiency, weak_efficiency, MPTRJ_EPOCH};

pub fn run(scale: &Scale) -> (String, RunReport) {
    let data = scale.dataset();
    let (model, mean_features) = scale.projection(&data);
    // `calibrate` records the residual; the runner has telemetry on.
    let residual = fc_telemetry::snapshot().gauges["scaling.fit_max_rel_residual"];
    println!(
        "fit: t_step = {} + {:.3e} s/feature on one A100 (max relative residual {residual:.1e}); \
         residual CoV {:.3}; {mean_features:.0} features/sample\n",
        fmt_secs(model.t_fixed),
        model.per_feature,
        model.sample_cov
    );

    // --- strong scaling: global batch 2048, epoch of the paper's scale ---
    let devices = [4usize, 8, 16, 32];
    let strong = model.strong_scaling(&devices, MPTRJ_EPOCH, 2048, mean_features);
    let strong_eff = strong_efficiency(&strong);
    let paper_strong = [(4, 1.0, 1.0), (8, 1.65, 0.825), (16, 3.18, 0.795), (32, 5.26, 0.66)];

    let mut tsv = String::from(
        "mode\tdevices\tepoch_time_s\tspeedup\tefficiency\tpaper_speedup\tpaper_eff\n",
    );
    for ((p, speedup, eff), (pp, ps, pe)) in strong_eff.iter().zip(&paper_strong) {
        assert_eq!(p, pp);
        let t = strong.iter().find(|r| r.0 == *p).unwrap().1;
        tsv.push_str(&format!("strong\t{p}\t{t:.3}\t{speedup:.3}\t{eff:.3}\t{ps}\t{pe}\n"));
    }

    // --- weak scaling: mini-batch 512 per device --------------------------
    let weak = model.weak_scaling(&devices, MPTRJ_EPOCH, 512, mean_features);
    let weak_eff = weak_efficiency(&weak);
    let paper_weak = [(4, 1.0), (8, 0.915), (16, 0.846), (32, 0.746)];
    for ((p, eff), (pp, pe)) in weak_eff.iter().zip(&paper_weak) {
        assert_eq!(p, pp);
        let t = weak.iter().find(|r| r.0 == *p).unwrap().1;
        tsv.push_str(&format!("weak\t{p}\t{t:.3}\t\t{eff:.3}\t\t{pe}\n"));
    }
    println!("--- strong (global batch 2048) and weak (mini-batch 512 / device) scaling ---");
    println!("{}", tsv_table(&tsv));

    let mut report = RunReport::new("fig10", scale.dataset_cfg().seed);
    report
        .set_meta("grad_bytes", model.grad_bytes)
        .set_meta("fit_t_fixed_us", model.t_fixed * 1e6)
        .set_meta("fit_per_feature_ns", model.per_feature * 1e9)
        .set_meta("mean_features", mean_features);
    (tsv, report)
}
