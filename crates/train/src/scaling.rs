//! Analytic strong/weak scaling model (Fig. 10).
//!
//! The paper's scaling experiments need 4-32 physical GPUs, which a CPU
//! host cannot stand in for by wall-clock thread scaling. Instead,
//! [`ScalingModel::calibrate`] fits per-step compute to the A100 seconds
//! projected from the kernels, FLOPs and bytes a few one-device steps count,
//! which do not depend on the host: [`a100_seconds`] charges each op kind
//! `count·L + max(flops/P, bytes/B)` with `P` = [`A100_FP32_FLOPS`], `B` =
//! [`A100_HBM_BYTES_PER_S`] and `L` = [`KERNEL_LAUNCH_S`]. The fit is
//! combined with the ring all-reduce cost model and a straggler term. It is
//! the crate's only time model ([`crate::Cluster`] steps report measured
//! compute, never a modelled clock):
//!
//! `T_step(p) = t_fix + c · load_max(p) + allreduce(bytes, p) · (1 − overlap)`
//!
//! where `load_max` accounts for the sampler's residual load imbalance via
//! an extreme-value approximation: with `m` samples per device of
//! workload CoV `v`, `E[max_p load] ≈ mean · (1 + v/√m · √(2 ln p))`.

use crate::allreduce::{CommModel, A100_FP32_FLOPS, A100_HBM_BYTES_PER_S, KERNEL_LAUNCH_S};
use crate::cluster::{Cluster, ClusterConfig, ExecutionMode};
use fc_core::ModelConfig;
use fc_crystal::stats::coefficient_of_variance;
use fc_crystal::Sample;
use fc_tensor::OpTotals;

/// Samples in one MPtrj training epoch (90% of its 1.58M structures).
pub const MPTRJ_EPOCH: usize = 1_422_355;

/// Share of the samples' feature CoV the Load-Balance sampler leaves
/// between devices: the paper's Fig. 9 ratio 0.064/0.186 = 0.34, rounded.
const RESIDUAL_COV_FACTOR: f64 = 0.3;

/// Projected A100 seconds of a per-op-kind table (module docs).
pub fn a100_seconds(per_op: &[(&str, OpTotals)]) -> f64 {
    let roofline = |t: &OpTotals| {
        (t.flops as f64 / A100_FP32_FLOPS).max(t.bytes as f64 / A100_HBM_BYTES_PER_S)
    };
    per_op.iter().map(|(_, t)| t.count as f64 * KERNEL_LAUNCH_S + roofline(t)).sum()
}

/// Linear least-squares fit `t ≈ fixed + slope · x`.
///
/// Used to calibrate compute time against per-step feature counts.
/// Returns `(fixed, slope)`.
pub fn fit_linear(x: &[f64], t: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), t.len(), "mismatched regression data");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let mt = t.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (&xi, &ti) in x.iter().zip(t) {
        num += (xi - mx) * (ti - mt);
        den += (xi - mx) * (xi - mx);
    }
    let slope = if den.abs() < 1e-30 { 0.0 } else { num / den };
    (mt - slope * mx, slope)
}

/// Calibrated scaling model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingModel {
    /// Interconnect model.
    pub comm: CommModel,
    /// Fixed per-step overhead per device (s).
    pub t_fixed: f64,
    /// Compute seconds per workload feature.
    pub per_feature: f64,
    /// Gradient payload per all-reduce (bytes).
    pub grad_bytes: usize,
    /// Coefficient of variance of per-sample workload after the sampler
    /// (paper: 0.186 default, 0.064 load-balanced).
    pub sample_cov: f64,
}

impl ScalingModel {
    /// The model fitted to one-device steps of `model_cfg` on the first
    /// 2-16 `samples` (module docs), whose feature CoV sets the straggler
    /// term; the fit's worst relative residual goes to a telemetry gauge.
    pub fn calibrate(model_cfg: ModelConfig, samples: &[&Sample]) -> ScalingModel {
        calibrate_on(model_cfg, samples, ExecutionMode::default())
    }

    /// Expected straggler inflation for `p` devices with `m` samples each.
    pub fn straggler_factor(&self, p: usize, m: usize) -> f64 {
        if p <= 1 || m == 0 {
            return 1.0;
        }
        1.0 + self.sample_cov / (m as f64).sqrt() * (2.0 * (p as f64).ln()).sqrt()
    }

    /// Simulated duration of one training step.
    ///
    /// `global_batch` samples of `mean_features` average workload are
    /// split over `p` devices.
    pub fn step_time(&self, p: usize, global_batch: usize, mean_features: f64) -> f64 {
        assert!(p > 0 && global_batch > 0, "degenerate step");
        let m = (global_batch as f64 / p as f64).ceil() as usize;
        let mean_load = m as f64 * mean_features;
        let compute = self.t_fixed + self.per_feature * mean_load * self.straggler_factor(p, m);
        compute + self.comm.exposed_time(self.grad_bytes, p)
    }

    /// Simulated duration of one epoch of `n_samples`.
    pub fn epoch_time(
        &self,
        p: usize,
        n_samples: usize,
        global_batch: usize,
        mean_features: f64,
    ) -> f64 {
        let steps = n_samples.div_ceil(global_batch);
        steps as f64 * self.step_time(p, global_batch, mean_features)
    }

    /// Strong scaling (fixed global batch): `(devices, epoch_time)` rows.
    pub fn strong_scaling(
        &self,
        devices: &[usize],
        n_samples: usize,
        global_batch: usize,
        mean_features: f64,
    ) -> Vec<(usize, f64)> {
        devices
            .iter()
            .map(|&p| (p, self.epoch_time(p, n_samples, global_batch, mean_features)))
            .collect()
    }

    /// Weak scaling (fixed per-device mini-batch): `(devices, epoch_time)`.
    /// The global batch grows with p, so steps per epoch shrink.
    pub fn weak_scaling(
        &self,
        devices: &[usize],
        n_samples: usize,
        per_device_batch: usize,
        mean_features: f64,
    ) -> Vec<(usize, f64)> {
        devices
            .iter()
            .map(|&p| (p, self.epoch_time(p, n_samples, per_device_batch * p, mean_features)))
            .collect()
    }
}

fn calibrate_on(cfg: ModelConfig, samples: &[&Sample], exec: ExecutionMode) -> ScalingModel {
    let (mut xs, mut ts, mut grad_bytes) = (Vec::new(), Vec::new(), 0);
    for batch in [2, 4, 8, 12, 16].map(|bs| &samples[..bs.min(samples.len())]) {
        // A fresh cluster, so its per-op table is this one step's.
        let mut cluster =
            Cluster::new(cfg, 3, ClusterConfig { execution: exec, ..Default::default() }, 1e-3);
        cluster.train_step(batch);
        xs.push(batch.iter().map(|s| s.graph.feature_number() as f64).sum());
        ts.push(a100_seconds(&cluster.per_op()));
        grad_bytes = cluster.store.n_scalars() * 4;
    }
    let (t_fixed, per_feature) = fit_linear(&xs, &ts);
    let residual = xs.iter().zip(&ts).map(|(x, t)| ((t_fixed + per_feature * x) / t - 1.0).abs());
    fc_telemetry::gauge_set("scaling.fit_max_rel_residual", residual.fold(0.0, f64::max));
    let features: Vec<f64> = samples.iter().map(|s| s.graph.feature_number() as f64).collect();
    ScalingModel {
        comm: CommModel::a100_fat_tree(),
        t_fixed,
        per_feature,
        grad_bytes,
        sample_cov: coefficient_of_variance(&features) * RESIDUAL_COV_FACTOR,
    }
}

/// Scaling efficiency relative to the first row:
/// `eff_i = (T_0 · p_0) / (T_i · p_i)` for strong scaling.
pub fn strong_efficiency(rows: &[(usize, f64)]) -> Vec<(usize, f64, f64)> {
    assert!(!rows.is_empty());
    let (p0, t0) = rows[0];
    rows.iter()
        .map(|&(p, t)| {
            let speedup = t0 / t;
            let eff = speedup * p0 as f64 / p as f64;
            (p, speedup, eff)
        })
        .collect()
}

/// Weak-scaling efficiency. The paper's weak scaling fixes the mini-batch
/// per device, so the epoch's total work is constant and more devices
/// should divide the time ideally: `eff_i = (T_0 · p_0) / (T_i · p_i)`.
pub fn weak_efficiency(rows: &[(usize, f64)]) -> Vec<(usize, f64)> {
    assert!(!rows.is_empty());
    let (p0, t0) = rows[0];
    rows.iter().map(|&(p, t)| (p, t0 * p0 as f64 / (t * p as f64))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ScalingModel {
        ScalingModel {
            comm: CommModel::a100_fat_tree(),
            t_fixed: 5e-3,
            per_feature: 2e-7,
            grad_bytes: 430_000 * 4,
            sample_cov: 0.6,
        }
    }

    #[test]
    fn roofline_charges_launches_and_the_slower_of_compute_and_memory() {
        let table = [
            // Memory-bound: 1 ms of HBM traffic, 0.05 ms of FLOPs.
            (
                "bin.add",
                OpTotals { count: 2, flops: 1_000_000_000, bytes: 1_555_000_000, nanos: 7 },
            ),
            // Compute-bound: 1 ms of FLOPs, under 1 µs of traffic.
            ("matmul", OpTotals { count: 3, flops: 19_500_000_000, bytes: 1_000_000, nanos: 0 }),
        ];
        let t = a100_seconds(&table);
        assert!((t - (5.0 * KERNEL_LAUNCH_S + 2e-3)).abs() < 1e-12, "{t}");
        // The launch floor alone: kernels that move and compute nothing.
        let empty = [("un.neg", OpTotals { count: 4, ..Default::default() })];
        assert_eq!(a100_seconds(&empty), 4.0 * KERNEL_LAUNCH_S);
        assert_eq!(a100_seconds(&[]), 0.0);
    }

    #[test]
    fn calibration_is_identical_across_calls_and_worker_counts() {
        let data = fc_crystal::SynthMPtrj::generate(&fc_crystal::DatasetConfig {
            n_structures: 16,
            max_atoms: 6,
            ..Default::default()
        });
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let cfg = ModelConfig::tiny(fc_core::OptLevel::Decoupled);
        let one = ScalingModel::calibrate(cfg, &samples);
        assert_eq!(ScalingModel::calibrate(cfg, &samples), one);
        assert_eq!(calibrate_on(cfg, &samples, ExecutionMode::Threaded(2)), one);
        // Every step launches the same kernels, so the intercept is at
        // least one step's launch floor, and the work grows with features.
        let mut cluster = Cluster::new(cfg, 3, ClusterConfig::default(), 1e-3);
        cluster.train_step(&samples[..2]);
        let kernels = cluster.profile().kernels as f64;
        assert!(one.t_fixed >= kernels * KERNEL_LAUNCH_S && one.per_feature > 0.0, "{one:?}");
        assert!(one.t_fixed < 1.01 * kernels * KERNEL_LAUNCH_S, "{one:?}");
    }

    #[test]
    fn fit_linear_recovers_line() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let t: Vec<f64> = x.iter().map(|&xi| 3.0 + 0.5 * xi).collect();
        let (fixed, slope) = fit_linear(&x, &t);
        assert!((fixed - 3.0).abs() < 1e-9);
        assert!((slope - 0.5).abs() < 1e-9);
    }

    #[test]
    fn strong_scaling_monotone_but_sublinear() {
        let m = model();
        let rows = m.strong_scaling(&[4, 8, 16, 32], 100_000, 2048, 4000.0);
        // Epoch time falls with devices.
        for w in rows.windows(2) {
            assert!(w[1].1 < w[0].1, "{:?}", rows);
        }
        let eff = strong_efficiency(&rows);
        // Efficiency is below 100% and decreasing (comm + stragglers).
        let mut prev = 1.01;
        for &(p, speedup, e) in &eff[1..] {
            assert!(e < 1.0, "p={p}: efficiency {e}");
            assert!(e < prev);
            assert!(speedup > 1.0);
            prev = e;
        }
    }

    #[test]
    fn weak_scaling_efficiency_decays_gently() {
        let m = model();
        let rows = m.weak_scaling(&[4, 8, 16, 32], 100_000, 512, 4000.0);
        // Epoch time still falls with devices (total work fixed).
        for w in rows.windows(2) {
            assert!(w[1].1 < w[0].1, "{rows:?}");
        }
        let eff = weak_efficiency(&rows);
        assert!((eff[0].1 - 1.0).abs() < 1e-12);
        // Efficiency decreases but stays above 40% (paper: 74.6% @ 32).
        for w in eff.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        assert!(eff.last().unwrap().1 > 0.4, "{eff:?}");
        // Weak scaling beats strong scaling at every device count (larger
        // per-device batches amortise the fixed cost better).
        let strong = m.strong_scaling(&[4, 8, 16, 32], 100_000, 2048, 4000.0);
        let strong_eff = strong_efficiency(&strong);
        for (w, s) in eff.iter().zip(&strong_eff).skip(1) {
            assert!(w.1 >= s.2 - 0.05, "weak {w:?} vs strong {s:?}");
        }
    }

    #[test]
    fn straggler_factor_properties() {
        let m = model();
        assert_eq!(m.straggler_factor(1, 100), 1.0);
        // More devices → worse straggler; more samples per device → better.
        assert!(m.straggler_factor(32, 16) > m.straggler_factor(8, 16));
        assert!(m.straggler_factor(8, 64) < m.straggler_factor(8, 4));
        // Lower CoV (load-balance sampler) reduces the factor.
        let balanced = ScalingModel { sample_cov: 0.1, ..m };
        assert!(balanced.straggler_factor(8, 16) < m.straggler_factor(8, 16));
    }
}
