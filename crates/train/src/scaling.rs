//! Analytic strong/weak scaling model (Fig. 10).
//!
//! The paper's scaling experiments need 4-32 physical GPUs, which a CPU
//! host cannot stand in for by wall-clock thread scaling. Instead, the
//! model below is calibrated against *measured* per-step compute times of
//! the simulated device (time vs. workload regression) and combined with
//! the ring all-reduce cost model and a straggler term, reproducing the
//! paper's efficiency curves structurally. It is the crate's only time
//! model ([`crate::Cluster`] steps report measured compute, never a
//! modelled clock):
//!
//! `T_step(p) = t_fix + c · load_max(p) + allreduce(bytes, p) · (1 − overlap)`
//!
//! where `load_max` accounts for the sampler's residual load imbalance via
//! an extreme-value approximation: with `m` samples per device of
//! workload CoV `v`, `E[max_p load] ≈ mean · (1 + v/√m · √(2 ln p))`.

use crate::allreduce::CommModel;

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
#[derive(Clone, Copy, Debug)]
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
