//! Learning-rate schedules, including the paper's large-batch scaling rule.

use fc_tensor::kernels::trig::sincosf;

/// The paper's base learning rate (§IV: 0.0003).
pub const BASE_LR: f32 = 3e-4;

/// The paper's scaling denominator k in Eq. 14 (k = 128).
pub const LR_SCALE_K: f32 = 128.0;

/// Eq. 14: `init_LR = batchsize / k × 0.0003`.
///
/// "This approach adjusts the learning rate in proportion to the batch
/// size, ensuring a steady and reliable convergence" (§III-C,
/// "Learning Rate Schedule").
pub fn scaled_init_lr(batch_size: usize) -> f32 {
    batch_size as f32 / LR_SCALE_K * BASE_LR
}

/// Cosine annealing from `lr0` down to `lr_min` over `t_max` steps
/// (paper: "the cosine annealing scheduler is applied").
#[derive(Clone, Copy, Debug)]
pub struct CosineAnnealing {
    /// Initial learning rate.
    pub lr0: f32,
    /// Floor learning rate.
    pub lr_min: f32,
    /// Total steps of the schedule.
    pub t_max: usize,
}

impl CosineAnnealing {
    /// Standard schedule with a floor of 1% of `lr0`.
    pub fn new(lr0: f32, t_max: usize) -> Self {
        CosineAnnealing { lr0, lr_min: lr0 * 0.01, t_max: t_max.max(1) }
    }

    /// Learning rate at step `t` (clamped to the schedule end).
    pub fn lr_at(&self, t: usize) -> f32 {
        let t = t.min(self.t_max) as f32 / self.t_max as f32;
        let cos = sincosf(std::f32::consts::PI * t).1;
        self.lr_min + 0.5 * (self.lr0 - self.lr_min) * (1.0 + cos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq14_values() {
        assert!((scaled_init_lr(128) - 3e-4).abs() < 1e-9);
        assert!((scaled_init_lr(2048) - 48e-4).abs() < 1e-7);
        assert!(scaled_init_lr(32) < 3e-4);
    }

    #[test]
    fn cosine_endpoints_and_monotonicity() {
        let s = CosineAnnealing::new(1e-3, 100);
        assert!((s.lr_at(0) - 1e-3).abs() < 1e-9);
        assert!((s.lr_at(100) - 1e-5).abs() < 1e-9);
        assert!(s.lr_at(50) < s.lr_at(0) && s.lr_at(50) > s.lr_at(100));
        // Monotone decreasing.
        let mut prev = s.lr_at(0);
        for t in 1..=100 {
            let cur = s.lr_at(t);
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
        // Clamped beyond the horizon.
        assert_eq!(s.lr_at(500), s.lr_at(100));
    }

    #[test]
    fn degenerate_t_max() {
        let s = CosineAnnealing::new(1e-3, 0);
        assert!(s.lr_at(0).is_finite());
    }
}
