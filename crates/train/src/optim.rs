//! Optimizers. The paper trains with Adam.

use fc_tensor::{ParamStore, Tensor};

/// Adam optimizer state and hyper-parameters (Kingma & Ba), the paper's
/// choice ("'Adam' optimizer is adopted").
#[derive(Clone, Debug)]
pub struct Adam {
    /// Current learning rate (mutated by the scheduler each step).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// L2 weight decay (0 disables).
    pub weight_decay: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Create an optimizer for the given store layout.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let m = store.iter().map(|(_, e)| Tensor::zeros(e.value.rows(), e.value.cols())).collect();
        let v = store.iter().map(|(_, e)| Tensor::zeros(e.value.rows(), e.value.cols())).collect();
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, step: 0, m, v }
    }

    /// Number of steps taken.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> u64 {
        self.step
    }

    /// Apply one update from the store's accumulated gradients, then the
    /// caller typically zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step += 1;
        let t = self.step as f64;
        let bc1 = 1.0 - (self.beta1 as f64).powf(t);
        let bc2 = 1.0 - (self.beta2 as f64).powf(t);
        for (i, (_, entry)) in store.iter_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let g = entry.grad.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            let pd = entry.value.data_mut();
            for k in 0..g.len() {
                let mut gk = g[k];
                if self.weight_decay != 0.0 {
                    gk += self.weight_decay * pd[k];
                }
                md[k] = self.beta1 * md[k] + (1.0 - self.beta1) * gk;
                vd[k] = self.beta2 * vd[k] + (1.0 - self.beta2) * gk * gk;
                let mhat = md[k] as f64 / bc1;
                let vhat = vd[k] as f64 / bc2;
                pd[k] -= self.lr * (mhat / (vhat.sqrt() + self.eps as f64)) as f32;
            }
        }
    }
}

/// Clip the global gradient norm to `max_norm`; returns the pre-clip norm.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f64) -> f64 {
    let norm = store.grad_norm();
    if norm > max_norm && norm > 0.0 {
        let scale = (max_norm / norm) as f32;
        for (_, e) in store.iter_mut() {
            e.grad.scale_inplace(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tensor::{Tape, Var};
    use fc_verify::{gradcheck_scalar, GradCheckConfig};

    /// f(w) = Σ (w - 3)², differentiated by the tape — the old tests
    /// hard-wired the derivative 2·(w-3) by hand.
    fn quadratic_loss(t: &Tape, w: Var) -> Var {
        t.sum_all(t.square(t.add_scalar(w, -3.0)))
    }

    /// Minimise f(w) = (w - 3)² with Adam; must converge to w = 3.
    #[test]
    fn adam_minimises_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store, 0.1);
        for _ in 0..500 {
            let tape = Tape::new();
            let loss = quadratic_loss(&tape, tape.param(&store, w));
            let gm = tape.backward(loss);
            store.accumulate_grads(&tape, &gm);
            opt.step(&mut store);
            store.zero_grads();
        }
        let w_final = store.value(w).item();
        assert!((w_final - 3.0).abs() < 1e-2, "converged to {w_final}");
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adam_handles_multiple_params() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(2, 2));
        let b = store.add("b", Tensor::ones(1, 3));
        let mut opt = Adam::new(&store, 0.05);
        for _ in 0..300 {
            // f = Σ (a - 1)² + Σ (b + 2)², gradients via the tape.
            let tape = Tape::new();
            let la = tape.sum_all(tape.square(tape.add_scalar(tape.param(&store, a), -1.0)));
            let lb = tape.sum_all(tape.square(tape.add_scalar(tape.param(&store, b), 2.0)));
            let gm = tape.backward(tape.add(la, lb));
            store.accumulate_grads(&tape, &gm);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(store.value(a).data().iter().all(|&x| (x - 1.0).abs() < 0.05));
        assert!(store.value(b).data().iter().all(|&x| (x + 2.0).abs() < 0.05));
    }

    /// The tape gradient the Adam tests optimise against is itself
    /// validated by the shared finite-difference engine.
    #[test]
    fn tape_gradient_of_test_objective_matches_fd() {
        gradcheck_scalar(
            "sum((w-3)²)",
            GradCheckConfig::default(),
            quadratic_loss,
            &Tensor::row_vec(&[0.0, 1.4, 5.0]),
        )
        .assert_ok();
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(5.0));
        let mut opt = Adam::new(&store, 0.1);
        opt.weight_decay = 0.5;
        for _ in 0..200 {
            store.entry_mut(w).grad = Tensor::scalar(0.0);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(store.value(w).item().abs() < 1.0);
    }

    #[test]
    fn clip_scales_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.entry_mut(w).grad = Tensor::row_vec(&[3.0, 4.0]); // norm 5
        let pre = clip_grad_norm(&mut store, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // No-op below the threshold.
        let pre2 = clip_grad_norm(&mut store, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }
}
