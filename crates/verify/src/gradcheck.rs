//! Generic gradient-check engine: central-difference Jacobians compared
//! against tape reverse-mode, with per-element failure reporting.
//!
//! Every gradient test in the workspace funnels through here instead of
//! hand-rolling its own finite-difference loop. The comparison criterion
//! is the standard mixed absolute/relative bound
//!
//! ```text
//! |fd - analytic| <= abs_tol + rel_tol * max(|fd|, |analytic|)
//! ```
//!
//! evaluated per element, so one bad entry in a large Jacobian is
//! reported with its indices and both values rather than drowning in an
//! aggregate norm. See DESIGN.md ("Verification tolerance policy") for
//! how step sizes and tolerances are chosen per op class.

use fc_tensor::{Tape, Tensor, Var};

/// Step size and tolerances for one gradient check.
#[derive(Clone, Copy, Debug)]
pub struct GradCheckConfig {
    /// Central-difference step `h` (applied per input element).
    pub step: f32,
    /// Relative tolerance (scaled by `max(|fd|, |analytic|)`).
    pub rel_tol: f32,
    /// Absolute tolerance floor.
    pub abs_tol: f32,
    /// Max failures listed in the panic message of [`GradReport::assert_ok`].
    pub max_reported: usize,
}

impl Default for GradCheckConfig {
    fn default() -> Self {
        GradCheckConfig { step: 1e-3, rel_tol: 5e-3, abs_tol: 1e-5, max_reported: 8 }
    }
}

impl GradCheckConfig {
    /// Loosened tolerances for ops with cancellation-heavy f32 kernels
    /// (fused basis functions, segment reductions over many terms).
    pub fn loose() -> Self {
        GradCheckConfig { step: 1e-3, rel_tol: 2e-2, abs_tol: 1e-4, max_reported: 8 }
    }

    /// Per-element tolerance bound for a (fd, analytic) pair.
    pub fn tol_for(&self, fd: f32, an: f32) -> f32 {
        self.abs_tol + self.rel_tol * fd.abs().max(an.abs())
    }
}

/// One Jacobian element that violated its tolerance.
#[derive(Clone, Copy, Debug)]
pub struct ElementFailure {
    /// Row-major index into the flattened output.
    pub out_index: usize,
    /// Row-major index into the flattened input.
    pub in_index: usize,
    /// Reverse-mode value.
    pub analytic: f32,
    /// Central-difference value.
    pub numeric: f32,
    /// `|numeric - analytic|`.
    pub error: f32,
    /// The bound this element had to meet.
    pub tol: f32,
}

/// Outcome of one gradient check: every compared element plus the
/// failures, if any.
#[derive(Clone, Debug)]
pub struct GradReport {
    /// Human-readable label of the function under test.
    pub label: String,
    /// Number of Jacobian elements compared.
    pub checked: usize,
    /// Elements that violated the tolerance, in row-major order.
    pub failures: Vec<ElementFailure>,
    /// Largest `|numeric - analytic|` seen anywhere.
    pub max_error: f32,
    /// Config the check ran with (echoed into failure messages).
    pub config: GradCheckConfig,
}

impl GradReport {
    /// True when every element met its tolerance.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panic with a per-element breakdown if any element failed.
    pub fn assert_ok(&self) {
        if self.is_ok() {
            return;
        }
        let mut msg = format!(
            "gradcheck '{}' failed: {}/{} elements out of tolerance \
             (step={:.1e}, rel_tol={:.1e}, abs_tol={:.1e}, max_error={:.3e})",
            self.label,
            self.failures.len(),
            self.checked,
            self.config.step,
            self.config.rel_tol,
            self.config.abs_tol,
            self.max_error,
        );
        for f in self.failures.iter().take(self.config.max_reported) {
            msg.push_str(&format!(
                "\n  d out[{}] / d in[{}]: analytic={:+.6e} fd={:+.6e} |err|={:.3e} > tol={:.3e}",
                f.out_index, f.in_index, f.analytic, f.numeric, f.error, f.tol
            ));
        }
        if self.failures.len() > self.config.max_reported {
            msg.push_str(&format!(
                "\n  ... and {} more",
                self.failures.len() - self.config.max_reported
            ));
        }
        panic!("{msg}");
    }
}

/// Compare two flattened Jacobians element-by-element.
fn compare(
    label: &str,
    cfg: &GradCheckConfig,
    analytic: &[f32],
    numeric: &[f32],
    in_len: usize,
) -> GradReport {
    assert_eq!(analytic.len(), numeric.len());
    let mut failures = Vec::new();
    let mut max_error = 0.0f32;
    for (k, (&an, &fd)) in analytic.iter().zip(numeric).enumerate() {
        let error = (fd - an).abs();
        max_error = max_error.max(error);
        let tol = cfg.tol_for(fd, an);
        if error > tol || !error.is_finite() {
            failures.push(ElementFailure {
                out_index: k / in_len,
                in_index: k % in_len,
                analytic: an,
                numeric: fd,
                error,
                tol,
            });
        }
    }
    GradReport {
        label: label.to_string(),
        checked: analytic.len(),
        failures,
        max_error,
        config: *cfg,
    }
}

/// Check the dense Jacobian of `build` (any output shape) at `x0`:
/// reverse-mode rows via [`Tape::jacobian`] against central-difference
/// columns from re-evaluating `build` at `x0 ± h·e_i` on fresh tapes.
pub fn gradcheck_jacobian(
    label: &str,
    cfg: GradCheckConfig,
    build: impl Fn(&Tape, Var) -> Var,
    x0: &Tensor,
) -> GradReport {
    // Analytic Jacobian.
    let tape = Tape::new();
    let x = tape.input(x0.clone());
    let y = build(&tape, x);
    let out_shape = tape.shape(y);
    let out_len = out_shape.rows * out_shape.cols;
    let in_len = x0.len();
    let analytic = tape.jacobian(y, x);

    // Central-difference Jacobian, one input element per column.
    let eval = |x_pert: Tensor| -> Tensor {
        let t = Tape::new();
        let xv = t.input(x_pert);
        let yv = build(&t, xv);
        t.value(yv)
    };
    let mut numeric = vec![0.0f32; out_len * in_len];
    for i in 0..in_len {
        let mut xp = x0.clone();
        xp.data_mut()[i] += cfg.step;
        let mut xm = x0.clone();
        xm.data_mut()[i] -= cfg.step;
        let yp = eval(xp);
        let ym = eval(xm);
        assert_eq!(yp.len(), out_len, "output length changed under perturbation");
        for j in 0..out_len {
            numeric[j * in_len + i] = (yp.data()[j] - ym.data()[j]) / (2.0 * cfg.step);
        }
    }

    compare(label, &cfg, analytic.data(), &numeric, in_len)
}

/// Check the gradient of a scalar-valued `build` at `x0`. Same engine as
/// [`gradcheck_jacobian`] but asserts the output really is a scalar, so
/// loss-function tests fail loudly if a reduction is dropped.
pub fn gradcheck_scalar(
    label: &str,
    cfg: GradCheckConfig,
    build: impl Fn(&Tape, Var) -> Var,
    x0: &Tensor,
) -> GradReport {
    {
        let tape = Tape::new();
        let x = tape.input(x0.clone());
        let y = build(&tape, x);
        assert!(
            tape.shape(y).is_scalar(),
            "gradcheck_scalar '{label}': output is {:?}, not a scalar",
            tape.shape(y)
        );
    }
    gradcheck_jacobian(label, cfg, build, x0)
}

/// Central-difference directional derivative of an arbitrary black-box
/// scalar function — for checks where the "input" is not a flat tensor
/// (e.g. energy vs. a strain component, or a cartesian displacement that
/// must be re-wrapped into fractional coordinates).
#[cfg(test)]
fn central_diff(f: impl Fn(f64) -> f64, h: f64) -> f64 {
    (f(h) - f(-h)) / (2.0 * h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_check_passes_on_smooth_function() {
        let x0 = Tensor::from_vec(fc_tensor::Shape::new(1, 4), vec![0.3, -0.7, 1.2, 0.05]);
        let rep = gradcheck_scalar(
            "sum(tanh(x)^2)",
            GradCheckConfig::default(),
            |t, x| t.sum_all(t.square(t.tanh(x))),
            &x0,
        );
        rep.assert_ok();
        assert_eq!(rep.checked, 4);
    }

    #[test]
    fn jacobian_check_passes_on_vector_function() {
        let x0 =
            Tensor::from_vec(fc_tensor::Shape::new(2, 3), vec![0.1, 0.4, -0.2, 0.9, -0.5, 0.3]);
        gradcheck_jacobian("sigmoid(x)", GradCheckConfig::default(), |t, x| t.sigmoid(x), &x0)
            .assert_ok();
    }

    #[test]
    fn detects_mismatch_with_element_detail() {
        // A deliberately coarse FD step on exp() violates a tight
        // tolerance; the report must pinpoint the offending element
        // rather than just failing in aggregate.
        let x1 = Tensor::from_vec(fc_tensor::Shape::new(1, 1), vec![2.0]);
        let bad = gradcheck_scalar(
            "exp with absurd step",
            GradCheckConfig { step: 1.5, rel_tol: 1e-4, abs_tol: 1e-6, max_reported: 4 },
            |t, x| t.sum_all(t.exp(x)),
            &x1,
        );
        assert!(!bad.is_ok(), "large-step FD on exp must violate tight tolerance");
        let f = &bad.failures[0];
        assert_eq!((f.out_index, f.in_index), (0, 0));
        assert!(f.error > f.tol);
        assert_eq!(bad.checked, 1);
    }

    #[test]
    fn central_diff_matches_derivative() {
        let d = central_diff(|h| (1.0 + h).powi(3), 1e-5);
        assert!((d - 3.0).abs() < 1e-6);
    }
}
