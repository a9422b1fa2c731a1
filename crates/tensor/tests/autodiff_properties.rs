//! Property-based tests of the autodiff engine: every differentiable op's
//! VJP is validated against central finite differences on random inputs,
//! and algebraic identities of the kernels are fuzzed.
//!
//! All finite-difference comparisons go through the shared
//! `fc_verify::gradcheck` engine (this is an integration test, so the
//! `fc_verify` dev-dependency sees the same `fc_tensor` build). Tape
//! internals that integration tests cannot reach (rewind marks, param
//! injection, double backward) stay unit-tested in `src/backward.rs`.

use fc_tensor::{Shape, Tape, Tensor};
use fc_verify::{check_cases, gradcheck_scalar, GradCheckConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Cases per property.
const CASES: u64 = 16;

/// The legacy hand-rolled FD loops used the criterion
/// `|fd - an| <= tol * (1 + max(|fd|, |an|))`, i.e. `tol` acted as both
/// the absolute floor and the relative factor. Preserve those bounds
/// exactly while funnelling through the shared engine.
fn cfg(step: f32, tol: f32) -> GradCheckConfig {
    GradCheckConfig { step, rel_tol: tol, abs_tol: tol, max_reported: 8 }
}

/// A `rows x cols` matrix with entries in -2..2.
fn small_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let v = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(Shape::new(rows, cols), v)
}

#[test]
fn smooth_unary_grads_match_fd() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 2, 3);
        // Chain of smooth unaries; avoids kinks (abs/clamp) where FD lies.
        let rep = gradcheck_scalar(
            "smooth_unary_chain",
            cfg(1e-2, 0.05),
            |t, v| {
                let a = t.sigmoid(v);
                let b = t.tanh(t.scale(v, 0.7));
                let c = t.exp(t.scale(v, 0.3));
                t.sum_all(t.mul(t.add(a, b), c))
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn matmul_grad_matches_fd() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 3, 2);
        let w = small_matrix(rng, 2, 4);
        let rep = gradcheck_scalar(
            "matmul_square",
            cfg(1e-2, 0.05),
            move |t, v| {
                let wv = t.constant(w.clone());
                t.sum_all(t.square(t.matmul(v, wv)))
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn broadcast_binary_grads_match_fd() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 3, 1);
        // Column-broadcast multiply against a dense constant.
        let rep = gradcheck_scalar(
            "broadcast_mul",
            cfg(1e-2, 0.05),
            |t, v| {
                let dense = t.constant(Tensor::from_rows(&[
                    vec![0.5, -1.0, 2.0],
                    vec![1.5, 0.3, -0.7],
                    vec![-0.2, 0.8, 1.1],
                ]));
                t.sum_all(t.square(t.mul(dense, v)))
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn gather_segment_roundtrip_grads() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 4, 2);
        let idx: Arc<[u32]> = Arc::from(vec![0u32, 2, 2, 3, 1]);
        let seg: Arc<[u32]> = Arc::from(vec![1u32, 0, 1, 1, 0]);
        let rep = gradcheck_scalar(
            "gather_segment",
            cfg(1e-2, 0.05),
            move |t, v| {
                let g = t.gather(v, idx.clone());
                let s = t.segment_sum(t.square(g), seg.clone(), 2);
                t.sum_all(s)
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn transpose_reshape_concat_grads() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 2, 3);
        let rep = gradcheck_scalar(
            "transpose_reshape_concat",
            cfg(1e-2, 0.05),
            |t, v| {
                let tr = t.transpose(v); // (3,2)
                let rs = t.reshape(tr, 2, 3); // (2,3)
                let cat = t.concat_cols(&[v, rs]); // (2,6)
                let sl = t.slice_cols(cat, 2, 3); // (2,3)
                t.sum_all(t.mul(sl, sl))
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn layer_norm_grad_matches_fd() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 3, 4);
        let rep = gradcheck_scalar(
            "layer_norm_square",
            cfg(1e-2, 0.08),
            |t, v| {
                let gamma = t.constant(Tensor::row_vec(&[1.1, 0.9, 1.0, 1.2]));
                let beta = t.constant(Tensor::row_vec(&[0.0, 0.1, -0.1, 0.0]));
                let ln = t.layer_norm(v, gamma, beta, 1e-3);
                t.sum_all(t.square(ln))
            },
            &x,
        );
        assert!(rep.is_ok(), "{:?}", rep.failures);
    });
}

#[test]
fn second_derivative_of_polynomial_is_exact() {
    check_cases(CASES, |rng| {
        let a = rng.gen_range(-2.0f32..2.0);
        let b = rng.gen_range(-2.0f32..2.0);
        // y = a x³ + b x² at x: y'' = 6 a x + 2 b, checked symbolically
        // through double backward.
        let x0 = 0.7f32;
        let tape = Tape::new();
        let x = tape.input(Tensor::scalar(x0));
        let y = {
            let x3 = tape.scale(tape.powi(x, 3), a);
            let x2 = tape.scale(tape.powi(x, 2), b);
            tape.add(x3, x2)
        };
        let g1 = tape.backward(y).get(x).unwrap();
        let g2 = tape.backward(g1).get(x).unwrap();
        let expect = 6.0 * a * x0 + 2.0 * b;
        let got = tape.value(g2).item();
        assert!((got - expect).abs() < 1e-3 * (1.0 + expect.abs()), "{got} vs {expect}");
    });
}

#[test]
fn sum_axes_compose() {
    check_cases(CASES, |rng| {
        let x = small_matrix(rng, 3, 4);
        // sum_all == sum(sum(cols)) == sum(sum(rows)).
        let tape = Tape::new();
        let v = tape.constant(x);
        let all = tape.value(tape.sum_all(v)).item();
        let via_cols = tape.value(tape.sum_all(tape.sum(v, fc_tensor::Axis::Cols))).item();
        let via_rows = tape.value(tape.sum_all(tape.sum(v, fc_tensor::Axis::Rows))).item();
        assert!((all - via_cols).abs() < 1e-3 * (1.0 + all.abs()));
        assert!((all - via_rows).abs() < 1e-3 * (1.0 + all.abs()));
    });
}

#[test]
fn matmul_distributes_over_add() {
    check_cases(CASES, |rng| {
        let a = small_matrix(rng, 2, 3);
        let b = small_matrix(rng, 2, 3);
        let w = small_matrix(rng, 3, 2);
        let tape = Tape::new();
        let (av, bv, wv) = (tape.constant(a), tape.constant(b), tape.constant(w));
        let lhs = tape.value(tape.matmul(tape.add(av, bv), wv));
        let rhs = tape.value(tape.add(tape.matmul(av, wv), tape.matmul(bv, wv)));
        assert!(lhs.approx_eq(&rhs, 1e-4));
    });
}

#[test]
fn fused_gate_equals_composition() {
    check_cases(CASES, |rng| {
        let a = small_matrix(rng, 2, 3);
        let b = small_matrix(rng, 2, 3);
        let tape = Tape::new();
        let (av, bv) = (tape.constant(a), tape.constant(b));
        let fused = tape.value(tape.fused_gate(av, bv));
        let composed = tape.value(tape.mul(tape.sigmoid(av), tape.silu(bv)));
        assert!(fused.approx_eq(&composed, 1e-5));
    });
}

// ---------------------------------------------------------------------
// Fixed-point gradient checks, ported from the former hand-rolled FD
// loops in `src/backward.rs` onto the shared engine. These pin specific
// op combinations at chosen inputs (e.g. away from huber's kink) that
// the random properties above cannot guarantee to hit.
// ---------------------------------------------------------------------

#[test]
fn grad_of_elementwise_chain() {
    gradcheck_scalar(
        "sum(exp(0.3·x·sin(x)))",
        cfg(1e-3, 2e-2),
        |t, x| {
            let a = t.sin(x);
            let b = t.mul(a, x);
            let c = t.exp(t.scale(b, 0.3));
            t.sum_all(c)
        },
        &Tensor::row_vec(&[0.5, -1.2, 2.0]),
    )
    .assert_ok();
}

#[test]
fn grad_of_sigmoid_silu_tanh() {
    gradcheck_scalar(
        "sum((sigmoid+silu)·tanh)",
        cfg(1e-3, 2e-2),
        |t, x| {
            let a = t.sigmoid(x);
            let b = t.silu(x);
            let c = t.tanh(x);
            t.sum_all(t.mul(t.add(a, b), c))
        },
        &Tensor::row_vec(&[0.3, -0.7, 1.5, -2.2]),
    )
    .assert_ok();
}

#[test]
fn grad_of_matmul() {
    gradcheck_scalar(
        "sum((x@W)²)",
        cfg(1e-3, 2e-2),
        |t, x| {
            let w = t.constant(Tensor::from_rows(&[vec![1.0, -2.0], vec![0.5, 1.5]]));
            let y = t.matmul(x, w);
            t.sum_all(t.square(y))
        },
        &Tensor::from_rows(&[vec![0.2, -0.4], vec![1.0, 0.3]]),
    )
    .assert_ok();
}

#[test]
fn grad_of_gather_segment() {
    let idx: Arc<[u32]> = Arc::from(vec![0u32, 1, 1, 2]);
    let seg: Arc<[u32]> = Arc::from(vec![0u32, 0, 1, 1]);
    gradcheck_scalar(
        "sum(segment_sum(gather(x)²))",
        cfg(1e-3, 2e-2),
        move |t, x| {
            let gathered = t.gather(x, idx.clone());
            let sq = t.square(gathered);
            let agg = t.segment_sum(sq, seg.clone(), 2);
            t.sum_all(agg)
        },
        &Tensor::from_rows(&[vec![1.0, 2.0], vec![-0.5, 0.3], vec![0.8, -1.1]]),
    )
    .assert_ok();
}

#[test]
fn grad_of_layer_norm() {
    gradcheck_scalar(
        "sum(layer_norm(x)²)",
        cfg(1e-3, 3e-2),
        |t, x| {
            let gamma = t.constant(Tensor::row_vec(&[1.2, 0.8, 1.0]));
            let beta = t.constant(Tensor::row_vec(&[0.1, -0.1, 0.0]));
            let ln = t.layer_norm(x, gamma, beta, 1e-5);
            t.sum_all(t.square(ln))
        },
        &Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.2, -0.3]]),
    )
    .assert_ok();
}

#[test]
fn grad_of_fused_layer_norm_matches_fd() {
    gradcheck_scalar(
        "sum(fused_layer_norm(x)²)",
        cfg(1e-3, 3e-2),
        |t, x| {
            let gamma = t.constant(Tensor::row_vec(&[1.2, 0.8, 1.0]));
            let beta = t.constant(Tensor::row_vec(&[0.1, -0.1, 0.0]));
            let ln = t.fused_layer_norm(x, gamma, beta, 1e-4);
            t.sum_all(t.square(ln))
        },
        &Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.2, -0.3]]),
    )
    .assert_ok();
}

#[test]
fn grad_of_huber() {
    // Inputs chosen away from the kink at |x| = delta where FD lies.
    gradcheck_scalar(
        "sum(huber(x, 1.0))",
        cfg(1e-3, 2e-2),
        |t, x| t.sum_all(t.huber(x, 1.0)),
        &Tensor::row_vec(&[0.4, -0.2, 2.5, -3.0]),
    )
    .assert_ok();
}

#[test]
fn grad_of_fused_srbf() {
    let srbf = fc_tensor::SrbfCfg::new(5, 6.0, 8);
    gradcheck_scalar(
        "sum(fused_srbf(r)²)",
        cfg(1e-3, 2e-2),
        move |t, x| {
            let b = t.fused_srbf(x, srbf, 0);
            t.sum_all(t.square(b))
        },
        &Tensor::from_vec(Shape::new(3, 1), vec![1.0, 2.5, 4.0]),
    )
    .assert_ok();
}

#[test]
fn grad_of_fused_fourier_and_gate() {
    gradcheck_scalar(
        "sum(fused_fourier(θ)²)",
        cfg(1e-3, 2e-2),
        |t, x| {
            let f = t.fused_fourier(x, 4, 0);
            t.sum_all(t.square(f))
        },
        &Tensor::from_vec(Shape::new(3, 1), vec![0.4, 1.1, 2.0]),
    )
    .assert_ok();
    gradcheck_scalar(
        "sum(fused_gate(0.5·x, x))",
        cfg(1e-3, 2e-2),
        |t, x| {
            let a = t.scale(x, 0.5);
            let gated = t.fused_gate(a, x);
            t.sum_all(gated)
        },
        &Tensor::row_vec(&[0.3, -1.0, 2.0]),
    )
    .assert_ok();
}

#[test]
fn grad_of_block_diag_matmul() {
    let seg: Arc<[u32]> = Arc::from(vec![0u32, 1]);
    let blocks = Tensor::from_rows(&[
        vec![1.0, 0.5, 0.0],
        vec![0.0, 1.0, 0.2],
        vec![0.3, 0.0, 1.0],
        vec![2.0, 0.0, 0.0],
        vec![0.0, 2.0, 0.0],
        vec![0.0, 0.0, 2.0],
    ]);
    // Gradient w.r.t. lhs rows.
    let b2 = blocks.clone();
    let s2 = seg.clone();
    gradcheck_scalar(
        "block_diag_matmul d/da",
        cfg(1e-3, 2e-2),
        move |t, x| {
            let b = t.constant(b2.clone());
            let y = t.block_diag_matmul(x, b, s2.clone(), false);
            t.sum_all(t.square(y))
        },
        &Tensor::from_rows(&[vec![1.0, -0.5, 0.2], vec![0.3, 0.9, -1.0]]),
    )
    .assert_ok();
    // Gradient w.r.t. the blocks.
    let a_fixed = Tensor::from_rows(&[vec![1.0, -0.5, 0.2], vec![0.3, 0.9, -1.0]]);
    gradcheck_scalar(
        "block_diag_matmul d/db",
        cfg(1e-3, 2e-2),
        move |t, x| {
            let a = t.constant(a_fixed.clone());
            let y = t.block_diag_matmul(a, x, seg.clone(), false);
            t.sum_all(t.square(y))
        },
        &blocks,
    )
    .assert_ok();
}
